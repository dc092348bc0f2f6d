"""Deterministic synthetic generator for the paper's benchmark instances.

The GSRC (n100/n200/n300) and IBM-HB+ (ibm01/ibm03/ibm07) files are not
redistributable inside this repository, so we synthesize instances that
match every property the paper's Table 1 reports: module counts and
hard/soft split, the footprint scale factor, net and terminal counts, the
fixed per-die outline, and the total nominal power at 1.0 V.  The
instances live in memory as :class:`BenchmarkCircuit`; no file format is
read or written.

Generation is fully deterministic (seeded from the benchmark name), so all
experiments are repeatable.  Structural choices follow the character of
the original suites:

* module areas are lognormally distributed (real IP-block area spreads
  span roughly two orders of magnitude);
* net pin selection is locality-biased via a random linear ordering of
  modules, giving the Rent's-rule-like short-net bias of real netlists;
* powers are lognormally distributed across modules and normalized to the
  Table 1 totals, producing the non-uniform power maps that drive the
  paper's leakage findings.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..layout.geometry import Rect
from ..layout.module import Module, ModuleKind
from ..layout.net import Net, Terminal

__all__ = ["BenchmarkCircuit", "BenchmarkSpec", "generate_circuit"]


@dataclass
class BenchmarkCircuit:
    """A benchmark instance: modules, nets, terminals, and nominal power."""

    name: str
    modules: Dict[str, Module]
    nets: List[Net]
    terminals: Dict[str, Terminal]

    @property
    def num_hard(self) -> int:
        return sum(1 for m in self.modules.values() if m.kind == ModuleKind.HARD)

    @property
    def num_soft(self) -> int:
        return sum(1 for m in self.modules.values() if m.kind == ModuleKind.SOFT)

    @property
    def total_power(self) -> float:
        """Total nominal power in W at the 1.0 V reference."""
        return sum(m.power for m in self.modules.values())


@dataclass(frozen=True)
class BenchmarkSpec:
    """Target properties for one synthetic benchmark (one Table 1 row)."""

    name: str
    num_hard: int
    num_soft: int
    scale_factor: float
    num_nets: int
    num_terminals: int
    outline_mm2: float
    total_power_w: float
    #: target silicon utilization of the two-die stack
    utilization: float = 0.55
    seed: int = 0

    @property
    def num_modules(self) -> int:
        return self.num_hard + self.num_soft

    @property
    def outline(self) -> Rect:
        """Per-die fixed outline in um (square, as customary for GSRC)."""
        side_um = math.sqrt(self.outline_mm2) * 1000.0
        return Rect(0.0, 0.0, side_um, side_um)


def _module_areas(spec: BenchmarkSpec, rng: np.random.Generator, num_dies: int) -> np.ndarray:
    """Lognormal module areas normalized so the stack hits the target
    utilization after footprint scaling."""
    raw = rng.lognormal(mean=0.0, sigma=0.7, size=spec.num_modules)
    target_total = spec.utilization * spec.outline.area * num_dies
    areas = raw / raw.sum() * target_total
    # No module may exceed a third of the die, or fixed-outline packing
    # becomes infeasible; clip and renormalize the remainder.
    cap = spec.outline.area / 3.0
    for _ in range(8):
        over = areas > cap
        if not over.any():
            break
        excess = float(areas[over].sum() - cap * over.sum())
        areas[over] = cap
        under = ~over
        areas[under] += excess * areas[under] / max(areas[under].sum(), 1e-12)
    return areas


def _intrinsic_delay(area_um2: float) -> float:
    """Area-derived module delay in ns at 1.0 V (see repro.timing)."""
    return 5e-4 * math.sqrt(area_um2)


def generate_circuit(spec: BenchmarkSpec, num_dies: int = 2) -> BenchmarkCircuit:
    """Generate the synthetic benchmark for ``spec``.

    The returned circuit is already footprint-scaled (the ``scale_factor``
    is applied internally so module dimensions directly fit the Table 1
    outline; the factor itself is recorded in the suite registry).
    """
    # stable across processes (Python's hash() is salted per interpreter)
    digest = hashlib.md5(f"repro-bench:{spec.name}:{spec.seed}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    areas = _module_areas(spec, rng, num_dies)

    modules: Dict[str, Module] = {}
    # Hard blocks first (IBM-HB+ mixes both; GSRC n-suites are all soft).
    aspects = rng.uniform(0.5, 2.0, size=spec.num_modules)
    power_weights = rng.lognormal(mean=0.0, sigma=0.9, size=spec.num_modules)
    powers = power_weights / power_weights.sum() * spec.total_power_w
    for i in range(spec.num_modules):
        is_hard = i < spec.num_hard
        name = f"sb{i}" if not is_hard else f"hb{i}"
        area = float(areas[i])
        aspect = float(aspects[i])
        h = math.sqrt(area / aspect)
        w = area / h
        modules[name] = Module(
            name,
            w,
            h,
            kind=ModuleKind.HARD if is_hard else ModuleKind.SOFT,
            power=float(powers[i]),
            intrinsic_delay=_intrinsic_delay(area),
        )

    # Terminals sit on the die boundary, evenly spread over all four edges.
    terminals: Dict[str, Terminal] = {}
    outline = spec.outline
    perimeter_positions = np.linspace(0.0, 4.0, spec.num_terminals, endpoint=False)
    for k, s in enumerate(perimeter_positions):
        edge = int(s)
        frac = s - edge
        if edge == 0:
            x, y = outline.x + frac * outline.w, outline.y
        elif edge == 1:
            x, y = outline.x2, outline.y + frac * outline.h
        elif edge == 2:
            x, y = outline.x2 - frac * outline.w, outline.y2
        else:
            x, y = outline.x, outline.y2 - frac * outline.h
        name = f"p{k}"
        terminals[name] = Terminal(name, float(x), float(y))

    # Locality-biased netlist: modules get a random 1D ordering; net pins
    # are drawn from a window around a random anchor, yielding mostly-local
    # nets with a tail of global ones.
    names = list(modules)
    order = rng.permutation(len(names))
    ranked = [names[i] for i in np.argsort(order)]
    nets: List[Net] = []
    term_names = list(terminals)
    term_quota = spec.num_terminals  # each terminal used at least once
    for n in range(spec.num_nets):
        degree = 2 + int(rng.geometric(0.55))
        degree = min(degree, max(2, len(names) // 2))
        anchor = int(rng.integers(0, len(ranked)))
        window = max(4, int(len(ranked) * (0.02 if rng.random() < 0.8 else 0.5)))
        lo = max(0, anchor - window)
        hi = min(len(ranked), anchor + window)
        candidates = ranked[lo:hi]
        take = min(degree, len(candidates))
        idx = rng.choice(len(candidates), size=take, replace=False)
        pins = tuple(candidates[i] for i in idx)
        terms: Tuple[str, ...] = ()
        if term_quota > 0 and rng.random() < 0.25:
            terms = (term_names[spec.num_terminals - term_quota],)
            term_quota -= 1
        elif rng.random() < 0.05:
            terms = (term_names[int(rng.integers(0, len(term_names)))],)
        if len(pins) + len(terms) < 2:
            continue
        nets.append(Net(f"net{n}", pins, terms))

    return BenchmarkCircuit(name=spec.name, modules=modules, nets=nets, terminals=terminals)
