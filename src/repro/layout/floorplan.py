"""The Floorplan3D container: placements, TSVs, and derived maps.

A :class:`Floorplan3D` is the central exchange object between the
floorplanning engine, the thermal solvers, the leakage metrics, the
voltage-assignment stage, and the attack/mitigation layers.  It owns

* the stack configuration (outline, die count),
* one :class:`~repro.layout.module.Placement` per module,
* the signal TSVs implied by inter-die nets (placed near net bounding
  boxes) plus any dummy thermal TSVs inserted by post-processing,
* convenience accessors for per-die power maps and TSV density maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .die import StackConfig
from .geometry import total_overlap_area
from .grid import GridSpec, rasterize_power
from .module import Module, Placement
from .net import CompiledNetlist, Net, Terminal
from .tsv import TSV, SignalSites, TSVKind, tsv_density_map

__all__ = ["Floorplan3D"]


@dataclass
class Floorplan3D:
    """A complete (not necessarily legal) 3D floorplan.

    Legality — all modules inside the fixed outline, no overlaps per die —
    is checked by :meth:`validate`; the annealer works with intermediate
    layouts that may violate the outline (penalized in cost).
    """

    stack: StackConfig
    placements: Dict[str, Placement]
    nets: Tuple[Net, ...] = ()
    terminals: Dict[str, Terminal] = field(default_factory=dict)
    tsvs: List[TSV] = field(default_factory=list)

    # -- basic accessors ------------------------------------------------------
    @property
    def modules(self) -> List[Module]:
        return [p.module for p in self.placements.values()]

    def placements_on(self, die: int) -> List[Placement]:
        return [p for p in self.placements.values() if p.die == die]

    @property
    def signal_tsvs(self) -> List[TSV]:
        return [t for t in self.tsvs if t.kind == TSVKind.SIGNAL]

    @property
    def thermal_tsvs(self) -> List[TSV]:
        return [t for t in self.tsvs if t.kind == TSVKind.THERMAL]

    # -- legality -------------------------------------------------------------
    def validate(self, tolerance: float = 1e-6) -> List[str]:
        """Return a list of legality violations (empty = legal layout)."""
        problems: List[str] = []
        outline = self.stack.outline
        for die in range(self.stack.num_dies):
            rects = [p.rect for p in self.placements_on(die)]
            for p in self.placements_on(die):
                r = p.rect
                if (
                    r.x < outline.x - tolerance
                    or r.y < outline.y - tolerance
                    or r.x2 > outline.x2 + tolerance
                    or r.y2 > outline.y2 + tolerance
                ):
                    problems.append(f"{p.name}: outside outline on die {die}")
            overlap = total_overlap_area(rects)
            if overlap > tolerance * max(1.0, outline.area):
                problems.append(f"die {die}: total module overlap {overlap:.3g} um^2")
        for tsv in self.tsvs:
            if not outline.contains_point(tsv.x, tsv.y):
                problems.append(f"TSV at ({tsv.x:.1f}, {tsv.y:.1f}) outside outline")
        return problems

    # -- interconnect ----------------------------------------------------------
    def module_centers(
        self, names: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centres ``(cx, cy)`` and dies of the modules ``names``, in that
        order — the per-module arrays a compiled netlist reads."""
        placements = [self.placements[n] for n in names]
        centers = np.array([p.center for p in placements], dtype=float).reshape(-1, 2)
        dies = np.array([p.die for p in placements], dtype=np.int64)
        return centers[:, 0], centers[:, 1], dies

    def compiled_netlist(self) -> CompiledNetlist:
        """This floorplan's nets compiled over its module names."""
        return CompiledNetlist(list(self.placements), self.nets, self.terminals)

    def wirelength(self, netlist: CompiledNetlist | None = None) -> Tuple[float, int]:
        """(total 3D HPWL in um, number of die crossings == signal TSVs).

        ``netlist`` is as for :meth:`signal_sites`.
        """
        if netlist is None:
            netlist = self.compiled_netlist()
        return netlist.wirelength(*self.module_centers(netlist.module_names))

    def signal_sites(self, netlist: CompiledNetlist | None = None) -> SignalSites:
        """Signal-TSV sites of the inter-die nets, from the placements.

        ``netlist`` is this floorplan's nets compiled over its module
        names; a caller that already holds one (the anneal, with its
        cost evaluator's) passes it in.
        """
        if netlist is None:
            netlist = self.compiled_netlist()
        # kept half a TSV pitch inside the outline
        return netlist.sites(
            *self.module_centers(netlist.module_names),
            self.stack.outline,
            self.stack.tsv_pitch / 2.0,
        )

    def place_signal_tsvs(self, netlist: CompiledNetlist | None = None) -> None:
        """Derive signal TSV sites from inter-die nets.

        Each die crossing of a net contributes one TSV placed at the
        clipped centroid of the net's pins — the natural routing position.
        Replaces previously derived signal TSVs; dummy thermal TSVs are
        kept untouched.  ``netlist`` is as for :meth:`signal_sites`.
        """
        sites = self.signal_sites(netlist)
        new_tsvs: List[TSV] = [t for t in self.tsvs if t.kind == TSVKind.THERMAL]
        for x, y, lo, hi in zip(
            sites.x.tolist(), sites.y.tolist(), sites.lo.tolist(), sites.hi.tolist()
        ):
            new_tsvs.extend(
                TSV(
                    x,
                    y,
                    d,
                    d + 1,
                    kind=TSVKind.SIGNAL,
                    diameter=self.stack.tsv_diameter,
                    keepout=self.stack.tsv_keepout,
                )
                for d in range(lo, hi)
            )
        self.tsvs = new_tsvs

    # -- maps -------------------------------------------------------------------
    def power_map(
        self,
        die: int,
        grid: GridSpec | None = None,
        activity: Mapping[str, float] | None = None,
    ) -> np.ndarray:
        """Per-die power map in W per cell (see ``layout.grid``)."""
        grid = grid or GridSpec(self.stack.outline)
        return rasterize_power(self.placements.values(), grid, die, activity=activity)

    def tsv_density(
        self, die_pair: Tuple[int, int] = (0, 1), grid: GridSpec | None = None
    ) -> np.ndarray:
        """TSV footprint density map between a die pair, in [0, 1]."""
        grid = grid or GridSpec(self.stack.outline)
        return tsv_density_map(self.tsvs, self.stack.outline, grid.nx, grid.ny, between=die_pair)

    def tsv_densities(
        self, grid: GridSpec | None = None
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """TSV footprint density maps for *every* adjacent die pair.

        This is what the detailed thermal builders should consume —
        hardcoding the (0, 1) pair silently drops TSVs between upper dies
        in stacks with more than two tiers.
        """
        grid = grid or GridSpec(self.stack.outline)
        return {
            pair: self.tsv_density(pair, grid) for pair in self.stack.die_pairs()
        }

    def total_power(self) -> float:
        """Total power in W including voltage scaling."""
        from ..power.voltages import total_power

        placements = self.placements.values()
        return total_power([p.module.power for p in placements], [p.voltage for p in placements])

    # -- copies -----------------------------------------------------------------
    def copy(self) -> "Floorplan3D":
        return Floorplan3D(
            stack=self.stack,
            placements=dict(self.placements),
            nets=self.nets,
            terminals=dict(self.terminals),
            tsvs=list(self.tsvs),
        )

    def with_voltages(self, voltages: Mapping[str, float]) -> "Floorplan3D":
        """A copy with per-module supply voltages applied."""
        fp = self.copy()
        fp.placements = {
            name: (p.with_voltage(voltages[name]) if name in voltages else p)
            for name, p in fp.placements.items()
        }
        return fp
