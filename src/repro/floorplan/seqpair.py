"""Per-die sequence-pair layout representation and packing.

Corblivar encodes die layouts as corner block lists; we use the equally
standard *sequence pair* encoding (see DESIGN.md for the substitution
note).  A sequence pair (s1, s2) over the blocks of one die encodes
relative positions:

* b left of c  iff b precedes c in both s1 and s2;
* b below c    iff b succeeds c in s1 and precedes c in s2.

Packing to coordinates is the weighted longest-common-subsequence
computation, implemented here with a prefix-max binary indexed tree in
O(n log n) per die — fast enough to sit inside the simulated-annealing
loop even for the ~1300-module IBM-HB+ instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..layout.die import StackConfig
from ..layout.floorplan import Floorplan3D
from ..layout.module import Module, ModuleKind, Placement
from ..layout.net import Net, Terminal

__all__ = ["DieSequencePair", "LayoutState", "keeps_nominal_size", "pack_die"]


class _PrefixMaxBIT:
    """Binary indexed tree supporting prefix-max queries and point updates."""

    def __init__(self, size: int) -> None:
        self._size = size
        self._tree = [0.0] * (size + 1)

    def update(self, index: int, value: float) -> None:
        """Raise position ``index`` (0-based) to at least ``value``."""
        i = index + 1
        while i <= self._size:
            if self._tree[i] < value:
                self._tree[i] = value
            i += i & (-i)

    def query(self, index: int) -> float:
        """Max over positions [0, index] (0-based); 0.0 when index < 0."""
        best = 0.0
        i = index + 1
        while i > 0:
            if self._tree[i] > best:
                best = self._tree[i]
            i -= i & (-i)
        return best


@dataclass
class DieSequencePair:
    """Sequence pair for the blocks assigned to one die."""

    s1: List[str] = field(default_factory=list)
    s2: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if sorted(self.s1) != sorted(self.s2):
            raise ValueError("sequence pair halves must contain the same blocks")

    def __len__(self) -> int:
        return len(self.s1)

    def copy(self) -> "DieSequencePair":
        return DieSequencePair(list(self.s1), list(self.s2))

    def remove(self, name: str) -> None:
        self.s1.remove(name)
        self.s2.remove(name)

    def insert_random(self, name: str, rng: np.random.Generator) -> None:
        self.s1.insert(int(rng.integers(0, len(self.s1) + 1)), name)
        self.s2.insert(int(rng.integers(0, len(self.s2) + 1)), name)


def keeps_nominal_size(w, h, width, height):
    """Whether a soft module packed at ``w`` x ``h`` is realized at its
    nominal ``width`` x ``height``: both within 1e-9.  Scalars or
    arrays (elementwise)."""
    return (abs(w - width) <= 1e-9) & (abs(h - height) <= 1e-9)


def pack_die(
    seq: DieSequencePair,
    sizes: Mapping[str, Tuple[float, float]],
) -> Tuple[Dict[str, Tuple[float, float]], float, float]:
    """Pack one die's sequence pair into coordinates.

    ``sizes`` maps block name -> (effective width, effective height), i.e.
    rotation and soft reshaping already applied.  Returns
    ``(positions, packing_width, packing_height)`` with positions keyed by
    block name, packed toward the lower-left corner.
    """
    n = len(seq.s1)
    if n == 0:
        return {}, 0.0, 0.0
    pos2 = {name: i for i, name in enumerate(seq.s2)}

    xs: Dict[str, float] = {}
    width = 0.0
    bit = _PrefixMaxBIT(n)
    for name in seq.s1:
        p = pos2[name]
        x = bit.query(p - 1)
        xs[name] = x
        reach = x + sizes[name][0]
        bit.update(p, reach)
        if reach > width:
            width = reach

    ys: Dict[str, float] = {}
    height = 0.0
    bit = _PrefixMaxBIT(n)
    for name in reversed(seq.s1):
        p = pos2[name]
        y = bit.query(p - 1)
        ys[name] = y
        reach = y + sizes[name][1]
        bit.update(p, reach)
        if reach > height:
            height = reach

    positions = {name: (xs[name], ys[name]) for name in seq.s1}
    return positions, width, height


@dataclass
class LayoutState:
    """Complete mutable state explored by the annealer.

    Holds the die assignment, per-die sequence pairs, rotation flags, and
    soft-block aspect ratios.  :meth:`realize` packs every die and builds
    the :class:`~repro.layout.floorplan.Floorplan3D`.
    """

    stack: StackConfig
    modules: Dict[str, Module]
    die_of: Dict[str, int]
    pairs: List[DieSequencePair]
    rotated: Dict[str, bool] = field(default_factory=dict)
    aspect: Dict[str, float] = field(default_factory=dict)

    # -- construction ---------------------------------------------------------
    @staticmethod
    def initial(
        modules: Mapping[str, Module],
        stack: StackConfig,
        rng: np.random.Generator,
        power_biased: bool = True,
    ) -> "LayoutState":
        """A random initial state.

        With ``power_biased`` (Corblivar's thermal design rule), modules
        are sorted by power and the high-power half is assigned to the top
        die (adjacent to the heatsink); the annealer may revisit this but
        the die-assignment cost term keeps pulling the same way.
        Area balance between dies is maintained greedily.
        """
        names = list(modules)
        if power_biased:
            names.sort(key=lambda n: modules[n].power, reverse=True)
        else:
            names = [names[i] for i in rng.permutation(len(names))]
        die_of: Dict[str, int] = {}
        die_area = [0.0] * stack.num_dies
        top = stack.num_dies - 1
        for name in names:
            if power_biased:
                # fill the heatsink-adjacent die with hot modules first,
                # falling back to the least-filled die when it is full
                preferred = top if die_area[top] <= stack.outline.area * 0.55 else None
                die = preferred if preferred is not None else int(np.argmin(die_area))
            else:
                die = int(np.argmin(die_area))
            die_of[name] = die
            die_area[die] += modules[name].area
        pairs = []
        for d in range(stack.num_dies):
            members = [n for n in modules if die_of[n] == d]
            s1 = [members[i] for i in rng.permutation(len(members))]
            s2 = [members[i] for i in rng.permutation(len(members))]
            pairs.append(DieSequencePair(s1, s2))
        return LayoutState(
            stack=stack,
            modules=dict(modules),
            die_of=die_of,
            pairs=pairs,
            rotated={n: False for n in modules},
            aspect={
                n: m.width / m.height
                for n, m in modules.items()
                if m.kind == ModuleKind.SOFT
            },
        )

    def copy(self) -> "LayoutState":
        return LayoutState(
            stack=self.stack,
            modules=self.modules,  # immutable records, safe to share
            die_of=dict(self.die_of),
            pairs=[p.copy() for p in self.pairs],
            rotated=dict(self.rotated),
            aspect=dict(self.aspect),
        )

    # -- geometry -------------------------------------------------------------
    def effective_size(self, name: str) -> Tuple[float, float]:
        """(width, height) with soft reshaping and rotation applied."""
        m = self.modules[name]
        if m.kind == ModuleKind.SOFT:
            ar = self.aspect.get(name, m.width / m.height)
            h = (m.area / ar) ** 0.5
            w = m.area / h
        else:
            w, h = m.width, m.height
        if self.rotated.get(name, False):
            w, h = h, w
        return w, h

    def pack(self) -> Tuple[Dict[str, Tuple[float, float]], List[Tuple[float, float]]]:
        """Pack all dies.  Returns (positions, per-die packing extents)."""
        sizes = {n: self.effective_size(n) for n in self.modules}
        positions: Dict[str, Tuple[float, float]] = {}
        extents: List[Tuple[float, float]] = []
        for pair in self.pairs:
            pos, w, h = pack_die(pair, sizes)
            positions.update(pos)
            extents.append((w, h))
        return positions, extents

    def realize(
        self,
        nets: Sequence[Net] = (),
        terminals: Mapping[str, Terminal] | None = None,
        place_tsvs: bool = True,
    ) -> Floorplan3D:
        """Build the :class:`Floorplan3D` for the current state."""
        positions, _ = self.pack()
        return self.realize_with_positions(
            positions, nets=nets, terminals=terminals, place_tsvs=place_tsvs
        )

    def realize_with_positions(
        self,
        positions: Mapping[str, Tuple[float, float]],
        sizes: Mapping[str, Tuple[float, float]] | None = None,
        nets: Sequence[Net] = (),
        terminals: Mapping[str, Terminal] | None = None,
        place_tsvs: bool = True,
    ) -> Floorplan3D:
        """Build the :class:`Floorplan3D` from already packed positions.

        ``positions`` (and optionally precomputed effective ``sizes``) come
        from a previous packing — the cost evaluator's slow-term refresh
        calls this with the positions it already packed for the cheap
        terms, so no die is packed twice.
        """
        placements = {}
        for name, module in self.modules.items():
            x, y = positions[name]
            if sizes is not None:
                w, h = sizes[name]
            else:
                w, h = self.effective_size(name)
            # Soft reshaping (and its rotation) is realized by substituting
            # a module with the final effective dimensions, so
            # Placement.rect matches the geometry the packer used.
            if module.kind == ModuleKind.SOFT:
                eff_module = module
                if not keeps_nominal_size(w, h, module.width, module.height):
                    eff_module = Module(
                        module.name, w, h, kind=module.kind, power=module.power,
                        intrinsic_delay=module.intrinsic_delay,
                        min_aspect=module.min_aspect, max_aspect=module.max_aspect,
                    )
                rotated = False
            else:
                eff_module = module
                rotated = self.rotated.get(name, False)
            placements[name] = Placement(
                module=eff_module,
                x=x,
                y=y,
                die=self.die_of[name],
                rotated=rotated,
            )
        fp = Floorplan3D(
            stack=self.stack,
            placements=placements,
            nets=tuple(nets),
            terminals=dict(terminals or {}),
        )
        if place_tsvs:
            fp.place_signal_tsvs()
        return fp
