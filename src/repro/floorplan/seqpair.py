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

:class:`LayoutState` holds one layout in one form: module ``k`` is the
``k``-th entry of ``state.modules`` (the order the cost evaluator's
compiled netlist uses), the sequence pairs hold module indices, and the
die assignment, rotation flags and effective sizes are arrays over
``k``.  :meth:`LayoutState.pack` is the one packing loop: the cost
evaluator and :meth:`LayoutState.realize` both read its corner arrays.
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
    """Sequence pair over the module indices assigned to one die."""

    s1: List[int] = field(default_factory=list)
    s2: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if sorted(self.s1) != sorted(self.s2):
            raise ValueError("sequence pair halves must contain the same blocks")

    def __len__(self) -> int:
        return len(self.s1)

    def copy(self) -> "DieSequencePair":
        # a copy of a valid pair is valid: skip __post_init__'s sorts
        twin = object.__new__(DieSequencePair)
        twin.s1, twin.s2 = list(self.s1), list(self.s2)
        return twin

    def remove(self, k: int) -> None:
        self.s1.remove(k)
        self.s2.remove(k)

    def insert_random(self, k: int, rng: np.random.Generator) -> None:
        self.s1.insert(int(rng.integers(0, len(self.s1) + 1)), k)
        self.s2.insert(int(rng.integers(0, len(self.s2) + 1)), k)


def keeps_nominal_size(w, h, width, height):
    """Whether a soft module packed at ``w`` x ``h`` is realized at its
    nominal ``width`` x ``height``: both within 1e-9.  Scalars or
    arrays (elementwise)."""
    return (abs(w - width) <= 1e-9) & (abs(h - height) <= 1e-9)


def _soft_size(module: Module, aspect: float) -> Tuple[float, float]:
    """(width, height) of a soft module reshaped to ``aspect`` (w/h),
    area preserved."""
    h = (module.area / aspect) ** 0.5
    return module.area / h, h


def pack_die(
    seq: DieSequencePair,
    w: Sequence[float],
    h: Sequence[float],
    x: np.ndarray,
    y: np.ndarray,
) -> Tuple[float, float]:
    """Pack one die's sequence pair toward the lower-left corner.

    ``w[k]``/``h[k]`` are module ``k``'s effective sizes (rotation and
    soft reshaping applied).  Writes each block's lower-left corner to
    ``x[k]``/``y[k]`` and returns ``(packing_width, packing_height)``.
    The arithmetic stays in the element type of ``w``/``h``: Python
    floats keep numpy scalars out of the extents.
    """
    n = len(seq.s1)
    if n == 0:
        return 0.0, 0.0
    pos2 = {k: i for i, k in enumerate(seq.s2)}

    width = 0.0
    bit = _PrefixMaxBIT(n)
    for k in seq.s1:
        p = pos2[k]
        corner = bit.query(p - 1)
        x[k] = corner
        reach = corner + w[k]
        bit.update(p, reach)
        if reach > width:
            width = reach

    height = 0.0
    bit = _PrefixMaxBIT(n)
    for k in reversed(seq.s1):
        p = pos2[k]
        corner = bit.query(p - 1)
        y[k] = corner
        reach = corner + h[k]
        bit.update(p, reach)
        if reach > height:
            height = reach
    return width, height


@dataclass
class LayoutState:
    """Complete mutable state explored by the annealer.

    Module ``k`` is the ``k``-th entry of ``modules``.  ``pairs`` holds
    each die's sequence pair of module indices; ``die``, ``rotated`` and
    the effective sizes ``w``/``h`` (rotation and soft reshaping
    applied) are arrays over ``k``, kept current by :meth:`rotate` and
    :meth:`reshape`.  :meth:`pack` places every die and :meth:`realize`
    builds the :class:`~repro.layout.floorplan.Floorplan3D`.
    """

    stack: StackConfig
    modules: Dict[str, Module]
    pairs: List[DieSequencePair]
    die: np.ndarray
    rotated: np.ndarray
    w: np.ndarray
    h: np.ndarray

    # -- construction ---------------------------------------------------------
    @staticmethod
    def initial(
        modules: Mapping[str, Module],
        stack: StackConfig,
        rng: np.random.Generator,
    ) -> "LayoutState":
        """A random initial state under Corblivar's thermal design rule.

        Modules are sorted by power and the hottest fill the top die
        (adjacent to the heatsink) first, falling back to the
        least-filled die once it is full; the annealer may revisit this
        but the die-assignment cost term keeps pulling the same way.
        Each die's sequence pair is a random pair of permutations.
        """
        mods = list(modules.values())
        die = np.empty(len(mods), dtype=np.int64)
        die_area = [0.0] * stack.num_dies
        top = stack.num_dies - 1
        for k in sorted(range(len(mods)), key=lambda k: mods[k].power, reverse=True):
            d = top if die_area[top] <= stack.outline.area * 0.55 else int(np.argmin(die_area))
            die[k] = d
            die_area[d] += mods[k].area
        pairs = []
        for d in range(stack.num_dies):
            members = np.flatnonzero(die == d).tolist()
            s1 = [members[i] for i in rng.permutation(len(members))]
            s2 = [members[i] for i in rng.permutation(len(members))]
            pairs.append(DieSequencePair(s1, s2))
        sizes = [
            _soft_size(m, m.width / m.height) if m.kind == ModuleKind.SOFT
            else (m.width, m.height)
            for m in mods
        ]
        size = np.array(sizes, dtype=float).reshape(-1, 2)
        return LayoutState(
            stack=stack,
            modules=dict(modules),
            pairs=pairs,
            die=die,
            rotated=np.zeros(len(mods), dtype=bool),
            w=size[:, 0].copy(),
            h=size[:, 1].copy(),
        )

    def copy(self) -> "LayoutState":
        return LayoutState(
            stack=self.stack,
            modules=self.modules,  # immutable records, safe to share
            pairs=[p.copy() for p in self.pairs],
            die=self.die.copy(),
            rotated=self.rotated.copy(),
            w=self.w.copy(),
            h=self.h.copy(),
        )

    # -- geometry -------------------------------------------------------------
    def rotate(self, k: int) -> None:
        """Turn module ``k`` by 90 degrees."""
        self.rotated[k] = not self.rotated[k]
        self.w[k], self.h[k] = self.h[k], self.w[k]

    def reshape(self, k: int, aspect: float) -> None:
        """Re-aspect soft module ``k`` to ``aspect`` (w/h, before its
        rotation)."""
        w, h = _soft_size(list(self.modules.values())[k], aspect)
        if self.rotated[k]:
            w, h = h, w
        self.w[k], self.h[k] = w, h

    def pack(self) -> Tuple[np.ndarray, np.ndarray, List[Tuple[float, float]]]:
        """Pack all dies: ``(x, y, extents)`` with lower-left corners
        ``x[k]``/``y[k]`` and each die's ``(width, height)``."""
        x, y = np.empty((2, len(self.w)))
        w, h = self.w.tolist(), self.h.tolist()
        extents = [pack_die(pair, w, h, x, y) for pair in self.pairs]
        return x, y, extents

    def realize(
        self,
        nets: Sequence[Net] = (),
        terminals: Mapping[str, Terminal] | None = None,
        place_tsvs: bool = True,
    ) -> Floorplan3D:
        """Build the :class:`Floorplan3D` for the current state."""
        x, y, _ = self.pack()
        return self.realize_with_positions(
            x, y, nets=nets, terminals=terminals, place_tsvs=place_tsvs
        )

    def realize_with_positions(
        self,
        x: np.ndarray,
        y: np.ndarray,
        nets: Sequence[Net] = (),
        terminals: Mapping[str, Terminal] | None = None,
        place_tsvs: bool = True,
    ) -> Floorplan3D:
        """Build the :class:`Floorplan3D` from already packed corners.

        ``x``/``y`` come from :meth:`pack` — the cost evaluator's
        slow-term refresh passes the corners it already packed for the
        cheap terms, so no die is packed twice.
        """
        placements = {}
        for (name, module), cx, cy, w, h, die, rotated in zip(
            self.modules.items(), x.tolist(), y.tolist(), self.w.tolist(),
            self.h.tolist(), self.die.tolist(), self.rotated.tolist(),
        ):
            # Soft reshaping (and its rotation) is realized by substituting
            # a module with the final effective dimensions, so
            # Placement.rect matches the geometry the packer used.
            if module.kind == ModuleKind.SOFT:
                if not keeps_nominal_size(w, h, module.width, module.height):
                    module = Module(
                        module.name, w, h, kind=module.kind, power=module.power,
                        intrinsic_delay=module.intrinsic_delay,
                        min_aspect=module.min_aspect, max_aspect=module.max_aspect,
                    )
                rotated = False
            placements[name] = Placement(module=module, x=cx, y=cy, die=die, rotated=rotated)
        fp = Floorplan3D(
            stack=self.stack,
            placements=placements,
            nets=tuple(nets),
            terminals=dict(terminals or {}),
        )
        if place_tsvs:
            fp.place_signal_tsvs()
        return fp
