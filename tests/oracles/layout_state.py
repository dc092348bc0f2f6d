"""Name-keyed layout state, moves and packing.

This is the layout state the annealer used to mutate: die assignment,
rotation flags and soft aspects keyed by module name, sequence pairs of
names, sizes derived per call from the aspect and rotation, and a
packer that returns name-keyed corners.  The production state holds the
same layout as index arrays; a random walk from one seed must keep both
equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.layout.die import StackConfig
from repro.layout.module import Module, ModuleKind


class _PrefixMaxBIT:
    """Binary indexed tree supporting prefix-max queries and point updates."""

    def __init__(self, size: int) -> None:
        self._size = size
        self._tree = [0.0] * (size + 1)

    def update(self, index: int, value: float) -> None:
        i = index + 1
        while i <= self._size:
            if self._tree[i] < value:
                self._tree[i] = value
            i += i & (-i)

    def query(self, index: int) -> float:
        best = 0.0
        i = index + 1
        while i > 0:
            if self._tree[i] > best:
                best = self._tree[i]
            i -= i & (-i)
        return best


@dataclass
class NamedSequencePair:
    """Sequence pair of block names for one die."""

    s1: List[str] = field(default_factory=list)
    s2: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.s1)

    def copy(self) -> "NamedSequencePair":
        return NamedSequencePair(list(self.s1), list(self.s2))

    def remove(self, name: str) -> None:
        self.s1.remove(name)
        self.s2.remove(name)

    def insert_random(self, name: str, rng: np.random.Generator) -> None:
        self.s1.insert(int(rng.integers(0, len(self.s1) + 1)), name)
        self.s2.insert(int(rng.integers(0, len(self.s2) + 1)), name)


def pack_named_die(
    seq: NamedSequencePair,
    sizes: Mapping[str, Tuple[float, float]],
) -> Tuple[Dict[str, Tuple[float, float]], float, float]:
    """``(positions, packing_width, packing_height)`` of one die, with
    positions keyed by block name, packed toward the lower-left corner."""
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
class NamedLayoutState:
    """Die assignment, sequence pairs, rotations and soft aspects, all
    keyed by module name."""

    stack: StackConfig
    modules: Dict[str, Module]
    die_of: Dict[str, int]
    pairs: List[NamedSequencePair]
    rotated: Dict[str, bool] = field(default_factory=dict)
    aspect: Dict[str, float] = field(default_factory=dict)

    @staticmethod
    def initial(
        modules: Mapping[str, Module], stack: StackConfig, rng: np.random.Generator
    ) -> "NamedLayoutState":
        """The power-biased initial state: the hottest modules fill the
        heatsink-adjacent die first, then the least-filled die."""
        names = sorted(modules, key=lambda n: modules[n].power, reverse=True)
        die_of: Dict[str, int] = {}
        die_area = [0.0] * stack.num_dies
        top = stack.num_dies - 1
        for name in names:
            preferred = top if die_area[top] <= stack.outline.area * 0.55 else None
            die = preferred if preferred is not None else int(np.argmin(die_area))
            die_of[name] = die
            die_area[die] += modules[name].area
        pairs = []
        for d in range(stack.num_dies):
            members = [n for n in modules if die_of[n] == d]
            s1 = [members[i] for i in rng.permutation(len(members))]
            s2 = [members[i] for i in rng.permutation(len(members))]
            pairs.append(NamedSequencePair(s1, s2))
        return NamedLayoutState(
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

    def copy(self) -> "NamedLayoutState":
        return NamedLayoutState(
            stack=self.stack,
            modules=self.modules,
            die_of=dict(self.die_of),
            pairs=[p.copy() for p in self.pairs],
            rotated=dict(self.rotated),
            aspect=dict(self.aspect),
        )

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
        """Pack all dies: (positions, per-die packing extents)."""
        sizes = {n: self.effective_size(n) for n in self.modules}
        positions: Dict[str, Tuple[float, float]] = {}
        extents: List[Tuple[float, float]] = []
        for pair in self.pairs:
            pos, w, h = pack_named_die(pair, sizes)
            positions.update(pos)
            extents.append((w, h))
        return positions, extents


def _random_die_with_blocks(state, rng, minimum=1):
    candidates = [d for d, p in enumerate(state.pairs) if len(p) >= minimum]
    if not candidates:
        return None
    return candidates[int(rng.integers(0, len(candidates)))]


def _swap_in_s1(state: NamedLayoutState, rng: np.random.Generator) -> bool:
    die = _random_die_with_blocks(state, rng, minimum=2)
    if die is None:
        return False
    s1 = state.pairs[die].s1
    i, j = rng.choice(len(s1), size=2, replace=False)
    s1[i], s1[j] = s1[j], s1[i]
    return True


def _swap_in_both(state: NamedLayoutState, rng: np.random.Generator) -> bool:
    die = _random_die_with_blocks(state, rng, minimum=2)
    if die is None:
        return False
    pair = state.pairs[die]
    i, j = rng.choice(len(pair.s1), size=2, replace=False)
    a, b = pair.s1[i], pair.s1[j]
    pair.s1[i], pair.s1[j] = b, a
    ia, ib = pair.s2.index(a), pair.s2.index(b)
    pair.s2[ia], pair.s2[ib] = b, a
    return True


def _rotate(state: NamedLayoutState, rng: np.random.Generator) -> bool:
    names = list(state.modules)
    name = names[int(rng.integers(0, len(names)))]
    state.rotated[name] = not state.rotated.get(name, False)
    return True


def _reshape_soft(state: NamedLayoutState, rng: np.random.Generator) -> bool:
    soft = [n for n, m in state.modules.items() if m.kind == ModuleKind.SOFT]
    if not soft:
        return False
    name = soft[int(rng.integers(0, len(soft)))]
    m = state.modules[name]
    lo, hi = np.log(m.min_aspect), np.log(m.max_aspect)
    state.aspect[name] = float(np.exp(rng.uniform(lo, hi)))
    return True


def _to_other_die(state: NamedLayoutState, rng: np.random.Generator) -> bool:
    if state.stack.num_dies < 2:
        return False
    names = list(state.modules)
    name = names[int(rng.integers(0, len(names)))]
    src = state.die_of[name]
    choices = [d for d in range(state.stack.num_dies) if d != src]
    dst = choices[int(rng.integers(0, len(choices)))]
    state.pairs[src].remove(name)
    state.pairs[dst].insert_random(name, rng)
    state.die_of[name] = dst
    return True


def _swap_across_dies(state: NamedLayoutState, rng: np.random.Generator) -> bool:
    if state.stack.num_dies < 2:
        return False
    dies = [d for d, p in enumerate(state.pairs) if len(p) >= 1]
    if len(dies) < 2:
        return False
    da, db = rng.choice(dies, size=2, replace=False)
    pa, pb = state.pairs[da], state.pairs[db]
    a = pa.s1[int(rng.integers(0, len(pa.s1)))]
    b = pb.s1[int(rng.integers(0, len(pb.s1)))]
    for seq_a, seq_b in ((pa.s1, pb.s1), (pa.s2, pb.s2)):
        ia, ib = seq_a.index(a), seq_b.index(b)
        seq_a[ia], seq_b[ib] = b, a
    state.die_of[a], state.die_of[b] = int(db), int(da)
    return True


def _shift_in_sequence(state: NamedLayoutState, rng: np.random.Generator) -> bool:
    die = _random_die_with_blocks(state, rng, minimum=2)
    if die is None:
        return False
    pair = state.pairs[die]
    name = pair.s1[int(rng.integers(0, len(pair.s1)))]
    pair.remove(name)
    pair.insert_random(name, rng)
    return True


_MOVES = [
    ("swap_s1", _swap_in_s1, 0.22),
    ("swap_both", _swap_in_both, 0.22),
    ("rotate", _rotate, 0.12),
    ("reshape", _reshape_soft, 0.12),
    ("to_other_die", _to_other_die, 0.10),
    ("swap_across", _swap_across_dies, 0.12),
    ("shift", _shift_in_sequence, 0.10),
]

_WEIGHTS = np.array([w for _, _, w in _MOVES])
_WEIGHTS = _WEIGHTS / _WEIGHTS.sum()


def apply_random_named_move(state: NamedLayoutState, rng: np.random.Generator) -> str:
    """Apply one randomly selected move in place; returns its name."""
    order = rng.choice(len(_MOVES), size=len(_MOVES), replace=False, p=_WEIGHTS)
    for idx in order:
        name, fn, _ = _MOVES[int(idx)]
        if fn(state, rng):
            return name
    return "none"
