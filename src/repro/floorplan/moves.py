"""Simulated-annealing move set over :class:`LayoutState`.

The moves mirror Corblivar's layout operations (Fig. 3, "Adapt Solution"):
intra-die reordering, hard-block rotation, soft-block reshaping, and the
3D-specific moves — migrating a block to the other die and swapping blocks
across dies.  Every move mutates the state in place and returns whether it
applied; :func:`apply_random_move` returns the applied move's name.
Moves pick modules by index into ``state.modules`` and sequence
positions by index into a die's sequence pair; rotation and reshaping go
through :meth:`LayoutState.rotate`/:meth:`LayoutState.reshape`, which
keep the state's size arrays current.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from ..layout.module import ModuleKind
from .seqpair import LayoutState

__all__ = ["apply_random_move"]


def _random_die_with_blocks(
    state: LayoutState, rng: np.random.Generator, minimum: int = 1
) -> int | None:
    candidates = [d for d, p in enumerate(state.pairs) if len(p) >= minimum]
    if not candidates:
        return None
    return candidates[int(rng.integers(0, len(candidates)))]


def move_swap_in_s1(state: LayoutState, rng: np.random.Generator) -> bool:
    """Swap two blocks in one die's first sequence only (changes the
    relative geometric relation between them)."""
    die = _random_die_with_blocks(state, rng, minimum=2)
    if die is None:
        return False
    s1 = state.pairs[die].s1
    i, j = rng.choice(len(s1), size=2, replace=False)
    s1[i], s1[j] = s1[j], s1[i]
    return True


def move_swap_in_both(state: LayoutState, rng: np.random.Generator) -> bool:
    """Swap two blocks in both sequences (swaps their positions)."""
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


def move_rotate(state: LayoutState, rng: np.random.Generator) -> bool:
    """Rotate one block by 90 degrees."""
    state.rotate(int(rng.integers(0, len(state.modules))))
    return True


def move_reshape_soft(state: LayoutState, rng: np.random.Generator) -> bool:
    """Re-aspect one soft block within its allowed range."""
    soft = [
        (k, m) for k, m in enumerate(state.modules.values()) if m.kind == ModuleKind.SOFT
    ]
    if not soft:
        return False
    k, m = soft[int(rng.integers(0, len(soft)))]
    lo, hi = np.log(m.min_aspect), np.log(m.max_aspect)
    state.reshape(k, float(np.exp(rng.uniform(lo, hi))))
    return True


def move_to_other_die(state: LayoutState, rng: np.random.Generator) -> bool:
    """Migrate one block to a different die (3D move)."""
    if state.stack.num_dies < 2:
        return False
    k = int(rng.integers(0, len(state.modules)))
    src = int(state.die[k])
    choices = [d for d in range(state.stack.num_dies) if d != src]
    dst = choices[int(rng.integers(0, len(choices)))]
    state.pairs[src].remove(k)
    state.pairs[dst].insert_random(k, rng)
    state.die[k] = dst
    return True


def move_swap_across_dies(state: LayoutState, rng: np.random.Generator) -> bool:
    """Swap two blocks between dies, preserving sequence positions."""
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
    state.die[a], state.die[b] = db, da
    return True


def move_shift_in_sequence(state: LayoutState, rng: np.random.Generator) -> bool:
    """Remove one block and reinsert it at a random sequence position."""
    die = _random_die_with_blocks(state, rng, minimum=2)
    if die is None:
        return False
    pair = state.pairs[die]
    k = pair.s1[int(rng.integers(0, len(pair.s1)))]
    pair.remove(k)
    pair.insert_random(k, rng)
    return True


_MoveFn = Callable[[LayoutState, np.random.Generator], bool]

_MOVES: List[Tuple[str, _MoveFn, float]] = [
    ("swap_s1", move_swap_in_s1, 0.22),
    ("swap_both", move_swap_in_both, 0.22),
    ("rotate", move_rotate, 0.12),
    ("reshape", move_reshape_soft, 0.12),
    ("to_other_die", move_to_other_die, 0.10),
    ("swap_across", move_swap_across_dies, 0.12),
    ("shift", move_shift_in_sequence, 0.10),
]

_WEIGHTS = np.array([w for _, _, w in _MOVES])
_WEIGHTS = _WEIGHTS / _WEIGHTS.sum()


def apply_random_move(state: LayoutState, rng: np.random.Generator) -> str:
    """Apply one randomly selected move in place; returns its name.

    Falls back to another move kind when the selected one is inapplicable
    (e.g. no soft blocks to reshape), so a call always perturbs the state
    unless the design has fewer than two blocks.
    """
    order = rng.choice(len(_MOVES), size=len(_MOVES), replace=False, p=_WEIGHTS)
    for idx in order:
        name, fn, _ = _MOVES[int(idx)]
        if fn(state, rng):
            return name
    return "none"
