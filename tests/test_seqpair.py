"""Tests for the sequence-pair representation, packing, and moves."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.layout_state import NamedLayoutState, apply_random_named_move
from repro.benchmarks import load
from repro.layout.die import StackConfig
from repro.layout.geometry import total_overlap_area
from repro.layout.module import Module, ModuleKind
from repro.floorplan.moves import apply_random_move
from repro.floorplan.seqpair import DieSequencePair, LayoutState, pack_die


def make_modules(n, rng=None, soft=False):
    rng = rng or np.random.default_rng(0)
    out = {}
    for i in range(n):
        w = float(rng.uniform(5, 30))
        h = float(rng.uniform(5, 30))
        out[f"m{i}"] = Module(
            f"m{i}", w, h,
            kind=ModuleKind.SOFT if soft else ModuleKind.HARD,
            power=float(rng.uniform(0.1, 1.0)),
        )
    return out


def _pack(s1, s2, sizes):
    """Pack one die of blocks ``0..len(sizes)-1``: (x, y, width, height)."""
    x, y = np.zeros((2, len(sizes)))
    w, h = pack_die(DieSequencePair(s1, s2), [s[0] for s in sizes], [s[1] for s in sizes], x, y)
    return x, y, w, h


class TestPackDie:
    def test_empty(self):
        x, y, w, h = _pack([], [], [])
        assert x.size == 0 and w == 0 and h == 0

    def test_single_block(self):
        x, y, w, h = _pack([0], [0], [(10, 20)])
        assert (x[0], y[0]) == (0.0, 0.0)
        assert (w, h) == (10, 20)

    def test_two_blocks_left_right(self):
        # a before b in both sequences -> a left of b
        x, y, w, h = _pack([0, 1], [0, 1], [(10, 10), (5, 5)])
        assert (x[0], y[0]) == (0, 0)
        assert x[1] == pytest.approx(10.0)
        assert w == pytest.approx(15.0)

    def test_two_blocks_stacked(self):
        # a after b in s1, before b in s2 -> a below b
        x, y, w, h = _pack([1, 0], [0, 1], [(10, 10), (5, 5)])
        assert (x[0], y[0]) == (0, 0)
        assert y[1] == pytest.approx(10.0)
        assert h == pytest.approx(15.0)
        assert w == pytest.approx(10.0)

    def test_mismatched_halves_rejected(self):
        for s1, s2 in (([0], [1]), ([0, 1], [0]), ([0, 0], [0, 1])):
            with pytest.raises(ValueError):
                DieSequencePair(s1, s2)

    def test_pair_copy_is_independent(self):
        pair = DieSequencePair([2, 0, 1], [1, 2, 0])
        twin = pair.copy()
        assert twin == pair
        assert twin.s1 is not pair.s1 and twin.s2 is not pair.s2
        twin.remove(0)
        twin.insert_random(5, np.random.default_rng(0))
        assert pair == DieSequencePair([2, 0, 1], [1, 2, 0])
        assert sorted(twin.s1) == sorted(twin.s2) == [1, 2, 5]

    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_packing_never_overlaps(self, n, seed):
        """Fundamental sequence-pair invariant: any encoding packs legally."""
        rng = np.random.default_rng(seed)
        sizes = [(float(rng.uniform(1, 20)), float(rng.uniform(1, 20))) for _ in range(n)]
        s1 = rng.permutation(n).tolist()
        s2 = rng.permutation(n).tolist()
        x, y, w, h = _pack(s1, s2, sizes)
        from repro.layout.geometry import Rect

        rects = [Rect(x[k], y[k], sizes[k][0], sizes[k][1]) for k in range(n)]
        assert total_overlap_area(rects) == pytest.approx(0.0, abs=1e-9)
        # packing extents are tight bounds
        assert max(r.x2 for r in rects) == pytest.approx(w)
        assert max(r.y2 for r in rects) == pytest.approx(h)

    @given(st.integers(min_value=2, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_area_lower_bound(self, n):
        rng = np.random.default_rng(n)
        sizes = [(float(rng.uniform(1, 10)), float(rng.uniform(1, 10))) for _ in range(n)]
        s1 = rng.permutation(n).tolist()
        s2 = rng.permutation(n).tolist()
        _, _, w, h = _pack(s1, s2, sizes)
        total_area = sum(a * b for a, b in sizes)
        assert w * h >= total_area - 1e-9


class TestLayoutState:
    def test_initial_state_covers_all_modules(self):
        mods = make_modules(20)
        stack = StackConfig.square(200.0)
        state = LayoutState.initial(mods, stack, np.random.default_rng(0))
        assert state.die.shape == (20,)
        assert sorted(k for p in state.pairs for k in p.s1) == list(range(20))

    def test_power_bias_puts_hot_modules_on_top(self):
        mods = make_modules(30)
        stack = StackConfig.square(500.0)
        state = LayoutState.initial(mods, stack, np.random.default_rng(0))
        top = stack.num_dies - 1
        top_power = sum(m.power for m, d in zip(mods.values(), state.die) if d == top)
        total = sum(m.power for m in mods.values())
        assert top_power > total / 2

    def test_realize_builds_legal_rects_per_die(self):
        mods = make_modules(15)
        stack = StackConfig.square(1000.0)
        state = LayoutState.initial(mods, stack, np.random.default_rng(1))
        fp = state.realize()
        for die in range(stack.num_dies):
            rects = [p.rect for p in fp.placements_on(die)]
            assert total_overlap_area(rects) == pytest.approx(0.0, abs=1e-9)

    def test_effective_size_soft_reshape(self):
        mods = make_modules(4, soft=True)
        stack = StackConfig.square(100.0)
        state = LayoutState.initial(mods, stack, np.random.default_rng(0))
        state.reshape(0, 2.0)
        w, h = state.w[0], state.h[0]
        assert w / h == pytest.approx(2.0, rel=1e-9)
        assert w * h == pytest.approx(mods["m0"].area, rel=1e-9)

    def test_effective_size_rotation(self):
        mods = {"a": Module("a", 10, 20)}
        stack = StackConfig.square(100.0, num_dies=1)
        state = LayoutState.initial(mods, stack, np.random.default_rng(0))
        state.rotate(0)
        assert (state.w[0], state.h[0]) == (20, 10)

    def test_copy_is_independent(self):
        mods = make_modules(6)
        stack = StackConfig.square(100.0)
        state = LayoutState.initial(mods, stack, np.random.default_rng(0))
        clone = state.copy()
        clone.die[0] = 1 - clone.die[0]
        clone.pairs[0].s1.reverse()
        assert state.die[0] != clone.die[0] or state.pairs[0].s1 != clone.pairs[0].s1


class TestMoves:
    def _state(self, n=12, soft=True):
        mods = make_modules(n, soft=soft)
        stack = StackConfig.square(300.0)
        return LayoutState.initial(mods, stack, np.random.default_rng(3))

    def test_moves_preserve_module_set(self):
        state = self._state()
        rng = np.random.default_rng(7)
        for _ in range(200):
            tag = apply_random_move(state, rng)
            assert tag in {
                "swap_s1", "swap_both", "rotate", "reshape",
                "to_other_die", "swap_across", "shift",
            }
            all_blocks = sorted(k for pair in state.pairs for k in pair.s1)
            assert all_blocks == list(range(len(state.modules)))
            for die, pair in enumerate(state.pairs):
                assert sorted(pair.s1) == sorted(pair.s2)
                for k in pair.s1:
                    assert state.die[k] == die

    def test_moves_keep_packing_legal(self):
        state = self._state()
        rng = np.random.default_rng(11)
        from repro.layout.geometry import Rect

        for _ in range(60):
            apply_random_move(state, rng)
            x, y, _ = state.pack()
            for die in range(state.stack.num_dies):
                rects = []
                for pair in [state.pairs[die]]:
                    for k in pair.s1:
                        rects.append(Rect(x[k], y[k], state.w[k], state.h[k]))
                assert total_overlap_area(rects) == pytest.approx(0.0, abs=1e-8)

    def test_single_module_stack_moves_dont_crash(self):
        mods = {"only": Module("only", 10, 10)}
        stack = StackConfig.square(50.0)
        state = LayoutState.initial(mods, stack, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        for _ in range(20):
            apply_random_move(state, rng)
        assert sorted(k for p in state.pairs for k in p.s1) == [0]


@pytest.mark.parametrize("name, num_dies", [("n100", 2), ("ibm03", 2), ("n100", 3)])
def test_random_walk_matches_name_keyed_state(name, num_dies):
    """The index state and the name-keyed oracle, walked from one seed,
    agree bit for bit after every move: sequence pairs, dies, rotation
    flags, effective sizes, packed corners and per-die extents."""
    circ, stack = load(name)
    stack = replace(stack, num_dies=num_dies)
    names = list(circ.modules)
    named_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    named = NamedLayoutState.initial(circ.modules, stack, named_rng)
    state = LayoutState.initial(circ.modules, stack, rng)
    for step in range(2000):
        assert apply_random_named_move(named, named_rng) == apply_random_move(state, rng), step
        for pair, named_pair in zip(state.pairs, named.pairs):
            assert [names[k] for k in pair.s1] == named_pair.s1, step
            assert [names[k] for k in pair.s2] == named_pair.s2, step
        assert state.die.tolist() == [named.die_of[n] for n in names], step
        assert state.rotated.tolist() == [named.rotated[n] for n in names], step
        sizes = [named.effective_size(n) for n in names]
        assert state.w.tolist() == [w for w, _ in sizes], step
        assert state.h.tolist() == [h for _, h in sizes], step
        x, y, extents = state.pack()
        positions, named_extents = named.pack()
        assert x.tolist() == [positions[n][0] for n in names], step
        assert y.tolist() == [positions[n][1] for n in names], step
        assert extents == named_extents, step
