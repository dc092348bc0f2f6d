"""Tests for the sequence-pair representation, packing, and moves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestPackDie:
    def test_empty(self):
        pos, w, h = pack_die(DieSequencePair([], []), {})
        assert pos == {} and w == 0 and h == 0

    def test_single_block(self):
        seq = DieSequencePair(["a"], ["a"])
        pos, w, h = pack_die(seq, {"a": (10, 20)})
        assert pos["a"] == (0.0, 0.0)
        assert (w, h) == (10, 20)

    def test_two_blocks_left_right(self):
        # a before b in both sequences -> a left of b
        seq = DieSequencePair(["a", "b"], ["a", "b"])
        pos, w, h = pack_die(seq, {"a": (10, 10), "b": (5, 5)})
        assert pos["a"] == (0, 0)
        assert pos["b"][0] == pytest.approx(10.0)
        assert w == pytest.approx(15.0)

    def test_two_blocks_stacked(self):
        # a after b in s1, before b in s2 -> a below b
        seq = DieSequencePair(["b", "a"], ["a", "b"])
        pos, w, h = pack_die(seq, {"a": (10, 10), "b": (5, 5)})
        assert pos["a"] == (0, 0)
        assert pos["b"][1] == pytest.approx(10.0)
        assert h == pytest.approx(15.0)
        assert w == pytest.approx(10.0)

    def test_mismatched_halves_rejected(self):
        with pytest.raises(ValueError):
            DieSequencePair(["a"], ["b"])

    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_packing_never_overlaps(self, n, seed):
        """Fundamental sequence-pair invariant: any encoding packs legally."""
        rng = np.random.default_rng(seed)
        sizes = {f"b{i}": (float(rng.uniform(1, 20)), float(rng.uniform(1, 20))) for i in range(n)}
        names = list(sizes)
        s1 = [names[i] for i in rng.permutation(n)]
        s2 = [names[i] for i in rng.permutation(n)]
        pos, w, h = pack_die(DieSequencePair(s1, s2), sizes)
        from repro.layout.geometry import Rect

        rects = [Rect(pos[m][0], pos[m][1], sizes[m][0], sizes[m][1]) for m in names]
        assert total_overlap_area(rects) == pytest.approx(0.0, abs=1e-9)
        # packing extents are tight bounds
        assert max(r.x2 for r in rects) == pytest.approx(w)
        assert max(r.y2 for r in rects) == pytest.approx(h)

    @given(st.integers(min_value=2, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_area_lower_bound(self, n):
        rng = np.random.default_rng(n)
        sizes = {f"b{i}": (float(rng.uniform(1, 10)), float(rng.uniform(1, 10))) for i in range(n)}
        names = list(sizes)
        s1 = [names[i] for i in rng.permutation(n)]
        s2 = [names[i] for i in rng.permutation(n)]
        _, w, h = pack_die(DieSequencePair(s1, s2), sizes)
        total_area = sum(a * b for a, b in sizes.values())
        assert w * h >= total_area - 1e-9


class TestLayoutState:
    def test_initial_state_covers_all_modules(self):
        mods = make_modules(20)
        stack = StackConfig.square(200.0)
        state = LayoutState.initial(mods, stack, np.random.default_rng(0))
        assert set(state.die_of) == set(mods)
        assert sum(len(p) for p in state.pairs) == 20

    def test_power_bias_puts_hot_modules_on_top(self):
        mods = make_modules(30)
        stack = StackConfig.square(500.0)
        state = LayoutState.initial(mods, stack, np.random.default_rng(0), power_biased=True)
        top = stack.num_dies - 1
        top_power = sum(mods[n].power for n, d in state.die_of.items() if d == top)
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
        name = next(iter(mods))
        state.aspect[name] = 2.0
        w, h = state.effective_size(name)
        assert w / h == pytest.approx(2.0, rel=1e-9)
        assert w * h == pytest.approx(mods[name].area, rel=1e-9)

    def test_effective_size_rotation(self):
        mods = {"a": Module("a", 10, 20)}
        stack = StackConfig.square(100.0, num_dies=1)
        state = LayoutState.initial(mods, stack, np.random.default_rng(0))
        state.rotated["a"] = True
        assert state.effective_size("a") == (20, 10)

    def test_copy_is_independent(self):
        mods = make_modules(6)
        stack = StackConfig.square(100.0)
        state = LayoutState.initial(mods, stack, np.random.default_rng(0))
        clone = state.copy()
        clone.die_of[next(iter(mods))] = 1 - clone.die_of[next(iter(mods))]
        clone.pairs[0].s1.reverse()
        assert state.die_of != clone.die_of or state.pairs[0].s1 != clone.pairs[0].s1


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
            all_names = sorted(
                name for pair in state.pairs for name in pair.s1
            )
            assert all_names == sorted(state.modules)
            for die, pair in enumerate(state.pairs):
                assert sorted(pair.s1) == sorted(pair.s2)
                for name in pair.s1:
                    assert state.die_of[name] == die

    def test_moves_keep_packing_legal(self):
        state = self._state()
        rng = np.random.default_rng(11)
        from repro.layout.geometry import Rect

        for _ in range(60):
            apply_random_move(state, rng)
            positions, _ = state.pack()
            for die in range(state.stack.num_dies):
                rects = []
                for pair in [state.pairs[die]]:
                    for name in pair.s1:
                        x, y = positions[name]
                        w, h = state.effective_size(name)
                        rects.append(Rect(x, y, w, h))
                assert total_overlap_area(rects) == pytest.approx(0.0, abs=1e-8)

    def test_single_module_stack_moves_dont_crash(self):
        mods = {"only": Module("only", 10, 10)}
        stack = StackConfig.square(50.0)
        state = LayoutState.initial(mods, stack, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        for _ in range(20):
            apply_random_move(state, rng)
        assert sorted(n for p in state.pairs for n in p.s1) == ["only"]
