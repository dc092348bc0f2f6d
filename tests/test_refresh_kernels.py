"""Bit-identity of the array-native anneal-refresh kernels against their
loop oracles (``tests/oracles``): power maps, signal-TSV sites, TSV
density maps, spatial entropy and its nested-means classes, and the
voltage-assignment refresh must be exactly equal (``==``), not merely
close."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.entropy import (
    cross_manhattan_sum,
    nested_means_classes_loop,
    pairwise_manhattan_sum,
    spatial_entropy_loop,
)
from oracles.grid import rasterize_power_loop
from oracles.tsv import (
    place_signal_tsvs_loop,
    tsv_cell_occupancy_loop,
    tsv_density_map_loop,
)
from oracles.volumes import assign_voltages_loop, by_name, max_delay_inflation_loop
from repro.benchmarks import load
from repro.floorplan.moves import apply_random_move
from repro.floorplan import objectives
from repro.floorplan.objectives import CostEvaluator, FloorplanMode
from repro.floorplan.seqpair import LayoutState
from repro.layout.die import StackConfig
from repro.layout.floorplan import Floorplan3D
from repro.layout.geometry import Rect
from repro.layout.grid import GridSpec
from repro.layout.module import Module, Placement
from repro.layout.net import CompiledNetlist, Net, Terminal
from repro.layout.tsv import (
    TSV,
    TSVKind,
    tsv_cell_occupancy,
    tsv_density_map,
)
from repro.leakage import entropy as entropy_module
from repro.leakage.entropy import nested_means_classes, spatial_entropy
from repro.mitigation.activity import module_power_basis
from repro.power.assignment import AssignmentObjective, assign_voltages
from repro.timing.paths import TimingGraph

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def _random_floorplan(rng, num_dies, modules=40, nets=90, thermal=0):
    """Modules hugging and overhanging the outline edges (clipped sites),
    nets of 2-20 pins (past numpy's 8-wide pairwise-summation block),
    terminals, and optional dummy thermal TSVs straddling the edges."""
    outline = Rect(3.3, -7.1, 997.7, 802.9)
    stack = StackConfig(outline, num_dies=num_dies)
    placements = {}
    for k in range(modules):
        w, h = rng.uniform(2.0, 180.0, size=2)
        x = rng.uniform(outline.x - 40.0, outline.x2 - w + 40.0)
        y = rng.uniform(outline.y - 40.0, outline.y2 - h + 40.0)
        name = f"m{k}"
        placements[name] = Placement(
            Module(name, float(w), float(h)), float(x), float(y),
            die=int(rng.integers(num_dies)),
        )
    terminals = {
        f"t{k}": Terminal(f"t{k}", float(x), float(y))
        for k, (x, y) in enumerate(
            zip(rng.uniform(outline.x, outline.x2, 12), rng.uniform(outline.y, outline.y2, 12))
        )
    }
    names = list(placements)
    net_list = []
    for k in range(nets):
        pins = int(rng.choice([2, 3, 4, 7, 8, 9, 12, 16, 20]))
        n_term = int(rng.integers(0, 3))
        mods = tuple(str(m) for m in rng.choice(names, size=max(1, pins - n_term)))
        # an unknown terminal is skipped, as for a floorplan without it
        terms = tuple(str(t) for t in rng.choice(list(terminals) + ["gone"], size=n_term))
        net_list.append(Net(f"n{k}", mods, terms))
    fp = Floorplan3D(stack, placements, tuple(net_list), terminals)
    for x, y in zip(
        rng.uniform(outline.x - 8.0, outline.x2 + 8.0, thermal),
        rng.uniform(outline.y - 8.0, outline.y2 + 8.0, thermal),
    ):
        lo = int(rng.integers(num_dies - 1))
        hi = int(rng.integers(lo + 1, num_dies))
        fp.tsvs.append(TSV(float(x), float(y), lo, hi, kind=TSVKind.THERMAL))
    return fp


def _random_power_layout(rng, num_dies, modules=60):
    """Powered modules overhanging (and some wholly outside) the outline,
    about a fifth at zero power, random rotations, and supply voltages on
    and between the three levels."""
    outline = Rect(3.3, -7.1, 997.7, 802.9)
    placements = {}
    for k in range(modules):
        w, h = rng.uniform(2.0, 260.0, size=2)
        name = f"m{k}"
        power = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.01, 2.0))
        voltage = float(rng.choice([0.8, 1.0, 1.2, rng.uniform(0.75, 1.25)]))
        placements[name] = Placement(
            Module(name, float(w), float(h), power=power),
            float(rng.uniform(outline.x - 280.0, outline.x2 + 20.0)),
            float(rng.uniform(outline.y - 280.0, outline.y2 + 20.0)),
            die=int(rng.integers(num_dies)),
            rotated=bool(rng.integers(2)),
            voltage=voltage,
        )
    return Floorplan3D(StackConfig(outline, num_dies=num_dies), placements)


POWER_GRIDS = [(16, 16), (32, 32), (48, 48), (40, 24)]


class TestPowerRasterization:
    @pytest.mark.parametrize("num_dies", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("nx,ny", POWER_GRIDS)
    def test_power_map_equals_loop(self, num_dies, seed, nx, ny):
        rng = np.random.default_rng(seed)
        fp = _random_power_layout(rng, num_dies)
        grid = GridSpec(fp.stack.outline, nx, ny)
        names = list(fp.placements)
        factors = np.maximum(rng.normal(1.0, 0.3, size=len(names)), 0.0)
        activity = {n: float(f) for n, f in zip(names, factors) if rng.random() < 0.8}
        assert any(fp.placements[n].module.power == 0.0 for n in names)
        for act in (None, activity):
            for d in range(num_dies):
                expected = rasterize_power_loop(fp.placements.values(), grid, d, act)
                assert np.array_equal(fp.power_map(d, grid, activity=act), expected)

    def test_empty_die(self):
        fp = _random_power_layout(np.random.default_rng(0), 2)
        fp.placements = {n: dataclasses.replace(p, die=0) for n, p in fp.placements.items()}
        grid = GridSpec(fp.stack.outline, 40, 24)
        empty = fp.power_map(1, grid)
        assert empty.shape == (24, 40) and not empty.any()

    @pytest.mark.parametrize("num_dies", [2, 3])
    @pytest.mark.parametrize("nx,ny", POWER_GRIDS)
    def test_basis_rows_equal_single_module_maps(self, num_dies, nx, ny):
        fp = _random_power_layout(np.random.default_rng(10 + num_dies), num_dies)
        grid = GridSpec(fp.stack.outline, nx, ny)
        names = sorted(fp.placements)
        basis = module_power_basis(fp, grid, names)
        assert len(basis) == num_dies
        for m, name in enumerate(names):
            p = fp.placements[name]
            for d in range(num_dies):
                expected = rasterize_power_loop([p], grid, d).ravel()
                assert np.array_equal(basis[d][m], expected)


class TestSignalSites:
    @pytest.mark.parametrize("num_dies", [2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_sites_equal_loop(self, num_dies, seed):
        rng = np.random.default_rng(seed)
        fp = _random_floorplan(rng, num_dies, thermal=int(rng.integers(0, 30)))
        expected = place_signal_tsvs_loop(fp)
        fp.place_signal_tsvs()
        assert fp.tsvs == expected
        assert any(t.kind == TSVKind.SIGNAL for t in expected)
        if num_dies == 3:
            # a net spanning dies 0..2 feeds both interfaces
            spans = {(t.x, t.y, t.die_from) for t in fp.signal_tsvs}
            assert any((x, y, 0) in spans and (x, y, 1) in spans for x, y, _ in spans)

    def test_wide_nets_take_pairwise_summation(self):
        """Centroids of 8+ pin nets agree with np.mean bit for bit."""
        rng = np.random.default_rng(7)
        fp = _random_floorplan(rng, 2, modules=60, nets=200)
        assert max(len(n.modules) + len(n.terminals) for n in fp.nets) >= 16
        expected = place_signal_tsvs_loop(fp)
        fp.place_signal_tsvs()
        assert fp.tsvs == expected

    def test_no_crossing_nets(self):
        rng = np.random.default_rng(3)
        fp = _random_floorplan(rng, 2, thermal=4)
        fp.placements = {n: dataclasses.replace(p, die=0) for n, p in fp.placements.items()}
        expected = place_signal_tsvs_loop(fp)
        fp.place_signal_tsvs()
        assert fp.tsvs == expected
        assert not fp.signal_tsvs and len(fp.thermal_tsvs) == 4
        empty = Floorplan3D(fp.stack, {})
        empty.place_signal_tsvs()
        assert empty.tsvs == []

    def test_crossing_net_with_unplaced_module_raises(self):
        fp = _random_floorplan(np.random.default_rng(0), 2)
        fp.nets = fp.nets + (Net("ghost", ("m0", "m1", "absent")),)
        fp.placements["m0"] = dataclasses.replace(fp.placements["m0"], die=0)
        fp.placements["m1"] = dataclasses.replace(fp.placements["m1"], die=1)
        with pytest.raises(KeyError):
            fp.place_signal_tsvs()


class TestDensity:
    @pytest.mark.parametrize("num_dies", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [8, 31, 32])
    def test_floorplan_density_equals_loop(self, num_dies, seed, n):
        rng = np.random.default_rng(100 + seed)
        fp = _random_floorplan(rng, num_dies, thermal=25)
        fp.place_signal_tsvs()
        grid = GridSpec(fp.stack.outline, n, n + 3)
        for pair in fp.stack.die_pairs():
            expected = tsv_density_map_loop(fp.tsvs, fp.stack.outline, grid.nx, grid.ny, pair)
            assert np.array_equal(fp.tsv_density(pair, grid), expected)

    def test_empty(self):
        outline = Rect(0, 0, 10, 10)
        assert np.array_equal(tsv_cell_occupancy([], outline, 3, 3), np.zeros((3, 3)))
        fp = Floorplan3D(StackConfig.square(100.0, num_dies=3), {})
        fp.place_signal_tsvs()
        densities = fp.tsv_densities(GridSpec(fp.stack.outline, 4, 5))
        assert [m.shape for m in densities.values()] == [(5, 4), (5, 4)]
        assert not any(m.any() for m in densities.values())

    def test_clipped_and_straddling_footprints(self):
        """Footprints over the outline edge, on cell corners (2x2 cells),
        stacked on one another (order-sensitive sums), and fully outside."""
        outline = Rect(-2.5, 1.25, 100.0, 60.0)
        nx, ny = 8, 6
        cw, ch = outline.w / nx, outline.h / ny
        pts = [(outline.x, outline.y), (outline.x2, outline.y2), (outline.x - 4, 30.0)]
        pts += [(outline.x + i * cw, outline.y + j * ch) for i in range(nx + 1) for j in (1, 3)]
        pts += [(40.0 + 0.1 * k, 30.0 + 0.07 * k) for k in range(25)]
        pts += [(500.0, 500.0), (outline.x - 6.0, outline.y - 6.0)]
        tsvs = [TSV(float(x), float(y), 0, 1, diameter=3.0 + (k % 3), keepout=1.5)
                for k, (x, y) in enumerate(pts)]
        got = tsv_cell_occupancy(tsvs, outline, nx, ny)
        assert np.array_equal(got, tsv_cell_occupancy_loop(tsvs, outline, nx, ny))
        assert got.max() == 1.0
        assert np.array_equal(
            tsv_density_map(tsvs, outline, nx, ny, between=(0, 1)),
            tsv_density_map_loop(tsvs, outline, nx, ny, between=(0, 1)),
        )

    @given(
        st.lists(
            st.tuples(
                st.floats(-20, 120, allow_nan=False),
                st.floats(-20, 120, allow_nan=False),
                st.floats(0.5, 30, allow_nan=False),
                st.floats(0, 10, allow_nan=False),
            ),
            max_size=30,
        ),
        st.integers(1, 9),
        st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_occupancy_equals_loop(self, specs, nx, ny):
        outline = Rect(0.0, 0.0, 100.0, 100.0)
        tsvs = [TSV(x, y, 0, 1, diameter=d, keepout=k) for x, y, d, k in specs]
        got = tsv_cell_occupancy(tsvs, outline, nx, ny)
        assert np.array_equal(got, tsv_cell_occupancy_loop(tsvs, outline, nx, ny))


class _RecordingModel:
    """A fast thermal model that records the power maps it is given."""

    def __init__(self, model):
        self.model = model
        self.maps = []

    def estimate(self, maps):
        self.maps.append([m.copy() for m in maps])
        return self.model.estimate(maps)


class TestRefreshFromSnapshot:
    """Every slow term, the voltage assignment included, reads the
    snapshot's arrays: no refresh realizes a ``Floorplan3D`` or reads a
    signal TSV.  Every map, the critical delay and the power total still
    equal (``==``) what the realized floorplan with the assignment's
    voltages gives."""

    @pytest.mark.parametrize("num_dies,moves", [(2, 40), (3, 15)])
    def test_random_walk_matches_realized_floorplan(self, num_dies, moves, monkeypatch):
        circ, stack = load("n100")
        stack = dataclasses.replace(stack, num_dies=num_dies)
        rng = np.random.default_rng(1)
        state = LayoutState.initial(circ.modules, stack, rng)
        monkeypatch.setattr(objectives, "THERMAL_EVERY", 1)
        monkeypatch.setattr(objectives, "TIMING_EVERY", 1)
        monkeypatch.setattr(objectives, "ASSIGNMENT_EVERY", 6)
        evaluator = CostEvaluator(
            stack, circ.nets, circ.terminals, mode=FloorplanMode.TSC_AWARE,
        )
        recorder = _RecordingModel(evaluator.thermal)
        evaluator.thermal = recorder
        timing = TimingGraph(
            CompiledNetlist(list(state.modules), circ.nets, circ.terminals)
        )
        realized = []
        for move in range(moves + 1):
            candidate = state.copy()
            if move:
                apply_random_move(candidate, rng)
            with monkeypatch.context() as m:
                # the in-loop refresh derives no signal-TSV site, builds no
                # TSV object and asks the floorplan for no density map
                m.setattr(CompiledNetlist, "sites", _forbidden("sites"))
                for name in ("place_signal_tsvs", "tsv_density"):
                    m.setattr(Floorplan3D, name, _forbidden(name))
                # nor builds a floorplan, the assignment refresh included
                m.setattr(Floorplan3D, "__init__", _forbidden("Floorplan3D"))
                m.setattr(LayoutState, "realize_with_positions",
                          _forbidden("realize_with_positions"))
                evaluator.evaluate(candidate, force_full=not move)
            state = candidate
            fp = state.realize(circ.nets, circ.terminals, place_tsvs=False)
            voltages = evaluator._cache.assignment.voltages.tolist()
            realized.append(fp.with_voltages(dict(zip(sorted(fp.placements), voltages))))
            got = evaluator._cache
            assert got.delay == timing.evaluate(realized[-1]).critical_delay_ns
            assert got.power == realized[-1].total_power()
        assert len(recorder.maps) == len(realized)
        assert any(
            p.voltage != 1.0 for fp in realized for p in fp.placements.values()
        )
        for maps, fp in zip(recorder.maps, realized):
            for d in range(num_dies):
                assert np.array_equal(maps[d], fp.power_map(d, evaluator.grid))


class TestAssignmentRefresh:
    """Every in-loop assignment refresh, on the snapshot's arrays, gives
    the slack, voltages and volumes the name-keyed oracles give on the
    realized floorplan."""

    @pytest.mark.parametrize("num_dies", [2, 3])
    @pytest.mark.parametrize("mode", FloorplanMode.ALL)
    def test_random_walk_matches_oracle_on_realized_floorplan(
        self, num_dies, mode, monkeypatch
    ):
        circ, stack = load("n100")
        stack = dataclasses.replace(stack, num_dies=num_dies)
        rng = np.random.default_rng(5 + num_dies)
        state = LayoutState.initial(circ.modules, stack, rng)
        monkeypatch.setattr(objectives, "ASSIGNMENT_EVERY", 3)
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs, assign_voltages(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(objectives, "assign_voltages", recording)
        evaluator = CostEvaluator(stack, circ.nets, circ.terminals, mode=mode)
        timing = TimingGraph(CompiledNetlist(list(state.modules), circ.nets, circ.terminals))
        names = sorted(state.modules)
        objective = (
            AssignmentObjective.TSC_AWARE
            if mode == FloorplanMode.TSC_AWARE
            else AssignmentObjective.POWER_AWARE
        )
        checked = 0
        for move in range(31):
            if move:
                apply_random_move(state, rng)
            before = len(calls)
            evaluator.evaluate(state, force_full=not move)
            if len(calls) == before:
                continue
            args, kwargs, got = calls[-1]
            fp = state.realize(circ.nets, circ.terminals, place_tsvs=False)
            slack = max_delay_inflation_loop(timing, fp)
            assert args[7].tolist() == [slack[n] for n in names]
            want = assign_voltages_loop(
                fp, slack, objective, objectives.INLOOP_VOLUME_SIZE
            )
            got = by_name(fp, got)
            assert kwargs["objective"] == objective
            assert got.voltages == want.voltages
            assert got.num_volumes == want.num_volumes
            assert got.volumes == want.volumes
            assert got.chosen == want.chosen
            checked += 1
        assert checked == 11
        assert any(v != 1.0 for v in got.voltages.values())


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called inside the refresh")

    return call


class TestEntropy:
    @pytest.mark.parametrize("shape", [(16, 16), (32, 32), (64, 64), (7, 13), (40, 3), (1, 9)])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("weight", ["claramunt", "as_printed"])
    def test_lognormal_maps_equal_loop(self, shape, seed, weight):
        pm = np.random.default_rng(seed).lognormal(0, 0.8, size=shape)
        assert spatial_entropy(pm, weight=weight) == spatial_entropy_loop(pm, weight=weight)

    def test_constant_and_single_class_maps(self, monkeypatch):
        for pm in (np.full((12, 12), 3.0), np.zeros((5, 8)), np.ones((1, 1))):
            assert spatial_entropy(pm) == spatial_entropy_loop(pm) == 0.0
            assert not nested_means_classes(pm).any()
        # two values: one split gives exactly two classes, one a singleton
        monkeypatch.setattr(entropy_module, "NESTED_MEANS_MAX_DEPTH", 1)
        pm = np.zeros((9, 9))
        pm[4, 4] = 1.0
        assert spatial_entropy(pm) == spatial_entropy_loop(pm, max_depth=1)
        assert sorted(np.bincount(nested_means_classes(pm).ravel())) == [1, 80]

    def test_nested_means_labels_on_a_split_mean(self):
        """A value equal to a split mean sorts right of it, at the top
        split ({0, 1, 1, 2}: mean 1) and below it (means 3, then 1 and 5)."""
        planted = np.array([[0.0, 1.0], [1.0, 2.0]])
        assert nested_means_classes(planted).tolist() == [[0, 1], [1, 2]]
        nested = np.array([0.0, 1.0, 1.0, 2.0, 4.0, 5.0, 5.0, 6.0, 3.0])
        for vals in (planted, nested, nested[::-1], nested.reshape(3, 3)):
            assert np.array_equal(nested_means_classes(vals), nested_means_classes_loop(vals))

    def test_nested_means_labels_equal_loop_on_refresh_maps(self, monkeypatch):
        """The power maps an anneal walk's thermal refreshes rasterize."""
        circ, stack = load("n100")
        rng = np.random.default_rng(3)
        state = LayoutState.initial(circ.modules, stack, rng)
        monkeypatch.setattr(objectives, "THERMAL_EVERY", 1)
        evaluator = CostEvaluator(
            stack, circ.nets, circ.terminals, mode=FloorplanMode.TSC_AWARE
        )
        recorder = _RecordingModel(evaluator.thermal)
        evaluator.thermal = recorder
        for move in range(20):
            if move:
                apply_random_move(state, rng)
            evaluator.evaluate(state, force_full=not move)
        maps = [m for refresh in recorder.maps for m in refresh]
        assert len(maps) == 40
        for pm in maps:
            labels = nested_means_classes(pm)
            assert labels.max() > 1
            assert np.array_equal(labels, nested_means_classes_loop(pm))

    @pytest.mark.parametrize("seed", range(4))
    def test_nested_means_labels_equal_loop(self, seed, monkeypatch):
        vals = np.random.default_rng(seed).lognormal(0, 1.0, size=(24, 17))
        for depth in (1, 2, 4):
            monkeypatch.setattr(entropy_module, "NESTED_MEANS_MAX_DEPTH", depth)
            got = nested_means_classes(vals)
            expected = nested_means_classes_loop(vals, max_depth=depth)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


class TestManhattanSums:
    """The oracle's sorted prefix-sum identities against brute force."""

    def test_pairwise_known(self):
        # |1-2| + |1-4| + |2-4| = 1 + 3 + 2 = 6
        assert pairwise_manhattan_sum(np.array([1.0, 2.0, 4.0])) == pytest.approx(6.0)

    def test_pairwise_trivial(self):
        assert pairwise_manhattan_sum(np.array([])) == 0.0
        assert pairwise_manhattan_sum(np.array([3.0])) == 0.0

    def test_cross_known(self):
        # pairs (1,2),(1,3),(5,2),(5,3) -> 1+2+3+2 = 8
        assert cross_manhattan_sum(np.array([1.0, 5.0]), np.array([2.0, 3.0])) == pytest.approx(8.0)

    @given(st.lists(finite, min_size=2, max_size=40))
    @settings(max_examples=40)
    def test_pairwise_matches_bruteforce(self, vals):
        xs = np.array(vals)
        brute = sum(
            abs(xs[i] - xs[j]) for i in range(len(xs)) for j in range(i + 1, len(xs))
        )
        assert pairwise_manhattan_sum(xs) == pytest.approx(brute, rel=1e-9, abs=1e-6)

    @given(
        st.lists(finite, min_size=1, max_size=20),
        st.lists(finite, min_size=1, max_size=20),
    )
    @settings(max_examples=40)
    def test_cross_matches_bruteforce(self, a, b):
        xa, xb = np.array(a), np.array(b)
        brute = sum(abs(x - y) for x in xa for y in xb)
        assert cross_manhattan_sum(xa, xb) == pytest.approx(brute, rel=1e-9, abs=1e-6)
