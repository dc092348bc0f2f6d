"""Tests for voltage levels, volume growth, and assignment objectives."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.volumes import (
    assign_voltages_loop,
    assignment_args,
    by_name,
    geometry,
    max_delay_inflation_loop,
    module_adjacency_loop,
)
from repro.benchmarks import load
from repro.floorplan.moves import apply_random_move
from repro.floorplan.seqpair import LayoutState
from repro.layout.die import StackConfig
from repro.layout.floorplan import Floorplan3D
from repro.layout.module import Module, Placement
from repro.layout.net import CompiledNetlist
from repro.power.assignment import AssignmentObjective, assign_voltages
from repro.power.voltages import (
    DEFAULT_LEVELS,
    VoltageLevel,
    delay_scale_for,
    feasible_voltages,
    power_scale_for,
    total_power,
)
from repro.power.volumes import grow_volumes, mask_levels, module_adjacency
from repro.timing.paths import TimingGraph


class TestVoltageLevels:
    def test_paper_values(self):
        """The 90 nm scaling triplets are used verbatim (Sec. 7)."""
        assert power_scale_for(0.8) == pytest.approx(0.817)
        assert delay_scale_for(0.8) == pytest.approx(1.56)
        assert power_scale_for(1.0) == 1.0
        assert delay_scale_for(1.0) == 1.0
        assert power_scale_for(1.2) == pytest.approx(1.496)
        assert delay_scale_for(1.2) == pytest.approx(0.83)

    def test_interpolation_monotone(self):
        vs = np.linspace(0.8, 1.2, 9)
        ps = [power_scale_for(float(v)) for v in vs]
        ds = [delay_scale_for(float(v)) for v in vs]
        assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))

    def test_level_validation(self):
        with pytest.raises(ValueError):
            VoltageLevel(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            VoltageLevel(1.0, -1.0, 1.0)

    def test_feasible_voltages_no_slack(self):
        """Without slack only the >= 1.0 V options remain."""
        feas = feasible_voltages(1.0)
        volts = [lv.volts for lv in feas]
        assert 0.8 not in volts
        assert 1.0 in volts and 1.2 in volts

    def test_feasible_voltages_with_slack(self):
        feas = feasible_voltages(1.6)
        assert 0.8 in [lv.volts for lv in feas]

    @given(st.floats(min_value=0.5, max_value=3.0))
    @settings(max_examples=30)
    def test_reference_always_feasible(self, slack):
        assert any(lv.volts == 1.0 for lv in feasible_voltages(slack))


def _grid_floorplan(nx=3, ny=3, sep=0.0, power=None):
    """A grid of touching 100x100 modules on die 0 (plus one on die 1)."""
    mods = {}
    placements = {}
    rng = np.random.default_rng(0)
    for j in range(ny):
        for i in range(nx):
            name = f"m{j}{i}"
            p = power if power is not None else float(rng.uniform(0.1, 1.0))
            mods[name] = Module(name, 100, 100, power=p, intrinsic_delay=0.2)
            placements[name] = Placement(mods[name], i * (100 + sep), j * (100 + sep), die=0)
    mods["top"] = Module("top", 100, 100, power=0.5, intrinsic_delay=0.2)
    placements["top"] = Placement(mods["top"], 0, 0, die=1)
    stack = StackConfig.square(1000.0)
    return Floorplan3D(stack, placements)


def _index(fp):
    return {name: k for k, name in enumerate(sorted(fp.placements))}


def _as_names(fp, adj):
    names = sorted(fp.placements)
    return {names[i]: {names[j] for j in np.flatnonzero(row)} for i, row in enumerate(adj)}


def _grow(fp, inflation, **kwargs):
    """``grow_volumes`` on a floorplan and a name-keyed slack."""
    *geom, _, slack = assignment_args(fp, inflation)
    return grow_volumes(*geom, slack, **kwargs)


def _assign(fp, inflation, objective, **kwargs):
    """``assign_voltages`` on a floorplan and a name-keyed slack, keyed by
    module name as the oracle's result is."""
    return by_name(fp, assign_voltages(*assignment_args(fp, inflation), objective, **kwargs))


def _pair_floorplan(a, b):
    """Two 100x100 modules on a 2-die stack: ``a``/``b`` are (x, y, die)."""
    placements = {}
    for name, (x, y, die) in zip(("a", "b"), (a, b)):
        placements[name] = Placement(Module(name, 100, 100, power=0.5), x, y, die=die)
    return Floorplan3D(StackConfig.square(1000.0), placements)


class TestAdjacency:
    def test_touching_modules_adjacent(self):
        fp = _grid_floorplan()
        adj, ix = module_adjacency(*geometry(fp)), _index(fp)
        assert adj[ix["m00"], ix["m01"]]
        assert adj[ix["m00"], ix["m10"]]
        assert adj[ix["m00"], ix["m11"]]  # diagonal neighbours share a corner
        assert not adj[ix["m00"], ix["m02"]]
        assert np.array_equal(adj, adj.T) and not adj.diagonal().any()

    def test_separated_modules_not_adjacent(self):
        fp = _grid_floorplan(sep=50.0)
        adj, ix = module_adjacency(*geometry(fp)), _index(fp)
        assert not adj[ix["m00"], ix["m01"]]

    def test_cross_die_overlap_adjacent(self):
        fp = _grid_floorplan()
        adj, ix = module_adjacency(*geometry(fp)), _index(fp)
        # "top" overlaps m00's footprint on the adjacent die
        assert adj[ix["top"], ix["m00"]]
        assert adj[ix["m00"], ix["top"]]
        assert not adj[ix["top"], ix["m01"]]  # edge contact across dies is not overlap


class TestAdjacencyBoundaries:
    """Contacts exactly on the margin, each checked against the x-sweep
    oracle as well as by value."""

    @pytest.mark.parametrize(
        "b,adjacent",
        [
            ((100.0, 0.0, 0), True),  # shared vertical edge (gap 0)
            ((0.0, 100.0, 0), True),  # shared horizontal edge (gap 0)
            ((100.0, 100.0, 0), True),  # corner contact
            ((100.0, -100.0, 0), True),  # corner contact, below
            ((100.5, 0.0, 0), True),  # gap inside the margin
            # a lateral gap of exactly the margin fails the sweep's strict
            # ``x2 + margin > x`` cut; a vertical one passes the closed test
            ((101.0, 0.0, 0), False),
            ((0.0, 101.0, 0), True),
            ((101.0, 101.0, 0), False),
            ((0.0, 101.5, 0), False),
            ((100.0, 0.0, 1), False),  # edge contact across dies
            ((99.0, 99.0, 1), True),  # footprint overlap across dies
        ],
    )
    def test_pair(self, b, adjacent):
        for first, second in (((0.0, 0.0, 0), b), (b, (0.0, 0.0, 0))):
            fp = _pair_floorplan(first, second)
            adj = module_adjacency(*geometry(fp))
            assert _as_names(fp, adj) == module_adjacency_loop(fp)
            assert bool(adj[0, 1]) is adjacent

    def test_non_neighbouring_dies_not_adjacent(self):
        """Dies 0 and 2 of a 3-die stack overlap in footprint but are not a
        die pair; each is adjacent to the die-1 module overlapping both."""
        placements = {
            name: Placement(Module(name, 100, 100, power=0.5), x, 0.0, die=die)
            for name, x, die in (("bottom", 0.0, 0), ("middle", 50.0, 1), ("top", 0.0, 2))
        }
        fp = Floorplan3D(StackConfig.square(1000.0, num_dies=3), placements)
        adj = _as_names(fp, module_adjacency(*geometry(fp)))
        assert adj == module_adjacency_loop(fp)
        assert adj == {"bottom": {"middle"}, "middle": {"bottom", "top"}, "top": {"middle"}}

    @pytest.mark.parametrize("num_dies", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_snapped_layouts_match_sweep(self, num_dies, seed):
        """Coordinates on a half-unit lattice make exact edge, corner and
        margin contacts common, with ties in x and rotated modules."""
        rng = np.random.default_rng(seed)
        placements = {}
        for k in range(60):
            name = f"m{k:02d}"
            w, h = rng.integers(1, 8, size=2) / 2.0
            placements[name] = Placement(
                Module(name, float(w), float(h), power=0.5),
                float(rng.integers(0, 40) / 2.0),
                float(rng.integers(0, 40) / 2.0),
                die=int(rng.integers(num_dies)),
                rotated=bool(rng.integers(2)),
            )
        order = list(placements)
        rng.shuffle(order)
        fp = Floorplan3D(
            StackConfig.square(100.0, num_dies=num_dies), {n: placements[n] for n in order}
        )
        assert _as_names(fp, module_adjacency(*geometry(fp))) == module_adjacency_loop(fp)


class TestGrowVolumes:
    def test_singletons_always_present(self):
        fp = _grid_floorplan()
        inflation = {n: 1.0 for n in fp.placements}
        vols = _grow(fp, inflation)
        singles = [members for members, _ in vols if len(members) == 1]
        assert len(singles) == len(fp.placements)

    def test_growth_with_slack(self):
        fp = _grid_floorplan()
        inflation = {n: 2.0 for n in fp.placements}
        vols = _grow(fp, inflation)
        assert any(len(members) > 4 for members, _ in vols)
        # with generous slack all three levels stay feasible
        _, feasible = max(vols, key=lambda v: len(v[0]))
        assert mask_levels(feasible) == DEFAULT_LEVELS

    def test_feasible_intersection_shrinks(self):
        fp = _grid_floorplan()
        inflation = {n: (2.0 if n != "m11" else 1.0) for n in fp.placements}
        vols = _grow(fp, inflation)
        m11 = _index(fp)["m11"]
        assert any(m11 in members and len(members) > 1 for members, _ in vols)
        for members, feasible in vols:
            if m11 in members:
                assert all(lv.volts >= 1.0 for lv in mask_levels(feasible))

    def test_max_size_respected(self):
        fp = _grid_floorplan()
        inflation = {n: 2.0 for n in fp.placements}
        vols = _grow(fp, inflation, max_volume_size=3)
        assert max(len(members) for members, _ in vols) <= 3

    def test_members_sorted_and_unique(self):
        fp = _grid_floorplan()
        vols = _grow(fp, {n: 2.0 for n in fp.placements})
        keys = [tuple(members) for members, _ in vols]
        assert all(list(k) == sorted(set(k)) for k in keys)
        assert len(set(keys)) == len(keys)


class TestAssignment:
    def test_all_modules_covered(self):
        fp = _grid_floorplan()
        inflation = {n: 1.6 for n in fp.placements}
        for objective in (AssignmentObjective.POWER_AWARE, AssignmentObjective.TSC_AWARE):
            res = _assign(fp, inflation, objective)
            assert set(res.voltages) == set(fp.placements)
            covered = set()
            for v in res.volumes:
                assert not (covered & v.members), "volumes must be disjoint"
                covered |= v.members
            assert covered == set(fp.placements)

    def test_power_aware_reduces_power(self):
        fp = _grid_floorplan()
        inflation = {n: 1.6 for n in fp.placements}
        res = _assign(fp, inflation, AssignmentObjective.POWER_AWARE)
        placed = fp.placements.values()
        volts = [res.voltages[p.name] for p in placed]
        assigned = total_power([p.module.power for p in placed], volts)
        assert assigned < fp.total_power() + 1e-12
        assert any(v == 0.8 for v in res.voltages.values())

    def test_no_slack_no_undervolting(self):
        fp = _grid_floorplan()
        inflation = {n: 1.0 for n in fp.placements}
        res = _assign(fp, inflation, AssignmentObjective.POWER_AWARE)
        assert all(v >= 1.0 for v in res.voltages.values())

    def test_tsc_aware_flattens_density(self):
        """TSC assignment must reduce the spread of power densities."""
        rng = np.random.default_rng(3)
        mods, placements = {}, {}
        for j in range(4):
            for i in range(4):
                name = f"m{j}{i}"
                p = float(rng.choice([0.1, 0.9]))
                mods[name] = Module(name, 100, 100, power=p, intrinsic_delay=0.2)
                placements[name] = Placement(mods[name], i * 100, j * 100, die=0)
        stack = StackConfig.square(1000.0)
        fp = Floorplan3D(stack, placements)
        inflation = {n: 1.6 for n in placements}
        res = _assign(fp, inflation, AssignmentObjective.TSC_AWARE)
        from repro.power.voltages import power_scale_for as ps

        before = np.array([m.power / m.area for m in mods.values()])
        after = np.array(
            [mods[n].power * ps(res.voltages[n]) / mods[n].area for n in mods]
        )
        assert after.std() / after.mean() <= before.std() / before.mean() + 1e-9

    def test_tsc_aware_more_volumes_than_pa(self):
        """The paper's Table 2: TSC needs notably more voltage volumes."""
        fp = _grid_floorplan(nx=4, ny=4)
        inflation = {n: 1.6 for n in fp.placements}
        pa = _assign(fp, inflation, AssignmentObjective.POWER_AWARE)
        tsc = _assign(fp, inflation, AssignmentObjective.TSC_AWARE)
        assert tsc.num_volumes >= pa.num_volumes

    def test_unknown_objective_rejected(self):
        fp = _grid_floorplan()
        with pytest.raises(ValueError):
            _assign(fp, {}, "fastest")


class TestAgainstOracle:
    """The index-space pipeline gives the name-keyed oracle's cover
    exactly (``==``): voltages, volumes in selection order, chosen levels."""

    @pytest.mark.parametrize("bench", ["n100", "n200"])
    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_random_walk_matches_oracle(self, bench, num_dies):
        circ, stack = load(bench)
        stack = dataclasses.replace(stack, num_dies=num_dies)
        rng = np.random.default_rng(num_dies)
        state = LayoutState.initial(circ.modules, stack, rng)
        for _ in range(2):
            for _ in range(30):
                apply_random_move(state, rng)
            fp = state.realize(circ.nets, circ.terminals)
            names = sorted(fp.placements)
            assert _as_names(fp, module_adjacency(*geometry(fp))) == module_adjacency_loop(fp)
            timing = TimingGraph(
                CompiledNetlist(names, circ.nets, circ.terminals)
            )
            inflations = (
                max_delay_inflation_loop(timing, fp),
                dict(zip(names, rng.uniform(0.9, 2.0, len(names)).tolist())),
            )
            x, y, w, h, die, _, delay = fp.module_arrays(names)
            slack = timing.max_delay_inflation(x + w / 2.0, y + h / 2.0, die, delay)
            assert slack.tolist() == [inflations[0][n] for n in names]
            for inflation in inflations:
                for objective in (AssignmentObjective.POWER_AWARE, AssignmentObjective.TSC_AWARE):
                    for size in (16, 40):
                        got = _assign(fp, inflation, objective, max_volume_size=size)
                        want = assign_voltages_loop(fp, inflation, objective, size)
                        assert got.voltages == want.voltages
                        assert got.volumes == want.volumes
                        assert got.chosen == want.chosen

    @pytest.mark.parametrize("powers", ["equal_density", "zero_power"])
    def test_tie_heavy_inputs_match_oracle(self, powers):
        """Ties everywhere (one power density for every module, so every
        singleton and every uniform group scores alike) and all-zero
        volumes (the ``mean > 0`` guard of the uniformity score) still
        give the oracle's cover, selection order included."""
        circ, stack = load("n100")
        rng = np.random.default_rng(11)
        state = LayoutState.initial(circ.modules, stack, rng)
        for _ in range(30):
            apply_random_move(state, rng)
        fp = state.realize(circ.nets, circ.terminals, place_tsvs=False)
        half = stack.outline.w / 2.0

        def power_of(p):
            if powers == "equal_density":
                # a power-of-two density makes power / area exactly that density
                return 2.0**-20 * (p.width * p.height)
            # zero on the left half, so whole grown volumes are power-free
            return 0.0 if p.x < half else p.module.power

        fp = Floorplan3D(
            fp.stack,
            {
                name: dataclasses.replace(
                    p, module=dataclasses.replace(p.module, power=power_of(p))
                )
                for name, p in fp.placements.items()
            },
        )
        names = sorted(fp.placements)
        inflation = dict(zip(names, rng.uniform(0.9, 2.0, len(names)).tolist()))
        for objective in (AssignmentObjective.POWER_AWARE, AssignmentObjective.TSC_AWARE):
            for size in (16, 40):
                got = _assign(fp, inflation, objective, max_volume_size=size)
                want = assign_voltages_loop(fp, inflation, objective, size)
                assert got.voltages == want.voltages
                assert got.volumes == want.volumes
                assert got.chosen == want.chosen
