"""Tests for materials, stack building, and the detailed thermal solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.thermal.materials import (
    BOND,
    COPPER,
    SILICON,
    Material,
    tsv_composite_capacity,
    tsv_composite_lateral,
    tsv_composite_vertical,
)
from repro.thermal.stack import build_stack
from repro.thermal.steady_state import SteadyStateSolver
from repro.thermal.transient import TransientSolver, thermal_time_constant


@pytest.fixture(scope="module")
def small_setup():
    cfg = StackConfig.square(2000.0)
    grid = GridSpec(cfg.outline, 16, 16)
    stack = build_stack(cfg, grid)
    solver = SteadyStateSolver(stack)
    return cfg, grid, stack, solver


class TestMaterials:
    def test_material_validation(self):
        with pytest.raises(ValueError):
            Material("bad", -1.0, 1.0)
        with pytest.raises(ValueError):
            Material("bad", 1.0, 0.0)

    def test_composite_vertical_bounds(self):
        assert tsv_composite_vertical(BOND, 0.0) == pytest.approx(BOND.conductivity)
        assert tsv_composite_vertical(BOND, 1.0) == pytest.approx(COPPER.conductivity)

    def test_composite_vertical_monotone(self):
        ds = np.linspace(0, 1, 11)
        ks = tsv_composite_vertical(SILICON, ds)
        assert np.all(np.diff(ks) > 0)

    def test_composite_lateral_between_bounds(self):
        k = tsv_composite_lateral(BOND, 0.5)
        assert BOND.conductivity < float(k) < COPPER.conductivity

    def test_composite_lateral_le_vertical(self):
        """Maxwell-Eucken lies below the parallel (vertical) bound."""
        for d in (0.1, 0.4, 0.8):
            assert float(tsv_composite_lateral(BOND, d)) <= float(
                tsv_composite_vertical(BOND, d)
            ) + 1e-9

    def test_composite_capacity_bounds(self):
        assert float(tsv_composite_capacity(SILICON, 0.0)) == SILICON.capacity
        assert float(tsv_composite_capacity(SILICON, 1.0)) == COPPER.capacity

    @given(st.floats(min_value=0, max_value=1))
    @settings(max_examples=30)
    def test_composite_clipping(self, d):
        k = float(tsv_composite_vertical(BOND, d))
        assert BOND.conductivity - 1e-9 <= k <= COPPER.conductivity + 1e-9


class TestStackBuilder:
    def test_layer_order(self, small_setup):
        _, _, stack, _ = small_setup
        names = [l.name for l in stack.layers]
        assert names == [
            "die0_bulk", "die0_active", "die0_beol", "bond01", "die1_bulk",
            "die1_active", "die1_beol", "tim", "spreader", "sink",
        ]

    def test_power_layers(self, small_setup):
        _, _, stack, _ = small_setup
        assert stack.power_layers() == [(1, 0), (5, 1)]

    def test_layer_index_lookup(self, small_setup):
        _, _, stack, _ = small_setup
        assert stack.layer_index("bond01") == 3
        with pytest.raises(KeyError):
            stack.layer_index("nope")

    def test_tsv_density_modifies_bond(self):
        cfg = StackConfig.square(1000.0)
        grid = GridSpec(cfg.outline, 8, 8)
        density = np.zeros(grid.shape)
        density[4, 4] = 1.0
        stack = build_stack(cfg, grid, tsv_density=density)
        bond = stack.layers[stack.layer_index("bond01")]
        assert bond.k_vertical[4, 4] > 50 * bond.k_vertical[0, 0]
        # secondary path strengthened under the TSV cell
        assert stack.r_bottom_map[4, 4] < stack.r_bottom_map[0, 0] / 5

    def test_density_shape_mismatch_rejected(self):
        cfg = StackConfig.square(1000.0)
        grid = GridSpec(cfg.outline, 8, 8)
        with pytest.raises(ValueError):
            build_stack(cfg, grid, tsv_density=np.zeros((4, 4)))

    def test_three_die_stack(self):
        cfg = StackConfig.square(1000.0, num_dies=3)
        grid = GridSpec(cfg.outline, 8, 8)
        stack = build_stack(cfg, grid)
        assert [d for _, d in stack.power_layers()] == [0, 1, 2]
        assert stack.layers[-1].name == "sink"

    @pytest.mark.parametrize("num_dies", [1, 2, 3, 4])
    def test_tiers_repeat_per_die(self, num_dies):
        cfg = StackConfig.square(1000.0, num_dies=num_dies)
        stack = build_stack(cfg, GridSpec(cfg.outline, 6, 5))
        names = ["die0_bulk", "die0_active", "die0_beol"]
        for d in range(1, num_dies):
            names += [f"bond{d - 1}{d}", f"die{d}_bulk", f"die{d}_active", f"die{d}_beol"]
        assert [layer.name for layer in stack.layers] == names + ["tim", "spreader", "sink"]
        assert stack.power_layers() == [
            (stack.layer_index(f"die{d}_active"), d) for d in range(num_dies)
        ]

    def test_single_die_stack_has_one_die(self):
        """No phantom second tier: one power layer and one die map."""
        cfg = StackConfig.square(1000.0, num_dies=1)
        grid = GridSpec(cfg.outline, 8, 8)
        stack = build_stack(cfg, grid)
        assert stack.power_layers() == [(1, 0)]
        res = SteadyStateSolver(stack).solve([np.full(grid.shape, 1.0 / 64)])
        assert len(res.die_maps) == 1
        assert res.die_maps[0].max() > stack.ambient


class TestSteadyState:
    def test_zero_power_gives_ambient(self, small_setup):
        _, grid, stack, solver = small_setup
        res = solver.solve([np.zeros(grid.shape), np.zeros(grid.shape)])
        assert np.allclose(res.nodal, stack.ambient, atol=1e-8)

    def test_positive_power_heats(self, small_setup):
        _, grid, stack, solver = small_setup
        pm = np.full(grid.shape, 2.0 / 256)
        res = solver.solve([pm, pm])
        assert res.peak > stack.ambient + 1.0
        assert np.all(res.nodal >= stack.ambient - 1e-9)

    def test_linearity(self, small_setup):
        """The RC network is linear: doubling power doubles the rise."""
        _, grid, stack, solver = small_setup
        pm = np.zeros(grid.shape)
        pm[8, 8] = 1.0
        r1 = solver.solve([pm, np.zeros(grid.shape)])
        r2 = solver.solve([2 * pm, np.zeros(grid.shape)])
        rise1 = r1.die_maps[0] - stack.ambient
        rise2 = r2.die_maps[0] - stack.ambient
        assert np.allclose(rise2, 2 * rise1, rtol=1e-8)

    def test_superposition(self, small_setup):
        _, grid, stack, solver = small_setup
        a = np.zeros(grid.shape); a[4, 4] = 1.0
        b = np.zeros(grid.shape); b[12, 12] = 1.0
        ra = solver.solve([a, np.zeros(grid.shape)]).die_maps[0] - stack.ambient
        rb = solver.solve([b, np.zeros(grid.shape)]).die_maps[0] - stack.ambient
        rab = solver.solve([a + b, np.zeros(grid.shape)]).die_maps[0] - stack.ambient
        assert np.allclose(rab, ra + rb, rtol=1e-8, atol=1e-10)

    def test_energy_balance(self, small_setup):
        """Total heat leaving through the boundaries equals total power."""
        _, grid, stack, solver = small_setup
        pm = np.full(grid.shape, 3.0 / 256)
        res = solver.solve([pm, pm])
        net = solver.network
        outflow = float(np.sum(net.boundary * (res.nodal - stack.ambient)))
        assert outflow == pytest.approx(6.0, rel=1e-6)

    def test_bottom_die_hotter(self, small_setup):
        """The die far from the heatsink runs hotter at equal power."""
        _, grid, _, solver = small_setup
        pm = np.full(grid.shape, 2.0 / 256)
        res = solver.solve([pm, pm])
        assert res.die_maps[0].mean() > res.die_maps[1].mean()

    def test_hotspot_is_local(self, small_setup):
        _, grid, stack, solver = small_setup
        pm = np.zeros(grid.shape)
        pm[8, 8] = 1.0
        res = solver.solve([pm, np.zeros(grid.shape)])
        rise = res.die_maps[0] - stack.ambient
        assert rise[8, 8] == rise.max()
        assert rise[0, 0] < rise[8, 8] / 4

    def test_power_map_shape_check(self, small_setup):
        _, _, _, solver = small_setup
        with pytest.raises(ValueError):
            solver.solve([np.zeros((4, 4)), np.zeros((4, 4))])

    def test_tsv_cooling_effect(self):
        """A TSV island under a hot spot lowers its temperature."""
        cfg = StackConfig.square(2000.0)
        grid = GridSpec(cfg.outline, 16, 16)
        pm = np.zeros(grid.shape)
        pm[8, 8] = 1.0
        base = SteadyStateSolver(build_stack(cfg, grid)).solve(
            [pm, np.zeros(grid.shape)]
        )
        density = np.zeros(grid.shape)
        density[7:10, 7:10] = 1.0
        cooled = SteadyStateSolver(
            build_stack(cfg, grid, tsv_density=density)
        ).solve([pm, np.zeros(grid.shape)])
        assert cooled.die_maps[0][8, 8] < base.die_maps[0][8, 8] - 0.5


class TestTransient:
    def test_step_response_monotone_and_converges(self):
        cfg = StackConfig.square(1000.0)
        grid = GridSpec(cfg.outline, 8, 8)
        stack = build_stack(cfg, grid)
        solver = TransientSolver(stack)
        pm = np.full(grid.shape, 2.0 / 64)

        trace = solver.run(lambda t: [pm, pm], duration=0.2, dt=0.01)
        means = trace.die_means[:, 0]
        assert np.all(np.diff(means) >= -1e-9)

        steady = SteadyStateSolver(stack).solve([pm, pm])
        # long integration approaches the steady state from below
        assert means[-1] <= steady.die_maps[0].mean() + 1e-6

    def test_time_constant_scale(self):
        """The thermal time constant sits in the ms regime (Fig. 1)."""
        cfg = StackConfig.square(1000.0)
        grid = GridSpec(cfg.outline, 8, 8)
        stack = build_stack(cfg, grid)
        solver = TransientSolver(stack)
        pm = np.full(grid.shape, 2.0 / 64)
        trace = solver.run(lambda t: [pm, pm], duration=0.5, dt=0.005)
        tau = thermal_time_constant(trace)
        assert 1e-4 < tau < 0.5

    def test_invalid_duration(self):
        cfg = StackConfig.square(1000.0)
        grid = GridSpec(cfg.outline, 8, 8)
        solver = TransientSolver(build_stack(cfg, grid))
        with pytest.raises(ValueError):
            solver.run(lambda t: [np.zeros(grid.shape)] * 2, duration=0, dt=0.01)

    def test_time_constant_requires_rise(self):
        cfg = StackConfig.square(1000.0)
        grid = GridSpec(cfg.outline, 8, 8)
        solver = TransientSolver(build_stack(cfg, grid))
        zeros = np.zeros(grid.shape)
        trace = solver.run(lambda t: [zeros, zeros], duration=0.05, dt=0.01)
        with pytest.raises(ValueError):
            thermal_time_constant(trace)

    def test_time_constant_first_crossing_on_overshoot(self):
        """A noisy/overshooting step response must return the *first*
        63.2 % crossing; the old sorted-search assumed a monotonic trace
        and returned garbage on overshoot."""
        from repro.thermal.transient import TransientTrace

        times = np.arange(1, 8) * 0.01
        # rises past the target (0.632), overshoots, rings back down
        means = np.array([0.0, 0.3, 0.7, 1.3, 0.9, 1.1, 1.0])
        # one die of one cell: its mean is the cell itself
        trace = TransientTrace(times=times, die_temps=means[:, None, None])
        tau = thermal_time_constant(trace)
        assert tau == pytest.approx(times[2])  # first sample >= 0.632
