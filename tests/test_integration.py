"""Cross-module integration tests: the paper's pipeline invariants.

These tests exercise combinations of subsystems the unit tests cover in
isolation — floorplan -> thermal -> leakage -> mitigation -> attack — on
one shared small instance, asserting the physical and algorithmic
invariants that the headline experiments rely on.
"""

import numpy as np
import pytest

from oracles.svf import svf
from repro.attacks import InputActivityModel, ThermalDevice, characterize
from repro.benchmarks.generator import BenchmarkSpec, generate_circuit
from repro.floorplan import AnnealConfig, FloorplanMode, anneal
from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.leakage.entropy import spatial_entropy
from repro.leakage.pearson import die_correlation
from repro.mitigation import sample_power_maps
from repro.thermal import SteadyStateSolver, build_stack
from repro.timing import TimingGraph
from repro.power import AssignmentObjective, assign_voltages


@pytest.fixture(scope="module")
def annealed():
    spec = BenchmarkSpec("integ", 2, 16, 1, 50, 10, 0.36, 1.5, seed=21)
    circ = generate_circuit(spec)
    stack = StackConfig(spec.outline)
    result = anneal(
        circ.modules, stack, circ.nets, circ.terminals,
        mode=FloorplanMode.TSC_AWARE,
        config=AnnealConfig(iterations=500, seed=2, calibration_samples=6,
                            grid_nx=16, grid_ny=16),
    )
    return circ, stack, result


class TestPipelineInvariants:
    def test_annealed_floorplan_is_legal(self, annealed):
        _, _, result = annealed
        assert result.feasible
        assert result.floorplan.validate() == []

    def test_power_conservation_through_pipeline(self, annealed):
        """Power rasterized onto the grid equals module power totals."""
        circ, stack, result = annealed
        fp = result.floorplan
        grid = GridSpec(stack.outline, 24, 24)
        total_maps = sum(float(fp.power_map(d, grid).sum()) for d in range(2))
        assert total_maps == pytest.approx(fp.total_power(), rel=1e-6)

    def test_thermal_energy_balance_on_layout(self, annealed):
        circ, stack, result = annealed
        fp = result.floorplan
        grid = GridSpec(stack.outline, 16, 16)
        density = fp.tsv_density((0, 1), grid)
        solver = SteadyStateSolver(build_stack(stack, grid, tsv_density=density))
        pmaps = [fp.power_map(d, grid) for d in range(2)]
        res = solver.solve(pmaps)
        outflow = float(np.sum(solver.network.boundary * (res.nodal - 293.0)))
        assert outflow == pytest.approx(sum(p.sum() for p in pmaps), rel=1e-6)

    def test_voltage_assignment_respects_timing(self, annealed):
        """After assignment, the critical delay must not exceed the
        nominal critical delay by more than bookkeeping noise — feasible
        sets were derived from exactly that bound."""
        circ, stack, result = annealed
        fp = result.floorplan
        tg = TimingGraph(fp.compiled_netlist())
        nominal = tg.evaluate(fp, voltages={n: 1.0 for n in fp.placements})
        inflation = tg.max_delay_inflation(fp)
        res = assign_voltages(fp, inflation, objective=AssignmentObjective.POWER_AWARE)
        assigned = tg.evaluate(fp, voltages=res.voltages)
        # individual-module bounds compose optimistically, so allow a
        # small engineering margin over the nominal target
        assert assigned.critical_delay_ns <= nominal.critical_delay_ns * 1.10

    def test_activity_samples_perturb_correlation(self, annealed):
        """Eq. 2 machinery: activity noise changes maps but not wildly."""
        circ, stack, result = annealed
        fp = result.floorplan
        grid = GridSpec(stack.outline, 16, 16)
        sets = sample_power_maps(fp, grid, count=6, sigma=0.10, seed=5)
        nominal = fp.power_map(0, grid)
        for s in sets:
            ratio = s[0].sum() / nominal.sum()
            assert 0.7 < ratio < 1.3

    def test_leakage_metrics_finite_on_layout(self, annealed):
        circ, stack, result = annealed
        fp = result.floorplan
        grid = GridSpec(stack.outline, 24, 24)
        density = fp.tsv_density((0, 1), grid)
        solver = SteadyStateSolver(build_stack(stack, grid, tsv_density=density))
        pmaps = [fp.power_map(d, grid) for d in range(2)]
        res = solver.solve(pmaps)
        for d in range(2):
            r = die_correlation(pmaps[d], res.die_maps[d])
            s = spatial_entropy(pmaps[d])
            assert -1.0 <= r <= 1.0
            assert np.isfinite(s) and s >= 0

    def test_svf_tracks_characterization(self, annealed):
        """The SVF cross-check and the characterization attack must agree
        in sign: a device whose similarity structure leaks (high SVF)
        is also learnable by regression (R^2 well above zero)."""
        circ, stack, result = annealed
        fp = result.floorplan
        grid = GridSpec(stack.outline, 16, 16)
        model = InputActivityModel(sorted(fp.placements), num_bits=12,
                                   fanin=2, seed=1)
        device = ThermalDevice(fp, grid, activity_model=model)
        rng = np.random.default_rng(2)
        patterns = [tuple(int(b) for b in rng.integers(0, 2, 12)) for _ in range(8)]
        # whole-stack traces: die-0 temperatures mix in die-1 power, so the
        # oracle must cover both dies for the similarity structures to align
        def power_maps(pattern):
            activity = model.activity(pattern)
            return [fp.power_map(d, grid, activity=activity)
                    for d in range(fp.stack.num_dies)]

        oracle = [np.concatenate([m.ravel() for m in power_maps(p)])
                  for p in patterns]
        side = [np.concatenate([m.ravel() for m in device.respond(p)])
                for p in patterns]
        leak = svf(oracle, side)
        # control: breaking the pattern correspondence must kill the SVF
        shuffled = [side[(i + 3) % len(side)] for i in range(len(side))]
        leak_control = svf(oracle, shuffled)
        char = characterize(device, die=0, train_patterns=24, test_patterns=8, seed=3)
        assert leak > 0.05
        assert leak > leak_control
        assert char.r2 > 0.3
