"""The factorization-backend layer: selection policy, cross-backend
oracles, and the capability queries that replaced type sniffing in the
solver layer.

Two backends remain: band (direct band Cholesky) and spectral
(iterative).  The band backend is validated against dense
``numpy.linalg.solve`` and against the historical equilibrated-COLAMD
``splu`` (``oracles.superlu``), which survives only as an oracle.
Spectral is held to its stated iterative tolerance.
"""

import numpy as np
import pytest

from repro.core import faults
from repro.core.faults import DegradationWarning
from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.thermal.backends import (
    FEW_RHS_CROSSOVER,
    SPECTRAL_THRESHOLD,
    FactorHints,
    resolve_backend,
)
from repro.thermal.backends import spectral as spectral_module
from repro.thermal.backends.band import (
    BandCholeskyBackend,
    BandCholeskyFactorization,
)
from repro.thermal.backends.spectral import (
    SPECTRAL_TOLERANCE,
    SpectralBackend,
    SpectralFactorization,
)
from repro.thermal.rc_network import assemble
from repro.thermal.stack import TopologyConfig, build_stack
from repro.thermal.steady_state import (
    SolverCache,
    SteadyStateSolver,
    WoodburySolver,
    woodbury_crossover_rank,
)
from repro.thermal.transient import TransientSolver

from oracles.superlu import SuperLUBackend, SuperLUFactorization

#: direct backends must match the superlu oracle to this relative error
ORACLE_RTOL = 1e-10

BAND = BandCholeskyBackend()
SPECTRAL = SpectralBackend()
SUPERLU = SuperLUBackend()


def _stack(num_dies=2, grid_n=10, side=1500.0, tsv=False):
    cfg = StackConfig.square(side, num_dies=num_dies)
    grid = GridSpec(cfg.outline, grid_n, grid_n)
    tsv_density = None
    if tsv:
        density = np.zeros(grid.shape)
        density[2:5, 3:7] = 0.5
        tsv_density = {(0, 1): density}
    return cfg, grid, build_stack(cfg, grid, tsv_density=tsv_density)


def _power_sets(grid, num_dies, count=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        [rng.random(grid.shape) * 0.02 for _ in range(num_dies)]
        for _ in range(count)
    ]


class TestRegistryAndSelection:
    def test_unknown_backend_is_an_error(self):
        """Backends have no string names to select them by."""
        with pytest.raises(TypeError, match="FactorizationBackend instance"):
            resolve_backend("pardiso")
        for name in ("superlu", "band"):
            with pytest.raises(TypeError, match="FactorizationBackend instance"):
                resolve_backend(name)

    @pytest.mark.parametrize("name", ["cholmod", "compiled_triangular", "multigrid"])
    def test_removed_backends_are_unknown(self, name, monkeypatch):
        """Neither an argument nor the environment variable that once
        chose a backend by name reaches the rule."""
        with pytest.raises(TypeError, match="FactorizationBackend instance"):
            resolve_backend(name)
        for token in (name, "spectral"):
            monkeypatch.setenv("REPRO_THERMAL_BACKEND", token)
            assert resolve_backend().name == "band"
            big = resolve_backend(cells_per_layer=SPECTRAL_THRESHOLD + 1)
            assert big.name == "spectral"

    def test_explicit_instance_is_trusted(self):
        assert resolve_backend(SPECTRAL) is SPECTRAL

    def test_auto_prefers_spectral_above_threshold(self):
        for cells in (64, SPECTRAL_THRESHOLD):
            assert resolve_backend(cells_per_layer=cells).name == "band"
        big = resolve_backend(cells_per_layer=SPECTRAL_THRESHOLD + 1)
        assert big.name == "spectral"

    def test_threshold_is_a_fixed_64x64_layer(self):
        assert SPECTRAL_THRESHOLD == 64 * 64
        assert resolve_backend(cells_per_layer=101).name == "band"


class TestFewRHSSelection:
    """``FactorHints.rhs_budget``: callers that solve one or two
    right-hand sides (verification, the DVFS equilibrium) take spectral
    on grids past 16x16; everything else keeps today's size rule."""

    @staticmethod
    def _auto(n, rhs_budget):
        return resolve_backend(
            hints=FactorHints(grid_shape=(4, n, n), rhs_budget=rhs_budget)
        ).name

    def test_no_budget_keeps_the_size_rule(self):
        for n in (12, 16, 32, 64):
            assert self._auto(n, None) == "band"
        assert self._auto(65, None) == "spectral"

    @pytest.mark.parametrize("budget", [1, 2])
    def test_few_rhs_take_spectral_past_16x16(self, budget):
        for n in (12, 16):
            assert self._auto(n, budget) == "band"
        for n in (17, 20, 24, 32, 48, 64, 65):
            assert self._auto(n, budget) == "spectral"

    def test_budget_above_crossover_keeps_band(self):
        assert self._auto(32, FEW_RHS_CROSSOVER) == "spectral"
        assert self._auto(32, FEW_RHS_CROSSOVER + 1) == "band"
        assert self._auto(32, 40) == "band"  # a mitigation candidate sweep
        assert self._auto(65, 40) == "spectral"  # the size rule still rules

    def test_explicit_request_wins(self):
        hints = FactorHints(grid_shape=(4, 32, 32), rhs_budget=1)
        assert resolve_backend(hints=hints).name == "spectral"
        assert resolve_backend(BAND, hints=hints) is BAND

    @pytest.mark.parametrize("n, rhs_budget", [(16, 1), (48, None)])
    def test_interposer_cache_and_direct_agree(self, n, rhs_budget):
        """A 2.5D system's layer is the interposer grid, wider than the
        die grid: the cache and a solver built on the stack both resolve
        the backend from the interposer's cells."""
        cfg = StackConfig.square(2000.0)
        grid = GridSpec(cfg.outline, n, n)
        topology = TopologyConfig("2.5d")
        stack = build_stack(cfg, grid, topology=topology)
        hints = FactorHints(
            grid_shape=assemble(stack).grid_shape, rhs_budget=rhs_budget
        )
        direct = resolve_backend(hints=hints).name
        assert direct == "spectral"
        cached = SolverCache(maxsize=1).solver(
            cfg, grid, rhs_budget=rhs_budget, topology=topology
        )
        assert cached.backend.name == direct
        if rhs_budget is None:
            assert SteadyStateSolver(stack).backend.name == direct
            assert TransientSolver(stack).backend.name == direct

    def test_cache_keys_the_budgeted_backend(self):
        cfg, grid, _ = _stack(grid_n=24)
        cache = SolverCache(maxsize=4)
        few = cache.solver(cfg, grid, rhs_budget=1)
        assert few.backend.name == "spectral"
        assert cache.solver(cfg, grid, rhs_budget=2) is few
        many = cache.solver(cfg, grid)
        assert many.backend.name == "band"
        assert cache.misses == 2 and cache.hits == 1


def _dense_solve(network, b):
    """``numpy.linalg.solve`` of the dense conductance matrix."""
    return np.linalg.solve(network.conductance.toarray(), b)


class TestBandBackend:
    """The band-Cholesky backend against a dense solve, on every grid
    orientation it renumbers differently."""

    @pytest.mark.parametrize("topology", ["3d", "2.5d"])
    def test_matches_dense_solve_with_tsvs(self, topology):
        cfg = StackConfig.square(1500.0, num_dies=2)
        grid = GridSpec(cfg.outline, 9, 7)
        density = np.zeros(grid.shape)
        density[2:5, 1:6] = 0.5
        stack = build_stack(
            cfg, grid, tsv_density={(0, 1): density}, topology=TopologyConfig(topology)
        )
        assert stack.has_tsvs
        solver = SteadyStateSolver(stack, backend=BAND)
        assert isinstance(solver.factorization, BandCholeskyFactorization)
        rhs = np.random.default_rng(1).random((solver.network.num_nodes, 3))
        want = _dense_solve(solver.network, rhs)
        got = solver.factorization.solve(rhs)
        np.testing.assert_allclose(got, want, rtol=ORACLE_RTOL)

    @pytest.mark.parametrize(
        "num_dies, ny, nx",
        [(2, 5, 11), (2, 11, 5), (1, 6, 6), (3, 4, 9)],
        ids=["nx>ny", "ny>nx", "1-die", "3-die"],
    )
    def test_grid_orientations(self, num_dies, ny, nx):
        """The longer lateral axis goes slowest, so the half-bandwidth
        is layers x the shorter axis either way round."""
        cfg = StackConfig.square(1500.0, num_dies=num_dies)
        grid = GridSpec(cfg.outline, nx, ny)
        stack = build_stack(cfg, grid)
        network = assemble(stack)
        fact = BAND.factor(network.conductance, hints=network.factor_hints())
        assert fact._factor.shape == (stack.num_layers * min(ny, nx) + 1, network.num_nodes)
        q = _power_sets(grid, num_dies, count=1)[0]
        rhs = network.power_vector(q) + network.boundary * stack.ambient
        np.testing.assert_allclose(
            fact.solve(rhs), _dense_solve(network, rhs), rtol=ORACLE_RTOL
        )

    def test_batched_solve_equals_column_loop_bitwise(self):
        """``dpbtrs`` substitutes one column at a time: a block, and
        ``solve_many`` over several blocks, equal solving each column
        alone."""
        _, grid, stack = _stack(num_dies=3, grid_n=12, tsv=True)
        solver = SteadyStateSolver(stack, backend=BAND)
        sets = _power_sets(grid, 3, count=21)
        block = np.random.default_rng(2).random((solver.network.num_nodes, 21))
        solved = solver.factorization.solve(block)
        for j in range(block.shape[1]):
            alone = solver.factorization.solve(block[:, j])
            assert solved[:, j].tobytes() == alone.tobytes()
        for result, maps in zip(solver.solve_many(sets), sets):
            assert result.nodal.tobytes() == solver.solve(maps).nodal.tobytes()

    @pytest.mark.parametrize(
        "num_dies, ny, nx",
        [(2, 5, 11), (2, 11, 5), (1, 6, 6), (3, 4, 9)],
        ids=["nx>ny", "ny>nx", "1-die", "3-die"],
    )
    def test_solve_many_matches_dense_solve(self, num_dies, ny, nx):
        """The tiled kernel on every orientation: ``max(ny, nx)`` block
        rows of ``layers x min(ny, nx)`` nodes each."""
        cfg = StackConfig.square(1500.0, num_dies=num_dies)
        grid = GridSpec(cfg.outline, nx, ny)
        solver = SteadyStateSolver(build_stack(cfg, grid), backend=BAND)
        network = solver.network
        sets = _power_sets(grid, num_dies, count=5)
        rhs = np.stack(
            [network.power_vector(s) + network.boundary * solver.stack.ambient for s in sets],
            axis=1,
        )
        want = _dense_solve(network, rhs)
        for j, result in enumerate(solver.solve_many(sets)):
            np.testing.assert_allclose(result.nodal, want[:, j], rtol=ORACLE_RTOL)

    def test_tiled_column_bits_independent_of_block_width(self):
        """``solve_block`` gives a column the same bits at every block
        width, alone as a vector too."""
        _, _, stack = _stack(num_dies=3, grid_n=12, tsv=True)
        fact = SteadyStateSolver(stack, backend=BAND).factorization
        block = np.random.default_rng(3).random((fact._order.size, 40))
        full = fact.solve_block(block)
        for width in (1, 2, 7, 8, 21, 40):
            for lo in range(0, 40, width):
                part = fact.solve_block(block[:, lo : lo + width])
                assert part.tobytes() == full[:, lo : lo + width].tobytes(), width
        assert fact.solve_block(block[:, 5]).tobytes() == full[:, 5].tobytes()
        np.testing.assert_allclose(full, fact.solve(block), rtol=ORACLE_RTOL)

    def test_needs_grid_shape(self):
        _, _, stack = _stack(grid_n=6)
        network = assemble(stack)
        for hints in (None, FactorHints(rhs_budget=3)):
            with pytest.raises(ValueError, match="grid_shape"):
                BAND.factor(network.conductance, hints=hints)


class TestHistoricalSuperLUOracle:
    """The band-Cholesky default against the equilibrated-COLAMD SuperLU
    factorization the package once solved with."""

    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_steady_solve_matches(self, num_dies):
        _, grid, stack = _stack(num_dies=num_dies, tsv=True)
        new = SteadyStateSolver(stack, backend=BAND)
        old = SteadyStateSolver(stack, backend=SUPERLU)
        for a, b in zip(
            new.solve_many(_power_sets(grid, num_dies)),
            old.solve_many(_power_sets(grid, num_dies)),
        ):
            np.testing.assert_allclose(a.nodal, b.nodal, rtol=ORACLE_RTOL)

    def test_transient_run_matches(self):
        _, grid, stack = _stack(grid_n=8, tsv=True)
        pm = _power_sets(grid, 2, count=1)[0]

        def power_at(_t):
            return pm

        new = TransientSolver(stack, backend=BAND).run(
            power_at, duration=0.2, dt=0.05
        )
        old = TransientSolver(stack, backend=SUPERLU).run(
            power_at, duration=0.2, dt=0.05
        )
        np.testing.assert_allclose(new.die_means, old.die_means, rtol=ORACLE_RTOL)
        np.testing.assert_allclose(new.die_temps, old.die_temps, rtol=ORACLE_RTOL)

    def test_n100_flow_record_matches(self, monkeypatch):
        from repro.benchmarks import load
        from repro.core.config import FlowConfig
        from repro.core.flow import run_flow
        from repro.floorplan import objectives
        from repro.floorplan.annealer import AnnealConfig
        from repro.mitigation.dummy_tsv import MitigationConfig
        from repro.thermal import steady_state

        circuit, stack = load("n100")
        config = FlowConfig(
            mode="tsc_aware",
            anneal=AnnealConfig(iterations=120, seed=1, calibration_samples=6),
            mitigation=MitigationConfig(
                samples=20, max_rounds=2, grid_nx=16, grid_ny=16
            ),
            verify_nx=16,
            verify_ny=16,
        )

        def record():
            # cold process caches, so neither run reuses the other's solvers
            monkeypatch.setattr(steady_state, "_DEFAULT_CACHE", SolverCache())
            monkeypatch.setattr(objectives, "_CALIBRATED_MODELS", {})
            doc = run_flow(circuit, stack, config).metrics.to_dict()
            doc.pop("runtime_s")
            doc.pop("degradations", None)
            return doc

        new = record()
        monkeypatch.setattr(BandCholeskyBackend, "factor", SuperLUBackend.factor)
        old = record()
        assert new.keys() == old.keys()
        for key, value in new.items():
            if isinstance(value, float):
                assert value == pytest.approx(old[key], rel=1e-9, abs=0.0), key
            else:
                assert value == old[key], key


class TestFewRHSRecordTolerance:
    """The stated tolerance of the few-RHS rule: a flow record with the
    rule pinned to the SuperLU oracle and under the rule (verification
    and the dummy-TSV candidates through spectral, the sweeps and the
    DVFS step matrix through band)
    agree exactly on integer and boolean fields and within 1e-9 relative
    on floats.  The dummy-TSV loop's own report keeps the same TSVs and
    rounds, and its correlations stay within 1e-9 relative, so no
    candidate argmin or stop-bar decision flips between backends."""

    @pytest.mark.parametrize(
        "mode, topology, mitigation_mode, max_rounds",
        [
            ("power_aware", "3d", "static", 1),
            ("tsc_aware", "3d", "static", 1),
            # a second round sweeps the pattern accepted from a spectral score
            ("tsc_aware", "3d", "static", 2),
            ("tsc_aware", "2.5d", "dvfs", 1),
        ],
        ids=[
            "power_aware-3d-static",
            "tsc_aware-3d-static",
            "tsc_aware-3d-static-2rounds",
            "tsc_aware-2.5d-dvfs",
        ],
    )
    def test_superlu_and_auto_records_agree(
        self, monkeypatch, pin_backend, mode, topology, mitigation_mode, max_rounds
    ):
        from repro.benchmarks import load
        from repro.core.config import FlowConfig
        from repro.core.flow import run_flow
        from repro.floorplan import objectives
        from repro.floorplan.annealer import AnnealConfig
        from repro.mitigation.dummy_tsv import MitigationConfig
        from repro.thermal import steady_state
        from repro.thermal.stack import TopologyConfig

        circuit, stack = load("n100")
        config = FlowConfig(
            mode=mode,
            anneal=AnnealConfig(iterations=60, seed=0, calibration_samples=4),
            topology=TopologyConfig(topology),
            mitigation=MitigationConfig(
                mode=mitigation_mode, samples=20, max_rounds=max_rounds,
                grid_nx=20, grid_ny=20, dvfs_traces=2,
            ),
            verify_nx=24,
            verify_ny=24,
        )

        def record(backend):
            factored = pin_backend(backend)
            # cold process caches, so neither run reuses the other's solvers
            monkeypatch.setattr(steady_state, "_DEFAULT_CACHE", SolverCache())
            monkeypatch.setattr(objectives, "_CALIBRATED_MODELS", {})
            outcome = run_flow(circuit, stack, config)
            doc = outcome.metrics.to_dict()
            doc.pop("runtime_s")
            doc.pop("degradations", None)
            return doc, set(factored), outcome.mitigation

        auto, auto_backends, auto_mit = record(None)
        direct, direct_backends, direct_mit = record(SUPERLU)
        assert "spectral" in auto_backends  # verification took spectral
        assert "superlu" not in auto_backends
        assert direct_backends == {"superlu"}
        assert auto.keys() == direct.keys()
        for key, value in auto.items():
            if isinstance(value, float):
                assert value == pytest.approx(direct[key], rel=1e-9, abs=0.0), key
            else:
                assert value == direct[key], key
        if mode != "tsc_aware" or mitigation_mode != "static":
            return
        if max_rounds > 1:
            assert direct_mit.rounds == max_rounds  # a round was accepted
        assert auto_mit.rounds == direct_mit.rounds
        assert auto_mit.inserted == direct_mit.inserted
        positions = [
            [(t.x, t.y) for t in mit.floorplan.thermal_tsvs]
            for mit in (auto_mit, direct_mit)
        ]
        assert positions[0] == positions[1]
        for key in ("correlation_trace", "final_correlations"):
            assert getattr(auto_mit, key) == pytest.approx(
                getattr(direct_mit, key), rel=1e-9, abs=0.0
            ), key


@pytest.mark.parametrize("num_dies", [2, 3])
class TestCompiledBackendOracle:
    """The band backend's factorization, solved directly and as a
    Woodbury base, against the oracles."""

    def _oracle_pair(self, num_dies, **stack_kwargs):
        cfg, grid, stack = _stack(num_dies=num_dies, tsv=True, **stack_kwargs)
        oracle = SteadyStateSolver(stack, backend=SUPERLU)
        native = SteadyStateSolver(stack, backend=BAND)
        assert isinstance(oracle.factorization, SuperLUFactorization)
        return grid, stack, oracle, native

    def test_fresh_factorization_matches_oracle(self, num_dies):
        grid, _, oracle, native = self._oracle_pair(num_dies)
        assert isinstance(native.factorization, BandCholeskyFactorization)
        sets = _power_sets(grid, num_dies)
        want = oracle.solve(sets[0])
        got = native.solve(sets[0])
        np.testing.assert_allclose(got.nodal, want.nodal, rtol=ORACLE_RTOL)
        for a, b in zip(native.solve_many(sets), oracle.solve_many(sets)):
            np.testing.assert_allclose(a.nodal, b.nodal, rtol=ORACLE_RTOL)

    def test_woodbury_rides_compiled_base(self, num_dies):
        cfg = StackConfig.square(2000.0, num_dies=num_dies)
        grid = GridSpec(cfg.outline, 12, 12)
        base_stack = build_stack(cfg, grid)
        density = np.zeros(grid.shape)
        density[3:5, 4:7] = 0.5
        pert_stack = build_stack(cfg, grid, tsv_density={(0, 1): density})
        sets = _power_sets(grid, num_dies)

        base = SteadyStateSolver(base_stack, backend=BAND)
        wood = WoodburySolver(base, pert_stack)
        assert wood.is_low_rank, wood.fallback_reason
        oracle = SteadyStateSolver(pert_stack, backend=SUPERLU)
        for a, b in zip(wood.solve_many(sets), oracle.solve_many(sets)):
            np.testing.assert_allclose(a.nodal, b.nodal, rtol=1e-8)


class TestSpectralOracle:
    def test_small_size_matches_direct_to_stated_tolerance(self):
        cfg, grid, stack = _stack(grid_n=16, side=2000.0, tsv=True)
        direct = SteadyStateSolver(stack, backend=SUPERLU)
        spectral = SteadyStateSolver(stack, backend=SPECTRAL)
        fact = spectral.factorization
        assert isinstance(fact, SpectralFactorization)
        assert not fact.supports_woodbury_base
        sets = _power_sets(grid, 2)
        for a, b in zip(spectral.solve_many(sets), direct.solve_many(sets)):
            np.testing.assert_allclose(a.nodal, b.nodal, rtol=1e-9)
        # iterative answer: the true residual meets the stated tolerance
        q = spectral.network.power_vector(list(sets[0])) + (
            spectral.network.boundary * stack.ambient
        )
        x = fact.solve(q)
        resid = np.linalg.norm(spectral.network.conductance @ x - q)
        assert resid <= SPECTRAL_TOLERANCE * np.linalg.norm(q) * 10

    @pytest.mark.parametrize("topology", ["3d", "2.5d"])
    @pytest.mark.parametrize("ny,nx", [(17, 33), (25, 25)])
    def test_odd_and_non_square_grids_match_superlu(self, ny, nx, topology):
        cfg = StackConfig.square(2000.0, num_dies=2)
        grid = GridSpec(cfg.outline, nx, ny)
        rng = np.random.default_rng(ny * nx)
        density = np.where(rng.random(grid.shape) < 0.15, 0.6, 0.0)
        stack = build_stack(
            cfg, grid, tsv_density={(0, 1): density},
            topology=TopologyConfig(topology),
        )
        network = assemble(stack)
        direct = SteadyStateSolver(stack, network=network, backend=SUPERLU)
        spectral = SteadyStateSolver(stack, network=network, backend=SPECTRAL)
        assert spectral.factorization.homogenized.grid_shape == network.grid_shape
        sets = _power_sets(grid, 2, count=2, seed=ny)
        for a, b in zip(spectral.solve_many(sets), direct.solve_many(sets)):
            rise = b.nodal - stack.ambient
            err = np.abs(a.nodal - b.nodal).max()
            assert err <= 1e-9 * np.abs(rise).max()

    def test_three_die_128_grid_converges(self):
        """The acceptance-size solve: 3 dies at 128x128 (N≈230k), where
        a direct factorization takes tens of seconds.  TSVs on both
        interfaces keep the stack laterally patterned, so the
        preconditioner is not exact and PCG has to iterate."""
        cfg = StackConfig.square(4000.0, num_dies=3)
        grid = GridSpec(cfg.outline, 128, 128)
        rng = np.random.default_rng(3)
        density = {
            pair: np.where(rng.random(grid.shape) < 0.1, 0.5, 0.0)
            for pair in cfg.die_pairs()
        }
        stack = build_stack(cfg, grid, tsv_density=density)
        solver = SteadyStateSolver(stack, backend=SPECTRAL)
        pm = [rng.random(grid.shape) * 0.01 for _ in range(3)]
        result = solver.solve(pm)
        fact = solver.factorization
        assert 2 < fact.last_iterations < spectral_module._PCG_MAXITER
        q = solver.network.power_vector(pm) + (
            solver.network.boundary * stack.ambient
        )
        resid = np.linalg.norm(solver.network.conductance @ result.nodal - q)
        # the true residual of any float answer bottoms out near
        # eps * |G| |T| (~2e-10 of |q| here), above the PCG target
        assert resid <= 1e-9 * np.linalg.norm(q)
        assert result.peak > stack.ambient

    def test_non_convergence_is_a_counted_degradation(self, monkeypatch):
        monkeypatch.setattr(spectral_module, "_PCG_MAXITER", 1)
        _, grid, stack = _stack(grid_n=16, side=2000.0, tsv=True)
        network = assemble(stack)
        fact = SpectralFactorization(network.conductance, network.grid_shape)
        q = network.power_vector(_power_sets(grid, 2)[0]) + (
            network.boundary * stack.ambient
        )
        before = faults.snapshot_degradations()
        with pytest.warns(DegradationWarning, match="spectral.no_convergence"):
            x = fact.solve(q)
        assert faults.degradations_since(before) == {"spectral.no_convergence": 1}
        assert fact.last_iterations == 1
        assert np.all(np.isfinite(x))
        resid = np.linalg.norm(network.conductance @ x - q)
        assert SPECTRAL_TOLERANCE * np.linalg.norm(q) < resid < np.linalg.norm(q)

    def test_auto_selects_spectral_past_threshold(self):
        cfg = StackConfig.square(4000.0)
        grid = GridSpec(cfg.outline, 80, 80)  # 6400 > 4096 cells/layer
        assert resolve_backend(cells_per_layer=grid.nx * grid.ny).name == (
            "spectral"
        )

    def test_woodbury_refuses_spectral_base_and_stays_correct(self):
        cfg = StackConfig.square(2000.0)
        grid = GridSpec(cfg.outline, 16, 16)
        base_stack = build_stack(cfg, grid)
        density = np.zeros(grid.shape)
        density[4:6, 5:8] = 0.5
        pert = build_stack(cfg, grid, tsv_density={(0, 1): density})
        base = SteadyStateSolver(base_stack, backend=SPECTRAL)
        before = faults.snapshot_degradations()
        wood = WoodburySolver(base, pert)
        assert wood.fallback_reason == "unsupported-base"
        assert (
            faults.degradations_since(before)[
                "woodbury.fallback.unsupported-base"
            ]
            == 1
        )
        pm = _power_sets(grid, 2)[0]
        oracle = SteadyStateSolver(pert, backend=SUPERLU)
        got = wood.solve(pm)
        # fallback factorizes fresh on the base's backend (spectral)
        assert wood.rebase().backend is SPECTRAL
        np.testing.assert_allclose(
            got.nodal, oracle.solve(pm).nodal, rtol=1e-9
        )

    def test_factor_guards(self):
        _, grid, stack = _stack(grid_n=8)
        solver = SteadyStateSolver(stack)  # just for the matrix
        G = solver.network.conductance
        with pytest.raises(ValueError, match="grid_shape"):
            SPECTRAL.factor(G)


class TestZLineSmoother:
    """The spectral preconditioner smooths along z exactly on stacks
    with TSVs, and leaves TSV-free systems as they were."""

    @staticmethod
    def _tsv_stack(topology, n=32):
        cfg = StackConfig.square(2000.0, num_dies=2)
        grid = GridSpec(cfg.outline, n, n)
        rng = np.random.default_rng(5)
        density = np.where(rng.random(grid.shape) < 0.1, 0.5, 0.0)
        return grid, build_stack(
            cfg, grid, tsv_density={(0, 1): density}, topology=TopologyConfig(topology)
        )

    @pytest.mark.parametrize(
        "topology, n, plain_floor", [("3d", 32, 30), ("2.5d", 24, 100)]
    )
    def test_iteration_ceiling_on_tsv_stacks(self, topology, n, plain_floor):
        grid, stack = self._tsv_stack(topology, n)
        network = assemble(stack)
        hints = network.factor_hints()
        assert hints.has_tsvs
        smoothed = SPECTRAL.factor(network.conductance, hints=hints)
        plain = SpectralFactorization(network.conductance, network.grid_shape)
        pm = _power_sets(grid, 2, count=1)[0]
        q = network.power_vector(pm) + network.boundary * stack.ambient
        got, want = smoothed.solve(q), plain.solve(q)
        assert smoothed.last_iterations <= 20
        assert plain.last_iterations > plain_floor
        rise = want - stack.ambient
        assert np.abs(got - want).max() <= 1e-9 * np.abs(rise).max()

    @pytest.mark.parametrize("topology", ["3d", "2.5d"])
    def test_tsv_free_systems_keep_their_bytes(self, topology):
        """No density, or an all-zero one, is TSV-free: the spectral
        backend then solves exactly as the plain preconditioner does."""
        cfg = StackConfig.square(2000.0, num_dies=2)
        grid = GridSpec(cfg.outline, 16, 16)
        for density in (None, {(0, 1): np.zeros(grid.shape)}):
            stack = build_stack(
                cfg, grid, tsv_density=density, topology=TopologyConfig(topology)
            )
            network = assemble(stack)
            assert not network.factor_hints().has_tsvs
            fact = SPECTRAL.factor(network.conductance, hints=network.factor_hints())
            plain = SpectralFactorization(network.conductance, network.grid_shape)
            q = network.power_vector(_power_sets(grid, 2, count=1)[0])
            assert fact.solve(q).tobytes() == plain.solve(q).tobytes()


class TestWoodburyCrossoverHint:
    def test_explicit_crossover_still_wins(self):
        cfg = StackConfig.square(2000.0)
        grid = GridSpec(cfg.outline, 16, 16)
        density = np.zeros(grid.shape)
        density[4:6, 5:7] = 0.5
        pert = build_stack(cfg, grid, tsv_density={(0, 1): density})
        base = SteadyStateSolver(build_stack(cfg, grid))
        assert WoodburySolver(base, pert).crossover_rank == (
            woodbury_crossover_rank(base.network.num_nodes)
        )
        wood = WoodburySolver(base, pert, crossover_rank=7)
        assert wood.crossover_rank == 7


class TestCacheBackendKeySpace:
    def test_backend_in_key_separates_entries(self, pin_backend):
        cfg, grid, _ = _stack(grid_n=8)
        cache = SolverCache(maxsize=4)
        a = cache.solver(cfg, grid)
        pin_backend(SPECTRAL)
        b = cache.solver(cfg, grid)
        assert a is not b and b.backend is SPECTRAL
        assert cache.misses == 2 and len(cache) == 2
        pin_backend(None)
        assert cache.solver(cfg, grid) is a
        assert cache.hits == 1


class TestTransientBackend:
    def test_spectral_backend_matches_default(self):
        _, grid, stack = _stack(grid_n=16, side=2000.0)
        pm = [np.full(grid.shape, 0.002) for _ in range(2)]

        def power_at(_t):
            return pm

        ref = TransientSolver(stack).run(power_at, duration=0.2, dt=0.05)
        alt = TransientSolver(stack, backend=SPECTRAL).run(
            power_at, duration=0.2, dt=0.05
        )
        np.testing.assert_allclose(
            alt.die_means, ref.die_means, rtol=1e-9
        )
        np.testing.assert_allclose(alt.die_temps, ref.die_temps, rtol=1e-9)

    def test_backend_attribute_resolves(self):
        _, grid, stack = _stack(grid_n=8)
        solver = TransientSolver(stack, backend=SPECTRAL)
        assert solver.backend.name == "spectral"
