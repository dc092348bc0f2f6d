"""The factorization-backend layer: selection policy, cross-backend
oracles, and the capability queries that replaced type sniffing in the
solver layer.

Two backends remain: superlu (direct) and spectral (iterative).  The
superlu default (symmetric-mode ``splu``) is validated against the
historical equilibrated-COLAMD ``splu``, which survives here only as an
oracle.  Spectral is held to its stated iterative tolerance.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

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
from repro.thermal.backends.spectral import (
    SPECTRAL_TOLERANCE,
    SpectralBackend,
    SpectralFactorization,
)
from repro.thermal.backends.superlu import (
    SYMMETRIC_SPLU_KWARGS,
    NativeSuperLUFactorization,
    SuperLUBackend,
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

#: direct backends must match the superlu oracle to this relative error
ORACLE_RTOL = 1e-10

SUPERLU = SuperLUBackend()
SPECTRAL = SpectralBackend()


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
        with pytest.raises(TypeError, match="FactorizationBackend instance"):
            resolve_backend("superlu")

    @pytest.mark.parametrize("name", ["cholmod", "compiled_triangular", "multigrid"])
    def test_removed_backends_are_unknown(self, name, monkeypatch):
        """Neither an argument nor the environment variable that once
        chose a backend by name reaches the rule."""
        with pytest.raises(TypeError, match="FactorizationBackend instance"):
            resolve_backend(name)
        for token in (name, "spectral"):
            monkeypatch.setenv("REPRO_THERMAL_BACKEND", token)
            assert resolve_backend().name == "superlu"
            big = resolve_backend(cells_per_layer=SPECTRAL_THRESHOLD + 1)
            assert big.name == "spectral"

    def test_explicit_instance_is_trusted(self):
        assert resolve_backend(SPECTRAL) is SPECTRAL

    def test_auto_prefers_spectral_above_threshold(self):
        for cells in (64, SPECTRAL_THRESHOLD):
            assert resolve_backend(cells_per_layer=cells).name == "superlu"
        big = resolve_backend(cells_per_layer=SPECTRAL_THRESHOLD + 1)
        assert big.name == "spectral"

    def test_threshold_is_a_fixed_64x64_layer(self):
        assert SPECTRAL_THRESHOLD == 64 * 64
        assert resolve_backend(cells_per_layer=101).name == "superlu"


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
            assert self._auto(n, None) == "superlu"
        assert self._auto(65, None) == "spectral"

    @pytest.mark.parametrize("budget", [1, 2])
    def test_few_rhs_take_spectral_past_16x16(self, budget):
        for n in (12, 16):
            assert self._auto(n, budget) == "superlu"
        for n in (17, 20, 24, 32, 48, 64, 65):
            assert self._auto(n, budget) == "spectral"

    def test_budget_above_crossover_keeps_superlu(self):
        assert self._auto(32, FEW_RHS_CROSSOVER) == "spectral"
        assert self._auto(32, FEW_RHS_CROSSOVER + 1) == "superlu"
        assert self._auto(32, 40) == "superlu"  # a mitigation candidate sweep
        assert self._auto(65, 40) == "spectral"  # the size rule still rules

    def test_explicit_request_wins(self):
        hints = FactorHints(grid_shape=(4, 32, 32), rhs_budget=1)
        assert resolve_backend(hints=hints).name == "spectral"
        assert resolve_backend(SUPERLU, hints=hints) is SUPERLU

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
        assert many.backend.name == "superlu"
        assert cache.misses == 2 and cache.hits == 1


class TestSuperLUBitCompatibility:
    def test_default_backend_is_the_old_solver_exactly(self):
        """The superlu backend is symmetric-mode ``splu``, bit for bit."""
        cfg, grid, stack = _stack()
        solver = SteadyStateSolver(stack, backend=SUPERLU)
        lu = spla.splu(
            solver.network.conductance.tocsc(), **SYMMETRIC_SPLU_KWARGS
        )
        sets = _power_sets(grid, 2)
        got = solver.solve(sets[0])
        q = solver.network.power_vector(list(sets[0])) + (
            solver.network.boundary * stack.ambient
        )
        assert np.array_equal(got.nodal, lu.solve(q))


class _HistoricalSuperLU(SuperLUBackend):
    """The historical default: equilibrated-COLAMD ``splu``."""

    def factor(self, matrix, *, hints=None):
        return NativeSuperLUFactorization(spla.splu(matrix.tocsc()))


class TestHistoricalSuperLUOracle:
    """The symmetric-mode default against the equilibrated-COLAMD
    factorization it replaced."""

    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_steady_solve_matches(self, num_dies):
        _, grid, stack = _stack(num_dies=num_dies, tsv=True)
        new = SteadyStateSolver(stack, backend=SUPERLU)
        old = SteadyStateSolver(stack, backend=_HistoricalSuperLU())
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

        new = TransientSolver(stack, backend=SUPERLU).run(
            power_at, duration=0.2, dt=0.05
        )
        old = TransientSolver(stack, backend=_HistoricalSuperLU()).run(
            power_at, duration=0.2, dt=0.05
        )
        np.testing.assert_allclose(new.die_means, old.die_means, rtol=ORACLE_RTOL)
        np.testing.assert_allclose(new.die_peaks, old.die_peaks, rtol=ORACLE_RTOL)

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
        monkeypatch.setattr(SuperLUBackend, "factor", _HistoricalSuperLU.factor)
        old = record()
        assert new.keys() == old.keys()
        for key, value in new.items():
            if isinstance(value, float):
                assert value == pytest.approx(old[key], rel=1e-9, abs=0.0), key
            else:
                assert value == old[key], key


class TestFewRHSRecordTolerance:
    """The stated tolerance of the few-RHS rule: a flow record with the
    rule pinned to superlu and under the rule (verification, the
    DVFS equilibrium and the dummy-TSV candidates through spectral)
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
    """The superlu backend's factorization, solved directly and as a
    Woodbury base, against the oracles."""

    def _oracle_pair(self, num_dies, **stack_kwargs):
        cfg, grid, stack = _stack(num_dies=num_dies, tsv=True, **stack_kwargs)
        oracle = SteadyStateSolver(stack, backend=_HistoricalSuperLU())
        native = SteadyStateSolver(stack, backend=SUPERLU)
        return grid, stack, oracle, native

    def test_fresh_factorization_matches_oracle(self, num_dies):
        grid, _, oracle, native = self._oracle_pair(num_dies)
        assert isinstance(native.factorization, NativeSuperLUFactorization)
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

        base = SteadyStateSolver(base_stack, backend=SUPERLU)
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
        assert 2 < fact.last_iterations < fact.maxiter
        q = solver.network.power_vector(pm) + (
            solver.network.boundary * stack.ambient
        )
        resid = np.linalg.norm(solver.network.conductance @ result.nodal - q)
        # the true residual of any float answer bottoms out near
        # eps * |G| |T| (~2e-10 of |q| here), above the PCG target
        assert resid <= 1e-9 * np.linalg.norm(q)
        assert result.peak > stack.ambient

    def test_non_convergence_is_a_counted_degradation(self):
        _, grid, stack = _stack(grid_n=16, side=2000.0, tsv=True)
        network = assemble(stack)
        fact = SpectralFactorization(
            network.conductance, network.grid_shape, maxiter=1
        )
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
        np.testing.assert_allclose(alt.die_peaks, ref.die_peaks, rtol=1e-9)

    def test_backend_attribute_resolves(self):
        _, grid, stack = _stack(grid_n=8)
        solver = TransientSolver(stack, backend=SPECTRAL)
        assert solver.backend.name == "spectral"
