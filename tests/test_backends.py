"""The factorization-backend layer: selection policy, cross-backend
oracles, persistence format v2, and the capability queries that replaced
type sniffing in the solver layer.

Every backend is validated against the default superlu backend
(symmetric-mode ``splu``): direct backends to 1e-10 relative, multigrid
to its stated iterative tolerance.  The historical equilibrated-COLAMD
``splu`` default survives here only, as an oracle for the default.  cholmod's
*native* path needs scikit-sparse (skipped when absent — CI's optional
leg covers it); its persisted-factor path is dependency-free and is
exercised here with synthesized Cholesky payloads.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.core import faults
from repro.core.faults import DegradationWarning, injected
from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.thermal.backends import (
    BACKEND_NAMES,
    BackendUnavailable,
    get_backend,
    multigrid_threshold,
    resolve_backend,
)
from repro.thermal.backends.cholmod import (
    PersistedCholeskyFactorization,
    sksparse_available,
)
from repro.thermal.backends.compiled import numba_available
from repro.thermal.backends.multigrid import (
    MULTIGRID_TOLERANCE,
    MultigridFactorization,
)
from repro.thermal.backends.superlu import (
    SYMMETRIC_SPLU_KWARGS,
    NativeSuperLUFactorization,
    PersistedSuperLUFactorization,
    SuperLUBackend,
)
from repro.thermal.stack import build_stack, normalize_tsv_densities
from repro.thermal.steady_state import (
    SolverCache,
    SteadyStateSolver,
    WoodburySolver,
    woodbury_crossover_rank,
)
from repro.thermal.transient import TransientSolver

#: direct backends must match the superlu oracle to this relative error
ORACLE_RTOL = 1e-10


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
    def test_registry_names(self):
        assert BACKEND_NAMES == (
            "superlu", "cholmod", "compiled_triangular", "multigrid"
        )
        for name in BACKEND_NAMES:
            assert get_backend(name) is get_backend(name)  # singletons

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError, match="unknown thermal backend"):
            get_backend("pardiso")
        with pytest.raises(ValueError, match="unknown thermal backend"):
            resolve_backend("pardiso")

    def test_explicit_instance_is_trusted(self):
        mg = get_backend("multigrid")
        assert resolve_backend(mg) is mg

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_THERMAL_BACKEND", "compiled_triangular")
        assert resolve_backend().name == "compiled_triangular"
        monkeypatch.setenv("REPRO_THERMAL_BACKEND", "AUTO")
        assert resolve_backend().name in ("superlu", "cholmod")

    def test_auto_prefers_multigrid_above_threshold(self):
        small = resolve_backend(cells_per_layer=multigrid_threshold())
        assert small.name != "multigrid"
        big = resolve_backend(cells_per_layer=multigrid_threshold() + 1)
        assert big.name == "multigrid"

    def test_threshold_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MULTIGRID_THRESHOLD", "100")
        assert multigrid_threshold() == 100
        assert resolve_backend(cells_per_layer=101).name == "multigrid"
        monkeypatch.setenv("REPRO_MULTIGRID_THRESHOLD", "lots")
        with pytest.raises(ValueError, match="REPRO_MULTIGRID_THRESHOLD"):
            multigrid_threshold()

    def test_auto_never_picks_compiled(self):
        # compiled_triangular only pays off for persisted-factor solves,
        # so engaging it must stay an explicit decision
        for cells in (64, 4096):
            assert resolve_backend(cells_per_layer=cells).name in (
                "superlu", "cholmod"
            )

    def test_unavailable_request_degrades_to_superlu(self):
        before = faults.snapshot_degradations()
        with injected("backend.cholmod.unavailable=fail"):
            with pytest.warns(DegradationWarning, match="backend.fallback.cholmod"):
                chosen = resolve_backend("cholmod")
        assert chosen.name == "superlu"
        assert faults.degradations_since(before)["backend.fallback.cholmod"] == 1

    def test_forced_unavailable_multigrid_falls_back(self):
        with injected("backend.multigrid.unavailable=fail"):
            # auto at a multigrid-sized grid quietly takes the next tier
            auto = resolve_backend(cells_per_layer=multigrid_threshold() + 1)
            assert auto.name in ("superlu", "cholmod")
            with pytest.warns(DegradationWarning):
                explicit = resolve_backend("multigrid")
            assert explicit.name == "superlu"


class TestSuperLUBitCompatibility:
    def test_default_backend_is_the_old_solver_exactly(self):
        """The superlu backend is symmetric-mode ``splu``, bit for bit."""
        cfg, grid, stack = _stack()
        solver = SteadyStateSolver(stack, backend="superlu")
        lu = spla.splu(
            solver.network.conductance.tocsc(), **SYMMETRIC_SPLU_KWARGS
        )
        sets = _power_sets(grid, 2)
        got = solver.solve(sets[0])
        q = solver.network.power_vector(list(sets[0])) + (
            solver.network.boundary * stack.ambient
        )
        assert np.array_equal(got.nodal, lu.solve(q))

    def test_lu_alias_still_solves(self):
        _, grid, stack = _stack()
        solver = SteadyStateSolver(stack)
        e = np.zeros(solver.network.num_nodes)
        e[7] = 1.0
        np.testing.assert_allclose(
            solver._lu.solve(e), solver.factorization.solve(e), rtol=0
        )


class _HistoricalSuperLU(SuperLUBackend):
    """The historical default: equilibrated-COLAMD ``splu``."""

    def factor(self, matrix, *, reconstructable=False, hints=None):
        return NativeSuperLUFactorization(spla.splu(matrix.tocsc()))


class TestHistoricalSuperLUOracle:
    """The symmetric-mode default against the equilibrated-COLAMD
    factorization it replaced."""

    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_steady_solve_matches(self, num_dies):
        _, grid, stack = _stack(num_dies=num_dies, tsv=True)
        new = SteadyStateSolver(stack, backend="superlu")
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

        new = TransientSolver(stack, backend="superlu").run(
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


@pytest.mark.parametrize("num_dies", [2, 3])
class TestCompiledBackendOracle:
    def _oracle_pair(self, num_dies, **stack_kwargs):
        cfg, grid, stack = _stack(num_dies=num_dies, tsv=True, **stack_kwargs)
        oracle = SteadyStateSolver(stack, backend="superlu")
        compiled = SteadyStateSolver(stack, backend="compiled_triangular")
        return grid, stack, oracle, compiled

    def test_fresh_factorization_matches_oracle(self, num_dies):
        grid, _, oracle, compiled = self._oracle_pair(num_dies)
        assert compiled.factorization.backend_name == "compiled_triangular"
        assert not compiled.factorization.is_persisted
        sets = _power_sets(grid, num_dies)
        want = oracle.solve(sets[0])
        got = compiled.solve(sets[0])
        np.testing.assert_allclose(got.nodal, want.nodal, rtol=ORACLE_RTOL)
        for a, b in zip(compiled.solve_many(sets), oracle.solve_many(sets)):
            np.testing.assert_allclose(a.nodal, b.nodal, rtol=ORACLE_RTOL)

    def test_persisted_roundtrip_matches_oracle(self, num_dies):
        grid, stack, oracle, compiled = self._oracle_pair(num_dies)
        backend = get_backend("compiled_triangular")
        payload = backend.payload_from(compiled.factorization)
        fact = backend.factorization_from_payload(payload)
        assert fact.is_persisted
        rebuilt = SteadyStateSolver(stack, lu=fact)
        assert rebuilt.backend.name == "compiled_triangular"
        sets = _power_sets(grid, num_dies)
        for a, b in zip(rebuilt.solve_many(sets), oracle.solve_many(sets)):
            np.testing.assert_allclose(a.nodal, b.nodal, rtol=ORACLE_RTOL)

    def test_woodbury_rides_compiled_base(self, num_dies):
        cfg = StackConfig.square(2000.0, num_dies=num_dies)
        grid = GridSpec(cfg.outline, 12, 12)
        base_stack = build_stack(cfg, grid)
        density = np.zeros(grid.shape)
        density[3:5, 4:7] = 0.5
        pert_stack = build_stack(cfg, grid, tsv_density={(0, 1): density})
        sets = _power_sets(grid, num_dies)

        base = SteadyStateSolver(base_stack, backend="compiled_triangular")
        wood = WoodburySolver(base, pert_stack)
        assert wood.is_low_rank, wood.fallback_reason
        oracle = SteadyStateSolver(pert_stack, backend="superlu")
        for a, b in zip(wood.solve_many(sets), oracle.solve_many(sets)):
            np.testing.assert_allclose(a.nodal, b.nodal, rtol=1e-8)


class TestCompiledKernels:
    def test_wrapped_kernel_matches_spsolve_triangular(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_KERNEL", "wrapped")
        _, grid, stack = _stack(grid_n=8)
        compiled = SteadyStateSolver(stack, backend="compiled_triangular")
        backend = get_backend("compiled_triangular")
        fact = backend.factorization_from_payload(
            backend.payload_from(compiled.factorization)
        )
        assert fact.kernel_name == "wrapped"
        # the slow oracle for the same factors
        slow = PersistedSuperLUFactorization(
            fact._L, fact._U, fact._perm_r, fact._perm_c
        )
        rng = np.random.default_rng(3)
        b = rng.random((fact._L.shape[0], 4))
        np.testing.assert_allclose(
            fact.solve(b), slow.solve(b.copy()), rtol=1e-11
        )
        one = rng.random(fact._L.shape[0])
        np.testing.assert_allclose(
            fact.solve(one), slow.solve(one.copy()), rtol=1e-11
        )

    def test_forced_numba_without_numba_degrades(self, monkeypatch):
        if numba_available():  # pragma: no cover - container has no numba
            pytest.skip("numba present; the degrade path cannot fire")
        monkeypatch.setenv("REPRO_COMPILED_KERNEL", "numba")
        before = faults.snapshot_degradations()
        _, grid, stack = _stack(grid_n=8)
        backend = get_backend("compiled_triangular")
        compiled = SteadyStateSolver(stack, backend=backend)
        with pytest.warns(DegradationWarning, match="kernel_fallback"):
            fact = backend.factorization_from_payload(
                backend.payload_from(compiled.factorization)
            )
        assert fact.kernel_name == "wrapped"
        assert (
            faults.degradations_since(before)["backend.compiled.kernel_fallback"]
            == 1
        )

    def test_bad_kernel_choice_is_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_KERNEL", "fortran")
        from repro.thermal.backends.compiled import pick_kernel_name

        with pytest.raises(ValueError, match="REPRO_COMPILED_KERNEL"):
            pick_kernel_name()


def _synth_cholesky(conductance):
    """A (permuted) Cholesky factor computed without scikit-sparse.

    Dense is fine at test sizes; the permutation is deliberately
    non-trivial so the ``x[p] = L⁻ᵀ L⁻¹ b[p]`` convention is exercised.
    """
    import scipy.sparse as sp

    n = conductance.shape[0]
    perm = np.random.default_rng(5).permutation(n)
    dense = conductance.toarray()[np.ix_(perm, perm)]
    L = np.linalg.cholesky(dense)
    L[np.abs(L) < 1e-14] = 0.0
    return sp.csc_matrix(L), perm


class TestPersistedCholesky:
    """The cholmod persisted path is dependency-free: rebuilt factors
    solve through the compiled substitution kernels, so the container
    (which has no scikit-sparse) still covers it end to end."""

    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_synthesized_factor_matches_oracle(self, num_dies):
        _, grid, stack = _stack(num_dies=num_dies, grid_n=8, tsv=True)
        oracle = SteadyStateSolver(stack, backend="superlu")
        L, perm = _synth_cholesky(oracle.network.conductance)
        fact = PersistedCholeskyFactorization(L, perm)
        assert fact.is_persisted and fact.needs_self_check
        solver = SteadyStateSolver(stack, lu=fact)
        assert solver.backend.name == "cholmod"
        sets = _power_sets(grid, num_dies)
        for a, b in zip(solver.solve_many(sets), oracle.solve_many(sets)):
            np.testing.assert_allclose(a.nodal, b.nodal, rtol=ORACLE_RTOL)

    def test_payload_roundtrip(self):
        _, grid, stack = _stack(grid_n=8)
        oracle = SteadyStateSolver(stack, backend="superlu")
        L, perm = _synth_cholesky(oracle.network.conductance)
        backend = get_backend("cholmod")
        payload = backend.payload_from(PersistedCholeskyFactorization(L, perm))
        assert str(payload["kind"]) == "cholesky"
        assert backend.accepts_payload(payload)
        assert not get_backend("superlu").accepts_payload(payload)
        fact = backend.factorization_from_payload(payload)
        b = np.random.default_rng(1).random(L.shape[0])
        np.testing.assert_allclose(
            fact.solve(b), oracle.factorization.solve(b), rtol=ORACLE_RTOL
        )

    def test_self_check_rejects_wrong_factors(self):
        from repro.thermal.steady_state import _self_check_ok

        _, grid, stack = _stack(grid_n=8)
        solver = SteadyStateSolver(stack, backend="superlu")
        L, perm = _synth_cholesky(solver.network.conductance)
        good = PersistedCholeskyFactorization(L, perm)
        assert _self_check_ok(good, solver.network)
        bad = PersistedCholeskyFactorization(L * 1.5, perm)
        with pytest.warns(DegradationWarning, match="self_check_failed"):
            assert not _self_check_ok(bad, solver.network)

    def test_native_cholmod_matches_oracle(self):
        if not sksparse_available():
            pytest.skip("scikit-sparse not installed (optional CI leg)")
        _, grid, stack = _stack(num_dies=3, tsv=True)
        oracle = SteadyStateSolver(stack, backend="superlu")
        solver = SteadyStateSolver(stack, backend="cholmod")
        assert solver.factorization.backend_name == "cholmod"
        assert not solver.factorization.is_persisted
        sets = _power_sets(grid, 3)
        for a, b in zip(solver.solve_many(sets), oracle.solve_many(sets)):
            np.testing.assert_allclose(a.nodal, b.nodal, rtol=ORACLE_RTOL)
        assert solver.factorization.supports_woodbury_base


class TestMultigridOracle:
    def test_small_size_matches_direct_to_stated_tolerance(self):
        cfg, grid, stack = _stack(grid_n=16, side=2000.0, tsv=True)
        direct = SteadyStateSolver(stack, backend="superlu")
        mg = SteadyStateSolver(stack, backend="multigrid")
        fact = mg.factorization
        assert isinstance(fact, MultigridFactorization)
        assert not fact.supports_woodbury_base and not fact.is_persisted
        sets = _power_sets(grid, 2)
        for a, b in zip(mg.solve_many(sets), direct.solve_many(sets)):
            # iterative answer: verify the true residual meets the
            # stated tolerance, and the temperatures track the oracle
            q = mg.network.power_vector(list(sets[0]))  # shape check only
            np.testing.assert_allclose(a.nodal, b.nodal, rtol=1e-7)
        q = mg.network.power_vector(list(sets[0])) + (
            mg.network.boundary * stack.ambient
        )
        x = fact.solve(q)
        resid = np.linalg.norm(mg.network.conductance @ x - q)
        assert resid <= MULTIGRID_TOLERANCE * np.linalg.norm(q) * 10

    def test_three_die_128_grid_converges(self):
        """The acceptance-size solve: 3 dies at 128x128 (N≈230k), where
        a direct factorization takes tens of seconds."""
        cfg = StackConfig.square(4000.0, num_dies=3)
        grid = GridSpec(cfg.outline, 128, 128)
        stack = build_stack(cfg, grid)
        solver = SteadyStateSolver(stack, backend="multigrid")
        rng = np.random.default_rng(2)
        pm = [rng.random(grid.shape) * 0.01 for _ in range(3)]
        result = solver.solve(pm)
        fact = solver.factorization
        assert fact.last_iterations < fact.maxiter
        q = solver.network.power_vector(pm) + (
            solver.network.boundary * stack.ambient
        )
        resid = np.linalg.norm(solver.network.conductance @ result.nodal - q)
        assert resid <= MULTIGRID_TOLERANCE * np.linalg.norm(q) * 10
        assert result.peak > stack.ambient

    def test_auto_selects_multigrid_past_threshold(self):
        cfg = StackConfig.square(4000.0)
        grid = GridSpec(cfg.outline, 80, 80)  # 6400 > 4096 cells/layer
        assert resolve_backend(cells_per_layer=grid.nx * grid.ny).name == (
            "multigrid"
        )

    def test_woodbury_refuses_multigrid_base_and_stays_correct(self):
        cfg = StackConfig.square(2000.0)
        grid = GridSpec(cfg.outline, 16, 16)
        base_stack = build_stack(cfg, grid)
        density = np.zeros(grid.shape)
        density[4:6, 5:8] = 0.5
        pert = build_stack(cfg, grid, tsv_density={(0, 1): density})
        base = SteadyStateSolver(base_stack, backend="multigrid")
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
        oracle = SteadyStateSolver(pert, backend="superlu")
        got = wood.solve(pm)
        # fallback factorizes fresh on the base's backend (multigrid)
        np.testing.assert_allclose(
            got.nodal, oracle.solve(pm).nodal, rtol=1e-7
        )

    def test_factor_guards(self):
        backend = get_backend("multigrid")
        _, grid, stack = _stack(grid_n=8)
        solver = SteadyStateSolver(stack)  # just for the matrix
        G = solver.network.conductance
        with pytest.raises(BackendUnavailable, match="grid_shape"):
            backend.factor(G)
        with pytest.raises(BackendUnavailable, match="persist"):
            backend.factor(
                G, reconstructable=True, hints=solver.network.factor_hints()
            )


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
    def test_backend_in_key_separates_entries(self):
        cfg, grid, _ = _stack(grid_n=8)
        cache = SolverCache(maxsize=4)
        a = cache.solver(cfg, grid)
        cache.backend = "compiled_triangular"
        b = cache.solver(cfg, grid)
        assert a is not b
        assert cache.misses == 2 and len(cache) == 2
        cache.backend = None
        assert cache.solver(cfg, grid) is a
        assert cache.hits == 1

    def test_legacy_v1_files_migrate_in_place(self, tmp_path):
        """A disk cache written by the pre-backend revision is adopted:
        the v1 ``lu-*.npz`` file is upgraded to ``fact-*.npz`` and its
        factors are reused (no refactorization)."""
        import scipy.sparse.linalg as spla

        cfg, grid, stack = _stack(grid_n=8)
        cache = SolverCache(disk_dir=tmp_path, backend="superlu")
        densities = normalize_tsv_densities(cfg, grid, None)
        key = cache._key(cfg, grid, densities, {}, "superlu")
        legacy_path = tmp_path / f"lu-{cache._digest_key(key[:-1])}.npz"

        # write the file exactly as the old _save_lu did
        from repro.thermal.steady_state import _conductance_digest

        solver = SteadyStateSolver(stack, reconstructable=True)
        lu = solver.factorization._lu
        L, U = lu.L.tocsc(), lu.U.tocsc()
        np.savez(
            legacy_path.with_suffix(""),
            L_data=L.data, L_indices=L.indices, L_indptr=L.indptr,
            U_data=U.data, U_indices=U.indices, U_indptr=U.indptr,
            perm_r=lu.perm_r, perm_c=lu.perm_c,
            shape=np.asarray(L.shape, dtype=np.int64),
            conductance_digest=np.array(
                _conductance_digest(solver.network.conductance)
            ),
        )
        assert legacy_path.exists()

        loaded = cache.solver(cfg, grid)
        assert cache.disk_hits == 1
        assert loaded.factorization.is_persisted
        assert not legacy_path.exists()  # upgraded in place
        new_files = list(tmp_path.glob("fact-*.npz"))
        assert len(new_files) == 1
        with np.load(new_files[0]) as z:
            assert int(z["format"]) == 2
            assert str(z["kind"]) == "lu"

        pm = _power_sets(grid, 2)[0]
        native = spla.splu(solver.network.conductance.tocsc())
        q = solver.network.power_vector(list(pm)) + (
            solver.network.boundary * stack.ambient
        )
        np.testing.assert_allclose(
            loaded.solve(pm).nodal, native.solve(q), rtol=1e-9
        )

    def test_compiled_backend_disk_roundtrip(self, tmp_path):
        cfg, grid, stack = _stack(grid_n=8)
        warm = SolverCache(disk_dir=tmp_path, backend="compiled_triangular")
        warm_solver = warm.solver(cfg, grid)
        assert not warm_solver.factorization.is_persisted
        cold = SolverCache(disk_dir=tmp_path, backend="compiled_triangular")
        loaded = cold.solver(cfg, grid)
        assert cold.disk_hits == 1
        assert loaded.factorization.backend_name == "compiled_triangular"
        assert loaded.factorization.is_persisted
        pm = _power_sets(grid, 2)[0]
        np.testing.assert_allclose(
            loaded.solve(pm).nodal, warm_solver.solve(pm).nodal,
            rtol=ORACLE_RTOL,
        )

    def test_non_persistable_backend_skips_disk(self, tmp_path):
        cfg = StackConfig.square(2000.0)
        grid = GridSpec(cfg.outline, 16, 16)
        cache = SolverCache(disk_dir=tmp_path, backend="multigrid")
        solver = cache.solver(cfg, grid)
        assert solver.backend.name == "multigrid"
        assert not list(tmp_path.iterdir())  # no files, no crash
        assert cache.disk_hits == 0


class TestDropPersistedCapability:
    """The eviction policy reads ``is_persisted``, not factor types —
    the regression the old type sniff would have caused: a cholmod-backed
    native entry evicted as if it were a disk-loaded LU."""

    def _entry(self, fact):
        _, grid, stack = _stack(grid_n=8)
        cache = SolverCache()
        solver = SteadyStateSolver(stack, lu=fact)
        cache._entries[("probe", fact.backend_name)] = solver
        return cache

    def test_native_cholesky_style_entry_survives(self):
        class NativeCholeskyStub:
            backend_name = "cholmod"
            is_persisted = False
            supports_woodbury_base = True

            def solve(self, b):  # pragma: no cover - never called here
                return b

            def solve_many(self, b):  # pragma: no cover
                return b

        cache = self._entry(NativeCholeskyStub())
        assert cache.drop_persisted_solvers() == 0
        assert len(cache) == 1

    def test_persisted_cholesky_entry_is_evicted(self):
        _, grid, stack = _stack(grid_n=8)
        probe = SteadyStateSolver(stack, backend="superlu")
        L, perm = _synth_cholesky(probe.network.conductance)
        cache = self._entry(PersistedCholeskyFactorization(L, perm))
        assert cache.drop_persisted_solvers() == 1
        assert len(cache) == 0

    def test_persisted_superlu_entry_is_still_evicted(self, tmp_path):
        cfg, grid, _ = _stack(grid_n=8)
        SolverCache(disk_dir=tmp_path).solver(cfg, grid)
        cache = SolverCache(disk_dir=tmp_path)
        cache.solver(cfg, grid)
        assert cache.drop_persisted_solvers() == 1


class TestTransientBackend:
    def test_compiled_backend_matches_default(self):
        _, grid, stack = _stack(grid_n=8)
        pm = [np.full(grid.shape, 0.002) for _ in range(2)]

        def power_at(_t):
            return pm

        ref = TransientSolver(stack).run(power_at, duration=0.2, dt=0.05)
        alt = TransientSolver(stack, backend="compiled_triangular").run(
            power_at, duration=0.2, dt=0.05
        )
        np.testing.assert_allclose(
            alt.die_means, ref.die_means, rtol=1e-9
        )
        np.testing.assert_allclose(alt.die_peaks, ref.die_peaks, rtol=1e-9)

    def test_backend_attribute_resolves(self):
        _, grid, stack = _stack(grid_n=8)
        solver = TransientSolver(stack, backend="compiled_triangular")
        assert solver.backend.name == "compiled_triangular"
