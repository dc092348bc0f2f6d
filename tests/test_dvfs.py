"""Runtime DVFS mitigation: determinism, leakage reduction, wire schema.

The governor's contract is *byte*-identical scores for one seed
regardless of trace count and process boundary, scores equal to forward
integration of every trace (``oracles.transient``) within 1e-10, plus
the physical claim that pseudo-random frequency hopping decorrelates the
temperature trace from the secret activity sequence.
"""

import json
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.parallel import usable_cores
from repro.layout.die import StackConfig
from repro.layout.floorplan import Floorplan3D
from repro.layout.grid import GridSpec
from repro.layout.module import Module, Placement
from repro.mitigation import MITIGATION_MODES, MitigationConfig, evaluate_dvfs
from repro.mitigation.dvfs import SCALES, _report
from repro.thermal.backends.band import BandCholeskyBackend
from repro.thermal.backends.base import FactorizationBackend
from repro.thermal.backends.spectral import SpectralBackend
from repro.thermal.stack import TopologyConfig, stack_for_floorplan
from repro.thermal.steady_state import SteadyStateSolver
from repro.thermal.transient import TransientSolver

from oracles.superlu import SuperLUBackend
from oracles.transient import die_mean_kernels_serial, evaluate_dvfs_forward


def _floorplan(num_dies=2, bg2_die=0):
    """tx and bg1 on die 0, rx on die 1, bg2 on ``bg2_die``."""
    mods = {
        "tx": Module("tx", 300, 300, power=2.0),
        "bg1": Module("bg1", 300, 300, power=0.3),
        "bg2": Module("bg2", 300, 300, power=0.3),
        "rx": Module("rx", 400, 400, power=0.4),
    }
    placements = {
        "tx": Placement(mods["tx"], 100, 100, die=0),
        "bg1": Placement(mods["bg1"], 600, 600, die=0),
        "bg2": Placement(mods["bg2"], 100, 600, die=bg2_die),
        "rx": Placement(mods["rx"], 100, 100, die=1),
    }
    return Floorplan3D(StackConfig.square(1000.0, num_dies=num_dies), placements)


@pytest.fixture(scope="module")
def floorplan():
    return _floorplan()


#: adjoint scores vs. the forward oracle; both read rises over the
#: operating point, and at the governor's 24x4 schedule they agree within
#: 3.5e-13 (3-die interposer; 2.1e-15 on the 2-die 3D stack)
ORACLE_ATOL = 1e-10


#: a small-but-real evaluation: the governor's full schedule on a grid
#: small enough that the whole module runs in seconds
SMALL = dict(mode="dvfs", grid_nx=12, grid_ny=12, dvfs_traces=3, seed=7)


def _fingerprint(report):
    """Every byte the report derives scores from."""
    return (
        report.baseline_correlations.tobytes(),
        report.mitigated_correlations.tobytes(),
    )


def _evaluate_in_subprocess(kind):
    """Module-level so ProcessPoolExecutor can pickle it."""
    mods = {
        "tx": Module("tx", 300, 300, power=2.0),
        "bg1": Module("bg1", 300, 300, power=0.3),
        "bg2": Module("bg2", 300, 300, power=0.3),
        "rx": Module("rx", 400, 400, power=0.4),
    }
    placements = {
        "tx": Placement(mods["tx"], 100, 100, die=0),
        "bg1": Placement(mods["bg1"], 600, 600, die=0),
        "bg2": Placement(mods["bg2"], 100, 600, die=0),
        "rx": Placement(mods["rx"], 100, 100, die=1),
    }
    fp = Floorplan3D(StackConfig.square(1000.0), placements)
    topology = TopologyConfig(kind=kind) if kind != "3d" else None
    report = evaluate_dvfs(fp, MitigationConfig(**SMALL), topology=topology)
    return _fingerprint(report)


class TestSchedule:
    def test_scales_span(self):
        assert SCALES[0] == 0.6 and SCALES[-1] == 1.0
        assert np.all(np.diff(SCALES) > 0)
        assert not SCALES.flags.writeable


class TestDeterminism:
    @pytest.mark.parametrize("num_dies", [2, 3])
    @pytest.mark.parametrize("kind", ["3d", "2.5d"])
    def test_adjoint_matches_forward_oracle(self, kind, num_dies):
        """Response kernels give the scores forward integration of every
        trace gives: the per-trace r of both arms."""
        fp = _floorplan(num_dies, bg2_die=num_dies - 1)
        config = MitigationConfig(**SMALL)
        topo = TopologyConfig(kind=kind) if kind != "3d" else None
        adjoint = evaluate_dvfs(fp, config, topology=topo)
        forward = evaluate_dvfs_forward(fp, config, topology=topo)
        assert adjoint.baseline_correlations.shape == (3, num_dies)
        for field in ("baseline_correlations", "mitigated_correlations"):
            np.testing.assert_allclose(
                getattr(adjoint, field), getattr(forward, field),
                rtol=0.0, atol=ORACLE_ATOL, err_msg=field,
            )

    @pytest.mark.parametrize("kind", ["3d", "2.5d"])
    def test_forward_oracle_batched_equals_solo_bytewise(self, floorplan, kind):
        """The oracle's own guard: column-exact batched integration and
        per-trace ``run`` are byte-identical."""
        config = MitigationConfig(**SMALL)
        topo = TopologyConfig(kind=kind) if kind != "3d" else None
        batched = evaluate_dvfs_forward(floorplan, config, topology=topo)
        solo = evaluate_dvfs_forward(
            floorplan, config, topology=topo, batched=False
        )
        assert _fingerprint(batched) == _fingerprint(solo)

    def test_trace_streams_independent_of_trace_count(self, floorplan):
        """Per-trace RNG spawns by trace index, so the first k traces of a
        larger evaluation are byte-identical to a smaller one — scores
        cannot depend on how a sweep batches its traces."""
        small = evaluate_dvfs(
            floorplan, MitigationConfig(**dict(SMALL, dvfs_traces=2))
        )
        large = evaluate_dvfs(
            floorplan, MitigationConfig(**dict(SMALL, dvfs_traces=3))
        )
        assert (
            small.baseline_correlations.tobytes()
            == large.baseline_correlations[:2].tobytes()
        )
        assert (
            small.mitigated_correlations.tobytes()
            == large.mitigated_correlations[:2].tobytes()
        )

    @pytest.mark.parametrize("kind", ["3d", "2.5d"])
    def test_identical_across_process_boundaries(self, kind):
        """Two worker processes and the parent all produce the same bytes
        — the cross-process half of the determinism contract."""
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(_evaluate_in_subprocess, [kind, kind]))
        assert results[0] == results[1]
        assert results[0] == _evaluate_in_subprocess(kind)


#: the backends a test pins by name (its parameter id): both of the
#: package's, and the SuperLU oracle as an independent direct solve
BACKENDS = {
    "band": BandCholeskyBackend(),
    "spectral": SpectralBackend(),
    "superlu": SuperLUBackend(),
}


def _transient_solver(num_dies, kind, n=12, backend=None):
    fp = _floorplan(num_dies, bg2_die=num_dies - 1)
    grid = GridSpec(fp.stack.outline, n, n)
    topo = TopologyConfig(kind=kind) if kind != "3d" else None
    return TransientSolver(
        stack_for_floorplan(fp, grid, topo),
        backend=None if backend is None else BACKENDS[backend],
    )


class TestKernelThreads:
    """``die_mean_kernels`` runs every die's Lanczos process in turn on
    the calling thread; calls on one solver from several threads at
    once (a service's thread pool) each give the bytes of a lone call."""

    @pytest.mark.parametrize("num_dies", [2, 3])
    @pytest.mark.parametrize("kind", ["3d", "2.5d"])
    @pytest.mark.parametrize("cores", [None, 1, 2, 3])
    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_threaded_equals_serial_recursion_bytewise(
        self, kind, num_dies, cores, backend
    ):
        """``cores`` threads (this host's usable cores for ``None``)
        compute the kernels at once from one solver and its shared
        factorization; each result equals the serial call's bytes."""
        solver = _transient_solver(num_dies, kind, backend=backend)
        assert solver.backend.name == backend
        want = solver.die_mean_kernels(2e-3, 9)
        threads = cores or usable_cores()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = [pool.submit(solver.die_mean_kernels, 2e-3, 9) for _ in range(threads)]
            got = [run.result() for run in runs]
        for kernels in got:
            assert kernels.shape == (9, num_dies, solver._die_nodes.shape[1], num_dies)
            assert kernels.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "kind, n, dt, steps",
        [
            ("3d", 12, 2e-3, 9),
            ("2.5d", 12, 2e-3, 9),
            ("3d", 12, 2e-3, 96),
            ("2.5d", 12, 2e-3, 96),
            ("2.5d", 12, 5e-4, 96),
            ("3d", 12, 2e-2, 96),
            ("2.5d", 12, 2e-3, 384),
            # more steps than nodes: the Krylov space runs out first
            ("3d", 1, 2e-3, 16),
            ("3d", 2, 2e-3, 64),
            ("2.5d", 2, 2e-3, 128),
        ],
    )
    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_matches_exact_recursion(self, kind, n, dt, steps, backend):
        """The Lanczos model reproduces every step of the one-solve-per-step
        adjoint recursion within 1e-10 of the kernels' largest entry, the
        adjoint-vs-forward tolerance of the scores."""
        solver = _transient_solver(3, kind, n=n, backend=backend)
        got = solver.die_mean_kernels(dt, steps)
        want = die_mean_kernels_serial(solver, dt, steps)
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_stops_before_the_horizon(self, monkeypatch):
        """The point of the model: a 96-step horizon costs far fewer than
        96 solves per die, and a longer horizon only a few more."""
        solver = _transient_solver(2, "3d")
        lu = solver._factorize(2e-3)
        solves, original = [], lu.solve

        def solve(b):
            solves.append(b.shape[1])
            return original(b)

        monkeypatch.setattr(lu, "solve", solve)
        solver.die_mean_kernels(2e-3, 96)
        short = len(solves)
        solver.die_mean_kernels(2e-3, 384)
        assert short < 2 * 48
        assert len(solves) - short < 2 * short

    def test_dies_run_in_turn_on_the_calling_thread(self):
        """Every solve is one column, made on the calling thread: each
        die's process runs to its end before the next die's starts."""
        solver = _transient_solver(3, "3d")
        lu = solver._factorize(2e-3)
        widths, idents, readouts = [], set(), []
        original = lu.solve

        def solve(b):
            widths.append(b.shape[1])
            idents.add(threading.get_ident())
            readouts.append(np.count_nonzero(b) == solver._die_nodes.shape[1])
            return original(b)

        lu.solve = solve
        solver.die_mean_kernels(2e-3, 4)
        assert set(widths) == {1} and len(widths) == 3 * 4
        assert idents == {threading.get_ident()}
        # each die starts from its readout column, then 3 Lanczos solves
        assert [i for i, start in enumerate(readouts) if start] == [0, 4, 8]

    def test_chain_error_reaches_the_caller(self, monkeypatch):
        solver = _transient_solver(2, "3d")
        lu = solver._factorize(2e-3)

        def broken(b):
            raise FloatingPointError("singular step")

        monkeypatch.setattr(lu, "solve", broken)
        with pytest.raises(FloatingPointError, match="singular step"):
            solver.die_mean_kernels(2e-3, 3)


class TestNoEquilibrium:
    def test_builds_no_steady_state_solver(self, floorplan, monkeypatch):
        """The arms' operating points cancel out of every score, so no
        steady-state system is built; one step matrix is factorized."""

        def forbidden(self, *args, **kwargs):
            raise AssertionError("evaluate_dvfs built a steady-state solver")

        monkeypatch.setattr(SteadyStateSolver, "__init__", forbidden)
        factored = []
        for cls in _backend_classes():
            original = cls.factor

            def factor(self, *args, _original=original, **kwargs):
                factored.append(type(self).name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "factor", factor)
        for kind in ("3d", "2.5d"):
            topo = TopologyConfig(kind=kind) if kind != "3d" else None
            evaluate_dvfs(floorplan, MitigationConfig(**SMALL), topology=topo)
        assert len(factored) == 2

    def test_scores_ignore_per_arm_die_offsets(self):
        """A constant added per (arm, die) to the temperatures — the
        operating point the evaluator no longer solves for — moves no
        score by more than 1e-12."""
        rng = np.random.default_rng(11)
        traces, windows, dies = 4, 12, 3
        power = rng.random((traces, windows, dies))
        base = rng.normal(0.0, 0.05, (traces, windows, dies))
        gov = rng.normal(0.0, 0.05, (traces, windows, dies))
        rises = _report(power, base, gov)
        offset = _report(
            power,
            base + 300.0 + rng.random(dies) * 40.0,
            gov + 300.0 + rng.random(dies) * 40.0,
        )
        for field in ("baseline_correlations", "mitigated_correlations"):
            np.testing.assert_allclose(
                getattr(offset, field), getattr(rises, field),
                rtol=0.0, atol=1e-12, err_msg=field,
            )

    def test_wrapped_calls_stay_on_the_calling_thread(self, floorplan, monkeypatch):
        """Every factorization, steady solve, transient run and kernel
        happens on the calling thread, where a single-threaded span
        stack can time it."""
        calls = []
        caller = threading.get_ident()

        def spy(cls, name):
            original = getattr(cls, name)

            def wrapped(*args, **kwargs):
                calls.append((f"{cls.__name__}.{name}", threading.get_ident()))
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapped)

        for cls in _backend_classes():
            spy(cls, "factor")
        for name in ("solve", "solve_many"):
            spy(SteadyStateSolver, name)
        for name in ("run", "run_many", "die_mean_kernels"):
            spy(TransientSolver, name)
        for kind in ("3d", "2.5d"):
            topo = TopologyConfig(kind=kind) if kind != "3d" else None
            evaluate_dvfs(
                _floorplan(3, bg2_die=2), MitigationConfig(**SMALL), topology=topo
            )
        assert {name for name, _ in calls} >= {"TransientSolver.die_mean_kernels"}
        assert any(name.endswith(".factor") for name, _ in calls)
        assert all(ident == caller for _, ident in calls), calls


def _backend_classes():
    """Every concrete factorization backend class."""
    found, todo = [], [FactorizationBackend]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "factor" in cls.__dict__ and not getattr(
            cls.__dict__["factor"], "__isabstractmethod__", False
        ):
            found.append(cls)
    return found


class TestMitigationEffect:
    def test_governor_reduces_leakage_3d(self, floorplan):
        config = MitigationConfig(
            mode="dvfs", grid_nx=12, grid_ny=12, dvfs_traces=4, seed=0
        )
        report = evaluate_dvfs(floorplan, config)
        assert report.baseline_score > 0.3  # the attack works undefended
        assert report.mitigated_score < report.baseline_score
        assert report.reduction > 0.15

    def test_governor_reduces_leakage_interposer(self, floorplan):
        config = MitigationConfig(
            mode="dvfs", grid_nx=12, grid_ny=12, dvfs_traces=4, seed=0
        )
        report = evaluate_dvfs(
            floorplan, config, topology=TopologyConfig(kind="2.5d")
        )
        assert report.baseline_score > 0.3
        assert report.reduction > 0.15

    def test_report_scores_are_means(self, floorplan):
        report = evaluate_dvfs(floorplan, MitigationConfig(**SMALL))
        assert report.baseline_score == pytest.approx(
            float(np.mean(np.abs(report.baseline_correlations)))
        )
        assert report.traces == SMALL["dvfs_traces"]
        assert report.baseline_correlations.shape == (3, 2)


class TestModeSchema:
    def test_modes_registry(self):
        assert MITIGATION_MODES == ("static", "dvfs", "combined")

    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(
            ValueError,
            match="unknown mitigation mode 'jitter'; expected one of "
                  "static, dvfs, combined",
        ):
            MitigationConfig(mode="jitter")

    def test_unknown_mode_rejected_at_wire_boundary(self):
        """The wire document (``JobSpec.from_json``) raises the *same*
        ValueError as construction — the wire boundary can never admit a
        mode the constructor rejects."""
        from repro.api import JobSpec

        doc = JobSpec(benchmark="n100", mode="tsc_aware", mitigation_mode="dvfs").to_json()
        with pytest.raises(
            ValueError,
            match="unknown mitigation mode 'jitter'; expected one of "
                  "static, dvfs, combined",
        ):
            JobSpec.from_json(dict(doc, mitigation_mode="jitter"))

    def test_unknown_keys_tolerated(self):
        """A document carrying topology and mitigation settings plus a
        field from a newer revision loads with a warning."""
        from repro.api import JobSpec
        from repro.core.schema import SchemaWarning

        spec = JobSpec(benchmark="n100", mode="tsc_aware", topology="2.5d",
                       mitigation_mode="dvfs")
        doc = dict(spec.to_json(), future_knob=1)
        with pytest.warns(SchemaWarning, match="future_knob"):
            assert JobSpec.from_json(doc) == spec


class TestSweepVocabulary:
    """topology/mitigation_mode through JobSpec."""

    def test_batch_job_validates_fields(self):
        from repro.api import JobSpec

        with pytest.raises(ValueError, match="unknown topology kind"):
            JobSpec(benchmark="n100", topology="4d")
        with pytest.raises(ValueError, match="unknown mitigation mode"):
            JobSpec(benchmark="n100", mitigation_mode="jitter")

    def test_default_key_unchanged(self):
        """Legacy sweeps resume: default topology/mode add no key text."""
        from repro.api import JobSpec

        key = JobSpec(benchmark="n100", seed=0).key()
        assert "top" not in key and "mit" not in key
        tsc = JobSpec(benchmark="n100", mode="tsc_aware", seed=0).key()
        sweep = JobSpec(
            benchmark="n100", mode="tsc_aware", seed=0, topology="2.5d",
            mitigation_mode="dvfs",
        ).key()
        assert sweep == tsc + "|top2.5d|mitdvfs"

    def test_jobspec_roundtrip_carries_new_fields(self):
        from repro.api import JobSpec

        spec = JobSpec(
            benchmark="n100", mode="tsc_aware", topology="2.5d", mitigation_mode="combined"
        )
        clone = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert clone == spec
        assert clone.key().endswith("|top2.5d|mitcombined")

    def test_jobspec_rejects_bad_fields_at_wire_boundary(self):
        from repro.api import JobSpec

        doc = JobSpec(benchmark="n100").to_json()
        with pytest.raises(ValueError, match="unknown topology kind"):
            JobSpec.from_json(dict(doc, topology="4d"))
        with pytest.raises(ValueError, match="unknown mitigation mode"):
            JobSpec.from_json(dict(doc, mitigation_mode="jitter"))

    @pytest.mark.parametrize("mitigation_mode", ["dvfs", "combined"])
    def test_runtime_mitigation_needs_tsc_mode(self, mitigation_mode):
        """Only the TSC flow runs mitigation: a power-aware job with a
        governor would record a mode it never ran, so every entry point
        refuses it."""
        from repro.api import JobSpec
        from repro.core.config import FlowConfig

        with pytest.raises(ValueError, match="needs mode 'tsc_aware'"):
            JobSpec(benchmark="n100", mitigation_mode=mitigation_mode)
        with pytest.raises(ValueError, match="needs mode 'tsc_aware'"):
            FlowConfig(mitigation=MitigationConfig(mode=mitigation_mode))
        spec = JobSpec(benchmark="n100", mode="tsc_aware", mitigation_mode=mitigation_mode)
        assert spec.to_flow_config().mitigation.mode == mitigation_mode
        with pytest.raises(ValueError, match="needs mode 'tsc_aware'"):
            JobSpec.from_json(dict(spec.to_json(), mode="power_aware"))
