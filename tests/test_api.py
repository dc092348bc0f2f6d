"""Tests for the versioned schema layer and the repro.api facade."""

import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import (
    JobResult,
    JobSpec,
    queue_status,
    run_flow_job,
    submit,
)
from repro.core import schema
from repro.core.config import FlowConfig
from repro.core.flow import run_flow
from repro.core.results import FlowMetrics
from repro.core.schema import SchemaWarning
from repro.core.store import ResultsStore
from repro.floorplan.annealer import AnnealConfig
from repro.floorplan.objectives import FloorplanMode
from repro.mitigation.dummy_tsv import MitigationConfig
from repro.thermal.stack import TopologyConfig

SPEC = dict(benchmark="n100", iterations=25, grid=12)


def test_version_matches_pyproject():
    # a regex, not tomllib: Python 3.10 has no TOML parser in the stdlib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert repro.__version__ == match.group(1)


class TestSchemaRoundTrip:
    @pytest.mark.parametrize("cls,kwargs", [
        (JobResult, dict(job_id="a1", key="n100|k", status="failed", error="boom")),
        (JobResult, dict(job_id="b2", key="n100|k", reused=True, solver_cache={"hits": 3})),
        (JobSpec, dict(benchmark="n100", seed=4, replicas=2)),
        (JobSpec, dict(benchmark="n300", mode="tsc_aware", grid=16)),
    ])
    def test_dataclass_roundtrip(self, cls, kwargs):
        obj = cls(**kwargs)
        doc = obj.to_json()
        assert doc["schema_version"] == schema.SCHEMA_VERSION
        assert cls.from_json(json.loads(json.dumps(doc))) == obj

    def test_unknown_keys_warn_and_are_ignored(self):
        doc = dict(JobSpec(**SPEC).to_json(), future_field=1, other=2)
        with pytest.warns(SchemaWarning, match="future_field, other"):
            spec = JobSpec.from_json(doc)
        assert spec == JobSpec(**SPEC)

    def test_newer_schema_version_warns_but_loads(self):
        doc = dict(JobSpec(**SPEC).to_json(), schema_version=99)
        with pytest.warns(SchemaWarning, match="newer"):
            assert JobSpec.from_json(doc) == JobSpec(**SPEC)

    def test_bad_values_raise_post_init_valueerrors(self):
        base = JobSpec(**SPEC).to_json()
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            JobSpec.from_json(dict(base, iterations=0))
        with pytest.raises(ValueError, match="mode must be"):
            JobSpec.from_json(dict(base, mode="thermal_oblivious"))
        with pytest.raises(ValueError, match="unknown benchmark"):
            JobSpec.from_json(dict(base, benchmark="n9999"))
        with pytest.raises(ValueError):
            JobSpec.from_json(dict(base, iterations="many"))
        with pytest.raises(ValueError, match="grid must be >= 2"):
            JobSpec.from_json(dict(base, grid=1))

    @pytest.mark.parametrize("field, value, config", [
        ("mode", "bogus", lambda: FlowConfig(mode="bogus")),
        ("iterations", 0, lambda: FlowConfig(anneal=AnnealConfig(iterations=0))),
        ("replicas", 0, lambda: FlowConfig(replicas=0)),
        ("exchange_every", 0, lambda: FlowConfig(exchange_every=0)),
        ("topology", "4d", lambda: FlowConfig(topology=TopologyConfig(kind="4d"))),
        ("mitigation_mode", "bogus",
         lambda: FlowConfig(mitigation=MitigationConfig(mode="bogus"))),
        ("mitigation_mode", "dvfs",
         lambda: FlowConfig(mitigation=MitigationConfig(mode="dvfs"))),
    ])
    def test_spec_and_config_reject_a_field_alike(self, field, value, config):
        """One invalid field reads the same from the spec, over the wire
        and from the flow config the spec maps to."""
        with pytest.raises(ValueError) as from_config:
            config()
        message = str(from_config.value)
        with pytest.raises(ValueError) as from_spec:
            JobSpec(**dict(SPEC, **{field: value}))
        assert str(from_spec.value) == message
        with pytest.raises(ValueError) as from_wire:
            JobSpec.from_json(dict(JobSpec(**SPEC).to_json(), **{field: value}))
        assert str(from_wire.value) == message

    def test_scalar_coercion_over_the_wire(self):
        doc = dict(JobSpec(**SPEC).to_json(), iterations="1500", seed=2.0)
        spec = JobSpec.from_json(doc)
        assert spec.iterations == 1500 and spec.seed == 2
        with pytest.raises(ValueError):
            JobSpec.from_json(dict(doc, seed=2.5))
        with pytest.raises(ValueError):
            JobSpec.from_json(dict(doc, seed=True))

    def test_legacy_asdict_payload_still_loads(self):
        from dataclasses import asdict

        spec = JobSpec(benchmark="n100", iterations=99)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no version stamp is not a warning
            assert JobSpec.from_json(asdict(spec)) == spec

    def test_non_object_document_rejected(self):
        with pytest.raises(ValueError, match="expected a JSON object"):
            JobSpec.from_json("n100")

    @settings(max_examples=30, deadline=None)
    @given(
        benchmark=st.sampled_from(["n100", "n200", "n300"]),
        mode=st.sampled_from(["power_aware", "tsc_aware"]),
        seed=st.integers(0, 10_000),
        iterations=st.integers(1, 100_000),
        grid=st.integers(2, 128),
        num_dies=st.integers(2, 4),
        replicas=st.integers(1, 8),
        exchange_every=st.integers(1, 500),
    )
    def test_jobspec_roundtrip_property(self, **kwargs):
        spec = JobSpec(**kwargs)
        wire = json.loads(json.dumps(spec.to_json()))
        assert JobSpec.from_json(wire) == spec
        assert JobSpec.from_json(wire).key() == spec.key()


#: queue payloads as revisions before the single job type wrote them:
#: ``run_batch`` enqueued the unstamped ``asdict`` form, ``submit`` the
#: stamped ``to_json`` form
_PRE_MERGE_PAYLOAD = {
    "benchmark": "n100", "mode": "power_aware", "seed": 0, "iterations": 25,
    "grid": 12, "num_dies": 2, "replicas": 1, "exchange_every": 50,
    "topology": "3d", "mitigation_mode": "static",
}


#: per-field relative tolerance between band and spectral records of
#: one spec: the verified temperatures and correlations come from the
#: backend's solves (PCG to a 1e-12 residual; measured <=5.7e-11 on flow
#: records); the annealed layout, its voltages, wirelength, timing and
#: power maps do not touch a backend and must agree exactly
_BACKEND_RTOL = {
    "spatial_entropy_s1": 0.0,
    "spatial_entropy_s2": 0.0,
    "power_w": 0.0,
    "critical_delay_ns": 0.0,
    "wirelength_m": 0.0,
    "correlation_r1": 1e-9,
    "correlation_r2": 1e-9,
    "peak_temp_k": 1e-9,
    # the DVFS scores read response kernels built from the backend's
    # solves; measured <=1.8e-13 on the 2.5D DVFS spec, seeds 0-3
    "dvfs_baseline_r": 1e-10,
    "dvfs_mitigated_r": 1e-10,
}


def _frozen(metrics):
    """A record minus the fields that depend on wall clock and cache
    warmth; everything else is deterministic per job."""
    return replace(metrics, runtime_s=0.0, degradations={})


class TestCalibrationReuse:
    """The fast thermal model is built once per (stack, grid) per
    process; every later flow on that stack reuses it."""

    @pytest.fixture
    def calibrations(self, monkeypatch):
        from repro.floorplan import objectives

        calls = []
        build = objectives.FastThermalModel

        def counting(*args, **kwargs):
            calls.append(args[1])
            return build(*args, **kwargs)

        monkeypatch.setattr(objectives, "_CALIBRATED_MODELS", {})
        monkeypatch.setattr(objectives, "FastThermalModel", counting)
        return calls

    def test_memo_per_stack_and_grid(self, calibrations):
        from repro.floorplan.objectives import calibrated_thermal_model
        from repro.layout.die import StackConfig
        from repro.layout.grid import GridSpec

        stack = StackConfig.square(1000.0)
        grid = GridSpec(stack.outline, 8, 8)
        model = calibrated_thermal_model(stack, grid)
        assert calibrated_thermal_model(stack, grid) is model
        assert calibrations == [grid]
        other = GridSpec(stack.outline, 10, 10)
        assert calibrated_thermal_model(stack, other) is not model
        assert calibrations == [grid, other]

    def test_concurrent_cold_calibrations_fit_once(self, calibrations):
        """Service jobs run flows on executor threads: concurrent cold
        lookups of one key build once and share the model."""
        import sys
        import threading

        from repro.floorplan.objectives import calibrated_thermal_model
        from repro.layout.die import StackConfig
        from repro.layout.grid import GridSpec

        stack = StackConfig.square(1000.0)
        grid = GridSpec(stack.outline, 8, 8)
        start = threading.Barrier(4)
        models = []

        def worker():
            start.wait(timeout=30)
            models.append(calibrated_thermal_model(stack, grid))

        threads = [threading.Thread(target=worker, daemon=True) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert calibrations == [grid]
        assert len(models) == 4 and all(m is models[0] for m in models)

    def test_cold_calibration_leaves_default_cache_alone(self, calibrations):
        """The model solves outside the process-wide solver cache: it
        gains no entry and counts no lookup."""
        from repro.floorplan.objectives import calibrated_thermal_model
        from repro.layout.die import StackConfig
        from repro.layout.grid import GridSpec
        from repro.thermal.steady_state import default_solver_cache

        cache = default_solver_cache()
        before = (len(cache), cache.hits, cache.misses)
        stack = StackConfig.square(1000.0)
        calibrated_thermal_model(stack, GridSpec(stack.outline, 9, 9))
        assert calibrations
        assert (len(cache), cache.hits, cache.misses) == before

    def test_serial_batch_calibrates_once(self, calibrations):
        from repro.exploration.study import run_batch

        specs = [JobSpec("n100", seed=seed, iterations=25, grid=12)
                 for seed in (0, 1)]
        assert len(run_batch(specs, processes=1)) == 2
        assert len(calibrations) == 1
        with pytest.raises(TypeError, match="cache_dir"):
            run_batch(specs, processes=1, cache_dir="unused")


class TestJobSpec:
    def test_key_matches_batch_job(self):
        # the exact key the former batch job type wrote to results stores,
        # so a sweep store from before the merge still resumes
        spec = JobSpec("n100", mode="tsc_aware", seed=3, replicas=2)
        assert spec.key() == "n100|tsc_aware|seed3|it1500|grid32|dies2|rep2x50"
        assert JobSpec.from_json(_PRE_MERGE_PAYLOAD).key() == (
            "n100|power_aware|seed0|it25|grid12|dies2"
        )
        assert spec.job_id() != JobSpec("n100", seed=4).job_id()

    def test_flow_config_matches_batch_executor(self):
        cfg = JobSpec("n100", iterations=77, seed=5, grid=16).to_flow_config()
        assert cfg.anneal.iterations == 77
        assert cfg.anneal.seed == 5
        assert cfg.verify_nx == cfg.verify_ny == 16

    def test_record_is_path_invariant(self, tmp_path, monkeypatch, pin_backend):
        """One spec, four frontends: in-process, the serial ``run_batch``
        queue drain, ``submit`` + a ``work`` queue worker, and an HTTP job
        on the in-process service.  The record is identical across them
        with the backend rule pinned to each backend, and across the two backends
        every integer and boolean field is equal and every float field
        within its stated relative tolerance (:data:`_BACKEND_RTOL`).

        The {batched, serial} axis: in-process again with
        ``SteadyStateSolver.solve_many`` replaced by one ``solve`` per
        column.  Measured: the record is equal exactly, every field, on
        all three specs under both backends (the activity sweep's maps
        only rank bins for dummy TSVs; the recorded correlations come
        from the one verify solve), so it is held to equality too."""
        from test_service import service_test

        from repro.core.parallel import IN_POOL_ENV
        from repro.core.queue import WorkQueue
        from repro.exploration.study import batch_worker_main, run_batch
        from repro.thermal.backends.band import BandCholeskyBackend
        from repro.thermal.backends.spectral import SpectralBackend
        from repro.thermal.steady_state import SteadyStateSolver

        swept = []

        def serial_solve_many(self, power_map_sets):
            sets = list(power_map_sets)
            swept.append(len(sets))
            return [self.solve(s) for s in sets]

        def record(metrics):
            doc = metrics.to_dict()
            return {k: v for k, v in doc.items() if k not in ("runtime_s", "degradations")}

        def over_http(spec):
            docs = []

            async def scenario(state, client):
                status, doc = await client.post("/jobs?wait=1", spec.to_json())
                assert status == 200 and doc["status"] == "completed"
                docs.append(doc["result"]["metrics"])

            service_test(scenario)(dict(workers=1))
            return FlowMetrics.from_dict(docs[0])

        specs = [
            JobSpec("n100", mode=mode, iterations=25, grid=12)
            for mode in (FloorplanMode.POWER_AWARE, FloorplanMode.TSC_AWARE)
        ]
        specs.append(
            JobSpec(
                "n100", mode=FloorplanMode.TSC_AWARE, topology="2.5d",
                mitigation_mode="dvfs", iterations=25, grid=12,
            )
        )
        records = {}
        for backend in (BandCholeskyBackend(), SpectralBackend()):
            factored = pin_backend(backend)
            for i, spec in enumerate(specs):
                # the worker marks this process as a pool worker (undone
                # after the test); the in-process leg runs outside one
                monkeypatch.delenv(IN_POOL_ENV, raising=False)
                in_process = run_flow_job(spec).metrics
                with monkeypatch.context() as patch:
                    patch.setattr(SteadyStateSolver, "solve_many", serial_solve_many)
                    serial = run_flow_job(spec).metrics
                monkeypatch.setenv(IN_POOL_ENV, "1")
                (batched,) = run_batch([spec], processes=1)
                qdir = tmp_path / backend.name / str(i)
                submit(spec, qdir)
                assert batch_worker_main(str(qdir)) == 1
                (worked,) = WorkQueue(qdir).completed().values()
                paths = [
                    record(m)
                    for m in (in_process, serial, batched, worked, over_http(spec))
                ]
                for doc in paths[1:]:
                    assert doc == paths[0], (backend.name, spec)
                assert in_process.mode == spec.mode
                if spec.mitigation_mode == "dvfs":
                    assert paths[0]["dvfs_mitigated_r"] > 0.0
                records[backend.name, i] = paths[0]
            assert factored == {backend.name}
        # the TSC spec's dummy-TSV rounds ran their activity sweeps serially
        assert swept
        for i, spec in enumerate(specs):
            direct, spectral = records["band", i], records["spectral", i]
            assert direct.keys() == spectral.keys()
            for key, value in direct.items():
                if isinstance(value, float):
                    assert spectral[key] == pytest.approx(
                        value, rel=_BACKEND_RTOL[key], abs=0.0
                    ), (spec, key)
                else:
                    assert spectral[key] == value, (spec, key)

    @pytest.mark.parametrize("stamped", [False, True])
    def test_pre_merge_queue_payload_executes(self, stamped):
        from repro.exploration.study import execute_batch_payload

        payload = dict(_PRE_MERGE_PAYLOAD)
        if stamped:
            payload["schema_version"] = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metrics = execute_batch_payload(payload)
        expected = run_flow_job(JobSpec(**SPEC)).metrics
        assert _frozen(metrics) == _frozen(expected)


class TestFacade:
    @pytest.fixture(scope="class")
    def spec(self):
        return JobSpec(**SPEC)

    def test_run_flow_job_matches_offline_oracle(self, spec, tmp_path):
        from repro.benchmarks import load

        result = run_flow_job(spec, store=tmp_path)
        circuit, stack = load(spec.benchmark, num_dies=spec.num_dies)
        oracle = run_flow(circuit, stack, spec.to_flow_config()).metrics
        produced = result.metrics.to_dict()
        expected = oracle.to_dict()
        for excluded in ("runtime_s", "degradations"):
            produced.pop(excluded, None)
            expected.pop(excluded, None)
        assert produced == expected

    def test_store_reuse_and_forced_recompute(self, spec, tmp_path):
        store = ResultsStore(tmp_path)
        first = run_flow_job(spec, store=store)
        assert not first.reused
        replay = run_flow_job(spec, store=store)
        assert replay.reused
        assert replay.metrics.correlation_r1 == first.metrics.correlation_r1
        # admission-final path: recompute rides the now-warm solver cache
        forced = run_flow_job(spec, store=store, reuse_store=False)
        assert not forced.reused
        assert forced.solver_cache["hits"] > 0
        assert forced.solver_cache["misses"] == 0
        assert forced.metrics.correlation_r1 == first.metrics.correlation_r1

    def test_progress_events_stream_stages(self, spec):
        events = []
        run_flow_job(spec, progress=events.append)
        stages = [(e.get("stage"), e.get("status")) for e in events]
        assert ("anneal", "start") in stages
        assert ("anneal", "done") in stages
        assert ("assignment", "done") in stages
        assert stages[-1] == ("verify", "done")

    def test_jobresult_roundtrip(self, spec, tmp_path):
        result = run_flow_job(spec, store=tmp_path)
        clone = JobResult.from_json(json.loads(json.dumps(result.to_json())))
        assert clone.metrics.to_dict() == result.metrics.to_dict()
        assert clone.solver_cache == result.solver_cache
        assert clone.job_id == spec.job_id()

    def test_submit_and_queue_status_document(self, spec, tmp_path):
        qdir = tmp_path / "q"
        first = submit(spec, qdir)
        assert first["enqueued"] and first["key"] == spec.key()
        assert not submit(spec, qdir)["enqueued"]  # idempotent per key
        doc = queue_status(qdir)
        assert doc["total"] == 1 and doc["pending"] == 1
        assert doc["healthy"] is True
        assert doc["schema_version"] == 1
        json.dumps(doc)  # the document is wire-ready as-is

    def test_queue_status_empty_queue_is_healthy(self, tmp_path):
        doc = queue_status(tmp_path / "nothing")
        assert doc["total"] == 0 and doc["healthy"] is True


class TestMitigationProgress:
    def test_per_round_events(self):
        from repro.benchmarks import generator
        from repro.benchmarks.generator import BenchmarkSpec, generate_circuit
        from repro.layout.die import StackConfig

        spec = BenchmarkSpec("apiprog", 0, 14, 1, 36, 8, 0.16, 1.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generator, "SEED", 9)
            circ = generate_circuit(spec)
        stack = StackConfig(spec.outline)
        config = FlowConfig(
            mode=FloorplanMode.TSC_AWARE,
            anneal=AnnealConfig(
                iterations=120, seed=2, calibration_samples=6,
                grid_nx=16, grid_ny=16,
            ),
            mitigation=MitigationConfig(samples=6, max_rounds=2,
                                        grid_nx=16, grid_ny=16),
            verify_nx=16, verify_ny=16,
        )
        events = []
        outcome = run_flow(circ, stack, config, progress=events.append)
        rounds = [e for e in events
                  if e.get("stage") == "mitigation" and e.get("status") == "round"]
        assert outcome.mitigation is not None
        assert len(rounds) == outcome.mitigation.rounds
        for event in rounds:
            assert set(event) >= {"stage", "status", "round", "accepted",
                                  "inserted_total"}
        done = [e for e in events
                if e.get("stage") == "mitigation" and e.get("status") == "done"]
        assert done and done[0]["inserted"] == outcome.mitigation.inserted
