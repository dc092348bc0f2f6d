"""Tests for the persisted results store and resumable batch sweeps."""

import json

import pytest

from repro.core.results import FlowMetrics
from repro.core.store import ResultsStore
from repro.api import JobSpec
from repro.exploration.study import run_batch


def _metrics(benchmark="n100", mode="power_aware", r1=0.5, runtime=1.0):
    return FlowMetrics(
        benchmark=benchmark,
        mode=mode,
        spatial_entropy_s1=0.8,
        correlation_r1=r1,
        spatial_entropy_s2=0.7,
        correlation_r2=0.4,
        power_w=8.0,
        critical_delay_ns=1.5,
        wirelength_m=2.0,
        peak_temp_k=330.0,
        signal_tsvs=120,
        dummy_tsvs=32,
        voltage_volumes=5,
        runtime_s=runtime,
        feasible=True,
    )


class TestFlowMetricsRoundTrip:
    def test_to_from_dict(self):
        m = _metrics()
        again = FlowMetrics.from_dict(m.to_dict())
        assert again == m

    def test_integer_fields_stay_integers(self):
        again = FlowMetrics.from_dict(_metrics().to_dict())
        assert isinstance(again.signal_tsvs, int)
        assert isinstance(again.voltage_volumes, int)

    def test_degradations_round_trip_and_default_empty(self):
        m = _metrics()
        assert m.degradations == {}
        assert "degradations" not in m.to_dict()  # clean runs stay compact
        m.degradations = {"woodbury.fallback.rank": 2}
        again = FlowMetrics.from_dict(m.to_dict())
        assert again == m
        assert again.degradations == {"woodbury.fallback.rank": 2}


class TestResultsStore:
    def test_append_and_completed(self, tmp_path):
        store = ResultsStore(tmp_path)
        assert store.completed() == {}
        store.append("a", _metrics(r1=0.1))
        store.append("b", _metrics(r1=0.2))
        done = store.completed()
        assert set(done) == {"a", "b"}
        assert done["a"].correlation_r1 == pytest.approx(0.1)
        assert "a" in store and "missing" not in store
        assert len(store) == 2

    def test_last_record_wins(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append("a", _metrics(r1=0.1))
        store.append("a", _metrics(r1=0.9))
        assert store.completed()["a"].correlation_r1 == pytest.approx(0.9)

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        """A crash mid-append must not poison the records before it."""
        store = ResultsStore(tmp_path)
        store.append("a", _metrics())
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": 1, "key": "b", "metr')  # torn write
        reopened = ResultsStore(tmp_path)
        assert set(reopened.completed()) == {"a"}
        # appending after the torn line starts a fresh valid line
        reopened.append("c", _metrics())
        assert set(ResultsStore(tmp_path).completed()) == {"a", "c"}

    def test_epoch_round_trips_through_records(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append("fenced", _metrics(), epoch=3)
        store.append("plain", _metrics())
        records = ResultsStore(tmp_path).records()
        assert records["fenced"][1] == 3
        assert records["plain"][1] is None

    def test_newer_schema_lines_are_skipped(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append("a", _metrics())
        with open(store.path, "a", encoding="utf-8") as fh:
            record = {"schema": 99, "key": "b", "metrics": _metrics().to_dict()}
            fh.write(json.dumps(record) + "\n")
        assert set(ResultsStore(tmp_path).completed()) == {"a"}


class TestJobSpecKey:
    def test_key_covers_outcome_changing_fields(self):
        base = JobSpec(benchmark="n100")
        variants = [
            JobSpec(benchmark="n300"),
            JobSpec(benchmark="n100", mode="tsc_aware"),
            JobSpec(benchmark="n100", seed=1),
            JobSpec(benchmark="n100", iterations=99),
            JobSpec(benchmark="n100", grid=16),
            JobSpec(benchmark="n100", num_dies=3),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == len(variants) + 1
        # stores and queues written by earlier revisions resume only if
        # these strings never change
        literal = "n100|power_aware|seed0|it1500|grid32|dies2"
        assert base.key() == literal
        assert base.job_id() == "43db77d305bbbb0c"
        assert (
            JobSpec(benchmark="n100", replicas=4, exchange_every=25).key()
            == literal + "|rep4x25"
        )
        assert JobSpec(benchmark="n100", topology="2.5d").key() == literal + "|top2.5d"
        assert (
            JobSpec(benchmark="n100", mode="tsc_aware", mitigation_mode="dvfs").key()
            == "n100|tsc_aware|seed0|it1500|grid32|dies2|mitdvfs"
        )


class TestRunBatchResume:
    def test_resume_skips_recorded_jobs(self, tmp_path, monkeypatch):
        job = JobSpec(benchmark="n100", iterations=25, grid=12)
        store = ResultsStore(tmp_path)
        first = run_batch([job], processes=1, store=store)
        assert len(first) == 1 and first[0].benchmark == "n100"
        assert job.key() in store

        # a second run must come entirely from the store: executing any
        # job now would blow up
        from repro.exploration import study

        def boom(spec):
            raise AssertionError("job re-executed despite store record")

        monkeypatch.setattr(study, "execute_spec", boom)
        second = run_batch([job], processes=1, store=store)
        assert second[0] == first[0]

    def test_store_accepts_path(self, tmp_path):
        job = JobSpec(benchmark="n100", iterations=25, grid=12)
        first = run_batch([job], processes=1, store=tmp_path)
        # resumed via a plain path as well
        second = run_batch([job], processes=1, store=str(tmp_path))
        assert second[0] == first[0]

    def test_mixed_resume_runs_only_missing(self, tmp_path):
        store = ResultsStore(tmp_path)
        jobs = [
            JobSpec(benchmark="n100", iterations=25, grid=12, seed=0),
            JobSpec(benchmark="n100", iterations=25, grid=12, seed=1),
        ]
        store.append(jobs[0].key(), _metrics(r1=0.123, runtime=9.0))
        results = run_batch(jobs, processes=1, store=store)
        # job 0 came from the store verbatim, job 1 actually ran
        assert results[0].correlation_r1 == pytest.approx(0.123)
        assert results[0].runtime_s == pytest.approx(9.0)
        assert results[1].benchmark == "n100"
        assert results[1].runtime_s != pytest.approx(9.0)
        assert len(store) == 2
