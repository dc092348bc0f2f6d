"""Tests for the filesystem-coordinated distributed work queue.

Covers the coordination guarantees multi-host sweeps rely on:

* exactly one of N racing workers wins a claim (O_EXCL arbitration);
* a killed worker's in-flight job is reclaimed — after its lease
  expires — and completed by a surviving worker;
* a job two workers both completed lands exactly once after
  ``merge_shards`` (key-level dedup);
* a 2-worker queue sweep produces a merged store bit-identical in keys
  and metrics to the single-host ``run_batch`` result.
"""

import itertools
import json
import multiprocessing
import os
import pathlib
import threading
import time

import pytest

from repro.core.queue import Lease, WorkQueue, run_worker
from repro.core.results import FlowMetrics
from repro.core.store import ResultsStore
from repro.api import JobSpec
from repro.exploration.study import run_batch


def _metrics(tag=1.0):
    return FlowMetrics(
        benchmark="n100",
        mode="power_aware",
        spatial_entropy_s1=0.8,
        correlation_r1=float(tag),
        spatial_entropy_s2=0.7,
        correlation_r2=0.4,
        power_w=8.0,
        critical_delay_ns=1.5,
        wirelength_m=2.0,
        peak_temp_k=330.0,
        signal_tsvs=120,
        dummy_tsvs=32,
        voltage_volumes=5,
        runtime_s=1.0,
        feasible=True,
    )


def _execute(payload):
    return _metrics(payload.get("tag", 1.0))


class TestEnqueueAndClaim:
    def test_enqueue_idempotent_by_key(self, tmp_path):
        queue = WorkQueue(tmp_path)
        assert queue.enqueue("a", {"tag": 1}) is True
        assert queue.enqueue("a", {"tag": 2}) is False  # first spec wins
        assert queue._read_job(WorkQueue._digest("a")) == ("a", {"tag": 1})

    def test_claim_skips_completed_and_failed(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.enqueue("done", {})
        queue.enqueue("bad", {})
        queue.enqueue("open", {})
        leases = {}
        while (lease := queue.claim("w0")) is not None:
            leases[lease.key] = lease
        assert set(leases) == {"done", "bad", "open"}
        queue.complete(leases["done"], _metrics(), "w0")
        queue.record_failure(leases["bad"], "boom", "w0")
        leases["open"].release()
        remaining = queue.claim("w1")
        assert remaining is not None and remaining.key == "open"
        remaining.release()
        # clearing the failure opts the job back in
        queue.clear_failure("bad")
        keys = set()
        while (lease := queue.claim("w1")) is not None:
            keys.add(lease.key)
        assert keys == {"bad", "open"}

    def test_claims_come_in_digest_order(self, tmp_path):
        """Claims follow the sorted jobs/ listing, not enqueue order."""
        queue = WorkQueue(tmp_path)
        keys = [f"job{i}" for i in range(6)]
        for key in keys:
            queue.enqueue(key, {})
        claimed = []
        while (lease := queue.claim("w0")) is not None:
            claimed.append(lease.key)
        assert claimed == sorted(keys, key=WorkQueue._digest)
        assert claimed != keys  # the two orders differ for these keys

    def test_two_workers_racing_for_one_claim(self, tmp_path):
        """Exactly one of two simultaneous claimers wins, every round."""
        for round_no in range(20):
            queue = WorkQueue(tmp_path / f"round{round_no}")
            queue.enqueue("the-job", {})
            barrier = threading.Barrier(2)
            wins = []

            def contend(worker):
                barrier.wait()
                lease = queue.claim(worker)
                if lease is not None:
                    wins.append((worker, lease))

            threads = [
                threading.Thread(target=contend, args=(f"w{i}",)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(wins) == 1, f"round {round_no}: {len(wins)} claim winners"
            wins[0][1].release()

    def test_claim_returns_none_on_live_lease_and_empty_queue(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=60.0)
        assert queue.claim("w0") is None  # nothing queued
        queue.enqueue("a", {})
        held = queue.claim("w0")
        assert held is not None
        assert queue.claim("w1") is None  # live lease blocks
        held.release()
        again = queue.claim("w1")
        assert again is not None and again.key == "a"


class TestLeaseExpiry:
    def test_expired_lease_is_reclaimed(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=0.2)
        queue.enqueue("a", {"tag": 3})
        dead = queue.claim("dead")
        assert dead is not None
        assert queue.claim("live") is None
        time.sleep(0.3)
        lease = queue.claim("live")
        assert lease is not None and lease.key == "a"
        queue.complete(lease, _metrics(3), "live")
        assert set(queue.completed()) == {"a"}

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=0.3)
        queue.enqueue("a", {})
        held = queue.claim("w0")
        for _ in range(4):
            time.sleep(0.15)
            held.heartbeat()
            assert queue.claim("w1") is None  # still live past the raw ttl
        held.release()

    def test_only_one_stealer_wins_an_expired_lease(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=0.1)
        queue.enqueue("a", {})
        dead = queue.claim("dead")
        assert dead is not None
        time.sleep(0.2)
        barrier = threading.Barrier(4)
        wins = []

        def contend(worker):
            barrier.wait()
            lease = queue.claim(worker)
            if lease is not None:
                wins.append(lease)

        threads = [
            threading.Thread(target=contend, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert not list(queue.leases_dir.glob("*.stale-*"))  # tombstones reaped

    def test_late_stealer_leaves_a_fresh_lease_alone(self, tmp_path, monkeypatch):
        """Two workers judge the same lease expired.  The first completes
        its whole steal right after the second's stat, so the lease file
        is now the first's fresh claim: the second must lose and leave
        that claim in place, not re-create the lease."""
        queue = WorkQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue("a", {})
        assert queue.claim("dead") is not None
        path = queue._lease_path("a")
        old = time.time() - 3600.0
        os.utime(path, (old, old))
        real_stat = pathlib.Path.stat
        first = []

        def stat(self, *args, **kwargs):
            result = real_stat(self, *args, **kwargs)
            if self == path and not first:
                first.append(None)  # the first stealer's own stats are real
                first[0] = queue._try_acquire("a", {}, "first")
            return result

        monkeypatch.setattr(pathlib.Path, "stat", stat)
        second = queue._try_acquire("a", {}, "second")
        monkeypatch.undo()
        assert first[0] is not None and first[0].epoch == 2
        assert second is None
        record = json.loads(path.read_text(encoding="utf-8"))
        assert (record["worker"], record["epoch"]) == ("first", 2)
        assert queue._read_fence("a") == {"epoch": 2, "steals": 1}
        assert sorted(p.name for p in queue.leases_dir.iterdir()) == [path.name]

    def test_status_reaps_the_stale_lease_of_a_completed_job(self, tmp_path):
        """A worker that died between its shard append and the release
        leaves a lease that status() removes rather than reports."""
        queue = WorkQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue("a", {"tag": 1})
        queue.enqueue("b", {"tag": 2})
        done = queue.claim("w0")
        queue.shard_for("w0").append(done.key, _metrics(1), epoch=done.epoch)
        live = queue.claim("w1")
        old = time.time() - 3600.0
        os.utime(done.path, (old, old))
        status = queue.status()
        assert status.stale == []
        assert [entry["key"] for entry in status.active] == [live.key]
        assert (status.completed, status.claimed) == (1, 1)
        assert sorted(queue.leases_dir.iterdir()) == [live.path]


def _doomed_worker(queue_dir, started_path):
    """Claim a job, signal the parent, then stall until SIGKILLed."""
    queue = WorkQueue(queue_dir, lease_ttl=0.5)
    lease = queue.claim("doomed")
    assert lease is not None
    with open(started_path, "w", encoding="utf-8") as fh:
        fh.write(lease.key)
    time.sleep(600.0)  # never finishes: the parent kills this process


class TestCrashedWorkerReclamation:
    def test_killed_workers_job_completed_by_survivor(self, tmp_path):
        """The acceptance scenario: a worker process dies mid-job (no
        heartbeat, no release); the survivor waits out the lease ttl,
        reclaims, and completes the job."""
        queue = WorkQueue(tmp_path, lease_ttl=0.5)
        queue.enqueue("crashy", {"tag": 7})
        started = tmp_path / "claimed.txt"
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_doomed_worker, args=(str(tmp_path), str(started)))
        proc.start()
        try:
            deadline = time.time() + 30.0
            while not started.exists() and time.time() < deadline:
                time.sleep(0.02)
            assert started.exists(), "doomed worker never claimed the job"
            proc.kill()  # SIGKILL: no cleanup, the lease file stays behind
            proc.join(timeout=10.0)
            assert proc.exitcode is not None
            # immediately after the kill the lease is still live
            assert queue.claim("survivor") is None
            done = run_worker(queue, _execute, worker_id="survivor")
        finally:
            if proc.is_alive():  # pragma: no cover - kill failed
                proc.terminate()
                proc.join()
        assert done == 1
        completed = queue.completed()
        assert set(completed) == {"crashy"}
        assert completed["crashy"].correlation_r1 == pytest.approx(7.0)
        # and the dead worker's lease is gone, not lingering as stale
        assert queue.status().stale == []


class TestRunWorker:
    def test_drains_queue_and_counts(self, tmp_path):
        queue = WorkQueue(tmp_path)
        for i in range(4):
            queue.enqueue(f"job{i}", {"tag": i})
        assert run_worker(queue, _execute, worker_id="w0") == 4
        assert queue.drained()
        assert run_worker(queue, _execute, worker_id="w0") == 0

    def test_max_jobs_caps_a_worker(self, tmp_path):
        queue = WorkQueue(tmp_path)
        for i in range(3):
            queue.enqueue(f"job{i}", {})
        assert run_worker(queue, _execute, worker_id="w0", max_jobs=2) == 2
        assert not queue.drained()

    def test_failures_recorded_and_not_retried(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.enqueue("good", {"tag": 1})
        queue.enqueue("bad", {})
        calls = []

        def flaky(payload):
            calls.append(payload)
            if "tag" not in payload:
                raise ValueError("synthetic flow failure")
            return _metrics(payload["tag"])

        assert run_worker(queue, flaky, worker_id="w0") == 1
        status = queue.status()
        assert status.completed == 1 and status.failed == 1 and status.pending == 0
        assert "synthetic flow failure" in str(queue.failures()["bad"]["error"])
        # a second worker does not re-run the deterministic failure
        assert run_worker(queue, flaky, worker_id="w1") == 0
        assert sum(1 for p in calls if p == {}) == 1

    def test_lost_failure_record_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A failure record whose rename keeps failing is lost (and
        counted), and its temp file is removed with it."""
        from repro.core import faults

        queue = WorkQueue(tmp_path)
        queue.enqueue("bad", {})
        lease = queue.claim("w0")

        def refuse(src, dst):
            raise OSError("rename refused")

        before = faults.snapshot_degradations()
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", refuse)
            queue.record_failure(lease, "boom", "w0")
        assert faults.degradations_since(before)["queue.failure_record_lost"] == 1
        assert queue.failures() == {}
        assert not list(tmp_path.rglob("*.tmp"))

    def test_only_keys_scopes_claims_and_drain(self, tmp_path):
        """A worker scoped to its own keys neither executes nor blocks on
        unrelated jobs sharing the queue directory."""
        queue = WorkQueue(tmp_path)
        queue.enqueue("mine0", {"tag": 1})
        queue.enqueue("mine1", {"tag": 2})
        queue.enqueue("foreign", {"tag": 99})
        ran = []

        def spy(payload):
            ran.append(payload["tag"])
            return _metrics(payload["tag"])

        done = run_worker(
            queue, spy, worker_id="w0", only_keys=frozenset({"mine0", "mine1"})
        )
        assert done == 2
        assert sorted(ran) == [1, 2]  # the foreign job was never touched
        assert not queue.drained()  # ...and still pending for its owner
        assert queue.drained(frozenset({"mine0", "mine1"}))

    def test_wait_false_exits_on_inflight_work(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue("held", {})
        held = queue.claim("other-worker")
        assert held is not None
        t0 = time.time()
        assert run_worker(queue, _execute, worker_id="w0", wait=False) == 0
        assert time.time() - t0 < 5.0
        held.release()


class TestMergeShards:
    def test_doubly_completed_job_lands_once(self, tmp_path):
        """Two workers both completed 'dup' (a lease expired under a
        live-but-slow worker): the merged store holds exactly one record."""
        queue = WorkQueue(tmp_path)
        queue.shard_for("w0").append("dup", _metrics(5))
        queue.shard_for("w0").append("only0", _metrics(1))
        queue.shard_for("w1").append("dup", _metrics(5))
        queue.shard_for("w1").append("only1", _metrics(2))
        merged = queue.merge()
        assert set(merged.keys()) == {"dup", "only0", "only1"}
        with open(merged.path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        assert sum(1 for r in records if r["key"] == "dup") == 1
        # idempotent: a second merge appends nothing
        queue.merge()
        assert len(ResultsStore(tmp_path).completed()) == 3

    def test_merge_into_external_store_dedups_against_it(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue")
        store = ResultsStore(tmp_path / "store")
        store.append("already", _metrics(9))
        queue.shard_for("w0").append("already", _metrics(9))
        queue.shard_for("w0").append("fresh", _metrics(4))
        assert store.merge_shards(queue.shards()) == 1
        assert set(store.keys()) == {"already", "fresh"}

    def test_concurrent_merges_serialize_without_duplicates(self, tmp_path):
        """Several processes' worth of merges racing (work pools finishing
        on multiple hosts) must still produce exactly one record per key."""
        queue = WorkQueue(tmp_path)
        for w in range(3):
            shard = queue.shard_for(f"w{w}")
            for k in range(4):
                shard.append(f"key{k}", _metrics(k))  # all shards overlap
        barrier = threading.Barrier(3)

        def merge():
            barrier.wait()
            WorkQueue(tmp_path).merge()  # fresh instance per "process"

        threads = [threading.Thread(target=merge) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with open(queue.store.path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        assert len(records) == 4  # one per key, no duplicate appends
        assert not (tmp_path / "merge.lock").exists()

    def test_stale_merge_lock_is_stolen(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=0.1)
        lock = tmp_path / "merge.lock"
        lock.write_text("dead-merger")
        os.utime(lock, (time.time() - 5.0, time.time() - 5.0))
        queue.shard_for("w0").append("a", _metrics(1))
        merged = queue.merge()  # must not deadlock on the dead holder
        assert set(merged.keys()) == {"a"}
        assert not lock.exists()

    def test_merge_shards_accepts_paths(self, tmp_path):
        shard = ResultsStore(tmp_path / "shards", filename="w9.jsonl")
        shard.append("a", _metrics(1))
        target = ResultsStore(tmp_path / "merged")
        assert target.merge_shards([shard.path]) == 1
        assert set(target.keys()) == {"a"}

    def test_merge_with_fenced_torn_and_empty_shards_at_once(self, tmp_path):
        """One merge over the full zoo: a fenced-out duplicate (zombie
        double-commit), a torn trailing shard line, and an empty shard
        file — only the live records land."""
        queue = WorkQueue(tmp_path)
        # zombie: completed "dup" at epoch 1, then lost its lease to a
        # reclamation that bumped the fence to epoch 2
        queue.shard_for("zombie").append("dup", _metrics(1), epoch=1)
        queue.shard_for("zombie").append("zombie-only", _metrics(2), epoch=1)
        # survivor: re-ran "dup" at the live epoch
        survivor = queue.shard_for("survivor")
        survivor.append("dup", _metrics(5), epoch=2)
        survivor.append("clean", _metrics(3), epoch=2)
        # torn trailing line: the survivor died mid-append afterwards
        with open(survivor.path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": 1, "key": "torn-victim", "metr')
        # a worker that claimed nothing before the sweep drained
        (queue.shards_dir / "idle.jsonl").touch()
        queue._write_fence("dup", epoch=2, steals=1)

        merged = queue.merge().completed()
        assert set(merged) == {"dup", "zombie-only", "clean"}
        # the *survivor's* record won, not the fenced-out zombie's
        assert merged["dup"].correlation_r1 == pytest.approx(5.0)
        # and completed() agrees with the merge about epoch liveness
        assert queue.completed()["dup"].correlation_r1 == pytest.approx(5.0)

    def test_fenced_out_record_does_not_mask_pending_job(self, tmp_path):
        """A zombie's stale-epoch completion must not make the job look
        done: claim() re-offers it to a live worker."""
        queue = WorkQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue("j", {"tag": 1})
        queue.shard_for("zombie").append("j", _metrics(1), epoch=1)
        queue._write_fence("j", epoch=2, steals=1)
        assert "j" not in queue.completed()
        lease = queue.claim("live")
        assert lease is not None and lease.key == "j"
        assert lease.epoch == 3  # claims keep the fence monotonic
        queue.complete(lease, _metrics(9), "live")
        assert queue.merge().completed()["j"].correlation_r1 == pytest.approx(9.0)

    def test_repeated_merges_idempotent_property(self, tmp_path):
        """Property: for arbitrary shard contents (overlapping keys,
        epochs, fences), merging twice appends nothing the second time
        and leaves the store byte-identical."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        keys = st.lists(
            st.sampled_from([f"k{i}" for i in range(5)]),
            min_size=0, max_size=5, unique=True,
        )
        counter = itertools.count()

        def snapshot(store):
            # zero live records never materializes results.jsonl
            return store.path.read_bytes() if store.path.exists() else b""

        @hypothesis.settings(
            max_examples=25, deadline=None,
            suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
        )
        @hypothesis.given(
            shard_keys=st.lists(keys, min_size=1, max_size=3),
            epochs=st.dictionaries(
                st.sampled_from([f"k{i}" for i in range(5)]),
                st.integers(min_value=0, max_value=3),
            ),
        )
        def check(shard_keys, epochs):
            root = tmp_path / f"case{next(counter)}"
            queue = WorkQueue(root)
            for w, shard in enumerate(shard_keys):
                for key in shard:
                    queue.shard_for(f"w{w}").append(
                        key, _metrics(w), epoch=epochs.get(key)
                    )
            for key, epoch in epochs.items():
                if epoch:
                    queue._write_fence(key, epoch=epoch, steals=0)
            queue.merge()
            first = snapshot(queue.store)
            first_records = queue.store.completed()
            queue.merge()
            assert snapshot(queue.store) == first
            # and a fresh queue instance (cold caches) agrees
            again = WorkQueue(root)
            again.merge()
            assert snapshot(again.store) == first
            assert again.store.completed().keys() == first_records.keys()

        check()


class TestStatus:
    def test_status_counts_and_lease_ages(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=0.2)
        for i in range(4):
            queue.enqueue(f"job{i}", {})
        done = queue.claim("w0")
        queue.complete(done, _metrics(), "w0")
        failed = queue.claim("w0")
        queue.record_failure(failed, "boom", "w0")
        live = queue.claim("w1")
        assert live is not None
        stale = queue.claim("dead")
        os.utime(stale.path, (time.time() - 5.0, time.time() - 5.0))
        status = queue.status()
        assert status.total == 4
        assert status.completed == 1
        assert status.failed == 1
        assert status.claimed == 1
        assert status.pending == 2  # the stale-leased and the live-leased job
        assert [e["worker"] for e in status.active] == ["w1"]
        assert [e["worker"] for e in status.stale] == ["dead"]
        assert set(status.failures) == {failed.key}

    def test_drained_empty_queue(self, tmp_path):
        assert WorkQueue(tmp_path).drained()


class TestLeaseObject:
    def test_release_and_heartbeat_tolerate_missing_file(self, tmp_path):
        lease = Lease(key="k", payload={}, path=tmp_path / "gone.lease")
        lease.heartbeat()  # no error
        lease.release()  # no error

    def test_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueue(tmp_path, lease_ttl=0.0)


class TestTwoWorkerSweepMatchesSingleHost:
    def test_merged_store_bit_identical_to_run_batch(self, tmp_path):
        """The acceptance criterion: a 2-worker queue sweep and the
        single-host serial ``run_batch`` produce stores with identical
        keys *and* identical metrics (flows are deterministic per key)."""
        jobs = [
            JobSpec(benchmark="n100", seed=s, iterations=25, grid=12)
            for s in range(2)
        ]
        serial_store = ResultsStore(tmp_path / "serial")
        run_batch(jobs, processes=1, store=serial_store)

        queue_store = ResultsStore(tmp_path / "queued")
        results = run_batch(
            jobs,
            processes=2,
            store=queue_store,
            queue_dir=tmp_path / "queued" / "queue",
            lease_ttl=60.0,
        )
        serial = serial_store.completed()
        merged = queue_store.completed()
        assert set(merged) == set(serial) == {j.key() for j in jobs}

        def frozen(metrics):
            # every field except wall-clock runtime is deterministic and
            # must match *exactly* (no approx): same flow, same bits.
            # degradation counts depend on process cache warmth (serial
            # in-process worker vs cold spawned workers), so they are
            # excluded like runtime
            out = metrics.to_dict()
            out.pop("runtime_s")
            out.pop("degradations", None)
            return out

        for key in serial:
            assert frozen(merged[key]) == frozen(serial[key]), key
        # run_batch returned the same records, in job order
        assert [frozen(r) for r in results] == [
            frozen(serial[j.key()]) for j in jobs
        ]
        # both workers' shards exist under the pinned queue dir
        shards = list((tmp_path / "queued" / "queue" / "shards").glob("*.jsonl"))
        assert shards, "queue sweep left no worker shards"

    def test_run_batch_ignores_foreign_jobs_in_shared_queue_dir(self, tmp_path):
        """Leftover jobs from another sweep in a persistent queue dir are
        neither executed nor waited on by an unrelated run_batch call."""
        store = ResultsStore(tmp_path)
        queue = WorkQueue(store.root / "queue")
        queue.enqueue("foreign-job", {"not": "a JobSpec payload"})
        job = JobSpec(benchmark="n100", seed=0, iterations=25, grid=12)
        results = run_batch([job], processes=1, store=store)
        assert results[0] is not None
        # the foreign job was never claimed: no failure, no completion
        assert "foreign-job" not in queue.failures()
        assert "foreign-job" not in queue.completed()
        assert not queue.drained()

    def test_run_batch_resumes_from_queue_shards(self, tmp_path):
        """Results durable in a shard but not yet merged into the store
        are honoured: the flow is not re-executed."""
        job = JobSpec(benchmark="n100", seed=0, iterations=25, grid=12)
        store = ResultsStore(tmp_path)
        queue = WorkQueue(store.root / "queue")
        queue.enqueue(job.key(), {})
        queue.shard_for("w0").append(job.key(), _metrics(0.777))

        from repro.exploration import study

        def boom(payload):
            raise AssertionError("flow re-executed despite shard record")

        orig = study.execute_batch_payload
        study.execute_batch_payload = boom
        try:
            results = run_batch([job], processes=1, store=store)
        finally:
            study.execute_batch_payload = orig
        assert results[0].correlation_r1 == pytest.approx(0.777)
        assert job.key() in store  # merged into the durable store


class TestRunBatchFailurePropagation:
    def test_failed_job_raises_with_detail_after_siblings_finish(
        self, tmp_path, monkeypatch
    ):
        from repro.exploration import study

        jobs = [
            JobSpec(benchmark="n100", seed=s, iterations=25, grid=12)
            for s in range(2)
        ]

        real = study.execute_spec

        def fail_seed_one(spec):
            if spec.seed == 1:
                raise ValueError("synthetic seed-1 failure")
            return real(spec)

        monkeypatch.setattr(study, "execute_spec", fail_seed_one)
        store = ResultsStore(tmp_path)
        with pytest.raises(RuntimeError, match="seed1"):
            run_batch(jobs, processes=1, store=store)
        # the sibling that succeeded is durably recorded regardless
        assert jobs[0].key() in store
        # a re-run retries the failure (clear_failure on enqueue) and,
        # once the flow behaves, completes the sweep
        monkeypatch.setattr(study, "execute_spec", real)
        results = run_batch(jobs, processes=1, store=store)
        assert all(r is not None for r in results)
