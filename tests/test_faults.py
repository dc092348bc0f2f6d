"""Chaos suite: deterministic fault injection against the sweep stack.

The acceptance loop injects a fault at every instrumented site of a
queue sweep — fs errors in store/queue I/O, worker crashes (real
``os._exit`` in spawned processes), clock skew — and asserts the sweep
still converges to exactly the no-fault oracle: same keys, same metrics
(``runtime_s`` and ``degradations`` excluded, like every oracle
comparison over flows).  Alongside it:
quarantine semantics (a poison job lands in ``quarantine/`` exactly
once, via both the executor-failure and the crash-steal path), fencing
under injected clock skew, SIGTERM lease release, failure-record
hygiene, and the fault-plan/`retry_io` primitives themselves.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import faults
from repro.core.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    InjectedFault,
    injected,
    retry_io,
)
from repro.core.queue import WorkQueue, run_worker
from repro.core.results import FlowMetrics
from repro.core.store import ResultsStore


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    """No fault plan may leak between tests (or in from the environment)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.clear_plan()
    yield
    faults.clear_plan()


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
    return _metrics(payload["tag"])


def _frozen(metrics):
    out = metrics.to_dict()
    out.pop("runtime_s")
    out.pop("degradations", None)
    return out


def _oracle(jobs):
    """What a fault-free sweep must produce, computed without any queue."""
    return {key: _frozen(_execute(payload)) for key, payload in jobs.items()}


# -- fault plan & spec primitives -------------------------------------------------


class TestFaultSpecParsing:
    def test_full_grammar_round_trip(self):
        plan = FaultPlan.from_spec(
            "store.append=eio@after:2; queue.lease=torn, clock=skew:400@every:3;"
            "worker.after_claim=crash@prob:0.5:42"
        )
        sites = {s.site: s for s in plan.specs}
        assert sites["store.append"].action == "eio"
        assert sites["store.append"].trigger == "after"
        assert sites["store.append"].n == 2
        assert sites["queue.lease"].trigger == "always"
        assert sites["clock"].param == pytest.approx(400.0)
        assert sites["worker.after_claim"].p == pytest.approx(0.5)
        assert sites["worker.after_claim"].seed == 42

    @pytest.mark.parametrize(
        "bad",
        [
            "no-equals-sign",
            "site=unknowable",
            "site=eio@sometimes",
            "site=eio@after:x",
            "site=eio@prob:1.5",
            "=eio",
            "clock=skew",  # skew without seconds
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(bad)

    def test_after_fires_exactly_once_on_nth(self):
        plan = FaultPlan.from_spec("s=raise@after:3")
        fired = []
        for _ in range(6):
            try:
                plan.fault_point("s")
                fired.append(False)
            except InjectedFault:
                fired.append(True)
        assert fired == [False, False, True, False, False, False]
        assert plan.report()["s"] == {"arrivals": 6, "fires": 1}

    def test_every_fires_on_multiples(self):
        plan = FaultPlan.from_spec("s=raise@every:2")
        outcomes = []
        for _ in range(6):
            try:
                plan.fault_point("s")
                outcomes.append(False)
            except InjectedFault:
                outcomes.append(True)
        assert outcomes == [False, True, False, True, False, True]

    def test_prob_trigger_deterministic_per_seed(self):
        def fires(seed):
            plan = FaultPlan.from_spec(f"s=fail@prob:0.5:{seed}")
            return [plan.fires("s") for _ in range(32)]

        assert fires(7) == fires(7)  # same seed, same sequence
        assert fires(7) != fires(8)  # seeds actually matter
        assert any(fires(7)) and not all(fires(7))

    def test_env_plan_installed_and_cached(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "s=raise")
        plan = faults.active_plan()
        assert plan is not None and plan.from_env
        assert faults.active_plan() is plan  # cached against the raw value
        monkeypatch.setenv("REPRO_FAULTS", "s=raise@after:99")
        assert faults.active_plan() is not plan  # value change re-parses
        monkeypatch.delenv("REPRO_FAULTS")
        assert faults.active_plan() is None

    def test_programmatic_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "s=raise")
        with injected("other=raise") as plan:
            assert faults.active_plan() is plan
        assert faults.active_plan().from_env

    def test_injected_scope_clears_on_exit(self):
        with injected("s=raise"):
            with pytest.raises(InjectedFault):
                faults.fault_point("s")
        faults.fault_point("s")  # no plan, no fault

    def test_clock_skew_shifts_now(self):
        t0 = time.time()
        with injected("clock=skew:400"):
            assert faults.now() - t0 > 350.0
        assert abs(faults.now() - time.time()) < 5.0


class TestRetryIO:
    def test_transient_error_recovered_and_counted(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        before = faults.snapshot_degradations()
        assert retry_io(flaky, site="unit", base_delay=0.001) == "ok"
        assert len(calls) == 3
        assert faults.degradations_since(before)["io_retry.unit"] == 2

    def test_persistent_error_raises_after_budget(self):
        def always():
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            retry_io(always, site="unit", attempts=3, base_delay=0.001)

    def test_file_exists_never_retried(self):
        """FileExistsError is the O_EXCL *success* signal of lease
        arbitration; retrying it would turn 'someone else holds the
        lease' into a busy loop."""
        calls = []

        def exists():
            calls.append(1)
            raise FileExistsError("held elsewhere")

        with pytest.raises(FileExistsError):
            retry_io(exists, site="unit", base_delay=0.001)
        assert len(calls) == 1


# -- the acceptance chaos loop ----------------------------------------------------

#: five cheap deterministic jobs every chaos sweep runs
_JOBS = {f"job{i}": {"tag": float(i)} for i in range(5)}

#: non-crash fault sites: injected into an in-process worker, which must
#: survive via retry_io / retry budgets and still match the oracle
_FS_FAULT_SPECS = [
    "store.append=eio@after:1",
    "store.append=torn@after:2",
    "store.append=enospc@every:3",
    "queue.lease=eio@after:1",
    "queue.fence=eio@after:2",
    "queue.complete=raise@after:1",
    "clock=skew:400",
]


def _chaos_queue(root, **kw):
    kw.setdefault("lease_ttl", 0.6)
    kw.setdefault("max_attempts", 4)
    kw.setdefault("retry_backoff", 0.01)
    kw.setdefault("max_steals", 10)
    return WorkQueue(root, **kw)


class TestChaosLoopInProcess:
    @pytest.mark.parametrize("spec", _FS_FAULT_SPECS)
    def test_sweep_converges_to_oracle_under_fault(self, tmp_path, spec):
        queue = _chaos_queue(tmp_path)
        for key, payload in _JOBS.items():
            queue.enqueue(key, payload)
        with injected(spec) as plan:
            run_worker(queue, _execute, worker_id="chaos", poll_interval=0.02)
            report = plan.report()
        site = spec.split("=", 1)[0]
        assert report[site]["arrivals"] > 0, f"{site} was never exercised"
        if "@prob" not in spec:
            assert report[site]["fires"] > 0, f"{site} never actually fired"
        merged = queue.merge().completed()
        assert {k: _frozen(m) for k, m in merged.items()} == _oracle(_JOBS)
        # even the queue.complete fault (raised *after* the shard append)
        # leaves no unresolved failure: the record is durable, so the
        # failure entry resolves against the completed key
        assert queue.status().failed == 0

    def test_failure_record_write_survives_injected_eio(self, tmp_path):
        """The queue.failure site itself: a failing job whose *failure
        record write* also hits EIO still retries and completes."""
        queue = _chaos_queue(tmp_path, max_attempts=2)
        queue.enqueue("flaky", {"tag": 2.0})
        attempts = []

        def flaky(payload):
            attempts.append(1)
            if len(attempts) < 2:
                raise ValueError("first attempt fails")
            return _execute(payload)

        with injected("queue.failure=eio@after:1") as plan:
            run_worker(queue, flaky, worker_id="w0", poll_interval=0.02)
            assert plan.report()["queue.failure"]["fires"] == 1
        merged = queue.merge().completed()
        assert merged["flaky"].correlation_r1 == pytest.approx(2.0)
        assert queue.status().failed == 0

    def test_torn_injection_leaves_healable_half_line(self, tmp_path):
        """The torn action writes a real half line before raising, and the
        retry (same append call) heals it — exactly the crash-mid-write
        sequence the store's newline healing exists for."""
        store = ResultsStore(tmp_path)
        with injected("store.append=torn@after:1"):
            store.append("a", _metrics(1))
        raw = store.path.read_text(encoding="utf-8")
        lines = raw.splitlines()
        assert len(lines) == 2  # the torn half line, then the good record
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[0])
        assert json.loads(lines[1])["key"] == "a"
        assert set(ResultsStore(tmp_path).completed()) == {"a"}

    def test_persistent_store_fault_fails_job_not_worker(self, tmp_path):
        """A store fault outlasting the retry budget becomes a recorded
        per-job failure (then a retry, then quarantine) — never an
        unhandled exception out of run_worker."""
        queue = _chaos_queue(tmp_path, max_attempts=2)
        queue.enqueue("doomed", {"tag": 1.0})
        with injected("store.append=eio"):
            run_worker(queue, _execute, worker_id="w0", poll_interval=0.02)
        assert "doomed" in queue.quarantined()
        assert queue.drained()


def _chaos_worker(queue_dir, spec, worker_id):
    """Spawned chaos worker: installs the plan, then drains the queue.

    Crash actions take the whole process down via ``os._exit`` — exactly
    like a SIGKILL mid-job — so the parent asserts on the exit code and
    lets a clean survivor finish the sweep.
    """
    faults.install_plan(FaultPlan.from_spec(spec))
    queue = _chaos_queue(queue_dir)
    run_worker(queue, _execute, worker_id=worker_id, wait=False, poll_interval=0.02)


_CRASH_SPECS = [
    # dies right after claiming: job untouched, lease stranded
    "worker.after_claim=crash@after:1",
    # dies after executing but before completing: result lost with it
    "worker.after_execute=crash@after:1",
    # dies inside the shard append: a genuinely torn shard line
    "store.append=crash@after:1",
]


class TestChaosLoopCrashes:
    @pytest.mark.parametrize("spec", _CRASH_SPECS)
    def test_crashed_worker_recovered_by_survivor(self, tmp_path, spec):
        queue = _chaos_queue(tmp_path)
        for key, payload in _JOBS.items():
            queue.enqueue(key, payload)
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_chaos_worker, args=(str(tmp_path), spec, "doomed"))
        proc.start()
        proc.join(timeout=120.0)
        assert proc.exitcode == CRASH_EXIT_CODE, f"worker survived {spec}"
        # the survivor runs clean (no plan), waits out the stranded lease,
        # reclaims at a higher fencing epoch, and finishes the sweep
        run_worker(queue, _execute, worker_id="survivor", poll_interval=0.02)
        merged = queue.merge().completed()
        assert {k: _frozen(m) for k, m in merged.items()} == _oracle(_JOBS)
        status = queue.status()
        assert status.failed == 0 and status.stale == []


class TestZombieFencing:
    def test_skewed_zombie_commit_discarded_by_merge(self, tmp_path):
        """The NFS-clock-skew scenario fencing exists for: a worker's
        lease is (wrongly, from its point of view) reclaimed, both it and
        the stealer complete the job, and only the stealer's record — the
        one at the live epoch — survives the merge."""
        queue = _chaos_queue(tmp_path, lease_ttl=0.3)
        queue.enqueue("contested", {"tag": 1.0})
        zombie_lease = queue.claim("zombie")
        assert zombie_lease is not None and zombie_lease.epoch == 1
        time.sleep(0.4)  # the zombie stalls; its lease expires
        stealer_lease = queue.claim("stealer")
        assert stealer_lease is not None and stealer_lease.epoch == 2
        # the zombie wakes up and finishes anyway — at its dead epoch
        queue.shard_for("zombie").append(
            "contested", _metrics(666), epoch=zombie_lease.epoch
        )
        zombie_lease.release()  # guarded: must NOT drop the stealer's lease
        assert queue._lease_path("contested").exists()
        queue.complete(stealer_lease, _metrics(2), "stealer")
        merged = queue.merge().completed()
        assert merged["contested"].correlation_r1 == pytest.approx(2.0)

    def test_zombie_first_merge_superseded_by_live_record(self, tmp_path):
        """Even if the zombie's record was merged *before* the fence
        advanced, the next merge supersedes it with the live-epoch one."""
        queue = _chaos_queue(tmp_path)
        queue.shard_for("zombie").append("k", _metrics(666), epoch=1)
        queue.merge()
        assert queue.store.completed()["k"].correlation_r1 == pytest.approx(666.0)
        # reclamation bumps the fence, survivor re-runs the job
        queue._write_fence("k", epoch=2, steals=1)
        queue.shard_for("survivor").append("k", _metrics(2), epoch=2)
        merged = queue.merge().completed()
        assert merged["k"].correlation_r1 == pytest.approx(2.0)


class TestStealRace:
    def test_expired_lease_stolen_once_per_trial(self, tmp_path):
        """600 trials of four threads stealing one expired lease, with a
        tiny switch interval to interleave them: every trial has exactly
        one winner, at the next epoch, whose lease is the one left behind
        with no steal marker beside it."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(600):
                queue = WorkQueue(tmp_path / f"t{trial}", lease_ttl=60.0)
                queue.enqueue("a", {})
                assert queue.claim("dead") is not None
                old = time.time() - 3600.0
                os.utime(queue._lease_path("a"), (old, old))
                barrier = threading.Barrier(4)
                wins = []

                def contend(worker):
                    barrier.wait(timeout=10.0)
                    lease = queue.claim(worker)
                    if lease is not None:
                        wins.append(lease)

                threads = [
                    threading.Thread(target=contend, args=(f"w{i}",)) for i in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10.0)
                assert not any(t.is_alive() for t in threads)
                assert [lease.epoch for lease in wins] == [2], f"trial {trial}"
                record = json.loads(queue._lease_path("a").read_text(encoding="utf-8"))
                assert record["worker"] == wins[0].worker
                assert sorted(p.name for p in queue.leases_dir.iterdir()) == [
                    queue._lease_path("a").name
                ]
        finally:
            sys.setswitchinterval(interval)


# -- retry budgets, backoff, quarantine -------------------------------------------


class TestRetryAndQuarantine:
    def test_flaky_job_succeeds_within_budget(self, tmp_path):
        queue = _chaos_queue(tmp_path, max_attempts=3)
        queue.enqueue("flaky", {"tag": 5.0})
        attempts = []

        def flaky(payload):
            attempts.append(1)
            if len(attempts) < 3:
                raise ValueError(f"transient failure {len(attempts)}")
            return _metrics(payload["tag"])

        run_worker(queue, flaky, worker_id="w0", poll_interval=0.02)
        assert len(attempts) == 3
        assert queue.status().failed == 0
        merged = queue.merge().completed()
        assert merged["flaky"].correlation_r1 == pytest.approx(5.0)

    def test_backoff_gates_reclaim_until_next_retry_at(self, tmp_path):
        queue = WorkQueue(
            tmp_path, lease_ttl=60.0, max_attempts=2, retry_backoff=0.4
        )
        queue.enqueue("j", {})
        lease = queue.claim("w0")
        queue.record_failure(lease, "first failure", "w0")
        record = queue.failures()["j"]
        assert record["attempt"] == 1
        assert record["next_retry_at"] > record["time"]
        assert queue.claim("w0") is None  # backoff window still open
        assert not queue.drained()  # retry budget remains: not drained
        time.sleep(0.6)
        retry = queue.claim("w0")
        assert retry is not None and retry.key == "j"

    def test_failure_record_not_local_budget_decides_terminal(self, tmp_path):
        """A view opened with the library's default budget of one (the
        service's poll, sweep-status) does not call a job failed while
        the record that a budget-2 worker wrote still schedules a retry."""
        pool = WorkQueue(tmp_path, lease_ttl=60.0, max_attempts=2, retry_backoff=30.0)
        view = WorkQueue(tmp_path, lease_ttl=60.0)
        pool.enqueue("j", {})
        pool.record_failure(pool.claim("w0"), "transient", "w0")
        assert not view.drained()
        assert view._classify()[0] == {WorkQueue._digest("j"): "backoff"}

    def test_exhausted_budget_quarantines_exactly_once(self, tmp_path):
        """The acceptance criterion: a job exceeding max_attempts lands in
        quarantine/ exactly once, and sweep-status reports it."""
        queue = _chaos_queue(tmp_path, max_attempts=2)
        queue.enqueue("poison", {})
        queue.enqueue("fine", {"tag": 3.0})

        def poison_exec(payload):
            if "tag" not in payload:
                raise ValueError("always fails")
            return _metrics(payload["tag"])

        run_worker(queue, poison_exec, worker_id="w0", poll_interval=0.02)
        qdir_files = list(queue.quarantine_dir.glob("*.json"))
        assert len(qdir_files) == 1  # exactly one quarantine record
        record = queue.quarantined()["poison"]
        assert record["attempts"] == 2
        assert record["worker"] == "w0"
        status = queue.status()
        assert status.failed == 1 and status.completed == 1
        assert set(status.quarantined) == {"poison"}
        assert queue.drained()  # quarantine resolves the job
        # no worker will ever claim it again...
        assert queue.claim("w1") is None
        # ...until an operator explicitly opts it back in
        queue.clear_failure("poison")
        assert list(queue.quarantine_dir.glob("*.json")) == []
        lease = queue.claim("w1")
        assert lease is not None and lease.key == "poison"

    def test_crash_looping_job_quarantined_via_steal_budget(self, tmp_path):
        """A job that kills workers before they can even record a failure
        burns lease steals instead of attempts; exceeding max_steals
        quarantines it rather than grinding the pool forever."""
        queue = WorkQueue(tmp_path, lease_ttl=0.1, max_attempts=3, max_steals=1)
        queue.enqueue("killer", {})
        first = queue.claim("w0")
        assert first is not None
        time.sleep(0.2)  # w0 "crashed": lease expires unreleased
        second = queue.claim("w1")  # steal #1: within budget
        assert second is not None
        time.sleep(0.2)  # w1 crashed too
        assert queue.claim("w2") is None  # steal #2 exceeds the budget
        record = queue.quarantined()["killer"]
        assert "crash-looping" in record["reason"]
        assert queue.drained()

    def test_sweep_status_cli_reports_quarantine(self, tmp_path, capsys):
        from repro.cli import main

        queue = _chaos_queue(tmp_path, max_attempts=1)
        queue.enqueue("bad", {})
        lease = queue.claim("w0")
        queue.record_failure(lease, "boom", "w0")
        # an unhealthy queue is an exit-code 1 (healthy-but-empty is 0),
        # so sweep-status can gate cron wrappers and CI on its own
        assert main(["sweep-status", "--queue-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "QUARANTINED bad" in out
        assert "quarantined 1" in out

    def test_work_cli_exits_nonzero_on_quarantined_job(self, tmp_path, capsys):
        from repro.api import JobSpec
        from repro.cli import main

        queue = WorkQueue(tmp_path)
        # a payload that is not a valid JobSpec: every execution fails
        queue.enqueue("broken", {"benchmark": "no-such-bench"})
        job = JobSpec(benchmark="n100", iterations=25, grid=12)
        queue.enqueue(job.key(), job.to_json())
        code = main([
            "work", "--queue-dir", str(tmp_path), "--workers", "1",
            "--max-attempts", "2", "--backoff", "0.01",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "QUARANTINED broken" in out
        # the healthy sibling still completed and was merged
        assert job.key() in ResultsStore(tmp_path).completed()


class TestFailureRecordHygiene:
    def test_error_truncated_and_fields_consistent(self, tmp_path):
        queue = WorkQueue(tmp_path, max_attempts=2)
        queue.enqueue("j", {})
        lease = queue.claim("worker-7")
        queue.record_failure(lease, "x" * 100_000, "worker-7")
        record = queue.failures()["j"]
        assert len(record["error"]) < 5000
        assert "truncated" in record["error"]
        assert record["attempt"] == 1
        assert record["worker"] == "worker-7"
        assert record["iso"].endswith("+00:00")  # ISO-8601, explicit UTC
        # short errors pass through untouched
        lease2 = queue.claim("worker-7")
        assert lease2 is None  # backoff window
        queue.clear_failure("j")
        lease2 = queue.claim("worker-8")
        queue.record_failure(lease2, "short", "worker-8")
        assert queue.failures()["j"]["error"] == "short"


# -- the jobs/ listing is the job index --------------------------------------------


def _totals(status):
    return status.total, status.completed, status.failed, status.pending


class TestJobListing:
    def test_job_file_written_without_enqueue_is_claimable(self, tmp_path):
        """A job file that lands in jobs/ by any route other than
        enqueue (another tool, a copy from an older queue dir) is
        claimable on the next claim, and status() counts it."""
        queue = WorkQueue(tmp_path)
        queue.enqueue("queued", {"tag": 0.0})
        assert _totals(queue.status()) == (1, 0, 0, 1)
        record = {"schema": 2, "key": "dropped-in", "payload": {"tag": 1.0}}
        path = queue.jobs_dir / f"{WorkQueue._digest('dropped-in')}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        assert _totals(queue.status()) == (2, 0, 0, 2)
        claimed = set()
        while (lease := queue.claim("w0")) is not None:
            claimed.add(lease.key)
            queue.complete(lease, _execute(lease.payload), "w0")
        assert claimed == {"queued", "dropped-in"}
        assert _totals(queue.status()) == (2, 2, 0, 0)

    def test_leftover_manifest_from_older_queue_dir_drains(self, tmp_path):
        """Older revisions kept a manifest.jsonl index next to jobs/.  A
        queue dir that still holds one (here with a torn tail and a key
        that has no job file) drains fully, with the same status()
        totals as a queue dir that never had one."""
        legacy, control = WorkQueue(tmp_path / "legacy"), WorkQueue(tmp_path / "control")
        for queue in (legacy, control):
            for key, payload in _JOBS.items():
                queue.enqueue(key, payload)
        lines = [json.dumps({"key": key}) for key in _JOBS]
        lines += [json.dumps({"key": "ghost"}), '{"key": "jo']
        (legacy.root / "manifest.jsonl").write_text("\n".join(lines), encoding="utf-8")
        assert _totals(legacy.status()) == _totals(control.status()) == (5, 0, 0, 5)
        for queue in (legacy, control):
            run_worker(queue, _execute, worker_id="w0", poll_interval=0.02)
        assert legacy.drained()
        assert _totals(legacy.status()) == _totals(control.status()) == (5, 5, 0, 0)
        merged = legacy.merge().completed()
        assert {k: _frozen(m) for k, m in merged.items()} == _oracle(_JOBS)

    def test_claim_parses_only_the_job_files_it_tries(self, tmp_path, monkeypatch):
        """claim reads one job file per acquisition attempt, never the
        whole of jobs/; status() and drained() read none."""
        queue = WorkQueue(tmp_path, lease_ttl=60.0)
        for i in range(20):
            queue.enqueue(f"job{i:02d}", {"tag": float(i)})
        held = [queue.claim(f"holder{i}") for i in range(3)]
        assert all(lease is not None for lease in held)

        reads = []
        read_json = WorkQueue._read_json

        def counting(path):
            if path.parent == queue.jobs_dir:
                reads.append(path.name)
            return read_json(path)

        monkeypatch.setattr(queue, "_read_json", counting)
        lease = queue.claim("w0")
        assert lease is not None
        # the three held jobs come first in digest order: each costs one
        # read and a failed acquisition, then the fourth read wins
        assert len(reads) == len(held) + 1
        reads.clear()
        assert _totals(queue.status()) == (20, 0, 0, 20)
        assert not queue.drained()
        assert reads == []
        for claimed in held + [lease]:
            claimed.release()


# -- graceful solver degradation --------------------------------------------------


class TestWoodburyDegradation:
    def _pair(self):
        from repro.layout.die import StackConfig
        from repro.layout.grid import GridSpec
        from repro.thermal.stack import build_stack

        cfg = StackConfig.square(2000.0)
        grid = GridSpec(cfg.outline, 12, 12)
        base = build_stack(cfg, grid)
        density = np.zeros(grid.shape)
        density[4:6, 4:8] = 0.55
        return grid, base, build_stack(cfg, grid, tsv_density=density)

    def test_forced_singular_core_falls_back_and_stays_exact(self):
        from repro.thermal.steady_state import SteadyStateSolver, WoodburySolver

        grid, base_stack, mod_stack = self._pair()
        base = SteadyStateSolver(base_stack)
        before = faults.snapshot_degradations()
        with injected("woodbury.singular_core=fail@after:1"):
            solver = WoodburySolver(base, mod_stack, crossover_rank=10_000)
        assert solver.fallback_reason == "singular-core"
        assert faults.degradations_since(before)[
            "woodbury.fallback.singular-core"
        ] == 1
        rng = np.random.default_rng(0)
        pm = [rng.random(grid.shape) * 0.01 for _ in range(2)]
        oracle = SteadyStateSolver(mod_stack).solve(pm)
        assert np.allclose(solver.solve(pm).nodal, oracle.nodal, rtol=1e-9)

    def test_forced_probe_failure_falls_back_and_stays_exact(self):
        from repro.thermal.steady_state import SteadyStateSolver, WoodburySolver

        grid, base_stack, mod_stack = self._pair()
        base = SteadyStateSolver(base_stack)
        before = faults.snapshot_degradations()
        with injected("woodbury.probe=fail@after:1"):
            solver = WoodburySolver(base, mod_stack, crossover_rank=10_000)
        assert solver.fallback_reason == "residual"
        assert faults.degradations_since(before)["woodbury.fallback.residual"] == 1
        rng = np.random.default_rng(1)
        pm = [rng.random(grid.shape) * 0.01 for _ in range(2)]
        oracle = SteadyStateSolver(mod_stack).solve(pm)
        assert np.allclose(solver.solve(pm).nodal, oracle.nodal, rtol=1e-9)


# -- SIGTERM: polite kills release the lease --------------------------------------


def _sigterm_worker(queue_dir, claimed_path):
    """Claim a job whose executor stalls; the parent SIGTERMs us."""
    def stall(payload):
        claimed_path_obj = claimed_path
        with open(claimed_path_obj, "w", encoding="utf-8") as fh:
            fh.write("claimed")
        time.sleep(600.0)

    queue = WorkQueue(queue_dir, lease_ttl=300.0)
    run_worker(queue, stall, worker_id="polite-victim", poll_interval=0.02)


class TestSigtermRelease:
    def test_sigterm_releases_lease_immediately(self, tmp_path):
        """A polite kill must not strand the lease until TTL expiry: the
        handler converts SIGTERM to SystemExit(143), run_worker releases
        the claim, and a survivor can claim the job at once — against a
        300 s TTL that SIGKILL recovery would have to wait out."""
        queue = WorkQueue(tmp_path, lease_ttl=300.0)
        queue.enqueue("j", {"tag": 4.0})
        claimed = tmp_path / "claimed.txt"
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_sigterm_worker, args=(str(tmp_path), str(claimed)))
        proc.start()
        try:
            deadline = time.time() + 60.0
            while not claimed.exists() and time.time() < deadline:
                time.sleep(0.02)
            assert claimed.exists(), "worker never claimed the job"
            os.kill(proc.pid, signal.SIGTERM)
            proc.join(timeout=30.0)
        finally:
            if proc.is_alive():  # pragma: no cover - sigterm failed
                proc.kill()
                proc.join()
        assert proc.exitcode == 143
        # the lease is already gone — no TTL wait, no stale entry
        assert list(queue.leases_dir.glob("*.lease")) == []
        assert queue.failures() == {}  # interrupted, not failed
        lease = queue.claim("survivor")
        assert lease is not None and lease.key == "j"
        queue.complete(lease, _metrics(4.0), "survivor")
        assert queue.drained()


# -- env-var plumbing to real spawned workers -------------------------------------


class TestEnvPlanInheritance:
    def test_spawned_interpreter_inherits_env_plan(self, tmp_path):
        """REPRO_FAULTS reaches a fresh interpreter with no code changes —
        the mechanism `cli work` pools rely on for chaos drills."""
        env = dict(os.environ)
        env["REPRO_FAULTS"] = "store.append=eio@after:1"
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        code = (
            "from repro.core import faults\n"
            "plan = faults.active_plan()\n"
            "assert plan is not None and plan.from_env\n"
            "import errno\n"
            "try:\n"
            "    faults.fault_point('store.append')\n"
            "    raise SystemExit('fault did not fire')\n"
            "except OSError as exc:\n"
            "    assert exc.errno == errno.EIO\n"
            "print('env-plan-ok')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, cwd=os.getcwd(), capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "env-plan-ok" in out.stdout


# -- randomized-seed chaos (CI logs the seed for reproduction) --------------------


class TestRandomizedChaos:
    def test_probabilistic_faults_converge_for_any_seed(self, tmp_path):
        """The non-blocking CI leg: REPRO_CHAOS_SEED randomizes the
        Bernoulli fault stream; retry budgets must absorb any draw.  The
        seed is printed so a failing draw is reproducible."""
        seed = int(os.environ.get("REPRO_CHAOS_SEED", "20260808"))
        print(f"REPRO_CHAOS_SEED={seed}")
        spec = (
            f"store.append=eio@prob:0.2:{seed};"
            f"queue.lease=eio@prob:0.1:{seed + 1}"
        )
        queue = _chaos_queue(tmp_path, max_attempts=6)
        for key, payload in _JOBS.items():
            queue.enqueue(key, payload)
        with injected(spec) as plan:
            run_worker(queue, _execute, worker_id="chaos", poll_interval=0.02)
            report = plan.report()
        assert report["store.append"]["arrivals"] > 0
        merged = queue.merge().completed()
        assert {k: _frozen(m) for k, m in merged.items()} == _oracle(_JOBS), (
            f"chaos sweep diverged for REPRO_CHAOS_SEED={seed}"
        )
