"""Filesystem-coordinated distributed work queue over :class:`ResultsStore` keys.

Paper-scale design-space exploration (Sec. 6, Table 2) means 50-run
sweeps across six benchmarks and multiple mitigation modes — more flows
than one host clears in a sitting.  :class:`WorkQueue` turns any
directory on a shared filesystem into a sweep coordinator: every worker
process — on one host or many — claims jobs, executes them, and records
results with nothing but atomic filesystem primitives.  No broker, no
sockets, no server to keep alive.

Layout under the queue root::

    jobs/<digest>.json       one spec per job: {"key", "payload"}; the
                             listing of jobs/ is the job index
    leases/<digest>.lease    exclusive claim; mtime is the heartbeat
    fences/<digest>.json     per-key fencing token: {"epoch", "steals"}
    shards/<worker>.jsonl    per-worker ResultsStore shard (append-only)
    failures/<digest>.json   last recorded execution failure per job
    quarantine/<digest>.json poison jobs taken out of circulation
    results.jsonl            merged store (see :meth:`WorkQueue.merge`)
    merge.lock               serializes concurrent merges

Coordination rules:

* **Claim** — a lease file created with ``O_CREAT | O_EXCL``; exactly one
  worker wins.  Candidates come from listing ``jobs/`` in digest order;
  only the job files a worker tries to acquire are read.  Every claim
  bumps the job's **fencing epoch** (a monotonic per-key counter in
  ``fences/``) and embeds it in the lease and, at completion, in the
  shard record.  Workers heartbeat by refreshing the lease mtime while
  the job runs.
* **Reclaim** — a lease whose mtime is older than ``lease_ttl`` belongs
  to a dead worker.  Stealing it goes through an ``O_EXCL`` steal marker
  named after the expired lease file's inode and mtime, and the lease is
  removed only while it is still that file, so of N workers that notice
  the same expired lease, exactly one reclaims the job — at a *higher*
  epoch.  A zombie worker that was merely stalled (NFS clock skew, a
  long GC pause) can still finish and append its result, but that
  record carries the fenced-out epoch and :meth:`merge` discards it:
  reclamation can never produce a double-commit with diverging
  survivors.
* **Retry** — an execution failure consumes one unit of the job's
  ``max_attempts`` budget; while budget remains, the job becomes
  claimable again after an exponential backoff (base ``retry_backoff``,
  deterministic per-key jitter).  A job that exhausts its budget — or
  whose lease had to be stolen more than ``max_steals`` times, i.e. it
  keeps *killing* workers before they can even record a failure — lands
  in ``quarantine/`` exactly once and is never claimed again until
  :meth:`clear_failure` opts it back in.
* **Completion** — the result is appended to the *claiming worker's own*
  shard before the lease drops, so no two processes ever append to one
  JSONL file concurrently.  A job counts as done when its key appears,
  at a live epoch, in any shard or the merged store.

Timestamps compare a worker's local clock against shared-filesystem
mtimes, so ``lease_ttl`` must comfortably exceed cross-host clock skew
plus the heartbeat interval; the CLI default (300 s) is conservative,
and the fencing epochs make even a mis-sized TTL safe (just slower).
Queue I/O routes through :func:`~repro.core.faults.retry_io` (transient
fs errors cost a bounded retry) and is instrumented with fault-injection
sites (``queue.job``, ``queue.lease``, ``queue.fence``,
``queue.complete``) for the chaos suite.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import traceback
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from . import faults
from .faults import fault_point, retry_io
from .results import FlowMetrics
from .store import ResultsStore, artifact_digest

__all__ = ["Lease", "QueueStatus", "WorkQueue", "run_worker", "worker_name"]

#: executes one claimed job: payload dict -> metrics record
Executor = Callable[[dict], FlowMetrics]

#: bump when job/lease/failure record layouts change
_SCHEMA = 2

#: recorded error strings are capped so quarantine triage stays greppable
#: (a stack of recursive-flow tracebacks once weighed in at megabytes)
_MAX_ERROR_CHARS = 4000

#: job states assigned by :meth:`WorkQueue._classify`
_DONE, _QUARANTINED, _FAILED, _BACKOFF, _RUNNABLE = (
    "done", "quarantined", "failed", "backoff", "runnable"
)


def worker_name() -> str:
    """Default worker identity: unique per process across pool hosts."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, timezone.utc).isoformat(timespec="seconds")


def _truncate_error(error: str) -> str:
    """Bound an error string, keeping the head and the (most useful) tail."""
    error = str(error)
    if len(error) <= _MAX_ERROR_CHARS:
        return error
    head = error[: _MAX_ERROR_CHARS // 4]
    tail = error[-(_MAX_ERROR_CHARS - len(head) - 32) :]
    return f"{head}\n... [{len(error)} chars truncated] ...\n{tail}"


def _write_record(path: Path, record: dict, site: str) -> None:
    """Atomically replace ``path`` with the JSON ``record``: a temp file
    renamed over it, retried and fault-injected at ``site``.  The temp
    file never outlives the call, whether the rename landed or not."""
    data = json.dumps(record, sort_keys=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")

    def write() -> None:
        fault_point(site)
        tmp.write_text(data, encoding="utf-8")
        os.replace(tmp, path)

    try:
        retry_io(write, site=site)
    finally:
        try:
            tmp.unlink()
        except OSError:
            pass


@dataclass
class Lease:
    """An exclusive, heartbeat-kept claim on one queued job."""

    key: str
    payload: dict
    path: Path
    #: fencing token: the epoch this claim runs at (0 = legacy/unknown)
    epoch: int = 0
    worker: str = ""

    def heartbeat(self) -> None:
        """Refresh the lease mtime so other workers see this job live.

        A missing lease (stolen after an expiry this worker caused by
        stalling) is not an error: the job may then run twice, and the
        fenced shard merge discards the stale completion.
        """
        try:
            os.utime(self.path)
        except OSError:
            pass

    def release(self) -> None:
        """Drop the claim — unless the lease now belongs to a newer epoch.

        After a reclamation, the lease *path* is the same file but the
        record inside carries the stealer's epoch; a zombie releasing
        blindly would unlink the stealer's live claim and invite a third
        execution.  Best-effort (read-then-unlink is not atomic), but it
        closes the common window.
        """
        try:
            record = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            record = None
        if (
            record is not None
            and self.epoch
            and record.get("epoch") not in (None, self.epoch)
        ):
            return  # fenced out: someone else holds this lease now
        try:
            self.path.unlink()
        except OSError:
            pass


@dataclass
class QueueStatus:
    """One progress snapshot of a queue (see :meth:`WorkQueue.status`)."""

    total: int
    completed: int
    failed: int
    claimed: int
    pending: int
    #: live leases: {"key", "worker", "age_s"} per in-flight job
    active: List[Dict[str, object]]
    #: expired leases not yet reclaimed (crashed workers)
    stale: List[Dict[str, object]]
    #: per-job failure records keyed by job key (unresolved jobs only)
    failures: Dict[str, Dict[str, object]]
    #: poison jobs taken out of circulation, keyed by job key
    quarantined: Dict[str, Dict[str, object]] = field(default_factory=dict)


class WorkQueue:
    """A distributed work queue rooted at one shared directory.

    Safe for any number of concurrent readers and claimers; the only
    single-writer file is each worker's own shard.  ``lease_ttl`` is the
    seconds of missed heartbeats after which a claim counts as dead.

    ``max_attempts`` is the per-job execution-failure budget: 1 (the
    default, the pre-retry behaviour) records the first failure as
    terminal; higher values re-claim the job after an exponential
    backoff of ``retry_backoff * 2**(attempt-1)`` seconds plus a
    deterministic per-key jitter.  ``max_steals`` bounds how many times
    an expired lease may be stolen before the job is presumed to *kill*
    its workers and is quarantined (``None`` = unlimited, matching the
    original reclaim-forever behaviour).
    """

    def __init__(
        self,
        root: str | Path,
        lease_ttl: float = 300.0,
        max_attempts: int = 1,
        retry_backoff: float = 1.0,
        max_steals: Optional[int] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if max_steals is not None and max_steals < 1:
            raise ValueError("max_steals must be >= 1 (or None for unlimited)")
        self.root = Path(root)
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self.retry_backoff = float(retry_backoff)
        self.max_steals = max_steals
        self.jobs_dir = self.root / "jobs"
        self.leases_dir = self.root / "leases"
        self.shards_dir = self.root / "shards"
        self.failures_dir = self.root / "failures"
        self.fences_dir = self.root / "fences"
        self.quarantine_dir = self.root / "quarantine"
        for directory in (
            self.jobs_dir, self.leases_dir, self.shards_dir,
            self.failures_dir, self.fences_dir, self.quarantine_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        #: consolidated results (populated by :meth:`merge`)
        self.store = ResultsStore(self.root)
        #: shard stores memoized per filename (each memoizes by file stamp)
        self._shards: Dict[str, ResultsStore] = {}
        #: fencing epochs memoized against the fences-dir mtime
        self._fence_cache: Optional[Tuple[int, Dict[str, int]]] = None

    # -- job intake ------------------------------------------------------------

    @staticmethod
    def _digest(key: str) -> str:
        return artifact_digest("queue-job", key)

    def enqueue(self, key: str, payload: dict) -> bool:
        """Queue one job; idempotent by key (the first spec wins).

        ``payload`` must be JSON-serializable and is handed verbatim to
        the executor on the claiming worker.  Returns True when this call
        added the job, False when it was already queued.
        """
        path = self.jobs_dir / f"{self._digest(key)}.json"
        if path.exists():
            return False
        # racing enqueuers of one key tolerated
        _write_record(path, {"schema": _SCHEMA, "key": key, "payload": payload}, "queue.job")
        return True

    def _job_digests(self) -> List[str]:
        """Digests of every job file in jobs/, sorted (no file is read)."""
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.jobs_dir)
            if name.endswith(".json")
        )

    def _read_job(self, digest: str) -> Optional[Tuple[str, dict]]:
        """``(key, payload)`` of one job file, or None when torn/absent."""
        record = self._read_json(self.jobs_dir / f"{digest}.json")
        if record is None or record.get("schema", 0) > _SCHEMA:
            return None
        key, payload = record.get("key"), record.get("payload")
        if not isinstance(key, str) or not isinstance(payload, dict):
            return None
        return key, payload

    @staticmethod
    def _read_json(path: Path) -> Optional[dict]:
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            # torn concurrent write or vanished file; callers skip it
            return None
        return loaded if isinstance(loaded, dict) else None

    # -- fencing tokens --------------------------------------------------------

    def _fence_path(self, key: str) -> Path:
        return self.fences_dir / f"{self._digest(key)}.json"

    def _read_fence(self, key: str) -> Dict[str, int]:
        record = self._read_json(self._fence_path(key)) or {}
        return {
            "epoch": int(record.get("epoch", 0)),
            "steals": int(record.get("steals", 0)),
        }

    def _write_fence(self, key: str, epoch: int, steals: int) -> None:
        record = {
            "schema": _SCHEMA, "key": key,
            "epoch": int(epoch), "steals": int(steals),
        }
        _write_record(self._fence_path(key), record, "queue.fence")

    def fence_epochs(self) -> Dict[str, int]:
        """Current fencing epoch per job key (memoized by dir mtime).

        A shard record whose epoch is *below* this is a zombie worker's
        post-reclamation append and must not survive a merge.
        """
        try:
            stamp = self.fences_dir.stat().st_mtime_ns
        except OSError:
            return {}
        if self._fence_cache is not None and self._fence_cache[0] == stamp:
            return self._fence_cache[1]
        out = {
            key: int(record.get("epoch", 0))
            for key, record in self._records(self.fences_dir).items()
        }
        self._fence_cache = (stamp, out)
        return out

    # -- completion state ------------------------------------------------------

    def shards(self) -> List[ResultsStore]:
        """Every worker shard currently present (stable filename order)."""
        stores = []
        for path in sorted(self.shards_dir.glob("*.jsonl")):
            store = self._shards.get(path.name)
            if store is None:
                store = ResultsStore(self.shards_dir, filename=path.name)
                self._shards[path.name] = store
            stores.append(store)
        return stores

    def shard_for(self, worker_id: str) -> ResultsStore:
        """The single-writer shard this worker appends its results to."""
        return ResultsStore(self.shards_dir, filename=f"{worker_id}.jsonl")

    def completed(self) -> Dict[str, FlowMetrics]:
        """Merged-store results unioned with every worker shard.

        Fence-filtered: a record carrying an epoch older than the key's
        current fence was appended by a worker that had already lost its
        lease — treating it as a completion would let a zombie mask a
        job whose legitimate re-execution never finished.
        """
        fences = self.fence_epochs()

        def live(key: str, epoch: Optional[int]) -> bool:
            return epoch is None or epoch >= fences.get(key, 0)

        out: Dict[str, FlowMetrics] = {}
        for key, (metrics, epoch) in self.store.records().items():
            if live(key, epoch):
                out[key] = metrics
        for shard in self.shards():
            for key, (metrics, epoch) in shard.records().items():
                if key not in out and live(key, epoch):
                    out[key] = metrics
        return out

    @contextmanager
    def _merge_lock(self) -> Iterator[None]:
        """Serialize shard consolidation across processes and hosts.

        Contenders spin on the O_EXCL lock file (a merge is one dedup
        read plus a handful of appends — fast); a lock whose holder died
        goes stale after ``lease_ttl`` and is stolen through the same
        :meth:`_steal` protocol as job leases.
        """
        path = self.root / "merge.lock"
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                try:
                    seen = path.stat()
                except OSError:
                    continue  # released under us; retry at once
                if faults.now() - seen.st_mtime > self.lease_ttl:
                    self._steal(path, seen)
                    continue
                time.sleep(0.05)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(worker_name())
            yield
        finally:
            try:
                path.unlink()
            except OSError:
                pass

    def merge(self, store: Optional[ResultsStore] = None) -> ResultsStore:
        """Consolidate all worker shards into ``store`` (default: the
        queue root's own ``results.jsonl``) with key-level dedup.

        Idempotent — shards stay in place as the source of truth, so a
        merge interrupted mid-append is healed by the next one.
        Concurrent callers (``work`` pools finishing on several hosts at
        once) serialize through an on-disk lock, so the merged file never
        sees interleaved appends.  Shard records from fenced-out epochs
        (zombie double-commits) are discarded.
        """
        target = store if store is not None else self.store
        with self._merge_lock():
            target.merge_shards(self.shards(), fences=self.fence_epochs())
        return target

    # -- failures & quarantine -------------------------------------------------

    def _failure_path(self, key: str) -> Path:
        return self.failures_dir / f"{self._digest(key)}.json"

    def _quarantine_path(self, key: str) -> Path:
        return self.quarantine_dir / f"{self._digest(key)}.json"

    def _retry_jitter(self, key: str, attempt: int) -> float:
        """Deterministic jitter fraction in [0, 1) (reproducible sweeps)."""
        return int(artifact_digest("retry-jitter", key, attempt)[:8], 16) / float(16**8)

    def record_failure(self, lease: Lease, error: str, worker_id: str) -> None:
        """Persist a job failure, schedule (or exhaust) its retry budget,
        and drop the claim.

        The failure record carries a bounded ``error`` string plus
        ``attempt``, ``worker``, and both epoch and ISO-8601 timestamps,
        so quarantine triage greps cleanly.  While attempts remain below
        ``max_attempts`` the record also carries ``next_retry_at`` —
        :meth:`claim` re-offers the job only after that instant.  The
        attempt that exhausts the budget moves the job to quarantine.
        """
        prev = self._read_json(self._failure_path(lease.key)) or {}
        attempt = int(prev.get("attempt", 0)) + 1
        ts = faults.now()
        record = {
            "schema": _SCHEMA,
            "key": lease.key,
            "worker": worker_id,
            "attempt": attempt,
            "error": _truncate_error(error),
            "time": ts,
            "iso": _iso(ts),
        }
        if attempt < self.max_attempts:
            delay = self.retry_backoff * (2.0 ** (attempt - 1))
            record["next_retry_at"] = ts + delay * (
                1.0 + 0.25 * self._retry_jitter(lease.key, attempt)
            )
        try:
            # last failure wins
            _write_record(self._failure_path(lease.key), record, "queue.failure")
        except OSError:
            faults.record_degradation("queue.failure_record_lost")
        if attempt >= self.max_attempts:
            self._quarantine(
                lease.key,
                reason=f"execution failed {attempt}x (budget {self.max_attempts})",
                attempts=attempt,
                worker=worker_id,
                error=record["error"],
            )
        lease.release()

    def _quarantine(
        self, key: str, reason: str, attempts: int, worker: str, error: str = ""
    ) -> bool:
        """Take a poison job out of circulation — exactly once per key.

        ``O_EXCL`` creation arbitrates racing writers; with
        ``max_attempts=1`` (failures terminal, the default) the record
        doubles as the terminal-failure marker.  Returns True when this
        call created the record.
        """
        ts = faults.now()
        record = {
            "schema": _SCHEMA,
            "key": key,
            "reason": reason,
            "attempts": int(attempts),
            "worker": worker,
            "error": _truncate_error(error),
            "time": ts,
            "iso": _iso(ts),
        }
        path = self._quarantine_path(key)

        def write() -> bool:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            try:
                os.write(fd, json.dumps(record, sort_keys=True).encode("utf-8"))
            finally:
                os.close(fd)
            return True

        try:
            return retry_io(write, site="queue.quarantine")
        except FileExistsError:
            return False  # already quarantined by another worker
        except OSError:
            faults.record_degradation("queue.quarantine_record_lost")
            return False

    def clear_failure(self, key: str) -> None:
        """Opt a failed/quarantined job back in (fresh retry budget)."""
        for path in (self._failure_path(key), self._quarantine_path(key)):
            try:
                path.unlink()
            except OSError:
                pass
        fence = self._read_fence(key)
        if fence["steals"]:
            # keep the epoch monotonic (fencing must never rewind), but
            # forget the crash history so the job gets a fresh budget
            self._write_fence(key, fence["epoch"], 0)

    def _records(self, directory: Path) -> Dict[str, Dict[str, object]]:
        """The keyed records of one directory (failures, quarantine,
        fences) by job key, in filename order; torn files are skipped."""
        out: Dict[str, Dict[str, object]] = {}
        for path in sorted(directory.glob("*.json")):
            record = self._read_json(path)
            if record and "key" in record:
                out[str(record["key"])] = record
        return out

    def failures(self) -> Dict[str, Dict[str, object]]:
        """Recorded failures keyed by job key."""
        return self._records(self.failures_dir)

    def quarantined(self) -> Dict[str, Dict[str, object]]:
        """Quarantined (poison) jobs keyed by job key."""
        return self._records(self.quarantine_dir)

    def _classify(
        self, only_keys: Optional[Set[str]] = None
    ) -> Tuple[Dict[str, str], Dict[str, dict], Dict[str, dict]]:
        """The state of every job listed in jobs/, read without parsing a
        job file.

        Returns ``(states, failures, quarantined)``.  ``states`` maps each
        job digest (only those of ``only_keys``, when given) in digest
        order to done (a live-epoch record in any shard or the merged
        store), quarantined, failed (its failure record schedules no retry:
        the recording worker's budget is spent), backoff (a retry not due
        yet) or runnable.  The record, not this instance's
        ``max_attempts``, decides, so a read-only view (the service's
        poll, ``sweep-status``) agrees with the workers that wrote it.
        The failure and quarantine records come back keyed by digest.
        :meth:`claim`, :meth:`status`, :meth:`drained` and the service
        all read the queue through this one view.
        """
        done = {self._digest(key) for key in self.completed()}
        failures = {self._digest(key): r for key, r in self.failures().items()}
        quarantined = {
            self._digest(key): r for key, r in self.quarantined().items()
        }
        wanted = (
            None if only_keys is None else {self._digest(key) for key in only_keys}
        )
        now_ts = faults.now()
        states: Dict[str, str] = {}
        for digest in self._job_digests():
            if wanted is not None and digest not in wanted:
                continue
            failure = failures.get(digest)
            if digest in done:
                states[digest] = _DONE
            elif digest in quarantined:
                states[digest] = _QUARANTINED
            elif failure is None:
                states[digest] = _RUNNABLE
            elif "next_retry_at" not in failure:
                # record_failure schedules a retry only while budget remains
                states[digest] = _FAILED
            elif now_ts < float(failure["next_retry_at"]):
                states[digest] = _BACKOFF
            else:
                states[digest] = _RUNNABLE
        return states, failures, quarantined

    # -- claiming --------------------------------------------------------------

    def _lease_path(self, key: str) -> Path:
        return self.leases_dir / f"{self._digest(key)}.lease"

    def _steal(self, path: Path, seen: os.stat_result) -> bool:
        """Remove the expired file instance ``seen`` from ``path``; False
        when another worker got there first.

        Of all workers that judged this instance expired, only the one
        that creates its steal marker may remove it, and only while
        ``path`` still holds that instance: a late stealer must never
        remove the fresh file an earlier stealer just created there.  A
        marker older than ``lease_ttl`` was left by a stealer that died
        inside this short section, and is reaped.
        """
        marker = path.with_name(f"{path.name}.steal-{seen.st_ino}-{seen.st_mtime_ns}")
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            try:
                if faults.now() - marker.stat().st_mtime > self.lease_ttl:
                    marker.unlink()
            except OSError:
                pass
            return False
        try:
            current = path.stat()
            if (current.st_ino, current.st_mtime_ns) != (seen.st_ino, seen.st_mtime_ns):
                return False
            path.unlink()
            return True
        except FileNotFoundError:
            return False  # released under us
        finally:
            try:
                marker.unlink()
            except OSError:
                pass

    def _try_acquire(self, key: str, payload: dict, worker_id: str) -> Optional[Lease]:
        """One O_EXCL claim attempt, reclaiming an expired lease if present.

        Every successful acquisition bumps the key's fencing epoch
        *before* the lease record lands, so by the time this claim is
        visible, any older claim is already fenced out of the merge.
        """
        path = self._lease_path(key)
        steal_bump = 0
        for _ in range(2):  # second pass runs after stealing a stale lease
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    seen = path.stat()
                except OSError:
                    continue  # released under us; retry the create at once
                if faults.now() - seen.st_mtime <= self.lease_ttl:
                    return None  # live claim elsewhere
                if not self._steal(path, seen):
                    return None  # lost the steal race
                steal_bump = 1
                fence = self._read_fence(key)
                steals = fence["steals"] + 1
                if self.max_steals is not None and steals > self.max_steals:
                    # the job keeps killing claimants before they can even
                    # record a failure: poison — quarantine, don't re-run
                    self._write_fence(key, fence["epoch"], steals)
                    self._quarantine(
                        key,
                        reason=(
                            f"lease expired under {steals} successive workers "
                            f"(max_steals {self.max_steals}); crash-looping job"
                        ),
                        attempts=steals,
                        worker=worker_id,
                    )
                    return None
                continue
            # we hold the new lease file; fence out every older epoch first
            fence = self._read_fence(key)
            epoch = fence["epoch"] + 1
            record = {
                "schema": _SCHEMA,
                "key": key,
                "worker": worker_id,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "epoch": epoch,
                "claimed_at": faults.now(),
            }
            try:
                self._write_fence(key, epoch, fence["steals"] + steal_bump)
                fault_point("queue.lease")
                os.write(fd, json.dumps(record, sort_keys=True).encode("utf-8"))
            except BaseException:
                # never leave a half-claimed lease behind: a lingering
                # empty lease would block the job until TTL expiry
                os.close(fd)
                try:
                    path.unlink()
                except OSError:
                    pass
                raise
            os.close(fd)
            return Lease(
                key=key, payload=payload, path=path, epoch=epoch, worker=worker_id
            )
        return None

    def claim(
        self, worker_id: str, only_keys: Optional[Set[str]] = None
    ) -> Optional[Lease]:
        """Claim one runnable job, or None when nothing is claimable now.

        Lists jobs/ in digest order (see :meth:`_classify`), skipping
        completed keys (any shard or the merged store, at a live epoch),
        quarantined keys, failures whose retry budget is exhausted or
        whose backoff has not elapsed, and live leases; expired leases
        are reclaimed.  Only the job files this call tries to acquire are
        read.  ``only_keys`` restricts the scan to a subset of job keys —
        how ``run_batch`` keeps its workers off unrelated jobs sharing
        the queue directory.  ``None`` does not mean the sweep is
        finished — other workers may still hold live leases (see
        :meth:`status` or :func:`run_worker`).
        """
        states, _, _ = self._classify(only_keys)
        for digest, state in states.items():
            if state != _RUNNABLE:
                continue
            job = self._read_job(digest)
            if job is None:
                continue  # torn or vanished job file
            key, payload = job
            lease = retry_io(
                lambda: self._try_acquire(key, payload, worker_id), site="queue.lease"
            )
            if lease is None:
                continue
            # the key may have completed between the scan and the claim
            # (another worker's shard append); never run it twice knowingly
            if key in self.completed():
                lease.release()
                continue
            return lease
        return None

    # -- completion ------------------------------------------------------------

    def complete(self, lease: Lease, metrics: FlowMetrics, worker_id: str) -> None:
        """Durably record a finished job, then drop the claim.

        The shard append — stamped with the claim's fencing epoch —
        lands (fsynced) *before* the lease is released: a crash in
        between leaves a completed job with a lease that merely expires —
        never a released lease with a lost result.
        """
        self.shard_for(worker_id).append(
            lease.key, metrics, epoch=lease.epoch or None
        )
        fault_point("queue.complete")
        lease.release()

    # -- inspection ------------------------------------------------------------

    def status(self) -> QueueStatus:
        """Snapshot progress: totals, live/stale leases, failures,
        quarantine.

        Keys come from the lease, failure and quarantine records; no job
        file is parsed."""
        states, failures, quarantined = self._classify()
        now_ts = faults.now()
        active: List[Dict[str, object]] = []
        stale: List[Dict[str, object]] = []
        for path in sorted(self.leases_dir.glob("*.lease")):
            record = self._read_json(path) or {}
            try:
                seen = path.stat()
            except OSError:
                continue  # released between the glob and the stat
            age = now_ts - seen.st_mtime
            if age > self.lease_ttl and states.get(path.stem) == _DONE:
                # completed but never released (died post-append): reap
                # rather than reporting a forever-stale ghost
                self._steal(path, seen)
                continue
            entry = {
                "key": record.get("key", path.stem),
                "worker": record.get("worker", "?"),
                "age_s": age,
            }
            (stale if age > self.lease_ttl else active).append(entry)
        unresolved = [digest for digest, state in states.items() if state != _DONE]
        completed = len(states) - len(unresolved)
        failed = sum(1 for d in unresolved if d in failures or d in quarantined)
        return QueueStatus(
            total=len(states),
            completed=completed,
            failed=failed,
            claimed=len(active),
            pending=len(unresolved) - failed,
            active=active,
            stale=stale,
            failures={
                str(failures[d]["key"]): failures[d]
                for d in unresolved if d in failures
            },
            quarantined={
                str(quarantined[d]["key"]): quarantined[d]
                for d in unresolved if d in quarantined
            },
        )

    def drained(self, only_keys: Optional[Set[str]] = None) -> bool:
        """True when every queued job (or every job in ``only_keys``) has
        completed, exhausted its failure budget, or been quarantined.

        A failure with retry budget (and backoff) remaining does *not*
        drain the queue — a waiting worker will re-claim it."""
        states, _, _ = self._classify(only_keys)
        return all(
            state in (_DONE, _QUARANTINED, _FAILED) for state in states.values()
        )


def _heartbeat_loop(lease: Lease, stop: threading.Event, interval: float) -> None:
    while not stop.wait(interval):
        lease.heartbeat()


def run_worker(
    queue: WorkQueue,
    execute: Executor,
    worker_id: Optional[str] = None,
    max_jobs: Optional[int] = None,
    wait: bool = True,
    poll_interval: Optional[float] = None,
    only_keys: Optional[Set[str]] = None,
    watch: bool = False,
) -> int:
    """Drain a queue: claim, execute, record, repeat.  Returns jobs done.

    ``only_keys`` scopes the worker to a subset of the queue's jobs
    (claiming and the ``wait`` drain condition both respect it): a
    ``run_batch`` call sharing a persistent queue directory with other
    sweeps must neither execute nor block on their jobs.

    Each claimed job runs under a daemon heartbeat thread, beating every
    quarter of the queue's lease TTL, so long flows keep their lease
    fresh.  Per-job failures are recorded to the queue with
    retry/backoff semantics (other jobs still run; callers decide
    whether missing results are fatal); ``KeyboardInterrupt`` /
    ``SystemExit`` release the claim un-failed and propagate, so an
    interrupted worker's job is simply picked up by a survivor.  When
    running in a process main thread, ``SIGTERM`` is converted into
    ``SystemExit`` so a *polite* kill releases the held lease at once
    (the shard is already fsynced per append) instead of stranding it
    until TTL expiry.

    ``wait=True`` keeps the worker polling while unclaimed work might
    still materialize — i.e. until every queued job is completed,
    terminally failed, or quarantined — which is what lets a surviving
    worker outlive a crashed one and reclaim its expired lease.
    ``wait=False`` exits at the first moment nothing is claimable.
    ``watch=True`` never exits on a drained queue at all: the worker
    becomes a daemon tailing a *live* queue (the evaluation service's
    fan-out target, ``repro.cli work --watch``), executing jobs as
    producers enqueue them, until ``max_jobs`` or an interrupt/SIGTERM
    stops it.
    """
    worker = worker_id if worker_id is not None else worker_name()
    interval = max(queue.lease_ttl / 4.0, 0.05)
    poll = (
        poll_interval
        if poll_interval is not None
        else min(max(queue.lease_ttl / 4.0, 0.05), 2.0)
    )

    def _sigterm(signum, frame):  # pragma: no cover - exercised via subprocess
        raise SystemExit(143)

    prev_handler = None
    installed = False
    try:
        prev_handler = signal.signal(signal.SIGTERM, _sigterm)
        installed = True
    except ValueError:
        pass  # not the main thread: polite-kill handling is the caller's job

    done = 0
    try:
        while max_jobs is None or done < max_jobs:
            lease = queue.claim(worker, only_keys=only_keys)
            if lease is None:
                if watch:
                    time.sleep(poll)  # tail the live queue for new jobs
                    continue
                if not wait or queue.drained(only_keys):
                    break
                time.sleep(poll)  # in-flight work elsewhere may yet expire
                continue
            fault_point("worker.after_claim")
            stop = threading.Event()
            beater = threading.Thread(
                target=_heartbeat_loop, args=(lease, stop, interval), daemon=True
            )
            beater.start()
            try:
                metrics = execute(lease.payload)
                fault_point("worker.after_execute")
            except (KeyboardInterrupt, SystemExit):
                stop.set()
                beater.join()
                lease.release()  # unclaimed again: a surviving worker takes it
                raise
            except BaseException:
                stop.set()
                beater.join()
                queue.record_failure(lease, traceback.format_exc(), worker)
                continue
            stop.set()
            beater.join()
            try:
                queue.complete(lease, metrics, worker)
            except (KeyboardInterrupt, SystemExit):
                lease.release()
                raise
            except BaseException:
                # failing to *record* a result is a job failure, not a
                # worker death: the job retries under the normal budget
                queue.record_failure(lease, traceback.format_exc(), worker)
                continue
            done += 1
    finally:
        if installed and prev_handler is not None:
            signal.signal(signal.SIGTERM, prev_handler)
    return done
