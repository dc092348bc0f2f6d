"""In-process state of the evaluation service.

One :class:`ServiceState` owns everything the HTTP frontend
(:mod:`repro.service.http`) is a shell over: the job table, a bounded
worker pool of executor threads sharing the process-wide warm
:class:`~repro.thermal.steady_state.SolverCache`, the optional
:class:`~repro.core.store.ResultsStore` making results durable, and the
optional :class:`~repro.core.queue.WorkQueue` fan-out for jobs too big
to run in-process.

Concurrency contract (the part worth reading twice):

* **Dedupe at admission, not at execution.**  A spec whose key is
  already durable in the store is answered from the record immediately
  (``dispatch="store"``, ``reused=True``) — no solver touched.  A spec
  admitted while an *identical* job is still in flight becomes its own
  job: the per-key :class:`asyncio.Lock` serializes the two, so the
  second executes after the first and deterministically rides the warm
  solver cache (its :attr:`~repro.api.JobResult.solver_cache` deltas
  show hits, not misses).  Admission decisions are final — a job that
  was admitted to run, runs, which is what makes the warm-path
  behaviour testable instead of racy.
* **Flows run in executor threads**, bounded by one semaphore sized to
  the worker pool; the shared ``SolverCache`` is thread-safe (internal
  RLock) so concurrent distinct jobs can miss/fill it in parallel.
* **Progress events** cross from the executor thread into the event
  loop via ``call_soon_threadsafe`` and fan out to any number of NDJSON
  streams through one :class:`asyncio.Condition` per job.
"""

from __future__ import annotations

import asyncio
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import AsyncIterator, Dict, List, Optional, Union

from ..api import JobResult, JobSpec, run_flow_job
from ..core.store import ResultsStore

__all__ = ["ServiceJob", "ServiceState"]

#: terminal job states (the event stream closes when one is reached)
_TERMINAL = ("completed", "failed")


@dataclass
class ServiceJob:
    """One admitted submission and everything observed about it."""

    id: str
    spec: JobSpec
    status: str = "queued"  # queued | running | completed | failed
    #: how the job was satisfied: "inline" (executor thread),
    #: "queue" (fanned out to distributed workers), "store" (replayed
    #: from the durable record without any computation)
    dispatch: str = "inline"
    result: Optional[JobResult] = None
    error: Optional[str] = None
    events: List[dict] = field(default_factory=list)

    def document(self) -> dict:
        """The JSON body served for ``GET /v1/jobs/<id>``."""
        return {
            "id": self.id,
            "status": self.status,
            "dispatch": self.dispatch,
            "spec": self.spec.to_json(),
            "result": self.result.to_json() if self.result is not None else None,
            "error": self.error,
            "events": len(self.events),
        }


class ServiceState:
    """Job table + worker pool + shared caches behind the HTTP surface."""

    def __init__(
        self,
        store_dir: Union[str, Path, None] = None,
        queue_dir: Union[str, Path, None] = None,
        workers: int = 2,
        queue_threshold: Optional[int] = None,
        lease_ttl: float = 300.0,
        poll_interval: float = 0.25,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_threshold is not None and queue_dir is None:
            raise ValueError("queue_threshold needs a queue_dir to fan out to")
        self.store = ResultsStore(store_dir) if store_dir is not None else None
        self.queue_dir = str(queue_dir) if queue_dir is not None else None
        self.queue_threshold = queue_threshold
        self.lease_ttl = lease_ttl
        self.workers = workers
        self.poll_interval = poll_interval
        self.jobs: Dict[str, ServiceJob] = {}
        self.counters = {"submitted": 0, "completed": 0, "failed": 0, "reused": 0}
        self._seq = 0
        self._key_locks: Dict[str, asyncio.Lock] = {}
        self._semaphore = asyncio.Semaphore(workers)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-job"
        )
        self._conditions: Dict[str, asyncio.Condition] = {}
        self._tasks: List[asyncio.Task] = []

    # -- admission ---------------------------------------------------------------

    def submit(self, spec: JobSpec) -> ServiceJob:
        """Admit one spec; returns its (new) service job immediately.

        Must run on the event loop — admission is what the concurrency
        contract hangs off, and the single-threaded loop is what makes
        the store-check + job-creation sequence atomic.
        """
        self._seq += 1
        self.counters["submitted"] += 1
        job_id = f"{spec.job_id()}-{self._seq}"
        job = ServiceJob(id=job_id, spec=spec)
        self.jobs[job_id] = job
        self._conditions[job_id] = asyncio.Condition()

        if self.store is not None:
            recorded = self.store.get(spec.key())
            if recorded is not None:
                job.dispatch = "store"
                job.result = JobResult(
                    job_id=spec.job_id(), key=spec.key(),
                    status="completed", reused=True, metrics=recorded,
                )
                self.counters["reused"] += 1
                self._finish(job, "completed")
                return job

        if (
            self.queue_threshold is not None
            and spec.iterations >= self.queue_threshold
        ):
            job.dispatch = "queue"
        task = asyncio.get_running_loop().create_task(self._run(job))
        self._tasks.append(task)
        self._tasks = [t for t in self._tasks if not t.done()]
        return job

    async def wait(self, job: ServiceJob) -> ServiceJob:
        """Block until ``job`` reaches a terminal state."""
        cond = self._conditions[job.id]
        async with cond:
            await cond.wait_for(lambda: job.status in _TERMINAL)
        return job

    # -- execution ---------------------------------------------------------------

    def _key_lock(self, key: str) -> asyncio.Lock:
        lock = self._key_locks.get(key)
        if lock is None:
            lock = self._key_locks[key] = asyncio.Lock()
        return lock

    async def _run(self, job: ServiceJob) -> None:
        loop = asyncio.get_running_loop()
        try:
            async with self._key_lock(job.spec.key()):
                async with self._semaphore:
                    job.status = "running"
                    self._push_event(job, {"stage": "service", "status": "running",
                                           "dispatch": job.dispatch})
                    if job.dispatch == "queue":
                        result = await self._run_queued(job)
                    else:
                        def progress(event: dict) -> None:
                            loop.call_soon_threadsafe(self._push_event, job, event)

                        result = await loop.run_in_executor(
                            self._executor,
                            lambda: run_flow_job(
                                job.spec,
                                store=self.store,
                                progress=progress,
                                # admission already decided this job runs:
                                # never downgrade to a store replay mid-flight
                                reuse_store=False,
                            ),
                        )
            job.result = result
            self._finish(job, "completed")
        except asyncio.CancelledError:
            job.error = "cancelled at shutdown"
            self._finish(job, "failed")
            raise
        except Exception:
            job.error = traceback.format_exc()
            self._finish(job, "failed")

    async def _run_queued(self, job: ServiceJob) -> JobResult:
        """Fan one oversized job out to the shared work queue and await it.

        The service enqueues, then polls the queue's durable state (the
        same shards ``sweep-status`` reads) until the key completes, is
        quarantined, or terminally fails — the polling mirrors what a
        human does with ``sweep-status``, just with a result at the end.
        """
        from ..api import submit as api_submit
        from ..core.queue import WorkQueue

        spec = job.spec
        loop = asyncio.get_running_loop()
        sub = await loop.run_in_executor(
            self._executor, lambda: api_submit(spec, self.queue_dir)
        )
        self._push_event(job, {"stage": "queue", "status": "enqueued",
                               "enqueued": bool(sub["enqueued"])})
        queue = WorkQueue(self.queue_dir, lease_ttl=self.lease_ttl)
        key = spec.key()

        def poll():
            """``(metrics, None)`` once the key completed, ``(None,
            record)`` once it failed for good, else ``(None, None)``."""
            metrics = queue.completed().get(key)
            if metrics is None and queue.drained({key}):
                # quarantined, out of retries, or completed since the read
                metrics = queue.completed().get(key)
                if metrics is None:
                    record = queue.quarantined().get(key) or queue.failures().get(key)
                    return None, record
            return metrics, None

        while True:
            metrics, failure = await loop.run_in_executor(self._executor, poll)
            if metrics is not None:
                if self.store is not None:
                    await loop.run_in_executor(
                        self._executor, lambda: self.store.append(key, metrics)
                    )
                self._push_event(job, {"stage": "queue", "status": "completed"})
                return JobResult(
                    job_id=spec.job_id(), key=key,
                    status="completed", reused=False, metrics=metrics,
                )
            if failure is not None:
                raise RuntimeError(
                    f"queued job {key} failed on the worker pool: "
                    f"{failure.get('error', failure.get('reason', 'unknown'))}"
                )
            await asyncio.sleep(self.poll_interval)

    # -- events ------------------------------------------------------------------

    def _push_event(self, job: ServiceJob, event: dict) -> None:
        job.events.append(dict(event))
        self._notify(job)

    def _notify(self, job: ServiceJob) -> None:
        cond = self._conditions.get(job.id)
        if cond is None:
            return

        async def wake() -> None:
            async with cond:
                cond.notify_all()

        task = asyncio.get_running_loop().create_task(wake())
        self._tasks.append(task)
        self._tasks = [t for t in self._tasks if not t.done()]

    def _finish(self, job: ServiceJob, status: str) -> None:
        job.status = status
        self.counters[status] += 1
        self._push_event(job, {"stage": "service", "status": status})

    async def events(self, job: ServiceJob) -> AsyncIterator[dict]:
        """Yield all of ``job``'s events; live-follows the job until it
        reaches a terminal state, then drains and stops."""
        cond = self._conditions[job.id]
        index = 0
        while True:
            while index < len(job.events):
                yield job.events[index]
                index += 1
            if job.status in _TERMINAL:
                return
            async with cond:
                await cond.wait_for(
                    lambda: index < len(job.events) or job.status in _TERMINAL
                )

    # -- introspection -----------------------------------------------------------

    def health_document(self) -> dict:
        """The ``GET /v1/healthz`` body: liveness plus warm-path visibility."""
        from ..thermal.steady_state import default_solver_cache

        return {
            "status": "ok",
            "workers": self.workers,
            "jobs": dict(self.counters),
            "solver_cache": default_solver_cache().counters(),
            "store": str(self.store.path) if self.store is not None else None,
            "queue_dir": self.queue_dir,
        }

    async def close(self) -> None:
        """Cancel in-flight work and release the executor (test teardown)."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._executor.shutdown(wait=True, cancel_futures=True)
