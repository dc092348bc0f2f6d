"""The Sec. 3 exploratory study, plus the multi-run batch entry point.

:func:`run_exploration` runs the detailed thermal analysis for every
combination of the five power distributions and six TSV distributions,
and reports the per-die power-temperature correlation of each.  The
paper's key initial findings, which :func:`summarize_findings` checks
programmatically:

1. large power gradients correlate most; globally uniform least;
2. many regularly arranged TSVs raise the correlation — the fewer and
   the less regular the TSVs, the lower the correlation;
3. locally uniform power with irregular TSVs or islands decorrelates.

:func:`run_batch` fans whole floorplanning flows (multiple benchmarks,
modes, and seeds) across worker processes and aggregates the resulting
:class:`~repro.core.results.FlowMetrics` — the scenario-sweep workhorse
for Table 2-style studies at paper-scale replication counts.  It is a
thin single-host frontend over the distributed queue backend
(:mod:`repro.core.queue`): jobs are enqueued into a filesystem work
queue, local worker processes drain it, and the same queue directory can
simultaneously be drained by ``repro.cli work`` pools on other hosts
sharing the filesystem.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..api import JobSpec, execute_spec
from ..core.parallel import IN_POOL_ENV, usable_cores
from ..core.queue import WorkQueue, run_worker
from ..core.results import FlowMetrics, aggregate_metrics
from ..core.store import ResultsStore
from ..layout.die import StackConfig
from ..layout.grid import GridSpec
from ..leakage.pearson import die_correlation
from ..thermal.steady_state import SolverCache, default_solver_cache
from .patterns import pattern_names, power_pattern, tsv_pattern

__all__ = [
    "ExplorationCell",
    "run_exploration",
    "summarize_findings",
    "run_batch",
    "summarize_batch",
    "summarize_mitigation_matrix",
    "format_mitigation_matrix",
    "execute_batch_payload",
    "batch_worker_main",
    "run_workers",
]

#: the Sec. 3 study's two-die stack: die side (um) and total power (W),
#: split evenly between the dies
DIE_SIDE_UM = 4000.0
TOTAL_POWER_W = 8.0


@dataclass(frozen=True)
class ExplorationCell:
    """One of the 30 combinations."""

    power_pattern: str
    tsv_pattern: str
    r_bottom: float
    r_top: float
    peak_k: float

    @property
    def r_mean(self) -> float:
        return (abs(self.r_bottom) + abs(self.r_top)) / 2.0


def run_exploration(
    grid_n: int = 32,
    seed: int = 0,
    cache: SolverCache | None = None,
    incremental: bool = False,
    topology=None,
) -> List[ExplorationCell]:
    """Evaluate all 30 power x TSV combinations on a two-die stack of
    side :data:`DIE_SIDE_UM` dissipating :data:`TOTAL_POWER_W`.

    Solvers come from ``cache`` (default: the process-wide cache), so
    repeated studies — parameter scans over power or seeds on the same
    TSV patterns — factorize each network exactly once.

    Every TSV pattern's network is factorized.  ``incremental=True``
    (opt-in, slated for deletion) instead solves the patterns after the
    first ("none", the empty interface) as low-rank Woodbury updates of
    that first factorization where the pattern is localized enough;
    dense patterns exceed the crossover and fall back to their own
    factorization automatically.

    ``topology`` (a :class:`~repro.thermal.stack.TopologyConfig`) reruns
    the same 30-cell study on a 2.5D interposer layout; ``None`` is the
    3D stack.
    """
    stack_cfg = StackConfig.square(DIE_SIDE_UM)
    grid = GridSpec(stack_cfg.outline, grid_n, grid_n)
    power_names, tsv_names = pattern_names()
    cache = cache if cache is not None else default_solver_cache()

    cells: List[ExplorationCell] = []
    base_solver = None
    for tsv_name in tsv_names:
        _, density = tsv_pattern(tsv_name, stack_cfg, grid, seed=seed)
        if not incremental or base_solver is None:
            solver = cache.solver(stack_cfg, grid, density, topology=topology)
            if base_solver is None:
                base_solver = solver
        else:
            solver = cache.incremental_solver(
                stack_cfg, grid, density, base=base_solver, topology=topology
            )
        # all five power patterns ride one factorization per TSV pattern
        pm_pairs = [
            (
                power_pattern(name, grid, TOTAL_POWER_W / 2.0, seed=seed),
                power_pattern(name, grid, TOTAL_POWER_W / 2.0, seed=seed + 1),
            )
            for name in power_names
        ]
        results = solver.solve_many([list(pair) for pair in pm_pairs])
        for power_name, (pm0, pm1), result in zip(power_names, pm_pairs, results):
            cells.append(
                ExplorationCell(
                    power_pattern=power_name,
                    tsv_pattern=tsv_name,
                    r_bottom=die_correlation(pm0, result.die_maps[0]),
                    r_top=die_correlation(pm1, result.die_maps[1]),
                    peak_k=result.peak,
                )
            )
    return cells


def summarize_findings(cells: List[ExplorationCell]) -> Dict[str, float]:
    """Condense the grid into the paper's Sec. 3 findings.

    Returns the mean |r| (both dies) for the distribution groups the
    paper contrasts, so callers (tests, benches) can assert the ordering:
    ``uniform_power < locally_uniform_with_islands`` and
    ``large_gradients_regular`` highest, etc.
    """
    def mean_r(power: List[str] | None = None, tsv: List[str] | None = None) -> float:
        sel = [
            c.r_mean
            for c in cells
            if (power is None or c.power_pattern in power)
            and (tsv is None or c.tsv_pattern in tsv)
        ]
        return float(np.mean(sel)) if sel else float("nan")

    return {
        "uniform_power": mean_r(power=["globally_uniform"]),
        "large_gradients": mean_r(power=["large_gradients"]),
        "large_gradients_regular_tsvs": mean_r(
            power=["large_gradients"], tsv=["irregular_regular", "islands_regular", "max_density"]
        ),
        "locally_uniform_islands": mean_r(
            power=["locally_uniform"], tsv=["islands", "irregular"]
        ),
        "no_tsvs": mean_r(tsv=["none"]),
        "regular_tsvs": mean_r(tsv=["irregular_regular", "islands_regular", "max_density"]),
        "irregular_or_islands": mean_r(tsv=["irregular", "islands"]),
    }


# -- multi-run batch execution ---------------------------------------------------


def execute_batch_payload(payload: dict) -> FlowMetrics:
    """Queue executor for :class:`~repro.api.JobSpec` payloads.

    This is what ``repro.cli work`` workers and the :func:`run_batch`
    frontend both run, and it goes through the same
    :func:`~repro.api.execute_spec` the service and ``repro.cli flow``
    use, so every frontend executes the exact same flow path.  Payloads
    travel as JSON (queue files, HTTP bodies), so they deserialize
    through the tolerant :meth:`JobSpec.from_json` path: a queue written
    by a newer revision with extra fields, or a legacy unstamped
    ``asdict`` payload, still executes here.
    """
    return execute_spec(JobSpec.from_json(payload)).metrics


def batch_worker_main(
    queue_dir: str,
    lease_ttl: float = 300.0,
    max_jobs: Optional[int] = None,
    only_keys: Optional[frozenset] = None,
    max_attempts: int = 1,
    retry_backoff: float = 1.0,
    watch: bool = False,
) -> int:
    """One queue-draining worker process (the ``repro.cli work`` unit).

    Claims and executes :class:`~repro.api.JobSpec` payloads until the
    queue is drained — all of it, or just ``only_keys`` when the caller
    owns a subset.
    ``max_attempts``/``retry_backoff`` set this worker's per-job retry
    budget and backoff base (see :class:`~repro.core.queue.WorkQueue`);
    with ``max_attempts > 1`` crash-steals are bounded by the same
    budget, so a poison job quarantines instead of killing the whole
    pool round after round.  ``watch=True`` turns the worker into a
    daemon that keeps tailing the queue after it drains (``repro.cli
    work --watch``), serving jobs the evaluation service fans out as
    they arrive.  Returns the number of jobs this worker completed.
    """
    # mark this process as a pool worker: tempered flows inside it run
    # their replicas serially instead of nesting a second pool
    os.environ[IN_POOL_ENV] = "1"
    queue = WorkQueue(
        queue_dir,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
        retry_backoff=retry_backoff,
        max_steals=max_attempts if max_attempts > 1 else None,
    )
    return run_worker(
        queue,
        execute_batch_payload,
        max_jobs=max_jobs,
        only_keys=only_keys,
        watch=watch,
    )


def _worker_process(conn, queue_dir: str, worker_args: dict) -> None:
    """A child process of :func:`run_workers`: one worker, whose job
    count (or the exception that ended it) goes back over ``conn``."""
    try:
        outcome = batch_worker_main(queue_dir, **worker_args)
    except Exception as exc:
        traceback.print_exc()  # the exception re-raises in the parent without it
        outcome = exc
    conn.send(outcome)
    conn.close()


def run_workers(workers: int, queue_dir: str, **worker_args) -> int:
    """Run ``workers`` copies of :func:`batch_worker_main` (which takes
    ``worker_args``) on ``queue_dir`` and return the jobs they completed.

    The one place queue workers start, for ``run_batch`` and ``repro.cli
    work`` alike.  One worker runs in this process, which counts as a
    pool worker for the duration of the call only.  More start as child
    processes; an interrupt of this process (Ctrl-C ends a ``watch``
    pool) terminates them, and a child that raised re-raises its
    exception here once every sibling has finished.  A child that died
    without reporting raises :class:`RuntimeError`.  While they run,
    SIGTERM to this process takes the Ctrl-C path: it raises
    :class:`KeyboardInterrupt` here, and the caller's handler is back in
    place when this returns.
    """
    if workers <= 1:
        before = os.environ.get(IN_POOL_ENV)
        try:
            return batch_worker_main(queue_dir, **worker_args)
        finally:
            if before is None:
                os.environ.pop(IN_POOL_ENV, None)
            else:
                os.environ[IN_POOL_ENV] = before

    ctx = multiprocessing.get_context("spawn")
    children = []
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:  # Python installs signal handlers there only
        caller_sigterm = signal.signal(signal.SIGTERM, _interrupt)
    try:
        for _ in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_process, args=(writer, queue_dir, worker_args)
            )
            proc.start()
            writer.close()  # the child holds the only writer: EOF = it died
            children.append((proc, reader))
        done, error = 0, None
        for proc, reader in children:
            try:
                outcome = reader.recv()
            except EOFError:
                proc.join()
                outcome = RuntimeError(
                    f"queue worker {proc.pid} exited with code {proc.exitcode} "
                    "without reporting"
                )
            if isinstance(outcome, BaseException):
                error = error or outcome
            else:
                done += outcome
        if error is not None:
            raise error
        return done
    finally:
        for proc, _ in children:
            if proc.is_alive():
                proc.terminate()
        for proc, reader in children:
            proc.join()
            reader.close()
        if on_main_thread:
            signal.signal(signal.SIGTERM, caller_sigterm)


def _interrupt(signum, frame) -> None:
    """SIGTERM handler of :func:`run_workers`: the Ctrl-C exit path."""
    raise KeyboardInterrupt(f"signal {signum}")


def run_batch(
    jobs: Iterable[JobSpec],
    processes: Optional[int] = None,
    store: Union[ResultsStore, str, Path, None] = None,
    queue_dir: Union[str, Path, None] = None,
    lease_ttl: float = 300.0,
) -> List[FlowMetrics]:
    """Run many flow invocations through the distributed queue backend.

    ``processes=None`` sizes the local worker pool to
    ``min(len(jobs), usable cores)``, the CPUs this process may run on;
    ``processes<=1`` drains the queue serially in-process (useful under
    profilers and in tests).  Results come back in job order.

    ``store`` (a :class:`~repro.core.store.ResultsStore` or a directory
    path) makes the sweep durable and resumable: jobs whose key is
    already recorded are returned from the store without re-running,
    every newly finished job lands durably in a worker shard the moment
    it completes, and shards are consolidated into the store when the
    sweep finishes — an interrupted 50-seed sweep loses at most the
    in-flight flows.

    ``queue_dir`` pins the work queue to a known directory so *other
    hosts* sharing the filesystem can join the same sweep with
    ``repro.cli work --queue-dir``.  Default: ``<store>/queue`` when a
    store is given (shards survive interruptions), else a temporary
    directory that vanishes with the call.

    Each worker process builds the fast thermal model once per
    (stack, grid) it meets and reuses it for the rest of its jobs.

    Each job gets one attempt: a failing job is recorded in the queue,
    its siblings run on, and the sweep ends in a :class:`RuntimeError`
    naming it.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if isinstance(store, (str, Path)):
        store = ResultsStore(store)
    done = store.completed() if store is not None else {}
    results: List[Optional[FlowMetrics]] = [done.get(job.key()) for job in jobs]
    pending = [i for i, r in enumerate(results) if r is None]
    if not pending:
        return results  # fully resumed from the store

    own_tmp: Optional[tempfile.TemporaryDirectory] = None
    if queue_dir is None:
        if store is not None:
            queue_dir = store.root / "queue"
        else:
            own_tmp = tempfile.TemporaryDirectory(prefix="repro-queue-")
            queue_dir = own_tmp.name
    try:
        queue = WorkQueue(queue_dir, lease_ttl=lease_ttl)
        for i in pending:
            key = jobs[i].key()
            queue.enqueue(key, jobs[i].to_json())
            # a re-run is an explicit request to retry previous failures
            queue.clear_failure(key)
        # a persistent queue dir may hold other sweeps' jobs (an earlier
        # interrupted run_batch with different knobs, or a live `work`
        # pool): this call's workers run — and block on — only its own
        pending_keys = frozenset(jobs[i].key() for i in pending)

        if processes is None:
            processes = usable_cores()
        # only worker *infrastructure* errors surface here; a failing flow
        # is recorded per-job in the queue and the sibling jobs keep
        # running to durable completion
        run_workers(
            max(1, min(processes, len(pending))), str(queue_dir),
            lease_ttl=lease_ttl, only_keys=pending_keys,
        )

        merged = queue.merge(store).completed()
        failures = queue.failures()
        for i in pending:
            key = jobs[i].key()
            metrics = merged.get(key)
            if metrics is None:
                detail = failures.get(key, {}).get("error", "job never completed")
                raise RuntimeError(
                    f"batch job {key} failed "
                    f"({len(failures)} failed in total); queue dir: "
                    f"{queue_dir}\n{detail}"
                )
            results[i] = metrics
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()
    return results


def summarize_batch(
    jobs: Sequence[JobSpec], metrics: Sequence[FlowMetrics]
) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Aggregate batch results per (benchmark, mode) across seeds.

    Values are the per-metric means from
    :func:`~repro.core.results.aggregate_metrics`, ready for
    :func:`~repro.core.results.format_table`.
    """
    if len(jobs) != len(metrics):
        raise ValueError("need exactly one metrics record per job")
    groups: Dict[Tuple[str, str], List[FlowMetrics]] = {}
    for job, m in zip(jobs, metrics):
        groups.setdefault((job.benchmark, job.mode), []).append(m)
    return {key: aggregate_metrics(runs) for key, runs in groups.items()}


def summarize_mitigation_matrix(
    jobs: Sequence[JobSpec], metrics: Sequence[FlowMetrics]
) -> Dict[Tuple[str, str], Dict[str, float]]:
    """The topology x mitigation-mode comparison of a sweep.

    Groups results by (topology, mitigation_mode) across benchmarks and
    seeds and reports the mean leakage figures of each cell: the detailed
    verification correlations plus — where the runtime governor ran —
    the DVFS baseline/mitigated temporal scores.  This is the static
    vs. DVFS, 3D vs. 2.5D table the sweep commands print.
    """
    if len(jobs) != len(metrics):
        raise ValueError("need exactly one metrics record per job")
    groups: Dict[Tuple[str, str], List[FlowMetrics]] = {}
    for job, m in zip(jobs, metrics):
        groups.setdefault((job.topology, job.mitigation_mode), []).append(m)
    out: Dict[Tuple[str, str], Dict[str, float]] = {}
    for key, runs in groups.items():
        cell = {
            "runs": float(len(runs)),
            "correlation_r1": float(np.mean([r.correlation_r1 for r in runs])),
            "correlation_r2": float(np.mean([r.correlation_r2 for r in runs])),
            "peak_temp_k": float(np.mean([r.peak_temp_k for r in runs])),
            "dummy_tsvs": float(np.mean([r.dummy_tsvs for r in runs])),
        }
        governed = [r for r in runs if r.mitigation_mode in ("dvfs", "combined")]
        if governed:
            cell["dvfs_baseline_r"] = float(
                np.mean([r.dvfs_baseline_r for r in governed])
            )
            cell["dvfs_mitigated_r"] = float(
                np.mean([r.dvfs_mitigated_r for r in governed])
            )
        out[key] = cell
    return out


def format_mitigation_matrix(
    matrix: Dict[Tuple[str, str], Dict[str, float]]
) -> str:
    """Text table for :func:`summarize_mitigation_matrix` output."""
    metric_names = ["runs", "correlation_r1", "correlation_r2", "peak_temp_k",
                    "dummy_tsvs", "dvfs_baseline_r", "dvfs_mitigated_r"]
    cols = sorted(matrix)
    header = f"{'metric':<18}" + "".join(
        f"{f'{t}/{m}':>16}" for t, m in cols
    )
    lines = ["topology x mitigation comparison", header, "-" * len(header)]
    for name in metric_names:
        if not any(name in matrix[c] for c in cols):
            continue
        cells = "".join(
            f"{matrix[c][name]:>16.3f}" if name in matrix[c] else f"{'-':>16}"
            for c in cols
        )
        lines.append(f"{name:<18}{cells}")
    return "\n".join(lines)
