"""Command-line interface: run flows, studies, and distributed sweeps.

Examples::

    python -m repro.cli flow n100 --mode tsc_aware --iterations 2000
    python -m repro.cli batch n100 n300 --seeds 3 -j 1
    python -m repro.cli batch n100 n300 --modes power_aware tsc_aware --seeds 4 -j 8 \
        --store runs/sweep1
    python -m repro.cli explore --grid 32
    python -m repro.cli benchmarks

``batch`` fans (benchmark, mode, seed) jobs across local worker
processes; ``-j 1`` drains them serially in-process.

Multi-host sweeps split the same thing into three verbs sharing one
queue directory on a common filesystem::

    python -m repro.cli enqueue n100 n300 --modes power_aware tsc_aware \
        --seeds 50 --queue-dir /shared/q
    python -m repro.cli work --queue-dir /shared/q --workers 8   # on every host
    python -m repro.cli sweep-status --queue-dir /shared/q

Workers claim jobs via atomic lease files and append results to
per-worker shards; crashed workers' leases expire and their jobs are
reclaimed by survivors (see :mod:`repro.core.queue`).

``serve`` runs the evaluation service — an asyncio HTTP frontend over
the same flow stack (see :mod:`repro.service` and ``docs/SERVICE.md``)::

    python -m repro.cli serve --port 8765 --store runs/service \
        --queue-dir /shared/q --queue-threshold 5000
    python -m repro.cli work --queue-dir /shared/q --watch   # fan-out drain

``sweep-status --json`` prints the same machine-readable progress
document the service exposes at ``GET /v1/queue/status``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

from .benchmarks import benchmark_names, load
from .core.results import format_table

__all__ = ["main"]

#: metrics columns of the batch comparison tables (Table 2 order)
TABLE_METRICS = [
    "correlation_r1", "spatial_entropy_s1", "correlation_r2",
    "power_w", "critical_delay_ns", "wirelength_m", "peak_temp_k",
    "voltage_volumes", "dummy_tsvs",
]


def _print_metrics(m) -> None:
    print(f"  feasible={m.feasible}  runtime={m.runtime_s:.1f}s")
    print(f"  S1={m.spatial_entropy_s1:.3f}  r1={m.correlation_r1:.3f}  "
          f"S2={m.spatial_entropy_s2:.3f}  r2={m.correlation_r2:.3f}")
    print(f"  power={m.power_w:.2f}W  delay={m.critical_delay_ns:.3f}ns  "
          f"wl={m.wirelength_m:.2f}m  peak={m.peak_temp_k:.1f}K")
    print(f"  signalTSVs={m.signal_tsvs}  dummyTSVs={m.dummy_tsvs}  "
          f"volumes={m.voltage_volumes}")


def _spec_from_args(args: argparse.Namespace, **fields):
    """One validated JobSpec from ``fields`` plus every spec field the
    command has a flag for (shared arg->spec path); JobSpec defaults the
    rest."""
    from dataclasses import fields as spec_fields

    from .api import JobSpec

    flags = {
        f.name: getattr(args, f.name)
        for f in spec_fields(JobSpec)
        if hasattr(args, f.name)
    }
    try:
        return JobSpec(**{**flags, **fields})
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_flow(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .api import JobSpec, execute_spec
    from .mitigation.dvfs import WINDOWS as DVFS_WINDOWS

    spec = _spec_from_args(args)
    config = replace(
        spec.to_flow_config(), replica_processes=args.replica_processes
    )
    outcome = execute_spec(spec, config=config)
    print(f"[{args.benchmark} / {spec.mode}]")
    if config.replicas > 1:
        res = outcome.anneal_result
        print(f"  replicas={res.replicas}  exchange_every={config.exchange_every}  "
              f"swaps={res.exchange_accepts}/{res.exchange_attempts}")
    if (spec.topology, spec.mitigation_mode) != (JobSpec.topology, JobSpec.mitigation_mode):
        print(f"  topology={spec.topology}  mitigation={spec.mitigation_mode}")
    _print_metrics(outcome.metrics)
    if outcome.mitigation is not None:
        mit = outcome.mitigation
        scored = mit.woodbury_candidates + mit.refactorized_candidates
        print(f"  mitigation: {scored} candidates scored over {mit.rounds} round(s)")
    if outcome.dvfs is not None:
        d = outcome.dvfs
        print(f"  dvfs: baseline |r|={d.baseline_score:.3f} "
              f"mitigated |r|={d.mitigated_score:.3f} "
              f"reduction={d.reduction:+.3f} "
              f"({d.traces} traces, {DVFS_WINDOWS} windows)")
    return 0


def _build_jobs(args: argparse.Namespace) -> list:
    """The (benchmark, mode, seed, topology, mitigation) JobSpec grid
    shared by batch/enqueue: the (mode, mitigation mode) pairs a flow
    accepts (:func:`~repro.core.config.pairs_with_mitigation`)."""
    from .core.config import pairs_with_mitigation
    from .floorplan.objectives import FloorplanMode

    if args.seeds < 1:
        raise SystemExit("error: --seeds must be >= 1")
    tsc = FloorplanMode.TSC_AWARE
    unpaired = [
        mit for mit in args.mitigation_modes
        if not all(pairs_with_mitigation(mode, mit) for mode in args.modes)
    ]
    if unpaired:
        print(f"note: mitigation mode(s) {', '.join(unpaired)} run only with "
              f"{tsc}; other modes pair with static only")
    jobs = [
        _spec_from_args(args, benchmark=bench, mode=mode, seed=seed,
                        topology=topology, mitigation_mode=mit)
        for topology in args.topologies
        for mit in args.mitigation_modes
        for mode in args.modes
        if pairs_with_mitigation(mode, mit)
        for bench in args.benchmarks
        for seed in range(args.seeds)
    ]
    if not jobs:
        raise SystemExit(
            f"error: mitigation mode(s) {', '.join(unpaired)} need --modes {tsc}"
        )
    return jobs


def _cmd_batch(args: argparse.Namespace) -> int:
    from .core.store import ResultsStore
    from .exploration.study import run_batch, summarize_batch

    jobs = _build_jobs(args)
    store = ResultsStore(args.store) if args.store else None
    if store is not None:
        done = store.completed()
        resumed = sum(1 for job in jobs if job.key() in done)
        if resumed:
            print(f"resuming from {args.store}: {resumed}/{len(jobs)} jobs "
                  "already recorded")
    combos = sorted({(job.topology, job.mitigation_mode) for job in jobs})
    print(f"running {len(jobs)} flow jobs "
          f"({len(args.benchmarks)} benchmarks, {len(args.modes)} modes, "
          f"{args.seeds} seeds, {len(combos)} topology/mitigation combos) "
          f"on {args.processes or 'auto'} processes")
    results = run_batch(jobs, processes=args.processes, store=store)
    summary = summarize_batch(jobs, results)
    for mode in args.modes:
        rows = {
            bench: agg
            for (bench, m), agg in summary.items()
            if m == mode
        }
        print("\n" + format_table(rows, TABLE_METRICS, title=f"setup: {mode}"))
    if len(combos) > 1:
        from .exploration.study import (
            format_mitigation_matrix,
            summarize_mitigation_matrix,
        )

        matrix = summarize_mitigation_matrix(jobs, results)
        print("\n" + format_mitigation_matrix(matrix))
    return 0


def _cmd_enqueue(args: argparse.Namespace) -> int:
    from .api import submit
    from .core.queue import WorkQueue

    jobs = _build_jobs(args)
    added = 0
    for spec in jobs:
        outcome = submit(spec, args.queue_dir, retry_failed=args.retry_failed)
        if outcome["enqueued"]:
            added += 1
    status = WorkQueue(args.queue_dir).status()
    print(f"enqueued {added} new jobs ({len(jobs) - added} already queued) "
          f"-> {args.queue_dir}")
    print(f"queue now: {status.total} total, {status.completed} completed, "
          f"{status.pending} pending")
    print(f"drain with: python -m repro.cli work --queue-dir {args.queue_dir}")
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    from .core.queue import WorkQueue
    from .exploration.study import run_workers

    workers = args.workers
    if workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    if args.max_attempts < 1:
        raise SystemExit("error: --max-attempts must be >= 1")
    try:
        # this handle only reads status and merges; the workers hold
        # their own queues with the steal budget
        queue = WorkQueue(
            args.queue_dir, lease_ttl=args.lease_ttl,
            max_attempts=args.max_attempts, retry_backoff=args.backoff,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    status = queue.status()
    if status.total == 0 and not args.watch:
        print(f"queue {args.queue_dir} is empty; enqueue jobs first "
              "(or tail it with --watch)")
        return 1
    if args.watch:
        print(f"watching {args.queue_dir} on {workers} worker(s): "
              f"executing jobs as they are enqueued "
              f"(lease ttl {args.lease_ttl:.0f}s, "
              f"{args.max_attempts} attempt(s)/job; stop with Ctrl-C)")
    else:
        print(f"draining {args.queue_dir}: {status.pending} pending of "
              f"{status.total} jobs on {workers} worker(s) "
              f"(lease ttl {args.lease_ttl:.0f}s, "
              f"{args.max_attempts} attempt(s)/job)")
    done = 0
    try:
        done = run_workers(
            workers, str(args.queue_dir), lease_ttl=args.lease_ttl,
            max_jobs=args.max_jobs, max_attempts=args.max_attempts,
            retry_backoff=args.backoff, watch=args.watch,
        )
    except KeyboardInterrupt:
        # a watch daemon's normal exit: held leases were released by the
        # workers; fall through to merge what they finished
        print("\nstopping workers")
    queue.merge()
    status = queue.status()
    if args.watch:
        print(f"watched queue now: {status.completed}/{status.total} "
              f"completed, {status.failed} failed, {status.pending} pending")
    else:
        print(f"workers completed {done} job(s); queue now: "
              f"{status.completed}/{status.total} completed, "
              f"{status.failed} failed, {status.pending} pending")
    _print_failures(status)
    return 1 if status.failed else 0


def _print_failures(status) -> None:
    for key, record in status.failures.items():
        if key in status.quarantined:
            continue  # reported with its quarantine record below
        error = str(record.get("error", "")).strip().splitlines()
        last = error[-1] if error else "unknown error"
        attempt = record.get("attempt", 1)
        print(f"  FAILED {key} on {record.get('worker', '?')} "
              f"(attempt {attempt}): {last}")
    for key, record in status.quarantined.items():
        print(f"  QUARANTINED {key} after {record.get('attempts', '?')} "
              f"attempt(s): {record.get('reason', 'unknown')} "
              f"[clear with enqueue --retry-failed]")


def _print_degradations(store) -> None:
    """Aggregate FlowMetrics.degradations over the merged store."""
    totals: dict = {}
    for metrics in store.completed().values():
        for kind, count in metrics.degradations.items():
            totals[kind] = totals.get(kind, 0) + count
    if totals:
        print("  degradations survived (fallbacks taken across all jobs):")
        for kind in sorted(totals):
            print(f"    {kind:<40} {totals[kind]}")


def _cmd_queue_status(args: argparse.Namespace) -> int:
    from .core.queue import WorkQueue

    try:
        queue = WorkQueue(args.queue_dir, lease_ttl=args.lease_ttl)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.merge:
        merged = queue.merge()
        if not args.json:
            print(f"merged shards -> {merged.path} ({len(merged)} records)")
    if args.json:
        # the same document GET /v1/queue/status serves (docs/SERVICE.md)
        import json

        from .api import queue_status

        doc = queue_status(args.queue_dir, lease_ttl=args.lease_ttl)
        print(json.dumps(doc, sort_keys=True))
        return 0 if doc["healthy"] else 1
    status = queue.status()
    print(f"queue {args.queue_dir}: {status.total} jobs")
    print(f"  completed {status.completed}  in-flight {status.claimed}  "
          f"failed {status.failed} "
          f"(quarantined {len(status.quarantined)})  "
          f"pending {status.pending}")
    for entry in status.active:
        print(f"  RUNNING {entry['key']} on {entry['worker']} "
              f"(heartbeat {entry['age_s']:.0f}s ago)")
    for entry in status.stale:
        print(f"  STALE   {entry['key']} on {entry['worker']} "
              f"(lease expired {entry['age_s'] - queue.lease_ttl:.0f}s ago; "
              "will be reclaimed)")
    _print_failures(status)
    _print_degradations(queue.store)
    # healthy (even empty) -> 0; anything failed or quarantined -> 1,
    # so cron wrappers and CI can gate on the exit code alone
    return 1 if status.failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceState, run

    try:
        state = ServiceState(
            store_dir=args.store,
            queue_dir=args.queue_dir,
            workers=args.workers,
            queue_threshold=args.queue_threshold,
            lease_ttl=args.lease_ttl,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.workers > 1:
        from .core.parallel import IN_POOL_ENV

        # inline jobs run on that many threads of this one process: like
        # batch-pool workers, each runs its tempered replicas serially
        # instead of fanning out to every core
        os.environ[IN_POOL_ENV] = "1"
    return run(state, host=args.host, port=args.port)


def _cmd_explore(args: argparse.Namespace) -> int:
    from .exploration import run_exploration, summarize_findings
    from .thermal.stack import TopologyConfig

    cells = run_exploration(
        grid_n=args.grid, seed=args.seed, topology=TopologyConfig(kind=args.topology)
    )
    for c in cells:
        print(f"{c.power_pattern:<20}{c.tsv_pattern:<20}"
              f"r1={c.r_bottom:+.3f}  r2={c.r_top:+.3f}  peak={c.peak_k:.1f}K")
    print("\nfindings:")
    for k, v in summarize_findings(cells).items():
        print(f"  {k:<34} {v:.3f}")
    return 0


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    for name in benchmark_names():
        circ, stack = load(name)
        print(f"{name:<8} modules={len(circ.modules):>5} "
              f"nets={len(circ.nets):>6} terminals={len(circ.terminals):>4} "
              f"outline={stack.outline.area / 1e6:>7.2f}mm2 "
              f"power={circ.total_power:>6.2f}W")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .api import JobSpec
    from .floorplan.objectives import FloorplanMode
    from .mitigation import MITIGATION_MODES
    from .thermal.stack import TOPOLOGY_KINDS, TopologyConfig

    parser = argparse.ArgumentParser(
        prog="repro", description="TSC-aware 3D-IC floorplanning (DAC'17 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="run one floorplanning flow")
    p_flow.add_argument("benchmark", choices=benchmark_names())
    p_flow.add_argument("--mode", choices=FloorplanMode.ALL, default=JobSpec.mode)
    p_flow.add_argument("--iterations", type=int, default=JobSpec.iterations)
    p_flow.add_argument("--seed", type=int, default=JobSpec.seed)
    p_flow.add_argument("--grid", type=int, default=JobSpec.grid)
    p_flow.add_argument("--replicas", type=int, default=JobSpec.replicas,
                        help="parallel-tempering replicas for the annealing "
                             "stage (1 = plain single-chain SA); the total "
                             "move budget (--iterations) is split across "
                             "replicas")
    p_flow.add_argument("--exchange-every", type=int, default=JobSpec.exchange_every,
                        help="moves each replica advances between "
                             "replica-exchange attempts")
    p_flow.add_argument("--replica-processes", type=int, default=None,
                        help="worker processes for the replica pool "
                             "(default: min(replicas, cpu count))")
    p_flow.add_argument("--topology", choices=TOPOLOGY_KINDS, default=JobSpec.topology,
                        help="integration style: '3d' stacks dies "
                             "vertically (the paper's setup); '2.5d' places "
                             "them side by side on a passive interposer "
                             "with micro-bump heat paths")
    p_flow.add_argument("--mitigation-mode", dest="mitigation_mode",
                        choices=MITIGATION_MODES,
                        default=JobSpec.mitigation_mode,
                        help="leakage defense, in TSC mode only (dvfs and "
                             "combined need --mode tsc_aware): 'static' inserts "
                             "dummy thermal TSVs (Sec. 6.2), 'dvfs' runs the "
                             "seeded runtime governor instead, 'combined' "
                             "layers the governor on the TSV-hardened "
                             "floorplan")
    p_flow.set_defaults(func=_cmd_flow)

    def add_grid_args(p) -> None:
        p.add_argument("benchmarks", nargs="+", choices=benchmark_names())
        p.add_argument("--modes", nargs="+", choices=FloorplanMode.ALL,
                       default=list(FloorplanMode.ALL))
        p.add_argument("--seeds", type=int, default=2,
                       help="runs per (benchmark, mode), seeded 0..N-1")
        p.add_argument("--iterations", type=int, default=JobSpec.iterations)
        p.add_argument("--grid", type=int, default=JobSpec.grid)
        p.add_argument("--replicas", type=int, default=JobSpec.replicas,
                       help="parallel-tempering replicas per flow (1 = "
                            "plain SA); inside pool workers the replica "
                            "chains advance serially so workers x replicas "
                            "never oversubscribes the host")
        p.add_argument("--exchange-every", type=int, default=JobSpec.exchange_every,
                       help="moves between replica-exchange attempts")
        p.add_argument("--topologies", nargs="+", choices=TOPOLOGY_KINDS,
                       default=[JobSpec.topology],
                       help="integration styles to sweep (grid axis)")
        p.add_argument("--mitigation-modes", nargs="+",
                       dest="mitigation_modes",
                       choices=MITIGATION_MODES,
                       default=[JobSpec.mitigation_mode],
                       help="mitigation modes to sweep (grid axis); "
                            "dvfs and combined pair with tsc_aware only; "
                            "sweeping more than one topology/mode combo "
                            "appends a static-vs-runtime comparison matrix "
                            "to the batch report")

    p_batch = sub.add_parser(
        "batch", help="parallel scenario sweep over local worker processes"
    )
    add_grid_args(p_batch)
    p_batch.add_argument("-j", "--processes", type=int, default=None,
                         help="pool size (default: min(jobs, cpu count); "
                              "1 = serial)")
    p_batch.add_argument("--store", default=None, metavar="DIR",
                         help="append-only results store; finished jobs "
                              "persist immediately and re-runs resume by "
                              "skipping recorded jobs")
    p_batch.set_defaults(func=_cmd_batch)

    p_enq = sub.add_parser(
        "enqueue",
        help="queue a (benchmark, mode, seed) grid for distributed workers",
    )
    add_grid_args(p_enq)
    p_enq.add_argument("--queue-dir", required=True, metavar="DIR",
                       help="work-queue directory on a filesystem all "
                            "workers share")
    p_enq.add_argument("--retry-failed", action="store_true",
                       help="clear recorded failures so workers retry "
                            "those jobs")
    p_enq.set_defaults(func=_cmd_enqueue)

    p_work = sub.add_parser(
        "work", help="run a worker pool draining a shared queue directory"
    )
    p_work.add_argument("--queue-dir", required=True, metavar="DIR")
    p_work.add_argument("--workers", type=int, default=1,
                        help="worker processes on this host")
    p_work.add_argument("--lease-ttl", type=float, default=300.0,
                        help="seconds of missed heartbeats before a "
                             "worker's claim is reclaimed")
    p_work.add_argument("--max-jobs", type=int, default=None,
                        help="cap on jobs per worker (default: drain)")
    p_work.add_argument("--max-attempts", type=int, default=3,
                        help="per-job execution attempts before the job is "
                             "quarantined (1 = failures are terminal); also "
                             "bounds lease steals for crash-looping jobs")
    p_work.add_argument("--backoff", type=float, default=1.0,
                        help="base seconds of exponential retry backoff "
                             "(doubles per attempt, plus jitter)")
    p_work.add_argument("--watch", action="store_true",
                        help="keep tailing the queue after it drains, "
                             "executing jobs as producers (e.g. the serve "
                             "frontend's fan-out) enqueue them; Ctrl-C stops")
    p_work.set_defaults(func=_cmd_work)

    p_stat = sub.add_parser(
        "sweep-status", help="inspect a queue's progress and failures"
    )
    p_stat.add_argument("--queue-dir", required=True, metavar="DIR")
    p_stat.add_argument("--lease-ttl", type=float, default=300.0,
                        help="staleness horizon used to classify leases")
    p_stat.add_argument("--merge", action="store_true",
                        help="consolidate worker shards into the queue's "
                             "results.jsonl before reporting")
    p_stat.add_argument("--json", action="store_true",
                        help="print one machine-readable JSON document — "
                             "the same payload the evaluation service "
                             "serves at GET /v1/queue/status")
    p_stat.set_defaults(func=_cmd_queue_status)

    p_serve = sub.add_parser(
        "serve", help="leakage evaluation as a service (asyncio HTTP frontend)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="TCP port (0 = pick an ephemeral port)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="executor threads evaluating jobs concurrently; "
                              "they share one warm process-wide solver cache")
    p_serve.add_argument("--store", default=None, metavar="DIR",
                         help="durable results store: identical resubmissions "
                              "replay the recorded result instead of "
                              "recomputing")
    p_serve.add_argument("--queue-dir", default=None, metavar="DIR",
                         help="shared work-queue directory backing "
                              "GET /v1/queue/status and --queue-threshold "
                              "fan-out")
    p_serve.add_argument("--queue-threshold", type=int, default=None,
                         metavar="N",
                         help="fan jobs with iterations >= N out to the work "
                              "queue (drain them with: repro.cli work "
                              "--watch); default: evaluate everything "
                              "in-process")
    p_serve.add_argument("--lease-ttl", type=float, default=300.0,
                         help="lease TTL for queue status/fan-out reads")
    p_serve.set_defaults(func=_cmd_serve)

    p_exp = sub.add_parser("explore", help="Sec. 3 power x TSV study")
    p_exp.add_argument("--grid", type=int, default=24)
    p_exp.add_argument("--seed", type=int, default=2)
    p_exp.add_argument("--topology", choices=TOPOLOGY_KINDS, default=TopologyConfig.kind,
                       help="run the study on a vertical 3D stack (default) "
                            "or on a 2.5D interposer layout")
    p_exp.set_defaults(func=_cmd_explore)

    p_b = sub.add_parser("benchmarks", help="list the Table 1 suite")
    p_b.set_defaults(func=_cmd_benchmarks)
    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
