"""Cold ``run_flow`` benchmark.

    python3 perfbench/run.py --workload flow_tsc_n100 --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout (it needs ``src/repro``).  Every
entry call runs in a fresh interpreter (``perfbench/child.py``), so the
process-wide solver cache and fast-thermal memo start empty, with every
``REPRO_*`` variable removed from the environment.  One run:

1. starts one interpreter to warm the bytecode cache, then
   ``SETUP_SAMPLES`` more that only import ``repro`` and generate the
   inputs;
2. with ``--trace 0``, makes as many untraced entry calls as fit in
   ``--seconds`` on a 2-core host (``Workload.calls``), call ``j`` on the
   inputs of ``call_seed(seed, j)``, and reports the end-to-end metrics:
   medians over the calls (``setup_s`` over every interpreter started,
   ``peak_rss_mib`` the largest);
3. with ``--trace 1``, makes one untraced and one traced call on the
   inputs of ``call_seed(seed, 0)`` and reports the per-layer metrics.

Every call's output is checked (``checks.py``) and a traced record must
equal the untraced one field for field; a call that raises or fails a
check counts in ``failed``.  The full result, with the span table, is
written to ``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

from checks import check_record  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS, call_seed, guards  # noqa: E402

#: end-to-end metrics: name -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(mode: str, workload: str, seed: int) -> Dict[str, Any]:
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), repr(t_spawn)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{mode} exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def call_problems(result: Dict[str, Any]) -> List[str]:
    problems = check_record(result["record"])
    cold = result["cold"]
    if cold["cache_hits"] or cold["cache_entries"] or cold["fast_models"]:
        problems.append(f"process caches not cold at entry: {cold}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    run_child("setup", args.workload, args.seed)  # fills the bytecode cache
    setups = [
        run_child("setup", args.workload, args.seed)["setup_s"] for _ in range(SETUP_SAMPLES)
    ]

    calls: List[Dict[str, Any]] = []
    problems: List[str] = []
    attempted = failed = 0

    def attempt(mode: str, seed: int, expect: Optional[Dict[str, Any]] = None) -> None:
        """One entry call; it fails if it crashes, its output check finds a
        problem, or (traced) its record or wrapper removal is off."""
        nonlocal attempted, failed
        attempted += 1
        try:
            result = run_child(mode, args.workload, seed)
        except (ChildFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            failed += 1
            problems.append(f"{mode} call, seed {seed}: {exc}")
            return
        found = call_problems(result)
        if expect is not None and result["record"] != expect["record"]:
            found.append("record differs from the untraced record")
        if mode == "trace" and not result["restored"]:
            found.append("layer wrappers were not all removed")
        if found:
            failed += 1
            problems.extend(f"{mode} call, seed {seed}: {p}" for p in found)
        result.update(mode=mode, seed=seed)
        calls.append(result)

    for j in range(1 if args.trace else spec.calls(args.seconds)):
        attempt("run", call_seed(args.seed, j))
    if args.trace and calls:
        attempt("trace", call_seed(args.seed, 0), expect=calls[0])
    untraced = [c for c in calls if c["mode"] == "run"]
    if not untraced or (args.trace and len(calls) < 2):
        print("\n".join(problems), file=sys.stderr)
        return 1

    if args.trace:
        traced = calls[-1]
        metrics = layer_metrics(traced["spans"], traced["counters"], untraced[0]["wall_s"])
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": statistics.median(c["wall_s"] for c in untraced),
            "setup_s": statistics.median(setups + [c["setup_s"] for c in untraced]),
            # the run's peak: whether a call keeps dense Woodbury state
            # depends on its seed, so a median would flip between modes
            "peak_rss_mib": max(c["peak_rss_mib"] for c in untraced),
        }
        units = END_TO_END

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "env": untraced[0]["env"],
        "setup_samples": setups,
        "calls": [
            {
                "mode": c["mode"],
                "seed": c["seed"],
                "wall_s": c["wall_s"],
                "setup_s": c["setup_s"],
                "peak_rss_mib": c["peak_rss_mib"],
                "guards": guards(args.workload, c["record"]),
            }
            for c in calls
        ],
        "problems": problems,
        "metrics": metrics,
    }
    if args.trace:
        summary.update(spans=calls[-1]["spans"], counters=calls[-1]["counters"])
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(summary, indent=1, sort_keys=True))

    for problem in problems:
        print(f"problem: {problem}")
    print("env: " + json.dumps(summary["env"], sort_keys=True))
    print("guards: " + json.dumps(summary["calls"][0]["guards"], sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
