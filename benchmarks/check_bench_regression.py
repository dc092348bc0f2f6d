#!/usr/bin/env python
"""Benchmark regression gate: compare a pytest-benchmark run to a baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_kernels.py \
        -k "<tracked subset>" --benchmark-json=bench-run.json
    python benchmarks/check_bench_regression.py bench-run.json
    python benchmarks/check_bench_regression.py bench-run.json --update

The baseline (``benchmarks/BENCH_baseline.json``) records the mean
seconds of each *tracked* kernel plus a machine *calibration* time — a
fixed numpy/scipy workload timed on the machine that recorded the
baseline.  At gate time the same workload is timed again and every
baseline mean is scaled by the observed speed ratio, so a committed
baseline gates meaningfully on slower CI runners and faster workstations
alike.  A run fails when any tracked kernel's mean exceeds its scaled
baseline by more than the threshold (recorded in the baseline at
``--update`` time; overridable with ``--threshold``).

A tracked kernel *missing* from the run also fails the gate: a renamed
or deleted benchmark would otherwise silently leave that kernel ungated
forever.  Deliberate subset runs (local spot checks) opt out with
``--allow-missing``.  Kernels in the run but not the baseline are listed
so they can be adopted with ``--update``.

``RATIO_GATES`` additionally pins paired fast/slow kernels to a minimum
speedup *within one run* (no calibration scaling, so the floor holds on
any machine): e.g. the 2.5D interposer steady solve must stay at least
2x faster than refactorizing the interposer network per solve.  A gate
whose kernels are not both in the run is skipped, and the skip is
printed with its reason.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_BASELINE = Path(__file__).parent / "BENCH_baseline.json"

#: the kernels the gate tracks: fast, compute-bound, low-variance
TRACKED = [
    "test_pack_ibm03",
    "test_wirelength_ibm03",
    "test_anneal_iteration_n100",
    "test_spatial_entropy_64",
    "test_activity_sweep_batched_lu_reuse",
    "test_sample_power_maps_batched_n100",
    "test_transient_traces_batched_run_many",
    "test_local_correlation_map_vectorized_64",
    "test_detailed_solve_32",
    "test_mitigation_candidate_refactorize_64",
    "test_anneal_serial_n100",
    "test_interposer_steady_state_64",
    "test_voltage_assignment_n100",
    "test_fast_thermal_64",
    "test_dvfs_kernels_2p5d_24",
]

#: paired-kernel speedup floors, checked within one run (so they are
#: machine-independent — no calibration scaling involved): the fast
#: kernel must stay at least ``min_ratio`` x faster than its slow
#: counterpart, or the optimization it embodies has silently rotted
RATIO_GATES = [
    # the 2.5D interposer steady solve against a built solver must stay
    # cheap next to rebuilding the (wider) interposer network and its
    # solver per solve — the topology layer rides the same cached-solver
    # machinery
    {
        "fast": "test_interposer_steady_state_64",
        "slow": "test_interposer_refactorize_64",
        "min_ratio": 2.0,
    },
    # parallel tempering at equal total move budget: 4 replicas across 4
    # cores must beat the serial chain's wall-clock (the tempered kernel
    # skips itself below 4 cores, so such hosts skip the gate rather
    # than fail it)
    {
        "fast": "test_anneal_tempered_4replica_n100",
        "slow": "test_anneal_serial_n100",
        "min_ratio": 2.0,
        "min_cores": 4,
    },
]


def calibration_time(repeats: int = 5) -> float:
    """Seconds for a fixed workload shaped like the tracked kernels.

    Mixes a sparse factorization + back-substitution (the solver-bound
    kernels) with dense elementwise/reduction work (the numpy-bound
    ones).  The minimum over ``repeats`` runs is the least noisy estimate
    of machine speed.
    """
    rng = np.random.default_rng(0)
    n = 72
    lap = (
        sp.diags([4.0] * (n * n), 0)
        - sp.diags([1.0] * (n * n - 1), 1)
        - sp.diags([1.0] * (n * n - 1), -1)
        - sp.diags([1.0] * (n * n - n), n)
        - sp.diags([1.0] * (n * n - n), -n)
    )
    lap = lap.tocsc()
    rhs = rng.random((n * n, 100))
    dense = rng.random((512, 512))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        lu = spla.splu(lap)
        lu.solve(rhs)
        for _ in range(40):
            (dense * dense + np.sqrt(dense)).sum(axis=0)
        best = min(best, time.perf_counter() - t0)
    return best


def load_means(run_path: Path) -> dict:
    data = json.loads(run_path.read_text())
    return {
        bench["name"]: bench["stats"]["mean"] for bench in data.get("benchmarks", [])
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("run", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--threshold", type=float, default=None,
                        help="fail on scaled mean slowdowns beyond this factor "
                             "(default: the baseline's recorded threshold)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run instead of gating")
    parser.add_argument("--allow-missing", action="store_true",
                        help="tolerate tracked kernels absent from the run "
                             "(deliberate subset runs only; by default a "
                             "missing kernel fails the gate, since a renamed "
                             "test would otherwise go ungated)")
    args = parser.parse_args(argv)

    means = load_means(args.run)
    calibration = calibration_time()

    if args.update:
        tracked = {name: means[name] for name in TRACKED if name in means}
        missing = [name for name in TRACKED if name not in means]
        if missing:
            print(f"warning: run lacks tracked kernels: {', '.join(missing)}")
        threshold = args.threshold
        if threshold is None and args.baseline.exists():
            # a refresh keeps the previously chosen tolerance sticky
            threshold = json.loads(args.baseline.read_text()).get("threshold")
        payload = {
            "threshold": threshold if threshold is not None else 1.5,
            "calibration": calibration,
            "tracked": tracked,
        }
        args.baseline.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated with {len(tracked)} kernels "
              f"(calibration {calibration * 1e3:.1f}ms) -> {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"error: no baseline at {args.baseline}; run with --update first")
        return 2
    baseline = json.loads(args.baseline.read_text())
    threshold = (
        args.threshold if args.threshold is not None
        else float(baseline.get("threshold", 1.5))
    )
    scale = calibration / float(baseline.get("calibration", calibration))
    print(f"machine speed scale vs baseline: {scale:.2f}x "
          f"(calibration {calibration * 1e3:.1f}ms); threshold {threshold:.2f}x")

    failures = []
    missing = []
    tracked = baseline["tracked"]
    width = max((len(n) for n in tracked), default=10)
    for name, base_mean in sorted(tracked.items()):
        run_mean = means.get(name)
        if run_mean is None:
            if args.allow_missing:
                print(f"{name:<{width}}  SKIP (not in this run; --allow-missing)")
            else:
                print(f"{name:<{width}}  MISSING (tracked kernel absent from run)")
                missing.append(name)
            continue
        ratio = run_mean / (base_mean * scale)
        status = "OK" if ratio <= threshold else "FAIL"
        print(f"{name:<{width}}  {base_mean * 1e3:9.3f}ms -> {run_mean * 1e3:9.3f}ms"
              f"  {ratio:5.2f}x  {status}")
        if status == "FAIL":
            failures.append((name, ratio))

    untracked = sorted(set(means) - set(tracked))
    if untracked:
        print(f"note: kernels not in baseline: {', '.join(untracked)}")

    ratio_failures = []
    for gate in RATIO_GATES:
        fast, slow = means.get(gate["fast"]), means.get(gate["slow"])
        if fast is None or slow is None:
            # an absent tracked kernel already fails the missing check
            # (unless --allow-missing); say why this gate did not run
            absent = [gate[k] for k in ("fast", "slow") if gate[k] not in means]
            reason = f"{', '.join(absent)} not in this run"
            cores = os.cpu_count() or 1
            if cores < gate.get("min_cores", 0):
                reason += (f"; needs >= {gate['min_cores']} cores, "
                           f"this host has {cores}")
            print(f"ratio {gate['fast']} vs {gate['slow']}: SKIP ({reason})")
            continue
        speedup = slow / fast
        status = "OK" if speedup >= gate["min_ratio"] else "FAIL"
        print(f"ratio {gate['fast']} vs {gate['slow']}: "
              f"{speedup:.2f}x (floor {gate['min_ratio']:.1f}x)  {status}")
        if status == "FAIL":
            ratio_failures.append((gate, speedup))

    if missing:
        print(f"\nFAIL: {len(missing)} tracked kernel(s) missing from the run "
              f"({', '.join(missing)}); a renamed test means an ungated "
              "kernel — update TRACKED/--update, or pass --allow-missing "
              "for a deliberate subset run")
    if failures:
        print(f"\nFAIL: {len(failures)} kernel(s) slowed past "
              f"{threshold:.2f}x the committed (speed-scaled) baseline")
    if ratio_failures:
        for gate, speedup in ratio_failures:
            print(f"\nFAIL: {gate['fast']} is only {speedup:.2f}x faster than "
                  f"{gate['slow']} (floor {gate['min_ratio']:.1f}x)")
    if failures or missing or ratio_failures:
        return 1
    print("\nbenchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
