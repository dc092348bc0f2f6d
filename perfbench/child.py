"""One cold benchmark process: ``child.py MODE WORKLOAD SEED T_SPAWN``.

``T_SPAWN`` is the parent's ``time.perf_counter()`` just before it started
this interpreter (a system-wide monotonic clock on Linux), so
``setup_s`` covers interpreter start, ``import repro`` and input
generation.  Modes:

* ``setup``  -- stop after the inputs exist;
* ``run``    -- time the entry call;
* ``trace``  -- time the entry call with every layer wrapper installed,
  then remove them again.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import sys
import time


def environment(grids) -> dict:
    import numpy
    import scipy

    from repro.thermal.backends import resolve_backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": {
            f"{n}x{n}": resolve_backend(None, cells_per_layer=n * n).name for n in grids
        },
        "numba": importlib.util.find_spec("numba") is not None,
        "sksparse": importlib.util.find_spec("sksparse") is not None,
    }


def cold_state() -> dict:
    """Process caches the run must start without."""
    from repro.floorplan import objectives
    from repro.thermal.steady_state import default_solver_cache

    counters = default_solver_cache().counters()
    return {
        "cache_hits": counters["hits"],
        "cache_entries": counters["entries"],
        "fast_models": len(objectives._CALIBRATED_MODELS),
    }


def main(argv) -> dict:
    mode, workload, seed, t_spawn = argv[0], argv[1], int(argv[2]), float(argv[3])
    import workloads

    spec = workloads.WORKLOADS[workload]
    entry = workloads.prepare(workload, seed)
    setup_s = time.perf_counter() - t_spawn
    if mode == "setup":
        return {"setup_s": setup_s}

    out = {"setup_s": setup_s, "cold": cold_state(), "env": environment(spec.grids)}
    if mode == "trace":
        import layers
        import tracer

        rec = tracer.Recorder()
        installed = tracer.install(rec, layers.layer_targets())
        try:
            root = rec.begin(layers.FLOW_SPAN)
            t0 = time.perf_counter()
            try:
                outcome = entry()
            finally:
                out["wall_s"] = time.perf_counter() - t0
                rec.end(root)
        finally:
            out["restored"] = installed.restore()
        result = outcome.anneal_result
        rec.counters["floorplan.accept_ratio"] = result.accepted / result.iterations
        out["spans"] = tracer.summarize(rec.spans)
        out["counters"] = rec.counters
    else:
        t0 = time.perf_counter()
        outcome = entry()
        out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["record"] = workloads.record_of(outcome)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
