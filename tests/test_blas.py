"""The one-BLAS-thread scope every flow runs in.

Scope tests run against fake thread controls, so they hold on any BLAS;
one test reads this process's real OpenBLAS copies where they are found.
The records test runs one spec in two fresh interpreters at 1 and 2
BLAS threads and compares the records' bytes.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.api import JobSpec, execute_spec
from repro.core import blas
from repro.core.blas import one_blas_thread

ROOT = Path(__file__).resolve().parent.parent


class _FakeBLAS:
    """One OpenBLAS copy's thread count, with its get/set pair."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = []

    def control(self):
        def set_(n):
            self.sets.append(n)
            self.threads = n

        return (lambda: self.threads), set_


@pytest.fixture
def fakes(monkeypatch):
    libs = [_FakeBLAS(2), _FakeBLAS(3)]
    monkeypatch.setattr(blas, "_CONTROLS", [lib.control() for lib in libs])
    return libs


def test_counts_restored_on_exit(fakes):
    with one_blas_thread():
        assert [lib.threads for lib in fakes] == [1, 1]
    assert [lib.threads for lib in fakes] == [2, 3]


def test_counts_restored_when_the_block_raises(fakes):
    with pytest.raises(RuntimeError, match="boom"):
        with one_blas_thread():
            assert [lib.threads for lib in fakes] == [1, 1]
            raise RuntimeError("boom")
    assert [lib.threads for lib in fakes] == [2, 3]


def test_interleaved_threads_restore_at_the_last_exit(fakes):
    """A enters, B enters, A leaves (still pinned), B leaves (restored)."""
    a_in, b_in, a_out, b_out = (threading.Event() for _ in range(4))
    seen = {}

    def first():
        with one_blas_thread():
            a_in.set()
            b_in.wait(5)
        seen["after_a"] = [lib.threads for lib in fakes]
        a_out.set()

    def second():
        a_in.wait(5)
        with one_blas_thread():
            b_in.set()
            a_out.wait(5)
        b_out.set()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert b_out.is_set()
    assert seen["after_a"] == [1, 1]
    assert [lib.threads for lib in fakes] == [2, 3]
    # one pin at the first entry, one restore at the last exit
    assert [lib.sets for lib in fakes] == [[1, 2], [1, 3]]


def test_real_openblas_copies_pinned_and_restored():
    with one_blas_thread():
        pass
    controls = blas._CONTROLS
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    before = [get() for get, _ in controls]
    with one_blas_thread():
        assert [get() for get, _ in controls] == [1] * len(controls)
    assert [get() for get, _ in controls] == before


def test_unpinned_flow_runs_and_says_so(monkeypatch):
    monkeypatch.setattr(blas, "_CONTROLS", [])
    spec = JobSpec("n100", iterations=10, grid=8)
    metrics = execute_spec(spec).metrics
    assert metrics.degradations.get("blas.threads_unpinned") == 1


#: the perfbench TSC flow's config on call seed 0; run without the scope,
#: its 1- and 2-thread records differed in correlation_r1, correlation_r2
#: and peak_temp_k by a few ulps
_RECORD_SCRIPT = """
import json, sys
from dataclasses import replace
from repro.api import JobSpec, execute_spec
from repro.mitigation.dummy_tsv import MitigationConfig

spec = JobSpec.from_json(json.loads(sys.argv[1]))
config = spec.to_flow_config()
config = replace(
    config,
    anneal=replace(config.anneal, calibration_samples=8),
    mitigation=MitigationConfig(samples=40, max_rounds=1, grid_nx=32, grid_ny=32),
)
record = execute_spec(spec, config=config).metrics.to_dict()
record.pop("runtime_s")
print(json.dumps(record, sort_keys=True))
"""


def test_record_is_blas_thread_invariant():
    """One spec in two fresh interpreters, at 1 and at 2 BLAS threads:
    the records are byte-identical (``runtime_s`` aside)."""
    spec = JobSpec("n100", mode="tsc_aware", seed=0, iterations=150, grid=32)
    runs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
        )
        runs.append(
            subprocess.Popen(
                [sys.executable, "-c", _RECORD_SCRIPT, json.dumps(spec.to_json())],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
        )
    records = [run.communicate(timeout=300)[0].strip().splitlines()[-1] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert records[0] == records[1]
