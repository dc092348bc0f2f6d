"""Tests for the parallel-tempering layer (repro.floorplan.tempering)."""

import os

import pytest

from repro.api import JobSpec
from repro.benchmarks import generator, load
from repro.benchmarks.generator import BenchmarkSpec, generate_circuit
from repro.core.config import FlowConfig
from repro.core.flow import run_flow
from repro.core.parallel import IN_POOL_ENV
from repro.floorplan.annealer import AnnealConfig, anneal
from repro.floorplan.objectives import FloorplanMode
from repro.floorplan.tempering import (
    PROCESSES_ENV,
    resolve_replica_processes,
    temper,
)
from repro.layout.die import StackConfig


@pytest.fixture(scope="module")
def tiny_circuit():
    spec = BenchmarkSpec("tiny", 0, 16, 1, 40, 8, 0.25, 1.2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "SEED", 5)
        circ = generate_circuit(spec)
    stack = StackConfig(spec.outline)
    return circ, stack


@pytest.fixture(scope="module")
def n100():
    return load("n100")


def _placements(res):
    return {
        n: (p.x, p.y, p.die, p.rotated)
        for n, p in res.floorplan.placements.items()
    }


class TestSingleReplicaEquivalence:
    """The non-negotiable oracle: replicas=1 IS the legacy anneal()."""

    @pytest.mark.parametrize(
        "mode", [FloorplanMode.POWER_AWARE, FloorplanMode.TSC_AWARE]
    )
    def test_bitwise_equals_anneal_n100(self, n100, mode):
        circ, stack = n100
        cfg = AnnealConfig(iterations=60, seed=3, grid_nx=16, grid_ny=16,
                           calibration_samples=6)
        ref = anneal(circ.modules, stack, circ.nets, circ.terminals,
                     mode=mode, config=cfg)
        res = temper(circ.modules, stack, circ.nets, circ.terminals,
                     mode=mode, config=cfg, replicas=1)
        assert res.history == ref.history  # exact float equality
        assert res.accepted == ref.accepted
        assert res.cost == ref.cost
        assert _placements(res) == _placements(ref)


class TestExchangeDeterminism:
    def test_identical_across_process_counts(self, tiny_circuit):
        """Same (seed, replicas) => identical result for any pool size."""
        circ, stack = tiny_circuit
        cfg = AnnealConfig(iterations=90, seed=7, grid_nx=16, grid_ny=16,
                           calibration_samples=4)
        results = [
            temper(circ.modules, stack, circ.nets, circ.terminals,
                   config=cfg, replicas=3, exchange_every=10,
                   processes=procs)
            for procs in (1, 2)
        ]
        serial, pooled = results
        assert serial.history == pooled.history
        assert serial.accepted == pooled.accepted
        assert serial.cost == pooled.cost
        assert _placements(serial) == _placements(pooled)
        assert serial.exchange_attempts == pooled.exchange_attempts
        assert serial.exchange_accepts == pooled.exchange_accepts
        # with 3 rungs and 8 exchange rounds, swaps were actually tried
        assert serial.exchange_attempts > 0
        assert serial.replicas == 3
        assert serial.iterations == 90  # total budget preserved

    def test_seed_changes_result(self, tiny_circuit):
        circ, stack = tiny_circuit
        runs = []
        for seed in (1, 2):
            cfg = AnnealConfig(iterations=60, seed=seed, grid_nx=16,
                               grid_ny=16, calibration_samples=4)
            runs.append(
                temper(circ.modules, stack, circ.nets, circ.terminals,
                       config=cfg, replicas=2, exchange_every=10,
                       processes=1)
            )
        assert runs[0].history != runs[1].history


class TestValidation:
    def test_bad_arguments(self, tiny_circuit):
        circ, stack = tiny_circuit
        cfg = AnnealConfig(iterations=10, seed=0)
        with pytest.raises(ValueError):
            temper(circ.modules, stack, config=cfg, replicas=0)
        with pytest.raises(ValueError):
            temper(circ.modules, stack, config=cfg, replicas=2,
                   exchange_every=0)
        with pytest.raises(ValueError):
            temper(circ.modules, stack, config=cfg, replicas=2,
                   ladder_ratio=1.0)
        with pytest.raises(ValueError):
            # 10 iterations cannot feed 16 replicas
            temper(circ.modules, stack, config=cfg, replicas=16)

    def test_flow_config_validates_replicas(self):
        with pytest.raises(ValueError):
            FlowConfig(replicas=0)
        with pytest.raises(ValueError):
            FlowConfig(exchange_every=0)


class TestNestedPoolGuard:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(IN_POOL_ENV, "1")
        assert resolve_replica_processes(4, processes=3) == 3

    def test_env_override_wins_over_guard(self, monkeypatch):
        monkeypatch.setenv(IN_POOL_ENV, "1")
        monkeypatch.setenv(PROCESSES_ENV, "2")
        assert resolve_replica_processes(4) == 2

    def test_pool_worker_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(PROCESSES_ENV, raising=False)
        monkeypatch.setenv(IN_POOL_ENV, "1")
        assert resolve_replica_processes(8) == 1

    def test_default_is_cpu_bounded(self, monkeypatch):
        monkeypatch.delenv(PROCESSES_ENV, raising=False)
        monkeypatch.delenv(IN_POOL_ENV, raising=False)
        procs = resolve_replica_processes(4)
        assert 1 <= procs <= 4
        assert procs <= len(os.sched_getaffinity(0))

    def test_fanout_counts_the_affinity_mask(self, monkeypatch):
        """Fan-out reads the CPUs this process may run on, not the host's."""
        from repro.core.parallel import fanout_cores, usable_cores

        monkeypatch.delenv(PROCESSES_ENV, raising=False)
        monkeypatch.delenv(IN_POOL_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert usable_cores() == fanout_cores() == 2
        assert resolve_replica_processes(8) == 2

    def test_cpu_count_where_there_is_no_affinity_call(self, monkeypatch):
        from repro.core.parallel import usable_cores

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert usable_cores() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cores() == 1

    def test_batch_worker_sets_guard(self, tmp_path):
        """batch_worker_main marks its process as a pool worker."""
        from repro.core.queue import WorkQueue
        from repro.exploration.study import batch_worker_main

        WorkQueue(tmp_path)  # create an empty queue to drain
        prev = os.environ.pop(IN_POOL_ENV, None)
        try:
            batch_worker_main(str(tmp_path), max_jobs=0)
            assert os.environ.get(IN_POOL_ENV) == "1"
        finally:
            if prev is None:
                os.environ.pop(IN_POOL_ENV, None)
            else:
                os.environ[IN_POOL_ENV] = prev


class TestPlumbing:
    def test_run_flow_with_replicas(self, tiny_circuit):
        circ, stack = tiny_circuit
        config = FlowConfig(
            anneal=AnnealConfig(iterations=60, seed=2, grid_nx=16,
                                grid_ny=16, calibration_samples=4),
            verify_nx=16, verify_ny=16,
            replicas=2, exchange_every=15, replica_processes=1,
        )
        outcome = run_flow(circuit=circ, stack=stack, config=config)
        assert outcome.anneal_result.replicas == 2
        assert outcome.anneal_result.iterations == 60

    def test_batch_job_key_backward_compatible(self):
        plain = JobSpec(benchmark="n100", seed=1)
        assert plain.key() == "n100|power_aware|seed1|it1500|grid32|dies2"
        tempered = JobSpec(benchmark="n100", seed=1, replicas=4)
        assert tempered.key().endswith("|rep4x50")
        assert plain.key() != tempered.key()
        # exchange cadence changes the outcome, so it changes the key
        assert (
            JobSpec(benchmark="n100", replicas=4, exchange_every=25).key()
            != JobSpec(benchmark="n100", replicas=4, exchange_every=50).key()
        )
