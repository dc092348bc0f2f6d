"""Integration tests for the end-to-end flow (Fig. 3) and result records."""

import json
from dataclasses import replace

import pytest

from repro.benchmarks.generator import BenchmarkSpec, generate_circuit
from repro.core.config import FlowConfig, env_int
from repro.core.flow import run_flow, verify_correlations
from repro.core.results import FlowMetrics, aggregate_metrics, format_table
from repro.floorplan.annealer import AnnealConfig
from repro.floorplan.objectives import FloorplanMode
from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.layout.net import CompiledNetlist
from repro.mitigation.dummy_tsv import MitigationConfig
from repro.thermal.stack import TopologyConfig


@pytest.fixture(scope="module")
def tiny():
    spec = BenchmarkSpec("tinyflow", 0, 14, 1, 36, 8, 0.16, 1.0, seed=9)
    circ = generate_circuit(spec)
    stack = StackConfig(spec.outline)
    return circ, stack


def _flow_config(mode, seed=0):
    return FlowConfig(
        mode=mode,
        anneal=AnnealConfig(
            iterations=250, seed=seed, calibration_samples=6,
            grid_nx=16, grid_ny=16,
        ),
        mitigation=MitigationConfig(samples=10, max_rounds=2, grid_nx=16, grid_ny=16),
        verify_nx=16,
        verify_ny=16,
    )


class TestEnvInt:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TESTVAR", raising=False)
        assert env_int("REPRO_TESTVAR", 7) == 7

    def test_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TESTVAR", "42")
        assert env_int("REPRO_TESTVAR", 7) == 42

    def test_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TESTVAR", "many")
        with pytest.raises(ValueError):
            env_int("REPRO_TESTVAR", 7)


class TestFlowConfig:
    def test_mitigation_only_in_tsc_mode(self):
        assert not FlowConfig(mode=FloorplanMode.POWER_AWARE).run_mitigation
        assert FlowConfig(mode=FloorplanMode.TSC_AWARE).run_mitigation


class TestRunFlow:
    def test_power_aware_flow(self, tiny):
        circ, stack = tiny
        out = run_flow(circ, stack, _flow_config(FloorplanMode.POWER_AWARE, seed=1))
        m = out.metrics
        assert m.benchmark == "tinyflow"
        assert m.mode == FloorplanMode.POWER_AWARE
        assert -1.0 <= m.correlation_r1 <= 1.0
        assert m.spatial_entropy_s1 >= 0.0
        assert m.power_w > 0
        assert m.peak_temp_k > 293.0
        assert m.dummy_tsvs == 0  # no mitigation in PA mode
        assert m.voltage_volumes >= 1
        assert out.mitigation is None
        assert len(out.power_maps) == 2
        assert out.power_maps[0].shape == (16, 16)

    def test_tsc_aware_flow_runs_mitigation(self, tiny):
        circ, stack = tiny
        out = run_flow(circ, stack, _flow_config(FloorplanMode.TSC_AWARE, seed=2))
        assert out.mitigation is not None
        assert out.metrics.dummy_tsvs == out.mitigation.inserted
        assert out.metrics.mode == FloorplanMode.TSC_AWARE

    @pytest.mark.parametrize("topology, mit_mode", [("3d", "static"), ("2.5d", "dvfs")])
    def test_compiles_the_netlist_once(self, tiny, topology, mit_mode, monkeypatch):
        """The anneal's evaluator compiles the netlist; the final signal-TSV
        placement, the timing graph and the wirelength reuse it."""
        circ, stack = tiny
        compiled = []
        original = CompiledNetlist.__init__

        def counting(self, *args, **kwargs):
            compiled.append(args[0])
            original(self, *args, **kwargs)

        monkeypatch.setattr(CompiledNetlist, "__init__", counting)
        config = _flow_config(FloorplanMode.TSC_AWARE, seed=3)
        config = replace(
            config,
            topology=TopologyConfig(kind=topology),
            mitigation=replace(config.mitigation, mode=mit_mode, dvfs_traces=2),
        )
        out = run_flow(circ, stack, config)
        assert len(compiled) == 1
        assert compiled[0] == list(out.floorplan.placements)
        assert out.metrics.signal_tsvs == len(out.floorplan.signal_tsvs) > 0

    def test_flow_deterministic(self, tiny):
        circ, stack = tiny
        m1 = run_flow(circ, stack, _flow_config(FloorplanMode.POWER_AWARE, seed=5)).metrics
        m2 = run_flow(circ, stack, _flow_config(FloorplanMode.POWER_AWARE, seed=5)).metrics
        assert m1.correlation_r1 == pytest.approx(m2.correlation_r1)
        assert m1.wirelength_m == pytest.approx(m2.wirelength_m)

    def test_verify_correlations_shapes(self, tiny):
        circ, stack = tiny
        out = run_flow(circ, stack, _flow_config(FloorplanMode.POWER_AWARE, seed=3))
        grid = GridSpec(stack.outline, 12, 12)
        corr, pmaps, tmaps, peak = verify_correlations(out.floorplan, grid)
        assert len(corr) == 2
        assert pmaps[0].shape == (12, 12)
        assert tmaps[0].shape == (12, 12)
        assert peak > 293.0

    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_record_keeps_every_die(self, tiny, num_dies):
        """A 3-die record stores every die's leakage and round-trips; a
        2-die record keeps its historical key set."""
        circ, stack = tiny
        stack = StackConfig(stack.outline, num_dies=num_dies)
        config = FlowConfig(
            mode=FloorplanMode.POWER_AWARE,
            anneal=AnnealConfig(iterations=40, seed=4, calibration_samples=4,
                                grid_nx=16, grid_ny=16),
            verify_nx=16,
            verify_ny=16,
        )
        m = run_flow(circ, stack, config).metrics
        d = m.to_dict()
        if num_dies == 2:
            assert m.correlations == [] and m.entropies == []
            assert set(d) - {"degradations"} == (
                {"benchmark", "mode", "feasible"} | set(FlowMetrics._NUMERIC)
            )
        else:
            assert len(m.correlations) == len(m.entropies) == 3
            assert m.correlations[:2] == [m.correlation_r1, m.correlation_r2]
            assert m.entropies[:2] == [m.spatial_entropy_s1, m.spatial_entropy_s2]
            assert d["correlations"] == m.correlations
            assert d["entropies"] == m.entropies
        assert FlowMetrics.from_dict(json.loads(json.dumps(d))) == m


class TestResults:
    def _metrics(self, r1=0.4, mode="power_aware"):
        return FlowMetrics(
            benchmark="x", mode=mode, spatial_entropy_s1=2.0, correlation_r1=r1,
            spatial_entropy_s2=2.5, correlation_r2=0.7, power_w=8.0,
            critical_delay_ns=1.0, wirelength_m=30.0, peak_temp_k=310.0,
            signal_tsvs=450, dummy_tsvs=0, voltage_volumes=7, runtime_s=10.0,
        )

    def test_to_dict_roundtrip(self):
        d = self._metrics().to_dict()
        assert d["benchmark"] == "x"
        assert d["correlation_r1"] == 0.4

    def test_aggregate(self):
        agg = aggregate_metrics([self._metrics(0.4), self._metrics(0.6)])
        assert agg["correlation_r1"] == pytest.approx(0.5)

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])

    def test_format_table(self):
        rows = {"n100": {"r1": 0.476}, "n200": {"r1": 0.249}}
        text = format_table(rows, ["r1"], title="demo")
        assert "n100" in text and "0.476" in text and "Avg" in text
