"""Self-tests of the benchmark harness: ``python3 perfbench/selftest.py``.

They cover self-time arithmetic on nested fake spans, wrapper install
and restore, the output check rejecting perturbed records, and the
agreement of BENCHMARK.json with the metric tables in the code.  They
import ``repro`` only for the wrapper test (run from a checkout root).
"""

from __future__ import annotations

import copy
import json
import math
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
from checks import check_record  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_fake_spans(self):
        spans = [
            tracer.Span("root", 0.0, 10.0),
            tracer.Span("a", 1.0, 4.0, parent=0),
            tracer.Span("b", 2.0, 3.0, parent=1),
            tracer.Span("a", 5.0, 9.0, parent=0),
            tracer.Span("a", 6.0, 7.0, parent=3),  # same-name child
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 2.0, 1.0, 3.0, 1.0])
        summary = tracer.summarize(spans)
        self.assertEqual(summary["root"], {"calls": 1, "s": 10.0, "self_s": 3.0})
        # the nested "a" adds self time but no second call or inclusive time
        self.assertEqual(summary["a"], {"calls": 2, "s": 7.0, "self_s": 6.0})
        self.assertEqual(summary["b"], {"calls": 1, "s": 1.0, "self_s": 1.0})

    def test_overlapping_children_counted_once(self):
        self.assertEqual(tracer._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0)

    def test_recorder_nesting(self):
        rec = tracer.Recorder()
        outer = rec.begin("outer")
        inner = rec.begin("inner")
        rec.end(inner)
        rec.end(outer)
        self.assertEqual([s.parent for s in rec.spans], [-1, 0])
        with self.assertRaises(RuntimeError):
            a = rec.begin("a")
            rec.begin("b")
            rec.end(a)


class WrapperTest(unittest.TestCase):
    def test_install_and_restore(self):
        import layers
        from repro.core import flow
        from repro.leakage import pearson as pearson_fn
        from repro.layout.floorplan import Floorplan3D

        pearson_module = sys.modules["repro.leakage.pearson"]
        original_corr = pearson_module.die_correlation
        original_flow_corr = flow.die_correlation
        original_power_map = Floorplan3D.__dict__["power_map"]
        self.assertIs(original_flow_corr, original_corr)

        rec = tracer.Recorder()
        installed = tracer.install(rec, layers.layer_targets())
        try:
            # every alias of a layer function is wrapped by one wrapper
            self.assertIsNot(pearson_module.die_correlation, original_corr)
            self.assertIs(flow.die_correlation, pearson_module.die_correlation)
            # stage wrappers sit on top of the layer wrappers
            layer_fn = sys.modules["repro.power.assignment"].assign_voltages
            self.assertIsNot(flow.assign_voltages, layer_fn)
            import numpy as np

            a = np.arange(16.0).reshape(4, 4)
            r = flow.die_correlation(a, a * 2.0)
            self.assertAlmostEqual(r, 1.0)
            self.assertEqual(tracer.summarize(rec.spans)["leakage.die_correlation"]["calls"], 1)
        finally:
            self.assertTrue(installed.restore())
        self.assertIs(pearson_module.die_correlation, original_corr)
        self.assertIs(flow.die_correlation, original_flow_corr)
        self.assertIs(Floorplan3D.__dict__["power_map"], original_power_map)
        self.assertIs(sys.modules["repro.leakage"].pearson, pearson_fn)
        n = len(rec.spans)
        flow.die_correlation(a, a)
        self.assertEqual(len(rec.spans), n, "a restored function still records spans")

    def test_install_failure_restores_partial_patches(self):
        holder = SimpleNamespace(f=lambda: 1)
        original = holder.f
        targets = [
            tracer.Target(holder, "f", "f"),
            tracer.Target(holder, "missing", "missing"),
        ]
        with self.assertRaises(KeyError):
            tracer.install(tracer.Recorder(), targets)
        self.assertIs(holder.f, original)


FLOW_RECORD = {
    "benchmark": "n100", "mode": "tsc_aware", "feasible": True,
    "spatial_entropy_s1": 2.3, "correlation_r1": 0.41, "spatial_entropy_s2": 2.4,
    "correlation_r2": 0.56, "power_w": 7.4, "critical_delay_ns": 1.2,
    "wirelength_m": 4.0, "peak_temp_k": 326.8, "signal_tsvs": 744, "dummy_tsvs": 768,
    "voltage_volumes": 100, "floorplan_problems": [], "anneal_iterations": 1500,
    "anneal_accepted": 900,
}


class OutputCheckTest(unittest.TestCase):
    def perturbed(self, **changes):
        record = copy.deepcopy(FLOW_RECORD)
        record.update(changes)
        return check_record(record)

    def test_clean_record_passes(self):
        self.assertEqual(check_record(FLOW_RECORD), [])

    def test_perturbed_records_fail(self):
        self.assertTrue(self.perturbed(correlation_r1=1.5))
        self.assertTrue(self.perturbed(dvfs_mitigated_r=-1.2))
        self.assertTrue(self.perturbed(wirelength_m=math.nan))
        self.assertTrue(self.perturbed(peak_temp_k=math.inf))
        self.assertTrue(self.perturbed(floorplan_problems=["die 0: total module overlap 3 um^2"]))
        # the feasible flag must agree with the floorplan
        self.assertTrue(self.perturbed(floorplan_problems=["sb1: outside outline on die 0"]))
        self.assertEqual(
            self.perturbed(feasible=False, floorplan_problems=["sb1: outside outline on die 0"]),
            [],
        )
        self.assertTrue(self.perturbed(feasible=False))


class BenchmarkJsonTest(unittest.TestCase):
    def test_matches_code(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]}, END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["per_layer"]],
            [(name, unit) for name, unit, _ in PER_LAYER],
        )


if __name__ == "__main__":
    unittest.main()
