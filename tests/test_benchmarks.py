"""Tests for the benchmark container and the Table 1 synthetic suite."""

import pytest

from repro.benchmarks import (
    BenchmarkCircuit,
    benchmark_names,
    load,
    spec_for,
)
from repro.layout.module import Module, ModuleKind


class TestCircuitContainer:
    def test_counts(self):
        circ = BenchmarkCircuit(
            name="c",
            modules={
                "h": Module("h", 1, 1, kind=ModuleKind.HARD, power=0.25),
                "s": Module("s", 2, 2, kind=ModuleKind.SOFT, power=0.75),
            },
            nets=[],
            terminals={},
        )
        assert circ.num_hard == 1
        assert circ.num_soft == 1
        assert sum(m.area for m in circ.modules.values()) == pytest.approx(5.0)
        assert circ.total_power == pytest.approx(1.0)


class TestSuite:
    def test_registry_matches_paper_order(self):
        assert benchmark_names() == ["n100", "n200", "n300", "ibm01", "ibm03", "ibm07"]

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            spec_for("n9999")

    @pytest.mark.parametrize("name", ["n100", "n200", "n300", "ibm01", "ibm03", "ibm07"])
    def test_table1_properties(self, name):
        """The synthetic instances must match every Table 1 column."""
        spec = spec_for(name)
        circ, stack = load(name)
        assert len(circ.modules) == spec.num_modules
        assert circ.num_hard == spec.num_hard
        assert circ.num_soft == spec.num_soft
        assert len(circ.nets) <= spec.num_nets  # a few degenerate nets may drop
        assert len(circ.nets) >= spec.num_nets * 0.95
        assert len(circ.terminals) == spec.num_terminals
        assert stack.outline.area == pytest.approx(spec.outline_mm2 * 1e6, rel=1e-9)
        assert circ.total_power == pytest.approx(spec.total_power_w, rel=1e-6)

    def test_generation_is_deterministic(self):
        a, _ = load("n100")
        b, _ = load("n100")
        assert set(a.modules) == set(b.modules)
        for name in a.modules:
            assert a.modules[name].width == b.modules[name].width
            assert a.modules[name].power == b.modules[name].power
        assert [n.modules for n in a.nets] == [n.modules for n in b.nets]

    def test_different_benchmarks_differ(self):
        a, _ = load("n100")
        b, _ = load("n200")
        assert len(a.modules) != len(b.modules)

    def test_utilization_is_packable(self):
        """Total module area must leave packing headroom on two dies."""
        for name in benchmark_names():
            circ, stack = load(name)
            area = sum(m.area for m in circ.modules.values())
            util = area / (stack.outline.area * stack.num_dies)
            assert 0.3 < util < 0.75, f"{name}: utilization {util:.2f}"

    def test_no_module_dominates_die(self):
        for name in ("n100", "ibm03"):
            circ, stack = load(name)
            biggest = max(m.area for m in circ.modules.values())
            assert biggest <= stack.outline.area / 3.0 + 1e-6

    def test_intrinsic_delays_present(self):
        circ, _ = load("n100")
        assert all(m.intrinsic_delay > 0 for m in circ.modules.values())

    def test_terminals_on_boundary(self):
        circ, stack = load("n100")
        o = stack.outline
        for t in circ.terminals.values():
            on_x = t.x in (o.x, o.x2) or t.y in (o.y, o.y2)
            assert on_x, f"terminal {t.name} not on outline edge"

