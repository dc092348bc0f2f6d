"""Tests for Elmore delays, the module delay model, and path analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.hpwl import net_delays_loop
from repro.benchmarks import load
from repro.floorplan.moves import apply_random_move
from repro.floorplan.seqpair import LayoutState
from repro.layout.die import StackConfig
from repro.layout.floorplan import Floorplan3D
from repro.layout.module import Module, Placement
from repro.layout.net import CompiledNetlist, Net
from repro.power.voltages import scaled_delay
from repro.timing.delay_model import K_DELAY_NS_PER_UM, ensure_intrinsic_delays
from repro.timing import elmore
from repro.timing.elmore import net_delay_ns
from repro.timing.paths import TimingGraph


class TestElmore:
    def test_zero_length_still_has_driver_delay(self):
        d = net_delay_ns(0.0, 1)
        assert d > 0

    def test_monotone_in_length(self):
        d1 = net_delay_ns(100, 1)
        d2 = net_delay_ns(1000, 1)
        d3 = net_delay_ns(10000, 1)
        assert d1 < d2 < d3

    def test_monotone_in_sinks(self):
        assert net_delay_ns(1000, 1) < net_delay_ns(1000, 8)

    def test_tsv_adds_delay(self):
        assert net_delay_ns(1000, 1, 0) < net_delay_ns(1000, 1, 2)

    def test_realistic_scale(self):
        """A 4 mm global net lands in sub-ns territory at 90 nm."""
        d = net_delay_ns(4000, 3, 1)
        assert 0.01 < d < 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            net_delay_ns(-1, 1)
        with pytest.raises(ValueError):
            net_delay_ns(np.array([10.0, 20.0]), np.array([1, -1]))

    @given(st.floats(min_value=0, max_value=1e5), st.integers(min_value=1, max_value=30))
    @settings(max_examples=40)
    def test_nonnegative(self, length, sinks):
        assert net_delay_ns(length, sinks) >= 0

    def test_arrays_equal_scalar_calls(self, monkeypatch):
        rng = np.random.default_rng(0)
        hpwl = rng.uniform(0, 1e4, 50)
        sinks = rng.integers(0, 20, 50)
        crossings = rng.integers(0, 3, 50)
        monkeypatch.setattr(elmore, "R_TSV_OHM", 0.3)
        monkeypatch.setattr(elmore, "C_TSV_FF", 20.0)
        got = net_delay_ns(hpwl, sinks, crossings)
        want = [
            net_delay_ns(h, int(n), int(c))
            for h, n, c in zip(hpwl.tolist(), sinks, crossings)
        ]
        assert got.tolist() == want


class TestDelayModel:
    def test_area_model(self):
        out = ensure_intrinsic_delays({"a": Module("a", 100, 100)})
        assert out["a"].intrinsic_delay == pytest.approx(K_DELAY_NS_PER_UM * 100.0)

    def test_stored_delay_wins(self):
        m = Module("a", 100, 100, intrinsic_delay=0.7)
        assert ensure_intrinsic_delays({"a": m})["a"] is m

    def test_voltage_scaling(self):
        """The per-module scaling the timing graph applies to intrinsic
        delays."""
        got = scaled_delay([1.0, 1.0], [0.8, 1.2])
        assert got == pytest.approx([1.56, 0.83])

    def test_ensure_fills_missing(self):
        mods = {"a": Module("a", 100, 100), "b": Module("b", 50, 50, intrinsic_delay=0.3)}
        out = ensure_intrinsic_delays(mods)
        assert out["a"].intrinsic_delay > 0
        assert out["b"].intrinsic_delay == 0.3


def _two_die_fp():
    mods = {
        "a": Module("a", 100, 100, intrinsic_delay=0.5),
        "b": Module("b", 100, 100, intrinsic_delay=0.2),
        "c": Module("c", 100, 100, intrinsic_delay=0.1),
    }
    placements = {
        "a": Placement(mods["a"], 0, 0, die=0),
        "b": Placement(mods["b"], 2000, 0, die=0),
        "c": Placement(mods["c"], 0, 0, die=1),
    }
    nets = (Net("n1", ("a", "b")), Net("n2", ("b", "c")))
    stack = StackConfig.square(4000.0)
    return Floorplan3D(stack, placements, nets), nets, mods


def _inflation(tg, fp):
    """``max_delay_inflation`` from a floorplan's centres and delays."""
    x, y, w, h, die, _, delay = fp.module_arrays(tg.module_names)
    return tg.max_delay_inflation(x + w / 2.0, y + h / 2.0, die, delay)


class TestTimingGraph:
    def test_critical_delay_includes_module_and_net(self):
        fp, nets, mods = _two_die_fp()
        tg = TimingGraph(fp.compiled_netlist())
        report = tg.evaluate(fp)
        # module a has the largest intrinsic delay; its worst net is n1
        assert report.critical_delay_ns > 0.5
        assert report.through_ns["a"] >= report.through_ns["c"]

    def test_net_delays_per_net(self):
        fp, nets, mods = _two_die_fp()
        tg = TimingGraph(fp.compiled_netlist())
        report = tg.evaluate(fp)
        assert report.net_delays_ns.shape == (2,)
        # n2 crosses a die, n1 is planar but longer; both positive
        assert np.all(report.net_delays_ns > 0)

    def test_voltage_slows_critical_path(self):
        fp, nets, mods = _two_die_fp()
        tg = TimingGraph(fp.compiled_netlist())
        nominal = tg.evaluate(fp).critical_delay_ns
        slowed = tg.evaluate(
            fp.with_voltages({n: 0.8 for n in fp.placements})
        ).critical_delay_ns
        assert slowed > nominal

    def test_overdrive_speeds_up(self):
        fp, nets, mods = _two_die_fp()
        tg = TimingGraph(fp.compiled_netlist())
        nominal = tg.evaluate(fp).critical_delay_ns
        fast = tg.evaluate(
            fp.with_voltages({n: 1.2 for n in fp.placements})
        ).critical_delay_ns
        assert fast < nominal

    def test_slack_computation(self):
        fp, nets, mods = _two_die_fp()
        tg = TimingGraph(fp.compiled_netlist())
        report = tg.evaluate(fp)
        slacks = [report.critical_delay_ns - t for t in report.through_ns.values()]
        assert min(slacks) == pytest.approx(0.0, abs=1e-12)
        assert all(s >= -1e-12 for s in slacks)

    def test_max_delay_inflation_critical_module_pinned(self):
        fp, nets, mods = _two_die_fp()
        tg = TimingGraph(fp.compiled_netlist())
        inflation = _inflation(tg, fp)
        # the critical module cannot slow down at all
        assert inflation.min() == pytest.approx(1.0)
        # every module tolerates at least its own nominal delay
        assert (inflation >= 1.0).all()

    def test_inflation_off_critical_module_has_room(self):
        fp, nets, mods = _two_die_fp()
        tg = TimingGraph(fp.compiled_netlist())
        assert _inflation(tg, fp).max() > 1.05

    def test_empty_netlist(self):
        mods = {"a": Module("a", 10, 10, intrinsic_delay=0.2)}
        stack = StackConfig.square(100.0)
        fp = Floorplan3D(stack, {"a": Placement(mods["a"], 0, 0, die=0)})
        tg = TimingGraph(CompiledNetlist(["a"], [], {}))
        report = tg.evaluate(fp)
        assert report.critical_delay_ns == pytest.approx(0.2)

    def test_moving_blocks_apart_increases_delay(self):
        mods = {
            "a": Module("a", 10, 10, intrinsic_delay=0.1),
            "b": Module("b", 10, 10, intrinsic_delay=0.1),
        }
        nets = (Net("n", ("a", "b")),)
        stack = StackConfig.square(8000.0)
        near = Floorplan3D(stack, {
            "a": Placement(mods["a"], 0, 0, die=0),
            "b": Placement(mods["b"], 20, 0, die=0),
        }, nets)
        far = Floorplan3D(stack, {
            "a": Placement(mods["a"], 0, 0, die=0),
            "b": Placement(mods["b"], 7900, 7900, die=0),
        }, nets)
        tg = TimingGraph(near.compiled_netlist())
        assert tg.evaluate(far).critical_delay_ns > tg.evaluate(near).critical_delay_ns


@pytest.mark.parametrize("name", ["n100", "ibm01"])
def test_net_delays_equal_scalar_loop_bytewise(name):
    """Vectorized delays over the compiled netlist == one scalar
    ``net_delay_ns`` per net over its module pins, on random layouts."""
    circ, stack = load(name)
    rng = np.random.default_rng(7)
    state = LayoutState.initial(circ.modules, stack, rng)
    for _ in range(3):
        for _ in range(20):
            apply_random_move(state, rng)
        fp = state.realize(circ.nets, circ.terminals, place_tsvs=False)
        tg = TimingGraph(fp.compiled_netlist())
        got = tg.net_delays(*fp.module_centers(tg.module_names))
        assert got.tolist() == net_delays_loop(circ.nets, fp.placements, 50.0)
        assert got.tolist() == tg.evaluate(fp).net_delays_ns.tolist()
