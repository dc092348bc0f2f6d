"""Tests for modules, placements, nets, and terminals."""

import pytest

from repro.layout.die import StackConfig
from repro.layout.floorplan import Floorplan3D
from repro.layout.module import Module, Placement
from repro.layout.net import Net, Terminal


class TestModule:
    def test_basic_properties(self):
        m = Module("a", 10, 20, power=0.5)
        assert m.area == 200
        assert not m.is_soft

    def test_validation(self):
        with pytest.raises(ValueError):
            Module("a", 0, 1)
        with pytest.raises(ValueError):
            Module("a", 1, 1, power=-1)
        with pytest.raises(ValueError):
            Module("a", 1, 1, kind="squishy")
        with pytest.raises(ValueError):
            Module("a", 1, 1, min_aspect=2, max_aspect=1)


class TestPlacement:
    def test_rotation_swaps_dimensions(self):
        m = Module("a", 10, 20)
        p = Placement(m, 0, 0, die=0, rotated=True)
        assert p.width == 20 and p.height == 10
        assert p.rect.w == 20

    def test_center(self):
        p = Placement(Module("a", 10, 20), 5, 5, die=1)
        assert p.center == (10.0, 15.0)

    def test_with_voltage(self):
        p = Placement(Module("a", 1, 1), 0, 0, die=0)
        q = p.with_voltage(0.8)
        assert q.voltage == 0.8 and p.voltage == 1.0


class TestNet:
    def test_degree_and_driver(self):
        n = Net("n", ("a", "b"), ("t",))
        assert n.degree == 3
        assert n.driver == "a"
        assert n.sinks == ("b",)

    def test_too_few_pins_rejected(self):
        with pytest.raises(ValueError):
            Net("n", ("a",))

    def test_terminal_only_net_allowed(self):
        n = Net("n", (), ("t1", "t2"))
        assert n.driver is None


class TestHPWL:
    """3D HPWL through ``Floorplan3D.wirelength`` (the compiled netlist)."""

    def _fp(self, nets, terminals=None):
        placements = {
            "a": Placement(Module("a", 10, 10), 0, 0, die=0),
            "b": Placement(Module("b", 10, 10), 90, 0, die=0),
            "c": Placement(Module("c", 10, 10), 0, 90, die=1),
        }
        return Floorplan3D(
            StackConfig.square(1000.0), placements, tuple(nets), dict(terminals or {})
        )

    def test_planar_hpwl(self):
        wl, crossings = self._fp([Net("n", ("a", "b"))]).wirelength()
        assert wl == pytest.approx(90.0)  # centers at x=5 and x=95
        assert crossings == 0

    def test_crossing_adds_tsv_length(self):
        wl, crossings = self._fp([Net("n", ("a", "c"))]).wirelength()
        assert crossings == 1
        assert wl == pytest.approx(90.0 + 50.0)

    def test_terminal_extends_bbox(self):
        terms = {"t": Terminal("t", 200.0, 5.0)}
        fp = self._fp([Net("n", ("a",), ("t",))], terms)
        wl, _ = fp.wirelength()
        assert wl == pytest.approx(195.0)

    def test_total_hpwl_sums(self):
        nets = [Net("n1", ("a", "b")), Net("n2", ("a", "c"))]
        total, crossings = self._fp(nets).wirelength()
        assert total == pytest.approx(90.0 + 140.0)
        assert crossings == 1
