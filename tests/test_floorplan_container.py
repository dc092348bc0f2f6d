"""Tests for the Floorplan3D container: legality, maps, TSV derivation."""

from dataclasses import replace

import pytest

from repro.layout.die import StackConfig
from repro.layout.floorplan import Floorplan3D
from repro.layout.geometry import Rect
from repro.layout.grid import GridSpec
from repro.layout.module import Module, Placement
from repro.layout.net import Net
from repro.layout.tsv import TSV, TSVKind


def _fp():
    mods = {
        "a": Module("a", 100, 100, power=1.0),
        "b": Module("b", 100, 100, power=0.5),
        "c": Module("c", 100, 100, power=0.25),
    }
    placements = {
        "a": Placement(mods["a"], 0, 0, die=0),
        "b": Placement(mods["b"], 200, 200, die=0),
        "c": Placement(mods["c"], 0, 0, die=1),
    }
    nets = (Net("n1", ("a", "b")), Net("n2", ("a", "c")))
    stack = StackConfig.square(500.0)
    return Floorplan3D(stack, placements, nets)


class TestStackConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StackConfig(Rect(0, 0, 10, 10), num_dies=0)
        with pytest.raises(ValueError):
            StackConfig(Rect(0, 0, 0, 0))

    def test_helpers(self):
        s = StackConfig.square(100.0, num_dies=3)
        assert s.die_pairs() == [(0, 1), (1, 2)]
        assert s.tsv_pitch == 10.0
        assert len(s.dies) == 3
        assert s.dies[1].name == "die2"


class TestLegality:
    def test_legal_floorplan(self):
        assert _fp().validate() == []

    def test_overlap_detected(self):
        fp = _fp()
        fp.placements["b"] = replace(fp.placements["b"], x=50, y=50)
        problems = fp.validate()
        assert any("overlap" in p for p in problems)

    def test_outside_outline_detected(self):
        fp = _fp()
        fp.placements["b"] = replace(fp.placements["b"], x=450, y=450)
        problems = fp.validate()
        assert any("outside outline" in p for p in problems)

    def test_tsv_outside_outline_detected(self):
        fp = _fp()
        fp.tsvs.append(TSV(900, 900, 0, 1))
        assert any("TSV" in p for p in fp.validate())


class TestMetrics:
    def test_total_power_with_voltages(self):
        fp = _fp()
        assert fp.total_power() == pytest.approx(1.75)
        fp2 = fp.with_voltages({"a": 0.8})
        assert fp2.total_power() == pytest.approx(1.0 * 0.817 + 0.75)
        # original untouched
        assert fp.total_power() == pytest.approx(1.75)


class TestSignalTSVs:
    def test_cross_die_net_gets_tsv(self):
        fp = _fp()
        fp.place_signal_tsvs()
        assert len(fp.signal_tsvs) == 1  # only n2 crosses dies
        tsv = fp.signal_tsvs[0]
        assert (tsv.die_from, tsv.die_to) == (0, 1)
        assert fp.stack.outline.contains_point(tsv.x, tsv.y)

    def test_thermal_tsvs_preserved(self):
        fp = _fp()
        fp.tsvs.append(TSV(250, 250, 0, 1, kind=TSVKind.THERMAL))
        fp.place_signal_tsvs()
        assert len(fp.thermal_tsvs) == 1
        assert len(fp.signal_tsvs) == 1

    def test_wirelength_counts_crossings(self):
        fp = _fp()
        wl, crossings = fp.wirelength()
        assert crossings == 1
        assert wl > 0


class TestMaps:
    def test_power_map_sums_per_die(self):
        fp = _fp()
        grid = GridSpec(fp.stack.outline, 10, 10)
        pm0 = fp.power_map(0, grid)
        pm1 = fp.power_map(1, grid)
        assert pm0.sum() == pytest.approx(1.5)
        assert pm1.sum() == pytest.approx(0.25)

    def test_tsv_density_map(self):
        fp = _fp()
        fp.tsvs.append(TSV(250, 250, 0, 1))
        d = fp.tsv_density((0, 1), GridSpec(fp.stack.outline, 10, 10))
        assert d.max() > 0
        assert d.min() == 0.0

    def test_copy_independent(self):
        fp = _fp()
        clone = fp.copy()
        clone.tsvs.append(TSV(100, 100, 0, 1))
        clone.placements["a"] = replace(clone.placements["a"], x=10, y=10)
        assert len(fp.tsvs) == 0
        assert fp.placements["a"].x == 0
