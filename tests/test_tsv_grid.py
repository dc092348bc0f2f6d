"""Tests for TSV records, islands, density maps, and the analysis grid."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.geometry import Point, Rect
from repro.layout.grid import GridSpec, rasterize_power
from repro.layout.module import Module, Placement
from repro.layout.tsv import (
    TSV,
    TSVIsland,
    place_island,
    place_regular_grid,
    tsv_cell_occupancy,
    tsv_density_map,
)

from oracles.tsv import footprint


class TestTSV:
    def test_validation(self):
        with pytest.raises(ValueError):
            TSV(0, 0, 0, 0)  # same die
        with pytest.raises(ValueError):
            TSV(0, 0, 0, 1, diameter=0)
        with pytest.raises(ValueError):
            TSV(0, 0, 0, 1, keepout=-1)
        with pytest.raises(ValueError):
            TSV(0, 0, 0, 1, kind="weird")

    def test_footprint_and_pitch(self):
        t = TSV(100, 100, 0, 1, diameter=5, keepout=2.5)
        assert t.pitch == 10.0
        fp = footprint(t)
        assert fp.w == 10 and fp.center == Point(100, 100)


class TestIslandsAndGrids:
    def test_island_packs_at_pitch(self):
        island = TSVIsland(Rect(0, 0, 100, 100), 0, 1, diameter=5, keepout=2.5)
        vias = island.vias()
        assert len(vias) == 100  # 10x10 at pitch 10
        xs = sorted({v.x for v in vias})
        assert xs[1] - xs[0] == pytest.approx(10.0)

    def test_regular_grid_count(self):
        tsvs = place_regular_grid(Rect(0, 0, 1000, 1000), 4, 5)
        assert len(tsvs) == 20

    def test_regular_grid_validation(self):
        with pytest.raises(ValueError):
            place_regular_grid(Rect(0, 0, 100, 100), 0, 1)

    def test_place_island_helper(self):
        vias = place_island(Rect(0, 0, 50, 50))
        assert len(vias) == 25


class TestOccupancy:
    def test_occupancy_bounded(self):
        outline = Rect(0, 0, 100, 100)
        tsvs = place_island(Rect(0, 0, 100, 100))
        occ = tsv_cell_occupancy(tsvs, outline, 4, 4)
        assert occ.shape == (4, 4)
        assert occ.max() <= 1.0 + 1e-9
        assert occ.min() >= 0.0

    def test_full_island_saturates(self):
        outline = Rect(0, 0, 100, 100)
        tsvs = place_island(outline)
        occ = tsv_cell_occupancy(tsvs, outline, 2, 2)
        assert occ.mean() == pytest.approx(1.0, abs=0.02)

    def test_empty(self):
        occ = tsv_cell_occupancy([], Rect(0, 0, 10, 10), 3, 3)
        assert occ.sum() == 0.0

    def test_density_map_die_pair_filter(self):
        outline = Rect(0, 0, 100, 100)
        t01 = TSV(50, 50, 0, 1)
        t12 = TSV(50, 50, 1, 2)
        d = tsv_density_map([t01, t12], outline, 2, 2, between=(0, 1))
        d_all = tsv_density_map([t01, t12], outline, 2, 2, between=None)
        assert d.sum() < d_all.sum()

    def test_out_of_outline_tsv_ignored(self):
        occ = tsv_cell_occupancy([TSV(500, 500, 0, 1)], Rect(0, 0, 100, 100), 2, 2)
        assert occ.sum() == 0.0


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(Rect(0, 0, 10, 10), nx=0)

    def test_cell_geometry(self):
        g = GridSpec(Rect(0, 0, 100, 50), 10, 5)
        assert g.cell_w == 10 and g.cell_h == 10
        assert g.cell_area == 100
        assert g.shape == (5, 10)
        assert g.cell_rect(0, 0) == Rect(0, 0, 10, 10)

    def test_cell_of_clipping(self):
        g = GridSpec(Rect(0, 0, 100, 100), 10, 10)
        assert g.cell_of(-5, -5) == (0, 0)
        assert g.cell_of(150, 150) == (9, 9)
        assert g.cell_of(55, 25) == (5, 2)

    def test_cell_center_roundtrip(self):
        g = GridSpec(Rect(0, 0, 100, 100), 10, 10)
        x, y = g.cell_center(3, 7)
        assert g.cell_of(x, y) == (3, 7)


class TestRasterizePower:
    def test_power_conserved(self):
        g = GridSpec(Rect(0, 0, 100, 100), 16, 16)
        p = Placement(Module("a", 30, 40, power=2.5), 10, 20, die=0)
        pm = rasterize_power([p], g, die=0)
        assert pm.sum() == pytest.approx(2.5, rel=1e-9)

    def test_wrong_die_excluded(self):
        g = GridSpec(Rect(0, 0, 100, 100), 8, 8)
        p = Placement(Module("a", 30, 40, power=2.5), 10, 20, die=1)
        assert rasterize_power([p], g, die=0).sum() == 0.0

    def test_activity_scales(self):
        g = GridSpec(Rect(0, 0, 100, 100), 8, 8)
        p = Placement(Module("a", 30, 40, power=2.0), 10, 20, die=0)
        pm = rasterize_power([p], g, die=0, activity={"a": 0.5})
        assert pm.sum() == pytest.approx(1.0, rel=1e-9)

    def test_voltage_scales_power(self):
        g = GridSpec(Rect(0, 0, 100, 100), 8, 8)
        p = Placement(Module("a", 30, 40, power=2.0), 10, 20, die=0, voltage=0.8)
        pm = rasterize_power([p], g, die=0)
        assert pm.sum() == pytest.approx(2.0 * 0.817, rel=1e-9)

    def test_clipped_at_outline(self):
        g = GridSpec(Rect(0, 0, 100, 100), 8, 8)
        # half of the module hangs outside the outline
        p = Placement(Module("a", 40, 40, power=2.0), 80, 30, die=0)
        pm = rasterize_power([p], g, die=0)
        assert pm.sum() == pytest.approx(1.0, rel=1e-9)

    @given(
        st.floats(min_value=0, max_value=60),
        st.floats(min_value=0, max_value=60),
        st.floats(min_value=5, max_value=40),
        st.floats(min_value=5, max_value=40),
    )
    @settings(max_examples=40)
    def test_power_conservation_property(self, x, y, w, h):
        g = GridSpec(Rect(0, 0, 100, 100), 16, 16)
        p = Placement(Module("a", w, h, power=1.0), x, y, die=0)
        pm = rasterize_power([p], g, die=0)
        assert pm.sum() == pytest.approx(1.0, rel=1e-6)
