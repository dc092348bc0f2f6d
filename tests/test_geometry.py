"""Unit and property tests for repro.layout.geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.geometry import Point, Rect, total_overlap_area

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.1, max_value=1e4, allow_nan=False, allow_infinity=False)


def rect_strategy():
    return st.builds(Rect, finite, finite, positive, positive)


class TestRect:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 1)
        with pytest.raises(ValueError):
            Rect(0, 0, 1, -1)

    def test_derived_coordinates(self):
        r = Rect(1, 2, 3, 4)
        assert r.x2 == 4 and r.y2 == 6
        assert r.area == 12
        assert r.center == Point(2.5, 4.0)

    def test_contains_point_boundary(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_point(0, 0)
        assert r.contains_point(2, 2)
        assert not r.contains_point(2.01, 1)

    def test_overlap_open_vs_closed(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(1, 0, 1, 1)  # shares an edge
        assert a.overlap_area(b) == 0.0
        assert total_overlap_area([a, b]) == 0.0

    def test_overlap_area(self):
        a = Rect(0, 0, 4, 4)
        assert a.overlap_area(Rect(2, 2, 4, 4)) == 4.0
        assert a.overlap_area(Rect(4, 0, 1, 1)) == 0.0

    @given(rect_strategy(), rect_strategy())
    @settings(max_examples=60)
    def test_overlap_symmetry(self, a, b):
        assert a.overlap_area(b) == pytest.approx(b.overlap_area(a))


class TestCollections:
    def test_rects_overlap_detects(self):
        assert total_overlap_area([Rect(0, 0, 2, 2), Rect(1, 1, 2, 2)]) > 0.0
        assert total_overlap_area([Rect(0, 0, 1, 1), Rect(1, 0, 1, 1), Rect(0, 1, 1, 1)]) == 0.0

    def test_total_overlap_area(self):
        rects = [Rect(0, 0, 2, 2), Rect(1, 1, 2, 2), Rect(10, 10, 1, 1)]
        assert total_overlap_area(rects) == pytest.approx(1.0)

    @given(st.lists(rect_strategy(), min_size=2, max_size=12))
    @settings(max_examples=40)
    def test_total_overlap_matches_bruteforce(self, rects):
        brute = sum(
            rects[i].overlap_area(rects[j])
            for i in range(len(rects))
            for j in range(i + 1, len(rects))
        )
        assert total_overlap_area(rects) == pytest.approx(brute, rel=1e-9, abs=1e-6)
