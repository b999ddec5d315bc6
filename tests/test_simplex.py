import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from perception_games.simplex import (
    Belief,
    SimplexGrid,
    dirac,
    tv_distance,
    uniform,
)


class TestBelief:
    def test_accepts_and_freezes(self):
        b = Belief([0.25, 0.75])
        assert b.n == 2
        assert b.p.flags.writeable is False
        assert float(b.p.sum()) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Belief([-0.2, 1.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Belief([0.5, 0.4])

    def test_clips_tiny_negative(self):
        b = Belief([1.0, -1e-15])
        assert b.p[1] == 0.0

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(ValueError):
            Belief([])
        with pytest.raises(ValueError):
            Belief([[0.5, 0.5]])

    def test_equality_is_exact(self):
        assert Belief([0.5, 0.5]) == Belief([0.5, 0.5])
        assert Belief([0.5, 0.5]) != Belief([0.5 + 1e-12, 0.5 - 1e-12])
        assert Belief([0.5, 0.5]).isclose(Belief([0.5 + 1e-12, 0.5 - 1e-12]))

    def test_dirac_and_uniform(self):
        assert dirac(1, 3) == Belief([0.0, 1.0, 0.0])
        assert uniform(4) == Belief([0.25] * 4)


class TestTvDistance:
    def test_known_values(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
        assert tv_distance(np.array([0.75, 0.25]), np.array([0.25, 0.75])) == pytest.approx(0.5)

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
    )
    def test_metric_properties(self, xs, ys):
        n = min(len(xs), len(ys))
        p = np.array(xs[:n]) / sum(xs[:n])
        q = np.array(ys[:n]) / sum(ys[:n])
        d = tv_distance(p, q)
        assert 0.0 <= d <= 1.0 + 1e-12
        assert d == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, p) == 0.0


class TestSimplexGrid:
    @pytest.mark.parametrize("n,k", [(1, 5), (2, 7), (3, 6), (4, 5)])
    def test_count_formula(self, n, k):
        grid = SimplexGrid(n, k)
        expected = math.comb(k + n - 1, n - 1)
        assert len(grid) == expected
        assert grid.points().shape == (expected, n)

    def test_compositions_are_lexicographic(self):
        grid = SimplexGrid(3, 3)
        comps = list(grid.compositions())
        assert comps[0] == (0, 0, 3)
        assert comps[-1] == (3, 0, 0)
        assert comps == sorted(comps)
        assert all(sum(c) == 3 for c in comps)

    def test_points_are_distributions(self):
        pts = SimplexGrid(3, 8).points()
        assert np.all(pts >= 0)
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert pts.flags.writeable is False

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            SimplexGrid(2, 0)
        with pytest.raises(ValueError):
            SimplexGrid(0, 5)
