import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from perception_games.fixtures import blog, two_player_game
from perception_games.simplex import (
    Belief,
    SimplexGrid,
    dirac,
    distributions,
    tv_distance,
    uniform,
)
from perception_games.single import PerceptionMap, Strategy
from perception_games.two_player import TwoPlayerPerceptions, TwoPlayerStrategy


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


# every container of probability rows: (name in messages, build from an
# array, a valid array, the stored array of a built object)
ROW_CONTAINERS = {
    "Belief": ("belief", Belief, np.full(2, 0.5), lambda obj: obj.p),
    "Strategy": (
        "strategy",
        lambda arr: Strategy(blog(), arr),
        np.full((2, 2), 0.5),
        lambda obj: obj.sigma,
    ),
    "PerceptionMap": (
        "perception map",
        lambda arr: PerceptionMap(blog(), arr),
        np.full((2, 2, 2), 0.5),
        lambda obj: obj.tau,
    ),
    "TwoPlayerStrategy": (
        "player 0 strategy",
        lambda arr: TwoPlayerStrategy(two_player_game(), (arr, np.full((2, 2), 0.5))),
        np.full((2, 2), 0.5),
        lambda obj: obj.sigmas[0],
    ),
    "TwoPlayerPerceptions": (
        "player 0 perceptions",
        lambda arr: TwoPlayerPerceptions(
            two_player_game(), (arr, np.full((2, 2, 2, 2), 0.5))
        ),
        np.full((2, 2, 2, 2), 0.5),
        lambda obj: obj.taus[0],
    ),
}

BAD_ROWS = {
    "nan": [np.nan, 1.0],
    "+inf": [np.inf, 0.0],
    "-inf": [-np.inf, 1.0],
    "negative": [-1e-9, 1.0 + 1e-9],
    "heavy": [1e-8, 1.0],
}


class TestProbabilityRows:
    """One rule for every prior, belief, strategy and perception map."""

    @pytest.mark.parametrize("container", sorted(ROW_CONTAINERS))
    def test_valid_array_is_stored_bitwise(self, container):
        _, build, valid, stored = ROW_CONTAINERS[container]
        np.testing.assert_array_equal(stored(build(valid)), valid)

    @pytest.mark.parametrize("row", sorted(BAD_ROWS))
    @pytest.mark.parametrize("container", sorted(ROW_CONTAINERS))
    def test_rejects_bad_last_row(self, container, row):
        what, build, valid, _ = ROW_CONTAINERS[container]
        arr = valid.copy()
        arr[(-1,) * (arr.ndim - 1)] = BAD_ROWS[row]
        with pytest.raises(ValueError, match=what):
            build(arr)

    @pytest.mark.parametrize("container", sorted(ROW_CONTAINERS))
    def test_rejects_wrong_shape(self, container):
        _, build, valid, _ = ROW_CONTAINERS[container]
        with pytest.raises(ValueError):
            build(np.stack([valid, valid]))

    @pytest.mark.parametrize("container", sorted(ROW_CONTAINERS))
    def test_tiny_negative_stored_as_zero_read_only(self, container):
        _, build, valid, stored = ROW_CONTAINERS[container]
        arr = valid.copy()
        arr[(-1,) * (arr.ndim - 1)] = [-1e-13, 1.0 + 1e-13]
        got = stored(build(arr))
        expected = arr.copy()
        expected[arr < 0.0] = 0.0
        np.testing.assert_array_equal(got, expected)
        assert got.flags.writeable is False

    def test_messages(self):
        with pytest.raises(ValueError, match=r"^strategy has a non-finite entry$"):
            distributions([[0.5, 0.5], [np.nan, 1.0]], (2, 2), "strategy")
        with pytest.raises(ValueError, match=r"^tau has negative mass: .*-0\.5"):
            distributions([[[1.0, 0.0], [-0.5, 1.5]]], (1, 2, 2), "tau")
        # the row farthest from mass 1 is named
        with pytest.raises(ValueError, match=r"^tau mass sums to 0\.25, expected 1$"):
            distributions([[[0.25, 0.0], [0.5, 0.0]]], (1, 2, 2), "tau")
        with pytest.raises(ValueError, match=r"^sigma must have shape \(2, 2\), got \(2,\)$"):
            distributions([0.5, 0.5], (2, 2), "sigma")

    def test_belief_messages_unchanged(self):
        with pytest.raises(ValueError, match=r"^belief has negative mass: "):
            Belief([-0.2, 1.2])
        with pytest.raises(ValueError, match=r"^belief mass sums to 0.9, expected 1$"):
            Belief([0.5, 0.4])

    def test_copies_its_input(self):
        src = np.array([[0.5, 0.5]])
        out = distributions(src, (1, 2), "rows")
        assert out is not src and src.flags.writeable


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
