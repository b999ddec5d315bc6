import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perception_games.fixtures import blog, two_player_game
from perception_games.simplex import (
    Belief,
    _posteriors,
    SimplexGrid,
    consistency_errors,
    dirac,
    distributions,
    posterior,
    share_pair,
    tv_distance,
    uniform,
)
from perception_games.single import PerceptionMap, Strategy, is_consistent
from perception_games.two_player import TwoPlayerPerceptions, TwoPlayerStrategy, is_consistent_2p

from helpers import dyadic_rows, reference_posterior


_TENTHS = st.sampled_from((0.0, 0.0, 1.0)) | st.integers(0, 10).map(lambda k: k / 10.0)


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


class TestPosterior:
    def test_sums_mass_in_type_order_from_zero(self):
        # (0.1 + 0.2) + 0.7 is 1.0, while 0.1 + (0.2 + 0.7) is not
        prior = np.array([0.1, 0.2, 0.7])
        np.testing.assert_array_equal(posterior(prior, np.ones(3)), prior)

    def test_conditions_the_prior(self):
        prior = np.array([0.25, 0.75])
        column = np.array([1.0, 0.5])
        np.testing.assert_array_equal(posterior(prior, column), prior * column / 0.625)

    @pytest.mark.parametrize(
        "prior, column",
        [([0.5, 0.5], [0.0, 0.0]), ([0.0, 1.0], [1.0, 0.0]), ([0.0, 0.5, 0.5], [1.0, 0.0, 0.0])],
        ids=["nobody-plays", "zero-prior-player", "zero-prior-player-3"],
    )
    def test_zero_mass_is_off_path(self, prior, column):
        assert posterior(np.array(prior), np.array(column)) is None

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_is_the_type_order_loop(self, data):
        """The one-column case of ``_posteriors`` gives the bits of the
        loop it replaced (``helpers.reference_posterior``): dyadic priors
        with zero entries, or [0.1, 0.2, 0.7], whose sums depend on their
        order, and columns in tenths."""
        prior = data.draw(st.just(np.array([0.1, 0.2, 0.7])) | dyadic_rows(data.draw(st.integers(1, 5))))
        column = np.array(data.draw(st.lists(_TENTHS, min_size=prior.size, max_size=prior.size)))
        got, want = posterior(prior, column), reference_posterior(prior, column)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()


class TestBatchedPosteriors:
    """``_posteriors`` is ``posterior`` on every column of a batch."""

    @staticmethod
    def _assert_is_posterior(prior, cols):
        on, beliefs = _posteriors(prior, cols)
        assert on.shape == cols.shape[1:] and beliefs.shape == cols.shape
        for a, b in np.ndindex(*cols.shape[1:]):
            want = posterior(prior, cols[:, a, b])
            assert bool(on[a, b]) == (want is not None)
            if want is not None:
                assert beliefs[:, a, b].tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_column(self, data):
        """Dyadic priors with zero entries, or the prior [0.1, 0.2, 0.7]
        whose sums depend on their order, and columns in tenths with
        all-zero columns and columns only zero-prior types play."""
        n = data.draw(st.integers(1, 5))
        prior = data.draw(st.just(np.array([0.1, 0.2, 0.7])) | dyadic_rows(n))
        n = prior.size
        shape = (n, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)))
        entries = st.sampled_from((0.0, 0.0, 1.0)) | st.integers(0, 10).map(lambda k: k / 10.0)
        size = shape[0] * shape[1] * shape[2]
        cols = np.reshape(data.draw(st.lists(entries, min_size=size, max_size=size)), shape)
        cols[:, 0, 0] = 0.0
        cols[:, -1, -1] = np.where(prior == 0.0, 1.0, 0.0)
        self._assert_is_posterior(prior, cols)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_prior_per_column(self, data):
        """With one prior per column ``(n, 1, B)``, as the kernel sweeps
        several games' profiles at once, each column's posterior is the
        one its own prior gives."""
        n, A, B = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
        priors = np.stack([data.draw(dyadic_rows(n)) for _ in range(B)], axis=1)[:, None]  # (n, 1, B)
        entries = st.integers(0, 10).map(lambda k: k / 10.0)
        cols = np.reshape(data.draw(st.lists(entries, min_size=n * A * B, max_size=n * A * B)), (n, A, B))
        on, beliefs = _posteriors(priors, cols)
        for b in range(B):
            want_on, want = _posteriors(priors[:, 0, b], cols[:, :, b : b + 1])
            assert on[:, b : b + 1].tobytes() == want_on.tobytes()
            assert beliefs[:, :, b : b + 1].tobytes() == want.tobytes()

    def test_off_path_columns(self):
        prior = np.array([0.0, 0.5, 0.5])
        cols = np.array([[1.0, 0.0, 0.25], [0.0, 0.0, 0.5], [0.0, 0.0, 0.25]])[:, None, :]
        on, _ = _posteriors(prior, cols)
        assert on.tolist() == [[False, False, True]]
        self._assert_is_posterior(prior, cols)


class TestShareBounds:
    """``share_pair`` on the low and high ends stacked."""

    def test_corners(self):
        lo, hi = share_pair(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
        assert lo == pytest.approx(1.0 / 5.0, rel=1e-11) and lo < 1.0 / 5.0
        assert hi == pytest.approx(3.0 / 5.0, rel=1e-11) and hi > 3.0 / 5.0

    def test_no_mass_at_a_corner(self):
        """No part mass gives 0; part mass alone gives (just over) 1."""
        lo, hi = share_pair(np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(lo, [0.0, 0.0])
        assert hi[0] == 0.0 and 1.0 < hi[1] < 1.0 + 1e-11

    @given(st.lists(st.integers(0, 8), min_size=4, max_size=4), st.integers(0, 8), st.integers(0, 8))
    def test_holds_the_rounded_share(self, ends, part, rest):
        """Every share of masses in the box, as the kernel rounds it."""
        p_lo, p_hi, r_lo, r_hi = (np.array(x / 8.0) for x in (*sorted(ends[:2]), *sorted(ends[2:])))
        part = min(max(part / 8.0, p_lo), p_hi)
        rest = min(max(rest / 8.0, r_lo), r_hi)
        if part + rest > 0.0:
            x = part / (part + rest)
            lo, hi = share_pair(np.stack((p_lo, p_hi)), np.stack((r_lo, r_hi)))
            assert lo <= x <= hi


class TestConsistencyErrors:
    def test_action_major_type_minor(self):
        prior = np.array([0.5, 0.5])
        sigma = np.array([[0.75, 0.25, 0.0], [0.25, 0.75, 0.0]])
        tau = np.tile([0.0, 1.0], (2, 3, 1))  # action 2 is off path
        errors = consistency_errors(prior, sigma, tau, 1e-9)
        assert [(t, a) for t, a, _ in errors] == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert [err for _, _, err in errors] == [0.75, 0.75, 0.25, 0.25]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_is_the_per_action_loop(self, data):
        """Every action's posterior taken at once gives the errors of one
        ``reference_posterior`` per action, in action-major order."""
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        prior = data.draw(dyadic_rows(n))
        sigma = np.reshape(data.draw(st.lists(_TENTHS, min_size=n * m, max_size=n * m)), (n, m))
        tau = np.stack([[data.draw(dyadic_rows(n)) for _ in range(m)] for _ in range(n)])
        want = []
        for a in range(m):
            post = reference_posterior(prior, sigma[:, a])
            if post is not None:
                want += [(t, a, tv_distance(tau[t, a], post)) for t in range(n)]
        tol = data.draw(st.sampled_from((0.0, 0.1, 0.5)))
        assert consistency_errors(prior, sigma, tau, tol) == [w for w in want if w[2] > tol]

    def test_single_player_labels_keep_the_order(self):
        game = blog()
        strategy = Strategy(game, [[0.75, 0.25], [0.25, 0.75]])
        res = is_consistent(game, strategy, PerceptionMap.constant(game, dirac(1, 2)))
        assert [v[:2] for v in res.violations] == [("l", "L"), ("r", "L"), ("l", "R"), ("r", "R")]

    def test_two_player_order_is_player_observer_action_type(self):
        game = two_player_game()
        sigma = [[0.75, 0.25], [0.25, 0.75]]
        strategy = TwoPlayerStrategy(game, [sigma, sigma])
        taus = [np.tile([0.0, 1.0], (2, 2, 2, 1))] * 2
        ok, violations = is_consistent_2p(game, strategy, TwoPlayerPerceptions(game, taus))
        assert not ok
        index = []
        for i, t, t_obs, a, _ in violations:
            own, other = game.players[i], game.players[1 - i]
            index.append(
                (i, other.types.index(t_obs), own.actions.index(a), own.types.index(t))
            )
        assert index == list(product(range(2), repeat=4))


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

    @pytest.mark.parametrize("resolution", [2.5, 2.0, True, None, "2", np.float64(3.0), -1])
    def test_resolution_must_be_an_integer(self, resolution):
        # 2.5 was truncated to 2 and True read as 1
        with pytest.raises(ValueError, match="^resolution must be a positive integer$"):
            SimplexGrid(2, resolution)

    def test_numpy_integer_resolution(self):
        grid = SimplexGrid(2, np.int64(3))
        assert type(grid.resolution) is int and grid.size == 4
