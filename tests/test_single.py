import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perception_games import kernels, model, single
from perception_games.experiments import SeparableGameSpec, counterexample_check, default_majority_family, scan_alpha
from perception_games.fixtures import blog, counterexample_lsc, counterexample_usc
from perception_games.model import ActionSpace, PerceptionGame, TypeSpace, UtilityModel
from perception_games.penalties import MARGINAL_KINDS, Penalty, PenaltySpec
from perception_games.simplex import Belief, SimplexGrid
from perception_games.single import (
    PerceptionMap,
    Strategy,
    classify_pure_profile,
    enumerate_pure_equilibria,
    is_consistent,
    legislation_welfare,
    payoff_and_gain,
    pooling_check,
    profile_report,
    search_mixed_equilibria,
    verify_equilibrium,
)
from perception_games.testing import _random_penalty, dyadic_prior, random_mixed_catalog_game

from helpers import (
    majority_games,
    oracle_pure_gains,
    reference_mixed_search,
    reference_pooling_check,
    reference_profile_report,
    spec_to_dict,
    tabulate,
)
from test_kernels import (
    _all_profiles,
    additive_catalog_games,
    catalog_games,
    eight_type_game,
    full_event_step_game,
    polyline_knots_game,
    step_bounds_game,
    tied_prior_tv_game,
    zero_prior_game,
)


def _blog_weight(w):
    return PerceptionGame(
        types=TypeSpace.plain(("l", "r")),
        actions=ActionSpace.plain(("L", "R")),
        prior=[0.5, 0.5],
        utility=UtilityModel(
            kind="additive_separable",
            v=np.array([[1.0, 0.0], [0.0, 1.0]]),
            penalties=(PenaltySpec.tv_to_prior(w), PenaltySpec.tv_to_prior(w)),
        ),
        name=f"blog-w{w}",
    )


class TestStrategy:
    def test_pure_by_label_and_index(self):
        g = blog()
        s1 = Strategy.pure(g, ("L", "R"))
        s2 = Strategy.pure(g, (0, 1))
        np.testing.assert_array_equal(s1.sigma, s2.sigma)
        assert s1.is_pure and s1.pure_actions() == (0, 1)

    @pytest.mark.parametrize("actions", [(-1, -1), (0, 2)], ids=["negative", "past-end"])
    def test_pure_action_out_of_range_raises(self, actions):
        with pytest.raises(ValueError, match="not in range"):
            Strategy.pure(blog(), actions)

    @pytest.mark.parametrize(
        "actions", [(0.7, 0.7), (True, True), (0, 1.0), (np.bool_(True), 0), (None, 0)],
        ids=["float", "bool", "whole-float", "numpy-bool", "none"],
    )
    def test_pure_action_must_be_a_label_or_an_integer(self, actions):
        # int() read 0.7 as action 0 and True as action 1, without a word
        with pytest.raises(ValueError, match=r"^action must be an integer, got "):
            Strategy.pure(blog(), actions)

    def test_pure_takes_numpy_integers_and_labels(self):
        g = blog()
        np.testing.assert_array_equal(Strategy.pure(g, np.array([0, 1])).sigma, np.eye(2))
        np.testing.assert_array_equal(Strategy.pure(g, (np.int8(1), "L")).sigma, [[0.0, 1.0], [1.0, 0.0]])

    def test_row_mass_checked(self):
        g = blog()
        with pytest.raises(ValueError):
            Strategy(g, np.array([[0.6, 0.6], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            Strategy(g, np.zeros((3, 2)))

    def test_rows_frozen(self):
        s = Strategy.pure(blog(), (0, 0))
        with pytest.raises(ValueError):
            s.sigma[0, 0] = 0.5

    def test_describe_drops_zero_mass(self):
        g = blog()
        s = Strategy(g, np.array([[0.25, 0.75], [0.0, 1.0]]))
        assert s.describe() == {"l": {"L": 0.25, "R": 0.75}, "r": {"R": 1.0}}
        assert not s.is_pure and s.pure_actions() is None

    def test_support(self):
        g = blog()
        s = Strategy(g, np.array([[0.5, 0.5], [1.0, 0.0]]))
        assert s.support(0) == [0, 1]
        assert s.support(1) == [0]


class TestPerceptionMap:
    def test_shape_and_rows_checked(self):
        g = blog()
        with pytest.raises(ValueError):
            PerceptionMap(g, np.zeros((2, 2)))
        bad = np.full((2, 2, 2), 0.9)
        with pytest.raises(ValueError):
            PerceptionMap(g, bad)

    def test_constant(self):
        g = blog()
        pm = PerceptionMap.constant(g, g.prior)
        assert pm.belief(1, 0).isclose(g.prior)


class TestConsistency:
    def test_posterior_rows_required_on_path(self):
        g = blog()
        s = Strategy.pure(g, (0, 1))  # separating: posteriors are diracs
        tau = np.empty((2, 2, 2))
        tau[:, 0] = [1.0, 0.0]
        tau[:, 1] = [0.0, 1.0]
        ok = is_consistent(g, s, PerceptionMap(g, tau))
        assert ok.consistent and ok.violations == ()

    def test_violation_reported_with_labels(self):
        g = blog()
        s = Strategy.pure(g, (0, 1))
        pm = PerceptionMap.constant(g, g.prior)  # prior is not the dirac posterior
        res = is_consistent(g, s, pm)
        assert not res.consistent
        names = {(t, a) for t, a, _ in res.violations}
        assert ("l", "L") in names and ("r", "R") in names
        assert all(err == pytest.approx(0.5) for _, _, err in res.violations)

    def test_off_path_rows_unconstrained(self):
        g = blog()
        s = Strategy.pure(g, (0, 0))  # R never played
        tau = np.empty((2, 2, 2))
        tau[:, 0] = [0.5, 0.5]
        tau[0, 1] = [1.0, 0.0]
        tau[1, 1] = [0.0, 1.0]  # types may expect different off-path beliefs
        assert is_consistent(g, s, PerceptionMap(g, tau)).consistent


def _python_fold(sigma_row, values):
    """One row's payoff, gain and first best action as a Python fold:
    the payoff summed from 0.0 in action order, the first max."""
    sig, vals = [float(p) for p in sigma_row], [float(x) for x in values]
    payoff = 0.0
    for p, x in zip(sig, vals):
        payoff += p * x
    best = vals.index(max(vals))
    return payoff, vals[best] - payoff, best


@st.composite
def _fold_inputs(draw):
    """Rows of one-hot or dyadic mixed actions and values (signed zeros,
    negatives and ties among them), with leading shape ``()``, ``(n,)``
    or ``(B, n)``."""
    m = draw(st.integers(1, 4))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rows = int(np.prod(lead, dtype=np.int64))

    def row(_):
        if draw(st.booleans()):
            return np.eye(m)[draw(st.integers(0, m - 1))]
        counts = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m).filter(any))
        return np.array(counts) / sum(counts)

    sigma = np.array([row(k) for k in range(rows)]).reshape(lead + (m,))
    value = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1.0, -2.5]), st.floats(-8.0, 8.0))
    values = np.array(draw(st.lists(value, min_size=rows * m, max_size=rows * m))).reshape(lead + (m,))
    return sigma, values


class TestPayoffAndGain:
    """The batched fold is the Python fold of each row, bit for bit, on
    any leading shape, and one row gives NumPy scalars."""

    @settings(max_examples=300, deadline=None)
    @given(_fold_inputs())
    def test_rows_are_the_python_fold(self, inputs):
        sigma, values = inputs
        payoff, gain, best = payoff_and_gain(sigma, values)
        lead, m = sigma.shape[:-1], sigma.shape[-1]
        want = [_python_fold(s, v) for s, v in zip(sigma.reshape(-1, m), values.reshape(-1, m))]
        assert np.shape(payoff) == np.shape(gain) == np.shape(best) == lead
        assert np.reshape(payoff, -1).tobytes() == np.array([w[0] for w in want]).tobytes()
        assert np.reshape(gain, -1).tobytes() == np.array([w[1] for w in want]).tobytes()
        assert np.reshape(best, -1).tolist() == [w[2] for w in want]
        if not lead:
            assert type(payoff) is np.float64 and type(gain) is np.float64
            assert isinstance(best, np.integer)

    def test_first_max_and_no_negative_zero_payoff(self):
        payoff, gain, best = payoff_and_gain([[0.0, 1.0], [1.0, 0.0]], [[-0.0, 0.0], [-0.0, -0.0]])
        assert best.tolist() == [0, 0]
        # the first max is -0.0, and a sum from 0.0 is never -0.0
        assert payoff.tobytes() == np.array([0.0, 0.0]).tobytes()
        assert gain.tobytes() == np.array([-0.0, -0.0]).tobytes()


class TestVerifyEquilibrium:
    def _pool_L(self, g):
        s = Strategy.pure(g, (0, 0))
        tau = np.empty((2, 2, 2))
        tau[:, 0] = [0.5, 0.5]
        tau[:, 1] = [1.0, 0.0]  # deterring off-path belief
        return s, PerceptionMap(g, tau)

    def test_accepts_pooling_with_deterrent(self):
        g = blog()
        s, pm = self._pool_L(g)
        res = verify_equilibrium(g, s, pm)
        assert res.accepted and res.consistent
        np.testing.assert_allclose(res.payoffs, [1.0, 0.0])
        assert res.max_gain <= 1e-9

    def test_rejects_tempting_off_path_belief(self):
        g = blog()
        s = Strategy.pure(g, (0, 0))
        tau = np.empty((2, 2, 2))
        tau[:, 0] = [0.5, 0.5]
        tau[:, 1] = [0.5, 0.5]  # type r would deviate to R for 1 - 0 > 0
        res = verify_equilibrium(g, s, PerceptionMap(g, tau))
        assert not res.accepted and res.consistent
        assert res.max_gain == pytest.approx(1.0)
        assert res.worst_type == "r" and res.worst_action == "R"

    def test_rejects_inconsistent_pair(self):
        g = blog()
        s = Strategy.pure(g, (0, 1))
        res = verify_equilibrium(g, s, PerceptionMap.constant(g, g.prior))
        assert not res.accepted and not res.consistent and res.violations

    def test_eps_slack_flips_accept(self):
        g = blog()
        s = Strategy.pure(g, (0, 0))
        tau = np.empty((2, 2, 2))
        tau[:, 0] = [0.5, 0.5]
        tau[:, 1] = [0.5, 0.5]
        assert not verify_equilibrium(g, s, PerceptionMap(g, tau), eps=0.5).accepted
        assert verify_equilibrium(g, s, PerceptionMap(g, tau), eps=1.0).accepted

    def test_worst_is_first_type_and_action_among_ties(self):
        # types b and c both gain 1, by Y or Z alike; a gains only 0.5
        g = PerceptionGame(
            types=TypeSpace.plain(("a", "b", "c")),
            actions=ActionSpace.plain(("X", "Y", "Z")),
            prior=Belief([0.25, 0.25, 0.5]),
            utility=UtilityModel(
                kind="additive_separable",
                v=np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
                penalties=(PenaltySpec.zero(),) * 3,
            ),
        )
        s = Strategy.pure(g, (0, 0, 0))
        res = verify_equilibrium(g, s, PerceptionMap.constant(g, g.prior))
        np.testing.assert_array_equal(res.gains, [0.5, 1.0, 1.0])
        assert (res.max_gain, res.worst_type, res.worst_action) == (1.0, "b", "Y")


class TestClassifyPureProfile:
    def test_plain(self):
        g = blog()
        assert classify_pure_profile(g, (0, 0)) == "pool:L"
        assert classify_pure_profile(g, (1, 1)) == "pool:R"
        assert classify_pure_profile(g, (0, 1)) == "separating"
        assert classify_pure_profile(g, (1, 0)) == "separating"

    def test_plain_three_types_partial_pool_is_other(self):
        g = PerceptionGame(
            types=TypeSpace.plain(("a", "b", "c")),
            actions=ActionSpace.plain(("x", "y", "z")),
            prior=[1 / 3, 1 / 3, 1 / 3],
            utility=UtilityModel(
                kind="additive_separable", v=np.zeros((3, 3)), penalties=(PenaltySpec.zero(),) * 3
            ),
        )
        assert classify_pure_profile(g, (0, 0, 1)) == "other"
        assert classify_pure_profile(g, (2, 0, 1)) == "separating"

    def test_factored_groups_by_outcome(self):
        g = PerceptionGame(
            types=TypeSpace.product(("o0", "o1"), ("p", "q")),
            actions=ActionSpace.plain(("x", "y")),
            prior=[0.25] * 4,
            utility=UtilityModel(
                kind="additive_separable", v=np.zeros((4, 2)), penalties=(PenaltySpec.zero(),) * 4
            ),
        )
        # outcome o0 -> x, o1 -> y regardless of the privacy factor
        assert classify_pure_profile(g, (0, 0, 1, 1)) == "separating"
        # privacy factor splits an outcome group
        assert classify_pure_profile(g, (0, 1, 1, 1)) == "other"
        assert classify_pure_profile(g, (1, 1, 1, 1)) == "pool:y"


class TestBlogRegression:
    def test_three_pure_equilibria(self):
        g = blog()
        reports = enumerate_pure_equilibria(g)
        assert [r.label for r in reports] == ["pool:L", "separating", "pool:R"]
        np.testing.assert_allclose(reports[0].payoffs, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(reports[1].payoffs, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(reports[2].payoffs, [0.0, 1.0], atol=1e-12)

    def test_pool_L_witness_offpath_row(self):
        g = blog()
        rep = next(r for r in enumerate_pure_equilibria(g) if r.label == "pool:L")
        # deterring belief: penalty peaks at the first argmin vertex of
        # the prior, which is the point mass on type l
        for t in range(2):
            np.testing.assert_array_equal(rep.perceptions.tau[t, 1], [1.0, 0.0])
            np.testing.assert_allclose(rep.perceptions.tau[t, 0], [0.5, 0.5])

    def test_pool_R_deterrence_is_a_tie(self):
        g = blog()
        rep = next(r for r in enumerate_pure_equilibria(g) if r.label == "pool:R")
        # type l at R earns 0; deviating to L earns at most v - w_max = 0
        assert rep.gains[0] == pytest.approx(0.0, abs=1e-12)

    def test_crossed_profile_rejected_with_gain_one(self):
        g = blog()
        rep = profile_report(g, Strategy.pure(g, (1, 0)).sigma)
        assert rep.label == "separating"
        assert rep.max_gain == pytest.approx(1.0)

    def test_zero_weight_collapses_to_separation(self):
        g = _blog_weight(0.0)
        reports = enumerate_pure_equilibria(g)
        assert [r.label for r in reports] == ["separating"]

    def test_witnesses_verify(self):
        g = blog()
        for rep in enumerate_pure_equilibria(g):
            res = verify_equilibrium(g, rep.strategy, rep.perceptions)
            assert res.accepted

    def test_legislation(self):
        g = blog()
        rep = legislation_welfare(g)
        np.testing.assert_allclose(rep.payoffs, [1.0, 1.0])
        assert rep.chosen == ("L", "R")
        assert rep.best_actions == (("L",), ("R",))
        assert rep.total == pytest.approx(1.0)

    def test_mixed_sweep_finds_only_the_pure_three(self):
        g = blog()
        res = search_mixed_equilibria(g, step=0.05)
        assert res.resolution == 20 and not res.subsampled and not res.truncated
        assert res.survivor_count == 3
        assert res.min_max_gain == pytest.approx(0.0, abs=1e-12)
        labels = sorted(r.label for r in res.survivors)
        assert labels == ["pool:L", "pool:R", "separating"]
        assert all(r.strategy.is_pure for r in res.survivors)


class TestMixedSearchMechanics:
    def test_step_must_divide_one(self):
        with pytest.raises(ValueError):
            search_mixed_equilibria(blog(), step=0.3)

    @pytest.mark.parametrize("step", [0.0, -0.25, float("nan"), float("inf"), 5e-324])
    def test_nonpositive_or_nonfinite_step(self, step):
        with pytest.raises(ValueError, match="reciprocal of a positive integer"):
            search_mixed_equilibria(blog(), step=step)

    def test_per_type_grid_over_the_cap(self):
        # 101 points per type: even one type's grid exceeds max_profiles
        with pytest.raises(ValueError, match="101 points per type"):
            search_mixed_equilibria(blog(), step=0.01, max_profiles=100)

    def test_oversized_grid_is_not_built(self, monkeypatch):
        def refuse(grid):
            raise AssertionError(f"built {grid!r}")

        monkeypatch.setattr(SimplexGrid, "points", refuse)
        with pytest.raises(ValueError, match="10000001 points per type"):
            search_mixed_equilibria(blog(), step=1e-7)

    def test_grid_past_an_index_sized_integer(self):
        # 10^20 + 1 points per type: ``len`` of the grid would overflow
        with pytest.raises(ValueError, match="100000000000000000001 points per type"):
            search_mixed_equilibria(blog(), step=1e-20)

    @pytest.mark.parametrize("cap", [-1, -3])
    def test_negative_max_survivors(self, monkeypatch, cap):
        """Rejected before any work: ``within[:-1]`` would drop the last
        survivor and report ``truncated``."""

        def refuse(*args):
            raise AssertionError("packed the game")

        monkeypatch.setattr(single, "pack_game", refuse)
        monkeypatch.setattr(SimplexGrid, "points", refuse)
        with pytest.raises(ValueError, match="max_survivors must be nonnegative"):
            search_mixed_equilibria(blog(), step=0.25, max_survivors=cap)

    @pytest.mark.parametrize(
        "search, cap, value",
        [
            ("mixed", "max_profiles", float("nan")),
            ("mixed", "max_profiles", 1000.0),
            ("mixed", "max_profiles", True),
            ("mixed", "max_survivors", float("nan")),
            ("mixed", "max_survivors", 2.5),
            ("mixed", "max_survivors", 10.0),
            ("pure", "max_profiles", float("nan")),
            ("pure", "max_profiles", 100.0),
            ("pure", "max_profiles", "100"),
        ],
    )
    def test_caps_must_be_integers(self, monkeypatch, search, cap, value):
        """Rejected before any work: a NaN cap compares False with every
        count and turned the cap off, a float ``max_profiles`` failed in
        numpy after the game was packed, and a float ``max_survivors`` in
        a slice after the whole sweep."""

        def refuse(*args):
            raise AssertionError("packed the game")

        monkeypatch.setattr(single, "pack_game", refuse)
        monkeypatch.setattr(SimplexGrid, "points", refuse)
        with pytest.raises(ValueError, match=f"^{cap} must be an integer, got {value!r}$"):
            if search == "mixed":
                search_mixed_equilibria(blog(), step=0.01, **{cap: value})
            else:
                enumerate_pure_equilibria(blog(), **{cap: value})

    def test_numpy_integer_caps(self):
        want = search_mixed_equilibria(blog(), step=0.01, max_profiles=500, max_survivors=1, seed=3)
        got = search_mixed_equilibria(
            blog(), step=0.01, max_profiles=np.int64(500), max_survivors=np.int32(1), seed=3
        )
        assert (got.swept, got.survivor_count, got.min_max_gain) == (500, want.survivor_count, want.min_max_gain)
        np.testing.assert_array_equal(got.argmin.sigma, want.argmin.sigma)
        pure = enumerate_pure_equilibria(blog(), max_profiles=np.uint8(4))
        assert [r.label for r in pure] == [r.label for r in enumerate_pure_equilibria(blog())]

    def test_zero_max_survivors_counts_all(self):
        res = search_mixed_equilibria(blog(), step=0.25, max_survivors=0)
        assert res.survivors == () and res.survivor_count == 3 and res.truncated

    def test_subsample_is_seeded(self):
        g = blog()
        a = search_mixed_equilibria(g, step=0.01, max_profiles=500, seed=7)
        b = search_mixed_equilibria(g, step=0.01, max_profiles=500, seed=7)
        c = search_mixed_equilibria(g, step=0.01, max_profiles=500, seed=8)
        assert a.subsampled and a.swept == 500
        np.testing.assert_array_equal(a.argmin.sigma, b.argmin.sigma)
        assert a.min_max_gain == b.min_max_gain
        assert a.total == c.total  # same grid, different draw

    def test_survivors_reverify(self):
        g = blog()
        res = search_mixed_equilibria(g, step=0.1)
        assert res.survivors
        for rep in res.survivors:
            assert verify_equilibrium(g, rep.strategy, rep.perceptions).accepted

    def test_enumerate_cap(self):
        g = blog()
        with pytest.raises(ValueError):
            enumerate_pure_equilibria(g, max_profiles=3)


def _outcome(res):
    """What the cell screen must leave as the full sweep gives it: the
    survivors' strategies and payoffs, their count, ``truncated``, the
    least gain and the argmin, all as bits."""
    assert res.evaluated <= res.swept == res.total
    return (
        [(rep.strategy.sigma.tobytes(), rep.payoffs.tobytes()) for rep in res.survivors],
        res.survivor_count,
        res.truncated,
        res.min_max_gain.hex(),
        res.argmin.sigma.tobytes(),
    )


def _assert_as_full_sweep(game, step, tol=1e-9, caps=(0, 1, 2, 10_000)):
    for cap in caps:
        res = search_mixed_equilibria(game, step=step, tol=tol, max_survivors=cap)
        assert _outcome(res) == _outcome(reference_mixed_search(game, step, tol, cap))
    return res


class TestScreenedSearch:
    """The cell screen leaves every result of the full-grid sweep as it
    was (``reference_mixed_search``) while the kernel evaluates fewer
    profiles."""

    @pytest.mark.parametrize("alpha", [round(k * 0.05, 10) for k in range(21)])
    def test_majority_alphas(self, alpha):
        _assert_as_full_sweep(default_majority_family().game_for(alpha), 0.05)

    @pytest.mark.parametrize(
        "build, step",
        [
            (blog, 0.05),
            (zero_prior_game, 0.25),
            (eight_type_game, 1.0),
            (polyline_knots_game, 0.25),
            (step_bounds_game, 0.25),
            (step_bounds_game, 0.1),
            (tied_prior_tv_game, 0.1),
            (full_event_step_game, 0.2),
        ],
    )
    def test_catalog_games(self, build, step):
        _assert_as_full_sweep(build(), step)

    @settings(max_examples=60, deadline=None)
    @given(
        game=additive_catalog_games(),
        resolution=st.integers(1, 6),
        cap=st.sampled_from([0, 1, 10_000]),
    )
    def test_random_catalog_games(self, game, resolution, cap):
        while SimplexGrid(game.m, resolution).size ** game.n > 50_000:
            resolution -= 1
        _assert_as_full_sweep(game, 1.0 / resolution, caps=(cap,))

    def test_majority_evaluates_under_two_percent(self):
        res = search_mixed_equilibria(default_majority_family().game_for(0.5), step=0.05)
        assert (res.total, res.swept) == (194_481, 194_481)
        assert res.evaluated < 0.02 * res.total

    @staticmethod
    def _screens(monkeypatch) -> list:
        """Records each game's screen: its limit and how many codes it
        kept. A screen of a list of packs records one entry per pack."""
        screens = []
        screen = single.screen_profiles

        def spy(packs, pts, limit):
            out = screen(packs, pts, limit)
            for codes, _ in [out] if isinstance(out, tuple) else out:
                screens.append((limit, codes.size))
            return out

        monkeypatch.setattr(single, "screen_profiles", spy)
        return screens

    @pytest.mark.parametrize("build, pruned", [(counterexample_lsc, True), (counterexample_usc, False)])
    def test_no_survivor(self, monkeypatch, build, pruned):
        """With nothing surviving, a screen that pruned a cell runs again
        at the least gain found; one that pruned nothing evaluated all."""
        screens = self._screens(monkeypatch)
        res = _assert_as_full_sweep(build(), 0.05, caps=(10_000,))
        assert res.survivor_count == 0
        assert (res.evaluated < res.total) == pruned
        assert [limit for limit, _ in screens] == [1e-9, res.min_max_gain][: 1 + pruned]

    def test_tied_least_gain_above_tol_takes_the_lowest_code(self, monkeypatch):
        """In ``counterexample_lsc`` at step 0.05, codes 21 and 439
        (mirror images: types and actions swapped) share the least gain,
        0.05, and nothing survives, so the second screen runs."""
        game = counterexample_lsc()
        pts = SimplexGrid(2, 20).points()
        gains = kernels.sweep_profile_gains(kernels.pack_game(game), pts, np.arange(441))
        assert np.flatnonzero(gains == gains.min()).tolist() == [21, 439]
        screens = self._screens(monkeypatch)
        res = _assert_as_full_sweep(game, 0.05, caps=(10_000,))
        assert len(screens) == 2
        np.testing.assert_array_equal(res.argmin.sigma, kernels.decode_profiles(pts, 21, 2))

    @pytest.mark.parametrize("build", [blog, counterexample_lsc])
    def test_every_cell_pruned(self, monkeypatch, build):
        """A tolerance below every bound prunes the root, so the first
        screen keeps nothing; the lowest code seeds the second. In
        ``blog`` codes 0, 420 and 440 tie at gain 0."""
        screens = self._screens(monkeypatch)
        res = _assert_as_full_sweep(build(), 0.05, tol=-10.0, caps=(0, 10_000))
        assert screens[0][1] == 0 and len(screens) == 4
        assert res.survivor_count == 0

    def test_subsample_and_tabulated_evaluate_what_they_sweep(self):
        sub = search_mixed_equilibria(blog(), step=0.01, max_profiles=500, seed=7)
        assert sub.subsampled and sub.evaluated == sub.swept == 500
        tab = search_mixed_equilibria(tabulate(blog(), 8), step=0.25)
        assert not tab.subsampled and tab.evaluated == tab.swept == tab.total == 25


def _fields(res):
    """Every field of a search result as bits, survivors' reports whole."""
    return (
        (res.step, res.resolution, res.total, res.swept, res.evaluated, res.subsampled),
        res.min_max_gain.hex(),
        res.argmin.sigma.tobytes(),
        [
            (
                rep.strategy.sigma.tobytes(),
                rep.perceptions.tau.tobytes(),
                rep.payoffs.tobytes(),
                rep.gains.tobytes(),
                rep.max_gain.hex(),
                rep.label,
                rep.clamped,
            )
            for rep in res.survivors
        ],
        res.survivor_count,
        res.truncated,
    )


class TestMixedSearches:
    """``_mixed_searches`` gives each game what its own
    ``search_mixed_equilibria`` gives, field by field, with one screen
    for a template and the games derived from it."""

    @pytest.mark.parametrize("cap", [0, 2, 10_000])
    def test_each_game_as_searched_alone(self, monkeypatch, cap):
        # the inner alphas 0.3 and 0.7 of one template, as scan_alpha derives them
        at_3, at_0, at_7, at_10 = majority_games([0.3, 0.0, 0.7, 1.0])
        games = [
            at_3,
            zero_prior_game(),  # 231**3 profiles: subsampled
            at_0,
            tabulate(blog(), 8),
            counterexample_lsc(),  # no survivor: a second screen
            blog(),
            at_7,
            at_10,
        ]
        args = dict(step=0.05, tol=1e-9, seed=7, max_profiles=200_000, max_survivors=cap)
        alone = [search_mixed_equilibria(g, **args) for g in games]
        screened = []
        screen = kernels._screen

        def spy(packs, pts, limit):
            screened.append(len(packs))
            return screen(packs, pts, limit)

        monkeypatch.setattr(kernels, "_screen", spy)
        together = single._mixed_searches(games, **args)
        assert [_fields(r) for r in together] == [_fields(r) for r in alone]
        assert [r.subsampled for r in together] == [False, True] + [False] * 6
        assert together[4].survivor_count == 0 and together[4].evaluated < together[4].total
        # one screen pass per group: the inner alphas share one, and
        # counterexample_lsc screens twice
        assert sorted(screened) == [1, 1, 1, 1, 1, 2]

    def test_no_games(self):
        assert single._mixed_searches([]) == []


def _drawn_outcome(res):
    """``_outcome`` for a subsampled search, with what it swept."""
    return (
        [(rep.strategy.sigma.tobytes(), rep.payoffs.tobytes()) for rep in res.survivors],
        res.survivor_count,
        res.truncated,
        res.min_max_gain.hex(),
        res.argmin.sigma.tobytes(),
        (res.total, res.swept, res.evaluated, res.subsampled),
    )


class TestToleranceArguments:
    """A NaN tolerance fails every comparison, and a negative one keeps no
    tied action: each is rejected before any utility is evaluated."""

    @pytest.fixture
    def no_utility(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("evaluated a utility")

        monkeypatch.setattr(PerceptionGame, "u", fail)
        monkeypatch.setattr(PerceptionGame, "w", fail)

    @pytest.mark.parametrize("tol", [float("nan"), -0.1, -float("inf")])
    def test_legislation_needs_a_nonnegative_tol(self, no_utility, tol):
        # the empty tie list raised IndexError
        with pytest.raises(ValueError, match=r"^tol must be a nonnegative number, got"):
            legislation_welfare(blog(), tol=tol)

    def test_pooling_rejects_nan_tol(self, no_utility):
        # a NaN tol found full pooling where the default finds none
        with pytest.raises(ValueError, match=r"^tol must be a number, got nan$"):
            pooling_check(default_majority_family().game_for(0.5), "lower", tol=float("nan"))

    def test_searches_reject_nan_tol(self, monkeypatch):
        # a NaN tol kept no profile, so every search reported none
        def fail(*args, **kwargs):
            raise AssertionError("packed a game or built its codes")

        monkeypatch.setattr(single, "pack_game", fail)
        monkeypatch.setattr(single, "_pure_codes", fail)
        nan = float("nan")
        for run in (
            lambda: search_mixed_equilibria(blog(), 0.25, tol=nan),
            lambda: single._mixed_searches([blog(), counterexample_lsc()], 0.25, tol=nan),
            lambda: enumerate_pure_equilibria(blog(), nan),
        ):
            with pytest.raises(ValueError, match=r"^tol must be a number, got nan$"):
                run()

    def test_consistency_and_verification_reject_nan_tol_and_eps(self, no_utility, monkeypatch):
        # every perception a point mass on type 0 is inconsistent with the
        # separating profile, but a NaN tol failed every comparison and
        # certified the pair as consistent
        g = blog()
        strategy = Strategy.pure(g, (0, 1))
        perceptions = PerceptionMap.constant(g, Belief([1.0, 0.0]))
        assert not is_consistent(g, strategy, perceptions, tol=1e-9).consistent

        def fail(*args, **kwargs):
            raise AssertionError("checked consistency")

        monkeypatch.setattr(single, "consistency_errors", fail)
        nan = float("nan")
        for run, name in (
            (lambda: is_consistent(g, strategy, perceptions, tol=nan), "tol"),
            (lambda: verify_equilibrium(g, strategy, perceptions, tol=nan), "tol"),
            (lambda: verify_equilibrium(g, strategy, perceptions, eps=nan), "eps"),
        ):
            with pytest.raises(ValueError, match=rf"^{name} must be a number, got nan$"):
                run()

    def test_negative_tol_keeps_searches_valid(self):
        assert enumerate_pure_equilibria(blog(), -1.0) == []
        res = search_mixed_equilibria(blog(), 0.25, tol=-1.0)
        assert res.survivor_count == 0
        assert res.min_max_gain == search_mixed_equilibria(blog(), 0.25).min_max_gain

    def test_negative_tol_keeps_pooling_valid(self):
        assert pooling_check(blog(), "upper", tol=-1.0).exists is False
        assert legislation_welfare(blog(), tol=float("inf")).best_actions == (("L", "R"), ("L", "R"))


class TestSearchArguments:
    def test_grid_beyond_int64_codes_rejected(self, monkeypatch):
        # 1001**7 profiles: more codes than an int64 holds, though the
        # per-type grid fits max_profiles
        game = PerceptionGame(
            types=TypeSpace.plain(tuple(f"t{i}" for i in range(7))),
            actions=ActionSpace.plain(("a", "b")),
            prior=[1 / 7] * 7,
            utility=UtilityModel(kind="additive_separable", v=np.zeros((7, 2)), penalties=(PenaltySpec.zero(),) * 7),
        )

        def fail(*args, **kwargs):
            raise AssertionError("swept")

        monkeypatch.setattr(single, "reduce_profile_gains", fail)
        with pytest.raises(ValueError, match=f"profile grid of size {1001 ** 7} cannot be indexed"):
            search_mixed_equilibria(game, step=0.001)

    def test_whole_grid_beyond_int64_codes_rejected(self, monkeypatch):
        # 21**15 profiles, under max_profiles so swept whole: the codes of
        # the profiles where type 0 plays a overflowed, the first sweep
        # kept no survivor, and the second screen grew until _split asked
        # for gibibytes
        v = np.array([[1.0, 0.0] if t % 2 == 0 else [0.0, 1.0] for t in range(15)])
        game = PerceptionGame(
            types=TypeSpace.plain(tuple(f"t{i}" for i in range(15))),
            actions=ActionSpace.plain(("a", "b")),
            prior=[1 / 15] * 15,
            utility=UtilityModel(kind="additive_separable", v=v, penalties=(PenaltySpec.zero(),) * 15),
        )

        def fail(*args, **kwargs):
            raise AssertionError("packed")

        monkeypatch.setattr(single, "pack_game", fail)
        for run in (
            lambda: search_mixed_equilibria(game, step=0.05, max_profiles=10**30),
            lambda: single._mixed_searches([blog(), game], step=0.05, max_profiles=10**30),
        ):
            with pytest.raises(ValueError, match=f"^profile grid of size {21 ** 15} cannot be indexed$"):
                run()

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", True])
    def test_bad_seed_rejected_before_any_work(self, seed, monkeypatch):
        """A seed is None or a nonnegative integer. Any other is rejected
        before any game is built or packed: on a whole grid, which leaves
        the seed unused, as on a subsampled one, where numpy rejected it
        only after the grid was packed and ``True`` ran as seed 1."""

        def fail(*args, **kwargs):
            raise AssertionError("did work")

        monkeypatch.setattr(kernels, "_pack", fail)
        monkeypatch.setattr(SeparableGameSpec, "_game", fail)
        for run in (
            lambda: search_mixed_equilibria(blog(), step=0.05, seed=seed),
            lambda: search_mixed_equilibria(blog(), step=0.01, max_profiles=5000, seed=seed),
            lambda: single._mixed_searches([blog(), counterexample_lsc()], step=0.01, seed=seed),
            lambda: scan_alpha(default_majority_family(), [0.5], mixed_step=0.01, seed=seed),
            lambda: scan_alpha(default_majority_family(), [0.5], mixed_step=0.05, seed=seed),
            lambda: counterexample_check(counterexample_lsc(), 0.01, seed=seed),
        ):
            with pytest.raises(ValueError, match="^seed must be"):
                run()

    def test_numpy_integer_seed(self):
        want = search_mixed_equilibria(blog(), step=0.01, max_profiles=500, seed=3)
        got = search_mixed_equilibria(blog(), step=0.01, max_profiles=500, seed=np.int64(3))
        assert (got.min_max_gain, got.survivor_count) == (want.min_max_gain, want.survivor_count)


class TestSubsampledSearch:
    """A subsampled search equals ``reference_mixed_search`` on the same
    seeded draw: the full gains of every draw, reduced. The kernel runs
    in chunks of a few profiles, so most of them take a finite limit."""

    @pytest.mark.parametrize(
        "build, step, max_profiles",
        [
            (blog, 0.5, 5),
            (blog, 0.01, 3000),
            (lambda: tabulate(blog(), 8), 0.01, 3000),
            (zero_prior_game, 0.1, 5000),
            (polyline_knots_game, 0.1, 5000),
            (eight_type_game, 0.5, 3000),
        ],
    )
    @pytest.mark.parametrize("tol", [1e-9, 0.0, 0.05, -0.1])
    def test_matches_the_reference(self, monkeypatch, build, step, max_profiles, tol):
        game = build()
        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", 16 * game.m)
        for cap in (0, 1, 10_000):
            res = search_mixed_equilibria(
                game, step, tol, seed=5, max_profiles=max_profiles, max_survivors=cap
            )
            ref = reference_mixed_search(game, step, tol, cap, seed=5, max_profiles=max_profiles)
            assert res.subsampled
            assert _drawn_outcome(res) == _drawn_outcome(ref)

    def test_allocates_nothing_draw_long(self):
        """A 2M-draw search of a 3x3 game at step 0.05 draws its codes a
        chunk at a time: it traces 2.3 MiB at peak (measured with numpy
        2.4), where the one draw alone took 15.3 MiB. The bound leaves no
        room for a draw-long int64 array, nor for a bool one (1.9 MiB)."""
        game = random_mixed_catalog_game(np.random.default_rng(0))
        assert (game.n, game.m) == (3, 3)
        res, peak = _traced_peak(lambda: search_mixed_equilibria(game, 0.05, seed=1))
        assert res.subsampled and res.swept == 2_000_000
        assert peak < 3 * 2**20


def _traced_peak(run):
    """``run()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def alternating_game(n: int) -> PerceptionGame:
    """``n`` types x 3 actions, exposure and tv_to_prior penalties by
    turns, drawn from seed ``n``: 3**13 = 1,594,323 pure profiles at 13
    types."""
    rng = np.random.default_rng(n)
    return PerceptionGame(
        types=TypeSpace.plain(tuple(f"t{i}" for i in range(n))),
        actions=ActionSpace.plain(("a0", "a1", "a2")),
        prior=dyadic_prior(rng, n),
        utility=UtilityModel(
            kind="additive_separable",
            v=rng.uniform(0.0, 1.0, size=(n, 3)),
            penalties=tuple(
                PenaltySpec.tv_to_prior(float(rng.uniform(0.5, 2.0)))
                if t % 2
                else PenaltySpec.exposure(float(rng.uniform(0.5, 2.0)))
                for t in range(n)
            ),
        ),
    )


class TestSweepMemory:
    """Sweeps read their codes a chunk at a time, so no array as long as
    the sweep is built: each traced peak (measured with numpy 2.4) sits
    below one code-long int64 array."""

    def test_pure_enumeration(self):
        """1,594,323 pure profiles trace 6.4 MiB at peak, with the column
        table (2**13 columns); their codes alone took 12.2 MiB."""
        game = alternating_game(13)
        reports, peak = _traced_peak(lambda: enumerate_pure_equilibria(game, max_profiles=2_000_000))
        assert reports
        assert peak < 8 * 2**20 < game.m**game.n * 8

    def test_column_table_is_built_in_place(self):
        """A 15x3 pure grid's column table (2**15 columns, 11.2 MiB of
        rows) traces 19.8 MiB at peak: each type's rows are written into
        the table, and its off-path entries are pinned in place. Stacking
        a list of per-type rows and copying the table to pin them traced
        30.0 MiB."""
        pack = kernels.pack_game(alternating_game(15))
        table, peak = _traced_peak(lambda: kernels._column_table(np.eye(3), pack))
        assert table.rows.shape == (15, 3 * 2**15)
        assert peak < 22 * 2**20

    def test_whole_tabulated_grid(self):
        """A tabulated 3x3 game's whole grid at step 1/12, 753,571
        profiles swept flat, traces 2.7 MiB at peak; its codes alone took
        5.7 MiB."""
        game = tabulate(random_mixed_catalog_game(np.random.default_rng(0)), 6)
        res, peak = _traced_peak(lambda: search_mixed_equilibria(game, 1 / 12))
        assert not res.subsampled and res.evaluated == res.total == 753_571
        assert peak < 3.5 * 2**20 < res.total * 8


def _count_rows(monkeypatch) -> list:
    """The size of every oracle stack, one per kernel group, that
    ``single._profile_reports`` folds."""
    rows = []
    real = single._oracle_rows

    def counted(packs, stacks):
        groups = real(packs, stacks)
        rows.extend(len(group.sigmas) for group in groups)
        return groups

    monkeypatch.setattr(single, "_oracle_rows", counted)
    return rows


class TestTabulatedGames:
    """Tabulated games are screened by the kernel like additive ones,
    and the exact evaluator confirms only the survivors."""

    def test_pure_enumeration(self):
        reports = enumerate_pure_equilibria(tabulate(blog(), 8))
        assert [r.label for r in reports] == ["pool:L", "separating", "pool:R"]

    def test_mixed_search_matches_additive(self):
        tab = search_mixed_equilibria(tabulate(blog(), 8), step=0.25)
        add = search_mixed_equilibria(blog(), step=0.25)
        assert (tab.total, tab.swept, tab.survivor_count) == (25, 25, 3)
        assert len(tab.survivors) == len(add.survivors) == 3
        for t, a in zip(tab.survivors, add.survivors):
            assert t.label == a.label
            np.testing.assert_array_equal(t.strategy.sigma, a.strategy.sigma)

    def test_oracle_on_survivors_only(self, monkeypatch):
        game = tabulate(blog(), 10)
        pure = enumerate_pure_equilibria(game)
        mixed = search_mixed_equilibria(game, step=0.25)
        # one stack per sweep, of the survivors only
        calls = _count_rows(monkeypatch)
        reports = enumerate_pure_equilibria(game)
        assert calls == [3]
        assert [r.label for r in reports] == [r.label for r in pure]
        for r, p in zip(reports, pure):
            np.testing.assert_array_equal(r.strategy.sigma, p.strategy.sigma)
        calls.clear()
        capped = search_mixed_equilibria(game, step=0.25, max_survivors=2)
        assert calls == [2]
        assert (capped.survivor_count, capped.truncated) == (3, True)
        for r, p in zip(capped.survivors, mixed.survivors[:2], strict=True):
            np.testing.assert_array_equal(r.strategy.sigma, p.strategy.sigma)


class TestTabulatedReport:
    """``profile_report`` values every type's actions of a tabulated game
    in one ``_interpolate`` call, the kernel's (``kernels._utility_rows``),
    each on-path entry bit for bit ``game.u``'s, as
    ``helpers.reference_profile_report`` takes them one by one."""

    @settings(max_examples=60, deadline=None)
    @given(game=additive_catalog_games(), resolution=st.integers(1, 6), data=st.data())
    def test_one_interpolation_per_report(self, game, resolution, data):
        game = tabulate(game, resolution)
        pts = SimplexGrid(game.m, 2).points()
        sigma = kernels.decode_profiles(pts, data.draw(st.integers(0, pts.shape[0] ** game.n - 1)), game.n)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for module in (kernels, model):
                real = module._interpolate
                patch.setattr(module, "_interpolate", lambda *args, real=real: calls.append(1) or real(*args))
            rep = profile_report(game, sigma)
        assert len(calls) == 1
        _, tau, clamped, payoffs, gains = reference_profile_report(game, sigma)
        assert rep.gains.tobytes() == gains.tobytes()
        assert rep.payoffs.tobytes() == payoffs.tobytes()
        assert rep.perceptions.tau.tobytes() == tau.tobytes()
        assert rep.clamped is clamped


def _zero_game(n: int) -> PerceptionGame:
    """``n`` types x 3 actions with zero values and zero penalties: every
    pure profile is an equilibrium."""
    return PerceptionGame(
        types=TypeSpace.plain(tuple(f"t{i}" for i in range(n))),
        actions=ActionSpace.plain(("a0", "a1", "a2")),
        prior=np.full(n, 1.0 / n),
        utility=UtilityModel(kind="additive_separable", v=np.zeros((n, 3)), penalties=(PenaltySpec.zero(),) * n),
    )


class TestBatchedReports:
    """Each row of ``_profile_reports`` is its profile's exact report,
    ``helpers.reference_profile_report`` bit for bit (gains, payoffs,
    perceptions, ``clamped``) with its label, whatever rows stand around
    it: a shuffled stack gives each row the same report."""

    @staticmethod
    def _assert_rows(game, sigmas) -> list:
        [reports] = single._profile_reports([game], [sigmas])
        assert len(reports) == len(sigmas)
        for rep, sigma in zip(reports, sigmas):
            _, tau, clamped, payoffs, gains = reference_profile_report(game, sigma)
            assert rep.strategy.sigma.tobytes() == sigma.tobytes()
            assert rep.gains.tobytes() == gains.tobytes()
            assert rep.payoffs.tobytes() == payoffs.tobytes()
            assert rep.perceptions.tau.tobytes() == tau.tobytes()
            assert rep.clamped is clamped
            assert rep.max_gain == float(gains.max())
            pure = ((sigma == 0.0) | (sigma == 1.0)).all()
            actions = tuple(np.argmax(sigma, axis=1).tolist())
            assert rep.label == (classify_pure_profile(game, actions) if pure else "mixed")
        return reports

    def _assert_stack_and_shuffle(self, game, sigmas, data) -> list:
        order = data.draw(st.permutations(range(len(sigmas))))
        self._assert_rows(game, sigmas[list(order)])
        return self._assert_rows(game, sigmas)

    @staticmethod
    def _stack(game, data, resolution: int = 2) -> np.ndarray:
        pts = SimplexGrid(game.m, resolution).points()
        codes = st.integers(0, pts.shape[0] ** game.n - 1)
        return kernels.decode_profiles(pts, np.array(data.draw(st.lists(codes, max_size=12)), dtype=np.int64), game.n)

    @settings(max_examples=100, deadline=None)
    @given(game=catalog_games(), data=st.data())
    def test_catalog_and_tabulated_games(self, game, data):
        self._assert_stack_and_shuffle(game, self._stack(game, data), data)

    @settings(max_examples=60, deadline=None)
    @given(
        game=additive_catalog_games().filter(lambda g: bool((g.prior.p == 0.0).any())),
        tabulated=st.booleans(),
        data=st.data(),
    )
    def test_games_with_a_zero_prior_type(self, game, tabulated, data):
        if tabulated:
            game = tabulate(game, data.draw(st.integers(1, 6)))
        self._assert_stack_and_shuffle(game, self._stack(game, data), data)

    @pytest.mark.parametrize("resolution", [None, 4])
    def test_every_profile_in_one_stack(self, resolution):
        """All 3,375 profiles of the zero-prior game at step 1/4 in one
        stack, additive and tabulated: rows clamped and not, and rows that
        play on-path and off-path actions side by side."""
        game = zero_prior_game() if resolution is None else tabulate(zero_prior_game(), resolution)
        pts, idx = _all_profiles(game, 4)
        sigmas = kernels.decode_profiles(pts, idx, game.n)
        reports = self._assert_rows(game, sigmas)
        assert {rep.clamped for rep in reports} == {True, False}
        on = np.einsum("t,btm->bm", game.prior.p, sigmas) > 0.0
        assert (on.any(axis=1) & ~on.all(axis=1)).any()
        assert single._profile_reports([game], [sigmas[:1]])[0][0].gains.tobytes() == reports[0].gains.tobytes()

    def test_empty_stack_touches_nothing(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("touched the game")

        game = blog()
        for name in ("penalty", "u", "u_range"):
            monkeypatch.setattr(PerceptionGame, name, fail)
        monkeypatch.setattr(single, "pack_game", fail)
        assert single._profile_reports([game], [np.empty((0, game.n, game.m))]) == [[]]


class TestOracleTraffic:
    """``_rebuilt`` hands every game's kept profiles to the oracle in one
    stack per kernel group, decodes them once per grid and type count,
    and makes no call when it keeps none."""

    ALPHAS = [round(0.05 * i, 10) for i in range(21)]

    def test_warm_majority_pass(self, monkeypatch):
        family = default_majority_family()
        scan_alpha(family, self.ALPHAS, mixed_step=0.05)
        rows = _count_rows(monkeypatch)
        rep = scan_alpha(family, self.ALPHAS, mixed_step=0.05)
        # one stack per template (alpha 0, the inner alphas, alpha 1) for
        # the pure enumerations; the count-only mixed searches make none
        assert len(rows) == 3 and 0 not in rows
        assert sum(rows) == sum(r.n_equilibria for r in rep.rows) == 43

    def test_warm_majority_pass_decodes(self, monkeypatch):
        """The pure equilibria of the 2-type endpoints and of the 4-type
        inner alphas take one decode each, and so do the mixed argmins:
        the count-only searches decode no survivor."""
        family = default_majority_family()
        scan_alpha(family, self.ALPHAS, mixed_step=0.05)
        calls = []
        for module in (kernels, single):
            real = module.decode_profiles
            monkeypatch.setattr(module, "decode_profiles", lambda *args, real=real: calls.append(1) or real(*args))
        scan_alpha(family, self.ALPHAS, mixed_step=0.05)
        assert len(calls) == 4

    @pytest.mark.parametrize("build", [blog, zero_prior_game, lambda: tabulate(zero_prior_game(), 4)])
    def test_packed_game_reads_no_range(self, build, monkeypatch):
        """The off-path witnesses come from the pack: a stack of every
        step-1/4 profile, off-path and free rows included, asks the
        packed game for no range."""
        game = build()
        kernels.pack_game(game)
        pts, idx = _all_profiles(game, 4)
        calls = []
        real = PerceptionGame.u_range
        monkeypatch.setattr(PerceptionGame, "u_range", lambda g, t, a: calls.append((t, a)) or real(g, t, a))
        [reports] = single._profile_reports([game], [kernels.decode_profiles(pts, idx, game.n)])
        assert len(reports) == idx.size and calls == []

    def test_count_only_search(self, monkeypatch):
        rows = _count_rows(monkeypatch)
        res = search_mixed_equilibria(blog(), step=0.25, max_survivors=0)
        assert res.survivor_count == 3 and res.survivors == ()
        assert rows == []

    def test_kept_reports_build_their_perceptions_one_at_a_time(self):
        """8 types x 3 actions, every one of the 6,561 pure profiles kept:
        the enumeration traced a 17.7 MiB peak with the former
        per-profile oracle and 19.5 MiB with the batched one, which builds
        each report's perceptions in its own turn; one batch ``(B, n, m,
        n)`` of every report's perceptions traced 24.4 MiB."""
        game = _zero_game(8)
        reports, peak = _traced_peak(lambda: enumerate_pure_equilibria(game))
        assert len(reports) == 6561
        assert peak < 22 * 2**20


class TestGroupedOracle:
    """One ``_profile_reports`` call over a template, games derived from
    it by ``_with_prior`` at random priors (zero masses included), a
    ``tv_to_prior`` game and a tabulated game: the kernel stacks the
    template's games that have rows as one (``kernels._oracle_rows``,
    each row at its own game's prior), the other two alone, and every row
    is its own game's ``profile_report`` bit for bit: strategy,
    perceptions, payoffs, gains, ``max_gain``, label and ``clamped``."""

    @settings(max_examples=80, deadline=None)
    @given(
        template=additive_catalog_games().filter(
            lambda g: all(spec.kind != "tv_to_prior" for spec in g.utility.penalties)
        ),
        data=st.data(),
    )
    def test_each_row_is_its_games_report(self, template, data):
        n, um = template.n, template.utility
        derived = [template._with_prior(data.draw(_priors(n)), f"d{i}") for i in range(data.draw(st.integers(1, 4)))]
        tv = PenaltySpec.tv_to_prior(data.draw(st.floats(0.0, 3.0)))
        tv = replace(template, utility=replace(um, penalties=(tv,) * n))._with_prior(data.draw(_priors(n)), "tv")
        games = [template, *derived, tv, tabulate(template, data.draw(st.integers(1, 6)))]
        pts = SimplexGrid(template.m, data.draw(st.sampled_from((2, 4)))).points()
        codes = st.lists(st.integers(0, len(pts) ** n - 1), max_size=6)
        stacks = [kernels.decode_profiles(pts, np.array(data.draw(codes), dtype=np.int64), n) for _ in games]
        groups = []
        real = single._oracle_rows

        def spied(packs, rows):
            out = real(packs, rows)
            groups.extend(group.members for group in out)
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(single, "_oracle_rows", spied)
            reports = single._profile_reports(games, stacks)
        live = [k for k, stack in enumerate(stacks) if len(stack)]
        shared = [k for k in live if k <= len(derived)]
        alone = [[k] for k in live if k > len(derived)]
        assert [[live[i] for i in members] for members in groups] == ([shared] if shared else []) + alone
        for game, stack, found in zip(games, stacks, reports, strict=True):
            assert len(found) == len(stack)
            for rep, sigma in zip(found, stack):
                assert _bits(rep) == _bits(profile_report(game, sigma))


class TestScalingRelation:
    """Doubling ``v`` and every penalty weight doubles every utility
    exactly: each penalty is its weight times a value of the belief, and a
    product or difference of doubled floats is the double of the rounded
    one. The posteriors and the range witnesses do not move. So at twice
    the tolerance the same pure equilibria and step-1/4 survivors are
    kept, with every gain, payoff and the least gain doubled bit for
    bit."""

    @staticmethod
    def _doubled(game: PerceptionGame) -> PerceptionGame:
        um = game.utility
        penalties = tuple(replace(p, weight=2.0 * p.weight) for p in um.penalties)
        return replace(game, utility=replace(um, v=2.0 * um.v, penalties=penalties))

    @staticmethod
    def _assert_doubled(reports, doubled) -> None:
        assert len(reports) == len(doubled)
        for rep, two in zip(reports, doubled):
            assert rep.strategy.sigma.tobytes() == two.strategy.sigma.tobytes()
            assert rep.perceptions.tau.tobytes() == two.perceptions.tau.tobytes()
            assert (2.0 * rep.gains).tobytes() == two.gains.tobytes()
            assert (2.0 * rep.payoffs).tobytes() == two.payoffs.tobytes()
            assert (rep.label, rep.clamped) == (two.label, two.clamped)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tol=st.sampled_from((1e-9, 0.125, 0.5)))
    def test_doubling_doubles_every_gain(self, seed, tol):
        game = random_mixed_catalog_game(np.random.default_rng(seed))
        doubled = self._doubled(game)
        self._assert_doubled(enumerate_pure_equilibria(game, tol), enumerate_pure_equilibria(doubled, 2.0 * tol))
        base = search_mixed_equilibria(game, 0.25, tol)
        two = search_mixed_equilibria(doubled, 0.25, 2.0 * tol)
        assert two.survivor_count == base.survivor_count
        assert np.float64(2.0 * base.min_max_gain).tobytes() == np.float64(two.min_max_gain).tobytes()
        assert base.argmin.sigma.tobytes() == two.argmin.sigma.tobytes()
        self._assert_doubled(base.survivors, two.survivors)


def _bits(x):
    """``x`` as comparable bits: arrays and floats by their bytes, result,
    pack and penalty objects field by field. A bound penalty's anchor
    counts for ``tv_to_prior`` only, the one kind that reads it."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return np.float64(x).tobytes()
    if isinstance(x, Penalty):
        return tuple(_bits(getattr(x, f.name)) for f in fields(x) if f.name != "anchor" or x.spec.kind == "tv_to_prior")
    if isinstance(x, (Strategy, PerceptionMap)):
        return tuple(_bits(getattr(x, name)) for name in type(x).__slots__)
    if is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(_bits(y) for y in x)
    return x


@st.composite
def _priors(draw, n: int) -> np.ndarray:
    """A prior over ``n`` types: every type with mass, some types without,
    or one type's whole mass beside 5e-324 on another, whose product with
    a grid probability underflows to 0."""
    kind = draw(st.sampled_from(("positive", "zeros", "underflow")))
    if kind == "underflow" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        p = np.zeros(n)
        p[i], p[j] = 1.0, 5e-324
        return p
    counts = np.array(draw(st.lists(st.integers(int(kind == "positive"), 3), min_size=n, max_size=n).filter(any)))
    return counts / counts.sum()


class TestDerivedGame:
    """A game derived from a template by its prior alone
    (``PerceptionGame._with_prior``) is the game built afresh at that
    prior, ``replace(game, prior=p)``, bit for bit: its pure enumeration,
    step-1/4 mixed search, profile reports and every ``GamePack`` field,
    whether the template was packed before or not, with the derived game
    swept beside its template. A derived game's pack is the template's at
    its own prior, so its bound penalties are anchored at the template's
    prior, which ``tv_to_prior`` alone reads: a game with such a penalty
    shares nothing."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        resolution=st.sampled_from((None, 1, 3)),
        warm=st.booleans(),
        data=st.data(),
    )
    def test_derived_is_the_fresh_game(self, seed, resolution, warm, data):
        game = random_mixed_catalog_game(np.random.default_rng(seed))
        if resolution is not None:
            game = tabulate(game, resolution)
        if warm:
            kernels.pack_game(game)
        p = data.draw(_priors(game.n))
        derived, fresh = game._with_prior(p, game.name), replace(game, prior=p)
        assert _bits(kernels.pack_game(derived)) == _bits(kernels.pack_game(fresh))
        pures = single._pure_enumerations([game, derived])
        assert _bits(pures[1]) == _bits(single._pure_enumerations([fresh])[0])
        searches = single._mixed_searches([game, derived], 0.25)
        assert _bits(searches[1]) == _bits(single._mixed_searches([fresh], 0.25)[0])
        pts = SimplexGrid(game.m, 4).points()
        codes = st.lists(st.integers(0, len(pts) ** game.n - 1), min_size=1, max_size=6)
        for sigma in kernels.decode_profiles(pts, np.array(data.draw(codes)), game.n):
            assert _bits(profile_report(derived, sigma)) == _bits(profile_report(fresh, sigma))

    def test_shares_with_the_root_template(self, monkeypatch):
        family = default_majority_family()
        game = family.game_for(0.5)
        packed = []
        real = kernels._pack
        monkeypatch.setattr(kernels, "_pack", lambda g: packed.append(g) or real(g))
        derived = game._with_prior(family.game_for(0.25).prior, "d")
        again = derived._with_prior(family.game_for(0.75).prior, "e")
        assert derived._base is game and again._base is game
        # the template's pack is all a derived game shares
        for cache in ("_penalties", "_pranges", "_uranges", "_chis"):
            assert getattr(again, cache) is not getattr(game, cache)
        pack, mine = kernels.pack_game(game), kernels.pack_game(again)
        for name in ("u_min", "u_max", "argmin", "argmax", "bound_plan"):
            assert getattr(mine, name) is getattr(pack, name)
        assert packed == [game]

    def test_tv_to_prior_game_shares_nothing(self, monkeypatch):
        game = blog()
        kernels.pack_game(game)
        packed = []
        real = kernels._pack
        monkeypatch.setattr(kernels, "_pack", lambda g: packed.append(g) or real(g))
        derived = game._with_prior([0.25, 0.75], game.name)
        assert derived._base is None
        for cache in ("_penalties", "_pranges", "_uranges", "_chis"):
            assert getattr(derived, cache) is not getattr(game, cache)
        assert kernels.pack_game(derived).penalties[0].anchor.tolist() == [0.25, 0.75]
        assert packed == [derived]


class TestPermutationRelation:
    """Relabeling is no change of game: permuting the types (labels,
    prior, ``v`` rows and penalties together) and the actions (labels and
    ``v`` columns) permutes the pure equilibria and the step-1/4
    survivors, and moves the least gain by rounding alone, since the
    posteriors and event masses are summed in another type order: by at
    most 64 ulps of 8, the scale of these games' gains (``v`` in [0, 5],
    penalties in [0, 4]). On 400 seeded games it moved by none. A
    penalty's event names its types by label, so it travels with them."""

    @staticmethod
    def _permuted(game: PerceptionGame, types, actions) -> PerceptionGame:
        um = game.utility
        return replace(
            game,
            types=TypeSpace.plain([game.types.labels[t] for t in types]),
            actions=ActionSpace.plain([game.actions.labels[a] for a in actions]),
            prior=game.prior.p[types],
            utility=replace(um, v=um.v[np.ix_(types, actions)], penalties=tuple(um.penalties[t] for t in types)),
        )

    @staticmethod
    def _profiles(reports, types, actions) -> set:
        """Each report's strategy in the original type and action order."""
        return {rep.strategy.sigma[np.argsort(types)][:, np.argsort(actions)].tobytes() for rep in reports}

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_permuting_types_and_actions(self, seed, data):
        game = random_mixed_catalog_game(np.random.default_rng(seed))
        types = np.array(data.draw(st.permutations(range(game.n))))
        actions = np.array(data.draw(st.permutations(range(game.m))))
        perm = self._permuted(game, types, actions)
        ident = (np.arange(game.n), np.arange(game.m))
        pure, pure_perm = enumerate_pure_equilibria(game), enumerate_pure_equilibria(perm)
        assert self._profiles(pure, *ident) == self._profiles(pure_perm, types, actions)
        base, moved = search_mixed_equilibria(game, 0.25), search_mixed_equilibria(perm, 0.25)
        assert base.survivor_count == moved.survivor_count
        assert self._profiles(base.survivors, *ident) == self._profiles(moved.survivors, types, actions)
        assert abs(base.min_max_gain - moved.min_max_gain) <= 64 * np.spacing(8.0)


def _derived_majority_game() -> PerceptionGame:
    family = default_majority_family()
    return family.game_for(0.5)._with_prior(family.game_for(0.25).prior, "derived")


POOLING_GAMES = [
    blog,
    lambda: tabulate(blog(), 8),
    zero_prior_game,
    lambda: tabulate(zero_prior_game(), 4),
    tied_prior_tv_game,
    step_bounds_game,
    eight_type_game,
    counterexample_lsc,
    lambda: default_majority_family().game_for(0.5),
    _derived_majority_game,
]


class TestPoolingCheck:
    """``pooling_check`` reads its upper-mode sets and deterring beliefs
    from the game's pack, and equals ``helpers.reference_pooling_check``,
    its former per-(type, action) loops, bit for bit: sets, shared
    actions, witness strategy and perceptions, and the verdict. The games
    include ``tv_to_prior``, zero-prior, tabulated and derived games, and
    pool or not."""

    @staticmethod
    def _assert_reference(game, mode):
        rep = pooling_check(game, mode)
        sets, shared, witness = reference_pooling_check(game, mode)
        assert rep.sets == sets
        assert rep.actions == tuple(game.actions.labels[a] for a in shared)
        assert rep.exists is (witness is not None)
        if witness is not None:
            sigma, tau, verified = witness
            assert rep.witness[0].sigma.tobytes() == sigma.tobytes()
            assert rep.witness[1].tau.tobytes() == tau.tobytes()
            assert rep.witness_verified is verified
        return rep

    @pytest.mark.parametrize("mode", ["upper", "lower"])
    def test_fixed_games(self, mode):
        found = {self._assert_reference(build(), mode).exists for build in POOLING_GAMES}
        assert found == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(game=catalog_games(), mode=st.sampled_from(["upper", "lower"]))
    def test_catalog_games(self, game, mode):
        self._assert_reference(game, mode)

    def test_reads_each_range_once(self, monkeypatch):
        """On a fresh game the upper check reads each (type, action)'s
        range once, packing the game: 4 calls for the 2 x 2 blog game."""
        calls = []
        real = PerceptionGame.u_range
        monkeypatch.setattr(PerceptionGame, "u_range", lambda g, t, a: calls.append((t, a)) or real(g, t, a))
        assert pooling_check(blog(), "upper").witness_verified
        assert sorted(calls) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestAdditiveConstantRelation:
    """Adding a constant ``c`` to one type's utility of every action (its
    row of ``v``, or its tabulated values) moves none of its incentives.
    Every posterior is unchanged, and each of the type's utilities, on
    path, at ``u_min`` and ``u_max`` and so at a free row's cap, shifts
    by ``c`` up to one rounding: the type's payoff, a sum of its
    probabilities times its rows, shifts by ``c`` times a sum of
    probabilities, which is 1 up to rounding, and its best row by ``c``;
    the other types do not move at all. So every gain moves by rounding
    alone: by at most 64 ulps of 16, the scale of the shifted utilities
    (``v`` in [0, 5], penalties in [0, 4], ``|c|`` at most 3), and the
    pure equilibria and the step-1/4 survivors are the same but for a
    profile whose gain lies within that bound of ``tol``. ``c`` is dyadic,
    so each shifted entry is the one rounding of the exact sum. On 3,600
    seeded cases (400 games, each additive and tabulated at resolutions 1
    and 3, each ``c``) a gain moved by at most a quarter ulp of 16, and no
    profile was gained or lost."""

    BOUND = 64 * np.spacing(16.0)

    @staticmethod
    def _shifted(game: PerceptionGame, t: int, c: float) -> PerceptionGame:
        um = game.utility
        if um.kind == "tabulated_grid":
            values = um.values.copy()
            values[t] += c
            return replace(game, utility=replace(um, values=values))
        v = um.v.copy()
        v[t] += c
        return replace(game, utility=replace(um, v=v))

    def _assert_same_profiles(self, game, shifted, base, moved, tol):
        """``base`` and ``moved``, reports of ``game`` and ``shifted``,
        hold the same profiles but for those within ``BOUND`` of ``tol``."""
        kept = {rep.strategy.sigma.tobytes(): rep for rep in base}
        again = {rep.strategy.sigma.tobytes(): rep for rep in moved}
        for key in kept.keys() & again.keys():
            gains, other = kept[key].gains, again[key].gains
            assert np.abs(gains - other).max() <= self.BOUND
        for key in kept.keys() ^ again.keys():
            sigma = np.frombuffer(key).reshape(game.n, game.m)
            for g in (game, shifted):
                assert abs(profile_report(g, sigma).max_gain - tol) <= self.BOUND

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        resolution=st.sampled_from((None, 1, 3)),
        c=st.sampled_from((-2.0, 0.5, 3.0)),
        data=st.data(),
    )
    def test_adding_a_constant_to_one_type(self, seed, resolution, c, data):
        game = random_mixed_catalog_game(np.random.default_rng(seed))
        if resolution is not None:
            game = tabulate(game, resolution)
        shifted = self._shifted(game, data.draw(st.integers(0, game.n - 1)), c)
        tol = 1e-9
        self._assert_same_profiles(
            game, shifted, enumerate_pure_equilibria(game, tol), enumerate_pure_equilibria(shifted, tol), tol
        )
        base, moved = search_mixed_equilibria(game, 0.25, tol), search_mixed_equilibria(shifted, 0.25, tol)
        assert abs(base.min_max_gain - moved.min_max_gain) <= self.BOUND
        self._assert_same_profiles(game, shifted, base.survivors, moved.survivors, tol)


class TestSplittingRelation:
    """Splitting a type ``s`` into two copies, ``s`` and a new last type
    ``s'`` with ``s``'s row of ``v`` and penalty, each with half ``s``'s
    prior and ``s'`` in every event that held ``s``, keeps every pure
    equilibrium and every step-1/4 survivor, both copies playing ``s``'s
    row, with the same gains. At such a profile each action's prior mass
    is a sum of the same terms but that ``p_s * sigma_s(a)`` comes in two
    halves; priors are multiples of 1/64 and strategies of 1/4, so every
    partial sum is exact and the mass is the same bits. So every posterior
    coordinate is the same but ``s``'s, which splits into two exact
    halves, and an event's mass is the same sum in another order: it
    moves by rounding alone. A zero or marginal penalty reads nothing but
    those masses, and its range over the simplex, which sets ``u_min``,
    ``u_max`` and the off-path fill, depends only on whether its event is
    proper or whole, which a split keeps. So the old types' gains move by
    the rounding of a mass through a polyline (weight at most 2, knots in
    [0, 2] at least 0.2 apart: a slope of at most 20), well within 64 ulps
    of 16, and the copy's gains are ``s``'s; a step moves only if a mass
    rounds across one of its cuts, uniform draws that no seeded case put
    within rounding of a mass. On 2,100 seeded games at tolerances 1e-9
    and 0.05, all 5,767 pure equilibria were kept with their gains bit
    for bit, and all 7,619 survivors with gains within a quarter ulp of
    16 (8.9e-16).

    ``exposure`` and ``tv_to_prior`` are left out, as a split changes
    both: ``exposure`` reads a copy's own posterior mass, which the split
    halves, and the ``tv_to_prior`` range, ``weight * (1 - least prior
    entry)``, reads the prior's least entry, which half of ``p_s`` may
    lower, and with it ``u_min`` and the off-path fill."""

    BOUND = 64 * np.spacing(16.0)

    @staticmethod
    def _marginal_game(seed: int) -> tuple[PerceptionGame, int]:
        """A seeded ``random_mixed_catalog_game`` whose ``exposure`` and
        ``tv_to_prior`` penalties are redrawn until zero or marginal, and
        the type to split."""
        rng = np.random.default_rng(seed)
        game = random_mixed_catalog_game(rng)
        pens = []
        for pen in game.utility.penalties:
            while pen.kind != "zero" and pen.kind not in MARGINAL_KINDS:
                pen = _random_penalty(rng, game.types.labels)
            pens.append(pen)
        game = replace(
            game,
            utility=replace(game.utility, penalties=tuple(pens)),
            allow_discontinuous=any(not pen.is_continuous for pen in pens),
        )
        return game, int(rng.integers(game.n))

    @staticmethod
    def _split(game: PerceptionGame, s: int) -> PerceptionGame:
        um, labels = game.utility, game.types.labels
        copy = f"{labels[s]}'"

        def widened(spec: PenaltySpec) -> PenaltySpec:
            over = spec.marginal_over
            return spec if over is None or labels[s] not in over else replace(spec, marginal_over=over + (copy,))

        prior = game.prior.p.copy()
        prior[s] /= 2.0
        return PerceptionGame(
            types=TypeSpace.plain(labels + (copy,)),
            actions=game.actions,
            prior=np.append(prior, prior[s]),
            utility=UtilityModel(
                kind="additive_separable",
                v=np.vstack([um.v, um.v[s]]),
                penalties=tuple(widened(spec) for spec in um.penalties + (um.penalties[s],)),
            ),
            allow_discontinuous=game.allow_discontinuous,
        )

    def _assert_kept(self, reports, split_reports, s):
        """Each of ``reports`` is one of ``split_reports`` with ``s``'s row
        played twice, its gains within ``BOUND``, ``s``'s gain twice."""
        split = {rep.strategy.sigma.tobytes(): rep for rep in split_reports}
        for rep in reports:
            key = np.vstack([rep.strategy.sigma, rep.strategy.sigma[s]]).tobytes()
            assert key in split
            assert np.abs(np.append(rep.gains, rep.gains[s]) - split[key].gains).max() <= self.BOUND

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tol=st.sampled_from((1e-9, 0.05)))
    def test_splitting_a_type(self, seed, tol):
        game, s = self._marginal_game(seed)
        split = self._split(game, s)
        self._assert_kept(enumerate_pure_equilibria(game, tol), enumerate_pure_equilibria(split, tol), s)
        base, wide = search_mixed_equilibria(game, 0.25, tol), search_mixed_equilibria(split, 0.25, tol)
        assert not wide.truncated
        self._assert_kept(base.survivors, wide.survivors, s)


class TestProfileReportInput:
    """``profile_report`` checks ``sigma`` before any work and evaluates
    the checked rows, so the report describes the strategy it holds."""

    def test_tiny_negative_entries_are_evaluated_as_stored(self):
        g = blog()
        rep = profile_report(g, np.array([[1.0 + 1e-13, -1e-13], [0.0, 1.0]]))
        assert rep.strategy.sigma[0, 1] == 0.0
        # the raw row paid 1e-13 and gained -1e-13; the stored one pays 0
        again = profile_report(g, rep.strategy.sigma)
        for got, want in zip(
            (rep.payoffs, rep.gains, rep.perceptions.tau), (again.payoffs, again.gains, again.perceptions.tau)
        ):
            assert got.tobytes() == want.tobytes()
        assert rep.payoffs.tolist() == [0.0, 0.0] and rep.gains.tolist() == [0.0, 0.0]

    def test_bad_sigma_rejected_before_any_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("evaluated a utility")

        monkeypatch.setattr(PerceptionGame, "u", fail)
        monkeypatch.setattr(PerceptionGame, "u_range", fail)
        with pytest.raises(ValueError, match="strategy has a non-finite entry"):
            profile_report(blog(), np.array([[np.nan, 1.0], [0.0, 1.0]]))


class TestProfileReportAgainstOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_pure_gains_match_brute_force(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        v = rng.uniform(0, 5, size=(n, m))
        kinds = [PenaltySpec.tv_to_prior(float(rng.uniform(0, 3))) if rng.random() < 0.5
                 else PenaltySpec.exposure(float(rng.uniform(0, 3))) for _ in range(n)]
        prior = rng.dirichlet(np.ones(n))
        labels = tuple(f"t{i}" for i in range(n))
        g = PerceptionGame(
            types=TypeSpace.plain(labels),
            actions=ActionSpace.plain(tuple(f"a{j}" for j in range(m))),
            prior=prior,
            utility=UtilityModel(kind="additive_separable", v=v, penalties=tuple(kinds)),
        )
        pens = [spec_to_dict(spec, labels) for spec in kinds]
        for _ in range(5):
            actions = tuple(int(x) for x in rng.integers(0, m, size=n))
            rep = profile_report(g, Strategy.pure(g, actions).sigma)
            ref = oracle_pure_gains(prior, v, pens, actions, 1e-9)
            np.testing.assert_allclose(rep.gains, ref, atol=1e-9)


class TestZeroPriorTypes:
    def test_zero_mass_type_does_not_pin_posteriors(self):
        g = PerceptionGame(
            types=TypeSpace.plain(("a", "b", "ghost")),
            actions=ActionSpace.plain(("x", "y")),
            prior=[0.5, 0.5, 0.0],
            utility=UtilityModel(
                kind="additive_separable",
                v=np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]),
                penalties=(PenaltySpec.zero(),) * 3,
            ),
        )
        rep = profile_report(g, Strategy.pure(g, (0, 1, 0)).sigma)
        # posterior at x conditions away the massless type
        np.testing.assert_allclose(rep.perceptions.tau[0, 0], [1.0, 0.0, 0.0])
        assert rep.max_gain <= 1e-9
