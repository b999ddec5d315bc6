import numpy as np
import pytest

from perception_games import single
from perception_games.fixtures import blog
from perception_games.model import ActionSpace, PerceptionGame, TypeSpace, UtilityModel
from perception_games.penalties import PenaltySpec
from perception_games.simplex import Belief, SimplexGrid
from perception_games.single import (
    PerceptionMap,
    Strategy,
    classify_pure_profile,
    enumerate_pure_equilibria,
    is_consistent,
    legislation_welfare,
    pooling_check,
    profile_report,
    search_mixed_equilibria,
    verify_equilibrium,
)

from helpers import oracle_pure_gains, spec_to_dict, tabulate


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
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return profile_report(*args, **kwargs)

        monkeypatch.setattr(single, "profile_report", counted)
        reports = enumerate_pure_equilibria(game)
        assert len(calls) == 3
        assert [r.label for r in reports] == [r.label for r in pure]
        for r, p in zip(reports, pure):
            np.testing.assert_array_equal(r.strategy.sigma, p.strategy.sigma)
        calls.clear()
        capped = search_mixed_equilibria(game, step=0.25, max_survivors=2)
        assert len(calls) == 2
        assert (capped.survivor_count, capped.truncated) == (3, True)
        for r, p in zip(capped.survivors, mixed.survivors[:2], strict=True):
            np.testing.assert_array_equal(r.strategy.sigma, p.strategy.sigma)


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
