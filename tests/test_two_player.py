from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings

from perception_games.fixtures import two_player_game
from perception_games.model import ActionSpace, PerceptionGame, TypeSpace, UtilityModel
from perception_games.penalties import PenaltySpec
from perception_games.single import Strategy, enumerate_pure_equilibria, profile_report
from perception_games.testing import random_mixed_catalog_game
from perception_games.two_player import (
    TwoPlayerPerceptions,
    TwoPlayerStrategy,
    _action_values,
    _beliefs,
    _pure_pair_report,
    embed_single,
    enumerate_pure_bne,
    enumerate_pure_equilibria_2p,
    is_consistent_2p,
    verify_equilibrium_2p,
)

from helpers import two_player_catalog_games
from test_kernels import additive_catalog_games

# frozen: action pair -> (player 0 payoffs, player 1 payoffs)
SURVIVOR_TABLE = {
    ((0, 0), (0, 0)): ([5.0, 3.0], [5.0, 3.0]),
    ((0, 0), (0, 1)): ([2.5, 1.5], [3.9, 2.9]),
    ((0, 1), (0, 0)): ([3.9, 2.9], [2.5, 1.5]),
    ((0, 1), (0, 1)): ([1.4, 1.4], [1.4, 1.4]),
    ((1, 1), (1, 1)): ([0.0, 1.0], [0.0, 1.0]),
}


def _zero_penalties(game):
    for ps in game.players:
        ps.penalties = (PenaltySpec.zero(),) * ps.types.n
    return game


class TestEnumeration:
    def test_survivor_table(self):
        reports = enumerate_pure_equilibria_2p(two_player_game())
        got = {}
        for rep in reports:
            acts = rep.strategy.pure_actions()
            got[acts] = (list(rep.payoffs[0]), list(rep.payoffs[1]))
        assert set(got) == set(SURVIVOR_TABLE)
        for acts, (p0, p1) in SURVIVOR_TABLE.items():
            np.testing.assert_allclose(got[acts][0], p0, atol=1e-12)
            np.testing.assert_allclose(got[acts][1], p1, atol=1e-12)

    def test_survivor_gains_nonpositive(self):
        for rep in enumerate_pure_equilibria_2p(two_player_game()):
            assert rep.max_gain <= 1e-9

    def test_deviation_from_joint_pooling_is_deterred_narrowly(self):
        g = two_player_game()
        rep = next(
            r
            for r in enumerate_pure_equilibria_2p(g)
            if r.strategy.pure_actions() == ((0, 0), (0, 0))
        )
        # flexible type plays the stiff action for 3; the tempting base
        # payoff 4 is cut to 2.9 by the worst-case perception penalty
        tau = rep.perceptions.taus[0][1]
        w = np.array([[g.w(0, 1, tau[t_obs, a], t_obs) for a in range(2)] for t_obs in range(2)])
        support = [((0, 1.0),), ((0, 1.0),)]  # player 1 pools on L
        vals = _action_values(g.players[0].v[1], _beliefs(g)[0][1], support, w)
        assert vals[0] == pytest.approx(3.0)
        assert vals[1] == pytest.approx(2.9)

    def test_witnesses_verify_exactly(self):
        g = two_player_game()
        for rep in enumerate_pure_equilibria_2p(g):
            res = verify_equilibrium_2p(g, rep.strategy, rep.perceptions, eps=0.1)
            assert res.accepted


class TestVerification:
    def test_accepts_joint_pooling_with_exact_payoffs(self):
        g = two_player_game()
        rep = next(
            r
            for r in enumerate_pure_equilibria_2p(g)
            if r.strategy.pure_actions() == ((0, 0), (0, 0))
        )
        res = verify_equilibrium_2p(g, rep.strategy, rep.perceptions, eps=0.1)
        assert res.accepted and res.consistent
        np.testing.assert_array_equal(res.payoffs[0], [5.0, 3.0])
        np.testing.assert_array_equal(res.payoffs[1], [5.0, 3.0])
        assert res.max_gain <= 1e-9

    def test_consistency_violations_labelled(self):
        g = two_player_game()
        s = TwoPlayerStrategy.pure(g, ((0, 1), (0, 1)))  # separating both sides
        p0, p1 = g.players
        taus = [
            np.tile(np.array([0.5, 0.5]), (2, 2, 2, 1)),
            np.tile(np.array([0.5, 0.5]), (2, 2, 2, 1)),
        ]
        ok, violations = is_consistent_2p(g, s, TwoPlayerPerceptions(g, taus))
        assert not ok
        # separation makes every on-path posterior a point mass, so the
        # flat perceptions are off by tv = 1/2 for both observers
        assert all(err == pytest.approx(0.5) for *_, err in violations)
        players = {v[0] for v in violations}
        assert players == {0, 1}

    def test_rejects_profitable_deviation(self):
        g = _zero_penalties(two_player_game())
        rep = _pure_pair_report(g, ((0, 0), (0, 0)), _beliefs(g))
        res = verify_equilibrium_2p(g, rep.strategy, rep.perceptions)
        assert not res.accepted
        # with no perception cost the flexible type grabs the base 4
        assert res.max_gain == pytest.approx(1.0)
        assert res.worst in ((0, "d", "D"), (1, "r", "R"))


class TestWeakenedPenaltyVariant:
    def _variant(self):
        g = two_player_game()
        for i, over in ((0, ("u",)), (1, ("l",))):
            pen = PenaltySpec.piecewise_linear(
                [(0.0, 0.5), (0.5, 0.0), (1.0, 0.5)], over=over
            )
            g.players[i].penalties = (pen, pen)
        return g

    def test_joint_pooling_no_longer_survives(self):
        g = self._variant()
        rep = _pure_pair_report(g, ((0, 0), (0, 0)), _beliefs(g))
        # deterrence now caps the deviation penalty at 0.5: 4 - 0.5
        # beats the played 3 by 0.5
        assert rep.max_gain == pytest.approx(0.5)
        acts = [r.strategy.pure_actions() for r in enumerate_pure_equilibria_2p(g)]
        assert ((0, 0), (0, 0)) not in acts

    def test_verify_rejects_at_small_eps_accepts_at_half(self):
        g = self._variant()
        rep = _pure_pair_report(g, ((0, 0), (0, 0)), _beliefs(g))
        assert not verify_equilibrium_2p(g, rep.strategy, rep.perceptions, eps=0.1).accepted
        assert verify_equilibrium_2p(g, rep.strategy, rep.perceptions, eps=0.5).accepted


class TestPureBNE:
    def test_two_profiles_with_strictness_split(self):
        reports = enumerate_pure_bne(two_player_game())
        by_acts = {r.actions: r for r in reports}
        assert set(by_acts) == {((0, 1), (0, 1)), ((1, 1), (1, 1))}
        strict = by_acts[((0, 1), (0, 1))]
        assert strict.strict
        np.testing.assert_allclose(strict.payoffs[0], [2.5, 2.5], atol=1e-12)
        np.testing.assert_allclose(strict.payoffs[1], [2.5, 2.5], atol=1e-12)
        assert strict.action_labels == (("U", "D"), ("L", "R"))
        weak = by_acts[((1, 1), (1, 1))]
        assert not weak.strict
        np.testing.assert_allclose(weak.payoffs[0], [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(weak.payoffs[1], [0.0, 1.0], atol=1e-12)

    def test_fold_prior_penalty_is_identity_here(self):
        # uniform observer beliefs sit at the penalty polyline's zero
        g = two_player_game()
        plain = enumerate_pure_bne(g)
        folded = enumerate_pure_bne(g, fold_prior_penalty=True)
        assert [r.actions for r in plain] == [r.actions for r in folded]
        for a, b in zip(plain, folded):
            np.testing.assert_array_equal(a.payoffs[0], b.payoffs[0])
            np.testing.assert_array_equal(a.payoffs[1], b.payoffs[1])
            assert a.strict == b.strict

    def test_indifferent_opponent_inflates_weak_set(self):
        g = two_player_game()
        g.players[1].v = np.zeros_like(g.players[1].v)
        reports = enumerate_pure_bne(g)
        acts = {r.actions for r in reports}
        # player 0 best-replies (U, D) to every opponent profile; the
        # tie at (R, R) lets (D, D) in as well; player 1 never cares
        expected = {((0, 1), p2) for p2 in ((0, 0), (0, 1), (1, 0), (1, 1))}
        expected.add(((1, 1), (1, 1)))
        assert acts == expected
        assert all(not r.strict for r in reports)


class TestNonFiniteBeliefs:
    """Every entry point checks both players' belief rows first."""

    def _nan_game(self):
        g = two_player_game()
        g.players[0].beliefs = np.array([[np.nan, 1.0], [0.5, 0.5]])
        return g

    def test_enumeration_raises(self):
        with pytest.raises(ValueError, match="player 0 beliefs.*non-finite"):
            enumerate_pure_equilibria_2p(self._nan_game())

    @pytest.mark.parametrize("fold", [False, True])
    def test_bne_raises(self, fold):
        with pytest.raises(ValueError, match="player 0 beliefs.*non-finite"):
            enumerate_pure_bne(self._nan_game(), fold_prior_penalty=fold)

    @pytest.mark.parametrize("check", [verify_equilibrium_2p, is_consistent_2p])
    def test_verification_raises(self, check):
        g = two_player_game()
        rep = enumerate_pure_equilibria_2p(g)[0]
        with pytest.raises(ValueError, match="player 0 beliefs.*non-finite"):
            check(self._nan_game(), rep.strategy, rep.perceptions)


class TestPureStrategyInput:
    @pytest.mark.parametrize(
        "actions",
        [((-1, 0), (0, 1)), ((0, 2), (0, 1)), ((0, 0), (0, 5))],
        ids=["negative", "past-end", "player-1"],
    )
    def test_action_out_of_range_raises(self, actions):
        with pytest.raises(ValueError, match="not in range"):
            TwoPlayerStrategy.pure(two_player_game(), actions)

    @pytest.mark.parametrize(
        "actions", [((0,), (0, 1)), ((0, 0, 0), (0, 1))], ids=["short", "long"]
    )
    def test_wrong_profile_length_raises(self, actions):
        with pytest.raises(ValueError, match="player 0 needs one action per type"):
            TwoPlayerStrategy.pure(two_player_game(), actions)


class TestWitnessesVerifyBitwise:
    @settings(max_examples=60, deadline=None)
    @given(game=two_player_catalog_games())
    def test_every_pure_pair(self, game):
        beliefs = _beliefs(game)
        pairs = product(*(product(range(ps.actions.m), repeat=ps.types.n) for ps in game.players))
        for actions in pairs:
            rep = _pure_pair_report(game, actions, beliefs)
            res = verify_equilibrium_2p(game, rep.strategy, rep.perceptions)
            assert res.consistent
            for got, want in zip(res.payoffs + res.gains, rep.payoffs + rep.gains):
                assert got.tobytes() == want.tobytes(), (actions, got, want)


class TestZeroPenaltyReduction:
    def test_equilibria_coincide_with_bne(self):
        g = _zero_penalties(two_player_game())
        eq_acts = {r.strategy.pure_actions() for r in enumerate_pure_equilibria_2p(g)}
        bne_acts = {r.actions for r in enumerate_pure_bne(g)}
        assert eq_acts == bne_acts


class TestEmbedding:
    @pytest.mark.parametrize("seed", range(10))
    def test_single_game_reproduced_bitwise(self, seed):
        rng = np.random.default_rng(20260822 + seed)
        game = random_mixed_catalog_game(rng)
        singles = enumerate_pure_equilibria(game)
        doubles = enumerate_pure_equilibria_2p(embed_single(game))
        assert len(singles) == len(doubles)
        for s, d in zip(singles, doubles):
            acts = d.strategy.pure_actions()
            assert acts[0] == s.strategy.pure_actions()
            assert acts[1] == (0,)
            np.testing.assert_array_equal(s.payoffs, d.payoffs[0])
            np.testing.assert_array_equal(s.gains, d.gains[0])

    def test_clamped_report_pays_zero_prior_type_less(self):
        # type z has no prior mass; under (1, 1, 0) its action 0 is off
        # path. The single-player report caps that free row at the type's
        # best on-path row (0.2); the two-player report pays the penalty
        # minimum there (0.3). Gains agree: both are 0.
        game = PerceptionGame(
            types=TypeSpace.plain(("x", "y", "z")),
            actions=ActionSpace.plain(("a0", "a1")),
            prior=[0.5, 0.5, 0.0],
            utility=UtilityModel(
                kind="additive_separable",
                v=np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.2]]),
                penalties=(PenaltySpec.zero(),) * 2 + (PenaltySpec.exposure(1.0),),
            ),
        )
        single = profile_report(game, Strategy.pure(game, (1, 1, 0)).sigma)
        embedded = embed_single(game)
        double = _pure_pair_report(embedded, ((1, 1, 0), (0,)), _beliefs(embedded))
        assert single.clamped
        assert single.payoffs[2] == 0.2 and double.payoffs[0][2] == 0.3
        np.testing.assert_array_equal(single.gains, double.gains[0])

    @settings(max_examples=80, deadline=None)
    @given(game=additive_catalog_games())
    def test_zero_prior_types_gains_match_payoffs_unless_clamped(self, game):
        assume((game.prior.p == 0.0).any())
        embedded = embed_single(game)
        beliefs = _beliefs(embedded)
        for acts in product(range(game.m), repeat=game.n):
            single = profile_report(game, Strategy.pure(game, acts).sigma)
            double = _pure_pair_report(embedded, (acts, (0,)), beliefs)
            np.testing.assert_array_equal(single.gains, double.gains[0])
            if not single.clamped:
                np.testing.assert_array_equal(single.payoffs, double.payoffs[0])

    def test_embedded_blog_survivors(self):
        from perception_games.fixtures import blog

        doubles = enumerate_pure_equilibria_2p(embed_single(blog()))
        acts = [r.strategy.pure_actions()[0] for r in doubles]
        assert acts == [(0, 0), (0, 1), (1, 1)]
