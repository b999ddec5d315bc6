import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perception_games import kernels, model, penalties, two_player
from perception_games.fixtures import two_player_game
from perception_games.model import ActionSpace, PerceptionGame, TypeSpace, UtilityModel
from perception_games.penalties import PenaltySpec
from perception_games.simplex import WEAK_TOL
from perception_games.single import Strategy, enumerate_pure_equilibria, profile_report
from perception_games.testing import random_mixed_catalog_game
from perception_games.two_player import (
    TwoPlayerPerceptions,
    TwoPlayerStrategy,
    _beliefs,
    _pure_pair_gains,
    _pure_pair_reports,
    _pure_profiles,
    embed_single,
    enumerate_pure_bne,
    enumerate_pure_equilibria_2p,
    is_consistent_2p,
    verify_equilibrium_2p,
)

from helpers import (
    random_two_player_game,
    reference_action_values,
    reference_penalty_table,
    reference_pure_bne,
    reference_pure_pair_report,
    reference_verify_values_2p,
    two_player_catalog_games,
    with_player,
)
from test_kernels import additive_catalog_games

# frozen: action pair -> (player 0 payoffs, player 1 payoffs)
SURVIVOR_TABLE = {
    ((0, 0), (0, 0)): ([5.0, 3.0], [5.0, 3.0]),
    ((0, 0), (0, 1)): ([2.5, 1.5], [3.9, 2.9]),
    ((0, 1), (0, 0)): ([3.9, 2.9], [2.5, 1.5]),
    ((0, 1), (0, 1)): ([1.4, 1.4], [1.4, 1.4]),
    ((1, 1), (1, 1)): ([0.0, 1.0], [0.0, 1.0]),
}


def _batch(game, pairs):
    """``pairs``, a list of pure pairs, as ``_pure_pair_reports``' pair
    of per-player action arrays."""
    return tuple(
        np.array([p[i] for p in pairs], dtype=np.intp).reshape(len(pairs), ps.types.n)
        for i, ps in enumerate(game.players)
    )


def _report(game, actions):
    return _pure_pair_reports(game, _batch(game, [actions]), _beliefs(game))[0]


def _zero_penalties(game):
    for i, ps in enumerate(game.players):
        game = with_player(game, i, penalties=(PenaltySpec.zero(),) * ps.types.n)
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
        vals = reference_action_values(g.players[0].v[1], _beliefs(g)[0][1], support, w)
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
        rep = _report(g, ((0, 0), (0, 0)))
        res = verify_equilibrium_2p(g, rep.strategy, rep.perceptions)
        assert not res.accepted
        # with no perception cost the flexible type grabs the base 4
        assert res.max_gain == pytest.approx(1.0)
        assert res.worst in ((0, "d", "D"), (1, "r", "R"))

    def test_worst_is_first_player_and_type_among_ties(self):
        g = _zero_penalties(two_player_game())
        rep = _report(g, ((0, 0), (0, 0)))
        res = verify_equilibrium_2p(g, rep.strategy, rep.perceptions)
        # player 0's type d and player 1's type r gain exactly 1 each
        np.testing.assert_array_equal(res.gains[0], [0.0, 1.0])
        np.testing.assert_array_equal(res.gains[1], [0.0, 1.0])
        assert res.worst == (0, "d", "D")


class TestVerificationArguments:
    def _pair(self):
        g = two_player_game()
        strategy = TwoPlayerStrategy.pure(g, ((0, 1), (0, 1)))  # separating both sides
        # every perception a point mass on own type 0
        point = np.zeros((2, 2, 2, 2))
        point[..., 0] = 1.0
        return g, strategy, TwoPlayerPerceptions(g, [point, point])

    def test_nan_tol_and_eps_rejected_before_any_work(self, monkeypatch):
        # the pair is inconsistent, but a NaN tol failed every comparison
        # and certified it as consistent
        g, strategy, perceptions = self._pair()
        assert not is_consistent_2p(g, strategy, perceptions, tol=1e-9)[0]

        def fail(*args, **kwargs):
            raise AssertionError("checked beliefs or consistency")

        monkeypatch.setattr(two_player, "_beliefs", fail)
        monkeypatch.setattr(two_player, "consistency_errors", fail)
        nan = float("nan")
        for run, name in (
            (lambda: is_consistent_2p(g, strategy, perceptions, tol=nan), "tol"),
            (lambda: verify_equilibrium_2p(g, strategy, perceptions, tol=nan), "tol"),
            (lambda: verify_equilibrium_2p(g, strategy, perceptions, eps=nan), "eps"),
        ):
            with pytest.raises(ValueError, match=rf"^{name} must be a number, got nan$"):
                run()

    @pytest.mark.parametrize("check", [verify_equilibrium_2p, is_consistent_2p])
    def test_belief_rows_checked_once_per_call(self, check, monkeypatch):
        # verify_equilibrium_2p checked them itself and again inside is_consistent_2p
        g, strategy, perceptions = self._pair()
        checked = []
        real = two_player.distributions

        def spy(values, shape, what):
            checked.append(what)
            return real(values, shape, what)

        monkeypatch.setattr(two_player, "distributions", spy)
        check(g, strategy, perceptions)
        assert checked == ["player 0 beliefs", "player 1 beliefs"]


class TestWeakenedPenaltyVariant:
    def _variant(self):
        g = two_player_game()
        for i, over in ((0, ("u",)), (1, ("l",))):
            pen = PenaltySpec.piecewise_linear(
                [(0.0, 0.5), (0.5, 0.0), (1.0, 0.5)], over=over
            )
            g = with_player(g, i, penalties=(pen, pen))
        return g

    def test_joint_pooling_no_longer_survives(self):
        g = self._variant()
        rep = _report(g, ((0, 0), (0, 0)))
        # deterrence now caps the deviation penalty at 0.5: 4 - 0.5
        # beats the played 3 by 0.5
        assert rep.max_gain == pytest.approx(0.5)
        acts = [r.strategy.pure_actions() for r in enumerate_pure_equilibria_2p(g)]
        assert ((0, 0), (0, 0)) not in acts

    def test_verify_rejects_at_small_eps_accepts_at_half(self):
        g = self._variant()
        rep = _report(g, ((0, 0), (0, 0)))
        assert not verify_equilibrium_2p(g, rep.strategy, rep.perceptions, eps=0.1).accepted
        assert verify_equilibrium_2p(g, rep.strategy, rep.perceptions, eps=0.5).accepted


class TestPureBNE:
    def test_nan_tol_rejected(self, monkeypatch):
        # a NaN tol kept all 16 pure pairs, each marked strict
        def fail(*args, **kwargs):
            raise AssertionError("read the beliefs")

        monkeypatch.setattr(two_player, "_beliefs", fail)
        with pytest.raises(ValueError, match=r"^tol must be a number, got nan$"):
            enumerate_pure_bne(two_player_game(), tol=float("nan"))

    def test_negative_tol_keeps_nothing(self):
        assert enumerate_pure_bne(two_player_game(), tol=-1.0) == []

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
        g = with_player(g, 1, v=np.zeros_like(g.players[1].v))
        reports = enumerate_pure_bne(g)
        acts = {r.actions for r in reports}
        # player 0 best-replies (U, D) to every opponent profile; the
        # tie at (R, R) lets (D, D) in as well; player 1 never cares
        expected = {((0, 1), p2) for p2 in ((0, 0), (0, 1), (1, 0), (1, 1))}
        expected.add(((1, 1), (1, 1)))
        assert acts == expected
        assert all(not r.strict for r in reports)


class TestPureEquilibriaTol:
    def test_nan_tol_rejected(self, monkeypatch):
        # a NaN tol kept no pair, so the game read as having none
        def fail(*args, **kwargs):
            raise AssertionError("read the beliefs")

        monkeypatch.setattr(two_player, "_beliefs", fail)
        with pytest.raises(ValueError, match=r"^tol must be a number, got nan$"):
            enumerate_pure_equilibria_2p(two_player_game(), tol=float("nan"))

    def test_negative_tol_keeps_nothing(self):
        assert enumerate_pure_equilibria_2p(two_player_game(), tol=-1.0) == []


class TestNonFiniteBeliefs:
    """Every entry point checks both players' belief rows first."""

    def _nan_game(self):
        return with_player(two_player_game(), 0, beliefs=np.array([[np.nan, 1.0], [0.5, 0.5]]))

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

    def test_pure_actions_of_a_mixed_profile_is_none(self):
        g = two_player_game()
        assert TwoPlayerStrategy.pure(g, (("U", "D"), (1, 0))).pure_actions() == ((0, 1), (1, 0))
        # player 0 pure, player 1 mixed
        assert TwoPlayerStrategy(g, [np.eye(2), np.full((2, 2), 0.5)]).pure_actions() is None

    @pytest.mark.parametrize(
        "actions, player, entry",
        [(((0.0, 1), (0, 1)), 0, "0.0"), (((0, 1), (True, 0)), 1, "True"), (((0, 1), (0, 0.5)), 1, "0.5")],
        ids=["float", "bool", "fraction"],
    )
    def test_action_must_be_a_label_or_an_integer(self, actions, player, entry):
        # int() read 0.5 as action 0 and True as action 1, without a word
        with pytest.raises(ValueError, match=rf"^player {player} action must be an integer, got {entry}$"):
            TwoPlayerStrategy.pure(two_player_game(), actions)

    def test_pure_takes_numpy_integers(self):
        g = two_player_game()
        got = TwoPlayerStrategy.pure(g, (np.array([0, 1], dtype=np.int8), (np.int64(1), "L")))
        assert got.pure_actions() == ((0, 1), (1, 0))

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_pure_needs_one_profile_per_player(self, count):
        actions = ((0, 0), (0, 1), (1, 1))[:count]
        with pytest.raises(ValueError, match=f"needs 2 per-player entries, got {count}$"):
            TwoPlayerStrategy.pure(two_player_game(), actions)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_pair_types_need_one_entry_per_player(self, count):
        # a third entry was dropped without a word, a missing one raised IndexError
        g = two_player_game()
        with pytest.raises(ValueError, match=f"strategy needs 2 per-player entries, got {count}$"):
            TwoPlayerStrategy(g, [np.eye(2)] * count)
        with pytest.raises(ValueError, match=f"perceptions needs 2 per-player entries, got {count}$"):
            TwoPlayerPerceptions(g, [np.full((2, 2, 2, 2), 0.5)] * count)


class TestWitnessesVerifyBitwise:
    @settings(max_examples=60, deadline=None)
    @given(game=two_player_catalog_games())
    def test_every_pure_pair(self, game):
        beliefs = _beliefs(game)
        pairs = product(*(product(range(ps.actions.m), repeat=ps.types.n) for ps in game.players))
        for actions in pairs:
            rep = reference_pure_pair_report(game, actions, beliefs)
            res = verify_equilibrium_2p(game, rep.strategy, rep.perceptions)
            assert res.consistent
            for got, want in zip(res.payoffs + res.gains, rep.payoffs + rep.gains):
                assert got.tobytes() == want.tobytes(), (actions, got, want)


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _all_pairs(game) -> list:
    return list(product(*(product(range(ps.actions.m), repeat=ps.types.n) for ps in game.players)))


class TestPairReportsBatch:
    """``_pure_pair_reports`` builds a batch of pairs from one penalty
    table and one fold per player; the former per-pair report, kept as
    ``reference_pure_pair_report``, pins every report bit for bit."""

    @staticmethod
    def _assert_reports_match_the_twin(game, pairs):
        beliefs = _beliefs(game)
        got = _pure_pair_reports(game, _batch(game, pairs), beliefs)
        assert len(got) == len(pairs)
        for rep, actions in zip(got, pairs):
            want = reference_pure_pair_report(game, actions, beliefs)
            assert rep.strategy.pure_actions() == actions
            arrays = zip(
                rep.payoffs + rep.gains + rep.perceptions.taus + rep.strategy.sigmas,
                want.payoffs + want.gains + want.perceptions.taus + want.strategy.sigmas,
            )
            for a, b in arrays:
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (actions, a, b)
            assert _same_bits(rep.max_gain, want.max_gain), (actions, rep.max_gain, want.max_gain)

    @settings(max_examples=60, deadline=None)
    @given(game=two_player_catalog_games(), picks=st.lists(st.integers(0, 1 << 16), max_size=8))
    # generic floats and three observer types
    @example(game=random_two_player_game(np.random.default_rng(0), 3, 2), picks=[0, 9, 27, 63, 9])
    def test_random_batches_equal_the_twin(self, game, picks):
        every = _all_pairs(game)
        # each drawn pair twice, out of order: a batch with repeats, or empty
        drawn = [every[k % len(every)] for k in picks]
        self._assert_reports_match_the_twin(game, drawn + drawn[::-1])

    @settings(max_examples=40, deadline=None)
    @given(game=additive_catalog_games())
    def test_embedded_zero_prior_games_equal_the_twin(self, game):
        assume((game.prior.p == 0.0).any())
        embedded = embed_single(game)
        every = _all_pairs(embedded)
        self._assert_reports_match_the_twin(embedded, every + every[:1])


class TestVerifyMixedBitwise:
    """``verify_equilibrium_2p`` folds mixed supports with zero entries;
    its former loop over positive-probability actions pins it."""

    @settings(max_examples=60, deadline=None)
    @given(game=two_player_catalog_games(), seed=st.integers(0, 2**32 - 1))
    @example(game=random_two_player_game(np.random.default_rng(0), 3, 3), seed=0)
    def test_random_mixed_profiles_equal_the_former_loop(self, game, seed):
        rng = np.random.default_rng(seed)

        def rows(shape):
            # generic floats with about a third of the entries zero, so
            # that supports have gaps; a row left empty plays its last entry
            x = rng.uniform(size=shape) * (rng.uniform(size=shape) < 0.65)
            x[..., -1] += x.sum(axis=-1) == 0.0
            return x / x.sum(axis=-1, keepdims=True)

        strategy = TwoPlayerStrategy(game, [rows((ps.types.n, ps.actions.m)) for ps in game.players])
        perceptions = TwoPlayerPerceptions(game, [
            rows((ps.types.n, game.players[1 - i].types.n, ps.actions.m, ps.types.n))
            for i, ps in enumerate(game.players)
        ])
        res = verify_equilibrium_2p(game, strategy, perceptions)
        payoffs, gains, moves = reference_verify_values_2p(game, strategy, perceptions)
        for got, want in zip(res.payoffs + res.gains, payoffs + gains):
            assert got.tobytes() == want.tobytes(), (got, want)
        flat = np.concatenate(gains)
        k = int(np.argmax(flat))
        assert _same_bits(res.max_gain, flat[k]) and res.worst == moves[k]


class TestBatchedScreen:
    """The pure enumerators screen every pair in one batch; the per-pair
    oracle and the former BNE loop pin the batch bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(game=two_player_catalog_games())
    # generic floats and three observer types, where the order of the
    # sum over observers shows in the bits
    @example(game=random_two_player_game(np.random.default_rng(0), 3, 2))
    def test_gains_equal_the_oracle_for_every_pair(self, game):
        beliefs = _beliefs(game)
        gains = _pure_pair_gains(game, beliefs, _pure_profiles(game, 1_000_000))
        pairs = product(*(product(range(ps.actions.m), repeat=ps.types.n) for ps in game.players))
        for got, actions in zip(gains.ravel().tolist(), pairs, strict=True):
            want = reference_pure_pair_report(game, actions, beliefs).max_gain
            assert _same_bits(got, want), (actions, got, want)

    @staticmethod
    def _assert_bne_matches_reference(game, tol=1e-9):
        for fold in (False, True):
            got = enumerate_pure_bne(game, fold_prior_penalty=fold, tol=tol)
            want = reference_pure_bne(game, fold_prior_penalty=fold, tol=tol)
            assert [(r.actions, r.strict) for r in got] == [(a, s) for a, s, _ in want]
            for r, (_, _, payoffs) in zip(got, want):
                for p, q in zip(r.payoffs, payoffs):
                    assert p.tobytes() == q.tobytes(), (r.actions, p, q)

    @settings(max_examples=60, deadline=None)
    @given(game=two_player_catalog_games())
    def test_bne_matches_reference_loop(self, game):
        self._assert_bne_matches_reference(game)
        self._assert_bne_matches_reference(game, tol=0.5)

    @pytest.mark.parametrize(
        "variant", ["fixture", "indifferent-opponent", "zero-penalties"]
    )
    def test_bne_matches_reference_loop_on_ties(self, variant):
        g = two_player_game()
        if variant == "indifferent-opponent":
            g = with_player(g, 1, v=np.zeros_like(g.players[1].v))
        elif variant == "zero-penalties":
            g = _zero_penalties(g)
        self._assert_bne_matches_reference(g)

    @pytest.mark.parametrize(
        "enumerate_",
        [
            enumerate_pure_equilibria_2p,
            enumerate_pure_bne,
            lambda g, **kw: enumerate_pure_bne(g, fold_prior_penalty=True, **kw),
        ],
        ids=["equilibria", "bne", "bne-folded"],
    )
    def test_cap_raises_before_any_penalty_is_evaluated(self, enumerate_, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("penalty evaluated before the cap check")

        for module, name in [
            (penalties, "penalty_value"), (penalties, "penalty_batch"),
            (penalties, "penalty_range"), (model, "penalty_value"), (model, "penalty_range"),
            (two_player, "penalty_value"), (two_player, "penalty_range"),
            (kernels, "penalty_batch"),
        ]:
            monkeypatch.setattr(module, name, fail)
        # 2 types x 2 actions per side: 4 x 4 pairs
        with pytest.raises(ValueError, match=r"^16 pure profile pairs exceed max_profiles=15$"):
            enumerate_(two_player_game(), max_profiles=15)
        # the belief rows are checked first
        nan_game = with_player(
            two_player_game(), 0, beliefs=np.array([[np.nan, 1.0], [0.5, 0.5]])
        )
        with pytest.raises(ValueError, match="player 0 beliefs.*non-finite"):
            enumerate_(nan_game, max_profiles=15)

    @pytest.mark.parametrize(
        "enumerate_",
        [
            enumerate_pure_equilibria_2p,
            enumerate_pure_bne,
            lambda g, **kw: enumerate_pure_bne(g, fold_prior_penalty=True, **kw),
        ],
        ids=["equilibria", "bne", "bne-folded"],
    )
    @pytest.mark.parametrize("cap", [float("nan"), 16.0, 2.5, None])
    def test_cap_must_be_an_integer(self, enumerate_, cap, monkeypatch):
        """A NaN cap compares False with every count and turned the cap
        off; a float one passed as a number. Both are rejected before any
        penalty or value is computed."""

        def fail(*args, **kwargs):
            raise AssertionError("work done before the cap check")

        for name in ("_penalty_table", "_fold", "_pure_inner"):
            monkeypatch.setattr(two_player, name, fail)
        monkeypatch.setattr(kernels, "penalty_batch", fail)
        monkeypatch.setattr(model, "penalty_value", fail)
        with pytest.raises(ValueError, match=f"^max_profiles must be an integer, got {cap!r}$"):
            enumerate_(two_player_game(), max_profiles=cap)

    @pytest.mark.parametrize("block", [None, 8], ids=["one-block", "four-blocks"])
    @pytest.mark.parametrize(
        "variant, kept", [("fixture", 5), ("every-pair", 16), ("no-pair", 0)]
    )
    def test_kept_pairs_share_one_table_per_player(self, monkeypatch, variant, kept, block):
        """Per-pair reports cost far more than the screen; the kept pairs
        take one penalty table per player however many they are."""
        g, tol = two_player_game(), WEAK_TOL
        if variant == "every-pair":
            for i in range(2):
                g = with_player(g, i, v=np.zeros_like(g.players[i].v))
            g = _zero_penalties(g)
        elif variant == "no-pair":
            tol = -1.0
        if block is not None:
            # 4 x (2 types x 2 actions) values a profile: one own profile a block
            monkeypatch.setattr(two_player, "_BLOCK", block)
        calls = []
        table = two_player._penalty_table

        def spy(game, i, own):
            calls.append((i, own.shape[0]))
            return table(game, i, own)

        monkeypatch.setattr(two_player, "_penalty_table", spy)
        gains = _pure_pair_gains(g, _beliefs(g), _pure_profiles(g, 1_000_000))
        screen = len(calls)
        assert screen == (2 if block is None else 8)
        assert int((gains <= tol).sum()) == kept
        calls.clear()
        assert len(enumerate_pure_equilibria_2p(g, tol=tol)) == kept
        assert len(calls) == screen + 2
        assert calls[screen:] == [(0, kept), (1, kept)]

    def test_near_cap_game_matches_the_oracle(self):
        # 6 types x 3 actions per side: 729 x 729 = 531,441 pairs; one
        # (pair, type, action) value array would take 76 MB per player
        game = random_two_player_game(np.random.default_rng(1), 6, 3)
        tol = 0.2
        beliefs = _beliefs(game)
        profiles = _pure_profiles(game, 1_000_000)
        tracemalloc.start()
        try:
            gains = _pure_pair_gains(game, beliefs, profiles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gains.shape == (729, 729)
        assert peak < 48e6, peak
        start = time.perf_counter()
        found = enumerate_pure_equilibria_2p(game, tol=tol)
        assert time.perf_counter() - start < 60.0
        kept = np.flatnonzero(gains <= tol)
        assert 0 < kept.size < 100
        assert [r.strategy.pure_actions() for r in found] == [
            (tuple(profiles[0][k // 729].tolist()), tuple(profiles[1][k % 729].tolist()))
            for k in kept
        ]
        rng = np.random.default_rng(2)
        rejected = rng.choice(np.flatnonzero(gains > tol), 300 - kept.size, replace=False)
        for k in np.concatenate([kept, rejected]).tolist():
            k0, k1 = divmod(k, 729)
            actions = (tuple(profiles[0][k0].tolist()), tuple(profiles[1][k1].tolist()))
            want = reference_pure_pair_report(game, actions, beliefs).max_gain
            assert _same_bits(gains[k0, k1], want), (actions, gains[k0, k1], want)

    def test_every_pair_kept_holds_its_perceptions_once(self):
        """4 x 3 per side with zero values and zero penalties: all 6,561
        pairs are kept, and their reports hold 30.3 MiB. Each report's
        perceptions are built in its own turn from the tables, so the
        traced peak is 39.2 MiB; a batch of every pair's perceptions held
        next to the reports' copies peaked at 55.9 MiB."""
        g = random_two_player_game(np.random.default_rng(4), 4, 3)
        for i in range(2):
            g = with_player(g, i, v=np.zeros_like(g.players[i].v))
        g = _zero_penalties(g)
        tracemalloc.start()
        try:
            found = enumerate_pure_equilibria_2p(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 6561
        assert peak < 44 * 2**20, peak


class TestObserverGames:
    """A player seen by one observer type is a single-player game
    (``_observers``) whose prior is that observer's belief row; the
    penalty table reads its posteriors, penalties, off-path fill and
    witnesses from those games' packs."""

    @settings(max_examples=60, deadline=None)
    @given(game=two_player_catalog_games())
    # generic floats, three observer types and prior-distance penalties
    @example(game=random_two_player_game(np.random.default_rng(0), 3, 2))
    def test_table_equals_the_former_loop(self, game):
        beliefs = _beliefs(game)
        profiles = _pure_profiles(game, 1_000_000)
        for i in range(2):
            w, on, post = two_player._penalty_table(game, i, profiles[i])
            w_ref, on_ref, post_ref = reference_penalty_table(game, i, beliefs, profiles[i])
            assert on.tobytes() == on_ref.tobytes() and post.tobytes() == post_ref.tobytes()
            # -u_max of a zero v is -(0.0 - min): only a zero's sign moves
            assert (w + 0.0).tobytes() == (w_ref + 0.0).tobytes()

    def test_penalty_is_anchored_at_the_stored_row(self):
        # the observer's row as given holds a tiny negative, which the
        # checked row stores as 0.0: the prior-distance penalty there is
        # 0, so folding it into the BNE payoffs changes no bit
        g = with_player(two_player_game(), 0, penalties=(PenaltySpec.tv_to_prior(1.0),) * 2)
        g = with_player(g, 1, beliefs=np.array([[1 + 1e-13, -1e-13], [0.5, 0.5]]))
        assert g.w(0, 0, [1 + 1e-13, 0.0], 0) == 0.0
        folded = enumerate_pure_bne(g, fold_prior_penalty=True)
        plain = enumerate_pure_bne(g)
        assert [r.actions for r in folded] == [r.actions for r in plain]
        for r, q in zip(folded, plain):
            assert r.payoffs[0].tobytes() == q.payoffs[0].tobytes(), (r.actions, r.payoffs, q.payoffs)

    def test_observers_share_one_pack_unless_prior_distance(self, monkeypatch):
        g = random_two_player_game(np.random.default_rng(0), 3, 2)
        g = with_player(g, 0, penalties=(PenaltySpec.exposure(1.0),) * 3)
        g = with_player(g, 1, penalties=(PenaltySpec.tv_to_prior(1.0),) * 3)
        for name in ("penalty", "_penalties", "_pranges"):
            assert not hasattr(g, name)
        ranges = []
        real = model.penalty_range
        monkeypatch.setattr(model, "penalty_range", lambda pen: ranges.append(pen) or real(pen))
        profiles = _pure_profiles(g, 1_000_000)
        two_player._penalty_table(g, 0, profiles[0])
        # one range per type, read once by the template's pack
        assert len(ranges) == 3
        plans = [kernels.pack_game(obs).bound_plan for obs in g._observers(0)]
        assert len(plans) == 3 and all(plan is plans[0] for plan in plans)
        ranges.clear()
        two_player._penalty_table(g, 1, profiles[1])
        # the prior-distance kind reads each observer's anchor
        assert len(ranges) == 9
        plans = [kernels.pack_game(obs).bound_plan for obs in g._observers(1)]
        assert len({id(plan) for plan in plans}) == 3
        ranges.clear()
        enumerate_pure_equilibria_2p(g)
        assert ranges == []


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
        double = reference_pure_pair_report(embedded, ((1, 1, 0), (0,)), _beliefs(embedded))
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
            double = reference_pure_pair_report(embedded, (acts, (0,)), beliefs)
            np.testing.assert_array_equal(single.gains, double.gains[0])
            if not single.clamped:
                np.testing.assert_array_equal(single.payoffs, double.payoffs[0])

    def test_embedded_blog_survivors(self):
        from perception_games.fixtures import blog

        doubles = enumerate_pure_equilibria_2p(embed_single(blog()))
        acts = [r.strategy.pure_actions()[0] for r in doubles]
        assert acts == [(0, 0), (0, 1), (1, 1)]
