"""Inputs are checked once, where they enter; the solvers build their
results from checked inputs through the private builder
``single._Built._built``, which checks the shape only. These tests pin
that every object built so is, bit for bit, what the public
constructor builds of the same rows, and that no solver checks its own
rows again."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from perception_games import model, simplex, single, two_player
from perception_games.experiments import (
    build_separating_equilibrium,
    counterexample_check,
    default_majority_family,
    scan_alpha,
)
from perception_games.fixtures import blog
from perception_games.penalties import PenaltySpec, bind, penalty_range
from perception_games.simplex import Belief, dirac
from perception_games.single import (
    PerceptionMap,
    Strategy,
    enumerate_pure_equilibria,
    pooling_check,
    profile_report,
    search_mixed_equilibria,
)
from perception_games.testing import random_separable_spec
from perception_games.two_player import TwoPlayerPerceptions, TwoPlayerStrategy, enumerate_pure_equilibria_2p

from helpers import random_two_player_game, two_player_catalog_games, with_player
from test_kernels import catalog_games

_ROWS = {Strategy: "sigma", PerceptionMap: "tau", TwoPlayerStrategy: "sigmas", TwoPlayerPerceptions: "taus"}


def _assert_as_checked(game, objects) -> None:
    """Each object's arrays are read-only and equal, bit for bit, to those
    its public constructor builds of them."""
    for obj in objects:
        name = _ROWS[type(obj)]
        got, want = getattr(obj, name), getattr(type(obj)(game, getattr(obj, name)), name)
        if name in ("sigma", "tau"):
            got, want = (got,), (want,)
        for a, b in zip(got, want, strict=True):
            assert not a.flags.writeable
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(game=catalog_games())
def test_single_player_results_equal_the_checked_objects(game):
    built = [Strategy.pure(game, [game.m - 1] * game.n)]
    for rep in enumerate_pure_equilibria(game, tol=np.inf):
        built += [rep.strategy, rep.perceptions]
    search = search_mixed_equilibria(game, step=0.5, tol=np.inf, max_survivors=20)
    built.append(search.argmin)
    built += [rep.perceptions for rep in search.survivors]
    for mode in ("upper", "lower"):
        witness = pooling_check(game, mode).witness
        built += list(witness or ())
    if not game.continuous:
        built.append(counterexample_check(game, 0.5).pure_argmin)
    _assert_as_checked(game, built)


@settings(max_examples=40, deadline=None)
@given(game=two_player_catalog_games())
def test_two_player_reports_equal_the_checked_objects(game):
    built = [TwoPlayerStrategy.pure(game, [[ps.actions.m - 1] * ps.types.n for ps in game.players])]
    for rep in enumerate_pure_equilibria_2p(game, tol=np.inf):
        built += [rep.strategy, rep.perceptions]
    _assert_as_checked(game, built)


@pytest.mark.parametrize("seed", range(6))
def test_separating_witness_equals_the_checked_objects(seed):
    game, strategy, perceptions = build_separating_equilibrium(random_separable_spec(np.random.default_rng(seed)))
    _assert_as_checked(game, [strategy, perceptions])


@pytest.fixture
def checked(monkeypatch) -> list:
    """The ``what`` of every ``simplex.distributions`` call, under every
    name the library imports it by."""
    calls = []
    real = simplex.distributions

    def spy(values, shape, what):
        calls.append(what)
        return real(values, shape, what)

    for module in (simplex, model, single, two_player):
        monkeypatch.setattr(module, "distributions", spy)
    return calls


def test_pure_enumeration_2p_checks_only_the_belief_rows(checked):
    """4 x 3 per side with zero values and zero penalties: all 6,561 pairs
    are kept. Each report's strategy and perceptions were checked again,
    4 row arrays per report (26,246 checks per call); now the belief
    rows are checked once per player. The first call fills the game's
    range caches, whose witness beliefs are checked once per game."""
    game = random_two_player_game(np.random.default_rng(4), 4, 3)
    for i in range(2):
        game = with_player(game, i, v=np.zeros_like(game.players[i].v), penalties=(PenaltySpec.zero(),) * 4)
    enumerate_pure_equilibria_2p(game)
    checked.clear()
    assert len(enumerate_pure_equilibria_2p(game)) == 6561
    assert checked == ["player 0 beliefs", "player 1 beliefs"]


def test_profile_report_checks_only_its_sigma(checked):
    game = blog()
    sigma = np.array([[0.25, 0.75], [1.0, 0.0]])
    profile_report(game, sigma)
    checked.clear()
    profile_report(game, sigma)
    assert checked == ["strategy"]


def test_search_argmin_is_not_checked_again(checked):
    game = blog()
    search_mixed_equilibria(game, step=0.25, max_survivors=0)
    checked.clear()
    assert search_mixed_equilibria(game, step=0.25, max_survivors=0).argmin.sigma.shape == (2, 2)
    assert checked == []


def _assert_beliefs_as_checked(beliefs) -> None:
    """Each belief's row equals, bit for bit and in its flags, the row the
    public ``Belief`` constructor builds of it."""
    for belief in beliefs:
        got, want = belief.p, Belief(belief.p).p
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert (got.flags.writeable, got.flags.c_contiguous) == (want.flags.writeable, want.flags.c_contiguous)


@settings(max_examples=60, deadline=None)
@given(game=catalog_games())
def test_range_witnesses_and_exposures_equal_the_checked_beliefs(game):
    """``dirac``, the witnesses of ``penalty_range`` (marginal beliefs,
    the bound prior of ``tv_to_prior``, point masses) and ``chi`` are built
    from checked inputs and not checked again."""
    beliefs = [dirac(t, game.n) for t in range(game.n)] + [game.chi(t) for t in range(game.n)]
    for t, a in np.ndindex(game.n, game.m):
        r = game.u_range(t, a)
        beliefs += [r.argmin, r.argmax]
    _assert_beliefs_as_checked(beliefs)
    assert all(game.chi(t) is game.chi(t) for t in range(game.n))


def test_a_public_anchor_stays_writeable():
    """The ``tv_to_prior`` witness is a copy of the bound anchor: a
    penalty bound through the public ``bind`` keeps its caller's array."""
    anchor = np.array([0.25, 0.75])
    r = penalty_range(bind(PenaltySpec.tv_to_prior(1.0), ("a", "b"), anchor, 0))
    assert anchor.flags.writeable and r.argmin.p.tobytes() == anchor.tobytes()
    _assert_beliefs_as_checked([r.argmin, r.argmax])


def test_warm_scan_checks_only_its_priors_and_sigmas(checked):
    """A warm ``majority-scan`` pass checked 184 arrays: 120 range
    witnesses the library built itself, besides the 21 games' priors and
    the 43 pure equilibria's ``profile_report`` sigmas, which remain."""
    family = default_majority_family()
    alphas = [round(0.05 * i, 10) for i in range(21)]
    scan_alpha(family, alphas, mixed_step=0.05)
    checked.clear()
    rep = scan_alpha(family, alphas, mixed_step=0.05)
    assert Counter(checked) == {"belief": 21, "strategy": sum(r.n_equilibria for r in rep.rows)}
    assert len(checked) <= 64
