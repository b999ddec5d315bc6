"""Two-player solver with subjective beliefs.

Each player holds a type-dependent belief about the opponent's type,
acts, observes nothing further, and pays a penalty in the belief the
opponent (as observer) forms about the player's own type. Perceptions
are indexed by (own type, observer type, own action): what the player
expects each observer type to believe after each action.

Consistency is per observer type: the observer updates their own prior
belief about the player using the player's strategy; actions carrying
no mass in that observer's view are off path for them (0/0 counts as
off path) and the perception there is unconstrained.

Enumeration chooses off-path beliefs independently per (own type,
observer type, action): favorably under the player's own action and
adversely for deviations. Each such triple enters exactly one additive
term of the expected utility, so independent pointwise choice is the
exact optimum.

One fold, ``_fold``, values actions everywhere: the screen and the BNE
enumeration fold every own against every opponent pure profile, the
kept-pair reports one opponent profile per pair, and
``verify_equilibrium_2p`` each opponent type's mixed action. The
single-player ``payoff_and_gain`` turns the values into payoffs and
deviation gains, once per player for a whole batch of reports or for a
verification, and also sums the verifier's opponent mixes; only the
screen writes its gains out in place. A player seen by one observer
type is a single-player game whose prior is that observer's belief row
(``TwoPlayerPerceptionGame._observers``), so the per-player rule is the
single-player one. The one penalty table, ``_penalty_table``, reads
every observer's posteriors after a batch of own pure profiles, the
penalties there and the off-path ends from that game's pack
(``kernels._utility_rows``, the rows of the sweep kernel and the exact
oracle), and the reports take their off-path witnesses from the same
packs. Pure enumeration screens every pair through the table and the
fold in blocks of own profiles (``_pure_pair_gains``); one more table
and fold per player then build and confirm every pair the screen keeps
(``_pure_pair_reports``), so games near the 10^6-pair cap enumerate in
seconds.

Inputs are checked once, where they enter: the belief rows once per
call (``_beliefs``), a strategy or perceptions by their public
constructors. The reports' strategies and perceptions go through the
private builder ``_built`` (``single._Built``) unchecked.

The penalty catalog's prior-distance kind measures distance to the
observer's prior belief about the player (the natural reference in a
subjective model). On singleton-opponent embeddings the gains match the
single-player solver bitwise, and so do the payoffs except on
``clamped`` reports (see ``embed_single``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PerceptionGame,
    PlayerSpec,
    TwoPlayerPerceptionGame,
    TypeSpace,
    ActionSpace,
)
from .kernels import _utility_rows, pack_game
from .penalties import PenaltySpec
# module attributes that perfbench's tracer wraps to count penalty calls
from .penalties import penalty_range, penalty_value  # noqa: F401
from .simplex import WEAK_TOL, _check_tol, _stored, consistency_errors, distributions
from .single import _Built, _cap, _pure_actions, _pure_rows, payoff_and_gain

__all__ = [
    "TwoPlayerStrategy",
    "TwoPlayerPerceptions",
    "TwoPlayerVerification",
    "verify_equilibrium_2p",
    "is_consistent_2p",
    "TwoPlayerEquilibriumReport",
    "enumerate_pure_equilibria_2p",
    "PureBNEReport",
    "enumerate_pure_bne",
    "embed_single",
]


def _per_player(entries, what: str) -> None:
    """Raise unless ``entries`` holds exactly one entry per player."""
    if len(entries) != 2:
        raise ValueError(f"{what} needs 2 per-player entries, got {len(entries)}")


def _shapes(game: TwoPlayerPerceptionGame, what: str) -> list[tuple[int, ...]]:
    """Each player's shape of ``what``: "strategy", "perceptions" or "beliefs"."""
    return [{
        "strategy": (ps.types.n, ps.actions.m),
        "perceptions": (ps.types.n, opp.types.n, ps.actions.m, ps.types.n),
        "beliefs": (ps.types.n, opp.types.n),
    }[what] for ps, opp in zip(game.players, game.players[::-1])]


def _distributions(values, game: TwoPlayerPerceptionGame, what: str) -> tuple:
    """Each player's rows ``values[i]`` as ``simplex.distributions`` checks
    them, with the shape ``_shapes`` gives; errors name "player i what"."""
    return tuple(distributions(values[i], s, f"player {i} {what}") for i, s in enumerate(_shapes(game, what)))


def _stored_pair(rows, game: TwoPlayerPerceptionGame, what: str) -> tuple:
    """``_distributions`` of rows built from checked inputs, by ``simplex._stored``."""
    return tuple(_stored(rows[i], s, f"player {i} {what}") for i, s in enumerate(_shapes(game, what)))


class TwoPlayerStrategy(_Built):
    """Pair of row-stochastic arrays, one row per own type."""

    __slots__ = ("sigmas",)

    def __init__(self, game: TwoPlayerPerceptionGame, sigmas) -> None:
        _per_player(sigmas, "a two-player strategy")
        self._fill(game, _distributions(sigmas, game, "strategy"))

    def _fill(self, game: TwoPlayerPerceptionGame, sigmas) -> None:
        self.sigmas = _stored_pair(sigmas, game, "strategy")

    @classmethod
    def pure(cls, game: TwoPlayerPerceptionGame, actions) -> "TwoPlayerStrategy":
        _per_player(actions, "a pure two-player profile")
        return cls._built(game, tuple(
            _pure_rows(ps.actions, actions[i], ps.types.n, f"player {i} ") for i, ps in enumerate(game.players)
        ))

    def pure_actions(self) -> tuple[tuple[int, ...], ...] | None:
        out = tuple(_pure_actions(sigma) for sigma in self.sigmas)
        return None if None in out else out


class TwoPlayerPerceptions(_Built):
    """Pair of arrays tau_i[own type, observer type, own action, own type']."""

    __slots__ = ("taus",)

    def __init__(self, game: TwoPlayerPerceptionGame, taus) -> None:
        _per_player(taus, "two-player perceptions")
        self._fill(game, _distributions(taus, game, "perceptions"))

    def _fill(self, game: TwoPlayerPerceptionGame, taus) -> None:
        self.taus = _stored_pair(taus, game, "perceptions")


def _beliefs(game: TwoPlayerPerceptionGame) -> tuple[np.ndarray, np.ndarray]:
    """Both players' belief rows, checked as probability distributions."""
    return _distributions([ps.beliefs for ps in game.players], game, "beliefs")


def _fold(beliefs_i: np.ndarray, inner: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``vals[t, a, ...]``: the expected value of each own action of
    every type, ``Σ_{t_opp} beliefs_i[t, t_opp] * (inner - w)[t, t_opp,
    a, ...]``, summed in ascending ``t_opp`` from 0.0. ``inner[t, t_opp,
    a, ...]`` is the action's value against that opponent type's play
    and ``w[t, t_opp, a, ...]`` the penalty in observer ``t_opp``'s view
    after it; the two broadcast against each other. Every caller values
    actions here, so the same inputs give the same bits everywhere."""
    acc = 0.0
    for t_opp in range(beliefs_i.shape[1]):
        diff = inner[:, t_opp] - w[:, t_opp]
        acc = acc + beliefs_i[:, t_opp].reshape((-1,) + (1,) * (diff.ndim - 1)) * diff
    return acc


def _pure_inner(ps: PlayerSpec, opp: np.ndarray) -> np.ndarray:
    """``inner[t, t_opp, a, j] = 0.0 + v[t, t_opp, a, opp[j, t_opp]]``:
    ``_fold``'s inner sum against the opponent's pure profile ``opp[j]``,
    one action of probability 1 summed from 0.0."""
    return 0.0 + np.take_along_axis(ps.v, opp.T[None, :, None, :], axis=3)


def _pure_profiles(
    game: TwoPlayerPerceptionGame, max_profiles: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each player's pure profiles as rows of action indices, one per
    own type, in lexicographic order; raises before anything is
    evaluated when the pairs exceed ``max_profiles``."""
    p0, p1 = game.players
    total = (p0.actions.m ** p0.types.n) * (p1.actions.m ** p1.types.n)
    if total > _cap(max_profiles, "max_profiles"):
        raise ValueError(f"{total} pure profile pairs exceed max_profiles={max_profiles}")
    return tuple(
        np.indices((ps.actions.m,) * ps.types.n).reshape(ps.types.n, -1).T for ps in game.players
    )


def _penalty_table(
    game: TwoPlayerPerceptionGame, i: int, own: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(w, on, post)`` for player ``i`` under each own pure profile
    ``own[k]``, read from each observer's game (``_observers``) through
    its pack's ``_utility_rows``. ``on[t_obs, a, k]`` says whether ``a``
    is on path in observer ``t_obs``'s view, and ``post[t_obs, :, a, k]``
    is that observer's posterior there. ``w[t, t_obs, a, k]`` is type
    ``t``'s penalty in that view, its negated utility (the game has ``v =
    0``): at the posterior on path, and off path at the penalty minimum
    (``-u_max``) under the type's own action and the maximum (``-u_min``)
    for a deviation."""
    m = game.players[i].actions.m
    col = (own.T[:, None, :] == np.arange(m)[:, None]).astype(np.float64)  # [s, a, k]
    packs = [pack_game(obs) for obs in game._observers(i)]
    on, post, rows = (np.stack(x) for x in zip(*(_utility_rows(col, pack) for pack in packs)))
    u_min = np.stack([pack.u_min for pack in packs], axis=1)[..., None]  # [t, t_obs, a, 1]
    u_max = np.stack([pack.u_max for pack in packs], axis=1)[..., None]
    w = -np.where(on, rows.swapaxes(0, 1), np.where(col[:, None] > 0.0, u_max, u_min))
    return w, on, post


# value-block size in elements: bounds each temporary of the screen to 4 MB
_BLOCK = 1 << 19


def _pure_pair_gains(
    game: TwoPlayerPerceptionGame,
    beliefs: tuple[np.ndarray, np.ndarray],
    profiles: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """``gain[k0, k1]``: the ``max_gain`` of the pair ``(profiles[0][k0],
    profiles[1][k1])``'s report (``_pure_pair_reports``), bit for bit,
    for every pair at once. Each player's gains are computed in blocks of
    own profiles against every opponent profile."""
    per_player = []
    for i, ps in enumerate(game.players):
        own, opp = profiles[i], profiles[1 - i]
        types = np.arange(ps.types.n)[:, None]
        inner = _pure_inner(ps, opp)[:, :, :, None]  # [t, t_opp, a, 1, j]
        gains = np.empty((own.shape[0], opp.shape[0]))
        size = max(1, _BLOCK // (opp.shape[0] * ps.types.n * ps.actions.m))
        for lo in range(0, own.shape[0], size):
            block = own[lo:lo + size]
            w = _penalty_table(game, i, block)[0]
            vals = _fold(beliefs[i], inner, w[..., None])  # [t, a, k, j]
            chosen = vals[types, block.T, np.arange(block.shape[0])]  # [t, k, j]
            # payoff_and_gain's gain of a one-hot row, written out in place:
            # the best value less the own action's (a fold from 0.0 is never
            # -0.0, so the max and the first max agree in every bit)
            gains[lo:lo + size] = (vals.max(axis=1) - chosen).max(axis=0)
        per_player.append(gains)
    return np.maximum(per_player[0], per_player[1].T)


def is_consistent_2p(
    game: TwoPlayerPerceptionGame,
    strategy: TwoPlayerStrategy,
    perceptions: TwoPlayerPerceptions,
    tol: float = WEAK_TOL,
) -> tuple[bool, tuple[tuple[int, str, str, str, float], ...]]:
    """Violations are (player, own type, observer type, action, tv error).
    A NaN ``tol`` is rejected before any work."""
    _check_tol(tol)
    return _consistency_2p(game, _beliefs(game), strategy, perceptions, tol)


def _consistency_2p(game: TwoPlayerPerceptionGame, beliefs, strategy, perceptions, tol: float) -> tuple:
    """``is_consistent_2p`` given the checked belief rows ``_beliefs(game)``."""
    violations: list[tuple[int, str, str, str, float]] = []
    for i, ps in enumerate(game.players):
        other = game.players[1 - i]
        for t_obs, prior in enumerate(beliefs[1 - i]):
            errors = consistency_errors(
                prior, strategy.sigmas[i], perceptions.taus[i][:, t_obs], tol
            )
            violations.extend(
                (i, ps.types.labels[t], other.types.labels[t_obs], ps.actions.labels[a], err)
                for t, a, err in errors
            )
    return (not violations, tuple(violations))


@dataclass(frozen=True)
class TwoPlayerVerification:
    accepted: bool
    consistent: bool
    violations: tuple
    payoffs: tuple[np.ndarray, np.ndarray]
    gains: tuple[np.ndarray, np.ndarray]
    max_gain: float
    worst: tuple[int, str, str] | None  # (player, type, best deviation)
    eps: float
    tol: float


def verify_equilibrium_2p(
    game: TwoPlayerPerceptionGame,
    strategy: TwoPlayerStrategy,
    perceptions: TwoPlayerPerceptions,
    tol: float = WEAK_TOL,
    eps: float = 0.0,
) -> TwoPlayerVerification:
    """Accept when perceptions are consistent for every observer type
    and no type of either player gains more than ``eps`` by a pure
    deviation (with ``tol`` float slack). A NaN ``tol`` or ``eps`` is
    rejected before any work, and the belief rows are checked once."""
    _check_tol(tol)
    _check_tol(eps, name="eps")
    beliefs = _beliefs(game)
    consistent, violations = _consistency_2p(game, beliefs, strategy, perceptions, tol)
    payoffs = []
    gains = []
    moves = []  # (player, type, best action), in the order of the joined gains
    for i, ps in enumerate(game.players):
        # inner[t, t_opp, a]: own action a's value against opponent type
        # t_opp's mixed action, a payoff over the last axis of v
        inner = payoff_and_gain(strategy.sigmas[1 - i][:, None], ps.v)[0]
        # penalty per (type, observer type, action) at the given perceptions
        w = np.array([[[game.w(i, t, tau, t_obs) for tau in taus_obs]
                       for t_obs, taus_obs in enumerate(taus_t)]
                      for t, taus_t in enumerate(perceptions.taus[i])])
        pay, gn, best = payoff_and_gain(strategy.sigmas[i], _fold(beliefs[i], inner, w))
        moves.extend((i, ps.types.labels[t], ps.actions.labels[b]) for t, b in enumerate(best.tolist()))
        payoffs.append(pay)
        gains.append(gn)
    flat = np.concatenate(gains)
    k = int(np.argmax(flat))
    return TwoPlayerVerification(
        accepted=bool(consistent and flat[k] <= eps + tol),
        consistent=consistent,
        violations=violations,
        payoffs=(payoffs[0], payoffs[1]),
        gains=(gains[0], gains[1]),
        max_gain=float(flat[k]),
        worst=moves[k],
        eps=eps,
        tol=tol,
    )


@dataclass(frozen=True)
class TwoPlayerEquilibriumReport:
    strategy: TwoPlayerStrategy
    perceptions: TwoPlayerPerceptions
    payoffs: tuple[np.ndarray, np.ndarray]
    gains: tuple[np.ndarray, np.ndarray]
    max_gain: float


def enumerate_pure_equilibria_2p(
    game: TwoPlayerPerceptionGame,
    tol: float = WEAK_TOL,
    max_profiles: int = 1_000_000,
) -> list[TwoPlayerEquilibriumReport]:
    """All pure profile pairs completable into an equilibrium.

    On-path perceptions are posteriors per observer type; off-path ones
    are chosen per (own type, observer type, action): the penalty
    minimum under the player's own action, the penalty maximum for
    deviations. One batched screen gives every pair's maximum gain;
    ``_pure_pair_reports`` builds the pairs within ``tol`` in one batch,
    and each is kept when its report confirms it. A NaN ``tol`` is
    rejected before any work.
    """
    _check_tol(tol)
    beliefs = _beliefs(game)
    profiles = _pure_profiles(game, max_profiles)
    kept = np.nonzero(_pure_pair_gains(game, beliefs, profiles) <= tol)
    pairs = (profiles[0][kept[0]], profiles[1][kept[1]])
    return [rep for rep in _pure_pair_reports(game, pairs, beliefs) if rep.max_gain <= tol]


def _pure_pair_reports(
    game: TwoPlayerPerceptionGame,
    pairs: tuple[np.ndarray, np.ndarray],
    beliefs: tuple[np.ndarray, np.ndarray],
) -> list[TwoPlayerEquilibriumReport]:
    """The report of each pure pair ``(pairs[0][k], pairs[1][k])`` under
    its best perceptions, given the belief rows ``_beliefs(game)``: one
    penalty table and one fold per player for the whole batch. The
    perceptions are the table's posteriors on path and, off path, the
    witnesses of the range ends the table chose, built report by report
    from the table's ``on`` and ``post``, so no batch of every pair's
    perceptions is held next to the reports. Each player's one-hot rows
    of the whole batch are folded by ``payoff_and_gain`` once, and each
    report's strategy rows are its rows of them."""
    views, sigmas, payoffs, gains = [], [], [], []
    for i, ps in enumerate(game.players):
        own, m = pairs[i], ps.actions.m
        w, on, post = _penalty_table(game, i, own)
        vals = _fold(beliefs[i], _pure_inner(ps, pairs[1 - i]), w)  # [t, a, k]
        sigmas.append(np.eye(m)[own])  # [k, t, a]
        pay, gain, _ = payoff_and_gain(sigmas[i], vals.transpose(2, 0, 1))
        payoffs.append(pay)
        gains.append(gain)
        # the beliefs at the ends the table chose: u_max under the own action
        packs = [pack_game(obs) for obs in game._observers(i)]
        lo = np.stack([pack.argmax for pack in packs], axis=1)  # [t, t_obs, a, s]
        hi = np.stack([pack.argmin for pack in packs], axis=1)
        mine = (own[:, :, None] == np.arange(m))[:, :, None, :, None]  # [k, t, 1, a, 1]
        # the table's on and post as [k, t_obs, a, 1] and [k, t_obs, a, s] views
        views.append((on.transpose(2, 0, 1)[..., None], post.transpose(3, 0, 2, 1), mine, lo, hi))
    max_gain = np.maximum(gains[0].max(axis=1), gains[1].max(axis=1))
    return [
        TwoPlayerEquilibriumReport(
            strategy=TwoPlayerStrategy._built(game, (sigmas[0][k], sigmas[1][k])),
            perceptions=TwoPlayerPerceptions._built(game, tuple(
                np.where(on[k], post[k], np.where(mine[k], lo, hi)) for on, post, mine, lo, hi in views
            )),
            payoffs=(payoffs[0][k], payoffs[1][k]),
            gains=(gains[0][k], gains[1][k]),
            max_gain=float(max_gain[k]),
        )
        for k in range(len(max_gain))
    ]


@dataclass(frozen=True)
class PureBNEReport:
    """A pure weak best-reply profile of the belief-free base game."""

    actions: tuple[tuple[int, ...], tuple[int, ...]]
    action_labels: tuple[tuple[str, ...], tuple[str, ...]]
    payoffs: tuple[np.ndarray, np.ndarray]
    strict: bool


def enumerate_pure_bne(
    game: TwoPlayerPerceptionGame,
    fold_prior_penalty: bool = False,
    tol: float = WEAK_TOL,
    max_profiles: int = 1_000_000,
) -> list[PureBNEReport]:
    """Pure profiles where every type weakly best-replies in interim
    expectation, ignoring belief effects.

    By default the perception penalty is stripped entirely. With
    ``fold_prior_penalty`` the penalty at the observer's prior belief
    is folded into payoffs instead: the counterfactual where actions
    go unobserved and perceptions stay put. Ties are kept (weak best
    replies); ``strict`` marks profiles where every type's reply is the
    unique maximizer beyond ``tol``. A NaN ``tol`` would keep every
    profile, and raises ``ValueError`` first.
    """
    _check_tol(tol)
    beliefs = _beliefs(game)
    profiles = _pure_profiles(game, max_profiles)
    vals, weak, strict = [], [], []
    for i, ps in enumerate(game.players):
        n, m = ps.types.n, ps.actions.m
        # one penalty table for every profile: zero, or the penalty at
        # the observer's prior whatever the action
        w = np.zeros((n, game.players[1 - i].types.n, m, 1))
        if fold_prior_penalty:
            for t in range(n):
                for t_obs, prior in enumerate(beliefs[1 - i]):
                    w[t, t_obs] = game.w(i, t, prior, t_obs)
        v = _fold(beliefs[i], _pure_inner(ps, profiles[1 - i]), w)  # [t, a, j]
        # each action's best rival: the maximum with that action at -inf
        rival = np.where(np.eye(m, dtype=bool)[:, :, None], -np.inf, v[:, None]).max(axis=2)
        # [k, j]: every type's choice under own profile k passes
        own = (np.arange(n)[:, None], profiles[i].T)
        weak.append((~(v < v.max(axis=1, keepdims=True) - tol))[own].all(axis=0))
        strict.append((~(rival >= v - tol))[own].all(axis=0))
        vals.append(v)
    out: list[PureBNEReport] = []
    for k0, k1 in zip(*np.nonzero(weak[0] & weak[1].T)):
        k = (k0, k1)
        acts = tuple(tuple(profiles[i][k[i]].tolist()) for i in range(2))
        out.append(
            PureBNEReport(
                actions=acts,
                action_labels=tuple(
                    tuple(game.players[i].actions.labels[a] for a in acts[i]) for i in range(2)
                ),
                payoffs=tuple(
                    vals[i][np.arange(len(acts[i])), profiles[i][k[i]], k[1 - i]] for i in range(2)
                ),
                strict=bool(strict[0][k0, k1] and strict[1][k1, k0]),
            )
        )
    return out


def embed_single(game: PerceptionGame) -> TwoPlayerPerceptionGame:
    """Wrap a single-player game as player 0 against a silent singleton.

    The singleton opponent has one type and one action and zero
    payoffs; its belief about player 0 is the original prior. Solved
    with the two-player machinery, the embedding reproduces the
    single-player gains bitwise, and the payoffs except on ``clamped``
    reports, whose capped free rows it pays at the penalty minimum.
    """
    if game.utility.kind != "additive_separable":
        raise ValueError("only additive games embed into the two-player model")
    n, m = game.n, game.m
    v0 = np.ascontiguousarray(game.utility.v, dtype=np.float64).reshape(n, 1, m, 1)
    player0 = PlayerSpec(
        types=game.types,
        actions=game.actions,
        beliefs=np.ones((n, 1)),
        v=v0,
        penalties=game.utility.penalties,
    )
    player1 = PlayerSpec(
        types=TypeSpace.plain(("*",)),
        actions=ActionSpace.plain(("*",)),
        beliefs=game.prior.p.reshape(1, n).copy(),
        v=np.zeros((1, n, 1, m)),
        penalties=(PenaltySpec.zero(),),
    )
    return TwoPlayerPerceptionGame(
        players=(player0, player1),
        allow_discontinuous=game.allow_discontinuous,
        name=f"embedded:{game.name}" if game.name else "embedded",
    )
