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

One evaluator, ``_action_values``, values a type's actions for
verification and for the per-pair report ``_pure_pair_report``; the
single-player ``payoff_and_gain`` turns those values into the type's
payoff and deviation gain. Pure enumeration is one batched screen:
``_penalty_table`` takes every observer's posteriors after every own
profile from ``simplex._posteriors`` (the batched ``posterior`` the
sweep kernel uses) and their penalties from ``penalty_batch``, and
``_pure_values`` values every type's actions against every opponent
profile in the same order and so to the same bits, which gives every
pair's maximum gain (``_pure_pair_gains``) and, for the belief-free
base game, every weak and strict best reply at once. Only the pairs
the screen keeps get a ``_pure_pair_report``, which confirms them, so
games near the 10^6-pair cap enumerate in seconds.

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
from .penalties import PenaltySpec, penalty_batch
# module attributes that perfbench's tracer wraps to count penalty calls
from .penalties import penalty_range, penalty_value  # noqa: F401
from .simplex import WEAK_TOL, _posteriors, consistency_errors, distributions, posterior
from .single import payoff_and_gain

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


class TwoPlayerStrategy:
    """Pair of row-stochastic arrays, one row per own type."""

    __slots__ = ("sigmas",)

    def __init__(self, game: TwoPlayerPerceptionGame, sigmas) -> None:
        self.sigmas = tuple(
            distributions(sigmas[i], (ps.types.n, ps.actions.m), f"player {i} strategy")
            for i, ps in enumerate(game.players)
        )

    @classmethod
    def pure(cls, game: TwoPlayerPerceptionGame, actions) -> "TwoPlayerStrategy":
        sigmas = []
        for i, ps in enumerate(game.players):
            if len(actions[i]) != ps.types.n:
                raise ValueError(f"player {i} needs one action per type ({ps.types.n})")
            arr = np.zeros((ps.types.n, ps.actions.m))
            for t, a in enumerate(actions[i]):
                ai = ps.actions.index(a) if isinstance(a, str) else int(a)
                if not 0 <= ai < ps.actions.m:
                    raise ValueError(f"player {i} action {a!r} is not in range({ps.actions.m})")
                arr[t, ai] = 1.0
            sigmas.append(arr)
        return cls(game, sigmas)

    def pure_actions(self) -> tuple[tuple[int, ...], ...] | None:
        out = []
        for arr in self.sigmas:
            if not (((arr == 0.0) | (arr == 1.0)).all()):
                return None
            out.append(tuple(int(np.argmax(arr[t])) for t in range(arr.shape[0])))
        return tuple(out)


class TwoPlayerPerceptions:
    """Pair of arrays tau_i[own type, observer type, own action, own type']."""

    __slots__ = ("taus",)

    def __init__(self, game: TwoPlayerPerceptionGame, taus) -> None:
        self.taus = tuple(
            distributions(
                taus[i],
                (ps.types.n, game.players[1 - i].types.n, ps.actions.m, ps.types.n),
                f"player {i} perceptions",
            )
            for i, ps in enumerate(game.players)
        )


def _beliefs(game: TwoPlayerPerceptionGame) -> tuple[np.ndarray, np.ndarray]:
    """Both players' belief rows, checked as probability distributions."""
    return tuple(
        distributions(ps.beliefs, (ps.types.n, game.players[1 - i].types.n), f"player {i} beliefs")
        for i, ps in enumerate(game.players)
    )


def _action_values(v_t: np.ndarray, beliefs_t: np.ndarray, support, w_t: np.ndarray) -> np.ndarray:
    """Expected value of each own action for one type.

    ``v_t[t_opp, a, b]`` and ``beliefs_t`` are the type's slices of the
    player's values and belief rows; ``support[t_opp]`` lists that
    opponent type's ``(action, probability)`` pairs of positive
    probability; ``w_t[t_opp, a]`` is the penalty in observer ``t_opp``'s
    view after ``a``. Sums run in ascending index order, so every caller
    gets the same bits from the same inputs.
    """
    vals = np.empty(v_t.shape[1])
    for a in range(vals.size):
        acc = 0.0
        for t_opp, plays in enumerate(support):
            inner = 0.0
            for b, p in plays:
                inner = inner + p * v_t[t_opp, a, b]
            acc = acc + beliefs_t[t_opp] * (inner - w_t[t_opp, a])
        vals[a] = acc
    return vals


def _pure_profiles(
    game: TwoPlayerPerceptionGame, max_profiles: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each player's pure profiles as rows of action indices, one per
    own type, in lexicographic order; raises before anything is
    evaluated when the pairs exceed ``max_profiles``."""
    p0, p1 = game.players
    total = (p0.actions.m ** p0.types.n) * (p1.actions.m ** p1.types.n)
    if total > max_profiles:
        raise ValueError(f"{total} pure profile pairs exceed max_profiles={max_profiles}")
    return tuple(
        np.indices((ps.actions.m,) * ps.types.n).reshape(ps.types.n, -1).T for ps in game.players
    )


def _penalty_table(
    game: TwoPlayerPerceptionGame, i: int, beliefs: tuple[np.ndarray, np.ndarray], own: np.ndarray
) -> np.ndarray:
    """``w[t, t_obs, a, k]``: player ``i``'s penalty for type ``t`` in
    observer ``t_obs``'s view after ``a`` under the own pure profile
    ``own[k]``, as ``_pure_pair_report`` sets it: at the posterior on
    path, off path at the range minimum under the type's own action and
    the maximum for a deviation."""
    ps = game.players[i]
    n, m = ps.types.n, ps.actions.m
    col = (own.T[:, None, :] == np.arange(m)[:, None]).astype(np.float64)  # [s, a, k]
    w = np.empty((n, game.players[1 - i].types.n, m, own.shape[0]))
    for t_obs, prior in enumerate(beliefs[1 - i]):
        on, post = _posteriors(prior, col)
        for t in range(n):
            val = penalty_batch(game.penalty(i, t, t_obs), post)
            if not on.all():
                rng = game.penalty_range_of(i, t, t_obs)
                val = np.where(on, val, np.where(col[t] > 0.0, rng.min, rng.max))
            w[t, t_obs] = val
    return w


def _pure_values(ps: PlayerSpec, beliefs_i: np.ndarray, opp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``vals[t, a, k, j]``: ``_action_values`` of type ``t``'s action
    ``a`` against the opponent's pure profile ``opp[j]``, under the
    penalty table ``w[..., k]`` (indexed as ``_penalty_table``'s). The
    sums run in the same order, so the values have the same bits."""
    acc = np.zeros((ps.types.n, ps.actions.m, w.shape[3], opp.shape[0]))
    for t_opp in range(opp.shape[1]):
        # v[t, t_opp, a, opp[j, t_opp]], as the inner sum 0.0 + 1.0 * v
        inner = 0.0 + ps.v[:, t_opp][:, :, opp[:, t_opp]][:, :, None]
        acc = acc + beliefs_i[:, t_opp, None, None, None] * (inner - w[:, t_opp, :, :, None])
    return acc


# value-block size in elements: bounds each temporary of the screen to 4 MB
_BLOCK = 1 << 19


def _pure_pair_gains(
    game: TwoPlayerPerceptionGame,
    beliefs: tuple[np.ndarray, np.ndarray],
    profiles: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """``gain[k0, k1]``: the ``max_gain`` of ``_pure_pair_report`` for the
    pair ``(profiles[0][k0], profiles[1][k1])``, bit for bit, for every
    pair at once. Each player's gains are computed in blocks of own
    profiles against every opponent profile."""
    per_player = []
    for i, ps in enumerate(game.players):
        own, opp = profiles[i], profiles[1 - i]
        types = np.arange(ps.types.n)[:, None]
        gains = np.empty((own.shape[0], opp.shape[0]))
        size = max(1, _BLOCK // (opp.shape[0] * ps.types.n * ps.actions.m))
        for lo in range(0, own.shape[0], size):
            block = own[lo:lo + size]
            vals = _pure_values(ps, beliefs[i], opp, _penalty_table(game, i, beliefs, block))
            chosen = vals[types, block.T, np.arange(block.shape[0])]  # [t, k, j]
            # a type's gain is its best value less its own action's (payoff_and_gain)
            gains[lo:lo + size] = (vals.max(axis=1) - chosen).max(axis=0)
        per_player.append(gains)
    return np.maximum(per_player[0], per_player[1].T)


def is_consistent_2p(
    game: TwoPlayerPerceptionGame,
    strategy: TwoPlayerStrategy,
    perceptions: TwoPlayerPerceptions,
    tol: float = WEAK_TOL,
) -> tuple[bool, tuple[tuple[int, str, str, str, float], ...]]:
    """Violations are (player, own type, observer type, action, tv error)."""
    beliefs = _beliefs(game)
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
    deviation (with ``tol`` float slack)."""
    beliefs = _beliefs(game)
    consistent, violations = is_consistent_2p(game, strategy, perceptions, tol)
    payoffs = []
    gains = []
    moves = []  # (player, type, best action), in the order of the joined gains
    for i, ps in enumerate(game.players):
        support = [[(b, p) for b, p in enumerate(row) if p > 0.0] for row in strategy.sigmas[1 - i]]
        pay = np.empty(ps.types.n)
        gn = np.empty(ps.types.n)
        for t in range(ps.types.n):
            # penalty per (observer type, action) at the given perceptions
            w_t = np.array([[game.w(i, t, tau, t_obs) for tau in taus_obs]
                            for t_obs, taus_obs in enumerate(perceptions.taus[i][t])])
            vals = _action_values(ps.v[t], beliefs[i][t], support, w_t)
            pay[t], gn[t], best = payoff_and_gain(strategy.sigmas[i][t], vals)
            moves.append((i, ps.types.labels[t], ps.actions.labels[best]))
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
    ``_pure_pair_report`` builds and confirms the pairs within ``tol``.
    """
    beliefs = _beliefs(game)
    profiles = _pure_profiles(game, max_profiles)
    out: list[TwoPlayerEquilibriumReport] = []
    for k0, k1 in zip(*np.nonzero(_pure_pair_gains(game, beliefs, profiles) <= tol)):
        actions = (tuple(profiles[0][k0].tolist()), tuple(profiles[1][k1].tolist()))
        report = _pure_pair_report(game, actions, beliefs)
        if report.max_gain <= tol:
            out.append(report)
    return out


def _pure_pair_report(
    game: TwoPlayerPerceptionGame,
    actions: tuple[tuple[int, ...], tuple[int, ...]],
    beliefs: tuple[np.ndarray, np.ndarray],
) -> TwoPlayerEquilibriumReport:
    """The pure pair ``actions`` under its best perceptions, given the
    belief rows ``_beliefs(game)`` checked once per enumeration."""
    strategy = TwoPlayerStrategy.pure(game, actions)
    taus = []
    payoffs = []
    gains = []
    for i, ps in enumerate(game.players):
        other = game.players[1 - i]
        tau = np.empty((ps.types.n, other.types.n, ps.actions.m, ps.types.n))
        # penalty per (type, observer, action): posterior value on path,
        # range endpoints off path (favorable under own action, adverse
        # for deviations); witnesses fill the reported perceptions
        wvals = np.empty((ps.types.n, other.types.n, ps.actions.m))
        for t_obs in range(other.types.n):
            for a in range(ps.actions.m):
                post = posterior(beliefs[1 - i][t_obs], strategy.sigmas[i][:, a])
                for t in range(ps.types.n):
                    if post is not None:
                        tau[t, t_obs, a] = post
                        wvals[t, t_obs, a] = game.w(i, t, post, t_obs)
                    else:
                        rng = game.penalty_range_of(i, t, t_obs)
                        if actions[i][t] == a:
                            tau[t, t_obs, a] = rng.argmin.p
                            wvals[t, t_obs, a] = rng.min
                        else:
                            tau[t, t_obs, a] = rng.argmax.p
                            wvals[t, t_obs, a] = rng.max
        taus.append(tau)
        support = [((b, 1.0),) for b in actions[1 - i]]
        pay = np.empty(ps.types.n)
        gn = np.empty(ps.types.n)
        for t in range(ps.types.n):
            vals = _action_values(ps.v[t], beliefs[i][t], support, wvals[t])
            pay[t], gn[t], _ = payoff_and_gain(strategy.sigmas[i][t], vals)
        payoffs.append(pay)
        gains.append(gn)
    return TwoPlayerEquilibriumReport(
        strategy=strategy,
        perceptions=TwoPlayerPerceptions(game, taus),
        payoffs=(payoffs[0], payoffs[1]),
        gains=(gains[0], gains[1]),
        max_gain=float(max(gains[0].max(), gains[1].max())),
    )


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
    unique maximizer beyond ``tol``.
    """
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
        v = _pure_values(ps, beliefs[i], profiles[1 - i], w)[:, :, 0]  # [t, a, j]
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
