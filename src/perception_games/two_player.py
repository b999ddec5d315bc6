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

The penalty catalog's prior-distance kind measures distance to the
observer's prior belief about the player (the natural reference in a
subjective model); on singleton-opponent embeddings this reduces
bitwise to the single-player behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import (
    PerceptionGame,
    PlayerSpec,
    TwoPlayerPerceptionGame,
    TypeSpace,
    ActionSpace,
)
from .penalties import PenaltySpec
# module attributes that perfbench's tracer wraps to count penalty calls
from .penalties import penalty_range, penalty_value  # noqa: F401
from .simplex import WEAK_TOL, distributions, tv_distance

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
            arr = np.zeros((ps.types.n, ps.actions.m))
            for t, a in enumerate(actions[i]):
                ai = ps.actions.index(a) if isinstance(a, str) else int(a)
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


def _observer_posterior(
    game: TwoPlayerPerceptionGame, i: int, t_obs: int, a: int, sigma_i: np.ndarray
) -> np.ndarray | None:
    """Observer ``t_obs``'s Bayes update about player ``i`` after ``a``."""
    prior = game.players[1 - i].beliefs[t_obs]
    q = 0.0
    for t in range(prior.shape[0]):
        q = q + prior[t] * sigma_i[t, a]
    if q <= 0.0:
        return None
    return prior * sigma_i[:, a] / q


def is_consistent_2p(
    game: TwoPlayerPerceptionGame,
    strategy: TwoPlayerStrategy,
    perceptions: TwoPlayerPerceptions,
    tol: float = WEAK_TOL,
) -> tuple[bool, tuple[tuple[int, str, str, str, float], ...]]:
    """Violations are (player, own type, observer type, action, tv error)."""
    violations: list[tuple[int, str, str, str, float]] = []
    for i, ps in enumerate(game.players):
        other = game.players[1 - i]
        for t_obs in range(other.types.n):
            for a in range(ps.actions.m):
                post = _observer_posterior(game, i, t_obs, a, strategy.sigmas[i])
                if post is None:
                    continue
                for t in range(ps.types.n):
                    err = tv_distance(perceptions.taus[i][t, t_obs, a], post)
                    if err > tol:
                        violations.append(
                            (
                                i,
                                ps.types.labels[t],
                                other.types.labels[t_obs],
                                ps.actions.labels[a],
                                float(err),
                            )
                        )
    return (not violations, tuple(violations))


def _action_values(
    game: TwoPlayerPerceptionGame,
    i: int,
    t: int,
    sigma_opp: np.ndarray,
    tau_i: np.ndarray,
) -> np.ndarray:
    """Expected value of each own action for type ``t`` of player ``i``,
    under fixed perceptions ``tau_i[t_obs, a]`` (already sliced to ``t``)."""
    ps = game.players[i]
    other = game.players[1 - i]
    beliefs = ps.beliefs[t]
    vals = np.empty(ps.actions.m)
    for a in range(ps.actions.m):
        acc = 0.0
        for t_opp in range(other.types.n):
            inner = 0.0
            for b in range(other.actions.m):
                if sigma_opp[t_opp, b] > 0.0:
                    inner = inner + sigma_opp[t_opp, b] * ps.v[t, t_opp, a, b]
            term = inner - game.w(i, t, tau_i[t_opp, a], t_opp)
            acc = acc + beliefs[t_opp] * term
        vals[a] = acc
    return vals


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
    consistent, violations = is_consistent_2p(game, strategy, perceptions, tol)
    payoffs = []
    gains = []
    worst = None
    worst_gain = -np.inf
    for i, ps in enumerate(game.players):
        pay = np.empty(ps.types.n)
        gn = np.empty(ps.types.n)
        for t in range(ps.types.n):
            vals = _action_values(
                game, i, t, strategy.sigmas[1 - i], perceptions.taus[i][t]
            )
            played = 0.0
            for a in range(ps.actions.m):
                played = played + strategy.sigmas[i][t, a] * vals[a]
            pay[t] = played
            best_a = int(np.argmax(vals))
            gn[t] = vals[best_a] - played
            if gn[t] > worst_gain:
                worst_gain = gn[t]
                worst = (i, ps.types.labels[t], ps.actions.labels[best_a])
        payoffs.append(pay)
        gains.append(gn)
    accepted = bool(consistent and worst_gain <= eps + tol)
    return TwoPlayerVerification(
        accepted=accepted,
        consistent=consistent,
        violations=violations,
        payoffs=(payoffs[0], payoffs[1]),
        gains=(gains[0], gains[1]),
        max_gain=float(worst_gain),
        worst=worst,
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
    deviations.
    """
    p0, p1 = game.players
    total = (p0.actions.m ** p0.types.n) * (p1.actions.m ** p1.types.n)
    if total > max_profiles:
        raise ValueError(
            f"{total} pure profile pairs exceed max_profiles={max_profiles}"
        )
    out: list[TwoPlayerEquilibriumReport] = []
    for acts0 in product(range(p0.actions.m), repeat=p0.types.n):
        for acts1 in product(range(p1.actions.m), repeat=p1.types.n):
            report = _pure_pair_report(game, (acts0, acts1), tol)
            if report.max_gain <= tol:
                out.append(report)
    return out


def _pure_pair_report(
    game: TwoPlayerPerceptionGame,
    actions: tuple[tuple[int, ...], tuple[int, ...]],
    tol: float,
) -> TwoPlayerEquilibriumReport:
    strategy = TwoPlayerStrategy.pure(game, actions)
    taus = []
    payoffs = []
    gains = []
    worst = -np.inf
    for i, ps in enumerate(game.players):
        other = game.players[1 - i]
        tau = np.empty((ps.types.n, other.types.n, ps.actions.m, ps.types.n))
        # penalty per (type, observer, action): posterior value on path,
        # range endpoints off path (favorable under own action, adverse
        # for deviations); witnesses fill the reported perceptions
        wvals = np.empty((ps.types.n, other.types.n, ps.actions.m))
        for t_obs in range(other.types.n):
            for a in range(ps.actions.m):
                post = _observer_posterior(game, i, t_obs, a, strategy.sigmas[i])
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
        other_acts = actions[1 - i]
        pay = np.empty(ps.types.n)
        gn = np.empty(ps.types.n)
        for t in range(ps.types.n):
            vals = np.empty(ps.actions.m)
            for a in range(ps.actions.m):
                acc = 0.0
                for t_obs in range(other.types.n):
                    inner = 1.0 * ps.v[t, t_obs, a, other_acts[t_obs]]
                    acc = acc + ps.beliefs[t, t_obs] * (inner - wvals[t, t_obs, a])
                vals[a] = acc
            pay[t] = vals[actions[i][t]]
            gn[t] = float(vals.max()) - pay[t]
            worst = max(worst, gn[t])
        payoffs.append(pay)
        gains.append(gn)
    return TwoPlayerEquilibriumReport(
        strategy=strategy,
        perceptions=TwoPlayerPerceptions(game, taus),
        payoffs=(payoffs[0], payoffs[1]),
        gains=(gains[0], gains[1]),
        max_gain=float(worst),
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
    p0, p1 = game.players
    total = (p0.actions.m ** p0.types.n) * (p1.actions.m ** p1.types.n)
    if total > max_profiles:
        raise ValueError(f"{total} pure profile pairs exceed max_profiles={max_profiles}")
    folded = []
    for i, ps in enumerate(game.players):
        other = game.players[1 - i]
        base = np.array(ps.v, dtype=np.float64, copy=True)
        if fold_prior_penalty:
            for t in range(ps.types.n):
                for t_obs in range(other.types.n):
                    base[t, t_obs] -= game.w(i, t, other.beliefs[t_obs], t_obs)
        folded.append(base)
    out: list[PureBNEReport] = []
    for acts0 in product(range(p0.actions.m), repeat=p0.types.n):
        for acts1 in product(range(p1.actions.m), repeat=p1.types.n):
            acts = (acts0, acts1)
            ok = True
            strict = True
            payoffs = []
            for i, ps in enumerate(game.players):
                other_acts = acts[1 - i]
                pay = np.empty(ps.types.n)
                for t in range(ps.types.n):
                    vals = np.empty(ps.actions.m)
                    for a in range(ps.actions.m):
                        acc = 0.0
                        for t_obs in range(game.players[1 - i].types.n):
                            acc = acc + ps.beliefs[t, t_obs] * folded[i][
                                t, t_obs, a, other_acts[t_obs]
                            ]
                        vals[a] = acc
                    chosen = acts[i][t]
                    best = float(vals.max())
                    if vals[chosen] < best - tol:
                        ok = False
                        break
                    others = np.delete(vals, chosen)
                    if others.size and float(others.max()) >= vals[chosen] - tol:
                        strict = False
                    pay[t] = vals[chosen]
                if not ok:
                    break
                payoffs.append(pay)
            if ok:
                out.append(
                    PureBNEReport(
                        actions=acts,
                        action_labels=tuple(
                            tuple(game.players[i].actions.labels[a] for a in acts[i])
                            for i in range(2)
                        ),
                        payoffs=(payoffs[0], payoffs[1]),
                        strict=strict,
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
