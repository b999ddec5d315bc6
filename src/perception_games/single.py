"""Single-player solver: verification, enumeration, pooling, legislation.

The central objects are a strategy (one mixed action per type) and a
perception map (the belief each type expects observers to form after
each action). A pair is an equilibrium when perceptions are Bayes
consistent on path and no type gains from a pure deviation.

Enumeration works in "exists a perception" semantics: on-path beliefs
are pinned to Bayes posteriors, off-path beliefs are chosen freely per
type and action, favorably for actions the type plays and adversely
for deviations. Off-path rows use the exact utility ranges from the
model layer, so acceptance decisions carry no grid error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import decode_profiles, pack_game, sweep_profile_gains
from .model import PerceptionGame, PrivacyReport, classify_privacy
from .simplex import WEAK_TOL, Belief, SimplexGrid, distributions, tv_distance

__all__ = [
    "Strategy",
    "PerceptionMap",
    "action_mass",
    "ConsistencyResult",
    "is_consistent",
    "expected_utility",
    "VerificationResult",
    "verify_equilibrium",
    "EquilibriumReport",
    "profile_report",
    "enumerate_pure_equilibria",
    "MixedSearchResult",
    "search_mixed_equilibria",
    "classify_pure_profile",
    "PoolingReport",
    "pooling_check",
    "LegislationReport",
    "legislation_welfare",
]


class Strategy:
    """Per-type mixed action, stored as an (n, m) row-stochastic array."""

    __slots__ = ("sigma", "action_labels", "type_labels")

    def __init__(self, game: PerceptionGame, sigma: np.ndarray):
        self.sigma = distributions(sigma, (game.n, game.m), "strategy")
        self.action_labels = game.actions.labels
        self.type_labels = game.types.labels

    @classmethod
    def pure(cls, game: PerceptionGame, actions: Sequence[int | str]) -> "Strategy":
        if len(actions) != game.n:
            raise ValueError(f"need one action per type ({game.n})")
        arr = np.zeros((game.n, game.m))
        for t, a in enumerate(actions):
            ai = game.actions.index(a) if isinstance(a, str) else int(a)
            if not 0 <= ai < game.m:
                raise ValueError(f"action {a!r} is not in range({game.m})")
            arr[t, ai] = 1.0
        return cls(game, arr)

    @property
    def is_pure(self) -> bool:
        return bool(((self.sigma == 0.0) | (self.sigma == 1.0)).all())

    def support(self, t: int) -> list[int]:
        return [a for a in range(self.sigma.shape[1]) if self.sigma[t, a] > 0.0]

    def pure_actions(self) -> tuple[int, ...] | None:
        if not self.is_pure:
            return None
        return tuple(int(np.argmax(self.sigma[t])) for t in range(self.sigma.shape[0]))

    def describe(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for t, tl in enumerate(self.type_labels):
            out[tl] = {
                self.action_labels[a]: float(self.sigma[t, a])
                for a in range(len(self.action_labels))
                if self.sigma[t, a] > 0.0
            }
        return out

    def __repr__(self) -> str:
        return f"Strategy({self.describe()!r})"


class PerceptionMap:
    """Belief over types expected after each (type, action) pair."""

    __slots__ = ("tau", "type_labels", "action_labels")

    def __init__(self, game: PerceptionGame, tau: np.ndarray):
        self.tau = distributions(tau, (game.n, game.m, game.n), "perception map")
        self.type_labels = game.types.labels
        self.action_labels = game.actions.labels

    @classmethod
    def constant(cls, game: PerceptionGame, belief: Belief) -> "PerceptionMap":
        arr = np.tile(np.asarray(belief), (game.n, game.m, 1))
        return cls(game, arr)

    def belief(self, t: int, a: int) -> Belief:
        return Belief(self.tau[t, a])

    def __repr__(self) -> str:
        return f"PerceptionMap(shape={self.tau.shape})"


def action_mass(game: PerceptionGame, sigma: np.ndarray) -> np.ndarray:
    """Total prior mass reaching each action under ``sigma``."""
    pa = np.zeros(game.m)
    for t in range(game.n):
        pa = pa + game.prior.p[t] * sigma[t]
    return pa


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    violations: tuple[tuple[str, str, float], ...]  # (type, action, tv error)


def is_consistent(
    game: PerceptionGame,
    strategy: Strategy,
    perceptions: PerceptionMap,
    tol: float = WEAK_TOL,
) -> ConsistencyResult:
    """On-path perceptions must equal the Bayes posterior for every type."""
    sigma = strategy.sigma
    pa = action_mass(game, sigma)
    violations: list[tuple[str, str, float]] = []
    for a in range(game.m):
        if pa[a] <= 0.0:
            continue
        post = game.prior.p * sigma[:, a] / pa[a]
        for t in range(game.n):
            err = tv_distance(perceptions.tau[t, a], post)
            if err > tol:
                violations.append(
                    (game.types.labels[t], game.actions.labels[a], float(err))
                )
    return ConsistencyResult(consistent=not violations, violations=tuple(violations))


def expected_utility(
    game: PerceptionGame, t: int, strategy: Strategy, perceptions: PerceptionMap
) -> float:
    acc = 0.0
    for a in range(game.m):
        if strategy.sigma[t, a] > 0.0:
            acc += strategy.sigma[t, a] * game.u(t, a, perceptions.tau[t, a])
    return acc


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking a concrete (strategy, perception) pair."""

    accepted: bool
    consistent: bool
    violations: tuple[tuple[str, str, float], ...]
    payoffs: np.ndarray
    gains: np.ndarray
    max_gain: float
    worst_type: str | None
    worst_action: str | None
    eps: float
    tol: float


def verify_equilibrium(
    game: PerceptionGame,
    strategy: Strategy,
    perceptions: PerceptionMap,
    tol: float = WEAK_TOL,
    eps: float = 0.0,
) -> VerificationResult:
    """Accept when the pair is consistent and every type's best pure
    deviation gains at most ``eps`` (plus ``tol`` float slack)."""
    cons = is_consistent(game, strategy, perceptions, tol)
    payoffs = np.empty(game.n)
    gains = np.empty(game.n)
    worst_t = worst_a = None
    worst_gain = -np.inf
    for t in range(game.n):
        played = expected_utility(game, t, strategy, perceptions)
        payoffs[t] = played
        best = -np.inf
        best_a = 0
        for a in range(game.m):
            val = game.u(t, a, perceptions.tau[t, a])
            if val > best:
                best, best_a = val, a
        gains[t] = best - played
        if gains[t] > worst_gain:
            worst_gain = gains[t]
            worst_t, worst_a = t, best_a
    accepted = bool(cons.consistent and worst_gain <= eps + tol)
    return VerificationResult(
        accepted=accepted,
        consistent=cons.consistent,
        violations=cons.violations,
        payoffs=payoffs,
        gains=gains,
        max_gain=float(worst_gain),
        worst_type=game.types.labels[worst_t] if worst_t is not None else None,
        worst_action=game.actions.labels[worst_a] if worst_a is not None else None,
        eps=eps,
        tol=tol,
    )


@dataclass(frozen=True)
class EquilibriumReport:
    """An accepted profile with its witness perceptions and payoffs."""

    strategy: Strategy
    perceptions: PerceptionMap
    payoffs: np.ndarray
    gains: np.ndarray
    max_gain: float
    label: str
    clamped: bool  # a zero-prior type's off-path support row hit its cap


def classify_pure_profile(game: PerceptionGame, actions: tuple[int, ...]) -> str:
    if len(set(actions)) == 1:
        return f"pool:{game.actions.labels[actions[0]]}"
    if game.types.factored:
        by_outcome: dict[str, set[int]] = {}
        for t, a in enumerate(actions):
            by_outcome.setdefault(game.types.outcome_of(game.types.labels[t]), set()).add(a)
        if all(len(s) == 1 for s in by_outcome.values()):
            chosen = [next(iter(s)) for s in by_outcome.values()]
            if len(set(chosen)) == len(chosen):
                return "separating"
        return "other"
    if len(set(actions)) == len(actions):
        return "separating"
    return "other"


def profile_report(
    game: PerceptionGame, sigma: np.ndarray, tol: float = WEAK_TOL
) -> EquilibriumReport:
    """Evaluate a strategy under the most favorable perception choice.

    On-path rows are pinned to posteriors. Off-path deviation rows take
    the utility minimum (a deterring belief exists exactly when even
    that keeps the gain at zero). Off-path rows inside a zero-prior
    type's support are raised as far as helps, capped at the type's
    best other row; the cap keeps the accept decision exact.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    n, m = game.n, game.m
    pa = action_mass(game, sigma)
    posts: list[np.ndarray | None] = []
    for a in range(m):
        if pa[a] > 0.0:
            posts.append(game.prior.p * sigma[:, a] / pa[a])
        else:
            posts.append(None)
    rows = np.empty((n, m))
    tau = np.empty((n, m, n))
    free = np.zeros((n, m), dtype=bool)
    for a in range(m):
        if posts[a] is not None:
            for t in range(n):
                rows[t, a] = game.u(t, a, posts[a])
                tau[t, a] = posts[a]
        else:
            for t in range(n):
                if sigma[t, a] > 0.0:
                    free[t, a] = True
                else:
                    r = game.u_range(t, a)
                    rows[t, a] = r.min
                    tau[t, a] = r.argmin.p
    clamped = False
    for t in range(n):
        frees = np.flatnonzero(free[t])
        if frees.size:
            others = np.flatnonzero(~free[t])
            m0 = rows[t, others].max() if others.size else -np.inf
            cap = m0
            for a in frees:
                cap = max(cap, game.u_range(t, a).min)
            for a in frees:
                r = game.u_range(t, a)
                rows[t, a] = min(r.max, cap)
                tau[t, a] = r.argmax.p
                if r.max > cap:
                    clamped = True
    gains = np.empty(n)
    payoffs = np.empty(n)
    for t in range(n):
        played = 0.0
        for a in range(m):
            played += sigma[t, a] * rows[t, a]
        payoffs[t] = played
        gains[t] = rows[t].max() - played
    strategy = Strategy(game, sigma)
    pure = strategy.pure_actions()
    label = classify_pure_profile(game, pure) if pure is not None else "mixed"
    return EquilibriumReport(
        strategy=strategy,
        perceptions=PerceptionMap(game, tau),
        payoffs=payoffs,
        gains=gains,
        max_gain=float(gains.max()),
        label=label,
        clamped=clamped,
    )


def _sweep(
    game: PerceptionGame,
    pts: np.ndarray,
    idx: np.ndarray,
    tol: float,
    max_survivors: int | None = None,
) -> tuple[np.ndarray, list[EquilibriumReport]]:
    """Max deviation gain of each profile ``idx`` over the grid ``pts``
    (the kernel's screen), and the reports of the first ``max_survivors``
    profiles whose gain is at most ``tol``, kept when the exact report
    confirms it."""
    gains = sweep_profile_gains(pack_game(game), pts, idx)
    screened = decode_profiles(pts, idx[gains <= tol][:max_survivors], game.n)
    rebuilt = (profile_report(game, sigma, tol) for sigma in screened)
    return gains, [rep for rep in rebuilt if rep.max_gain <= tol]


def enumerate_pure_equilibria(
    game: PerceptionGame,
    tol: float = WEAK_TOL,
    max_profiles: int = 1_000_000,
) -> list[EquilibriumReport]:
    """All pure type-contingent profiles completable into an equilibrium.

    Profiles are scanned in lexicographic order with type 0 the most
    significant position.
    """
    return _sweep(game, np.eye(game.m), _pure_codes(game, max_profiles), tol)[1]


def _pure_codes(game: PerceptionGame, max_profiles: int = 1_000_000) -> np.ndarray:
    """Codes of all ``m**n`` pure profiles, checked against ``max_profiles``
    before anything is allocated."""
    total = game.m ** game.n
    if total > max_profiles:
        raise ValueError(f"{total} pure profiles exceed max_profiles={max_profiles}")
    return np.arange(total, dtype=np.int64)


@dataclass(frozen=True)
class MixedSearchResult:
    """Grid sweep over mixed profiles; survivors have gain <= tol."""

    step: float
    resolution: int
    total: int
    swept: int
    subsampled: bool
    min_max_gain: float
    argmin: Strategy
    survivors: tuple[EquilibriumReport, ...]
    survivor_count: int
    truncated: bool


def search_mixed_equilibria(
    game: PerceptionGame,
    step: float = 0.05,
    tol: float = WEAK_TOL,
    seed: int | None = None,
    max_profiles: int = 2_000_000,
    max_survivors: int = 10_000,
) -> MixedSearchResult:
    """Sweep the product of per-type simplex grids with mesh ``step``.

    When the grid has more than ``max_profiles`` profiles, a seeded
    uniform subsample of that size is swept instead (the only use the
    seed has); a per-type grid with more than ``max_profiles`` points
    is rejected before it is built. ``survivor_count`` counts screened
    profiles; the reported survivors are rebuilt and confirmed in exact
    Python semantics, so kernel rounding never decides membership.
    """
    # a NaN, infinite, nonpositive or subnormal step leaves resolution 0
    inverse = 1.0 / step if 0.0 < step < np.inf else 0.0
    resolution = round(inverse) if np.isfinite(inverse) else 0
    if abs(step * resolution - 1.0) > 1e-9 or resolution < 1:
        raise ValueError(f"step must be the reciprocal of a positive integer, got {step!r}")
    grid = SimplexGrid(game.m, resolution)
    G = len(grid)
    if G > max_profiles:
        raise ValueError(
            f"the step-{step!r} grid has {G} points per type, more than "
            f"max_profiles={max_profiles}"
        )
    pts = grid.points()
    total = G ** game.n
    if total > max_profiles:
        rng = np.random.default_rng(seed)
        if total > np.iinfo(np.int64).max:
            raise ValueError(f"profile grid of size {total} cannot be indexed")
        idx = rng.integers(0, total, size=max_profiles, dtype=np.int64)
        subsampled = True
    else:
        idx = np.arange(total, dtype=np.int64)
        subsampled = False
    gains, survivors = _sweep(game, pts, idx, tol, max_survivors)
    best = int(np.argmin(gains))
    screened = int(np.count_nonzero(gains <= tol))
    argmin_sigma = decode_profiles(pts, idx[best], game.n)
    return MixedSearchResult(
        step=step,
        resolution=resolution,
        total=total,
        swept=int(idx.size),
        subsampled=subsampled,
        min_max_gain=float(gains[best]),
        argmin=Strategy(game, argmin_sigma),
        survivors=tuple(survivors),
        survivor_count=screened,
        truncated=screened > max_survivors,
    )


@dataclass(frozen=True)
class PoolingReport:
    """Existence of a full-pooling equilibrium via exact range tests.

    ``mode`` "upper" compares each action's best-case utility against
    rivals' worst cases; "lower" compares utility at the prior against
    rivals' utility at full self-exposure. The pooled profile exists
    exactly when some action lies in every type's set. The witness is
    cross-verified with the definitional checker.
    """

    mode: str
    exists: bool
    actions: tuple[str, ...]
    sets: dict[str, tuple[str, ...]]
    privacy: PrivacyReport
    witness_action: str | None
    witness: tuple[Strategy, PerceptionMap] | None
    witness_verified: bool | None


def pooling_check(
    game: PerceptionGame, mode: str, tol: float = WEAK_TOL
) -> PoolingReport:
    if mode not in ("upper", "lower"):
        raise ValueError(f"mode must be 'upper' or 'lower', got {mode!r}")
    privacy = classify_privacy(game, mode, tol)
    sets: dict[str, tuple[str, ...]] = {}
    common: set[int] | None = None
    for t in range(game.n):
        members: list[int] = []
        for a in range(game.m):
            ok = True
            for a2 in range(game.m):
                if mode == "upper":
                    lhs = game.u_range(t, a).max
                    rhs = game.u_range(t, a2).min
                else:
                    lhs = game.u(t, a, game.prior.p)
                    rhs = game.u(t, a2, game.chi(t).p)
                if lhs < rhs - tol:
                    ok = False
                    break
            if ok:
                members.append(a)
        sets[game.types.labels[t]] = tuple(game.actions.labels[a] for a in members)
        common = set(members) if common is None else (common & set(members))
    shared = sorted(common) if common else []
    exists = bool(shared)
    witness = None
    witness_action = None
    verified = None
    if exists:
        a_star = shared[0]
        witness_action = game.actions.labels[a_star]
        sigma = np.zeros((game.n, game.m))
        sigma[:, a_star] = 1.0
        tau = np.empty((game.n, game.m, game.n))
        for t in range(game.n):
            for a in range(game.m):
                if a == a_star:
                    tau[t, a] = game.prior.p
                elif mode == "upper":
                    tau[t, a] = game.u_range(t, a).argmin.p
                else:
                    tau[t, a] = game.chi(t).p
        strategy = Strategy(game, sigma)
        perceptions = PerceptionMap(game, tau)
        witness = (strategy, perceptions)
        verified = verify_equilibrium(game, strategy, perceptions, tol).accepted
    return PoolingReport(
        mode=mode,
        exists=exists,
        actions=tuple(game.actions.labels[a] for a in shared),
        sets=sets,
        privacy=privacy,
        witness_action=witness_action,
        witness=witness,
        witness_verified=verified,
    )


@dataclass(frozen=True)
class LegislationReport:
    """Payoffs when actions are unobserved and perceptions stay at the
    prior: each type simply picks its best action against the prior."""

    payoffs: np.ndarray
    best_actions: tuple[tuple[str, ...], ...]
    chosen: tuple[str, ...]
    total: float


def legislation_welfare(game: PerceptionGame, tol: float = WEAK_TOL) -> LegislationReport:
    payoffs = np.empty(game.n)
    best_actions: list[tuple[str, ...]] = []
    chosen: list[str] = []
    for t in range(game.n):
        vals = np.array([game.u(t, a, game.prior.p) for a in range(game.m)])
        best = float(vals.max())
        payoffs[t] = best
        ties = tuple(
            game.actions.labels[a] for a in range(game.m) if vals[a] >= best - tol
        )
        best_actions.append(ties)
        chosen.append(ties[0])
    total = float((game.prior.p * payoffs).sum())
    return LegislationReport(
        payoffs=payoffs,
        best_actions=tuple(best_actions),
        chosen=tuple(chosen),
        total=total,
    )
