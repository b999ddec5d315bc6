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

Inputs are checked once, where they enter: a strategy or perception map
by its public constructor, ``profile_report``'s ``sigma`` so too. What
the solvers build from checked inputs (decoded grid rows, perceptions,
witnesses) goes through the private builder ``_Built._built`` unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .kernels import (
    CellCodes,
    CodeDraws,
    CodeRange,
    GamePack,
    _raise_free_rows,
    _utility_rows,
    decode_profiles,
    pack_game,
    reduce_profile_gains,
    screen_profiles,
    sweep_profile_gains,
)
from .model import ActionSpace, PerceptionGame, PrivacyReport, classify_privacy
from .simplex import WEAK_TOL, Belief, SimplexGrid, _check_tol, _stored, consistency_errors, distributions

__all__ = [
    "Strategy",
    "PerceptionMap",
    "ConsistencyResult",
    "is_consistent",
    "payoff_and_gain",
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


def _pure_rows(space: ActionSpace, actions, n: int, who: str = "") -> np.ndarray:
    """``np.eye(m)[rows]``: the pure profile of both game kinds that plays
    ``actions[t]`` (a label or an integer index, not a bool) at type ``t``.
    Errors start with ``who``, a player's name and a space, when given."""
    if len(actions) != n:
        raise ValueError(f"{who}needs one action per type ({n})" if who else f"need one action per type ({n})")
    rows = [space.index(a) if isinstance(a, str) else _cap(a, f"{who}action") for a in actions]
    for a, row in zip(actions, rows):
        if not 0 <= row < space.m:
            raise ValueError(f"{who}action {a!r} is not in range({space.m})")
    return np.eye(space.m)[rows]


def _pure_actions(sigma: np.ndarray) -> tuple[int, ...] | None:
    """Each type's action under the strategy rows ``sigma``, or None
    unless every entry is 0 or 1 (a mixed profile)."""
    if not ((sigma == 0.0) | (sigma == 1.0)).all():
        return None
    return tuple(np.argmax(sigma, axis=1).tolist())


class _Built:
    """Base of the result classes. A public constructor is
    ``simplex.distributions`` (a checked copy) and then ``_fill``, which
    checks the shape only and keeps the rows read-only; ``_built`` is
    ``_fill`` alone, for rows built from checked inputs."""

    __slots__ = ()

    @classmethod
    def _built(cls, game, rows):
        out = object.__new__(cls)
        out._fill(game, rows)
        return out


class Strategy(_Built):
    """Per-type mixed action, stored as an (n, m) row-stochastic array."""

    __slots__ = ("sigma", "action_labels", "type_labels")

    def __init__(self, game: PerceptionGame, sigma: np.ndarray):
        self._fill(game, distributions(sigma, (game.n, game.m), "strategy"))

    def _fill(self, game: PerceptionGame, sigma: np.ndarray) -> None:
        self.sigma = _stored(sigma, (game.n, game.m), "strategy")
        self.action_labels = game.actions.labels
        self.type_labels = game.types.labels

    @classmethod
    def pure(cls, game: PerceptionGame, actions: Sequence[int | str]) -> "Strategy":
        return cls._built(game, _pure_rows(game.actions, actions, game.n))

    @property
    def is_pure(self) -> bool:
        return self.pure_actions() is not None

    def support(self, t: int) -> list[int]:
        return [a for a in range(self.sigma.shape[1]) if self.sigma[t, a] > 0.0]

    def pure_actions(self) -> tuple[int, ...] | None:
        return _pure_actions(self.sigma)

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


class PerceptionMap(_Built):
    """Belief over types expected after each (type, action) pair."""

    __slots__ = ("tau", "type_labels", "action_labels")

    def __init__(self, game: PerceptionGame, tau: np.ndarray):
        self._fill(game, distributions(tau, (game.n, game.m, game.n), "perception map"))

    def _fill(self, game: PerceptionGame, tau: np.ndarray) -> None:
        self.tau = _stored(tau, (game.n, game.m, game.n), "perception map")
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
    """On-path perceptions must equal the Bayes posterior for every type.
    A NaN ``tol`` is rejected before any work."""
    _check_tol(tol)
    violations = tuple(
        (game.types.labels[t], game.actions.labels[a], err)
        for t, a, err in consistency_errors(game.prior.p, strategy.sigma, perceptions.tau, tol)
    )
    return ConsistencyResult(consistent=not violations, violations=violations)


def payoff_and_gain(sigma, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's payoff under its mixed action, its best pure deviation
    gain and its first best action, given each action's value: actions on
    the last axis of ``sigma`` and ``values``, whose leading axes (types,
    profiles, ...) broadcast and index the results. One row gives NumPy
    scalars.

    The payoff sums ``sigma[..., a] * values[..., a]`` over every action in
    ascending order from 0.0, the order the sweep kernel folds in, so a
    pure row's payoff is its action's value bit for bit (a sum from 0.0
    is never -0.0), and the gain is the first best value less the payoff.
    This is the one fold of every exact evaluator of both game kinds, each
    calling it once per result.
    """
    sigma, values = np.asarray(sigma, dtype=np.float64), np.asarray(values, dtype=np.float64)
    payoff = 0.0
    for a in range(values.shape[-1]):
        payoff = payoff + sigma[..., a] * values[..., a]
    best = np.argmax(values, axis=-1)
    # a flat gather: np.take_along_axis takes about 4 us more on small rows
    top = values.reshape(-1, values.shape[-1])[np.arange(best.size), best.reshape(-1)]
    return payoff, top.reshape(best.shape) - payoff, best


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking a concrete (strategy, perception) pair."""

    accepted: bool
    consistent: bool
    violations: tuple[tuple[str, str, float], ...]
    payoffs: np.ndarray
    gains: np.ndarray
    max_gain: float
    worst_type: str
    worst_action: str
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
    deviation gains at most ``eps`` (plus ``tol`` float slack). A NaN
    ``tol`` or ``eps`` is rejected before any work."""
    _check_tol(eps, name="eps")
    cons = is_consistent(game, strategy, perceptions, tol)
    values = [[game.u(t, a, perceptions.tau[t, a]) for a in range(game.m)] for t in range(game.n)]
    payoffs, gains, best = payoff_and_gain(strategy.sigma, values)
    worst = int(np.argmax(gains))
    max_gain = float(gains[worst])
    return VerificationResult(
        accepted=bool(cons.consistent and max_gain <= eps + tol),
        consistent=cons.consistent,
        violations=cons.violations,
        payoffs=payoffs,
        gains=gains,
        max_gain=max_gain,
        worst_type=game.types.labels[worst],
        worst_action=game.actions.labels[best[worst]],
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
    clamped: bool  # a type's free off-path support row hit its cap


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


def profile_report(game: PerceptionGame, sigma: np.ndarray) -> EquilibriumReport:
    """Evaluate a strategy under the most favorable perception choice.

    On-path rows are pinned to posteriors. Off-path rows start at the
    utility minimum (a deterring belief exists exactly when even that keeps
    the gain at zero); those a type plays, where its prior mass rounds to 0,
    are then raised as far as helps, capped at the type's best other row
    (``kernels._raise_free_rows``); the cap keeps the accept decision exact.

    ``sigma`` is checked first, and the checked rows (entries in
    ``[-SUM_TOL, 0)`` as 0.0) are evaluated and reported: the one-profile
    case of ``_profile_reports``."""
    return _profile_reports(game, Strategy(game, sigma).sigma[None])[0]


def _profile_reports(game: PerceptionGame, sigmas: np.ndarray) -> list[EquilibriumReport]:
    """``profile_report`` of each checked strategy of the stack ``sigmas``
    ``(B, n, m)``, from one batched body: the pack's rows, one fill per
    type with free rows and one fold, and each report's perceptions built
    in its own turn, off path the pack's ``argmax`` at a free row, else its
    ``argmin``. An empty stack returns ``[]`` before any work."""
    if not len(sigmas):
        return []
    pack = pack_game(game)
    sig = sigmas.transpose(1, 2, 0)  # (n, m, B)
    on, posts, rows = _utility_rows(sig, pack)  # (m, B), (n, m, B), (n, m, B)
    rows = np.where(on, rows, pack.u_min[:, :, None])
    free = ~on & (sig > 0.0)
    for t in np.flatnonzero(free.any(axis=(1, 2))):
        rows[t] = _raise_free_rows(rows[t], sig[t], on, pack.u_max[t])
    clamped = (free & (rows < pack.u_max[:, :, None])).any(axis=(0, 1))
    payoffs, gains, _ = payoff_and_gain(sigmas, rows.transpose(2, 0, 1))
    # each report's on, posteriors and free rows as (1, m, 1), (1, m, n) and (n, m, 1)
    on, posts, free = on.T[:, None, :, None], posts.transpose(2, 1, 0)[:, None], free.transpose(2, 0, 1)[..., None]
    return [
        EquilibriumReport(
            strategy=Strategy._built(game, sigma),
            perceptions=PerceptionMap._built(
                game, np.where(on[k], posts[k], np.where(free[k], pack.argmax, pack.argmin))
            ),
            payoffs=payoffs[k],
            gains=gains[k],
            max_gain=float(gains[k].max()),
            label="mixed" if (pure := _pure_actions(sigma)) is None else classify_pure_profile(game, pure),
            clamped=bool(clamped[k]),
        )
        for k, sigma in enumerate(sigmas)
    ]


class _Swept(NamedTuple):
    """What a search keeps of a sweep: the least gain and the lowest code
    with it in sweep order (-1 when nothing was swept), how many gains
    are at most the tolerance, and the confirmed survivors."""

    least: float
    code: int
    count: int
    survivors: list[EquilibriumReport]


def _rebuilt(
    game: PerceptionGame,
    pts: np.ndarray,
    found: tuple[float, int, np.ndarray],
    tol: float,
    max_survivors: int | None = None,
) -> _Swept:
    """What a search keeps of the reduced sweep ``found`` over the grid
    ``pts``: the exact reports of the first ``max_survivors`` codes within
    ``tol`` (one oracle stack, or none), kept when they confirm it."""
    least, code, within = found
    kept = within[:max_survivors]
    rebuilt = _profile_reports(game, decode_profiles(pts, kept, game.n)) if kept.size else []
    return _Swept(least, code, within.size, [rep for rep in rebuilt if rep.max_gain <= tol])


def enumerate_pure_equilibria(
    game: PerceptionGame,
    tol: float = WEAK_TOL,
    max_profiles: int = 1_000_000,
) -> list[EquilibriumReport]:
    """All pure type-contingent profiles completable into an equilibrium.

    Profiles are scanned in lexicographic order with type 0 the most
    significant position. A NaN ``tol`` is rejected before any work.
    This is the one-game case of ``_pure_enumerations``.
    """
    return _pure_enumerations([game], tol, max_profiles)[0].survivors


def _pure_enumerations(
    games: Sequence[PerceptionGame],
    tol: float = WEAK_TOL,
    max_profiles: int = 1_000_000,
) -> list[_Swept]:
    """The pure sweep of each of ``games``, whose survivors are its
    ``enumerate_pure_equilibria``, with every argument checked before any
    work: one ``reduce_profile_gains`` call per action count on every
    game's pure profiles, which sweeps a template and the games derived
    from it together, each game with its own results."""
    _check_tol(tol)
    sources = [_pure_codes(game, max_profiles) for game in games]
    packs = [pack_game(game) for game in games]
    found: list = [None] * len(games)
    for m, members in _by_actions(games).items():
        pts = np.eye(m)
        swept = reduce_profile_gains([packs[i] for i in members], pts, [sources[i] for i in members], tol)
        for i, triple in zip(members, swept):
            found[i] = _rebuilt(games[i], pts, triple, tol)
    return found


def _by_actions(games: Sequence[PerceptionGame]) -> dict[int, list[int]]:
    """The indices of ``games`` by action count, so by grid, in order of
    first game."""
    members: dict[int, list[int]] = {}
    for i, game in enumerate(games):
        members.setdefault(game.m, []).append(i)
    return members


def _pure_codes(game: PerceptionGame, max_profiles: int = 1_000_000) -> CodeRange:
    """The codes of all ``m**n`` pure profiles, as a range the kernel reads
    a chunk at a time (no array as long as the sweep), checked against
    ``max_profiles`` before any work."""
    total = game.m ** game.n
    if total > _cap(max_profiles, "max_profiles"):
        raise ValueError(f"{total} pure profiles exceed max_profiles={max_profiles}")
    return CodeRange(0, total)


def _step_resolution(step: float) -> int:
    """The grid resolution ``1 / step``, checked before any work: a
    ``ValueError`` unless ``step`` is the reciprocal of a positive integer."""
    # a NaN, infinite, nonpositive or subnormal step leaves resolution 0
    inverse = 1.0 / step if 0.0 < step < np.inf else 0.0
    resolution = round(inverse) if np.isfinite(inverse) else 0
    if abs(step * resolution - 1.0) > 1e-9 or resolution < 1:
        raise ValueError(f"step must be the reciprocal of a positive integer, got {step!r}")
    return resolution


def _cap(value, name: str) -> int:
    """The cap or action index ``value`` as an int; a ``ValueError`` naming
    ``name`` unless it is an integer (a float, NaN included, or a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_seed(seed) -> None:
    """A ``ValueError`` unless ``seed`` is None or a nonnegative integer."""
    if seed is not None and _cap(seed, "seed") < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")


@dataclass(frozen=True)
class MixedSearchResult:
    """Grid sweep over mixed profiles; survivors have gain <= tol.

    ``swept`` counts the profiles decided, by the cell bound or by the
    kernel; ``evaluated`` the profile codes that entered the kernel,
    which is ``swept`` unless the cell screen pruned some. Most of them
    leave the kernel after its first type or few, once their gain so far
    exceeds both the tolerance and the least gain found before them."""

    step: float
    resolution: int
    total: int
    swept: int
    evaluated: int
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
    seed has). The subsample draws codes with replacement, so a profile
    can be swept more than once and ``swept`` counts draws, not
    distinct profiles. A per-type grid with more than ``max_profiles``
    points is rejected before it is built, and a grid of more profiles
    than an int64 code can index before any game is packed.

    The whole grid of an additive game is screened first: the kernel
    evaluates only the profiles in cells whose certified lower bound on
    the gain (``kernels.screen_profiles``) is at most ``tol``, so
    ``evaluated`` can be far below ``swept``; a tabulated game's grid
    and a subsample go to the kernel whole. The screen changes no
    result: the survivors, their count, ``min_max_gain`` and the
    argmin (the lowest code with the least gain) are those of the whole
    sweep. ``survivor_count`` counts screened profiles; the reported
    survivors are the first ``max_survivors`` of them in code order (in
    draw order for a subsample), rebuilt in one stack by the exact
    oracle, whose reports are ``profile_report``'s, so kernel rounding
    never decides membership; at ``max_survivors=0`` none is rebuilt. A
    NaN ``tol``, a negative ``max_survivors`` or ``seed``, and a cap or
    ``seed`` that is not an integer, is rejected before any work.

    The kernel reduces as it sweeps (``kernels.reduce_profile_gains``):
    it keeps the least gain with its first code and the codes within
    ``tol``, and stops on a profile as soon as its gain over the types
    evaluated so far is above both ``tol`` and the least gain of the
    chunks before it. The kernel reads its codes a chunk at a time, from
    a range for a whole flat grid, from the generator for a subsample
    (the same codes as one draw of them all) and from the kept cells for
    the screen, so no array as long as the sweep is built, and the
    results are those of the full gains bit for bit. The game is packed
    once, and a grid's cell tree is built once.

    This is the one-game case of ``_mixed_searches``, which hands every
    game's pack and code source to one screen and one kernel call; the
    kernel shares them among a template and the games derived from it,
    each with this call's results."""
    return _mixed_searches([game], step, tol, seed, max_profiles, max_survivors)[0]


def _mixed_searches(
    games: Sequence[PerceptionGame],
    step: float = 0.05,
    tol: float = WEAK_TOL,
    seed: int | None = None,
    max_profiles: int = 2_000_000,
    max_survivors: int = 10_000,
) -> list[MixedSearchResult]:
    """``search_mixed_equilibria`` of each of ``games``, field by field,
    with every argument checked before any work.

    A grid of more than int64 max profiles is rejected, whole or
    subsampled: its codes cannot be indexed. Per action count (so per
    grid), each game gets one code source: a subsample's draws (each from
    its own generator seeded with ``seed``), a tabulated game's whole
    grid, or the kept leaves of an additive game's cell screen. One
    ``screen_profiles`` call screens the additive grids and one
    ``reduce_profile_gains`` call sweeps every source; the kernel shares
    both among a template and the games derived from it
    (``PerceptionGame._with_prior``), each keeping its own results. The
    survivors are rebuilt (``_rebuilt``), and a screened game that keeps
    none gets a second screen of its own (``_screened_sweep``)."""
    _check_tol(tol)
    max_profiles = _cap(max_profiles, "max_profiles")
    max_survivors = _cap(max_survivors, "max_survivors")
    if max_survivors < 0:
        raise ValueError(f"max_survivors must be nonnegative, got {max_survivors!r}")
    _check_seed(seed)
    resolution = _step_resolution(step)
    by_actions = _by_actions(games)
    grids: dict[int, np.ndarray] = {}
    for m in by_actions:
        grid = SimplexGrid(m, resolution)
        if grid.size > max_profiles:
            raise ValueError(
                f"the step-{step!r} grid has {grid.size} points per type, more than "
                f"max_profiles={max_profiles}"
            )
        grids[m] = grid.points()
    totals = [len(grids[game.m]) ** game.n for game in games]
    for total in totals:
        if total > np.iinfo(np.int64).max:
            raise ValueError(f"profile grid of size {total} cannot be indexed")
    packs = [pack_game(game) for game in games]
    results: list = [None] * len(games)
    for m, members in by_actions.items():
        pts = grids[m]
        whole = [i for i in members if totals[i] <= max_profiles and packs[i].values is None]
        screens = dict(zip(whole, screen_profiles([packs[i] for i in whole], pts, tol)))
        sources = [
            CodeDraws(np.random.default_rng(seed), totals[i], max_profiles) if totals[i] > max_profiles
            else screens[i][0] if i in screens
            else CodeRange(0, totals[i])
            for i in members
        ]
        found = reduce_profile_gains([packs[i] for i in members], pts, sources, tol)
        for i, source, triple in zip(members, sources, found):
            game, total = games[i], totals[i]
            swept, evaluated = _rebuilt(game, pts, triple, tol, max_survivors), source.size
            if i in screens:
                swept, evaluated = _screened_sweep(packs[i], pts, tol, screens[i], swept)
            results[i] = MixedSearchResult(
                step=step,
                resolution=resolution,
                total=total,
                swept=min(total, max_profiles),
                evaluated=evaluated,
                subsampled=total > max_profiles,
                min_max_gain=swept.least,
                argmin=Strategy._built(game, decode_profiles(pts, swept.code, game.n)),
                survivors=tuple(swept.survivors),
                survivor_count=swept.count,
                truncated=swept.count > max_survivors,
            )
    return results


def _screened_sweep(
    pack: GamePack,
    pts: np.ndarray,
    tol: float,
    screen: tuple[CellCodes, int],
    swept: _Swept,
) -> tuple[_Swept, int]:
    """The whole sweep of the grid ``pts`` of an additive game from the
    sweep ``swept`` (rebuilt by ``_rebuilt``) of the profiles its cell
    screen at ``tol`` kept (``screen``, the kept leaves and the seed of
    ``screen_profiles``), and how many codes the kernel evaluated.

    A pruned profile's gain is above ``tol``, so the survivors and their
    count are the whole sweep's, and so are the least gain and its
    lowest code whenever a profile survives. When none does, the least
    gain may lie in a pruned cell: a second screen at the least gain
    found so far (or at the gain of the lowest code of the cell with the
    least bound, when every cell was pruned) keeps every cell that can
    hold a profile as good, and the kernel evaluates the profiles of the
    cells it adds. The two sweeps combine by gain, then by lowest code.

    Both screens' kept cells stream through the kernel (``CellCodes``).
    The second keeps every leaf of the first, since a higher limit
    prunes no cell the first kept and cells split the same way at any
    limit, so its added profiles are those of its other leaves. When the
    first kept nothing, the seed lies in a leaf of the second (a cell's
    bound is at most the seed's gain): it is evaluated there again and
    counted once."""
    kept, seed = screen
    if seed < 0 or swept.count:
        return swept, kept.size
    if not kept.size:
        gain = sweep_profile_gains(pack, pts, np.array([seed], dtype=np.int64))[0]
        swept = swept._replace(least=float(gain), code=seed)
    more = screen_profiles([pack], pts, swept.least)[0][0].without(kept)
    least, code, _ = reduce_profile_gains([pack], pts, [more], tol)[0]
    if code >= 0 and (least, code) < (swept.least, swept.code):
        swept = swept._replace(least=least, code=code)
    return swept, kept.size + more.size


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
    """The ``PoolingReport`` of ``game`` in ``mode``. Upper mode reads each
    range once, from the game's pack. The witness pools on the first
    shared action, perceived at the prior on path and off path at a
    deterring belief: the pack's ``argmin``, or in lower mode ``chi``."""
    if mode not in ("upper", "lower"):
        raise ValueError(f"mode must be 'upper' or 'lower', got {mode!r}")
    privacy = classify_privacy(game, mode, tol)
    pack = pack_game(game)
    sets: dict[str, tuple[str, ...]] = {}
    shared = set(range(game.m))
    for t in range(game.n):
        if mode == "upper":
            own, rival = pack.u_max[t], pack.u_min[t].max()
        else:
            own = [game.u(t, a, game.prior.p) for a in range(game.m)]
            rival = max(game.u(t, a, game.chi(t).p) for a in range(game.m))
        # a member's own case is below no rival's by more than tol
        members = [a for a in range(game.m) if not own[a] < rival - tol]
        sets[game.types.labels[t]] = tuple(game.actions.labels[a] for a in members)
        shared &= set(members)
    shared = sorted(shared)
    exists = bool(shared)
    witness = witness_action = verified = None
    if exists:
        a_star = shared[0]
        witness_action = game.actions.labels[a_star]
        sigma = np.zeros((game.n, game.m))
        sigma[:, a_star] = 1.0
        deter = pack.argmin if mode == "upper" else np.eye(game.n)[:, None]
        tau = np.where((np.arange(game.m) == a_star)[:, None], game.prior.p, deter)
        witness = (Strategy._built(game, sigma), PerceptionMap._built(game, tau))
        verified = verify_equilibrium(game, *witness, tol).accepted
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
    """Each type's best actions at the prior, those within ``tol`` of the
    best; a NaN or negative ``tol`` keeps none, and raises ``ValueError``."""
    _check_tol(tol, nonnegative=True)
    payoffs = np.empty(game.n)
    best_actions: list[tuple[str, ...]] = []
    for t in range(game.n):
        vals = np.array([game.u(t, a, game.prior.p) for a in range(game.m)])
        best = float(vals.max())
        payoffs[t] = best
        ties = tuple(
            game.actions.labels[a] for a in range(game.m) if vals[a] >= best - tol
        )
        best_actions.append(ties)
    total = float((game.prior.p * payoffs).sum())
    return LegislationReport(
        payoffs=payoffs,
        best_actions=tuple(best_actions),
        chosen=tuple(ties[0] for ties in best_actions),
        total=total,
    )
