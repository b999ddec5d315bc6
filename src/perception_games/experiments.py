"""Structured game families and the analyses built on top of them.

The separable family factors types into an outcome component (which
alone determines action values) and a privacy component (which alone
determines the penalty, taken over the outcome marginal of the
posterior). Under a margin condition on action values, the profile
where every type plays its outcome's best action is an equilibrium
that fully reveals the outcome component.

The majority family specializes this to two outcomes and two privacy
attitudes, indexed by the mass ``alpha`` of privacy-indifferent types;
scanning ``alpha`` locates where separation becomes the unique pure
equilibrium and compares against the analytic sufficiency bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .kernels import decode_profiles
from .model import (
    ActionSpace,
    PerceptionGame,
    TwoPlayerPerceptionGame,
    TypeSpace,
    UtilityModel,
)
from .penalties import PenaltySpec, bind, penalty_value, validate_spec
from .simplex import WEAK_TOL, Belief, _check_tol, posterior
from .single import (
    EquilibriumReport,
    LegislationReport,
    MixedSearchResult,
    PerceptionMap,
    Strategy,
    _check_seed,
    _mixed_searches,
    _pure_enumerations,
    _step_resolution,
    enumerate_pure_equilibria,
    legislation_welfare,
    search_mixed_equilibria,  # unused here; perfbench/spans.py wraps this name
)
from .two_player import enumerate_pure_bne, enumerate_pure_equilibria_2p

__all__ = [
    "SeparableGameSpec",
    "MarginReport",
    "check_separation_margin",
    "build_separating_equilibrium",
    "separation_uniqueness_bound",
    "MajorityFamily",
    "default_majority_family",
    "AlphaRow",
    "AlphaScanReport",
    "scan_alpha",
    "WelfareReport",
    "welfare_report",
    "TwoPlayerWelfareReport",
    "welfare_report_2p",
    "NonexistenceReport",
    "counterexample_check",
]


@dataclass(frozen=True)
class SeparableGameSpec:
    """Factored game description: types are (outcome, privacy) pairs.

    ``v_outcome`` rows give action values per outcome (privacy does not
    move them); ``penalty_by_privacy`` gives one penalty per privacy
    label, with ``marginal_over`` written in outcome labels. The joint
    prior is an (outcomes, privacy) matrix; zero-mass cells are dropped
    when the game is built, so index factors stay honest about which
    types exist.
    """

    outcomes: tuple[str, ...]
    privacy: tuple[str, ...]
    actions: tuple[str, ...]
    joint_prior: np.ndarray
    v_outcome: np.ndarray
    penalty_by_privacy: Mapping[str, PenaltySpec]
    name: str = ""

    def outcome_action(self, o: int) -> int:
        return int(np.argmax(self.v_outcome[o]))

    def _cells(self) -> list[tuple[int, int]]:
        """The (outcome, privacy) index pairs of the cells with mass, in
        type order: the one place that decides which types the spec has."""
        rows = self.joint_prior.tolist()
        return [(o, p) for o, row in enumerate(rows) for p, mass in enumerate(row) if mass > 0.0]

    def validate_structure(self) -> None:
        for kind, labels in (("outcome", self.outcomes), ("privacy", self.privacy), ("action", self.actions)):
            for label in labels:
                if not label or labels.count(label) > 1:
                    raise ValueError(f"{kind} label {label!r} must be nonempty and unique")
                # a type label is "outcome:privacy", read up to its first colon
                if kind == "outcome" and ":" in label:
                    raise ValueError(f"outcome label {label!r} must not hold ':'")
        n_o, n_p, m = len(self.outcomes), len(self.privacy), len(self.actions)
        if self.joint_prior.shape != (n_o, n_p):
            raise ValueError(f"joint_prior must have shape {(n_o, n_p)}")
        jp = self.joint_prior  # no tolerance below 0: to_game drops only exact zeros
        if not np.isfinite(jp).all() or jp.min() < 0 or abs(float(jp.sum()) - 1.0) > WEAK_TOL:
            raise ValueError("joint_prior must be a probability matrix")
        if self.v_outcome.shape != (n_o, m):
            raise ValueError(f"v_outcome must have shape {(n_o, m)}")
        if not np.isfinite(self.v_outcome).all():
            raise ValueError("v_outcome entries must be finite")
        assigned = []
        for o in range(n_o):
            row = self.v_outcome[o]
            top = self.outcome_action(o)
            if (row >= row[top]).sum() > 1:
                raise ValueError(
                    f"outcome {self.outcomes[o]!r} needs a strictly best action"
                )
            assigned.append(top)
        chosen = [assigned[o] for o in sorted({o for o, _ in self._cells()})]
        if len(set(chosen)) != len(chosen):
            raise ValueError("outcomes with mass must map to distinct best actions")
        for p in self.privacy:
            if p not in self.penalty_by_privacy:
                raise ValueError(f"missing penalty for privacy label {p!r}")
            spec = self.penalty_by_privacy[p]
            if spec.kind not in ("zero", "piecewise_linear_marginal", "step_marginal"):
                raise ValueError(
                    "separable specs need outcome-measurable penalties "
                    f"(zero or marginal kinds), got {spec.kind!r} for {p!r}"
                )
            errs = validate_spec(spec)
            if errs:
                raise ValueError(f"penalty for privacy label {p!r}: {'; '.join(errs)}")
            if spec.marginal_over is not None:
                for label in spec.marginal_over:
                    if label not in self.outcomes:
                        raise ValueError(
                            f"penalty event label {label!r} is not an outcome"
                        )

    def to_game(self) -> PerceptionGame:
        """Materialize the product game, one type per cell with mass."""
        self.validate_structure()
        return self._game()

    def _game(self) -> PerceptionGame:
        """``to_game`` of a spec that passed ``validate_structure``."""
        cells = self._cells()
        labels = tuple(f"{self.outcomes[o]}:{self.privacy[p]}" for o, p in cells)
        expanded: list[PenaltySpec] = []
        for o, p in cells:
            spec = self.penalty_by_privacy[self.privacy[p]]
            if spec.marginal_over is None:
                expanded.append(spec)
                continue
            event = tuple(
                label for label, (o2, _) in zip(labels, cells) if self.outcomes[o2] in spec.marginal_over
            )
            if not event:
                raise ValueError(
                    f"penalty event {spec.marginal_over!r} only covers "
                    "zero-mass outcomes"
                )
            expanded.append(replace(spec, marginal_over=event))
        utility = UtilityModel(
            kind="additive_separable",
            v=np.array([self.v_outcome[o] for o, _ in cells], dtype=np.float64),
            penalties=tuple(expanded),
        )
        return PerceptionGame(
            types=TypeSpace(labels=labels, outcome_labels=self.outcomes, privacy_labels=self.privacy),
            actions=ActionSpace.plain(self.actions),
            prior=self._prior(cells),
            utility=utility,
            allow_discontinuous=any(not s.is_continuous for s in expanded),
            name=self.name,
        )

    def _prior(self, cells: Sequence[tuple[int, int]]) -> Belief:
        """The prior of the game over ``cells`` (``_cells()``), each type's
        mass as ``joint_prior`` holds it."""
        return Belief(np.array([float(self.joint_prior[cell]) for cell in cells]))


def _dirac_marginal_penalty(spec: PenaltySpec, outcome: str) -> float:
    """Penalty at a posterior concentrated on one outcome."""
    if spec.kind == "zero":
        return 0.0
    x = 1.0 if (spec.marginal_over and outcome in spec.marginal_over) else 0.0
    # two-type stand-in whose first type is the event, at the right event mass
    mu = np.array([x, 1.0 - x])
    pen = bind(replace(spec, marginal_over=("in",)), ("in", "out"), mu, 0)
    return penalty_value(pen, mu)


@dataclass(frozen=True)
class MarginReport:
    """Action-value margins against worst-case penalty spreads.

    One row per (outcome pair, privacy class) with positive mass:
    ``margin = v(o, a_o) - v(o, a_o') - (w_p(reveal o) - w_p(reveal o'))``.
    The separating construction is an equilibrium whenever every margin
    is strictly positive.
    """

    holds: bool
    margin: float
    rows: tuple[tuple[str, str, str, float], ...]  # (outcome, other, privacy, margin)


def check_separation_margin(spec: SeparableGameSpec, tol: float = 0.0) -> MarginReport:
    """The margin rows of ``spec``; ``holds`` when there are rows and
    every margin is above ``tol``. A NaN ``tol`` is rejected before any
    work."""
    _check_tol(tol)
    spec.validate_structure()
    return _margin_report(spec, tol)


def _margin_report(spec: SeparableGameSpec, tol: float) -> MarginReport:
    """``check_separation_margin`` of a spec that passed
    ``validate_structure``. The rows read the joint prior only through
    which cells have mass."""
    rows: list[tuple[str, str, str, float]] = []
    worst = np.inf
    cells = spec._cells()
    live_outcomes = sorted({o for o, _ in cells})
    # the Dirac penalty of each live class at each live outcome, which
    # are the pairs the rows read when there are any rows
    dirac = {}
    if len(live_outcomes) > 1:
        for p in {p for _, p in cells}:
            pen = spec.penalty_by_privacy[spec.privacy[p]]
            for o in live_outcomes:
                dirac[o, p] = _dirac_marginal_penalty(pen, spec.outcomes[o])
    for o in live_outcomes:
        a_o = spec.outcome_action(o)
        for o2 in live_outcomes:
            if o2 == o:
                continue
            a_o2 = spec.outcome_action(o2)
            gap_v = float(spec.v_outcome[o, a_o] - spec.v_outcome[o, a_o2])
            for p in (p for o3, p in cells if o3 == o):
                margin = gap_v - (dirac[o, p] - dirac[o2, p])
                rows.append((spec.outcomes[o], spec.outcomes[o2], spec.privacy[p], margin))
                worst = min(worst, margin)
    holds = bool(rows) and bool(worst > tol)
    return MarginReport(holds=holds, margin=float(worst), rows=tuple(rows))


def build_separating_equilibrium(
    spec: SeparableGameSpec,
) -> tuple[PerceptionGame, Strategy, PerceptionMap]:
    """The profile where each type plays its outcome's best action.

    On-path perceptions are the prior conditioned on the outcome group
    that plays the action; unused actions are deterred by full
    self-exposure.
    """
    game = spec.to_game()
    n, m = game.n, game.m
    sigma = np.eye(m)[[spec.outcome_action(o) for o, _ in spec._cells()]]
    tau = np.empty((n, m, n))
    for a in range(m):
        post = posterior(game.prior.p, sigma[:, a])
        for t in range(n):
            tau[t, a] = game.chi(t).p if post is None else post
    return game, Strategy._built(game, sigma), PerceptionMap._built(game, tau)


def separation_uniqueness_bound(spec: SeparableGameSpec) -> float:
    """``max_a (1 - P(types assigned to a))`` over the used actions.

    Above this threshold on the minimal assigned-group mass deficit,
    separation is the unique pure equilibrium (sufficient, not
    necessary).
    """
    spec.validate_structure()
    # the outcomes with mass have distinct best actions, so each used
    # action's group is one outcome's types
    return max(1.0 - float(spec.joint_prior[o].sum()) for o in {o for o, _ in spec._cells()})


class MajorityFamily:
    """One-parameter family: ``alpha`` is the privacy-indifferent mass.

    Outcomes keep a fixed marginal; the privacy marginal interpolates
    between all-concerned (alpha 0) and all-indifferent (alpha 1),
    independent of the outcome. SeparableGameSpec.to_game drops
    zero-mass types, so the endpoints are clean smaller games.
    """

    def __init__(
        self,
        outcomes: Sequence[str] = ("o0", "o1"),
        outcome_prior: Sequence[float] = (0.5, 0.5),
        actions: Sequence[str] = ("a0", "a1"),
        v_outcome: np.ndarray | None = None,
        concerned_penalty: PenaltySpec | None = None,
        name: str = "majority",
    ):
        self.outcomes = tuple(outcomes)
        self.outcome_prior = np.array(outcome_prior, dtype=np.float64)
        self.actions = tuple(actions)
        self.v_outcome = (
            np.eye(len(self.outcomes), len(self.actions))
            if v_outcome is None
            else np.array(v_outcome, dtype=np.float64)
        )
        self.concerned_penalty = concerned_penalty or PenaltySpec.piecewise_linear(
            knots=((0.0, 1.5), (0.5, 0.0), (1.0, 1.5)),
            over=(self.outcomes[0],),
        )
        self.name = name

    def spec_for(self, alpha: float) -> SeparableGameSpec:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
        joint = np.outer(self.outcome_prior, np.array([1.0 - alpha, alpha]))
        return SeparableGameSpec(
            outcomes=self.outcomes,
            privacy=("concerned", "indifferent"),
            actions=self.actions,
            joint_prior=joint,
            v_outcome=self.v_outcome,
            penalty_by_privacy={
                "concerned": self.concerned_penalty,
                "indifferent": PenaltySpec.zero(),
            },
            name=f"{self.name}(alpha={alpha:g})",
        )

    def game_for(self, alpha: float) -> PerceptionGame:
        return self.spec_for(alpha).to_game()


def default_majority_family() -> MajorityFamily:
    return MajorityFamily()


@dataclass(frozen=True)
class AlphaRow:
    alpha: float
    n_equilibria: int
    labels: tuple[str, ...]
    separating_present: bool
    separation_unique: bool
    margin_ok: bool
    mixed_survivors: int | None
    payoffs: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class AlphaScanReport:
    """Equilibrium census along the ``alpha`` grid.

    ``alpha_hat`` is the smallest grid point from which separation
    stays the unique pure equilibrium for every later grid point.
    ``bound`` is the analytic sufficiency threshold; every grid alpha
    strictly above it must land in the unique-separation regime, and
    ``bound_violations`` lists any that do not.
    """

    rows: tuple[AlphaRow, ...]
    alpha_hat: float | None
    bound: float
    bound_violations: tuple[float, ...]
    monotonicity_violations: tuple[float, ...]


def scan_alpha(
    family: MajorityFamily,
    alphas: Sequence[float],
    tol: float = WEAK_TOL,
    mixed_step: float | None = None,
    seed: int | None = None,
) -> AlphaScanReport:
    """One row per alpha of ``alphas``, which must be nonempty and
    ascending (ties allowed): ``alpha_hat`` and the monotonicity check
    read the rows in that order. Raises ValueError otherwise, or for a
    NaN ``tol``, a ``seed`` the search rejects or a ``mixed_step`` that is
    no reciprocal of a positive integer, before any game is built (for a
    step whose grid exceeds the search's cap, once they are built).

    With ``mixed_step``, a row's ``mixed_survivors`` is the mixed
    search's ``survivor_count``: the profiles the kernel screens within
    ``tol``, whose gains are the exact oracle's bit for bit.

    Every spec is checked once (``validate_structure``) before any game
    is built. The specs differ in their joint prior alone, so those with
    mass in the same cells (the inner alphas; each endpoint, whose
    zero-mass types are dropped) share one margin check, whose rows read
    the prior only through those cells, and one template: the first one's
    game, of which each other one's game is ``_with_prior``, sharing its
    pack. The pure enumerations and mixed searches run in one
    ``_pure_enumerations`` and one ``_mixed_searches`` call, the searches
    with ``max_survivors=0``, so no survivor report is built. A template
    and its derived games share one cell screen, each keeping the cells
    of its own search, and the kernel sweeps them together, a few calls
    for all the pure profiles and a few for all the kept cells, each game
    keeping its own results."""
    _check_tol(tol)
    _check_seed(seed)
    if mixed_step is not None:
        _step_resolution(mixed_step)
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alphas must not be empty")
    for a, b in zip(alphas, alphas[1:]):
        # NaN fails this comparison too
        if not a <= b:
            raise ValueError(f"alphas must be ascending, got {b!r} after {a!r}")
    specs = [family.spec_for(alpha) for alpha in alphas]
    for spec in specs:
        spec.validate_structure()
    # the specs differ in their joint prior alone: those with mass in the
    # same cells share one margin check, and the first one's game is the
    # template of the others
    templates: dict[tuple, tuple[PerceptionGame, bool]] = {}
    games, margins = [], []
    for spec in specs:
        cells = tuple(spec._cells())
        if cells in templates:
            games.append(templates[cells][0]._with_prior(spec._prior(cells), spec.name))
        else:
            games.append(spec._game())
            templates[cells] = games[-1], _margin_report(spec, 0.0).holds
        margins.append(templates[cells][1])
    searches = [None] * len(games)
    if mixed_step is not None:
        searches = _mixed_searches(games, mixed_step, tol, seed, max_survivors=0)
    pures = [swept.survivors for swept in _pure_enumerations(games, tol)]
    bound = separation_uniqueness_bound(specs[0])
    rows: list[AlphaRow] = []
    for alpha, holds, found, search in zip(alphas, margins, pures, searches):
        separating = [r for r in found if r.label == "separating"]
        rows.append(
            AlphaRow(
                alpha=alpha,
                n_equilibria=len(found),
                labels=tuple(r.label for r in found),
                separating_present=bool(separating),
                separation_unique=len(found) == 1 and bool(separating),
                margin_ok=holds,
                mixed_survivors=None if search is None else search.survivor_count,
                payoffs=tuple(tuple(float(x) for x in r.payoffs) for r in found),
            )
        )
    alpha_hat = None
    for r in reversed(rows):
        if not r.separation_unique:
            break
        alpha_hat = r.alpha
    bound_violations = tuple(
        r.alpha for r in rows if r.alpha > bound + 1e-12 and not r.separation_unique
    )
    first = next((k for k, r in enumerate(rows) if r.separation_unique), len(rows))
    mono = [r.alpha for r in rows[first:] if not r.separation_unique]
    return AlphaScanReport(
        rows=tuple(rows),
        alpha_hat=alpha_hat,
        bound=float(bound),
        bound_violations=bound_violations,
        monotonicity_violations=tuple(mono),
    )


@dataclass(frozen=True)
class WelfareReport:
    """Every enumerated equilibrium against the unobserved-action payoffs."""

    legislation: LegislationReport
    equilibria: tuple[EquilibriumReport, ...]
    deltas: tuple[tuple[float, ...], ...]  # legislation minus equilibrium, per type
    any_type_better_off: tuple[bool, ...]
    dominance: bool  # legislation weakly dominates every equilibrium for every type


def welfare_report(game: PerceptionGame, tol: float = WEAK_TOL) -> WelfareReport:
    legis = legislation_welfare(game, tol)
    found = enumerate_pure_equilibria(game, tol)
    deltas = []
    better = []
    for rep in found:
        d = tuple(float(legis.payoffs[t] - rep.payoffs[t]) for t in range(game.n))
        deltas.append(d)
        better.append(any(x < -tol for x in d))
    return WelfareReport(
        legislation=legis,
        equilibria=tuple(found),
        deltas=tuple(deltas),
        any_type_better_off=tuple(better),
        dominance=not any(better),
    )


@dataclass(frozen=True)
class TwoPlayerWelfareReport:
    """Perception equilibria against the belief-frozen baseline.

    The baseline is the pure best-reply set of the game with penalties
    pinned at the observer's prior (actions unobserved). Comparisons
    are made against the strict baseline profile when exactly one
    exists.
    """

    equilibria_payoffs: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    baseline_payoffs: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    baseline_strict: tuple[bool, ...]
    strict_baseline_index: int | None
    all_types_strictly_better: tuple[bool, ...] | None


def welfare_report_2p(
    game: TwoPlayerPerceptionGame, tol: float = WEAK_TOL
) -> TwoPlayerWelfareReport:
    eqs = enumerate_pure_equilibria_2p(game, tol)
    bne = enumerate_pure_bne(game, fold_prior_penalty=True, tol=tol)
    eq_pay, base_pay = (
        tuple(tuple(tuple(map(float, pay)) for pay in r.payoffs) for r in reps) for reps in (eqs, bne)
    )
    strict_flags = tuple(r.strict for r in bne)
    strict_idx = strict_flags.index(True) if sum(strict_flags) == 1 else None
    better = None
    if strict_idx is not None:
        ref = base_pay[strict_idx]
        better = tuple(
            all(pay[i][t] > ref[i][t] + tol for i in range(2) for t in range(len(ref[i]))) for pay in eq_pay
        )
    return TwoPlayerWelfareReport(
        equilibria_payoffs=eq_pay,
        baseline_payoffs=base_pay,
        baseline_strict=strict_flags,
        strict_baseline_index=strict_idx,
        all_types_strictly_better=better,
    )


@dataclass(frozen=True)
class NonexistenceReport:
    """Pure-profile and grid evidence about equilibrium nonexistence.

    ``pure_min_gain`` is exact: the smallest best-deviation gain over
    all pure profiles under favorable perceptions. The grid sweep
    reports the same minimum over the mixed grid; it can certify
    nonexistence only on the grid itself, and a grid profile with gain
    at most ``eps`` is a found ``eps``-equilibrium.
    """

    pure_min_gain: float
    pure_argmin: Strategy
    pure_equilibrium_exists: bool
    sweep: MixedSearchResult
    eps_equilibrium_found: dict[float, bool]
    eps_witness: dict[float, Strategy | None]


def counterexample_check(
    game: PerceptionGame,
    strategy_step: float = 0.05,
    epsilons: Iterable[float] = (0.1,),
    tol: float = WEAK_TOL,
    seed: int | None = None,
) -> NonexistenceReport:
    _check_tol(tol)
    _check_seed(seed)
    _step_resolution(strategy_step)
    # read once: a generator is used up by its first read
    epsilons = list(epsilons)
    # the rule of ``pgame --eps``; NaN fails the comparison too
    bad = [eps for eps in epsilons if not 0.0 <= eps < np.inf]
    if bad:
        raise ValueError(f"epsilons must be finite and nonnegative, got {bad!r}")
    if game.continuous:
        raise ValueError(
            "nonexistence analysis targets games with discontinuous penalties; "
            "continuous games always admit equilibria in principle and the "
            "pure and grid sweeps below would not be informative"
        )
    pure = _pure_enumerations([game], tol)[0]
    sweep = _mixed_searches([game], strategy_step, tol, seed)[0]
    found: dict[float, bool] = {}
    witness: dict[float, Strategy | None] = {}
    for eps in epsilons:
        # min_max_gain is the kernel's gain, equal bitwise to
        # profile_report(...).max_gain, so this test is exact
        hit = sweep.min_max_gain <= eps
        found[float(eps)] = bool(hit)
        witness[float(eps)] = sweep.argmin if hit else None
    return NonexistenceReport(
        pure_min_gain=pure.least,
        pure_argmin=Strategy._built(game, decode_profiles(np.eye(game.m), pure.code, game.n)),
        pure_equilibrium_exists=bool(pure.survivors),
        sweep=sweep,
        eps_equilibrium_found=found,
        eps_witness=witness,
    )
