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
from typing import Mapping, Sequence

import numpy as np

from .kernels import decode_profiles
from .model import (
    ActionSpace,
    PerceptionGame,
    TwoPlayerPerceptionGame,
    TypeSpace,
    UtilityModel,
)
from .penalties import PenaltySpec, bind, penalty_value
from .simplex import WEAK_TOL, Belief
from .single import (
    EquilibriumReport,
    LegislationReport,
    MixedSearchResult,
    PerceptionMap,
    Strategy,
    _pure_codes,
    _sweep,
    enumerate_pure_equilibria,
    legislation_welfare,
    search_mixed_equilibria,
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

    def validate_structure(self) -> None:
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
        live = [o for o in range(n_o) if float(self.joint_prior[o].sum()) > 0.0]
        chosen = [assigned[o] for o in live]
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
            if spec.marginal_over is not None:
                for label in spec.marginal_over:
                    if label not in self.outcomes:
                        raise ValueError(
                            f"penalty event label {label!r} is not an outcome"
                        )

    def to_game(self) -> PerceptionGame:
        """Materialize the product game, dropping zero-mass types."""
        self.validate_structure()
        labels: list[str] = []
        prior: list[float] = []
        pens: list[PenaltySpec] = []
        v_rows: list[np.ndarray] = []
        kept_outcomes: set[str] = set()
        for o, ol in enumerate(self.outcomes):
            for p, pl in enumerate(self.privacy):
                mass = float(self.joint_prior[o, p])
                if mass == 0.0:
                    continue
                labels.append(f"{ol}:{pl}")
                prior.append(mass)
                v_rows.append(self.v_outcome[o])
                kept_outcomes.add(ol)
                pens.append(self.penalty_by_privacy[pl])
        types = TypeSpace(
            labels=tuple(labels),
            outcome_labels=self.outcomes,
            privacy_labels=self.privacy,
        )
        expanded: list[PenaltySpec] = []
        for label, spec in zip(labels, pens):
            if spec.marginal_over is None:
                expanded.append(spec)
                continue
            event = tuple(
                lab for lab in labels if lab.split(":", 1)[0] in spec.marginal_over
            )
            if not event:
                raise ValueError(
                    f"penalty event {spec.marginal_over!r} only covers "
                    "zero-mass outcomes"
                )
            expanded.append(replace(spec, marginal_over=event))
        utility = UtilityModel(
            kind="additive_separable",
            v=np.array(v_rows, dtype=np.float64),
            penalties=tuple(expanded),
        )
        return PerceptionGame(
            types=types,
            actions=ActionSpace.plain(self.actions),
            prior=Belief(np.array(prior)),
            utility=utility,
            allow_discontinuous=any(not s.is_continuous for s in expanded),
            name=self.name,
        )


def _dirac_marginal_penalty(spec: PenaltySpec, outcome: str, outcomes) -> float:
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
    spec.validate_structure()
    rows: list[tuple[str, str, str, float]] = []
    worst = np.inf
    live_cells = {
        (o, p)
        for o in range(len(spec.outcomes))
        for p in range(len(spec.privacy))
        if float(spec.joint_prior[o, p]) > 0.0
    }
    live_outcomes = sorted({o for o, _ in live_cells})
    for o in live_outcomes:
        a_o = spec.outcome_action(o)
        for o2 in live_outcomes:
            if o2 == o:
                continue
            a_o2 = spec.outcome_action(o2)
            gap_v = float(spec.v_outcome[o, a_o] - spec.v_outcome[o, a_o2])
            for p in range(len(spec.privacy)):
                if (o, p) not in live_cells:
                    continue
                pen = spec.penalty_by_privacy[spec.privacy[p]]
                gap_w = _dirac_marginal_penalty(
                    pen, spec.outcomes[o], spec.outcomes
                ) - _dirac_marginal_penalty(pen, spec.outcomes[o2], spec.outcomes)
                margin = gap_v - gap_w
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
    action_of_type = np.empty(n, dtype=np.int64)
    outcome_of_type: list[str] = []
    for t, label in enumerate(game.types.labels):
        o_label = game.types.outcome_of(label)
        o = spec.outcomes.index(o_label)
        action_of_type[t] = spec.outcome_action(o)
        outcome_of_type.append(o_label)
    sigma = np.zeros((n, m))
    for t in range(n):
        sigma[t, action_of_type[t]] = 1.0
    used: dict[int, np.ndarray] = {}
    for a in sorted(set(int(x) for x in action_of_type)):
        members = np.array([action_of_type[t] == a for t in range(n)])
        mass = float(game.prior.p[members].sum())
        post = np.where(members, game.prior.p, 0.0)
        used[a] = post / mass
    tau = np.empty((n, m, n))
    for t in range(n):
        for a in range(m):
            if a in used:
                tau[t, a] = used[a]
            else:
                tau[t, a] = game.chi(t).p
    return game, Strategy(game, sigma), PerceptionMap(game, tau)


def separation_uniqueness_bound(spec: SeparableGameSpec) -> float:
    """``max_a (1 - P(types assigned to a))`` over the used actions.

    Above this threshold on the minimal assigned-group mass deficit,
    separation is the unique pure equilibrium (sufficient, not
    necessary).
    """
    spec.validate_structure()
    masses: dict[int, float] = {}
    for o in range(len(spec.outcomes)):
        mass = float(spec.joint_prior[o].sum())
        if mass > 0.0:
            a = spec.outcome_action(o)
            masses[a] = masses.get(a, 0.0) + mass
    return max(1.0 - m for m in masses.values())


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
    rows: list[AlphaRow] = []
    bound = None
    for alpha in alphas:
        spec = family.spec_for(float(alpha))
        game = spec.to_game()
        if bound is None:
            bound = separation_uniqueness_bound(spec)
        found = enumerate_pure_equilibria(game, tol)
        labels = tuple(r.label for r in found)
        separating = [r for r in found if r.label == "separating"]
        mixed_survivors = None
        if mixed_step is not None:
            sweep = search_mixed_equilibria(
                game, step=mixed_step, tol=tol, seed=seed
            )
            mixed_survivors = sweep.survivor_count
        rows.append(
            AlphaRow(
                alpha=float(alpha),
                n_equilibria=len(found),
                labels=labels,
                separating_present=bool(separating),
                separation_unique=len(found) == 1 and bool(separating),
                margin_ok=check_separation_margin(spec).holds,
                mixed_survivors=mixed_survivors,
                payoffs=tuple(tuple(float(x) for x in r.payoffs) for r in found),
            )
        )
    alpha_hat = None
    for i in range(len(rows) - 1, -1, -1):
        if rows[i].separation_unique:
            alpha_hat = rows[i].alpha
        else:
            break
    bound_violations = tuple(
        r.alpha for r in rows if r.alpha > bound + 1e-12 and not r.separation_unique
    )
    mono: list[float] = []
    seen_unique = False
    for r in rows:
        if r.separation_unique:
            seen_unique = True
        elif seen_unique:
            mono.append(r.alpha)
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
    eq_pay = tuple(
        (tuple(float(x) for x in r.payoffs[0]), tuple(float(x) for x in r.payoffs[1]))
        for r in eqs
    )
    base_pay = tuple(
        (tuple(float(x) for x in r.payoffs[0]), tuple(float(x) for x in r.payoffs[1]))
        for r in bne
    )
    strict_flags = tuple(r.strict for r in bne)
    strict_idx = None
    if sum(strict_flags) == 1:
        strict_idx = strict_flags.index(True)
    better = None
    if strict_idx is not None:
        ref = base_pay[strict_idx]
        flags = []
        for pay in eq_pay:
            ok = all(
                pay[i][t] > ref[i][t] + tol
                for i in range(2)
                for t in range(len(ref[i]))
            )
            flags.append(ok)
        better = tuple(flags)
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
    epsilons: Sequence[float] = (0.1,),
    tol: float = WEAK_TOL,
    seed: int | None = None,
) -> NonexistenceReport:
    if game.continuous:
        raise ValueError(
            "nonexistence analysis targets games with discontinuous penalties; "
            "continuous games always admit equilibria in principle and the "
            "pure and grid sweeps below would not be informative"
        )
    vertices = np.eye(game.m)
    gains, pure_eq = _sweep(game, vertices, _pure_codes(game), tol)
    best = int(np.argmin(gains))
    sweep = search_mixed_equilibria(game, step=strategy_step, tol=tol, seed=seed)
    found: dict[float, bool] = {}
    witness: dict[float, Strategy | None] = {}
    for eps in epsilons:
        # min_max_gain is the kernel's gain, equal bitwise to
        # profile_report(...).max_gain, so this test is exact
        hit = sweep.min_max_gain <= eps
        found[float(eps)] = bool(hit)
        witness[float(eps)] = sweep.argmin if hit else None
    return NonexistenceReport(
        pure_min_gain=float(gains[best]),
        pure_argmin=Strategy(game, decode_profiles(vertices, best, game.n)),
        pure_equilibrium_exists=bool(pure_eq),
        sweep=sweep,
        eps_equilibrium_found=found,
        eps_witness=witness,
    )
