"""Game structures and structural analysis.

A perception game couples a finite type space, a finite action space, a
prior, and a utility that depends on the observer's posterior belief.
Utilities come in two shapes:

- ``additive_separable``: ``u(t, a, mu) = v[t, a] - w_t(mu)`` with the
  action value ``v`` a plain matrix and ``w_t`` a catalog penalty.
- ``tabulated_grid``: values given on a simplex lattice and extended to
  the whole simplex by barycentric interpolation on the standard
  triangulation (in suffix-sum coordinates, so every interpolation
  vertex is a feasible lattice point).

The module also hosts the two-player variant, where each player holds a
subjective belief about the opponent's type and pays a penalty in the
belief observers form about their own type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .penalties import (
    MARGINAL_KINDS,
    Penalty,
    PenaltyRange,
    PenaltySpec,
    bind,
    penalty_range,
    penalty_value,
    validate_spec,
)
from .simplex import WEAK_TOL, Belief, SimplexGrid, dirac, distributions

__all__ = [
    "TypeSpace",
    "ActionSpace",
    "UtilityModel",
    "PerceptionGame",
    "PlayerSpec",
    "TwoPlayerPerceptionGame",
    "UtilityRange",
    "ValidationReport",
    "validate_game",
    "TypePrivacy",
    "PrivacyReport",
    "classify_privacy",
]


@dataclass(frozen=True)
class TypeSpace:
    """Finite set of type labels, optionally a product of two factors.

    Factored spaces use labels ``"outcome:privacy"`` so the outcome
    component stays recoverable from the label alone.
    """

    labels: tuple[str, ...]
    outcome_labels: tuple[str, ...] | None = None
    privacy_labels: tuple[str, ...] | None = None

    @classmethod
    def plain(cls, labels: Sequence[str]) -> "TypeSpace":
        return cls(labels=tuple(labels))

    @classmethod
    def product(cls, outcomes: Sequence[str], privacy: Sequence[str]) -> "TypeSpace":
        labels = tuple(f"{o}:{p}" for o in outcomes for p in privacy)
        return cls(labels=labels, outcome_labels=tuple(outcomes), privacy_labels=tuple(privacy))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def factored(self) -> bool:
        return self.outcome_labels is not None

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown type label {label!r}") from None

    def outcome_of(self, label: str) -> str:
        if not self.factored:
            raise ValueError("type space has no outcome factor")
        return label.split(":", 1)[0]

    def outcome_mask(self, outcome: str) -> np.ndarray:
        if not self.factored:
            raise ValueError("type space has no outcome factor")
        if outcome not in self.outcome_labels:
            raise KeyError(f"unknown outcome label {outcome!r}")
        return np.array([self.outcome_of(x) == outcome for x in self.labels])


@dataclass(frozen=True)
class ActionSpace:
    labels: tuple[str, ...]

    @classmethod
    def plain(cls, labels: Sequence[str]) -> "ActionSpace":
        return cls(labels=tuple(labels))

    @property
    def m(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown action label {label!r}") from None


@dataclass
class UtilityModel:
    """Data for one of the two utility shapes; see the module docstring.

    additive_separable fields: ``v`` (n, m), ``penalties`` (one spec per
    type). tabulated_grid fields: ``resolution``, ``values`` with shape
    (n, m, lattice size) in lexicographic lattice order.
    """

    kind: str
    v: np.ndarray | None = None
    penalties: tuple[PenaltySpec, ...] | None = None
    resolution: int | None = None
    values: np.ndarray | None = None


# interpolation simplex of a point, cached per lattice ----------------


@lru_cache(maxsize=None)
def _lattice_lookup(n: int, resolution: int) -> dict[tuple[int, ...], int]:
    grid = SimplexGrid(n, resolution)
    return {c: i for i, c in enumerate(grid.compositions())}


def _interp_vertices(mu: np.ndarray, resolution: int) -> list[tuple[int, float]]:
    """Lattice indices and barycentric weights for the point ``mu``.

    Works in suffix-sum coordinates ``z_j = k * sum(mu[j:])`` where the
    simplex becomes the cone ``k >= z_1 >= ... >= z_{n-1} >= 0``; the
    standard triangulation of the unit cube then never picks a vertex
    outside the cone with positive weight (stable tie-breaks keep the
    earlier coordinate first, matching the cone's ordering).
    """
    n = mu.size
    k = resolution
    if n == 1:
        return [(0, 1.0)]
    z = np.clip(k * np.cumsum(mu[::-1])[::-1][1:], 0.0, float(k))
    base = np.floor(z)
    frac = z - base
    order = np.argsort(-frac, kind="stable")
    lookup = _lattice_lookup(n, k)
    d = n - 1
    out: list[tuple[int, float]] = []

    def push(vertex: np.ndarray, weight: float) -> None:
        if weight <= 0.0:
            return
        suffix = vertex.astype(np.int64)
        comp = [int(k - suffix[0])]
        for j in range(d - 1):
            comp.append(int(suffix[j] - suffix[j + 1]))
        comp.append(int(suffix[d - 1]))
        out.append((lookup[tuple(comp)], weight))

    sorted_frac = frac[order]
    vertex = base.copy()
    push(vertex, 1.0 - float(sorted_frac[0]) if d > 0 else 1.0)
    for i in range(d):
        vertex = vertex.copy()
        vertex[order[i]] += 1.0
        nxt = float(sorted_frac[i + 1]) if i + 1 < d else 0.0
        push(vertex, float(sorted_frac[i]) - nxt)
    return out


class PerceptionGame:
    """Single-player game: types, actions, prior, belief-dependent utility."""

    def __init__(
        self,
        types: TypeSpace,
        actions: ActionSpace,
        prior: Belief | Sequence[float],
        utility: UtilityModel,
        allow_discontinuous: bool = False,
        name: str = "",
    ):
        self.types = types
        self.actions = actions
        self.prior = prior if isinstance(prior, Belief) else Belief(prior)
        self.utility = utility
        self.allow_discontinuous = allow_discontinuous
        self.name = name
        self._penalties: dict[int, Penalty] = {}
        self._pranges: dict[int, PenaltyRange] = {}
        self._uranges: dict[tuple[int, int], UtilityRange] = {}

    @property
    def n(self) -> int:
        return self.types.n

    @property
    def m(self) -> int:
        return self.actions.m

    def chi(self, t: int) -> Belief:
        """Full self-exposure: the point mass on the type itself."""
        return dirac(t, self.n)

    def penalty(self, t: int) -> Penalty:
        """Type ``t``'s penalty, bound to the prior and the type labels."""
        if t not in self._penalties:
            if self.utility.kind != "additive_separable":
                raise ValueError("penalties exist only for additive utilities")
            self._penalties[t] = bind(
                self.utility.penalties[t], self.types.labels, self.prior.p, t
            )
        return self._penalties[t]

    def w(self, t: int, mu) -> float:
        """Perception penalty of type ``t`` at belief ``mu``."""
        return penalty_value(self.penalty(t), mu)

    def u(self, t: int, a: int, mu) -> float:
        if self.utility.kind == "additive_separable":
            return float(self.utility.v[t, a]) - self.w(t, mu)
        mu_arr = np.asarray(mu, dtype=np.float64)
        acc = 0.0
        for idx, weight in _interp_vertices(mu_arr, self.utility.resolution):
            acc += weight * float(self.utility.values[t, a, idx])
        return acc

    def penalty_range_of(self, t: int) -> PenaltyRange:
        if t not in self._pranges:
            self._pranges[t] = penalty_range(self.penalty(t))
        return self._pranges[t]

    def u_range(self, t: int, a: int) -> "UtilityRange":
        """Range of ``u(t, a, .)`` over the whole simplex, with witnesses."""
        if self.utility.kind == "additive_separable":
            pr = self.penalty_range_of(t)
            base = float(self.utility.v[t, a])
            return UtilityRange(
                min=base - pr.max,
                max=base - pr.min,
                argmin=pr.argmax,
                argmax=pr.argmin,
            )
        if not self._uranges:
            # interpolant extrema sit at lattice vertices, so this is
            # exact; one lattice serves every (type, action)
            pts = SimplexGrid(self.n, self.utility.resolution).points()
            for key in np.ndindex(self.n, self.m):
                vals = self.utility.values[key]
                i_min = int(np.argmin(vals))
                i_max = int(np.argmax(vals))
                self._uranges[key] = UtilityRange(
                    min=float(vals[i_min]),
                    max=float(vals[i_max]),
                    argmin=Belief(pts[i_min]),
                    argmax=Belief(pts[i_max]),
                )
        return self._uranges[t, a]

    def utility_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, m) arrays of min and max utility per type and action."""
        u_min = np.empty((self.n, self.m))
        u_max = np.empty((self.n, self.m))
        for t in range(self.n):
            for a in range(self.m):
                r = self.u_range(t, a)
                u_min[t, a] = r.min
                u_max[t, a] = r.max
        return u_min, u_max

    @property
    def continuous(self) -> bool:
        if self.utility.kind != "additive_separable":
            return True
        return all(p.is_continuous for p in self.utility.penalties)

    def lipschitz_l1(self) -> float | None:
        """Worst-case Lipschitz constant of ``u`` in the belief, or None."""
        if self.utility.kind == "additive_separable":
            consts = [p.lipschitz_l1() for p in self.utility.penalties]
            if any(c is None for c in consts):
                return None
            return max(consts) if consts else 0.0
        # interpolant slope per unit L1 movement along any edge
        k = self.utility.resolution
        span = float(self.utility.values.max() - self.utility.values.min())
        return span * k / 2.0

    def __repr__(self) -> str:
        return (
            f"PerceptionGame(name={self.name!r}, types={self.n}, "
            f"actions={self.m}, utility={self.utility.kind!r})"
        )


@dataclass
class PlayerSpec:
    """One side of a two-player game.

    ``beliefs`` row ``t`` is this player's subjective distribution over
    the opponent's types given own type ``t``. ``v`` is indexed by
    (own type, opponent type, own action, opponent action). Penalties
    take the belief observers hold about this player's own type.
    """

    types: TypeSpace
    actions: ActionSpace
    beliefs: np.ndarray
    v: np.ndarray
    penalties: tuple[PenaltySpec, ...]


class TwoPlayerPerceptionGame:
    def __init__(
        self,
        players: tuple[PlayerSpec, PlayerSpec],
        allow_discontinuous: bool = False,
        name: str = "",
    ):
        self.players = players
        self.allow_discontinuous = allow_discontinuous
        self.name = name
        self._penalties: dict[tuple[int, int, int], Penalty] = {}
        self._pranges: dict[tuple[int, int, int], PenaltyRange] = {}

    def penalty(self, i: int, t: int, observer: int = 0) -> Penalty:
        """Player ``i``'s penalty for type ``t``, anchored at the belief
        observer type ``observer`` holds about player ``i``."""
        key = (i, t, observer)
        if key not in self._penalties:
            ps = self.players[i]
            self._penalties[key] = bind(
                ps.penalties[t], ps.types.labels, self.players[1 - i].beliefs[observer], t
            )
        return self._penalties[key]

    def w(self, i: int, t: int, mu, observer: int = 0) -> float:
        """Player ``i``'s penalty for type ``t`` at belief ``mu`` over own types.

        The prior-distance kind is anchored at the observer's prior
        belief about this player, so the observer type matters there.
        """
        return penalty_value(self.penalty(i, t, observer), mu)

    def penalty_range_of(self, i: int, t: int, observer: int = 0) -> PenaltyRange:
        key = (i, t, observer)
        if key not in self._pranges:
            self._pranges[key] = penalty_range(self.penalty(i, t, observer))
        return self._pranges[key]

    def u(self, i: int, t_own: int, t_opp: int, a_own: int, a_opp: int, mu) -> float:
        return float(self.players[i].v[t_own, t_opp, a_own, a_opp]) - self.w(i, t_own, mu, t_opp)

    def __repr__(self) -> str:
        shapes = ", ".join(
            f"p{i}:{p.types.n}x{p.actions.m}" for i, p in enumerate(self.players)
        )
        return f"TwoPlayerPerceptionGame(name={self.name!r}, {shapes})"


@dataclass(frozen=True)
class UtilityRange:
    min: float
    max: float
    argmin: Belief
    argmax: Belief


@dataclass
class ValidationReport:
    """Structural findings; ``errors`` are (path, message) pairs."""

    errors: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str]] = field(default_factory=list)
    continuous: bool = True
    lipschitz_l1: float | None = None

    @property
    def ok(self) -> bool:
        return not self.errors


def _validate_penalties(
    types: TypeSpace,
    penalties: tuple[PenaltySpec, ...],
    allow_discontinuous: bool,
    report: ValidationReport,
    base_path: str,
    allowed_kinds: tuple[str, ...] | None = None,
) -> None:
    for t, spec in enumerate(penalties):
        path = f"{base_path}/{t}"
        for msg in validate_spec(spec):
            report.errors.append((path, msg))
        if allowed_kinds is not None and spec.kind not in allowed_kinds:
            report.errors.append(
                (path, f"penalty kind {spec.kind!r} is not supported here")
            )
        if spec.kind in MARGINAL_KINDS and spec.marginal_over:
            for label in spec.marginal_over:
                if label not in types.labels:
                    report.errors.append(
                        (path, f"marginal_over label {label!r} is not a type label")
                    )
        if not spec.is_continuous:
            report.continuous = False
            if not allow_discontinuous:
                report.errors.append(
                    (
                        path,
                        "discontinuous penalty requires the game's "
                        "allow_discontinuous flag",
                    )
                )


def validate_game(game) -> ValidationReport:
    """Deep structural validation of a constructed game object."""
    report = ValidationReport()
    if isinstance(game, TwoPlayerPerceptionGame):
        for i, ps in enumerate(game.players):
            other = game.players[1 - i]
            base = f"/players/{i}"
            if len(set(ps.types.labels)) != ps.types.n or ps.types.n == 0:
                report.errors.append((f"{base}/types", "type labels must be unique and nonempty"))
            if len(set(ps.actions.labels)) != ps.actions.m or ps.actions.m == 0:
                report.errors.append((f"{base}/actions", "action labels must be unique and nonempty"))
            if ps.beliefs.shape != (ps.types.n, other.types.n):
                report.errors.append(
                    (f"{base}/beliefs", f"expected shape {(ps.types.n, other.types.n)}, got {ps.beliefs.shape}")
                )
            else:
                for t in range(ps.types.n):
                    try:
                        distributions(ps.beliefs[t], (other.types.n,), "belief row")
                    except ValueError:
                        report.errors.append(
                            (f"{base}/beliefs/{t}", "row is not a probability distribution")
                        )
            expected = (ps.types.n, other.types.n, ps.actions.m, other.actions.m)
            if ps.v.shape != expected:
                report.errors.append(
                    (f"{base}/v", f"expected shape {expected}, got {ps.v.shape}")
                )
            elif not np.isfinite(ps.v).all():
                report.errors.append((f"{base}/v", "entries must be finite"))
            if len(ps.penalties) != ps.types.n:
                report.errors.append(
                    (f"{base}/penalties", f"expected one penalty per type ({ps.types.n})")
                )
            else:
                # the prior-anchored kind reads the observer's belief here
                _validate_penalties(
                    ps.types,
                    ps.penalties,
                    game.allow_discontinuous,
                    report,
                    f"{base}/penalties",
                    allowed_kinds=("zero", "tv_to_prior", "exposure") + MARGINAL_KINDS,
                )
        lips: list[float | None] = []
        for ps in game.players:
            lips.extend(p.lipschitz_l1() for p in ps.penalties)
        report.lipschitz_l1 = None if any(c is None for c in lips) else (max(lips) if lips else 0.0)
        return report

    types, actions = game.types, game.actions
    if len(set(types.labels)) != types.n or types.n == 0:
        report.errors.append(("/types", "type labels must be unique and nonempty"))
    if len(set(actions.labels)) != actions.m or actions.m == 0:
        report.errors.append(("/actions", "action labels must be unique and nonempty"))
    if types.factored:
        # zero-mass cells may be dropped, so any subset of the product is fine
        for label in types.labels:
            o, sep, p = label.partition(":")
            if not sep or o not in types.outcome_labels or p not in types.privacy_labels:
                report.errors.append(
                    ("/types", f"label {label!r} is not an outcome:privacy pair")
                )
    if game.prior.n != types.n:
        report.errors.append(("/prior", f"expected {types.n} entries, got {game.prior.n}"))
    um = game.utility
    if um.kind == "additive_separable":
        if um.v is None or um.v.shape != (types.n, actions.m):
            got = None if um.v is None else um.v.shape
            report.errors.append(("/utility/v", f"expected shape {(types.n, actions.m)}, got {got}"))
        elif not np.isfinite(um.v).all():
            report.errors.append(("/utility/v", "entries must be finite"))
        if um.penalties is None or len(um.penalties) != types.n:
            report.errors.append(("/utility/penalties", f"expected one penalty per type ({types.n})"))
        else:
            _validate_penalties(
                types, um.penalties, game.allow_discontinuous, report, "/utility/penalties"
            )
    elif um.kind == "tabulated_grid":
        if um.resolution is None or um.resolution < 1:
            report.errors.append(("/utility/resolution", "resolution must be a positive integer"))
        else:
            size = comb(um.resolution + types.n - 1, types.n - 1)  # lattice points
            expected = (types.n, actions.m, size)
            if um.values is None or um.values.shape != expected:
                got = None if um.values is None else um.values.shape
                report.errors.append(("/utility/values", f"expected shape {expected}, got {got}"))
            elif not np.isfinite(um.values).all():
                report.errors.append(("/utility/values", "entries must be finite"))
    else:
        report.errors.append(("/utility/kind", f"unknown utility kind {um.kind!r}"))
    if report.ok:
        report.continuous = game.continuous
        report.lipschitz_l1 = game.lipschitz_l1()
    return report


@dataclass(frozen=True)
class TypePrivacy:
    label: str
    holds: bool
    gap: float
    witness_action: str | None
    witness_belief: Belief | None


@dataclass(frozen=True)
class PrivacyReport:
    """Whether a privacy direction holds, with per-type evidence.

    ``mode`` "upper": the prior is a best possible perception for every
    type and action (any leakage weakly hurts). ``mode`` "lower": full
    self-exposure is a worst possible perception (being found out is
    maximally harmful). ``gap`` per type is the optimality shortfall;
    verdicts are exact for both utility shapes.
    """

    mode: str
    holds: bool
    per_type: tuple[TypePrivacy, ...]


def classify_privacy(game: PerceptionGame, mode: str, tol: float = WEAK_TOL) -> PrivacyReport:
    if mode not in ("upper", "lower"):
        raise ValueError(f"mode must be 'upper' or 'lower', got {mode!r}")
    rows: list[TypePrivacy] = []
    for t in range(game.n):
        if game.utility.kind == "additive_separable":
            pr = game.penalty_range_of(t)
            if mode == "upper":
                gap = game.w(t, game.prior.p) - pr.min
                better = pr.argmin
            else:
                gap = pr.max - game.w(t, game.chi(t).p)
                better = pr.argmax
            holds = bool(gap <= tol)
            rows.append(
                TypePrivacy(
                    label=game.types.labels[t],
                    holds=holds,
                    gap=float(gap),
                    witness_action=None,
                    witness_belief=None if holds else better,
                )
            )
        else:
            worst_gap = -np.inf
            worst_a = 0
            worst_belief = None
            for a in range(game.m):
                r = game.u_range(t, a)
                if mode == "upper":
                    gap = r.max - game.u(t, a, game.prior.p)
                    better = r.argmax
                else:
                    gap = game.u(t, a, game.chi(t).p) - r.min
                    better = r.argmin
                if gap > worst_gap:
                    worst_gap, worst_a, worst_belief = gap, a, better
            holds = bool(worst_gap <= tol)
            rows.append(
                TypePrivacy(
                    label=game.types.labels[t],
                    holds=holds,
                    gap=float(worst_gap),
                    witness_action=game.actions.labels[worst_a] if not holds else None,
                    witness_belief=None if holds else worst_belief,
                )
            )
    return PrivacyReport(mode=mode, holds=all(r.holds for r in rows), per_type=tuple(rows))
