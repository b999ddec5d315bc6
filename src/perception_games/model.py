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

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .penalties import (
    MARGINAL_KINDS,
    Penalty,
    PenaltySpec,
    bind,
    penalty_range,
    penalty_value,
    validate_spec,
)
from .simplex import WEAK_TOL, Belief, Range, SimplexGrid, _check_tol, dirac, distributions, lattice_rank

__all__ = [
    "TypeSpace",
    "ActionSpace",
    "UtilityModel",
    "PerceptionGame",
    "PlayerSpec",
    "TwoPlayerPerceptionGame",
    "ValidationReport",
    "validate_game",
    "TypePrivacy",
    "PrivacyReport",
    "classify_privacy",
]


def _label_index(labels: tuple[str, ...], label: str, what: str) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise KeyError(f"unknown {what} label {label!r}") from None


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
        return _label_index(self.labels, label, "type")

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
        return _label_index(self.labels, label, "action")


def _read_only(a):
    """A read-only copy of ``a``, or None; nothing else is checked."""
    if a is None:
        return None
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class UtilityModel:
    """Data for one of the two utility shapes; see the module docstring.

    additive_separable fields: ``v`` (n, m), ``penalties`` (one spec per
    type). tabulated_grid fields: ``resolution``, ``values`` with shape
    (n, m, lattice size) in lexicographic lattice order. The arrays are
    stored as read-only copies.
    """

    kind: str
    v: np.ndarray | None = None
    penalties: tuple[PenaltySpec, ...] | None = None
    resolution: int | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "v", _read_only(self.v))
        object.__setattr__(self, "values", _read_only(self.values))
        if self.penalties is not None:
            object.__setattr__(self, "penalties", tuple(self.penalties))


def _interpolate(mu: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """``values`` (types, actions, lattice points) at the beliefs ``mu``
    ``(..., A, n)``, one per action, as ``(..., A, types)``: the one body
    of ``PerceptionGame.u`` and the kernel's tabulated rows. In suffix sums
    ``z_j = k * sum(mu[j:])`` the simplex is the cone ``k >= z_1 >= ... >=
    0``, and the unit cube's standard triangulation (stable tie-breaks)
    weights no vertex outside it. Terms are summed from 0.0; a zero-weight
    vertex's rank is clipped into range and adds ``0 * value``."""
    types, m, size = values.shape
    d = mu.shape[-1] - 1
    z = np.clip(k * np.cumsum(mu[..., ::-1], axis=-1)[..., :d][..., ::-1], 0.0, float(k))
    base = np.floor(z)
    frac = z - base
    order = np.argsort(-frac, axis=-1, kind="stable")
    sfrac = np.take_along_axis(frac, order, axis=-1)
    vertex = base.astype(np.int64)
    # values.flat[offset[a, t] + i] is values[t, a, i]
    offset = (np.arange(types) * m + np.arange(m)[:, None]) * size
    weight = 1.0 - sfrac[..., 0] if d else np.ones(mu.shape[:-1])
    acc = np.zeros(mu.shape[:-2] + (m, types))
    for i in range(d + 1):
        rank = np.clip(lattice_rank(vertex, k), 0, size - 1)
        acc = acc + weight[..., None] * np.take(values, offset + rank[..., None])
        if i < d:
            vertex = vertex + (order[..., i : i + 1] == np.arange(d))
            weight = sfrac[..., i] - (sfrac[..., i + 1] if i + 1 < d else 0.0)
    return acc


@dataclass(frozen=True, eq=False)
class PerceptionGame:
    """Single-player game: types, actions, prior, belief-dependent utility.

    Immutable: a changed game is a new one (``dataclasses.replace``), so
    the bound penalties, ranges and ``chi``s it caches describe its
    fields. A game derived by ``_with_prior`` keeps its root template as
    ``_base``, which it differs from in a field no range reads, and caches
    its own.
    """

    types: TypeSpace
    actions: ActionSpace
    prior: Belief | Sequence[float]  # stored as a Belief
    utility: UtilityModel
    allow_discontinuous: bool = False
    name: str = ""
    _penalties: dict[int, Penalty] = field(default_factory=dict, init=False, repr=False)
    _pranges: dict[int, Range] = field(default_factory=dict, init=False, repr=False)
    _uranges: dict[tuple[int, int], Range] = field(default_factory=dict, init=False, repr=False)
    _chis: dict[int, Belief] = field(default_factory=dict, init=False, repr=False)
    _base: "PerceptionGame | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.prior, Belief):
            object.__setattr__(self, "prior", Belief(self.prior))

    def _with_prior(self, prior, name: str) -> "PerceptionGame":
        """This game at ``prior`` (checked as any game's), named ``name``:
        the one place that decides when a game shares its prior-free work,
        and so which games the kernel screens and sweeps together. A bound
        penalty reads the prior only as its anchor, and only
        ``tv_to_prior`` reads the anchor, so unless a penalty is of that
        kind the new game keeps the root template as ``_base``, and
        ``kernels.pack_game`` packs it as the template's pack at its own
        prior: all it shares, witnesses included. A game built apart
        shares nothing, even with equal fields."""
        game = replace(self, prior=prior, name=name)
        if not any(spec.kind == "tv_to_prior" for spec in self.utility.penalties or ()):
            object.__setattr__(game, "_base", self._base or self)
        return game

    @property
    def n(self) -> int:
        return self.types.n

    @property
    def m(self) -> int:
        return self.actions.m

    def chi(self, t: int) -> Belief:
        """Full self-exposure: the point mass on the type itself, built
        once per type."""
        if t not in self._chis:
            self._chis[t] = dirac(t, self.n)
        return self._chis[t]

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
        values = self.utility.values[t : t + 1, a : a + 1]
        return float(_interpolate(np.asarray(mu, dtype=np.float64)[None], values, self.utility.resolution)[0, 0])

    def penalty_range_of(self, t: int) -> Range:
        if t not in self._pranges:
            self._pranges[t] = penalty_range(self.penalty(t))
        return self._pranges[t]

    def u_range(self, t: int, a: int) -> Range:
        """Range of ``u(t, a, .)`` over the whole simplex, with witnesses."""
        if self.utility.kind == "additive_separable":
            pr = self.penalty_range_of(t)
            base = float(self.utility.v[t, a])
            return Range(
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
                self._uranges[key] = Range(
                    min=float(vals[i_min]),
                    max=float(vals[i_max]),
                    argmin=Belief(pts[i_min]),
                    argmax=Belief(pts[i_max]),
                )
        return self._uranges[t, a]

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


@dataclass(frozen=True)
class PlayerSpec:
    """One side of a two-player game.

    ``beliefs`` row ``t`` is this player's subjective distribution over
    the opponent's types given own type ``t``. ``v`` is indexed by
    (own type, opponent type, own action, opponent action). Penalties
    take the belief observers hold about this player's own type. The
    arrays are stored as read-only copies.
    """

    types: TypeSpace
    actions: ActionSpace
    beliefs: np.ndarray
    v: np.ndarray
    penalties: tuple[PenaltySpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "beliefs", _read_only(self.beliefs))
        object.__setattr__(self, "v", _read_only(self.v))
        object.__setattr__(self, "penalties", tuple(self.penalties))


@dataclass(frozen=True, eq=False)
class TwoPlayerPerceptionGame:
    """Two players, each a ``PlayerSpec``; immutable like ``PerceptionGame``.

    Each observer type forms its own perception of a player, so player
    ``i`` seen by observer type ``t_obs`` is a single-player game
    (``_observers``): player ``i``'s types, actions and penalties, ``v =
    0``, and that observer's belief row as the prior. Penalties, their
    ranges and witnesses are read from those games; ``observer`` picks
    the one whose anchor the prior-distance kind measures from.
    """

    players: tuple[PlayerSpec, PlayerSpec]
    allow_discontinuous: bool = False
    name: str = ""
    _observer_games: dict[int, tuple[PerceptionGame, ...]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))

    def _observers(self, i: int) -> tuple[PerceptionGame, ...]:
        """Player ``i`` as each observer type of the other player sees
        them, one ``PerceptionGame`` per belief row, built once. The first
        is the template and the others its ``_with_prior``, so the
        observers of a player without ``tv_to_prior`` share one pack."""
        if i not in self._observer_games:
            ps = self.players[i]
            rows = self.players[1 - i].beliefs
            utility = UtilityModel(
                "additive_separable", v=np.zeros((ps.types.n, ps.actions.m)), penalties=ps.penalties
            )
            first = PerceptionGame(ps.types, ps.actions, rows[0], utility, self.allow_discontinuous)
            self._observer_games[i] = (first, *(first._with_prior(row, "") for row in rows[1:]))
        return self._observer_games[i]

    def w(self, i: int, t: int, mu, observer: int = 0) -> float:
        """Player ``i``'s penalty for type ``t`` at belief ``mu`` over own
        types, in observer type ``observer``'s view."""
        return self._observers(i)[observer].w(t, mu)

    def penalty_range_of(self, i: int, t: int, observer: int = 0) -> Range:
        return self._observers(i)[observer].penalty_range_of(t)

    def u(self, i: int, t_own: int, t_opp: int, a_own: int, a_opp: int, mu) -> float:
        return float(self.players[i].v[t_own, t_opp, a_own, a_opp]) - self.w(i, t_own, mu, t_opp)

    def __repr__(self) -> str:
        shapes = ", ".join(
            f"p{i}:{p.types.n}x{p.actions.m}" for i, p in enumerate(self.players)
        )
        return f"TwoPlayerPerceptionGame(name={self.name!r}, {shapes})"


@dataclass
class ValidationReport:
    """Structural findings; ``errors`` are (path, message) pairs."""

    errors: list[tuple[str, str]] = field(default_factory=list)
    continuous: bool = True
    lipschitz_l1: float | None = None

    @property
    def ok(self) -> bool:
        return not self.errors


def _check_labels(types: TypeSpace, actions: ActionSpace, report: ValidationReport, base: str) -> None:
    if len(set(types.labels)) != types.n or types.n == 0:
        report.errors.append((f"{base}/types", "type labels must be unique and nonempty"))
    if len(set(actions.labels)) != actions.m or actions.m == 0:
        report.errors.append((f"{base}/actions", "action labels must be unique and nonempty"))


def _check_values(
    types: TypeSpace, v, shape: tuple[int, ...], penalties, allow_discontinuous: bool,
    report: ValidationReport, base: str,
) -> None:
    """One player's ``v`` (``shape``, finite) and penalties (one valid
    spec per type)."""
    if v is None or v.shape != shape:
        got = None if v is None else v.shape
        report.errors.append((f"{base}/v", f"expected shape {shape}, got {got}"))
    elif not np.isfinite(v).all():
        report.errors.append((f"{base}/v", "entries must be finite"))
    if penalties is None or len(penalties) != types.n:
        report.errors.append((f"{base}/penalties", f"expected one penalty per type ({types.n})"))
        return
    for t, spec in enumerate(penalties):
        path = f"{base}/penalties/{t}"
        for msg in validate_spec(spec):
            report.errors.append((path, msg))
        if spec.kind in MARGINAL_KINDS and spec.marginal_over:
            for label in spec.marginal_over:
                if label not in types.labels:
                    report.errors.append(
                        (path, f"marginal_over label {label!r} is not a type label")
                    )
        if not spec.is_continuous and not allow_discontinuous:
            report.errors.append(
                (path, "discontinuous penalty requires the game's allow_discontinuous flag")
            )


def validate_game(game) -> ValidationReport:
    """Deep structural validation of a constructed game object.

    Each rule is written once. Both game kinds check each player's labels
    (``_check_labels``: unique and nonempty) and values and penalties
    (``_check_values``: ``v`` of the right shape and finite, one valid
    penalty per type), under ``/types``, ``/actions`` and ``/utility`` of
    a single game and ``/players/i`` of a two-player one. Single games
    also check factored labels, the prior's length and a tabulated
    utility's resolution (``SimplexGrid``'s rule) and values; two-player
    games check each belief row (``simplex.distributions``). The errors
    come out in that order, player by player, each fault once. Only a
    report without errors fills ``continuous`` and ``lipschitz_l1``;
    one with errors keeps their defaults, for both game kinds.
    """
    report = ValidationReport()
    if isinstance(game, TwoPlayerPerceptionGame):
        for i, ps in enumerate(game.players):
            other = game.players[1 - i]
            base = f"/players/{i}"
            _check_labels(ps.types, ps.actions, report, base)
            shape = (ps.types.n, other.types.n)
            got = None if ps.beliefs is None else ps.beliefs.shape
            if got != shape:
                report.errors.append((f"{base}/beliefs", f"expected shape {shape}, got {got}"))
            else:
                for t in range(ps.types.n):
                    try:
                        distributions(ps.beliefs[t], (other.types.n,), "belief row")
                    except ValueError:
                        report.errors.append(
                            (f"{base}/beliefs/{t}", "row is not a probability distribution")
                        )
            # the prior-anchored kind reads the observer's belief here
            _check_values(
                ps.types, ps.v, shape + (ps.actions.m, other.actions.m), ps.penalties,
                game.allow_discontinuous, report, base,
            )
        if report.ok:
            specs = [p for ps in game.players for p in ps.penalties]
            lips = [p.lipschitz_l1() for p in specs]
            report.continuous = all(p.is_continuous for p in specs)
            report.lipschitz_l1 = None if None in lips else max(lips, default=0.0)
        return report

    types, actions = game.types, game.actions
    _check_labels(types, actions, report, "")
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
        _check_values(
            types, um.v, (types.n, actions.m), um.penalties, game.allow_discontinuous, report, "/utility"
        )
    elif um.kind == "tabulated_grid":
        try:
            # an empty type space is reported at /types
            size = SimplexGrid(max(types.n, 1), um.resolution).size
        except ValueError as exc:
            report.errors.append(("/utility/resolution", str(exc)))
            size = None
        if size is not None and types.n:
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
    _check_tol(tol)
    rows: list[TypePrivacy] = []
    for t in range(game.n):
        if game.utility.kind == "additive_separable":
            pr = game.penalty_range_of(t)
            if mode == "upper":
                gap, better = game.w(t, game.prior.p) - pr.min, pr.argmin
            else:
                gap, better = pr.max - game.w(t, game.chi(t).p), pr.argmax
            action = None
        else:
            # the action with the largest gap, the first on ties
            gap, action, better = -np.inf, None, None
            for a in range(game.m):
                r = game.u_range(t, a)
                if mode == "upper":
                    gap_a, better_a = r.max - game.u(t, a, game.prior.p), r.argmax
                else:
                    gap_a, better_a = game.u(t, a, game.chi(t).p) - r.min, r.argmin
                if gap_a > gap:
                    gap, action, better = gap_a, game.actions.labels[a], better_a
        holds = bool(gap <= tol)
        rows.append(
            TypePrivacy(
                label=game.types.labels[t],
                holds=holds,
                gap=float(gap),
                witness_action=None if holds else action,
                witness_belief=None if holds else better,
            )
        )
    return PrivacyReport(mode=mode, holds=all(r.holds for r in rows), per_type=tuple(rows))
