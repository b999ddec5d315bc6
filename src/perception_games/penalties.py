"""Perception penalty catalog.

A penalty is the belief-dependent part of a utility: the cost ``w(mu)``
a type pays when observers hold belief ``mu`` about it. The catalog
covers the shapes the solvers know how to bound exactly:

- ``zero``: no belief sensitivity.
- ``tv_to_prior``: ``weight * TV(mu, prior)``, punishes any leakage.
- ``exposure``: ``weight * mu[type]``, punishes mass on the true type.
- ``piecewise_linear_marginal``: ``weight * g(x)`` where ``x`` is the
  mass ``mu`` puts on an event (a set of type labels) and ``g`` is a
  piecewise linear function given by knots covering [0, 1].
- ``step_marginal``: piecewise constant in the same marginal ``x``,
  given by value pieces with half-open or closed bounds. Discontinuous,
  so games using it must opt in via ``allow_discontinuous``.

A spec alone cannot be evaluated: ``tv_to_prior`` measures from an
anchor belief, ``exposure`` reads the type's own index, and the
marginal kinds sum over the event's type indices. ``bind`` resolves all
of that once into a ``Penalty``, and the evaluators take only the bound
penalty and the belief(s):

- ``penalty_value`` evaluates one belief and is the exact evaluator's
  path; ``penalty_batch`` evaluates a batch of beliefs for the sweep
  kernel. Both sum over types in index order, so they agree bitwise.
- ``penalty_range`` gives the range over the simplex in closed form for
  every kind, with witness beliefs attaining it. The Lipschitz
  constants are reported by game validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .simplex import Belief, dirac

KINDS = ("zero", "tv_to_prior", "exposure", "piecewise_linear_marginal", "step_marginal")
MARGINAL_KINDS = ("piecewise_linear_marginal", "step_marginal")

__all__ = [
    "KINDS",
    "MARGINAL_KINDS",
    "PenaltySpec",
    "Penalty",
    "bind",
    "PenaltyRange",
    "piecewise_linear_value",
    "step_value",
    "penalty_value",
    "penalty_batch",
    "penalty_range",
    "validate_spec",
]


@dataclass(frozen=True)
class PenaltySpec:
    """Declarative description of one type's perception penalty.

    ``knots`` is a tuple of (x, y) pairs for the piecewise linear kind.
    ``pieces`` is a tuple of (lo, hi, value, include_lo, include_hi)
    for the step kind, matched first to last; unmatched x has value 0.
    ``marginal_over`` lists the type labels of the event whose posterior
    mass is the argument of the marginal kinds.
    """

    kind: str
    weight: float = 1.0
    knots: tuple[tuple[float, float], ...] | None = None
    marginal_over: tuple[str, ...] | None = None
    pieces: tuple[tuple[float, float, float, bool, bool], ...] | None = None

    @classmethod
    def zero(cls) -> "PenaltySpec":
        return cls(kind="zero", weight=0.0)

    @classmethod
    def tv_to_prior(cls, weight: float) -> "PenaltySpec":
        return cls(kind="tv_to_prior", weight=weight)

    @classmethod
    def exposure(cls, weight: float) -> "PenaltySpec":
        return cls(kind="exposure", weight=weight)

    @classmethod
    def piecewise_linear(
        cls,
        knots: Sequence[tuple[float, float]],
        over: Sequence[str],
        weight: float = 1.0,
    ) -> "PenaltySpec":
        return cls(
            kind="piecewise_linear_marginal",
            weight=weight,
            knots=tuple((float(x), float(y)) for x, y in knots),
            marginal_over=tuple(over),
        )

    @classmethod
    def step(
        cls,
        pieces: Sequence[tuple[float, float, float, bool, bool]],
        over: Sequence[str],
        weight: float = 1.0,
    ) -> "PenaltySpec":
        return cls(
            kind="step_marginal",
            weight=weight,
            pieces=tuple(
                (float(lo), float(hi), float(v), bool(il), bool(ih))
                for lo, hi, v, il, ih in pieces
            ),
            marginal_over=tuple(over),
        )

    @property
    def is_continuous(self) -> bool:
        return self.kind != "step_marginal"

    def lipschitz_l1(self) -> float | None:
        """Lipschitz constant in the L1 norm on beliefs; None if unbounded."""
        if self.kind == "zero":
            return 0.0
        if self.kind in ("tv_to_prior", "exposure"):
            return float(self.weight)
        if self.kind == "piecewise_linear_marginal":
            slopes = [
                abs(y1 - y0) / (x1 - x0)
                for (x0, y0), (x1, y1) in zip(self.knots, self.knots[1:])
            ]
            return float(self.weight) * (max(slopes) if slopes else 0.0)
        return None  # step_marginal is discontinuous


def validate_spec(spec: PenaltySpec) -> list[str]:
    """Structural checks; returns error messages, empty when clean."""
    errs: list[str] = []
    if spec.kind not in KINDS:
        errs.append(f"unknown penalty kind {spec.kind!r}, expected one of {KINDS}")
        return errs
    if not np.isfinite(spec.weight):
        errs.append("weight must be finite")
    elif spec.weight < 0:
        errs.append(f"weight must be nonnegative, got {spec.weight!r}")
    if spec.kind in MARGINAL_KINDS:
        if not spec.marginal_over:
            errs.append(f"{spec.kind} requires a nonempty marginal_over event")
        elif len(set(spec.marginal_over)) != len(spec.marginal_over):
            errs.append("marginal_over contains duplicate labels")
    if spec.kind == "piecewise_linear_marginal":
        k = spec.knots
        if not k or len(k) < 2:
            errs.append("piecewise_linear_marginal requires at least 2 knots")
        else:
            xs = [x for x, _ in k]
            if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
                errs.append("knot x coordinates must be strictly increasing")
            if xs[0] != 0.0 or xs[-1] != 1.0:
                errs.append("knots must cover [0, 1] (first x == 0, last x == 1)")
            if not all(np.isfinite(x) and np.isfinite(y) for x, y in k):
                errs.append("knots must be finite")
    if spec.kind == "step_marginal":
        if not spec.pieces:
            errs.append("step_marginal requires at least one piece")
        else:
            for j, (lo, hi, v, il, ih) in enumerate(spec.pieces):
                if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(v)):
                    errs.append(f"piece {j} has nonfinite numbers")
                    continue
                if not (0.0 <= lo <= hi <= 1.0):
                    errs.append(f"piece {j} bounds must satisfy 0 <= lo <= hi <= 1")
                if lo == hi and not (il and ih):
                    errs.append(f"piece {j} is empty (lo == hi needs closed bounds)")
    return errs


@dataclass(frozen=True, eq=False)
class Penalty:
    """A spec bound to one type of an ``n``-type space; built by ``bind``."""

    spec: PenaltySpec
    n: int
    anchor: np.ndarray  # the belief tv_to_prior measures from
    type_index: int
    event: tuple[int, ...] | None  # the event's type indices, ascending (marginal kinds)
    knots: tuple[np.ndarray, np.ndarray] | None  # the polyline's (x, y) knot arrays


def bind(spec: PenaltySpec, labels: Sequence[str], anchor, type_index: int) -> Penalty:
    """``spec`` as the penalty of type ``type_index`` among the type
    ``labels``, with ``anchor`` the belief tv_to_prior measures from.
    Raises ValueError for an unknown kind and KeyError for an event
    label that is not a type label."""
    if spec.kind not in KINDS:
        raise ValueError(f"unknown penalty kind {spec.kind!r}")
    event = None
    if spec.kind in MARGINAL_KINDS:
        over = spec.marginal_over or ()
        for label in over:
            if label not in labels:
                raise KeyError(f"unknown type label {label!r}")
        event = tuple(s for s, label in enumerate(labels) if label in over)
    knots = None
    if spec.knots:
        knots = np.array([k[0] for k in spec.knots]), np.array([k[1] for k in spec.knots])
    return Penalty(
        spec, len(labels), np.asarray(anchor, dtype=np.float64), type_index, event, knots
    )


def piecewise_linear_value(knots_x: np.ndarray, knots_y: np.ndarray, x: float) -> float:
    """Evaluate the knot polyline at ``x``, linear on each segment."""
    j = int(np.searchsorted(knots_x, x, side="left")) - 1
    j = min(max(j, 0), len(knots_x) - 2)
    t = (x - knots_x[j]) / (knots_x[j + 1] - knots_x[j])
    return float(knots_y[j] + t * (knots_y[j + 1] - knots_y[j]))


def step_value(pieces, x: float) -> float:
    """First matching piece wins; unmatched x has value 0."""
    for lo, hi, v, il, ih in pieces:
        lo_ok = (x >= lo) if il else (x > lo)
        hi_ok = (x <= hi) if ih else (x < hi)
        if lo_ok and hi_ok:
            return float(v)
    return 0.0


def penalty_value(pen: Penalty, mu) -> float:
    """Evaluate the bound penalty at belief ``mu``."""
    spec = pen.spec
    m = np.asarray(mu, dtype=np.float64)
    if spec.kind == "zero":
        return 0.0
    if spec.kind == "tv_to_prior":
        acc = 0.0
        for mu_s, prior_s in zip(m.tolist(), pen.anchor.tolist()):
            acc = acc + abs(mu_s - prior_s)
        return spec.weight * 0.5 * acc
    if spec.kind == "exposure":
        return spec.weight * float(m[pen.type_index])
    x = 0.0
    for s in pen.event:
        x = x + float(m[s])
    if spec.kind == "piecewise_linear_marginal":
        return spec.weight * piecewise_linear_value(*pen.knots, x)
    return spec.weight * step_value(spec.pieces, x)


def penalty_batch(pen: Penalty, post: np.ndarray) -> np.ndarray:
    """``penalty_value``, bitwise, at each belief in ``post`` (types on the
    last axis)."""
    spec = pen.spec
    w = spec.weight
    if spec.kind == "zero":
        return np.zeros(post.shape[:-1])
    if spec.kind == "tv_to_prior":
        acc = np.zeros(post.shape[:-1])
        for s in range(post.shape[-1]):
            acc = acc + np.abs(post[..., s] - pen.anchor[s])
        return w * 0.5 * acc
    if spec.kind == "exposure":
        return w * post[..., pen.type_index]
    x = np.zeros(post.shape[:-1])
    for s in pen.event:
        x = x + post[..., s]
    if spec.kind == "piecewise_linear_marginal":
        kx, ky = pen.knots
        # the segment of x: the number of interior knots strictly below
        # it, which is searchsorted(kx, x, "left") - 1 clipped to the
        # segments, since the knots strictly increase
        j = np.zeros(x.shape, dtype=np.int64)
        for k in kx[1:-1].tolist():
            j += x > k
        x0, x1 = np.take(kx, j), np.take(kx, j + 1)
        y0, y1 = np.take(ky, j), np.take(ky, j + 1)
        frac = (x - x0) / (x1 - x0)
        return w * (y0 + frac * (y1 - y0))
    val = np.zeros(x.shape)
    assigned = np.zeros(x.shape, dtype=bool)
    for lo, hi, pv, il, ih in spec.pieces:
        lo_ok = (x >= lo) if il else (x > lo)
        hi_ok = (x <= hi) if ih else (x < hi)
        match = lo_ok & hi_ok & ~assigned
        val[match] = pv
        assigned |= match
    return w * val


@dataclass(frozen=True)
class PenaltyRange:
    """Exact range of a penalty over the whole simplex, with witnesses."""

    min: float
    max: float
    argmin: Belief
    argmax: Belief


def _belief_with_marginal(x: float, pen: Penalty) -> Belief:
    """A belief putting mass ``x`` on the event; first labels carry it."""
    p = np.zeros(pen.n)
    outside = [s for s in range(pen.n) if s not in pen.event]
    x = min(max(x, 0.0), 1.0)
    if not pen.event:
        p[outside[0]] = 1.0
        return Belief(p)
    if not outside:
        p[pen.event[0]] = 1.0
        return Belief(p)
    p[pen.event[0]] = x
    p[outside[0]] = 1.0 - x
    return Belief(p)


def penalty_range(pen: Penalty) -> PenaltyRange:
    """Closed-form min and max of the bound penalty over the simplex.

    All catalog kinds admit exact extrema: the distance and exposure
    kinds peak at vertices, the marginal kinds reduce to a scalar
    function of the event mass whose extrema sit at knots or on
    piece-boundary candidates. Witness beliefs attain the values.
    """
    spec, n = pen.spec, pen.n
    if spec.kind == "zero":
        w = dirac(0, n)
        return PenaltyRange(0.0, 0.0, w, w)
    if spec.kind == "tv_to_prior":
        b = pen.anchor
        lo_idx = int(np.argmin(b))  # ties: lowest index
        hi = spec.weight * (1.0 - float(b[lo_idx]))
        return PenaltyRange(0.0, hi, Belief(b), dirac(lo_idx, n))
    if spec.kind == "exposure":
        if n == 1:
            w = dirac(0, 1)
            return PenaltyRange(float(spec.weight), float(spec.weight), w, w)
        other = 0 if pen.type_index != 0 else 1
        return PenaltyRange(0.0, float(spec.weight), dirac(other, n), dirac(pen.type_index, n))
    # reachable event mass: an empty or a full event pins it
    pinned = 0.0 if not pen.event else 1.0 if len(pen.event) == n else None
    if spec.kind == "piecewise_linear_marginal":
        kx, ky = pen.knots
        candidates = [pinned] if pinned is not None else [float(x) for x in kx]
        vals = [spec.weight * piecewise_linear_value(kx, ky, x) for x in candidates]
    else:
        if pinned is not None:
            candidates = [pinned]
        else:
            bounds = sorted({0.0, 1.0} | {p[0] for p in spec.pieces} | {p[1] for p in spec.pieces})
            candidates = list(bounds)
            # a point inside each gap catches the open-interval values
            for b0, b1 in zip(bounds, bounds[1:]):
                if b1 > b0:
                    candidates.append(0.5 * (b0 + b1))
        vals = [spec.weight * step_value(spec.pieces, x) for x in candidates]
    i_min = int(np.argmin(vals))
    i_max = int(np.argmax(vals))
    return PenaltyRange(
        min=float(vals[i_min]),
        max=float(vals[i_max]),
        argmin=_belief_with_marginal(candidates[i_min], pen),
        argmax=_belief_with_marginal(candidates[i_max], pen),
    )
