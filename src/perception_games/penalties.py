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

- each kind has one body (in ``_value``), written with plain operators
  (``+``, ``abs``, comparisons, indexing), which sums over types in
  index order. ``penalty_value`` runs it on one belief as a list of
  floats, for the exact evaluators; ``penalty_batch`` runs it on a
  batch of beliefs, types first, for the sweep kernel. So the two agree
  bitwise by construction, and an event's mass is summed in one place.
  The marginal kinds' polyline and step of the event mass
  (``_polyline``, ``_step``) also give ``bind`` its step values and
  ``penalty_range`` its candidates' values.
- ``penalty_range`` gives the range over the simplex in closed form for
  every kind, with witness beliefs attaining it. The Lipschitz
  constants are reported by game validation.
- ``stacked_bounds`` encloses the penalty at every posterior of a box of
  prior masses, given as one array of low ends stacked on high ends,
  for the certified cell bound ``kernels.cell_lower_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .simplex import Belief, Range, dirac, share_pair

KINDS = ("zero", "tv_to_prior", "exposure", "piecewise_linear_marginal", "step_marginal")
MARGINAL_KINDS = ("piecewise_linear_marginal", "step_marginal")

__all__ = [
    "KINDS",
    "MARGINAL_KINDS",
    "PenaltySpec",
    "Penalty",
    "bind",
    "penalty_value",
    "penalty_batch",
    "stacked_bounds",
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
    steps: tuple[np.ndarray, np.ndarray] | None  # np.diff of each knot array
    # the step's sorted piece bounds between -inf and inf, and its values
    # on the open gaps between those, then at each piece bound
    breaks: tuple[np.ndarray, np.ndarray] | None
    # the step's piece values, then 0.0 for an event mass no piece holds
    piece_values: np.ndarray | None


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
    knots = steps = None
    if spec.knots:
        knots = np.array([k[0] for k in spec.knots]), np.array([k[1] for k in spec.knots])
        steps = np.diff(knots[0]), np.diff(knots[1])
    breaks = piece_values = None
    if spec.pieces:
        piece_values = np.array([p[2] for p in spec.pieces] + [0.0])
        cuts = sorted({p[0] for p in spec.pieces} | {p[1] for p in spec.pieces})
        # the step is constant on each open gap; probe it at one point
        inner = [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]
        probes = [cuts[0] - 1.0, *inner, cuts[-1] + 1.0, *cuts]
        breaks = np.array([-np.inf, *cuts, np.inf]), _step(spec.pieces, piece_values, np.array(probes))
    anchor = np.asarray(anchor, dtype=np.float64)
    return Penalty(spec, len(labels), anchor, type_index, event, knots, steps, breaks, piece_values)


def _value(pen: Penalty, post):
    """The bound penalty at ``post``: one belief as a list of floats, or
    types-first rows of beliefs. Each kind's body uses plain operators
    and indexing only, so it runs unchanged on either."""
    spec = pen.spec
    if spec.kind == "exposure":
        return spec.weight * post[pen.type_index]
    # 0.0 in the shape of one type's entry: x < x is false for every x
    acc = 0.0 * (post[0] < post[0])
    if spec.kind == "zero":
        return acc
    if spec.kind == "tv_to_prior":
        for s, anchor_s in enumerate(pen.anchor.tolist()):
            acc = acc + abs(post[s] - anchor_s)
        return spec.weight * 0.5 * acc
    # the marginal kinds: the event's mass
    for s in pen.event:
        acc = acc + post[s]
    if spec.kind == "piecewise_linear_marginal":
        return spec.weight * _polyline(pen.knots, pen.steps, acc)
    return spec.weight * _step(spec.pieces, pen.piece_values, acc)


def _polyline(knots: tuple[np.ndarray, np.ndarray], steps: tuple[np.ndarray, np.ndarray], x):
    """The knot polyline at the event mass ``x``, linear on each
    segment, with ``steps`` the knot arrays' differences. The segment of
    ``x`` is the number of interior knots strictly below it, which is
    ``searchsorted(kx, x, "left") - 1`` clipped to the segments, since
    the knots strictly increase."""
    kx, ky = knots
    dx, dy = steps
    j = 0
    for k in kx[1:-1].tolist():
        j = j + (x > k)
    return ky[j] + (x - kx[j]) / dx[j] * dy[j]


def _step(pieces, values: np.ndarray, x):
    """The step at the event mass ``x``: the value of the first piece
    that holds ``x``, 0.0 where none does; ``values`` holds the pieces'
    values, then 0.0 (``Penalty.piece_values``)."""
    first = len(pieces)  # the trailing 0.0
    for j in range(len(pieces) - 1, -1, -1):
        lo, hi, _, il, ih = pieces[j]
        holds = ((x >= lo) if il else (x > lo)) & ((x <= hi) if ih else (x < hi))
        first = first + holds * (j - first)
    return values[first]


def penalty_value(pen: Penalty, mu) -> float:
    """Evaluate the bound penalty at belief ``mu``."""
    return float(_value(pen, np.asarray(mu, dtype=np.float64).tolist()))


def penalty_batch(pen: Penalty, post: np.ndarray) -> np.ndarray:
    """``penalty_value``, bitwise, at each belief in ``post``: types on
    the first axis, so ``post[s]`` holds every belief's mass on type
    ``s`` and the result has shape ``post.shape[1:]``."""
    return _value(pen, post)


def stacked_bounds(pen: Penalty, mass: np.ndarray, total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(low, high)`` enclosing ``penalty_batch`` at every posterior
    after an action that reaches it, when each type's prior mass at the
    action lies in ``[mass[0], mass[1]]``: ``mass`` is ``(2, n, ...)``,
    the low ends stacked on the high ends with types on the next axis,
    as ``post`` is for ``penalty_batch``; ``total = mass.sum(axis=1)``
    is passed in, since a caller bounding several penalties at the same
    masses sums them once. The results have shape ``mass.shape[2:]``.

    Each kind reads one interval, a ratio of box-bounded masses from
    ``share_pair``: ``exposure`` the type's own posterior coordinate,
    the marginal kinds the event's mass, and ``tv_to_prior`` all ``n``
    coordinates in one call. Over its interval a kind takes its exact
    extremes: the polyline at the two ends (one ``_polyline`` call for
    both) and at the knots inside, the step at every piece bound and
    open gap the interval meets. Knots, bounds and gaps are compared
    with every interval at once, along a new first axis, and the least
    and greatest value met are kept; the step's bounds and its value on
    each gap and at each bound come from ``bind``. ``tv_to_prior`` is
    bounded coordinate by coordinate: the total variation is both the
    mass above the anchor and the mass below it, each summed over the
    coordinates in index order. The enclosure holds up to a few float
    roundings (a polyline's value at a knot, the two sums of the total
    variation), which the caller's margin must cover.
    """
    spec = pen.spec
    w = spec.weight
    if spec.kind == "zero":
        zero = np.zeros(total.shape[1:])
        return zero, zero
    if spec.kind == "exposure":
        part = mass[:, pen.type_index]
        x_lo, x_hi = share_pair(part, total - part)
        return w * x_lo, w * x_hi
    if spec.kind == "tv_to_prior":
        x = share_pair(mass, total[:, None] - mass)  # (2, n, ...)
        b = _along_first(pen.anchor, total.ndim - 1)
        # per coordinate: the least and the most it lies above the
        # anchor, then the least and the most it lies below it
        dist = np.empty((4,) + x.shape[1:])
        np.subtract(x, b, out=dist[:2])
        np.subtract(b, x[::-1], out=dist[2:])
        np.maximum(dist, 0.0, out=dist)
        acc = dist[:, 0]
        for s in range(1, pen.n):
            acc = acc + dist[:, s]
        above_lo, above_hi, below_lo, below_hi = acc
        return w * np.maximum(above_lo, below_lo), w * np.minimum(above_hi, below_hi)
    inside = np.zeros(total.shape)
    for s in pen.event:
        inside = inside + mass[:, s]
    x = share_pair(inside, total - inside)
    x_lo, x_hi = x
    ndim = total.ndim - 1
    if spec.kind == "piecewise_linear_marginal":
        kx, ky = (_along_first(k, ndim) for k in pen.knots)
        ends = _polyline(pen.knots, pen.steps, x)
        # the knots inside the interval; an end stands in for the others
        inner = np.where((x_lo < kx) & (kx < x_hi), ky, ends[0])
        values = np.concatenate((ends, inner))
        return w * values.min(axis=0), w * values.max(axis=0)
    edges, values = (_along_first(b, ndim) for b in pen.breaks)
    cuts = edges[1:-1]
    meets = np.concatenate((
        (x_lo < edges[1:]) & (edges[:-1] < x_hi),  # the open gaps
        (x_lo <= cuts) & (cuts <= x_hi),
    ))
    low = np.where(meets, values, np.inf).min(axis=0)
    high = np.where(meets, values, -np.inf).max(axis=0)
    return w * low, w * high


def _along_first(values: np.ndarray, ndim: int) -> np.ndarray:
    """``values`` ``(k,)`` as ``(k, 1, ..., 1)``, against ``ndim`` axes."""
    return values.reshape((-1,) + (1,) * ndim)


def _belief_with_marginal(x: float, pen: Penalty) -> Belief:
    """A belief putting mass ``x`` on the event; first labels carry it."""
    p = np.zeros(pen.n)
    outside = [s for s in range(pen.n) if s not in pen.event]
    x = min(max(x, 0.0), 1.0)
    if not pen.event:
        p[outside[0]] = 1.0
    elif not outside:
        p[pen.event[0]] = 1.0
    else:
        p[pen.event[0]] = x
        p[outside[0]] = 1.0 - x
    return Belief._built(p)


def penalty_range(pen: Penalty) -> Range:
    """Closed-form min and max of the bound penalty over the simplex.

    All catalog kinds admit exact extrema: the distance and exposure
    kinds peak at vertices, the marginal kinds reduce to a scalar
    function of the event mass whose extrema sit at knots or on
    piece-boundary candidates. Witness beliefs attain the values.
    """
    spec, n = pen.spec, pen.n
    if spec.kind == "zero":
        w = dirac(0, n)
        return Range(0.0, 0.0, w, w)
    if spec.kind == "tv_to_prior":
        b = pen.anchor
        lo_idx = int(np.argmin(b))  # ties: lowest index
        hi = spec.weight * (1.0 - float(b[lo_idx]))
        # the anchor, a game's prior, was checked when the game took it
        return Range(0.0, hi, Belief._built(np.array(b)), dirac(lo_idx, n))
    if spec.kind == "exposure":
        if n == 1:
            w = dirac(0, 1)
            return Range(float(spec.weight), float(spec.weight), w, w)
        other = 0 if pen.type_index != 0 else 1
        return Range(0.0, float(spec.weight), dirac(other, n), dirac(pen.type_index, n))
    # reachable event mass: an empty or a full event pins it
    pinned = 0.0 if not pen.event else 1.0 if len(pen.event) == n else None
    if spec.kind == "piecewise_linear_marginal":
        candidates = [pinned] if pinned is not None else [float(x) for x in pen.knots[0]]
        vals = spec.weight * _polyline(pen.knots, pen.steps, np.array(candidates))
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
        vals = spec.weight * _step(spec.pieces, pen.piece_values, np.array(candidates))
    i_min = int(np.argmin(vals))
    i_max = int(np.argmax(vals))
    return Range(
        min=float(vals[i_min]),
        max=float(vals[i_max]),
        argmin=_belief_with_marginal(candidates[i_min], pen),
        argmax=_belief_with_marginal(candidates[i_max], pen),
    )
