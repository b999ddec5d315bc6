"""Probability simplex primitives.

Beliefs are points of the probability simplex over a finite label set.
This module provides the point type, exact rational grids on the simplex
and the rank of a grid point, total variation distance, the observer's
Bayes update (one column or a batch), its bounds over a box of masses
(``share_pair``, on low and high ends stacked in one array) and the
consistency check built on it, and the range record of a function over
the simplex. Everything downstream (penalties, games, solvers) works in
terms of these primitives; ``distributions`` is the one check of
priors, beliefs, strategies and perception maps (``_stored`` keeps the
rows the solvers build from checked inputs, through ``Belief._built``
and ``dirac`` for beliefs), ``posterior`` the one scalar Bayes update
and ``_posteriors`` its one batched form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

import numpy as np

# Tolerance for probability-mass bookkeeping (sums, nonnegativity).
SUM_TOL = 1e-12
# Tolerance for weak inequality comparisons (best replies, ties).
WEAK_TOL = 1e-9
# Relative widening of certified bounds, far above the few float64
# roundings (about 1e-16 each) that a batched evaluation accumulates.
BOUND_SLACK = 1e-12
# ``share_pair`` widens the low corner of a share down, the high one up
_WIDEN = np.array([1.0 - BOUND_SLACK, 1.0 + BOUND_SLACK])


def _check_tol(tol: float, nonnegative: bool = False, name: str = "tol") -> None:
    """Raise ``ValueError`` naming ``name`` when ``tol`` is NaN (it fails
    every comparison, this one too), or negative where ``nonnegative``."""
    if not tol >= (0.0 if nonnegative else -np.inf):
        raise ValueError(f"{name} must be {'a nonnegative number' if nonnegative else 'a number'}, got {tol!r}")


__all__ = [
    "SUM_TOL",
    "WEAK_TOL",
    "BOUND_SLACK",
    "distributions",
    "Belief",
    "dirac",
    "uniform",
    "tv_distance",
    "posterior",
    "share_pair",
    "consistency_errors",
    "Range",
    "SimplexGrid",
    "lattice_rank",
]


def _stored(arr: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``arr`` itself, read-only, with its shape checked and nothing else:
    how ``distributions`` and every result object keep their rows."""
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def distributions(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A read-only float64 copy of ``values`` whose rows on the last axis
    are probability distributions: ``shape`` as given (``_stored``), every
    entry finite and at least ``-SUM_TOL`` (stored as 0.0 when below 0),
    and each row's mass within ``WEAK_TOL`` of 1. A failure raises
    ``ValueError`` naming ``what``."""
    arr = _stored(np.array(values, dtype=np.float64), shape, what)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has a non-finite entry")
    if (arr < -SUM_TOL).any():
        raise ValueError(f"{what} has negative mass: {arr.min()!r}")
    totals = arr.sum(axis=-1)
    off = np.abs(totals - 1.0)
    if (off > WEAK_TOL).any():
        total = float(totals.flat[np.argmax(off)])
        raise ValueError(f"{what} mass sums to {total!r}, expected 1")
    return _stored(np.where(arr < 0.0, 0.0, arr), shape, what)


class Belief:
    """A probability vector over ``n`` labels, stored read-only.

    Arithmetic never happens on Belief objects directly; call sites pull
    the underlying array out via ``np.asarray`` or ``.p``.
    """

    __slots__ = ("p",)

    def __init__(self, p: Sequence[float] | np.ndarray):
        arr = np.asarray(p, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("belief must be a nonempty 1-d probability vector")
        object.__setattr__(self, "p", distributions(arr, arr.shape, "belief"))

    @classmethod
    def _built(cls, p: np.ndarray) -> "Belief":
        """The belief of the float64 row ``p``, built from checked inputs:
        kept read-only by ``_stored`` and not checked again."""
        out = object.__new__(cls)
        object.__setattr__(out, "p", _stored(p, p.shape, "belief"))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Belief is immutable")

    @property
    def n(self) -> int:
        return self.p.size

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.p.astype(dtype)
        return self.p

    def __getitem__(self, i: int) -> float:
        return float(self.p[i])

    def __len__(self) -> int:
        return self.p.size

    def __iter__(self) -> Iterator[float]:
        return iter(self.p.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, Belief):
            return bool(np.array_equal(self.p, other.p))
        return NotImplemented

    __hash__ = None  # mutable-array semantics; never use as a dict key

    def isclose(self, other: "Belief", tol: float = WEAK_TOL) -> bool:
        return tv_distance(self, other) <= tol

    def __repr__(self) -> str:
        body = ", ".join(repr(float(x)) for x in self.p)
        return f"Belief([{body}])"


def dirac(i: int, n: int) -> Belief:
    """Point mass on label ``i`` in a space of ``n`` labels."""
    if not 0 <= i < n:
        raise ValueError(f"label index {i} out of range for n={n}")
    p = np.zeros(n)
    p[i] = 1.0
    return Belief._built(p)


def uniform(n: int) -> Belief:
    return Belief(np.full(n, 1.0 / n))


def tv_distance(p, q) -> float:
    """Total variation distance, half the L1 distance."""
    a = np.asarray(p, dtype=np.float64)
    b = np.asarray(q, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("distributions have different lengths")
    return 0.5 * float(np.abs(a - b).sum())


def posterior(prior: np.ndarray, column: np.ndarray) -> np.ndarray | None:
    """Bayes update of an observer holding ``prior`` after an action that
    type ``t`` plays with probability ``column[t]``, or None when no mass
    reaches the action (0/0: the action is off path): the one-column case
    of ``_posteriors``, the sweep kernel's batched update."""
    on, beliefs = _posteriors(prior, np.asarray(column)[:, None, None])
    return beliefs[:, 0, 0] if on[0, 0] else None


def _posteriors(prior: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Bayes update of an observer holding ``prior`` at a batch of
    columns ``cols`` of shape ``(n, A, B)``, each column type ``t``'s
    probabilities of one action: ``(on, beliefs)``, whether a column
    carries prior mass, shape ``(A, B)``, and the posterior over types
    there, shape ``(n, A, B)`` (where the column carries none, the column
    itself scaled by the prior). The mass is summed in type order from
    0.0. ``prior`` is one prior ``(n,)``, or one per column ``(n, 1,
    B)``; every step is elementwise, so a column's posterior is the one
    its own prior gives, bit for bit. The one Bayes body: ``posterior``
    and ``consistency_errors`` are its cases, and the sweep kernel and
    the exact oracle update through it."""
    q = np.zeros(cols.shape[1:])
    for t in range(prior.shape[0]):
        q += prior[t] * cols[t]
    on = q > 0.0
    beliefs = cols * prior.reshape(prior.shape + (1,) * (cols.ndim - prior.ndim))
    beliefs /= np.where(on, q, 1.0)
    return on, beliefs


def share_pair(part: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Bounds on the posterior mass ``part / (part + rest)`` of a set of
    types after an action, when the prior mass those types send to it
    lies in ``[part[0], part[1]]`` and the other types' in ``[rest[0],
    rest[1]]`` (the low ends stacked on the high ends, all nonnegative):
    ``[lo, hi]``, stacked the same way, from one division for both
    corners. The share rises with ``part`` and falls with ``rest``, so
    the corners give the bounds; a corner with no mass at all gives 0.
    Both bounds are widened by ``BOUND_SLACK`` relative, so that they
    hold the share as the batched update rounds it too."""
    den = part + rest[::-1]
    # a corner with no mass keeps its sum, 0
    share = np.divide(part, den, out=den, where=den > 0.0)
    share *= _WIDEN.reshape((2,) + (1,) * (den.ndim - 1))
    return share


def consistency_errors(
    prior: np.ndarray, sigma: np.ndarray, tau: np.ndarray, tol: float
) -> list[tuple[int, int, float]]:
    """``(t, a, err)`` for every on-path action ``a`` and type ``t`` whose
    perception ``tau[t, a]`` lies more than ``tol`` in total variation
    from the posterior of ``prior`` under the strategy ``sigma`` (types
    by actions), in action-major order."""
    on, beliefs = _posteriors(prior, sigma[:, :, None])
    out: list[tuple[int, int, float]] = []
    for a in np.flatnonzero(on[:, 0]).tolist():
        for t in range(tau.shape[0]):
            err = tv_distance(tau[t, a], beliefs[:, a, 0])
            if err > tol:
                out.append((t, a, float(err)))
    return out


@dataclass(frozen=True)
class Range:
    """Exact range of a function over the whole simplex, with witness
    beliefs attaining the minimum and the maximum."""

    min: float
    max: float
    argmin: Belief
    argmax: Belief


class SimplexGrid:
    """All points of the simplex with coordinates ``i/resolution``.

    Points are generated in lexicographic order of the integer
    compositions (first coordinate ascending), so "first point" is a
    deterministic tie-break everywhere grids are scanned. ``resolution``
    is a Python or numpy integer of at least 1, not a bool (2.5, 2.0 and
    True raise ``ValueError``): the library's one resolution rule.
    """

    def __init__(self, n: int, resolution: int):
        if n < 1:
            raise ValueError("need at least one label")
        if isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer)) or resolution < 1:
            raise ValueError("resolution must be a positive integer")
        self.n = n
        self.resolution = int(resolution)
        self._points: np.ndarray | None = None

    @property
    def size(self) -> int:
        """The number of points, which ``len`` gives too when it fits in
        an index-sized integer."""
        return comb(self.resolution + self.n - 1, self.n - 1)

    def __len__(self) -> int:
        return self.size

    def compositions(self) -> Iterator[tuple[int, ...]]:
        """Integer coordinate vectors summing to ``resolution``."""
        k, n = self.resolution, self.n
        if n == 1:
            yield (k,)
            return
        # stars and bars: n-1 bar positions among k+n-1 slots
        for bars in combinations(range(k + n - 1), n - 1):
            parts = []
            prev = -1
            for b in bars:
                parts.append(b - prev - 1)
                prev = b
            parts.append(k + n - 2 - prev)
            yield tuple(parts)

    def points(self) -> np.ndarray:
        """Array of shape (len(self), n), cached after first build."""
        if self._points is None:
            k = float(self.resolution)
            pts = np.array(list(self.compositions()), dtype=np.float64)
            pts /= k
            pts.setflags(write=False)
            self._points = pts
        return self._points

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.points())

    def __repr__(self) -> str:
        return f"SimplexGrid(n={self.n}, resolution={self.resolution})"


def lattice_rank(suffix: np.ndarray, k: int) -> np.ndarray:
    """Index in ``SimplexGrid(n, k).compositions()`` of the composition
    ``c`` whose suffix sums ``c[j] + ... + c[n - 1]``, ``j = 1 .. n - 1``,
    are ``suffix`` (integers, shape ``(..., n - 1)``): the lattice size
    less one, less the number of compositions after ``c``, which is one
    binomial per suffix sum."""
    d = suffix.shape[-1]
    rank = np.full(suffix.shape[:-1], comb(k + d, d) - 1, dtype=np.int64)
    for j in range(d):
        # comb(suffix[..., j] + d - 1 - j, d - j), exactly in integers
        top = suffix[..., j] + (d - 1 - j)
        term = np.ones_like(top)
        for i in range(d - j):
            term = term * (top - i) // (i + 1)
        rank = rank - term
    return rank
