"""Probability simplex primitives.

Beliefs are points of the probability simplex over a finite label set.
This module provides the point type, exact rational grids on the simplex
and total variation distance. Everything downstream (penalties, games,
solvers) works in terms of these primitives.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator, Sequence

import numpy as np

# Tolerance for probability-mass bookkeeping (sums, nonnegativity).
SUM_TOL = 1e-12
# Tolerance for weak inequality comparisons (best replies, ties).
WEAK_TOL = 1e-9

__all__ = [
    "SUM_TOL",
    "WEAK_TOL",
    "Belief",
    "dirac",
    "uniform",
    "tv_distance",
    "SimplexGrid",
]


class Belief:
    """A probability vector over ``n`` labels, stored read-only.

    Arithmetic never happens on Belief objects directly; call sites pull
    the underlying array out via ``np.asarray`` or ``.p``.
    """

    __slots__ = ("p",)

    def __init__(self, p: Sequence[float] | np.ndarray):
        arr = np.array(p, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("belief must be a nonempty 1-d probability vector")
        if arr.min() < -SUM_TOL:
            raise ValueError(f"belief has negative mass: {arr.min()!r}")
        total = float(arr.sum())
        if abs(total - 1.0) > WEAK_TOL:
            raise ValueError(f"belief mass sums to {total!r}, expected 1")
        arr[arr < 0.0] = 0.0
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

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
    return Belief(p)


def uniform(n: int) -> Belief:
    return Belief(np.full(n, 1.0 / n))


def tv_distance(p, q) -> float:
    """Total variation distance, half the L1 distance."""
    a = np.asarray(p, dtype=np.float64)
    b = np.asarray(q, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("distributions have different lengths")
    return 0.5 * float(np.abs(a - b).sum())


class SimplexGrid:
    """All points of the simplex with coordinates ``i/resolution``.

    Points are generated in lexicographic order of the integer
    compositions (first coordinate ascending), so "first point" is a
    deterministic tie-break everywhere grids are scanned.
    """

    def __init__(self, n: int, resolution: int):
        if n < 1:
            raise ValueError("need at least one label")
        self.n = n
        self.resolution = int(resolution)
        if self.resolution < 1:
            raise ValueError("resolution must be a positive integer")
        self._points: np.ndarray | None = None

    def __len__(self) -> int:
        return comb(self.resolution + self.n - 1, self.n - 1)

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
