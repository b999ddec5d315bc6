"""Numpy kernel for profile sweeps.

The hot loop of every single-player sweep evaluates, for each profile
in a batch, the best deviation gain any type can realize when off-path
perceptions are chosen as favorably as possible for the profile. The
kernel decodes profile codes into strategies, forms the posterior after
each action, takes the utility rows there (``_utility_rows``, the one
place that reads the utility's kind), fills the off-path rows up to
their caps, and reduces to the gains. The batch axis is vectorized;
types and actions are accumulated in ascending order, the same order
the exact evaluator (``single.profile_report``) uses, so the two agree
bitwise and the test suite asserts exact equality.

The type and action axes are 1 to a few entries wide, so every max
over them, and the test for an off-path action, is a fold over
``range(n)`` or ``range(m)``: a numpy reduction over such a short
trailing axis costs several times more. A profile whose actions are
all on path has no off-path rows, so the off-path fill runs only on
the profiles that have an off-path action.

A type's utility of an action depends only on the posterior, and the
posterior after action ``a`` only on column ``a`` of the profile. A
grid whose points take ``V`` distinct values has ``V**n`` columns, so a
sweep evaluates the utility rows once per column (``_column_table``)
when the columns times the types, ``n * V**n``, are no more than the
codes to sweep; otherwise once per profile and action. A grid over two
actions never takes the table: its ``G`` points take ``V >= G``
distinct values, so the table has at least ``n * G**n`` cells, ``n``
times the whole grid. A 3-action grid at step 0.05 has 21**3 columns
for 231**3 profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .model import PerceptionGame
from .penalties import Penalty, penalty_batch

__all__ = [
    "GamePack",
    "pack_game",
    "decode_profiles",
    "sweep_profile_gains",
]

# float64 cells per chunk of the (profiles, n, m) working arrays
_CHUNK_BUDGET = 32_768

# finite stand-in for "no row yet" in the max folds
_NEG = -1.7976931348623157e308


@dataclass
class GamePack:
    """What the kernel reads of a game: additive games fill ``v`` and
    ``penalties``, tabulated ones ``values`` and ``resolution``."""

    prior: np.ndarray  # (n,)
    u_min: np.ndarray  # (n, m)
    u_max: np.ndarray  # (n, m)
    v: np.ndarray | None = None  # (n, m)
    penalties: tuple[Penalty, ...] = ()  # bound, one per type
    values: np.ndarray | None = None  # (n, m, lattice size)
    resolution: int = 0


def pack_game(game: PerceptionGame) -> GamePack:
    shared = (np.ascontiguousarray(game.prior.p, dtype=np.float64), *game.utility_bounds())
    um = game.utility
    if um.kind == "tabulated_grid":
        return GamePack(*shared, values=np.asarray(um.values, np.float64), resolution=um.resolution)
    return GamePack(
        *shared,
        v=np.ascontiguousarray(um.v, dtype=np.float64),
        penalties=tuple(game.penalty(t) for t in range(game.n)),
    )


def decode_profiles(grid_pts: np.ndarray, idx, n: int) -> np.ndarray:
    """Strategies of the profile codes ``idx``, shape ``idx.shape + (n, m)``.

    Profile ``code`` gives type ``t`` the grid point at base-``G`` digit
    ``t`` of the code, type 0 most significant, so codes in ascending
    order run through the profiles in lexicographic order.
    """
    # np.take gathers rows several times faster than grid_pts[digits]
    return np.take(grid_pts, _digits(idx, grid_pts.shape[0], n), axis=0)


def _digits(idx, G: int, n: int) -> np.ndarray:
    """Base-``G`` digits of the codes ``idx``, shape ``idx.shape + (n,)``,
    type 0 most significant."""
    code = np.array(idx, dtype=np.int64)
    digits = np.empty(code.shape + (n,), dtype=np.int64)
    for t in range(n - 1, -1, -1):
        digits[..., t] = code % G
        code //= G
    return digits


def _utility_rows(cols: np.ndarray, pack: GamePack) -> tuple[np.ndarray, np.ndarray]:
    """``(on, rows)`` for columns ``cols`` of shape ``(..., A, n)``, one
    per action (``A = m``) or one for all (``A = 1``): whether a column
    carries prior mass, and ``rows[..., a, t]``, type ``t``'s utility of
    action ``a`` at its column's posterior. Both sweep paths call this,
    so a table entry and a per-profile entry are bitwise the same."""
    n = pack.prior.shape[0]
    pa = np.zeros(cols.shape[:-1])
    for t in range(n):
        pa = pa + pack.prior[t] * cols[..., t]
    on = pa > 0.0
    denom = np.where(on, pa, 1.0)
    beliefs = cols * pack.prior / denom[..., None]
    if pack.values is not None:
        return on, _interpolate(beliefs, pack.values, pack.resolution)
    pen = np.empty(cols.shape)
    for t in range(n):
        pen[..., t] = penalty_batch(pack.penalties[t], beliefs)
    return on, pack.v.T - pen


def _interpolate(mu: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """``PerceptionGame.u`` of a tabulated game, bitwise, at the beliefs
    ``mu`` (shape ``(..., A, n)``, as in ``_utility_rows``), in the steps
    of ``model._interp_vertices``. A zero-weight vertex may leave the
    lattice: its rank is clipped into range, and it adds ``0 * value``,
    which leaves the sum as skipping it does."""
    n, m, size = values.shape
    d = n - 1
    z = np.clip(k * np.cumsum(mu[..., ::-1], axis=-1)[..., :d][..., ::-1], 0.0, float(k))
    base = np.floor(z)
    frac = z - base
    order = np.argsort(-frac, axis=-1, kind="stable")
    sfrac = np.take_along_axis(frac, order, axis=-1)
    vertex = base.astype(np.int64)
    # values.flat[offset[a, t] + i] is values[t, a, i]
    offset = (np.arange(n) * m + np.arange(m)[:, None]) * size
    weight = 1.0 - sfrac[..., 0] if d else np.ones(mu.shape[:-1])
    acc = np.zeros(mu.shape[:-2] + (m, n))
    for i in range(d + 1):
        rank = np.clip(_lattice_rank(vertex, k), 0, size - 1)
        acc = acc + weight[..., None] * np.take(values, offset + rank[..., None])
        if i < d:
            vertex = vertex + (order[..., i : i + 1] == np.arange(d))
            weight = sfrac[..., i] - (sfrac[..., i + 1] if i + 1 < d else 0.0)
    return acc


def _lattice_rank(suffix: np.ndarray, k: int) -> np.ndarray:
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


def _column_table(
    grid_pts: np.ndarray, pack: GamePack
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every type's utility rows at every column a profile over
    ``grid_pts`` can have: ``(place, on, rows)``.

    A column lists each type's probability of one action, each drawn
    from the ``V`` distinct grid values, so there are ``C = V**n``
    columns, coded base ``V`` with type 0 most significant. Entry
    ``c * m + a`` of ``on`` and ``rows`` is column ``c`` at action ``a``,
    and ``place[t, g, a]`` is what type ``t`` playing grid point ``g``
    adds to that entry's index."""
    n, m = pack.u_min.shape
    vals, rank = np.unique(grid_pts, return_inverse=True)
    V = vals.size
    cols = np.take(vals, _digits(np.arange(V**n), V, n), axis=0)  # (C, n)
    on, rows = _utility_rows(cols[:, None, :], pack)  # (C, 1), (C, m, n)
    rank = rank.reshape(grid_pts.shape)
    place = np.stack([rank * (V ** (n - 1 - t) * m) for t in range(n)])
    place[0] += np.arange(m)
    return place, np.repeat(on[:, 0], m), rows.reshape(-1, n)


def _fill_off_path(
    rows: np.ndarray, sig: np.ndarray, on: np.ndarray, pack: GamePack
) -> np.ndarray:
    """``rows`` with the off-path entries filled as ``profile_report``
    fills them: a type's row at an off-path action it plays is free,
    raised to the type's cap and clamped at ``u_max``; every other
    off-path row takes ``u_min``."""
    m = pack.u_min.shape[1]
    free = (~on[:, None, :]) & (sig > 0.0)
    pinned = np.where(on[:, None, :], rows, pack.u_min[None, :, :])
    held = np.where(free, _NEG, pinned)
    lo = np.where(free, pack.u_min[None, :, :], _NEG)
    m0 = held[:, :, 0]
    free_lo = lo[:, :, 0]
    for a in range(1, m):
        m0 = np.maximum(m0, held[:, :, a])
        free_lo = np.maximum(free_lo, lo[:, :, a])
    cap = np.maximum(m0, free_lo)
    return np.where(
        free,
        np.minimum(pack.u_max[None, :, :], cap[:, :, None]),
        pinned,
    )


def _gains_numpy(
    idx: np.ndarray,
    grid_pts: np.ndarray,
    pack: GamePack,
    table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    B = idx.shape[0]
    n, m = pack.u_min.shape
    digits = _digits(idx, grid_pts.shape[0], n)
    sig = np.take(grid_pts, digits, axis=0)  # (B, n, m)
    if table is None:
        # (B, m, n): each action's column of the profile
        on, rows = _utility_rows(np.ascontiguousarray(sig.transpose(0, 2, 1)), pack)
    else:
        place, on_tab, rows_tab = table
        col = np.take(place[0], digits[:, 0], axis=0)  # (B, m): table entries
        for t in range(1, n):
            col = col + np.take(place[t], digits[:, t], axis=0)
        on = np.take(on_tab, col)
        rows = np.take(rows_tab, col, axis=0)
    rows = rows.transpose(0, 2, 1)  # (B, n, m)
    off = ~on[:, 0]
    for a in range(1, m):
        off = off | ~on[:, a]
    if off.any():
        rows[off] = _fill_off_path(rows[off], sig[off], on[off], pack)
    played = np.zeros((B, n))
    for a in range(m):
        played = played + sig[:, :, a] * rows[:, :, a]
    best = rows[:, :, 0]
    for a in range(1, m):
        best = np.maximum(best, rows[:, :, a])
    gain = best - played
    out = gain[:, 0]
    for t in range(1, n):
        out = np.maximum(out, gain[:, t])
    return out


def sweep_profile_gains(pack: GamePack, grid_pts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Best deviation gain per profile index, under favorable off-path
    perceptions. A gain within tolerance of zero means the profile can
    be completed into an equilibrium.

    Profile codes are decoded by ``decode_profiles``. Work proceeds in
    chunks of ``_CHUNK_BUDGET // (n * m)`` profiles to bound memory.
    Penalties come from ``_column_table`` when it has no more cells
    than ``idx`` has codes, else from each profile's posteriors.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    grid_pts = np.ascontiguousarray(grid_pts, dtype=np.float64)
    n = pack.u_min.shape[0]
    # distinct grid values (np.unique without return_inverse would
    # import numpy.ma), raised as a Python int so a large n cannot overflow
    values = np.count_nonzero(np.diff(np.sort(grid_pts, axis=None))) + 1
    columns = int(values) ** n
    table = _column_table(grid_pts, pack) if columns * n <= idx.shape[0] else None
    chunk = max(1, _CHUNK_BUDGET // pack.u_min.size)
    out = np.empty(idx.shape[0])
    for start in range(0, idx.shape[0], chunk):
        stop = min(start + chunk, idx.shape[0])
        out[start:stop] = _gains_numpy(idx[start:stop], grid_pts, pack, table)
    return out
