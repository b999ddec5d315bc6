"""Numpy kernel for profile sweeps.

The hot loop of every single-player sweep evaluates, for each profile
in a batch, the best deviation gain any type can realize when off-path
perceptions are chosen as favorably as possible for the profile. The
kernel decodes profile codes into strategies, forms the posterior after
each action, takes each type's penalty rows from
``penalties.penalty_batch``, fills the off-path rows up to their caps,
and reduces to the gains. The batch axis is vectorized; types and
actions are accumulated in ascending order, the same order the exact
evaluator (``single.profile_report``) uses, so the two agree bitwise
and the test suite asserts exact equality.

The type and action axes are 1 to a few entries wide, so every max
over them, and the test for an off-path action, is a fold over
``range(n)`` or ``range(m)``: a numpy reduction over such a short
trailing axis costs several times more. A profile whose actions are
all on path has no off-path rows, so the off-path fill runs only on
the profiles that have an off-path action.

A type's penalty depends only on the posterior, and the posterior
after action ``a`` only on column ``a`` of the profile. A grid whose
points take ``V`` distinct values has ``V**n`` columns, so a sweep
evaluates each type's penalty once per column (``_column_table``) when
that table has no more cells, ``n * V**n``, than there are codes to
sweep; otherwise once per profile and action. A grid over two actions
never takes the table: its ``G`` points take ``V >= G`` distinct
values, so the table has at least ``n * G**n`` cells, ``n`` times the
whole grid. A 3-action grid at step 0.05 has 21**3 columns for 231**3
profiles.

Only additive utilities are packed. Tabulated games are evaluated by
``profile_report`` directly (see ``single``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PerceptionGame
from .penalties import PenaltySpec, knot_arrays, penalty_batch

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
    """What the kernel reads of an additive game."""

    prior: np.ndarray  # (n,)
    v: np.ndarray  # (n, m)
    u_min: np.ndarray  # (n, m)
    u_max: np.ndarray  # (n, m)
    penalties: tuple[PenaltySpec, ...]  # one per type
    events: tuple[np.ndarray | None, ...]  # event type indices of the marginal kinds
    knots: tuple[tuple[np.ndarray, np.ndarray] | None, ...]  # knot_arrays of polylines


def pack_game(game: PerceptionGame) -> GamePack:
    if game.utility.kind != "additive_separable":
        raise ValueError("kernel sweeps support additive utilities only")
    penalties = tuple(game.penalty_of(t) for t in range(game.n))
    masks = [game.mask_of(t) for t in range(game.n)]
    u_min, u_max = game.utility_bounds()
    return GamePack(
        prior=np.ascontiguousarray(game.prior.p, dtype=np.float64),
        v=np.ascontiguousarray(game.utility.v, dtype=np.float64),
        u_min=u_min,
        u_max=u_max,
        penalties=penalties,
        events=tuple(None if mask is None else np.flatnonzero(mask) for mask in masks),
        knots=tuple(knot_arrays(spec) if spec.knots else None for spec in penalties),
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


def _column_table(
    grid_pts: np.ndarray, pack: GamePack
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every type's penalty at every column a profile over ``grid_pts``
    can have: ``(place, on, pen)``.

    A column lists each type's probability of one action, each drawn
    from the ``V`` distinct grid values, so there are ``C = V**n``
    columns, coded base ``V`` with type 0 most significant. ``on[c]``
    says whether column ``c`` carries prior mass and ``pen[c, t]`` is
    type ``t``'s penalty at its posterior, computed with the
    expressions ``_gains_numpy`` uses per profile, so the entries are
    bitwise the same. ``place[t, g, a]`` is what type ``t`` playing
    grid point ``g`` adds to the code of column ``a``.
    """
    n = pack.v.shape[0]
    vals, rank = np.unique(grid_pts, return_inverse=True)
    V = vals.size
    cols = np.take(vals, _digits(np.arange(V**n), V, n), axis=0)  # (C, n)
    pa = np.zeros(cols.shape[0])
    for t in range(n):
        pa = pa + pack.prior[t] * cols[:, t]
    on = pa > 0.0
    denom = np.where(on, pa, 1.0)
    beliefs = cols * pack.prior / denom[:, None]
    pen = np.empty(cols.shape)
    for t in range(n):
        pen[:, t] = penalty_batch(
            pack.penalties[t], beliefs, pack.prior, t, pack.events[t], pack.knots[t]
        )
    rank = rank.reshape(grid_pts.shape)
    place = np.stack([rank * V ** (n - 1 - t) for t in range(n)])
    return place, on, pen


def _fill_off_path(
    rows: np.ndarray, sig: np.ndarray, on: np.ndarray, pack: GamePack
) -> np.ndarray:
    """``rows`` with the off-path entries filled as ``profile_report``
    fills them: a type's row at an off-path action it plays is free,
    raised to the type's cap and clamped at ``u_max``; every other
    off-path row takes ``u_min``."""
    m = pack.v.shape[1]
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
    n, m = pack.v.shape
    digits = _digits(idx, grid_pts.shape[0], n)
    sig = np.take(grid_pts, digits, axis=0)  # (B, n, m)
    if table is None:
        pa = np.zeros((B, m))
        for t in range(n):
            pa = pa + pack.prior[t] * sig[:, t, :]
        on = pa > 0.0
        denom = np.where(on, pa, 1.0)
        # (B, m, n): the posterior after each action
        beliefs = np.ascontiguousarray(sig.transpose(0, 2, 1)) * pack.prior / denom[:, :, None]
        rows = np.empty((B, n, m))
        for t in range(n):
            pen = penalty_batch(
                pack.penalties[t], beliefs, pack.prior, t, pack.events[t], pack.knots[t]
            )
            rows[:, t, :] = pack.v[t] - pen
    else:
        place, on_tab, pen_tab = table
        col = np.take(place[0], digits[:, 0], axis=0)  # (B, m): column codes
        for t in range(1, n):
            col = col + np.take(place[t], digits[:, t], axis=0)
        on = np.take(on_tab, col)
        rows = pack.v - np.take(pen_tab, col, axis=0).transpose(0, 2, 1)
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
    n = pack.v.shape[0]
    # distinct grid values (np.unique without return_inverse would
    # import numpy.ma), raised as a Python int so a large n cannot overflow
    values = np.count_nonzero(np.diff(np.sort(grid_pts, axis=None))) + 1
    columns = int(values) ** n
    table = _column_table(grid_pts, pack) if columns * n <= idx.shape[0] else None
    chunk = max(1, _CHUNK_BUDGET // pack.v.size)
    out = np.empty(idx.shape[0])
    for start in range(0, idx.shape[0], chunk):
        stop = min(start + chunk, idx.shape[0])
        out[start:stop] = _gains_numpy(idx[start:stop], grid_pts, pack, table)
    return out
