"""Numpy kernel for profile sweeps.

The hot loop of every single-player sweep evaluates, for each profile
in a batch, the best deviation gain any type can realize when off-path
perceptions are chosen as favorably as possible for the profile. The
batch axis is vectorized; types and actions are accumulated in
ascending order, the same order the exact evaluator
(``single.profile_report``) uses, so the two agree bitwise and the
test suite asserts exact equality.

Only additive utilities are packed. Tabulated games are evaluated by
``profile_report`` directly (see ``single``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PerceptionGame
from .penalties import MARGINAL_KINDS

__all__ = [
    "GamePack",
    "pack_game",
    "sweep_profile_gains",
]

# float64 cells per chunk of the (profiles, n, m) working arrays
_CHUNK_BUDGET = 32_768

_PEN_ZERO = 0
_PEN_TV = 1
_PEN_EXPOSURE = 2
_PEN_POLYLINE = 3
_PEN_STEP = 4

_KIND_CODE = {
    "zero": _PEN_ZERO,
    "tv_to_prior": _PEN_TV,
    "exposure": _PEN_EXPOSURE,
    "piecewise_linear_marginal": _PEN_POLYLINE,
    "step_marginal": _PEN_STEP,
}

# finite stand-in for "no row yet" in the max() reductions
_NEG = -1.7976931348623157e308


@dataclass
class GamePack:
    """Dense-array image of an additive game, ready for the kernel."""

    prior: np.ndarray  # (n,)
    v: np.ndarray  # (n, m)
    pen_kind: np.ndarray  # (n,) int64 codes
    pen_weight: np.ndarray  # (n,)
    event: np.ndarray  # (n, n) 0/1, row per type
    knots_x: np.ndarray  # (n, K) padded
    knots_y: np.ndarray  # (n, K)
    knot_count: np.ndarray  # (n,) int64
    pieces: np.ndarray  # (n, P, 5) rows (lo, hi, value, inc_lo, inc_hi)
    piece_count: np.ndarray  # (n,) int64
    u_min: np.ndarray  # (n, m)
    u_max: np.ndarray  # (n, m)


def pack_game(game: PerceptionGame) -> GamePack:
    if game.utility.kind != "additive_separable":
        raise ValueError("kernel sweeps support additive utilities only")
    n, m = game.n, game.m
    pen_kind = np.zeros(n, dtype=np.int64)
    pen_weight = np.zeros(n)
    event = np.zeros((n, n))
    max_knots = 2
    max_pieces = 1
    for t in range(n):
        spec = game.penalty_of(t)
        if spec.knots:
            max_knots = max(max_knots, len(spec.knots))
        if spec.pieces:
            max_pieces = max(max_pieces, len(spec.pieces))
    knots_x = np.zeros((n, max_knots))
    knots_y = np.zeros((n, max_knots))
    knot_count = np.zeros(n, dtype=np.int64)
    pieces = np.zeros((n, max_pieces, 5))
    piece_count = np.zeros(n, dtype=np.int64)
    for t in range(n):
        spec = game.penalty_of(t)
        pen_kind[t] = _KIND_CODE[spec.kind]
        pen_weight[t] = spec.weight
        if spec.kind in MARGINAL_KINDS:
            event[t, game.mask_of(t)] = 1.0
        if spec.knots:
            cnt = len(spec.knots)
            knot_count[t] = cnt
            for j, (x, y) in enumerate(spec.knots):
                knots_x[t, j] = x
                knots_y[t, j] = y
        if spec.pieces:
            cnt = len(spec.pieces)
            piece_count[t] = cnt
            for j, (lo, hi, val, il, ih) in enumerate(spec.pieces):
                pieces[t, j] = (lo, hi, val, 1.0 if il else 0.0, 1.0 if ih else 0.0)
    u_min, u_max = game.utility_bounds()
    return GamePack(
        prior=np.ascontiguousarray(game.prior.p, dtype=np.float64),
        v=np.ascontiguousarray(game.utility.v, dtype=np.float64),
        pen_kind=pen_kind,
        pen_weight=pen_weight,
        event=event,
        knots_x=knots_x,
        knots_y=knots_y,
        knot_count=knot_count,
        pieces=pieces,
        piece_count=piece_count,
        u_min=np.ascontiguousarray(u_min),
        u_max=np.ascontiguousarray(u_max),
    )


def _penalty_batch(pack: GamePack, t: int, post: np.ndarray) -> np.ndarray:
    """Penalty of type ``t`` at each posterior in ``post`` (B, n)."""
    kind = int(pack.pen_kind[t])
    w = float(pack.pen_weight[t])
    n = pack.prior.shape[0]
    B = post.shape[0]
    if kind == _PEN_ZERO:
        return np.zeros(B)
    if kind == _PEN_TV:
        acc = np.zeros(B)
        for s in range(n):
            acc = acc + np.abs(post[:, s] - pack.prior[s])
        return w * 0.5 * acc
    if kind == _PEN_EXPOSURE:
        return w * post[:, t]
    x = np.zeros(B)
    for s in range(n):
        x = x + pack.event[t, s] * post[:, s]
    if kind == _PEN_POLYLINE:
        cnt = int(pack.knot_count[t])
        kx = pack.knots_x[t, :cnt]
        ky = pack.knots_y[t, :cnt]
        j = np.clip(np.searchsorted(kx, x, side="left") - 1, 0, cnt - 2)
        frac = (x - kx[j]) / (kx[j + 1] - kx[j])
        return w * (ky[j] + frac * (ky[j + 1] - ky[j]))
    cnt = int(pack.piece_count[t])
    val = np.zeros(B)
    assigned = np.zeros(B, dtype=bool)
    for p in range(cnt):
        lo, hi, pv, il, ih = pack.pieces[t, p]
        lo_ok = (x >= lo) if il == 1.0 else (x > lo)
        hi_ok = (x <= hi) if ih == 1.0 else (x < hi)
        match = lo_ok & hi_ok & ~assigned
        val[match] = pv
        assigned |= match
    return w * val


def _gains_numpy(idx: np.ndarray, grid_pts: np.ndarray, pack: GamePack) -> np.ndarray:
    B = idx.shape[0]
    G = grid_pts.shape[0]
    n = pack.prior.shape[0]
    m = grid_pts.shape[1]
    digits = np.empty((B, n), dtype=np.int64)
    code = idx.copy()
    for t in range(n - 1, -1, -1):
        digits[:, t] = code % G
        code //= G
    sig = grid_pts[digits]  # (B, n, m)
    pa = np.zeros((B, m))
    for t in range(n):
        pa = pa + pack.prior[t] * sig[:, t, :]
    on = pa > 0.0
    denom = np.where(on, pa, 1.0)
    post = pack.prior[None, :, None] * sig / denom[:, None, :]  # (B, n, m)
    rows = np.empty((B, n, m))
    for t in range(n):
        pen = np.empty((B, m))
        for a in range(m):
            pen[:, a] = _penalty_batch(pack, t, post[:, :, a])
        rows[:, t, :] = pack.v[t] - pen
    free = (~on[:, None, :]) & (sig > 0.0)
    pinned = np.where(on[:, None, :], rows, pack.u_min[None, :, :])
    m0 = np.where(free, _NEG, pinned).max(axis=2)
    free_lo = np.where(free, pack.u_min[None, :, :], _NEG).max(axis=2)
    cap = np.maximum(m0, free_lo)
    rows = np.where(
        free,
        np.minimum(pack.u_max[None, :, :], cap[:, :, None]),
        pinned,
    )
    played = np.zeros((B, n))
    for a in range(m):
        played = played + sig[:, :, a] * rows[:, :, a]
    best = rows.max(axis=2)
    return (best - played).max(axis=1)


def sweep_profile_gains(pack: GamePack, grid_pts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Best deviation gain per profile index, under favorable off-path
    perceptions. A gain within tolerance of zero means the profile can
    be completed into an equilibrium.

    Profile ``code`` gives type ``t`` the grid point at base-``G`` digit
    ``t`` of the code, type 0 most significant. Work proceeds in chunks
    of ``_CHUNK_BUDGET // (n * m)`` profiles to bound memory.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    grid_pts = np.ascontiguousarray(grid_pts, dtype=np.float64)
    chunk = max(1, _CHUNK_BUDGET // pack.v.size)
    out = np.empty(idx.shape[0])
    for start in range(0, idx.shape[0], chunk):
        stop = min(start + chunk, idx.shape[0])
        out[start:stop] = _gains_numpy(idx[start:stop], grid_pts, pack)
    return out
