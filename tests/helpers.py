"""Independent reference computations for agreement tests.

The reference computations are written against raw arrays on purpose:
they call nothing in the package's penalty or solver modules, so a bug
there cannot cancel out of both sides of a comparison. Where a test
needs exact tie agreement (pooling), the closed forms below use the
same arithmetic expressions the package derives, written out directly.
The exceptions are the two-player solver's former per-pair bodies,
``reference_action_values`` (the scalar action-value loop),
``reference_pure_pair_report`` (the per-pair report with its scalar
penalty loop), ``reference_verify_values_2p`` (the verifier's loop over
types) and ``reference_pure_bne`` (the BNE loop over pairs),
kept to pin the one fold, the batched reports and the batched BNE
screen bit for bit; they call the package's ``posterior``,
``payoff_and_gain``, the game's ``w`` and ``penalty_range_of`` and the
two-player strategy and perception types. Another is
``reference_mixed_search``, the mixed search's former full sweep,
kept to pin the results of the cell screen and of
``reduce_profile_gains``, so it reduces the kernel's full gains
(``sweep_profile_gains``) itself and confirms with ``profile_report``.
``reference_screen``, ``reference_cell_lower_bound`` and
``reference_penalty_bounds`` are the cell screen written one step at a
time, kept to pin the screen's kept cells, seeds and bounds bit for
bit: they bound every type's penalty on its own, loop over knots, gaps
and coordinates, and split one type at a time. They take boxes as the
package does and call its ``share_pair`` (on stacked corners), grid
tree and cell codes, and the former polyline and step evaluators below. ``reference_penalty_value`` and
``reference_penalty_batch`` (with ``reference_piecewise_linear_value``,
``reference_step_value`` and ``reference_polyline_batch``) are the
penalty evaluators as they were, a scalar and a batched twin of each
kind, kept to pin the one body per kind bit for bit.
``reference_profile_report`` is the exact oracle with its former own
off-path fill (``reference_free_rows``), kept to pin the fill it now
shares with the kernel; it calls the game's ``u`` and ``u_range``,
``posterior`` and ``payoff_and_gain``. ``reference_pooling_check`` is
``pooling_check``'s former range reads and witness loop, kept to pin
the pack-based sets and witness perceptions bit for bit; it calls the
game's ``u``, ``u_range`` and ``chi`` and ``verify_equilibrium``.
``reference_check_separation_margin`` is the margin check's former
per-row loop, which bound and evaluated both Dirac penalties of every
row, kept to pin the shared evaluations bit for bit; it calls the
package's ``_dirac_marginal_penalty``. The game
factories at the end only build inputs: ``tabulate`` copies a game's
own values onto a lattice, ``random_two_player_game`` draws a seeded
two-player game, and the ``hypothesis`` strategies draw random catalog
games.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import numpy as np
from hypothesis import strategies as st

from perception_games.experiments import MarginReport, _dirac_marginal_penalty
from perception_games.kernels import (
    _CHUNK_BUDGET,
    _LEAF,
    _SPLIT_TYPES,
    _codes,
    decode_profiles,
    grid_tree,
    pack_game,
    sweep_profile_gains,
)
from perception_games.model import ActionSpace, PlayerSpec, TwoPlayerPerceptionGame, TypeSpace
from perception_games.penalties import KINDS, PenaltySpec
from perception_games.simplex import BOUND_SLACK, SimplexGrid, posterior, share_pair
from perception_games.single import (
    MixedSearchResult,
    PerceptionMap,
    Strategy,
    payoff_and_gain,
    profile_report,
    verify_equilibrium,
)
from perception_games.testing import _random_penalty, dyadic_prior
from perception_games.two_player import (
    TwoPlayerEquilibriumReport,
    TwoPlayerPerceptions,
    TwoPlayerStrategy,
    _beliefs,
)


# --- penalty evaluation, reimplemented -------------------------------


def pen_value(pen: dict, mu: np.ndarray, prior: np.ndarray, t: int) -> float:
    kind = pen["kind"]
    if kind == "zero":
        return 0.0
    if kind == "tv_to_prior":
        return pen["weight"] * 0.5 * float(np.abs(np.asarray(mu) - prior).sum())
    if kind == "exposure":
        return pen["weight"] * float(mu[t])
    x = float(np.asarray(mu)[pen["mask"]].sum())
    if kind == "piecewise_linear_marginal":
        xs = np.array([k[0] for k in pen["knots"]])
        ys = np.array([k[1] for k in pen["knots"]])
        return pen["weight"] * float(np.interp(x, xs, ys))
    if kind == "step_marginal":
        for lo, hi, val, il, ih in pen["pieces"]:
            if (x >= lo if il else x > lo) and (x <= hi if ih else x < hi):
                return pen["weight"] * float(val)
        return 0.0
    raise ValueError(kind)


def pen_bounds(pen: dict, prior: np.ndarray, n: int) -> tuple[float, float]:
    """(min, max) of the penalty over the belief simplex."""
    kind = pen["kind"]
    if kind == "zero":
        return 0.0, 0.0
    if kind == "tv_to_prior":
        return 0.0, pen["weight"] * (1.0 - float(prior.min()))
    if kind == "exposure":
        if n == 1:
            return float(pen["weight"]), float(pen["weight"])
        return 0.0, float(pen["weight"])
    inside = int(pen["mask"].sum())
    if inside == 0:
        xs = [0.0]
    elif inside == n:
        xs = [1.0]
    elif kind == "piecewise_linear_marginal":
        xs = [k[0] for k in pen["knots"]]
    else:
        cuts = sorted({0.0, 1.0} | {p[0] for p in pen["pieces"]} | {p[1] for p in pen["pieces"]})
        xs = list(cuts) + [0.5 * (a + b) for a, b in zip(cuts, cuts[1:]) if b > a]
    vals = []
    for x in xs:
        mu = np.zeros(n)
        ins = np.flatnonzero(pen["mask"])
        outs = np.flatnonzero(~pen["mask"])
        if ins.size and outs.size:
            mu[ins[0]] = x
            mu[outs[0]] = 1.0 - x
        elif ins.size:
            mu[ins[0]] = 1.0
        else:
            mu[outs[0]] = 1.0
        vals.append(pen_value(pen, mu, prior, 0))
    return float(min(vals)), float(max(vals))


def spec_to_dict(spec, labels: tuple[str, ...]) -> dict:
    """Flatten a package PenaltySpec into the raw dict used here."""
    out = {"kind": spec.kind, "weight": float(spec.weight)}
    if spec.knots is not None:
        out["knots"] = [(float(x), float(y)) for x, y in spec.knots]
    if spec.pieces is not None:
        out["pieces"] = [tuple(p) for p in spec.pieces]
    if spec.marginal_over is not None:
        out["mask"] = np.array([lab in spec.marginal_over for lab in labels])
    return out


# --- the penalty evaluators as scalar and batched twins ---------------


def reference_piecewise_linear_value(knots_x: np.ndarray, knots_y: np.ndarray, x: float) -> float:
    """Evaluate the knot polyline at ``x``, linear on each segment."""
    j = int(np.searchsorted(knots_x, x, side="left")) - 1
    j = min(max(j, 0), len(knots_x) - 2)
    t = (x - knots_x[j]) / (knots_x[j + 1] - knots_x[j])
    return float(knots_y[j] + t * (knots_y[j + 1] - knots_y[j]))


def reference_step_value(pieces, x: float) -> float:
    """First matching piece wins; unmatched x has value 0."""
    for lo, hi, v, il, ih in pieces:
        lo_ok = (x >= lo) if il else (x > lo)
        hi_ok = (x <= hi) if ih else (x < hi)
        if lo_ok and hi_ok:
            return float(v)
    return 0.0


def reference_penalty_value(pen, mu) -> float:
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
        return spec.weight * reference_piecewise_linear_value(*pen.knots, x)
    return spec.weight * reference_step_value(spec.pieces, x)


def reference_penalty_batch(pen, post: np.ndarray) -> np.ndarray:
    """``penalty_value``, bitwise, at each belief in ``post``: types on
    the first axis, so ``post[s]`` holds every belief's mass on type
    ``s`` and the result has shape ``post.shape[1:]``."""
    spec = pen.spec
    w = spec.weight
    if spec.kind == "zero":
        return np.zeros(post.shape[1:])
    if spec.kind == "tv_to_prior":
        acc = np.zeros(post.shape[1:])
        for s in range(post.shape[0]):
            acc = acc + np.abs(post[s] - pen.anchor[s])
        return w * 0.5 * acc
    if spec.kind == "exposure":
        return w * post[pen.type_index]
    x = np.zeros(post.shape[1:])
    for s in pen.event:
        x = x + post[s]
    if spec.kind == "piecewise_linear_marginal":
        return w * reference_polyline_batch(pen, x)
    val = np.zeros(x.shape)
    assigned = np.zeros(x.shape, dtype=bool)
    for lo, hi, pv, il, ih in spec.pieces:
        lo_ok = (x >= lo) if il else (x > lo)
        hi_ok = (x <= hi) if ih else (x < hi)
        match = lo_ok & hi_ok & ~assigned
        val[match] = pv
        assigned |= match
    return w * val


def reference_polyline_batch(pen, x: np.ndarray) -> np.ndarray:
    """The unweighted knot polyline at each event mass in ``x``."""
    kx, ky = pen.knots
    dx, dy = pen.steps
    # the segment of x: the number of interior knots strictly below
    # it, which is searchsorted(kx, x, "left") - 1 clipped to the
    # segments, since the knots strictly increase
    j = np.zeros(x.shape, dtype=np.int64)
    for k in kx[1:-1].tolist():
        j += x > k
    frac = (x - np.take(kx, j)) / np.take(dx, j)
    return np.take(ky, j) + frac * np.take(dy, j)


# --- the exact oracle with its own off-path fill ------------------------


def reference_free_rows(rows, free, low, high):
    """``(rows, clamped)``: each type's free rows (``free``, off path
    and played) raised to the type's cap, the best of its other rows
    and of its free rows' ``low``, and clamped at their ``high``, one
    type and action at a time."""
    rows = rows.copy()
    clamped = False
    for t in range(rows.shape[0]):
        frees = np.flatnonzero(free[t])
        if frees.size:
            others = np.flatnonzero(~free[t])
            m0 = rows[t, others].max() if others.size else -np.inf
            cap = m0
            for a in frees:
                cap = max(cap, low[t, a])
            for a in frees:
                rows[t, a] = min(high[t, a], cap)
                if high[t, a] > cap:
                    clamped = True
    return rows, clamped


def reference_profile_report(game, sigma):
    """``(rows, tau, clamped, payoffs, gains)`` of ``profile_report``,
    with the off-path rows filled by ``reference_free_rows``."""
    sigma = np.asarray(sigma, dtype=np.float64)
    n, m = game.n, game.m
    posts = [posterior(game.prior.p, sigma[:, a]) for a in range(m)]
    rows = np.empty((n, m))
    low = np.empty((n, m))
    high = np.empty((n, m))
    tau = np.empty((n, m, n))
    free = np.zeros((n, m), dtype=bool)
    for a in range(m):
        if posts[a] is not None:
            for t in range(n):
                rows[t, a] = game.u(t, a, posts[a])
                tau[t, a] = posts[a]
        else:
            for t in range(n):
                r = game.u_range(t, a)
                low[t, a], high[t, a] = r.min, r.max
                if sigma[t, a] > 0.0:
                    free[t, a] = True
                    tau[t, a] = r.argmax.p
                else:
                    rows[t, a] = r.min
                    tau[t, a] = r.argmin.p
    rows, clamped = reference_free_rows(rows, free, low, high)
    payoffs = np.empty(n)
    gains = np.empty(n)
    for t in range(n):
        payoffs[t], gains[t], _ = payoff_and_gain(sigma[t], rows[t])
    return rows, tau, clamped, payoffs, gains


def reference_pooling_check(game, mode, tol=1e-9):
    """``(sets, shared, witness)`` of ``pooling_check``, the witness a
    ``(sigma, tau, verified)`` triple or None, from its former loops: each
    (type, action)'s range read from the game's ``u_range`` and the
    witness perceptions filled one (type, action) at a time."""
    sets = {}
    shared = set(range(game.m))
    for t in range(game.n):
        if mode == "upper":
            own = [game.u_range(t, a).max for a in range(game.m)]
            rival = max(game.u_range(t, a).min for a in range(game.m))
        else:
            own = [game.u(t, a, game.prior.p) for a in range(game.m)]
            rival = max(game.u(t, a, game.chi(t).p) for a in range(game.m))
        # a member's own case is below no rival's by more than tol
        members = [a for a in range(game.m) if not own[a] < rival - tol]
        sets[game.types.labels[t]] = tuple(game.actions.labels[a] for a in members)
        shared &= set(members)
    shared = sorted(shared)
    if not shared:
        return sets, shared, None
    a_star = shared[0]
    sigma = np.zeros((game.n, game.m))
    sigma[:, a_star] = 1.0
    tau = np.empty((game.n, game.m, game.n))
    for t, a in np.ndindex(game.n, game.m):
        if a == a_star:
            tau[t, a] = game.prior.p
        elif mode == "upper":
            tau[t, a] = game.u_range(t, a).argmin.p
        else:
            tau[t, a] = game.chi(t).p
    verified = verify_equilibrium(game, Strategy._built(game, sigma), PerceptionMap._built(game, tau), tol).accepted
    return sets, shared, (sigma, tau, verified)


# --- full pooling, brute force ---------------------------------------


def oracle_pooling_tv_upper(prior, v, weights, tol=1e-9):
    """Pooling actions under leakage penalties, best-vs-worst test.

    Action a works for type t when its best-case value beats every
    rival's worst case: v[t,a] >= v[t,a2] - weights[t]*(1 - min prior).
    """
    n, m = v.shape
    sets = []
    for t in range(n):
        wmax = weights[t] * (1.0 - float(prior.min()))
        members = []
        for a in range(m):
            if all(v[t, a] >= v[t, a2] - wmax - tol for a2 in range(m)):
                members.append(a)
        sets.append(members)
    common = set(sets[0])
    for s in sets[1:]:
        common &= set(s)
    return sorted(common), sets


def oracle_pooling_exposure_lower(prior, v, weights, tol=1e-9):
    """Pooling actions under exposure penalties, prior-vs-revealed test.

    Action a works for type t when staying hidden beats every rival
    action taken while fully found out:
    v[t,a] - weights[t]*prior[t] >= v[t,a2] - weights[t].
    """
    n, m = v.shape
    sets = []
    for t in range(n):
        members = []
        for a in range(m):
            lhs = v[t, a] - weights[t] * float(prior[t])
            if all(lhs >= v[t, a2] - weights[t] * 1.0 - tol for a2 in range(m)):
                members.append(a)
        sets.append(members)
    common = set(sets[0])
    for s in sets[1:]:
        common &= set(s)
    return sorted(common), sets


# --- pure-profile equilibrium gains, brute force ---------------------


def oracle_pure_gains(prior, v, pens, actions, tol=1e-9):
    """Best-deviation gain per type for a pure profile, favorable
    perceptions. Requires every prior entry positive (no free rows)."""
    prior = np.asarray(prior, dtype=np.float64)
    assert (prior > 0).all(), "oracle assumes positive priors"
    n, m = v.shape
    pa = np.zeros(m)
    for t in range(n):
        pa[actions[t]] += prior[t]
    rows = np.empty((n, m))
    for a in range(m):
        if pa[a] > 0:
            post = np.array([prior[t] if actions[t] == a else 0.0 for t in range(n)]) / pa[a]
            for t in range(n):
                rows[t, a] = v[t, a] - pen_value(pens[t], post, prior, t)
        else:
            for t in range(n):
                rows[t, a] = v[t, a] - pen_bounds(pens[t], prior, n)[1]
    gains = np.empty(n)
    for t in range(n):
        gains[t] = rows[t].max() - rows[t, actions[t]]
    return gains


# --- two-player values and reports, one profile pair at a time ---------


def reference_action_values(
    v_t: np.ndarray, beliefs_t: np.ndarray, support, w_t: np.ndarray
) -> np.ndarray:
    """Expected value of each own action for one type.

    ``v_t[t_opp, a, b]`` and ``beliefs_t`` are the type's slices of the
    player's values and belief rows; ``support[t_opp]`` lists that
    opponent type's ``(action, probability)`` pairs of positive
    probability; ``w_t[t_opp, a]`` is the penalty in observer ``t_opp``'s
    view after ``a``. Sums run in ascending index order, so every caller
    gets the same bits from the same inputs.
    """
    vals = np.empty(v_t.shape[1])
    for a in range(vals.size):
        acc = 0.0
        for t_opp, plays in enumerate(support):
            inner = 0.0
            for b, p in plays:
                inner = inner + p * v_t[t_opp, a, b]
            acc = acc + beliefs_t[t_opp] * (inner - w_t[t_opp, a])
        vals[a] = acc
    return vals


def reference_pure_pair_report(
    game: TwoPlayerPerceptionGame,
    actions: tuple[tuple[int, ...], tuple[int, ...]],
    beliefs: tuple[np.ndarray, np.ndarray],
) -> TwoPlayerEquilibriumReport:
    """The pure pair ``actions`` under its best perceptions, given the
    belief rows ``_beliefs(game)`` checked once per enumeration."""
    strategy = TwoPlayerStrategy.pure(game, actions)
    taus = []
    payoffs = []
    gains = []
    for i, ps in enumerate(game.players):
        other = game.players[1 - i]
        tau = np.empty((ps.types.n, other.types.n, ps.actions.m, ps.types.n))
        # penalty per (type, observer, action): posterior value on path,
        # range endpoints off path (favorable under own action, adverse
        # for deviations); witnesses fill the reported perceptions
        wvals = np.empty((ps.types.n, other.types.n, ps.actions.m))
        for t_obs in range(other.types.n):
            for a in range(ps.actions.m):
                post = posterior(beliefs[1 - i][t_obs], strategy.sigmas[i][:, a])
                for t in range(ps.types.n):
                    if post is not None:
                        tau[t, t_obs, a] = post
                        wvals[t, t_obs, a] = game.w(i, t, post, t_obs)
                    else:
                        rng = game.penalty_range_of(i, t, t_obs)
                        if actions[i][t] == a:
                            tau[t, t_obs, a] = rng.argmin.p
                            wvals[t, t_obs, a] = rng.min
                        else:
                            tau[t, t_obs, a] = rng.argmax.p
                            wvals[t, t_obs, a] = rng.max
        taus.append(tau)
        support = [((b, 1.0),) for b in actions[1 - i]]
        pay = np.empty(ps.types.n)
        gn = np.empty(ps.types.n)
        for t in range(ps.types.n):
            vals = reference_action_values(ps.v[t], beliefs[i][t], support, wvals[t])
            pay[t], gn[t], _ = payoff_and_gain(strategy.sigmas[i][t], vals)
        payoffs.append(pay)
        gains.append(gn)
    return TwoPlayerEquilibriumReport(
        strategy=strategy,
        perceptions=TwoPlayerPerceptions(game, taus),
        payoffs=(payoffs[0], payoffs[1]),
        gains=(gains[0], gains[1]),
        max_gain=float(max(gains[0].max(), gains[1].max())),
    )


def reference_verify_values_2p(game, strategy, perceptions):
    """``(payoffs, gains, moves)`` of ``verify_equilibrium_2p``, as its
    former loop over players and types computed them: each opponent
    type's support of positive probability, each type's penalties at
    the given perceptions, and ``reference_action_values``."""
    beliefs = _beliefs(game)
    payoffs = []
    gains = []
    moves = []  # (player, type, best action), in the order of the joined gains
    for i, ps in enumerate(game.players):
        support = [[(b, p) for b, p in enumerate(row) if p > 0.0] for row in strategy.sigmas[1 - i]]
        pay = np.empty(ps.types.n)
        gn = np.empty(ps.types.n)
        for t in range(ps.types.n):
            # penalty per (observer type, action) at the given perceptions
            w_t = np.array([[game.w(i, t, tau, t_obs) for tau in taus_obs]
                            for t_obs, taus_obs in enumerate(perceptions.taus[i][t])])
            vals = reference_action_values(ps.v[t], beliefs[i][t], support, w_t)
            pay[t], gn[t], best = payoff_and_gain(strategy.sigmas[i][t], vals)
            moves.append((i, ps.types.labels[t], ps.actions.labels[best]))
        payoffs.append(pay)
        gains.append(gn)
    return payoffs, gains, moves


def reference_pure_bne(game, fold_prior_penalty=False, tol=1e-9):
    """``(actions, strict, payoffs)`` of every pure weak best-reply pair,
    in lexicographic order: ``enumerate_pure_bne`` as a loop over pairs
    and types calling ``reference_action_values``."""
    beliefs = _beliefs(game)
    pens = []
    for i, ps in enumerate(game.players):
        w = np.zeros((ps.types.n, game.players[1 - i].types.n, ps.actions.m))
        if fold_prior_penalty:
            for t in range(ps.types.n):
                for t_obs, prior in enumerate(beliefs[1 - i]):
                    w[t, t_obs] = game.w(i, t, prior, t_obs)
        pens.append(w)
    out = []
    for acts in product(*(product(range(ps.actions.m), repeat=ps.types.n) for ps in game.players)):
        payoffs = []
        strict = True
        for i, ps in enumerate(game.players):
            support = [((b, 1.0),) for b in acts[1 - i]]
            pay = np.empty(ps.types.n)
            for t, chosen in enumerate(acts[i]):
                vals = reference_action_values(ps.v[t], beliefs[i][t], support, pens[i][t])
                pay[t] = vals[chosen]
                if pay[t] < float(vals.max()) - tol:
                    break
                vals[chosen] = -np.inf  # leaves the best rival reply
                if float(vals.max()) >= pay[t] - tol:
                    strict = False
            else:
                payoffs.append(pay)
                continue
            break  # a type of player i has a better reply
        else:
            out.append((acts, strict, (payoffs[0], payoffs[1])))
    return out


# --- full-grid mixed search, every profile through the kernel ---------


def reference_mixed_search(
    game, step, tol=1e-9, max_survivors=10_000, seed=None, max_profiles=2_000_000
):
    """``search_mixed_equilibria`` from the full gains of
    ``sweep_profile_gains``, without the cell screen or
    ``reduce_profile_gains``: every code of the grid, or the same seeded draw when the
    grid has more than ``max_profiles`` profiles; the lowest position
    with the least gain as the argmin; and the first ``max_survivors``
    codes with gain at most ``tol``, kept when ``profile_report``
    confirms them."""
    resolution = round(1.0 / step)
    pts = SimplexGrid(game.m, resolution).points()
    total = pts.shape[0] ** game.n
    subsampled = total > max_profiles
    if subsampled:
        idx = np.random.default_rng(seed).integers(0, total, size=max_profiles, dtype=np.int64)
    else:
        idx = np.arange(total, dtype=np.int64)
    gains = sweep_profile_gains(pack_game(game), pts, idx)
    best = int(np.argmin(gains))
    within = idx[gains <= tol]
    screened = decode_profiles(pts, within[:max_survivors], game.n)
    reports = (profile_report(game, sigma) for sigma in screened)
    return MixedSearchResult(
        step=step,
        resolution=resolution,
        total=total,
        swept=idx.size,
        evaluated=idx.size,
        subsampled=subsampled,
        min_max_gain=float(gains[best]),
        argmin=Strategy(game, decode_profiles(pts, idx[best], game.n)),
        survivors=tuple(rep for rep in reports if rep.max_gain <= tol),
        survivor_count=within.size,
        truncated=within.size > max_survivors,
    )


# --- the cell screen, one type, knot, gap and split at a time ---------


def tree_boxes(tree, cells):
    """The boxes ``(2, n, m, B)`` of the cells ``(n, B)`` of ``tree``, as
    ``screen_profiles`` gathers them for ``cell_lower_bound``."""
    return np.take(tree.box, cells, axis=2).transpose(0, 2, 1, 3)


def _share(part_lo, part_hi, rest_lo, rest_hi):
    """``share_pair`` on the stacked corners, as ``(lo, hi)``."""
    lo, hi = share_pair(np.stack((part_lo, part_hi)), np.stack((rest_lo, rest_hi)))
    return lo, hi


def reference_penalty_bounds(pen, mass):
    """``stacked_bounds`` on the masses ``mass`` ``(2, n, ...)``, with a
    ``share_pair`` call per coordinate of ``tv_to_prior`` and a loop over
    the polyline's knots and the step's piece bounds and gaps."""
    lo, hi = mass
    spec = pen.spec
    w = spec.weight
    if spec.kind == "zero":
        zero = np.zeros(lo.shape[1:])
        return zero, zero
    total_lo, total_hi = lo.sum(axis=0), hi.sum(axis=0)
    if spec.kind in ("tv_to_prior", "exposure"):
        members = range(pen.n) if spec.kind == "tv_to_prior" else (pen.type_index,)
        shares = [_share(lo[s], hi[s], total_lo - lo[s], total_hi - hi[s]) for s in members]
        if spec.kind == "exposure":
            return w * shares[0][0], w * shares[0][1]
        zero = np.zeros(lo.shape[1:])
        above_lo, above_hi, below_lo, below_hi = zero, zero, zero, zero
        for (x_lo, x_hi), b in zip(shares, pen.anchor.tolist()):
            above_lo = above_lo + np.maximum(x_lo - b, 0.0)
            above_hi = above_hi + np.maximum(x_hi - b, 0.0)
            below_lo = below_lo + np.maximum(b - x_hi, 0.0)
            below_hi = below_hi + np.maximum(b - x_lo, 0.0)
        return w * np.maximum(above_lo, below_lo), w * np.minimum(above_hi, below_hi)
    inside = np.zeros(lo.shape[1:]), np.zeros(lo.shape[1:])
    for s in pen.event:
        inside = inside[0] + lo[s], inside[1] + hi[s]
    x_lo, x_hi = _share(*inside, total_lo - inside[0], total_hi - inside[1])
    if spec.kind == "piecewise_linear_marginal":
        ends = reference_polyline_batch(pen, x_lo), reference_polyline_batch(pen, x_hi)
        low, high = np.minimum(*ends), np.maximum(*ends)
        kx, ky = pen.knots
        reached = [((x_lo < k) & (k < x_hi), y) for k, y in zip(kx.tolist(), ky.tolist())]
    else:
        cuts = sorted({p[0] for p in spec.pieces} | {p[1] for p in spec.pieces})
        inner = [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]
        edges = [-np.inf, *cuts, np.inf]
        low, high = np.full(x_lo.shape, np.inf), np.full(x_lo.shape, -np.inf)
        reached = [
            ((x_lo < b) & (a < x_hi), reference_step_value(spec.pieces, g))
            for g, a, b in zip([cuts[0] - 1.0, *inner, cuts[-1] + 1.0], edges, edges[1:])
        ] + [((x_lo <= c) & (c <= x_hi), reference_step_value(spec.pieces, c)) for c in cuts]
    for meets, y in reached:
        low = np.where(meets, np.minimum(low, y), low)
        high = np.where(meets, np.maximum(high, y), high)
    return w * low, w * high


def reference_cell_lower_bound(pack, box):
    """``cell_lower_bound`` with a ``reference_penalty_bounds`` call for
    every type."""
    n, m = pack.u_min.shape
    lo, hi = box
    mass_lo = lo * pack.prior[:, None, None]
    mass_hi = hi * pack.prior[:, None, None]
    sure = mass_lo.sum(axis=0) > 0.0
    never = mass_hi.sum(axis=0) == 0.0
    u_min, u_max = pack.u_min[:, :, None], pack.u_max[:, :, None]
    low_u = np.empty(lo.shape)
    high_u = np.empty(lo.shape)
    for t in range(n):
        w_lo, w_hi = reference_penalty_bounds(pack.penalties[t], np.stack((mass_lo, mass_hi)))
        low_u[t] = pack.v[t, :, None] - w_hi
        high_u[t] = pack.v[t, :, None] - w_lo
    low_u = np.where(sure, low_u, np.where(never, u_min, np.minimum(low_u, u_min)))
    high_u = np.where(sure, high_u, np.where(never, u_max, np.maximum(high_u, u_max)))
    bound = np.full(box.shape[3], -np.inf)
    for b in range(m):
        coef = low_u[:, b : b + 1] - high_u
        term = np.minimum(lo * coef, hi * coef)
        term[:, b] = 0.0
        bound = np.maximum(bound, term.sum(axis=1).max(axis=0))
    scale = max(np.abs(pack.v).max(), np.abs(pack.u_min).max(), np.abs(pack.u_max).max())
    return bound - BOUND_SLACK * scale


def reference_screen(pack, grid_pts, limit):
    """``screen_profiles`` with ``reference_cell_lower_bound`` and a split
    of one type at a time: a cell's second halves on type ``t`` are
    appended after every cell of the level, in order."""
    n = pack.u_min.shape[0]
    G = grid_pts.shape[0]
    tree = grid_tree(grid_pts)
    batch = max(1, _CHUNK_BUDGET // pack.u_min.size)
    cells = np.zeros((n, 1), dtype=np.int64)
    leaves = []
    least, seed = np.inf, cells[:, :0]
    while cells.shape[1]:
        bound = np.concatenate([
            reference_cell_lower_bound(pack, tree_boxes(tree, cells[:, i : i + batch]))
            for i in range(0, cells.shape[1], batch)
        ])
        cut = bound > limit
        if cut.any():
            i = int(np.argmin(np.where(cut, bound, np.inf)))
            if bound[i] < least:
                least, seed = bound[i], cells[:, i : i + 1]
            cells = cells[:, ~cut]
        size = np.take(tree.size, cells)
        leaf = size.prod(axis=0) <= _LEAF
        leaves.append(cells[:, leaf])
        cells, size = cells[:, ~leaf], size[:, ~leaf]
        rank = np.argsort(np.argsort(-size, axis=0, kind="stable"), axis=0)
        wide = (rank < _SPLIT_TYPES) & (size > 1)
        for t in range(n):
            sel = np.flatnonzero(wide[t])
            first = np.take(tree.child, cells[t, sel])
            cells[t, sel] = first
            second = cells[:, sel]
            second[t] = first + 1
            cells = np.concatenate([cells, second], axis=1)
            wide = np.concatenate([wide, wide[:, sel]], axis=1)
    codes = np.sort(_codes(tree, np.concatenate(leaves, axis=1), G))
    if not seed.size:
        return codes, -1
    return codes, sum(int(tree.start[c]) * G ** (n - 1 - t) for t, c in enumerate(seed[:, 0]))


# --- the separation margin, two Dirac penalties per row ---------------


def reference_check_separation_margin(spec, tol: float = 0.0):
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
                w_o = _dirac_marginal_penalty(pen, spec.outcomes[o])
                gap_w = w_o - _dirac_marginal_penalty(pen, spec.outcomes[o2])
                margin = gap_v - gap_w
                rows.append((spec.outcomes[o], spec.outcomes[o2], spec.privacy[p], margin))
                worst = min(worst, margin)
    holds = bool(rows) and bool(worst > tol)
    return MarginReport(holds=holds, margin=float(worst), rows=tuple(rows))


# --- game factories --------------------------------------------------


def tabulate(game, resolution: int):
    """``game`` as a ``tabulated_grid`` game holding its utilities at the
    points of the resolution-``resolution`` type simplex lattice."""
    from perception_games.model import PerceptionGame, UtilityModel
    from perception_games.simplex import SimplexGrid

    pts = SimplexGrid(game.n, resolution).points()
    values = np.array(
        [[[game.u(t, a, p) for p in pts] for a in range(game.m)] for t in range(game.n)]
    )
    return PerceptionGame(
        types=game.types,
        actions=game.actions,
        prior=game.prior,
        utility=UtilityModel(kind="tabulated_grid", resolution=resolution, values=values),
        name=game.name + "-tab",
    )


def with_player(game, i: int, **changes):
    """The two-player ``game`` with fields ``changes`` of player ``i``
    replaced; games are immutable, so this builds a new one."""
    players = list(game.players)
    players[i] = replace(players[i], **changes)
    return replace(game, players=tuple(players))


def random_two_player_game(rng: np.random.Generator, n: int, m: int) -> TwoPlayerPerceptionGame:
    """``n`` types and ``m`` actions per side, dyadic belief rows, values
    in [0, 1] and a random catalog penalty per type."""
    players = []
    for tp, ap in (("u", "U"), ("l", "L")):
        labels = tuple(f"{tp}{k}" for k in range(n))
        players.append(PlayerSpec(
            types=TypeSpace.plain(labels),
            actions=ActionSpace.plain(tuple(f"{ap}{k}" for k in range(m))),
            beliefs=np.array([dyadic_prior(rng, n) for _ in range(n)]),
            v=rng.uniform(0.0, 1.0, size=(n, n, m, m)),
            penalties=tuple(_random_penalty(rng, labels) for _ in range(n)),
        ))
    return TwoPlayerPerceptionGame(players=tuple(players), allow_discontinuous=True)


# --- hypothesis strategies -------------------------------------------

QUARTERS = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def catalog_penalties(draw, labels):
    kind = draw(st.sampled_from(KINDS))
    weight = draw(st.floats(0.0, 3.0))
    if kind == "zero":
        return PenaltySpec.zero()
    if kind == "tv_to_prior":
        return PenaltySpec.tv_to_prior(weight)
    if kind == "exposure":
        return PenaltySpec.exposure(weight)
    over = tuple(sorted(draw(st.sets(st.sampled_from(labels), min_size=1))))
    if kind == "piecewise_linear_marginal":
        inner = sorted(draw(st.sets(st.sampled_from(QUARTERS[1:-1]))))
        xs = [0.0, *inner, 1.0]
        ys = draw(st.lists(st.floats(0.0, 2.0), min_size=len(xs), max_size=len(xs)))
        return PenaltySpec.piecewise_linear(tuple(zip(xs, ys)), over=over, weight=weight)
    pieces = []
    for _ in range(draw(st.integers(1, 2))):
        lo, hi = sorted(draw(st.lists(st.sampled_from(QUARTERS), min_size=2, max_size=2)))
        closed = lo == hi
        pieces.append((
            lo, hi, draw(st.floats(0.0, 2.0)),
            closed or draw(st.booleans()), closed or draw(st.booleans()),
        ))
    return PenaltySpec.step(tuple(pieces), over=over, weight=weight)


@st.composite
def dyadic_rows(draw, n: int) -> np.ndarray:
    """A distribution over ``n`` labels in multiples of 1/64. Cuts land on
    an end about half the time, so zero entries are common: they put a
    type off path in one observer's view only."""
    cut = st.sampled_from((0, 64)) | st.integers(0, 64)
    cuts = sorted(draw(st.lists(cut, min_size=n - 1, max_size=n - 1)))
    return np.diff([0, *cuts, 64]) / 64.0


@st.composite
def two_player_catalog_games(draw) -> TwoPlayerPerceptionGame:
    """1-3 types and 1-3 actions per side, dyadic belief rows (some with
    zero entries) and any catalog penalty per type."""
    ns = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    ms = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    players = []
    for i, (tp, ap) in enumerate((("u", "U"), ("l", "L"))):
        n, n_opp, m, m_opp = ns[i], ns[1 - i], ms[i], ms[1 - i]
        labels = tuple(f"{tp}{k}" for k in range(n))
        size = n * n_opp * m * m_opp
        v = draw(st.lists(st.floats(0.0, 5.0), min_size=size, max_size=size))
        players.append(PlayerSpec(
            types=TypeSpace.plain(labels),
            actions=ActionSpace.plain(tuple(f"{ap}{k}" for k in range(m))),
            beliefs=np.array([draw(dyadic_rows(n_opp)) for _ in range(n)]),
            v=np.reshape(v, (n, n_opp, m, m_opp)),
            penalties=tuple(draw(catalog_penalties(labels)) for _ in range(n)),
        ))
    return TwoPlayerPerceptionGame(
        players=tuple(players),
        allow_discontinuous=any(not p.is_continuous for ps in players for p in ps.penalties),
    )
