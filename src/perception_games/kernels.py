"""Numpy kernel for profile sweeps.

The hot loop of every single-player sweep evaluates, for each profile
in a batch, the best deviation gain any type can realize when off-path
perceptions are chosen as favorably as possible for the profile. The
kernel decodes profile codes into strategies, forms the posterior after
each action (``simplex._posteriors``, the batched ``posterior``),
takes the utility rows there (``_utility_rows`` for every
type at once, ``_penalized`` for one type of an additive game), fills
the off-path rows up to their caps, and reduces to the gains. The
batch axis is vectorized; types and actions are accumulated in
ascending order, the order of the one fold of the exact evaluators,
``single.payoff_and_gain``. The exact oracle ``single._profile_reports``
takes its rows from ``_oracle_rows``, which reads them from
``_utility_rows`` too, and folds a whole stack of profiles in one call,
so the two agree bitwise, as the tests assert. So are its off-path
witnesses: ``_pack`` reads each (type, action)'s ``u_range`` once, its
ends and the beliefs at them (``GamePack.argmin``, ``argmax``), for the
oracle and ``single.pooling_check`` alike.

The arrays are type-major, with the batch axis last and contiguous: a
chunk of ``B`` profiles holds its base-``G`` digits as ``(n, B)``, its
strategies and posteriors as ``(n, m, B)``, whether each action is on
path as ``(m, B)`` and one type's utility rows as ``(m, B)``. So every
elementwise operation runs over rows of ``B`` contiguous entries. The
type and action axes are 1 to a few entries wide, and nothing runs
along them: every sum and max over types or actions, and the test for
an off-path action, is a fold over ``range(n)`` or ``range(m)`` of such
rows, and a penalty reads each type's posterior mass as one row
(``penalty_batch`` takes types first). The off-path fill pins every
off-path row to the type's ``u_min``, in a chunk that has an off-path
action at all. A type plays an off-path action only where its prior
mass there rounds to 0, so only a game with a type whose prior times
the grid's least positive probability is 0 raises those free rows
(``_raise_free_rows``), and only on the profiles with an off-path
action. The oracle raises its free rows with the same function, once
per type for a whole stack: the kernel and the oracle share one fill.

The kernel evaluates the types one at a time, type 0 first: a type's
utility rows, its off-path fill (a type's cap depends on its own rows
only) and its fold into the gain. A profile's gain is the max over
types, so after each type its gain so far bounds its gain from below,
and a profile whose gain so far is above the caller's ``limit`` leaves
the batch. The limit contract: an entry at most ``limit`` is the
profile's gain, bitwise as with ``limit = inf``; any other entry lies
above ``limit``. ``sweep_profile_gains`` runs unlimited and returns
every gain. A search needs only the least gain, where it first occurs
and the profiles within the tolerance, so ``reduce_profile_gains``
runs chunk by chunk with ``limit = max(tol, least gain so far)`` and
never holds more than a chunk's gains. On a 2M-profile sample of a
3-type, 3-action game, almost every profile leaves after type 0.

``reduce_profile_gains`` reads its codes from a chunk source, so no
array as long as the sweep is built, codes included: a pure
enumeration or a whole flat grid is a ``CodeRange``, whose one buffer
advances in place; a subsample is ``CodeDraws``, drawn from the
generator a chunk at a time (the same codes as one draw); the cell
screen's kept leaves are ``CellCodes``, each a product of per-type
index ranges, made a few cells at a time; and an int64 array is a
source too. The leaves' codes interleave, so for them ties go by the
lowest code and only the survivors' codes are sorted. Every chunk of a
sweep fills one ``_Workspace``, allocated once per sweep: the first
type's full-width arrays (digits, table entries, strategies, utility
rows, payoff, best row and gain) are written with ``out=``, gathers
with ``np.take(..., out=..., mode="clip")``, since ``mode="raise"``
gathers into a copy. Arrays made afresh for each chunk would be mapped
and faulted in anew whenever the allocator has handed its free memory
back to the system.

A type's utility of an action depends only on the posterior, and the
posterior after action ``a`` only on column ``a`` of the profile. A
grid whose points take ``V`` distinct values has ``V**n`` columns, so a
sweep evaluates the utility rows once per column (``_column_table``)
when the columns times the types, ``n * V**n``, are no more than the
codes to sweep; otherwise once per profile and action. A grid over two
actions never takes the table: its ``G`` points take ``V >= G``
distinct values, so the table has at least ``n * G**n`` cells, ``n``
times the whole grid. A 3-action grid at step 0.05 has 21**3 columns
for 231**3 profiles. The table keeps each type's rows as one
contiguous row of ``m * V**n`` entries, so one ``np.take`` along those
rows looks up a chunk's utility rows. A profile's entries in that row
are sums over types of per-point offsets, each below ``m * V**n``, and
the table packs the offsets of all ``m`` actions into int64 words of
fixed-width fields (at step 0.05, 3 actions of 15 bits in one word), so
a chunk's entries take one 1-D gather per type and word, then a shift
and a mask per action; 1-D gathers of a word run several times faster
than ``(m, G)`` gathers along the point axis. The base-``G`` digits
that index those gathers take ``n - 1`` floor divisions, the last
quotient being digit 0.

Before a whole grid of an additive game is swept, ``screen_profiles``
decides most of it without the kernel. A cell is one node per type of
``grid_tree``, the grid's points halved down to single points, so a
type's strategy lies in a box of action probabilities (``GridTree.box``
stacks every node's low ends on its high ends). ``cell_lower_bound``
bounds a batch of boxes at once, tree cells or any others: the prior
mass each type sends to an action lies in a box, so each posterior
coordinate and event mass lies in an interval (``simplex.share_pair``),
each penalty in an interval (``penalties.stacked_bounds``), each
utility in ``[L, H]``, and the gain above a certified lower bound. The
screen prunes the cells bounded above the tolerance, splits the others
level by level (``_split``) and returns the profiles of the small cells
it keeps; ``single.search_mixed_equilibria`` sweeps those through the
kernel, and the exact oracle confirms the survivors in one stack per
group. At a limit of at least 0 the screen starts at the root's
children: every action has probability 0 at a vertex of the grid, so
the root's bound is at most 0 and the root is never pruned. A level
holds few cells, so a level costs numpy calls, not cells, and each step
does one call where it can: the low and high ends of every box travel
stacked, the types whose penalties the bound cannot tell apart (in the
paper's separable families, the types of one privacy class) share one
bound per batch (``GamePack.bound_plan``), a penalty compares all its
knots or piece bounds with every interval at once, and a level's cells
split in one step, in the order of splitting one type after the other.

``pack_game`` keeps one frozen ``GamePack`` per game and builds one per
template: a game derived from a template by its prior alone
(``PerceptionGame._with_prior``, how ``scan_alpha`` builds a family)
gets the template's pack, witnesses included, at its own prior. That
is the one way a batch of games is packed too: ``replace(pack,
prior=...)``, there with a prior per cell or profile ``(n, 1, B)``,
read elementwise, so each entry is its own game's, bit for bit.
Callers hand the screen and the sweep lists of packs of any games, and
the kernel groups them itself (``_groups``): a template and the games
derived from it, whose packs are one pack up to the prior. So
``_with_prior`` alone decides which games share a screen and a sweep.
A group is screened together, each cell bounded at its game's prior: a
``majority-scan`` pass bounds its 2,872 cells in 5 calls.

They are swept together too, with a code source each. A kernel call on
a single code takes about 200 us (numpy 2.4, 2 vCPUs), and an alpha
scan's games each sweep a few hundred kept profiles and 16 pure ones.
A group's codes stream in pack order through one workspace
(``_stream``), in chunks shared across games: a chunk that spans games
is one call, with each profile's game's prior and the largest of its
games' limits, and its gains are then reduced game by game; a chunk of
one game is that game's own call. The column table depends on the
prior, so a game whose own sweep takes it is swept alone, as is a
tabulated game. A ``majority-scan`` pass makes 6 kernel calls.

And their survivors are confirmed together: ``_oracle_rows`` takes every
game's pack and stack of strategies and gives the oracle one stack per
group, each row at its own game's prior, so there is one oracle stack
per template group. A ``majority-scan`` pass hands the oracle 3 stacks,
one per template, where it handed one per alpha.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import lru_cache
from math import prod
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .model import PerceptionGame, _interpolate
from .penalties import Penalty, penalty_batch, stacked_bounds
from .simplex import BOUND_SLACK, _posteriors

__all__ = [
    "GamePack",
    "pack_game",
    "decode_profiles",
    "sweep_profile_gains",
    "reduce_profile_gains",
    "CodeRange",
    "CodeDraws",
    "CellCodes",
    "GridTree",
    "grid_tree",
    "cell_lower_bound",
    "screen_profiles",
]

# float64 cells per chunk of a sweep's per-type (m, profiles) working
# arrays, and per batch of the cell screen's (n, m, cells) arrays
_CHUNK_BUDGET = 32_768

# the cell screen sweeps a kept cell once it holds this many profiles or
# fewer, and splits a larger one on this many types at most
_LEAF = 256
_SPLIT_TYPES = 4

# finite stand-in for "no row yet" in the max folds
_NEG = -1.7976931348623157e308


@dataclass(frozen=True, eq=False)
class GamePack:
    """What the kernel and the exact oracle read of a game, made once per
    game by ``pack_game``: every game's utility ranges with the beliefs
    at their ends; additive games fill ``v``, ``penalties`` and
    ``bound_plan``, tabulated ones ``values`` and ``resolution``. The
    games derived from one template share its pack but the prior, and a
    batch of them is ``replace(pack, prior=...)`` with one prior per
    profile or cell."""

    prior: np.ndarray  # (n,), or (n, 1, B) for a batch of games
    u_min: np.ndarray  # (n, m)
    u_max: np.ndarray  # (n, m)
    argmin: np.ndarray  # (n, m, n): the belief at each u_min
    argmax: np.ndarray  # (n, m, n): the belief at each u_max
    v: np.ndarray | None = None  # (n, m)
    penalties: tuple[Penalty, ...] = ()  # bound, one per type
    values: np.ndarray | None = None  # (n, m, lattice size)
    resolution: int = 0
    bound_plan: "_BoundPlan | None" = None


class _BoundPlan(NamedTuple):
    """What ``cell_lower_bound`` reads of an additive game but the prior:
    the distinct penalties, each with the types that share it and their
    ``v``, and the rounding margin."""

    penalties: tuple[Penalty, ...]  # one per distinct penalty, by first type
    types: tuple[np.ndarray, ...]  # the types that share each
    v: tuple[np.ndarray, ...]  # their ``v``, (types, m, 1)
    margin: float


def _bound_key(pen: Penalty) -> tuple:
    """What ``stacked_bounds`` reads of ``pen``, hashable even when its
    spec holds lists: types with equal keys have equal bounds. The type
    matters only to ``exposure``. A ``tv_to_prior`` bound reads its
    anchor too, but every penalty of a game is anchored at the game's
    prior, so the anchor tells no two of its types apart."""
    spec = pen.spec
    return (
        spec.kind,
        float(spec.weight),
        pen.event,
        None if pen.knots is None else tuple(k.tobytes() for k in pen.knots),
        None if pen.breaks is None else tuple(b.tobytes() for b in pen.breaks),
        pen.type_index if spec.kind == "exposure" else None,
    )


# a game is immutable and hashes by identity, so its kept pack cannot go stale
_packs: weakref.WeakKeyDictionary[PerceptionGame, GamePack] = weakref.WeakKeyDictionary()


def pack_game(game: PerceptionGame) -> GamePack:
    """The game's one pack, made on the first call and kept while the
    game lives: built by ``_pack``, or for a game derived from a template
    by its prior alone (``PerceptionGame._with_prior``) the template's
    pack at the game's prior, the batch convention: one pack up to the
    prior, which ``_groups`` screens and sweeps with the template's."""
    pack = _packs.get(game)
    if pack is None:
        if game._base is None:
            pack = _pack(game)
        else:
            pack = replace(pack_game(game._base), prior=np.ascontiguousarray(game.prior.p, dtype=np.float64))
        _packs[game] = pack
    return pack


def _pack(game: PerceptionGame) -> GamePack:
    prior = np.ascontiguousarray(game.prior.p, dtype=np.float64)
    n, m = game.n, game.m
    u_min, u_max = np.empty((2, n, m))
    argmin, argmax = np.empty((2, n, m, n))
    for t, a in np.ndindex(n, m):
        r = game.u_range(t, a)
        u_min[t, a], u_max[t, a], argmin[t, a], argmax[t, a] = r.min, r.max, r.argmin.p, r.argmax.p
    ranges = (u_min, u_max, argmin, argmax)
    um = game.utility
    if um.kind == "tabulated_grid":
        return GamePack(prior, *ranges, values=np.asarray(um.values, np.float64), resolution=um.resolution)
    v = np.ascontiguousarray(um.v, dtype=np.float64)
    penalties = tuple(game.penalty(t) for t in range(game.n))
    keys = tuple(_bound_key(pen) for pen in penalties)
    # the types that share each distinct key, by first type
    types = tuple(np.array([t for t, k in enumerate(keys) if k == key]) for key in dict.fromkeys(keys))
    margin = BOUND_SLACK * np.abs((v, u_min, u_max)).max()
    firsts = tuple(penalties[ts[0]] for ts in types)
    plan = _BoundPlan(firsts, types, tuple(v[ts, :, None] for ts in types), margin)
    return GamePack(prior, *ranges, v, penalties, bound_plan=plan)


def decode_profiles(grid_pts: np.ndarray, idx, n: int) -> np.ndarray:
    """Strategies of the profile codes ``idx``, shape ``idx.shape + (n, m)``.

    Profile ``code`` gives type ``t`` the grid point at base-``G`` digit
    ``t`` of the code, type 0 most significant, so codes in ascending
    order run through the profiles in lexicographic order.
    """
    digits = np.moveaxis(_digits(idx, grid_pts.shape[0], n), 0, -1)
    # np.take gathers rows several times faster than grid_pts[digits]
    return np.take(grid_pts, digits, axis=0)


def _digits(idx, G: int, n: int, out=None, scratch=None) -> np.ndarray:
    """Base-``G`` digits of the codes ``idx``, each below ``G**n``, shape
    ``(n,) + idx.shape``, type 0 most significant; written into ``out``
    when given, with ``scratch`` (``idx``'s shape) for the products."""
    code = np.asarray(idx, dtype=np.int64)
    digits = np.empty((n,) + code.shape, dtype=np.int64) if out is None else out
    product = np.empty_like(code) if scratch is None else scratch
    for t in range(n - 1, 0, -1):
        # a floor division and a multiply-subtract run about twice as
        # fast as np.divmod on int64; the quotient is the next code
        np.floor_divide(code, G, out=digits[t - 1, ...])
        np.multiply(digits[t - 1, ...], G, out=product)
        np.subtract(code, product, out=digits[t, ...])
        code = digits[t - 1, ...]
    # the last quotient is below G: it is digit 0
    if n == 1:
        digits[0, ...] = code
    return digits


def _penalized(pack: GamePack, t: int, beliefs: np.ndarray) -> np.ndarray:
    """Type ``t``'s utility rows ``(A, B)`` in an additive game at the
    posteriors ``beliefs`` ``(n, A, B)``."""
    return pack.v[t, :, None] - penalty_batch(pack.penalties[t], beliefs)


def _utility_rows(cols: np.ndarray, pack: GamePack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``simplex._posteriors`` of the columns ``cols``, ``(on, beliefs)``,
    and ``rows[t, a, b]``, type ``t``'s utility of action ``a`` at
    ``beliefs[:, a, b]``. Both sweep paths and the exact oracle take
    their rows from here, the one place that tells utility kinds apart,
    or from ``_penalized``, so all their entries are bitwise equal."""
    on, beliefs = _posteriors(pack.prior, cols)
    if pack.values is not None:
        return on, beliefs, _interpolate(beliefs.T, pack.values, pack.resolution).T
    rows = np.empty(pack.u_min.shape + cols.shape[2:])
    for t in range(rows.shape[0]):
        rows[t] = _penalized(pack, t, beliefs)
    return on, beliefs, rows


class _ColumnTable(NamedTuple):
    """What ``_column_table`` builds; see there."""

    words: np.ndarray  # (n, words per type, G) int64
    width: int  # bits per action field
    on: np.ndarray  # (m * C,) bool
    rows: np.ndarray  # (n, m * C)


def _column_table(grid_pts: np.ndarray, pack: GamePack) -> _ColumnTable:
    """Every type's utility rows at every column a profile over
    ``grid_pts`` can have, and where a profile's columns sit in them.

    A column lists each type's probability of one action, each drawn
    from the ``V`` distinct grid values, so there are ``C = V**n``
    columns, coded base ``V`` with type 0 most significant. Entry
    ``a * C + c`` of ``on`` and of each type's row ``rows[t]`` is column
    ``c`` at action ``a``. A row at an off-path column holds the type's
    ``u_min``, as the off-path fill pins it, so only the free rows are
    left to fill.

    A profile's entry at action ``a`` is a sum over types of what type
    ``t`` playing its grid point adds, and every entry is below ``m *
    C``, so it fits a field of ``width = (m * C - 1).bit_length()``
    bits. ``words[t, j, g]`` packs what type ``t`` at point ``g`` adds to
    the fields of actions ``j * P`` to ``j * P + P - 1``, ``P = 63 //
    width`` to a word, action ``j * P`` lowest. A sum of such words over
    the types carries from no field into the next, so one 1-D gather
    per type and word gives a profile's entries."""
    n, m = pack.u_min.shape
    vals, rank = np.unique(grid_pts, return_inverse=True)
    V = vals.size
    C = V**n
    cols = np.take(vals, _digits(np.arange(C), V, n))  # (n, C)
    on, _, rows = _utility_rows(cols[:, None, :], pack)  # (1, C), (n, m, C)
    np.copyto(rows, pack.u_min[:, :, None], where=~on)
    rank = rank.reshape(grid_pts.shape).T  # (m, G)
    width = max(1, (m * C - 1).bit_length())
    per = 63 // width
    words = np.zeros((n, -(-m // per), rank.shape[1]), dtype=np.int64)
    for t in range(n):
        for a in range(m):
            entry = rank[a] * V ** (n - 1 - t) + (a * C if t == 0 else 0)
            words[t, a // per] += entry << (width * (a % per))
    return _ColumnTable(words, width, np.tile(on[0], m), rows.reshape(n, -1))


def _table_entries(
    table: _ColumnTable, digits: np.ndarray, m: int, work: "_Workspace | None" = None
) -> np.ndarray:
    """The table entries ``(m, B)`` of the profiles with base-``G`` digits
    ``digits`` ``(n, B)``: one 1-D gather per type and word, then a shift
    and a mask per action; into ``work``'s buffers when given."""
    words, width = table.words, table.width
    per = 63 // width
    mask = (1 << width) - 1
    B = digits.shape[1]
    if work is None:
        col, word, part = np.empty((m, B), np.int64), np.empty(B, np.int64), np.empty(B, np.int64)
    else:
        col, word, part = _view(work.col, m, B), work.word[:B], work.part[:B]
    for j in range(words.shape[1]):
        np.take(words[0, j], digits[0], out=word, mode="clip")
        for t in range(1, words.shape[0]):
            word += np.take(words[t, j], digits[t], out=part, mode="clip")
        actions = range(j * per, min(m, j * per + per))
        for a in actions:
            np.right_shift(word, width * (a - j * per), out=col[a])
            # the word's top field has no field above it to mask off
            if a != actions[-1]:
                np.bitwise_and(col[a], mask, out=col[a])
    return col


def _raise_free_rows(
    rows: np.ndarray, sig: np.ndarray, on: np.ndarray, u_max: np.ndarray
) -> np.ndarray:
    """One type's ``rows`` (``(m, B)``, as ``sig`` and ``on``), whose
    off-path entries hold the type's ``u_min``, with its free rows
    filled: a row at an off-path action the type plays is raised to the
    type's cap, the best of its other rows and of its free rows'
    ``u_min``, and clamped at its ``u_max`` (``(m,)``). Only a type
    whose prior mass at an action it plays rounds to 0 can have free
    rows. The sweep and the oracle ``single._profile_reports`` both fill
    through here, the oracle once per type over its whole stack."""
    free = ~on & (sig > 0.0)
    held = np.where(free, _NEG, rows)
    lo = np.where(free, rows, _NEG)
    m0 = held[0]
    free_lo = lo[0]
    for a in range(1, rows.shape[0]):
        m0 = np.maximum(m0, held[a])
        free_lo = np.maximum(free_lo, lo[a])
    cap = np.maximum(m0, free_lo)
    return np.where(free, np.minimum(u_max[:, None], cap), rows)


class _OracleStack(NamedTuple):
    """One group's stack, as ``_oracle_rows`` builds it; see there."""

    members: list[int]  # indices of the packs, in stack order
    sigmas: np.ndarray  # (B, n, m)
    on: np.ndarray  # (m, B)
    posts: np.ndarray  # (n, m, B)
    rows: np.ndarray  # (n, m, B)
    free: np.ndarray  # (n, m, B)


def _oracle_rows(packs: Sequence[GamePack], stacks: Sequence[np.ndarray]) -> list[_OracleStack]:
    """What the exact oracle ``single._profile_reports`` folds, one stack
    per group of ``packs`` (``_groups``): its members' ``stacks`` of
    strategies ``(B_k, n, m)`` one after the other (``sigmas``), whether
    each action is on path and the posteriors there, each profile at its
    own game's prior (the batch convention, as in the sweep), the utility
    rows (``_utility_rows``) with every off-path row pinned to the type's
    ``u_min`` and the free rows, off path and played, raised by
    ``_raise_free_rows`` once per type that has any, and where the rows are
    free. Every step is elementwise along the stack, so each profile's
    entries are those of its own game's one-profile stack, bit for bit."""
    out = []
    for group in _groups(packs):
        pack = packs[group[0]]
        sigmas = stacks[group[0]]
        if len(group) > 1:
            sigmas = np.concatenate([stacks[k] for k in group])
            priors = np.stack([packs[k].prior for k in group], axis=1)[:, None]  # (n, 1, K)
            owner = np.repeat(np.arange(len(group)), [len(stacks[k]) for k in group])
            pack = replace(pack, prior=np.take(priors, owner, axis=2))
        sig = sigmas.transpose(1, 2, 0)  # (n, m, B)
        on, posts, rows = _utility_rows(sig, pack)
        rows = np.where(on, rows, pack.u_min[:, :, None])
        free = ~on & (sig > 0.0)
        for t in np.flatnonzero(free.any(axis=(1, 2))):
            rows[t] = _raise_free_rows(rows[t], sig[t], on, pack.u_max[t])
        out.append(_OracleStack(group, sigmas, on, posts, rows, free))
    return out


class _Workspace:
    """The buffers one sweep's kernel calls fill in place (``out=``),
    allocated once for chunks of up to ``width`` profiles, so their pages
    are faulted in once per sweep, and what every chunk reads of the
    grid. A chunk views a buffer at its own size as a C-contiguous array
    (``_view``): ``np.take`` into any other ``out`` gathers into a copy
    and copies back."""

    def __init__(self, pack: GamePack, grid_pts: np.ndarray, table: _ColumnTable | None, width: int):
        n, m = pack.u_min.shape
        self.width = width
        self.by_action = np.ascontiguousarray(grid_pts.T)  # (m, G)
        # the grid's least positive probability
        self.least = float(grid_pts.min(initial=1.0, where=grid_pts > 0.0))
        self.digits = np.empty(n * width, np.int64)
        self.part = np.empty(width, np.int64)
        # the per-profile path holds every type's strategies, (n, m, B)
        self.strategies = np.empty((m if table is not None else n * m) * width)
        if table is not None:
            self.word = np.empty(width, np.int64)
            self.col = np.empty(m * width, np.int64)
            self.rows = np.empty(m * width)
        self.played, self.term, self.gain = np.empty((3, width))
        self.mask = np.empty(width, bool)


def _view(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The first entries of the flat ``buffer`` as an array of ``shape``."""
    return buffer[: prod(shape)].reshape(shape)


def _gains_numpy(
    idx: np.ndarray,
    grid_pts: np.ndarray,
    pack: GamePack,
    table: _ColumnTable | None = None,
    limit: float = np.inf,
    work: _Workspace | None = None,
) -> np.ndarray:
    """The gain of each profile ``idx``, evaluated a type at a time: after
    each type but the last, a profile whose gain over the types so far is
    above ``limit`` leaves the batch, and its entry is that partial gain.
    So an entry at most ``limit`` is the profile's gain, bitwise as with
    ``limit = inf``, and any other entry is above ``limit`` and at most
    the gain. The batch's working arrays are ``work``'s buffers (one is
    made for the batch when None), and so is the result, which the next
    call with ``work`` overwrites.

    ``pack`` may be a batch of games (one prior per profile): each entry
    is then its own game's call's with ``limit``, bit for bit."""
    n, m = pack.u_min.shape
    B = idx.shape[0]
    if work is None:
        work = _Workspace(pack, grid_pts, table, B)
    by_action = work.by_action
    # a type plays an off-path action only where its prior mass there
    # rounds to 0, and the products are monotone: the least one decides
    has_free = bool((pack.prior * work.least == 0.0).any())
    digits = _digits(idx, grid_pts.shape[0], n, _view(work.digits, n, B), work.part[:B])
    sig = beliefs = rows = col = None
    if table is None:
        sig = _view(work.strategies, n, m, B)
        for t in range(n):
            np.take(by_action, digits[t], axis=1, out=sig[t], mode="clip")
        # sig[:, a] is each profile's column at action a
        if pack.values is None:
            on, beliefs = _posteriors(pack.prior, sig)
        else:
            on, _, rows = _utility_rows(sig, pack)
    else:
        col = _table_entries(table, digits, m, work)  # (m, B)
        # the table pins every off-path row to u_min already
        on = np.take(table.on, col) if has_free else None
    off = None if on is None else ~on.all(axis=0)
    alive = None  # positions still in the batch; None while all are
    for t in range(n):
        k = B if alive is None else alive.size
        if table is not None:
            s = np.take(by_action, digits[t], axis=1, out=_view(work.strategies, m, k), mode="clip")
            r = np.take(table.rows[t], col, out=_view(work.rows, m, k), mode="clip")
        else:
            s = sig[t]
            r = rows[t] if rows is not None else _penalized(pack, t, beliefs)
        if off is not None and off.any():
            if table is None:
                np.copyto(r, pack.u_min[t, :, None], where=~on)
            if has_free:
                sel = np.flatnonzero(off)
                r[:, sel] = _raise_free_rows(r[:, sel], s[:, sel], on[:, sel], pack.u_max[t])
        played, term = work.played[:k], work.term[:k]
        played[...] = 0.0
        for a in range(m):
            played += np.multiply(s[a], r[a], out=term)
        # the best row takes the products' place
        best = r[0] if m == 1 else np.maximum(r[0], r[1], out=term)
        for a in range(2, m):
            np.maximum(best, r[a], out=best)
        if t == 0:
            gain = out = np.subtract(best, played, out=work.gain[:B])
        else:
            np.maximum(gain, np.subtract(best, played, out=term), out=gain)
        if t == n - 1 or limit == np.inf:
            continue
        keep = np.flatnonzero(np.less_equal(gain, limit, out=work.mask[:k]))
        if keep.size == k:
            continue
        # every entry keeps its partial gain in ``out``; the kept ones are
        # overwritten
        if alive is not None:
            out[alive] = gain
        alive = keep if alive is None else alive[keep]
        gain = gain[keep]
        if table is None:
            on, off, sig, beliefs, rows = _keep(keep, on, off, sig, beliefs, rows)
        else:
            on, off, digits, col = _keep(keep, on, off, digits, col)
    if alive is not None:
        out[alive] = gain
    return out


def _keep(keep: np.ndarray, *arrays):
    """Each of ``arrays`` at the batch positions ``keep`` (last axis);
    None stays None."""
    return tuple(None if x is None else np.take(x, keep, axis=-1) for x in arrays)


def _plan(pack: GamePack, grid_pts: np.ndarray, size: int, with_table: bool):
    """``(grid_pts, table, work)`` for a sweep of ``size`` codes: the grid
    as contiguous float64, the column table when ``with_table`` (else
    None), and the sweep's workspace, whose ``width`` is the profiles per
    chunk."""
    grid_pts = np.ascontiguousarray(grid_pts, dtype=np.float64)
    table = _column_table(grid_pts, pack) if with_table else None
    width = max(1, min(size, _CHUNK_BUDGET // pack.u_min.shape[1]))
    return grid_pts, table, _Workspace(pack, grid_pts, table, width)


def _table_cells(grid_pts: np.ndarray, n: int) -> int:
    """The ``n * V**n`` cells of the column table of ``grid_pts`` for
    ``n`` types, which a game's sweep takes when they are no more than
    its codes."""
    # distinct grid values (np.unique without return_inverse would
    # import numpy.ma), raised as a Python int so a large n cannot overflow
    values = np.count_nonzero(np.diff(np.sort(grid_pts, axis=None))) + 1
    return int(values) ** n * n


class CodeRange:
    """The codes from ``start`` to ``stop - 1`` in ascending order: a pure
    enumeration, or a whole grid swept without the cell screen. Every
    chunk is one buffer advanced in place, valid until the next."""

    def __init__(self, start: int, stop: int):
        self.start, self.stop = start, stop
        self.size = max(0, stop - start)

    def chunks(self, width: int) -> Iterator[np.ndarray]:
        codes = np.arange(self.start, self.start + min(width, self.size), dtype=np.int64)
        for start in range(self.start, self.stop, width):
            yield codes[: self.stop - start]
            codes += width


class CodeDraws:
    """``size`` codes drawn uniformly, with replacement, from
    ``range(total)`` by the generator ``rng``, a chunk at a time, in draw
    order. ``rng.integers`` draws the same codes in chunks as in one call
    (the tests pin this), so the sweep is that of the one draw. The
    generator moves on: a source is swept once."""

    def __init__(self, rng: np.random.Generator, total: int, size: int):
        self.rng, self.total, self.size = rng, total, size

    def chunks(self, width: int) -> Iterator[np.ndarray]:
        for start in range(0, self.size, width):
            count = min(width, self.size - start)
            yield self.rng.integers(0, self.total, size=count, dtype=np.int64)


def sweep_profile_gains(pack: GamePack, grid_pts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Best deviation gain per profile index, under favorable off-path
    perceptions. A gain within tolerance of zero means the profile can
    be completed into an equilibrium.

    Profile codes are decoded by ``decode_profiles``. Work proceeds in
    chunks of ``_CHUNK_BUDGET // m`` profiles through one workspace, to
    bound memory; the result is the one array as long as ``idx``.
    Penalties come from ``_column_table`` when it has no more cells
    than ``idx`` has codes, else from each profile's posteriors.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    with_table = _table_cells(grid_pts, pack.u_min.shape[0]) <= idx.shape[0]
    grid_pts, table, work = _plan(pack, grid_pts, idx.shape[0], with_table)
    out = np.empty(idx.shape[0])
    for start in range(0, idx.shape[0], work.width):
        stop = min(start + work.width, idx.shape[0])
        out[start:stop] = _gains_numpy(idx[start:stop], grid_pts, pack, table, np.inf, work)
    return out


def reduce_profile_gains(
    packs: Sequence[GamePack], grid_pts: np.ndarray, sources: Sequence, tol: float
) -> list[tuple[float, int, np.ndarray]]:
    """What a search needs of the gains of each pack's profile codes, one
    code source per pack, without building them: per pack, the least gain
    (inf when there are no codes), the code that has it (-1 when none),
    and the codes whose gain is at most ``tol``.

    A source is a ``CodeRange``, ``CodeDraws`` or ``CellCodes``, or an
    int64 array, read a chunk at a time: no array as long as the sweep is
    built. Chunks run in the source's order, each with ``limit = max(tol,
    least gain of the chunks before)``. A profile the kernel drops has a
    gain above that limit, so above ``tol`` and above the final least
    gain, and every kept gain is exact. An array, a range or draws give
    the first code in their order with the least gain, and the codes
    within ``tol`` in that order; cells, whose codes interleave, give the
    lowest code with the least gain, and the codes within ``tol``
    ascending. Either way the results are those of the full gains, bit
    for bit, whatever the chunk width and whatever packs share the call.

    The kernel groups the packs itself (``_groups``): a template and the
    games derived from it stream through one workspace in shared chunks
    (``_stream``), a chunk that spans games being one kernel call with
    each profile's own prior and the largest of its games' limits. A
    tabulated game, and a game whose own sweep takes the column table,
    which depends on the prior, is swept on its own.
    """
    if len(sources) != len(packs):
        raise ValueError(f"need one code source per pack, got {len(sources)} for {len(packs)}")
    # one sort of the grid per type count, not per pack
    cells = {n: _table_cells(grid_pts, n) for n in {p.u_min.shape[0] for p in packs}}
    table = [cells[p.u_min.shape[0]] <= source.size for p, source in zip(packs, sources)]
    out: list = [None] * len(packs)
    for group in _groups(packs, alone=table):
        found = _reduce(
            [packs[k] for k in group], grid_pts, [sources[k] for k in group], tol, table[group[0]]
        )
        for k, triple in zip(group, found):
            out[k] = triple
    return out


def _groups(packs: Sequence[GamePack], alone: Sequence[bool] | None = None) -> list[list[int]]:
    """The indices of ``packs`` that the screen and the kernel treat
    together, by first member: the packs of a template and of the games
    derived from it (``PerceptionGame._with_prior``), which ``pack_game``
    makes one pack up to the prior, so they share ``bound_plan``; a
    tabulated pack, and pack ``k`` with ``alone[k]``, is a group of its
    own."""
    groups: dict = {}
    for k, p in enumerate(packs):
        solo = p.values is not None or (alone is not None and alone[k])
        # a tuple key never equals an id
        groups.setdefault((k,) if solo else id(p.bound_plan), []).append(k)
    return list(groups.values())


def _reduce(
    packs: list[GamePack], grid_pts: np.ndarray, sources: list, tol: float, with_table: bool
) -> list[tuple[float, int, np.ndarray]]:
    """``reduce_profile_gains`` of each pack of one group over its source:
    the column table when ``with_table`` (one pack), one chunk stream for all.
    A chunk of one game is that game's kernel call; a chunk that spans
    games carries each profile's prior ``(n, 1, B)`` and the largest of its
    games' limits, so a profile it drops is above its own game's too."""
    K = len(packs)
    sizes = [source.size for source in sources]
    grid_pts, table, work = _plan(packs[0], grid_pts, sum(sizes), with_table)
    ends = np.cumsum(sizes).tolist()
    by_code = [isinstance(source, CellCodes) for source in sources]
    least, code = [np.inf] * K, [-1] * K
    within: list[list[np.ndarray]] = [[np.empty(0, np.int64)] for _ in range(K)]
    priors = np.stack([p.prior for p in packs], axis=1)[:, None]  # (n, 1, K)
    k, done = 0, 0
    for chunk in _stream(sources, work.width):
        # the chunk's pieces, one per game, as (game, start, stop)
        pieces, lo = [], 0
        while lo < chunk.size:
            while ends[k] <= done + lo:
                k += 1
            hi = min(chunk.size, ends[k] - done)
            pieces.append((k, lo, hi))
            lo = hi
        done += chunk.size
        # max(least, tol), not max(tol, least): a NaN tol keeps nothing
        # within it and must not limit the kernel
        limit = max(max(least[j] for j, _, _ in pieces), tol)
        batch = packs[k]
        if len(pieces) > 1:
            owner = np.repeat([j for j, _, _ in pieces], [hi - lo for _, lo, hi in pieces])
            batch = replace(packs[0], prior=np.take(priors, owner, axis=2))
        gains = _gains_numpy(chunk, grid_pts, batch, table, limit, work)
        for j, lo, hi in pieces:
            part, g = chunk[lo:hi], gains[lo:hi]
            i = int(np.argmin(g))
            if by_code[j] and g[i] <= least[j]:
                # the piece's lowest code with its least gain
                ties = np.flatnonzero(g == g[i])
                i = int(ties[np.argmin(part[ties])])
                if g[i] < least[j] or part[i] < code[j]:
                    least[j], code[j] = float(g[i]), int(part[i])
            elif g[i] < least[j]:
                least[j], code[j] = float(g[i]), int(part[i])
            within[j].append(part[g <= tol])
    out = []
    for j in range(K):
        kept = np.concatenate(within[j])
        out.append((least[j], code[j], np.sort(kept) if by_code[j] else kept))
    return out


def _stream(sources: list, width: int) -> Iterator[np.ndarray]:
    """The codes of ``sources``, one source after the other, in chunks of
    at most ``width``: one source's own chunks; the cells of sources of
    one tree as one ``CellCodes``, so that a chunk of cells is one
    ``_codes`` call whatever games they are of; other sources' chunks
    copied into one buffer, which each chunk views until the next."""
    if len(sources) == 1:
        source = sources[0]
        if isinstance(source, np.ndarray):
            source = np.ascontiguousarray(source, dtype=np.int64)
            yield from (source[i : i + width] for i in range(0, source.size, width))
        else:
            yield from source.chunks(width)
        return
    first = sources[0]
    if all(isinstance(s, CellCodes) and s.tree is first.tree and s.G == first.G for s in sources):
        cells = np.concatenate([s.cells for s in sources], axis=1)
        yield from CellCodes(first.tree, cells, first.G).chunks(width)
        return
    buffer, fill = np.empty(width, np.int64), 0
    for source in sources:
        for chunk in _stream([source], width):
            at = 0
            while at < chunk.size:
                take = min(width - fill, chunk.size - at)
                buffer[fill : fill + take] = chunk[at : at + take]
                fill, at = fill + take, at + take
                if fill == width:
                    yield buffer
                    fill = 0
    if fill:
        yield buffer[:fill]


@dataclass(frozen=True)
class GridTree:
    """The grid's points split in halves down to single points: node
    ``i`` holds the ``size[i]`` points from index ``start[i]`` on, and
    its halves are nodes ``child[i]`` and ``child[i] + 1`` (``child`` is
    0 at a single point). ``box[0, a, i]`` and ``box[1, a, i]`` bound
    the probability of action ``a`` over the node's points. Node 0 is
    the whole grid, and a grid of ``G`` points has ``2 * G - 1`` nodes."""

    start: np.ndarray  # (N,)
    size: np.ndarray  # (N,)
    child: np.ndarray  # (N,)
    box: np.ndarray  # (2, m, N)


def grid_tree(grid_pts: np.ndarray) -> GridTree:
    """The tree of ``grid_pts``, built once per grid (so once per ``(m,
    resolution)`` for a simplex grid) and kept with read-only arrays."""
    pts = np.ascontiguousarray(grid_pts, dtype=np.float64)
    return _grid_tree(pts.shape, pts.tobytes())


@lru_cache(maxsize=16)
def _grid_tree(shape: tuple[int, int], data: bytes) -> GridTree:
    grid_pts = np.frombuffer(data).reshape(shape)
    G, m = shape
    # one level at a time: each node of more than one point splits into
    # its first half and the rest, and the halves follow the whole level
    levels = [(np.zeros(1, np.int64), np.full(1, G, np.int64))]
    while (levels[-1][1] > 1).any():
        start, size = levels[-1]
        split = size > 1
        half = size[split] // 2
        levels.append((
            np.stack([start[split], start[split] + half], axis=1).ravel(),
            np.stack([half, size[split] - half], axis=1).ravel(),
        ))
    start = np.concatenate([lv[0] for lv in levels])
    size = np.concatenate([lv[1] for lv in levels])
    split = size > 1
    child = np.zeros(size.size, np.int64)
    child[split] = 1 + 2 * np.arange(np.count_nonzero(split))
    box = np.empty((2, m, size.size))
    point = ~split
    box[:, :, point] = np.take(grid_pts.T, start[point], axis=1)
    low, high = box
    # a node's halves sit on the next level: fill the levels last first
    bounds = np.cumsum([0] + [lv[0].size for lv in levels])
    for lv in range(len(levels) - 1, -1, -1):
        nodes = bounds[lv] + np.flatnonzero(split[bounds[lv] : bounds[lv + 1]])
        c = child[nodes]
        low[:, nodes] = np.minimum(low[:, c], low[:, c + 1])
        high[:, nodes] = np.maximum(high[:, c], high[:, c + 1])
    for arr in (start, size, child, box):
        arr.flags.writeable = False
    return GridTree(start, size, child, box)


def cell_lower_bound(pack: GamePack, box: np.ndarray) -> np.ndarray:
    """A lower bound on the kernel's gain at every profile of each cell.

    Cell ``j`` puts type ``t``'s probability of action ``a`` in
    ``[box[0, t, a, j], box[1, t, a, j]]`` (``box`` is ``(2, n, m, B)``,
    a grid cell's gathered from ``GridTree.box`` or any other box), and
    the bound holds at every strategy profile in those boxes. An
    additive game's utility of action ``a`` then lies in an interval
    ``[L, H]``: from the penalty's bounds (``stacked_bounds``, once per
    distinct penalty of ``bound_plan``) over the box of prior masses
    when the action is surely on path (some type surely sends mass to
    it), and widened to ``[u_min, u_max]``, which holds every off-path
    fill, when it may be off path. Type ``t``'s gain is at least ``U(b)
    - sum_a sigma_a U(a) = sum_{a != b} sigma_a (U(b) - U(a))`` for
    every ``b``, which is at least the box minimum of ``sum_{a != b}
    sigma_a (L_b - H_a)``: the low end where the coefficient is
    nonnegative, the high end where it is negative. The bound is the
    largest of these over types and ``b``, less a margin of
    ``BOUND_SLACK`` times the game's largest ``|v|``, ``|u_min|`` or
    ``|u_max|`` for the kernel's rounding (``bound_plan.margin``).

    ``pack`` may be a batch of games (one prior per cell): each cell's
    bound is then its own game's, bit for bit.
    """
    n, m = pack.u_min.shape
    plan = pack.bound_plan
    if plan is None:
        raise ValueError("cell bounds need an additive game's pack")
    mass = box * pack.prior.reshape(n, 1, -1)
    total = mass.sum(axis=1)  # (2, m, B)
    sure = total[0] > 0.0
    never = total[1] == 0.0
    u_min, u_max = pack.u_min[:, :, None], pack.u_max[:, :, None]
    low_u = np.empty(mass.shape[1:])
    high_u = np.empty(mass.shape[1:])
    for pen, types, v in zip(plan.penalties, plan.types, plan.v):
        w_lo, w_hi = stacked_bounds(pen, mass, total)
        low_u[types] = v - w_hi
        high_u[types] = v - w_lo
    low_u = np.where(sure, low_u, np.where(never, u_min, np.minimum(low_u, u_min)))
    high_u = np.where(sure, high_u, np.where(never, u_max, np.maximum(high_u, u_max)))
    # each type's gain bound for deviating to b, (b, n, B)
    gains = np.empty((m, n, box.shape[3]))
    for b in range(m):
        term = box * (low_u[:, b : b + 1] - high_u)  # (2, n, m, B)
        term = np.minimum(term[0], term[1])
        term[:, b] = 0.0
        term.sum(axis=1, out=gains[b])
    return gains.max(axis=(0, 1)) - plan.margin


class CellCodes:
    """The codes of the profiles in the cells ``cells`` ``(n, L)`` of the
    grid's ``tree``, cell by cell: a cell gives type ``t`` the points of
    node ``cells[t, j]``, so its codes are a product of per-type index
    ranges, made a chunk of cells at a time (``_codes``). The cells do
    not overlap, but their codes interleave. ``np.asarray``, ``tolist``
    and ``tobytes`` give every code, ascending, for a caller that wants
    them whole."""

    def __init__(self, tree: GridTree, cells: np.ndarray, G: int):
        self.tree, self.cells, self.G = tree, cells, G
        self.count = np.take(tree.size, cells).prod(axis=0)  # per cell
        self.size = int(self.count.sum())

    def chunks(self, width: int) -> Iterator[np.ndarray]:
        ends = np.cumsum(self.count)
        i, done = 0, 0
        while i < self.cells.shape[1]:
            # the next cells with at most width codes, or the next cell
            j = max(i + 1, int(np.searchsorted(ends, done + width, side="right")))
            codes = _codes(self.tree, self.cells[:, i:j], self.G)
            for start in range(0, codes.size, width):
                yield codes[start : start + width]
            i, done = j, int(ends[j - 1])

    def without(self, other: "CellCodes") -> "CellCodes":
        """These cells but those that are cells of ``other``."""
        drop = set(map(tuple, other.cells.T.tolist()))
        keep = [cell not in drop for cell in map(tuple, self.cells.T.tolist())]
        return CellCodes(self.tree, self.cells[:, np.array(keep, dtype=bool)], self.G)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        codes = np.sort(_codes(self.tree, self.cells, self.G))
        return codes if dtype is None else codes.astype(dtype)

    def tolist(self) -> list[int]:
        return np.asarray(self).tolist()

    def tobytes(self) -> bytes:
        return np.asarray(self).tobytes()


def screen_profiles(
    packs: Sequence[GamePack], grid_pts: np.ndarray, limit: float
) -> list[tuple[CellCodes, int]]:
    """For each of ``packs``, additive games' packs, the profiles whose
    cells ``cell_lower_bound`` cannot put above ``limit``, as the kept
    leaves (``CellCodes``, a code source), and the lowest code of the
    pruned cell with the least bound (-1 when none is pruned).

    The screen groups the packs itself (``_groups``) and screens each
    group, a template and the games derived from it, in one pass
    (``_screen``): every cell carries the index of its game, the cells of
    all the games make up each level, and one ``cell_lower_bound`` call
    bounds a batch of them at once, each cell with its own game's prior.
    A cell's bound, and so whether it is pruned, kept or split, does not
    depend on the cells it is batched with, so each game's kept leaves
    and seed are those of screening it alone, bit for bit and in the same
    order.

    The screen runs the tree of cells breadth first, bounding each level
    in batches of cells: the root gives every type the whole grid, a
    cell bounded above ``limit`` is pruned, a kept cell of at most
    ``_LEAF`` profiles is a leaf, and every other kept cell is split in
    half on each of its ``_SPLIT_TYPES`` types with the most points (the
    first ones on a tie), so cells shrink about evenly on every type.
    Every profile whose gain is at most ``limit`` lies in a leaf. A
    game's seed cell is its first pruned cell with the least bound, in
    level order.

    The root is not bounded when ``limit >= 0``, the grid has more than
    ``_LEAF`` profiles and every action has probability 0 at some grid
    point (a vertex, on a simplex grid): the screen starts at the root's
    children. At the root every action's low end (``tree.box[0, :, 0]``)
    is then 0, so each term ``min(low * x, high * x)`` of
    ``cell_lower_bound`` is at most 0 (or NaN), and the root's bound is
    at most ``-margin <= 0 <= limit`` (or NaN): it would be kept and
    split, whatever the game, so the kept leaves and the seed are those
    of bounding it. A negative or NaN ``limit`` bounds the root as any
    other cell.
    """
    out: list = [None] * len(packs)
    for group in _groups(packs):
        for k, pair in zip(group, _screen([packs[k] for k in group], grid_pts, limit)):
            out[k] = pair
    return out


def _screen(packs: list[GamePack], grid_pts: np.ndarray, limit: float) -> list[tuple[CellCodes, int]]:
    """``screen_profiles`` of the packs of one group, in one pass."""
    first = packs[0]
    n, K = first.u_min.shape[0], len(packs)
    G = grid_pts.shape[0]
    tree = grid_tree(grid_pts)
    batch = max(1, _CHUNK_BUDGET // first.u_min.size)
    priors = np.stack([p.prior for p in packs], axis=1)[:, None]  # (n, 1, K)
    cells, game = np.zeros((n, K), dtype=np.int64), np.arange(K)
    if limit >= 0.0 and G**n > _LEAF and not tree.box[0, :, 0].any():
        cells, parent = _split(tree, cells, np.take(tree.size, cells))
        game = game[parent]
    leaves, owners = [], []
    least, seed = np.full(K, np.inf), np.zeros((n, K), dtype=np.int64)
    while cells.shape[1]:
        bound = np.concatenate([
            cell_lower_bound(
                replace(first, prior=np.take(priors, game[i : i + batch], axis=2)),
                np.take(tree.box, cells[:, i : i + batch], axis=2).transpose(0, 2, 1, 3),
            )
            for i in range(0, cells.shape[1], batch)
        ])
        cut = bound > limit
        if cut.any():
            # each game's first cut cell with its least bound of the level
            at = np.flatnonzero(cut)
            at = at[np.lexsort((bound[at], game[at]))]
            g, i = np.unique(game[at], return_index=True)
            i = at[i]
            better = bound[i] < least[g]
            least[g[better]] = bound[i[better]]
            seed[:, g[better]] = cells[:, i[better]]
        size = np.take(tree.size, cells)
        leaf = size.prod(axis=0) <= _LEAF
        keep = leaf & ~cut
        leaves.append(cells[:, keep])
        owners.append(game[keep])
        grow = ~(leaf | cut)
        cells, parent = _split(tree, cells[:, grow], size[:, grow])
        game = game[grow][parent]
    owner = np.concatenate(owners)
    kept = np.concatenate(leaves, axis=1)[:, np.argsort(owner, kind="stable")]
    ends = np.cumsum(np.bincount(owner, minlength=K)).tolist()
    # a cell's lowest code gives each type the first point of its node
    starts = np.take(tree.start, seed).T.tolist()
    return [
        (
            CellCodes(tree, kept[:, lo:hi], G),
            sum(s * G ** (n - 1 - t) for t, s in enumerate(start)) if bound_g < np.inf else -1,
        )
        for lo, hi, start, bound_g in zip([0] + ends, ends, starts, least.tolist())
    ]


def _split(tree: GridTree, cells: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The children of the cells ``(n, K)`` with ``size`` points per
    type, and each child's parent (its index in ``cells``): each cell is
    split in half on each of its ``_SPLIT_TYPES`` types with the most
    points (the first ones on a tie) that have more than one, into every
    choice of a half on each of those types.

    The children are ordered as if the types were split one after the
    other, type 0 first, each split keeping the first halves in place
    and appending the second halves in order: by the types that take
    their second half, read as a binary number with type ``t`` worth
    ``2**t``, then by parent. That number is below ``2**n``; a grid
    whose profile codes fit an int64 and that has a cell to split has
    ``n <= 62``."""
    n, K = cells.shape
    if not K:
        return cells, np.zeros(0, np.int64)
    wide = size > 1
    count = wide.sum(axis=0)
    if count.max() > _SPLIT_TYPES:
        rank = np.argsort(np.argsort(-size, axis=0, kind="stable"), axis=0)
        wide &= rank < _SPLIT_TYPES
        count = wide.sum(axis=0)
    # child r takes the second half on a cell's i-th split type (i from
    # 1, as ``place`` counts them) when bit i of 2 * r is set
    place = np.cumsum(wide, axis=0)[:, :, None]
    choice = np.arange(1 << min(n, _SPLIT_TYPES))
    second = ((2 * choice) >> place) & wide[:, :, None]  # (n, K, R)
    kids = np.where(wide, np.take(tree.child, cells), cells)[:, :, None] + second
    order = (second << np.arange(n)[:, None, None]).sum(axis=0)  # (K, R)
    made = choice < (1 << count)[:, None]
    by_order = np.argsort(order[made], kind="stable")
    return kids[:, made][:, by_order], np.nonzero(made)[0][by_order]


def _codes(tree: GridTree, cells: np.ndarray, G: int) -> np.ndarray:
    """The profile codes of the cells ``(n, L)``, cell by cell."""
    n = cells.shape[0]
    start = np.take(tree.start, cells)
    size = np.take(tree.size, cells)
    count = size.prod(axis=0)
    owner = np.repeat(np.arange(cells.shape[1]), count)
    rest = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    code = np.zeros(owner.size, dtype=np.int64)
    place = 1
    for t in range(n - 1, -1, -1):
        s = np.take(size[t], owner)
        code += (np.take(start[t], owner) + rest % s) * place
        rest //= s
        place *= G
    return code
