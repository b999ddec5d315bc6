import gc
import hashlib
import weakref
from dataclasses import FrozenInstanceError, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perception_games import kernels
from perception_games.experiments import default_majority_family
from perception_games.fixtures import blog, counterexample_lsc
from perception_games.kernels import decode_profiles, pack_game, sweep_profile_gains
from perception_games.model import ActionSpace, PerceptionGame, TypeSpace, UtilityModel, validate_game
from perception_games.penalties import PenaltySpec
from perception_games.simplex import SimplexGrid, lattice_rank
from perception_games.single import profile_report, search_mixed_equilibria
from perception_games.testing import dyadic_prior, random_mixed_catalog_game

from helpers import (
    catalog_penalties,
    reference_cell_lower_bound,
    reference_free_rows,
    reference_profile_report,
    reference_screen,
    tabulate,
    tree_boxes,
)


def _all_profiles(game, resolution):
    pts = SimplexGrid(game.m, resolution).points()
    idx = np.arange(pts.shape[0] ** game.n, dtype=np.int64)
    return pts, idx


def _sample(total, size, seed):
    if total <= size:
        return np.arange(total, dtype=np.int64)
    return np.random.default_rng(seed).choice(total, size=size, replace=False)


def _game(prior, v, penalties) -> PerceptionGame:
    v = np.asarray(v, dtype=np.float64)
    n, m = v.shape
    return PerceptionGame(
        types=TypeSpace.plain(tuple(f"t{i}" for i in range(n))),
        actions=ActionSpace.plain(tuple(f"a{i}" for i in range(m))),
        prior=prior,
        utility=UtilityModel(kind="additive_separable", v=v, penalties=tuple(penalties)),
        allow_discontinuous=True,
    )


def eight_type_game() -> PerceptionGame:
    """8 types, 3 actions: tv_to_prior on even types, step penalties on
    odd ones. Eight summands is where numpy's pairwise summation starts
    to differ from summing in index order."""
    rng = np.random.default_rng(8)
    labels = tuple(f"t{i}" for i in range(8))
    penalties = tuple(
        PenaltySpec.tv_to_prior(float(rng.uniform(0.5, 3.0)))
        if t % 2 == 0
        else PenaltySpec.step(
            pieces=((0.25, 0.5, float(rng.uniform(0.5, 2.0)), True, False),),
            over=labels[t - 1 : t + 1],
        )
        for t in range(8)
    )
    return _game(dyadic_prior(rng, 8), rng.uniform(0.0, 1.0, size=(8, 3)), penalties)


def zero_prior_game() -> PerceptionGame:
    """t2 has no prior mass: an action only t2 plays is off path, and
    t2's row there is free, raised toward its cap and clamped when its
    best belief would beat the cap."""
    return _game(
        [0.5, 0.5, 0.0],
        [[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.2, 0.4, 3.0]],
        [
            PenaltySpec.tv_to_prior(1.0),
            PenaltySpec.exposure(0.75),
            PenaltySpec.piecewise_linear(((0.0, 0.0), (0.5, 1.5), (1.0, 0.5)), over=("t2",)),
        ],
    )


def step_bounds_game() -> PerceptionGame:
    """Each type's step pieces end on quarter values, one type for each
    open/closed combination of the two bounds."""
    labels = ("t0", "t1", "t2", "t3")
    penalties = [
        PenaltySpec.step(
            pieces=((0.25, 0.5, 1.5, il, ih), (0.5, 0.75, 0.5, il, ih)),
            over=(labels[t], labels[(t + 1) % 4]),
        )
        for t, (il, ih) in enumerate(product((True, False), repeat=2))
    ]
    v = [[1.0, 0.25], [0.5, 1.0], [0.75, 0.5], [0.0, 1.25]]
    return _game([0.25] * 4, v, penalties)


def polyline_knots_game() -> PerceptionGame:
    """Knots on quarter values. At x = 0.25, the segment on the left
    gives 0.3 + (0.9 - 0.3) = 0.9000000000000001, the one on the right
    0.9, so the kernel must pick the same segment as the evaluator."""
    knots = ((0.0, 0.3), (0.25, 0.9), (0.5, 0.3), (0.75, 1.7), (1.0, 0.1))
    return _game(
        [0.25, 0.5, 0.25],
        [[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.5, 0.0, 1.0]],
        [
            PenaltySpec.piecewise_linear(knots, over=("t0",)),
            PenaltySpec.piecewise_linear(knots, over=("t0", "t1")),
            PenaltySpec.piecewise_linear(knots, over=("t1", "t2"), weight=0.5),
        ],
    )


def full_event_step_game() -> PerceptionGame:
    """t2 and t3 have no prior mass and a step over the event of every
    type, whose range is its value at mass 1. With prior [0.4, 0.6], the
    masses after an action sum to 1.0000000000000002 when t0 and t1 play
    it with probabilities 0.2 and 1.0, and to 0.9999999999999999 with
    0.2 and 0.8. The pieces miss the first and the second respectively,
    so t2's row there lies above its ``u_max`` and t3's below its
    ``u_min``: a cell in which the action may be off path must still
    bound those rows by their on-path values."""
    every = ("t0", "t1", "t2", "t3")
    return _game(
        [0.4, 0.6, 0.0, 0.0],
        [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
        [
            PenaltySpec.zero(),
            PenaltySpec.zero(),
            PenaltySpec.step(((0.5, 1.0, 2.0, True, True),), over=every),
            PenaltySpec.step(((1.0, 1.0, 0.0, True, True), (0.0, 1.0, 2.0, True, True)), over=every),
        ],
    )


def tied_prior_tv_game() -> PerceptionGame:
    return _game(
        [0.125, 0.375, 0.125, 0.375],
        [[1.0, 0.0], [0.25, 1.0], [0.5, 0.75], [1.0, 0.5]],
        [PenaltySpec.tv_to_prior(w) for w in (1.0, 2.0, 0.5, 1.5)],
    )


@st.composite
def additive_catalog_games(draw, max_actions: int = 3) -> PerceptionGame:
    """1-5 types, 1 to ``max_actions`` actions, any catalog penalties;
    some types may have no prior mass. Sometimes those types get the
    largest ``v``, so that a capped free row of theirs decides a
    profile's gain."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, max_actions))
    labels = tuple(f"t{i}" for i in range(n))
    counts = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)))
    v = np.reshape(draw(st.lists(st.floats(0.0, 5.0), min_size=n * m, max_size=n * m)), (n, m))
    if draw(st.booleans()):
        v[counts == 0] *= 10.0
    return _game(
        counts / counts.sum(),
        v,
        [draw(catalog_penalties(labels)) for _ in range(n)],
    )


@st.composite
def catalog_games(draw) -> PerceptionGame:
    """An ``additive_catalog_games`` game, or sometimes its utilities
    tabulated on a lattice of resolution 1 to 6."""
    game = draw(additive_catalog_games())
    if draw(st.booleans()):
        return tabulate(game, draw(st.integers(1, 6)))
    return game


def _has_off_path_action(game, sig) -> np.ndarray:
    """Per profile: does some action get no prior mass?"""
    return ~(np.einsum("t,btm->bm", game.prior.p, sig) > 0.0).all(axis=1)


def _code(G: int, points) -> int:
    """Profile code of per-type grid point indices, type 0 most significant."""
    code = 0
    for j in points:
        code = code * G + j
    return code


class TestPackGame:
    def test_packs_tabulated(self):
        game = tabulate(blog(), 8)
        pack = pack_game(game)
        assert pack.v is None and pack.resolution == 8
        np.testing.assert_array_equal(pack.values, game.utility.values)
        for t, a in np.ndindex(game.n, game.m):
            r = game.u_range(t, a)
            assert (pack.u_min[t, a], pack.u_max[t, a]) == (r.min, r.max)
            assert pack.argmin[t, a].tobytes() == r.argmin.p.tobytes()
            assert pack.argmax[t, a].tobytes() == r.argmax.p.tobytes()

    @pytest.mark.parametrize("build", [blog, lambda: tabulate(blog(), 8)])
    def test_reads_each_range_once(self, build, monkeypatch):
        """``_pack`` reads every (type, action)'s ``u_range`` once: its
        ends and the beliefs at them."""
        game = build()
        calls = []
        real = PerceptionGame.u_range
        monkeypatch.setattr(PerceptionGame, "u_range", lambda g, t, a: calls.append((t, a)) or real(g, t, a))
        pack = pack_game(game)
        assert sorted(calls) == list(np.ndindex(game.n, game.m))
        assert pack.argmin.shape == pack.argmax.shape == (game.n, game.m, game.n)

    def test_blog_pack_shapes(self):
        pack = pack_game(blog())
        assert pack.v.shape == (2, 2)
        assert pack.u_min.shape == pack.u_max.shape == (2, 2)
        np.testing.assert_allclose(pack.prior, [0.5, 0.5])

    @pytest.mark.parametrize("build", [blog, lambda: tabulate(blog(), 4)])
    def test_one_frozen_pack_per_game(self, build):
        game = build()
        pack = pack_game(game)
        assert pack_game(game) is pack
        assert pack_game(build()) is not pack
        with pytest.raises(FrozenInstanceError):
            pack.prior = np.array([0.25, 0.75])

    def test_pack_dropped_with_its_game(self):
        game = blog()
        pack = weakref.ref(pack_game(game))
        del game
        gc.collect()
        assert pack() is None


class TestNumpyGainsAgainstEvaluator:
    """Kernel gains equal the exact evaluator's bit for bit."""

    @staticmethod
    def _assert_equal(game, pts, idx):
        """Both ways the chunk function takes penalties: from each
        profile's posteriors, and from the column table of ``pts``
        whether or not ``sweep_profile_gains`` would build it."""
        pack = pack_game(game)
        reports = [profile_report(game, s) for s in decode_profiles(pts, idx, game.n)]
        for table in (None, kernels._column_table(pts, pack)):
            gains = kernels._gains_numpy(idx, pts, pack, table)
            assert gains.shape == idx.shape
            assert gains.tolist() == [rep.max_gain for rep in reports]
        return reports

    @pytest.mark.parametrize("seed", range(12))
    def test_gain_matches_profile_report(self, seed):
        game = random_mixed_catalog_game(np.random.default_rng(seed))
        pts, idx = _all_profiles(game, 3)
        self._assert_equal(game, pts, _sample(idx.size, 600, seed))

    @pytest.mark.parametrize("seed", range(12))
    def test_pure_grid_matches_profile_report(self, seed):
        game = random_mixed_catalog_game(np.random.default_rng(seed))
        self._assert_equal(game, np.eye(game.m), np.arange(game.m**game.n, dtype=np.int64))

    def test_eight_types_tv_and_step(self):
        game = eight_type_game()
        self._assert_equal(game, np.eye(3), _sample(3**8, 400, 1))
        pts = SimplexGrid(3, 2).points()
        self._assert_equal(game, pts, _sample(pts.shape[0] ** 8, 400, 2))

    def test_zero_prior_type_free_rows_and_cap(self):
        game = zero_prior_game()
        reports = self._assert_equal(game, np.eye(3), np.arange(27, dtype=np.int64))
        pts, idx = _all_profiles(game, 4)
        reports += self._assert_equal(game, pts, _sample(idx.size, 600, 3))
        assert {rep.clamped for rep in reports} == {True, False}

    def test_step_bounds_on_grid_values(self):
        game = step_bounds_game()
        pts, idx = _all_profiles(game, 4)
        self._assert_equal(game, pts, idx)
        self._assert_equal(game, np.eye(2), np.arange(16, dtype=np.int64))
        # with a uniform prior, the mass on t0's event {t0, t1} after an
        # action is that action's share of the two types' strategy mass
        sig = decode_profiles(pts, idx, game.n)
        with np.errstate(invalid="ignore"):
            x = sig[:, :2, :].sum(axis=1) / sig.sum(axis=1)
        assert {0.25, 0.5, 0.75} <= set(x[np.isfinite(x)].tolist())

    def test_polyline_knots_on_grid_values(self):
        game = polyline_knots_game()
        pts, idx = _all_profiles(game, 4)
        self._assert_equal(game, pts, _sample(idx.size, 600, 4))
        self._assert_equal(game, np.eye(3), np.arange(27, dtype=np.int64))

    def test_tv_with_tied_prior(self):
        game = tied_prior_tv_game()
        pts, idx = _all_profiles(game, 4)
        self._assert_equal(game, pts, idx)
        self._assert_equal(game, np.eye(2), np.arange(16, dtype=np.int64))

    @settings(max_examples=150, deadline=None)
    @given(game=catalog_games(), resolution=st.sampled_from([0, 3, 4]), data=st.data())
    def test_random_catalog_games(self, game, resolution, data):
        """Resolution 0 is the pure grid. One batch, one chunk: it holds
        a pooling profile, which leaves the other actions off path, a
        profile that plays every action where the grid allows, and the
        pool with the zero-prior types playing that spread instead, so
        that their rows at the actions the pool leaves off path are
        free and capped."""
        n, m = game.n, game.m
        pts = np.eye(m) if resolution == 0 else SimplexGrid(m, resolution).points()
        G = pts.shape[0]
        positive = np.flatnonzero(game.prior.p > 0.0)
        pool = _code(G, [0] * n)
        if resolution == 0:
            spread = np.zeros(n, dtype=np.int64)
            spread[positive] = np.arange(positive.size) % m
        else:
            spread = np.full(n, int(np.flatnonzero(pts.min(axis=1) > 0.0)[0]))
        drawn = data.draw(st.lists(st.integers(0, G**n - 1), max_size=30))
        free = np.where(game.prior.p > 0.0, 0, spread)
        idx = np.array([pool, _code(G, spread), _code(G, free), *drawn], dtype=np.int64)
        assert idx.size <= kernels._CHUNK_BUDGET // (n * m)
        off = _has_off_path_action(game, decode_profiles(pts, idx, n))
        assert off.any() == (m > 1)
        assert not off.all() or (resolution == 0 and positive.size < m)
        self._assert_equal(game, pts, idx)


class TestOneFreeRowFill:
    """``profile_report`` raises its free rows through the kernel's
    ``_raise_free_rows`` and gives the reports of its former own cap loop
    (``helpers.reference_profile_report``) bit for bit."""

    @staticmethod
    def _assert_is_reference(game, sigma) -> bool:
        rep = profile_report(game, sigma)
        _, tau, clamped, payoffs, gains = reference_profile_report(game, sigma)
        assert rep.gains.tobytes() == gains.tobytes()
        assert rep.payoffs.tobytes() == payoffs.tobytes()
        assert rep.perceptions.tau.tobytes() == tau.tobytes()
        assert rep.clamped is clamped
        return clamped

    def test_zero_prior_game(self):
        game = zero_prior_game()
        pts, idx = _all_profiles(game, 4)
        clamped = [self._assert_is_reference(game, s) for s in decode_profiles(pts, idx, game.n)]
        assert set(clamped) == {True, False}

    @settings(max_examples=100, deadline=None)
    @given(
        game=additive_catalog_games().filter(lambda g: bool((g.prior.p == 0.0).any())),
        data=st.data(),
    )
    def test_catalog_games_with_a_zero_prior_type(self, game, data):
        pts = SimplexGrid(game.m, 2).points()
        codes = st.integers(0, pts.shape[0] ** game.n - 1)
        idx = np.array(data.draw(st.lists(codes, min_size=1, max_size=12)), dtype=np.int64)
        for sigma in decode_profiles(pts, idx, game.n):
            self._assert_is_reference(game, sigma)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rows_are_the_cap_loop(self, data):
        """One type's rows: on-path rows, off-path rows at ``u_min``, and
        the played ones among those raised and clamped."""
        m = data.draw(st.integers(1, 4))
        values = st.floats(-4.0, 4.0) | st.sampled_from((0.0, 1.0))
        on = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        sig = np.array(data.draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)), min_size=m, max_size=m)))
        low, span = (np.array(data.draw(st.lists(values, min_size=m, max_size=m))) for _ in range(2))
        high = low + np.abs(span)
        rows = np.where(on, np.array(data.draw(st.lists(values, min_size=m, max_size=m))), low)
        free = ~on & (sig > 0.0)
        got = kernels._raise_free_rows(rows[:, None], sig[:, None], on[:, None], high)[:, 0]
        want, clamped = reference_free_rows(rows[None], free[None], low[None], high[None])
        assert got.tobytes() == want[0].tobytes()
        assert bool((free & (got < high)).any()) is clamped


class TestUnderflowingPrior:
    """t1's prior times 1/2 rounds to 0, so at a profile where t1 plays
    a1 with probability 1/2 and t0 never does, a1 is off path and t1's
    row there is free, though no prior is 0."""

    @staticmethod
    def _game() -> PerceptionGame:
        return _game([1.0, 5e-324], np.eye(2), [PenaltySpec.zero(), PenaltySpec.exposure(2.0)])

    def test_kernel_raises_the_free_row(self):
        game = self._game()
        pts = SimplexGrid(2, 2).points()
        code = _code(3, [2, 1])  # t0 plays (1, 0), t1 (1/2, 1/2)
        rep = profile_report(game, decode_profiles(pts, code, 2))
        gain = sweep_profile_gains(pack_game(game), pts, np.array([code]))
        assert rep.clamped and rep.max_gain == 0.0
        assert gain.tobytes() == np.array([rep.max_gain]).tobytes()

    def test_search_keeps_the_profile(self):
        survivors = search_mixed_equilibria(self._game(), step=0.5).survivors
        assert any(r.strategy.sigma.tolist() == [[1.0, 0.0], [0.5, 0.5]] for r in survivors)


class TestTabulatedGains:
    """Tabulated games go through the same kernel, and their gains equal
    the exact evaluator's bit for bit on both kernel paths."""

    @pytest.mark.parametrize("resolution", [0, 4])
    def test_blog_at_resolution_10(self, resolution):
        self._check(tabulate(blog(), 10), resolution)

    @pytest.mark.parametrize("resolution", [0, 4])
    @pytest.mark.parametrize("k", [3, 6, 10])
    def test_three_by_three_catalog_game(self, k, resolution):
        game = random_mixed_catalog_game(np.random.default_rng(0))
        assert (game.n, game.m) == (3, 3)
        self._check(tabulate(game, k), resolution)

    @staticmethod
    def _check(game, resolution):
        """Resolution 0 is the pure grid."""
        if resolution == 0:
            pts, idx = np.eye(game.m), np.arange(game.m**game.n, dtype=np.int64)
        else:
            pts, idx = _all_profiles(game, resolution)
            idx = _sample(idx.size, 600, resolution)
        TestNumpyGainsAgainstEvaluator._assert_equal(game, pts, idx)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_lattice_rank_is_composition_index(self, n):
        for k in range(1, 11):
            comps = np.array(list(SimplexGrid(n, k).compositions()), dtype=np.int64)
            suffix = np.cumsum(comps[:, ::-1], axis=1)[:, ::-1][:, 1:]
            ranks = lattice_rank(suffix, k)
            np.testing.assert_array_equal(ranks, np.arange(comps.shape[0]))


class TestColumnTableRule:
    """The sweep builds the column table only when it has no more cells
    (columns x types) than there are codes to sweep."""

    @staticmethod
    def _takes_table(monkeypatch, game, pts, idx) -> bool:
        built = []
        column_table = kernels._column_table

        def spy(grid_pts, pack):
            built.append(grid_pts.shape)
            return column_table(grid_pts, pack)

        monkeypatch.setattr(kernels, "_column_table", spy)
        sweep_profile_gains(pack_game(game), pts, idx)
        return bool(built)

    def test_two_action_grid_declines(self, monkeypatch):
        """4 types x 2 actions at step 0.05: 21**4 columns x 4 types
        against 21**4 profiles."""
        game = default_majority_family().game_for(0.5)
        pts, idx = _all_profiles(game, 20)
        assert not self._takes_table(monkeypatch, game, pts, idx)

    def test_three_action_sample_takes_it(self, monkeypatch):
        """3 types x 3 actions at step 0.05: 21**3 columns x 3 types
        against a 2M-profile sample."""
        game = polyline_knots_game()
        pts = SimplexGrid(3, 20).points()
        idx = np.random.default_rng(5).integers(0, pts.shape[0] ** 3, size=2_000_000)
        assert self._takes_table(monkeypatch, game, pts, idx)

    def test_pure_grid_at_the_bound(self, monkeypatch):
        """8 types x 3 actions, pure: 2**8 columns x 8 types = 2,048
        cells, against 3**8 profiles or the first 2,048 or 2,047."""
        game = eight_type_game()
        for size, taken in ((3**8, True), (2048, True), (2047, False)):
            idx = np.arange(size, dtype=np.int64)
            assert self._takes_table(monkeypatch, game, np.eye(3), idx) == taken


class TestChunking:
    def test_chunking_does_not_change_numpy_results(self, monkeypatch):
        game = blog()
        pack = pack_game(game)
        pts, idx = _all_profiles(game, 12)
        whole = sweep_profile_gains(pack, pts, idx)
        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", 7 * game.n * game.m)
        np.testing.assert_array_equal(sweep_profile_gains(pack, pts, idx), whole)

    def test_one_profile_per_chunk_with_off_path_fill(self, monkeypatch):
        """Each chunk either skips the off-path fill or runs it."""
        game = zero_prior_game()
        pack = pack_game(game)
        pts, idx = _all_profiles(game, 4)
        whole = sweep_profile_gains(pack, pts, idx)
        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", game.n * game.m)
        gains = sweep_profile_gains(pack, pts, idx)
        np.testing.assert_array_equal(gains, whole)
        sig = decode_profiles(pts, idx, game.n)
        off = _has_off_path_action(game, sig)
        assert off.any() and not off.all()
        assert gains.tolist() == [profile_report(game, s).max_gain for s in sig]


    @pytest.mark.parametrize("build", [polyline_knots_game, eight_type_game])
    def test_table_path_in_chunks(self, monkeypatch, build):
        """3 actions, pure: 2**n columns x n types, 24 or 2,048 cells,
        against 3**n profiles, so the sweep takes the column table, here
        a few profiles at a time."""
        game = build()
        pack = pack_game(game)
        pts, idx = np.eye(3), np.arange(3**game.n, dtype=np.int64)
        assert TestColumnTableRule._takes_table(monkeypatch, game, pts, idx)
        whole = sweep_profile_gains(pack, pts, idx)
        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", 5 * game.n * game.m)
        np.testing.assert_array_equal(sweep_profile_gains(pack, pts, idx), whole)


class TestCodeSources:
    """Each code source yields its codes a chunk of at most the width at
    a time, and the reduction of cells does not depend on the width."""

    @pytest.mark.parametrize("total", [231**3, 2**40 + 3])
    @pytest.mark.parametrize("width", [1, 7, kernels._CHUNK_BUDGET // 3])
    def test_draws_in_chunks_are_one_draw(self, total, width):
        """The numpy property a subsample's answer rests on: ``integers``
        draws the same codes in chunks as in one call, below 2**32 (where
        PCG64 keeps the unused half of a 64-bit word in the generator)
        and above it. ``_CHUNK_BUDGET // 3`` is the kernel's chunk on a
        3-action grid."""
        size = max(3 * width, 1000) + 5
        one = np.random.default_rng(11).integers(0, total, size=size, dtype=np.int64)
        rng = np.random.default_rng(11)
        parts = [
            rng.integers(0, total, size=min(width, size - start), dtype=np.int64)
            for start in range(0, size, width)
        ]
        np.testing.assert_array_equal(np.concatenate(parts), one)
        drawn = list(kernels.CodeDraws(np.random.default_rng(11), total, size).chunks(width))
        assert max(chunk.size for chunk in drawn) <= width
        np.testing.assert_array_equal(np.concatenate(drawn), one)

    @pytest.mark.parametrize("start, stop, width", [(0, 0, 4), (0, 10, 3), (5, 17, 4), (0, 6, 10)])
    def test_range(self, start, stop, width):
        # a chunk is the source's buffer until the next is drawn
        chunks = [chunk.copy() for chunk in kernels.CodeRange(start, stop).chunks(width)]
        assert all(0 < chunk.size <= width for chunk in chunks)
        codes = np.concatenate([np.empty(0, np.int64)] + chunks)
        np.testing.assert_array_equal(codes, np.arange(start, stop))

    @pytest.mark.parametrize("width", [1, 7, 300])
    def test_cells_in_cell_order(self, width):
        pts = SimplexGrid(2, 20).points()
        kept, _ = kernels.screen_profiles(pack_game(blog()), pts, 0.05)
        chunks = list(kept.chunks(width))
        assert all(0 < chunk.size <= width for chunk in chunks)
        codes = np.concatenate(chunks)
        np.testing.assert_array_equal(codes, kernels._codes(kept.tree, kept.cells, pts.shape[0]))
        assert codes.size == kept.size and np.any(np.diff(codes) < 0)
        np.testing.assert_array_equal(np.sort(codes), np.asarray(kept))

    @pytest.mark.parametrize("chunk", [1, 7, 300])
    def test_cells_reduce_as_their_sorted_codes(self, monkeypatch, chunk):
        """Every cell of ``blog`` at step 0.05, where codes 0, 420 and
        440 tie at gain 0, in the screen's order and reversed, where 440
        comes first: the lowest code with the least gain, and the codes
        within ``tol`` ascending, whatever the chunks."""
        game = blog()
        pack = pack_game(game)
        pts = SimplexGrid(2, 20).points()
        kept, _ = kernels.screen_profiles(pack, pts, np.inf)
        codes = np.asarray(kept)
        full = sweep_profile_gains(pack, pts, codes)
        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", chunk * game.m)
        reversed_cells = kernels.CellCodes(kept.tree, kept.cells[:, ::-1], pts.shape[0])
        order = np.concatenate(list(reversed_cells.chunks(1))).tolist()
        assert order.index(440) < order.index(420) < order.index(0)
        for cells in (kept, reversed_cells):
            for tol in TOLS:
                least, code, within = kernels.reduce_profile_gains(pack, pts, cells, tol)
                assert (least.hex(), code, within.tolist()) == _full_reduction(codes, full, tol), tol

    def test_cells_without_the_cells_of_a_lower_screen(self):
        """A screen at a higher limit keeps every cell of a lower one, so
        ``without`` leaves the codes only the higher one keeps."""
        pack = pack_game(counterexample_lsc())
        pts = SimplexGrid(2, 100).points()
        low, _ = kernels.screen_profiles(pack, pts, 1e-9)
        high, _ = kernels.screen_profiles(pack, pts, 0.6)
        more = high.without(low)
        assert 0 < low.size < high.size < pts.shape[0] ** 2
        assert more.size == high.size - low.size
        np.testing.assert_array_equal(np.asarray(more), np.setdiff1d(np.asarray(high), np.asarray(low)))


class TestDecodeProfile:
    def test_roundtrip_lex_order(self):
        pts = SimplexGrid(2, 2).points()
        G = pts.shape[0]
        # type 0 is the most significant digit
        np.testing.assert_array_equal(decode_profiles(pts, 1, 2), pts[[0, 1]])
        np.testing.assert_array_equal(decode_profiles(pts, G, 2), pts[[1, 0]])

    def test_batch_shape_and_order(self):
        pts = SimplexGrid(3, 2).points()
        G = pts.shape[0]
        idx = np.arange(G**3, dtype=np.int64)
        sigmas = decode_profiles(pts, idx, 3)
        assert sigmas.shape == (G**3, 3, 3)
        # ascending codes run through the profiles in lexicographic order
        np.testing.assert_array_equal(sigmas, np.array(list(product(pts, repeat=3))))
        grid = decode_profiles(pts, idx.reshape(G, G * G), 3)
        assert grid.shape == (G, G * G, 3, 3)
        np.testing.assert_array_equal(grid.reshape(sigmas.shape), sigmas)

    @pytest.mark.parametrize("G, n", [(2, 1), (231, 1), (231, 3), (3, 8), (10_626, 4), (2, 62)])
    def test_digits_are_unravel_index(self, G, n):
        total = G**n
        rng = np.random.default_rng(n)
        codes = np.concatenate([[0, total - 1], rng.integers(0, total, size=500)]).astype(np.int64)
        expected = np.stack(np.unravel_index(codes, (G,) * n))
        np.testing.assert_array_equal(kernels._digits(codes, G, n), expected)
        assert kernels._digits(total - 1, G, n).tolist() == [G - 1] * n


def five_action_game() -> PerceptionGame:
    """3 types x 5 actions, one penalty kind each: at step 0.05 the grid
    takes 21 values, so 21**3 columns x 5 actions need 16-bit fields,
    3 to a word, in 2 words."""
    rng = np.random.default_rng(55)
    return _game(
        [0.25, 0.5, 0.25],
        rng.uniform(0.0, 2.0, size=(3, 5)),
        [
            PenaltySpec.tv_to_prior(1.5),
            PenaltySpec.piecewise_linear(((0.0, 0.2), (0.25, 1.1), (1.0, 0.4)), over=("t0", "t1")),
            PenaltySpec.step(((0.25, 0.5, 0.8, True, False),), over=("t1", "t2")),
        ],
    )


class TestPackedColumnTable:
    """The column table's packed words give every profile's table
    entries, and the table path's gains equal the per-profile path's
    bit for bit, unlimited and at a finite limit."""

    @staticmethod
    def _check(game, pts, idx, words):
        pack = pack_game(game)
        table = kernels._column_table(pts, pack)
        assert table.words.shape == (game.n, words, pts.shape[0])
        # entry a * C + c: column c is coded base V, type 0 most significant
        vals, rank = np.unique(pts, return_inverse=True)
        rank = rank.reshape(pts.shape)
        C = vals.size**game.n
        digits = kernels._digits(idx, pts.shape[0], game.n)
        column = sum(rank[digits[t]] * vals.size ** (game.n - 1 - t) for t in range(game.n))
        entries = kernels._table_entries(table, digits, game.m)
        np.testing.assert_array_equal(entries, (np.arange(game.m) * C + column).T)
        full = kernels._gains_numpy(idx, pts, pack)
        assert kernels._gains_numpy(idx, pts, pack, table).tobytes() == full.tobytes()
        for limit in (float(np.median(full)), float(full.min())):
            flat = kernels._gains_numpy(idx, pts, pack, None, limit)
            assert kernels._gains_numpy(idx, pts, pack, table, limit).tobytes() == flat.tobytes()
        return table

    def test_five_actions_two_words(self):
        game = five_action_game()
        pts = SimplexGrid(5, 20).points()
        idx = np.random.default_rng(5).integers(0, pts.shape[0] ** 3, size=3000)
        assert self._check(game, pts, idx, words=2).width == 16
        # some sampled profile leaves an action off path
        assert _has_off_path_action(game, decode_profiles(pts, idx, 3)).any()

    def test_tabulated(self):
        game = tabulate(random_mixed_catalog_game(np.random.default_rng(0)), 6)
        pts, idx = _all_profiles(game, 4)
        self._check(game, pts, idx, words=1)

    def test_zero_prior_free_rows(self):
        game = zero_prior_game()
        pts, idx = _all_profiles(game, 4)
        idx = _sample(idx.size, 1500, 4)
        self._check(game, pts, idx, words=1)
        sig = decode_profiles(pts, idx, game.n)
        # some sampled profile has t2 alone play an action: a free row
        assert ((sig[:, 2] > 0.0) & (sig[:, :2].sum(axis=1) == 0.0)).any()


def _majority_full_grid():
    game = default_majority_family().game_for(0.5)
    return (game, *_all_profiles(game, 20))


def _eight_types_pure():
    return eight_type_game(), np.eye(3), np.arange(3**8, dtype=np.int64)


def _catalog_sample():
    game = random_mixed_catalog_game(np.random.default_rng(5))
    pts, idx = _all_profiles(game, 8)
    return game, pts, _sample(idx.size, 2000, 5)


def _tabulated_full_grid():
    game = tabulate(random_mixed_catalog_game(np.random.default_rng(0)), 6)
    return (game, *_all_profiles(game, 4))


def _tabulated_sample():
    game = tabulate(random_mixed_catalog_game(np.random.default_rng(0)), 6)
    pts, idx = _all_profiles(game, 10)
    return game, pts, _sample(idx.size, 2000, 10)


class TestSweepDigests:
    """The sha256 of ``sweep_profile_gains``' output bytes on fixed
    inputs, one case per kernel path. The digests were recorded before
    the kernel became type-major; a change to the kernel must leave
    every gain's bits, signed zeros included, as they are."""

    @pytest.mark.parametrize(
        "case, takes_table, digest",
        [
            (_majority_full_grid, False, "928b9efcbd50fb5feb292b220a4e2ec87e72c342824ac43d1e8f558451bc1326"),
            (_eight_types_pure, True, "4083d1138e0317068407a4f48cde561c009a1393017b2412c8cda7d4dda255a7"),
            (_catalog_sample, False, "70acf2cecd59b97f3f4dab9134dcde92ddb9d96a07d0d49e789e1449e04d4f29"),
            (_tabulated_full_grid, True, "659d700430cc360e79eb1a8d9836c9c38751bac0339b660d0d7089ee342f33c9"),
            (_tabulated_sample, False, "6f024e65b61aa5c16f0d6f5afaccd5f3a5b4c6fbf13de43dba6e7a698b1a1e66"),
        ],
        ids=["majority", "eight-types-table", "catalog", "tabulated-table", "tabulated"],
    )
    def test_gains_bytes(self, monkeypatch, case, takes_table, digest):
        game, pts, idx = case()
        assert TestColumnTableRule._takes_table(monkeypatch, game, pts, idx) == takes_table
        gains = sweep_profile_gains(pack_game(game), pts, idx)
        assert gains.dtype == np.float64 and gains.shape == idx.shape
        assert hashlib.sha256(gains.tobytes()).hexdigest() == digest


def _scaled(game, factor: float) -> PerceptionGame:
    """``game`` with ``v`` and every penalty weight times ``factor``."""
    um = game.utility
    penalties = tuple(replace(p, weight=p.weight * factor) for p in um.penalties)
    return replace(game, utility=replace(um, v=um.v * factor, penalties=penalties))


def _cell_minima(game, pts, tree, cells) -> np.ndarray:
    """The least kernel gain over the profiles of each cell (``(n, B)``
    tree nodes), swept cell by cell."""
    codes = kernels._codes(tree, cells, pts.shape[0])
    gains = sweep_profile_gains(pack_game(game), pts, codes)
    count = np.take(tree.size, cells).prod(axis=0)
    return np.minimum.reduceat(gains, np.cumsum(count) - count)


def _assert_sound(game, pts, cells):
    """At every scale, each cell's bound is at most every kernel gain
    in it."""
    tree = kernels.grid_tree(pts)
    for factor in (1.0, 1e6, 1e-6):
        scaled = _scaled(game, factor)
        bound = kernels.cell_lower_bound(pack_game(scaled), tree_boxes(tree, cells))
        least = _cell_minima(scaled, pts, tree, cells)
        bad = np.flatnonzero(~(bound <= least))
        assert not bad.size, (factor, cells[:, bad[:3]].T, bound[bad[:3]], least[bad[:3]])


def _every_cell(tree, n) -> np.ndarray:
    nodes = np.arange(tree.size.size)
    return np.array(list(product(nodes, repeat=n)), dtype=np.int64).T


@st.composite
def tree_cells(draw, tree, n, count=4, cap=2_000):
    """``count`` cells of at most ``cap`` profiles: each type takes a
    node reached by a random walk down from the root, and the widest
    type walks on while the cell is too large."""
    cells = np.empty((n, count), dtype=np.int64)
    for j in range(count):
        cell = []
        for _ in range(n):
            node = 0
            while tree.size[node] > 1 and draw(st.booleans()):
                node = tree.child[node] + draw(st.integers(0, 1))
            cell.append(node)
        while np.prod(tree.size[cell]) > cap:
            t = int(np.argmax(tree.size[cell]))
            cell[t] = tree.child[cell[t]] + draw(st.integers(0, 1))
        cells[:, j] = cell
    return cells


class TestGridTree:
    @pytest.mark.parametrize("m, k", [(1, 3), (2, 1), (2, 20), (3, 5), (4, 3)])
    def test_nodes_are_halves_with_their_ranges(self, m, k):
        pts = SimplexGrid(m, k).points()
        G = pts.shape[0]
        tree = kernels.grid_tree(pts)
        assert tree.size.size == 2 * G - 1
        assert tree.box.shape == (2, m, 2 * G - 1) and not tree.box.flags.writeable
        assert (tree.start[0], tree.size[0]) == (0, G)
        for i in range(tree.size.size):
            block = pts[tree.start[i] : tree.start[i] + tree.size[i]]
            np.testing.assert_array_equal(tree.box[0, :, i], block.min(axis=0))
            np.testing.assert_array_equal(tree.box[1, :, i], block.max(axis=0))
            if tree.size[i] > 1:
                c = tree.child[i]
                assert tree.start[c] == tree.start[i]
                assert tree.size[c] == tree.size[i] // 2
                assert tree.start[c + 1] == tree.start[c] + tree.size[c]
                assert tree.size[c] + tree.size[c + 1] == tree.size[i]
        points = tree.size == 1
        assert sorted(tree.start[points].tolist()) == list(range(G))


class TestCellLowerBound:
    """The bound of a cell is at most the kernel's gain at every grid
    profile in it, also with the game's utilities scaled by 1e6 and
    1e-6, where the rounding margin scales along."""

    @pytest.mark.parametrize(
        "build, resolution",
        [
            (blog, 10),
            (zero_prior_game, 2),
            (polyline_knots_game, 2),
            (polyline_knots_game, 4),
            (step_bounds_game, 4),
            (tied_prior_tv_game, 4),
            (full_event_step_game, 5),
        ],
    )
    def test_every_cell_of_a_small_grid(self, build, resolution):
        game = build()
        pts = SimplexGrid(game.m, resolution).points()
        _assert_sound(game, pts, _every_cell(kernels.grid_tree(pts), game.n))

    @settings(max_examples=25, deadline=None)
    @given(
        build=st.sampled_from([zero_prior_game, eight_type_game, polyline_knots_game, step_bounds_game]),
        resolution=st.integers(2, 5),
        data=st.data(),
    )
    def test_random_cells_of_named_games(self, build, resolution, data):
        game = build()
        pts = SimplexGrid(game.m, resolution).points()
        _assert_sound(game, pts, data.draw(tree_cells(kernels.grid_tree(pts), game.n)))

    @settings(max_examples=150, deadline=None)
    @given(game=additive_catalog_games(), resolution=st.integers(2, 5), data=st.data())
    def test_random_cells_of_catalog_games(self, game, resolution, data):
        pts = SimplexGrid(game.m, resolution).points()
        _assert_sound(game, pts, data.draw(tree_cells(kernels.grid_tree(pts), game.n)))

    @settings(max_examples=100, deadline=None)
    @given(game=additive_catalog_games(), data=st.data())
    def test_boxes_off_the_tree(self, game, data):
        """Boxes that are no tree cell: each type's box is a random grid
        point widened by a random amount below and above each action's
        probability (often by none), clipped to [0, 1]; the last box is
        that point alone (``low == high``). A box's bound is at most the
        kernel gain of every grid profile whose points all lie in it."""
        resolution = data.draw(st.integers(1, _max_resolution(game, 20_000)))
        pts, idx = _all_profiles(game, resolution)
        G, n, count = pts.shape[0], game.n, 4
        centre = data.draw(st.lists(st.integers(0, G - 1), min_size=n * count, max_size=n * count))
        centre = np.take(pts, np.reshape(centre, (n, count)), axis=0).transpose(0, 2, 1)  # (n, m, count)
        size = 2 * centre.size
        widths = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=size, max_size=size)
        widen = np.reshape(data.draw(widths), (2,) + centre.shape)
        widen[..., -1] = 0.0
        box = np.stack((np.maximum(centre - widen[0], 0.0), np.minimum(centre + widen[1], 1.0)))
        # inside[t, g, j]: type t's box j holds grid point g
        at = pts[None, :, :, None]
        inside = ((box[0][:, None] <= at) & (at <= box[1][:, None])).all(axis=2)
        digits = kernels._digits(idx, G, n)
        member = np.take_along_axis(inside, digits[:, :, None], axis=1).all(axis=0).T  # (count, P)
        assert member.any(axis=1).all() and (box[0, ..., -1] == box[1, ..., -1]).all()
        for factor in (1.0, 1e6, 1e-6):
            pack = pack_game(_scaled(game, factor))
            bound = kernels.cell_lower_bound(pack, box)
            gains = sweep_profile_gains(pack, pts, idx)
            least = np.where(member, gains, np.inf).min(axis=1)
            bad = np.flatnonzero(~(bound <= least))
            assert not bad.size, (factor, bound[bad], least[bad])

    def test_majority_cells_prune(self):
        """The bound is tight enough to matter: at alpha 0.5, most of
        the level below the root already lies above the tolerance."""
        game = default_majority_family().game_for(0.5)
        pts = SimplexGrid(2, 20).points()
        tree = kernels.grid_tree(pts)
        cells = np.array(list(product([1, 2], repeat=4)), dtype=np.int64).T
        bound = kernels.cell_lower_bound(pack_game(game), tree_boxes(tree, cells))
        assert np.all(bound <= _cell_minima(game, pts, tree, cells))
        assert np.count_nonzero(bound > 1e-9) >= 8

    def test_on_path_rows_beyond_the_range(self):
        """The premise of ``full_event_step_game``."""
        game = full_event_step_game()
        pts = SimplexGrid(2, 5).points()
        for t, (j0, j1), u_end, u in ((2, (1, 5), -2.0, 0.0), (3, (1, 4), 1.0, -1.0)):
            sigma = decode_profiles(pts, _code(6, [j0, j1, 5, 5]), 4)
            tau = profile_report(game, sigma).perceptions.tau[t, 0]
            r = game.u_range(t, 0)
            assert r.min == r.max == u_end
            assert tau.sum() != 1.0 and game.u(t, 0, tau) == u


class TestScreenProfiles:
    @pytest.mark.parametrize(
        "build, resolution",
        [(blog, 20), (zero_prior_game, 4), (polyline_knots_game, 4), (step_bounds_game, 6)],
    )
    @pytest.mark.parametrize("limit", [1e-9, 0.1, 0.5, -1.0])
    def test_keeps_every_profile_within_the_limit(self, build, resolution, limit):
        game = build()
        pack = pack_game(game)
        pts, idx = _all_profiles(game, resolution)
        gains = sweep_profile_gains(pack, pts, idx)
        codes, seed = kernels.screen_profiles(pack, pts, limit)
        assert np.all(np.diff(codes) > 0)
        assert set(idx[gains <= limit].tolist()) <= set(codes.tolist())
        assert (seed == -1) == (codes.size == idx.size)
        assert -1 <= seed < idx.size

    def test_nothing_pruned(self):
        game = blog()
        pts, idx = _all_profiles(game, 20)
        codes, seed = kernels.screen_profiles(pack_game(game), pts, np.inf)
        np.testing.assert_array_equal(codes, idx)
        assert seed == -1

    def test_tabulated_pack_rejected(self):
        pack = pack_game(tabulate(blog(), 4))
        pts = SimplexGrid(2, 4).points()
        box = tree_boxes(kernels.grid_tree(pts), np.zeros((2, 1), np.int64))
        with pytest.raises(ValueError, match="^cell bounds need an additive game's pack$"):
            kernels.cell_lower_bound(pack, box)
        with pytest.raises(ValueError, match="^cell bounds need an additive game's pack$"):
            kernels.screen_profiles(pack, pts, 0.1)


SCREEN_LIMITS = (1e-9, 0.05, 0.3, -1.0)

SCREEN_GAMES = [
    (blog, 20),
    (eight_type_game, 1),
    (eight_type_game, 2),
    (zero_prior_game, 4),
    (polyline_knots_game, 4),
    (step_bounds_game, 6),
    (full_event_step_game, 5),
    (tied_prior_tv_game, 4),
    (five_action_game, 3),
]


def _assert_screen_is_reference(game, resolution, limits=SCREEN_LIMITS):
    pack = pack_game(game)
    pts = SimplexGrid(game.m, resolution).points()
    for limit in limits:
        codes, seed = kernels.screen_profiles(pack, pts, limit)
        want_codes, want_seed = reference_screen(pack, pts, limit)
        assert seed == want_seed, limit
        assert codes.tobytes() == want_codes.tobytes(), limit


def _max_resolution(game, profiles: int) -> int:
    """The largest resolution from 1 to 20 whose grid has at most
    ``profiles`` profiles, or 1."""
    k = 1
    while k < 20 and SimplexGrid(game.m, k + 1).size ** game.n <= profiles:
        k += 1
    return k


class TestScreenMatchesReference:
    """The screen keeps exactly the codes and finds exactly the seed of
    the screen that bounded every type's penalty and split a type at a
    time (``helpers.reference_screen``)."""

    @pytest.mark.parametrize("build, resolution", SCREEN_GAMES)
    def test_named_games(self, build, resolution):
        _assert_screen_is_reference(build(), resolution)

    def test_eight_types_take_the_rank_path(self):
        """More than ``_SPLIT_TYPES`` types can be split at the root."""
        pts = SimplexGrid(3, 2).points()
        size = np.take(kernels.grid_tree(pts).size, np.zeros(8, np.int64))
        assert np.count_nonzero(size > 1) > kernels._SPLIT_TYPES

    @pytest.mark.parametrize("alpha", [round(0.05 * i, 10) for i in range(21)])
    def test_majority_alphas(self, alpha):
        _assert_screen_is_reference(default_majority_family().game_for(alpha), 20)

    @settings(max_examples=100, deadline=None)
    @given(game=additive_catalog_games(), data=st.data())
    def test_catalog_games(self, game, data):
        resolution = data.draw(st.integers(1, _max_resolution(game, 20_000)))
        _assert_screen_is_reference(game, resolution)


ROOT_LIMITS = (0.0, np.nan)


def _bounds_root(monkeypatch, pack, pts, limit) -> bool:
    """Does ``screen_profiles(pack, pts, limit)`` bound the root cell?"""
    bounded = []
    real = kernels.cell_lower_bound
    root = kernels.grid_tree(pts).box[:, None, :, 0, None]  # (2, 1, m, 1)

    def spy(pack, box):
        bounded.append(bool((box == root).all(axis=(0, 1, 2)).any()))
        return real(pack, box)

    monkeypatch.setattr(kernels, "cell_lower_bound", spy)
    kernels.screen_profiles(pack, pts, limit)
    monkeypatch.undo()
    return any(bounded)


class TestRootSkip:
    """At a limit of at least 0 the screen starts at the root's
    children: the root's bound is at most ``-margin`` whenever every
    action has probability 0 at some grid point, so bounding it prunes
    nothing, and the kept codes and the seed are those of the screen
    that bounds it (``helpers.reference_screen``)."""

    @settings(max_examples=100, deadline=None)
    @given(game=additive_catalog_games(max_actions=4), resolution=st.integers(1, 20))
    def test_root_bound_is_at_most_minus_margin(self, game, resolution):
        pack = pack_game(game)
        tree = kernels.grid_tree(SimplexGrid(game.m, resolution).points())
        bound = kernels.cell_lower_bound(pack, tree_boxes(tree, np.zeros((game.n, 1), np.int64)))
        assert bound[0] <= -pack.bound_plan.margin <= 0.0

    @pytest.mark.parametrize("build, resolution", SCREEN_GAMES + [(zero_prior_game, 1)])
    def test_named_games(self, build, resolution):
        _assert_screen_is_reference(build(), resolution, ROOT_LIMITS)

    @pytest.mark.parametrize("alpha", [round(0.05 * i, 10) for i in range(21)])
    def test_majority_alphas(self, alpha):
        _assert_screen_is_reference(default_majority_family().game_for(alpha), 20, ROOT_LIMITS)

    @settings(max_examples=50, deadline=None)
    @given(game=additive_catalog_games(), data=st.data())
    def test_catalog_games(self, game, data):
        resolution = data.draw(st.integers(1, _max_resolution(game, 20_000)))
        _assert_screen_is_reference(game, resolution, ROOT_LIMITS)

    @pytest.mark.parametrize(
        "limit, bounded",
        [
            (0.0, False),
            (1e-9, False),
            (np.inf, False),
            (-1e-300, True),
            (-1.0, True),
            (np.nan, True),
        ],
    )
    def test_root_bounded_only_below_zero_or_at_nan(self, monkeypatch, limit, bounded):
        game = blog()
        pts = SimplexGrid(game.m, 20).points()
        assert _bounds_root(monkeypatch, pack_game(game), pts, limit) == bounded

    def test_a_grid_of_one_leaf_bounds_its_root(self, monkeypatch):
        game = zero_prior_game()
        pts = SimplexGrid(game.m, 1).points()
        assert pts.shape[0] ** game.n <= kernels._LEAF
        assert _bounds_root(monkeypatch, pack_game(game), pts, 0.0)

    def test_a_grid_without_a_vertex_bounds_its_root(self, monkeypatch):
        """Without the vertex (0, 1), action 0 has probability at least
        0.05 everywhere: the root's bound may be above 0, so it is
        bounded, and the screen is still the reference's."""
        game = blog()
        pts = SimplexGrid(game.m, 20).points()
        pts = pts[pts[:, 0] > 0.0]
        pack = pack_game(game)
        assert _bounds_root(monkeypatch, pack, pts, 0.0)
        for limit in SCREEN_LIMITS + ROOT_LIMITS:
            codes, seed = kernels.screen_profiles(pack, pts, limit)
            want_codes, want_seed = reference_screen(pack, pts, limit)
            assert seed == want_seed, limit
            assert codes.tobytes() == want_codes.tobytes(), limit


def _with_priors(game, priors) -> list[PerceptionGame]:
    """``game`` at each of ``priors``: a family that differs in the prior only."""
    um = game.utility
    return [_game(np.asarray(p, dtype=np.float64), um.v, um.penalties) for p in priors]


def _screen_groups(packs) -> list[list[int]]:
    """The packs' indices grouped by ``GamePack.screen_key``, by first member."""
    groups: dict[tuple, list[int]] = {}
    for i, pack in enumerate(packs):
        groups.setdefault(pack.screen_key, []).append(i)
    return list(groups.values())


def _assert_batched_screen(games, resolution, limits=SCREEN_LIMITS + ROOT_LIMITS) -> list[list[int]]:
    """Each group of ``games`` screened in one call keeps, per game, the
    cells (in their order, which is the ``CellCodes`` chunk order) and
    the seed of ``screen_profiles`` on that game alone, and the codes
    and the seed of ``helpers.reference_screen``; the groups are
    returned."""
    pts = SimplexGrid(games[0].m, resolution).points()
    packs = [pack_game(g) for g in games]
    groups = _screen_groups(packs)
    for limit in limits:
        for members in groups:
            batched = kernels.screen_profiles([packs[i] for i in members], pts, limit)
            assert len(batched) == len(members)
            for i, (kept, seed) in zip(members, batched):
                alone, alone_seed = kernels.screen_profiles(packs[i], pts, limit)
                want, want_seed = reference_screen(packs[i], pts, limit)
                assert seed == alone_seed == want_seed, (limit, i)
                np.testing.assert_array_equal(kept.cells, alone.cells)
                assert np.asarray(kept).tobytes() == want.tobytes(), (limit, i)
    return groups


def _mixed_two_action_games() -> tuple[list[PerceptionGame], list[str]]:
    """Two-action games of several ``GamePack.screen_key`` groups, in a
    shuffled order, each with its group's name: a ``tv_to_prior`` game
    twice at one prior ("tv") and once at another ("tv flat"), the
    majority family at three alphas ("majority") and at one more
    ("table"), ``blog``, ``counterexample_lsc`` and a tabulated game."""
    tv = tied_prior_tv_game()
    family = default_majority_family()
    named = {
        "tv": _with_priors(tv, [tv.prior.p, tv.prior.p]),
        "tv flat": _with_priors(tv, [[0.25] * 4]),
        "majority": [family.game_for(a) for a in (0.3, 0.5, 0.7)],
        "table": [family.game_for(0.4)],
        "blog": [blog()],
        "lsc": [counterexample_lsc()],
        "tabulated": [tabulate(blog(), 8)],
    }
    pairs = [(g, key) for key, gs in named.items() for g in gs]
    order = np.random.default_rng(0).permutation(len(pairs))
    return [pairs[i][0] for i in order], [pairs[i][1] for i in order]


def _key_groups(keys) -> list[list[int]]:
    """The indices of ``keys`` grouped by equal key, sorted."""
    groups: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return sorted(groups.values())


def _spy_groups(monkeypatch, name: str, packs) -> list[list[int]]:
    """Record the group of ``packs`` (their indices, in order) that each
    call of ``kernels.<name>`` gets as its first argument."""
    index = {id(p): i for i, p in enumerate(packs)}
    groups = []
    real = getattr(kernels, name)

    def spy(group, *args):
        groups.append([index[id(p)] for p in group])
        return real(group, *args)

    monkeypatch.setattr(kernels, name, spy)
    return groups


def _exposure_eight_type_game() -> PerceptionGame:
    """``eight_type_game`` with exposure in place of ``tv_to_prior``, so
    that its priors share one screen."""
    game = eight_type_game()
    pens = [
        PenaltySpec.exposure(p.weight) if p.kind == "tv_to_prior" else p for p in game.utility.penalties
    ]
    return _game(game.prior.p, game.utility.v, pens)


class TestBatchedScreen:
    """A list of packs that differ in the prior only is screened in one
    pass, each game keeping what its own screen keeps, in the same order
    and with the same seed."""

    def test_majority_alphas(self):
        """The 19 inner alphas share one screen; the endpoints, whose
        zero-mass types are dropped, have two types and a screen each."""
        family = default_majority_family()
        games = [family.game_for(round(0.05 * i, 10)) for i in range(21)]
        groups = _assert_batched_screen(games, 20, (1e-9, 0.0, -1.0))
        assert groups == [[0], list(range(1, 20)), [20]]

    @settings(max_examples=40, deadline=None)
    @given(
        game=additive_catalog_games(),
        counts=st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5), min_size=2, max_size=4),
        data=st.data(),
    )
    def test_catalog_families(self, game, counts, data):
        """Priors drawn with zero-mass types; a family without a
        ``tv_to_prior`` penalty is one group, one with it a group per
        distinct prior."""
        priors = [np.array(c[: game.n], dtype=np.float64) for c in counts if any(c[: game.n])]
        if len(priors) < 2:
            priors = [np.ones(game.n), np.eye(game.n)[0]]
        priors = [p / p.sum() for p in priors]
        games = _with_priors(game, priors)
        resolution = data.draw(st.integers(1, _max_resolution(game, 3_000)))
        groups = _assert_batched_screen(games, resolution)
        if all(pen.kind != "tv_to_prior" for pen in game.utility.penalties):
            assert groups == [list(range(len(games)))]
        else:
            distinct = {p.tobytes(): None for p in priors}
            assert len(groups) == len(distinct)

    def test_zero_prior_family(self):
        game = _game([0.5, 0.5, 0.0], zero_prior_game().utility.v, [
            PenaltySpec.exposure(1.0),
            PenaltySpec.exposure(0.75),
            PenaltySpec.piecewise_linear(((0.0, 0.0), (0.5, 1.5), (1.0, 0.5)), over=("t2",)),
        ])
        priors = [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]]
        assert _assert_batched_screen(_with_priors(game, priors), 4) == [[0, 1, 2, 3]]

    @pytest.mark.parametrize(
        "resolution, limits", [(1, SCREEN_LIMITS + ROOT_LIMITS), (2, (0.05,))]
    )
    def test_eight_types(self, resolution, limits):
        """Eight summands per type sum, where numpy's pairwise summation
        would part from index order."""
        game = _exposure_eight_type_game()
        priors = [game.prior.p, dyadic_prior(np.random.default_rng(3), 8)]
        assert _assert_batched_screen(_with_priors(game, priors), resolution, limits) == [[0, 1]]

    def test_tv_to_prior_family_does_not_share_a_screen(self, monkeypatch):
        """A ``tv_to_prior`` penalty is anchored at the prior, so games of
        different priors are screened apart; the same prior twice shares
        one screen. A list that mixes such games with games of other
        ``GamePack.screen_key`` groups, in shuffled order, is grouped by
        the screen itself: one pass per group, and each entry is that
        game's own screen, bit for bit."""
        game = tied_prior_tv_game()
        games = _with_priors(game, [game.prior.p, [0.25] * 4, game.prior.p])
        assert _assert_batched_screen(games, 4) == [[0, 2], [1]]
        games, keys = _mixed_two_action_games()
        games, keys = zip(*[(g, k) for g, k in zip(games, keys) if k != "tabulated"])
        keys = ["majority" if k == "table" else k for k in keys]
        pts = SimplexGrid(2, 4).points()
        packs = [pack_game(g) for g in games]
        passes = _spy_groups(monkeypatch, "_screen", packs)
        for limit in SCREEN_LIMITS + ROOT_LIMITS:
            passes.clear()
            batched = kernels.screen_profiles(packs, pts, limit)
            assert sorted(passes) == _key_groups(keys)
            for pack, (kept, seed) in zip(packs, batched):
                alone, alone_seed = kernels.screen_profiles(pack, pts, limit)
                assert seed == alone_seed, limit
                assert kept.cells.tobytes() == alone.cells.tobytes(), limit
        assert kernels.screen_profiles([], pts, 0.05) == []


def _assert_bound_is_reference(game, pts, cells):
    tree = kernels.grid_tree(pts)
    pack = pack_game(game)
    box = tree_boxes(tree, cells)
    assert np.all(kernels.cell_lower_bound(pack, box) == reference_cell_lower_bound(pack, box))


def _random_cells(pts, n, count, seed):
    nodes = kernels.grid_tree(pts).size.size
    return np.random.default_rng(seed).integers(0, nodes, size=(n, count))


class TestSharedBounds:
    """Types whose penalties ``stacked_bounds`` cannot tell apart share
    one bound per batch, and the bound equals the one computed for
    every type on its own (``helpers.reference_cell_lower_bound``)."""

    @staticmethod
    def _shared(game) -> list[list[int]]:
        return [ts.tolist() for ts in pack_game(game).bound_plan.types]

    def test_majority(self):
        game = default_majority_family().game_for(0.5)
        # o0:concerned and o1:concerned share the polyline, the rest zero
        assert self._shared(game) == [[0, 2], [1, 3]]
        pts = SimplexGrid(2, 20).points()
        _assert_bound_is_reference(game, pts, _random_cells(pts, 4, 4000, 1))
        # every cell of the tree's top four levels (nodes 0 to 14)
        top = np.array(list(product(range(15), repeat=4)), dtype=np.int64).T
        _assert_bound_is_reference(game, pts, top)

    def test_repeated_catalog_specs(self):
        labels = tuple(f"t{i}" for i in range(9))
        knots = ((0.0, 0.3), (0.25, 0.9), (1.0, 0.1))
        pieces = ((0.25, 0.5, 1.5, True, False), (0.5, 1.0, 0.5, True, True))
        game = _game(
            [0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.0, 0.125, 0.125],
            np.random.default_rng(7).uniform(0.0, 2.0, size=(9, 3)),
            [
                PenaltySpec.tv_to_prior(1.5),
                PenaltySpec.piecewise_linear(knots, over=labels[:2]),
                PenaltySpec.step(pieces, over=labels[1:3]),
                PenaltySpec.tv_to_prior(1.5),
                PenaltySpec.piecewise_linear(knots, over=labels[:2]),
                PenaltySpec.step(pieces, over=labels[1:3]),
                # each of these differs from one above in one field only
                PenaltySpec.piecewise_linear(knots, over=labels[2:4]),
                PenaltySpec.step(pieces[:1], over=labels[1:3]),
                PenaltySpec.piecewise_linear(knots[:2] + ((1.0, 0.2),), over=labels[:2]),
            ],
        )
        assert self._shared(game) == [[0, 3], [1, 4], [2, 5], [6], [7], [8]]
        pts = SimplexGrid(3, 4).points()
        _assert_bound_is_reference(game, pts, _random_cells(pts, 9, 3000, 2))

    def test_exposure_never_shares(self):
        game = _game(
            [0.25, 0.25, 0.5, 0.0],
            [[1.0, 0.0], [0.5, 1.0], [0.25, 0.75], [2.0, 0.0]],
            [PenaltySpec.exposure(1.25)] * 4,
        )
        assert self._shared(game) == [[0], [1], [2], [3]]
        pts = SimplexGrid(2, 6).points()
        _assert_bound_is_reference(game, pts, _every_cell(kernels.grid_tree(pts), 4))

    def test_specs_with_list_fields(self):
        """A spec built with lists passes the validator but cannot be
        hashed; equal ones still share."""
        polyline = PenaltySpec(
            kind="piecewise_linear_marginal",
            knots=[[0.0, 1.0], [0.5, 0.0], [1.0, 2.0]],
            marginal_over=["t0", "t2"],
        )
        step = PenaltySpec(
            kind="step_marginal", pieces=[[0.25, 0.75, 1.0, True, True]], marginal_over=["t1"]
        )
        with pytest.raises(TypeError):
            hash(polyline)
        game = _game(
            [0.25, 0.25, 0.5],
            [[1.0, 0.0], [0.5, 1.0], [0.25, 0.75]],
            [polyline, step, replace(polyline, knots=[list(k) for k in polyline.knots])],
        )
        assert validate_game(game).ok
        assert self._shared(game) == [[0, 2], [1]]
        pts = SimplexGrid(2, 8).points()
        _assert_bound_is_reference(game, pts, _every_cell(kernels.grid_tree(pts), 3))


def _limits(full: np.ndarray, first_type: np.ndarray) -> list[float]:
    """Limits that cut a batch at exact gains (ties at the limit), at
    partial gains of type 0 below a full gain (a profile whose gain so
    far equals the limit), between gains, and below or above them all."""
    partial = first_type[first_type < full]
    picks = [np.quantile(full, q, method="nearest") for q in (0.0, 0.1, 0.5, 0.9)]
    picks += [partial.min(), np.median(partial)] if partial.size else []
    return [float(x) for x in picks] + [0.0, -1.0, float(full.max()) + 1.0]


class TestStagedGains:
    """With a finite ``limit``, ``_gains_numpy`` keeps every gain at most
    the limit bitwise and leaves each other entry above the limit and at
    most the profile's gain."""

    @staticmethod
    def _check(game, pts, idx):
        pack = pack_game(game)
        for table in (None, kernels._column_table(pts, pack)):
            full = kernels._gains_numpy(idx, pts, pack, table)
            first_type = kernels._gains_numpy(idx, pts, pack, table, -np.inf)
            for limit in _limits(full, first_type):
                got = kernels._gains_numpy(idx, pts, pack, table, limit)
                kept = full <= limit
                assert got[kept].tobytes() == full[kept].tobytes(), limit
                assert np.all(got[~kept] > limit) and np.all(got[~kept] <= full[~kept]), limit

    @pytest.mark.parametrize(
        "build, resolution",
        [
            (blog, 10),
            (zero_prior_game, 4),
            (eight_type_game, 2),
            (polyline_knots_game, 4),
            (step_bounds_game, 4),
            (tied_prior_tv_game, 4),
            (full_event_step_game, 5),
        ],
    )
    def test_named_games(self, build, resolution):
        game = build()
        pts, idx = _all_profiles(game, resolution)
        self._check(game, pts, _sample(idx.size, 800, resolution))
        self._check(game, np.eye(game.m), np.arange(game.m**game.n, dtype=np.int64))

    @pytest.mark.parametrize("k", [3, 6])
    def test_tabulated(self, k):
        game = tabulate(random_mixed_catalog_game(np.random.default_rng(0)), k)
        pts, idx = _all_profiles(game, 4)
        self._check(game, pts, idx)

    @settings(max_examples=60, deadline=None)
    @given(game=catalog_games(), resolution=st.sampled_from([0, 2, 3]))
    def test_random_catalog_games(self, game, resolution):
        pts = np.eye(game.m) if resolution == 0 else SimplexGrid(game.m, resolution).points()
        total = pts.shape[0] ** game.n
        self._check(game, pts, _sample(total, 400, resolution))


def _full_reduction(idx: np.ndarray, gains: np.ndarray, tol: float) -> tuple:
    """``reduce_profile_gains``' results on the codes ``idx``, from their
    full gains."""
    if not gains.size:
        return np.inf.hex(), -1, []
    first = int(np.argmin(gains))
    return float(gains[first]).hex(), int(idx[first]), idx[gains <= tol].tolist()


TOLS = (1e-9, 0.0, 0.05, -0.1)


class TestReduceProfileGains:
    """``reduce_profile_gains`` gives the least gain, its first code and
    the codes within ``tol`` of the full gains, bit for bit, on
    batches cut into many chunks, so that most chunks run with a finite
    limit."""

    @staticmethod
    def _check(monkeypatch, game, pts, idx, chunk=7):
        pack = pack_game(game)
        full = sweep_profile_gains(pack, pts, idx)
        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", chunk * game.m)
        for tol in TOLS:
            least, code, within = kernels.reduce_profile_gains(pack, pts, idx, tol)
            assert (least.hex(), code, within.tolist()) == _full_reduction(idx, full, tol), tol
        return full

    @pytest.mark.parametrize(
        "build, resolution",
        [
            (blog, 10),
            (zero_prior_game, 4),
            (eight_type_game, 2),
            (polyline_knots_game, 4),
            (step_bounds_game, 4),
            (tied_prior_tv_game, 4),
            (full_event_step_game, 5),
        ],
    )
    def test_named_games(self, monkeypatch, build, resolution):
        game = build()
        pts, idx = _all_profiles(game, resolution)
        self._check(monkeypatch, game, pts, _sample(idx.size, 1500, resolution))
        self._check(monkeypatch, game, np.eye(game.m), np.arange(game.m**game.n, dtype=np.int64))

    @pytest.mark.parametrize("k", [3, 6])
    def test_tabulated(self, monkeypatch, k):
        """Both kernel paths: per profile on the 4-step grid, and the
        column table on the pure grid (2**3 columns x 3 types for 27
        profiles)."""
        game = tabulate(random_mixed_catalog_game(np.random.default_rng(0)), k)
        self._check(monkeypatch, game, *_all_profiles(game, 4))
        self._check(monkeypatch, game, np.eye(3), np.arange(27, dtype=np.int64), chunk=2)

    @settings(max_examples=80, deadline=None)
    @given(game=catalog_games(), resolution=st.sampled_from([0, 2, 3, 4]), chunk=st.integers(1, 40))
    def test_random_catalog_games(self, game, resolution, chunk):
        pts = np.eye(game.m) if resolution == 0 else SimplexGrid(game.m, resolution).points()
        total = pts.shape[0] ** game.n
        with pytest.MonkeyPatch.context() as patch:
            self._check(patch, game, pts, _sample(total, 600, resolution), chunk)

    def test_subsample_with_duplicates_and_ties(self, monkeypatch):
        """More draws than profiles, so codes repeat and gains tie: the
        least gain's first draw is the argmin."""
        game = polyline_knots_game()
        pts = SimplexGrid(3, 2).points()
        idx = np.random.default_rng(3).integers(0, 6**3, size=1000)
        full = self._check(monkeypatch, game, pts, idx)
        first = int(np.argmin(full))
        assert np.count_nonzero(full == full[first]) > 1
        assert np.count_nonzero(idx == idx[first]) > 1

    def test_argmin_drawn_late_and_again(self, monkeypatch):
        """The argmin code first appears deep into the batch, after many
        chunks ran at a finite limit, and again later."""
        game = blog()
        pts, idx = _all_profiles(game, 10)
        gains = sweep_profile_gains(pack_game(game), pts, idx)
        worst = idx[gains > gains.min()]
        best = int(idx[np.argmin(gains)])
        draws = np.concatenate([worst, [best], worst[:50], [best]])
        self._check(monkeypatch, game, pts, draws)

    def test_empty(self):
        pack = pack_game(blog())
        least, code, within = kernels.reduce_profile_gains(pack, np.eye(2), np.empty(0, np.int64), 0.0)
        assert (least, code, within.size) == (np.inf, -1, 0)

    def test_nan_tol_keeps_nothing_and_limits_nothing(self, monkeypatch):
        game = polyline_knots_game()
        pts, idx = _all_profiles(game, 4)
        full = self._check(monkeypatch, game, pts, idx)
        least, code, within = kernels.reduce_profile_gains(pack_game(game), pts, idx, np.nan)
        assert (least.hex(), code, within.tolist()) == _full_reduction(idx, full, np.nan)

    def test_limit_is_the_running_least(self, monkeypatch):
        """The first chunk runs unlimited; each later one with the least
        gain of the chunks before it, or ``tol`` when that is higher."""
        game = polyline_knots_game()
        pts, idx = _all_profiles(game, 4)
        pack = pack_game(game)
        limits = []
        gains_numpy = kernels._gains_numpy

        def spy(chunk, grid_pts, pack, table=None, limit=np.inf, work=None):
            limits.append(limit)
            return gains_numpy(chunk, grid_pts, pack, table, limit, work)

        monkeypatch.setattr(kernels, "_gains_numpy", spy)
        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", 50 * game.m)
        full = sweep_profile_gains(pack, pts, idx)
        limits.clear()
        kernels.reduce_profile_gains(pack, pts, idx, 1e-9)
        running = np.minimum.accumulate(full)[49:-1:50]
        assert limits == [np.inf] + np.maximum(1e-9, running).tolist()


def _bits(found) -> tuple:
    """A ``reduce_profile_gains`` triple as bits."""
    least, code, within = found
    return float(least).hex(), code, within.dtype, within.tobytes()


class TestBatchedSweep:
    """A list of packs that differ in the prior only is swept in one
    stream of chunks shared across games, and each game gets the triple
    of its own call, bit for bit."""

    @staticmethod
    def _assert_batched(games, pts, sources, tols=TOLS) -> list[list[int]]:
        """Each ``GamePack.screen_key`` group of ``games`` swept in one call, over
        ``sources(i)`` (a fresh source of game ``i``'s codes), gives each
        game the triple of ``reduce_profile_gains`` on its own; the groups
        are returned."""
        packs = [pack_game(g) for g in games]
        groups = _screen_groups(packs)
        for tol in tols:
            for members in groups:
                batched = kernels.reduce_profile_gains(
                    [packs[i] for i in members], pts, [sources(i) for i in members], tol
                )
                assert len(batched) == len(members)
                for i, found in zip(members, batched):
                    alone = kernels.reduce_profile_gains(packs[i], pts, sources(i), tol)
                    assert _bits(found) == _bits(alone), (tol, i)
        return groups

    @staticmethod
    def _spanning_calls(monkeypatch) -> list[int]:
        """Count the kernel calls whose chunk spans games: those that carry
        a prior per profile."""
        spans = []
        real = kernels._gains_numpy

        def spy(chunk, grid_pts, pack, table=None, limit=np.inf, work=None):
            if pack.prior.ndim > 1:
                assert pack.prior.shape == (pack.u_min.shape[0], 1, chunk.size)
                assert table is None and np.shape(limit) == ()
                spans.append(chunk.size)
            return real(chunk, grid_pts, pack, table, limit, work)

        monkeypatch.setattr(kernels, "_gains_numpy", spy)
        return spans

    @settings(max_examples=60, deadline=None)
    @given(
        game=additive_catalog_games(),
        counts=st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5), min_size=2, max_size=4),
        kind=st.sampled_from(["cells", "ranges", "pure", "mixed"]),
        chunk=st.integers(1, 40),
        data=st.data(),
    )
    def test_catalog_families(self, game, counts, kind, chunk, data):
        """Priors drawn with zero-mass types; each game's codes are its
        screen's kept cells, a range of up to 80 codes of its grid, all
        its pure profiles, or cells and ranges in turn (so that chunks
        are copied across sources); chunks of 1 to 40 profiles, so that
        many span games."""
        priors = [np.array(c[: game.n], dtype=np.float64) for c in counts if any(c[: game.n])]
        if len(priors) < 2:
            priors = [np.ones(game.n), np.eye(game.n)[0]]
        games = _with_priors(game, [p / p.sum() for p in priors])
        if kind == "pure":
            pts = np.eye(game.m)
        else:
            pts = SimplexGrid(game.m, data.draw(st.integers(1, _max_resolution(game, 1_500)))).points()
        total = pts.shape[0] ** game.n
        limit = data.draw(st.sampled_from(SCREEN_LIMITS))
        cells = [kernels.screen_profiles(pack_game(g), pts, limit)[0] for g in games]
        starts = [data.draw(st.integers(0, total)) for _ in games]
        ranges = [(a, min(total, a + data.draw(st.integers(0, 80)))) for a in starts]

        def sources(i):
            if kind == "pure":
                return kernels.CodeRange(0, total)
            if kind == "cells" or (kind == "mixed" and i % 2 == 0):
                return cells[i]
            return kernels.CodeRange(*ranges[i])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_CHUNK_BUDGET", chunk * game.m)
            self._assert_batched(games, pts, sources)

    @settings(max_examples=60, deadline=None)
    @given(
        game=additive_catalog_games(),
        counts=st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5), min_size=2, max_size=4),
        resolution=st.sampled_from([0, 2, 3]),
        data=st.data(),
    )
    def test_gains_with_a_prior_per_profile(self, game, counts, resolution, data):
        """``_gains_numpy`` on profiles of several games, interleaved, each
        with its game's prior, under one limit, gives every entry of each
        game's own call with that limit, bit for bit (partial gains too: a
        profile leaves after the same type either way). The games are
        those of the first ``GamePack.screen_key`` group."""
        priors = [np.array(c[: game.n], dtype=np.float64) for c in counts if any(c[: game.n])]
        packs = [pack_game(g) for g in _with_priors(game, [p / p.sum() for p in priors or [np.ones(game.n)]])]
        packs = [packs[i] for i in _screen_groups(packs)[0]]
        pts = np.eye(game.m) if resolution == 0 else SimplexGrid(game.m, resolution).points()
        idx = _sample(pts.shape[0] ** game.n, 200, resolution)
        owner = np.array(data.draw(st.lists(st.integers(0, len(packs) - 1), min_size=idx.size, max_size=idx.size)))
        full = np.empty(idx.size)
        for k, pack in enumerate(packs):
            full[owner == k] = kernels._gains_numpy(idx[owner == k], pts, pack)
        limits = [np.inf, -np.inf, *np.quantile(full, [0.0, 0.3, 0.7], method="nearest").tolist()]
        limit = data.draw(st.sampled_from(limits))
        batch = replace(packs[0], prior=np.stack([p.prior for p in packs], axis=1)[:, None, owner])
        got = kernels._gains_numpy(idx, pts, batch, None, limit)
        for k, pack in enumerate(packs):
            mine = owner == k
            if mine.any():
                want = kernels._gains_numpy(idx[mine], pts, pack, None, limit)
                assert got[mine].tobytes() == want.tobytes(), k

    def test_majority_alphas(self, monkeypatch):
        """The 19 inner alphas' kept cells, in chunks of 300 profiles, and
        their 16 pure profiles each, in chunks of 50: many chunks span
        games."""
        family = default_majority_family()
        games = [family.game_for(round(0.05 * i, 10)) for i in range(21)]
        pts = SimplexGrid(2, 20).points()
        cells = [kernels.screen_profiles(pack_game(g), pts, 1e-9)[0] for g in games]
        spans = self._spanning_calls(monkeypatch)
        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", 300 * 2)
        groups = self._assert_batched(games, pts, cells.__getitem__)
        assert groups == [[0], list(range(1, 20)), [20]]
        assert len(spans) >= 10 * len(TOLS)
        spans.clear()
        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", 50 * 2)
        self._assert_batched(games, np.eye(2), lambda i: kernels.CodeRange(0, 2 ** games[i].n))
        assert len(spans) >= 6 * len(TOLS)

    def test_zero_prior_family(self, monkeypatch):
        """Games with and without zero-mass types share chunks: a chunk
        raises free rows when any of its games has such a type."""
        game = _game([0.5, 0.5, 0.0], zero_prior_game().utility.v, [
            PenaltySpec.exposure(1.0),
            PenaltySpec.exposure(0.75),
            PenaltySpec.piecewise_linear(((0.0, 0.0), (0.5, 1.5), (1.0, 0.5)), over=("t2",)),
        ])
        priors = [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]]
        games = _with_priors(game, priors)
        pts, idx = _all_profiles(game, 4)
        # fewer codes than the 3 * 5**3 cells of the column table
        samples = [_sample(idx.size, 300, i) for i in range(4)]
        spans = self._spanning_calls(monkeypatch)
        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", 7 * 3)
        groups = self._assert_batched(games, pts, samples.__getitem__)
        assert groups == [[0, 1, 2, 3]] and spans

    def test_table_games_are_swept_alone(self, monkeypatch):
        """The column table depends on the prior: the pure profiles of
        eight types and three actions take it (8 * 2**8 cells for 3**8
        codes), so each game is swept on its own, with its own table."""
        game = _exposure_eight_type_game()
        games = _with_priors(game, [game.prior.p, dyadic_prior(np.random.default_rng(3), 8)])
        tables = []
        real = kernels._column_table

        def spy(grid_pts, pack):
            tables.append(pack.prior)
            return real(grid_pts, pack)

        monkeypatch.setattr(kernels, "_column_table", spy)
        spans = self._spanning_calls(monkeypatch)
        pts = np.eye(3)
        assert self._assert_batched(games, pts, lambda i: kernels.CodeRange(0, 3**8), (1e-9,)) == [[0, 1]]
        # one table per game for the batched call, and one per game alone
        assert [p.tobytes() for p in tables] == [g.prior.p.tobytes() for g in games] * 2
        assert not spans

    def test_groups_any_packs_and_rejects_unpaired_sources(self, monkeypatch):
        """A list that mixes ``GamePack.screen_key`` groups, a tabulated
        game, a game whose own sweep takes the column table (2,600 draws
        against its 4 * 5**4 table cells) and ``tv_to_prior`` games at
        two priors, in shuffled order, is grouped by the kernel itself:
        each group is one stream, the tabulated and the table game each
        stream alone, and each entry is that game's own call, bit for
        bit. The ``tv_to_prior`` games sweep ranges, which their stream
        copies into one buffer; the others their screens' kept cells."""
        games, keys = _mixed_two_action_games()
        pts = SimplexGrid(2, 4).points()
        packs = [pack_game(g) for g in games]
        kept = [
            None if key == "tabulated" else kernels.screen_profiles(pack, pts, 0.05)[0]
            for pack, key in zip(packs, keys)
        ]

        def sources(i):
            total = pts.shape[0] ** games[i].n
            if keys[i] == "table":
                return kernels.CodeDraws(np.random.default_rng(i), total, 2_600)
            if keys[i] in ("tabulated", "tv", "tv flat"):
                return kernels.CodeRange(0, total)
            return kept[i]

        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", 40 * 2)
        streams = _spy_groups(monkeypatch, "_reduce", packs)
        spans = self._spanning_calls(monkeypatch)
        for tol in TOLS:
            streams.clear()
            batched = kernels.reduce_profile_gains(packs, pts, [sources(i) for i in range(len(packs))], tol)
            assert sorted(streams) == _key_groups(keys)
            for i, found in enumerate(batched):
                alone = kernels.reduce_profile_gains(packs[i], pts, sources(i), tol)
                assert _bits(found) == _bits(alone), (tol, keys[i])
        assert spans
        with pytest.raises(ValueError, match="one code source per pack"):
            kernels.reduce_profile_gains(packs[:1], pts, [], 0.0)
        assert kernels.reduce_profile_gains([], pts, [], 0.0) == []
