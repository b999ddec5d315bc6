from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perception_games import kernels
from perception_games.experiments import default_majority_family
from perception_games.fixtures import blog
from perception_games.kernels import decode_profiles, pack_game, sweep_profile_gains
from perception_games.model import ActionSpace, PerceptionGame, TypeSpace, UtilityModel
from perception_games.penalties import PenaltySpec
from perception_games.simplex import SimplexGrid
from perception_games.single import profile_report
from perception_games.testing import dyadic_prior, random_mixed_catalog_game

from helpers import catalog_penalties, tabulate


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


def tied_prior_tv_game() -> PerceptionGame:
    return _game(
        [0.125, 0.375, 0.125, 0.375],
        [[1.0, 0.0], [0.25, 1.0], [0.5, 0.75], [1.0, 0.5]],
        [PenaltySpec.tv_to_prior(w) for w in (1.0, 2.0, 0.5, 1.5)],
    )


@st.composite
def additive_catalog_games(draw) -> PerceptionGame:
    """1-5 types, 1-3 actions, any catalog penalties; some types may
    have no prior mass. Sometimes those types get the largest ``v``, so
    that a capped free row of theirs decides a profile's gain."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
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
        u_min, u_max = game.utility_bounds()
        np.testing.assert_array_equal(pack.u_min, u_min)
        np.testing.assert_array_equal(pack.u_max, u_max)

    def test_blog_pack_shapes(self):
        pack = pack_game(blog())
        assert pack.v.shape == (2, 2)
        assert pack.u_min.shape == pack.u_max.shape == (2, 2)
        np.testing.assert_allclose(pack.prior, [0.5, 0.5])


class TestNumpyGainsAgainstEvaluator:
    """Kernel gains equal the exact evaluator's bit for bit."""

    @staticmethod
    def _assert_equal(game, pts, idx):
        """Both ways the chunk function takes penalties: from each
        profile's posteriors, and from the column table of ``pts``
        whether or not ``sweep_profile_gains`` would build it."""
        pack = pack_game(game)
        reports = [profile_report(game, s, 1e-9) for s in decode_profiles(pts, idx, game.n)]
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
            ranks = kernels._lattice_rank(suffix, k)
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
        assert gains.tolist() == [profile_report(game, s, 1e-9).max_gain for s in sig]


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
