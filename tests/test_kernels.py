from itertools import product

import numpy as np
import pytest

from perception_games import kernels
from perception_games.fixtures import blog
from perception_games.kernels import decode_profiles, pack_game, sweep_profile_gains
from perception_games.model import ActionSpace, PerceptionGame, TypeSpace, UtilityModel
from perception_games.penalties import PenaltySpec
from perception_games.simplex import SimplexGrid
from perception_games.single import profile_report
from perception_games.testing import dyadic_prior, random_mixed_catalog_game


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


class TestPackGame:
    def test_rejects_tabulated(self):
        g = PerceptionGame(
            types=TypeSpace.plain(("t",)),
            actions=ActionSpace.plain(("a",)),
            prior=[1.0],
            utility=UtilityModel(kind="tabulated_grid", resolution=1, values=np.zeros((1, 1, 1))),
        )
        with pytest.raises(ValueError):
            pack_game(g)

    def test_blog_pack_shapes(self):
        pack = pack_game(blog())
        assert pack.v.shape == (2, 2)
        assert pack.u_min.shape == pack.u_max.shape == (2, 2)
        np.testing.assert_allclose(pack.prior, [0.5, 0.5])


class TestNumpyGainsAgainstEvaluator:
    """Kernel gains equal the exact evaluator's bit for bit."""

    @staticmethod
    def _assert_equal(game, pts, idx):
        gains = sweep_profile_gains(pack_game(game), pts, idx)
        assert gains.shape == idx.shape
        reports = [profile_report(game, s, 1e-9) for s in decode_profiles(pts, idx, game.n)]
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


class TestChunking:
    def test_chunking_does_not_change_numpy_results(self, monkeypatch):
        game = blog()
        pack = pack_game(game)
        pts, idx = _all_profiles(game, 12)
        whole = sweep_profile_gains(pack, pts, idx)
        monkeypatch.setattr(kernels, "_CHUNK_BUDGET", 7 * game.n * game.m)
        np.testing.assert_array_equal(sweep_profile_gains(pack, pts, idx), whole)


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
