import numpy as np
import pytest

from perception_games import kernels
from perception_games.fixtures import blog
from perception_games.kernels import pack_game, sweep_profile_gains
from perception_games.model import ActionSpace, PerceptionGame, TypeSpace, UtilityModel
from perception_games.penalties import PenaltySpec
from perception_games.simplex import SimplexGrid
from perception_games.single import _decode_profile, profile_report
from perception_games.testing import dyadic_prior, random_mixed_catalog_game


def _all_profiles(game, resolution):
    pts = SimplexGrid(game.m, resolution).points()
    idx = np.arange(pts.shape[0] ** game.n, dtype=np.int64)
    return pts, idx


def _sample(total, size, seed):
    if total <= size:
        return np.arange(total, dtype=np.int64)
    return np.random.default_rng(seed).choice(total, size=size, replace=False)


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
    return PerceptionGame(
        types=TypeSpace.plain(labels),
        actions=ActionSpace.plain(("a0", "a1", "a2")),
        prior=dyadic_prior(rng, 8),
        utility=UtilityModel(
            kind="additive_separable",
            v=rng.uniform(0.0, 1.0, size=(8, 3)),
            penalties=penalties,
        ),
        allow_discontinuous=True,
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
        G = pts.shape[0]
        for k in range(idx.size):
            sigma = _decode_profile(int(idx[k]), G, pts, game.n)
            assert gains[k] == profile_report(game, sigma, 1e-9).max_gain

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
        sigma = _decode_profile(1, G, pts, 2)
        np.testing.assert_array_equal(sigma[0], pts[0])
        np.testing.assert_array_equal(sigma[1], pts[1])
        sigma = _decode_profile(G, G, pts, 2)
        np.testing.assert_array_equal(sigma[0], pts[1])
        np.testing.assert_array_equal(sigma[1], pts[0])
