from dataclasses import replace

import numpy as np
import pytest

from perception_games.fixtures import blog, counterexample_lsc, two_player_game
from perception_games.model import (
    ActionSpace,
    PerceptionGame,
    PlayerSpec,
    TwoPlayerPerceptionGame,
    TypeSpace,
    UtilityModel,
    classify_privacy,
    validate_game,
)
from perception_games.penalties import PenaltySpec, bind
from perception_games.simplex import Belief, SimplexGrid

from helpers import tabulate


def _additive(v, penalties, prior, labels=None, actions=None, **kw):
    n, m = np.asarray(v).shape
    return PerceptionGame(
        types=TypeSpace.plain(labels or tuple(f"t{i}" for i in range(n))),
        actions=ActionSpace.plain(actions or tuple(f"a{j}" for j in range(m))),
        prior=prior,
        utility=UtilityModel(kind="additive_separable", v=np.asarray(v, dtype=float), penalties=tuple(penalties)),
        **kw,
    )


class TestTypeSpace:
    def test_plain(self):
        ts = TypeSpace.plain(("x", "y"))
        assert ts.n == 2 and not ts.factored
        assert ts.index("y") == 1
        with pytest.raises(KeyError):
            ts.index("z")

    def test_product(self):
        ts = TypeSpace.product(("o0", "o1"), ("c", "i"))
        assert ts.labels == ("o0:c", "o0:i", "o1:c", "o1:i")
        assert ts.factored
        assert ts.outcome_of("o1:c") == "o1"
        np.testing.assert_array_equal(ts.outcome_mask("o0"), [True, True, False, False])

    def test_outcome_of_requires_factored(self):
        ts = TypeSpace.plain(("x", "y"))
        with pytest.raises(ValueError):
            ts.outcome_of("x")

    def test_event_mask(self):
        # a penalty's event is resolved against the type labels when bound
        ts = TypeSpace.plain(("a", "b", "c"))
        spec = PenaltySpec.step([(0, 1, 1.0, True, True)], over=("c", "a"))
        assert bind(spec, ts.labels, [1 / 3] * 3, 0).event == (0, 2)
        with pytest.raises(KeyError):
            bind(replace(spec, marginal_over=("a", "nope")), ts.labels, [1 / 3] * 3, 0)


class TestPerceptionGameBasics:
    @pytest.mark.parametrize("prior", [[np.nan, 1.0], [np.inf, 0.0], [0.5, -np.inf]])
    def test_non_finite_prior_rejected(self, prior):
        with pytest.raises(ValueError, match="belief"):
            _additive(np.eye(2), [PenaltySpec.zero()] * 2, prior)

    def test_chi_is_point_mass(self):
        g = blog()
        np.testing.assert_array_equal(g.chi(0).p, [1.0, 0.0])
        np.testing.assert_array_equal(g.chi(1).p, [0.0, 1.0])

    def test_blog_utility_values(self):
        g = blog()
        # truthful separation: full exposure, tv penalty = 2 * (1/2)
        assert g.u(0, 0, g.chi(0).p) == pytest.approx(0.0)
        # pooling keeps the prior: no penalty
        assert g.u(0, 0, g.prior.p) == pytest.approx(1.0)
        assert g.u(1, 0, g.prior.p) == pytest.approx(0.0)

    def test_u_range_additive_is_exact(self):
        g = blog()
        r = g.u_range(0, 0)
        assert r.max == pytest.approx(1.0)  # at the prior
        # max tv distance to (1/2, 1/2) is 1/2, so min = 1 - 2 * (1/2)
        assert r.min == pytest.approx(0.0)

    def test_utility_bounds_cover_samples(self):
        g = blog()
        lo, hi = g.utility_bounds()
        rng = np.random.default_rng(3)
        for _ in range(200):
            mu = rng.dirichlet(np.ones(g.n))
            for t in range(g.n):
                for a in range(g.m):
                    assert lo[t, a] - 1e-12 <= g.u(t, a, mu) <= hi[t, a] + 1e-12

    def test_continuity_flags(self):
        assert blog().continuous
        assert not counterexample_lsc().continuous
        assert blog().lipschitz_l1() == pytest.approx(2.0)
        assert counterexample_lsc().lipschitz_l1() is None


class TestValidateGame:
    def test_fixtures_are_clean(self):
        for g in (blog(), two_player_game(), counterexample_lsc()):
            rep = validate_game(g)
            assert rep.ok, rep.errors

    def test_shape_mismatch(self):
        g = _additive(np.zeros((2, 2)), [PenaltySpec.zero()], [0.5, 0.5])
        rep = validate_game(g)
        assert any("penalties" in p for p, _ in rep.errors)

    def test_nonfinite_v(self):
        v = np.array([[1.0, np.nan], [0.0, 0.0]])
        g = _additive(v, [PenaltySpec.zero()] * 2, [0.5, 0.5])
        assert not validate_game(g).ok

    def test_discontinuous_without_flag(self):
        pen = PenaltySpec.step([(0.4, 0.6, 1.0, True, True)], over=("t0",))
        g = _additive(np.eye(2), [pen, pen], [0.5, 0.5])
        rep = validate_game(g)
        assert any("allow_discontinuous" in msg for _, msg in rep.errors)
        g2 = _additive(np.eye(2), [pen, pen], [0.5, 0.5], allow_discontinuous=True)
        assert validate_game(g2).ok

    def test_bad_event_label(self):
        pen = PenaltySpec.piecewise_linear([(0, 0), (1, 1)], over=("ghost",))
        g = _additive(np.eye(2), [pen, pen], [0.5, 0.5])
        rep = validate_game(g)
        assert any("ghost" in msg for _, msg in rep.errors)

    def test_factored_subset_labels_accepted(self):
        # pruned product space: one zero-mass cell dropped
        ts = TypeSpace(labels=("o0:p", "o1:p", "o1:q"), outcome_labels=("o0", "o1"), privacy_labels=("p", "q"))
        g = PerceptionGame(
            types=ts,
            actions=ActionSpace.plain(("a", "b")),
            prior=[0.25, 0.5, 0.25],
            utility=UtilityModel(
                kind="additive_separable",
                v=np.zeros((3, 2)),
                penalties=(PenaltySpec.zero(),) * 3,
            ),
        )
        assert validate_game(g).ok

    def test_factored_bad_pair_rejected(self):
        ts = TypeSpace(labels=("o0:p", "bogus"), outcome_labels=("o0",), privacy_labels=("p",))
        g = PerceptionGame(
            types=ts,
            actions=ActionSpace.plain(("a", "b")),
            prior=[0.5, 0.5],
            utility=UtilityModel(kind="additive_separable", v=np.zeros((2, 2)), penalties=(PenaltySpec.zero(),) * 2),
        )
        rep = validate_game(g)
        assert any("bogus" in msg for _, msg in rep.errors)

    def test_duplicate_labels(self):
        g = _additive(np.eye(2), [PenaltySpec.zero()] * 2, [0.5, 0.5], labels=("t", "t"))
        assert not validate_game(g).ok

    def test_two_player_belief_rows(self):
        g = two_player_game()
        g.players[0].beliefs = np.array([[0.7, 0.7], [0.5, 0.5]])
        rep = validate_game(g)
        assert any("beliefs" in p for p, _ in rep.errors)

    def test_two_player_nan_belief_row(self):
        g = two_player_game()
        g.players[0].beliefs = np.array([[np.nan, 1.0], [0.5, 0.5]])
        rep = validate_game(g)
        assert rep.errors == [("/players/0/beliefs/0", "row is not a probability distribution")]

    def test_two_player_tiny_negative_belief_accepted(self):
        g = two_player_game()
        g.players[1].beliefs = np.array([[-1e-13, 1.0 + 1e-13], [0.5, 0.5]])
        assert validate_game(g).ok

    def test_two_player_v_shape(self):
        g = two_player_game()
        g.players[1].v = np.zeros((2, 2, 2))
        rep = validate_game(g)
        assert any("v" in p for p, _ in rep.errors)

    def test_two_player_accepts_prior_distance_penalty(self):
        g = two_player_game()
        g.players[0].penalties = (PenaltySpec.tv_to_prior(1.0), PenaltySpec.tv_to_prior(1.0))
        rep = validate_game(g)
        assert rep.ok, rep.errors


class TestTwoPlayerModel:
    def test_w_uses_observer_prior(self):
        # player 0's penalty is judged against what the observing
        # opponent (player 1) believes about player 0's type
        ps = [
            PlayerSpec(
                types=TypeSpace.plain(("u", "d")),
                actions=ActionSpace.plain(("U", "D")),
                beliefs=np.array([[0.5, 0.5], [0.5, 0.5]]),
                v=np.zeros((2, 2, 2, 2)),
                penalties=(PenaltySpec.tv_to_prior(1.0),) * 2,
            ),
            PlayerSpec(
                types=TypeSpace.plain(("l", "r")),
                actions=ActionSpace.plain(("L", "R")),
                beliefs=np.array([[0.25, 0.75], [0.5, 0.5]]),
                v=np.zeros((2, 2, 2, 2)),
                penalties=(PenaltySpec.zero(),) * 2,
            ),
        ]
        g = TwoPlayerPerceptionGame(players=ps)
        mu = np.array([0.25, 0.75])
        # observer of type l holds (0.25, 0.75): distance zero
        assert g.w(0, 0, mu, observer=0) == pytest.approx(0.0)
        # observer of type r holds (0.5, 0.5): tv = 0.25
        assert g.w(0, 0, mu, observer=1) == pytest.approx(0.25)

    def test_u_reads_opponent_type_block(self):
        g = two_player_game()
        # strong type against either opponent: v[U][L-block] = 5
        mu = np.array([0.5, 0.5])
        base = g.players[0].v[0, 0, 0, 0]
        assert g.u(0, 0, 0, 0, 0, mu) == pytest.approx(base - g.w(0, 0, mu))

    def test_u_anchors_penalty_at_opponent_type(self):
        # against opponent type 1, the observer believes (0.875, 0.125)
        # about player 0: tv to the point mass (1, 0) is 0.125, not the
        # 0.5 it is from opponent type 0's (0.5, 0.5)
        g = two_player_game()
        g.players[0].penalties = (PenaltySpec.tv_to_prior(1.0),) * 2
        g.players[1].beliefs = np.array([[0.5, 0.5], [0.875, 0.125]])
        assert g.players[0].v[0, 1, 0, 0] == 5.0
        assert g.u(0, 0, 1, 0, 0, [1.0, 0.0]) == 4.875


class TestPrivacy:
    def test_blog_is_upper_not_lower(self):
        g = blog()
        up = classify_privacy(g, "upper")
        assert up.holds and all(r.holds for r in up.per_type)
        lo = classify_privacy(g, "lower")
        assert lo.holds  # tv peaks at the far vertex, which is chi here

    def test_exposure_game_is_lower(self):
        g = _additive(np.eye(2), [PenaltySpec.exposure(1.0)] * 2, [0.5, 0.5])
        assert classify_privacy(g, "lower").holds
        assert not classify_privacy(g, "upper").holds

    def test_witness_on_failure(self):
        g = _additive(np.eye(2), [PenaltySpec.exposure(1.0)] * 2, [0.5, 0.5])
        rep = classify_privacy(g, "upper")
        bad = [r for r in rep.per_type if not r.holds]
        assert bad and all(r.witness_belief is not None for r in bad)
        for r, t in zip(rep.per_type, range(g.n)):
            if not r.holds:
                assert g.w(t, r.witness_belief.p) < g.w(t, g.prior.p) - 1e-9

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            classify_privacy(blog(), "sideways")


class TestTabulated:
    def test_lattice_vertices_exact(self):
        g = blog()
        tg = tabulate(g, 8)
        for p in SimplexGrid(2, 8).points():
            for t in range(2):
                for a in range(2):
                    assert tg.u(t, a, p) == pytest.approx(g.u(t, a, p), abs=1e-12)

    def test_affine_reproduction(self):
        # tv to a vertex prior is affine on the whole simplex, so the
        # interpolant must reproduce it everywhere, not only on the lattice
        n = 3
        coeffs = np.array([0.7, -0.2, 1.3])

        def f(mu):
            return float(coeffs @ mu)

        grid = SimplexGrid(n, 6)
        values = np.array([[[f(p) for p in grid.points()]]])
        rng = np.random.default_rng(11)
        from perception_games.model import _interp_vertices

        for _ in range(300):
            mu = rng.dirichlet(np.ones(n))
            approx = sum(wt * values[0, 0, i] for i, wt in _interp_vertices(mu, 6))
            assert approx == pytest.approx(f(mu), abs=1e-12)

    def test_interp_weights_form_partition(self):
        from perception_games.model import _interp_vertices

        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            for _ in range(100):
                mu = rng.dirichlet(np.ones(n))
                pieces = _interp_vertices(mu, 7)
                total = sum(w for _, w in pieces)
                assert total == pytest.approx(1.0, abs=1e-12)
                assert all(w > 0 for _, w in pieces)
                assert len({i for i, _ in pieces}) == len(pieces)

    def test_u_range_over_lattice(self):
        g = blog()
        tg = tabulate(g, 10)
        r = tg.u_range(0, 0)
        vals = [tg.u(0, 0, p) for p in SimplexGrid(2, 10).points()]
        assert r.max == pytest.approx(max(vals))
        assert r.min == pytest.approx(min(vals))

    def test_utility_bounds_build_one_lattice(self, monkeypatch):
        tg = tabulate(counterexample_lsc(), 4)
        built = []
        points = SimplexGrid.points

        def counted(grid):
            built.append(grid.resolution)
            return points(grid)

        monkeypatch.setattr(SimplexGrid, "points", counted)
        u_min, u_max = tg.utility_bounds()
        tg.utility_bounds()
        assert built == [4]
        for t in range(tg.n):
            for a in range(tg.m):
                assert (u_min[t, a], u_max[t, a]) == (
                    tg.utility.values[t, a].min(),
                    tg.utility.values[t, a].max(),
                )

    def test_privacy_on_tabulated(self):
        g = blog()
        tg = tabulate(g, 200)  # prior (1/2, 1/2) is a lattice point
        rep = classify_privacy(tg, "upper")
        assert rep.holds
