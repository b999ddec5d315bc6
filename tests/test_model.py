from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from perception_games.experiments import default_majority_family
from perception_games.fixtures import blog, counterexample_lsc, two_player_game
from perception_games.kernels import pack_game
from perception_games.model import (
    ActionSpace,
    PerceptionGame,
    PlayerSpec,
    TwoPlayerPerceptionGame,
    TypeSpace,
    UtilityModel,
    _interpolate,
    classify_privacy,
    validate_game,
)
from perception_games.penalties import PenaltySpec, bind
from perception_games.simplex import Belief, SimplexGrid

from helpers import tabulate, with_player


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

    def test_u_range_covers_samples(self):
        g = blog()
        rng = np.random.default_rng(3)
        for _ in range(200):
            mu = rng.dirichlet(np.ones(g.n))
            for t in range(g.n):
                for a in range(g.m):
                    r = g.u_range(t, a)
                    assert r.min - 1e-12 <= g.u(t, a, mu) <= r.max + 1e-12

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

    def test_empty_types_with_tabulated_utility_reported(self):
        g = PerceptionGame(
            types=TypeSpace.plain(()),
            actions=ActionSpace.plain(("a",)),
            prior=[1.0],
            utility=UtilityModel(kind="tabulated_grid", resolution=2, values=np.zeros((0, 1, 0))),
        )
        assert [p for p, _ in validate_game(g).errors] == ["/types", "/prior"]

    def test_duplicate_labels(self):
        g = _additive(np.eye(2), [PenaltySpec.zero()] * 2, [0.5, 0.5], labels=("t", "t"))
        assert not validate_game(g).ok

    def test_two_player_belief_rows(self):
        g = with_player(two_player_game(), 0, beliefs=np.array([[0.7, 0.7], [0.5, 0.5]]))
        rep = validate_game(g)
        assert any("beliefs" in p for p, _ in rep.errors)

    def test_two_player_nan_belief_row(self):
        g = with_player(two_player_game(), 0, beliefs=np.array([[np.nan, 1.0], [0.5, 0.5]]))
        rep = validate_game(g)
        assert rep.errors == [("/players/0/beliefs/0", "row is not a probability distribution")]

    def test_two_player_tiny_negative_belief_accepted(self):
        g = with_player(
            two_player_game(), 1, beliefs=np.array([[-1e-13, 1.0 + 1e-13], [0.5, 0.5]])
        )
        assert validate_game(g).ok

    def test_two_player_v_shape(self):
        g = with_player(two_player_game(), 1, v=np.zeros((2, 2, 2)))
        rep = validate_game(g)
        assert any("v" in p for p, _ in rep.errors)

    def test_two_player_accepts_prior_distance_penalty(self):
        g = with_player(
            two_player_game(),
            0,
            penalties=(PenaltySpec.tv_to_prior(1.0), PenaltySpec.tv_to_prior(1.0)),
        )
        rep = validate_game(g)
        assert rep.ok, rep.errors


_STEP_U = PenaltySpec.step([(0.4, 0.6, 1.0, True, True)], over=("u",))
_GHOST = PenaltySpec.piecewise_linear(((0, 0), (1, 1)), over=("ghost",))
_TABULATED = UtilityModel(kind="tabulated_grid", resolution=4, values=np.zeros((2, 2, 5)))


class TestValidationErrorLists:
    """Every error of a faulty game, in order: the per-player checks of a
    two-player game run in the single game's order under /players/i."""

    @pytest.mark.parametrize(
        "make, errors",
        [
            (
                lambda: with_player(
                    two_player_game(), 0, types=TypeSpace.plain(("u", "u")), actions=ActionSpace.plain(("U", "U"))
                ),
                [
                    ("/players/0/types", "type labels must be unique and nonempty"),
                    ("/players/0/actions", "action labels must be unique and nonempty"),
                ],
            ),
            (
                lambda: with_player(two_player_game(), 1, v=np.full((2, 2, 2, 2), np.nan)),
                [("/players/1/v", "entries must be finite")],
            ),
            (
                lambda: with_player(two_player_game(), 1, actions=ActionSpace.plain(())),
                [
                    ("/players/0/v", "expected shape (2, 2, 2, 0), got (2, 2, 2, 2)"),
                    ("/players/1/actions", "action labels must be unique and nonempty"),
                    ("/players/1/v", "expected shape (2, 2, 0, 2), got (2, 2, 2, 2)"),
                ],
            ),
            (
                lambda: with_player(two_player_game(), 1, penalties=(PenaltySpec.zero(),)),
                [("/players/1/penalties", "expected one penalty per type (2)")],
            ),
            # missing arrays raised AttributeError
            (
                lambda: with_player(two_player_game(), 0, beliefs=None, v=None),
                [
                    ("/players/0/beliefs", "expected shape (2, 2), got None"),
                    ("/players/0/v", "expected shape (2, 2, 2, 2), got None"),
                ],
            ),
            (
                lambda: with_player(two_player_game(), 0, penalties=(_STEP_U, _STEP_U)),
                [
                    (f"/players/0/penalties/{t}", "discontinuous penalty requires the game's allow_discontinuous flag")
                    for t in range(2)
                ],
            ),
            (
                lambda: with_player(two_player_game(), 0, penalties=(PenaltySpec(kind="bogus"), PenaltySpec.zero())),
                [
                    (
                        "/players/0/penalties/0",
                        "unknown penalty kind 'bogus', expected one of ('zero', 'tv_to_prior', "
                        "'exposure', 'piecewise_linear_marginal', 'step_marginal')",
                    ),
                ],
            ),
            (
                lambda: with_player(
                    with_player(
                        two_player_game(),
                        0,
                        types=TypeSpace.plain(("u", "u")),
                        v=np.full((2, 2, 2, 2), np.inf),
                        penalties=(_GHOST, _STEP_U),
                    ),
                    1,
                    actions=ActionSpace.plain(("L", "L")),
                    beliefs=np.array([[np.nan, 1.0], [0.5, 0.6]]),
                    penalties=(),
                ),
                [
                    ("/players/0/types", "type labels must be unique and nonempty"),
                    ("/players/0/v", "entries must be finite"),
                    ("/players/0/penalties/0", "marginal_over label 'ghost' is not a type label"),
                    ("/players/0/penalties/1", "discontinuous penalty requires the game's allow_discontinuous flag"),
                    ("/players/1/actions", "action labels must be unique and nonempty"),
                    ("/players/1/beliefs/0", "row is not a probability distribution"),
                    ("/players/1/beliefs/1", "row is not a probability distribution"),
                    ("/players/1/penalties", "expected one penalty per type (2)"),
                ],
            ),
            (
                lambda: PerceptionGame(
                    types=TypeSpace.plain(("a", "a")),
                    actions=ActionSpace.plain(()),
                    prior=[1.0],
                    utility=UtilityModel(kind="additive_separable", v=np.zeros((3, 3)), penalties=(PenaltySpec.zero(),)),
                ),
                [
                    ("/types", "type labels must be unique and nonempty"),
                    ("/actions", "action labels must be unique and nonempty"),
                    ("/prior", "expected 2 entries, got 1"),
                    ("/utility/v", "expected shape (2, 0), got (3, 3)"),
                    ("/utility/penalties", "expected one penalty per type (2)"),
                ],
            ),
            (
                lambda: replace(blog(), utility=UtilityModel(kind="additive_separable", penalties=(PenaltySpec.zero(),) * 2)),
                [("/utility/v", "expected shape (2, 2), got None")],
            ),
            (
                lambda: replace(blog(), utility=UtilityModel(kind="additive_separable", v=np.eye(2))),
                [("/utility/penalties", "expected one penalty per type (2)")],
            ),
            (
                lambda: replace(
                    blog(),
                    utility=UtilityModel(
                        kind="additive_separable", v=np.array([[np.nan, 0.0], [0.0, 0.0]]), penalties=(_STEP_U, _GHOST)
                    ),
                ),
                [
                    ("/utility/v", "entries must be finite"),
                    ("/utility/penalties/0", "marginal_over label 'u' is not a type label"),
                    ("/utility/penalties/0", "discontinuous penalty requires the game's allow_discontinuous flag"),
                    ("/utility/penalties/1", "marginal_over label 'ghost' is not a type label"),
                ],
            ),
            (
                lambda: replace(blog(), utility=replace(_TABULATED, values=np.full((2, 2, 5), np.nan))),
                [("/utility/values", "entries must be finite")],
            ),
            (
                lambda: replace(blog(), utility=replace(_TABULATED, resolution=3)),
                [("/utility/values", "expected shape (2, 2, 4), got (2, 2, 5)")],
            ),
            (
                lambda: replace(blog(), utility=replace(_TABULATED, resolution=0)),
                [("/utility/resolution", "resolution must be a positive integer")],
            ),
            (
                lambda: replace(blog(), utility=replace(_TABULATED, resolution=None)),
                [("/utility/resolution", "resolution must be a positive integer")],
            ),
            # accepted before, and the solvers then raised TypeError
            (
                lambda: replace(blog(), utility=replace(_TABULATED, resolution=2.5)),
                [("/utility/resolution", "resolution must be a positive integer")],
            ),
            (
                lambda: replace(blog(), utility=replace(_TABULATED, resolution=2.0)),
                [("/utility/resolution", "resolution must be a positive integer")],
            ),
            # read as resolution 1, and reported as a values shape error
            (
                lambda: replace(blog(), utility=replace(_TABULATED, resolution=True)),
                [("/utility/resolution", "resolution must be a positive integer")],
            ),
            (
                lambda: PerceptionGame(
                    types=TypeSpace.plain(()),
                    actions=ActionSpace.plain(("a",)),
                    prior=[1.0],
                    utility=UtilityModel(kind="tabulated_grid", resolution=0, values=np.zeros((0, 1, 0))),
                ),
                [
                    ("/types", "type labels must be unique and nonempty"),
                    ("/prior", "expected 0 entries, got 1"),
                    ("/utility/resolution", "resolution must be a positive integer"),
                ],
            ),
            (
                lambda: replace(blog(), utility=UtilityModel(kind="bogus")),
                [("/utility/kind", "unknown utility kind 'bogus'")],
            ),
        ],
    )
    def test_errors(self, make, errors):
        assert validate_game(make()).errors == errors

    def test_numpy_integer_resolution_accepted(self):
        g = replace(blog(), utility=replace(_TABULATED, resolution=np.int64(4)))
        assert validate_game(g).ok


class TestValidationFields:
    """Both game kinds fill ``continuous`` and ``lipschitz_l1`` only in a
    report without errors."""

    @pytest.mark.parametrize(
        "make",
        [
            # lipschitz_l1 read 2.2 next to the error
            lambda: with_player(two_player_game(), 1, v=np.full((2, 2, 2, 2), np.nan)),
            lambda: with_player(two_player_game(), 0, penalties=(_STEP_U, _STEP_U)),
            lambda: _additive(np.eye(2), [_STEP_U, _STEP_U], [0.5, 0.5], labels=("u", "d")),
        ],
    )
    def test_a_report_with_errors_keeps_the_defaults(self, make):
        rep = validate_game(make())
        assert rep.errors
        assert (rep.continuous, rep.lipschitz_l1) == (True, None)

    def test_a_clean_report_fills_both_fields(self):
        rep = validate_game(two_player_game())
        assert (rep.continuous, rep.lipschitz_l1) == (True, 2.2)
        stepped = replace(with_player(two_player_game(), 0, penalties=(_STEP_U, _STEP_U)), allow_discontinuous=True)
        rep = validate_game(stepped)
        assert rep.ok and (rep.continuous, rep.lipschitz_l1) == (False, None)
        rep = validate_game(counterexample_lsc())
        assert rep.ok and (rep.continuous, rep.lipschitz_l1) == (False, None)


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
        g = with_player(two_player_game(), 0, penalties=(PenaltySpec.tv_to_prior(1.0),) * 2)
        g = with_player(g, 1, beliefs=np.array([[0.5, 0.5], [0.875, 0.125]]))
        assert g.players[0].v[0, 1, 0, 0] == 5.0
        assert g.u(0, 0, 1, 0, 0, [1.0, 0.0]) == 4.875


class TestImmutableGames:
    """Games cache bound penalties and ranges, so their fields cannot be
    reassigned nor their arrays written: a changed game is a new one."""

    @pytest.mark.parametrize(
        "build, path, field",
        [
            (blog, (), "prior"),
            (blog, (), "utility"),
            (blog, (), "name"),
            (blog, ("utility",), "v"),
            (blog, ("utility",), "penalties"),
            (two_player_game, (), "players"),
            (two_player_game, (), "name"),
            (two_player_game, ("players", 0), "penalties"),
            (two_player_game, ("players", 0), "beliefs"),
            (two_player_game, ("players", 1), "v"),
        ],
    )
    def test_assigning_a_field_raises(self, build, path, field):
        obj = build()
        for step in path:
            obj = obj[step] if isinstance(step, int) else getattr(obj, step)
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))

    def test_stored_arrays_are_read_only_copies(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        g = _additive(v, [PenaltySpec.zero()] * 2, [0.5, 0.5])
        v[0, 0] = 9.0
        assert g.utility.v[0, 0] == 1.0
        tab = tabulate(g, 2)
        ps = two_player_game().players[0]
        for arr in (g.utility.v, tab.utility.values, ps.beliefs, ps.v):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 2.0

    def test_replaced_player_penalty_is_read(self):
        g = two_player_game()
        assert g.w(0, 0, [1.0, 0.0]) == 1.1
        assert g.penalty_range_of(0, 0).max == 1.1
        # the observer's belief about player 0 is (0.5, 0.5): tv 0.5
        g2 = with_player(g, 0, penalties=(PenaltySpec.tv_to_prior(3.0),) * 2)
        assert g2.w(0, 0, [1.0, 0.0]) == 1.5
        assert g2.penalty_range_of(0, 0).max == 1.5
        assert g.w(0, 0, [1.0, 0.0]) == 1.1

    def test_replaced_utility_reaches_the_kernel(self):
        g = default_majority_family().game_for(0.5)
        assert pack_game(g).penalties[0].spec.kind == "piecewise_linear_marginal"
        zero = replace(g.utility, penalties=(PenaltySpec.zero(),) * g.n)
        g2 = replace(g, utility=zero)
        assert pack_game(g2).penalties[0].spec == PenaltySpec.zero()
        assert g2.w(0, [1.0, 0.0, 0.0, 0.0]) == 0.0
        np.testing.assert_array_equal(pack_game(g2).u_max, g.utility.v)


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

    def test_nan_tol_rejected(self, monkeypatch):
        # a NaN tol made every type fail: no gap is at most NaN
        def fail(*args, **kwargs):
            raise AssertionError("evaluated a penalty")

        monkeypatch.setattr(PerceptionGame, "penalty_range_of", fail)
        with pytest.raises(ValueError, match=r"^tol must be a number, got nan$"):
            classify_privacy(blog(), "upper", tol=float("nan"))

    def test_negative_tol_accepted(self):
        assert classify_privacy(blog(), "upper", tol=-1.0).holds is False


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
        mus = np.random.default_rng(11).dirichlet(np.ones(n), size=(300, 1))
        approx = _interpolate(mus, values, 6)[:, 0, 0]
        np.testing.assert_allclose(approx, mus[:, 0] @ coeffs, rtol=0, atol=1e-12)

    def test_interp_weights_form_partition(self):
        # with constant values the interpolant is the constant; with the
        # indicator of lattice point j as action j's values it is point
        # j's weight, so the weights are nonnegative, sum to 1, are
        # positive at most n vertices, and put the vertices' mean at mu
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            pts = SimplexGrid(n, 7).points()
            size = len(pts)
            mu = rng.dirichlet(np.ones(n), size=100)
            const = _interpolate(mu[:, None], np.full((1, 1, size), 2.5), 7)[:, 0, 0]
            np.testing.assert_allclose(const, 2.5, rtol=0, atol=1e-12)
            indicator = np.eye(size)[None]
            weights = _interpolate(np.repeat(mu[:, None], size, axis=1), indicator, 7)[..., 0]
            assert (weights >= 0.0).all()
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert ((weights > 0.0).sum(axis=1) <= n).all()
            np.testing.assert_allclose(weights @ pts, mu, rtol=0, atol=1e-12)

    def test_u_is_the_batched_interpolant(self):
        tg = tabulate(counterexample_lsc(), 5)
        mus = np.random.default_rng(3).dirichlet(np.ones(tg.n), size=(50, tg.m))
        batch = _interpolate(mus, tg.utility.values, 5)
        for b, t, a in np.ndindex(50, tg.n, tg.m):
            assert tg.u(t, a, mus[b, a]) == batch[b, a, t]

    def test_u_range_over_lattice(self):
        g = blog()
        tg = tabulate(g, 10)
        r = tg.u_range(0, 0)
        vals = [tg.u(0, 0, p) for p in SimplexGrid(2, 10).points()]
        assert r.max == pytest.approx(max(vals))
        assert r.min == pytest.approx(min(vals))

    def test_u_range_builds_one_lattice(self, monkeypatch):
        tg = tabulate(counterexample_lsc(), 4)
        built = []
        points = SimplexGrid.points

        def counted(grid):
            built.append(grid.resolution)
            return points(grid)

        monkeypatch.setattr(SimplexGrid, "points", counted)
        for _ in range(2):
            ranges = {(t, a): tg.u_range(t, a) for t, a in np.ndindex(tg.n, tg.m)}
        assert built == [4]
        for (t, a), r in ranges.items():
            assert (r.min, r.max) == (tg.utility.values[t, a].min(), tg.utility.values[t, a].max())

    def test_privacy_on_tabulated(self):
        g = blog()
        tg = tabulate(g, 200)  # prior (1/2, 1/2) is a lattice point
        rep = classify_privacy(tg, "upper")
        assert rep.holds

    def test_lower_privacy_on_tabulated(self):
        # from the prior (1/4, 3/4) the farthest belief is type 0's own
        # vertex, but not type 1's: being found out is not worst for it
        g = _additive(np.eye(2), [PenaltySpec.tv_to_prior(1.0)] * 2, [0.25, 0.75])
        rep = classify_privacy(tabulate(g, 4), "lower")
        assert [r.holds for r in rep.per_type] == [True, False] and not rep.holds
        assert [r.gap for r in rep.per_type] == [0.0, 0.5]
        assert rep.per_type[1].witness_action == "a0"
        assert rep.per_type[1].witness_belief == Belief([1.0, 0.0])
        assert classify_privacy(g, "lower").holds is False
