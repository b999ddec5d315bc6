import numpy as np
import pytest

from perception_games.experiments import (
    MajorityFamily,
    SeparableGameSpec,
    build_separating_equilibrium,
    check_separation_margin,
    counterexample_check,
    default_majority_family,
    scan_alpha,
    separation_uniqueness_bound,
    welfare_report,
    welfare_report_2p,
)
from perception_games.fixtures import (
    blog,
    counterexample_lsc,
    counterexample_usc,
    two_player_game,
)
from perception_games.model import ActionSpace, PerceptionGame, TypeSpace, UtilityModel
from perception_games.penalties import PenaltySpec
from perception_games.single import verify_equilibrium
from perception_games.testing import random_separable_spec


def _toy_spec(**overrides):
    base = dict(
        outcomes=("o0", "o1"),
        privacy=("p",),
        actions=("a0", "a1"),
        joint_prior=np.array([[0.5], [0.5]]),
        v_outcome=np.array([[3.0, 0.0], [0.0, 3.0]]),
        penalty_by_privacy={
            "p": PenaltySpec.piecewise_linear([(0, 1), (0.5, 0), (1, 1)], over=("o0",))
        },
    )
    base.update(overrides)
    return SeparableGameSpec(**base)


class TestSeparableSpecValidation:
    def test_clean(self):
        _toy_spec().validate_structure()

    def test_prior_shape(self):
        with pytest.raises(ValueError):
            _toy_spec(joint_prior=np.array([0.5, 0.5])).validate_structure()

    def test_prior_mass(self):
        with pytest.raises(ValueError):
            _toy_spec(joint_prior=np.array([[0.5], [0.6]])).validate_structure()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_prior_must_be_finite(self, bad):
        spec = _toy_spec(joint_prior=np.array([[bad], [1.0]]))
        with pytest.raises(ValueError, match="joint_prior"):
            spec.validate_structure()
        with pytest.raises(ValueError, match="joint_prior"):
            spec.to_game()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_values_must_be_finite(self, bad):
        spec = _toy_spec(v_outcome=np.array([[3.0, bad], [0.0, 3.0]]))
        with pytest.raises(ValueError, match="v_outcome entries must be finite"):
            spec.validate_structure()
        with pytest.raises(ValueError, match="v_outcome entries must be finite"):
            spec.to_game()

    def test_best_action_tie_rejected(self):
        with pytest.raises(ValueError):
            _toy_spec(v_outcome=np.array([[1.0, 1.0], [0.0, 3.0]])).validate_structure()

    def test_colliding_best_actions_rejected(self):
        with pytest.raises(ValueError):
            _toy_spec(v_outcome=np.array([[3.0, 0.0], [3.0, 0.0]])).validate_structure()

    def test_collision_tolerated_on_zero_mass_outcome(self):
        spec = _toy_spec(
            joint_prior=np.array([[1.0], [0.0]]),
            v_outcome=np.array([[3.0, 0.0], [3.0, 0.0]]),
        )
        spec.validate_structure()

    def test_penalty_kind_restricted(self):
        with pytest.raises(ValueError):
            _toy_spec(penalty_by_privacy={"p": PenaltySpec.tv_to_prior(1.0)}).validate_structure()

    def test_event_labels_must_be_outcomes(self):
        bad = PenaltySpec.piecewise_linear([(0, 0), (1, 1)], over=("nope",))
        with pytest.raises(ValueError):
            _toy_spec(penalty_by_privacy={"p": bad}).validate_structure()

    def test_missing_privacy_penalty(self):
        with pytest.raises(ValueError):
            _toy_spec(penalty_by_privacy={}).validate_structure()


class TestToGame:
    def test_zero_mass_cells_dropped(self):
        fam = default_majority_family()
        g0 = fam.game_for(0.0)
        assert g0.types.labels == ("o0:concerned", "o1:concerned")
        g1 = fam.game_for(1.0)
        assert g1.types.labels == ("o0:indifferent", "o1:indifferent")
        gmid = fam.game_for(0.5)
        assert gmid.n == 4

    def test_event_expanded_to_member_types(self):
        g = default_majority_family().game_for(0.5)
        # the concerned penalty watches the o0 outcome event
        for t, label in enumerate(g.types.labels):
            if label.endswith(":concerned"):
                assert g.penalty(t).event == tuple(
                    s for s, lab in enumerate(g.types.labels) if lab.startswith("o0:")
                )

    def test_prior_matches_joint(self):
        fam = default_majority_family()
        g = fam.game_for(0.25)
        np.testing.assert_allclose(
            g.prior.p, [0.5 * 0.75, 0.5 * 0.25, 0.5 * 0.75, 0.5 * 0.25]
        )

    def test_empty_event_after_pruning_raises(self):
        spec = _toy_spec(
            joint_prior=np.array([[0.0], [1.0]]),
            v_outcome=np.array([[3.0, 0.0], [0.0, 3.0]]),
        )
        # the penalty watches o0, but every o0 type has zero mass
        with pytest.raises(ValueError):
            spec.to_game()


class TestMargin:
    def test_toy_margin_value(self):
        rep = check_separation_margin(_toy_spec())
        # v gap is 3; worst penalty swing between reveal-o0 and
        # reveal-o1 diracs is 1 - 1 = 0 either way
        assert rep.holds
        assert rep.margin == pytest.approx(3.0)
        assert len(rep.rows) == 2

    def test_margin_fails_when_penalty_dominates(self):
        spec = _toy_spec(
            v_outcome=np.array([[0.5, 0.0], [0.0, 0.5]]),
            penalty_by_privacy={
                "p": PenaltySpec.piecewise_linear(
                    [(0, 0), (1, 2)], over=("o0",)
                )
            },
        )
        rep = check_separation_margin(spec)
        # revealing o0 costs 2 while revealing o1 costs 0: the o0 row
        # margin is 0.5 - 2 < 0
        assert not rep.holds
        assert rep.margin == pytest.approx(0.5 - 2.0)

    def test_rows_skip_dead_cells(self):
        fam = default_majority_family()
        rep0 = check_separation_margin(fam.spec_for(0.0))
        repmid = check_separation_margin(fam.spec_for(0.5))
        assert len(rep0.rows) == 2  # one privacy class alive
        assert len(repmid.rows) == 4


class TestBuildSeparatingEquilibrium:
    def test_toy_profile_verifies(self):
        game, strategy, perceptions = build_separating_equilibrium(_toy_spec())
        res = verify_equilibrium(game, strategy, perceptions)
        assert res.accepted

    @pytest.mark.parametrize("seed", range(10))
    def test_random_specs_verify(self, seed):
        rng = np.random.default_rng(3000 + seed)
        spec = random_separable_spec(rng)
        assert check_separation_margin(spec).holds
        game, strategy, perceptions = build_separating_equilibrium(spec)
        assert verify_equilibrium(game, strategy, perceptions).accepted

    def test_unused_actions_deterred_by_self_exposure(self):
        rng = np.random.default_rng(77)
        spec = None
        while spec is None or len(spec.actions) <= len(spec.outcomes):
            spec = random_separable_spec(rng)
        game, strategy, perceptions = build_separating_equilibrium(spec)
        used = {int(a) for a in np.argmax(strategy.sigma, axis=1)}
        unused = set(range(game.m)) - used
        assert unused
        for t in range(game.n):
            for a in unused:
                np.testing.assert_array_equal(perceptions.tau[t, a], game.chi(t).p)


class TestUniquenessBound:
    def test_majority_bound_constant_half(self):
        fam = default_majority_family()
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert separation_uniqueness_bound(fam.spec_for(alpha)) == pytest.approx(0.5)

    def test_skewed_outcome_prior(self):
        fam = MajorityFamily(outcome_prior=(0.7, 0.3))
        assert separation_uniqueness_bound(fam.spec_for(0.5)) == pytest.approx(0.7)


class TestScanAlpha:
    def test_frozen_regimes(self):
        fam = default_majority_family()
        rep = scan_alpha(fam, [0.0, 0.25, 0.5, 0.55, 0.75, 1.0])
        by_alpha = {r.alpha: r for r in rep.rows}
        assert by_alpha[0.0].labels == ("pool:a0", "separating", "pool:a1")
        assert by_alpha[0.25].labels == ("other", "separating", "other")
        assert by_alpha[0.5].labels == ("other", "separating", "other")
        for a in (0.55, 0.75, 1.0):
            assert by_alpha[a].labels == ("separating",)
            assert by_alpha[a].separation_unique
        assert rep.alpha_hat == pytest.approx(0.55)
        assert rep.bound == pytest.approx(0.5)
        assert rep.bound_violations == ()
        assert rep.monotonicity_violations == ()
        assert all(r.margin_ok for r in rep.rows)
        assert all(r.separating_present for r in rep.rows)

    def test_mixed_corroboration(self):
        fam = default_majority_family()
        rep = scan_alpha(fam, [0.75, 1.0], mixed_step=0.25)
        for r in rep.rows:
            assert r.mixed_survivors == 1

    def test_without_mixed_field_is_none(self):
        rep = scan_alpha(default_majority_family(), [0.5])
        assert rep.rows[0].mixed_survivors is None


class TestWelfare:
    def test_blog_dominance(self):
        rep = welfare_report(blog())
        np.testing.assert_allclose(rep.legislation.payoffs, [1.0, 1.0])
        assert len(rep.equilibria) == 3
        assert rep.dominance
        assert rep.any_type_better_off == (False, False, False)
        # pooling on L: type l ties the benchmark, type r loses 1
        assert rep.deltas[0] == (0.0, 1.0)
        assert rep.deltas[1] == (1.0, 1.0)
        assert rep.deltas[2] == (1.0, 0.0)

    def test_two_player_fixture_beats_frozen_baseline(self):
        rep = welfare_report_2p(two_player_game())
        assert rep.strict_baseline_index is not None
        ref = rep.baseline_payoffs[rep.strict_baseline_index]
        assert ref == ((2.5, 2.5), (2.5, 2.5))
        assert rep.baseline_strict.count(True) == 1
        # the joint-pooling equilibrium pays (5, 3) per side
        assert any(rep.all_types_strictly_better)
        best = rep.equilibria_payoffs[rep.all_types_strictly_better.index(True)]
        assert best == ((5.0, 3.0), (5.0, 3.0))

    def test_no_strict_baseline_disables_comparison(self):
        g = two_player_game()
        g.players[1].v = np.zeros_like(g.players[1].v)
        rep = welfare_report_2p(g)
        assert rep.strict_baseline_index is None
        assert rep.all_types_strictly_better is None


class TestCounterexampleCheck:
    def test_rejects_continuous_game(self):
        with pytest.raises(ValueError):
            counterexample_check(blog())

    def test_pure_scan_capped_before_allocating(self):
        # 2**21 pure profiles: the cap of enumerate_pure_equilibria applies
        labels = tuple(f"t{i}" for i in range(21))
        step = PenaltySpec.step([(0.5, 1.0, 1.0, True, True)], over=labels[:1])
        game = PerceptionGame(
            types=TypeSpace.plain(labels),
            actions=ActionSpace.plain(("a0", "a1")),
            prior=np.full(21, 1.0 / 21),
            utility=UtilityModel(
                kind="additive_separable", v=np.zeros((21, 2)), penalties=(step,) * 21
            ),
            allow_discontinuous=True,
        )
        with pytest.raises(ValueError, match="2097152 pure profiles exceed max_profiles=1000000"):
            counterexample_check(game)

    def test_lower_semicontinuous_fixture(self):
        rep = counterexample_check(counterexample_lsc(), strategy_step=0.05, epsilons=(0.1,))
        assert rep.pure_min_gain == pytest.approx(1.0)
        assert not rep.pure_equilibrium_exists
        assert rep.sweep.survivor_count == 0
        assert rep.sweep.min_max_gain == pytest.approx(0.05)
        assert rep.eps_equilibrium_found[0.1] is True
        assert rep.eps_witness[0.1] is not None

    def test_upper_semicontinuous_fixture(self):
        rep = counterexample_check(counterexample_usc(), strategy_step=0.05, epsilons=(0.1,))
        assert rep.pure_min_gain == pytest.approx(1.0)
        assert not rep.pure_equilibrium_exists
        assert rep.sweep.min_max_gain == pytest.approx(0.05)
        assert rep.eps_equilibrium_found[0.1] is True

    def test_tight_eps_not_reached_on_coarse_grid(self):
        rep = counterexample_check(
            counterexample_lsc(), strategy_step=0.5, epsilons=(0.01,)
        )
        assert rep.eps_equilibrium_found[0.01] is False
        assert rep.eps_witness[0.01] is None
