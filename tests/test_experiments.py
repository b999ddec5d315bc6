import gc
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perception_games import experiments, kernels, model
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
from perception_games.model import ActionSpace, PerceptionGame, TypeSpace, UtilityModel, validate_game
from perception_games.penalties import PenaltySpec
from perception_games import single
from perception_games.single import (
    enumerate_pure_equilibria,
    profile_report,
    search_mixed_equilibria,
    verify_equilibrium,
)
from perception_games.testing import _separable_penalty, random_separable_spec

from helpers import reference_check_separation_margin, with_player
from test_kernels import full_event_step_game, step_bounds_game


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

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(outcomes=("o0", "o0")), "outcome label 'o0'"),
            (dict(outcomes=("", "o1")), "outcome label ''"),
            (dict(privacy=("p", "p"), joint_prior=np.full((2, 2), 0.25)), "privacy label 'p'"),
            (dict(actions=("a0", "")), "action label ''"),
        ],
    )
    def test_labels_must_be_nonempty_and_unique(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            _toy_spec(**overrides).validate_structure()

    @pytest.mark.parametrize(
        "family, match",
        [
            # validate_game rejects the games of both penalties
            (
                MajorityFamily(
                    concerned_penalty=PenaltySpec.piecewise_linear(((0.2, 1.0), (1.0, 0.0)), over=("o0",))
                ),
                "'concerned': knots must cover",
            ),
            (
                MajorityFamily(
                    concerned_penalty=PenaltySpec.piecewise_linear(
                        ((0.0, 1.0), (1.0, 0.0)), over=("o0",), weight=-1
                    )
                ),
                "'concerned': weight must be nonnegative",
            ),
            # its games would have two types labelled 'o:concerned'
            (MajorityFamily(outcomes=("o", "o")), "outcome label 'o'"),
            # a type label's outcome ends at its first colon, so the types
            # of outcome 'a:x' would read as outcome 'a' and pay its penalty
            (MajorityFamily(outcomes=("a", "a:x")), "outcome label 'a:x' must not hold ':'"),
        ],
    )
    def test_rejected_before_any_game(self, monkeypatch, family, match):
        def unreachable(*args, **kwargs):
            raise AssertionError("a game was built")

        monkeypatch.setattr(experiments, "PerceptionGame", unreachable)
        spec = family.spec_for(0.3)
        for call in (
            lambda: scan_alpha(family, [0.3]),
            lambda: check_separation_margin(spec),
            lambda: separation_uniqueness_bound(spec),
        ):
            with pytest.raises(ValueError, match=match):
                call()


def _punched_spec(seed):
    """A seeded ``random_separable_spec`` with about half its cells
    punched to zero mass, their mass moved onto one kept cell."""
    rng = np.random.default_rng(4000 + seed)
    spec = random_separable_spec(rng)
    flat = spec.joint_prior.reshape(-1).copy()
    keep = int(rng.integers(flat.size))
    punched = rng.random(flat.size) < 0.5
    punched[keep] = False
    # masses are in 64ths, so moving them onto one cell is exact
    flat[keep] += flat[punched].sum()
    flat[punched] = 0.0
    return replace(spec, joint_prior=flat.reshape(spec.joint_prior.shape))


class TestToGame:
    def test_privacy_labels_may_hold_colons(self):
        """A type label's outcome ends at its first colon, so a privacy
        label may hold more: the game builds, validates and separates."""
        pen = _toy_spec().penalty_by_privacy["p"]
        spec = _toy_spec(
            privacy=("p", "p:x"),
            joint_prior=np.full((2, 2), 0.25),
            penalty_by_privacy={"p": pen, "p:x": PenaltySpec.zero()},
        )
        game = spec.to_game()
        assert game.types.labels == ("o0:p", "o0:p:x", "o1:p", "o1:p:x")
        assert validate_game(game).ok
        assert game.penalty(0).event == game.penalty(2).event == (0, 1)
        game, strategy, perceptions = build_separating_equilibrium(spec)
        assert strategy.pure_actions() == (0, 0, 1, 1)
        assert verify_equilibrium(game, strategy, perceptions).accepted
        found = {r.strategy.pure_actions(): r.label for r in enumerate_pure_equilibria(game)}
        assert found[(0, 0, 1, 1)] == "separating"

    @pytest.mark.parametrize("seed", range(40))
    def test_cells_are_the_types(self, seed):
        """``_cells`` gives the built game's labels, prior and ``v`` rows,
        type by type, on random specs with zero-mass cells punched in."""
        spec = _punched_spec(seed)
        cells = spec._cells()
        assert cells == [(o, p) for o, p in np.ndindex(spec.joint_prior.shape) if spec.joint_prior[o, p] > 0.0]
        live = {spec.outcomes[o] for o, _ in cells}
        pens = [spec.penalty_by_privacy[spec.privacy[p]] for _, p in cells]
        if any(pen.marginal_over is not None and live.isdisjoint(pen.marginal_over) for pen in pens):
            with pytest.raises(ValueError, match="only covers zero-mass outcomes"):
                spec.to_game()
            return
        game = spec.to_game()
        assert game.types.labels == tuple(f"{spec.outcomes[o]}:{spec.privacy[p]}" for o, p in cells)
        assert game.prior.p.tolist() == [spec.joint_prior[o, p] for o, p in cells]
        assert game.utility.v.tobytes() == spec.v_outcome[[o for o, _ in cells]].tobytes()

    def test_punched_cells_cover_both_branches(self):
        """The seeds of ``test_cells_are_the_types`` drop whole outcomes
        and cells of live outcomes, and reach both branches."""
        dropped_outcome = dropped_cell = raised = built = 0
        for seed in range(40):
            spec = _punched_spec(seed)
            jp = spec.joint_prior
            dropped_outcome += bool((jp.sum(axis=1) == 0.0).any())
            dropped_cell += bool(((jp == 0.0) & (jp.sum(axis=1, keepdims=True) > 0.0)).any())
            try:
                spec.to_game()
                built += 1
            except ValueError:
                raised += 1
        assert dropped_outcome and dropped_cell and raised and built

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


def _margin_spec(seed: int) -> SeparableGameSpec:
    """A seeded spec with 2-3 outcomes and 1-3 privacy classes, some
    cells without mass, the first class with a step penalty on even
    seeds and a polyline on odd ones, the others any separable penalty;
    its margin need not hold."""
    rng = np.random.default_rng(2000 + seed)
    n_o, n_p = int(rng.integers(2, 4)), int(rng.integers(1, 4))
    outcomes = tuple(f"o{i}" for i in range(n_o))
    privacy = tuple(f"p{i}" for i in range(n_p))
    joint = rng.integers(0, 4, size=(n_o, n_p)) * (rng.random((n_o, n_p)) < 0.7)
    joint[rng.integers(n_o), rng.integers(n_p)] += 1
    pens = {p: _separable_penalty(rng, outcomes) for p in privacy}
    event = outcomes[: int(rng.integers(1, n_o))]
    pens[privacy[0]] = (
        PenaltySpec.step([(0.25, 0.75, 1.5, True, False)], over=event, weight=0.75)
        if seed % 2 == 0
        else PenaltySpec.piecewise_linear([(0.0, 1.0), (0.4, 0.25), (1.0, 2.0)], over=event)
    )
    v = rng.uniform(0.0, 2.0, size=(n_o, n_o))
    # each outcome's own action is its best, by a margin a penalty may undo
    v[range(n_o), range(n_o)] = v.max(axis=1) + rng.uniform(0.1, 1.5, size=n_o)
    return SeparableGameSpec(
        outcomes=outcomes,
        privacy=privacy,
        actions=tuple(f"a{i}" for i in range(n_o)),
        joint_prior=joint / joint.sum(),
        v_outcome=v,
        penalty_by_privacy=pens,
    )


class TestMarginMatchesReference:
    """Each (privacy class, outcome) Dirac penalty is evaluated once and
    looked up: the report is the per-row loop's
    (``helpers.reference_check_separation_margin``), float for float."""

    @pytest.mark.parametrize("alpha", [round(0.05 * i, 10) for i in range(21)])
    def test_majority_alphas(self, alpha):
        spec = default_majority_family().spec_for(alpha)
        assert check_separation_margin(spec) == reference_check_separation_margin(spec)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_specs(self, seed):
        spec = _margin_spec(seed)
        for tol in (0.0, 0.5):
            assert check_separation_margin(spec, tol) == reference_check_separation_margin(spec, tol)

    def test_nan_tol_rejected_before_any_work(self, monkeypatch):
        # a NaN tol failed the margin comparison and reported holds=False
        spec = default_majority_family().spec_for(0.8)
        assert check_separation_margin(spec, 0.0).holds

        def fail(*args, **kwargs):
            raise AssertionError("checked the spec")

        monkeypatch.setattr(SeparableGameSpec, "validate_structure", fail)
        with pytest.raises(ValueError, match=r"^tol must be a number, got nan$"):
            check_separation_margin(spec, float("nan"))

    def test_seeds_cover_dead_cells_and_both_kinds(self):
        specs = [_margin_spec(seed) for seed in range(40)]
        assert any((s.joint_prior == 0.0).any() for s in specs)
        assert any(not check_separation_margin(s).holds for s in specs)
        kinds = {s.penalty_by_privacy[s.privacy[0]].kind for s in specs}
        assert kinds == {"step_marginal", "piecewise_linear_marginal"}

    def test_each_pair_once_and_no_dead_class(self, monkeypatch):
        pens = {
            "p0": PenaltySpec.piecewise_linear([(0, 0.5), (1, 2)], over=("o0",)),
            "p1": PenaltySpec.piecewise_linear([(0, 9), (1, 0)], over=("o2",)),
            "p2": PenaltySpec.step([(0.0, 0.5, 1.0, True, True)], over=("o1", "o2")),
        }
        spec = SeparableGameSpec(
            outcomes=("o0", "o1", "o2"),
            privacy=("p0", "p1", "p2"),
            actions=("a0", "a1", "a2"),
            # class p1 has no live cell; outcome o2 lives only in class p2
            joint_prior=np.array([[0.25, 0.0, 0.25], [0.125, 0.0, 0.125], [0.0, 0.0, 0.25]]),
            v_outcome=3.0 * np.eye(3),
            penalty_by_privacy=pens,
        )
        calls = []
        real = experiments._dirac_marginal_penalty

        def counted(pen, outcome):
            calls.append((pen, outcome))
            return real(pen, outcome)

        monkeypatch.setattr(experiments, "_dirac_marginal_penalty", counted)
        rep = check_separation_margin(spec)
        assert sorted(calls, key=repr) == sorted(
            ((pens[p], o) for p in ("p0", "p2") for o in ("o0", "o1", "o2")), key=repr
        )
        monkeypatch.undo()
        assert rep == reference_check_separation_margin(spec)
        assert {row[2] for row in rep.rows} == {"p0", "p2"}

    def test_one_live_outcome_evaluates_nothing(self, monkeypatch):
        spec = _toy_spec(joint_prior=np.array([[1.0], [0.0]]))

        def unreachable(pen, outcome):
            raise AssertionError("evaluated a penalty no row reads")

        monkeypatch.setattr(experiments, "_dirac_marginal_penalty", unreachable)
        rep = check_separation_margin(spec)
        assert rep.rows == () and not rep.holds


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


class TestLabelRelation:
    """Renaming a spec's outcome, privacy and action labels by bijections
    keeps every answer but its labels: the cells, the types and actions
    and their order stay, and a label is only ever matched, never parsed,
    but for a type label's outcome, which ends at its first colon. So the
    outcome labels stay colon-free, and the privacy and action labels may
    hold ':'."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_renaming_keeps_the_answers(self, seed, data):
        spec = random_separable_spec(np.random.default_rng(seed))

        def names(old, pool):
            new = st.lists(st.sampled_from(pool), min_size=len(old), max_size=len(old), unique=True)
            return dict(zip(old, data.draw(new)))

        outcomes = names(spec.outcomes, ("o1", "o0", "x", "p", "o2", "oo"))
        privacy = names(spec.privacy, ("p1", "p0", ":", "p:", ":x", "o0:p", "x"))
        actions = names(spec.actions, ("a1", "a0", "a:", ":", "b", "x:y"))
        renamed = replace(
            spec,
            outcomes=tuple(outcomes.values()),
            privacy=tuple(privacy.values()),
            actions=tuple(actions.values()),
            penalty_by_privacy={
                privacy[p]: pen if pen.marginal_over is None
                else replace(pen, marginal_over=tuple(outcomes[o] for o in pen.marginal_over))
                for p, pen in spec.penalty_by_privacy.items()
            },
        )
        margin, again = check_separation_margin(spec), check_separation_margin(renamed)
        assert (again.holds, again.margin) == (margin.holds, margin.margin)
        assert again.rows == tuple((outcomes[o], outcomes[o2], privacy[p], x) for o, o2, p, x in margin.rows)
        before, after = (
            [(r.strategy.pure_actions(), r.label, r.payoffs.tobytes()) for r in enumerate_pure_equilibria(s.to_game())]
            for s in (spec, renamed)
        )
        assert after == before
        sigma = build_separating_equilibrium(spec)[1].sigma
        assert build_separating_equilibrium(renamed)[1].sigma.tobytes() == sigma.tobytes()


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

    @pytest.mark.parametrize(
        "alphas, message",
        [
            ([], "alphas must not be empty"),
            ([0.9, 0.1], "alphas must be ascending, got 0.1 after 0.9"),
            ([0.0, 0.5, 0.25, 1.0], "alphas must be ascending, got 0.25 after 0.5"),
            ([0.25, float("nan")], "alphas must be ascending, got nan after 0.25"),
        ],
    )
    def test_empty_or_descending_alphas_raise(self, monkeypatch, alphas, message):
        def spec_for(self, alpha):
            raise AssertionError(f"built the game at {alpha}")

        monkeypatch.setattr(MajorityFamily, "spec_for", spec_for)
        with pytest.raises(ValueError, match=f"^{message}$"):
            scan_alpha(default_majority_family(), alphas)

    @pytest.mark.parametrize("step", [0.3, 0.0, float("nan"), -0.5])
    def test_bad_mixed_step_rejected_before_any_work(self, monkeypatch, step):
        # alpha 0.1's pure enumeration ran before the search saw the step
        def fail(*args, **kwargs):
            raise AssertionError("built or solved a game")

        monkeypatch.setattr(MajorityFamily, "spec_for", fail)
        monkeypatch.setattr(experiments, "enumerate_pure_equilibria", fail)
        with pytest.raises(ValueError, match="^step must be the reciprocal of a positive integer, got"):
            scan_alpha(default_majority_family(), [0.1, 0.2], mixed_step=step)

    def test_tied_alphas_are_ascending(self):
        rep = scan_alpha(default_majority_family(), [0.75, 0.75])
        assert [r.alpha for r in rep.rows] == [0.75, 0.75]
        assert rep.alpha_hat == 0.75

    def test_nan_tol_rejected_before_any_game(self, monkeypatch):
        # a NaN tol kept nothing: every row read 0 equilibria and 0
        # survivors, and alpha_hat None
        def fail(*args, **kwargs):
            raise AssertionError("built or solved a game")

        monkeypatch.setattr(MajorityFamily, "spec_for", fail)
        for name in ("enumerate_pure_equilibria", "_mixed_searches"):
            monkeypatch.setattr(experiments, name, fail)
        with pytest.raises(ValueError, match=r"^tol must be a number, got nan$"):
            scan_alpha(default_majority_family(), (0.2, 0.6), tol=float("nan"), mixed_step=0.25)

    def test_negative_tol_is_valid(self):
        rep = scan_alpha(default_majority_family(), (0.2, 0.6), tol=-1.0, mixed_step=0.25)
        assert [(r.n_equilibria, r.mixed_survivors) for r in rep.rows] == [(0, 0), (0, 0)]


MAJORITY_ALPHAS = [round(0.05 * i, 10) for i in range(21)]


def _skewed_family() -> MajorityFamily:
    return MajorityFamily(
        outcome_prior=(0.625, 0.375),
        v_outcome=np.array([[1.0, 0.25], [0.0, 1.5]]),
        concerned_penalty=PenaltySpec.piecewise_linear(
            [(0.0, 1.0), (0.375, 0.0), (1.0, 2.0)], over=("o1",)
        ),
        name="skewed",
    )


class TestCountOnlyScan:
    """``scan_alpha`` counts the mixed survivors without building their
    reports: the only exact reports of a scan are its pure equilibria's,
    and every row is the one the full mixed search gives."""

    @pytest.mark.parametrize(
        "family, step",
        [
            (default_majority_family(), 0.05),
            (default_majority_family(), 0.1),
            (_skewed_family(), 0.1),
        ],
    )
    def test_reports_only_the_pure_equilibria(self, monkeypatch, family, step):
        rows = []
        real = single._profile_reports

        def counted(games, stacks):
            rows.append(sum(len(sigmas) for sigmas in stacks))
            return real(games, stacks)

        monkeypatch.setattr(single, "_profile_reports", counted)
        rep = scan_alpha(family, MAJORITY_ALPHAS, mixed_step=step)
        monkeypatch.undo()
        assert sum(rows) == sum(r.n_equilibria for r in rep.rows)
        pure = scan_alpha(family, MAJORITY_ALPHAS)
        for alpha, row, bare in zip(MAJORITY_ALPHAS, rep.rows, pure.rows):
            full = search_mixed_equilibria(family.game_for(alpha), step)
            # every screened profile is confirmed by the exact report
            assert len(full.survivors) == full.survivor_count
            assert row == replace(bare, mixed_survivors=full.survivor_count)
        assert any(r.mixed_survivors for r in rep.rows)


def _count_packs(monkeypatch) -> list:
    """The games whose pack is built, one entry per build."""
    packed = []
    real = kernels._pack

    def spy(game):
        packed.append(game)
        return real(game)

    monkeypatch.setattr(kernels, "_pack", spy)
    return packed


class TestBatchedScan:
    """The scan's mixed searches share their cell screens: the 19 inner
    alphas, derived from one template by their prior alone, are bounded
    together, and each endpoint on its own."""

    def test_cell_bound_calls(self, monkeypatch):
        cells = []
        real = kernels.cell_lower_bound

        def spy(pack, box):
            cells.append(box.shape[3])
            return real(pack, box)

        monkeypatch.setattr(kernels, "cell_lower_bound", spy)
        rep = scan_alpha(default_majority_family(), MAJORITY_ALPHAS, mixed_step=0.05)
        assert [r.mixed_survivors for r in rep.rows] == [5] + [3] * 10 + [1] * 10
        # one call per game and level bounded 2,872 cells in 59 calls
        assert len(cells) <= 9 and sum(cells) == 2_872

    def test_kernel_calls(self, monkeypatch):
        """The kernel sweeps the games of each screen group together: the
        42 per-game sweeps of a scan, a pure one and a mixed one per alpha,
        run as one call per group for the pure profiles and one for the
        kept cells."""
        calls = []
        real = kernels._gains_numpy

        def spy(chunk, *args):
            calls.append(chunk.size)
            return real(chunk, *args)

        monkeypatch.setattr(kernels, "_gains_numpy", spy)
        rep = scan_alpha(default_majority_family(), MAJORITY_ALPHAS, mixed_step=0.05)
        assert [r.mixed_survivors for r in rep.rows] == [5] + [3] * 10 + [1] * 10
        assert len(calls) <= 6

    def test_groups_by_template(self, monkeypatch):
        """The kernel groups the games by template, as ``scan_alpha``
        derives them: one screen pass for the 19 inner alphas and one for
        each endpoint, then as many sweep streams for the kept cells and
        as many for the pure profiles."""
        sizes = {"_screen": [], "_reduce": []}
        for name, seen in sizes.items():
            real = getattr(kernels, name)

            def spy(packs, *args, _real=real, _seen=seen):
                _seen.append(len(packs))
                return _real(packs, *args)

            monkeypatch.setattr(kernels, name, spy)
        rep = scan_alpha(default_majority_family(), MAJORITY_ALPHAS, mixed_step=0.05)
        assert [r.mixed_survivors for r in rep.rows] == [5] + [3] * 10 + [1] * 10
        assert sizes == {"_screen": [1, 19, 1], "_reduce": [1, 19, 1, 1, 19, 1]}

    def test_packs_each_game_once(self, monkeypatch):
        """The pure enumerations and the mixed searches read the same
        packs, and the 21 games are packed from 3 templates, one per
        support pattern (the inner alphas and each endpoint): 3 packs
        built per scan."""
        packed = _count_packs(monkeypatch)
        scan_alpha(default_majority_family(), MAJORITY_ALPHAS, mixed_step=0.05)
        assert len(packed) == len({id(g) for g in packed}) == 3

    @staticmethod
    def _count_calls(monkeypatch, names) -> dict:
        """Count the calls of ``model``'s functions ``names`` and of
        ``PerceptionGame.u_range`` (``"u_range"``)."""
        calls = dict.fromkeys(names, 0)
        for name in calls:
            owner = PerceptionGame if name == "u_range" else model
            real = getattr(owner, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_binds_each_type_structure_once(self, monkeypatch):
        """The derived games share their template's pack, which holds its
        bound penalties and ranges: 8 of each per scan (4 + 2 + 2 types),
        where 21 games built afresh bind 80."""
        calls = self._count_calls(monkeypatch, ("bind", "penalty_range"))
        scan_alpha(default_majority_family(), MAJORITY_ALPHAS, mixed_step=0.05)
        assert calls == {"bind": 8, "penalty_range": 8}

    def test_reads_each_range_once(self, monkeypatch):
        """A warm pass reads each template's ranges once, when it is
        packed: 16 ``u_range`` calls (4 + 2 + 2 types, 2 actions). The
        oracle takes its witnesses from the packs and reads none."""
        family = default_majority_family()
        scan_alpha(family, MAJORITY_ALPHAS, mixed_step=0.05)
        calls = self._count_calls(monkeypatch, ("u_range", "bind", "penalty_range"))
        scan_alpha(family, MAJORITY_ALPHAS, mixed_step=0.05)
        assert calls == {"u_range": 16, "bind": 8, "penalty_range": 8}

    def test_checks_every_spec(self, monkeypatch):
        """Every spec passes ``validate_structure`` once before any game is
        built, and the first once more for the uniqueness bound: 22
        checks, where building and margin-checking each spec made 43."""
        checked = []
        real = SeparableGameSpec.validate_structure

        def counted(spec):
            checked.append(spec.name)
            return real(spec)

        monkeypatch.setattr(SeparableGameSpec, "validate_structure", counted)
        family = default_majority_family()
        scan_alpha(family, MAJORITY_ALPHAS, mixed_step=0.05)
        names = [family.spec_for(alpha).name for alpha in MAJORITY_ALPHAS]
        assert sorted(checked) == sorted(names + names[:1])

    def test_templates_die_with_their_games(self):
        """The ``_base`` link keeps a template alive only while a game
        derived from it lives: after the scan every kept pack is gone."""
        gc.collect()
        before = len(kernels._packs)
        scan_alpha(default_majority_family(), MAJORITY_ALPHAS, mixed_step=0.05)
        gc.collect()
        assert len(kernels._packs) == before

    def test_traced_peak(self):
        """The batched screen's arrays stay within the per-call cap of
        cells: the scan's traced peak measured 1.44 MiB."""
        tracemalloc.start()
        try:
            scan_alpha(default_majority_family(), MAJORITY_ALPHAS, mixed_step=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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

    @pytest.mark.parametrize("tol", [float("nan"), -0.1])
    def test_welfare_rejects_a_bad_tol(self, monkeypatch, tol):
        def fail(*args, **kwargs):
            raise AssertionError("enumerated")

        monkeypatch.setattr(experiments, "enumerate_pure_equilibria", fail)
        with pytest.raises(ValueError, match="^tol must be a nonnegative number"):
            welfare_report(blog(), tol=tol)

    def test_no_strict_baseline_disables_comparison(self):
        g = two_player_game()
        g = with_player(g, 1, v=np.zeros_like(g.players[1].v))
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

    @pytest.mark.parametrize(
        "build", [counterexample_lsc, counterexample_usc, step_bounds_game, full_event_step_game]
    )
    @pytest.mark.parametrize("tol", [1e-9, 0.25, 1.0])
    def test_pure_fields_are_the_brute_force_minimum(self, build, tol):
        """The pure fields against every pure profile's exact report, bit
        for bit: the least ``max_gain``, the lowest code with it (profiles
        in lexicographic order, type 0 first) and whether some gain is at
        most ``tol``."""
        game = build()
        rep = counterexample_check(game, strategy_step=0.5, tol=tol)
        rows = [np.eye(game.m)[list(actions)] for actions in product(range(game.m), repeat=game.n)]
        gains = [profile_report(game, sigma).max_gain for sigma in rows]
        least = min(gains)
        assert rep.pure_min_gain.hex() == least.hex()
        assert rep.pure_argmin.sigma.tobytes() == rows[gains.index(least)].tobytes()
        assert rep.pure_equilibrium_exists is any(g <= tol for g in gains)

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

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf"), -float("inf")])
    def test_rejects_meaningless_eps_before_building(self, bad, monkeypatch):
        # a NaN eps used to read as "no eps-equilibrium on the grid"
        def unreachable(*args, **kwargs):
            raise AssertionError("built before the epsilons were checked")

        monkeypatch.setattr(single, "pack_game", unreachable)
        for name in ("_pure_enumerations", "_mixed_searches"):
            monkeypatch.setattr(experiments, name, unreachable)
        with pytest.raises(ValueError, match="epsilons must be finite and nonnegative"):
            counterexample_check(counterexample_usc(), strategy_step=0.25, epsilons=(bad, 0.1))

    @pytest.mark.parametrize(
        "epsilons, message",
        [
            (np.array([np.nan, 0.1]), r"^epsilons must be finite and nonnegative, got \[nan\]$"),
            (["x"], r"^epsilons must be real numbers, got \['x'\]$"),
            ([True, 0.1], r"^epsilons must be real numbers, got \[True\]$"),
            ([np.True_], r"^epsilons must be real numbers, got \[np\.True_\]$"),
        ],
    )
    def test_epsilons_read_as_real_numbers_before_any_work(self, epsilons, message, monkeypatch):
        """Each epsilon is read as a real number first: an array's NaN is
        named as a float (it was ``np.float64(nan)``), a string is a
        ``ValueError`` (it was a ``TypeError`` from the comparison), and
        a bool is no epsilon (``True`` ran as 1.0), as it is no seed."""

        def fail(*args, **kwargs):
            raise AssertionError("swept")

        monkeypatch.setattr(single, "pack_game", fail)
        for name in ("_pure_enumerations", "_mixed_searches"):
            monkeypatch.setattr(experiments, name, fail)
        with pytest.raises(ValueError, match=message):
            counterexample_check(counterexample_lsc(), strategy_step=0.25, epsilons=epsilons)

    def test_integer_epsilons_are_read_as_floats(self):
        rep = counterexample_check(counterexample_lsc(), strategy_step=0.25, epsilons=[np.int64(1), 0])
        assert list(rep.eps_equilibrium_found) == [1.0, 0.0]
        assert all(type(eps) is float for eps in rep.eps_witness)

    def test_bad_step_rejected_before_any_work(self, monkeypatch):
        # the whole pure sweep ran before the search saw the step
        def fail(*args, **kwargs):
            raise AssertionError("swept")

        monkeypatch.setattr(single, "pack_game", fail)
        for name in ("_pure_enumerations", "_mixed_searches"):
            monkeypatch.setattr(experiments, name, fail)
        with pytest.raises(ValueError, match=r"^step must be the reciprocal of a positive integer, got 0\.3$"):
            counterexample_check(counterexample_lsc(), strategy_step=0.3)

    def test_nan_tol_rejected_before_any_work(self, monkeypatch):
        # the pure sweep ran on a NaN tol before the search was reached
        def fail(*args, **kwargs):
            raise AssertionError("swept")

        monkeypatch.setattr(single, "pack_game", fail)
        for name in ("_pure_enumerations", "_mixed_searches"):
            monkeypatch.setattr(experiments, name, fail)
        with pytest.raises(ValueError, match=r"^tol must be a number, got nan$"):
            counterexample_check(counterexample_lsc(), strategy_step=0.25, tol=float("nan"))

    def test_packs_the_game_once(self, monkeypatch):
        """The pure sweep and the mixed search read one pack."""
        packed = _count_packs(monkeypatch)
        rep = counterexample_check(counterexample_lsc(), strategy_step=0.25)
        assert len(packed) == 1 and rep.sweep.total == 25

    def test_epsilons_read_once(self):
        """A generator of epsilons, which its first read uses up, gives the
        report that a tuple and an array give (it gave empty ones)."""

        def report(epsilons):
            rep = counterexample_check(counterexample_lsc(), strategy_step=0.25, epsilons=epsilons)
            witness = {eps: None if w is None else w.sigma.tobytes() for eps, w in rep.eps_witness.items()}
            return rep.eps_equilibrium_found, witness

        want = report((0.3, 0.01))
        assert want[0] == {0.3: True, 0.01: False} and want[1][0.3] is not None
        assert report(eps for eps in (0.3, 0.01)) == want
        assert report(np.array([0.3, 0.01])) == want

    def test_tight_eps_not_reached_on_coarse_grid(self):
        rep = counterexample_check(
            counterexample_lsc(), strategy_step=0.5, epsilons=(0.01,)
        )
        assert rep.eps_equilibrium_found[0.01] is False
        assert rep.eps_witness[0.01] is None
