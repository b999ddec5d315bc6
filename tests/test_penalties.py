import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perception_games.penalties import (
    PenaltySpec,
    bind,
    penalty_range,
    penalty_value,
    piecewise_linear_value,
    step_value,
    validate_spec,
)

from helpers import pen_bounds, pen_value, spec_to_dict


class TestValidateSpec:
    def test_clean_specs(self):
        for spec in (
            PenaltySpec.zero(),
            PenaltySpec.tv_to_prior(2.0),
            PenaltySpec.exposure(0.5),
            PenaltySpec.piecewise_linear([(0, 1), (0.5, 0), (1, 1)], over=("a",)),
            PenaltySpec.step([(0.2, 0.4, 1.0, True, False)], over=("a",)),
        ):
            assert validate_spec(spec) == []

    def test_unknown_kind(self):
        assert validate_spec(PenaltySpec(kind="quadratic"))

    def test_negative_and_nonfinite_weight(self):
        assert validate_spec(PenaltySpec(kind="exposure", weight=-1.0))
        assert validate_spec(PenaltySpec(kind="exposure", weight=float("nan")))

    def test_marginal_needs_event(self):
        spec = PenaltySpec(kind="piecewise_linear_marginal", knots=((0.0, 0.0), (1.0, 1.0)))
        assert any("marginal_over" in msg for msg in validate_spec(spec))

    def test_duplicate_event_labels(self):
        spec = PenaltySpec.piecewise_linear([(0, 0), (1, 1)], over=("a", "a"))
        assert any("duplicate" in msg for msg in validate_spec(spec))

    def test_knots_must_cover_unit_interval(self):
        spec = PenaltySpec.piecewise_linear([(0.1, 0), (1, 1)], over=("a",))
        assert any("cover" in msg for msg in validate_spec(spec))

    def test_knots_must_increase(self):
        spec = PenaltySpec.piecewise_linear([(0, 0), (0.5, 1), (0.5, 2), (1, 0)], over=("a",))
        assert any("increasing" in msg for msg in validate_spec(spec))

    def test_empty_singleton_piece(self):
        spec = PenaltySpec.step([(0.5, 0.5, 1.0, True, False)], over=("a",))
        assert any("empty" in msg for msg in validate_spec(spec))

    def test_piece_bounds_ordered(self):
        spec = PenaltySpec.step([(0.7, 0.3, 1.0, True, True)], over=("a",))
        assert any("bounds" in msg for msg in validate_spec(spec))


class TestPiecewiseLinearValue:
    KX = np.array([0.0, 0.5, 1.0])
    KY = np.array([1.1, 0.0, 1.1])

    def test_at_knots(self):
        assert piecewise_linear_value(self.KX, self.KY, 0.0) == 1.1
        assert piecewise_linear_value(self.KX, self.KY, 0.5) == 0.0
        assert piecewise_linear_value(self.KX, self.KY, 1.0) == 1.1

    def test_between_knots(self):
        assert piecewise_linear_value(self.KX, self.KY, 0.25) == pytest.approx(0.55)
        assert piecewise_linear_value(self.KX, self.KY, 0.75) == pytest.approx(0.55)

    @given(st.floats(0.0, 1.0))
    def test_matches_interp(self, x):
        ours = piecewise_linear_value(self.KX, self.KY, x)
        ref = float(np.interp(x, self.KX, self.KY))
        assert ours == pytest.approx(ref, abs=1e-12)


class TestStepValue:
    def test_first_match_wins(self):
        pieces = ((0.0, 0.6, 1.0, True, True), (0.4, 1.0, 2.0, True, True))
        assert step_value(pieces, 0.5) == 1.0
        assert step_value(pieces, 0.7) == 2.0

    def test_unmatched_is_zero(self):
        pieces = ((0.4, 0.6, 5.0, True, True),)
        assert step_value(pieces, 0.1) == 0.0
        assert step_value(pieces, 0.9) == 0.0

    def test_open_closed_bounds(self):
        open_piece = ((0.2, 0.8, 1.0, False, False),)
        assert step_value(open_piece, 0.2) == 0.0
        assert step_value(open_piece, 0.8) == 0.0
        assert step_value(open_piece, 0.5) == 1.0
        closed = ((0.2, 0.8, 1.0, True, True),)
        assert step_value(closed, 0.2) == 1.0
        assert step_value(closed, 0.8) == 1.0

    def test_closed_singleton(self):
        pieces = ((0.5, 0.5, 3.0, True, True),)
        assert step_value(pieces, 0.5) == 3.0
        assert step_value(pieces, 0.5 + 1e-12) == 0.0


class TestPenaltyValue:
    PRIOR = np.array([0.5, 0.3, 0.2])
    LABELS = ("t0", "t1", "t2")

    def _bind(self, spec, t=0):
        return bind(spec, self.LABELS, self.PRIOR, t)

    def test_zero(self):
        assert penalty_value(self._bind(PenaltySpec.zero()), np.array([1.0, 0, 0])) == 0.0

    def test_tv(self):
        pen = self._bind(PenaltySpec.tv_to_prior(2.0))
        assert penalty_value(pen, self.PRIOR) == 0.0
        v = penalty_value(pen, np.array([1.0, 0, 0]))
        assert v == pytest.approx(2.0 * 0.5)  # tv to dirac = 1 - 0.5

    def test_exposure(self):
        pen = self._bind(PenaltySpec.exposure(3.0), t=1)
        assert penalty_value(pen, self.PRIOR) == pytest.approx(0.9)

    def test_marginal_kinds_use_event_mass(self):
        spec = PenaltySpec.piecewise_linear([(0, 0), (1, 2)], over=("t2", "t0"), weight=1.5)
        pen = self._bind(spec)
        assert pen.event == (0, 2)  # ascending, whatever the label order
        assert penalty_value(pen, self.PRIOR) == pytest.approx(1.5 * 2.0 * 0.7)

    def test_unknown_event_label(self):
        spec = PenaltySpec.step([(0, 1, 1.0, True, True)], over=("t0", "nope"))
        with pytest.raises(KeyError):
            self._bind(spec)


def _bound(spec, prior, t, mask):
    """``spec`` bound among labels a, b, c; ``mask`` marks the event the
    binding must resolve from the labels (None for the other kinds)."""
    pen = bind(spec, ("a", "b", "c")[: prior.size], prior, t)
    assert pen.event == (None if mask is None else tuple(np.flatnonzero(mask).tolist()))
    return pen


def _range_case_specs():
    prior = np.array([0.5, 0.3, 0.2])
    mask = np.array([False, True, True])
    return [
        (PenaltySpec.zero(), prior, 0, None),
        (PenaltySpec.tv_to_prior(2.0), prior, 0, None),
        (PenaltySpec.exposure(1.5), prior, 1, None),
        (PenaltySpec.piecewise_linear([(0, 1), (0.3, 0.2), (1, 3)], over=("b", "c"), weight=0.5), prior, 0, mask),
        (PenaltySpec.step([(0.2, 0.7, 2.0, True, False)], over=("b", "c"), weight=1.2), prior, 0, mask),
    ]


class TestPenaltyRange:
    @pytest.mark.parametrize("spec,prior,t,mask", _range_case_specs())
    def test_witnesses_attain_bounds(self, spec, prior, t, mask):
        pen = _bound(spec, prior, t, mask)
        r = penalty_range(pen)
        at_min = penalty_value(pen, r.argmin.p)
        at_max = penalty_value(pen, r.argmax.p)
        assert at_min == pytest.approx(r.min, abs=1e-12)
        assert at_max == pytest.approx(r.max, abs=1e-12)
        assert r.min <= r.max

    @pytest.mark.parametrize("spec,prior,t,mask", _range_case_specs())
    def test_bounds_contain_dense_sample(self, spec, prior, t, mask):
        rng = np.random.default_rng(0)
        pen = _bound(spec, prior, t, mask)
        r = penalty_range(pen)
        for _ in range(300):
            mu = rng.dirichlet(np.ones(prior.size))
            v = penalty_value(pen, mu)
            assert r.min - 1e-9 <= v <= r.max + 1e-9

    def test_tv_max_at_lowest_index_argmin_vertex(self):
        # tied smallest prior entries: witness must use the first
        prior = np.array([0.4, 0.3, 0.3])
        r = penalty_range(bind(PenaltySpec.tv_to_prior(1.0), ("a", "b", "c"), prior, 0))
        np.testing.assert_array_equal(r.argmax.p, [0.0, 1.0, 0.0])
        assert r.max == pytest.approx(0.7)

    def test_exposure_single_type_space(self):
        r = penalty_range(bind(PenaltySpec.exposure(2.0), ("a",), [1.0], 0))
        assert r.min == r.max == 2.0

    def test_degenerate_full_event(self):
        spec = PenaltySpec.piecewise_linear([(0, 5), (1, 1)], over=("a", "b"))
        r = penalty_range(bind(spec, ("a", "b"), [0.5, 0.5], 0))
        assert r.min == r.max == 1.0  # event mass is pinned at 1

    def test_degenerate_empty_event(self):
        spec = PenaltySpec(kind="piecewise_linear_marginal", knots=((0, 5), (1, 1)), marginal_over=())
        r = penalty_range(bind(spec, ("a", "b"), [0.5, 0.5], 0))
        assert r.min == r.max == 5.0  # event mass is pinned at 0
        np.testing.assert_array_equal(r.argmin.p, [1.0, 0.0])

    def test_marginal_witnesses_put_mass_on_first_labels(self):
        spec = PenaltySpec.piecewise_linear([(0, 1), (0.3, 0.2), (1, 3)], over=("c", "b"))
        r = penalty_range(bind(spec, ("a", "b", "c"), [1 / 3] * 3, 0))
        np.testing.assert_allclose(r.argmin.p, [0.7, 0.3, 0.0])
        np.testing.assert_array_equal(r.argmax.p, [0.0, 1.0, 0.0])

    def test_step_open_interval_interior_found(self):
        # value 2 only on an open interval; closed-candidate scan must
        # still see it via the gap midpoint
        spec = PenaltySpec.step([(0.4, 0.6, 2.0, False, False)], over=("a",))
        r = penalty_range(bind(spec, ("a", "b"), [0.5, 0.5], 0))
        assert r.max == 2.0
        assert r.min == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_penalty_value_matches_independent_reimplementation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    labels = tuple(f"t{i}" for i in range(n))
    prior = rng.dirichlet(np.ones(n))
    kind = rng.integers(0, 4)
    if kind == 0:
        spec = PenaltySpec.tv_to_prior(float(rng.uniform(0, 3)))
    elif kind == 1:
        spec = PenaltySpec.exposure(float(rng.uniform(0, 3)))
    elif kind == 2:
        xs = np.sort(rng.uniform(0.1, 0.9, size=2))
        spec = PenaltySpec.piecewise_linear(
            [(0.0, float(rng.uniform(0, 2))), (float(xs[0]), float(rng.uniform(0, 2))),
             (float(xs[1]), float(rng.uniform(0, 2))), (1.0, float(rng.uniform(0, 2)))],
            over=labels[: max(1, n - 1)],
            weight=float(rng.uniform(0, 2)),
        )
    else:
        cuts = np.sort(rng.uniform(0, 1, size=2))
        spec = PenaltySpec.step(
            [(float(cuts[0]), float(cuts[1]), float(rng.uniform(0, 2)), True, False)],
            over=labels[: max(1, n - 1)],
            weight=float(rng.uniform(0, 2)),
        )
    ref_pen = spec_to_dict(spec, labels)
    t = int(rng.integers(0, n))
    pen = bind(spec, labels, prior, t)
    for _ in range(20):
        mu = rng.dirichlet(np.ones(n))
        ours = penalty_value(pen, mu)
        ref = pen_value(ref_pen, mu, prior, t)
        assert ours == pytest.approx(ref, abs=1e-9)
    r = penalty_range(pen)
    lo, hi = pen_bounds(ref_pen, prior, n)
    assert r.min == pytest.approx(lo, abs=1e-9)
    assert r.max == pytest.approx(hi, abs=1e-9)
