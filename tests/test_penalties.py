from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perception_games.penalties import (
    PenaltySpec,
    _belief_with_marginal,
    bind,
    penalty_batch,
    penalty_range,
    penalty_value,
    stacked_bounds,
    validate_spec,
)

from perception_games.simplex import SimplexGrid, posterior, share_pair

from helpers import (
    catalog_penalties,
    dyadic_rows,
    pen_bounds,
    pen_value,
    reference_penalty_batch,
    reference_penalty_bounds,
    reference_penalty_value,
    reference_piecewise_linear_value,
    reference_step_value,
    spec_to_dict,
)


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


def _at_mass(spec, x):
    """The marginal penalty ``spec`` (weight 1, event ``("t0",)``) bound to
    two types and valued by ``penalty_value`` at ``[x, 1 - x]``, whose
    event mass is ``x``: its polyline or step at ``x``."""
    return penalty_value(bind(spec, ("t0", "t1"), [0.5, 0.5], 0), [x, 1.0 - x])


def _polyline_at(knots_x, knots_y, x):
    return _at_mass(PenaltySpec.piecewise_linear(zip(knots_x, knots_y), over=("t0",)), x)


def _step_at(pieces, x):
    return _at_mass(PenaltySpec.step(pieces, over=("t0",)), x)


class TestPiecewiseLinearValue:
    KX = np.array([0.0, 0.5, 1.0])
    KY = np.array([1.1, 0.0, 1.1])

    def test_at_knots(self):
        assert _polyline_at(self.KX, self.KY, 0.0) == 1.1
        assert _polyline_at(self.KX, self.KY, 0.5) == 0.0
        assert _polyline_at(self.KX, self.KY, 1.0) == 1.1

    def test_between_knots(self):
        assert _polyline_at(self.KX, self.KY, 0.25) == pytest.approx(0.55)
        assert _polyline_at(self.KX, self.KY, 0.75) == pytest.approx(0.55)

    @given(st.floats(0.0, 1.0))
    def test_matches_interp(self, x):
        ours = _polyline_at(self.KX, self.KY, x)
        ref = float(np.interp(x, self.KX, self.KY))
        assert ours == pytest.approx(ref, abs=1e-12)


class TestStepValue:
    def test_first_match_wins(self):
        pieces = ((0.0, 0.6, 1.0, True, True), (0.4, 1.0, 2.0, True, True))
        assert _step_at(pieces, 0.5) == 1.0
        assert _step_at(pieces, 0.7) == 2.0

    def test_unmatched_is_zero(self):
        pieces = ((0.4, 0.6, 5.0, True, True),)
        assert _step_at(pieces, 0.1) == 0.0
        assert _step_at(pieces, 0.9) == 0.0

    def test_open_closed_bounds(self):
        open_piece = ((0.2, 0.8, 1.0, False, False),)
        assert _step_at(open_piece, 0.2) == 0.0
        assert _step_at(open_piece, 0.8) == 0.0
        assert _step_at(open_piece, 0.5) == 1.0
        closed = ((0.2, 0.8, 1.0, True, True),)
        assert _step_at(closed, 0.2) == 1.0
        assert _step_at(closed, 0.8) == 1.0

    def test_closed_singleton(self):
        pieces = ((0.5, 0.5, 3.0, True, True),)
        assert _step_at(pieces, 0.5) == 3.0
        assert _step_at(pieces, 0.5 + 1e-12) == 0.0


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


@st.composite
def _belief_columns(draw, n):
    """Beliefs over ``n`` types as the columns of an ``(n, k)`` array, in
    multiples of 1/4 or of 1/64, so that event masses often land on the
    quarter values the catalog strategies put knots and bounds on."""
    denom = draw(st.sampled_from((4, 64)))
    cols = []
    for _ in range(draw(st.integers(1, 12))):
        cuts = sorted(draw(st.lists(st.integers(0, denom), min_size=n - 1, max_size=n - 1)))
        cols.append(np.diff([0, *cuts, denom]) / denom)
    return np.array(cols).T


def _assert_batch_is_value(pen, post):
    """``penalty_batch`` on the types-first block ``post`` and
    ``penalty_value`` on each of its columns give the same bits."""
    got = penalty_batch(pen, post)
    assert got.shape == post.shape[1:]
    want = np.array([penalty_value(pen, post[:, j]) for j in range(post.shape[1])])
    assert got.tobytes() == want.tobytes()


class TestPenaltyBatch:
    LABELS = ("t0", "t1", "t2")
    KNOTS = ((0.0, 0.3), (0.25, 0.9), (0.5, 0.3), (0.75, 1.7), (1.0, 0.1))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_catalog_kinds_match_penalty_value(self, data):
        n = data.draw(st.integers(1, 5))
        labels = tuple(f"t{i}" for i in range(n))
        spec = data.draw(catalog_penalties(labels))
        anchor = data.draw(dyadic_rows(n))
        pen = bind(spec, labels, anchor, data.draw(st.integers(0, n - 1)))
        _assert_batch_is_value(pen, data.draw(_belief_columns(n)))

    @pytest.mark.parametrize(
        "spec",
        [
            PenaltySpec.piecewise_linear(KNOTS, over=("t0", "t1")),
            PenaltySpec.piecewise_linear(KNOTS, over=("t2",), weight=0.5),
            PenaltySpec.step(
                ((0.25, 0.5, 1.5, False, True), (0.5, 0.75, 0.5, False, False)), over=("t0", "t1")
            ),
            PenaltySpec.step(
                ((0.25, 0.5, 1.5, True, False), (0.75, 0.75, 0.5, True, True)), over=("t1",)
            ),
            PenaltySpec.tv_to_prior(1.5),
        ],
    )
    def test_every_quarter_belief(self, spec):
        """The event mass of the quarter beliefs runs through every knot
        and every bound; the anchor ties t0 with t2."""
        post = SimplexGrid(3, 4).points().T
        pen = bind(spec, self.LABELS, [0.25, 0.5, 0.25], 1)
        if pen.event is not None:
            x = post[list(pen.event)].sum(axis=0)
            assert set(x.tolist()) == {0.0, 0.25, 0.5, 0.75, 1.0}
        _assert_batch_is_value(pen, post)
        # every axis after the types is kept
        block = penalty_batch(pen, post.reshape(3, 3, 5))
        assert block.shape == (3, 5)
        assert block.tobytes() == penalty_batch(pen, post).tobytes()


def _edge_beliefs(pen) -> np.ndarray:
    """Beliefs, as the columns of an ``(n, k)`` array, whose event mass
    (the type's own mass for the other kinds) sits on 0, on 1, on every
    knot and on every piece bound, plus the two posteriors of prior
    [0.4, 0.6] whose two masses sum to 1 + 1 ulp and 1 - 1 ulp."""
    n = pen.n
    event = pen.event or (pen.type_index,)
    outside = [s for s in range(n) if s not in event]
    xs = [0.0, 1.0]
    if pen.knots is not None:
        xs += pen.knots[0].tolist()
    for piece in pen.spec.pieces or ():
        xs += [piece[0], piece[1]]
    cols = []
    for x in xs:
        col = np.zeros(n)
        col[event[0]] = x
        col[outside[0] if outside else event[-1]] += 1.0 - x
        cols.append(col)
    if n >= 2:
        pair = list(event[:2]) if len(event) >= 2 else [0, 1]
        for column in ([0.2, 1.0], [0.2, 0.8]):
            col = np.zeros(n)
            col[pair] = posterior(np.array([0.4, 0.6]), np.array(column))
            cols.append(col)
    return np.array(cols).T


def _reference_range(pen):
    """``(min, max, argmin, argmax)`` of ``penalty_range`` for a marginal
    kind, its candidates valued one at a time by the twin evaluators."""
    spec, n = pen.spec, pen.n
    pinned = 0.0 if not pen.event else 1.0 if len(pen.event) == n else None
    if spec.kind == "piecewise_linear_marginal":
        candidates = [pinned] if pinned is not None else [float(x) for x in pen.knots[0]]
        vals = [spec.weight * reference_piecewise_linear_value(*pen.knots, x) for x in candidates]
    else:
        bounds = sorted({0.0, 1.0} | {p[0] for p in spec.pieces} | {p[1] for p in spec.pieces})
        candidates = list(bounds) + [0.5 * (a + b) for a, b in zip(bounds, bounds[1:]) if b > a]
        if pinned is not None:
            candidates = [pinned]
        vals = [spec.weight * reference_step_value(spec.pieces, x) for x in candidates]
    i_min, i_max = int(np.argmin(vals)), int(np.argmax(vals))
    return (
        vals[i_min],
        vals[i_max],
        _belief_with_marginal(candidates[i_min], pen).p,
        _belief_with_marginal(candidates[i_max], pen).p,
    )


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _assert_one_body_is_the_twins(pen, post):
    """``penalty_value`` on each column of ``post`` and ``penalty_batch``
    on ``post`` and on it reshaped to ``(n, 2, B)`` give the bits of the
    former scalar and batched evaluators, and ``bind``'s step values and
    ``penalty_range`` those of the scalar one."""
    for j in range(post.shape[1]):
        got = penalty_value(pen, post[:, j])
        assert type(got) is float
        assert _bits(got) == _bits(reference_penalty_value(pen, post[:, j]))
    block = np.stack((post, post[:, ::-1]), axis=1)
    for rows in (post, block):
        got = penalty_batch(pen, rows)
        assert got.shape == rows.shape[1:]
        assert got.tobytes() == reference_penalty_batch(pen, rows).tobytes()
    spec = pen.spec
    if spec.pieces:
        cuts = sorted({p[0] for p in spec.pieces} | {p[1] for p in spec.pieces})
        inner = [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]
        probes = [cuts[0] - 1.0, *inner, cuts[-1] + 1.0, *cuts]
        want = np.array([reference_step_value(spec.pieces, x) for x in probes])
        assert pen.breaks[1].tobytes() == want.tobytes()
    if pen.event is not None:
        r = penalty_range(pen)
        lo, hi, at_lo, at_hi = _reference_range(pen)
        assert (_bits(r.min), _bits(r.max)) == (_bits(lo), _bits(hi))
        assert r.argmin.p.tobytes() == at_lo.tobytes() and r.argmax.p.tobytes() == at_hi.tobytes()


class TestOneBody:
    """One body per kind values one belief and types-first rows, with
    the bits of the scalar and batched twins it replaced
    (``helpers.reference_penalty_value`` and ``reference_penalty_batch``)."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_catalog_kinds(self, data):
        n = data.draw(st.integers(1, 5))
        labels = tuple(f"t{i}" for i in range(n))
        spec = data.draw(catalog_penalties(labels))
        pen = bind(spec, labels, data.draw(dyadic_rows(n)), data.draw(st.integers(0, n - 1)))
        post = np.concatenate((data.draw(_belief_columns(n)), _edge_beliefs(pen)), axis=1)
        _assert_one_body_is_the_twins(pen, post)

    @pytest.mark.parametrize(
        "spec",
        [
            # signed zeros and negative values: a selection by arithmetic
            # would turn a -0.0 piece into 0.0
            PenaltySpec.step(
                ((0.25, 0.5, -0.0, True, True), (0.0, 1.0, -1.5, True, False), (1.0, 1.0, 0.0, True, True)),
                over=("t0", "t1"),
            ),
            PenaltySpec.piecewise_linear(((0.0, -0.0), (0.5, -1.0), (1.0, 0.0)), over=("t1",), weight=2.0),
            PenaltySpec(kind="piecewise_linear_marginal", knots=((0.0, 5.0), (1.0, 1.0)), marginal_over=()),
            PenaltySpec(kind="zero", weight=3.0),
        ],
    )
    def test_signed_zeros_and_degenerate_events(self, spec):
        labels = ("t0", "t1", "t2")
        pen = bind(spec, labels, [0.5, 0.5, 0.0], 0)
        post = np.concatenate((SimplexGrid(3, 4).points().T, _edge_beliefs(pen)), axis=1)
        _assert_one_body_is_the_twins(pen, post)

    def test_public_wrappers(self):
        """The polyline and the step of the event mass, reached through
        ``penalty_value``, are floats with the bits of the former
        evaluators, at and beyond the ends of [0, 1] and at NaN."""
        knots = np.array([0.0, 0.25, 1.0]), np.array([1.0, -0.5, 2.0])
        pieces = ((0.25, 0.5, -0.0, False, True), (0.0, 1.0, 2.0, True, True))
        for x in (-0.5, 0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0, 1.0000000000000002, 2.0, float("nan")):
            got = _polyline_at(*knots, x)
            assert type(got) is float
            assert _bits(got) == _bits(reference_piecewise_linear_value(*knots, x))
            got = _step_at(pieces, x)
            assert type(got) is float
            assert _bits(got) == _bits(reference_step_value(pieces, x))


def _bounds(pen, mass):
    """``stacked_bounds`` at the stacked masses ``mass`` ``(2, n, ...)``."""
    return stacked_bounds(pen, mass, mass.sum(axis=1))


class TestPenaltyBounds:
    """``stacked_bounds`` encloses the penalty at every posterior of a
    box of prior masses, and is exact where the box pins the belief."""

    @staticmethod
    def _masses(draw, n):
        """A box of masses in eighths, stacked ``(2, n)``, and every mass
        vector in it on a grid of eighths, corners included."""
        ends = [sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2))) for _ in range(n)]
        mass = np.array(ends).T / 8.0
        points = np.array(list(product(*(range(a, b + 1) for a, b in ends)))).T / 8.0
        return mass, points[:, points.sum(axis=0) > 0.0]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_encloses_every_posterior_of_the_box(self, data):
        n = data.draw(st.integers(1, 4))
        labels = tuple(f"t{i}" for i in range(n))
        pen = bind(data.draw(catalog_penalties(labels)), labels, data.draw(dyadic_rows(n)),
                   data.draw(st.integers(0, n - 1)))
        mass, masses = self._masses(data.draw, n)
        low, high = _bounds(pen, mass)
        assert low.shape == high.shape == ()
        if not masses.size:
            return
        values = penalty_batch(pen, masses / masses.sum(axis=0))
        # the polyline's value at a knot may round an ulp past the knot's y
        slack = 1e-12 * (1.0 + np.abs(values))
        assert np.all(low - slack <= values) and np.all(values <= high + slack)

    KNOTS = ((0.0, 0.3), (0.25, 0.9), (0.5, 0.3), (0.75, 1.7), (1.0, 0.1))

    @pytest.mark.parametrize(
        "spec, want",
        [
            (PenaltySpec.piecewise_linear(KNOTS, over=("t0",)), (0.3, 0.9)),
            (PenaltySpec.step(((0.25, 0.5, 1.5, False, True), (0.0, 1.0, 0.5, True, True)), over=("t0",)), (0.5, 1.5)),
            (PenaltySpec.exposure(2.0), (0.4, 1.2)),
        ],
    )
    def test_exact_over_an_interval(self, spec, want):
        """Event mass of t0 from 1 / (1 + 4) = 0.2 to 3 / (3 + 2) = 0.6:
        the polyline's knots at 0.25 and 0.5, the step's piece (0.25, 0.5]
        and the rest of its cover, and exposure's ends."""
        pen = bind(spec, ("t0", "t1"), [0.5, 0.5], 0)
        mass = np.array([[[1.0, 1.0], [2.0, 2.0]], [[3.0, 3.0], [4.0, 4.0]]])
        low, high = _bounds(pen, mass)
        np.testing.assert_allclose([low, high], [[want[0]] * 2, [want[1]] * 2], rtol=1e-11)

    def test_a_pinned_belief_is_exact(self):
        """One mass vector: every kind's interval closes on its value."""
        labels = ("t0", "t1", "t2")
        mass = np.array([1.0, 3.0, 5.0])  # no mass on a piece bound or a knot
        for spec in (PenaltySpec.tv_to_prior(1.5), PenaltySpec.exposure(0.5),
                     PenaltySpec.piecewise_linear(self.KNOTS, over=("t0", "t1")),
                     PenaltySpec.step(((0.25, 0.5, 1.5, True, True),), over=("t1",))):
            pen = bind(spec, labels, [0.25, 0.5, 0.25], 1)
            low, high = _bounds(pen, np.stack((mass, mass)))
            value = penalty_value(pen, mass / mass.sum())
            assert low == pytest.approx(value, rel=1e-11) and high == pytest.approx(value, rel=1e-11)


def _boxes(rng, n: int, count: int) -> np.ndarray:
    """``count`` boxes of prior masses in eighths over ``n`` types, then
    degenerate ones: a pinned mass vector, no mass at all, and mass on
    one type only; stacked, ``(2, n, count + n + 5)``."""
    ends = np.sort(rng.integers(0, 9, size=(2, n, count)), axis=0) / 8.0
    pinned = rng.integers(0, 9, size=(n, 4)) / 8.0
    single = np.eye(n) * 0.5
    lo = np.concatenate([ends[0], pinned, np.zeros((n, 1)), single], axis=1)
    hi = np.concatenate([ends[1], pinned, np.zeros((n, 1)), single], axis=1)
    return np.stack((lo, hi))


def _event_ends(mass, event) -> np.ndarray:
    """The event-mass interval ends the bound reads, as
    ``reference_penalty_bounds`` computes them."""
    lo, hi = mass
    inside = [np.zeros(lo.shape[1:]), np.zeros(lo.shape[1:])]
    for s in event:
        inside = [inside[0] + lo[s], inside[1] + hi[s]]
    total_lo, total_hi = lo.sum(axis=0), hi.sum(axis=0)
    rest = np.stack((total_lo - inside[0], total_hi - inside[1]))
    return share_pair(np.stack(inside), rest).ravel()


def _assert_is_reference(pen, mass):
    low, high = _bounds(pen, mass)
    want_low, want_high = reference_penalty_bounds(pen, mass)
    assert np.shape(low) == np.shape(want_low) == mass.shape[2:]
    np.testing.assert_array_equal(low, want_low)
    np.testing.assert_array_equal(high, want_high)


class TestBroadcastBounds:
    """``stacked_bounds`` compares every knot, piece bound and gap with
    every interval at once, and bounds all ``tv_to_prior`` coordinates
    in one call. It equals the loop over them
    (``helpers.reference_penalty_bounds``) bit for bit, also where an
    interval's end sits exactly on a knot or a piece bound, and on
    degenerate intervals."""

    LABELS = ("t0", "t1", "t2", "t3")

    @staticmethod
    def _on_ends(rng, ends, count) -> list[float]:
        """``count`` distinct interval ends strictly inside (0, 1)."""
        inner = np.unique(ends[(ends > 0.0) & (ends < 1.0)])
        return sorted(rng.choice(inner, size=min(count, inner.size), replace=False).tolist())

    @pytest.mark.parametrize("seed", range(6))
    def test_knots_on_interval_ends(self, seed):
        rng = np.random.default_rng(seed)
        mass = _boxes(rng, 4, 60)
        event = ("t0", "t2")
        ends = _event_ends(mass, (0, 2))
        on_ends = self._on_ends(rng, ends, 4)
        # a trough on each end, with a peak before it: the segment from
        # the peak reaches the trough an ulp above its y, so a knot at
        # an interval's end must not count as inside it
        xs, ys = [0.0], []
        for i, x in enumerate(on_ends):
            while True:
                peak, trough = rng.uniform(1.0, 2.0), rng.uniform(0.0, 0.5)
                if peak + (trough - peak) > trough:
                    break
            if i:
                xs.append(0.5 * (on_ends[i - 1] + x))
            xs.append(x)
            ys += [peak, trough]
        xs.append(1.0)
        ys.append(1.0)
        knots = tuple(zip(xs, ys))
        pen = bind(PenaltySpec.piecewise_linear(knots, over=event, weight=1.5), self.LABELS, [0.25] * 4, 0)
        assert np.isin(ends, on_ends).sum() >= 2
        _assert_is_reference(pen, mass)

    @pytest.mark.parametrize("seed", range(6))
    def test_piece_bounds_on_interval_ends(self, seed):
        rng = np.random.default_rng(seed)
        mass = _boxes(rng, 4, 60)
        event = ("t1",)
        ends = _event_ends(mass, (1,))
        cuts = self._on_ends(rng, ends, 4)
        pieces = [
            (a, b, float(rng.uniform(0.0, 2.0)), bool(rng.integers(2)), bool(rng.integers(2)))
            for a, b in zip([0.0, *cuts], [*cuts, 1.0])
        ]
        # a closed point piece on an end, matched before the others
        pieces.insert(0, (cuts[0], cuts[0], 3.0, True, True))
        pen = bind(PenaltySpec.step(pieces, over=event), self.LABELS, [0.25] * 4, 0)
        assert np.isin(ends, cuts).sum() >= 2
        _assert_is_reference(pen, mass)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_catalog_penalties(self, data):
        """Any catalog penalty over random and degenerate boxes, with
        trailing axes or none; 9 types sum past numpy's 8-element
        pairwise block."""
        n = data.draw(st.sampled_from([1, 2, 3, 4, 9]))
        labels = tuple(f"t{i}" for i in range(n))
        pen = bind(data.draw(catalog_penalties(labels)), labels, data.draw(dyadic_rows(n)),
                   data.draw(st.integers(0, n - 1)))
        mass = _boxes(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n, 24)
        _assert_is_reference(pen, mass)
        even = mass.shape[2] // 2 * 2
        _assert_is_reference(pen, mass[:, :, :even].reshape(2, n, -1, 2))
        for j in (0, mass.shape[2] - 1):
            _assert_is_reference(pen, mass[:, :, j])


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
