import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xccy.curves import CurveSet, RateCurve, cash_account_value
from xccy.errors import ConfigError, NegativeTime


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RateCurve([], []), "at least one knot"),
        (lambda: CurveSet(RateCurve.flat(0.02)).by_role("overnight"), "unknown rate role 'overnight'"),
    ],
    ids=["no knots", "unknown role"],
)
def test_curve_input_rejected(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_zero_rate_account_is_one():
    assert cash_account_value(RateCurve.flat(0.0), 5.0) == 1.0


def test_flat_rate_account_closed_form():
    assert cash_account_value(RateCurve.flat(0.02), 1.0) == pytest.approx(math.exp(0.02), rel=1e-15)


def test_two_piece_account_matches_riemann_oracle():
    # r = 0.01 on [0,1), 0.03 on [1,inf); closed form at t=2 is e^{0.04}
    curve = RateCurve([0.0, 1.0], [0.01, 0.03])
    value = cash_account_value(curve, 2.0)
    assert value == pytest.approx(math.exp(0.04), rel=1e-12)
    # independent oracle: midpoint Riemann sum with 1e6 steps
    n = 10**6
    u = (np.arange(n) + 0.5) * (2.0 / n)
    riemann = math.exp(np.sum(curve.rate(u)) * (2.0 / n))
    assert value == pytest.approx(riemann, abs=1e-9)


def test_account_value_at_zero_is_one():
    assert cash_account_value(RateCurve([0.0, 0.5], [0.04, -0.01]), 0.0) == 1.0


def test_negative_time_rejected():
    with pytest.raises(NegativeTime):
        cash_account_value(RateCurve.flat(0.01), -0.5)


def test_integral_is_antisymmetric_and_additive():
    curve = RateCurve([0.0, 0.4, 1.1], [0.01, -0.02, 0.05])
    assert curve.integral(0.2, 0.9) == pytest.approx(-curve.integral(0.9, 0.2), rel=1e-15)
    total = curve.integral(0.0, 0.3) + curve.integral(0.3, 1.5)
    assert total == pytest.approx(curve.integral(0.0, 1.5), rel=1e-13)


def test_vector_evaluation_matches_scalar():
    curve = RateCurve([0.0, 0.5, 1.0], [0.02, 0.01, 0.0])
    times = np.array([0.0, 0.25, 0.5, 0.75, 2.0])
    vec = cash_account_value(curve, times)
    for t, v in zip(times, vec):
        assert v == pytest.approx(math.exp(curve.integral(0.0, float(t))), rel=1e-14)


def test_curve_equality_compares_knots_and_values():
    curve = RateCurve([0.0, 0.5, 1.5], [0.01, 0.02, 0.015])
    assert curve == RateCurve([0.0, 0.5, 1.5], [0.01, 0.02, 0.015])
    assert curve != RateCurve([0.0, 0.5, 1.5], [0.01, 0.02, 0.016])
    assert curve != RateCurve([0.0, 0.6, 1.5], [0.01, 0.02, 0.015])
    assert curve != RateCurve([0.0, 0.5], [0.01, 0.02])
    assert curve != RateCurve.flat(0.01) and curve != 0.01


def test_bad_curves_rejected():
    with pytest.raises(ConfigError):
        RateCurve([0.5], [0.01])  # first knot not 0
    with pytest.raises(ConfigError):
        RateCurve([0.0, 0.0], [0.01, 0.02])  # not strictly ascending
    with pytest.raises(ConfigError):
        RateCurve([0.0, 1.0], [0.01])  # length mismatch
    for bad in (math.nan, math.inf):  # np.diff of a NaN knot compares false to 0, so the order check misses it
        with pytest.raises(ConfigError, match="finite"):
            RateCurve([0.0, bad, 2.0], [0.01, 0.02, 0.03])


@given(
    values=st.lists(st.floats(min_value=0.0, max_value=0.2), min_size=1, max_size=5),
    t=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_account_positive_and_nondecreasing_for_nonnegative_rates(values, t):
    knots = np.arange(len(values), dtype=float)
    curve = RateCurve(knots, values)
    v_t = cash_account_value(curve, t)
    assert v_t >= 1.0
    assert cash_account_value(curve, t + 0.7) >= v_t


@st.composite
def curve_and_grid(draw):
    """A multi-knot curve and a strictly ascending grid from 0 that may share its knots.

    The grid can end past the last knot and can have a single step.
    """
    inner = draw(st.lists(st.floats(min_value=0.01, max_value=5.0), max_size=6, unique=True))
    knots = np.concatenate([[0.0], np.sort(inner)])
    rates = st.floats(min_value=-0.1, max_value=0.2)
    values = draw(st.lists(rates, min_size=knots.size, max_size=knots.size))
    on_grid = draw(st.lists(st.sampled_from(knots[1:].tolist()), max_size=knots.size - 1)) if inner else []
    points = draw(st.lists(st.floats(min_value=0.001, max_value=8.0), min_size=1, max_size=8))
    times = np.union1d(0.0, np.concatenate([points, on_grid]))
    return RateCurve(knots, values), times


def _abs_curve(curve):
    return RateCurve(curve.knots, np.abs(curve.values))


ONE_ULP_PIECE = (RateCurve([0.0, 0.01, np.nextafter(0.01, 1.0)], [0.0, 0.125, 0.0]), np.array([0.0, 1.0]))


@given(case=curve_and_grid())
@example(case=ONE_ULP_PIECE)  # a piece whose midpoint rounds onto its right end
@settings(max_examples=200, deadline=None)
def test_step_integrals_match_scalar_integral(case):
    curve, times = case
    steps = curve.step_integrals(times)
    scalar = np.array([curve.integral(a, b) for a, b in zip(times[:-1], times[1:])])
    scale = _abs_curve(curve).step_integrals(times)  # relative to the integral of |r|
    assert steps.shape == (times.size - 1,)
    assert np.all(np.abs(steps - scalar) <= 1e-14 * scale)


@given(case=curve_and_grid())
@example(case=(RateCurve([0.0], [5e-324]), np.array([0.0, 1.0, 1.5])))  # a subnormal rate
@example(case=ONE_ULP_PIECE)
@settings(max_examples=200, deadline=None)
def test_cumulative_integrals_match_scalar_integral(case):
    curve, times = case
    scalar = np.array([curve.integral(0.0, t) for t in times])
    scale = np.array([_abs_curve(curve).integral(0.0, t) for t in times])
    assert np.all(np.abs(curve.integrals(times) - scalar) <= 1e-14 * scale)


@given(case=curve_and_grid(), order=st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_cash_account_on_unsorted_times_matches_scalar(case, order):
    curve, times = case
    shuffled = list(times)
    order.shuffle(shuffled)
    vec = cash_account_value(curve, np.array(shuffled))
    for t, v in zip(shuffled, vec):
        assert v == pytest.approx(math.exp(curve.integral(0.0, t)), rel=1e-14)


def test_step_integrals_one_step_past_the_last_knot():
    curve = RateCurve([0.0, 0.5, 1.0], [0.02, 0.01, 0.04])
    assert curve.step_integrals([1.5, 3.0]) == pytest.approx([0.06], rel=1e-15)
    steps = curve.step_integrals([0.0, 0.5, 2.0])
    assert steps.tolist() == [curve.integral(0.0, 0.5), curve.integral(0.5, 2.0)]  # the same sums, bit for bit
