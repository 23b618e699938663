"""The array ``fsum`` and the frame algebra over arrays, against their
scalar forms.

``_fsum_array`` must return, in every lane, what ``math.fsum`` returns for
that lane's addends, to the bit and the sign of zero, when the addends and
their sum are finite; every other lane must be NaN. The array ``inner``,
``cross`` and ``inner(cross(x, y), z)`` then equal the scalar kernels lane
by lane.
"""

import math
import sys

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hhcurves import frame
from hhcurves import _kernels as pure

PROPS = settings(derandomize=True, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])

DBL_MAX = sys.float_info.max
EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
    2.0**-53, -2.0**-53, 1.0 + 2.0**-52, 1e16, 1e-16, 2.0**970, -2.0**970,
    2.0**1023, -2.0**1023, DBL_MAX, -DBL_MAX,
])
SUBNORMAL = st.floats(min_value=-2.2250738585072014e-308,
                      max_value=2.2250738585072014e-308)
FINITE = st.one_of(EDGES, SUBNORMAL, st.floats(-1.0, 1.0),
                   st.floats(allow_nan=False, allow_infinity=False))
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


def _fsum_or_nan(addends):
    """``math.fsum``, with NaN where it raises or is not finite."""
    try:
        total = math.fsum(addends)
    except (OverflowError, ValueError):
        return math.nan
    return total if math.isfinite(total) else math.nan


def _same(got, want):
    """Equal in value and sign bit, or both NaN."""
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _check_lanes(lanes):
    """``_fsum_array`` over equal-length lanes against ``math.fsum``."""
    columns = np.array(lanes, dtype=float).T
    got = pure._fsum_array(list(columns)).tolist()
    for lane, value in zip(lanes, got):
        assert _same(value, _fsum_or_nan(lane)), (lane, value)
    return got


def _lanes(element, max_lanes=6):
    """Lanes of 1 to 13 addends, as many addends in each lane."""
    return st.integers(1, 13).flatmap(lambda k: st.lists(
        st.lists(element, min_size=k, max_size=k),
        min_size=1, max_size=max_lanes))


@st.composite
def _ties(draw):
    """``x`` and half an ulp of it, exactly half-way between two doubles,
    with or without a tiny addend that breaks the tie, in any order."""
    x = draw(st.floats(min_value=2.0**-1000, max_value=2.0**1000))
    x *= draw(st.sampled_from([1.0, -1.0]))
    half = math.ulp(x) / 2.0 * draw(st.sampled_from([1.0, -1.0]))
    addends = [x, half]
    breaker = draw(st.sampled_from([None, 1.0, -1.0]))
    if breaker is not None:
        addends.append(breaker * abs(half) * 2.0 ** -draw(st.integers(1, 60)))
    addends += [0.0] * draw(st.integers(0, 3))
    return draw(st.permutations(addends))


@st.composite
def _cancellations(draw):
    """Large addends that cancel exactly, around a small remainder."""
    big = draw(st.lists(st.floats(min_value=-1e300, max_value=1e300),
                        min_size=1, max_size=5))
    small = draw(st.lists(st.one_of(SUBNORMAL, st.floats(-1e-10, 1e-10)),
                          min_size=0, max_size=3))
    return draw(st.permutations(big + [-b for b in big] + small))


@st.composite
def _non_finite(draw):
    """Lanes that ``math.fsum`` cannot sum to a finite value: a non-finite
    addend, or finite addends whose partial sums overflow."""
    if draw(st.booleans()):
        addends = draw(st.lists(FINITE, min_size=0, max_size=12))
        addends.insert(draw(st.integers(0, len(addends))), draw(NON_FINITE))
        return addends
    # the first two overflow, whatever the exact sum of the rest
    big = DBL_MAX * draw(st.sampled_from([1.0, -1.0]))
    extra = draw(st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=3))
    return [big, big] + draw(st.permutations([-big] + extra))


@PROPS
@given(_lanes(FINITE))
def test_equals_math_fsum_in_every_lane(lanes):
    _check_lanes(lanes)


@PROPS
@given(st.lists(_ties(), min_size=1, max_size=6))
def test_half_way_ties_round_as_math_fsum_does(ties):
    # one lane per tie: pad every lane to the same number of addends with
    # zeros, which do not change a sum
    width = max(len(t) for t in ties)
    _check_lanes([t + [0.0] * (width - len(t)) for t in ties])


@PROPS
@given(_lanes(st.sampled_from([0.0, -0.0])))
def test_zero_sums_keep_math_fsum_sign(lanes):
    assert all(v == 0.0 for v in _check_lanes(lanes))


@PROPS
@given(st.lists(_cancellations(), min_size=1, max_size=4))
def test_massive_cancellation(lanes):
    width = max(len(lane) for lane in lanes)
    _check_lanes([lane + [0.0] * (width - len(lane)) for lane in lanes])


NEAR_MAX = st.builds(lambda v, sign: v * sign,
                     st.floats(min_value=2.0**1000, max_value=DBL_MAX),
                     st.sampled_from([1.0, -1.0]))


@PROPS
@given(_lanes(st.one_of(NEAR_MAX, EDGES, st.floats(-1.0, 1.0))))
def test_addends_near_dbl_max(lanes):
    _check_lanes(lanes)


def test_two_sums_order_their_operands():
    # DBL_MAX - 6.4e306 is finite, but the branch-free two-sum's error term
    # takes s - a = s + 6.4e306, which overflows: msum orders the operands
    # by magnitude and takes s - DBL_MAX instead
    _check_lanes([[DBL_MAX, -6.408448689996123e306],
                  [-DBL_MAX, 3.2696689700603217e307]])


@PROPS
@given(_non_finite(), _lanes(FINITE, max_lanes=1))
def test_lanes_that_are_not_finite_are_nan(bad, good):
    good = good[0]
    width = max(len(bad), len(good))
    pad = lambda lane: lane + [0.0] * (width - len(lane))  # noqa: E731
    got = _check_lanes([pad(bad), pad(good)])
    assert math.isnan(got[0])


VECTOR = st.tuples(*[st.one_of(EDGES, st.floats(-1e6, 1e6))] * 3)


def _scalar(fn, *args):
    """A scalar kernel's value, or None where it raises."""
    try:
        return fn(*args)
    except (OverflowError, ValueError):
        return None


def _finite_or_nan(value):
    return value if value is not None and math.isfinite(value) else math.nan


@PROPS
@given(st.lists(st.tuples(VECTOR, VECTOR, VECTOR), min_size=1, max_size=8))
def test_array_frame_algebra_equals_the_scalar_kernels(triples):
    ops = pure.array_ops()
    x, y, z = (tuple(np.array([t[k][i] for t in triples]) for i in range(3))
               for k in range(3))
    with np.errstate(over="ignore", invalid="ignore"):  # edge products
        got_inner = ops.inner(x, y).tolist()
        got_cross = np.array(ops.cross(x, y)).T.tolist()
        got_mixed = ops.inner(ops.cross(x, y), z).tolist()
    for lane, (u, v, w) in enumerate(triples):
        assert _same(got_inner[lane], _finite_or_nan(_scalar(pure.inner, u, v)))
        cross = _scalar(pure.cross, u, v)
        if cross is None or not all(math.isfinite(c) for c in cross):
            # a component met an overflow: it is NaN, and so is mixed
            assert any(math.isnan(c) for c in got_cross[lane])
            assert math.isnan(got_mixed[lane])
            continue
        assert all(_same(g, c) for g, c in zip(got_cross[lane], cross))
        want = _finite_or_nan(_scalar(frame.mixed, u, v, w))
        assert _same(got_mixed[lane], want)
