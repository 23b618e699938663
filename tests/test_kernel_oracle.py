"""The scalar jet pipeline against its ``_two_prod`` reference, bit for bit.

``kernels_reference`` holds the kernels and the finite-difference tangent
jets of FD-backed and sampled curves as they were written before exact
products split each factor once and the stencils became one pass. Every
kernel here must return the same values, to the sign of zero, the same
non-finite results, and raise the same exception with the same message.
The drawn jets cover projected unit jets, raw jets at the two unit-speed
gates, signed zeros, subnormals, components large enough that products
overflow (``math.fsum`` then raises), inf and NaN, and jets whose
acceleration is near zero or near null.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import kernels_reference as ref
from hhcurves import CoordinateCurve, FDConfig, FrameCurve
from hhcurves import _kernels as pure

PROPS = settings(derandomize=True, deadline=None, database=None,
                 max_examples=300,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.filter_too_much])

EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-160,
    1.0, -1.0, 1.0 + 2.0**-52, 3.0, 1e16, 1e80, -1e155, 1e160, -1e160,
    math.inf, -math.inf, math.nan,
])
SUBNORMAL = st.floats(min_value=-2.2250738585072014e-308,
                      max_value=2.2250738585072014e-308)
COMPONENT = st.one_of(
    st.floats(-3.0, 3.0), EDGES, SUBNORMAL, st.floats(-1e160, 1e160),
    st.floats(allow_nan=True, allow_infinity=True),
)
MODERATE = st.floats(-3.0, 3.0)
GEO_TOL = st.sampled_from([1e-9, 1e-5])
UNIT_TOL = st.sampled_from([1e-9, 1e-6])


def _vec(element):
    return st.tuples(element, element, element)


RAW_JETS = st.tuples(*[_vec(COMPONENT)] * 4)


def _same(got, want):
    """Equal in type, value and sign of zero, or both NaN, recursively."""
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if type(got) is not type(want):
        return False
    if isinstance(want, float) and math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the exception itself is what is compared
        return ("raise", type(exc), str(exc))


def _check(got_fn, want_fn, *args):
    got, want = _outcome(got_fn, *args), _outcome(want_fn, *args)
    if want[0] == "raise":
        assert got == want, (args, got, want)
    else:
        assert got[0] == "value" and _same(got[1], want[1]), (args, got, want)


@st.composite
def unit_tangents(draw):
    """A tangent with |inner(T, T)| = 1 up to rounding."""
    t = draw(_vec(MODERATE))
    g = t[0] * t[0] - t[1] * t[1] - t[2] * t[2]
    assume(abs(g) > 0.05)
    inv = 1.0 / math.sqrt(abs(g))
    return tuple(c * inv for c in t)


@st.composite
def gate_jets(draw):
    """Raw jets whose |inner(T, T)| lies within a few percent of a gate,
    1 ± 1e-6 or 1 ± 1e-9, on either side of it."""
    t0 = draw(unit_tangents())
    gate = draw(st.sampled_from([1e-6, 1e-9, -1e-6, -1e-9]))
    jitter = draw(st.sampled_from([0.0, 1e-3, -1e-3, 0.05, -0.05]))
    scale = math.sqrt(1.0 + gate * (1.0 + jitter))
    rows = draw(st.tuples(*[_vec(MODERATE)] * 3))
    return (tuple(c * scale for c in t0),) + rows


@st.composite
def near_degenerate_jets(draw):
    """Jets whose ∇_T T = t1 + Γ(t0, t0) is near zero, or near null."""
    t0 = draw(unit_tangents())
    size = draw(st.sampled_from([1e-9, 1e-5])) * draw(
        st.sampled_from([0.3, 0.999, 1.0, 1.001, 3.0, 1e3]))
    if draw(st.booleans()):
        a10 = tuple(size * c for c in draw(_vec(st.floats(-1.0, 1.0))))
    else:
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        stretch = 1.0 + draw(st.sampled_from([0.0, 1e-12, -1e-9, 1e-6, -1e-3]))
        a10 = (size, size * stretch * math.cos(theta),
               size * stretch * math.sin(theta))
    t1 = (a10[0] + 2.0 * t0[1] * t0[2], a10[1] + 2.0 * t0[0] * t0[2], a10[2])
    rows = draw(st.tuples(_vec(MODERATE), _vec(MODERATE)))
    return (t0, t1) + rows


@st.composite
def moderate_jets(draw):
    return (draw(unit_tangents()),) + draw(st.tuples(*[_vec(MODERATE)] * 3))


ANY_JETS = st.one_of(moderate_jets(), gate_jets(), near_degenerate_jets(),
                     RAW_JETS)


@st.composite
def projected_jets(draw):
    """Jets as the curve layer hands them to the kernels: projected, with
    the projection's own outcome left to the projection test."""
    jets = draw(st.one_of(moderate_jets(), gate_jets(),
                          near_degenerate_jets()))
    out = _outcome(ref.project_unit_jets, jets, 1e-6)
    assume(out[0] == "value")
    return out[1]


KERNEL_JETS = st.one_of(projected_jets(), ANY_JETS)


@PROPS
@given(_vec(COMPONENT), _vec(COMPONENT))
def test_inner_and_cross(x, y):
    _check(pure.inner, ref.inner, x, y)
    _check(pure.inner, ref.inner, x, x)
    _check(pure.cross, ref.cross, x, y)


def test_inner_and_cross_take_integers():
    for x, y in [((1, 0, 0), (0, 1, 0)), ((3, -2, 1), (-1, 0, 2))]:
        _check(pure.inner, ref.inner, x, y)
        _check(pure.cross, ref.cross, x, y)


@PROPS
@given(_vec(COMPONENT), _vec(COMPONENT), _vec(COMPONENT))
def test_covd_and_curvature_op(x, y, z):
    _check(pure.covd, ref.covd, x, y, z)
    _check(pure.curvature_op, ref.curvature_op, x, y, z)
    _check(pure.curvature_op, ref.curvature_op, x, y, x)


@PROPS
@given(ANY_JETS, UNIT_TOL)
def test_project_unit_jets(jets, unit_tol):
    _check(pure.project_unit_jets, ref.project_unit_jets, jets, unit_tol)


@PROPS
@given(KERNEL_JETS, GEO_TOL)
def test_point_eval_frenet_jets_and_direct_bitension(jets, geo_tol):
    _check(pure.point_eval, ref.point_eval, jets, geo_tol)
    _check(pure.frenet_jets, ref.frenet_jets, jets, geo_tol)
    _check(pure.bitension_direct_jets, ref.bitension_direct_jets, jets)


def _fsum_or_nan(addends):
    """``math.fsum``, with NaN where it raises or is not finite."""
    try:
        total = math.fsum(addends)
    except (OverflowError, ValueError):
        return math.nan
    return total if math.isfinite(total) else math.nan


# What each lane of the array forms must hold: the reference's addends,
# summed one component at a time.
_LANE_INNER, _LANE_CROSS = ref.frame_products(_fsum_or_nan)


@settings(PROPS, max_examples=100)
@given(st.lists(st.tuples(_vec(COMPONENT), _vec(COMPONENT)),
                min_size=1, max_size=6))
def test_array_inner_and_cross_lane_by_lane(pairs):
    ops = pure.array_ops()
    xs = [np.array(c) for c in zip(*(x for x, _ in pairs))]
    ys = [np.array(c) for c in zip(*(y for _, y in pairs))]
    with np.errstate(all="ignore"):
        got_inner = ops.inner(xs, ys).tolist()
        got_cross = [c.tolist() for c in ops.cross(xs, ys)]
    for lane, (x, y) in enumerate(pairs):
        assert _same(got_inner[lane], _LANE_INNER(x, y)), (x, y)
        want = _LANE_CROSS(x, y)
        for k in range(3):
            assert _same(got_cross[k][lane], want[k]), (x, y, k)


# --------------------------------------------------------------------------
# Finite-difference tangent jets
# --------------------------------------------------------------------------

STEP = st.one_of(st.sampled_from([1e-4, 1e-3, 0.01, 0.5]),
                 st.floats(1e-6, 1.0))
PARAM = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -2.5]),
                  st.floats(-5.0, 5.0))


@st.composite
def closed_forms(draw):
    """A smooth vector-valued callable. With a large rate it overflows, and
    with a large scale its values or their products do; some draws return
    integers or a list instead of a tuple of floats."""
    c = draw(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
    rate = draw(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([400.0, 800.0])))
    scale = draw(st.sampled_from([1.0, 1e160, 1e300]))
    as_list = draw(st.booleans())
    ints = draw(st.booleans())

    def f(t):
        out = (scale * (c[0] + c[1] * t + math.sin(rate * t)),
               c[2] * math.cos(rate * t) + c[3] * t * t,
               c[4] * math.sinh(rate * t) + c[5])
        if ints:
            out = (1,) + out[1:]
        return list(out) if as_list else out

    return f


@PROPS
@given(closed_forms(), PARAM, STEP)
def test_coordinate_fd_tangent_jets(position, s, step):
    curve = CoordinateCurve.from_functions(position, fd=FDConfig(step=step))
    _check(curve.tangent_jets, lambda t: ref.coordinate_tangent_jets(
        position, t, step), s)


@PROPS
@given(closed_forms(), PARAM, STEP)
def test_frame_fd_tangent_jets(tangent, s, step):
    curve = FrameCurve(tangent, fd=FDConfig(step=step))
    _check(curve.tangent_jets, lambda t: ref.frame_tangent_jets(
        tangent, t, step), s)


NODE_VALUE = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))


# (spacing, first node): moderate spacings near 0, where the node search
# tolerance is 1e-9·max(1, |s|), and fine spacings far from 0, where a
# quarter of the spacing bounds it
SPACING_AND_START = st.one_of(
    st.tuples(st.one_of(st.sampled_from([0.05, 0.1, 2.0**-4, 1e-3, 0.3]),
                        st.floats(1e-4, 2.0)),
              st.one_of(st.sampled_from([0.0, -0.0, -1.0]),
                        st.floats(-5.0, 5.0))),
    st.tuples(st.sampled_from([1e-6, 3e-7, 2.0**-20, 1e-5]),
              st.one_of(st.sampled_from([1000.0, -1000.0, 1e5]),
                        st.floats(500.0, 1e5))),
)


@st.composite
def sample_tables(draw):
    """A uniform node table with coordinates up to 1e200, and a parameter at
    an interior node, a boundary node, just off a node (inside and outside
    the search tolerance), between nodes or beyond either end."""
    n = draw(st.one_of(st.integers(9, 16), st.integers(2, 8)))
    spacing, s0 = draw(SPACING_AND_START)
    scale = draw(st.sampled_from([1.0, 1e-300, 1e100, 1e200]))
    s_values = [s0 + i * spacing for i in range(n)]
    points = [tuple(scale * c for c in draw(_vec(NODE_VALUE)))
              for _ in range(n)]
    interior = n >= 9 and draw(st.sampled_from([True, True, False]))
    s = s_values[draw(st.integers(4, n - 5) if interior
                      else st.integers(0, n - 1))]
    if draw(st.booleans()):
        s += spacing * draw(st.sampled_from([1e-12, -1e-11, 1e-7, 0.5, -0.5,
                                             float(n), -1.0]))
    return s_values, points, s


@PROPS
@given(sample_tables())
def test_sampled_tangent_jets_and_derivatives(table):
    s_values, points, s = table
    curve = CoordinateCurve.from_samples(s_values, points)
    _check(curve.tangent_jets, lambda t: ref.sampled_tangent_jets(
        s_values, points, t), s)
    for m in (1, 2, 3, 4):
        _check(curve.derivative, lambda t, order: ref.sampled_derivative(
            s_values, points, t, order), s, m)


# Stencil offsets of each derivative order, in the order they are taken.
_OFFSETS = {1: (-1, 1), 2: (-1, 0, 1), 3: (-2, -1, 1, 2), 4: (-2, -1, 0, 1, 2)}


def _expected_arguments(s, step, orders):
    """The value at s, then each order's stencil at step and at step / 2."""
    return [s] + [s + off * h for m in orders for h in (step, step / 2.0)
                  for off in _OFFSETS[m]]


def _recorded_arguments(make_curve, s):
    seen = []

    def f(t):
        seen.append(t)
        return (math.cos(t), math.sin(t), 0.5 * t)

    make_curve(f).tangent_jets(s)
    return seen


def test_fd_tangent_jets_call_the_callable_at_the_same_arguments():
    for s in (0.3, -0.0, 0.0, -1.75):
        for step in (1e-4, 0.01):
            fd = FDConfig(step=step)
            got = _recorded_arguments(
                lambda f: CoordinateCurve.from_functions(f, fd=fd), s)
            assert len(got) == 29
            assert list(map(repr, got)) == list(map(repr, _expected_arguments(
                s, step, (1, 2, 3, 4))))
            got = _recorded_arguments(lambda f: FrameCurve(f, fd=fd), s)
            assert len(got) == 19
            assert list(map(repr, got)) == list(map(repr, _expected_arguments(
                s, step, (1, 2, 3))))
