"""Property tests of the library at the edges of the doubles.

On a fixed member of every family maker, each call of ``point``,
``tangent``, ``derivative`` (every order), ``tangent_jets`` and, on a helix,
its spec's ``derivative`` must return finite values or raise an
:class:`HHCurvesError`. The parameter is drawn from ±0, subnormals, ±1e-300,
[-1e4, 1e4] and, on a helix, the band |u| in [700, 711] around where cosh
leaves the doubles.

The Frenet routes keep the same rule, with ±1e300, ±inf and NaN drawn too:
``point_data``, ``compute_frenet`` and ``direct_tau`` at a point; and over
16-point grids, long enough for helix points to take the grid kernel,
``frenet_over_grid``, ``check_biharmonic_conditions`` and
``residual_norms``. The one NaN a report may hold is the Frenet residual of
a degenerate point, and its direct residual where the direct route raised a
library error. ``solve_slope`` and every maker, called with parameters
drawn from the same edges, build a curve or raise a library error, and the
curve they build evaluates by the same rule.

``integrate_frame_curve`` on the frame curve of every helix kind and both
b3zero kinds, from starts, ranges and steps drawn from those edges, returns a
sampled curve of finite points or raises a library error; a range and step
that ask for more nodes than the cap raise at once.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhcurves import (
    CoordinateCurve,
    GeodesicDegenerateError,
    HHCurvesError,
    NullNormalDegenerateError,
    check_biharmonic_conditions,
    compute_frenet,
    frenet_over_grid,
    integrate_frame_curve,
    linear_profile,
    make_b3zero_curve,
    make_b3zero_linear,
    make_geodesic,
    make_helix,
    make_spacelike_biharmonic,
    make_spacelike_horizontal,
    make_timelike_biharmonic,
    make_timelike_horizontal_helix,
    residual_norms,
    sine_profile,
    solve_slope,
)
from hhcurves.curves import _MAX_GRID_NODES
from hhcurves.frenet import direct_tau, point_data

CURVES = (
    make_spacelike_biharmonic(0.5),
    make_spacelike_biharmonic(0.5, branch=-1, phase=0.3),
    make_timelike_biharmonic(0.7),
    make_timelike_biharmonic(0.7, branch=-1, phase=-0.2),
    make_spacelike_horizontal(),
    make_timelike_horizontal_helix(1.5),
    make_helix("spacelike", 0.4, 2.2),
    make_helix("timelike", 0.6, -1.3, 0.5),
    make_helix("timelike-flat", 0.3, 1.1),
    make_b3zero_linear("b3zero-spacelike", 0.4, 0.6, (0.0, 1.0)),
    make_b3zero_linear("b3zero-timelike", 0.4, 0.6, (0.0, 1.0)),
    make_geodesic((math.cosh(0.3), math.sinh(0.3), 0.0)),
)

TINY = 2.2250738585072014e-308  # the least normal double

PARAMETERS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]),
    st.floats(min_value=-TINY, max_value=TINY),
    st.floats(min_value=-1e4, max_value=1e4),
)


def _parameters(curve):
    hx = curve.helix
    if hx is None:
        return PARAMETERS
    band = st.builds(lambda sign, u: (sign * u - hx.phase) / hx.slope,
                     st.sampled_from((1.0, -1.0)), st.floats(700.0, 711.0))
    return st.one_of(PARAMETERS, band)


def _calls(curve):
    yield "tangent", curve.tangent
    yield "tangent_jets", curve.tangent_jets
    orders = (1, 2, 3)
    if isinstance(curve, CoordinateCurve):
        yield "point", curve.point
        orders += (4,)
    for m in orders:
        yield "derivative %d" % m, lambda s, m=m: curve.derivative(s, m)
    if curve.helix is not None:
        for m in range(4):
            yield ("helix derivative %d" % m,
                   lambda s, m=m: curve.helix.derivative(s, m))


def _floats(value):
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    for item in value:
        if isinstance(item, tuple):
            yield from _floats(item)
        else:
            yield item


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(st.data())
def test_evaluators_return_finite_values_or_raise_a_library_error(data):
    curve = data.draw(st.sampled_from(CURVES), label="curve")
    s = data.draw(_parameters(curve), label="s")
    for name, call in _calls(curve):
        try:
            value = call(s)
        except HHCurvesError:
            continue
        assert all(map(math.isfinite, _floats(value))), (name, s, value)


EDGES = st.sampled_from([1e300, -1e300, math.inf, -math.inf, math.nan])


def _frenet_parameters(curve):
    return st.one_of(_parameters(curve), EDGES)


def _finite_or_library_error(call, *args):
    """Check that ``call(*args)`` returns finite values or raises an
    :class:`HHCurvesError`."""
    try:
        value = call(*args)
    except HHCurvesError:
        return
    assert all(map(math.isfinite, _floats(value))), (call, args, value)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.data())
def test_frenet_routes_at_a_point(data):
    curve = data.draw(st.sampled_from(CURVES), label="curve")
    s = data.draw(_frenet_parameters(curve), label="s")
    for call in (point_data, compute_frenet, direct_tau):
        _finite_or_library_error(call, curve, s)


def _check_report(curve, grid, report):
    """Every value of ``report`` is finite, but a degenerate point's Frenet
    residual, and its direct residual where ``direct_tau`` raises a library
    error."""
    for s, direct, frenet in zip(grid, report.residual_direct,
                                 report.residual_frenet):
        if math.isnan(frenet):
            with pytest.raises((GeodesicDegenerateError,
                                NullNormalDegenerateError)):
                point_data(curve, s)
            if math.isnan(direct):
                with pytest.raises(HHCurvesError):
                    direct_tau(curve, s)
                continue
        else:
            assert math.isfinite(frenet), (curve, s, frenet)
        assert math.isfinite(direct), (curve, s, direct)
    assert all(map(math.isfinite, report.condition_values.values()))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(st.data())
def test_frenet_routes_over_a_grid(data):
    curve = data.draw(st.sampled_from(CURVES), label="curve")
    start = data.draw(_frenet_parameters(curve), label="start")
    step = data.draw(st.sampled_from([1e-3, 0.05, 1.0, 40.0]), label="step")
    grid = [start + k * step for k in range(16)]
    _finite_or_library_error(frenet_over_grid, curve, grid)
    _finite_or_library_error(residual_norms, curve, grid)
    try:
        report = check_biharmonic_conditions(curve, grid)
    except HHCurvesError:
        return
    _check_report(curve, grid, report)


REALS = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, -1e-300, 400.0, -400.0,
                     800.0, -800.0, 1e300, -1e300, math.inf, -math.inf,
                     math.nan]),
)
BRANCHES = st.sampled_from([1, -1])
OFFSETS = st.tuples(REALS, REALS, REALS)
PAIRS = st.tuples(REALS, REALS)

MAKERS = {
    "spacelike": st.builds(make_spacelike_biharmonic, REALS, BRANCHES, REALS,
                           OFFSETS, st.booleans()),
    "timelike": st.builds(make_timelike_biharmonic, REALS, BRANCHES, REALS,
                          OFFSETS, st.booleans()),
    "horizontal": st.builds(make_spacelike_horizontal, BRANCHES, REALS,
                            OFFSETS, st.booleans()),
    "flat": st.builds(make_timelike_horizontal_helix, REALS, OFFSETS),
    "helix": st.builds(make_helix,
                       st.sampled_from(["spacelike", "timelike",
                                        "timelike-flat"]),
                       REALS, st.one_of(REALS, PAIRS), REALS),
    "b3zero-linear": st.builds(make_b3zero_linear,
                               st.sampled_from(["spacelike", "timelike"]),
                               REALS, REALS, PAIRS),
    "b3zero-sine": st.builds(
        lambda kind, p, q, w, s_range: make_b3zero_curve(
            kind, sine_profile(p, q, w), s_range),
        st.sampled_from(["spacelike", "timelike"]), REALS, REALS,
        st.floats(-20.0, 20.0), PAIRS),
    "b3zero-value": st.builds(
        lambda kind, p, q, s_range: make_b3zero_curve(
            kind, lambda s: linear_profile(p, q)(s)[0], s_range),
        st.sampled_from(["spacelike", "timelike"]), REALS, REALS, PAIRS),
    "geodesic": st.builds(make_geodesic, OFFSETS),
}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_makers_and_their_curves(data):
    name = data.draw(st.sampled_from(sorted(MAKERS)), label="maker")
    try:
        curve = data.draw(MAKERS[name], label="curve")
    except HHCurvesError:
        return
    s = data.draw(st.sampled_from([0.0, 0.3, -1.0, 2.5]), label="s")
    for call in (curve.tangent, curve.tangent_jets):
        _finite_or_library_error(call, s)
    for call in (point_data, compute_frenet, direct_tau):
        _finite_or_library_error(call, curve, s)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from(["spacelike", "timelike", "horizontal",
                        "spacelike-horizontal", "timelike-horizontal-helix",
                        "b3zero-spacelike", "geodesic", "diagonal"]),
       REALS)
def test_solve_slope(kind, shape):
    _finite_or_library_error(solve_slope, kind, shape)


FRAME_CURVES = CURVES[6:11]  # every make_helix kind and both b3zero kinds


def _integrated_points(curve, start, s_range, step):
    return integrate_frame_curve(curve, start, s_range, step).samples.points


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_integrate_frame_curve(data):
    curve = data.draw(st.sampled_from(FRAME_CURVES), label="curve")
    start = data.draw(OFFSETS, label="start")
    s0, s1 = sorted(data.draw(PAIRS, label="s_range"))
    step = abs(data.draw(REALS, label="step"))
    # at most a few hundred steps: the range split n ways, and n steps
    n = data.draw(st.integers(1, 300), label="n")
    for s_range, h in (((s0, s1), (s1 - s0) / n), ((s0, s0 + n * step), step)):
        _finite_or_library_error(_integrated_points, curve, start, s_range, h)
    # a step that splits the range into more nodes than the cap
    count = data.draw(st.one_of(st.integers(_MAX_GRID_NODES, 10**7),
                                st.floats(1e7, 1e300)), label="count")
    with pytest.raises(HHCurvesError):
        integrate_frame_curve(curve, start, (s0, s1), (s1 - s0) / count)
