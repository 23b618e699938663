"""Property test of the curve evaluators at the edges of the doubles.

On a fixed member of every family maker, each call of ``point``,
``tangent``, ``derivative`` (every order), ``tangent_jets`` and, on a helix,
its spec's ``derivative`` must return finite values or raise an
:class:`HHCurvesError`. The parameter is drawn from ±0, subnormals, ±1e-300,
[-1e4, 1e4] and, on a helix, the band |u| in [700, 711] around where cosh
leaves the doubles.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hhcurves import (
    CoordinateCurve,
    HHCurvesError,
    make_b3zero_linear,
    make_geodesic,
    make_helix,
    make_spacelike_biharmonic,
    make_spacelike_horizontal,
    make_timelike_biharmonic,
    make_timelike_horizontal_helix,
)

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
