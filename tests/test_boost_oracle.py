"""A helix's Frenet record at s is its record at 0, boosted by B(a·s).

The tangent of a helix is ``B(u)`` applied to a constant vector, with
``u = a·s + phase``, ``a`` its slope and B the boost of
``tests/isometries.py``. B is an automorphism and an isometry, so k1, k2,
the signs, N3 and B3 do not depend on s, and T, N, B, ∇_T N and ∇_T B at s
are their values at s = 0 mapped by ``B(a·s)``.

Over |a·s| ≤ 10, on 401 points of each curve, through the grid kernel
(``evaluate_grid``) and the scalar kernel (``point_data``): the scalars
must equal their s = 0 values bit for bit, and each frame component must lie
within its curve's pin times ``max(1, |component|)`` of the boosted s = 0
value. Each pin is about twice the largest relative gap measured on the
curve when the test was written (Python 3.11, NumPy 2.4, x86-64).
"""

import pytest

from isometries import boost
from hhcurves.families import (
    make_helix,
    make_spacelike_biharmonic,
    make_spacelike_horizontal,
    make_timelike_biharmonic,
    make_timelike_horizontal_helix,
)
from hhcurves.frenet import evaluate_grid, point_data

# name: (curve, pin)
CURVES = {
    "spacelike+": (lambda: make_spacelike_biharmonic(0.5), 2.0e-15),
    "spacelike-": (lambda: make_spacelike_biharmonic(0.5, branch=-1,
                                                     phase=0.3), 2.8e-15),
    "timelike": (lambda: make_timelike_biharmonic(0.7), 2.4e-15),
    "horizontal": (make_spacelike_horizontal, 4.4e-16),
    "flat-timelike": (lambda: make_timelike_horizontal_helix(1.5), 1.5e-15),
    "helix-spacelike": (lambda: make_helix("spacelike", 0.4, 2.2), 2.1e-15),
    "helix-timelike": (lambda: make_helix("timelike", 0.6, -1.3, 0.5),
                       2.2e-15),
    "helix-flat": (lambda: make_helix("timelike-flat", 0.3, 1.1), 2.2e-15),
}
U_MAX = 10.0
POINTS = 401
SCALARS = ("k1", "k2", "n3", "b3", "eps1", "eps2", "eps3")
VECTORS = ("t", "n", "b", "m", "db")


def _grid(curve):
    a = curve.helix.slope_hi
    return [(-U_MAX + 2.0 * U_MAX * i / (POINTS - 1)) / a
            for i in range(POINTS)]


def _records(curve, grid, route):
    if route == "grid":
        return [res[0] for res in evaluate_grid(curve, grid)]
    return [point_data(curve, s)[0] for s in grid]


def _largest_gap(rec0, rec, u):
    """The largest gap, relative to max(1, |component|), between a frame
    component of ``rec`` and that of ``rec0`` boosted by B(u)."""
    image = boost(u)
    gap = 0.0
    for v in VECTORS:
        want = image(tuple(getattr(rec0, v + i) for i in "123"))
        got = (getattr(rec, v + i) for i in "123")
        gap = max([gap] + [abs(x - w) / max(1.0, abs(x))
                           for x, w in zip(got, want)])
    return gap


@pytest.mark.parametrize("route", ["grid", "scalar"])
@pytest.mark.parametrize("name", list(CURVES))
def test_record_is_the_boosted_record_at_zero(name, route):
    make, pin = CURVES[name]
    curve = make()
    a = curve.helix.slope_hi
    rec0 = point_data(curve, 0.0)[0]
    grid = _grid(curve)
    for s, rec in zip(grid, _records(curve, grid, route)):
        for field in SCALARS:
            assert getattr(rec, field) == getattr(rec0, field), (s, field)
        assert _largest_gap(rec0, rec, a * s) <= pin, s


@pytest.mark.xfail(strict=True, reason="the helix kernel cancels "
                   "cosh(u)^2-sized terms and loses k2's resolution past "
                   "u = 20")
def test_k2_keeps_its_value_at_u_26():
    curve = make_spacelike_biharmonic(0.5)
    k2_0 = point_data(curve, 0.0)[0].k2
    k2 = point_data(curve, 26.0 / curve.helix.slope_hi)[0].k2
    assert abs(k2 - k2_0) <= 1e-12 * abs(k2_0)
