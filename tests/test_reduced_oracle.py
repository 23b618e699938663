"""b3zero curves against their reduced jets (``tests/reduced.py``).

A b3zero curve's tangent is a boost ``B(β)`` of a vector of size one, so
its k1, k2, signs, N3 and B3 follow from the reduced jets, and its frame
vectors are the reduced ones mapped by ``B(β)``. The library evaluates the
fixed-frame jets, whose terms grow like ``cosh β`` and cancel; this test
pins how far ``compute_frenet`` lies from the reduced route, at the points
of each member where it passes its unit-speed gate: k1 and k2 relative to
``max(1, |value|)``, N3 and B3 absolutely, each frame component relative to
``max(1, |component|)``, and the signs exactly. It also pins the reduced
route's own ``k2² = 1`` and ``B3 = 0``. Each pin is about twice the largest
value measured when the test was written (Python 3.11, x86-64); the library's
gaps grow with β, to about 1e-6 at β = 7.5.

β comes from its closed form for the linear profiles and from mpmath's
quadrature at 30 digits for the sine profiles.
"""

import math

import pytest

from reduced import reduced_record
from hhcurves import UnitSpeedError, compute_frenet
from hhcurves.families import (
    linear_profile,
    make_b3zero_curve,
    make_b3zero_linear,
    sine_profile,
)

mpmath = pytest.importorskip("mpmath")

POINTS = 61


def _linear(kind, p, q, s_range):
    antiderivative = math.cosh if kind == "spacelike" else math.sinh
    s0 = s_range[0]

    def beta(s):
        return (2.0 / q) * (antiderivative(p + q * s)
                            - antiderivative(p + q * s0))

    return (make_b3zero_linear(kind, p, q, s_range), linear_profile(p, q),
            beta)


def _sine(kind, p, q, w, s_range):
    generator = mpmath.sinh if kind == "spacelike" else mpmath.cosh

    def beta(s):
        with mpmath.workdps(30):
            return float(mpmath.quad(
                lambda t: 2 * generator(p + q * mpmath.sin(w * t)),
                [s_range[0], s]))

    return (make_b3zero_curve(kind, sine_profile(p, q, w), s_range),
            sine_profile(p, q, w), beta)


# name: (kind, member, s_range, pins of k1, k2, N3, B3, the frame, and the
# reduced route's own |k2² - 1| and |B3|)
CASES = {
    "spacelike-linear": ("spacelike", (_linear, 0.4, 0.6), (0.0, 3.0),
                         (1.8e-8, 2.0e-6, 2.1e-8, 4.5e-8, 2.2e-6,
                          2.9e-12, 1.5e-12)),
    "spacelike-linear-falling": ("spacelike", (_linear, -0.3, -0.5),
                                 (-1.0, 2.0),
                                 (3.0e-12, 8.6e-11, 3.4e-12, 6.2e-12,
                                  2.0e-9, 4.6e-14, 2.2e-14)),
    "spacelike-sine": ("spacelike", (_sine, 0.5, 0.8, 2.0), (0.0, 3.0),
                       (4.0e-13, 6.4e-10, 1.2e-12, 4.2e-12, 6.6e-10,
                        5.9e-12, 4.5e-14)),
    "timelike-linear": ("timelike", (_linear, 0.4, 0.6), (0.0, 3.0),
                        (7.6e-9, 5.4e-7, 1.3e-8, 5.5e-8, 5.4e-7,
                         3.0e-12, 1.5e-12)),
    "timelike-linear-falling": ("timelike", (_linear, -0.3, -0.5),
                                (-1.0, 2.0),
                                (4.2e-9, 1.5e-7, 2.2e-9, 2.0e-8, 1.5e-7,
                                 4.1e-14, 1.9e-14)),
    "timelike-sine": ("timelike", (_sine, 0.5, 0.8, 2.0), (0.0, 3.0),
                      (7.3e-10, 2.6e-7, 4.1e-10, 4.5e-10, 2.6e-7,
                       5.9e-12, 3.9e-14)),
}


LABELS = ("k1", "k2", "n3", "b3", "frame", "own k2^2 - 1", "own b3")


def _gaps(kind, member, s_range):
    """The largest gap of each of ``LABELS`` over the member's points, and
    the number of points the library evaluated."""
    make, *params = member
    curve, alpha, beta = make(kind, *params, s_range)
    s0, s1 = s_range
    gaps = dict.fromkeys(LABELS, 0.0)

    def widen(label, gap):
        gaps[label] = max(gaps[label], gap)

    evaluated = 0
    for i in range(POINTS):
        s = s0 + (s1 - s0) * i / (POINTS - 1)
        fixed, own = reduced_record(kind, alpha(s), beta(s))
        widen("own k2^2 - 1", abs(own.k2 * own.k2 - 1.0))
        widen("own b3", abs(own.b3))
        try:
            lib = compute_frenet(curve, s)
        except UnitSpeedError:
            continue
        evaluated += 1
        assert (lib.eps1, lib.eps2, lib.eps3) == (
            fixed.eps1, fixed.eps2, fixed.eps3), s
        for label in ("k1", "k2"):
            want = getattr(fixed, label)
            widen(label, abs(getattr(lib, label) - want) / max(1.0, abs(want)))
        widen("n3", abs(lib.n3 - fixed.n3))
        widen("b3", abs(lib.b3 - fixed.b3))
        for got, want in zip(lib[8:], fixed[8:]):
            widen("frame", abs(got - want) / max(1.0, abs(want)))
    return gaps, evaluated


@pytest.mark.parametrize("name", list(CASES))
def test_library_against_the_reduced_route(name):
    kind, member, s_range, pins = CASES[name]
    gaps, evaluated = _gaps(kind, member, s_range)
    assert evaluated >= POINTS // 2
    for label, pin in zip(LABELS, pins):
        assert gaps[label] <= pin, (label, gaps[label], pin)
