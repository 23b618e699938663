"""Closed-form curve families.

The proper-biharmonic families and their degenerate/horizontal relatives all
have tangents of hyperbolic-helix form, so the generators attach a
:class:`~hhcurves.curves.HelixSpec` and the evaluation layers dispatch to the
double-double kernel. The biharmonicity slope is the root of a quadratic in
the slope ``a``::

    a² − 2·a·tilt − 4·amp² = 0        (tangent form (amp·cosh, amp·sinh, tilt))

solved here in double-double arithmetic so generated curves sit on the root
to ~31 digits. ``as_printed=True`` substitutes the historically published
slope constants instead (``√(5·sinh²α₀ + 1)``-style discriminants, slope ±1
for the horizontal case); those curves are generated faithfully and fail the
biharmonicity test — the verifier reports them as refuted.

Families:

* spacelike proper-biharmonic helices, shape parameter α₀ (tilt sinh α₀);
* timelike proper-biharmonic helices, shape parameter ν₀ ≠ 0 (tilt cosh ν₀);
* the horizontal spacelike family (α₀ = 0, corrected slope ±2);
* flat timelike helices ``T = (sinh ms, cosh ms, 0)`` (never biharmonic);
* torsion-only curves with vanishing binormal third component (``b3zero``),
  driven by a profile α(s), with ``β' = 2·sinh α`` (spacelike) or
  ``2·cosh α`` (timelike);
* straight-line geodesics.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

from hhcurves._kernels import pure as _ddmath
from hhcurves.curves import (
    CoordinateCurve,
    FDConfig,
    FrameCurve,
    HelixSpec,
    fd_derivative,
)
from hhcurves.errors import DegenerateGeodesicError, InvalidInputError

__all__ = [
    "FamilyKind",
    "solve_slope",
    "make_spacelike_biharmonic",
    "make_timelike_biharmonic",
    "make_spacelike_horizontal",
    "make_b3zero_curve",
    "make_b3zero_linear",
    "make_timelike_horizontal_helix",
    "make_helix",
    "make_geodesic",
    "linear_profile",
    "sine_profile",
]


class FamilyKind(Enum):
    SPACELIKE_BIHARMONIC = "spacelike"
    TIMELIKE_BIHARMONIC = "timelike"
    SPACELIKE_HORIZONTAL = "spacelike-horizontal"
    B3ZERO_SPACELIKE = "b3zero-spacelike"
    B3ZERO_TIMELIKE = "b3zero-timelike"
    TIMELIKE_HORIZONTAL_HELIX = "timelike-horizontal-helix"
    GEODESIC = "geodesic"


_KIND_ALIASES = {"horizontal": FamilyKind.SPACELIKE_HORIZONTAL}


def _coerce_kind(kind):
    if isinstance(kind, FamilyKind):
        return kind
    name = str(kind)
    if name in _KIND_ALIASES:
        return _KIND_ALIASES[name]
    try:
        return FamilyKind(name)
    except ValueError as exc:
        raise InvalidInputError("unknown family kind %r" % (kind,)) from exc


# Spellings of the two slope-quadratic roots (the CLI's --branch values)
_BRANCHES = {
    "+": 1, "plus": 1, "+1": 1, "1": 1, "-": -1, "minus": -1, "-1": -1,
}


def _coerce_branch(branch):
    if branch in (1, -1):
        return int(branch)
    if isinstance(branch, str) and branch in _BRANCHES:
        return _BRANCHES[branch]
    raise InvalidInputError("branch must be +1 or -1, got %r" % (branch,))


# ---------------------------------------------------------------------------
# Slope quadratic
# ---------------------------------------------------------------------------


def _slope_roots_dd(amp, tilt):
    """Double-double roots of a² − 2·a·tilt − 4·amp² = 0: tilt ± √(tilt²+4·amp²)."""
    DD = _ddmath.DD
    disc = DD(*_ddmath._two_prod(tilt, tilt)) + DD(
        *_ddmath._two_prod(2.0 * amp, 2.0 * amp)
    )
    root = _ddmath.dd_sqrt(disc)
    plus = DD(tilt) + root
    minus = DD(tilt) - root
    return (plus.hi, plus.lo), (minus.hi, minus.lo)


def solve_slope(kind, shape):
    """Both slope roots of the biharmonicity quadratic for a family.

    Returns ``(root_plus, root_minus)`` as floats. For the spacelike family
    (and the horizontal case, shape = 0) the quadratic is
    ``a² − 2·a·sinh(shape) − 4·cosh²(shape)``; for the timelike family it is
    ``a² − 2·a·cosh(shape) − 4·sinh²(shape)`` (shape ≠ 0; at shape = 0 the
    roots collapse to 2 and 0 and the family degenerates). Raises
    :class:`InvalidInputError` for kinds without a biharmonicity slope.
    """
    kind = _coerce_kind(kind)
    if kind in (FamilyKind.SPACELIKE_BIHARMONIC, FamilyKind.SPACELIKE_HORIZONTAL):
        amp, tilt = math.cosh(shape), math.sinh(shape)
    elif kind == FamilyKind.TIMELIKE_BIHARMONIC:
        amp, tilt = math.sinh(shape), math.cosh(shape)
    elif kind == FamilyKind.TIMELIKE_HORIZONTAL_HELIX:
        raise InvalidInputError(
            "flat timelike helices admit no biharmonic slope "
            "(the closure identity is infeasible)"
        )
    else:
        raise InvalidInputError("no slope quadratic for family %r" % (kind.value,))
    plus, minus = _slope_roots_dd(amp, tilt)
    return plus[0], minus[0]


def _printed_slope(kind, shape, branch):
    """Historically published slope constants (known-bad discriminants)."""
    if kind == FamilyKind.SPACELIKE_BIHARMONIC:
        k = math.sinh(shape)
        return k + branch * math.sqrt(5.0 * k * k + 1.0)
    c = math.cosh(shape)
    return c + branch * math.sqrt(5.0 * c * c - 1.0)


# ---------------------------------------------------------------------------
# Helix-form builders
# ---------------------------------------------------------------------------


def _dm_cosh(u, a, m):
    return a ** m * (math.cosh(u) if m % 2 == 0 else math.sinh(u))


def _dm_sinh(u, a, m):
    return a ** m * (math.sinh(u) if m % 2 == 0 else math.cosh(u))


def _helix_frame_curve(form, amp, tilt, slope_dd, phase):
    spec = HelixSpec(form, amp, tilt, slope_dd[0], slope_dd[1], phase)
    a = slope_dd[0]

    def derivative(s, order):
        u = a * s + phase
        f = amp * a ** order
        c, sh = math.cosh(u), math.sinh(u)
        if (order % 2 == 1) == (form == 0):
            return (f * sh, f * c, 0.0)
        return (f * c, f * sh, 0.0)

    return FrameCurve(spec.tangent, derivative=derivative, helix=spec)


def _helix_coordinate_curve(form, amp, tilt, slope_dd, phase, offsets):
    spec = HelixSpec(form, amp, tilt, slope_dd[0], slope_dd[1], phase)
    a = slope_dd[0]
    if a == 0.0:
        raise DegenerateGeodesicError(
            "slope 0 does not integrate to the closed coordinate form"
        )
    c1, c2, c3 = (float(offsets[0]), float(offsets[1]), float(offsets[2]))
    ra = amp / a
    p_coef = 2.0 * c1 * amp / a
    q_coef = 2.0 * c2 * amp / a
    if form == 0:
        lin = 2.0 * (tilt - amp * amp / a)
    else:
        lin = 2.0 * (tilt + amp * amp / a)

    def position(s):
        u = a * s + phase
        ch, sh = math.cosh(u), math.sinh(u)
        if form == 0:
            return (
                ra * sh + c1,
                ra * ch + c2,
                lin * s + p_coef * ch - q_coef * sh + c3,
            )
        return (
            ra * ch + c1,
            ra * sh + c2,
            lin * s + p_coef * sh - q_coef * ch + c3,
        )

    def derivative(s, order):
        u = a * s + phase
        if form == 0:
            x = ra * _dm_sinh(u, a, order)
            y = ra * _dm_cosh(u, a, order)
            z = p_coef * _dm_cosh(u, a, order) - q_coef * _dm_sinh(u, a, order)
        else:
            x = ra * _dm_cosh(u, a, order)
            y = ra * _dm_sinh(u, a, order)
            z = p_coef * _dm_sinh(u, a, order) - q_coef * _dm_cosh(u, a, order)
        if order == 1:
            z += lin
        return (x, y, z)

    return CoordinateCurve.from_functions(position, derivative=derivative,
                                          helix=spec)


def make_spacelike_biharmonic(alpha0, branch=1, phase=0.0,
                              offsets=(0.0, 0.0, 0.0), as_printed=False):
    """Spacelike proper-biharmonic helix with shape parameter α₀.

    Tangent ``(cosh α₀ · cosh u, cosh α₀ · sinh u, sinh α₀)`` with
    ``u = a·s + phase`` and ``a`` the chosen root of the slope quadratic.
    Returns an analytic :class:`CoordinateCurve` (the closed coordinate
    integral of the tangent, shifted by ``offsets``).
    """
    branch = _coerce_branch(branch)
    alpha0 = float(alpha0)
    amp, tilt = math.cosh(alpha0), math.sinh(alpha0)
    if as_printed:
        slope = (_printed_slope(FamilyKind.SPACELIKE_BIHARMONIC, alpha0, branch), 0.0)
    else:
        plus, minus = _slope_roots_dd(amp, tilt)
        slope = plus if branch == 1 else minus
    return _helix_coordinate_curve(0, amp, tilt, slope, float(phase), offsets)


def make_timelike_biharmonic(nu0, branch=1, phase=0.0,
                             offsets=(0.0, 0.0, 0.0), as_printed=False):
    """Timelike proper-biharmonic helix with shape parameter ν₀ ≠ 0.

    Tangent ``(sinh ν₀ · cosh u, sinh ν₀ · sinh u, cosh ν₀)``. At ν₀ = 0 the
    family collapses to a geodesic (zero curvature) and
    :class:`DegenerateGeodesicError` is raised.
    """
    branch = _coerce_branch(branch)
    nu0 = float(nu0)
    amp, tilt = math.sinh(nu0), math.cosh(nu0)
    if amp == 0.0:
        raise DegenerateGeodesicError(
            "the timelike biharmonic family degenerates to a geodesic at shape 0"
        )
    if as_printed:
        slope = (_printed_slope(FamilyKind.TIMELIKE_BIHARMONIC, nu0, branch), 0.0)
    else:
        plus, minus = _slope_roots_dd(amp, tilt)
        slope = plus if branch == 1 else minus
    return _helix_coordinate_curve(0, amp, tilt, slope, float(phase), offsets)


def make_spacelike_horizontal(branch=1, phase=0.0, offsets=(0.0, 0.0, 0.0),
                              as_printed=False):
    """Horizontal spacelike proper-biharmonic curve (the α₀ = 0 member).

    Corrected slope ±2; ``as_printed=True`` uses the published slope ±1,
    whose bitension residual is exactly 3 at s = 0 (zero phase).
    With zero phase and offsets the curve is
    ``(sinh(2s)/2, cosh(2s)/2, −s)``.
    """
    return make_spacelike_biharmonic(0.0, branch, phase, offsets, as_printed)


def make_timelike_horizontal_helix(m, offsets=(0.0, 0.0, 0.0)):
    """Flat timelike helix ``T = (sinh(m·s), cosh(m·s), 0)``.

    Coordinate-backed: the position is ``(cosh(m·s)/m + c1, sinh(m·s)/m +
    c2, …)``. Unit-speed timelike for every m; degenerates to a geodesic
    at m = 0 (raises). No member is biharmonic — the closure identity
    defect is m² + 4.
    """
    m = float(m)
    if m == 0.0:
        raise DegenerateGeodesicError(
            "the flat timelike helix is a geodesic at frequency 0"
        )
    return _helix_coordinate_curve(1, 1.0, 0.0, (m, 0.0), 0.0, offsets)


def make_helix(kind, tilt, slope, phase=0.0):
    """General constant-frame-angle helix as a :class:`FrameCurve`.

    ``kind``: ``"spacelike"`` gives tangent
    ``(cosh(tilt)·cosh u, cosh(tilt)·sinh u, sinh(tilt))``; ``"timelike"``
    gives ``(sinh(tilt)·cosh u, sinh(tilt)·sinh u, cosh(tilt))`` (tilt ≠ 0);
    ``"timelike-flat"`` gives ``(cos(tilt)·sinh u, cos(tilt)·cosh u,
    sin(tilt))`` — the flat-helix family that stays timelike with |T3| < 1.
    ``slope`` may be a float or an ``(hi, lo)`` pair.
    """
    tilt = float(tilt)
    if isinstance(slope, (tuple, list)):
        slope_dd = (float(slope[0]), float(slope[1]))
    else:
        slope_dd = (float(slope), 0.0)
    if kind == "spacelike":
        amp, t3 = math.cosh(tilt), math.sinh(tilt)
        form = 0
    elif kind == "timelike":
        amp, t3 = math.sinh(tilt), math.cosh(tilt)
        form = 0
        if amp == 0.0:
            raise DegenerateGeodesicError(
                "timelike helix with tilt 0 is a geodesic"
            )
    elif kind == "timelike-flat":
        amp, t3 = math.cos(tilt), math.sin(tilt)
        form = 1
    else:
        raise InvalidInputError("unknown helix kind %r" % (kind,))
    return _helix_frame_curve(form, amp, t3, slope_dd, float(phase))


# ---------------------------------------------------------------------------
# b3zero curves (vanishing binormal third component)
# ---------------------------------------------------------------------------


def linear_profile(p, q):
    """Profile α(s) = p + q·s as a jet callable (value and 3 derivatives)."""
    p = float(p)
    q = float(q)

    def jets(s):
        return (p + q * s, q, 0.0, 0.0)

    return jets


def sine_profile(p, q, w):
    """Profile α(s) = p + q·sin(w·s) as a jet callable."""
    p = float(p)
    q = float(q)
    w = float(w)

    def jets(s):
        ws = w * s
        return (
            p + q * math.sin(ws),
            q * w * math.cos(ws),
            -q * w * w * math.sin(ws),
            -q * w * w * w * math.cos(ws),
        )

    return jets


def _jets_hyperbolic(g):
    """cosh∘g and sinh∘g jets to order 3 from the jets of g."""
    c0, s0 = math.cosh(g[0]), math.sinh(g[0])
    g1, g2, g3 = g[1], g[2], g[3]
    ch = (
        c0,
        s0 * g1,
        c0 * g1 * g1 + s0 * g2,
        s0 * g1 * g1 * g1 + 3.0 * c0 * g1 * g2 + s0 * g3,
    )
    sh = (
        s0,
        c0 * g1,
        s0 * g1 * g1 + c0 * g2,
        c0 * g1 * g1 * g1 + 3.0 * s0 * g1 * g2 + c0 * g3,
    )
    return ch, sh


def _jets_mul(a, b):
    """Leibniz product jets to order 3."""
    return (
        a[0] * b[0],
        a[1] * b[0] + a[0] * b[1],
        a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2],
        a[3] * b[0] + 3.0 * a[2] * b[1] + 3.0 * a[1] * b[2] + a[0] * b[3],
    )


# Adaptive Gauss–Legendre quadrature for β. A panel is accepted when its
# 20-node and 10-node results agree to 1e-13·max(1, |panel|), and is split in
# two otherwise; an integral that needs more splits than this fails closed.
# sine_profile(0.5, 0.8, 100) over (0, 10), 160 periods, takes 500-1000.
_GL_TOL = 1e-13
_GL_MAX_SPLITS = 1000


@functools.cache
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss–Legendre rule on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(n)
    return tuple(zip(nodes.tolist(), weights.tolist()))


def _gl_panel(f, a, b, n):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * math.fsum(w * f(mid + half * x) for x, w in _gauss_legendre(n))


def _integrate(f, a, b):
    """∫ f from a to b by adaptive 20-node Gauss–Legendre panels.

    Raises :class:`InvalidInputError` when the panels do not settle within
    the split limit, as for a non-finite or unresolvable integrand.
    """
    parts = []
    panels = [(a, b)]
    splits = 0
    while panels:
        lo, hi = panels.pop()
        fine = _gl_panel(f, lo, hi, 20)
        if abs(fine - _gl_panel(f, lo, hi, 10)) <= _GL_TOL * max(1.0, abs(fine)):
            parts.append(fine)
            continue
        splits += 1
        if splits > _GL_MAX_SPLITS:
            raise InvalidInputError(
                "beta quadrature from %r to %r did not converge within %d "
                "panel splits" % (a, b, _GL_MAX_SPLITS)
            )
        mid = 0.5 * (lo + hi)
        panels += [(mid, hi), (lo, mid)]
    return math.fsum(parts)


def _b3zero_spacelike(kind):
    """Whether a b3zero kind is spacelike (else timelike); raises
    :class:`InvalidInputError` for any other kind."""
    kd = str(getattr(kind, "value", kind))
    if kd in ("b3zero-spacelike", "spacelike"):
        return True
    if kd in ("b3zero-timelike", "timelike"):
        return False
    raise InvalidInputError("unknown b3zero kind %r" % (kind,))


def make_b3zero_curve(kind, alpha, s_range, beta=None):
    """Unit-speed curve with identically vanishing binormal third component.

    ``kind`` is ``"b3zero-spacelike"`` (tangent
    ``(cosh α cosh β, cosh α sinh β, sinh α)`` with ``β' = 2 sinh α``) or
    ``"b3zero-timelike"`` (``(sinh α cosh β, sinh α sinh β, cosh α)`` with
    ``β' = 2 cosh α``); plain ``"spacelike"``/``"timelike"`` are accepted.

    ``alpha`` is a profile callable: either ``alpha(s) → (α, α', α'', α''')``
    (see :func:`linear_profile` / :func:`sine_profile`) or a plain value
    callable, in which case the tangent's derivatives are finite-differenced.
    ``beta`` optionally supplies a closed-form antiderivative ``β(s)`` with
    ``β(s_range[0]) = 0``. By default β is integrated from ``s_range[0]`` by
    adaptive Gauss–Legendre quadrature: 20-node panels, each split in two
    until it agrees with the 10-node rule to ``1e-13·max(1, |panel|)``. The
    curve keeps the β of its latest argument, so the tangent and its three
    derivatives at one point share one integral. An integral that does not
    settle within a fixed number of splits raises :class:`InvalidInputError`
    when the tangent is evaluated.

    A profile with α' ≡ 0 on the range gives a curve of vanishing curvature;
    that degenerate request raises :class:`DegenerateGeodesicError`.

    Conditioning: β is anchored to 0 at ``s_range[0]`` and the tangent
    components grow like cosh β, so the unit-speed identity holds in double
    precision only to about ``cosh²β · 2e-16``. In the timelike case β drifts
    at rate |β'| = 2·cosh α ≥ 2; evaluate within a few units of the anchor
    (|β| ≲ 8) for 1e-9-grade results.
    """
    spacelike = _b3zero_spacelike(kind)
    try:
        s0, s1 = float(s_range[0]), float(s_range[1])
    except (TypeError, IndexError, ValueError) as exc:
        raise InvalidInputError("s_range must be a pair of reals") from exc
    if not (math.isfinite(s0) and math.isfinite(s1) and s1 > s0):
        raise InvalidInputError("invalid s_range %r" % (s_range,))

    analytic = not isinstance(alpha(s0), (int, float))
    if analytic:
        value = lambda s: alpha(s)[0]
        slope = lambda s: alpha(s)[1]
    else:
        value = alpha
        slope = lambda s: fd_derivative(lambda t: (alpha(t),), s, 1, FDConfig())[0]

    # reject profiles that degenerate to a geodesic (zero curvature)
    n_chk = 33
    max_a1 = max(abs(slope(s0 + (s1 - s0) * i / (n_chk - 1))) for i in range(n_chk))
    if max_a1 <= 1e-12:
        raise DegenerateGeodesicError(
            "profile has vanishing derivative on the range: "
            "the curve would be a geodesic"
        )

    if beta is None:
        generator = math.sinh if spacelike else math.cosh
        integrand = lambda sig: 2.0 * generator(value(sig))
        last = (None, None)  # the key and β of the latest argument

        def beta(s):
            # tangent_jets asks for β at one s up to four times: integrate
            # once. The key tells -0.0 from 0.0, whose β may differ in sign.
            nonlocal last
            key = (s, math.copysign(1.0, s))
            memo = last
            if memo[0] != key:
                memo = last = (key, _integrate(integrand, s0, s))
            return memo[1]

    def tangent(s):
        s = float(s)
        a, b = value(s), beta(s)
        radial, axial = ((math.cosh(a), math.sinh(a)) if spacelike
                         else (math.sinh(a), math.cosh(a)))
        return (radial * math.cosh(b), radial * math.sinh(b), axial)

    def derivative(s, order):
        s = float(s)
        ach, ash = _jets_hyperbolic(alpha(s))
        if spacelike:
            radial, axial = ach, ash
        else:
            radial, axial = ash, ach
        # β' = 2·(axial component of T3's generator): jets shift by one order
        bj = (beta(s), 2.0 * axial[0], 2.0 * axial[1], 2.0 * axial[2])
        bch, bsh = _jets_hyperbolic(bj)
        return (_jets_mul(radial, bch)[order], _jets_mul(radial, bsh)[order],
                axial[order])

    curve = FrameCurve(tangent, derivative=derivative if analytic else None)
    curve.b3zero_kind = "spacelike" if spacelike else "timelike"
    curve.s_range = (s0, s1)
    return curve


def make_b3zero_linear(kind, p, q, s_range):
    """b3zero curve with profile α = p + q·s and the closed-form β.

    For the linear profile the β antiderivative is elementary:
    ``β = (2/q)·(cosh(p+q·s) − cosh(p+q·s₀))`` in the spacelike case and the
    same with ``sinh`` in the timelike case, avoiding quadrature entirely.
    ``q = 0`` would give a curve of vanishing curvature and raises
    :class:`DegenerateGeodesicError`.
    """
    p = float(p)
    q = float(q)
    if q == 0.0:
        raise DegenerateGeodesicError(
            "a constant profile gives a curve of vanishing curvature"
        )
    try:
        s0 = float(s_range[0])
    except (TypeError, IndexError, ValueError) as exc:
        raise InvalidInputError("s_range must be a pair of reals") from exc
    antiderivative = math.cosh if _b3zero_spacelike(kind) else math.sinh
    beta = lambda s: (2.0 / q) * (antiderivative(p + q * s)
                                  - antiderivative(p + q * s0))
    return make_b3zero_curve(kind, linear_profile(p, q), s_range, beta=beta)


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------


def make_geodesic(direction=(0.0, 0.0, 1.0)):
    """Straight-line geodesic through the origin with constant frame tangent.

    ``direction`` must be unit (|inner(d, d)| = 1) with vanishing
    self-acceleration Γ(d, d) = 0 — i.e. either purely vertical or purely
    planar. Coordinates: ``(d1·s, d2·s, 2·d3·s)``.
    """
    d = tuple(float(c) for c in direction)
    if len(d) != 3 or not all(math.isfinite(c) for c in d):
        raise InvalidInputError("direction must be a finite 3-vector")
    g = d[0] * d[0] - d[1] * d[1] - d[2] * d[2]
    if abs(abs(g) - 1.0) > 1e-12:
        raise InvalidInputError(
            "direction must be unit under the frame metric, |inner| = %r"
            % (abs(g),)
        )
    gamma_sq = (-2.0 * d[1] * d[2], -2.0 * d[0] * d[2], 0.0)
    if max(abs(c) for c in gamma_sq) > 1e-12:
        raise InvalidInputError(
            "direction %r does not generate a geodesic (Γ(d, d) ≠ 0)" % (d,)
        )

    def position(s):
        return (d[0] * s, d[1] * s, 2.0 * d[2] * s)

    def derivative(s, order):
        if order == 1:
            return (d[0], d[1], 2.0 * d[2])
        return (0.0, 0.0, 0.0)

    return CoordinateCurve.from_functions(position, derivative=derivative)
