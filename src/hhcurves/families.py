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

import math
from enum import Enum

from hhcurves._kernels import DD, _two_prod, dd_sqrt
from hhcurves.curves import (
    CoordinateCurve,
    FDConfig,
    FrameCurve,
    HelixSpec,
    _built,
    _s_range,
    fd_derivative,
)
from hhcurves.errors import (
    DegenerateGeodesicError,
    InvalidInputError,
    NumericOverflowError,
)

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
    disc = DD(*_two_prod(tilt, tilt)) + DD(*_two_prod(2.0 * amp, 2.0 * amp))
    root = dd_sqrt(disc)
    plus = DD(tilt) + root
    minus = DD(tilt) - root
    return (plus.hi, plus.lo), (minus.hi, minus.lo)


# Each make_helix kind: the (amp, tilt) of its tangent as functions of the
# tilt parameter, and its HelixSpec form.
_HELIX_KINDS = {
    "spacelike": ((math.cosh, math.sinh), 0),
    "timelike": ((math.sinh, math.cosh), 0),
    "timelike-flat": ((math.cos, math.sin), 1),
}

# The tangent (amp·cosh u, amp·sinh u, tilt) of each family with a
# biharmonicity slope: (amp, tilt) as functions of its shape parameter.
_AMP_TILT = {
    FamilyKind.SPACELIKE_BIHARMONIC: _HELIX_KINDS["spacelike"][0],
    FamilyKind.SPACELIKE_HORIZONTAL: _HELIX_KINDS["spacelike"][0],
    FamilyKind.TIMELIKE_BIHARMONIC: _HELIX_KINDS["timelike"][0],
}


def _amp_tilt(functions, shape):
    """``(amp, tilt)`` at ``shape`` from a row of the tables above; raises
    :class:`NumericOverflowError` when either is past the doubles, and
    :class:`InvalidInputError` where cos or sin has no value (shape ±inf)."""
    try:
        return tuple(f(shape) for f in functions)
    except OverflowError as exc:
        raise NumericOverflowError(str(exc)) from exc
    except ValueError as exc:  # cos or sin of ±inf
        raise InvalidInputError(
            "family shape must be finite, got %r" % (shape,)) from exc


def solve_slope(kind, shape):
    """Both slope roots of the biharmonicity quadratic for a family.

    Returns ``(root_plus, root_minus)`` as floats. For the spacelike family
    (and the horizontal case, shape = 0) the quadratic is
    ``a² − 2·a·sinh(shape) − 4·cosh²(shape)``; for the timelike family it is
    ``a² − 2·a·cosh(shape) − 4·sinh²(shape)`` (shape ≠ 0; at shape = 0 the
    roots collapse to 2 and 0 and the family degenerates). Raises
    :class:`InvalidInputError` for kinds without a biharmonicity slope and
    for a shape that is not finite, and :class:`NumericOverflowError` for
    one whose quadratic leaves the doubles (|shape| above about 354).
    """
    kind = _coerce_kind(kind)
    if kind == FamilyKind.TIMELIKE_HORIZONTAL_HELIX:
        raise InvalidInputError(
            "flat timelike helices admit no biharmonic slope "
            "(the closure identity is infeasible)"
        )
    if kind not in _AMP_TILT:
        raise InvalidInputError("no slope quadratic for family %r" % (kind.value,))
    if not math.isfinite(shape):
        raise InvalidInputError("family shape must be finite, got %r" % (shape,))
    amp, tilt = _amp_tilt(_AMP_TILT[kind], shape)
    plus, minus = _slope_roots_dd(amp, tilt)
    if not (math.isfinite(plus[0]) and math.isfinite(minus[0])):
        raise NumericOverflowError(
            "the slope quadratic at shape %r overflows" % (shape,))
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


# Each helix form: the (even, odd) functions of u its coordinates take, and
# the sign of amp²/a in the drift of z
_FORMS = {0: (math.cosh, math.sinh, -1.0), 1: (math.sinh, math.cosh, 1.0)}


def _dm(u, a, m, pair):
    """The m-th derivative in s of ``pair[0](u)``, u = a·s + b, for the
    pair (cosh, sinh) or (sinh, cosh)."""
    return a ** m * pair[m % 2](u)


def _helix_frame_curve(form, amp, tilt, slope_dd, phase):
    spec = HelixSpec(form, amp, tilt, slope_dd[0], slope_dd[1], phase)
    return _built(FrameCurve, spec.tangent, spec.derivative, helix=spec)


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
    even, odd, sign = _FORMS[form]
    lin = 2.0 * (tilt + sign * (amp * amp / a))

    # cosh and sinh past the doubles raise NumericOverflowError, with the
    # text of their OverflowError, as _amp_tilt does
    def position(s):
        u = a * s + phase
        try:
            ev, od = even(u), odd(u)
        except OverflowError as exc:
            raise NumericOverflowError(str(exc)) from exc
        return (ra * od + c1, ra * ev + c2,
                lin * s + p_coef * ev - q_coef * od + c3)

    def derivative(s, order):
        u = a * s + phase
        try:
            ev = _dm(u, a, order, (even, odd))
            od = _dm(u, a, order, (odd, even))
        except OverflowError as exc:
            raise NumericOverflowError(str(exc)) from exc
        x, y, z = ra * od, ra * ev, p_coef * ev - q_coef * od
        if order == 1:
            z += lin
        return (x, y, z)

    return _built(CoordinateCurve, position, derivative, helix=spec)


def _biharmonic_member(kind, shape, branch, phase, offsets, as_printed):
    """The member of a biharmonic family (``kind`` a key of ``_AMP_TILT``)
    with the given shape, on the chosen slope root or the printed slope."""
    branch = _coerce_branch(branch)
    shape = float(shape)
    amp, tilt = _amp_tilt(_AMP_TILT[kind], shape)
    if amp == 0.0:  # only the timelike family, at shape 0
        raise DegenerateGeodesicError(
            "the timelike biharmonic family degenerates to a geodesic at shape 0"
        )
    if as_printed:
        slope = (_printed_slope(kind, shape, branch), 0.0)
    else:
        plus, minus = _slope_roots_dd(amp, tilt)
        slope = plus if branch == 1 else minus
    return _helix_coordinate_curve(0, amp, tilt, slope, float(phase), offsets)


def make_spacelike_biharmonic(alpha0, branch=1, phase=0.0,
                              offsets=(0.0, 0.0, 0.0), as_printed=False):
    """Spacelike proper-biharmonic helix with shape parameter α₀.

    Tangent ``(cosh α₀ · cosh u, cosh α₀ · sinh u, sinh α₀)`` with
    ``u = a·s + phase`` and ``a`` the chosen root of the slope quadratic.
    Returns an analytic :class:`CoordinateCurve` (the closed coordinate
    integral of the tangent, shifted by ``offsets``).
    """
    return _biharmonic_member(FamilyKind.SPACELIKE_BIHARMONIC, alpha0, branch,
                              phase, offsets, as_printed)


def make_timelike_biharmonic(nu0, branch=1, phase=0.0,
                             offsets=(0.0, 0.0, 0.0), as_printed=False):
    """Timelike proper-biharmonic helix with shape parameter ν₀ ≠ 0.

    Tangent ``(sinh ν₀ · cosh u, sinh ν₀ · sinh u, cosh ν₀)``. At ν₀ = 0 the
    family collapses to a geodesic (zero curvature) and
    :class:`DegenerateGeodesicError` is raised.
    """
    return _biharmonic_member(FamilyKind.TIMELIKE_BIHARMONIC, nu0, branch,
                              phase, offsets, as_printed)


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
    if not isinstance(kind, str) or kind not in _HELIX_KINDS:
        raise InvalidInputError("unknown helix kind %r" % (kind,))
    functions, form = _HELIX_KINDS[kind]
    amp, t3 = _amp_tilt(functions, tilt)
    if amp == 0.0:  # only the timelike kind, at tilt 0
        raise DegenerateGeodesicError("timelike helix with tilt 0 is a geodesic")
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


# (node, weight) pairs of the n-point Gauss–Legendre rules on [-1, 1]:
# NumPy 2.4's leggauss(10) and leggauss(20), written with repr. Those weights
# are off by up to 7e-14 relative (the nodes by under 1e-16); the values are
# kept as they are because every β, and so every output byte, depends on them.
_GL_RULES = {
    10: (
        (-0.9739065285171717, 0.06667134430868814),
        (-0.8650633666889845, 0.1494513491505804),
        (-0.6794095682990244, 0.219086362515982),
        (-0.4333953941292472, 0.2692667193099965),
        (-0.14887433898163122, 0.2955242247147528),
        (0.14887433898163122, 0.2955242247147528),
        (0.4333953941292472, 0.2692667193099965),
        (0.6794095682990244, 0.219086362515982),
        (0.8650633666889845, 0.1494513491505804),
        (0.9739065285171717, 0.06667134430868814),
    ),
    20: (
        (-0.993128599185095, 0.017614007139150893),
        (-0.9639719272779138, 0.040601429800386446),
        (-0.912234428251326, 0.06267204833410879),
        (-0.8391169718222188, 0.08327674157670471),
        (-0.7463319064601508, 0.1019301198172407),
        (-0.636053680726515, 0.1181945319615186),
        (-0.5108670019508271, 0.1316886384491769),
        (-0.37370608871541955, 0.1420961093183824),
        (-0.22778585114164507, 0.14917298647260424),
        (-0.07652652113349734, 0.15275338713072628),
        (0.07652652113349734, 0.15275338713072628),
        (0.22778585114164507, 0.14917298647260424),
        (0.37370608871541955, 0.1420961093183824),
        (0.5108670019508271, 0.1316886384491769),
        (0.636053680726515, 0.1181945319615186),
        (0.7463319064601508, 0.1019301198172407),
        (0.8391169718222188, 0.08327674157670471),
        (0.912234428251326, 0.06267204833410879),
        (0.9639719272779138, 0.040601429800386446),
        (0.993128599185095, 0.017614007139150893),
    ),
}


def _gl_panel(f, a, b, n):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * math.fsum(w * f(mid + half * x) for x, w in _GL_RULES[n])


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
    that degenerate request raises :class:`DegenerateGeodesicError`. Both
    tests probe α' at 33 evenly spaced points of the range, and a probe
    where it is not finite raises :class:`InvalidInputError`.

    Conditioning: β is anchored to 0 at ``s_range[0]`` and the tangent
    components grow like cosh β, so the unit-speed identity holds in double
    precision only to about ``cosh²β · 2e-16``. In the timelike case β drifts
    at rate |β'| = 2·cosh α ≥ 2; evaluate within a few units of the anchor
    (|β| ≲ 8) for 1e-9-grade results.
    """
    spacelike = _b3zero_spacelike(kind)
    s0, s1 = _s_range(s_range)

    analytic = not isinstance(alpha(s0), (int, float))
    if analytic:
        value = lambda s: alpha(s)[0]
        slope = lambda s: alpha(s)[1]
    else:
        value = alpha
        slope = lambda s: fd_derivative(lambda t: (alpha(t),), s, 1, FDConfig())[0]

    # reject profiles whose α' is not finite, or that degenerate to a
    # geodesic (zero curvature), at 33 probes
    probes = [s0 + (s1 - s0) * i / 32 for i in range(33)]
    slopes = [slope(s) for s in probes]
    for s, a1 in zip(probes, slopes):
        if not math.isfinite(a1):
            raise InvalidInputError(
                "profile slope alpha' at s=%r is not finite: %r" % (s, a1))
    if max(map(abs, slopes)) <= 1e-12:
        raise DegenerateGeodesicError(
            "profile has vanishing derivative on the range: "
            "the curve would be a geodesic"
        )

    if beta is None:
        generator = math.sinh if spacelike else math.cosh

        def integrand(sig):
            a = value(sig)
            try:
                return 2.0 * generator(a)
            except OverflowError as exc:
                raise NumericOverflowError(str(exc)) from exc

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

    # the profile and β are called outside each try, so that an exception of
    # a caller's own callable propagates unchanged; cosh and sinh past the
    # doubles raise NumericOverflowError with the text of their OverflowError
    def tangent(s):
        s = float(s)
        a, b = value(s), beta(s)
        try:
            radial, axial = ((math.cosh(a), math.sinh(a)) if spacelike
                             else (math.sinh(a), math.cosh(a)))
            return (radial * math.cosh(b), radial * math.sinh(b), axial)
        except OverflowError as exc:
            raise NumericOverflowError(str(exc)) from exc

    def derivative(s, order):
        s = float(s)
        profile, b = alpha(s), beta(s)
        try:
            ach, ash = _jets_hyperbolic(profile)
            if spacelike:
                radial, axial = ach, ash
            else:
                radial, axial = ash, ach
            # β' = 2·(axial component of T3's generator): jets shift by one
            bj = (b, 2.0 * axial[0], 2.0 * axial[1], 2.0 * axial[2])
            bch, bsh = _jets_hyperbolic(bj)
        except OverflowError as exc:
            raise NumericOverflowError(str(exc)) from exc
        return (_jets_mul(radial, bch)[order], _jets_mul(radial, bsh)[order],
                axial[order])

    return FrameCurve(tangent, derivative=derivative if analytic else None)


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
    s0 = _s_range(s_range)[0]
    antiderivative = math.cosh if _b3zero_spacelike(kind) else math.sinh

    def beta(s):
        try:
            return (2.0 / q) * (antiderivative(p + q * s)
                                - antiderivative(p + q * s0))
        except OverflowError as exc:
            raise NumericOverflowError(str(exc)) from exc

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
