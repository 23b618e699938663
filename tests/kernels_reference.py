"""Test helper: the scalar jet pipeline as it was written with ``_two_prod``.

These are the kernel bodies from before the split-once rewrite: every exact
product goes through ``_two_prod``, which splits both of its factors on each
call; and the finite-difference tangent jets, of FD-backed and of sampled
curves, take one stencil per derivative order through ``fd_derivative``,
a sampled curve finding its node for each. The library must give the same
values, signs of zero, non-finite results and raised exceptions, bit for
bit.
"""

import math
from bisect import bisect_left

from hhcurves.errors import (
    GeodesicDegenerateError,
    InvalidInputError,
    NullNormalDegenerateError,
    UnitSpeedError,
)

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _sign(v):
    return 1.0 if v > 0.0 else -1.0


def frame_products(fsum):
    """``inner`` and ``cross`` summed with ``fsum``."""

    def inner(x, y):
        p0, e0 = _two_prod(x[0], y[0])
        p1, e1 = _two_prod(x[1], y[1])
        p2, e2 = _two_prod(x[2], y[2])
        return fsum((p0, e0, -p1, -e1, -p2, -e2))

    def cross(x, y):
        p, e = _two_prod(x[1], y[2])
        q, f = _two_prod(x[2], y[1])
        c1 = fsum((-p, -e, q, f))
        p, e = _two_prod(x[0], y[2])
        q, f = _two_prod(x[2], y[0])
        c2 = fsum((-p, -e, q, f))
        p, e = _two_prod(x[0], y[1])
        q, f = _two_prod(x[1], y[0])
        c3 = fsum((p, e, -q, -f))
        return (c1, c2, c3)

    return inner, cross


inner, cross = frame_products(math.fsum)


def _gamma_terms(x, y):
    a, b = _two_prod(x[1], y[2])
    c, d = _two_prod(x[2], y[1])
    g1 = (-a, -b, -c, -d)
    a, b = _two_prod(x[0], y[2])
    c, d = _two_prod(x[2], y[0])
    g2 = (-a, -b, -c, -d)
    a, b = _two_prod(x[0], y[1])
    c, d = _two_prod(x[1], y[0])
    g3 = (a, b, -c, -d)
    return g1, g2, g3


def covd(t, v, vp):
    g1, g2, g3 = _gamma_terms(t, v)
    return (
        math.fsum((vp[0],) + g1),
        math.fsum((vp[1],) + g2),
        math.fsum((vp[2],) + g3),
    )


def curvature_op(x, y, z):
    a, b = _two_prod(x[0], y[1])
    c, d = _two_prod(x[1], y[0])
    p12 = math.fsum((a, b, -c, -d))
    a, b = _two_prod(x[0], y[2])
    c, d = _two_prod(x[2], y[0])
    p13 = math.fsum((a, b, -c, -d))
    a, b = _two_prod(x[1], y[2])
    c, d = _two_prod(x[2], y[1])
    p23 = math.fsum((a, b, -c, -d))

    a, b = _two_prod(3.0 * p12, z[1])
    c, d = _two_prod(p13, z[2])
    o1 = math.fsum((a, b, -c, -d))
    a, b = _two_prod(3.0 * p12, z[0])
    c, d = _two_prod(p23, z[2])
    o2 = math.fsum((a, b, -c, -d))
    a, b = _two_prod(p13, z[0])
    c, d = _two_prod(p23, z[1])
    o3 = math.fsum((-a, -b, c, d))
    return (o1, o2, o3)


def _scale2(terms):
    return tuple(2.0 * t for t in terms)


def chain_a1(jets):
    t0, t1, t2, t3 = jets
    g = _gamma_terms(t0, t0)
    a10 = tuple(math.fsum((t1[i],) + g[i]) for i in range(3))
    ga = _gamma_terms(t1, t0)
    gb = _gamma_terms(t0, t1)
    a11 = tuple(math.fsum((t2[i],) + ga[i] + gb[i]) for i in range(3))
    ga = _gamma_terms(t2, t0)
    gb = _gamma_terms(t1, t1)
    gc = _gamma_terms(t0, t2)
    a12 = tuple(
        math.fsum((t3[i],) + ga[i] + _scale2(gb[i]) + gc[i]) for i in range(3)
    )
    return a10, a11, a12


def chain_a3(jets, a10, a11, a12):
    t0, t1, _, _ = jets
    g = _gamma_terms(t0, a10)
    a20 = tuple(math.fsum((a11[i],) + g[i]) for i in range(3))
    ga = _gamma_terms(t1, a10)
    gb = _gamma_terms(t0, a11)
    a21 = tuple(math.fsum((a12[i],) + ga[i] + gb[i]) for i in range(3))
    g = _gamma_terms(t0, a20)
    return tuple(math.fsum((a21[i],) + g[i]) for i in range(3))


def bitension_direct_jets(jets):
    return _tau_direct(jets, chain_a1(jets))


def _tau_direct(jets, a1):
    a3 = chain_a3(jets, *a1)
    r = curvature_op(jets[0], a1[0], jets[0])
    return (a3[0] - r[0], a3[1] - r[1], a3[2] - r[2])


def project_unit_jets(jets, unit_tol):
    t0, t1, t2, t3 = jets
    g = inner(t0, t0)
    ag = abs(g)
    if not abs(ag - 1.0) <= unit_tol:
        raise UnitSpeedError(
            "curve is not unit-speed: |inner(T, T)| = %r differs from 1 "
            "beyond tolerance %r" % (ag, unit_tol)
        )
    eps1 = 1.0 if g > 0.0 else -1.0
    inv = 1.0 / math.sqrt(ag)
    t0 = tuple(c * inv for c in t0)
    t1 = tuple(c * inv for c in t1)
    t2 = tuple(c * inv for c in t2)
    t3 = tuple(c * inv for c in t3)
    c = eps1 * inner(t1, t0)
    t1 = tuple(t1[i] - c * t0[i] for i in range(3))
    c = eps1 * (inner(t2, t0) + inner(t1, t1))
    t2 = tuple(t2[i] - c * t0[i] for i in range(3))
    c = eps1 * (inner(t3, t0) + 3.0 * inner(t2, t1))
    t3 = tuple(t3[i] - c * t0[i] for i in range(3))
    return (t0, t1, t2, t3)


def frenet_jets(jets, geo_tol):
    return _frenet_chain(jets, chain_a1(jets), geo_tol)


def _frenet_chain(jets, a1, geo_tol):
    t0, t1, _, _ = jets
    a10, a11, a12 = a1
    if math.hypot(*a10) <= geo_tol:
        raise GeodesicDegenerateError(
            "curvature vanishes at this point (‖∇_T T‖ <= %r)" % (geo_tol,)
        )
    q0 = inner(a10, a10)
    if abs(q0) <= geo_tol * geo_tol:
        raise NullNormalDegenerateError(
            "acceleration is null at this point (inner(A, A) = %r)" % (q0,)
        )
    eps2 = _sign(q0)
    q1 = 2.0 * inner(a11, a10)
    q2 = 2.0 * inner(a12, a10) + 2.0 * inner(a11, a11)
    u0 = eps2 * q0
    u1 = eps2 * q1
    u2 = eps2 * q2
    k1 = math.sqrt(u0)
    k1p = u1 / (2.0 * k1)
    k1pp = (u2 - 2.0 * k1p * k1p) / (2.0 * k1)

    w0 = eps2 / k1
    w1 = -eps2 * k1p / u0
    w2 = eps2 * (2.0 * k1p * k1p / (u0 * k1) - k1pp / u0)
    n0 = tuple(w0 * a10[i] for i in range(3))
    n1 = tuple(w0 * a11[i] + w1 * a10[i] for i in range(3))
    n2 = tuple(w0 * a12[i] + 2.0 * w1 * a11[i] + w2 * a10[i] for i in range(3))

    b0 = cross(t0, n0)
    ca = cross(t1, n0)
    cb = cross(t0, n1)
    b1 = tuple(ca[i] + cb[i] for i in range(3))

    m0 = covd(t0, n0, n1)
    ga = _gamma_terms(t1, n0)
    gb = _gamma_terms(t0, n1)
    m1 = tuple(math.fsum((n2[i],) + ga[i] + gb[i]) for i in range(3))

    k2 = inner(m0, b0)
    k2p = inner(m1, b0) + inner(m0, b1)
    eps1 = _sign(inner(t0, t0))
    eps3 = _sign(inner(b0, b0))
    db = covd(t0, b0, b1)
    return (k1, k1p, k1pp, k2, k2p, eps1, eps2, eps3) + t0 + n0 + b0 + m0 + db


def _tau_from_frenet(fr):
    k1, k1p, k1pp, k2, k2p, e1, e2, e3 = fr[:8]
    t = fr[8:11]
    n = fr[11:14]
    b = fr[14:17]
    n3 = n[2]
    b3 = b[2]
    ct = -3.0 * k1 * k1p * e1 * e2
    cn = (
        k1pp * e2
        - k1 * k1 * k1 * e1
        - k1 * k2 * k2 * e3
        + k1 * e3
        + 4.0 * k1 * b3 * b3
    )
    cb = 2.0 * k1p * k2 * e2 * e3 + k1 * k2p * e2 * e3 - 4.0 * k1 * e2 * e3 * n3 * b3
    return tuple(ct * t[i] + cn * n[i] + cb * b[i] for i in range(3))


def point_eval(jets, geo_tol):
    a1 = chain_a1(jets)
    tau_d = _tau_direct(jets, a1)
    fr = _frenet_chain(jets, a1, geo_tol)
    return fr, tau_d, _tau_from_frenet(fr)


# --------------------------------------------------------------------------
# Finite-difference tangent jets, one stencil per derivative order
# --------------------------------------------------------------------------

_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def _fd_once(f, s, order, h):
    acc = None
    for off, w in _STENCILS[order]:
        vals = f(s + off * h)
        if acc is None:
            acc = [w * v for v in vals]
        else:
            for i, v in enumerate(vals):
                acc[i] += w * v
    scale = h ** order
    return tuple(a / scale for a in acc)


def fd_derivative(f, s, order, step):
    if order not in _STENCILS:
        raise InvalidInputError("derivative order must be 1..4, got %r" % (order,))
    d1 = _fd_once(f, s, order, step)
    d2 = _fd_once(f, s, order, step / 2.0)
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(d1, d2))


def _finite_jets(jets):
    for r, jet in enumerate(jets):
        if not all(math.isfinite(c) for c in jet):
            raise (UnitSpeedError if r == 0 else InvalidInputError)(
                "frame tangent jet of order %d is not finite: %r" % (r, jet)
            )
    return jets


def _tangent_from_coordinate_jets(pos, derivs):
    d = (pos,) + tuple(derivs)
    jets = []
    for r in range(4):
        acc = [d[r + 1][2] / 2.0]
        for j in range(r + 1):
            cjr = float(math.comb(r, j))
            acc.append(cjr * d[j + 1][0] * d[r - j][1])
            acc.append(-cjr * d[r - j][0] * d[j + 1][1])
        try:
            t3 = math.fsum(acc)
        except (ValueError, OverflowError):
            t3 = math.nan
        jets.append((d[r + 1][0], d[r + 1][1], t3))
    return _finite_jets(tuple(jets))


def coordinate_tangent_jets(position, s, step):
    """``tangent_jets`` of ``CoordinateCurve.from_functions(position)`` with
    finite differences of base step ``step``."""

    def point(t):
        return tuple(float(c) for c in position(t))

    pos = point(s)
    derivs = [fd_derivative(point, s, m, step) for m in (1, 2, 3, 4)]
    return _tangent_from_coordinate_jets(pos, derivs)


def _sample_node(s_values, s):
    # within 1e-9·max(1, |s|) of a node, and never a quarter spacing or more
    tol = min(1e-9 * max(1.0, abs(s)), 0.25 * (s_values[1] - s_values[0]))
    i = bisect_left(s_values, s - tol)
    if i >= len(s_values) or abs(s_values[i] - s) > tol:
        raise InvalidInputError(
            "sampled curves can only be evaluated at grid nodes; "
            "%r is not one" % (s,)
        )
    return i


def sampled_derivative(s_values, points, s, order):
    """``derivative(s, order)`` of ``CoordinateCurve.from_samples(s_values,
    points)``: the node's stencil over its neighbours at base step two
    spacings, taken at 0."""
    spacing = s_values[1] - s_values[0]
    i = _sample_node(s_values, s)
    lo, hi = 4, len(s_values) - 5
    if not lo <= i <= hi:
        raise InvalidInputError(
            "node %d too close to the boundary for stencil derivatives "
            "(valid interior is [%d, %d])" % (i, lo, hi)
        )
    offsets = {k * spacing: k for k in range(-4, 5)}
    return fd_derivative(lambda t: points[i + offsets[t]], 0.0, order,
                         2.0 * spacing)


def sampled_tangent_jets(s_values, points, s):
    """``tangent_jets`` of ``CoordinateCurve.from_samples(s_values, points)``:
    the node's point, then one stencil per derivative order, each finding
    the node again."""
    pos = points[_sample_node(s_values, s)]
    derivs = [sampled_derivative(s_values, points, s, m) for m in (1, 2, 3, 4)]
    return _tangent_from_coordinate_jets(pos, derivs)


def frame_tangent_jets(tangent, s, step):
    """``tangent_jets`` of ``FrameCurve(tangent)`` with finite differences of
    base step ``step``."""

    def tan(t):
        return tuple(float(c) for c in tangent(t))

    return _finite_jets((
        tan(s),
        fd_derivative(tan, s, 1, step),
        fd_derivative(tan, s, 2, step),
        fd_derivative(tan, s, 3, step),
    ))
