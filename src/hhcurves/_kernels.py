"""The numerical kernels, in Python.

This module is the one implementation of the numerical hot paths; library
code calls the kernels through it, and :data:`BACKEND` names it. The jet
pipeline works on plain tuples of floats. Two kinds of code also run over
float64 arrays, one lane per point, with bit for bit the values of the
float form: ``helix_eval_grid`` runs the double-double helix code, and
:func:`array_ops` carries array forms of ``inner`` and ``cross``. The
helix code gets the operations whose two forms differ from a small table
(``_FloatOps`` / ``_ArrayOps``); ``inner`` and ``cross`` are written once
and built for each form around its ``fsum``: ``math.fsum``, or
:func:`_fsum_array`, which calls ``math.fsum`` on each lane. NumPy is
imported on first use, not at module import.

Two precision strategies coexist:

* the *generic double pipeline* (``point_eval`` and friends) evaluates the
  covariant jet chain in IEEE doubles with compensated bilinears — every
  inner-product / cross-product / connection slot is an exact two-product
  expansion summed with ``math.fsum`` — plus an optional unit-speed jet
  projection that makes the direct and Frenet-form bitension routes agree to
  machine precision for arbitrary jets. Each vector is split into Dekker
  halves once (:func:`_split`), and every exact product it enters is formed
  inline from those halves, where :func:`_two_prod` re-splits both factors
  on each call; ``point_eval`` shares the splits of the tangent jets and of
  ``∇_T T`` between both routes. Each ``fsum`` still gets the addends
  ``_two_prod`` gave, in the same order, so the results are the same bits;
* the *double-double helix path* (``helix_eval``) evaluates curves whose
  tangent is ``(A·cosh u, A·sinh u, K)`` or ``(A·sinh u, A·cosh u, K)`` with
  ``u = a·s + b`` in ~31-digit double-double arithmetic. Plain doubles cannot
  keep ``cosh²u − sinh²u = 1`` once ``|u| ≈ 10`` (the identity breaks at
  ~ulp(cosh²u)), which floors the bitension residual of such curves near 1e-3;
  deriving cosh and sinh from a single double-double exponential removes the
  problem at its source. Both bitension routes are still computed by
  independent chains — the extra precision is shared, the algebra is not.
  The same code evaluates one point on floats or a whole grid on arrays.

Conventions (frame components throughout): metric signature ``(+, -, -)``;
``inner(x, y) = x1·y1 − x2·y2 − x3·y3``; the connection bilinear is
``Γ(x, y) = (−x2·y3 − x3·y2, −x1·y3 − x3·y1, x1·y2 − x2·y1)`` so that the
covariant derivative of a field ``V(s)`` along a curve with tangent ``T`` is
``V' + Γ(T, V)``; the curvature operator acts as
``R(x, y)z = (3·p12·z2 − p13·z3, 3·p12·z1 − p23·z3, −p13·z1 + p23·z2)`` with
``pij = xi·yj − xj·yi``; the frame cross product is
``x ∧ y = (−(x2·y3 − x3·y2), −(x1·y3 − x3·y1), x1·y2 − x2·y1)``.
"""

from __future__ import annotations

import math

from hhcurves.errors import (
    GeodesicDegenerateError,
    NullNormalDegenerateError,
    NumericOverflowError,
    UnitSpeedError,
)

BACKEND = "pure"

__all__ = [
    "array_ops",
    "inner",
    "cross",
    "covd",
    "curvature_op",
    "project_unit_jets",
    "bitension_direct_jets",
    "frenet_jets",
    "point_eval",
    "helix_eval",
    "helix_eval_grid",
]

# --------------------------------------------------------------------------
# Error-free transforms (Dekker / Knuth)
# --------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    """Return (s, e) with s = fl(a + b) and a + b = s + e exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    """two_sum for |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    """Return (p, e) with p = fl(a * b) and a * b = p + e exactly."""
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _fsum_array(addends):
    """``math.fsum`` of a sequence of float64 arrays, lane by lane.

    Each lane is what ``math.fsum`` returns for its addends when that is
    finite, and NaN where ``math.fsum`` returns inf or NaN or raises
    (``inf - inf``, intermediate overflow).
    """
    import numpy as np

    columns = np.broadcast_arrays(*addends)
    sums = []
    for lane in zip(*(c.ravel().tolist() for c in columns)):
        try:
            total = math.fsum(lane)
        except (OverflowError, ValueError):
            total = math.nan
        sums.append(total if math.isfinite(total) else math.nan)
    return np.array(sums).reshape(columns[0].shape)


# --------------------------------------------------------------------------
# Operation tables: one point on floats, or many on float64 arrays
# --------------------------------------------------------------------------


def _sign(v):
    return 1.0 if v > 0.0 else -1.0


# |hi| of the dd_exp arguments the series evaluates: below the range exp is
# 0, and above it overflows
_EXP_LIMIT = 709.0


def _value(x):
    """The double nearest a double-double: float(x), also over arrays."""
    return x.hi + x.lo


def _check_degenerate(norm, q0, geo_tol, where):
    """Raise the degeneracy error of a point ``where`` names, whose ∇_T T
    has Euclidean norm ``norm`` and ``inner(A, A) = q0``, if it has one."""
    if norm <= geo_tol:
        raise GeodesicDegenerateError(
            "curvature vanishes %s (‖∇_T T‖ <= %r)" % (where, geo_tol))
    if abs(q0) <= geo_tol * geo_tol:
        raise NullNormalDegenerateError(
            "acceleration is null %s (inner(A, A) = %r)" % (where, q0))


class _FloatOps:
    """Float forms of the few operations that differ between one point and a
    grid of points (:class:`_ArrayOps` has the array forms).

    The double-double code below takes one of these tables as ``ops`` and is
    otherwise the same for both.
    """

    sqrt = staticmethod(math.sqrt)
    floor = staticmethod(math.floor)
    ldexp = staticmethod(math.ldexp)
    sign = staticmethod(_sign)
    any = all = staticmethod(bool)

    @staticmethod
    def select(cond, a, b):
        """Double-double ``a`` where ``cond`` holds, else ``b``."""
        return a if cond else b

    @staticmethod
    def still_live(live, t):
        """Whether the exp series goes on after a term whose hi word is t."""
        return live and not abs(t) <= 1e-40

    @staticmethod
    def check_exp_range(x):
        """Raise for a dd_exp argument outside the range the series
        evaluates."""
        if x.hi <= -_EXP_LIMIT:
            raise NumericOverflowError("dd_exp argument too small")
        if x.hi >= _EXP_LIMIT:
            raise NumericOverflowError("dd_exp argument too large")
        if x.hi != x.hi:  # u = a·s + phase overflowed to inf - inf
            raise NumericOverflowError("dd_exp argument is not a number")

    @staticmethod
    def degenerate(a10, q0, geo_tol):
        """Raise the degeneracy error of a helix point, if it has one."""
        _check_degenerate(math.hypot(*map(_value, a10)), _value(q0), geo_tol,
                          "along this helix")
        return False


class _ArrayOps:
    """The operations of :class:`_FloatOps` over float64 arrays.

    Nothing here raises. Arguments outside the ``dd_exp`` range and
    degenerate points are computed like any other and left to the caller to
    mask (see :func:`helix_eval_grid`); ``inner`` and ``cross`` give NaN in
    the lanes where ``math.fsum`` fails or is not finite.
    """

    def __init__(self, np):
        self.np = np
        self.inner, self.cross = _frame_products(_fsum_array)
        self.sqrt = np.sqrt
        self.floor = np.floor

    def ldexp(self, x, m):
        return self.np.ldexp(x, m.astype(int))

    def any(self, mask):
        return bool(mask.any())

    def all(self, mask):
        return bool(mask.all())

    def sign(self, v):
        return self.np.where(v > 0.0, 1.0, -1.0)

    def select(self, cond, a, b):
        where = self.np.where
        return DD(where(cond, a.hi, b.hi), where(cond, a.lo, b.lo))

    def still_live(self, live, t):
        return live & ~(self.np.abs(t) <= 1e-40)

    def check_exp_range(self, x):
        pass

    def degenerate(self, a10, q0, geo_tol):
        """Mask of points that may be degenerate: a superset of the points
        where :meth:`_FloatOps.degenerate` raises (the norm here is the naive
        one, so its bound has a margin of 2)."""
        x, y, z = (_value(c) for c in a10)
        norm = self.np.sqrt(x * x + y * y + z * z)
        return (norm <= 2.0 * geo_tol) | (abs(_value(q0)) <= geo_tol * geo_tol)


_FLOAT_OPS = _FloatOps()


def array_ops():
    """The operation table for float64 arrays (NumPy is imported here)."""
    import numpy as np

    return _ArrayOps(np)


# --------------------------------------------------------------------------
# Compensated double-precision frame operations
# --------------------------------------------------------------------------


def _split(x):
    """A 3-vector's components and their Dekker halves, for exact products.

    Returns ``(x0, x1, x2, h0, h1, h2, l0, l1, l2)`` with ``xi = hi + li``
    and halves narrow enough that their products are exact, as
    :func:`_two_prod` splits each factor. A vector split once serves every
    exact product it enters: ``_dot_terms`` and ``_gamma_terms`` take split
    vectors and form each product inline from the halves.
    """
    x0 = x[0]
    x1 = x[1]
    x2 = x[2]
    c = _SPLITTER * x0
    h0 = c - (c - x0)
    c = _SPLITTER * x1
    h1 = c - (c - x1)
    c = _SPLITTER * x2
    h2 = c - (c - x2)
    return (x0, x1, x2, h0, h1, h2, x0 - h0, x1 - h1, x2 - h2)


def _dot_terms(x, y):
    """Exact addends ``(p0, e0, -p1, -e1, -p2, -e2)`` of ``inner(x, y)``,
    from split ``x`` and ``y``: ``xi·yi = pi + ei``."""
    x0, x1, x2, xh0, xh1, xh2, xl0, xl1, xl2 = x
    y0, y1, y2, yh0, yh1, yh2, yl0, yl1, yl2 = y
    p0 = x0 * y0
    p1 = x1 * y1
    p2 = x2 * y2
    return (
        p0, ((xh0 * yh0 - p0) + xh0 * yl0 + xl0 * yh0) + xl0 * yl0,
        -p1, -(((xh1 * yh1 - p1) + xh1 * yl1 + xl1 * yh1) + xl1 * yl1),
        -p2, -(((xh2 * yh2 - p2) + xh2 * yl2 + xl2 * yh2) + xl2 * yl2),
    )


def _gamma_terms(x, y):
    """Exact addend tuples for the three slots of the connection bilinear,
    from split ``x`` and ``y``."""
    x0, x1, x2, xh0, xh1, xh2, xl0, xl1, xl2 = x
    y0, y1, y2, yh0, yh1, yh2, yl0, yl1, yl2 = y
    a = x1 * y2
    c = x2 * y1
    g1 = (-a, -(((xh1 * yh2 - a) + xh1 * yl2 + xl1 * yh2) + xl1 * yl2),
          -c, -(((xh2 * yh1 - c) + xh2 * yl1 + xl2 * yh1) + xl2 * yl1))
    a = x0 * y2
    c = x2 * y0
    g2 = (-a, -(((xh0 * yh2 - a) + xh0 * yl2 + xl0 * yh2) + xl0 * yl2),
          -c, -(((xh2 * yh0 - c) + xh2 * yl0 + xl2 * yh0) + xl2 * yl0))
    a = x0 * y1
    c = x1 * y0
    g3 = (a, ((xh0 * yh1 - a) + xh0 * yl1 + xl0 * yh1) + xl0 * yl1,
          -c, -(((xh1 * yh0 - c) + xh1 * yl0 + xl1 * yh0) + xl1 * yl0))
    return g1, g2, g3


def _cross_terms(x, y):
    """Exact addend tuples for the three components of ``x ∧ y``, from split
    ``x`` and ``y``: the slots of Γ(x, y) with their second products
    negated in the first two."""
    (a, b, c, d), (e, f, g, h), g3 = _gamma_terms(x, y)
    return (a, b, -c, -d), (e, f, -g, -h), g3


def _frame_products(fsum):
    """``inner`` and ``cross`` summed with ``fsum``.

    With ``math.fsum`` they take floats. With :func:`_fsum_array` they take
    float64 arrays, and each lane gets what the float form gives its values,
    bit for bit.
    """

    def inner(x, y):
        """Indefinite inner product x1·y1 − x2·y2 − x3·y3, compensated."""
        return fsum(_dot_terms(_split(x), _split(y)))

    def cross(x, y):
        """Frame cross product x ∧ y, compensated per component."""
        return tuple(map(fsum, _cross_terms(_split(x), _split(y))))

    return inner, cross


inner, cross = _frame_products(math.fsum)


def _covd(t, v, vp):
    """:func:`covd` from split ``t`` and ``v``: each component is one
    ``fsum`` of ``vp[i]`` and the exact addends of its slot of Γ(t, v)."""
    fsum = math.fsum
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = _gamma_terms(t, v)
    return (fsum((vp[0], a0, a1, a2, a3)), fsum((vp[1], b0, b1, b2, b3)),
            fsum((vp[2], c0, c1, c2, c3)))


def _covd2(x, y, u, w, vp):
    """vp + Γ(x, y) + Γ(u, w) from split ``x``, ``y``, ``u`` and ``w``, each
    component one ``fsum`` of ``vp[i]`` and both slots' addends in order."""
    fsum = math.fsum
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = _gamma_terms(x, y)
    (d0, d1, d2, d3), (e0, e1, e2, e3), (f0, f1, f2, f3) = _gamma_terms(u, w)
    return (fsum((vp[0], a0, a1, a2, a3, d0, d1, d2, d3)),
            fsum((vp[1], b0, b1, b2, b3, e0, e1, e2, e3)),
            fsum((vp[2], c0, c1, c2, c3, f0, f1, f2, f3)))


def covd(t, v, vp):
    """Covariant derivative along a curve: vp + Γ(t, v)."""
    return _covd(_split(t), _split(v), vp)


def _curvature(x, y, z):
    """:func:`curvature_op` from split ``x``, ``y`` and ``z``."""
    fsum = math.fsum
    (a, b, c, d), (e, f, g, h), g3 = _gamma_terms(x, y)
    p12 = fsum(g3)
    p13 = fsum((-e, -f, g, h))
    p23 = fsum((-a, -b, c, d))

    w0, w1, w2, wh0, wh1, wh2, wl0, wl1, wl2 = _split((3.0 * p12, p13, p23))
    z0, z1, z2, zh0, zh1, zh2, zl0, zl1, zl2 = z
    p = w0 * z1
    q = w1 * z2
    o1 = fsum((p, ((wh0 * zh1 - p) + wh0 * zl1 + wl0 * zh1) + wl0 * zl1,
               -q, -(((wh1 * zh2 - q) + wh1 * zl2 + wl1 * zh2) + wl1 * zl2)))
    p = w0 * z0
    q = w2 * z2
    o2 = fsum((p, ((wh0 * zh0 - p) + wh0 * zl0 + wl0 * zh0) + wl0 * zl0,
               -q, -(((wh2 * zh2 - q) + wh2 * zl2 + wl2 * zh2) + wl2 * zl2)))
    p = w1 * z0
    q = w2 * z1
    o3 = fsum((-p, -(((wh1 * zh0 - p) + wh1 * zl0 + wl1 * zh0) + wl1 * zl0),
               q, ((wh2 * zh1 - q) + wh2 * zl1 + wl2 * zh1) + wl2 * zl1))
    return (o1, o2, o3)


def curvature_op(x, y, z):
    """Curvature operator R(x, y)z in frame components."""
    return _curvature(_split(x), _split(y), _split(z))


# --------------------------------------------------------------------------
# Covariant jet chain (doubles)
# --------------------------------------------------------------------------


def _chain_a1(t0, t1, t2, t3):
    """First covariant derivative ∇_T T and its first two parameter jets,
    split, from split ``t0``, ``t1``, ``t2`` and plain ``t3``."""
    fsum = math.fsum
    a10 = _covd(t0, t0, t1)
    a11 = _covd2(t1, t0, t0, t1, t2)
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = _gamma_terms(t2, t0)
    (d0, d1, d2, d3), (e0, e1, e2, e3), (f0, f1, f2, f3) = _gamma_terms(t1, t1)
    (g0, g1, g2, g3), (h0, h1, h2, h3), (i0, i1, i2, i3) = _gamma_terms(t0, t2)
    a12 = (
        fsum((t3[0], a0, a1, a2, a3, 2.0 * d0, 2.0 * d1, 2.0 * d2, 2.0 * d3,
              g0, g1, g2, g3)),
        fsum((t3[1], b0, b1, b2, b3, 2.0 * e0, 2.0 * e1, 2.0 * e2, 2.0 * e3,
              h0, h1, h2, h3)),
        fsum((t3[2], c0, c1, c2, c3, 2.0 * f0, 2.0 * f1, 2.0 * f2, 2.0 * f3,
              i0, i1, i2, i3)),
    )
    return _split(a10), _split(a11), _split(a12)


def _tau_direct(t0, t1, a1):
    """τ₂ of :func:`bitension_direct_jets` from split ``t0``, ``t1`` and
    ``a1 = _chain_a1(...)``: the third covariant derivative ∇³_T T, then
    R(T, ∇_T T)T."""
    a10, a11, a12 = a1
    a20 = _covd(t0, a10, a11)
    a21 = _covd2(t1, a10, t0, a11, a12)
    a3 = _covd(t0, _split(a20), a21)
    r = _curvature(t0, a10, t0)
    return (a3[0] - r[0], a3[1] - r[1], a3[2] - r[2])


def _split_chain(jets):
    """Split ``t0``, ``t1``, ``t2`` of ``jets`` and their ``_chain_a1``."""
    t0, t1, t2, t3 = jets
    t0, t1, t2 = _split(t0), _split(t1), _split(t2)
    return t0, t1, _chain_a1(t0, t1, t2, t3)


def bitension_direct_jets(jets):
    """Bitension field τ₂ = ∇³_T T − R(T, ∇_T T)T from tangent jets.

    ``jets`` is a 4-tuple of frame 3-vectors: the unit tangent and its first
    three parameter derivatives.
    """
    return _tau_direct(*_split_chain(jets))


def project_unit_jets(jets, unit_tol):
    """Normalize the tangent and project its jets onto the unit-speed manifold.

    Checks ``| |inner(T, T)| − 1 | <= unit_tol`` (raising
    :class:`UnitSpeedError` otherwise), rescales all jets by 1/√|inner(T, T)|,
    then enforces the exact derivative constraints of unit speed:
    ``<t1,t0> = 0``, ``<t2,t0> + <t1,t1> = 0``, ``<t3,t0> + 3<t2,t1> = 0``.
    For jets that already satisfy the constraints up to noise this is a tiny
    correction, but it is what lets the direct and Frenet-form bitension
    routes agree to machine precision on finite-difference data.
    """
    fsum = math.fsum
    t0, t1, t2, t3 = jets
    s0 = _split(t0)
    g = fsum(_dot_terms(s0, s0))
    ag = abs(g)
    if not abs(ag - 1.0) <= unit_tol:
        raise UnitSpeedError(
            "curve is not unit-speed: |inner(T, T)| = %r differs from 1 "
            "beyond tolerance %r" % (ag, unit_tol)
        )
    eps1 = 1.0 if g > 0.0 else -1.0
    inv = 1.0 / math.sqrt(ag)
    t0 = (t0[0] * inv, t0[1] * inv, t0[2] * inv)
    t1 = (t1[0] * inv, t1[1] * inv, t1[2] * inv)
    t2 = (t2[0] * inv, t2[1] * inv, t2[2] * inv)
    t3 = (t3[0] * inv, t3[1] * inv, t3[2] * inv)
    s0 = _split(t0)
    c = eps1 * fsum(_dot_terms(_split(t1), s0))
    t1 = (t1[0] - c * t0[0], t1[1] - c * t0[1], t1[2] - c * t0[2])
    s1 = _split(t1)
    c = eps1 * (fsum(_dot_terms(_split(t2), s0)) + fsum(_dot_terms(s1, s1)))
    t2 = (t2[0] - c * t0[0], t2[1] - c * t0[1], t2[2] - c * t0[2])
    c = eps1 * (fsum(_dot_terms(_split(t3), s0))
                + 3.0 * fsum(_dot_terms(_split(t2), s1)))
    t3 = (t3[0] - c * t0[0], t3[1] - c * t0[1], t3[2] - c * t0[2])
    return (t0, t1, t2, t3)


def frenet_jets(jets, geo_tol):
    """Frenet apparatus from unit-speed tangent jets.

    Returns a flat 23-tuple::

        (k1, k1', k1'', k2, k2', eps1, eps2, eps3,
         T1, T2, T3, N1, N2, N3, B1, B2, B3,
         M1, M2, M3, DB1, DB2, DB3)

    where M = ∇_T N and DB = ∇_T B. Raises
    :class:`GeodesicDegenerateError` when ‖∇_T T‖₂ <= geo_tol and
    :class:`NullNormalDegenerateError` when ∇_T T is non-zero but null at
    tolerance geo_tol².
    """
    s0, s1, a1 = _split_chain(jets)
    return _frenet_chain(jets[0], s0, s1, a1, geo_tol)


def _frenet_chain(t0, s0, s1, a1, geo_tol):
    """:func:`frenet_jets` from the tangent ``t0``, split ``s0`` (of ``t0``)
    and ``s1`` (of its first jet), and ``a1 = _chain_a1(...)``."""
    fsum = math.fsum
    a10, a11, a12 = a1
    q0 = fsum(_dot_terms(a10, a10))
    _check_degenerate(math.hypot(a10[0], a10[1], a10[2]), q0, geo_tol,
                      "at this point")
    eps2 = _sign(q0)
    q1 = 2.0 * fsum(_dot_terms(a11, a10))
    q2 = 2.0 * fsum(_dot_terms(a12, a10)) + 2.0 * fsum(_dot_terms(a11, a11))
    u0 = eps2 * q0
    u1 = eps2 * q1
    u2 = eps2 * q2
    k1 = math.sqrt(u0)
    k1p = u1 / (2.0 * k1)
    k1pp = (u2 - 2.0 * k1p * k1p) / (2.0 * k1)

    w0 = eps2 / k1
    w1 = -eps2 * k1p / u0
    w2 = eps2 * (2.0 * k1p * k1p / (u0 * k1) - k1pp / u0)
    w1x2 = 2.0 * w1
    n0 = (w0 * a10[0], w0 * a10[1], w0 * a10[2])
    n1 = (w0 * a11[0] + w1 * a10[0], w0 * a11[1] + w1 * a10[1],
          w0 * a11[2] + w1 * a10[2])
    n2 = (w0 * a12[0] + w1x2 * a11[0] + w2 * a10[0],
          w0 * a12[1] + w1x2 * a11[1] + w2 * a10[1],
          w0 * a12[2] + w1x2 * a11[2] + w2 * a10[2])
    sn0, sn1 = _split(n0), _split(n1)

    b0 = tuple(map(fsum, _cross_terms(s0, sn0)))
    ca = tuple(map(fsum, _cross_terms(s1, sn0)))
    cb = tuple(map(fsum, _cross_terms(s0, sn1)))
    b1 = (ca[0] + cb[0], ca[1] + cb[1], ca[2] + cb[2])

    m0 = _covd(s0, sn0, n1)
    m1 = _covd2(s1, sn0, s0, sn1, n2)
    sb0, sm0 = _split(b0), _split(m0)
    k2 = fsum(_dot_terms(sm0, sb0))
    k2p = fsum(_dot_terms(_split(m1), sb0)) + fsum(_dot_terms(sm0, _split(b1)))
    eps1 = _sign(fsum(_dot_terms(s0, s0)))
    eps3 = _sign(fsum(_dot_terms(sb0, sb0)))
    db = _covd(s0, sb0, b1)
    return (k1, k1p, k1pp, k2, k2p, eps1, eps2, eps3) + t0 + n0 + b0 + m0 + db


def _tau_from_frenet(fr):
    """Bitension field recombined from Frenet data (T, N, B coefficients)."""
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
    """One-pass evaluation: (frenet 23-tuple, tau_direct, tau_frenet).

    Both routes start from the same first covariant chain ``∇_T T`` and its
    jets, as the helix kernel's do; from there they are independent.
    """
    s0, s1, a1 = _split_chain(jets)
    tau_d = _tau_direct(s0, s1, a1)
    fr = _frenet_chain(jets[0], s0, s1, a1, geo_tol)
    return fr, tau_d, _tau_from_frenet(fr)


# --------------------------------------------------------------------------
# Double-double arithmetic, over floats or float64 arrays
# --------------------------------------------------------------------------


class DD:
    """Double-double number: the represented value is hi + lo.

    ``hi`` and ``lo`` are floats, or float64 arrays that hold one
    double-double per element (after the QD library of Hida, Li and Bailey).
    Every operation is elementwise IEEE arithmetic, so an array gives bit for
    bit what each element gives alone. Supports mixed arithmetic with plain
    floats and arrays. Only what the helix kernel needs is implemented.
    """

    __slots__ = ("hi", "lo")

    # ``array * DD`` must reach DD.__rmul__, not build an object array.
    __array_ufunc__ = None

    def __init__(self, hi, lo=0.0):
        self.hi = hi
        self.lo = lo

    def __float__(self):
        return self.hi + self.lo

    def __repr__(self):  # pragma: no cover - debug aid
        return "DD(%r, %r)" % (self.hi, self.lo)

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, DD):
            s, e = _two_sum(self.hi, other.hi)
            t, f = _two_sum(self.lo, other.lo)
            e += t
            s, e = _quick_two_sum(s, e)
            e += f
            s, e = _quick_two_sum(s, e)
            return DD(s, e)
        s, e = _two_sum(self.hi, other)
        e += self.lo
        s, e = _quick_two_sum(s, e)
        return DD(s, e)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DD):
            return self.__add__(DD(-other.hi, -other.lo))
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, DD):
            p, e = _two_prod(self.hi, other.hi)
            e += self.hi * other.lo + self.lo * other.hi
            p, e = _quick_two_sum(p, e)
            return DD(p, e)
        p, e = _two_prod(self.hi, other)
        e += self.lo * other
        p, e = _quick_two_sum(p, e)
        return DD(p, e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, DD):
            other = DD(other)
        q1 = self.hi / other.hi
        r = self - other * q1
        q2 = r.hi / other.hi
        r = r - other * q2
        q3 = r.hi / other.hi
        q, e = _quick_two_sum(q1, q2)
        return DD(q, e) + q3




def dd_sqrt(x, ops=_FLOAT_OPS):
    """Square root of a non-negative double-double (elementwise over arrays,
    where zero elements give zero as a float does)."""
    zero = (x.hi == 0.0) & (x.lo == 0.0)
    if ops.all(zero):
        return DD(0.0)
    s = ops.sqrt(x.hi)
    e = x - DD(s) * DD(s)
    d = e.hi / (2.0 * s)
    h, l = _quick_two_sum(s, d)
    return ops.select(zero, DD(0.0), DD(h, l))


_LN2 = DD(0.6931471805599453, 2.3190468138462996e-17)

# 1/k! for k = 3..18, computed once in double-double. The series loop
# consumes these from the r³ term onward (r and r²/2 are added explicitly).
_INV_FACT = []
for _k in range(3, 19):
    _INV_FACT.append(DD(1.0) / DD(float(math.factorial(_k))))
del _k


def _mul_pow2(x, p):
    return DD(x.hi * p, x.lo * p)


def dd_exp(x, ops=_FLOAT_OPS):
    """Exponential of a double-double (argument reduction + Taylor + squaring)."""
    ops.check_exp_range(x)
    m = ops.floor(x.hi / _LN2.hi + 0.5)
    r = _mul_pow2(x - _LN2 * m, 1.0 / 512.0)
    # Taylor series of expm1 on |r| <= ln2/1024, up to and including the
    # first term below 1e-40 (each element of an array stops on its own)
    p = r * r
    s = r + _mul_pow2(p, 0.5)
    p = p * r
    s = s + p * _INV_FACT[0]
    live = True
    for inv_fact in _INV_FACT[1:]:
        p = p * r
        t = p * inv_fact
        s = ops.select(live, s + t, s)
        live = ops.still_live(live, t.hi)
        if not ops.any(live):
            break
    # Undo the 2^-9 scaling: expm1(2y) = expm1(y)² + 2·expm1(y)
    for _ in range(9):
        s = s * s + _mul_pow2(s, 2.0)
    s = s + 1.0
    return DD(ops.ldexp(s.hi, m), ops.ldexp(s.lo, m))


def dd_cosh_sinh(x, ops=_FLOAT_OPS):
    """cosh and sinh of a double-double, from a single exponential.

    Deriving both from one exponential keeps cosh²−sinh² = 1 to ~1e-32, which
    is the property the helix kernel exists to preserve. Outside the
    ``dd_exp`` range the float form raises :class:`NumericOverflowError`, and
    the array form leaves the lanes to the caller's mask.
    """
    e = dd_exp(x, ops)
    inv = DD(1.0) / e
    return _mul_pow2(e + inv, 0.5), _mul_pow2(e - inv, 0.5)


# --------------------------------------------------------------------------
# Double-double frame operations and the helix kernel
# --------------------------------------------------------------------------


def _dd_inner(x, y):
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2]


def _dd_cross(x, y):
    return (
        -(x[1] * y[2] - x[2] * y[1]),
        -(x[0] * y[2] - x[2] * y[0]),
        x[0] * y[1] - x[1] * y[0],
    )


def _dd_gamma(x, y):
    return (
        -(x[1] * y[2]) - x[2] * y[1],
        -(x[0] * y[2]) - x[2] * y[0],
        x[0] * y[1] - x[1] * y[0],
    )


def _dd_curv(x, y, z):
    p12 = x[0] * y[1] - x[1] * y[0]
    p13 = x[0] * y[2] - x[2] * y[0]
    p23 = x[1] * y[2] - x[2] * y[1]
    return (
        p12 * z[1] * 3.0 - p13 * z[2],
        p12 * z[0] * 3.0 - p23 * z[2],
        -(p13 * z[0]) + p23 * z[1],
    )


def _dd_add3(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2])


def _dd_scale(x, w):
    return (x[0] * w, x[1] * w, x[2] * w)


def _helix(ops, form, amp, tilt, a, u, geo_tol):
    """Body of :func:`helix_eval` and :func:`helix_eval_grid`.

    ``a`` is the slope and ``u`` the helix argument, both double-doubles.
    Returns ``(fr, tau_d, tau_f, degenerate)``, whose values are floats, or
    arrays over a grid; ``degenerate`` is what ``ops.degenerate`` returned.
    """
    ch, sh = dd_cosh_sinh(u, ops)
    form0 = form == 0
    even, odd = ops.select(form0, ch, sh), ops.select(form0, sh, ch)
    amp_dd = DD(amp)
    zero = DD(0.0)
    t0 = (amp_dd * even, amp_dd * odd, DD(tilt))
    f1 = amp_dd * a
    t1 = (f1 * odd, f1 * even, zero)
    f2 = f1 * a
    t2 = (f2 * even, f2 * odd, zero)
    f3 = f2 * a
    t3 = (f3 * odd, f3 * even, zero)

    # --- covariant jet chain (direct route) ---
    a10 = _dd_add3(t1, _dd_gamma(t0, t0))
    a11 = _dd_add3(t2, _dd_add3(_dd_gamma(t1, t0), _dd_gamma(t0, t1)))
    gb = _dd_gamma(t1, t1)
    a12 = _dd_add3(
        t3,
        _dd_add3(
            _dd_gamma(t2, t0),
            _dd_add3((_mul_pow2(gb[0], 2.0), _mul_pow2(gb[1], 2.0), _mul_pow2(gb[2], 2.0)),
                     _dd_gamma(t0, t2)),
        ),
    )
    a20 = _dd_add3(a11, _dd_gamma(t0, a10))
    a21 = _dd_add3(a12, _dd_add3(_dd_gamma(t1, a10), _dd_gamma(t0, a11)))
    a3 = _dd_add3(a21, _dd_gamma(t0, a20))
    r = _dd_curv(t0, a10, t0)
    tau_d = tuple(_value(a3[i] - r[i]) for i in range(3))

    # --- Frenet chain (independent route) ---
    q0 = _dd_inner(a10, a10)
    degenerate = ops.degenerate(a10, q0, geo_tol)
    eps2 = ops.sign(q0.hi)
    q1 = _mul_pow2(_dd_inner(a11, a10), 2.0)
    q2 = _mul_pow2(_dd_inner(a12, a10) + _dd_inner(a11, a11), 2.0)
    u0 = _mul_pow2(q0, eps2)
    u1 = _mul_pow2(q1, eps2)
    u2 = _mul_pow2(q2, eps2)
    k1 = dd_sqrt(u0, ops)
    k1p = u1 / _mul_pow2(k1, 2.0)
    k1pp = (u2 - _mul_pow2(k1p * k1p, 2.0)) / _mul_pow2(k1, 2.0)

    w0 = DD(eps2) / k1
    w1 = _mul_pow2(k1p / u0, -eps2)
    w2 = (_mul_pow2(k1p * k1p / (u0 * k1), 2.0) - k1pp / u0) * eps2
    n0 = _dd_scale(a10, w0)
    n1 = _dd_add3(_dd_scale(a11, w0), _dd_scale(a10, w1))
    n2 = _dd_add3(
        _dd_scale(a12, w0),
        _dd_add3(_dd_scale(a11, _mul_pow2(w1, 2.0)), _dd_scale(a10, w2)),
    )
    b0 = _dd_cross(t0, n0)
    b1 = _dd_add3(_dd_cross(t1, n0), _dd_cross(t0, n1))
    m0 = _dd_add3(n1, _dd_gamma(t0, n0))
    m1 = _dd_add3(n2, _dd_add3(_dd_gamma(t1, n0), _dd_gamma(t0, n1)))
    k2 = _dd_inner(m0, b0)
    k2p = _dd_inner(m1, b0) + _dd_inner(m0, b1)
    eps1 = ops.sign(_dd_inner(t0, t0).hi)
    eps3 = ops.sign(_dd_inner(b0, b0).hi)
    db = _dd_add3(b1, _dd_gamma(t0, b0))

    n3 = n0[2]
    b3 = b0[2]
    ct = (k1 * k1p) * (-3.0 * eps1 * eps2)
    cn = (
        _mul_pow2(k1pp, eps2)
        - _mul_pow2(k1 * k1 * k1, eps1)
        - _mul_pow2(k1 * (k2 * k2), eps3)
        + _mul_pow2(k1, eps3)
        + _mul_pow2(k1 * (b3 * b3), 4.0)
    )
    cb = (
        _mul_pow2(k1p * k2, 2.0 * eps2 * eps3)
        + _mul_pow2(k1 * k2p, eps2 * eps3)
        - _mul_pow2(k1 * (n3 * b3), 4.0 * eps2 * eps3)
    )
    tau_f = tuple(
        _value(ct * t0[i] + cn * n0[i] + cb * b0[i]) for i in range(3)
    )

    fr = (
        (_value(k1), _value(k1p), _value(k1pp), _value(k2), _value(k2p),
         eps1, eps2, eps3)
        + tuple(_value(v) for v in t0 + n0 + b0 + m0 + db)
    )
    return fr, tau_d, tau_f, degenerate


def helix_eval(form, amp, tilt, slope_hi, slope_lo, phase, s, geo_tol):
    """Evaluate Frenet data and both bitension routes for a helix-form curve.

    The curve's tangent is ``(amp·cosh u, amp·sinh u, tilt)`` for ``form`` 0 or
    ``(amp·sinh u, amp·cosh u, tilt)`` for ``form`` 1, with
    ``u = slope·s + phase`` and the slope carried as a double-double
    ``(slope_hi, slope_lo)``. All internal arithmetic is double-double; the
    returned ``(frenet 23-tuple, tau_direct, tau_frenet)`` are plain doubles.
    The direct and Frenet-form chains remain independent computations.
    """
    a = DD(slope_hi, slope_lo)
    return _helix(_FLOAT_OPS, form, amp, tilt, a, a * s + phase, geo_tol)[:3]


def helix_eval_grid(form, amp, tilt, slope_hi, slope_lo, phase, s_array,
                    geo_tol):
    """:func:`helix_eval` at every point of ``s_array``, in one NumPy pass.

    Every argument but ``s_array`` is either one value for all points or a
    sequence with one entry per point, so one pass can cover the points of
    many helices, of both forms, each with its own ``geo_tol``.

    Returns a list with one entry per point: what ``helix_eval`` returns for
    that point, bit for bit, or ``None`` where the point must go through
    ``helix_eval`` itself. Those are the points that may be degenerate, whose
    ``u`` lies outside the ``dd_exp`` range, or where any value is not
    finite, which is the only way a point can reach a division by zero;
    ``helix_eval`` raises there, or returns the same non-finite values.
    """
    import numpy as np

    s = np.asarray(s_array, dtype=float)
    form, amp, tilt, slope_hi, slope_lo, phase, geo_tol = (
        np.asarray(v, dtype=float)
        for v in (form, amp, tilt, slope_hi, slope_lo, phase, geo_tol)
    )
    a = DD(slope_hi, slope_lo)
    u = a * s + phase
    with np.errstate(all="ignore"):
        fr, tau_d, tau_f, degenerate = _helix(
            array_ops(), form, amp, tilt, a, u, geo_tol
        )
        cols = np.array(np.broadcast_arrays(s, *(fr + tau_d + tau_f))[1:])
    redo = (
        degenerate
        | ~((u.hi > -_EXP_LIMIT) & (u.hi < _EXP_LIMIT))
        | ~np.isfinite(cols).all(axis=0)
    )
    return [
        None if skip else (tuple(col[:23]), tuple(col[23:26]), tuple(col[26:]))
        for skip, col in zip(redo.tolist(), cols.T.tolist())
    ]
