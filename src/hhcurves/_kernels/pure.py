"""The numerical kernels, in Python.

This module is the one implementation of the numerical hot paths.
Everything here works on plain tuples of floats, except
``helix_eval_grid``, which runs the double-double helix code over float64
arrays (NumPy is imported there, not at module import).

Two precision strategies coexist:

* the *generic double pipeline* (``point_eval`` and friends) evaluates the
  covariant jet chain in IEEE doubles with compensated bilinears — every
  inner-product / cross-product / connection slot is an exact two-product
  expansion summed with ``math.fsum`` — plus an optional unit-speed jet
  projection that makes the direct and Frenet-form bitension routes agree to
  machine precision for arbitrary jets;
* the *double-double helix path* (``helix_eval``) evaluates curves whose
  tangent is ``(A·cosh u, A·sinh u, K)`` or ``(A·sinh u, A·cosh u, K)`` with
  ``u = a·s + b`` in ~31-digit double-double arithmetic. Plain doubles cannot
  keep ``cosh²u − sinh²u = 1`` once ``|u| ≈ 10`` (the identity breaks at
  ~ulp(cosh²u)), which floors the bitension residual of such curves near 1e-3;
  deriving cosh and sinh from a single double-double exponential removes the
  problem at its source. Both bitension routes are still computed by
  independent chains — the extra precision is shared, the algebra is not.
  The same code evaluates one point on floats or a whole grid on arrays;
  a small table of operations (``_FloatOps`` / ``_ArrayOps``) supplies the
  few steps whose two forms differ.

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
    UnitSpeedError,
)

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


# --------------------------------------------------------------------------
# Compensated double-precision frame operations
# --------------------------------------------------------------------------


def inner(x, y):
    """Indefinite inner product x1·y1 − x2·y2 − x3·y3, compensated."""
    p0, e0 = _two_prod(x[0], y[0])
    p1, e1 = _two_prod(x[1], y[1])
    p2, e2 = _two_prod(x[2], y[2])
    return math.fsum((p0, e0, -p1, -e1, -p2, -e2))


def cross(x, y):
    """Frame cross product x ∧ y, compensated per component."""
    p, e = _two_prod(x[1], y[2])
    q, f = _two_prod(x[2], y[1])
    c1 = math.fsum((-p, -e, q, f))
    p, e = _two_prod(x[0], y[2])
    q, f = _two_prod(x[2], y[0])
    c2 = math.fsum((-p, -e, q, f))
    p, e = _two_prod(x[0], y[1])
    q, f = _two_prod(x[1], y[0])
    c3 = math.fsum((p, e, -q, -f))
    return (c1, c2, c3)


def _gamma_terms(x, y):
    """Exact addend tuples for the three slots of the connection bilinear."""
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


def gamma(x, y):
    """Connection bilinear Γ(x, y) in frame components."""
    g1, g2, g3 = _gamma_terms(x, y)
    return (math.fsum(g1), math.fsum(g2), math.fsum(g3))


def covd(t, v, vp):
    """Covariant derivative along a curve: vp + Γ(t, v)."""
    g1, g2, g3 = _gamma_terms(t, v)
    return (
        math.fsum((vp[0],) + g1),
        math.fsum((vp[1],) + g2),
        math.fsum((vp[2],) + g3),
    )


def curvature_op(x, y, z):
    """Curvature operator R(x, y)z in frame components."""
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


# --------------------------------------------------------------------------
# Covariant jet chain (doubles)
# --------------------------------------------------------------------------


def _scale2(terms):
    return tuple(2.0 * t for t in terms)


def _chain_a1(jets):
    """First covariant derivative ∇_T T and its first two parameter jets."""
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


def _chain_a3(jets, a10, a11, a12):
    """Third covariant derivative ∇³_T T from the first-derivative jets."""
    t0, t1, _, _ = jets
    g = _gamma_terms(t0, a10)
    a20 = tuple(math.fsum((a11[i],) + g[i]) for i in range(3))
    ga = _gamma_terms(t1, a10)
    gb = _gamma_terms(t0, a11)
    a21 = tuple(math.fsum((a12[i],) + ga[i] + gb[i]) for i in range(3))
    g = _gamma_terms(t0, a20)
    return tuple(math.fsum((a21[i],) + g[i]) for i in range(3))


def bitension_direct_jets(jets):
    """Bitension field τ₂ = ∇³_T T − R(T, ∇_T T)T from tangent jets.

    ``jets`` is a 4-tuple of frame 3-vectors: the unit tangent and its first
    three parameter derivatives.
    """
    a10, a11, a12 = _chain_a1(jets)
    a3 = _chain_a3(jets, a10, a11, a12)
    r = curvature_op(jets[0], a10, jets[0])
    return (a3[0] - r[0], a3[1] - r[1], a3[2] - r[2])


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


def _sign(v):
    return 1.0 if v > 0.0 else -1.0


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
    t0, t1, _, _ = jets
    a10, a11, a12 = _chain_a1(jets)
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
    """One-pass evaluation: (frenet 23-tuple, tau_direct, tau_frenet)."""
    tau_d = bitension_direct_jets(jets)
    fr = frenet_jets(jets, geo_tol)
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


def _value(x):
    """The double nearest a double-double: float(x), also over arrays."""
    return x.hi + x.lo


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
    def exp_special(x):
        """dd_exp at arguments the series does not evaluate, else None."""
        if x.hi <= -709.0:
            return DD(0.0)
        if x.hi >= 709.0:
            raise OverflowError("dd_exp argument too large")
        if x.hi != x.hi:  # u = a·s + phase overflowed to inf - inf
            raise OverflowError("dd_exp argument is not a number")
        if x.hi == 0.0 and x.lo == 0.0:
            return DD(1.0)
        return None

    @staticmethod
    def check_exp_nonzero(e):
        """Raise for the 0 that dd_exp gives below its range."""
        if e.hi == 0.0:
            raise OverflowError("dd_exp argument too small")

    @staticmethod
    def degenerate(a10, q0, geo_tol):
        """Raise the degeneracy error of a helix point, if it has one."""
        if math.hypot(_value(a10[0]), _value(a10[1]), _value(a10[2])) <= geo_tol:
            raise GeodesicDegenerateError(
                "curvature vanishes along this helix (‖∇_T T‖ <= %r)"
                % (geo_tol,)
            )
        if abs(_value(q0)) <= geo_tol * geo_tol:
            raise NullNormalDegenerateError(
                "acceleration is null along this helix (inner(A, A) = %r)"
                % (_value(q0),)
            )
        return False


class _ArrayOps:
    """The operations of :class:`_FloatOps` over float64 arrays.

    Nothing here raises. Arguments outside the ``dd_exp`` range and
    degenerate points are computed like any other and left to the caller to
    mask (see :func:`helix_eval_grid`).
    """

    def __init__(self, np):
        self.np = np
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

    def exp_special(self, x):
        # Zero arguments take the series, which yields exactly DD(1.0).
        return None

    def check_exp_nonzero(self, e):
        pass

    def degenerate(self, a10, q0, geo_tol):
        """Mask of points that may be degenerate: a superset of the points
        where :meth:`_FloatOps.degenerate` raises (the norm here is the naive
        one, so its bound has a margin of 2)."""
        x, y, z = (_value(c) for c in a10)
        norm = self.np.sqrt(x * x + y * y + z * z)
        return (norm <= 2.0 * geo_tol) | (abs(_value(q0)) <= geo_tol * geo_tol)


_FLOAT_OPS = _FloatOps()


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
    special = ops.exp_special(x)
    if special is not None:
        return special
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
    is the property the helix kernel exists to preserve. Below the ``dd_exp``
    range, where the exponential is 0, the float form raises
    :class:`OverflowError`.
    """
    e = dd_exp(x, ops)
    ops.check_exp_nonzero(e)
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
            _ArrayOps(np), form, amp, tilt, a, u, geo_tol
        )
        cols = np.array(np.broadcast_arrays(s, *(fr + tau_d + tau_f))[1:])
    redo = (
        degenerate
        | ~((u.hi > -709.0) & (u.hi < 709.0))
        | ~np.isfinite(cols).all(axis=0)
    )
    return [
        None if skip else (tuple(col[:23]), tuple(col[23:26]), tuple(col[26:]))
        for skip, col in zip(redo.tolist(), cols.T.tolist())
    ]
