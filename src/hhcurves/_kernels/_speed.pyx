# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels: same surface and semantics as ``hhcurves._kernels.pure``.

Double-precision bilinears use FMA-based exact products with Neumaier
accumulation (the compiled stand-in for the reference backend's
``math.fsum``); the helix path runs in double-double arithmetic built on the
hardware FMA. See the pure module for the conventions and the reasoning.
"""

from libc.math cimport fabs, floor, fma, ldexp, sqrt

from hhcurves.errors import (
    GeodesicDegenerateError,
    NullNormalDegenerateError,
    UnitSpeedError,
)

BACKEND = "compiled"


# --------------------------------------------------------------------------
# Error-free transforms and Neumaier accumulation
# --------------------------------------------------------------------------

cdef inline void t_sum(double a, double b, double *s, double *e):
    cdef double ss = a + b
    cdef double bb = ss - a
    s[0] = ss
    e[0] = (a - (ss - bb)) + (b - bb)


cdef inline void q_sum(double a, double b, double *s, double *e):
    # requires |a| >= |b|
    cdef double ss = a + b
    s[0] = ss
    e[0] = b - (ss - a)


cdef inline void t_prod(double a, double b, double *p, double *e):
    cdef double pp = a * b
    p[0] = pp
    e[0] = fma(a, b, -pp)


cdef struct acc_t:
    double s
    double c


cdef inline void acc_init(acc_t *a):
    a.s = 0.0
    a.c = 0.0


cdef inline void acc_add(acc_t *a, double v):
    cdef double t = a.s + v
    if fabs(a.s) >= fabs(v):
        a.c += (a.s - t) + v
    else:
        a.c += (v - t) + a.s
    a.s = t


cdef inline void acc_prod(acc_t *a, double x, double y):
    cdef double p, e
    t_prod(x, y, &p, &e)
    acc_add(a, p)
    acc_add(a, e)


cdef inline double acc_val(acc_t *a):
    return a.s + a.c


# --------------------------------------------------------------------------
# Compensated double-precision frame operations
# --------------------------------------------------------------------------

cdef inline void _load3(object v, double *out):
    out[0] = v[0]
    out[1] = v[1]
    out[2] = v[2]


cdef double c_inner(double *x, double *y):
    cdef acc_t a
    acc_init(&a)
    acc_prod(&a, x[0], y[0])
    acc_prod(&a, -x[1], y[1])
    acc_prod(&a, -x[2], y[2])
    return acc_val(&a)


cdef void c_cross(double *x, double *y, double *out):
    cdef acc_t a
    acc_init(&a)
    acc_prod(&a, -x[1], y[2])
    acc_prod(&a, x[2], y[1])
    out[0] = acc_val(&a)
    acc_init(&a)
    acc_prod(&a, -x[0], y[2])
    acc_prod(&a, x[2], y[0])
    out[1] = acc_val(&a)
    acc_init(&a)
    acc_prod(&a, x[0], y[1])
    acc_prod(&a, -x[1], y[0])
    out[2] = acc_val(&a)


cdef inline void gamma_slot(acc_t *a, double *x, double *y, int slot, double w):
    # accumulates w * Γ(x, y)[slot]; w must be exactly representable (1 or 2)
    if slot == 0:
        acc_prod(a, -w * x[1], y[2])
        acc_prod(a, -w * x[2], y[1])
    elif slot == 1:
        acc_prod(a, -w * x[0], y[2])
        acc_prod(a, -w * x[2], y[0])
    else:
        acc_prod(a, w * x[0], y[1])
        acc_prod(a, -w * x[1], y[0])


cdef void c_gamma(double *x, double *y, double *out):
    cdef acc_t a
    cdef int i
    for i in range(3):
        acc_init(&a)
        gamma_slot(&a, x, y, i, 1.0)
        out[i] = acc_val(&a)


cdef void c_curvature(double *x, double *y, double *z, double *out):
    cdef acc_t a
    cdef double p12, p13, p23
    acc_init(&a)
    acc_prod(&a, x[0], y[1])
    acc_prod(&a, -x[1], y[0])
    p12 = acc_val(&a)
    acc_init(&a)
    acc_prod(&a, x[0], y[2])
    acc_prod(&a, -x[2], y[0])
    p13 = acc_val(&a)
    acc_init(&a)
    acc_prod(&a, x[1], y[2])
    acc_prod(&a, -x[2], y[1])
    p23 = acc_val(&a)
    acc_init(&a)
    acc_prod(&a, 3.0 * p12, z[1])
    acc_prod(&a, -p13, z[2])
    out[0] = acc_val(&a)
    acc_init(&a)
    acc_prod(&a, 3.0 * p12, z[0])
    acc_prod(&a, -p23, z[2])
    out[1] = acc_val(&a)
    acc_init(&a)
    acc_prod(&a, -p13, z[0])
    acc_prod(&a, p23, z[1])
    out[2] = acc_val(&a)


def inner(x, y):
    """Indefinite inner product x1·y1 − x2·y2 − x3·y3, compensated."""
    cdef double cx[3]
    cdef double cy[3]
    _load3(x, cx)
    _load3(y, cy)
    return c_inner(cx, cy)


def cross(x, y):
    """Frame cross product x ∧ y, compensated per component."""
    cdef double cx[3]
    cdef double cy[3]
    cdef double out[3]
    _load3(x, cx)
    _load3(y, cy)
    c_cross(cx, cy, out)
    return (out[0], out[1], out[2])


def gamma(x, y):
    """Connection bilinear Γ(x, y) in frame components."""
    cdef double cx[3]
    cdef double cy[3]
    cdef double out[3]
    _load3(x, cx)
    _load3(y, cy)
    c_gamma(cx, cy, out)
    return (out[0], out[1], out[2])


def covd(t, v, vp):
    """Covariant derivative along a curve: vp + Γ(t, v)."""
    cdef double ct[3]
    cdef double cv[3]
    cdef double cvp[3]
    cdef acc_t a
    cdef double out[3]
    cdef int i
    _load3(t, ct)
    _load3(v, cv)
    _load3(vp, cvp)
    for i in range(3):
        acc_init(&a)
        acc_add(&a, cvp[i])
        gamma_slot(&a, ct, cv, i, 1.0)
        out[i] = acc_val(&a)
    return (out[0], out[1], out[2])


def curvature_op(x, y, z):
    """Curvature operator R(x, y)z in frame components."""
    cdef double cx[3]
    cdef double cy[3]
    cdef double cz[3]
    cdef double out[3]
    _load3(x, cx)
    _load3(y, cy)
    _load3(z, cz)
    c_curvature(cx, cy, cz, out)
    return (out[0], out[1], out[2])


# --------------------------------------------------------------------------
# Covariant jet chain (doubles)
# --------------------------------------------------------------------------

cdef void c_chain_a1(double t0[3], double t1[3], double t2[3], double t3[3],
                     double a10[3], double a11[3], double a12[3]):
    cdef acc_t a
    cdef int i
    for i in range(3):
        acc_init(&a)
        acc_add(&a, t1[i])
        gamma_slot(&a, t0, t0, i, 1.0)
        a10[i] = acc_val(&a)
    for i in range(3):
        acc_init(&a)
        acc_add(&a, t2[i])
        gamma_slot(&a, t1, t0, i, 1.0)
        gamma_slot(&a, t0, t1, i, 1.0)
        a11[i] = acc_val(&a)
    for i in range(3):
        acc_init(&a)
        acc_add(&a, t3[i])
        gamma_slot(&a, t2, t0, i, 1.0)
        gamma_slot(&a, t1, t1, i, 2.0)
        gamma_slot(&a, t0, t2, i, 1.0)
        a12[i] = acc_val(&a)


cdef void c_chain_a3(double t0[3], double t1[3],
                     double a10[3], double a11[3], double a12[3],
                     double a3[3]):
    cdef acc_t a
    cdef int i
    cdef double a20[3]
    cdef double a21[3]
    for i in range(3):
        acc_init(&a)
        acc_add(&a, a11[i])
        gamma_slot(&a, t0, a10, i, 1.0)
        a20[i] = acc_val(&a)
    for i in range(3):
        acc_init(&a)
        acc_add(&a, a12[i])
        gamma_slot(&a, t1, a10, i, 1.0)
        gamma_slot(&a, t0, a11, i, 1.0)
        a21[i] = acc_val(&a)
    for i in range(3):
        acc_init(&a)
        acc_add(&a, a21[i])
        gamma_slot(&a, t0, a20, i, 1.0)
        a3[i] = acc_val(&a)


cdef void _load_jets(object jets, double t0[3], double t1[3],
                     double t2[3], double t3[3]):
    _load3(jets[0], t0)
    _load3(jets[1], t1)
    _load3(jets[2], t2)
    _load3(jets[3], t3)


def bitension_direct_jets(jets):
    """Bitension field τ₂ = ∇³_T T − R(T, ∇_T T)T from tangent jets."""
    cdef double t0[3]
    cdef double t1[3]
    cdef double t2[3]
    cdef double t3[3]
    cdef double a10[3]
    cdef double a11[3]
    cdef double a12[3]
    cdef double a3[3]
    cdef double r[3]
    _load_jets(jets, t0, t1, t2, t3)
    c_chain_a1(t0, t1, t2, t3, a10, a11, a12)
    c_chain_a3(t0, t1, a10, a11, a12, a3)
    c_curvature(t0, a10, t0, r)
    return (a3[0] - r[0], a3[1] - r[1], a3[2] - r[2])


def project_unit_jets(jets, unit_tol):
    """Normalize the tangent and project its jets onto the unit-speed manifold."""
    cdef double t0[3]
    cdef double t1[3]
    cdef double t2[3]
    cdef double t3[3]
    cdef double g, ag, eps1, inv, c
    cdef int i
    _load_jets(jets, t0, t1, t2, t3)
    g = c_inner(t0, t0)
    ag = fabs(g)
    if not fabs(ag - 1.0) <= unit_tol:
        raise UnitSpeedError(
            "curve is not unit-speed: |inner(T, T)| = %r differs from 1 "
            "beyond tolerance %r" % (ag, unit_tol)
        )
    eps1 = 1.0 if g > 0.0 else -1.0
    inv = 1.0 / sqrt(ag)
    for i in range(3):
        t0[i] *= inv
        t1[i] *= inv
        t2[i] *= inv
        t3[i] *= inv
    c = eps1 * c_inner(t1, t0)
    for i in range(3):
        t1[i] -= c * t0[i]
    c = eps1 * (c_inner(t2, t0) + c_inner(t1, t1))
    for i in range(3):
        t2[i] -= c * t0[i]
    c = eps1 * (c_inner(t3, t0) + 3.0 * c_inner(t2, t1))
    for i in range(3):
        t3[i] -= c * t0[i]
    return (
        (t0[0], t0[1], t0[2]),
        (t1[0], t1[1], t1[2]),
        (t2[0], t2[1], t2[2]),
        (t3[0], t3[1], t3[2]),
    )


cdef inline double c_sign(double v):
    return 1.0 if v > 0.0 else -1.0


cdef tuple c_frenet(double t0[3], double t1[3], double t2[3], double t3[3],
                    double geo_tol):
    cdef double a10[3]
    cdef double a11[3]
    cdef double a12[3]
    cdef double n0[3]
    cdef double n1[3]
    cdef double n2[3]
    cdef double b0[3]
    cdef double b1[3]
    cdef double b1a[3]
    cdef double b1b[3]
    cdef double m0[3]
    cdef double m1[3]
    cdef double db[3]
    cdef double q0, q1, q2, u0, u1, u2, k1, k1p, k1pp
    cdef double w0, w1, w2, k2, k2p, eps1, eps2, eps3
    cdef acc_t a
    cdef int i
    c_chain_a1(t0, t1, t2, t3, a10, a11, a12)
    if sqrt(a10[0] * a10[0] + a10[1] * a10[1] + a10[2] * a10[2]) <= geo_tol:
        raise GeodesicDegenerateError(
            "curvature vanishes at this point (‖∇_T T‖ <= %r)" % (geo_tol,)
        )
    q0 = c_inner(a10, a10)
    if fabs(q0) <= geo_tol * geo_tol:
        raise NullNormalDegenerateError(
            "acceleration is null at this point (inner(A, A) = %r)" % (q0,)
        )
    eps2 = c_sign(q0)
    q1 = 2.0 * c_inner(a11, a10)
    q2 = 2.0 * c_inner(a12, a10) + 2.0 * c_inner(a11, a11)
    u0 = eps2 * q0
    u1 = eps2 * q1
    u2 = eps2 * q2
    k1 = sqrt(u0)
    k1p = u1 / (2.0 * k1)
    k1pp = (u2 - 2.0 * k1p * k1p) / (2.0 * k1)

    w0 = eps2 / k1
    w1 = -eps2 * k1p / u0
    w2 = eps2 * (2.0 * k1p * k1p / (u0 * k1) - k1pp / u0)
    for i in range(3):
        n0[i] = w0 * a10[i]
        n1[i] = w0 * a11[i] + w1 * a10[i]
        n2[i] = w0 * a12[i] + 2.0 * w1 * a11[i] + w2 * a10[i]

    c_cross(t0, n0, b0)
    c_cross(t1, n0, b1a)
    c_cross(t0, n1, b1b)
    for i in range(3):
        b1[i] = b1a[i] + b1b[i]

    for i in range(3):
        acc_init(&a)
        acc_add(&a, n1[i])
        gamma_slot(&a, t0, n0, i, 1.0)
        m0[i] = acc_val(&a)
        acc_init(&a)
        acc_add(&a, n2[i])
        gamma_slot(&a, t1, n0, i, 1.0)
        gamma_slot(&a, t0, n1, i, 1.0)
        m1[i] = acc_val(&a)
        acc_init(&a)
        acc_add(&a, b1[i])
        gamma_slot(&a, t0, b0, i, 1.0)
        db[i] = acc_val(&a)

    k2 = c_inner(m0, b0)
    k2p = c_inner(m1, b0) + c_inner(m0, b1)
    eps1 = c_sign(c_inner(t0, t0))
    eps3 = c_sign(c_inner(b0, b0))
    return (
        k1, k1p, k1pp, k2, k2p, eps1, eps2, eps3,
        t0[0], t0[1], t0[2],
        n0[0], n0[1], n0[2],
        b0[0], b0[1], b0[2],
        m0[0], m0[1], m0[2],
        db[0], db[1], db[2],
    )


def frenet_jets(jets, geo_tol):
    """Frenet apparatus from unit-speed tangent jets (23-tuple; see pure)."""
    cdef double t0[3]
    cdef double t1[3]
    cdef double t2[3]
    cdef double t3[3]
    _load_jets(jets, t0, t1, t2, t3)
    return c_frenet(t0, t1, t2, t3, geo_tol)


cdef tuple _tau_from_fr(tuple fr):
    cdef double k1 = fr[0]
    cdef double k1p = fr[1]
    cdef double k1pp = fr[2]
    cdef double k2 = fr[3]
    cdef double k2p = fr[4]
    cdef double e1 = fr[5]
    cdef double e2 = fr[6]
    cdef double e3 = fr[7]
    cdef double n3 = fr[13]
    cdef double b3 = fr[16]
    cdef double ct = -3.0 * k1 * k1p * e1 * e2
    cdef double cn = (
        k1pp * e2 - k1 * k1 * k1 * e1 - k1 * k2 * k2 * e3 + k1 * e3
        + 4.0 * k1 * b3 * b3
    )
    cdef double cb = (
        2.0 * k1p * k2 * e2 * e3 + k1 * k2p * e2 * e3
        - 4.0 * k1 * e2 * e3 * n3 * b3
    )
    return (
        ct * fr[8] + cn * fr[11] + cb * fr[14],
        ct * fr[9] + cn * fr[12] + cb * fr[15],
        ct * fr[10] + cn * fr[13] + cb * fr[16],
    )


def point_eval(jets, geo_tol):
    """One-pass evaluation: (frenet 23-tuple, tau_direct, tau_frenet)."""
    tau_d = bitension_direct_jets(jets)
    fr = frenet_jets(jets, geo_tol)
    return fr, tau_d, _tau_from_fr(fr)


# --------------------------------------------------------------------------
# Double-double arithmetic
# --------------------------------------------------------------------------

cdef struct dd:
    double hi
    double lo


cdef inline dd dd_make(double hi, double lo):
    cdef dd r
    r.hi = hi
    r.lo = lo
    return r


cdef inline dd dd_add(dd x, dd y):
    cdef double s, e, s2, f2
    t_sum(x.hi, y.hi, &s, &e)
    t_sum(x.lo, y.lo, &s2, &f2)
    e += s2
    q_sum(s, e, &s, &e)
    e += f2
    q_sum(s, e, &s, &e)
    return dd_make(s, e)


cdef inline dd dd_add_d(dd x, double y):
    cdef double s, e
    t_sum(x.hi, y, &s, &e)
    e += x.lo
    q_sum(s, e, &s, &e)
    return dd_make(s, e)


cdef inline dd dd_neg(dd x):
    return dd_make(-x.hi, -x.lo)


cdef inline dd dd_sub(dd x, dd y):
    return dd_add(x, dd_neg(y))


cdef inline dd dd_mul(dd x, dd y):
    cdef double p, e
    t_prod(x.hi, y.hi, &p, &e)
    e += x.hi * y.lo + x.lo * y.hi
    q_sum(p, e, &p, &e)
    return dd_make(p, e)


cdef inline dd dd_mul_d(dd x, double y):
    cdef double p, e
    t_prod(x.hi, y, &p, &e)
    e += x.lo * y
    q_sum(p, e, &p, &e)
    return dd_make(p, e)


cdef inline dd dd_scale(dd x, double p):
    # exact only when p is ±2^k
    return dd_make(x.hi * p, x.lo * p)


cdef inline dd dd_div(dd x, dd y):
    cdef double q1, q2, q3, s, e
    cdef dd r
    q1 = x.hi / y.hi
    r = dd_sub(x, dd_mul_d(y, q1))
    q2 = r.hi / y.hi
    r = dd_sub(r, dd_mul_d(y, q2))
    q3 = r.hi / y.hi
    q_sum(q1, q2, &s, &e)
    return dd_add_d(dd_make(s, e), q3)


cdef inline dd dd_sqrt(dd x):
    cdef double s, d, h, l
    cdef dd e
    if x.hi == 0.0 and x.lo == 0.0:
        return dd_make(0.0, 0.0)
    s = sqrt(x.hi)
    e = dd_sub(x, dd_mul(dd_make(s, 0.0), dd_make(s, 0.0)))
    d = e.hi / (2.0 * s)
    q_sum(s, d, &h, &l)
    return dd_make(h, l)


cdef double LN2_HI = 0.6931471805599453
cdef double LN2_LO = 2.3190468138462996e-17

cdef double INV_FACT_HI[16]
cdef double INV_FACT_LO[16]


cdef void _init_inv_fact():
    # 1/k! for k = 3..18; the series loop consumes these from the r**3
    # term onward (r and r**2/2 are added explicitly).
    cdef int k
    cdef double f = 2.0
    cdef dd v
    for k in range(3, 19):
        f *= k
        v = dd_div(dd_make(1.0, 0.0), dd_make(f, 0.0))
        INV_FACT_HI[k - 3] = v.hi
        INV_FACT_LO[k - 3] = v.lo


_init_inv_fact()


cdef dd dd_exp(dd x):
    cdef double m
    cdef dd r, p, s, t
    cdef int i, j
    if x.hi <= -709.0:
        return dd_make(0.0, 0.0)
    if x.hi >= 709.0:
        raise OverflowError("dd_exp argument too large")
    if x.hi != x.hi:  # u = a·s + phase overflowed to inf - inf
        raise OverflowError("dd_exp argument is not a number")
    if x.hi == 0.0 and x.lo == 0.0:
        return dd_make(1.0, 0.0)
    m = floor(x.hi / LN2_HI + 0.5)
    r = dd_scale(dd_sub(x, dd_mul_d(dd_make(LN2_HI, LN2_LO), m)), 1.0 / 512.0)
    p = dd_mul(r, r)
    s = dd_add(r, dd_scale(p, 0.5))
    p = dd_mul(p, r)
    t = dd_mul(p, dd_make(INV_FACT_HI[0], INV_FACT_LO[0]))
    i = 1
    while True:
        s = dd_add(s, t)
        p = dd_mul(p, r)
        t = dd_mul(p, dd_make(INV_FACT_HI[i], INV_FACT_LO[i]))
        i += 1
        if fabs(t.hi) <= 1e-40 or i >= 16:
            break
    s = dd_add(s, t)
    for j in range(9):
        s = dd_add(dd_mul(s, s), dd_scale(s, 2.0))
    s = dd_add_d(s, 1.0)
    return dd_make(ldexp(s.hi, <int>m), ldexp(s.lo, <int>m))


cdef void dd_cosh_sinh(dd x, dd *c, dd *sh):
    cdef dd e = dd_exp(x)
    if e.hi == 0.0:
        raise OverflowError("dd_exp argument too small")
    cdef dd inv = dd_div(dd_make(1.0, 0.0), e)
    c[0] = dd_scale(dd_add(e, inv), 0.5)
    sh[0] = dd_scale(dd_sub(e, inv), 0.5)


# --------------------------------------------------------------------------
# Double-double frame operations and the helix kernel
# --------------------------------------------------------------------------

cdef dd dd3_inner(dd *x, dd *y):
    return dd_sub(
        dd_mul(x[0], y[0]),
        dd_add(dd_mul(x[1], y[1]), dd_mul(x[2], y[2])),
    )


cdef void dd3_cross(dd *x, dd *y, dd *out):
    out[0] = dd_neg(dd_sub(dd_mul(x[1], y[2]), dd_mul(x[2], y[1])))
    out[1] = dd_neg(dd_sub(dd_mul(x[0], y[2]), dd_mul(x[2], y[0])))
    out[2] = dd_sub(dd_mul(x[0], y[1]), dd_mul(x[1], y[0]))


cdef void dd3_gamma(dd *x, dd *y, dd *out):
    out[0] = dd_neg(dd_add(dd_mul(x[1], y[2]), dd_mul(x[2], y[1])))
    out[1] = dd_neg(dd_add(dd_mul(x[0], y[2]), dd_mul(x[2], y[0])))
    out[2] = dd_sub(dd_mul(x[0], y[1]), dd_mul(x[1], y[0]))


cdef void dd3_curv(dd *x, dd *y, dd *z, dd *out):
    cdef dd p12 = dd_sub(dd_mul(x[0], y[1]), dd_mul(x[1], y[0]))
    cdef dd p13 = dd_sub(dd_mul(x[0], y[2]), dd_mul(x[2], y[0]))
    cdef dd p23 = dd_sub(dd_mul(x[1], y[2]), dd_mul(x[2], y[1]))
    out[0] = dd_sub(dd_mul(dd_mul_d(p12, 3.0), z[1]), dd_mul(p13, z[2]))
    out[1] = dd_sub(dd_mul(dd_mul_d(p12, 3.0), z[0]), dd_mul(p23, z[2]))
    out[2] = dd_add(dd_neg(dd_mul(p13, z[0])), dd_mul(p23, z[1]))


cdef void dd3_add(dd *x, dd *y, dd *out):
    out[0] = dd_add(x[0], y[0])
    out[1] = dd_add(x[1], y[1])
    out[2] = dd_add(x[2], y[2])


cdef void dd3_scale(dd *x, dd w, dd *out):
    out[0] = dd_mul(x[0], w)
    out[1] = dd_mul(x[1], w)
    out[2] = dd_mul(x[2], w)


cdef inline double dd_f(dd x):
    return x.hi + x.lo


def helix_eval(int form, double amp, double tilt, double slope_hi,
               double slope_lo, double phase, double s, double geo_tol):
    """Evaluate Frenet data and both bitension routes for a helix-form curve.

    Same contract as the pure backend's ``helix_eval``.
    """
    cdef dd a = dd_make(slope_hi, slope_lo)
    cdef dd u = dd_add_d(dd_mul_d(a, s), phase)
    cdef dd ch, sh, even, odd
    dd_cosh_sinh(u, &ch, &sh)
    if form == 0:
        even = ch
        odd = sh
    else:
        even = sh
        odd = ch
    cdef dd amp_dd = dd_make(amp, 0.0)
    cdef dd t0[3]
    cdef dd t1[3]
    cdef dd t2[3]
    cdef dd t3[3]
    cdef dd f1 = dd_mul(amp_dd, a)
    cdef dd f2 = dd_mul(f1, a)
    cdef dd f3 = dd_mul(f2, a)
    t0[0] = dd_mul(amp_dd, even)
    t0[1] = dd_mul(amp_dd, odd)
    t0[2] = dd_make(tilt, 0.0)
    t1[0] = dd_mul(f1, odd)
    t1[1] = dd_mul(f1, even)
    t1[2] = dd_make(0.0, 0.0)
    t2[0] = dd_mul(f2, even)
    t2[1] = dd_mul(f2, odd)
    t2[2] = dd_make(0.0, 0.0)
    t3[0] = dd_mul(f3, odd)
    t3[1] = dd_mul(f3, even)
    t3[2] = dd_make(0.0, 0.0)

    # --- covariant jet chain (direct route) ---
    cdef dd a10[3]
    cdef dd a11[3]
    cdef dd a12[3]
    cdef dd a20[3]
    cdef dd a21[3]
    cdef dd a3[3]
    cdef dd g1[3]
    cdef dd g2[3]
    cdef dd g3[3]
    cdef dd r[3]
    cdef int i
    dd3_gamma(t0, t0, g1)
    dd3_add(t1, g1, a10)
    dd3_gamma(t1, t0, g1)
    dd3_gamma(t0, t1, g2)
    for i in range(3):
        a11[i] = dd_add(t2[i], dd_add(g1[i], g2[i]))
    dd3_gamma(t2, t0, g1)
    dd3_gamma(t1, t1, g2)
    dd3_gamma(t0, t2, g3)
    for i in range(3):
        a12[i] = dd_add(t3[i], dd_add(g1[i], dd_add(dd_scale(g2[i], 2.0), g3[i])))
    dd3_gamma(t0, a10, g1)
    dd3_add(a11, g1, a20)
    dd3_gamma(t1, a10, g1)
    dd3_gamma(t0, a11, g2)
    for i in range(3):
        a21[i] = dd_add(a12[i], dd_add(g1[i], g2[i]))
    dd3_gamma(t0, a20, g1)
    dd3_add(a21, g1, a3)
    dd3_curv(t0, a10, t0, r)
    tau_d = (
        dd_f(dd_sub(a3[0], r[0])),
        dd_f(dd_sub(a3[1], r[1])),
        dd_f(dd_sub(a3[2], r[2])),
    )

    # --- Frenet chain (independent route) ---
    cdef double an0 = dd_f(a10[0])
    cdef double an1 = dd_f(a10[1])
    cdef double an2 = dd_f(a10[2])
    if sqrt(an0 * an0 + an1 * an1 + an2 * an2) <= geo_tol:
        raise GeodesicDegenerateError(
            "curvature vanishes along this helix (‖∇_T T‖ <= %r)" % (geo_tol,)
        )
    cdef dd q0 = dd3_inner(a10, a10)
    if fabs(dd_f(q0)) <= geo_tol * geo_tol:
        raise NullNormalDegenerateError(
            "acceleration is null along this helix (inner(A, A) = %r)"
            % (dd_f(q0),)
        )
    cdef double eps2 = c_sign(q0.hi)
    cdef dd q1 = dd_scale(dd3_inner(a11, a10), 2.0)
    cdef dd q2 = dd_scale(dd_add(dd3_inner(a12, a10), dd3_inner(a11, a11)), 2.0)
    cdef dd u0 = dd_scale(q0, eps2)
    cdef dd u1 = dd_scale(q1, eps2)
    cdef dd u2 = dd_scale(q2, eps2)
    cdef dd k1 = dd_sqrt(u0)
    cdef dd k1p = dd_div(u1, dd_scale(k1, 2.0))
    cdef dd k1pp = dd_div(
        dd_sub(u2, dd_scale(dd_mul(k1p, k1p), 2.0)), dd_scale(k1, 2.0)
    )
    cdef dd w0 = dd_div(dd_make(eps2, 0.0), k1)
    cdef dd w1 = dd_scale(dd_div(k1p, u0), -eps2)
    cdef dd w2 = dd_scale(
        dd_sub(
            dd_scale(dd_div(dd_mul(k1p, k1p), dd_mul(u0, k1)), 2.0),
            dd_div(k1pp, u0),
        ),
        eps2,
    )
    cdef dd n0[3]
    cdef dd n1v[3]
    cdef dd n2v[3]
    cdef dd tmp1[3]
    cdef dd tmp2[3]
    dd3_scale(a10, w0, n0)
    dd3_scale(a11, w0, tmp1)
    dd3_scale(a10, w1, tmp2)
    dd3_add(tmp1, tmp2, n1v)
    dd3_scale(a12, w0, tmp1)
    for i in range(3):
        tmp2[i] = dd_add(
            dd_mul(a11[i], dd_scale(w1, 2.0)), dd_mul(a10[i], w2)
        )
    dd3_add(tmp1, tmp2, n2v)
    cdef dd b0[3]
    cdef dd b1v[3]
    dd3_cross(t0, n0, b0)
    dd3_cross(t1, n0, tmp1)
    dd3_cross(t0, n1v, tmp2)
    dd3_add(tmp1, tmp2, b1v)
    cdef dd m0[3]
    cdef dd m1[3]
    cdef dd dbv[3]
    dd3_gamma(t0, n0, g1)
    dd3_add(n1v, g1, m0)
    dd3_gamma(t1, n0, g1)
    dd3_gamma(t0, n1v, g2)
    for i in range(3):
        m1[i] = dd_add(n2v[i], dd_add(g1[i], g2[i]))
    dd3_gamma(t0, b0, g1)
    dd3_add(b1v, g1, dbv)
    cdef dd k2 = dd3_inner(m0, b0)
    cdef dd k2p = dd_add(dd3_inner(m1, b0), dd3_inner(m0, b1v))
    cdef double eps1 = c_sign(dd3_inner(t0, t0).hi)
    cdef double eps3 = c_sign(dd3_inner(b0, b0).hi)

    cdef dd n3 = n0[2]
    cdef dd b3 = b0[2]
    cdef dd ct = dd_mul_d(dd_mul(k1, k1p), -3.0 * eps1 * eps2)
    cdef dd cn = dd_add(
        dd_sub(
            dd_scale(k1pp, eps2),
            dd_add(
                dd_scale(dd_mul(dd_mul(k1, k1), k1), eps1),
                dd_scale(dd_mul(k1, dd_mul(k2, k2)), eps3),
            ),
        ),
        dd_add(
            dd_scale(k1, eps3),
            dd_scale(dd_mul(k1, dd_mul(b3, b3)), 4.0),
        ),
    )
    cdef dd cb = dd_sub(
        dd_add(
            dd_scale(dd_mul(k1p, k2), 2.0 * eps2 * eps3),
            dd_scale(dd_mul(k1, k2p), eps2 * eps3),
        ),
        dd_scale(dd_mul(k1, dd_mul(n3, b3)), 4.0 * eps2 * eps3),
    )
    tau_f = (
        dd_f(dd_add(dd_mul(ct, t0[0]),
                    dd_add(dd_mul(cn, n0[0]), dd_mul(cb, b0[0])))),
        dd_f(dd_add(dd_mul(ct, t0[1]),
                    dd_add(dd_mul(cn, n0[1]), dd_mul(cb, b0[1])))),
        dd_f(dd_add(dd_mul(ct, t0[2]),
                    dd_add(dd_mul(cn, n0[2]), dd_mul(cb, b0[2])))),
    )
    fr = (
        dd_f(k1), dd_f(k1p), dd_f(k1pp), dd_f(k2), dd_f(k2p),
        eps1, eps2, eps3,
        dd_f(t0[0]), dd_f(t0[1]), dd_f(t0[2]),
        dd_f(n0[0]), dd_f(n0[1]), dd_f(n0[2]),
        dd_f(b0[0]), dd_f(b0[1]), dd_f(b0[2]),
        dd_f(m0[0]), dd_f(m0[1]), dd_f(m0[2]),
        dd_f(dbv[0]), dd_f(dbv[1]), dd_f(dbv[2]),
    )
    return fr, tau_d, tau_f
