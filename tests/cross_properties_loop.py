"""Test helper: the ``cross-properties`` verify check as a loop over triples.

This is the check as it was written before it became one array pass: every
triple goes through the scalar ``frame`` functions on its own, with its own
draws from the generator. The batched check must give the same
``(status, max_residual, details)``.
"""

import math

from hhcurves import frame
from hhcurves import verify


def _vmax(u):
    return max(abs(u[i]) for i in range(3))


def check_cross_properties(rng):
    tol = 1e-12
    inner, cross, mixed = frame.inner, frame.cross, frame.mixed
    vdiff, vmax, det3 = verify._vdiff, _vmax, verify._det3
    worst = 0.0
    n_real = 1000
    for _ in range(n_real):
        x, y, z = (tuple(rng.uniform(-1.0, 1.0, 3)) for _ in range(3))
        a, b = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))
        cxy = tuple(cross(x, y))
        # (i) bilinearity and antisymmetry
        left = tuple(cross(tuple(a * x[i] + b * y[i] for i in range(3)), z))
        cxz, cyz = tuple(cross(x, z)), tuple(cross(y, z))
        ref = tuple(a * cxz[i] + b * cyz[i] for i in range(3))
        worst = max(worst, vdiff(left, ref))
        worst = max(worst, vdiff(cxy, tuple(-c for c in cross(y, x))))
        # (ii) orthogonality to both factors
        worst = max(worst, abs(inner(cxy, x)), abs(inner(cxy, y)))
        # (iv) double-cross expansion
        dbl = tuple(cross(cxy, z))
        gxz, gyz = inner(x, z), inner(y, z)
        ref4 = tuple(gxz * y[i] - gyz * x[i] for i in range(3))
        worst = max(worst, vdiff(dbl, ref4))
        # (v) mixed product vs -det and cyclic symmetry
        m = mixed(x, y, z)
        worst = max(worst, abs(m + det3(x, y, z)))
        worst = max(worst, abs(m - mixed(y, z, x)), abs(m - mixed(z, x, y)))
        # (vi) cyclic double-cross sum
        j1 = tuple(cross(cxy, z))
        j2 = tuple(cross(cross(y, z), x))
        j3 = tuple(cross(cross(z, x), y))
        worst = max(worst, vmax(tuple(j1[i] + j2[i] + j3[i] for i in range(3))))
    # basis identities and integer triples: exact
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    basis_ok = (
        tuple(cross(e1, e2)) == (0.0, 0.0, 1.0)
        and tuple(cross(e2, e3)) == (-1.0, 0.0, 0.0)
        and tuple(cross(e3, e1)) == (0.0, 1.0, 0.0)
    )
    int_ok = True
    for _ in range(50):
        x, y, z = (tuple(math.floor(c) for c in rng.uniform(-3.0, 4.0, 3))
                   for _ in range(3))
        cxy = tuple(cross(x, y))
        if tuple(cross(y, x)) != tuple(-c for c in cxy):
            int_ok = False
        if inner(cxy, x) != 0.0 or inner(cxy, y) != 0.0:
            int_ok = False
        if mixed(x, y, z) != -float(det3(x, y, z)):
            int_ok = False
        gxz, gyz = inner(x, z), inner(y, z)
        if tuple(cross(cxy, z)) != tuple(
            float(gxz * y[i] - gyz * x[i]) for i in range(3)
        ):
            int_ok = False
    status = verify._status(worst <= tol and basis_ok and int_ok)
    details = (
        "%d seeded real triples, properties (i)-(vi): max_residual=%s "
        "(tol %s); basis identities exact: %s; 50 integer triples exact: %s"
        % (n_real, verify._fmt(worst), verify._fmt(tol), basis_ok, int_ok)
    )
    return status, worst, details
