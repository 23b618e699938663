"""Test helper: the Frenet record of a b3zero curve from its reduced jets.

A b3zero curve's tangent is ``B(β)·v``, with B the boost of
``isometries.py`` and ``v = (cosh α, 0, sinh α)``, ``β' = 2·sinh α``
(spacelike) or ``v = (sinh α, 0, cosh α)``, ``β' = 2·cosh α`` (timelike).
The boosts have generator ``J(x, y, z) = (y, x, 0)``, so the k-th
derivative of the tangent is ``B(β)·D^k v`` with ``D w = w' + β'·J·w``.
D obeys the product rule for Γ, R, inner and cross, because J generates
automorphisms that are isometries. So the kernels' jet chain, run on the
reduced jets ``(v, Dv, D²v, D³v)``, gives the curve's k1, k2, signs, N3 and
B3, and its frame vectors in the co-moving frame, which ``B(β)`` maps to the
fixed frame. The reduced jets hold numbers of size one, where the
fixed-frame jets grow like ``cosh β``.
"""

import math

from isometries import boost
from hhcurves import _kernels
from hhcurves.frenet import FrenetData


def _cosh_sinh_jets(alpha):
    """Jets to order 3 of cosh α and sinh α, from ``alpha = (α, α', α'',
    α''')``."""
    a0, a1, a2, a3 = alpha
    c, h = math.cosh(a0), math.sinh(a0)

    def jets(f, g):  # f is cosh or sinh at α, g the other
        return (f, g * a1, f * a1 * a1 + g * a2,
                g * a1 ** 3 + 3.0 * f * a1 * a2 + g * a3)

    return jets(c, h), jets(h, c)


def _d(w, beta_prime):
    """Jets of ``D w = w' + β'·J·w`` from those of w, one order fewer."""
    out = []
    for k in range(len(w) - 1):
        x, y, z = w[k + 1]
        for j in range(k + 1):
            c = math.comb(k, j) * beta_prime[j]
            x += c * w[k - j][1]
            y += c * w[k - j][0]
        out.append((x, y, z))
    return out


def reduced_jets(kind, alpha):
    """``(v, Dv, D²v, D³v)`` of a b3zero curve of ``kind`` ("spacelike" or
    "timelike") at a point where α has the jets ``alpha``."""
    ch, sh = _cosh_sinh_jets(alpha)
    radial, axial = (ch, sh) if kind == "spacelike" else (sh, ch)
    beta_prime = tuple(2.0 * x for x in axial[:3])
    w = [(radial[k], 0.0, axial[k]) for k in range(4)]
    jets = [w[0]]
    for _ in range(3):
        w = _d(w, beta_prime)
        jets.append(w[0])
    return tuple(jets)


def reduced_record(kind, alpha, beta, geo_tol=1e-9, unit_tol=1e-9):
    """``(fixed, own)``: the :class:`FrenetData` of the reduced jets, with
    its frame vectors mapped by ``B(β)`` (``fixed``) and as computed
    (``own``)."""
    jets = _kernels.project_unit_jets(reduced_jets(kind, alpha), unit_tol)
    own = _kernels.point_eval(jets, geo_tol)[0]
    image = boost(beta)
    fixed = own[:8]
    for i in range(8, 23, 3):
        fixed += image(own[i:i + 3])
    return FrenetData._make(fixed), FrenetData._make(own)
