"""Levi-Civita connection and curvature of the hyperbolic Heisenberg group.

The frame is left-invariant, so the connection and curvature are constant
integer tables in frame components. This module stores the tables exactly,
re-derives them from first principles with integer arithmetic (the
independent oracles ``connection_from_brackets`` and
``curvature_from_connection``), and exposes the covariant derivative along a
curve and the curvature operator as numerical operations.

Table conventions (1-indexed frame labels):

* brackets: ``[e1, e2] = 2·e3``, all other basis brackets vanish;
* connection: ``∇_{e1} e2 = e3``, ``∇_{e1} e3 = −e2``, ``∇_{e2} e1 = −e3``,
  ``∇_{e2} e3 = −e1``, ``∇_{e3} e1 = −e2``, ``∇_{e3} e2 = −e1``, and
  ``∇_{ei} ei = 0``;
* curvature ``R(x, y)z = ∇_x ∇_y z − ∇_y ∇_x z − ∇_{[x,y]} z``, with
  ``R(e1,e2)e1 = 3·e2``, ``R(e1,e2)e2 = 3·e1``, ``R(e1,e3)e1 = −e3``,
  ``R(e1,e3)e3 = −e1``, ``R(e2,e3)e2 = e3``, ``R(e2,e3)e3 = −e2``,
  antisymmetric in the first pair, zero otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hhcurves import _kernels
from hhcurves.frame import FrameVector, _components

__all__ = [
    "ConnectionTable",
    "CurvatureTable",
    "METRIC_DIAGONAL",
    "BRACKETS",
    "CONNECTION",
    "CURVATURE",
    "connection_from_brackets",
    "curvature_from_connection",
    "metric_compatibility_defect",
    "torsion_defect",
    "covariant_derivative_along",
    "curvature",
    "riemann_christoffel",
]

METRIC_DIAGONAL = (1, -1, -1)

# BRACKETS[i][j] = frame components of [e_{i+1}, e_{j+1}] (exact integers).
BRACKETS = (
    ((0, 0, 0), (0, 0, 2), (0, 0, 0)),
    ((0, 0, -2), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
)


@dataclass(frozen=True)
class ConnectionTable:
    """Integer table ``coeffs[i][j]`` = components of ``∇_{e_{i+1}} e_{j+1}``."""

    coeffs: tuple

    def entry(self, i, j):
        """Components of ∇_{e_i} e_j for 1-indexed labels."""
        return self.coeffs[i - 1][j - 1]


@dataclass(frozen=True)
class CurvatureTable:
    """Integer table ``coeffs[i][j][k]`` = components of ``R(e_{i+1}, e_{j+1}) e_{k+1}``."""

    coeffs: tuple

    def entry(self, i, j, k):
        """Components of R(e_i, e_j)e_k for 1-indexed labels."""
        return self.coeffs[i - 1][j - 1][k - 1]


CONNECTION = ConnectionTable((
    ((0, 0, 0), (0, 0, 1), (0, -1, 0)),
    ((0, 0, -1), (0, 0, 0), (-1, 0, 0)),
    ((0, -1, 0), (-1, 0, 0), (0, 0, 0)),
))

CURVATURE = CurvatureTable((
    (
        ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 3, 0), (3, 0, 0), (0, 0, 0)),
        ((0, 0, -1), (0, 0, 0), (-1, 0, 0)),
    ),
    (
        ((0, -3, 0), (-3, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 1), (0, -1, 0)),
    ),
    (
        ((0, 0, 1), (0, 0, 0), (1, 0, 0)),
        ((0, 0, 0), (0, 0, -1), (0, 1, 0)),
        ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    ),
))


def _int_inner(x, y):
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2]


def connection_from_brackets():
    """Derive the connection table from the brackets alone (exact oracle).

    Uses the Koszul formula for a frame with constant metric coefficients:
    ``2·inner(∇_{ei} ej, ek) = inner([ei,ej], ek) − inner([ej,ek], ei)
    + inner([ek,ei], ej)``, solved exactly with rational arithmetic.
    """
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            comps = []
            for k in range(3):
                num = (
                    _int_inner(BRACKETS[i][j], _basis(k))
                    - _int_inner(BRACKETS[j][k], _basis(i))
                    + _int_inner(BRACKETS[k][i], _basis(j))
                )
                val = Fraction(num, 2) / METRIC_DIAGONAL[k]
                if val.denominator != 1:
                    raise AssertionError("non-integer connection coefficient")
                comps.append(int(val))
            row.append(tuple(comps))
        rows.append(tuple(row))
    return ConnectionTable(tuple(rows))


def _basis(k):
    return tuple(1 if n == k else 0 for n in range(3))


def _nabla_const(i, v):
    """∇_{e_{i+1}} of a constant-coefficient field v under :data:`CONNECTION`
    (integer arithmetic)."""
    out = [0, 0, 0]
    for j in range(3):
        coeff = v[j]
        if coeff:
            entry = CONNECTION.coeffs[i][j]
            for n in range(3):
                out[n] += coeff * entry[n]
    return tuple(out)


def curvature_from_connection():
    """Brute-force curvature table from :data:`CONNECTION` (exact oracle).

    Evaluates ``R(ei, ej)ek = ∇_i ∇_j ek − ∇_j ∇_i ek − ∇_{[ei,ej]} ek`` with
    integer arithmetic; the bracket term expands over the constant bracket
    coefficients.
    """
    rows = []
    for i in range(3):
        plane = []
        for j in range(3):
            row = []
            for k in range(3):
                ek = _basis(k)
                term1 = _nabla_const(i, _nabla_const(j, ek))
                term2 = _nabla_const(j, _nabla_const(i, ek))
                bracket = BRACKETS[i][j]
                term3 = [0, 0, 0]
                for l in range(3):
                    if bracket[l]:
                        nl = _nabla_const(l, ek)
                        for n in range(3):
                            term3[n] += bracket[l] * nl[n]
                row.append(tuple(
                    term1[n] - term2[n] - term3[n] for n in range(3)
                ))
            plane.append(tuple(row))
        rows.append(tuple(plane))
    return CurvatureTable(tuple(rows))


def metric_compatibility_defect(metric=METRIC_DIAGONAL):
    """Max integer defect of metric compatibility of :data:`CONNECTION` under
    the diagonal ``metric``.

    For constant metric coefficients compatibility reads
    ``inner(∇_i ej, ek) + inner(ej, ∇_i ek) = 0`` for all i, j, k; the
    returned value is the largest absolute violation (0 means compatible).
    """
    table = CONNECTION.coeffs

    def m_inner(x, y):
        return sum(metric[n] * x[n] * y[n] for n in range(3))

    worst = 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                d = m_inner(table[i][j], _basis(k)) + m_inner(
                    _basis(j), table[i][k]
                )
                worst = max(worst, abs(d))
    return worst


def torsion_defect():
    """Max integer defect of torsion-freeness of :data:`CONNECTION`:
    ``∇_i ej − ∇_j ei − [ei, ej]``."""
    table = CONNECTION.coeffs
    worst = 0
    for i in range(3):
        for j in range(3):
            for n in range(3):
                d = (
                    table[i][j][n]
                    - table[j][i][n]
                    - BRACKETS[i][j][n]
                )
                worst = max(worst, abs(d))
    return worst


def covariant_derivative_along(t, v, vprime):
    """Covariant derivative of a field V along a curve with tangent ``t``.

    ``t`` and ``v`` are the frame components of the tangent and the field at
    the point, ``vprime`` the parameter derivative of the field's components;
    returns ``vprime + Γ(t, v)`` where Γ is the connection bilinear.
    """
    return FrameVector(
        *_kernels.covd(_components(t), _components(v), _components(vprime))
    )


def curvature(x, y, z):
    """Curvature operator ``R(x, y)z`` (trilinear extension of the table)."""
    return FrameVector(
        *_kernels.curvature_op(_components(x), _components(y), _components(z))
    )


def riemann_christoffel(x, y, z, w):
    """Four-argument curvature ``inner(R(x, y)z, w)``.

    Examples: ``(e1, e2, e1, e2) → −3`` and ``(e1, e3, e1, e3) → +1``.
    """
    return _kernels.inner(
        _kernels.curvature_op(_components(x), _components(y), _components(z)),
        _components(w),
    )
