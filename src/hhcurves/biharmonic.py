"""Bitension field and biharmonicity analysis of unit-speed curves.

Two independent routes compute the bitension field τ₂ (a curve is proper
biharmonic when τ₂ ≡ 0 and the curvature doesn't vanish):

* the **direct route** evaluates ``τ₂ = ∇³_T T − R(T, ∇_T T)T`` from tangent
  jets via the covariant jet chain;
* the **Frenet route** recombines τ₂ from Frenet data::

      τ₂ =  −3·k1·k1'·ε1·ε2                       · T
          + (k1''·ε2 − k1³·ε1 − k1·k2²·ε3 + k1·ε3 + 4·k1·B3²) · N
          + (2·k1'·k2 + k1·k2' − 4·k1·N3·B3)·ε2·ε3           · B

Their agreement on every curve is one of the package's standing invariants.

``check_biharmonic_conditions`` evaluates the algebraic characterization on a
grid: k1 and k2 constant, ``N3·B3 = 0``, and the closure identity
``k1²·ε1·ε3 + k2² − 1 − 4·ε3·B3² = 0`` (for k2 = 0 this reduces to
``k1² = ε1·(ε3 + 4·B3²)``). Note the ``4·N3·B3`` factor in the B-coefficient
above: the torsion-derivative condition consistent with the direct oracle is
``k2' = 4·N3·B3`` (ε-signs as displayed), not ``k2' = N3·B3``; the regression
tests pin the direct route against this choice on a curve with N3·B3 ≠ 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from hhcurves import frenet as _frenet
from hhcurves._kernels import _tau_from_frenet
from hhcurves.curves import verdict_tol
from hhcurves.errors import HHCurvesError, InvalidInputError
from hhcurves.frame import FrameVector

__all__ = [
    "BiharmonicReport",
    "bitension_direct",
    "bitension_frenet_at",
    "bitension_frenet",
    "route_norms",
    "residual_norms",
    "check_biharmonic_conditions",
    "identity_defect",
]


@dataclass(frozen=True)
class BiharmonicReport:
    """Grid evaluation of the biharmonicity conditions.

    ``residual_direct`` / ``residual_frenet`` are Euclidean norms of τ₂ per
    grid point (``nan`` for the Frenet route at degenerate points);
    ``condition_values`` holds the scalar condition defects;
    ``verdict`` is one of ``"Biharmonic"``, ``"NotBiharmonic"``,
    ``"Geodesic"``.
    """

    verdict: str
    grid: tuple
    residual_direct: tuple
    residual_frenet: tuple
    condition_values: dict = field(compare=False)
    tol: float


def _enorm(v):
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def bitension_direct(curve, s):
    """Bitension field at ``s`` via the covariant jet chain."""
    tau = _frenet.point_data(curve, s)[1]
    return FrameVector(*tau)


def bitension_frenet_at(curve, s):
    """Bitension field at ``s`` via the Frenet-form coefficients."""
    tau = _frenet.point_data(curve, s)[2]
    return FrameVector(*tau)


def bitension_frenet(data):
    """Bitension field recombined from a :class:`~hhcurves.frenet.FrenetData`.

    This is the pure double-precision recombination; it matches
    :func:`bitension_frenet_at` up to rounding of the stored Frenet data.
    """
    return FrameVector(*_tau_from_frenet(data))


def identity_defect(k1, k2, eps1, eps3, b3):
    """Closure-identity defect ``k1²·ε1·ε3 + k2² − 1 − 4·ε3·B3²``."""
    return k1 * k1 * eps1 * eps3 + k2 * k2 - 1.0 - 4.0 * eps3 * b3 * b3


def route_norms(results):
    """Euclidean norms of τ₂ by both routes, from the point results of
    :func:`frenet.evaluate_points`; raises the first degeneracy error among
    them."""
    direct = []
    fren = []
    for res in results:
        if isinstance(res, Exception):
            raise res
        direct.append(_enorm(res[1]))
        fren.append(_enorm(res[2]))
    return tuple(direct), tuple(fren)


def residual_norms(curve, grid):
    """Euclidean norms of τ₂ along the grid for both routes."""
    return route_norms(_frenet.evaluate_grid(curve, tuple(grid)))


def check_biharmonic_conditions(curve, grid):
    """Evaluate the biharmonicity conditions on a grid.

    Verdicts: ``"Geodesic"`` when the curvature degenerates anywhere on the
    grid; otherwise ``"Biharmonic"`` when k1 and k2 are constant (within
    ``tol·(1 + |mean|)``), ``|N3·B3| <= tol``, and the closure identity holds
    within ``tol``; else ``"NotBiharmonic"``. ``tol`` is
    :func:`~hhcurves.curves.verdict_tol` of the curve, and the report
    records it.
    """
    grid = tuple(float(s) for s in grid)
    if not grid:
        raise InvalidInputError("grid must be non-empty")
    tol = verdict_tol(curve)

    frames = []
    res_d = []
    res_f = []
    degenerate = 0
    for s, res in zip(grid, _frenet.evaluate_grid(curve, grid)):
        if isinstance(res, Exception):
            degenerate += 1
            # the direct route needs no frame, so it still reports; a
            # library error there gives NaN, and a caller's own propagates
            try:
                res_d.append(_enorm(_frenet.direct_tau(curve, s)))
            except HHCurvesError:
                res_d.append(float("nan"))
            res_f.append(float("nan"))
            continue
        frames.append(res[0])
        res_d.append(_enorm(res[1]))
        res_f.append(_enorm(res[2]))

    if degenerate:
        return BiharmonicReport(
            verdict="Geodesic",
            grid=grid,
            residual_direct=tuple(res_d),
            residual_frenet=tuple(res_f),
            condition_values={"degenerate_points": float(degenerate)},
            tol=tol,
        )

    summ = _frenet.summarize_frames(grid, frames)
    e1, e3 = frames[0].eps1, frames[0].eps3
    n3b3_max = max(abs(d.n3 * d.b3) for d in frames)
    defect_max = max(
        abs(identity_defect(d.k1, d.k2, e1, e3, d.b3)) for d in frames
    )
    conditions = {
        "k1_mean": summ.k1_mean,
        "k2_mean": summ.k2_mean,
        "k1_max_dev": summ.k1_max_dev,
        "k2_max_dev": summ.k2_max_dev,
        "n3b3_max": n3b3_max,
        "identity_defect_max": defect_max,
    }
    if abs(summ.k2_mean) <= tol:
        # zero-torsion reduction of the identity: k1² = ε1·(ε3 + 4·B3²)
        conditions["k2_zero_form_defect"] = max(
            abs(d.k1 * d.k1 - e1 * (e3 + 4.0 * d.b3 * d.b3)) for d in frames
        )
    ok = (
        summ.k1_max_dev <= tol * (1.0 + abs(summ.k1_mean))
        and summ.k2_max_dev <= tol * (1.0 + abs(summ.k2_mean))
        and n3b3_max <= tol
        and defect_max <= tol
    )
    return BiharmonicReport(
        verdict="Biharmonic" if ok else "NotBiharmonic",
        grid=grid,
        residual_direct=tuple(res_d),
        residual_frenet=tuple(res_f),
        condition_values=conditions,
        tol=tol,
    )
