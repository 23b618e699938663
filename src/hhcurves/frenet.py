"""Frenet apparatus of non-degenerate unit-speed curves.

``compute_frenet`` returns the frame (T, N, B), the curvatures (k1 ≥ 0, k2)
and the causal signs (eps1, eps2, eps3) at a point:

* ``k1 = sqrt(|inner(A, A)|)`` with ``A = ∇_T T``, ``eps2 = sign(inner(A, A))``;
* ``N = A / (k1·eps2)``, ``B = cross(T, N)``, ``k2 = inner(∇_T N, B)``;
* ``eps1 = sign(inner(T, T))``, ``eps3 = sign(inner(B, B))``; the product
  eps1·eps2·eps3 is +1 for every non-degenerate frame.

Degeneracies raise: :class:`GeodesicDegenerateError` when ``‖∇_T T‖`` is at
most :func:`~hhcurves.curves.geodesic_tol` of the curve, and
:class:`NullNormalDegenerateError` when the acceleration is non-zero but
null; over many points, ``evaluate_points`` yields them instead. Unit speed is
checked, never silently enforced: ``project_unit_jets`` in the kernels raises
beyond :func:`~hhcurves.curves.unit_speed_tol` of the curve.

The Frenet frame obeys the closure identities ``∇_T N = −k1·eps1·T +
k2·eps3·B`` and ``∇_T B = −k2·eps2·N``; tests pin both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from hhcurves import _kernels
from hhcurves.curves import (
    DEFAULT_GEO_TOL_ANALYTIC,
    DEFAULT_GEO_TOL_FD,
    geodesic_tol,
    unit_speed_tol,
)
from hhcurves.errors import (
    GeodesicDegenerateError,
    HHCurvesError,
    InvalidInputError,
    NullNormalDegenerateError,
    NumericOverflowError,
)
from hhcurves.frame import FrameVector, cross, inner

__all__ = [
    "FrenetData",
    "ExtendedFrenetData",
    "FrenetGridSummary",
    "point_data",
    "evaluate_points",
    "evaluate_grid",
    "direct_tau",
    "compute_frenet",
    "frame_scalars",
    "frenet_from_flat",
    "extended_from_flat",
    "flat_from_extended",
    "extended_frenet",
    "frenet_over_grid",
    "summarize_frames",
    "DEFAULT_GEO_TOL_ANALYTIC",
    "DEFAULT_GEO_TOL_FD",
]


@dataclass(frozen=True)
class FrenetData:
    """Frenet frame, curvatures, and causal signs at one point."""

    t: FrameVector
    n: FrameVector
    b: FrameVector
    k1: float
    k2: float
    eps1: float
    eps2: float
    eps3: float

    def validate(self):
        """Check the defining invariants; raises on violation.

        Verifies |inner(T,T)| = |inner(N,N)| = |inner(B,B)| = 1 with the
        recorded signs, mutual orthogonality, B = cross(T, N) (each to 1e-6),
        k1 >= 0, and eps1·eps2·eps3 = +1.
        """
        tol = 1e-6
        defects = [
            abs(inner(self.t, self.t) - self.eps1),
            abs(inner(self.n, self.n) - self.eps2),
            abs(inner(self.b, self.b) - self.eps3),
            abs(inner(self.t, self.n)),
            abs(inner(self.t, self.b)),
            abs(inner(self.n, self.b)),
        ]
        bb = cross(self.t, self.n)
        defects.extend(abs(bb[i] - self.b[i]) for i in range(3))
        worst = max(defects)
        if worst > tol:
            raise InvalidInputError(
                "Frenet data violates frame invariants (defect %r > %r)"
                % (worst, tol)
            )
        if self.k1 < 0:
            raise InvalidInputError("k1 must be non-negative, got %r" % (self.k1,))
        if self.eps1 * self.eps2 * self.eps3 != 1.0:
            raise InvalidInputError(
                "sign product eps1*eps2*eps3 must be +1, got %r"
                % ((self.eps1, self.eps2, self.eps3),)
            )
        return worst


@dataclass(frozen=True)
class ExtendedFrenetData:
    """Frenet data plus the derivative information the bitension field needs."""

    data: FrenetData
    k1_prime: float
    k1_second: float
    k2_prime: float
    nabla_t_n: FrameVector
    nabla_t_b: FrameVector


@dataclass(frozen=True)
class FrenetGridSummary:
    """Per-point Frenet data over a grid plus constancy statistics."""

    grid: tuple
    data: tuple
    k1_mean: float
    k2_mean: float
    n3_mean: float
    b3_mean: float
    k1_max_dev: float
    k2_max_dev: float
    n3_max_dev: float
    b3_max_dev: float


def _evaluate(curve, s, jets_kernel):
    """The helix kernel's ``(fr, tau_direct, tau_frenet)`` for helix-form
    curves, else ``jets_kernel`` of the projected tangent jets; raises
    :class:`NumericOverflowError` when any value is not finite."""
    geo_tol = geodesic_tol(curve)
    hx = getattr(curve, "helix", None)
    if hx is not None:
        out = _kernels.helix_eval(hx.form, hx.amp, hx.tilt, hx.slope_hi,
                                  hx.slope_lo, hx.phase, float(s), geo_tol)
    else:
        jets = curve.tangent_jets(s)
        try:
            out = jets_kernel(_kernels.project_unit_jets(
                jets, unit_speed_tol(curve)), geo_tol)
        except (ValueError, OverflowError) as exc:
            if isinstance(exc, HHCurvesError):
                raise
            # math.fsum meets inf - inf, or a partial sum past DBL_MAX, once
            # products of the jets overflow
            raise NumericOverflowError(
                "jet arithmetic overflows: %s" % (exc,)) from exc
    if not all(map(math.isfinite, chain.from_iterable(out))):
        raise NumericOverflowError(
            "the Frenet data at s=%r is not finite" % (s,))
    return out


def _frame_jets(jets, geo_tol):
    return (_kernels.frenet_jets(jets, geo_tol),)


def point_data(curve, s):
    """Raw kernel evaluation at one point.

    Returns ``(fr, tau_direct, tau_frenet)`` where ``fr`` is the kernel's flat
    Frenet tuple. Helix-form curves go through the double-double kernel; all
    others go through jet projection plus the compensated double pipeline.
    Raises the degeneracy errors and :class:`UnitSpeedError` as appropriate.
    """
    return _evaluate(curve, s, _kernels.point_eval)


# Fewest helix points, counted over all the curves of one call, for which
# they go through the grid kernel. On the pure backend one NumPy pass cost
# 5.2-5.9 ms at any size from 1 to 81 points, against 0.45 ms a point for
# point_data; in a second run, on a slower phase of the same host, 11.5-12.4
# ms against 0.90 ms a point. The pass broke even at 13 points (ratio 0.98
# and 1.03) and won from 14 (0.89 and 0.95). Medians of 50 and 80
# interleaved calls on two helices, Python 3.11, NumPy 2.4, 2 vCPUs. Helix
# parameters given per point cost no more than one set for all: 7.0 and
# 11.9 ms at 14 points against 8.2 and 12.2 ms (8.2 and 13.4 ms for 14
# point_data calls). Past 81 points a pass grows slowly: 18-26 ms at 820
# points and 30-38 ms at 1458, on the same host.
_GRID_MIN_POINTS = 14


def evaluate_points(pairs, *, frames=False):
    """Evaluate each ``(curve, s)`` pair, lazily and in input order.

    Yields :func:`point_data`'s ``(fr, tau_direct, tau_frenet)``, or with
    ``frames`` the :class:`FrenetData` of :func:`compute_frenet`, for each
    pair; a point whose frame degenerates yields its degeneracy error
    instead, and every other error raises. When the pairs hold 14 helix
    points or more, those of every curve take one grid-kernel pass, each
    with its curve's :func:`~hhcurves.curves.geodesic_tol`; the other
    points, and those that pass hands back (possibly degenerate, out of
    ``exp`` range, or not finite), go through :func:`point_data` or
    :func:`compute_frenet`.
    """
    pairs = list(pairs)
    batch = [None] * len(pairs)
    on_helix = [i for i, (curve, _) in enumerate(pairs)
                if getattr(curve, "helix", None) is not None]
    if len(on_helix) >= _GRID_MIN_POINTS:
        params = [(hx.form, hx.amp, hx.tilt, hx.slope_hi, hx.slope_lo, hx.phase)
                  for hx in (pairs[i][0].helix for i in on_helix)]
        results = _kernels.helix_eval_grid(
            *zip(*params),
            [float(pairs[i][1]) for i in on_helix],
            [geodesic_tol(pairs[i][0]) for i in on_helix],
        )
        for i, res in zip(on_helix, results):
            batch[i] = res
    for (curve, s), res in zip(pairs, batch):
        if res is None:
            try:
                res = (compute_frenet if frames else point_data)(curve, s)
            except (GeodesicDegenerateError, NullNormalDegenerateError) as exc:
                res = exc
        elif frames:
            res = frenet_from_flat(res[0])
        yield res


def evaluate_grid(curve, grid, *, frames=False):
    """:func:`evaluate_points` at every point of one curve's grid."""
    return evaluate_points([(curve, s) for s in grid], frames=frames)


def direct_tau(curve, s):
    """Bitension field at ``s`` by the direct route alone, in doubles.

    The direct route needs no frame, so unlike :func:`point_data` this is
    defined at degenerate points too.
    """
    jets = _kernels.project_unit_jets(curve.tangent_jets(s),
                                      unit_speed_tol(curve))
    return _kernels.bitension_direct_jets(jets)


def frenet_from_flat(fr):
    """:class:`FrenetData` of the flat Frenet tuple of a kernel."""
    return FrenetData(
        t=FrameVector(*fr[8:11]),
        n=FrameVector(*fr[11:14]),
        b=FrameVector(*fr[14:17]),
        k1=fr[0],
        k2=fr[3],
        eps1=fr[5],
        eps2=fr[6],
        eps3=fr[7],
    )


def compute_frenet(curve, s):
    """Frenet data of the curve at parameter value ``s``."""
    fr = _evaluate(curve, s, _frame_jets)[0]
    return frenet_from_flat(fr)


def extended_from_flat(fr):
    """:class:`ExtendedFrenetData` of the flat Frenet tuple of a kernel."""
    return ExtendedFrenetData(
        data=frenet_from_flat(fr),
        k1_prime=fr[1],
        k1_second=fr[2],
        k2_prime=fr[4],
        nabla_t_n=FrameVector(*fr[17:20]),
        nabla_t_b=FrameVector(*fr[20:23]),
    )


def extended_frenet(curve, s):
    """Frenet data plus curvature derivatives and ∇_T N, ∇_T B."""
    fr = _evaluate(curve, s, _frame_jets)[0]
    return extended_from_flat(fr)


def flat_from_extended(ext):
    """Inverse of :func:`extended_from_flat`."""
    d = ext.data
    return (d.k1, ext.k1_prime, ext.k1_second, d.k2, ext.k2_prime, d.eps1,
            d.eps2, d.eps3, *d.t, *d.n, *d.b, *ext.nabla_t_n, *ext.nabla_t_b)


def frame_scalars(fr):
    """``(k1, k2, eps1, eps2, eps3, N3, B3)`` of a kernel's flat Frenet tuple."""
    return fr[0], fr[3], fr[5], fr[6], fr[7], fr[13], fr[16]


def _mean_max_dev(vals):
    """The mean of ``vals`` and the largest distance of a value from it."""
    mean = math.fsum(vals) / len(vals)
    return mean, max(abs(v - mean) for v in vals)


def summarize_frames(grid, data):
    """:class:`FrenetGridSummary` of the Frenet data at the grid points."""
    stats = {}
    for name, vals in (("k1", [d.k1 for d in data]),
                       ("k2", [d.k2 for d in data]),
                       ("n3", [d.n[2] for d in data]),
                       ("b3", [d.b[2] for d in data])):
        stats[name + "_mean"], stats[name + "_max_dev"] = _mean_max_dev(vals)
    return FrenetGridSummary(grid=tuple(grid), data=tuple(data), **stats)


def frenet_over_grid(curve, grid):
    """Frenet data at every grid point plus deviation-from-mean statistics."""
    grid = tuple(float(s) for s in grid)
    if not grid:
        raise InvalidInputError("grid must be non-empty")
    data = []
    for d in evaluate_grid(curve, grid, frames=True):
        if isinstance(d, Exception):
            raise d
        data.append(d)
    return summarize_frames(grid, data)
