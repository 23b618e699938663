"""Frenet apparatus of non-degenerate unit-speed curves.

``compute_frenet`` returns one :class:`FrenetData` at a point: the frame
(T, N, B), the curvatures (k1 ≥ 0, k2) with k1', k1'' and k2', the causal
signs (eps1, eps2, eps3), and ∇_T N and ∇_T B:

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
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain

from hhcurves import _kernels
from hhcurves.curves import (
    DEFAULT_GEO_TOL_ANALYTIC,
    DEFAULT_GEO_TOL_FD,
    _finite_parameter,
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
    "FrenetGridSummary",
    "point_data",
    "evaluate_points",
    "evaluate_grid",
    "direct_tau",
    "compute_frenet",
    "extended_frenet",
    "frenet_over_grid",
    "summarize_frames",
    "DEFAULT_GEO_TOL_ANALYTIC",
    "DEFAULT_GEO_TOL_FD",
]


class FrenetData(namedtuple("FrenetData", (
        "k1 k1_prime k1_second k2 k2_prime eps1 eps2 eps3 t1 t2 t3 n1 n2 n3 "
        "b1 b2 b3 m1 m2 m3 db1 db2 db3"))):
    """Frenet apparatus at one point: the 23 values of the kernels' Frenet
    tuple, in :func:`~hhcurves._kernels.frenet_jets` order.

    The curvatures k1, k2 with their first derivatives (and k1''), the sign
    triple, and the components of T, N, B, ∇_T N (``m``) and ∇_T B
    (``db``). ``t``, ``n``, ``b``, ``nabla_t_n`` and ``nabla_t_b`` build
    the :class:`FrameVector` of each when read.
    """

    __slots__ = ()

    @property
    def t(self):
        return FrameVector(self.t1, self.t2, self.t3)

    @property
    def n(self):
        return FrameVector(self.n1, self.n2, self.n3)

    @property
    def b(self):
        return FrameVector(self.b1, self.b2, self.b3)

    @property
    def nabla_t_n(self):
        return FrameVector(self.m1, self.m2, self.m3)

    @property
    def nabla_t_b(self):
        return FrameVector(self.db1, self.db2, self.db3)

    def validate(self):
        """Check the defining invariants; raises on violation.

        Verifies |inner(T,T)| = |inner(N,N)| = |inner(B,B)| = 1 with the
        recorded signs, mutual orthogonality, B = cross(T, N) (each to 1e-6),
        k1 >= 0, and eps1·eps2·eps3 = +1.
        """
        tol = 1e-6
        t, n, b = self.t, self.n, self.b
        defects = [
            abs(inner(t, t) - self.eps1),
            abs(inner(n, n) - self.eps2),
            abs(inner(b, b) - self.eps3),
            abs(inner(t, n)),
            abs(inner(t, b)),
            abs(inner(n, b)),
        ]
        bb = cross(t, n)
        defects.extend(abs(bb[i] - b[i]) for i in range(3))
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
    curves, else ``jets_kernel`` of the projected tangent jets, with ``fr``
    made a :class:`FrenetData`. Raises :class:`InvalidInputError` unless
    ``s`` is a finite real, and :class:`NumericOverflowError` when any
    value is not finite."""
    _finite_parameter(s)
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
    return (FrenetData._make(out[0]),) + out[1:]


def _frame_jets(jets, geo_tol):
    return (_kernels.frenet_jets(jets, geo_tol),)


def point_data(curve, s):
    """Kernel evaluation at one point.

    Returns ``(fr, tau_direct, tau_frenet)`` where ``fr`` is the
    :class:`FrenetData` of the point. Helix-form curves go through the
    double-double kernel; all others go through jet projection plus the
    compensated double pipeline.
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
    with its curve's :func:`~hhcurves.curves.geodesic_tol`, after every
    ``s`` of them is checked as :func:`point_data` checks it; the other
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
        for i in on_helix:
            _finite_parameter(pairs[i][1])
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
        else:
            fr = FrenetData._make(res[0])
            res = fr if frames else (fr,) + res[1:]
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


def compute_frenet(curve, s):
    """:class:`FrenetData` of the curve at parameter value ``s``."""
    return _evaluate(curve, s, _frame_jets)[0]


# The same record, under the name that asks for its derivative data
extended_frenet = compute_frenet


def _mean_max_dev(vals):
    """The mean of ``vals`` and the largest distance of a value from it."""
    mean = math.fsum(vals) / len(vals)
    return mean, max(abs(v - mean) for v in vals)


def summarize_frames(grid, data):
    """:class:`FrenetGridSummary` of the Frenet data at the grid points."""
    stats = {}
    for name, vals in (("k1", [d.k1 for d in data]),
                       ("k2", [d.k2 for d in data]),
                       ("n3", [d.n3 for d in data]),
                       ("b3", [d.b3 for d in data])):
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
