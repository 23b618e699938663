"""Curve geometry of the 3-dimensional hyperbolic Heisenberg group.

The group is R³ with multiplication
``(x, y, z)·(x', y', z') = (x + x', y + y', z + z' + 2(x·y' − x'·y))``,
carrying the left-invariant frame ``e1 = ∂x − 2y ∂z``, ``e2 = ∂y + 2x ∂z``,
``e3 = 2 ∂z`` and the indefinite metric with signs ``(+1, −1, −1)`` on that
frame. The package provides:

- :mod:`hhcurves.frame` — frame vectors, indefinite inner product, the
  Lorentzian cross product, causal characters;
- :mod:`hhcurves.connection` — exact integer connection/curvature tables and
  the independent re-derivations used as oracles;
- :mod:`hhcurves.curves` — curve containers (coordinate- or tangent-backed),
  finite-difference jets, CSV ingestion, RK4 coordinate integration;
- :mod:`hhcurves.frenet` — the Frenet apparatus (k1, k2, frame, sign triple,
  and the derivative data of the bitension field) with degeneracy detection;
- :mod:`hhcurves.biharmonic` — the bitension field along two independent
  routes and the biharmonicity condition checker;
- :mod:`hhcurves.families` — closed-form curve families (proper-biharmonic
  spacelike/timelike/horizontal members, vanishing-B3 curves, helices,
  geodesics) with slope solving at double-double precision;
- :mod:`hhcurves.verify` — the seeded claim registry producing the
  deterministic verification report;
- :mod:`hhcurves.cli` — the ``hhcurves`` command-line entry point.

The numerical kernels are written in Python (with NumPy for whole helix
grids); :data:`BACKEND` names them, and is always ``"pure"``.

``import hhcurves`` loads none of these modules. Each public name of the
package loads the module that defines it on first use (PEP 562), and is
looked up there on every access, so ``hhcurves.X`` is always the object
``hhcurves.<module>.X`` holds at that moment. A caller that only sweeps a
finite-difference curve never loads the claim registry (``verify``) or the
exact tables (``connection``, with ``fractions``).
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names the package re-exports from it.
_EXPORTS = {
    "_kernels": ("BACKEND",),
    "errors": (
        "HHCurvesError",
        "InvalidInputError",
        "DegenerateGeodesicError",
        "GeodesicDegenerateError",
        "NullNormalDegenerateError",
        "UnitSpeedError",
        "MixedCausalityError",
        "NumericOverflowError",
    ),
    "frame": (
        "CausalCharacter",
        "FrameVector",
        "E1",
        "E2",
        "E3",
        "inner",
        "cross",
        "mixed",
        "causal_character",
        "DEFAULT_CAUSAL_TOL",
    ),
    "connection": (
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
    ),
    "curves": (
        "FDConfig",
        "HelixSpec",
        "CoordinateCurve",
        "FrameCurve",
        "fd_derivative",
        "read_curve_csv",
        "integrate_frame_curve",
        "is_horizontal",
        "causal_character_of_curve",
        "check_unit_speed",
        "vertical_momentum",
        "DEFAULT_GEO_TOL_ANALYTIC",
        "DEFAULT_GEO_TOL_FD",
        "DEFAULT_VERDICT_TOL_ANALYTIC",
        "DEFAULT_VERDICT_TOL_SAMPLED",
    ),
    "frenet": (
        "FrenetData",
        "FrenetGridSummary",
        "compute_frenet",
        "extended_frenet",
        "frenet_over_grid",
    ),
    "biharmonic": (
        "BiharmonicReport",
        "bitension_direct",
        "bitension_frenet_at",
        "bitension_frenet",
        "residual_norms",
        "check_biharmonic_conditions",
        "identity_defect",
    ),
    "families": (
        "FamilyKind",
        "solve_slope",
        "make_spacelike_biharmonic",
        "make_timelike_biharmonic",
        "make_spacelike_horizontal",
        "make_b3zero_curve",
        "make_b3zero_linear",
        "make_timelike_horizontal_helix",
        "make_helix",
        "make_geodesic",
        "linear_profile",
        "sine_profile",
    ),
    "verify": (
        "STATUS_CONFIRMED",
        "STATUS_CONFIRMED_WITH_ERRATUM",
        "STATUS_REFUTED_AS_PRINTED",
        "STATUS_ERROR",
        "EXPECTED_STATUS",
        "VerifyConfig",
        "CheckResult",
        "VerificationReport",
        "registry_ids",
        "run_all",
        "verify_claim",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    # Not stored in the globals: a name is read from its module each time,
    # so it follows any later rebinding there.
    module = _OWNER.get(name)
    if module is not None:
        return getattr(importlib.import_module("." + module, __name__), name)
    if name in _EXPORTS:
        # importing a submodule binds it in the package namespace
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
