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
- :mod:`hhcurves.frenet` — the Frenet apparatus (k1, k2, frame, sign triple)
  with degeneracy detection;
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
"""

from ._kernels import BACKEND
from .errors import (
    DegenerateGeodesicError,
    GeodesicDegenerateError,
    HHCurvesError,
    InvalidInputError,
    MixedCausalityError,
    NullNormalDegenerateError,
    UnitSpeedError,
)
from .frame import (
    DEFAULT_CAUSAL_TOL,
    E1,
    E2,
    E3,
    CausalCharacter,
    FrameVector,
    SIGNATURE,
    Signature,
    causal_character,
    cross,
    inner,
    mixed,
)
from .connection import (
    BRACKETS,
    CONNECTION,
    CURVATURE,
    METRIC_DIAGONAL,
    ConnectionTable,
    CurvatureTable,
    connection_from_brackets,
    covariant_derivative_along,
    curvature,
    curvature_from_connection,
    metric_compatibility_defect,
    riemann_christoffel,
    torsion_defect,
)
from .curves import (
    CoordinateCurve,
    FDConfig,
    FrameCurve,
    HelixSpec,
    causal_character_of_curve,
    check_unit_speed,
    fd_derivative,
    integrate_frame_curve,
    is_horizontal,
    read_curve_csv,
    vertical_momentum,
)
from .frenet import (
    DEFAULT_GEO_TOL_ANALYTIC,
    DEFAULT_GEO_TOL_FD,
    ExtendedFrenetData,
    FrenetData,
    FrenetGridSummary,
    compute_frenet,
    extended_frenet,
    frenet_over_grid,
)
from .biharmonic import (
    DEFAULT_VERDICT_TOL_ANALYTIC,
    DEFAULT_VERDICT_TOL_SAMPLED,
    BiharmonicReport,
    bitension_direct,
    bitension_frenet,
    bitension_frenet_at,
    check_biharmonic_conditions,
    identity_defect,
    residual_norms,
)
from .families import (
    FamilyKind,
    linear_profile,
    make_b3zero_curve,
    make_b3zero_linear,
    make_geodesic,
    make_helix,
    make_spacelike_biharmonic,
    make_spacelike_horizontal,
    make_timelike_biharmonic,
    make_timelike_horizontal_helix,
    sine_profile,
    solve_slope,
)
from .verify import (
    EXPECTED_STATUS,
    STATUS_CONFIRMED,
    STATUS_CONFIRMED_WITH_ERRATUM,
    STATUS_REFUTED_AS_PRINTED,
    STATUS_ERROR,
    CheckResult,
    VerificationReport,
    VerifyConfig,
    registry_ids,
    run_all,
    verify_claim,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BACKEND",
    # errors
    "HHCurvesError",
    "InvalidInputError",
    "DegenerateGeodesicError",
    "GeodesicDegenerateError",
    "NullNormalDegenerateError",
    "UnitSpeedError",
    "MixedCausalityError",
    # frame
    "CausalCharacter",
    "Signature",
    "SIGNATURE",
    "FrameVector",
    "E1",
    "E2",
    "E3",
    "inner",
    "cross",
    "mixed",
    "causal_character",
    "DEFAULT_CAUSAL_TOL",
    # connection
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
    # curves
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
    # frenet
    "FrenetData",
    "ExtendedFrenetData",
    "FrenetGridSummary",
    "compute_frenet",
    "extended_frenet",
    "frenet_over_grid",
    "DEFAULT_GEO_TOL_ANALYTIC",
    "DEFAULT_GEO_TOL_FD",
    # biharmonic
    "BiharmonicReport",
    "bitension_direct",
    "bitension_frenet_at",
    "bitension_frenet",
    "residual_norms",
    "check_biharmonic_conditions",
    "identity_defect",
    "DEFAULT_VERDICT_TOL_ANALYTIC",
    "DEFAULT_VERDICT_TOL_SAMPLED",
    # families
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
    # verify
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
]
