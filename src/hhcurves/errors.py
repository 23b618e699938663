"""Exception types shared across the package.

Every error raised on purpose by the library derives from :class:`HHCurvesError`
so callers can catch the package's failures with a single except clause. The CLI
maps :class:`InvalidInputError` (and its subclasses) to exit code 2.
"""

__all__ = [
    "HHCurvesError",
    "InvalidInputError",
    "DegenerateGeodesicError",
    "GeodesicDegenerateError",
    "NullNormalDegenerateError",
    "UnitSpeedError",
    "MixedCausalityError",
    "NumericOverflowError",
]


class HHCurvesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(HHCurvesError, ValueError):
    """A caller-supplied value is outside the documented domain.

    Examples: non-finite vector components, an empty integration range, a
    malformed CSV header, an unknown verifier claim id.
    """


class DegenerateGeodesicError(InvalidInputError):
    """A family generator was asked for parameters that collapse the family.

    The requested member degenerates to a geodesic (zero curvature everywhere),
    so the family's closed forms do not apply. Raised at construction time.
    Not :class:`GeodesicDegenerateError` (one point): this rejects the family, exit 2.
    """


class GeodesicDegenerateError(HHCurvesError):
    """Frenet data was requested at a point where the curvature vanishes.

    The normal direction is undefined there; callers that sweep a grid usually
    record such points as degenerate rows instead of aborting.
    Not :class:`DegenerateGeodesicError` (whole family, exit 2): this marks one point.
    """


class NullNormalDegenerateError(HHCurvesError):
    """The acceleration is non-zero but null, so no unit normal exists.

    This is the indefinite-metric failure mode with no Riemannian counterpart:
    ``inner(A, A) == 0`` while ``A != 0``.
    """


class UnitSpeedError(InvalidInputError):
    """A curve that must be unit-speed is not (|inner(T, T)| != 1 at tolerance).

    Frenet-dependent operations require unit speed and never silently
    renormalize a curve that fails the check.
    """


class MixedCausalityError(InvalidInputError):
    """A curve changes causal character over the sampled range."""


class NumericOverflowError(HHCurvesError, OverflowError):
    """A value left the range of double arithmetic.

    Raised for a helix argument outside the domain of the double-double
    exponential (``|u| >= 709``, or not a number) and for tangent jets whose
    products overflow. It is also an :class:`OverflowError`, and the CLI
    reports it as an arithmetic failure (exit 2).
    """
