"""Frame algebra of the 3-dimensional hyperbolic Heisenberg group.

Vectors are expressed in the left-invariant orthonormal frame ``e1, e2, e3``
with metric signature ``(+, -, -)``: ``e1`` is spacelike, ``e2`` and ``e3``
are timelike. The module provides the indefinite inner product, the causal
classification, the frame cross product, and the mixed (scalar triple)
product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from hhcurves import _kernels
from hhcurves.errors import InvalidInputError

__all__ = [
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
]

DEFAULT_CAUSAL_TOL = 1e-9


class CausalCharacter(Enum):
    """Causal type of a vector under the indefinite metric."""

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    NULL = "null"


@dataclass(frozen=True)
class FrameVector:
    """A tangent vector in frame components ``u1·e1 + u2·e2 + u3·e3``.

    Components must be finite reals; arithmetic returns new vectors.
    """

    u1: float
    u2: float
    u3: float

    def __post_init__(self):
        for c in (self.u1, self.u2, self.u3):
            if not isinstance(c, (int, float)) or isinstance(c, bool):
                raise InvalidInputError(
                    "frame components must be real numbers, got %r" % (c,)
                )
            if not math.isfinite(c):
                raise InvalidInputError(
                    "frame components must be finite, got %r" % (c,)
                )

    @property
    def components(self):
        return (float(self.u1), float(self.u2), float(self.u3))

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __add__(self, other):
        o = _components(other)
        return FrameVector(self.u1 + o[0], self.u2 + o[1], self.u3 + o[2])

    def __sub__(self, other):
        o = _components(other)
        return FrameVector(self.u1 - o[0], self.u2 - o[1], self.u3 - o[2])

    def __neg__(self):
        return FrameVector(-self.u1, -self.u2, -self.u3)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return FrameVector(self.u1 * scalar, self.u2 * scalar, self.u3 * scalar)

    __rmul__ = __mul__

    def euclidean_norm(self):
        """Auxiliary positive-definite norm (used for degeneracy thresholds)."""
        return math.hypot(self.u1, self.u2, self.u3)


E1 = FrameVector(1.0, 0.0, 0.0)
E2 = FrameVector(0.0, 1.0, 0.0)
E3 = FrameVector(0.0, 0.0, 1.0)


def _components(v):
    """Coerce a FrameVector or length-3 sequence to a validated tuple."""
    if isinstance(v, FrameVector):
        return v.components
    try:
        t = (float(v[0]), float(v[1]), float(v[2]))
    except (TypeError, IndexError, ValueError) as exc:
        raise InvalidInputError("expected a frame vector, got %r" % (v,)) from exc
    if len(v) != 3:
        raise InvalidInputError("frame vectors have 3 components, got %r" % (v,))
    for c in t:
        if not math.isfinite(c):
            raise InvalidInputError("frame components must be finite, got %r" % (c,))
    return t


def inner(x, y):
    """Indefinite inner product ``x1·y1 − x2·y2 − x3·y3``."""
    return _kernels.inner(_components(x), _components(y))


def cross(x, y):
    """Frame cross product, defined by ``inner(cross(x, y), z) = mixed(x, y, z)``.

    On the basis: ``e1 ∧ e2 = e3``, ``e2 ∧ e3 = −e1``, ``e3 ∧ e1 = e2``.
    """
    return FrameVector(*_kernels.cross(_components(x), _components(y)))


def mixed(x, y, z):
    """Scalar triple product ``inner(cross(x, y), z)``."""
    return _kernels.inner(
        _kernels.cross(_components(x), _components(y)), _components(z)
    )


def causal_character(x):
    """Classify a vector as spacelike / timelike / null.

    With ``tol = DEFAULT_CAUSAL_TOL``: ``inner(x, x) > tol`` is spacelike,
    ``< -tol`` timelike, otherwise null.
    """
    g = inner(x, x)
    if g > DEFAULT_CAUSAL_TOL:
        return CausalCharacter.SPACELIKE
    if g < -DEFAULT_CAUSAL_TOL:
        return CausalCharacter.TIMELIKE
    return CausalCharacter.NULL
