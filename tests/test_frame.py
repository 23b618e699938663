"""Frame algebra: inner product, cross product, causal classification."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhcurves import (
    E1,
    E2,
    E3,
    CausalCharacter,
    FrameVector,
    InvalidInputError,
    causal_character,
    cross,
    inner,
    mixed,
)

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
vectors = st.tuples(finite, finite, finite)
int_vectors = st.tuples(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
)


def _det3(x, y, z):
    return (
        x[0] * (y[1] * z[2] - y[2] * z[1])
        - x[1] * (y[0] * z[2] - y[2] * z[0])
        + x[2] * (y[0] * z[1] - y[1] * z[0])
    )


def _scale(*vs):
    """Magnitude bound used to make tolerances relative."""
    return max(1.0, *(max(abs(c) for c in v) for v in vs))


class TestInner:
    def test_basis_values_exact(self):
        assert inner(E1, E1) == 1.0
        assert inner(E2, E2) == -1.0
        assert inner(E3, E3) == -1.0
        assert inner(E1, E2) == 0.0
        assert inner(E1, E3) == 0.0
        assert inner(E2, E3) == 0.0

    @given(vectors, vectors)
    def test_symmetry(self, x, y):
        assert inner(x, y) == inner(y, x)

    @given(vectors, vectors, vectors, finite)
    def test_bilinearity(self, x, y, z, a):
        lhs = inner((x[0] + a * y[0], x[1] + a * y[1], x[2] + a * y[2]), z)
        rhs = inner(x, z) + a * inner(y, z)
        assert abs(lhs - rhs) <= 1e-12 * _scale(x, y, z) ** 2 * max(1.0, abs(a))

    @given(int_vectors, int_vectors)
    def test_integer_inputs_are_exact(self, x, y):
        assert inner(x, y) == x[0] * y[0] - x[1] * y[1] - x[2] * y[2]


class TestCross:
    def test_basis_values_exact(self):
        assert cross(E1, E2) == E3
        assert cross(E2, E3) == -E1
        assert cross(E3, E1) == E2

    @given(vectors, vectors)
    def test_antisymmetry(self, x, y):
        assert cross(x, y) == -cross(y, x)

    @given(vectors, vectors)
    def test_perpendicular_to_both_factors(self, x, y):
        c = cross(x, y)
        bound = 1e-12 * _scale(x, y) ** 3
        assert abs(inner(c, x)) <= bound
        assert abs(inner(c, y)) <= bound

    @given(vectors, vectors, vectors)
    def test_mixed_is_negative_determinant(self, x, y, z):
        assert abs(mixed(x, y, z) + _det3(x, y, z)) <= 1e-12 * _scale(x, y, z) ** 3

    @given(vectors, vectors, vectors)
    def test_mixed_cyclic_invariance(self, x, y, z):
        bound = 1e-12 * _scale(x, y, z) ** 3
        m = mixed(x, y, z)
        assert abs(m - mixed(y, z, x)) <= bound
        assert abs(m - mixed(z, x, y)) <= bound

    @given(vectors, vectors, vectors)
    def test_double_cross_expansion(self, x, y, z):
        # (x ∧ y) ∧ z = inner(x, z)·y − inner(y, z)·x
        lhs = cross(cross(x, y), z)
        rhs = inner(x, z) * FrameVector(*y) - inner(y, z) * FrameVector(*x)
        dev = max(abs(a - b) for a, b in zip(lhs, rhs))
        assert dev <= 1e-12 * _scale(x, y, z) ** 3

    @given(vectors, vectors, vectors)
    def test_cyclic_double_cross_sum_vanishes(self, x, y, z):
        total = (
            cross(cross(x, y), z)
            + cross(cross(y, z), x)
            + cross(cross(z, x), y)
        )
        assert max(abs(c) for c in total) <= 1e-12 * _scale(x, y, z) ** 3

    @given(int_vectors, int_vectors)
    def test_integer_inputs_are_exact(self, x, y):
        c = cross(x, y)
        want = (
            -(x[1] * y[2] - x[2] * y[1]),
            -(x[0] * y[2] - x[2] * y[0]),
            x[0] * y[1] - x[1] * y[0],
        )
        assert tuple(c) == tuple(float(w) for w in want)


class TestFrameVector:
    def test_rejects_non_finite_components(self):
        with pytest.raises(InvalidInputError):
            FrameVector(math.nan, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            FrameVector(0.0, math.inf, 0.0)
        with pytest.raises(InvalidInputError):
            FrameVector("1", 0.0, 0.0)

    def test_arithmetic(self):
        v = FrameVector(1.0, -2.0, 3.0)
        w = FrameVector(0.5, 0.5, 0.5)
        assert v + w == FrameVector(1.5, -1.5, 3.5)
        assert v - w == FrameVector(0.5, -2.5, 2.5)
        assert 2.0 * v == FrameVector(2.0, -4.0, 6.0)
        assert v * 2.0 == FrameVector(2.0, -4.0, 6.0)
        assert -v == FrameVector(-1.0, 2.0, -3.0)
        assert tuple(v) == (1.0, -2.0, 3.0)
        assert v[1] == -2.0
        assert v.euclidean_norm() == pytest.approx(math.sqrt(14.0))

    def test_inner_accepts_sequences_and_vectors(self):
        assert inner((1, 0, 0), FrameVector(1.0, 0.0, 0.0)) == 1.0
        with pytest.raises(InvalidInputError):
            inner((1, 0), (0, 0, 1))


class TestCausalCharacter:
    def test_classification(self):
        assert causal_character(E1) is CausalCharacter.SPACELIKE
        assert causal_character(E2) is CausalCharacter.TIMELIKE
        assert causal_character((1.0, 1.0, 0.0)) is CausalCharacter.NULL
        assert causal_character((1.0, 0.6, 0.8)) is CausalCharacter.NULL

    def test_tolerance_band(self):
        # |inner(x, x)| <= DEFAULT_CAUSAL_TOL = 1e-9 is null
        assert causal_character((3e-5, 0.0, 0.0)) is CausalCharacter.NULL
        assert causal_character((0.0, 3e-5, 0.0)) is CausalCharacter.NULL
        assert causal_character((4e-5, 0.0, 0.0)) is CausalCharacter.SPACELIKE
        assert causal_character((0.0, 0.0, 4e-5)) is CausalCharacter.TIMELIKE

    def test_tol_keyword_is_gone(self):
        with pytest.raises(TypeError):
            causal_character((1.0, 0.0, 0.0), tol=2.0)
