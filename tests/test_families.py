"""Closed-form family generators: slopes, constants, degeneracies."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhcurves import (
    DegenerateGeodesicError,
    FamilyKind,
    HelixSpec,
    InvalidInputError,
    NumericOverflowError,
    check_unit_speed,
    compute_frenet,
    inner,
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
from hhcurves import families
from hhcurves.verify import VerifyConfig, verify_claim

GRID = tuple(-1.0 + 0.25 * i for i in range(9))


class TestSolveSlope:
    def test_exact_values_at_shape_zero(self):
        assert solve_slope("spacelike", 0.0) == (2.0, -2.0)
        assert solve_slope("timelike", 0.0) == (2.0, 0.0)
        assert solve_slope("horizontal", 0.0) == (2.0, -2.0)
        assert solve_slope("spacelike-horizontal", 0.0) == (2.0, -2.0)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    def test_spacelike_roots_satisfy_quadratic(self, shape):
        amp, tilt = math.cosh(shape), math.sinh(shape)
        for root in solve_slope(FamilyKind.SPACELIKE_BIHARMONIC, shape):
            residual = root * root - 2.0 * root * tilt - 4.0 * amp * amp
            assert abs(residual) <= 1e-12 * max(1.0, root * root)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    def test_timelike_roots_satisfy_quadratic(self, shape):
        amp, tilt = math.sinh(shape), math.cosh(shape)
        for root in solve_slope(FamilyKind.TIMELIKE_BIHARMONIC, shape):
            residual = root * root - 2.0 * root * tilt - 4.0 * amp * amp
            assert abs(residual) <= 1e-12 * max(1.0, root * root)

    def test_root_ordering(self):
        plus, minus = solve_slope("spacelike", 0.7)
        assert plus > 0.0 > minus

    @pytest.mark.parametrize("build", [
        lambda: solve_slope("spacelike", 1000.0),
        lambda: solve_slope("timelike", 800.0),
        lambda: solve_slope("horizontal", -1000.0),
        # cosh is finite, the discriminant is not: the roots came out nan
        lambda: solve_slope("spacelike", 355.0),
        lambda: solve_slope("timelike", -709.0),
        lambda: make_spacelike_biharmonic(1000.0),
        lambda: make_timelike_biharmonic(-800.0),
        lambda: make_helix("spacelike", 1000.0, 1.0),
        lambda: make_helix("timelike", 800.0, 1.0),
    ], ids=["solve-spacelike", "solve-timelike", "solve-horizontal",
            "solve-discriminant", "solve-timelike-discriminant", "spacelike", "timelike", "helix-spacelike", "helix-timelike"])
    def test_amp_or_tilt_past_the_doubles_raises_a_library_error(self, build):
        # cosh and sinh raised a bare OverflowError here
        with pytest.raises(NumericOverflowError,
                           match="math range error|quadratic .* overflows"):
            build()

    def test_kinds_without_slope_rejected(self):
        with pytest.raises(InvalidInputError):
            solve_slope("timelike-horizontal-helix", 1.0)
        with pytest.raises(InvalidInputError):
            solve_slope("geodesic", 0.0)
        with pytest.raises(InvalidInputError):
            solve_slope("diagonal", 0.0)

    @pytest.mark.parametrize("kind", ["spacelike", "timelike", "horizontal"])
    @pytest.mark.parametrize("shape", [math.nan, math.inf, -math.inf])
    def test_non_finite_shape_rejected(self, kind, shape):
        with pytest.raises(InvalidInputError, match="shape must be finite"):
            solve_slope(kind, shape)


class TestSpacelikeFamily:
    def test_helix_constants(self):
        alpha0 = 0.5
        curve = make_spacelike_biharmonic(alpha0, branch=1)
        spec = curve.helix
        assert spec.amp == math.cosh(alpha0)
        assert spec.tilt == math.sinh(alpha0)
        assert spec.slope_hi == solve_slope("spacelike", alpha0)[0]

    def test_minus_branch_uses_other_root(self):
        curve = make_spacelike_biharmonic(0.5, branch=-1)
        assert curve.helix.slope_hi == solve_slope("spacelike", 0.5)[1]

    def test_branch_aliases(self):
        for sign, spellings in ((1, ("+", "plus", "+1", "1")),
                                (-1, ("-", "minus", "-1"))):
            want = make_spacelike_biharmonic(0.3, branch=sign).helix.slope_hi
            for spelling in spellings:
                got = make_spacelike_biharmonic(0.3, branch=spelling)
                assert got.helix.slope_hi == want, spelling
        for bad in (2, "2", "up", [1]):
            with pytest.raises(InvalidInputError):
                make_spacelike_biharmonic(0.3, branch=bad)

    def test_unit_speed_and_causality(self):
        curve = make_spacelike_biharmonic(-0.8)
        assert check_unit_speed(curve, GRID) <= 1e-12
        t = curve.tangent(0.4)
        assert inner(t, t) == pytest.approx(1.0, abs=1e-12)

    def test_coordinates_integrate_the_tangent_with_offsets(self):
        # The closed-form position must reproduce the helix tangent through
        # the coordinate-to-frame map even when shifted off the origin.
        curve = make_spacelike_biharmonic(
            0.5, branch=-1, phase=0.3, offsets=(0.7, -1.2, 0.4)
        )
        for s in GRID:
            got = curve.tangent(s)
            want = curve.helix.tangent(s)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12

    def test_offsets_do_not_change_frenet_data(self):
        plain = compute_frenet(make_spacelike_biharmonic(0.5), 0.3)
        moved = compute_frenet(
            make_spacelike_biharmonic(0.5, offsets=(3.0, -2.0, 11.0)), 0.3
        )
        assert plain == moved

    def test_published_slope_constant(self):
        alpha0, branch = 0.5, 1
        curve = make_spacelike_biharmonic(alpha0, as_printed=True)
        k = math.sinh(alpha0)
        assert curve.helix.slope_hi == k + branch * math.sqrt(5.0 * k * k + 1.0)


class TestTimelikeFamily:
    def test_degenerates_at_shape_zero(self):
        with pytest.raises(DegenerateGeodesicError):
            make_timelike_biharmonic(0.0)

    def test_tangent_form_and_causality(self):
        nu0 = 0.8
        curve = make_timelike_biharmonic(nu0)
        spec = curve.helix
        assert spec.amp == math.sinh(nu0)
        assert spec.tilt == math.cosh(nu0)
        t = curve.tangent(-0.2)
        assert inner(t, t) == pytest.approx(-1.0, abs=1e-12)

    def test_published_slope_constant(self):
        nu0 = 0.8
        curve = make_timelike_biharmonic(nu0, branch=-1, as_printed=True)
        c = math.cosh(nu0)
        assert curve.helix.slope_hi == c - math.sqrt(5.0 * c * c - 1.0)


class TestHorizontalFamily:
    def test_closed_form_coordinates(self):
        curve = make_spacelike_horizontal(branch=1)
        assert curve.point(0.0) == (0.0, 0.5, 0.0)
        for s in (-0.7, 0.4):
            want = (
                math.sinh(2.0 * s) / 2.0,
                math.cosh(2.0 * s) / 2.0,
                -s,
            )
            assert curve.point(s) == pytest.approx(want, abs=1e-12)
        # bit for bit the α₀ = 0 member of the spacelike family
        for branch in (1, -1):
            for printed, slope in ((False, 2.0), (True, 1.0)):
                curve = make_spacelike_horizontal(branch=branch,
                                                  as_printed=printed)
                member = make_spacelike_biharmonic(0.0, branch=branch,
                                                   as_printed=printed)
                assert curve.helix == member.helix == HelixSpec(
                    0, 1.0, 0.0, branch * slope)
                for s in GRID:
                    assert curve.point(s) == member.point(s)
                    assert curve.tangent_jets(s) == member.tangent_jets(s)

    def test_published_slope_is_unit(self):
        assert make_spacelike_horizontal(as_printed=True).helix.slope_hi == 1.0
        assert (
            make_spacelike_horizontal(branch=-1, as_printed=True).helix.slope_hi
            == -1.0
        )

    def test_tangent_is_horizontal(self):
        curve = make_spacelike_horizontal()
        assert all(abs(curve.tangent(s)[2]) <= 1e-15 for s in GRID)


class TestFlatTimelikeHelix:
    def test_degenerates_at_zero_frequency(self):
        with pytest.raises(DegenerateGeodesicError):
            make_timelike_horizontal_helix(0.0)

    def test_tangent_form(self):
        m = 1.3
        curve = make_timelike_horizontal_helix(m)
        for s in (-0.4, 0.9):
            want = (math.sinh(m * s), math.cosh(m * s), 0.0)
            assert curve.tangent(s) == pytest.approx(want, abs=1e-12)
            assert inner(curve.tangent(s), curve.tangent(s)) == pytest.approx(
                -1.0, abs=1e-12
            )

    def test_coordinates_integrate_the_tangent(self):
        curve = make_timelike_horizontal_helix(0.7, offsets=(0.2, -0.1, 1.0))
        for s in GRID:
            got = curve.tangent(s)
            want = curve.helix.tangent(s)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


@pytest.mark.parametrize("curve", [
    make_spacelike_biharmonic(0.5, branch=-1, phase=0.3,
                              offsets=(0.7, -1.2, 0.4)),
    make_timelike_biharmonic(-0.6, phase=-0.2, offsets=(-0.3, 0.8, 2.0)),
    make_timelike_horizontal_helix(0.7, offsets=(0.2, -0.1, 1.0)),
], ids=["form-0-spacelike", "form-0-timelike", "form-1"])
def test_coordinate_derivatives_give_the_helix_tangent_jets(curve):
    # the closed-form coordinate derivatives of orders 1-4 of either helix
    # form map to the tangent and its first three derivatives
    for s in GRID:
        jets = curve.tangent_jets(s)
        for order, jet in enumerate(jets):
            want = curve.helix.derivative(s, order)
            scale = max(1.0, *map(abs, want))
            assert max(abs(a - b) for a, b in zip(jet, want)) <= 1e-12 * scale


class TestB3ZeroCurves:
    def test_binormal_vertical_component_vanishes(self):
        curve = make_b3zero_linear("spacelike", 0.4, 0.3, (-1.0, 1.0))
        for s in GRID:
            data = compute_frenet(curve, s)
            assert abs(data.b[2]) <= 1e-9, s

    def test_timelike_variant(self):
        curve = make_b3zero_linear("timelike", 0.2, -0.5, (-1.0, 1.0))
        for s in GRID:
            data = compute_frenet(curve, s)
            assert abs(data.b[2]) <= 1e-9
            assert inner(curve.tangent(s), curve.tangent(s)) == pytest.approx(
                -1.0, abs=1e-12
            )

    def test_unit_speed(self):
        curve = make_b3zero_linear("spacelike", 0.0, 1.0, (-1.0, 1.0))
        assert check_unit_speed(curve, GRID) <= 1e-12

    def test_closed_form_beta_matches_quadrature(self):
        p, q = 0.4, 0.3
        fast = make_b3zero_linear("spacelike", p, q, (-1.0, 1.0))
        slow = make_b3zero_curve("spacelike", linear_profile(p, q), (-1.0, 1.0))
        for s in (-1.0, -0.3, 0.5, 1.0):
            got = fast.tangent(s)
            want = slow.tangent(s)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9

    def test_sine_profile(self):
        curve = make_b3zero_curve(
            "timelike", sine_profile(0.3, 0.4, 2.0), (-1.0, 1.0)
        )
        data = compute_frenet(curve, 0.25)
        assert abs(data.b[2]) <= 1e-9

    def test_plain_value_profile_is_finite_differenced(self):
        curve = make_b3zero_curve(
            "spacelike", lambda s: 0.4 + 0.3 * s, (-1.0, 1.0)
        )
        assert not curve.analytic
        data = compute_frenet(curve, 0.2)
        assert abs(data.b[2]) <= 1e-5

    def test_plain_value_profile_is_called_once_per_argument(self):
        calls = []

        def alpha(s):
            calls.append(s)
            return 0.4 + 0.3 * s

        closed = make_b3zero_curve("spacelike", alpha, (0.0, 1.0),
                                   beta=lambda s: 0.5 * s)
        calls.clear()
        closed.tangent(0.5)
        assert calls == [0.5]
        # with β from quadrature, one more call per node of its one panel:
        # 20 nodes for the result and 10 for its error estimate
        quadrature = make_b3zero_curve("spacelike", alpha, (0.0, 1.0))
        calls.clear()
        quadrature.tangent(0.5)
        assert len(calls) == 31 and calls.count(0.5) == 1

    @pytest.mark.parametrize("kind", ["spacelike", "timelike"])
    def test_plain_value_and_jet_profiles_give_equal_tangents(self, kind):
        plain = make_b3zero_curve(kind, lambda s: 0.4 + 0.3 * s, (0.0, 1.0))
        jets = make_b3zero_curve(kind, linear_profile(0.4, 0.3), (0.0, 1.0))
        for s in (0.0, 0.15, 0.5, 0.9, 1.0):
            assert plain.tangent(s) == jets.tangent(s)

    @pytest.mark.parametrize("kind", ["spacelike", "timelike"])
    def test_jets_integrate_beta_once_per_point(self, kind, monkeypatch):
        profile = sine_profile(0.5, 0.8, 3.0)
        generator = math.sinh if kind == "spacelike" else math.cosh
        integrand = lambda t: 2.0 * generator(profile(t)[0])
        # β integrated afresh on every call, as without the memo
        fresh = make_b3zero_curve(
            kind, profile, (0.0, 1.0),
            beta=lambda s: families._integrate(integrand, 0.0, s))
        memo = make_b3zero_curve(kind, profile, (0.0, 1.0))
        calls = []
        integrate = families._integrate

        def counted(f, a, b):
            calls.append(b)
            return integrate(f, a, b)

        monkeypatch.setattr(families, "_integrate", counted)
        for s in (0.0, -0.0, 0.15, 0.5, 0.9):
            calls.clear()
            assert memo.tangent_jets(s) == fresh.tangent_jets(s)
            assert len(calls) == 1 + 4  # memo once, fresh at every jet
        calls.clear()
        memo.tangent_jets(0.9)
        assert calls == []

    @pytest.mark.parametrize("alpha", [
        lambda s: 0.4 + 0.3 * s if s < 0.5 else math.nan,
        sine_profile(0.5, 0.8, 1e4),
    ], ids=["nan", "fast-sine"])
    def test_unresolved_beta_quadrature_raises(self, alpha):
        curve = make_b3zero_curve("spacelike", alpha, (0.0, 1.0))
        with pytest.raises(InvalidInputError, match="did not converge"):
            curve.tangent(0.9)

    def test_constant_profile_rejected(self):
        with pytest.raises(DegenerateGeodesicError):
            make_b3zero_linear("spacelike", 0.5, 0.0, (-1.0, 1.0))
        with pytest.raises(DegenerateGeodesicError):
            make_b3zero_curve(
                "spacelike", linear_profile(0.5, 0.0), (-1.0, 1.0)
            )

    def test_bad_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            make_b3zero_linear("diagonal", 0.0, 1.0, (-1.0, 1.0))
        with pytest.raises(InvalidInputError):
            make_b3zero_linear("spacelike", 0.0, 1.0, (1.0, -1.0))
        with pytest.raises(InvalidInputError):
            make_b3zero_curve("spacelike", linear_profile(0.0, 1.0), (0.0,))


class TestBetaQuadrature:
    """β from the Gauss–Legendre panels against mpmath at 40 digits."""

    @pytest.mark.parametrize("n", [10, 20])
    def test_rules_are_leggauss_bit_for_bit(self, n):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(n)
        assert families._GL_RULES[n] == tuple(
            zip(nodes.tolist(), weights.tolist()))

    @staticmethod
    def _assert_beta(kind, p, q, w, s0, s, breaks=1):
        """Profile p + q·sin(w·t), or p + q·t when w is None."""
        mpmath = pytest.importorskip("mpmath")
        spacelike = kind.endswith("spacelike")
        generator = math.sinh if spacelike else math.cosh
        profile = linear_profile(p, q) if w is None else sine_profile(p, q, w)
        got = families._integrate(lambda t: 2.0 * generator(profile(t)[0]),
                                  s0, s)
        with mpmath.workdps(40):
            exact = mpmath.sinh if spacelike else mpmath.cosh
            if w is None:
                alpha = lambda t: p + q * t
            else:
                alpha = lambda t: p + q * mpmath.sin(w * t)
            want = mpmath.quad(lambda t: 2 * exact(alpha(t)),
                               mpmath.linspace(s0, s, breaks + 1))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)

    @pytest.mark.parametrize("kind", ["spacelike", "timelike"])
    @pytest.mark.parametrize("p, q, w, s_end, breaks", [
        # one 20-node panel is off by 0.45 here; the panels must split
        (0.5, 0.8, 12.0, 6.0, 12),
        (1.0, 2.0, None, 3.0, 1),
    ], ids=["sine-12-periods", "linear-steep"])
    def test_stress_profiles(self, kind, p, q, w, s_end, breaks):
        self._assert_beta(kind, p, q, w, 0.0, s_end, breaks)

    @pytest.mark.parametrize("claim", ["b3zero-signs", "b3zero-k2"])
    def test_verify_sine_corpus(self, claim, monkeypatch):
        shapes, kinds = [], []
        make_profile, make_curve = families.sine_profile, families.make_b3zero_curve

        def record_profile(p, q, w):
            shapes.append((p, q, w))
            return make_profile(p, q, w)

        def record_curve(kind, alpha, s_range, beta=None):
            if beta is None:
                kinds.append((kind, s_range[0]))
            return make_curve(kind, alpha, s_range, beta=beta)

        monkeypatch.setattr(families, "sine_profile", record_profile)
        monkeypatch.setattr(families, "make_b3zero_curve", record_curve)
        verify_claim(claim, VerifyConfig(seed=7))
        assert len(shapes) == len(kinds) == 6
        for (p, q, w), (kind, s0) in zip(shapes, kinds):
            for s in (0.15, 0.55, 0.9):
                self._assert_beta(kind, p, q, w, s0, s)


class TestGeodesics:
    def test_vertical_default(self):
        curve = make_geodesic()
        assert curve.point(1.5) == (0.0, 0.0, 3.0)
        assert curve.tangent(0.7) == (0.0, 0.0, 1.0)

    def test_planar_direction(self):
        curve = make_geodesic((1.0, 0.0, 0.0))
        t = curve.tangent(0.0)
        assert inner(t, t) == pytest.approx(1.0, abs=1e-15)

    def test_self_accelerating_direction_rejected(self):
        # (0, 0.6, 0.8) is unit but Γ(d, d) = (−0.96, 0, 0) ≠ 0.
        with pytest.raises(InvalidInputError):
            make_geodesic((0.0, 0.6, 0.8))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InvalidInputError):
            make_geodesic((2.0, 0.0, 0.0))
        with pytest.raises(InvalidInputError):
            make_geodesic((0.5, 0.5, 0.0))  # null

    def test_malformed_direction_rejected(self):
        with pytest.raises(InvalidInputError):
            make_geodesic((1.0, 0.0))
        with pytest.raises(InvalidInputError):
            make_geodesic((float("nan"), 0.0, 1.0))


class TestMakeHelix:
    def test_spacelike_form(self):
        curve = make_helix("spacelike", 0.5, 1.7, phase=0.2)
        s = 0.3
        u = 1.7 * s + 0.2
        want = (
            math.cosh(0.5) * math.cosh(u),
            math.cosh(0.5) * math.sinh(u),
            math.sinh(0.5),
        )
        assert curve.tangent(s) == pytest.approx(want, rel=1e-15)

    def test_timelike_flat_form_stays_timelike(self):
        curve = make_helix("timelike-flat", 0.4, 1.1)
        for s in GRID:
            t = curve.tangent(s)
            assert inner(t, t) == pytest.approx(-1.0, abs=1e-12)
            assert abs(t[2]) < 1.0

    def test_timelike_zero_tilt_rejected(self):
        with pytest.raises(DegenerateGeodesicError):
            make_helix("timelike", 0.0, 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            make_helix("lightlike", 0.5, 1.0)

    @pytest.mark.parametrize("tilt", [math.inf, -math.inf])
    def test_flat_kind_at_infinite_tilt_rejected(self, tilt):
        # cos(±inf) raised a bare ValueError
        with pytest.raises(InvalidInputError, match="shape must be finite"):
            make_helix("timelike-flat", tilt, 1.0)

    @pytest.mark.parametrize("kind", [["spacelike"], None, 0])
    def test_kind_that_is_no_name_rejected(self, kind):
        # the kinds are keys of a table; an unhashable kind must not raise
        # TypeError from the lookup
        with pytest.raises(InvalidInputError, match="unknown helix kind"):
            make_helix(kind, 0.5, 1.0)

    def test_split_slope_accepted(self):
        plus_dd = make_helix("spacelike", 0.0, (2.0, 1e-18))
        assert plus_dd.helix.slope_hi == 2.0
        assert plus_dd.helix.slope_lo == 1e-18


class TestFamilyKind:
    def test_kind_values_are_cli_names(self):
        assert FamilyKind.SPACELIKE_HORIZONTAL.value == "spacelike-horizontal"
        assert FamilyKind.TIMELIKE_HORIZONTAL_HELIX.value == (
            "timelike-horizontal-helix"
        )
