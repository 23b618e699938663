"""Bitension field: route agreement, closure identity, grid verdicts."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhcurves import (
    FrameCurve,
    InvalidInputError,
    UnitSpeedError,
    bitension_direct,
    bitension_frenet,
    bitension_frenet_at,
    check_biharmonic_conditions,
    compute_frenet,
    identity_defect,
    inner,
    make_b3zero_linear,
    make_geodesic,
    make_helix,
    make_spacelike_biharmonic,
    make_spacelike_horizontal,
    make_timelike_biharmonic,
    make_timelike_horizontal_helix,
    residual_norms,
)

GRID = tuple(-1.0 + 0.25 * i for i in range(9))


def _dev(u, v):
    return max(abs(a - b) for a, b in zip(u, v))


class TestRouteAgreement:
    """The jet-chain and Frenet-form routes must agree on every curve."""

    @pytest.mark.parametrize(
        "curve",
        [
            make_spacelike_biharmonic(0.5),
            make_spacelike_biharmonic(-0.7, branch=-1),
            make_timelike_biharmonic(0.8),
            make_spacelike_horizontal(),
            make_timelike_horizontal_helix(1.3),
            make_b3zero_linear("spacelike", 0.4, 0.3, (-1.0, 1.0)),
            make_b3zero_linear("timelike", 0.2, -0.5, (-1.0, 1.0)),
        ],
        ids=[
            "spacelike",
            "spacelike-minus",
            "timelike",
            "horizontal",
            "flat-helix",
            "b3zero-spacelike",
            "b3zero-timelike",
        ],
    )
    def test_direct_equals_frenet_route(self, curve):
        for s in (-0.9, -0.3, 0.0, 0.6):
            tau_d = bitension_direct(curve, s)
            tau_f = bitension_frenet_at(curve, s)
            scale = 1.0 + max(abs(c) for c in tau_d)
            assert _dev(tau_d, tau_f) <= 1e-9 * scale, s

    def test_recombination_from_extended_data(self):
        curve = make_timelike_horizontal_helix(0.9)
        for s in (-0.5, 0.2):
            via_record = bitension_frenet(compute_frenet(curve, s))
            via_kernel = bitension_frenet_at(curve, s)
            assert _dev(via_record, via_kernel) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        tilt=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
        slope=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        s=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
    def test_routes_agree_on_arbitrary_helices(self, tilt, slope, s):
        # Keep clear of the degenerate slope = 2·sinh(tilt) line where
        # the curvature vanishes.
        assume(abs(slope - 2.0 * math.sinh(tilt)) > 0.1)
        curve = make_helix("spacelike", tilt, slope)
        tau_d = bitension_direct(curve, s)
        tau_f = bitension_frenet_at(curve, s)
        scale = 1.0 + max(abs(c) for c in tau_d)
        assert _dev(tau_d, tau_f) <= 1e-9 * scale


class TestTorsionRateCoefficient:
    """Pins the B-component coefficient against the jet-chain oracle.

    On a curve with N3·B3 ≠ 0, the B-coefficient of the bitension is
    (2·k1'·k2 + k1·k2' − 4·k1·N3·B3)·ε2·ε3; the same expression with the
    coefficient 1 instead of 4 misses the oracle by 3·k1·N3·B3.
    """

    P, Q, R = 0.3, 0.2, 1.7

    def _basis(self, s):
        a = self.P + self.Q * s
        b = self.R * s
        ca, sa = math.cosh(a), math.sinh(a)
        cb, sb = math.cosh(b), math.sinh(b)
        return [ca * cb, sa * cb, ca * sb, sa * sb, sa, ca]

    def _apply_d(self, v):
        q, r = self.Q, self.R
        cc, sc, cs, ss, sh, ch = v
        return [
            q * sc + r * cs,
            q * cc + r * ss,
            q * ss + r * cc,
            q * cs + r * sc,
            q * ch,
            q * sh,
        ]

    def _curve(self):
        def tangent(s):
            v = self._basis(s)
            return (v[0], v[2], v[4])

        def derivative(s, order):
            v = self._basis(s)
            for _ in range(order):
                v = self._apply_d(v)
            return (v[0], v[2], v[4])

        return FrameCurve(tangent, derivative=derivative)

    def test_witness_curve_is_unit_spacelike_with_twisting_frame(self):
        curve = self._curve()
        t = curve.tangent(0.0)
        assert inner(t, t) == pytest.approx(1.0, abs=1e-15)
        d = compute_frenet(curve, 0.0)
        assert d.n3 * d.b3 == pytest.approx(0.18591846, abs=1e-7)
        assert d.k1 == pytest.approx(1.157826451, rel=1e-9)
        assert d.k2 == pytest.approx(-0.7230782979, rel=1e-9)

    def test_coefficient_four_matches_oracle(self):
        curve = self._curve()
        d = compute_frenet(curve, 0.0)
        tau = bitension_direct(curve, 0.0)
        cb_direct = d.eps3 * inner(tau, d.b)
        assert cb_direct == pytest.approx(-0.26212361, abs=1e-7)
        cb_four = (
            2.0 * d.k1_prime * d.k2
            + d.k1 * d.k2_prime
            - 4.0 * d.k1 * d.n3 * d.b3
        ) * d.eps2 * d.eps3
        cb_one = (
            2.0 * d.k1_prime * d.k2
            + d.k1 * d.k2_prime
            - 1.0 * d.k1 * d.n3 * d.b3
        ) * d.eps2 * d.eps3
        assert abs(cb_direct - cb_four) <= 1e-12
        assert abs(cb_direct - cb_one) == pytest.approx(
            3.0 * d.k1 * abs(d.n3 * d.b3), rel=1e-9
        )
        assert abs(cb_direct - cb_one) > 0.6


class TestClosureIdentity:
    def test_biharmonic_members_satisfy_it(self):
        for curve in (
            make_spacelike_biharmonic(0.5),
            make_timelike_biharmonic(-0.6, branch=-1),
            make_spacelike_horizontal(),
        ):
            d = compute_frenet(curve, 0.4)
            defect = identity_defect(d.k1, d.k2, d.eps1, d.eps3, d.b3)
            assert abs(defect) <= 1e-12

    def test_flat_helix_defect_grows_quadratically(self):
        for m in (0.4, 1.0, 2.2):
            d = compute_frenet(make_timelike_horizontal_helix(m), 0.3)
            defect = identity_defect(d.k1, d.k2, d.eps1, d.eps3, d.b3)
            assert defect == pytest.approx(m * m + 4.0, rel=1e-10)

    def test_flat_helix_residual_closed_form(self):
        # ‖τ₂‖₂ = |m³ + 4m|·sqrt(cosh²(ms) + sinh²(ms)).
        m = 1.3
        curve = make_timelike_horizontal_helix(m)
        for s in (0.0, 0.5, -0.8):
            tau = bitension_direct(curve, s)
            want = abs(m**3 + 4.0 * m) * math.sqrt(
                math.cosh(m * s) ** 2 + math.sinh(m * s) ** 2
            )
            got = math.sqrt(sum(c * c for c in tau))
            assert got == pytest.approx(want, rel=1e-10)


class TestVerdicts:
    def test_tolerance_is_not_positional(self):
        # the verdict tolerance follows the curve, and there is no third
        # argument for it to land on
        with pytest.raises(TypeError):
            check_biharmonic_conditions(make_spacelike_biharmonic(0.5), GRID,
                                        1e-6)

    def test_biharmonic_families(self):
        for curve in (
            make_spacelike_biharmonic(0.5),
            make_spacelike_biharmonic(-1.0, branch=-1),
            make_timelike_biharmonic(0.8),
            make_spacelike_horizontal(branch=-1),
        ):
            report = check_biharmonic_conditions(curve, GRID)
            assert report.verdict == "Biharmonic"
            assert max(report.residual_direct) <= 1e-10
            assert max(report.residual_frenet) <= 1e-10
            assert report.condition_values["identity_defect_max"] <= 1e-10
            assert report.condition_values["n3b3_max"] <= 1e-10

    def test_flat_helix_is_not_biharmonic(self):
        m = 1.1
        report = check_biharmonic_conditions(
            make_timelike_horizontal_helix(m), GRID
        )
        assert report.verdict == "NotBiharmonic"
        assert report.condition_values["identity_defect_max"] == pytest.approx(
            m * m + 4.0, rel=1e-10
        )

    def test_published_horizontal_slope_is_not_biharmonic(self):
        # With the as-printed slope the closure identity misses by exactly 3
        # and the bitension norm at s = 0 is exactly 3.
        curve = make_spacelike_horizontal(as_printed=True)
        report = check_biharmonic_conditions(curve, GRID)
        assert report.verdict == "NotBiharmonic"
        assert report.condition_values["identity_defect_max"] == pytest.approx(
            3.0, abs=1e-12
        )
        tau = bitension_direct(curve, 0.0)
        norm = math.sqrt(sum(c * c for c in tau))
        assert norm == pytest.approx(3.0, abs=1e-12)

    def test_geodesic_verdict(self):
        report = check_biharmonic_conditions(make_geodesic(), GRID)
        assert report.verdict == "Geodesic"
        assert report.condition_values["degenerate_points"] == len(GRID)
        assert all(math.isnan(v) for v in report.residual_frenet)
        # A geodesic's bitension vanishes identically on the direct route.
        assert max(report.residual_direct) <= 1e-12

    def test_zero_torsion_reduction_reported(self):
        # sinh(tilt) = 1 with slope 3 gives torsion exactly 0, activating
        # the reduced-identity diagnostic k1² = ε1·(ε3 + 4·B3²).
        curve = make_helix("spacelike", math.asinh(1.0), 3.0)
        report = check_biharmonic_conditions(curve, GRID)
        assert report.verdict == "NotBiharmonic"
        assert abs(report.condition_values["k2_mean"]) <= 1e-12
        assert report.condition_values["k2_zero_form_defect"] == pytest.approx(
            5.0, rel=1e-10
        )

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            check_biharmonic_conditions(make_spacelike_horizontal(), ())


class TestResidualNorms:
    def test_shapes_and_nonnegativity(self):
        direct, fren = residual_norms(make_spacelike_biharmonic(0.3), GRID)
        assert len(direct) == len(GRID) == len(fren)
        assert all(v >= 0.0 for v in direct)
        assert all(v >= 0.0 for v in fren)
        assert max(direct) <= 1e-10
        assert max(fren) <= 1e-10

    def test_nan_tangent_fails_the_unit_speed_gate(self):
        # |inner(T, T) - 1| > tol is false for NaN; the gate must still reject
        curve = FrameCurve(lambda s: (float("nan"), 0.0, 0.0))
        with pytest.raises(UnitSpeedError):
            residual_norms(curve, [0.0, 0.1])
        with pytest.raises(UnitSpeedError):
            check_biharmonic_conditions(curve, [0.0, 0.1])
