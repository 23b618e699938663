"""Frenet apparatus: frame extraction, curvatures, signs, degeneracies."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hhcurves import (
    FrameCurve,
    FrameVector,
    FrenetData,
    GeodesicDegenerateError,
    InvalidInputError,
    NullNormalDegenerateError,
    NumericOverflowError,
    UnitSpeedError,
    compute_frenet,
    covariant_derivative_along,
    extended_frenet,
    frenet_over_grid,
    inner,
    make_b3zero_linear,
    make_geodesic,
    make_spacelike_biharmonic,
    make_spacelike_horizontal,
    make_timelike_biharmonic,
    make_timelike_horizontal_helix,
)
from hhcurves import _kernels, biharmonic
from hhcurves import frenet as frenet_module
from hhcurves.curves import geodesic_tol, unit_speed_tol

GRID = tuple(-1.0 + 0.2 * i for i in range(11))

_LAYOUT = (
    "k1", "k1_prime", "k1_second", "k2", "k2_prime", "eps1", "eps2", "eps3",
    "t1", "t2", "t3", "n1", "n2", "n3", "b1", "b2", "b3",
    "m1", "m2", "m3", "db1", "db2", "db3",
)


def _bits(values):
    """The values as hex strings, so equality is bit for bit."""
    return [float(v).hex() for v in values]


def _kernel_tuple(curve, s):
    """The kernels' flat Frenet tuple at s, called without frenet."""
    geo_tol = geodesic_tol(curve)
    hx = curve.helix
    if hx is not None:
        return _kernels.helix_eval(hx.form, hx.amp, hx.tilt, hx.slope_hi,
                                   hx.slope_lo, hx.phase, s, geo_tol)[0]
    jets = _kernels.project_unit_jets(curve.tangent_jets(s),
                                      unit_speed_tol(curve))
    return _kernels.frenet_jets(jets, geo_tol)


class TestHorizontalFamily:
    """The zero-tilt member has fully pinned Frenet data."""

    def test_frozen_values(self):
        curve = make_spacelike_horizontal(branch=1)
        for s in GRID:
            data = compute_frenet(curve, s)
            assert data.k1 == pytest.approx(2.0, abs=1e-12)
            assert data.k2 == pytest.approx(-1.0, abs=1e-12)
            assert (data.eps1, data.eps2, data.eps3) == (1.0, -1.0, -1.0)
            assert data.n[2] == pytest.approx(0.0, abs=1e-12)
            assert data.b[2] == pytest.approx(-1.0, abs=1e-12)

    def test_binormal_vertical_component_magnitude_branch_independent(self):
        for branch in (1, -1):
            data = compute_frenet(make_spacelike_horizontal(branch=branch), 0.3)
            assert abs(data.b[2]) == pytest.approx(1.0, abs=1e-12)

    def test_grid_summary_constancy(self):
        summary = frenet_over_grid(make_spacelike_horizontal(), GRID)
        assert summary.k1_mean == pytest.approx(2.0, abs=1e-12)
        assert summary.k2_mean == pytest.approx(-1.0, abs=1e-12)
        assert summary.k1_max_dev <= 1e-12
        assert summary.k2_max_dev <= 1e-12
        assert summary.n3_max_dev <= 1e-12
        assert summary.b3_max_dev <= 1e-12
        assert len(summary.data) == len(GRID)


class TestHelixClosedForms:
    def test_spacelike_plus_branch_against_closed_forms(self):
        # For the spacelike family with shape parameter w: amplitude
        # A = cosh w, tilt K = sinh w, slope a = K + sqrt(K² + 4A²), and
        # then k1 = |A·(a − 2K)| and k2 = K·(a − 2K) − 1.
        w = 0.5
        amp, tilt = math.cosh(w), math.sinh(w)
        a = tilt + math.sqrt(tilt * tilt + 4.0 * amp * amp)
        d = a - 2.0 * tilt
        curve = make_spacelike_biharmonic(w, branch=1)
        data = compute_frenet(curve, 0.7)
        assert data.k1 == pytest.approx(abs(amp * d), rel=1e-12)
        assert data.k2 == pytest.approx(tilt * d - 1.0, rel=1e-12)
        assert (data.eps1, data.eps2, data.eps3) == (1.0, -1.0, -1.0)
        assert abs(data.b[2]) == pytest.approx(amp, rel=1e-12)

    def test_timelike_plus_branch_against_closed_forms(self):
        # Timelike family: A = sinh w, C = cosh w, a = C + sqrt(C² + 4A²),
        # k1 = |A·(a − 2C)|, k2 = C·(a − 2C) + 1, signs (−1, −1, +1).
        w = 0.8
        amp, tilt = math.sinh(w), math.cosh(w)
        a = tilt + math.sqrt(tilt * tilt + 4.0 * amp * amp)
        d = a - 2.0 * tilt
        curve = make_timelike_biharmonic(w, branch=1)
        data = compute_frenet(curve, -0.4)
        assert data.k1 == pytest.approx(abs(amp * d), rel=1e-12)
        assert data.k2 == pytest.approx(tilt * d + 1.0, rel=1e-12)
        assert (data.eps1, data.eps2, data.eps3) == (-1.0, -1.0, 1.0)

    def test_jet_route_agrees_with_helix_kernel(self):
        # The same tangent fed through the generic jet pipeline (no helix
        # marker) must reproduce the double-double helix kernel's output.
        w, a = 0.5, None
        amp, tilt = math.cosh(w), math.sinh(w)
        a = tilt + math.sqrt(tilt * tilt + 4.0 * amp * amp)

        def tangent(s):
            u = a * s
            return (amp * math.cosh(u), amp * math.sinh(u), tilt)

        def derivative(s, order):
            u = a * s
            c, sh = math.cosh(u), math.sinh(u)
            if order % 2 == 1:
                return (a**order * amp * sh, a**order * amp * c, 0.0)
            return (a**order * amp * c, a**order * amp * sh, 0.0)

        generic = FrameCurve(tangent, derivative=derivative)
        via_jets = compute_frenet(generic, 0.3)
        via_kernel = compute_frenet(make_spacelike_biharmonic(w, branch=1), 0.3)
        assert via_jets.k1 == pytest.approx(via_kernel.k1, rel=1e-10)
        assert via_jets.k2 == pytest.approx(via_kernel.k2, rel=1e-10)
        for i in range(3):
            assert via_jets.n[i] == pytest.approx(via_kernel.n[i], abs=1e-10)
            assert via_jets.b[i] == pytest.approx(via_kernel.b[i], abs=1e-10)

    @pytest.mark.parametrize(
        "curve",
        [
            make_timelike_biharmonic(0.6, branch=-1),
            make_spacelike_biharmonic(0.5, branch=1),
            make_spacelike_horizontal(),
        ],
        ids=["timelike", "spacelike", "horizontal"],
    )
    def test_first_frenet_equation(self, curve):
        # The principal normal satisfies ∇_T T = ε2·k1·N (N is scaled so
        # that inner(N, N) = ε2).
        s = 0.25
        data = compute_frenet(curve, s)
        jets = curve.tangent_jets(s)
        nabla_tt = covariant_derivative_along(jets[0], jets[0], jets[1])
        for i in range(3):
            assert nabla_tt[i] == pytest.approx(
                data.eps2 * data.k1 * data.n[i], abs=1e-9
            )


class TestExtendedData:
    """The derivative data the bitension needs, read from the one record."""

    def test_constant_curvature_helix_has_flat_derivatives(self):
        data = compute_frenet(make_spacelike_biharmonic(0.5), 0.4)
        assert abs(data.k1_prime) <= 1e-10
        assert abs(data.k1_second) <= 1e-10
        assert abs(data.k2_prime) <= 1e-10

    def test_frame_derivatives_are_metric_compatible(self):
        data = compute_frenet(make_timelike_biharmonic(0.7), -0.2)
        # d/ds inner(N, N) = 2 inner(∇_T N, N) = 0, same for B, and the
        # cross term pairs antisymmetrically.
        assert abs(inner(data.nabla_t_n, data.n)) <= 1e-9
        assert abs(inner(data.nabla_t_b, data.b)) <= 1e-9
        assert abs(
            inner(data.nabla_t_n, data.b) + inner(data.n, data.nabla_t_b)
        ) <= 1e-9

    def test_extended_frenet_is_compute_frenet(self):
        assert frenet_module.extended_frenet is compute_frenet

    @pytest.mark.parametrize("curve", [
        make_b3zero_linear("b3zero-spacelike", 0.4, 0.6, (0.0, 2.0)),
        FrameCurve(make_timelike_biharmonic(0.7).helix.tangent),
    ], ids=["closed-form-jets", "fd-jets"])
    def test_takes_the_frame_only_route(self, curve, monkeypatch):
        """The Frenet tuple comes from frenet_jets alone, the same call that
        point_eval makes before its bitension routes, so it keeps its bits."""
        want = [_bits(frenet_module.point_data(curve, s)[0])
                for s in (0.3, 0.9)]

        def refuse(*args):
            raise AssertionError("point_eval called")

        monkeypatch.setattr(frenet_module._kernels, "point_eval", refuse)
        assert [_bits(compute_frenet(curve, s)) for s in (0.3, 0.9)] == want


class TestDegeneracies:
    def test_geodesic_raises(self):
        with pytest.raises(GeodesicDegenerateError):
            compute_frenet(make_geodesic(), 0.0)

    def test_null_normal_raises(self):
        # T(0) = (0, 1, 0) is unit timelike and T' = (1, 0, 1) makes
        # ∇_T T null, so no unit principal normal exists.
        curve = FrameCurve(
            lambda s: (s, 1.0, s),
            derivative=lambda s, order: (1.0, 0.0, 1.0)
            if order == 1
            else (0.0, 0.0, 0.0),
        )
        with pytest.raises(NullNormalDegenerateError):
            compute_frenet(curve, 0.0)

    def test_non_unit_speed_raises(self):
        bad = FrameCurve(lambda s: (2.0, 0.0, 0.0))
        with pytest.raises(UnitSpeedError):
            compute_frenet(bad, 0.0)

    def test_geo_tol_keyword_is_gone(self):
        # the geodesic threshold follows the curve's backing alone
        curve = make_spacelike_horizontal()
        grid = [0.0, 0.5]
        calls = [
            lambda: frenet_module.point_data(curve, 0.0, geo_tol=1e-3),
            lambda: list(frenet_module.evaluate_points([(curve, 0.0)],
                                                       geo_tol=1e-3)),
            lambda: list(frenet_module.evaluate_grid(curve, grid,
                                                     geo_tol=1e-3)),
            lambda: compute_frenet(curve, 0.0, geo_tol=1e-3),
            lambda: extended_frenet(curve, 0.0, geo_tol=1e-3),
            lambda: frenet_over_grid(curve, grid, geo_tol=1e-3),
            lambda: biharmonic.bitension_direct(curve, 0.0, geo_tol=1e-3),
            lambda: biharmonic.bitension_frenet_at(curve, 0.0, geo_tol=1e-3),
            lambda: biharmonic.residual_norms(curve, grid, geo_tol=1e-3),
            lambda: biharmonic.check_biharmonic_conditions(curve, grid,
                                                           geo_tol=1e-3),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()


class TestValidate:
    def test_valid_data_passes(self):
        data = compute_frenet(make_spacelike_horizontal(), 0.5)
        assert data.validate() <= 1e-12

    def test_tampered_binormal_rejected(self):
        data = compute_frenet(make_spacelike_horizontal(), 0.5)
        bad = data._replace(b1=-data.b1, b2=-data.b2, b3=-data.b3)
        assert bad.b == FrameVector(-data.b1, -data.b2, -data.b3)
        with pytest.raises(InvalidInputError, match="frame invariants"):
            bad.validate()

    def test_negative_k1_rejected(self):
        data = compute_frenet(make_spacelike_horizontal(), 0.5)
        with pytest.raises(InvalidInputError, match="k1 must be"):
            data._replace(k1=-data.k1).validate()


class TestGridApi:
    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            frenet_over_grid(make_spacelike_horizontal(), ())

    def test_point_data_flat_layout(self):
        # The record is the kernel's flat 23-tuple, each slot named in
        # frenet_jets order, and compute_frenet returns it bit for bit: at a
        # helix point, a closed-form jets point and an FD point.
        assert FrenetData._fields == _LAYOUT
        for curve, s in (
            (make_spacelike_horizontal(), 0.0),
            (make_b3zero_linear("b3zero-spacelike", 0.4, 0.6, (0.0, 2.0)),
             0.7),
            (FrameCurve(make_timelike_biharmonic(0.7).helix.tangent), 0.3),
        ):
            fr, tau_direct, tau_frenet = frenet_module.point_data(curve, s)
            assert type(fr) is FrenetData
            kernel = _kernel_tuple(curve, s)
            assert len(kernel) == 23
            for i, name in enumerate(_LAYOUT):
                assert _bits([getattr(fr, name)]) == _bits([kernel[i]]), name
            assert fr.t == FrameVector(*kernel[8:11])
            assert fr.n == FrameVector(*kernel[11:14])
            assert fr.b == FrameVector(*kernel[14:17])
            assert fr.nabla_t_n == FrameVector(*kernel[17:20])
            assert fr.nabla_t_b == FrameVector(*kernel[20:23])
            assert _bits(compute_frenet(curve, s)) == _bits(fr)
            assert len(tau_direct) == 3
            assert len(tau_frenet) == 3

    def test_grid_pass_and_frames_return_the_record(self):
        curve = make_spacelike_biharmonic(0.5)
        grid = [0.05 * i for i in range(16)]
        points = list(frenet_module.evaluate_grid(curve, grid))
        frames = list(frenet_module.evaluate_grid(curve, grid, frames=True))
        assert all(type(p[0]) is FrenetData for p in points)
        assert all(type(d) is FrenetData for d in frames)
        assert [_bits(p[0]) for p in points] == [_bits(d) for d in frames]
        summary = frenet_over_grid(curve, grid)
        assert [_bits(d) for d in summary.data] == [_bits(d) for d in frames]


# One curve of each Frenet route: the helix kernel, closed-form jets, FD jets
_ROUTES = {
    "helix": lambda: make_spacelike_biharmonic(0.5),
    "closed-form-jets": lambda: make_b3zero_linear(
        "b3zero-spacelike", 0.4, 0.6, (0.0, 2.0)),
    "fd-jets": lambda: FrameCurve(make_timelike_biharmonic(0.7).helix.tangent),
}

_BAD_PARAMETERS = pytest.mark.parametrize(
    "s", [math.nan, math.inf, "0.3", None, 1j],
    ids=["nan", "inf", "str", "None", "complex"])


class TestParameterCheck:
    """Every Frenet route checks s as the curve evaluators do."""

    @pytest.mark.parametrize("route", sorted(_ROUTES))
    @_BAD_PARAMETERS
    def test_every_route_rejects_it(self, route, s):
        # a helix point took "0.3" and met NaN as a dd_exp domain error; a
        # jets point raised a bare TypeError for "0.3" and None
        curve = _ROUTES[route]()
        for evaluate in (frenet_module.point_data, compute_frenet):
            with pytest.raises(InvalidInputError,
                               match="^curve parameter must be "):
                evaluate(curve, s)

    @_BAD_PARAMETERS
    def test_grid_pass_rejects_it(self, s):
        curve = make_spacelike_biharmonic(0.5)
        pairs = [(curve, 0.05 * i) for i in range(15)] + [(curve, s)]
        for frames in (False, True):
            with pytest.raises(InvalidInputError,
                               match="^curve parameter must be "):
                list(frenet_module.evaluate_points(pairs, frames=frames))

    def test_real_numbers_pass(self):
        curve = make_spacelike_biharmonic(0.5)
        want = _bits(compute_frenet(curve, 0.5))
        for s in (0.5, np.float64(0.5), Fraction(1, 2)):
            assert _bits(compute_frenet(curve, s)) == want


def _fast_helix():
    """A frame curve of tangent ``(cosh 0.3·cosh(w·s), cosh 0.3·sinh(w·s),
    sinh 0.3)`` at w = 1e80, with closed-form derivatives: at s = 0 its k1″
    and τ_frenet overflow to NaN."""
    ch, sh, w = math.cosh(0.3), math.sinh(0.3), 1e80

    def derivative(s, order):
        f = ch * w ** order
        c, h = math.cosh(w * s), math.sinh(w * s)
        return (f * h, f * c, 0.0) if order % 2 else (f * c, f * h, 0.0)

    def tangent(s):
        return (ch * math.cosh(w * s), ch * math.sinh(w * s), sh)

    return FrameCurve(tangent, derivative=derivative)


class TestNonFiniteFrenetData:
    """Frenet data that is not finite raises NumericOverflowError, on the
    helix kernel, the grid pass and the jets route alike."""

    def test_helix_kernel(self):
        # m = 1e300: k1, k2, N, B and both τ₂ overflow to NaN at s = 0
        curve = make_timelike_horizontal_helix(1e300)
        for evaluate in (frenet_module.point_data, compute_frenet,
                         extended_frenet):
            with pytest.raises(NumericOverflowError, match="not finite"):
                evaluate(curve, 0.0)
        with pytest.raises(NumericOverflowError):
            biharmonic.residual_norms(curve, [0.0, 1e-300])
        with pytest.raises(NumericOverflowError):
            # no verdict, where NaN residuals would read as NotBiharmonic
            biharmonic.check_biharmonic_conditions(curve, [0.0, 1e-300])

    def test_grid_pass(self):
        curve = make_timelike_horizontal_helix(1e300)
        pairs = [(curve, 1e-300 * i) for i in range(16)]
        with pytest.raises(NumericOverflowError):
            list(frenet_module.evaluate_points(pairs))

    def test_jets_route(self):
        curve = _fast_helix()
        for evaluate in (frenet_module.point_data, compute_frenet):
            with pytest.raises(NumericOverflowError, match="not finite"):
                evaluate(curve, 0.0)
