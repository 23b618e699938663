"""Curve containers: derivatives, CSV ingestion, integration, invariants."""

import math
import re

import numpy as np
import pytest

from hhcurves import (
    CausalCharacter,
    CoordinateCurve,
    FDConfig,
    FrameCurve,
    HelixSpec,
    InvalidInputError,
    MixedCausalityError,
    NumericOverflowError,
    UnitSpeedError,
    causal_character_of_curve,
    check_biharmonic_conditions,
    check_unit_speed,
    compute_frenet,
    fd_derivative,
    integrate_frame_curve,
    is_horizontal,
    make_b3zero_curve,
    make_b3zero_linear,
    make_helix,
    make_spacelike_biharmonic,
    make_spacelike_horizontal,
    make_timelike_horizontal_helix,
    read_curve_csv,
    vertical_momentum,
)
from hhcurves import _kernels
from hhcurves._kernels import _two_sum
from hhcurves.frenet import direct_tau, point_data

GRID = tuple(-1.0 + 0.25 * i for i in range(9))


def _smooth(s):
    return (math.sin(s), math.exp(0.3 * s), s**3 - 0.5 * s)


def _smooth_derivative(s, order):
    quarter = order % 4
    trig = (math.sin, math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u))
    x = trig[quarter](s)
    y = 0.3**order * math.exp(0.3 * s)
    z = {1: 3.0 * s**2 - 0.5, 2: 6.0 * s, 3: 6.0, 4: 0.0}[order]
    return (x, y, z)


class TestFiniteDifferences:
    @pytest.mark.parametrize("step", [
        1e-100, 2.4e-81, 1.2e77, 1e80, pytest.param(10**400, id="int-1e400"),
        0.0, -1e-4, math.nan, math.inf, True])
    def test_steps_the_stencils_cannot_divide_by_rejected(self, step):
        # at 1e-100, (h/2)**4 is 0 and every evaluation divided by it
        with pytest.raises(InvalidInputError, match="FD step must be"):
            FDConfig(step=step)

    @pytest.mark.parametrize("step", [2.6e-81, 1e-4, 0.01, 0.001, 1, 1.1e77])
    def test_steps_in_range_accepted(self, step):
        got = fd_derivative(lambda s: (3.0 * s,), 0.5, 1, FDConfig(step=step))
        assert math.isfinite(got[0])

    def test_low_orders_at_default_step(self):
        cfg = FDConfig()
        for s in (-0.7, 0.0, 1.3):
            for order, tol in ((1, 1e-10), (2, 1e-7)):
                got = fd_derivative(_smooth, s, order, cfg)
                want = _smooth_derivative(s, order)
                assert max(
                    abs(a - b) for a, b in zip(got, want)
                ) <= tol, (s, order)

    def test_high_orders_at_coarser_step(self):
        # Orders 3-4 divide by h^3 / h^4; a coarser step balances roundoff
        # against truncation.
        cfg = FDConfig(step=1e-2)
        for s in (-0.7, 0.0, 1.3):
            for order, tol in ((3, 1e-5), (4, 1e-4)):
                got = fd_derivative(_smooth, s, order, cfg)
                want = _smooth_derivative(s, order)
                assert max(
                    abs(a - b) for a, b in zip(got, want)
                ) <= tol, (s, order)

    def test_richardson_keyword_is_gone(self):
        # Richardson extrapolation is always on
        with pytest.raises(TypeError):
            FDConfig(step=1e-3, richardson=False)
        with pytest.raises(TypeError):
            CoordinateCurve.from_samples([0.0, 1.0], [(0.0, 0.0, 0.0)] * 2,
                                         richardson=False)

    def test_invalid_order_rejected(self):
        with pytest.raises(InvalidInputError):
            fd_derivative(_smooth, 0.0, 5, FDConfig())

    def test_bool_step_rejected(self):
        for step in (True, False):
            with pytest.raises(InvalidInputError, match="FD step"):
                FDConfig(step=step)


class TestCoordinateCurve:
    def test_analytic_flag(self):
        analytic = CoordinateCurve.from_functions(
            _smooth, derivative=_smooth_derivative
        )
        fd_backed = CoordinateCurve.from_functions(_smooth)
        assert analytic.analytic
        assert not fd_backed.analytic

    def test_fd_backing_approximates_analytic(self):
        fd_backed = CoordinateCurve.from_functions(_smooth)
        for s in (-0.5, 0.2):
            got = fd_backed.derivative(s, 1)
            want = _smooth_derivative(s, 1)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9

    def test_derivative_order_validation(self):
        curve = CoordinateCurve.from_functions(
            _smooth, derivative=_smooth_derivative
        )
        with pytest.raises(InvalidInputError):
            curve.derivative(0.0, 0)
        with pytest.raises(InvalidInputError):
            curve.derivative(0.0, 5)

    def test_tangent_formula(self):
        # T = (x', y', z'/2 + x'·y − x·y') on any coordinate curve.
        curve = CoordinateCurve.from_functions(
            _smooth, derivative=_smooth_derivative
        )
        s = 0.7
        x, y, _ = _smooth(s)
        dx, dy, dz = _smooth_derivative(s, 1)
        want = (dx, dy, dz / 2.0 + dx * y - x * dy)
        assert curve.tangent(s) == pytest.approx(want, abs=1e-15)


class TestSampledCurves:
    def _samples(self, n=41, d=0.05):
        s_values = [i * d for i in range(n)]
        points = [_smooth(s) for s in s_values]
        return s_values, points

    def test_round_trip_derivatives_on_interior(self):
        s_values, points = self._samples()
        curve = CoordinateCurve.from_samples(s_values, points)
        table = curve.samples
        lo, hi = table.interior_range()
        for i in range(lo, hi + 1, 7):
            s = s_values[i]
            got = curve.derivative(s, 1)
            want = _smooth_derivative(s, 1)
            # Richardson stencil truncation at spacing 0.05 is ~|f⁽⁵⁾|·h⁴/30.
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-6

    def test_derivatives_are_fd_on_the_nodes(self):
        s_values, points = self._samples()
        d = s_values[1] - s_values[0]
        curve = CoordinateCurve.from_samples(s_values, points)
        cfg = FDConfig(step=2.0 * d)

        def node(t):
            return points[round((t - s_values[0]) / d)]

        lo, hi = curve.samples.interior_range()
        for s in s_values[lo:hi + 1]:
            for m in (1, 2, 3, 4):
                assert curve.derivative(s, m) == fd_derivative(node, s, m, cfg)

    def test_off_grid_evaluation_rejected(self):
        s_values, points = self._samples()
        curve = CoordinateCurve.from_samples(s_values, points)
        with pytest.raises(InvalidInputError):
            curve.point(0.123456)

    def test_boundary_nodes_rejected_for_derivatives(self):
        s_values, points = self._samples()
        curve = CoordinateCurve.from_samples(s_values, points)
        with pytest.raises(InvalidInputError):
            curve.derivative(s_values[0], 1)

    def test_non_uniform_spacing_rejected(self):
        with pytest.raises(InvalidInputError):
            CoordinateCurve.from_samples(
                [0.0, 0.1, 0.25, 0.3], [(0.0, 0.0, 0.0)] * 4
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            CoordinateCurve.from_samples([0.0, 0.1], [(0.0, 0.0, 0.0)])

    @pytest.mark.parametrize("s0, d", [(1000.0, 1e-6), (1000.0, 1e-10),
                                       (0.0, 1e-10), (-2.0, 5e-4)])
    def test_nodes_resolve_to_themselves_at_fine_spacings(self, s0, d):
        # a lookup tolerance of 1e-9·max(1, |s|) alone reached back one node
        # (s0 = 1000, d = 1e-6) or ten (d = 1e-10)
        s_values = [s0 + i * d for i in range(41)]
        points = [(float(i * i), 0.0, 0.0) for i in range(41)]
        curve = CoordinateCurve.from_samples(s_values, points)
        for i in (0, 10, 20, 30, 40):
            assert curve.point(s_values[i]) == points[i]
        lo, hi = curve.samples.interior_range()
        spacing = curve.samples.spacing
        for i in (lo, 20, hi):
            # the stencils are exact on x = i², whose slope at node i is 2i
            assert curve.derivative(s_values[i], 1)[0] == pytest.approx(
                2.0 * i / spacing, rel=1e-12)

    def test_spacings_a_quarter_apart_rejected(self):
        # each within 1e-9 of the first, as the relative bound alone allowed
        s_values = [0.0]
        for i in range(20):
            s_values.append(s_values[-1] + (1e-10 if i % 2 == 0 else 5e-10))
        with pytest.raises(InvalidInputError, match="uniformly spaced"):
            CoordinateCurve.from_samples(s_values, [(0.0, 0.0, 0.0)] * 21)

    @pytest.mark.parametrize("d", [1e80, 1e-90, 1e77, 1e-81])
    def test_spacing_stencils_cannot_divide_by_rejected(self, d):
        s_values = [i * d for i in range(11)]
        message = re.escape("sample spacing %r is outside" % d)
        with pytest.raises(InvalidInputError, match=message):
            CoordinateCurve.from_samples(s_values, [(0.0, 0.0, 0.0)] * 11)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row, column", [(2, 0), (1, 0), (1, 2), (0, 1)])
    def test_non_finite_samples_rejected(self, bad, row, column):
        samples = [[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.5, 0.25],
                   [2.0, 2.0, 1.0, 0.5]]
        samples[row][column] = bad
        s_values = [r[0] for r in samples]
        points = [tuple(r[1:]) for r in samples]
        with pytest.raises(InvalidInputError,
                           match="sample row %d is not finite" % row):
            CoordinateCurve.from_samples(s_values, points)


class TestCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "curve.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path):
        lines = ["s,x,y,z"]
        for i in range(25):
            s = i * 0.05
            x, y, z = _smooth(s)
            lines.append("%.17g,%.17g,%.17g,%.17g" % (s, x, y, z))
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        curve = read_curve_csv(path)
        assert curve.samples is not None
        assert curve.point(0.1) == pytest.approx(_smooth(0.1), abs=1e-15)

    def test_wrong_header_rejected(self, tmp_path):
        path = self._write(tmp_path, "s,x,y,w\n0,0,0,0\n1,1,1,1\n")
        with pytest.raises(InvalidInputError):
            read_curve_csv(path)

    def test_extra_columns_ignored(self, tmp_path):
        # The generate command appends tangent columns; ingestion reads the
        # four position columns and skips the rest.
        text = "s,x,y,z,T1,T2,T3\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g,9,9,9\n" % ((i * 0.05,) + _smooth(i * 0.05))
            for i in range(25)
        )
        path = self._write(tmp_path, text)
        curve = read_curve_csv(path)
        assert curve.point(0.1) == pytest.approx(_smooth(0.1), abs=1e-15)

    def test_ragged_row_rejected(self, tmp_path):
        path = self._write(tmp_path, "s,x,y,z,T1\n0,0,0,0,1\n0.1,0,0,0\n")
        with pytest.raises(InvalidInputError):
            read_curve_csv(path)

    def test_decreasing_s_rejected(self, tmp_path):
        path = self._write(tmp_path, "s,x,y,z\n0,0,0,0\n-1,1,1,1\n")
        with pytest.raises(InvalidInputError):
            read_curve_csv(path)

    def test_missing_file_rejected(self):
        with pytest.raises(InvalidInputError):
            read_curve_csv("/no/such/file.csv")

    def test_malformed_number_rejected(self, tmp_path):
        path = self._write(tmp_path, "s,x,y,z\n0,0,0,0\n0.1,zero,0,0\n")
        with pytest.raises(InvalidInputError):
            read_curve_csv(path)


    @pytest.mark.parametrize("row", [
        # z' is finite, but the higher stencils meet inf - inf
        lambda i, s: (s, 0.0, -1e308 if i % 2 == 0 else 1e308),
        # every value is finite, x'·y and x·y' are not
        lambda i, s: (1e200 * s, -1e200 * s, 1e10 * s),
    ], ids=["nan-jets", "overflow"])
    def test_non_finite_tangent_jets_rejected(self, tmp_path, row):
        text = "s,x,y,z\n" + "".join(
            "%r,%r,%r,%r\n" % ((0.1 * i,) + row(i, 0.1 * i)) for i in range(21)
        )
        curve = read_curve_csv(self._write(tmp_path, text))
        with pytest.raises(InvalidInputError, match="not finite"):
            curve.tangent_jets(curve.samples.s_values[4])

class TestIntegration:
    def test_reproduces_closed_form_coordinates(self):
        # Integrating the horizontal family's tangent from its own starting
        # point must reproduce the closed-form coordinates.
        curve = make_spacelike_horizontal(branch=1)
        frame = FrameCurve(curve.tangent)
        integrated = integrate_frame_curve(
            frame, curve.point(0.0), (0.0, 1.0), 1e-3
        )
        worst = 0.0
        for i in range(0, 1001, 125):
            s = i * 1e-3
            got = integrated.point(s)
            want = curve.point(s)
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        assert worst <= 1e-9

    def test_invalid_ranges_rejected(self):
        frame = FrameCurve(lambda s: (1.0, 0.0, 0.0))
        with pytest.raises(InvalidInputError):
            integrate_frame_curve(frame, (0, 0, 0), (1.0, 0.0), 0.1)
        with pytest.raises(InvalidInputError):
            integrate_frame_curve(frame, (0, 0, 0), (0.0, 1.0), -0.1)
        with pytest.raises(InvalidInputError):
            integrate_frame_curve(frame, (0, 0, 0), (0.0, 1.0), 0.3)

    def test_non_finite_start_rejected(self):
        frame = FrameCurve(lambda s: (1.0, 0.0, 0.0))
        with pytest.raises(InvalidInputError, match="sample row 0"):
            integrate_frame_curve(frame, (math.nan, 0, 0), (0.0, 1.0), 0.1)


class TestCurveInvariants:
    def test_vertical_momentum_is_twice_t3(self):
        curve = make_spacelike_biharmonic(0.5)
        for s in GRID:
            assert vertical_momentum(curve, s) == pytest.approx(
                2.0 * curve.tangent(s)[2], abs=0.0
            )

    def test_horizontality(self):
        horizontal = make_spacelike_horizontal()
        tilted = make_spacelike_biharmonic(0.5)
        assert is_horizontal(horizontal, GRID)
        assert not is_horizontal(tilted, GRID)

    def test_causal_character_of_families(self):
        spacelike = make_spacelike_biharmonic(0.5)
        assert (
            causal_character_of_curve(spacelike, GRID)
            is CausalCharacter.SPACELIKE
        )

    def test_mixed_causality_detected(self):
        # T = (s, 1, 0) has inner(T, T) = s² − 1: spacelike for |s| > 1,
        # timelike inside.
        frame = FrameCurve(lambda s: (s, 1.0, 0.0))
        with pytest.raises(MixedCausalityError):
            causal_character_of_curve(frame, (-2.0, 0.0, 2.0))

    def test_unit_speed_check(self):
        good = make_spacelike_horizontal()
        assert check_unit_speed(good, GRID) <= 1e-12
        bad = FrameCurve(lambda s: (2.0, 0.0, 0.0))
        with pytest.raises(UnitSpeedError):
            check_unit_speed(bad, GRID)

    def test_unit_speed_tolerance_follows_the_backing(self):
        # A spacelike helix tangent scaled so that inner(T, T) = 1 + 1e-7:
        # beyond the 1e-9 allowed with closed-form derivatives, within the
        # 1e-6 allowed with finite differences. Every entry point agrees.
        amp, tilt, a = math.cosh(0.5), math.sinh(0.5), 2.5
        f = math.sqrt(1.0 + 1e-7)

        def tangent(s):
            u = a * s
            return (f * amp * math.cosh(u), f * amp * math.sinh(u), f * tilt)

        def derivative(s, order):
            u = a * s
            c, sh = math.cosh(u), math.sinh(u)
            if order % 2:
                c, sh = sh, c
            return (f * amp * a**order * c, f * amp * a**order * sh, 0.0)

        analytic = FrameCurve(tangent, derivative=derivative)
        fd_backed = FrameCurve(tangent)
        assert analytic.analytic and not fd_backed.analytic
        for call in (
            lambda curve: check_unit_speed(curve, GRID),
            lambda curve: compute_frenet(curve, 0.25),
            lambda curve: check_biharmonic_conditions(curve, GRID),
        ):
            with pytest.raises(UnitSpeedError):
                call(analytic)
            call(fd_backed)
        assert check_unit_speed(fd_backed, GRID) == pytest.approx(1e-7,
                                                                  rel=1e-6)

    @staticmethod
    def _unit_derivative(bad_order, bad_value):
        def derivative(s, order):
            if order == bad_order:
                return (bad_value, 0.0, 0.0)
            if order % 2:
                return (math.sinh(s), math.cosh(s), 0.0)
            return (math.cosh(s), math.sinh(s), 0.0)
        return derivative

    @pytest.mark.parametrize("curve", [
        FrameCurve(lambda s: (math.cosh(s), math.sinh(s), 0.0),
                   derivative=_unit_derivative(1, math.nan)),
        FrameCurve(lambda s: (math.cosh(s), math.sinh(s), 0.0),
                   derivative=_unit_derivative(3, math.inf)),
        # unit-speed at 0.5 only: its second difference there overflows
        FrameCurve(lambda s: (1.0, 0.0, 0.0) if s == 0.5
                   else (1e308, -1e308, 0.0)),
    ], ids=["nan-order-1", "inf-order-3", "fd-overflow"])
    def test_non_finite_frame_jets_rejected(self, curve):
        # these passed the unit-speed gate and gave NaN residuals and taus
        with pytest.raises(InvalidInputError, match="not finite"):
            curve.tangent_jets(0.5)
        with pytest.raises(InvalidInputError, match="not finite"):
            point_data(curve, 0.5)
        with pytest.raises(InvalidInputError, match="not finite"):
            check_biharmonic_conditions(curve, (0.5,))


class TestHelixSpec:
    def test_tangent_matches_closed_form(self):
        spec = HelixSpec(0, 1.25, 0.5, 2.0, 0.0, 0.3)
        for s in (-1.0, 0.0, 0.7):
            u = 2.0 * s + 0.3
            want = (1.25 * math.cosh(u), 1.25 * math.sinh(u), 0.5)
            assert spec.tangent(s) == pytest.approx(want, rel=1e-15)

    def test_slope_property_is_hi_word(self):
        spec = HelixSpec(1, 1.0, 0.0, 2.0, 1e-20, 0.0)
        assert spec.slope == 2.0

    @pytest.mark.parametrize("field", range(1, 6))
    def test_non_finite_parameter_rejected(self, field):
        args = [0, 1.25, 0.5, 2.0, 0.0, 0.3]
        for bad in (math.inf, math.nan):
            args[field] = bad
            with pytest.raises(InvalidInputError, match="must be finite"):
                HelixSpec(*args)

    @pytest.mark.parametrize("form", [2, -1, "0", 0.0, True, None])
    def test_form_other_than_int_0_or_1_rejected(self, form):
        with pytest.raises(InvalidInputError, match="helix form"):
            HelixSpec(form, 1.0, 0.0, 1.0)

    def test_slope_pair_is_stored_normalized(self):
        """An unnormalized (hi, lo) slope is stored as its two-sum, so the
        plain-double jets describe the curve the helix kernel evaluates:
        along this near-geodesic helix (k1 near 5e-10) both routes give the
        same k1 and direct bitension, where the unnormalized hi word alone
        gives a geodesic."""
        hi, lo = 2.0 * math.sinh(0.6), 4.2e-10
        curve = make_helix("spacelike", 0.6, (hi, lo))
        spec = curve.helix
        assert (spec.slope_hi, spec.slope_lo) == _two_sum(hi, lo)
        assert spec.slope_hi + spec.slope_lo == spec.slope_hi
        for s in (-1.0, 0.0, 0.5, 1.5):
            jets = curve.tangent_jets(s)
            a10 = _kernels.covd(jets[0], jets[0], jets[1])
            k1 = math.sqrt(abs(_kernels.inner(a10, a10)))
            fr, tau_d, _ = _kernels.helix_eval(
                spec.form, spec.amp, spec.tilt, spec.slope_hi, spec.slope_lo,
                spec.phase, s, 0.0)
            assert k1 == pytest.approx(fr[0], rel=1e-5)
            assert direct_tau(curve, s) == pytest.approx(tau_d, abs=1e-11)

    @pytest.mark.parametrize("hi, lo", [(1e308, 1e308), (1.7e308, 1.7e308),
                                        (-1e308, -1e308)])
    def test_slope_pair_summing_past_the_doubles_rejected(self, hi, lo):
        # the pair was stored as (inf, nan), and its tangent came out as nan
        with pytest.raises(InvalidInputError, match="must be finite"):
            HelixSpec(0, 1.0, 0.0, hi, lo)
        with pytest.raises(InvalidInputError, match="must be finite"):
            make_helix("spacelike", 0.3, (hi, lo))

    def test_normalized_slope_pairs_are_kept_bit_for_bit(self):
        for hi, lo in ((2.0, 1e-20), (-0.0, 0.0), (1.5, -0.0), (3.0, 0.0)):
            spec = HelixSpec(0, 1.0, 0.0, hi, lo)
            assert (repr(spec.slope_hi), repr(spec.slope_lo)) == (repr(hi),
                                                                   repr(lo))


# --------------------------------------------------------------------------
# The one derivative backing: parameters, orders and closed-form overflow
# --------------------------------------------------------------------------

def _tangent_callable(t):
    return (math.cosh(t), math.sinh(t), 0.25 * t)


_NODES = [-1.0 + 0.05 * i for i in range(41)]

# One curve of each backing, and the public evaluators each class has.
_BACKINGS = {
    "coordinate-closed": lambda: make_spacelike_biharmonic(0.5),
    "coordinate-fd": lambda: CoordinateCurve.from_functions(_smooth),
    "coordinate-samples": lambda: CoordinateCurve.from_samples(
        _NODES, [_smooth(s) for s in _NODES]),
    "frame-closed": lambda: make_helix("spacelike", 0.4, 2.2),
    "frame-b3zero": lambda: make_b3zero_linear("b3zero-spacelike", 0.4, 0.6,
                                               (0, 1)),
    "frame-fd": lambda: FrameCurve(_tangent_callable),
}


def _evaluators(curve):
    calls = [curve.tangent, curve.tangent_jets,
             lambda s: curve.derivative(s, 1)]
    if isinstance(curve, CoordinateCurve):
        calls.append(curve.point)
    return calls


class TestNonFiniteParameter:
    @pytest.mark.parametrize("backing", sorted(_BACKINGS))
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "int-past-doubles"])
    def test_every_evaluator_rejects_it(self, backing, s):
        # at the parent these returned NaN or inf coordinates, raised
        # UnitSpeedError, or took node 0 of a sample table for NaN
        curve = _BACKINGS[backing]()
        for call in _evaluators(curve):
            with pytest.raises(InvalidInputError,
                               match="curve parameter must be finite"):
                call(s)

    def test_fd_callables_never_see_it(self):
        seen = []

        def record(t):
            seen.append(t)
            return _tangent_callable(t)

        for curve in (CoordinateCurve.from_functions(record),
                      FrameCurve(record)):
            for call in _evaluators(curve):
                with pytest.raises(InvalidInputError):
                    call(math.inf)
        with pytest.raises(InvalidInputError):
            fd_derivative(record, math.nan, 1, FDConfig())
        assert seen == []


class TestClosedFormOverflow:
    @pytest.mark.parametrize("call", [
        lambda: make_spacelike_biharmonic(0.5).point(1e4),
        lambda: make_spacelike_biharmonic(0.5).tangent(1e4),
        lambda: make_spacelike_biharmonic(0.5).tangent_jets(1e4),
        lambda: make_spacelike_biharmonic(0.5).derivative(1e4, 3),
        lambda: make_helix("spacelike", 0.4, 2.2).tangent(1e4),
        lambda: make_helix("spacelike", 0.4, 2.2).derivative(1e4, 2),
        lambda: make_b3zero_linear("b3zero-spacelike", 0.4, 0.6,
                                   (0, 1)).tangent(1e4),
        lambda: make_b3zero_linear("b3zero-timelike", 0.4, 0.6,
                                   (0, 1)).tangent_jets(1e4),
        lambda: compute_frenet(
            FrameCurve(make_helix("spacelike", 0.4, 2.2).helix.tangent), 1e4),
        lambda: make_b3zero_curve("b3zero-spacelike", lambda s: 800.0 * s,
                                  (0.0, 2.0)).tangent(1.5),
    ], ids=["point", "tangent", "tangent-jets", "derivative", "helix-tangent",
            "helix-derivative", "b3zero-tangent", "b3zero-jets",
            "fd-on-helix-spec", "b3zero-quadrature"])
    def test_raises_a_library_error_with_the_same_text(self, call):
        # at the parent each raised a bare OverflowError
        with pytest.raises(NumericOverflowError, match="^math range error$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: make_spacelike_biharmonic(0.5).tangent(249.7),
        lambda: make_spacelike_biharmonic(0.5).derivative(249.7, 3),
        lambda: make_helix("spacelike", 0.4, 2.2).derivative(322.5, 3),
        lambda: make_helix("spacelike", 0.4, 2.2).helix.derivative(322.5, 3),
        lambda: make_timelike_horizontal_helix(0.5).tangent(1e3),
    ], ids=["tangent", "derivative", "helix-derivative", "helix-spec",
            "flat-tangent"])
    def test_a_product_past_the_doubles_raises(self, call):
        # cosh still has a value here, but a product of it overflows or
        # meets inf - inf; at the parent each returned inf or nan
        with pytest.raises(NumericOverflowError, match="is not finite"):
            call()

    def test_a_callers_own_exception_propagates_unchanged(self):
        def position(s):
            raise OverflowError("the caller's own")

        for curve in (CoordinateCurve.from_functions(position),
                      FrameCurve(position),
                      make_b3zero_curve("b3zero-spacelike",
                                        lambda s: 0.5 * s, (0.0, 1.0),
                                        beta=position)):
            with pytest.raises(OverflowError) as info:
                curve.tangent(0.5)
            assert type(info.value) is OverflowError


# name: (derivative of the case's curve at an FD config, its top order, the
# message of a rejected order, whether it is finite-differenced)
_ORDER_CASES = {
    "coordinate": (lambda cfg: CoordinateCurve.from_functions(
        _tangent_callable, fd=cfg).derivative, 4,
        "derivative order must be 1..4", True),
    "frame": (lambda cfg: FrameCurve(_tangent_callable, fd=cfg).derivative, 3,
              "tangent derivative order must be 1..3", True),
    "fd_derivative": (lambda cfg: lambda s, m: fd_derivative(
        _tangent_callable, s, m, cfg), 4, "derivative order must be 1..4",
        True),
    "coordinate-closed-form": (
        lambda cfg: make_spacelike_biharmonic(0.5).derivative, 4,
        "derivative order must be 1..4", False),
    "frame-closed-form": (
        lambda cfg: make_b3zero_linear(
            "b3zero-spacelike", 0.4, 0.6, (0, 1)).derivative, 3,
        "tangent derivative order must be 1..3", False),
}


def _hex(vector):
    return [float(c).hex() for c in vector]


@pytest.mark.parametrize("name", sorted(_ORDER_CASES))
def test_orders_are_checked_and_each_takes_the_jets_path(name):
    make, top, message, fd = _ORDER_CASES[name]
    cfg = FDConfig(step=1e-3)
    derivative = make(cfg)
    # an order of any type but int is rejected, though 1.0 == True == 1
    for bad in (0, top + 1, 1.0, True):
        with pytest.raises(InvalidInputError, match="^%s, got %s$" % (
                re.escape(message), re.escape(repr(bad)))):
            derivative(0.3, bad)
    if not fd:
        for m in range(1, top + 1):
            assert all(map(math.isfinite, derivative(0.3, m)))
        return
    for s in (0.3, -0.0):
        jets = FrameCurve(_tangent_callable, fd=cfg).tangent_jets(s)
        for m in range(1, top + 1):
            got = _hex(derivative(s, m))
            assert got == _hex(fd_derivative(_tangent_callable, s, m, cfg))
            if m <= 3:
                assert got == _hex(jets[m])


class TestBackingIsFixedByItsConstructor:
    """Only the constructor that builds a curve picks its backing: a caller
    gives closed forms or an FD step, never both, and neither a helix spec
    nor a node table."""

    CONSTRUCTORS = {
        "coordinate": CoordinateCurve,
        "from_functions": CoordinateCurve.from_functions,
        "frame": FrameCurve,
    }

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_helix_is_not_an_argument(self, name):
        # a helix spec beside a geodesic tangent would give the helix's k1
        spec = make_helix("spacelike", 0.4, 2.2).helix
        with pytest.raises(TypeError):
            self.CONSTRUCTORS[name](lambda s: (0.0, 0.0, 1.0),
                                    derivative=lambda s, o: (0.0, 0.0, 0.0),
                                    helix=spec)

    def test_samples_is_not_an_argument(self):
        # a callable beside a node table would read the table at the FD step
        line = CoordinateCurve.from_samples(
            [0.01 * i for i in range(21)],
            [(0.01 * i, 0.0, 0.0) for i in range(21)])
        with pytest.raises(TypeError):
            CoordinateCurve(lambda s: (5.0, 7.0, 0.0), samples=line.samples)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_closed_forms_and_an_fd_step_exclude_each_other(self, name):
        # a step beside closed forms would be stored and never read
        with pytest.raises(InvalidInputError,
                           match="^closed-form derivatives and an FD step "
                                 "exclude each other$"):
            self.CONSTRUCTORS[name](_smooth, derivative=_smooth_derivative,
                                    fd=FDConfig(step=1e-3))

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("fd", [1e-3, "x", 0.0, 0, False],
                             ids=["float", "str", "zero", "int-zero", "False"])
    def test_fd_takes_only_an_fdconfig(self, name, fd):
        # a float or a str raised a bare AttributeError at the first step;
        # 0.0, 0 and False fell back to the default step without a word
        with pytest.raises(InvalidInputError,
                           match="^fd must be an FDConfig, got "):
            self.CONSTRUCTORS[name](_smooth, fd=fd)

    def test_fd_derivative_takes_only_an_fdconfig(self):
        for cfg in (1e-3, 0.0, "x"):
            with pytest.raises(InvalidInputError,
                               match="^fd must be an FDConfig, got "):
                fd_derivative(_smooth, 0.3, 1, cfg)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_fd_none_is_the_default_step(self, name):
        build = self.CONSTRUCTORS[name]
        want = build(_smooth, fd=FDConfig()).derivative(0.3, 2)
        assert build(_smooth, fd=None).derivative(0.3, 2) == want
        assert build(_smooth).derivative(0.3, 2) == want
        assert fd_derivative(_smooth, 0.3, 2, None) == want

    def test_family_curves_carry_a_helix_that_cannot_be_assigned(self):
        for curve in (make_spacelike_biharmonic(0.5),
                      make_helix("timelike", 0.3, 1.5)):
            assert isinstance(curve.helix, HelixSpec) and curve.analytic
            with pytest.raises(AttributeError):
                curve.helix = None
        sampled = CoordinateCurve.from_samples(GRID, [_smooth(s) for s in GRID])
        for curve in (CoordinateCurve(_smooth), FrameCurve(_smooth), sampled):
            assert curve.helix is None and not curve.analytic
