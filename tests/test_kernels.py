"""The kernels: unit-jet projection, double-double arithmetic, and the
one-pass helix grid kernel."""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhcurves._kernels as kernels
from hhcurves import biharmonic, cli, families, frenet
from hhcurves import _kernels as pure
from hhcurves import (
    GeodesicDegenerateError,
    HHCurvesError,
    NullNormalDegenerateError,
    NumericOverflowError,
    UnitSpeedError,
)
from hhcurves.curves import FrameCurve, HelixSpec

from evaluation_routes import per_point_route as _per_point_route

mpmath = pytest.importorskip("mpmath")


def _helix_jets(amp, tilt, a, s):
    """Closed-form tangent jets of T = (amp·cosh(a·s), amp·sinh(a·s), tilt)."""
    u = a * s
    c, sh = math.cosh(u), math.sinh(u)
    return (
        (amp * c, amp * sh, tilt),
        (a * amp * sh, a * amp * c, 0.0),
        (a * a * amp * c, a * a * amp * sh, 0.0),
        (a**3 * amp * sh, a**3 * amp * c, 0.0),
    )


class TestProjection:
    def test_idempotent(self):
        scaled = tuple(
            tuple(1.0005 * c for c in row)
            for row in _helix_jets(1.0, 0.0, 2.0, 0.3)
        )
        once = kernels.project_unit_jets(scaled, 1e-2)
        twice = kernels.project_unit_jets(once, 1e-2)
        for r1, r2 in zip(once, twice):
            assert r1 == pytest.approx(r2, rel=1e-14, abs=1e-14)

    def test_enforces_unit_constraints(self):
        scaled = tuple(
            tuple(1.0005 * c for c in row)
            for row in _helix_jets(1.0, 0.0, 2.0, 0.3)
        )
        t0, t1, t2, t3 = kernels.project_unit_jets(scaled, 1e-2)
        assert abs(abs(kernels.inner(t0, t0)) - 1.0) <= 1e-15
        assert abs(kernels.inner(t1, t0)) <= 1e-15
        assert abs(kernels.inner(t2, t0) + kernels.inner(t1, t1)) <= 1e-15
        assert abs(kernels.inner(t3, t0) + 3.0 * kernels.inner(t2, t1)) <= 1e-14

    def test_rejects_far_from_unit(self):
        jets = _helix_jets(2.0, 0.0, 2.0, 0.0)  # speed 2
        with pytest.raises(UnitSpeedError):
            kernels.project_unit_jets(jets, 1e-6)


class TestDoubleDouble:
    def _mp(self, dd):
        return mpmath.mpf(dd.hi) + mpmath.mpf(dd.lo)

    @settings(max_examples=80, deadline=None)
    @given(
        hi=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    )
    def test_exp_against_mpmath(self, hi):
        with mpmath.workdps(50):
            want = mpmath.exp(mpmath.mpf(hi))
            got = self._mp(pure.dd_exp(pure.DD(hi)))
            rel = abs(got - want) / want
            assert rel <= mpmath.mpf("1e-28")

    def test_exp_special_values(self):
        assert pure.dd_exp(pure.DD(0.0)).hi == 1.0
        with pytest.raises(NumericOverflowError, match="too small"):
            pure.dd_exp(pure.DD(-800.0))
        with pytest.raises(OverflowError):
            pure.dd_exp(pure.DD(800.0))

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_sqrt_against_mpmath(self, x):
        with mpmath.workdps(50):
            want = mpmath.sqrt(mpmath.mpf(x))
            got = self._mp(pure.dd_sqrt(pure.DD(x)))
            assert abs(got - want) / want <= mpmath.mpf("1e-30")

    def test_sqrt_of_zero(self):
        root = pure.dd_sqrt(pure.DD(0.0))
        assert (root.hi, root.lo) == (0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    def test_hyperbolic_identity(self, x):
        c, s = pure.dd_cosh_sinh(pure.DD(x))
        with mpmath.workdps(50):
            ident = self._mp(c) ** 2 - self._mp(s) ** 2
            # the defect scales with cosh² (the size of the squared terms)
            scale = mpmath.cosh(mpmath.mpf(x)) ** 2
            assert abs(ident - 1) <= mpmath.mpf("1e-30") * scale

    def test_ln2_split_is_exact(self):
        with mpmath.workdps(50):
            want = mpmath.log(2)
            got = self._mp(pure._LN2)
            assert abs(got - want) <= mpmath.mpf("1e-33")

    def test_arithmetic_round_trip(self):
        a = pure.DD(1.0) / pure.DD(3.0)
        b = a * 3.0
        assert abs(float(b) - 1.0) <= 1e-31
        c = pure.DD(2.0, 1e-20) - pure.DD(2.0)
        assert float(c) == pytest.approx(1e-20, rel=1e-15)


# --------------------------------------------------------------------------
# The one-pass helix grid kernel
# --------------------------------------------------------------------------

_VERIFY_GRID = [-2.0 + 0.05 * i for i in range(81)]


def _verify_families():
    """The helix-form curves the claim registry builds, with its grids."""
    curves = []
    for phase in (0.0, -0.81):
        for branch in (1, -1):
            for alpha0 in (0.0, 0.5, -0.5, 1.0, -1.0):
                for printed in (False, True):
                    curves.append(families.make_spacelike_biharmonic(
                        alpha0, branch=branch, phase=phase, as_printed=printed))
            for nu0 in (0.5, -0.5, 1.0, -1.0, 0.7):
                for printed in (False, True):
                    curves.append(families.make_timelike_biharmonic(
                        nu0, branch=branch, phase=phase, as_printed=printed))
            for printed in (False, True):
                curves.append(families.make_spacelike_horizontal(
                    branch=branch, phase=phase, as_printed=printed))
    grids = [(curve, _VERIFY_GRID) for curve in curves]
    for m in np.linspace(0.1, 3.0, 30):
        grids.append((families.make_timelike_horizontal_helix(float(m)),
                      [-0.5, 0.0, 0.7]))
    for kind, tilt, slope, phase in (
        ("spacelike", 0.4, -2.1, 0.3), ("spacelike", -0.9, 2.8, -0.6),
        ("timelike", 0.5, 1.7, 0.2), ("timelike", -0.8, -2.9, 0.9),
        ("timelike-flat", 0.3, 1.2, 0.0), ("timelike-flat", -0.5, -2.2, 0.0),
    ):
        grids.append((families.make_helix(kind, tilt, slope, phase),
                      [-0.7, -0.6, -0.4, 0.3, 0.4, 0.5]))
    return grids


def _helix_args(spec):
    return (spec.form, spec.amp, spec.tilt, spec.slope_hi, spec.slope_lo,
            spec.phase)


def _scalar_or_exception(args, s, tol):
    try:
        return pure.helix_eval(*args, s, tol)
    except Exception as exc:
        return exc


def test_grid_matches_points_on_every_verify_family():
    for curve, grid in _verify_families():
        args = _helix_args(curve.helix)
        got = pure.helix_eval_grid(*args, grid, 1e-9)
        assert len(got) == len(grid)
        for s, point in zip(grid, got):
            # bit for bit, and no point of these grids is handed back
            want = pure.helix_eval(*args, s, 1e-9)
            assert point == want, (curve.helix, s)


_POINT = st.tuples(
    st.sampled_from((0, 1)),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-1e-16, max_value=1e-16),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-40.0, max_value=40.0),
)


def _per_point_call(points, tols):
    """``helix_eval_grid`` with one ``(form, amp, tilt, slope_hi, slope_lo,
    phase, s)`` tuple per point, and one geodesic threshold each."""
    columns = [list(c) for c in zip(*points)]
    return pure.helix_eval_grid(*columns[:6], columns[6], tols)


@settings(max_examples=60, deadline=None)
@given(
    form=st.sampled_from((0, 1)),
    amp=st.floats(min_value=-3.0, max_value=3.0),
    tilt=st.floats(min_value=-3.0, max_value=3.0),
    slope_hi=st.floats(min_value=-4.0, max_value=4.0),
    slope_lo=st.floats(min_value=-1e-16, max_value=1e-16),
    phase=st.floats(min_value=-2.0, max_value=2.0),
    grid=st.lists(st.floats(min_value=-40.0, max_value=40.0),
                  min_size=1, max_size=12),
    points=st.lists(_POINT, min_size=2, max_size=12).filter(
        lambda pts: {p[0] for p in pts} == {0, 1}),
)
def test_grid_matches_points_on_drawn_helices(form, amp, tilt, slope_hi,
                                              slope_lo, phase, grid, points):
    args = (form, amp, tilt, slope_hi, slope_lo, phase)
    _assert_handed_back_or_equal([args + (s,) for s in grid],
                                 pure.helix_eval_grid(*args, grid, 1e-9))
    # one helix per point, of both forms, in one call
    _assert_handed_back_or_equal(
        points, _per_point_call(points, [1e-9] * len(points)))


def _assert_handed_back_or_equal(points, got):
    assert len(got) == len(points)
    for pt, point in zip(points, got):
        want = _scalar_or_exception(pt[:6], pt[6], 1e-9)
        if point is None:
            continue  # handed back: callers evaluate it with helix_eval
        assert not isinstance(want, Exception), (pt, want)
        assert point == want, pt


def _finite(result):
    return all(math.isfinite(v) for part in result for v in part)


def test_per_point_grid_matches_or_hands_back_each_point():
    tilt = 0.6
    points = [
        (0, 1.3, 0.4, 1.0, 0.0, 0.1, 0.3),
        # slope = 2·tilt: ∇_T T vanishes, a geodesic point
        (0, math.cosh(tilt), math.sinh(tilt), 2.0 * math.sinh(tilt), 0.0,
         0.0, 0.2),
        (1, 0.8, -0.2, 2.1, 1e-17, -0.3, -0.5),
        (1, 1.0, 0.0, 2.0, 0.0, 0.0, 360.0),  # |u| = 720 >= 709
        (0, -2.0, 1.1, -3.5, 0.0, 0.7, 1.9),
        (0, 1.0, 0.5, 1.0, 0.0, 0.0, math.nan),
        (1, 1.5, 0.0, 0.9, 0.0, 0.0, -6.0),
    ]
    tols = [1e-9, 1e-9, 1e-3, 1e-9, 1e-6, 1e-9, 1e-9]
    got = _per_point_call(points, tols)
    assert [p is None for p in got] == [False, True, False, True, False,
                                        True, False]
    for pt, tol, point in zip(points, tols, got):
        want = _scalar_or_exception(pt[:6], pt[6], tol)
        if point is None:
            assert isinstance(want, Exception) or not _finite(want), pt
        else:
            assert point == want, pt


def _series_terms(x):
    """Taylor terms dd_exp adds for |x| < ln2/2, where no reduction by ln2
    happens: the series stops after its first term below 1e-40."""
    r = abs(x) / 512.0
    for k in range(4, 19):
        if r ** k / math.factorial(k) <= 1e-40:
            return k
    return 18


def test_grid_across_the_early_stop_of_the_exp_series():
    # slope 1 and phase 0 make u = s; its size sets where the series stops
    s_values = [0.0, -0.0] + [sign * 10.0 ** e
                              for e in np.linspace(-9.0, -0.5, 40)
                              for sign in (1.0, -1.0)]
    assert len({_series_terms(s) for s in s_values if s}) >= 5
    for form in (0, 1):
        args = (form, 1.3, 0.4, 1.0, 0.0, 0.0)
        got = pure.helix_eval_grid(*args, s_values, 1e-9)
        for s, point in zip(s_values, got):
            assert point == pure.helix_eval(*args, s, 1e-9), s
    x = np.array(s_values)
    exp = pure.dd_exp(pure.DD(x), pure._ArrayOps(np))
    for i, s in enumerate(s_values):
        one = pure.dd_exp(pure.DD(s))
        assert (exp.hi[i], exp.lo[i]) == (one.hi, one.lo), s


def test_grid_hands_back_points_outside_the_exp_range():
    args = (0, 1.0, 0.0, 2.0, 0.0, 0.0)
    grid = [-400.0, -360.0, -0.5, 0.0, 0.5, 360.0, 400.0, math.nan]
    got = pure.helix_eval_grid(*args, grid, 1e-9)
    assert [p is None for p in got] == [True, True, False, False, False,
                                        True, True, True]
    for s in (-400.0, 400.0, math.nan):
        assert isinstance(_scalar_or_exception(args, s, 1e-9),
                          Exception)


def _outcome(fn, *args, **kwargs):
    # repr, because == never holds for the NaN residuals of a Geodesic report
    try:
        return ("ok", repr(fn(*args, **kwargs)))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def _same_outcome(fn, *args, **kwargs):
    got = _outcome(fn, *args, **kwargs)
    with _per_point_route():
        want = _outcome(fn, *args, **kwargs)
    assert got == want
    return got


def test_out_of_range_grids_raise_what_the_point_route_raises():
    # u = a·s passes 709 between s = 100 and s = 400 for this member
    curve = families.make_spacelike_biharmonic(0.5)
    for grid in ([25.0 * i for i in range(17)],
                 [-25.0 * i for i in range(17)]):
        for fn in (biharmonic.residual_norms, frenet.frenet_over_grid):
            assert _same_outcome(fn, curve, grid)[0] == "raised"
    grid = [0.01 * i for i in range(13)] + [400.0]
    assert _outcome(biharmonic.residual_norms, curve, grid) == (
        "raised", NumericOverflowError, "dd_exp argument too large")


def _geodesic_helix():
    # slope 2·tilt makes ∇_T T vanish: every point is geodesic
    tilt = 0.6
    return families.make_helix("spacelike", tilt, 2.0 * math.sinh(tilt))


def _null_normal_helix():
    """A near-geodesic helix whose points near u = 0 are geodesic and the
    others have a null normal, at the default thresholds.

    Its slope, a double-double pair, exceeds 2·T3 by 5e-10/cosh 0.6, so
    k1 = 5e-10. Along a helix ‖∇_T T‖ = k1·√cosh 2u while |inner(A, A)| =
    k1² = 2.5e-19, under the null threshold 1e-18; so the geodesic test
    (1e-9) fails once cosh 2u > 4, for |s| beyond about 0.8.
    """
    tilt = 0.6
    twice_t3, excess = 2.0 * math.sinh(tilt), 5e-10 / math.cosh(tilt)
    hi = twice_t3 + excess
    lo = excess - (hi - twice_t3)  # exact: hi + lo = 2·T3 + excess
    return families.make_helix("spacelike", tilt, (hi, lo))


# Long enough for the grid kernel; 1.5 has a null normal, 0.0 is geodesic.
_NULL_GRID = [1.5, 1.2, 0.9, 0.6, 0.3, 0.0, -0.3, -0.6, -0.9, -1.2, -1.5,
              -1.8, -2.1, -2.4]


def test_degenerate_grids_raise_what_the_point_route_raises():
    geo = _geodesic_helix()
    null = _null_normal_helix()
    null_grid = _NULL_GRID
    with pytest.raises(NullNormalDegenerateError):
        frenet.point_data(null, 1.5)
    with pytest.raises(GeodesicDegenerateError):
        frenet.point_data(null, 0.0)
    for fn in (biharmonic.residual_norms, frenet.frenet_over_grid):
        assert _same_outcome(fn, geo, _VERIFY_GRID)[0] == "raised"
        assert _same_outcome(fn, null, null_grid)[0] == "raised"
        assert _same_outcome(fn, null, null_grid[::-1])[0] == "raised"


def test_near_geodesic_helix_degenerates_both_ways_on_both_routes():
    # 16 points on [-2, 2]: geodesic for |s| < 0.8, a null normal beyond
    null = _null_normal_helix()
    grid = [-2.0 + 4.0 * i / 15 for i in range(16)]
    assert len(grid) >= frenet._GRID_MIN_POINTS
    want = [GeodesicDegenerateError if abs(s) < 0.8
            else NullNormalDegenerateError for s in grid]
    assert [type(r) for r in frenet.evaluate_grid(null, grid)] == want
    with _per_point_route():
        assert [type(r) for r in frenet.evaluate_grid(null, grid)] == want


def test_degenerate_grids_give_the_same_geodesic_report():
    for curve, grid in (
        (_geodesic_helix(), _VERIFY_GRID),
        (_null_normal_helix(), _NULL_GRID),
    ):
        assert _same_outcome(biharmonic.check_biharmonic_conditions,
                             curve, grid)[0] == "ok"
        report = biharmonic.check_biharmonic_conditions(curve, grid)
        assert report.verdict == "Geodesic"
        assert report.condition_values == {"degenerate_points": float(len(grid))}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = (type(exc), str(exc))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["frenet", "--family", "spacelike", "--alpha0", "0.5",
     "--range", "-2:2:0.05"],
    ["frenet", "--family", "timelike", "--nu0", "-0.7", "--as-printed",
     "--range", "-2:2:0.1"],
    ["frenet", "--family", "spacelike", "--alpha0", "0.5",
     "--range", "0:400:25"],
    ["frenet", "--family", "spacelike", "--alpha0", "0.5",
     "--range", "-400:0:25"],
])
def test_cli_frenet_output_is_unchanged(argv):
    got = _cli(argv)
    with _per_point_route():
        assert got == _cli(argv)


def test_cli_frenet_writes_the_same_degenerate_rows(monkeypatch):
    monkeypatch.setattr(cli, "_build_curve", lambda ns, s_range: _geodesic_helix())
    argv = ["frenet", "--family", "spacelike", "--alpha0", "0",
            "--range", "-1:1:0.125"]
    code, out, _ = _cli(argv)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 17 and all(row.endswith(",1") for row in rows)
    with _per_point_route():
        assert _cli(argv) == (code, out, "")


def _routes(monkeypatch):
    """Record which points evaluate_grid sends to the grid kernel and which
    to point_data."""
    calls = {"grid": [], "point": []}
    grid_kernel, point = kernels.helix_eval_grid, frenet.point_data

    def helix_eval_grid(*args):
        calls["grid"].append(list(args[6]))
        return grid_kernel(*args)

    def point_data(curve, s):
        calls["point"].append(s)
        return point(curve, s)

    monkeypatch.setattr(kernels, "helix_eval_grid", helix_eval_grid)
    monkeypatch.setattr(frenet, "point_data", point_data)
    return calls, point


def test_evaluate_grid_leaves_other_curves_to_point_data(monkeypatch):
    calls, point = _routes(monkeypatch)
    curve = families.make_b3zero_linear("spacelike", 0.4, 0.6, (0.0, 1.0))
    grid = [0.2, 0.5] + [0.05 * i for i in range(12)]
    got = list(frenet.evaluate_grid(curve, grid))
    assert got == [point(curve, s) for s in grid]
    assert calls == {"grid": [], "point": grid}
    helix = families.make_spacelike_biharmonic(0.5)
    calls["point"].clear()
    assert list(frenet.evaluate_grid(helix, [0.3])) == [point(helix, 0.3)]
    assert calls == {"grid": [], "point": [0.3]}
    calls["point"].clear()
    grid = [0.3, 0.4] + [1.0 + 0.1 * i for i in range(12)]
    got = list(frenet.evaluate_grid(helix, grid))
    assert got == [point(helix, s) for s in grid]
    assert calls == {"grid": [grid], "point": []}


def test_evaluate_grid_uses_the_grid_kernel_from_the_crossover(monkeypatch):
    calls, point = _routes(monkeypatch)
    helix = families.make_spacelike_biharmonic(0.5)
    n = frenet._GRID_MIN_POINTS
    grid = [-0.6 + 0.1 * i for i in range(n)]
    got = list(frenet.evaluate_grid(helix, grid[:-1]))
    assert got == [point(helix, s) for s in grid[:-1]]
    assert calls == {"grid": [], "point": grid[:-1]}
    calls["point"].clear()
    got = list(frenet.evaluate_grid(helix, grid))
    assert calls == {"grid": [grid], "point": []}
    assert got == [point(helix, s) for s in grid]


def _point_outcomes(point, pairs):
    """``point(curve, s)`` of each pair, or its degeneracy error's type and
    message."""
    want = []
    for curve, s in pairs:
        try:
            want.append(point(curve, s))
        except (GeodesicDegenerateError, NullNormalDegenerateError) as exc:
            want.append((type(exc), str(exc)))
    return want


def _frames(outcomes):
    return [w if isinstance(w[0], type) else w[0] for w in outcomes]


def test_evaluate_grid_yields_the_degeneracy_of_each_point():
    null = _null_normal_helix()

    def outcomes():
        out = []
        for res in frenet.evaluate_grid(null, _NULL_GRID):
            out.append((type(res), str(res)) if isinstance(res, Exception)
                       else res)
        return out

    pairs = [(null, s) for s in _NULL_GRID]
    want = _point_outcomes(frenet.point_data, pairs)
    got = outcomes()
    assert got == want
    with _per_point_route():
        assert outcomes() == want
    assert got[0][0] is NullNormalDegenerateError
    assert got[5][0] is GeodesicDegenerateError
    # the frame-only route meets the same errors, and frenet_over_grid
    # raises the first of them on either route
    assert _point_outcomes(frenet.compute_frenet, pairs) == _frames(want)
    assert _same_outcome(frenet.frenet_over_grid, null, _NULL_GRID) == (
        "raised",) + want[0]


def _mixed_pairs():
    """Points of a form-0 and a form-1 helix, a b3zero curve, an FD frame
    curve and the null-normal helix, interleaved.

    Every null-normal helix point degenerates, and the other curves' points
    do not.
    """
    null = _null_normal_helix()
    form0 = families.make_helix("spacelike", 0.4, -6.0, 0.3)
    form1 = families.make_helix("timelike-flat", 0.3, 8.0)
    b3zero = families.make_b3zero_linear("spacelike", 0.4, 0.6, (0.0, 1.0))
    fd = FrameCurve(form0.helix.tangent)
    pairs = []
    for i, s in enumerate(_NULL_GRID):
        pairs.append((null, s))
        other = (form0, form1, b3zero, fd)[i % 4]
        pairs.append((other, 0.1 * (i - 5)))
    return pairs, (form0, form1)


def test_evaluate_points_matches_each_point_in_input_order():
    pairs, _ = _mixed_pairs()
    want = _point_outcomes(frenet.point_data, pairs)
    got = [(type(res), str(res)) if isinstance(res, Exception) else res
           for res in frenet.evaluate_points(pairs)]
    assert got == want
    kinds = {w[0] if isinstance(w[0], type) else "ok" for w in want}
    assert kinds == {GeodesicDegenerateError, NullNormalDegenerateError, "ok"}
    # the frame-only route gives each point's record or the same error
    assert _point_outcomes(frenet.compute_frenet, pairs) == _frames(got)


def test_evaluate_points_takes_one_grid_pass_over_all_helices(monkeypatch):
    calls, _ = _routes(monkeypatch)
    pairs, passed = _mixed_pairs()
    list(frenet.evaluate_points(pairs))
    assert calls["grid"] == [[s for curve, s in pairs
                              if getattr(curve, "helix", None)]]
    # the pass hands back every degenerate point; the others need no redo
    assert calls["point"] == [s for curve, s in pairs if curve not in passed]
    # 13 helix points of two curves stay with point_data; 14 take one pass
    a, b = families.make_spacelike_biharmonic(0.5), passed[1]
    n = frenet._GRID_MIN_POINTS
    for count, passes in ((n - 1, 0), (n, 1)):
        calls["grid"].clear()
        points = [(a if i % 2 else b, 0.1 * i) for i in range(count)]
        got = list(frenet.evaluate_points(points))
        assert got == [frenet.point_data(c, s) for c, s in points]
        assert len(calls["grid"]) == passes


def test_overflow_is_a_library_error():
    # outside the dd_exp domain, and jets whose products overflow: after
    # projection inner(t1, t1) meets inf - inf for the timelike tangent,
    # and sums two products of 1.2e308 for the spacelike one
    helix = families.make_spacelike_biharmonic(0.5)

    def jet_curve(t0, t1):
        return FrameCurve(lambda s: t0, derivative=lambda s, order: (
            t1 if order == 1 else (0.0, 0.0, 0.0)))

    inf_minus_inf = jet_curve((0.0, 1.0, 0.0), (1e200, 0.0, 1e200))
    past_max = jet_curve((1.0, 0.0, 0.0), (0.0, 1.1e154, 1.1e154))
    for call, message in (
        (lambda: frenet.compute_frenet(helix, 400.0),
         "dd_exp argument too large"),
        (lambda: biharmonic.residual_norms(helix, [0.0, 0.5, 400.0]),
         "dd_exp argument too large"),
        (lambda: frenet.compute_frenet(helix, -400.0),
         "dd_exp argument too small"),
        (lambda: frenet.point_data(inf_minus_inf, 0.0),
         "jet arithmetic overflows: -inf \\+ inf in fsum"),
        (lambda: frenet.point_data(past_max, 0.0),
         "jet arithmetic overflows: intermediate overflow in fsum"),
    ):
        with pytest.raises(NumericOverflowError, match=message) as info:
            call()
        assert isinstance(info.value, HHCurvesError)
        assert isinstance(info.value, OverflowError)


def test_evaluate_points_raises_outside_the_exp_range():
    helix = families.make_spacelike_biharmonic(0.5)
    other = families.make_helix("timelike-flat", 0.3, 8.0)
    pairs = [(helix if i % 2 else other, 0.1 * i) for i in range(14)]
    pairs.insert(3, (helix, 400.0))
    with pytest.raises(OverflowError, match="dd_exp argument too large"):
        list(frenet.evaluate_points(pairs))
