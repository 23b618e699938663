"""Release acceptance gate.

One test per numbered release criterion, each tagged with
``@pytest.mark.criterion``; the conftest hook prints a one-line PASS/FAIL
verdict per criterion at the end of the run. The tolerances below are the
release-gate values — they must not be loosened to make a failing build green.
"""

import math
import time

import numpy as np
import pytest

from hhcurves import (
    CONNECTION,
    CURVATURE,
    CoordinateCurve,
    FDConfig,
    FrameCurve,
    STATUS_CONFIRMED,
    STATUS_REFUTED_AS_PRINTED,
    VerifyConfig,
    check_biharmonic_conditions,
    connection_from_brackets,
    cross,
    curvature_from_connection,
    inner,
    integrate_frame_curve,
    make_b3zero_curve,
    make_b3zero_linear,
    make_helix,
    make_spacelike_biharmonic,
    make_spacelike_horizontal,
    make_timelike_biharmonic,
    make_timelike_horizontal_helix,
    metric_compatibility_defect,
    mixed,
    run_all,
    sine_profile,
    solve_slope,
    torsion_defect,
)
from hhcurves.frenet import point_data

# s sweep for the family-reproduction criteria: [-2, 2] in steps of 0.01.
S_SWEEP = tuple((i - 200) / 100.0 for i in range(401))

# Flat index layout of the point_data frame tuple.
_K1, _K2, _EPS1, _EPS2, _EPS3, _B3 = 0, 3, 5, 6, 7, 16


def _enorm(v):
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _det3(x, y, z):
    return (
        x[0] * (y[1] * z[2] - y[2] * z[1])
        - x[1] * (y[0] * z[2] - y[2] * z[0])
        + x[2] * (y[0] * z[1] - y[1] * z[0])
    )


def _sweep_family(curve, amp, tilt, slope):
    """Sweep a helix-family member over S_SWEEP.

    Returns (max direct-bitension residual, worst deviation of k1/k2/|B3|
    from their closed forms, worst deviation from the first-point values).
    The closed forms for tangent (amp·cosh u, amp·sinh u, tilt), u = a·s + b:
    k1 = |amp·(a − 2·tilt)|, k2 = tilt·(a − tilt) − amp², |B3| = amp.
    """
    k1_ref = abs(amp * (slope - 2.0 * tilt))
    k2_ref = tilt * (slope - tilt) - amp * amp
    b3_ref = abs(amp)
    worst_res = 0.0
    worst_form = 0.0
    worst_const = 0.0
    first = None
    for s in S_SWEEP:
        fr, tau_d, _ = point_data(curve, s)
        k1, k2, b3 = fr[_K1], fr[_K2], fr[_B3]
        worst_res = max(worst_res, _enorm(tau_d))
        worst_form = max(
            worst_form,
            abs(k1 - k1_ref),
            abs(k2 - k2_ref),
            abs(abs(b3) - b3_ref),
        )
        if first is None:
            first = (k1, k2, b3)
        worst_const = max(
            worst_const,
            abs(k1 - first[0]),
            abs(k2 - first[1]),
            abs(b3 - first[2]),
        )
    return worst_res, worst_form, worst_const


@pytest.fixture(scope="module")
def verification_report():
    return run_all()


@pytest.mark.criterion(1, "connection table exactly compatible and torsion-free in < 1 ms")
def test_criterion_1_connection_validity():
    """The connection is metric-compatible and torsion-free, exactly.

    All three checks run in integer/rational arithmetic, so the defects are
    exact zeros, and the re-derivation from the brackets must reproduce the
    stored table verbatim. The whole bundle must cost less than a
    millisecond (best of five timed repeats).
    """
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        compat = metric_compatibility_defect()
        torsion = torsion_defect()
        rederived = connection_from_brackets()
        best = min(best, time.perf_counter() - t0)
    assert compat == 0, "metric compatibility defect must be exactly 0, got %r" % (compat,)
    assert torsion == 0, "torsion defect must be exactly 0, got %r" % (torsion,)
    assert rederived.coeffs == CONNECTION.coeffs, (
        "bracket-derived connection differs from the stored table"
    )
    assert best < 1e-3, "connection validity checks took %.3g s (budget 1e-3)" % best


@pytest.mark.criterion(2, "brute-force curvature matches stored table on all 27 entries")
def test_criterion_2_curvature_table():
    """R(ei, ej)ek recomputed from the connection equals the stored table.

    Entrywise integer equality on all 27 entries, zero entries included.
    """
    derived = curvature_from_connection()
    checked = 0
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                assert derived.entry(i, j, k) == CURVATURE.entry(i, j, k), (
                    "curvature mismatch at (e%d, e%d)e%d: %r != %r"
                    % (i, j, k, derived.entry(i, j, k), CURVATURE.entry(i, j, k))
                )
                checked += 1
    assert checked == 27
    assert derived.coeffs == CURVATURE.coeffs


@pytest.mark.criterion(3, "cross-product laws hold to 1e-12 on 1000 seeded triples")
def test_criterion_3_cross_product_laws():
    """Bilinearity, antisymmetry, orthogonality, the double-cross expansion,
    the mixed-product/determinant relation with cyclic symmetry, and the
    cyclic double-cross sum — within 1e-12 on 1000 seeded real triples and
    exactly on integer triples and the basis pairs.
    """
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        x, y, z = (tuple(rng.uniform(-1.0, 1.0, 3)) for _ in range(3))
        a, b = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))
        cxy = tuple(cross(x, y))
        # bilinearity in the first slot and antisymmetry
        lin = tuple(cross(tuple(a * x[i] + b * y[i] for i in range(3)), z))
        cxz, cyz = tuple(cross(x, z)), tuple(cross(y, z))
        worst = max(
            worst,
            max(abs(lin[i] - (a * cxz[i] + b * cyz[i])) for i in range(3)),
            max(abs(cxy[i] + cross(y, x)[i]) for i in range(3)),
        )
        # orthogonality to both factors
        worst = max(worst, abs(inner(cxy, x)), abs(inner(cxy, y)))
        # double-cross expansion: (x ∧ y) ∧ z = <x,z>·y − <y,z>·x
        dbl = tuple(cross(cxy, z))
        gxz, gyz = inner(x, z), inner(y, z)
        worst = max(
            worst, max(abs(dbl[i] - (gxz * y[i] - gyz * x[i])) for i in range(3))
        )
        # mixed product equals -det and is cyclic
        m = mixed(x, y, z)
        worst = max(worst, abs(m + _det3(x, y, z)))
        worst = max(worst, abs(m - mixed(y, z, x)), abs(m - mixed(z, x, y)))
        # cyclic double-cross sum vanishes
        j2 = tuple(cross(cross(y, z), x))
        j3 = tuple(cross(cross(z, x), y))
        worst = max(
            worst, max(abs(dbl[i] + j2[i] + j3[i]) for i in range(3))
        )
    assert worst <= 1e-12, "worst cross-product law residual %.3e > 1e-12" % worst

    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert tuple(cross(e1, e2)) == (0.0, 0.0, 1.0)
    assert tuple(cross(e2, e3)) == (-1.0, 0.0, 0.0)
    assert tuple(cross(e3, e1)) == (0.0, 1.0, 0.0)
    for _ in range(50):
        x, y, z = (
            tuple(int(c) for c in rng.integers(-3, 4, 3)) for _ in range(3)
        )
        cxy = tuple(cross(x, y))
        assert tuple(cross(y, x)) == tuple(-c for c in cxy)
        assert inner(cxy, x) == 0.0 and inner(cxy, y) == 0.0
        assert mixed(x, y, z) == -float(_det3(x, y, z))
        gxz, gyz = inner(x, z), inner(y, z)
        assert tuple(cross(cxy, z)) == tuple(
            float(gxz * y[i] - gyz * x[i]) for i in range(3)
        )


@pytest.mark.criterion(4, "spacelike biharmonic family: residual and constants at 1e-9")
def test_criterion_4_spacelike_family():
    """Every spacelike family member is biharmonic to 1e-9.

    Tilt parameters {0, ±0.5, ±1}, both slope branches, random phase and
    coordinate offsets in [-1, 1]: the direct bitension residual stays
    below 1e-9 over s in [-2, 2] (step 0.01, analytic derivatives), and
    k1, k2, B3 are constant within 1e-9 at their closed-form values with
    slope root a = sinh(t) ± sqrt(5·sinh²(t) + 4).
    """
    rng = np.random.default_rng(4)
    for alpha0 in (0.0, 0.5, -0.5, 1.0, -1.0):
        amp, tilt = math.cosh(alpha0), math.sinh(alpha0)
        for branch in (1, -1):
            slope = tilt + branch * math.sqrt(5.0 * tilt * tilt + 4.0)
            phase = float(rng.uniform(-1.0, 1.0))
            offsets = tuple(float(c) for c in rng.uniform(-1.0, 1.0, 3))
            curve = make_spacelike_biharmonic(
                alpha0, branch=branch, phase=phase, offsets=offsets
            )
            res, form, const = _sweep_family(curve, amp, tilt, slope)
            label = "alpha0=%g branch=%+d" % (alpha0, branch)
            assert res <= 1e-9, "%s: residual %.3e > 1e-9" % (label, res)
            assert form <= 1e-9, "%s: closed-form deviation %.3e > 1e-9" % (label, form)
            assert const <= 1e-9, "%s: constancy deviation %.3e > 1e-9" % (label, const)


@pytest.mark.criterion(5, "timelike biharmonic family: residual and constants at 1e-9")
def test_criterion_5_timelike_family():
    """Every timelike family member is biharmonic to 1e-9.

    Same protocol as the spacelike sweep, for tilt parameters {±0.5, ±1},
    with slope root a = cosh(v) ± sqrt(5·cosh²(v) − 4); the solver's roots
    must match that closed form.
    """
    rng = np.random.default_rng(5)
    for nu0 in (0.5, -0.5, 1.0, -1.0):
        amp, tilt = math.sinh(nu0), math.cosh(nu0)
        disc = math.sqrt(5.0 * tilt * tilt - 4.0)
        plus, minus = solve_slope("timelike", nu0)
        assert abs(plus - (tilt + disc)) <= 1e-12 * max(1.0, abs(plus))
        assert abs(minus - (tilt - disc)) <= 1e-12 * max(1.0, abs(minus))
        for branch in (1, -1):
            slope = tilt + branch * disc
            phase = float(rng.uniform(-1.0, 1.0))
            offsets = tuple(float(c) for c in rng.uniform(-1.0, 1.0, 3))
            curve = make_timelike_biharmonic(
                nu0, branch=branch, phase=phase, offsets=offsets
            )
            res, form, const = _sweep_family(curve, amp, tilt, slope)
            label = "nu0=%g branch=%+d" % (nu0, branch)
            assert res <= 1e-9, "%s: residual %.3e > 1e-9" % (label, res)
            assert form <= 1e-9, "%s: closed-form deviation %.3e > 1e-9" % (label, form)
            assert const <= 1e-9, "%s: constancy deviation %.3e > 1e-9" % (label, const)


@pytest.mark.criterion(6, "printed horizontal slope refuted; corrected slope confirmed")
def test_criterion_6_erratum_falsification(verification_report):
    """The published horizontal slope ±1 fails; the corrected ±2 passes.

    With zero phase the printed-slope curve has direct-bitension residual
    exactly 3 at s = 0 (within 1e-9); the corrected curve is residual-free
    over the whole sweep. Both rows appear in the verification report with
    the matching statuses.
    """
    for branch in (1, -1):
        printed = make_spacelike_horizontal(branch=branch, as_printed=True)
        res0 = _enorm(point_data(printed, 0.0)[1])
        assert abs(res0 - 3.0) <= 1e-9, (
            "printed slope %+d: residual at s=0 is %.12f, expected 3" % (branch, res0)
        )
        corrected = make_spacelike_horizontal(branch=branch)
        worst = max(_enorm(point_data(corrected, s)[1]) for s in S_SWEEP)
        assert worst <= 1e-9, (
            "corrected slope %+d: residual %.3e > 1e-9" % (branch, worst)
        )
    statuses = {c.claim_id: c.status for c in verification_report.checks}
    assert statuses["horizontal-slope-printed"] == STATUS_REFUTED_AS_PRINTED
    assert statuses["horizontal-family"] == STATUS_CONFIRMED


_FAMILY_S = (-1.5, -0.4, 0.0, 0.8, 1.5)


def _analytic_corpus():
    """(curve, sample points) pairs spanning every non-degenerate generator.

    The timelike vanishing-B3 member samples a window near its range anchor:
    its frame angle drifts at rate |beta'| = 2·cosh(alpha) >= 2 from the
    anchor, tangent components grow like cosh(beta), and double-precision
    evaluation degrades like cosh²(beta)·2e-16 — the window keeps that
    comfortably below the 1e-9 gates.
    """
    return [
        (make_spacelike_biharmonic(0.5), _FAMILY_S),
        (make_spacelike_biharmonic(-1.0, branch=-1), _FAMILY_S),
        (make_timelike_biharmonic(0.7), _FAMILY_S),
        (make_timelike_biharmonic(-0.5, branch=-1), _FAMILY_S),
        (make_spacelike_horizontal(), _FAMILY_S),
        (make_spacelike_horizontal(branch=-1, as_printed=True), _FAMILY_S),
        (make_timelike_horizontal_helix(1.3), _FAMILY_S),
        (make_b3zero_linear("spacelike", 0.3, 0.8, (-2.0, 2.0)), _FAMILY_S),
        (
            make_b3zero_linear("timelike", -0.2, 0.6, (-0.4, 1.7)),
            (-0.3, 0.0, 0.4, 0.8, 1.2),
        ),
        (
            make_b3zero_curve("spacelike", sine_profile(0.4, 0.7, 1.1), (-2.0, 2.0)),
            _FAMILY_S,
        ),
    ]


def _seeded_helices(rng, count):
    """Deterministic stream of non-degenerate constant-angle helices."""
    out = []
    while len(out) < count:
        kind = "spacelike" if len(out) % 2 == 0 else "timelike"
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        tilt = sign * float(rng.uniform(0.2, 1.0))
        slope = float(rng.uniform(-2.5, 2.5))
        if kind == "spacelike":
            amp, t3 = math.cosh(tilt), math.sinh(tilt)
        else:
            amp, t3 = math.sinh(tilt), math.cosh(tilt)
        # keep the curvature |amp·(slope − 2·t3)| away from the geodesic
        # degeneracy so every draw has a Frenet frame
        if abs(amp * (slope - 2.0 * t3)) < 0.05:
            continue
        phase = float(rng.uniform(-1.0, 1.0))
        out.append(make_helix(kind, tilt, slope, phase=phase))
    return out


@pytest.mark.criterion(7, "direct and Frenet-form bitension agree (analytic and FD)")
def test_criterion_7_route_cross_validation():
    """The jet-chain and Frenet-coefficient bitension routes agree.

    Within 1e-9 on every analytically backed family member and on 100
    seeded random helices; within 1e-6 when the curves are re-backed by
    finite differences (step 1e-4 with Richardson extrapolation).
    """
    worst = 0.0
    for curve, s_values in _analytic_corpus():
        for s in s_values:
            _, tau_d, tau_f = point_data(curve, s)
            worst = max(worst, max(abs(tau_d[i] - tau_f[i]) for i in range(3)))
    helices = _seeded_helices(np.random.default_rng(7), 100)
    for curve in helices:
        for s in (-1.0, 0.0, 1.0):
            _, tau_d, tau_f = point_data(curve, s)
            worst = max(worst, max(abs(tau_d[i] - tau_f[i]) for i in range(3)))
    assert worst <= 1e-9, "analytic route disagreement %.3e > 1e-9" % worst

    fd = FDConfig(step=1e-4, richardson=True)
    fd_curves = [
        CoordinateCurve.from_functions(make_spacelike_horizontal().point, fd=fd),
        CoordinateCurve.from_functions(make_spacelike_biharmonic(0.5).point, fd=fd),
        CoordinateCurve.from_functions(make_timelike_horizontal_helix(1.3).point, fd=fd),
        FrameCurve(make_helix("spacelike", 0.4, 2.2).tangent, fd=fd),
        FrameCurve(make_helix("timelike", 0.8, -1.0).tangent, fd=fd),
    ]
    worst_fd = 0.0
    for curve in fd_curves:
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
            _, tau_d, tau_f = point_data(curve, s)
            worst_fd = max(worst_fd, max(abs(tau_d[i] - tau_f[i]) for i in range(3)))
    assert worst_fd <= 1e-6, "FD route disagreement %.3e > 1e-6" % worst_fd


@pytest.mark.criterion(8, "vanishing-B3 curves: torsion -1, sign pattern, never biharmonic")
def test_criterion_8_b3zero_propositions():
    """20 seeded vanishing-B3 curves share the forced invariants.

    k2 = -1 within 1e-6, eps1 = -eps2, eps3 = -1 at every sample, and the
    condition checker returns NotBiharmonic for each curve.
    """
    rng = np.random.default_rng(8)
    grid = tuple((i - 3) * 0.3 for i in range(7))  # -0.9 .. 0.9
    for n in range(20):
        kind = "spacelike" if n % 2 == 0 else "timelike"
        p = float(rng.uniform(-1.0, 1.0))
        q = float(rng.uniform(0.2, 1.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        curve = make_b3zero_linear(kind, p, q, (-1.2, 1.2))
        label = "curve %d (%s, p=%.3f, q=%.3f)" % (n, kind, p, q)
        for s in grid:
            fr = point_data(curve, s)[0]
            assert abs(fr[_K2] + 1.0) <= 1e-6, (
                "%s: k2 = %.9f at s=%g, expected -1" % (label, fr[_K2], s)
            )
            assert fr[_EPS1] == -fr[_EPS2], "%s: eps1 != -eps2 at s=%g" % (label, s)
            assert fr[_EPS3] == -1.0, "%s: eps3 != -1 at s=%g" % (label, s)
        report = check_biharmonic_conditions(curve, grid)
        assert report.verdict == "NotBiharmonic", (
            "%s: verdict %r" % (label, report.verdict)
        )


@pytest.mark.criterion(9, "flat timelike helix residual formula and positive lower bound")
def test_criterion_9_flat_helix_obstruction():
    """No flat timelike helix is biharmonic, quantitatively.

    Over 30 frequencies m in [0.1, 3], the direct-bitension residual norm
    equals |m³ + 4m|·sqrt(cosh²(ms) + sinh²(ms)) within 1e-9, and its
    minimum over the sweep stays at or above 0.401 (the tiny slack below
    only covers double rounding of the 3-decimal threshold).
    """
    worst_match = 0.0
    min_residual = math.inf
    for m in np.linspace(0.1, 3.0, 30):
        m = float(m)
        curve = make_timelike_horizontal_helix(m)
        for s in (0.0, -0.3, 0.3):
            res = _enorm(point_data(curve, s)[1])
            ref = abs(m ** 3 + 4.0 * m) * math.sqrt(
                math.cosh(m * s) ** 2 + math.sinh(m * s) ** 2
            )
            worst_match = max(worst_match, abs(res - ref))
            min_residual = min(min_residual, res)
    assert worst_match <= 1e-9, (
        "residual formula mismatch %.3e > 1e-9" % worst_match
    )
    assert min_residual >= 0.401 - 1e-12, (
        "minimum residual %.15f dips below 0.401" % min_residual
    )


@pytest.mark.criterion(10, "frame-ODE round trip reproduces horizontal closed form")
def test_criterion_10_frame_ode_round_trip():
    """Integrating the zero-tilt tangent field recovers the closed form.

    RK4 at step 1e-3 over s in [0, 1], started at the closed-form base
    point, must track (sinh(2s)/2, cosh(2s)/2, -s) within 1e-6.
    """
    tangent_field = make_helix("spacelike", 0.0, 2.0)
    integrated = integrate_frame_curve(
        tangent_field, (0.0, 0.5, 0.0), (0.0, 1.0), 1e-3
    )
    reference = make_spacelike_horizontal()
    worst = 0.0
    for i in range(0, 1001, 10):
        s = i * 1e-3
        p = integrated.point(s)
        q = reference.point(s)
        worst = max(worst, max(abs(p[j] - q[j]) for j in range(3)))
    assert worst <= 1e-6, "round-trip coordinate error %.3e > 1e-6" % worst


@pytest.mark.criterion(11, "sign-triple product is +1 on every non-degenerate frame")
def test_criterion_11_sign_triple_invariant():
    """eps1·eps2·eps3 = +1 on every frame the suite can produce.

    The corpus spans every generator family, seeded random helices of both
    causal kinds, a flat helix with nonzero third tangent component, and
    finite-difference-backed curves, so all evaluation paths (closed-form
    helix kernel, analytic jet chain, FD jet chain) are covered.
    """
    fd = FDConfig(step=1e-4, richardson=True)
    pairs = _analytic_corpus()
    extra_s = (-1.0, -0.3, 0.0, 0.4, 1.0)
    pairs += [(c, extra_s) for c in _seeded_helices(np.random.default_rng(11), 40)]
    pairs.append((make_helix("timelike-flat", 0.3, 1.5), extra_s))
    pairs.append(
        (CoordinateCurve.from_functions(make_spacelike_horizontal().point, fd=fd),
         extra_s)
    )
    pairs.append(
        (FrameCurve(make_helix("timelike", 0.8, -1.0).tangent, fd=fd), extra_s)
    )
    frames = 0
    for curve, s_values in pairs:
        for s in s_values:
            fr = point_data(curve, s)[0]
            product = fr[_EPS1] * fr[_EPS2] * fr[_EPS3]
            assert product == 1.0, (
                "eps product %r at s=%g (eps = %r)"
                % (product, s, (fr[_EPS1], fr[_EPS2], fr[_EPS3]))
            )
            frames += 1
    assert frames == (10 + 40 + 3) * 5


@pytest.mark.criterion(
    12, "verification run under 60 s and byte-identical per seed"
)
def test_criterion_12_verification_run(verification_report):
    """Two full verification runs finish in budget and agree byte-for-byte."""
    t0 = time.perf_counter()
    first = run_all(VerifyConfig(seed=7))
    t1 = time.perf_counter()
    second = run_all(VerifyConfig(seed=7))
    t2 = time.perf_counter()
    assert t1 - t0 < 60.0, "verification run took %.1f s" % (t1 - t0)
    assert t2 - t1 < 60.0, "verification rerun took %.1f s" % (t2 - t1)
    assert first.to_json().encode("utf-8") == second.to_json().encode("utf-8")
    assert first.passed(), "verification statuses diverge from the expected set"
    assert first.to_json() == verification_report.to_json()
