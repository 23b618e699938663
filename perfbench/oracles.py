"""Output checks that do not rely on the library.

Every expected value here is written out from the closed forms of the curve
families, never taken from ``hhcurves``:

* a helix with tangent ``(amp·cosh u, amp·sinh u, tilt)`` and slope ``a`` on
  the biharmonic root ``a = tilt ± √(tilt² + 4·amp²)`` has
  ``k1 = |amp·(a − 2·tilt)|``, ``k2 = tilt·(a − tilt) − amp²``,
  ``|B3| = |amp|`` and ``N3 = 0``;
* the flat timelike helix ``T = (sinh ms, cosh ms, 0)`` is the same form
  with ``amp = 1``, ``tilt = 0`` and ``a = m``, so ``k1 = |m|``,
  ``k2 = −1``, ``|B3| = 1``, ``N3 = 0``; its bitension norm is
  ``|m³ + 4m|·√(cosh²(ms) + sinh²(ms))``;
* a b3zero curve with profile ``α = p + q·s`` has ``k1 = |q|``, ``k2 = −1``
  and ``B3 = 0``;
* a geodesic degenerates at every point.

Each check returns ``(problems, accuracy)``: a list of strings (empty when
the output is right) and the worst deviations seen, which the benchmark
reports as per-layer numbers rather than gates.
"""

from __future__ import annotations

import json
import math

FRENET_HEADER = "s,k1,k2,eps1,eps2,eps3,N3,B3,res_direct,res_frenet,degenerate"
GENERATE_HEADER = "s,x,y,z,T1,T2,T3"

# Causal signs (eps1, eps2, eps3) of each family's Frenet frame.
EPS = {
    "spacelike": (1.0, -1.0, -1.0),
    "horizontal": (1.0, -1.0, -1.0),
    "timelike": (-1.0, -1.0, 1.0),
    "timelike-horizontal-helix": (-1.0, 1.0, -1.0),
    "flat": (-1.0, 1.0, -1.0),
    "b3zero-spacelike": (1.0, -1.0, -1.0),
    "b3zero-timelike": (-1.0, 1.0, -1.0),
}

# Closed-form evaluation through the double-double kernel.
ANALYTIC_TOL = 1e-9
# Frenet sweeps of sampled curves, relative, by CSV spacing. The seed code
# stays at least ten times inside these on every family the workload draws.
SAMPLED_TOL = {0.0005: 3e-4, 0.001: 3e-4, 0.002: 3e-3}
# The flat-helix bitension norm needs fourth derivatives, which the sampled
# route amplifies most: the seed misses it by up to 7%, 0.2% and 0.02%.
SAMPLED_RESIDUAL_TOL = {0.0005: 0.5, 0.001: 0.03, 0.002: 0.003}
# check_biharmonic_conditions' own default tolerance for non-analytic curves.
FD_TOL = 1e-4

VERIFY_STATUSES = {"Confirmed", "ConfirmedWithErratum", "Refuted-as-printed"}
VERIFY_CLAIMS = 13


def helix_slope(amp, tilt, branch):
    """Root ``tilt ± √(tilt² + 4·amp²)`` of the biharmonic slope quadratic."""
    return tilt + branch * math.sqrt(tilt * tilt + 4.0 * amp * amp)


def flat_residual(m, s):
    """Bitension norm of the flat timelike helix of frequency ``m`` at ``s``."""
    return abs(m ** 3 + 4.0 * m) * math.sqrt(
        math.cosh(m * s) ** 2 + math.sinh(m * s) ** 2
    )


def expected_frame(check):
    """(k1, k2, |B3|, N3 or None) that every row of a family member has.

    ``check`` names the family and its parameters; a helix is given by
    ``amp``, ``tilt`` and either its ``slope`` or the ``branch`` of the
    biharmonic root, the flat timelike helix by its frequency ``m``.
    """
    family = check["family"]
    if family.startswith("b3zero"):
        return abs(check["q"]), -1.0, 0.0, None
    if "m" in check:
        amp, tilt, a = 1.0, 0.0, check["m"]
    else:
        amp, tilt = check["amp"], check["tilt"]
        a = check.get("slope")
        if a is None:
            a = helix_slope(amp, tilt, check["branch"])
    return abs(amp * (a - 2.0 * tilt)), tilt * (a - tilt) - amp * amp, abs(amp), 0.0


def _parse_csv(text, header, problems):
    lines = text.split("\n")
    if not lines or lines[0] != header:
        problems.append("header is %r" % (lines[0] if lines else "",))
        return []
    if lines[-1] != "":
        problems.append("output does not end with a newline")
    rows = []
    for line in lines[1:-1]:
        try:
            row = [float(c) for c in line.split(",")]
        except ValueError:
            problems.append("row is not numeric: %r" % (line,))
            return []
        if len(row) != len(header.split(",")):
            problems.append("row has %d cells: %r" % (len(row), line))
            return []
        if not all(math.isfinite(v) for v in row):
            problems.append("row is not finite: %r" % (line,))
            return []
        rows.append(row)
    return rows


def _within(got, want, tol):
    return abs(got - want) <= tol * (1.0 + abs(want))


def check_frenet_csv(text, check, n_rows):
    """Check a ``frenet`` CSV against the closed form of its family."""
    problems = []
    accuracy = {}
    rows = _parse_csv(text, FRENET_HEADER, problems)
    if problems:
        return problems, accuracy
    if len(rows) != n_rows:
        problems.append("%d rows, expected %d" % (len(rows), n_rows))
    family = check["family"]
    if family == "geodesic":
        for row in rows:
            if row[10] != 1.0 or any(v != 0.0 for v in row[1:10]):
                problems.append("geodesic row not degenerate at s=%r" % (row[0],))
                break
        return problems, accuracy
    sampled = check.get("stage") == "frenet"
    tol = SAMPLED_TOL[check["spacing"]] if sampled else ANALYTIC_TOL
    k1, k2, b3, n3 = expected_frame(check)
    eps = EPS[family]
    dev = {"k1": 0.0, "k2": 0.0, "b3": 0.0, "n3": 0.0}
    for row in rows:
        if row[10] != 0.0:
            problems.append("degenerate row at s=%r" % (row[0],))
            break
        if tuple(row[3:6]) != eps:
            problems.append("signs %r at s=%r, expected %r" % (row[3:6], row[0], eps))
            break
        dev["k1"] = max(dev["k1"], abs(row[1] - k1))
        dev["k2"] = max(dev["k2"], abs(row[2] - k2))
        dev["b3"] = max(dev["b3"], abs(abs(row[7]) - b3))
        if n3 is not None:
            dev["n3"] = max(dev["n3"], abs(row[6] - n3))
        if family == "timelike-horizontal-helix":
            want = flat_residual(check["m"], row[0])
            res_tol = SAMPLED_RESIDUAL_TOL[check["spacing"]] if sampled else tol
            if not (_within(row[8], want, res_tol) and _within(row[9], want, res_tol)):
                problems.append("flat-helix residual %r, %r at s=%r, expected %r"
                                % (row[8], row[9], row[0], want))
                break
        elif not sampled and max(row[8], row[9]) > tol:
            problems.append("bitension residual %r at s=%r" % (max(row[8:10]), row[0]))
            break
    for key, want in (("k1", k1), ("k2", k2), ("b3", b3)):
        if dev[key] > tol * (1.0 + abs(want)):
            problems.append("%s deviates by %r (tol %r)" % (key, dev[key], tol))
    if dev["n3"] > tol:
        problems.append("N3 deviates by %r (tol %r)" % (dev["n3"], tol))
    if sampled:
        accuracy = {"k1_dev": dev["k1"], "k2_dev": dev["k2"]}
    return problems, accuracy


def check_generate_csv(text, check, n_rows):
    """Check a ``generate`` CSV: row count, finiteness and unit-speed tangent."""
    problems = []
    rows = _parse_csv(text, GENERATE_HEADER, problems)
    if problems:
        return problems, {}
    if len(rows) != n_rows:
        problems.append("%d rows, expected %d" % (len(rows), n_rows))
    for row in rows:
        t1, t2, t3 = row[4:7]
        if abs(abs(t1 * t1 - t2 * t2 - t3 * t3) - 1.0) > ANALYTIC_TOL:
            problems.append("tangent not unit speed at s=%r" % (row[0],))
            break
        if "tilt" in check and abs(t3 - check["tilt"]) > ANALYTIC_TOL:
            problems.append("T3 %r at s=%r, expected %r" % (t3, row[0], check["tilt"]))
            break
    return problems, {}


def check_verify_json(text, check, previous):
    """Check a ``verify`` report; ``previous`` is the text of the same seed."""
    problems = []
    try:
        report = json.loads(text)
    except ValueError as exc:
        return ["report is not JSON: %s" % exc], {}
    if report.get("seed") != check["seed"]:
        problems.append("report seed %r, expected %r" % (report.get("seed"), check["seed"]))
    checks = report.get("checks", [])
    if len(checks) != VERIFY_CLAIMS:
        problems.append("%d checks, expected %d" % (len(checks), VERIFY_CLAIMS))
    for row in checks:
        if row.get("status") not in VERIFY_STATUSES:
            problems.append("claim %r has status %r" % (row.get("claim_id"), row.get("status")))
    if previous is not None and previous != text:
        problems.append("report differs from the earlier run with the same seed")
    return problems, {}


def check_library(curve, verdict, residual_direct, k1_mean, k2_mean):
    """Check one library-fd sweep against the closed form of its curve.

    A curve on FDConfig's default step (``fd_step`` None) is only checked for
    finite output: its residual is the known amplification being reported.
    """
    problems = []
    if not all(math.isfinite(v) for v in residual_direct + (k1_mean, k2_mean)):
        problems.append("output is not finite")
    biharmonic = curve["family"] != "flat"
    if curve["fd_step"] is not None:
        want = "Biharmonic" if biharmonic else "NotBiharmonic"
        if verdict != want:
            problems.append("verdict %r, expected %r" % (verdict, want))
        k1, k2, _, _ = expected_frame(curve)
        for name, got, exp in (("k1", k1_mean, k1), ("k2", k2_mean, k2)):
            if not _within(got, exp, FD_TOL):
                problems.append("%s mean %r, expected %r" % (name, got, exp))
    accuracy = {}
    if biharmonic and not problems:
        accuracy["fd_residual_direct"] = max(residual_direct)
    return problems, accuracy
