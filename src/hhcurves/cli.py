"""Command-line interface: curve generation, Frenet sweeps, verification.

Subcommands
-----------
``generate``
    Sample a closed-form curve family on an s-grid and write CSV with header
    ``s,x,y,z,T1,T2,T3`` (positions and frame tangent components).
``frenet`` / ``residual``
    Sweep the Frenet apparatus and both bitension-residual norms over an
    s-grid (or over the interior nodes of an input CSV) and write CSV with
    header ``s,k1,k2,eps1,eps2,eps3,N3,B3,res_direct,res_frenet,degenerate``.
    Points where the Frenet frame degenerates (vanishing curvature or a null
    normal direction) become sentinel rows: zero data columns and
    ``degenerate=1``; the command still exits 0.
``verify``
    Run the claim registry (or one claim) and write the JSON report. Exit
    status 0 when every check status matches the pinned expected-status
    manifest, 1 otherwise.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input (including
a family flag the chosen family does not take, a non-finite family value, or
arithmetic that overflows on the requested range), 3 output I/O failure.
Every error path prints a single ``error: ...`` line to stderr. All
configuration is by flags; no environment variables or config files are
consulted. Output to a new path or a regular file is atomic (temp file +
rename); any other existing target, such as a FIFO or a device, is written
in place and never replaced. Output uses fixed 17-significant-digit,
locale-independent float formatting, so repeated runs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import stat
import sys
import tempfile

from . import families as _families
from . import frenet as _frenet
from . import verify as _verify
from .biharmonic import _enorm
from .curves import _MAX_GRID_NODES  # noqa: F401  the --range node cap
from .curves import _grid_steps, integrate_frame_curve, read_curve_csv
from .errors import HHCurvesError, InvalidInputError

__all__ = ["build_parser", "main"]

_GENERATE_HEADER = "s,x,y,z,T1,T2,T3"
_FRENET_HEADER = "s,k1,k2,eps1,eps2,eps3,N3,B3,res_direct,res_frenet,degenerate"

_OFFSETS = ("c1", "c2", "c3")
_HELIX_FLAGS = ("branch", "phase", "as_printed") + _OFFSETS

# Each --family name: its `families` maker, looked up by name when the curve
# is built; the flags it requires; and the flags it also takes. The b3zero
# maker also requires "kind" and "s_range", which are the family name and the
# --range bounds rather than flags.
_HORIZONTAL = ("make_spacelike_horizontal", (), _HELIX_FLAGS)
_B3ZERO = ("make_b3zero_linear", ("kind", "p", "q", "s_range"), ())
_FAMILIES = {
    "spacelike": ("make_spacelike_biharmonic", ("alpha0",), _HELIX_FLAGS),
    "timelike": ("make_timelike_biharmonic", ("nu0",), _HELIX_FLAGS),
    "spacelike-horizontal": _HORIZONTAL,
    "horizontal": _HORIZONTAL,
    "timelike-horizontal-helix": (
        "make_timelike_horizontal_helix", ("m",), _OFFSETS,
    ),
    "b3zero-spacelike": _B3ZERO,
    "b3zero-timelike": _B3ZERO,
    "geodesic": ("make_geodesic", (), ("direction",)),
}

# Every family flag in --help order: its argparse dest, the type of its
# value (bool: a switch) and its help text. Each defaults to None.
_FLAG_TABLE = (
    ("alpha0", float, "shape parameter of the spacelike family"),
    ("nu0", float, "shape parameter of the timelike family (nonzero)"),
    ("m", float, "frequency of the flat timelike helix (nonzero)"),
    ("p", float, "linear-profile intercept for the b3zero families"),
    ("q", float, "linear-profile slope for the b3zero families (nonzero)"),
    ("branch", str, "slope-quadratic root: + or - (also plus, minus, +1, 1, "
     "-1; default +)"),
    ("phase", float, "phase offset b in u = a*s + b (default 0)"),
    ("c1", float, "x translation (default 0)"),
    ("c2", float, "y translation (default 0)"),
    ("c3", float, "z translation (default 0)"),
    ("direction", str, "geodesic direction as 'dx,dy,dz' (default 0,0,1)"),
    ("as_printed", bool, "use the printed (uncorrected) slope constant"),
)
_FAMILY_FLAGS = tuple(name for name, _, _ in _FLAG_TABLE)

# A token that starts with '-' and is a value: a negative number, range or
# direction (-1e-3, -inf, -2:2:0.01, -1,0,0), or a path such as -1.csv.
_NEGATIVE_VALUE = re.compile(r"-(\.?[0-9]|inf|nan)", re.IGNORECASE)

# The s-grid when --range is not given.
_DEFAULT_RANGE = "-2:2:0.01"

# Maximum RK4 step used when `generate` has to integrate a tangent-only
# curve (b3zero families) to obtain coordinates, and the most steps it takes:
# about 4 s and 50 MB on the pure backend, a range 100 long.
_MAX_INTEGRATION_STEP = 1e-3
_MAX_INTEGRATION_STEPS = 100_000


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _fmt(value):
    """Deterministic float formatting; +0.0 normalizes negative zero."""
    return "%.17g" % (float(value) + 0.0)


def _write_text(path, text):
    """Write text to stdout when path is '-'; to `path` in place when it
    exists and is not a regular file (a FIFO, a device); else atomically."""
    if path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    target = os.path.abspath(path)
    try:
        in_place = not stat.S_ISREG(os.stat(target).st_mode)
    except OSError:
        in_place = False
    if in_place:
        with open(target, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(prefix=".hhcurves-", suffix=".part", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_csv(path, header, rows):
    """Write rows of numbers as CSV, once all of them are computed; a number
    that is not finite is an error, so no row holds nan or inf."""
    for row in rows:
        if not all(map(math.isfinite, row)):
            raise InvalidInputError(
                "a result is not finite (%s): the input is outside the range "
                "of doubles" % ",".join(map(_fmt, row))
            )
    lines = [header] + [",".join(map(_fmt, row)) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _parse_range(text):
    """Parse 'start:stop:step' (None: the default) into (start, stop, step, n)."""
    if text is None:
        text = _DEFAULT_RANGE
    parts = str(text).split(":")
    if len(parts) != 3:
        raise InvalidInputError(
            "range must have the form start:stop:step, got %r" % (text,)
        )
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InvalidInputError(
            "range fields must be real numbers, got %r" % (text,)
        ) from exc
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise InvalidInputError("range fields must be finite, got %r" % (text,))
    if stop <= start:
        raise InvalidInputError(
            "range stop must exceed start, got %r" % (text,)
        )
    return start, stop, step, _grid_steps(start, stop, step)


def _grid_nodes(start, step, n):
    return [start + i * step for i in range(n + 1)]


def _parse_direction(text):
    parts = str(text).split(",")
    if len(parts) != 3:
        raise InvalidInputError(
            "--direction must be three comma-separated reals, got %r" % (text,)
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise InvalidInputError(
            "--direction components must be real numbers, got %r" % (text,)
        ) from exc


def _build_curve(ns, s_range):
    """Construct the requested family member from parsed options.

    Only supplied flags reach the maker, so its own defaults apply to the
    rest. A flag the family does not take, a missing required flag and a
    non-finite number are rejected.
    """
    family = ns.family
    if family is None:
        raise InvalidInputError("--family is required")
    maker, required, takes = _FAMILIES[family]
    kwargs = {
        name: value
        for name, value in (("kind", family), ("s_range", s_range))
        if name in required
    }
    for name in _FAMILY_FLAGS:
        value = getattr(ns, name)
        flag = "--" + name.replace("_", "-")
        if value is None:
            if name in required:
                raise InvalidInputError(
                    "%s is required for the %s family" % (flag, family)
                )
            continue
        if name not in required + takes:
            raise InvalidInputError(
                "%s is not a parameter of the %s family" % (flag, family)
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidInputError(
                "%s must be finite, got %r" % (flag, value)
            )
        if name in _OFFSETS:
            offsets = kwargs.setdefault("offsets", [0.0, 0.0, 0.0])
            offsets[_OFFSETS.index(name)] = value
        elif name == "direction":
            kwargs[name] = _parse_direction(value)
        else:
            kwargs[name] = value
    return getattr(_families, maker)(**kwargs)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def cmd_generate(ns):
    start, stop, step, n = _parse_range(ns.range)
    grid = _grid_nodes(start, step, n)
    curve = _build_curve(ns, (start, stop))
    if hasattr(curve, "point"):
        positions = [curve.point(s) for s in grid]
    else:
        # Tangent-only curve: integrate the coordinates from the origin at a
        # refined step that divides the output grid step exactly.
        refine = max(1, math.ceil(step / _MAX_INTEGRATION_STEP))
        if refine * n > _MAX_INTEGRATION_STEPS:
            raise InvalidInputError(
                "--range needs %d integration steps of at most %r, more "
                "than %d" % (refine * n, _MAX_INTEGRATION_STEP,
                             _MAX_INTEGRATION_STEPS)
            )
        integrated = integrate_frame_curve(
            curve, (0.0, 0.0, 0.0), (start, stop), step / refine
        )
        # every refine-th integration node is a grid node
        positions = integrated.samples.points[::refine]
    rows = [(s, *pos, *curve.tangent(s)) for s, pos in zip(grid, positions)]
    _write_csv(ns.output, _GENERATE_HEADER, rows)
    return 0


def _frenet_grid_and_curve(ns):
    if ns.input is not None and ns.family is not None:
        raise InvalidInputError("--input and --family are mutually exclusive")
    if ns.input is not None:
        for name in _FAMILY_FLAGS + ("range",):
            if getattr(ns, name) is not None:
                raise InvalidInputError(
                    "--%s does not apply to --input"
                    % name.replace("_", "-")
                )
        curve = read_curve_csv(ns.input)
        table = curve.samples
        lo, hi = table.interior_range()
        if lo > hi:
            raise InvalidInputError(
                "input has too few rows for interior stencil derivatives "
                "(need at least %d)" % (2 * lo + 1)
            )
        return curve, list(table.s_values[lo : hi + 1])
    if ns.family is None:
        raise InvalidInputError("one of --family or --input is required")
    start, stop, step, n = _parse_range(ns.range)
    curve = _build_curve(ns, (start, stop))
    return curve, _grid_nodes(start, step, n)


def cmd_frenet(ns):
    curve, grid = _frenet_grid_and_curve(ns)
    rows = []
    for s, res in zip(grid, _frenet.evaluate_grid(curve, grid)):
        if isinstance(res, Exception):
            rows.append((s,) + (0.0,) * 9 + (1,))
            continue
        d, tau_d, tau_f = res
        rows.append((s, d.k1, d.k2, d.eps1, d.eps2, d.eps3, d.n3, d.b3,
                     _enorm(tau_d), _enorm(tau_f), 0))
    _write_csv(ns.output, _FRENET_HEADER, rows)
    return 0


def cmd_verify(ns):
    config = _verify.VerifyConfig(seed=ns.seed)
    if ns.claim is not None:
        check = _verify.verify_claim(ns.claim, config)
        report = _verify.VerificationReport(
            schema_version=1, seed=config.seed, checks=(check,)
        )
    else:
        report = _verify.run_all(config)
    _write_text(ns.output, report.to_json() + "\n")
    return 0 if report.passed() else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports errors as one line and exits 2."""

    def error(self, message):
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(2)


def _add_family_options(parser):
    group = parser.add_argument_group("curve family")
    group.add_argument(
        "--family",
        choices=tuple(_FAMILIES),
        default=None,
        help="closed-form family to instantiate",
    )
    for name, kind, help_text in _FLAG_TABLE:
        value = {"action": "store_true"} if kind is bool else {"type": kind}
        group.add_argument("--" + name.replace("_", "-"), default=None,
                           help=help_text, **value)


def _add_output_options(parser):
    parser.add_argument(
        "-o", "--output", default="-",
        help="output path; '-' writes to stdout (default)",
    )


def _add_range_option(parser):
    parser.add_argument(
        "--range", default=None,
        help="s-grid as start:stop:step (default %s)" % _DEFAULT_RANGE,
    )


def build_parser():
    parser = _Parser(
        prog="hhcurves",
        description=(
            "Curve geometry in the 3-dimensional hyperbolic Heisenberg "
            "group: closed-form curve families, Frenet/bitension sweeps, "
            "and the numerical claim verifier."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p_gen = sub.add_parser(
        "generate",
        help="sample a curve family to CSV (s,x,y,z,T1,T2,T3)",
    )
    _add_family_options(p_gen)
    _add_range_option(p_gen)
    _add_output_options(p_gen)
    p_gen.set_defaults(func=cmd_generate, input=None)

    for name, help_text in (
        ("frenet", "sweep curvature/torsion/frame data and residuals to CSV"),
        ("residual", "alias of frenet: same sweep, same CSV schema"),
    ):
        p_fr = sub.add_parser(name, help=help_text)
        _add_family_options(p_fr)
        _add_range_option(p_fr)
        p_fr.add_argument(
            "--input", default=None,
            help="read a sampled curve from CSV (header s,x,y,z, extra "
            "columns ignored) instead of --family; rows cover the interior "
            "stencil nodes",
        )
        _add_output_options(p_fr)
        p_fr.set_defaults(func=cmd_frenet)

    p_ver = sub.add_parser(
        "verify",
        help="run the claim registry and write the JSON report",
    )
    p_ver.add_argument(
        "--claim", default=None,
        help="run a single claim by id (default: all claims)",
    )
    p_ver.add_argument(
        "--seed", type=int, default=7,
        help="base seed for the per-check generators (default 7)",
    )
    _add_output_options(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _merge_value_flags(argv):
    """Join '--name -V' into '--name=-V' when -V reads as a value.

    argparse reads a token that starts with '-' as an option unless it looks
    like -1 or -0.5, so without this '--alpha0 -1e-3', '--c1 -inf', '--range
    -2:2:0.01', '--direction -1,0,0' and '--input -1.csv' would all fail. An
    option string such as '--c1', '-o' or '-h' never reads as a value.
    """
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (token.startswith("--") and len(token) > 2 and "=" not in token
                and i + 1 < len(argv) and _NEGATIVE_VALUE.match(argv[i + 1])):
            merged.append(token + "=" + argv[i + 1])
            i += 2
            continue
        merged.append(token)
        i += 1
    return merged


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    ns = parser.parse_args(_merge_value_flags(list(argv)))
    try:
        return ns.func(ns)
    # ArithmeticError comes first: NumericOverflowError is an HHCurvesError too
    except ArithmeticError as exc:
        sys.stderr.write("error: arithmetic failure: %s\n" % exc)
        return 2
    except HHCurvesError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("error: io failure: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
