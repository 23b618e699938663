"""Property tests of ``cli.main`` over drawn argument vectors and input CSVs.

Every run must end in one of the documented ways: exit 0 with only finite
numbers in its output, exit 1 only from ``verify``, or exit 2 with exactly
one ``error:`` line on stderr and nothing on stdout. No exception may
escape ``main``.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hhcurves import cli, families

FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# Finite values at the edges of the double range, and ordinary ones.
EXTREME = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-16,
                     1.0, -1.0, 709.0, -710.0, 1e16, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-3.0, max_value=3.0),
)
MILD = st.floats(min_value=-3.0, max_value=3.0)
BRANCHES = st.sampled_from(["+", "-", "plus", "minus", "+1", "1", "-1", "0"])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, float):
        yield value


def _check(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 1:
        assert argv[0] == "verify", (argv, err)
    if code == 2:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
        if argv[0] == "verify":
            assert all(math.isfinite(v) for v in _numbers(json.loads(out)))
        else:
            rows = out.splitlines()[1:]
            assert rows, argv
            for row in rows:
                assert all(math.isfinite(float(c)) for c in row.split(",")), (
                    argv, row)
    return code


def _flag_value(name, values):
    if name == "branch":
        return BRANCHES
    if name == "as_printed":
        return st.just(None)
    if name == "direction":
        return st.tuples(values, values, values).map(
            lambda v: ",".join(repr(c) for c in v))
    return values.map(repr)


@st.composite
def family_argvs(draw):
    command = draw(st.sampled_from(["generate", "frenet", "residual"]))
    family = draw(st.sampled_from(sorted(cli._FAMILIES)))
    _, required, takes = cli._FAMILIES[family]
    argv = [command, "--family", family]
    # half the runs keep every value mild, so most of them get through
    values = draw(st.sampled_from([MILD, EXTREME]))
    for name in cli._FAMILY_FLAGS:
        # mostly the flags the family takes, seldom one it does not, and
        # seldom without a required one
        if name in required:
            keep = draw(st.integers(0, 9)) > 0
        elif name in takes:
            keep = draw(st.booleans())
        else:
            keep = draw(st.integers(0, 29)) == 0
        if not keep:
            continue
        flag = "--" + name.replace("_", "-")
        value = draw(_flag_value(name, values))
        argv += [flag] if value is None else ["%s=%s" % (flag, value)]
    start = draw(values)
    step = draw(st.one_of(values.map(abs), st.floats(1e-3, 0.5)))
    n = draw(st.integers(1, 40))
    argv.append("--range=%r:%r:%r" % (start, start + n * step, step))
    return argv


@FUZZ
@given(family_argvs())
def test_family_commands_end_in_a_documented_way(argv):
    _check(argv)


@st.composite
def csv_texts(draw):
    n = draw(st.integers(1, 41))
    s0 = draw(st.one_of(EXTREME, MILD))
    h = draw(st.one_of(st.floats(1e-3, 0.5), EXTREME.map(abs)))
    rows = ["s,x,y,z"]
    kind = draw(st.sampled_from(["helix", "line", "noise"]))
    if kind == "helix":
        # a biharmonic helix at drawn shape, phase and offsets
        curve = families.make_spacelike_biharmonic(
            draw(MILD), phase=draw(MILD),
            offsets=[draw(EXTREME), draw(EXTREME), draw(EXTREME)])
        point = curve.point
    elif kind == "line":
        # x = s + c1, z = c3: unit speed and geodesic at any offset
        c1, c3 = draw(EXTREME), draw(EXTREME)
        point = lambda s: (s + c1, 0.0, c3)  # noqa: E731
    else:
        coords = st.one_of(EXTREME, st.floats(-10.0, 10.0))
        point = lambda s: (draw(coords), draw(coords), draw(coords))  # noqa: E731
    for i in range(n):
        s = s0 + i * h
        try:
            xyz = point(s)
        except OverflowError:
            break
        rows.append(",".join(repr(v) for v in (s,) + tuple(xyz)))
    return "\n".join(rows) + "\n"


@FUZZ
@given(csv_texts())
def test_frenet_input_ends_in_a_documented_way(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        _check(["frenet", "--input", path])


@FUZZ
@given(st.one_of(st.integers(-2**70, 2**70),
                 st.sampled_from([-1, 0, 2**32, 2**63, -2**63, 10**40])))
def test_verify_seeds_end_in_a_documented_way(seed):
    _check(["verify", "--claim", "metric-signature", "--seed", str(seed)])


# A failure the fuzzing found: it used to end in a traceback. The argvs it
# found are in test_cli.py, with the other argvs that exit 2.
FOUND_CSV = ("s,x,y,z\n" + "".join(
    "%r,%r,%r,0.0\n" % (0.001 * i, 1.6089369396055971e+152 if i == 6 else 0.0,
                         1.0 if i == 4 else 0.0) for i in range(9)))


def test_found_csv_exits_two(tmp_path):
    # finite jets whose compensated products overflow: ValueError in fsum
    path = tmp_path / "curve.csv"
    path.write_text(FOUND_CSV, encoding="utf-8")
    assert _check(["frenet", "--input", str(path)]) == 2
