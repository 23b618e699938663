"""Command-line interface: schemas, exit codes, determinism, atomic output."""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import shutil
import site
import stat
import subprocess
import sys
import venv
from pathlib import Path

import pytest

import hhcurves
from hhcurves import FamilyKind
from hhcurves.cli import _MAX_GRID_NODES, _parse_range, build_parser, main
from hhcurves.errors import InvalidInputError

HORIZONTAL_K1 = 2.0


def run_cli(argv, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return header, rows


class TestGenerate:
    def test_horizontal_grid(self, capsys):
        code, out, _ = run_cli(
            ["generate", "--family", "horizontal", "--range", "0:1:0.1"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,x,y,z,T1,T2,T3"
        assert len(lines) == 12
        assert lines[1] == "0,0,0.5,0,1,0,0"
        _, rows = parse_csv(out)
        assert all(abs(row[6]) <= 9e-16 for row in rows)  # T3 column

    def test_geodesic_positions(self, capsys):
        code, out, _ = run_cli(
            [
                "generate",
                "--family",
                "geodesic",
                "--direction",
                "1,0,0",
                "--range",
                "-1:1:0.5",
            ],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert row[1] == row[0]  # x = s
            assert row[2] == 0.0 and row[3] == 0.0

    def test_tangent_only_family_is_integrated(self, capsys):
        code, out, _ = run_cli(
            [
                "generate",
                "--family",
                "b3zero-spacelike",
                "--p",
                "0.4",
                "--q",
                "0.3",
                "--range",
                "-1:1:0.25",
            ],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 9
        first = rows[0]
        assert (first[1], first[2], first[3]) == (0.0, 0.0, 0.0)
        for row in rows:
            t1, t2, t3 = row[4], row[5], row[6]
            assert t1 * t1 - t2 * t2 - t3 * t3 == pytest.approx(1.0, abs=1e-9)

    def test_integrated_nodes_at_a_fine_grid_step(self, capsys):
        # the integrated nodes were looked up with a tolerance of 1e-9, ten
        # grid steps here: rows up to s = 1e-9 held the origin, and every
        # later row the position ten steps back
        code, out, _ = run_cli(["generate", "--family", "b3zero-spacelike",
                                "--p", "0.4", "--q", "0.6",
                                "--range", "0:2e-9:1e-10"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 21
        for s, x, y, z, t1, t2, t3 in rows:
            # x' = T1 and z' = 2·T3 - 2·T1·y + 2·T2·x, nearly constant here
            assert x == pytest.approx(t1 * s, rel=1e-6, abs=1e-30)
            assert z == pytest.approx(2.0 * t3 * s, rel=1e-6, abs=1e-30)

    def test_missing_required_parameter(self, capsys):
        code, _, err = run_cli(
            ["generate", "--family", "spacelike", "--range", "0:1:0.5"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")
        assert "--alpha0" in err

    def test_foreign_parameter_rejected(self, capsys):
        code, _, err = run_cli(
            [
                "generate",
                "--family",
                "spacelike",
                "--alpha0",
                "0.5",
                "--m",
                "1.0",
                "--range",
                "0:1:0.5",
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(
            ["generate", "--family", "diagonal", "--range", "0:1:0.5"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    def test_degenerate_parameters(self, capsys):
        code, _, err = run_cli(
            [
                "generate",
                "--family",
                "timelike",
                "--nu0",
                "0",
                "--range",
                "0:1:0.5",
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "bad_range", ["0:1:0.3", "1:0:0.1", "0:1", "a:b:c", "0:1:-0.1"]
    )
    def test_bad_ranges(self, bad_range, capsys):
        code, _, err = run_cli(
            ["generate", "--family", "horizontal", "--range", bad_range],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    def test_range_node_cap(self):
        # checked on the node count alone, before any grid is built
        top = "1:%d:1" % _MAX_GRID_NODES
        assert _parse_range(top)[3] == _MAX_GRID_NODES - 1
        for text in ("0:%d:1" % _MAX_GRID_NODES, "0:1e12:1", "0:1e300:1e-300"):
            with pytest.raises(InvalidInputError, match="more than"):
                _parse_range(text)

    def test_wrong_format_rejected(self, capsys):
        # there is no --format flag: every output has one fixed format
        for fmt in ("json", "csv"):
            code, _, err = run_cli(
                ["generate", "--family", "horizontal", "--format", fmt],
                capsys,
            )
            assert code == 2
            assert err.startswith("error:")


_HELIX_FLAGS = {"branch", "phase", "as_printed", "c1", "c2", "c3"}

# --family name: (required flags, other flags it takes)
_EXPECTED_FLAGS = {
    "spacelike": ({"alpha0"}, _HELIX_FLAGS),
    "timelike": ({"nu0"}, _HELIX_FLAGS),
    "spacelike-horizontal": (set(), _HELIX_FLAGS),
    "horizontal": (set(), _HELIX_FLAGS),
    "timelike-horizontal-helix": ({"m"}, {"c1", "c2", "c3"}),
    "b3zero-spacelike": ({"p", "q"}, set()),
    "b3zero-timelike": ({"p", "q"}, set()),
    "geodesic": (set(), {"direction"}),
}

# A valid value for each family flag (None: the flag takes no value)
_FLAG_VALUES = {
    "alpha0": "0.5", "nu0": "0.8", "m": "1.3", "p": "0.4", "q": "0.6",
    "direction": "0,0,1", "branch": "-", "phase": "0.3", "c1": "0.5",
    "c2": "-0.5", "c3": "2", "as_printed": None,
}


def _flag_argv(name):
    flag = "--" + name.replace("_", "-")
    value = _FLAG_VALUES[name]
    return [flag] if value is None else [flag, value]


class TestFamilyFlags:
    def test_family_choices_are_the_family_kinds(self):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        want = {k.value for k in FamilyKind} | {"horizontal"}
        assert set(_EXPECTED_FLAGS) == want
        for name in ("generate", "frenet", "residual"):
            family = next(a for a in commands.choices[name]._actions
                          if a.dest == "family")
            assert set(family.choices) == want

    @pytest.mark.parametrize("family", sorted(_EXPECTED_FLAGS))
    def test_family_takes_exactly_its_flags(self, family, capsys):
        required, takes = _EXPECTED_FLAGS[family]
        base = ["generate", "--family", family, "--range", "0:0.2:0.1"]
        for name in sorted(required):
            base += _flag_argv(name)
        code, out, err = run_cli(base, capsys)
        assert (code, err) == (0, "")
        default_rows = out
        for name in sorted(_FLAG_VALUES):
            if name in required:
                argv = [a for a in base if a not in _flag_argv(name)]
                code, out, err = run_cli(argv, capsys)
                assert (code, out) == (2, "")
                assert err == "error: --%s is required for the %s family\n" % (
                    name, family)
                continue
            flag = _flag_argv(name)[0]
            code, out, err = run_cli(base + _flag_argv(name), capsys)
            if name in takes:
                assert (code, err) == (0, ""), name
                assert out.startswith("s,x,y,z,T1,T2,T3\n")
            else:
                assert (code, out) == (2, ""), name
                assert err == (
                    "error: %s is not a parameter of the %s family\n"
                    % (flag, family)
                )
        # a flag left out takes the maker's default, spelled out here
        defaults = {"branch": "+", "direction": "0,0,1", "phase": "0",
                    "c1": "0", "c2": "0", "c3": "0"}
        spelled = [a for name in sorted(takes - {"as_printed"})
                   for a in ("--" + name, defaults[name])]
        code, out, _ = run_cli(base + spelled, capsys)
        assert (code, out) == (0, default_rows)

    @pytest.mark.parametrize("argv", [
        # no family at all
        ["generate"],
        ["generate", "--range", "0:0.2:0.1"],
        # flags the family does not take
        ["generate", "--family", "geodesic", "--phase", "0.3", "--c1", "5"],
        ["generate", "--family", "b3zero-spacelike", "--p", "0.4", "--q",
         "0.6", "--c1", "5", "--branch", "-"],
        ["generate", "--family", "timelike-horizontal-helix", "--m", "1",
         "--phase", "2"],
        # non-finite values
        ["generate", "--family", "spacelike", "--alpha0", "nan",
         "--range", "0:0.2:0.1"],
        ["frenet", "--family", "timelike", "--nu0", "inf",
         "--range", "0:0.2:0.1"],
        ["generate", "--family", "horizontal", "--c3=-inf",
         "--range", "0:0.2:0.1"],
        # arithmetic that overflows: in dd_exp, and in math.cosh
        ["frenet", "--family", "spacelike", "--alpha0", "0.5",
         "--range", "0:400:100"],
        ["generate", "--family", "spacelike", "--alpha0", "1e3",
         "--range", "0:0.2:0.1"],
        # found by tests/test_cli_fuzz.py: the slope of alpha0 = 709 is not
        # finite, and rows of nan came out with exit 0
        ["generate", "--family", "spacelike", "--alpha0=709.0",
         "--range=0.0:1:0.5"],
        # 2·c1·amp/a overflows: z = inf and T3 = nan with exit 0
        ["generate", "--family", "horizontal", "--c1=1.7e308",
         "--range=0:0.1:0.05"],
        # u = a·s overflows to inf - inf: ValueError in dd_exp, exit 1
        ["frenet", "--family", "timelike-horizontal-helix", "--m=1e+300",
         "--range=1e+16:1.0000000000000002e+16:1.0"],
        # 101000 RK4 steps for two rows; the fuzzing found ranges that
        # asked for 1e13 steps and never finished
        ["generate", "--family", "b3zero-spacelike", "--p", "0.4", "--q",
         "1e-3", "--range=0:101:101"],
        # below the dd_exp range: exp underflows to 0, and cosh and sinh
        # divided by it
        ["frenet", "--family", "spacelike", "--alpha0", "0.5",
         "--range", "-400:0:25"],
    ])
    def test_rejected_with_one_error_line_and_no_rows(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("alpha0", ["1e3", "-1e3"])
    def test_overflowing_shape_is_an_arithmetic_failure(self, alpha0, capsys):
        code, out, err = run_cli(["generate", "--family", "spacelike",
                                  "--alpha0", alpha0], capsys)
        assert (code, out) == (2, "")
        assert err == "error: arithmetic failure: math range error\n"

    def test_closed_form_past_the_doubles_is_an_arithmetic_failure(
            self, capsys):
        # the closed-form position raises NumericOverflowError now, with the
        # text of the bare OverflowError it raised before
        code, out, err = run_cli(["generate", "--family", "spacelike",
                                  "--alpha0", "0.5", "--range",
                                  "9999:10000:0.5"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: arithmetic failure: math range error\n"

    def test_frenet_data_that_is_not_finite_is_an_arithmetic_failure(
            self, capsys):
        # the kernel's NaN data raises at its point, before any row is built
        code, out, err = run_cli(["frenet", "--family",
                                  "timelike-horizontal-helix", "--m", "1e300",
                                  "--range", "0:1e-300:1e-300"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: arithmetic failure: the Frenet data at s=0.0 "
                       "is not finite\n")

    @pytest.mark.parametrize("span", ["300:400:25", "-400:0:25"])
    def test_out_of_exp_range_names_dd_exp(self, span, capsys):
        code, _, err = run_cli(["frenet", "--family", "spacelike", "--alpha0",
                                "0.5", "--range", span], capsys)
        assert code == 2
        assert "dd_exp argument" in err, err


class TestNegativeValues:
    """A value that starts with '-' reads as a value after any long flag,
    as its '--flag=value' spelling does; argparse alone takes only values
    such as -1 and -0.5."""

    @pytest.mark.parametrize("extra", [
        ["--phase", "-1e-05"], ["--c1", "-2e3"], ["--c2", "-.5"],
        ["--c3", "-0"], ["--branch", "-1"], ["--range", "-1:1:0.5"],
    ])
    def test_negative_value_reads_as_with_equals(self, extra, capsys):
        base = ["generate", "--family", "spacelike", "--alpha0"]
        code, out, err = run_cli(base + ["-1e-3"] + extra, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("s,x,y,z,T1,T2,T3\n")
        joined = base[:-1] + ["--alpha0=-1e-3", "=".join(extra)]
        assert run_cli(joined, capsys) == (code, out, err)

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
    def test_negative_non_finite_value_is_rejected_as_such(self, value,
                                                           capsys):
        code, out, err = run_cli(["generate", "--family", "spacelike",
                                  "--alpha0", value], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: --alpha0 must be finite, got ")
        assert run_cli(["generate", "--family", "spacelike",
                        "--alpha0=" + value], capsys) == (code, out, err)

    def test_input_path_starting_with_minus(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(["generate", "--family", "horizontal",
                              "--range", "0:0.1:0.01", "--output", "-1.csv"],
                             capsys)
        assert code == 0
        code, out, err = run_cli(["frenet", "--input", "-1.csv"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("s,k1,")
        assert run_cli(["frenet", "--input=-1.csv"], capsys) == (code, out,
                                                                 err)

    @pytest.mark.parametrize("argv, message", [
        (["--c1", "--c2", "1"], "argument --c1: expected one argument"),
        (["--c1", "-o", "x.csv"], "argument --c1: expected one argument"),
        (["--phase", "-h"], "argument --phase: expected one argument"),
    ])
    def test_option_string_is_never_a_value(self, argv, message, capsys):
        code, out, err = run_cli(["generate", "--family", "horizontal"]
                                 + argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % message

    def test_branch_minus_alone(self, capsys):
        base = ["generate", "--family", "horizontal", "--range", "0:0.2:0.1"]
        code, out, err = run_cli(base + ["--branch", "-"], capsys)
        assert (code, err) == (0, "")
        assert run_cli(base + ["--branch", "minus"], capsys) == (code, out,
                                                                 err)


# sha256 of each --help output at COLUMNS=80; argparse's layout differs
# between Python minor versions, so the pins hold for this one
_HELP_PYTHON = (3, 11)
_HELP_SHA256 = {
    (): "48445256ec9e564e62ceb331c666fbefb25cf430a36826ef456db19ae7c5b36a",
    ("generate",):
        "a5bddc5a6662b91aca49c7bb4e43c691961ddde88f01b3c2c0b2672e2444963f",
    ("frenet",):
        "e1453aaec59511a898801b9b12736c98a62bd6ea3234552b797f51054b256381",
    ("residual",):
        "629629aafd79d44d97602dee67de19ab2645faa4e0ca2ae0cf4a3c441c693896",
    ("verify",):
        "0e35706399cbdf6ab2886af73823103311f4bad5ee7b80f08ae5e8700532cd48",
}


class TestHelp:
    @pytest.mark.parametrize("command", sorted(_HELP_SHA256),
                             ids=lambda c: " ".join(c) or "top")
    def test_help_matches_pin(self, command, capsys, monkeypatch):
        if sys.version_info[:2] != _HELP_PYTHON:
            pytest.skip("help pinned with Python %d.%d" % _HELP_PYTHON)
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(list(command) + ["--help"], capsys)
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == _HELP_SHA256[command]


class TestFrenet:
    def test_horizontal_sweep(self, capsys):
        code, out, _ = run_cli(
            ["frenet", "--family", "horizontal", "--range", "-0.2:0.2:0.1"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "s",
            "k1",
            "k2",
            "eps1",
            "eps2",
            "eps3",
            "N3",
            "B3",
            "res_direct",
            "res_frenet",
            "degenerate",
        ]
        for row in rows:
            assert row[1] == pytest.approx(HORIZONTAL_K1, abs=1e-12)
            assert row[2] == pytest.approx(-1.0, abs=1e-12)
            assert (row[3], row[4], row[5]) == (1.0, -1.0, -1.0)
            assert abs(row[6]) <= 1e-12  # N3
            assert row[7] == pytest.approx(-1.0, abs=1e-12)  # B3
            assert row[8] <= 1e-9 and row[9] <= 1e-9
            assert row[10] == 0.0

    def test_published_slope_residual_is_three_at_zero_phase(self, capsys):
        code, out, _ = run_cli(
            [
                "frenet",
                "--family",
                "horizontal",
                "--as-printed",
                "--range",
                "0:0.2:0.1",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[8] == "3"  # res_direct printed exactly
        _, rows = parse_csv(out)
        assert rows[0][1] == 1.0  # k1 for the printed slope
        assert all(row[8] >= 3.0 for row in rows)

    def test_geodesic_rows_are_degenerate_sentinels(self, capsys):
        code, out, _ = run_cli(
            ["frenet", "--family", "geodesic", "--range", "0:1:0.5"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert row[10] == 1.0
            assert all(v == 0.0 for v in row[1:10])

    def test_residual_alias_is_identical(self, capsys):
        args = ["--family", "spacelike", "--alpha0", "0.5", "--range", "-1:1:0.5"]
        code_a, out_a, _ = run_cli(["frenet"] + args, capsys)
        code_b, out_b, _ = run_cli(["residual"] + args, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_input_and_family_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("s,x,y,z\n0,0,0,0\n0.1,0.1,0,0\n", encoding="utf-8")
        code, _, err = run_cli(
            ["frenet", "--input", str(path), "--family", "horizontal"],
            capsys,
        )
        assert code == 2
        assert "mutually exclusive" in err

    @pytest.mark.parametrize("extra", [
        ["--alpha0", "0.5"], ["--phase", "3"], ["--as-printed"],
        ["--direction", "0,0,1"], ["--range", "0:9:1"],
    ])
    def test_input_rejects_family_flags_and_range(self, extra, capsys,
                                                  tmp_path):
        path = tmp_path / "h.csv"
        code, _, _ = run_cli(
            ["generate", "--family", "horizontal", "--range", "0:0.1:0.01",
             "-o", str(path)],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(["frenet", "--input", str(path)], capsys)
        assert code == 0 and out.startswith("s,k1,")
        code, out, err = run_cli(
            ["frenet", "--input", str(path)] + extra, capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: %s does not apply to --input\n" % extra[0]

    def test_neither_input_nor_family(self, capsys):
        code, _, err = run_cli(["frenet"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_csv_round_trip(self, capsys, tmp_path):
        generated = tmp_path / "spacelike-full.csv"
        code, _, _ = run_cli(
            [
                "generate",
                "--family",
                "spacelike",
                "--alpha0",
                "0.5",
                "--range",
                "-1:1:0.01",
                "-o",
                str(generated),
            ],
            capsys,
        )
        assert code == 0
        # the ingestion schema is exactly s,x,y,z: keep the position columns
        curve_file = tmp_path / "spacelike.csv"
        rows = generated.read_text(encoding="utf-8").strip().splitlines()
        curve_file.write_text(
            "\n".join(",".join(ln.split(",")[:4]) for ln in rows) + "\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            ["frenet", "--input", str(curve_file)], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        # interior nodes only: the 4-node Richardson margin trims each end
        assert rows[0][0] == pytest.approx(-0.96, abs=1e-12)
        assert rows[-1][0] == pytest.approx(0.96, abs=1e-12)
        amp, tilt = math.cosh(0.5), math.sinh(0.5)
        slope = tilt + math.sqrt(tilt * tilt + 4.0 * amp * amp)
        k1_expected = abs(amp * (slope - 2.0 * tilt))
        for row in rows:
            assert row[1] == pytest.approx(k1_expected, abs=1e-4)
            assert row[10] == 0.0

    @pytest.mark.parametrize("spacing", [1e80, 1e-90])
    def test_spacing_stencils_cannot_use_exits_two(self, spacing, capsys,
                                                   tmp_path):
        # 1e80 overflowed in h**4 (exit 2, "Numerical result out of
        # range"); 1e-90 named node 0 as too close to the boundary
        path = tmp_path / "wide.csv"
        path.write_text("s,x,y,z\n" + "".join(
            "%r,%r,0,0\n" % (i * spacing, i * spacing) for i in range(21)),
            encoding="utf-8")
        code, out, err = run_cli(["frenet", "--input", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: sample spacing %r is outside"
                              % spacing), err

    def test_too_few_input_rows(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        lines = ["s,x,y,z"] + [
            "%g,%g,0,0" % (0.1 * i, 0.1 * i) for i in range(5)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run_cli(["frenet", "--input", str(path)], capsys)
        assert code == 2
        assert err.startswith("error:")


    @pytest.mark.parametrize("row", [
        # NaN jets: z' is finite, the higher stencils meet inf - inf
        lambda i, s: (s, 0.0, -1e308 if i % 2 == 0 else 1e308),
        # finite coordinates whose products x'·y and x·y' overflow
        lambda i, s: (1e200 * s, -1e200 * s, 1e10 * s),
    ], ids=["nan-jets", "overflow"])
    def test_non_finite_tangent_exits_two(self, row, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s,x,y,z\n" + "".join(
            "%r,%r,%r,%r\n" % ((0.1 * i,) + row(i, 0.1 * i)) for i in range(21)
        ), encoding="utf-8")
        code, out, err = run_cli(["frenet", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("grid, message", [
        # from s = 150 the double-double helix overflows to NaN, and from
        # s = 275 its exp argument leaves the domain; the first such point
        # names the failure
        ("0:400:25", "the Frenet data at s=150.0 is not finite"),
        ("300:400:25", "dd_exp argument too large"),
        ("-400:0:25", "dd_exp argument too small"),
    ])
    def test_exp_domain_is_an_arithmetic_failure(self, grid, message, capsys):
        code, out, err = run_cli(
            ["frenet", "--family", "spacelike", "--alpha0", "0.5",
             "--range", grid], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: arithmetic failure: %s\n" % message


class TestVerify:
    def test_full_run_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["seed"] == 7
        assert len(payload["checks"]) == 13

    def test_single_claim(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--claim", "horizontal-slope-printed"], capsys
        )
        assert code == 0  # refuted-as-printed is the expected status
        payload = json.loads(out)
        assert len(payload["checks"]) == 1
        assert payload["checks"][0]["status"] == "Refuted-as-printed"

    def test_unknown_claim(self, capsys):
        code, _, err = run_cli(["verify", "--claim", "no-such-claim"], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "metric-signature" in err  # the error lists the known ids

    def test_tol_flag_rejected(self, capsys):
        # there is no --tol flag: each check keeps its own tolerance
        code, out, err = run_cli(["verify", "--tol", "1e-3"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: unrecognized arguments")

    def test_custom_seed_passes(self, capsys):
        code, _, _ = run_cli(["verify", "--seed", "123"], capsys)
        assert code == 0

    def test_negative_seed_exits_two(self, capsys):
        code, out, err = run_cli(["verify", "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_runs_are_byte_identical(self, capsys):
        _, first, _ = run_cli(["verify"], capsys)
        _, second, _ = run_cli(["verify"], capsys)
        assert first == second


class TestOutputHandling:
    def test_file_output_is_atomic(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            [
                "generate",
                "--family",
                "horizontal",
                "--range",
                "0:1:0.5",
                "-o",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""  # nothing on stdout when writing to a file
        assert target.exists()
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".part")]
        assert leftovers == []

    def test_fifo_output_is_written_in_place(self, capsys, tmp_path):
        argv = ["verify", "--claim", "metric-signature"]
        _, report, _ = run_cli(argv, capsys)
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        # a reader must be open, or opening the FIFO for writing blocks
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, err = run_cli(argv + ["-o", str(fifo)], capsys)
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert (code, out, err) == (0, "", "")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received.decode("utf-8") == report
        assert os.listdir(tmp_path) == ["report.fifo"]

    def test_unwritable_output_exits_three(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run_cli(
            [
                "generate",
                "--family",
                "horizontal",
                "--range",
                "0:1:0.5",
                "-o",
                str(target),
            ],
            capsys,
        )
        assert code == 3
        assert err.startswith("error: io failure:")

    def test_generate_runs_are_byte_identical(self, capsys, tmp_path):
        args = [
            "generate",
            "--family",
            "timelike",
            "--nu0",
            "0.8",
            "--range",
            "-1:1:0.125",
        ]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_missing_subcommand(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 2
        assert err.startswith("error:")


REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT_ARGV = ["generate", "--family", "horizontal", "--range", "0:0.2:0.1"]


def _env_without_pythonpath():
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


@pytest.fixture(scope="module")
def installed_copy(tmp_path_factory):
    """Install a copy of this checkout into a throwaway virtual environment.

    The copy keeps build artefacts out of the working tree. The environment
    sees the site-packages of the interpreter running the tests, so NumPy
    and setuptools come from there; ``--no-deps`` keeps the install
    from fetching anything. ``setup.py develop`` is used because it builds
    without the ``wheel`` package, which setuptools older than 70.1 needs for
    a pip install. Returns ``(tree, bin_dir)``.
    """
    pytest.importorskip("setuptools")
    root = tmp_path_factory.mktemp("installed")
    tree = root / "tree"
    tree.mkdir()
    for name in ("pyproject.toml", "setup.py", "README.md"):
        shutil.copy2(REPO_ROOT / name, tree / name)
    shutil.copytree(
        REPO_ROOT / "src",
        tree / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    env_dir = root / "venv"
    venv.EnvBuilder(system_site_packages=True, with_pip=False).create(env_dir)
    # When the tests run inside a virtual environment, its site-packages are
    # not the "system" ones; list them too. The name sorts after the
    # easy-install.pth that `develop` writes, so the copy is found first.
    lib = env_dir / "lib" / ("python%d.%d" % sys.version_info[:2])
    pth = lib / "site-packages" / "zz-parent-site-packages.pth"
    pth.write_text("\n".join(site.getsitepackages()) + "\n")
    bin_dir = env_dir / "bin"
    proc = subprocess.run(
        [str(bin_dir / "python"), "setup.py", "-q", "develop", "--no-deps"],
        cwd=tree,
        env=_env_without_pythonpath(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return tree, bin_dir


# FD sweeps through the package names only, as a library caller writes them
_FD_SWEEPS = (
    "import math, sys\n"
    "import hhcurves as hh\n"
    "def tangent(s):\n"
    "    return (math.cosh(0.5 * s), math.sinh(0.5 * s), 0.0)\n"
    "def position(s):\n"
    "    return (2.0 * math.sinh(0.5 * s), 2.0 * math.cosh(0.5 * s),"
    " -4.0 * s)\n"
    "grid = [0.05 * k for k in range(-20, 21)]\n"
    "for curve in (hh.FrameCurve(tangent, fd=hh.FDConfig(step=1e-3)),\n"
    "              hh.CoordinateCurve.from_functions(\n"
    "                  position, fd=hh.FDConfig(step=1e-2))):\n"
    "    hh.check_biharmonic_conditions(curve, grid)\n"
    "    hh.frenet_over_grid(curve, grid)\n"
)

# The submodules that resolve as attributes of the package
_SUBMODULES = ("errors", "frame", "connection", "curves", "frenet",
               "biharmonic", "families", "verify", "_kernels")


class TestImport:
    def test_cli_import_leaves_numpy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, hhcurves.cli; "
             "print('numpy' in sys.modules, 'scipy' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False False\n"

    def test_fd_sweeps_leave_numpy_unloaded(self):
        err = self._stderr_after(
            _FD_SWEEPS + "print('numpy' in sys.modules, file=sys.stderr)\n")
        assert err == "False\n"

    def test_frenet_input_leaves_numpy_unloaded(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            ["generate", "--family", "spacelike", "--alpha0", "0.5",
             "--range", "0:0.2:0.01", "-o", str(path)],
            capsys,
        )
        assert code == 0
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from hhcurves import cli; "
             "code = cli.main(['frenet', '--input', sys.argv[1]]); "
             "print('numpy' in sys.modules, code, file=sys.stderr)",
             str(path)],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("s,k1,")
        assert proc.stderr == "False 0\n"

    def test_package_import_loads_no_submodule(self):
        err = self._stderr_after(
            "import sys, hhcurves; "
            "print(sorted(m for m in sys.modules if m.startswith('hhcurves.')),"
            " file=sys.stderr)")
        assert err == "[]\n"

    def test_fd_sweeps_load_neither_registry_nor_exact_tables(self):
        err = self._stderr_after(
            _FD_SWEEPS + "print(sorted(m for m in ('hhcurves.verify', "
            "'hhcurves.connection', 'hhcurves.families', 'fractions') "
            "if m in sys.modules), file=sys.stderr)\n")
        assert err == "[]\n"

    def test_reexports_resolve_to_submodule_objects(self):
        for name in hhcurves.__all__[1:]:
            value = getattr(hhcurves, name)
            owners = [m for m in _SUBMODULES
                      if getattr(getattr(hhcurves, m), name, None) is value]
            assert owners, name
        assert hhcurves.__all__[0] == "__version__"
        assert hhcurves.BACKEND == "pure"
        assert set(hhcurves.__all__) <= set(dir(hhcurves))
        assert set(_SUBMODULES) <= set(dir(hhcurves))
        namespace = {}
        exec("from hhcurves import *", namespace)
        for name in hhcurves.__all__:
            assert namespace[name] is getattr(hhcurves, name)
        for name in _SUBMODULES:
            assert getattr(hhcurves, name) is sys.modules["hhcurves." + name]
        with pytest.raises(AttributeError, match="no_such_name"):
            hhcurves.no_such_name

    def test_names_read_under_the_tracer_are_restored(self):
        # The benchmark's tracer patches submodule attributes and restores
        # the package names it saved. A name first read while it is
        # installed must not keep the wrapper once it is restored.
        err = self._stderr_after(
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "import hhcurves, tracing\n"
            "restore = tracing.install(tracing.Tracer())\n"
            "during = {n: getattr(hhcurves, n) for n in hhcurves.__all__}\n"
            "restore()\n"
            "wrapped = [n for n in during if hasattr(during[n], '__wrapped__')]\n"
            "kept = [n for n in wrapped\n"
            "        if getattr(hhcurves, n) is not during[n].__wrapped__]\n"
            "print('check_biharmonic_conditions' in wrapped, kept,"
            " file=sys.stderr)\n" % str(REPO_ROOT / "perfbench"))
        assert err == "True []\n"

    @staticmethod
    def _stderr_after(code):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stderr

    @pytest.mark.parametrize("claim", ["metric-signature", "b3zero-signs"])
    def test_single_claims_leave_numpy_unloaded(self, claim):
        err = self._stderr_after(
            "import sys; from hhcurves import cli; "
            "code = cli.main(['verify', '--claim', %r]); "
            "print(code, 'numpy' in sys.modules, file=sys.stderr)" % claim)
        assert err == "0 False\n"

    def test_b3zero_quadrature_leaves_numpy_unloaded(self):
        # beta=None: β comes from the Gauss–Legendre panels
        err = self._stderr_after(
            "import sys; import hhcurves as hh; "
            "curve = hh.make_b3zero_curve('b3zero-spacelike', "
            "hh.sine_profile(0.5, 0.8, 3.0), (0.0, 1.0)); "
            "curve.tangent_jets(0.6); "
            "print('numpy' in sys.modules, file=sys.stderr)")
        assert err == "False\n"

    def test_verify_loads_neither_numpy_random_nor_polynomial(self):
        err = self._stderr_after(
            "import sys; from hhcurves import cli; "
            "code = cli.main(['verify', '--seed', '7']); "
            "print(code, sorted(m for m in sys.modules if m.startswith("
            "('numpy.random', 'numpy.polynomial'))), file=sys.stderr)")
        assert err == "0 []\n"

    def test_verify_runs_with_scipy_blocked(self, capsys):
        # a None entry in sys.modules makes every scipy import fail
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.modules['scipy'] = None; "
             "from hhcurves import cli; "
             "sys.exit(cli.main(['verify', '--seed', '7']))"],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run_cli(["verify", "--seed", "7"], capsys)
        assert code == 0
        assert proc.stdout == out


class TestInstalledScript:
    def test_console_entry_point(self, installed_copy, tmp_path, capsys):
        tree, bin_dir = installed_copy
        env = _env_without_pythonpath()
        origin = subprocess.run(
            [str(bin_dir / "python"), "-c",
             "import hhcurves; print(hhcurves.__file__)"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert origin.returncode == 0, origin.stderr
        assert Path(origin.stdout.strip()).is_relative_to(tree / "src")
        proc = subprocess.run(
            [str(bin_dir / "hhcurves"), *SCRIPT_ARGV],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "s,x,y,z,T1,T2,T3"
        code, out, _ = run_cli(SCRIPT_ARGV, capsys)
        assert code == 0
        assert proc.stdout == out
