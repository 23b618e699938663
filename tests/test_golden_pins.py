"""CLI outputs, byte for byte, against digests pinned in ``golden_pins.json``.

Each case runs ``hhcurves.cli.main`` in process and compares its exit code,
the sha256 of its stdout and its stderr with the pinned ones: the ``verify``
reports of three seeds, ``generate`` and ``frenet`` for every ``--family`` on
the default range, and one ``generate`` -> ``frenet --input`` round trip per
b3zero family. The pins hold for the Python and NumPy versions recorded with
them; under others the cases skip. After an intended change of output,
record them again with::

    PYTHONPATH=src python tests/test_golden_pins.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

from hhcurves.cli import main

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "golden_pins.json")

# --family name and the flags it requires
_FAMILIES = (
    ("spacelike", ["--alpha0", "0.5"]),
    ("timelike", ["--nu0", "0.5"]),
    ("spacelike-horizontal", []),
    ("horizontal", []),
    ("timelike-horizontal-helix", ["--m", "1.5"]),
    ("b3zero-spacelike", ["--p", "0.4", "--q", "0.6"]),
    ("b3zero-timelike", ["--p", "0.4", "--q", "0.6"]),
    ("geodesic", []),
)
_ROUNDTRIP_RANGE = "-0.4:0.4:0.002"

# (name, steps): each step an argv, in which "{csv}" stands for a file in a
# scratch directory of the case
CASES = [("verify --seed %d" % seed, [["verify", "--seed", str(seed)]])
         for seed in (7, 123, 12345)]
CASES += [("%s --family %s" % (cmd, name),
           [[cmd, "--family", name] + flags])
          for name, flags in _FAMILIES for cmd in ("generate", "frenet")]
CASES += [("roundtrip %s" % name,
           [["generate", "--family", name] + flags
            + ["--range", _ROUNDTRIP_RANGE, "-o", "{csv}"],
            ["frenet", "--input", "{csv}"]])
          for name, flags in _FAMILIES if name.startswith("b3zero")]


def _run(argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def outcome(steps):
    """The pin of a case: each step's exit code, stdout digest and stderr;
    a file a step writes is digested as the step's stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "curve.csv")
        result = []
        for argv in steps:
            code, out, err = _run([a.replace("{csv}", csv) for a in argv])
            if "-o" in argv:
                with open(csv, encoding="utf-8") as handle:
                    out = handle.read()
            result.append({"exit": code,
                           "stdout_sha256": hashlib.sha256(
                               out.encode("utf-8")).hexdigest(),
                           "stderr": err})
    return result


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def _load():
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_case_is_pinned():
    assert sorted(_load()["pins"]) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,steps", CASES, ids=[c[0] for c in CASES])
def test_output_matches_pin(name, steps):
    pins = _load()
    versions = _versions()
    if {k: pins[k] for k in versions} != versions:
        pytest.skip("pins taken with Python %s and NumPy %s"
                    % (pins["python"], pins["numpy"]))
    assert outcome(steps) == pins["pins"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_pins.py "
                 "--record")
    record = dict(_versions(),
                  pins={name: outcome(steps) for name, steps in CASES})
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
