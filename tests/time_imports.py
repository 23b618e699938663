"""Print the start-up cost of each ``hhcurves`` entry point.

For each entry point the table shows the median wall time of ``--runs``
subprocess runs, taken in rounds that run every entry point once, and the
``hhcurves`` modules the entry point loads (from one more run that lists
them at exit; a CLI entry point is run there through ``cli.main``, which
loads what ``-m hhcurves.cli`` loads). pytest does not collect this file (its
name does not start with ``test_``).

Whether ``.pyc`` files exist changes every number here. To compare two
trees, give both the same state: clear their ``__pycache__`` directories, or
run ``python -m compileall -q src`` in each.

Run from the repository root::

    PYTHONPATH=src python tests/time_imports.py --runs 21
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# At exit, write the loaded hhcurves modules as the last line of stderr.
_LIST_MODULES = (
    "import atexit, sys\n"
    "atexit.register(lambda: sys.stderr.write('\\n' + ' '.join(sorted("
    "m for m in sys.modules if m.split('.')[0] == 'hhcurves')) + '\\n'))\n"
)


def entry_points(work):
    """(label, code for -c, or None; CLI arguments, or None)."""
    generated = os.path.join(work, "generated.csv")
    sweep_input = os.path.join(work, "input.csv")
    return [
        ("import hhcurves", "import hhcurves", None),
        ("hhcurves.FDConfig", "import hhcurves; hhcurves.FDConfig", None),
        ("cli --help", None, ["--help"]),
        ("generate, 100 rows", None,
         ["generate", "--family", "spacelike", "--alpha0", "0.5",
          "--range", "0:0.099:0.001", "-o", generated]),
        ("frenet --input, 801 rows", None,
         ["frenet", "--input", sweep_input, "-o",
          os.path.join(work, "frenet.csv")]),
        ("verify --claim b3zero-signs", None,
         ["verify", "--claim", "b3zero-signs", "-o",
          os.path.join(work, "report.json")]),
    ]


def run(argv, env):
    proc = subprocess.run([sys.executable] + argv, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit("failed (%d): %s\n%s" % (proc.returncode,
                                                  " ".join(argv), proc.stderr))
    return proc.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=11)
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as work:
        run(["-m", "hhcurves.cli", "generate", "--family", "spacelike",
             "--alpha0", "0.5", "--range", "-0.4:0.4:0.001",
             "-o", os.path.join(work, "input.csv")], env)
        entries = entry_points(work)
        times = {label: [] for label, _, _ in entries}
        for _ in range(args.runs):
            for label, code, cli_args in entries:
                child = (["-c", code] if code is not None
                         else ["-m", "hhcurves.cli"] + cli_args)
                start = time.perf_counter()
                run(child, env)
                times[label].append(time.perf_counter() - start)
        print("%-28s %9s  %s" % ("entry point (median of %d)" % args.runs,
                                 "seconds", "hhcurves modules loaded"))
        for label, code, cli_args in entries:
            if code is None:
                code = ("import sys\nfrom hhcurves.cli import main\n"
                        "sys.exit(main(%r))" % (cli_args,))
            listed = run(["-c", _LIST_MODULES + code], env)
            modules = listed.splitlines()[-1].split()
            names = [m.partition(".")[2] or m for m in modules]
            print("%-28s %9.4f  %d: %s" % (
                label, statistics.median(times[label]), len(modules),
                ", ".join(names)))


if __name__ == "__main__":
    main()
