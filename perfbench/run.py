"""The hhcurves benchmark: seeded workloads timed end to end and per module.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` as it
is, with whichever kernel backend ``import hhcurves`` selects. One client
runs operations in a closed loop: at most one ``hhcurves`` process at a time.
Workloads (``workloads.py`` has their inputs, BENCHMARK.json why each exists):

* ``csv-roundtrip``: ``generate`` to a CSV, then ``frenet --input`` on it
  (one operation is the pair: timed alone, the two kinds would leave the
  median between them);
* ``library-fd``: in-process sweeps of FD-backed curves (``libfd.py``);
* ``verify``: ``hhcurves verify --seed k``, each seed twice; it is also
  where the double-double ``helix_eval`` kernel does most of its work.

Untraced (``--trace 0``), the run sets up three times, runs operations for
``--seconds``, checks every output (``oracles.py``) and prints the
end-to-end metrics. An operation is one CLI invocation, one CSV round trip
or one library-fd curve.

* ``setup_s``: median of three set-ups: a short warm-up invocation for a
  CLI workload; a fresh worker's import, curve building and warm-up sweep
  for ``library-fd``;
* ``startup_s``: median of nine wall times of ``python -m hhcurves.cli
  --help``, probed between operations;
* ``op_s_p50`` / ``op_s_tail``: median and tail of the operations' wall
  times. The tail is the highest percentile with ten samples beyond it, or
  with a quarter of the samples beyond it when a run has fewer than 40
  operations; its percentile and sample count go on the provenance line;
* ``points_per_s``: points evaluated per second of operation wall time
  (a ``verify`` point is one of its 13 claim checks);
* ``rss_peak_mb``: peak resident memory of an operation's process;
* ``ok_ratio``: operations that exited 0 and passed their checks, over
  operations attempted (its complement is the failed ratio).

Traced (``--trace 1``), the run takes one cycle of operations and runs each
one untraced and then traced (``tracing.py``), requires identical outputs
from both, and prints the per-layer metrics of ``PER_LAYER``.

The last line of standard output is the result; the line before it records
provenance: versions, backend, git revision, CPUs, seed and every input.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import oracles
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
STARTUP_PROBES = 9

CLAIMS = (
    "metric-signature", "connection-table", "curvature-table",
    "cross-properties", "bitension-conditions", "spacelike-family",
    "timelike-family", "b3zero-signs", "b3zero-k2", "helix-lemma",
    "horizontal-family", "horizontal-slope-printed",
    "timelike-horizontal-nonexistence",
)
KERNELS = ("helix_eval", "point_eval", "frenet_jets", "project_unit_jets")

END_TO_END = (
    ("setup_s", "s"),
    ("startup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("points_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# Per-layer metrics of a traced cycle, named after the modules of
# src/hhcurves (``kernels`` is ``_kernels``: a metric name starts with a
# letter). Times ending in _s are per operation of the cycle; counts are
# totals over the cycle and repeat exactly for a seed. A layer a workload
# never reaches reports 0.
PER_LAYER = (
    (("hhcurves.import_s", "s"),
     ("cli.self_s", "s"), ("cli.rows_out", "count"),
     ("cli.bytes_out", "count"), ("cli.format_us_per_row", "us"))
    + tuple(("verify.check_s." + c, "s") for c in CLAIMS)
    + tuple(("biharmonic.%s.%s" % (f, m), u)
            for f in ("residual_norms", "check_biharmonic_conditions")
            for m, u in (("calls", "count"), ("self_s", "s"),
                         ("us_per_point", "us")))
    + (("frenet.points", "count"),
       ("frenet.point_data.self_us_per_call", "us"),
       ("frenet.compute_frenet.self_us_per_call", "us"),
       ("frenet.frenet_over_grid.self_s", "s"),
       ("frenet.degenerate_points", "count"),
       ("frenet.degenerate_ratio", "ratio"))
    + tuple(("kernels.%s.%s" % (k, m), u) for k in KERNELS
            for m, u in (("calls", "count"), ("us_per_call", "us"),
                         ("busy_s", "s")))
    + (("kernels.calls_per_point", "ratio"),)
    + tuple(("curves.tangent_jets.self_us_per_call." + b, "us")
            for b in ("fd", "samples", "analytic"))
    + (("curves.fd_callbacks_per_point.coordinate", "count"),
       ("curves.fd_callbacks_per_point.frame", "count"),
       ("curves.read_curve_csv.rows_per_s", "1/s"),
       ("curves.integrate_frame_curve.steps_per_s", "1/s"),
       ("curves.integrate_frame_curve.tangent_calls_per_step", "count"),
       ("curves.samples.k1_dev_max", "1"),
       ("curves.samples.k2_dev_max", "1"),
       ("curves.fd.residual_direct_max", "1"),
       ("families.construct_us", "us"),
       ("families.quad_calls_per_point", "ratio"),
       ("families.quad_s", "s"),
       ("families.scipy_import_s", "s"))
    + tuple(("frame.%s.%s" % (f, m), u) for f in ("inner", "cross", "mixed")
            for m, u in (("calls", "count"), ("busy_s", "s")))
    + (("connection.busy_s", "s"),
       ("trace.overhead_ratio", "ratio"))
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, no program to measure)."""


def tail(values):
    """(value, percentile, samples beyond it) of the tail of ``values``."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


class Checkout:
    """The checkout under test: paths, environment and child processes."""

    def __init__(self, root, workload):
        self.root = root
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "hhcurves", "__init__.py")):
            raise BenchmarkError("no hhcurves sources under %s" % self.src)
        self.work = os.path.join(root, ".perfbench-work",
                                 "%s-%d" % (workload, os.getpid()))
        os.makedirs(self.work)
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = self.src + (os.pathsep + path if path else "")

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if not os.listdir(parent):
            os.rmdir(parent)

    def path(self, name):
        return os.path.join(self.work, name)

    def run(self, args):
        """Run this Python with ``args`` in the work directory; wait for it.

        Returns (wall seconds, exit code, peak RSS in MB, stderr text).
        """
        err_path = self.path("stderr.txt")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, cwd=self.work,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8", errors="replace") as err:
            stderr = err.read()
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, stderr

    def cli(self, argv, summary=None):
        if summary is None:
            return self.run(["-m", "hhcurves.cli"] + argv)
        return self.run([os.path.join(BENCH_DIR, "traced_cli.py"), summary] + argv)

    def read(self, name):
        try:
            with open(self.path(name), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def libfd(self, seed, first, seconds, count, trace):
        config = self.path("libfd-config.json")
        result = self.path("libfd-result.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump({"seed": seed, "first": first, "seconds": seconds,
                       "count": count, "trace": trace}, handle)
        wall, code, rss, stderr = self.run(
            [os.path.join(BENCH_DIR, "libfd.py"), config, result])
        if code != 0:
            raise BenchmarkError("library-fd worker exited %d: %s"
                                 % (code, stderr.strip()[-2000:]))
        with open(result, encoding="utf-8") as handle:
            return json.load(handle)

    def backend(self):
        probe = self.path("backend.txt")
        code = "import hhcurves, sys; open(sys.argv[1], 'w').write(hhcurves.BACKEND)"
        self.run(["-c", code, probe])
        return (self.read("backend.txt") or b"unknown").decode()


def check_output(step, code, stderr, text, previous):
    """Problems with one invocation's result (empty when it is right)."""
    if code != 0:
        return ["exit code %d: %s" % (code, stderr.strip()[-500:])], {}
    if text is None:
        return ["no output file %s" % step["output"]], {}
    text = text.decode("utf-8")
    command = step["argv"][0]
    if command == "verify":
        return oracles.check_verify_json(text, step["check"], previous)
    if command == "generate":
        return oracles.check_generate_csv(text, step["check"], step["rows"])
    return oracles.check_frenet_csv(text, step["check"], step["rows"])


class CliRunner:
    """Runs the CLI operations of a workload and checks their outputs."""

    def __init__(self, checkout, workload, seed):
        self.checkout = checkout
        self.workload = workload
        self.seed = seed
        self.reports = {}
        self.failures = []
        self.accuracy = {}
        self.outputs = []

    def setup(self):
        start = time.perf_counter()
        self.checkout.cli(workloads.warmup_argv(self.workload, self.seed))
        return time.perf_counter() - start

    def op(self, i, trace_prefix=None):
        """Run operation ``i``; returns (op, wall s, peak RSS MB, passed)."""
        op = workloads.operation(self.workload, self.seed, i)
        wall, rss, problems = 0.0, 0.0, []
        for k, step in enumerate(op["steps"]):
            summary = None if trace_prefix is None else "%s-%d.json" % (trace_prefix, k)
            step_wall, code, step_rss, stderr = self.checkout.cli(step["argv"], summary)
            wall += step_wall
            rss = max(rss, step_rss)
            text = self.checkout.read(step["output"])
            previous = None
            if self.workload == "verify":
                self.reports[i] = text
                repeat_of = step["check"]["repeat_of"]
                if repeat_of is not None and self.reports.get(repeat_of) is not None:
                    previous = self.reports[repeat_of].decode("utf-8")
            found, accuracy = check_output(step, code, stderr, text, previous)
            problems += found
            for key, value in accuracy.items():
                self.accuracy[key] = max(self.accuracy.get(key, 0.0), value)
            self.outputs.append(text or b"")
        if problems:
            self.failures.append({"op": i, "problems": problems[:5]})
        return op, wall, rss, not problems


def provenance(checkout, workload, seed, backend, extra):
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    git_rev = None
    if os.path.exists(os.path.join(checkout.root, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout.root,
                                 capture_output=True, text=True, timeout=10)
            git_rev = rev.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    info = {
        "provenance": {
            "workload": workload,
            "seed": seed,
            "backend": backend,
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "git_rev": git_rev,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        }
    }
    info.update(extra)
    return info


def timed_run(checkout, workload, seed, seconds):
    """Untraced run: the end-to-end metrics."""
    op_s, points, rss, ok, inputs, startup = [], [], [], [], [], []

    def probe_startup():
        startup.append(checkout.cli(["--help"])[0])

    if workload == "library-fd":
        # one worker per set-up, each running its share of the operations,
        # with start-up probes between them
        setups, failures = [], []
        for _ in range(SETUP_REPEATS):
            result = checkout.libfd(seed, len(op_s), seconds / SETUP_REPEATS,
                                   None, False)
            setups.append(result["setup_s"])
            failed_ops = {f["op"] for f in result["failures"]}
            ok += [op["index"] not in failed_ops for op in result["inputs"]]
            op_s += result["op_s"]
            points += result["points"]
            inputs += result["inputs"]
            failures += result["failures"]
            rss.append(result["rss_mb"])
            for _ in range(STARTUP_PROBES // SETUP_REPEATS):
                probe_startup()
        backend = result["backend"]
    else:
        runner = CliRunner(checkout, workload, seed)
        setups = [runner.setup() for _ in range(SETUP_REPEATS)]
        began = last_probe = time.perf_counter()
        i = 0
        while time.perf_counter() - began < seconds:
            op, wall, op_rss, passed = runner.op(i)
            op_s.append(wall)
            points.append(op["points"])
            rss.append(op_rss)
            ok.append(passed)
            inputs.append(op)
            i += 1
            if time.perf_counter() - last_probe >= seconds / STARTUP_PROBES:
                probe_startup()
                last_probe = time.perf_counter()
        failures = runner.failures
        backend = checkout.backend()
    while len(startup) < STARTUP_PROBES:
        probe_startup()
    tail_s, tail_pct, beyond = tail(op_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "startup_s": statistics.median(startup),
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": tail_s,
        "points_per_s": sum(points) / sum(op_s),
        "rss_peak_mb": max(rss),
        "ok_ratio": sum(ok) / len(ok),
    }
    extra = {
        "ops": len(op_s),
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_beyond": beyond,
        "op_s_samples": op_s,
        "setup_s_samples": setups,
        "startup_s_samples": startup,
        "failures": failures,
        "inputs": inputs,
    }
    return metrics, len(ok), len(ok) - sum(ok), extra, backend


def traced_cli_cycle(checkout, workload, seed):
    """One cycle, untraced and traced; returns what per_layer() needs."""
    cycle = workloads.cycle_length(workload)
    CliRunner(checkout, workload, seed).setup()
    plain = CliRunner(checkout, workload, seed)
    traced = CliRunner(checkout, workload, seed)
    summaries, plain_s, traced_s, inputs = [], 0.0, 0.0, []
    for i in range(cycle):
        # each operation untraced, then traced right after it, so the
        # overhead ratio compares runs made at the same machine speed
        plain_s += plain.op(i)[1]
        prefix = checkout.path("trace-%d" % i)
        op, wall, _, _ = traced.op(i, prefix)
        traced_s += wall
        inputs.append(op)
        for k in range(len(op["steps"])):
            with open("%s-%d.json" % (prefix, k), encoding="utf-8") as handle:
                summaries.append(json.load(handle))
    failures = plain.failures + traced.failures
    if plain.outputs != traced.outputs:
        failures.append({"op": None, "problems": ["traced output differs"]})
    steps = [step for op in inputs for step in op["steps"]]
    context = {
        "ops": cycle,
        "import_s": [s["import_s"] for s in summaries],
        "overhead": traced_s / plain_s,
        "rows_out": sum(max(out.count(b"\n") - 1, 0) for out in traced.outputs),
        "bytes_out": sum(len(out) for out in traced.outputs),
        "csv_rows_read": sum(step.get("reads", 0) for step in steps),
        "accuracy": traced.accuracy,
        "callbacks": {},
    }
    return tracing.merge(summaries), context, failures, cycle, inputs


def traced_libfd_cycle(checkout, seed):
    cycle = workloads.cycle_length("library-fd")
    result = checkout.libfd(seed, 0, 0, cycle, True)
    context = {
        "ops": cycle,
        "import_s": [result["import_s"]],
        "overhead": sum(result["traced_op_s"]) / sum(result["op_s"]),
        "rows_out": 0,
        "bytes_out": 0,
        "csv_rows_read": 0,
        "accuracy": result["accuracy"],
        "callbacks": result["callbacks"],
    }
    return (result["trace"], context, result["failures"], cycle,
            result["inputs"], result["backend"])


def per_layer(summary, ctx):
    """Per-layer metrics from merged span summaries and the cycle's context."""
    names, layers, counts = summary["names"], summary["layers"], summary["counts"]
    ops = ctx["ops"]

    def row(name):
        return names.get(name, [0, 0.0, 0.0, 0, 0, 0.0])

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    cli_self = row("cli.main")[2]
    points = row("frenet.point_data")[0] + row("frenet.compute_frenet")[0]
    out["hhcurves.import_s"] = statistics.median(ctx["import_s"])
    out["cli.self_s"] = cli_self / ops
    out["cli.rows_out"] = ctx["rows_out"]
    out["cli.bytes_out"] = ctx["bytes_out"]
    out["cli.format_us_per_row"] = ratio(cli_self, ctx["rows_out"]) * 1e6
    for claim in CLAIMS:
        out["verify.check_s." + claim] = row("verify.check." + claim)[1] / ops
    for fn in ("residual_norms", "check_biharmonic_conditions"):
        calls, total, self_s = row("biharmonic." + fn)[:3]
        out["biharmonic.%s.calls" % fn] = calls
        out["biharmonic.%s.self_s" % fn] = self_s / ops
        out["biharmonic.%s.us_per_point" % fn] = ratio(
            total, counts.get("biharmonic.%s.points" % fn, 0)) * 1e6
    degenerate = row("frenet.point_data")[3] + row("frenet.compute_frenet")[3]
    out["frenet.points"] = points
    for fn in ("point_data", "compute_frenet"):
        calls, _, self_s = row("frenet." + fn)[:3]
        out["frenet.%s.self_us_per_call" % fn] = ratio(self_s, calls) * 1e6
    out["frenet.frenet_over_grid.self_s"] = row("frenet.frenet_over_grid")[2] / ops
    out["frenet.degenerate_points"] = degenerate
    out["frenet.degenerate_ratio"] = ratio(degenerate, points)
    kernel_calls = 0
    for k in KERNELS:
        calls, total = row("_kernels." + k)[:2]
        kernel_calls += calls
        out["kernels.%s.calls" % k] = calls
        out["kernels.%s.us_per_call" % k] = ratio(total, calls) * 1e6
        out["kernels.%s.busy_s" % k] = total / ops
    out["kernels.calls_per_point"] = ratio(kernel_calls, points)
    for backing in ("fd", "samples", "analytic"):
        calls, _, self_s = row("curves.tangent_jets." + backing)[:3]
        out["curves.tangent_jets.self_us_per_call." + backing] = ratio(self_s, calls) * 1e6
    for backing in ("coordinate", "frame"):
        made, pts = ctx["callbacks"].get(backing, (0, 0))
        out["curves.fd_callbacks_per_point." + backing] = ratio(made, pts)
    out["curves.read_curve_csv.rows_per_s"] = ratio(
        ctx["csv_rows_read"], row("curves.read_curve_csv")[1])
    steps = counts.get("curves.integrate_frame_curve.steps", 0)
    out["curves.integrate_frame_curve.steps_per_s"] = ratio(
        steps, row("curves.integrate_frame_curve")[1])
    out["curves.integrate_frame_curve.tangent_calls_per_step"] = ratio(
        counts.get("curves.integrate_frame_curve.tangent", 0), steps)
    accuracy = ctx["accuracy"]
    out["curves.samples.k1_dev_max"] = accuracy.get("k1_dev", 0.0)
    out["curves.samples.k2_dev_max"] = accuracy.get("k2_dev", 0.0)
    out["curves.fd.residual_direct_max"] = accuracy.get("fd_residual_direct", 0.0)
    makers = [v for k, v in names.items() if k.startswith("families.make_")]
    scipy_import = row("families.scipy_import")
    out["families.construct_us"] = ratio(
        sum(v[5] for v in makers) - scipy_import[1], sum(v[4] for v in makers)) * 1e6
    out["families.quad_calls_per_point"] = ratio(row("families.quad")[0], points)
    out["families.quad_s"] = row("families.quad")[1] / ops
    out["families.scipy_import_s"] = ratio(scipy_import[1], scipy_import[0])
    for fn in ("inner", "cross", "mixed"):
        calls, total = row("frame." + fn)[:2]
        out["frame.%s.calls" % fn] = calls
        out["frame.%s.busy_s" % fn] = total / ops
    out["connection.busy_s"] = layers.get("connection", [0, 0.0])[1] / ops
    out["trace.overhead_ratio"] = ctx["overhead"]
    return out


def traced_run(checkout, workload, seed):
    """Traced run: the per-layer metrics of one cycle."""
    if workload == "library-fd":
        summary, ctx, failures, cycle, inputs, backend = traced_libfd_cycle(checkout, seed)
    else:
        summary, ctx, failures, cycle, inputs = traced_cli_cycle(checkout, workload, seed)
        backend = checkout.backend()
    values = per_layer(summary, ctx)
    metrics = {name: values[name] for name, _ in PER_LAYER}
    failed = min(cycle, len({f["op"] for f in failures}))
    extra = {"ops": cycle, "failures": failures, "inputs": inputs,
             "spans": summary["names"], "counts": summary["counts"]}
    return metrics, cycle, failed, extra, backend


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        checkout = Checkout(os.getcwd(), args.workload)
    except BenchmarkError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        if args.trace:
            values, attempted, failed, extra, backend = traced_run(
                checkout, args.workload, args.seed)
            units = dict(PER_LAYER)
        else:
            values, attempted, failed, extra, backend = timed_run(
                checkout, args.workload, args.seed, args.seconds)
            units = dict(END_TO_END)
        info = provenance(checkout, args.workload, args.seed, backend, extra)
    except BenchmarkError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        checkout.close()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
