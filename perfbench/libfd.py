"""The ``library-fd`` workload: in-process library calls on FD-backed curves.

Usage: ``python3 perfbench/libfd.py CONFIG.json RESULT.json``

``CONFIG.json`` holds ``seed``, ``first``, ``seconds``, ``count`` and
``trace``. The worker imports ``hhcurves``, builds the warm-up curve and
sweeps it (that is its set-up), then sweeps operation ``first``,
``first + 1``, ... of the seeded sequence: ``count`` of them when ``count``
is set, otherwise until ``seconds`` have passed. With ``trace`` each sweep is repeated under the tracer, and the two
must return identical results. One operation builds one curve from benchmark-owned closed-form
callables, with no derivatives and no ``HelixSpec``, and runs
``check_biharmonic_conditions`` and ``frenet_over_grid`` over its grid.
The callables count their own calls, which gives finite-difference
callbacks per point.
"""

import json
import math
import resource
import sys
import time

import oracles
import workloads


def helix_callables(curve, calls):
    """Position and tangent of a constant-tilt helix, counting their calls.

    Form 0 has ``T = (amp·cosh u, amp·sinh u, tilt)``, form 1 swaps cosh and
    sinh in the first two components; ``u = a·s + phase``. The position is
    the integral of ``x' = T1``, ``y' = T2``, ``z' = 2·T3 − 2·T1·y + 2·T2·x``.
    """
    form, amp, tilt = curve["form"], curve["amp"], curve["tilt"]
    a, phase = curve["slope"], curve["phase"]
    c1, c2, c3 = curve["offsets"]
    r = amp / a
    sign = 1.0 if form == 1 else -1.0
    lin = 2.0 * tilt + sign * 2.0 * amp * r

    def position(s):
        calls[0] += 1
        u = a * s + phase
        ch, sh = math.cosh(u), math.sinh(u)
        if form == 0:
            return (r * sh + c1, r * ch + c2,
                    lin * s + 2.0 * r * (c1 * ch - c2 * sh) + c3)
        return (r * ch + c1, r * sh + c2,
                lin * s + 2.0 * r * (c1 * sh - c2 * ch) + c3)

    def tangent(s):
        calls[0] += 1
        u = a * s + phase
        ch, sh = math.cosh(u), math.sinh(u)
        if form == 0:
            return (amp * ch, amp * sh, tilt)
        return (amp * sh, amp * ch, tilt)

    return position, tangent


def build_curve(hh, curve, calls):
    position, tangent = helix_callables(curve, calls)
    step = curve["fd_step"]
    fd = hh.FDConfig() if step is None else hh.FDConfig(step=step)
    if curve["backing"] == "coordinate":
        return hh.CoordinateCurve.from_functions(position, fd=fd)
    return hh.FrameCurve(tangent, fd=fd)


def sweep(hh, op, calls):
    """One operation; returns the values the oracle checks."""
    start, step, n = op["grid"]
    grid = [start + k * step for k in range(n)]
    curve = build_curve(hh, op["curve"], calls)
    report = hh.check_biharmonic_conditions(curve, grid)
    summary = hh.frenet_over_grid(curve, grid)
    return report.verdict, report.residual_direct, summary.k1_mean, summary.k2_mean


def main():
    config_path, result_path = sys.argv[1], sys.argv[2]
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    seed = config["seed"]

    start = time.perf_counter()
    import hhcurves as hh
    import_s = time.perf_counter() - start
    warmup = workloads.operation("library-fd", seed, 0)
    warmup["grid"][2] = 101
    sweep(hh, warmup, [0])
    setup_s = time.perf_counter() - start
    tracer = None
    if config["trace"]:
        import tracing

        tracer = tracing.Tracer()

    op_s, traced_s, points, failures, inputs = [], [], [], [], []
    accuracy = {}
    callbacks = {}
    began = time.perf_counter()
    i = config["first"]
    while (i - config["first"] < config["count"] if config["count"] is not None
           else time.perf_counter() - began < config["seconds"]):
        op = workloads.operation("library-fd", seed, i)
        calls = [0]
        t0 = time.perf_counter()
        verdict, residual, k1, k2 = sweep(hh, op, calls)
        op_s.append(time.perf_counter() - t0)
        if tracer is not None:
            # the same sweep again, traced, right after the untraced one
            restore = tracing.install(tracer)
            t0 = time.perf_counter()
            traced = sweep(hh, op, [0])
            traced_s.append(time.perf_counter() - t0)
            restore()
            if traced != (verdict, residual, k1, k2):
                failures.append({"op": i, "problems": ["traced results differ"]})
        points.append(op["points"])
        inputs.append(op)
        made = callbacks.setdefault(op["curve"]["backing"], [0, 0])
        made[0] += calls[0]
        made[1] += op["points"]
        problems, acc = oracles.check_library(op["curve"], verdict, residual, k1, k2)
        if problems:
            failures.append({"op": i, "problems": problems})
        for key, value in acc.items():
            accuracy[key] = max(accuracy.get(key, 0.0), value)
        i += 1

    result = {
        "backend": hh.BACKEND,
        "import_s": import_s,
        "setup_s": setup_s,
        "op_s": op_s,
        "traced_op_s": traced_s,
        "points": points,
        "failures": failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": accuracy,
        "callbacks": callbacks,
        "inputs": inputs,
        "trace": tracer.summary() if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
