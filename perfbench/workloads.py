"""Seeded inputs of the benchmark workloads.

Every operation is a plain dict that can be written to JSON, so a run can be
replayed from its provenance line. Operation ``i`` of a workload draws its
parameters from ``random.Random`` seeded with the seed, the workload and
``i``, so the same seed
always gives the same sequence, and a prefix of the sequence (the traced
cycle) never depends on how many operations a timed run gets through.

A CLI operation has ``steps``: the ``hhcurves`` invocations it runs one
after another (on ``csv-roundtrip`` a ``generate`` and the ``frenet
--input`` that reads its CSV). In a step, ``argv`` follows the command name,
``output`` names the file it writes in the work directory and ``check``
holds what the oracle needs to judge that file. A ``library-fd`` operation
has ``curve``, the benchmark-owned closed-form callables ``libfd.py``
builds, and ``grid`` as (start, step, count).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("csv-roundtrip", "library-fd", "verify")

# Family patterns; one traced cycle runs each once.
_CSV_CYCLE = (
    "b3zero-spacelike", "spacelike", "b3zero-timelike", "timelike",
    "horizontal", "timelike-horizontal-helix", "geodesic",
)
# (backing, family, FD step). Two coordinate curves (29 position callbacks
# a point) to each frame curve (19 tangent callbacks), so the median
# operation is never split between the two kinds. The steps keep rounding in
# the callbacks small; the entry without a step uses FDConfig's default,
# whose known amplification (direct residuals near 1e4 and a wrong verdict)
# is reported, not checked.
_LIB_CYCLE = (
    ("coordinate", "spacelike", 0.01), ("frame", "timelike", 0.001),
    ("coordinate", "horizontal", 0.01), ("coordinate", "flat", 0.01),
    ("frame", "spacelike", 0.001), ("coordinate", "timelike", 0.01),
    ("coordinate", "horizontal", None), ("frame", "flat", 0.001),
    ("coordinate", "spacelike", 0.01),
)

CSV_ROWS = 801
LIB_POINTS = 801
# Sample spacings of the generated CSVs. The frenet --input stencils amplify
# rounding in the samples by about spacing**-3 times the size of the
# coordinates, so ranges stay short: 800 steps from where beta is 0.
CSV_SPACINGS = (0.0005, 0.001, 0.002)


def cycle_length(workload):
    """Number of operations in one traced cycle of ``workload``."""
    return {
        "csv-roundtrip": len(_CSV_CYCLE),
        "library-fd": len(_LIB_CYCLE),
        "verify": 2,
    }[workload]


def _flag(name, value):
    # "--name=value": argparse would take a value such as -5e-05 that
    # follows the flag as another option
    return "--%s=%r" % (name, float(value))


def _sign(rng):
    return 1.0 if rng.random() < 0.5 else -1.0


def _helix_shape(rng, family):
    """Seeded family parameters with the closed-form amp and tilt of T."""
    if family == "spacelike":
        alpha0 = rng.uniform(-1.0, 1.0)
        return {"alpha0": alpha0}, math.cosh(alpha0), math.sinh(alpha0)
    if family == "timelike":
        nu0 = _sign(rng) * rng.uniform(0.3, 1.2)
        return {"nu0": nu0}, math.sinh(nu0), math.cosh(nu0)
    if family == "horizontal":
        return {}, 1.0, 0.0
    raise ValueError(family)


def _family_args(rng, family):
    """CLI flags and oracle expectations for a closed-form family member."""
    args = []
    check = {"family": family}
    if family == "timelike-horizontal-helix":
        m = _sign(rng) * rng.uniform(0.4, 2.0)
        args.append(_flag("m", m))
        check["m"] = m
    elif family == "geodesic":
        kind = rng.randrange(3)
        t = rng.uniform(-1.0, 1.0)
        if kind == 0:
            direction = (0.0, 0.0, _sign(rng))
        elif kind == 1:
            direction = (_sign(rng) * math.cosh(t), math.sinh(t), 0.0)
        else:
            direction = (math.sinh(t), _sign(rng) * math.cosh(t), 0.0)
        args += ["--direction", ",".join(repr(c) for c in direction)]
        check["direction"] = direction
        return args, check
    else:
        params, amp, tilt = _helix_shape(rng, family)
        branch = 1 if rng.random() < 0.5 else -1
        args += [_flag(key, value) for key, value in params.items()]
        args += ["--branch", "+" if branch == 1 else "-",
                 _flag("phase", rng.uniform(-1.0, 1.0))]
        check.update(amp=amp, tilt=tilt, branch=branch)
    args += [_flag(name, rng.uniform(-1.0, 1.0)) for name in ("c1", "c2", "c3")]
    return args, check


def _range(start, step, n):
    stop = start + n * step
    return "%.4f:%.4f:%r" % (start, stop, step)


def _csv_op(rng, i):
    family = _CSV_CYCLE[i % len(_CSV_CYCLE)]
    spacing = CSV_SPACINGS[i % len(CSV_SPACINGS)]
    span = (CSV_ROWS - 1) * spacing
    if family.startswith("b3zero"):
        # beta grows from 0 at the start of the range, and the tangent with
        # cosh(beta): small profiles keep the samples well conditioned
        p = rng.uniform(0.3, 0.8)
        q = _sign(rng) * rng.uniform(0.3, 0.6)
        args = [_flag("p", p), _flag("q", q)]
        check = {"family": family, "p": p, "q": q}
        start = 0.0
    else:
        args, check = _family_args(rng, family)
        start = round(rng.uniform(-0.2, 0.2) - span / 2.0, 3)
    check["spacing"] = spacing
    samples = "curve-%d.csv" % i
    frenet_out = "frenet-%d.csv" % i
    grid = _range(start, spacing, CSV_ROWS - 1)
    interior = CSV_ROWS - 8  # rows with a full Richardson stencil
    generate = {
        "argv": ["generate", "--family", family] + args
        + ["--range", grid, "-o", samples],
        "output": samples,
        "check": dict(check, stage="generate"),
        "rows": CSV_ROWS,
    }
    frenet = {
        "argv": ["frenet", "--input", samples, "-o", frenet_out],
        "output": frenet_out,
        "check": dict(check, stage="frenet"),
        "rows": interior,
        "reads": CSV_ROWS,
    }
    return {"steps": [generate, frenet], "points": interior}


def _lib_op(rng, i):
    backing, family, fd_step = _LIB_CYCLE[i % len(_LIB_CYCLE)]
    if family == "flat":
        m = _sign(rng) * rng.uniform(0.4, 1.5)
        curve = {"family": family, "form": 1, "amp": 1.0, "tilt": 0.0,
                 "slope": m, "phase": 0.0}
    else:
        if family == "spacelike":
            alpha0 = rng.uniform(-0.5, 0.5)
            amp, tilt = math.cosh(alpha0), math.sinh(alpha0)
        elif family == "timelike":
            nu0 = _sign(rng) * rng.uniform(0.3, 0.8)
            amp, tilt = math.sinh(nu0), math.cosh(nu0)
        else:
            amp, tilt = 1.0, 0.0
        root = math.sqrt(tilt * tilt + 4.0 * amp * amp)
        slope = tilt + root if rng.random() < 0.5 else tilt - root
        curve = {"family": family, "form": 0, "amp": amp, "tilt": tilt,
                 "slope": slope, "phase": rng.uniform(-0.5, 0.5)}
    curve["backing"] = backing
    curve["offsets"] = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    curve["fd_step"] = fd_step
    start = round(rng.uniform(-1.0, -0.5), 3)
    # each grid point is evaluated twice: once per library call
    return {"curve": curve, "grid": [start, 0.00125, LIB_POINTS],
            "points": 2 * LIB_POINTS}


def _verify_op(seed, i):
    # consecutive pairs share a seed, so every second report can be compared
    # byte for byte with the one before it
    k = random.Random("%d:verify:%d" % (seed, i // 2)).randrange(1, 1 << 30)
    out = "verify-%d.json" % i
    step = {"argv": ["verify", "--seed", str(k), "-o", out], "output": out,
            "check": {"seed": k, "repeat_of": i - 1 if i % 2 else None}}
    return {"steps": [step], "points": 13}


def operation(workload, seed, i):
    """Operation ``i`` of ``workload`` for ``seed``."""
    rng = random.Random("%d:%s:%d" % (seed, workload, i))
    if workload == "verify":
        op = _verify_op(seed, i)
    elif workload == "csv-roundtrip":
        op = _csv_op(rng, i)
    elif workload == "library-fd":
        op = _lib_op(rng, i)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    op["index"] = i
    return op


def warmup_argv(workload, seed):
    """Arguments of the short invocation a CLI workload warms up with."""
    if workload == "verify":
        # loads the same modules as a full run, SciPy included, in about a
        # quarter of the time
        return ["verify", "--claim", "b3zero-signs", "--seed", str(seed),
                "-o", "warmup.json"]
    argv = list(operation(workload, seed, 0)["steps"][0]["argv"])
    k = argv.index("--range") + 1
    start, _, step = argv[k].split(":")
    argv[k] = _range(float(start), float(step), 100)
    return argv
