"""Print the per-call time of each stage of the scalar jet pipeline.

The stages are the finite-difference tangent jets of a coordinate curve, of
a frame curve and of a sampled curve, ``project_unit_jets``, ``point_eval``
and ``frenet_jets``. The curves are copies of a seeded spacelike biharmonic
helix without closed-form derivatives or ``HelixSpec``: two FD-backed, and
one ``from_samples`` table of its coordinates, timed at its interior nodes.
The FD curves are built from plain closed-form callables of the helix's
position and tangent, not from the library curve's own ``point`` and
``tangent``, so that those rows time the stencil pass alone and not the
argument checks of a library evaluator on each stencil call.
The kernels run on the frame curve's jets. The table shows the best of
``--repeat`` passes over ``--points`` seeded parameters (or interior nodes),
in microseconds per call. The last rows time the array ``fsum``,
``_fsum_array``, over 20 sets of seeded float64 addends of each shape
(lanes × addends per lane): 1000 × 4 and 1000 × 6 are the shapes of the
array ``cross`` and ``inner`` in ``verify``'s ``cross-properties`` check, and
801 × 13 is a larger case. pytest does not collect this file (its name does
not start with ``test_``).

Run from the repository root::

    PYTHONPATH=src python tests/time_kernels.py --seed 1
"""

import argparse
import math
import random
import time

import numpy as np

from hhcurves import CoordinateCurve, FDConfig, FrameCurve, _kernels, curves
from hhcurves.families import make_spacelike_biharmonic


def best_us(fn, args, repeat):
    """Best of ``repeat`` passes of ``fn`` over ``args``, in µs per call."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for a in args:
            fn(a)
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / len(args)


def helix_callables(spec):
    """Position and tangent of the helix of ``spec`` (a ``HelixSpec``), as
    plain closed forms: form 0 has ``T = (amp·cosh u, amp·sinh u, tilt)``,
    form 1 swaps cosh and sinh; ``u = a·s + phase``."""
    amp, tilt, a, phase = spec.amp, spec.tilt, spec.slope, spec.phase
    even, odd = (math.cosh, math.sinh) if spec.form == 0 else (math.sinh,
                                                                math.cosh)
    r = amp / a
    lin = 2.0 * (tilt + (1.0 if spec.form == 1 else -1.0) * amp * r)

    def position(s):
        u = a * s + phase
        return (r * odd(u), r * even(u), lin * s)

    def tangent(s):
        u = a * s + phase
        return (amp * even(u), amp * odd(u), tilt)

    return position, tangent


def fsum_inputs(rng, lanes, addends, sets=20):
    """``sets`` lists of ``addends`` float64 arrays of ``lanes`` lanes, with
    magnitudes spread over 2**-60 to 1 as in the addends of exact products."""
    return [list(rng.uniform(-1.0, 1.0, (addends, lanes))
                 * np.exp2(rng.integers(-60, 1, (addends, lanes))))
            for _ in range(sets)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--points", type=int, default=400)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    helix = make_spacelike_biharmonic(rng.uniform(-1.0, 1.0),
                                      phase=rng.uniform(-1.0, 1.0))
    position, tangent = helix_callables(helix.helix)
    coordinate = CoordinateCurve.from_functions(position,
                                                fd=FDConfig(step=0.01))
    frame = FrameCurve(tangent, fd=FDConfig(step=0.001))
    grid = [rng.uniform(-1.0, 1.0) for _ in range(args.points)]
    nodes = [-1.0 + 0.005 * i for i in range(args.points + 8)]
    sampled = CoordinateCurve.from_samples(nodes, map(helix.point, nodes))
    unit_tol = curves.unit_speed_tol(frame)
    geo_tol = curves.geodesic_tol(frame)
    raw = [frame.tangent_jets(s) for s in grid]
    projected = [_kernels.project_unit_jets(j, unit_tol) for j in raw]

    rows = (
        ("coordinate FD tangent_jets", coordinate.tangent_jets, grid),
        ("frame FD tangent_jets", frame.tangent_jets, grid),
        ("sampled tangent_jets", sampled.tangent_jets, nodes[4:-4]),
        ("project_unit_jets",
         lambda j: _kernels.project_unit_jets(j, unit_tol), raw),
        ("point_eval", lambda j: _kernels.point_eval(j, geo_tol), projected),
        ("frenet_jets", lambda j: _kernels.frenet_jets(j, geo_tol), projected),
    )
    np_rng = np.random.default_rng(args.seed)
    rows += tuple(
        ("_fsum_array %dx%d" % shape, _kernels._fsum_array,
         fsum_inputs(np_rng, *shape))
        for shape in ((1000, 4), (1000, 6), (801, 13))
    )
    print("%-28s %10s" % ("stage (seed %d, best of %d)" % (args.seed,
                                                          args.repeat),
                          "us/call"))
    for name, fn, inputs in rows:
        print("%-28s %10.2f" % (name, best_us(fn, inputs, args.repeat)))


if __name__ == "__main__":
    main()
