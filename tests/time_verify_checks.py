"""Print the in-process time of each ``verify`` registry check.

Each check runs through ``verify.verify_claim`` with the given seed; the
table shows the best of ``--repeat`` runs per check and their total, then
the process's peak resident memory (``ru_maxrss``) and the ``numpy``
modules the run loaded. pytest does not collect this file (its name does not
start with ``test_``).

Run from the repository root::

    PYTHONPATH=src python tests/time_verify_checks.py --seed 7
"""

import argparse
import resource
import sys
import time

from hhcurves import verify


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    cfg = verify.VerifyConfig(seed=args.seed)
    verify.run_all(cfg)  # warm-up: first-use imports and caches
    total = 0.0
    print("%-34s %10s" % ("check (seed %d, best of %d)" % (args.seed, args.repeat),
                          "seconds"))
    for claim_id in verify.registry_ids():
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            verify.verify_claim(claim_id, cfg)
            best = min(best, time.perf_counter() - start)
        total += best
        print("%-34s %10.4f" % (claim_id, best))
    print("%-34s %10.4f" % ("total", total))
    # ru_maxrss is in KiB on Linux
    print("peak RSS: %.1f MB" % (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
    loaded = sorted({m.split(".")[1] for m in sys.modules
                     if m.startswith("numpy.")})
    print("numpy loaded: %s; submodules: %s" % (
        "numpy" in sys.modules, ", ".join(loaded) or "none"))


if __name__ == "__main__":
    main()
