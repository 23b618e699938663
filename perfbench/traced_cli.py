"""Run one ``hhcurves`` command with every module traced.

Usage: ``python3 perfbench/traced_cli.py SUMMARY.json ARGS...``

Times ``import hhcurves`` in this fresh interpreter, installs the tracer,
runs ``hhcurves.cli.main(ARGS)`` and writes the span summary to
``SUMMARY.json``. The exit code is the command's.
"""

import json
import sys
import time


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import hhcurves
    import_s = time.perf_counter() - start
    import hhcurves.cli

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return hhcurves.cli.main(argv)
    finally:
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)


if __name__ == "__main__":
    sys.exit(main())
