"""The library names the benchmark harness under ``perfbench/`` calls.

``perfbench/tracing.py`` wraps functions by name and ``perfbench/libfd.py``
builds FD curves through the public API. A name removed from the library
would otherwise fail only the benchmark's own slow tests.
"""

import importlib
import importlib.util
import math
import pathlib
import sys

import pytest

import hhcurves as hh

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    """Import ``perfbench/<name>.py`` by path, with its siblings importable."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for sibling in ("oracles", "workloads", "tracing", "libfd"):
        monkeypatch.delitem(sys.modules, sibling, raising=False)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table, module", [
    ("_KERNELS", "_kernels"),
    ("_FRENET", "frenet"),
    ("_BIHARMONIC", "biharmonic"),
    ("_FRAME", "frame"),
    ("_CONNECTION", "connection"),
])
def test_every_traced_name_exists(table, module, monkeypatch):
    tracing = _load("tracing", monkeypatch)
    target = importlib.import_module("hhcurves." + module)
    names = getattr(tracing, table)
    assert names
    for name in names:
        assert callable(getattr(target, name, None)), (module, name)


@pytest.mark.parametrize("index, backing", [(0, "coordinate"), (1, "frame")])
def test_library_fd_sweep_runs(index, backing, monkeypatch):
    # CoordinateCurve.from_functions or FrameCurve with fd=FDConfig(...),
    # then check_biharmonic_conditions and frenet_over_grid's k1_mean and
    # k2_mean
    libfd = _load("libfd", monkeypatch)
    op = libfd.workloads.operation("library-fd", 1, index)
    assert op["curve"]["backing"] == backing
    op["grid"][2] = 9
    calls = [0]
    verdict, residual, k1, k2 = libfd.sweep(hh, op, calls)
    assert verdict in ("Biharmonic", "NotBiharmonic", "Geodesic")
    assert len(residual) == 9
    assert math.isfinite(k1) and math.isfinite(k2)
    assert calls[0] > 0
    for step in (None, 1e-3):
        curve = dict(op["curve"], fd_step=step)
        assert libfd.build_curve(hh, curve, [0]).helix is None

