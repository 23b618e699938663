"""Spans around the calls into each ``hhcurves`` module, from outside it.

``install`` replaces the public functions of every module with wrappers that
record a span: its name, start, end, the span that was open when it began
(its parent), and the exception it ended with, if any. Each wrapper is set on
the name the caller actually looks up: ``cli`` imports ``read_curve_csv`` and
``integrate_frame_curve`` by name, so those are patched in ``cli`` as well as
in ``curves``. Nothing under ``src/`` changes.

Two things are not plain wrappers:

* ``verify.run_all`` is replaced by the same loop written with the public
  ``verify_claim``, one span per claim. ``run_all`` builds its report from
  the identical per-claim calls, and the benchmark checks that the traced
  report is byte-identical to the untraced one.
* Curve methods are called from inside ``curves`` too (a finite-difference
  stencil calls ``point`` 28 times per point), so they record a span only
  when called from another layer; calls made during RK4 integration are
  counted instead.

Spans stay in memory until ``summary`` folds them into per-name totals: call
count, total time, self time (duration minus the time of direct children),
and degenerate exits.
"""

from __future__ import annotations

import sys
import time

DEGENERACY_ERRORS = ("GeodesicDegenerateError", "NullNormalDegenerateError")

_KERNELS = ("helix_eval", "point_eval", "frenet_jets", "project_unit_jets")
_FRENET = ("point_data", "compute_frenet", "extended_frenet", "frenet_over_grid")
_BIHARMONIC = ("residual_norms", "check_biharmonic_conditions",
               "bitension_direct", "bitension_frenet_at")
_FRAME = ("inner", "cross", "mixed")
_CONNECTION = ("connection_from_brackets", "curvature_from_connection",
               "metric_compatibility_defect", "torsion_defect",
               "covariant_derivative_along", "curvature", "riemann_christoffel")


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        # each span: [name, layer, start, end, parent index, error name]
        self.spans = []
        self.stack = []
        self.counts = {}
        self._clock = time.perf_counter

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, name.split(".", 1)[0], self._clock(), 0.0,
                           parent, None])
        self.stack.append(len(self.spans) - 1)

    def end(self, error=None):
        span = self.spans[self.stack.pop()]
        span[3] = self._clock()
        span[5] = error

    def current_layer(self):
        return self.spans[self.stack[-1]][1] if self.stack else None

    def current_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, name, fn, args, kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.end(type(exc).__name__)
            raise
        self.end()
        return result

    def wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self):
        """Per-name totals and per-layer busy time of the recorded spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        names = {}
        layers = {}
        for i, (name, layer, start, end, parent, error) in enumerate(self.spans):
            dur = end - start
            # calls, total s, self s, degenerate exits, calls and s from
            # another layer
            row = names.setdefault(name, [0, 0.0, 0.0, 0, 0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            row[3] += error in DEGENERACY_ERRORS
            if parent < 0 or self.spans[parent][1] != layer:
                row[4] += 1
                row[5] += dur
                busy = layers.setdefault(layer, [0, 0.0])
                busy[0] += 1
                busy[1] += dur
        return {"names": names, "layers": layers, "counts": dict(self.counts)}


def _patch(tracer, module, attrs, prefix):
    for attr in attrs:
        setattr(module, attr, tracer.wrap(getattr(module, attr), prefix + attr))


def _replace(module, original, wrapper):
    """Point every name of ``module`` bound to ``original`` at ``wrapper``."""
    for name, value in list(vars(module).items()):
        if value is original:
            setattr(module, name, wrapper)


def _install_curves(tracer, curves, cli):
    def backing(curve):
        if getattr(curve, "samples", None) is not None:
            return "samples"
        return "analytic" if curve.analytic else "fd"

    def method(cls, attr, name_of):
        fn = getattr(cls, attr)

        def wrapper(self, *args, **kwargs):
            if tracer.current_layer() == "curves":
                if tracer.current_name() == "curves.integrate_frame_curve":
                    tracer.count("curves.integrate_frame_curve." + attr)
                return fn(self, *args, **kwargs)
            return tracer.call(name_of(self), fn, (self,) + args, kwargs)

        wrapper.__wrapped__ = fn
        setattr(cls, attr, wrapper)

    for cls in (curves.CoordinateCurve, curves.FrameCurve):
        method(cls, "tangent_jets",
               lambda curve: "curves.tangent_jets." + backing(curve))
        method(cls, "tangent", lambda curve: "curves.tangent")
    method(curves.CoordinateCurve, "point", lambda curve: "curves.point")

    read = tracer.wrap(curves.read_curve_csv, "curves.read_curve_csv")
    integrate_fn = curves.integrate_frame_curve

    def integrate(*args, **kwargs):
        result = tracer.call("curves.integrate_frame_curve", integrate_fn,
                             args, kwargs)
        tracer.count("curves.integrate_frame_curve.steps",
                     len(result.samples.s_values) - 1)
        return result

    integrate.__wrapped__ = integrate_fn
    for module in (curves, cli):
        module.read_curve_csv = read
        module.integrate_frame_curve = integrate


def _install_families(tracer, families):
    make_b3zero = families.make_b3zero_curve

    def make_b3zero_curve(kind, alpha, s_range, beta=None):
        # the family imports scipy.integrate on first use; time that import
        # inside this call, where an untraced run pays it, and count quad
        if beta is None:
            if "scipy.integrate" not in sys.modules:
                tracer.begin("families.scipy_import")
                import scipy.integrate
                tracer.end()
            integrate = sys.modules["scipy.integrate"]
            if not hasattr(integrate.quad, "__wrapped__"):
                integrate.quad = tracer.wrap(integrate.quad, "families.quad")
        return make_b3zero(kind, alpha, s_range, beta=beta)

    families.make_b3zero_curve = make_b3zero_curve
    makers = [a for a in families.__all__ if a.startswith("make_")]
    _patch(tracer, families, makers + ["solve_slope"], "families.")
    families.make_b3zero_curve.__wrapped__ = make_b3zero


def _install_verify(tracer, verify):
    claim = verify.verify_claim

    def verify_claim(claim_id, config=None):
        return tracer.call("verify.check." + claim_id, claim,
                           (claim_id, config), {})

    def run_all(config=None):
        cfg = config if config is not None else verify.VerifyConfig()
        checks = tuple(verify_claim(cid, cfg) for cid in verify.registry_ids())
        return verify.VerificationReport(schema_version=1, seed=cfg.seed,
                                         checks=checks)

    verify_claim.__wrapped__ = claim
    run_all.__wrapped__ = verify.run_all
    verify.verify_claim = verify_claim
    verify.run_all = run_all


def install(tracer):
    """Wrap every traced entry point of the imported ``hhcurves`` package.

    Returns a function that puts every original back.
    """
    import hhcurves
    import hhcurves._kernels as kernels
    from hhcurves import (biharmonic, cli, connection, curves, families,
                          frame, frenet, verify)

    patched = (hhcurves, kernels, biharmonic, cli, connection, curves,
               families, frame, frenet, verify, curves.CoordinateCurve,
               curves.FrameCurve)
    saved = [(target, dict(vars(target))) for target in patched]

    def restore():
        for target, names in saved:
            for name, value in names.items():
                if vars(target).get(name) is not value:
                    setattr(target, name, value)
        integrate = sys.modules.get("scipy.integrate")
        if integrate is not None and hasattr(integrate.quad, "__wrapped__"):
            integrate.quad = integrate.quad.__wrapped__

    cli.main = tracer.wrap(cli.main, "cli.main")
    _patch(tracer, kernels, _KERNELS, "_kernels.")
    _patch(tracer, frenet, _FRENET, "frenet.")
    _patch(tracer, frame, _FRAME, "frame.")
    _patch(tracer, connection, _CONNECTION, "connection.")
    _install_curves(tracer, curves, cli)
    _install_families(tracer, families)
    _install_verify(tracer, verify)

    def grid_calls(attr):
        fn = getattr(biharmonic, attr)

        def wrapper(curve, grid, *args, **kwargs):
            tracer.count("biharmonic.%s.points" % attr, len(grid))
            return tracer.call("biharmonic." + attr, fn,
                               (curve, grid) + args, kwargs)

        wrapper.__wrapped__ = fn
        setattr(biharmonic, attr, wrapper)

    for attr in _BIHARMONIC:
        if attr in ("residual_norms", "check_biharmonic_conditions"):
            grid_calls(attr)
        else:
            _patch(tracer, biharmonic, (attr,), "biharmonic.")

    # the package re-exports the public functions; library users call those
    for module in (biharmonic, connection, curves, families, frame, frenet,
                   verify):
        for attr in module.__all__:
            value = getattr(module, attr)
            original = getattr(value, "__wrapped__", None)
            if original is not None:
                _replace(hhcurves, original, value)
    return restore


def merge(summaries):
    """Sum the summaries of several processes."""
    total = {"names": {}, "layers": {}, "counts": {}}
    for part in summaries:
        for key in ("names", "layers"):
            for name, row in part[key].items():
                acc = total[key].setdefault(name, [0] * len(row))
                for k, v in enumerate(row):
                    acc[k] += v
        for name, n in part["counts"].items():
            total["counts"][name] = total["counts"].get(name, 0) + n
    return total
