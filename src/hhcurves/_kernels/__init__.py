"""Kernel backend selection.

The compiled extension (``hhcurves._kernels._speed``) and the pure-Python
reference (``hhcurves._kernels.pure``) expose the same single-point kernels;
whichever is available is re-exported here, with ``helix_eval_grid`` for
whole grids. Setting the environment variable ``HHCURVES_PURE=1`` before
import forces the pure backend — a development and testing knob, not part of
the CLI contract.
"""

import numbers
import os

from hhcurves.errors import HHCurvesError

if os.environ.get("HHCURVES_PURE") == "1":
    from hhcurves._kernels import pure as _impl
else:
    try:
        from hhcurves._kernels import _speed as _impl  # type: ignore[attr-defined]
    except ImportError:
        from hhcurves._kernels import pure as _impl

BACKEND = _impl.BACKEND
inner = _impl.inner
cross = _impl.cross
covd = _impl.covd
curvature_op = _impl.curvature_op
project_unit_jets = _impl.project_unit_jets
bitension_direct_jets = _impl.bitension_direct_jets
frenet_jets = _impl.frenet_jets
point_eval = _impl.point_eval
helix_eval = _impl.helix_eval

if BACKEND == "pure":
    helix_eval_grid = _impl.helix_eval_grid
else:

    def helix_eval_grid(form, amp, tilt, slope_hi, slope_lo, phase, s_array,
                        geo_tol):
        """``pure.helix_eval_grid`` on the compiled kernel: a loop over its
        ``helix_eval``, which is faster per point than NumPy at any grid size.
        Each argument but ``s_array`` is one value or one entry per point.
        Points where it raises come back as ``None``; the caller evaluates
        them again one by one and meets the same exception."""
        n = len(s_array)
        form, amp, tilt, slope_hi, slope_lo, phase, geo_tol = (
            [v] * n if isinstance(v, numbers.Real) else v
            for v in (form, amp, tilt, slope_hi, slope_lo, phase, geo_tol)
        )
        out = []
        for *args, s, tol in zip(form, amp, tilt, slope_hi, slope_lo, phase,
                                 s_array, geo_tol):
            try:
                out.append(_impl.helix_eval(*args, float(s), tol))
            except (ArithmeticError, ValueError, HHCurvesError):
                out.append(None)
        return out

__all__ = [
    "BACKEND",
    "inner",
    "cross",
    "covd",
    "curvature_op",
    "project_unit_jets",
    "bitension_direct_jets",
    "frenet_jets",
    "point_eval",
    "helix_eval",
    "helix_eval_grid",
]
