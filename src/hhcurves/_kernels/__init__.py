"""The numerical kernels: a re-export of :mod:`hhcurves._kernels.pure`.

The module stays, although it adds nothing, because library code calls the
kernels through it and ``perfbench``'s tracer patches their names here; and
``BACKEND`` stays because ``perfbench`` records ``hhcurves.BACKEND``.
"""

from hhcurves._kernels.pure import (
    array_ops,
    bitension_direct_jets,
    covd,
    cross,
    curvature_op,
    frenet_jets,
    helix_eval,
    helix_eval_grid,
    inner,
    point_eval,
    project_unit_jets,
)

BACKEND = "pure"

__all__ = [
    "array_ops",
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
