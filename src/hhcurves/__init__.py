"""Curve geometry of the 3-dimensional hyperbolic Heisenberg group.

The group is R³ with multiplication
``(x, y, z)·(x', y', z') = (x + x', y + y', z + z' + 2(x·y' − x'·y))``,
carrying the left-invariant frame ``e1 = ∂x − 2y ∂z``, ``e2 = ∂y + 2x ∂z``,
``e3 = 2 ∂z`` and the indefinite metric with signs ``(+1, −1, −1)`` on that
frame. The package provides:

- :mod:`hhcurves.frame` — frame vectors, indefinite inner product, the
  Lorentzian cross product, causal characters;
- :mod:`hhcurves.connection` — exact integer connection/curvature tables and
  the independent re-derivations used as oracles;
- :mod:`hhcurves.curves` — curve containers (coordinate- or tangent-backed),
  finite-difference jets, CSV ingestion, RK4 coordinate integration;
- :mod:`hhcurves.frenet` — the Frenet apparatus (k1, k2, frame, sign triple,
  and the derivative data of the bitension field) with degeneracy detection;
- :mod:`hhcurves.biharmonic` — the bitension field along two independent
  routes and the biharmonicity condition checker;
- :mod:`hhcurves.families` — closed-form curve families (proper-biharmonic
  spacelike/timelike/horizontal members, vanishing-B3 curves, helices,
  geodesics) with slope solving at double-double precision;
- :mod:`hhcurves.verify` — the seeded claim registry producing the
  deterministic verification report;
- :mod:`hhcurves.cli` — the ``hhcurves`` command-line entry point.

The numerical kernels are written in Python (with NumPy for whole helix
grids); :data:`BACKEND` names them, and is always ``"pure"``.

``import hhcurves`` loads none of these modules. Each public name is
declared once, in the ``__all__`` of its module, and ``hhcurves.X`` is X of
the first of ``errors``, ``frame``, ``curves``, ``frenet``, ``biharmonic``,
``families``, ``connection`` and ``verify`` whose ``__all__`` lists it (PEP
562). A first access loads the modules up to that one, in order. The name is
read from its module on every access, so it follows any later rebinding
there. A caller that only sweeps a finite-difference curve never loads
``families``, the exact tables (``connection``, with ``fractions``) or the
claim registry (``verify``). ``__all__``, ``dir()``, a star import and a name
that no module exports load all eight.
"""

import importlib

__version__ = "0.1.0"

# The public modules, in lookup order.
_MODULES = ("errors", "frame", "curves", "frenet", "biharmonic", "families",
            "connection", "verify")


def _module(name):
    return importlib.import_module("." + name, __name__)


def _public():
    return ["__version__", "BACKEND",
            *(name for module in _MODULES for name in _module(module).__all__)]


def __getattr__(name):
    if name == "__all__":
        return _public()
    if name == "BACKEND":
        return _module("_kernels").BACKEND
    if name in _MODULES or name == "_kernels":
        # importing a submodule binds it in the package namespace
        return _module(name)
    if not name.startswith("__"):
        for module in map(_module, _MODULES):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *_public(), *_MODULES, "_kernels"})
