"""Test helper: switch every grid caller to the per-point route."""

import contextlib
import math

from hhcurves import frenet


@contextlib.contextmanager
def per_point_route():
    """Make every caller evaluate each point with point_data, as before the
    grid kernel existed."""
    saved = frenet._GRID_MIN_POINTS
    frenet._GRID_MIN_POINTS = math.inf
    try:
        yield
    finally:
        frenet._GRID_MIN_POINTS = saved
