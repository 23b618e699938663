"""Curve models and differentiation backings.

Two curve representations exist:

* :class:`CoordinateCurve` — a path ``s ↦ (x, y, z)`` in exponential
  coordinates, backed by closed-form callables (optionally with analytic
  derivatives), or by uniformly spaced samples (e.g. ingested from CSV or
  produced by the integrator). The frame tangent is recovered from the
  coordinate derivatives via the left-invariant coframe:
  ``T = (x', y', z'/2 + x'·y − x·y')``.
* :class:`FrameCurve` — a path given directly by its unit tangent in frame
  components, optionally with analytic parameter derivatives.

Both expose ``tangent(s)`` and ``tangent_jets(s)`` (the tangent and its first
three parameter derivatives — what the bitension field needs). Curves whose
tangent has the hyperbolic-helix form carry a :class:`HelixSpec`, which lets
downstream layers dispatch to the double-double kernel.

Finite differencing uses order-2 central stencils with optional Richardson
extrapolation ``(4·D(h/2) − D(h)) / 3``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from hhcurves import frame as _frame
from hhcurves.errors import (
    InvalidInputError,
    MixedCausalityError,
    UnitSpeedError,
)

__all__ = [
    "FDConfig",
    "HelixSpec",
    "CoordinateCurve",
    "FrameCurve",
    "fd_derivative",
    "read_curve_csv",
    "integrate_frame_curve",
    "is_horizontal",
    "causal_character_of_curve",
    "check_unit_speed",
    "vertical_momentum",
]

DEFAULT_UNIT_TOL_ANALYTIC = 1e-9
DEFAULT_UNIT_TOL_FD = 1e-6


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference configuration: base step and Richardson toggle."""

    step: float = 1e-4
    richardson: bool = True

    def __post_init__(self):
        if not (isinstance(self.step, (int, float)) and math.isfinite(self.step)
                and self.step > 0):
            raise InvalidInputError(
                "FD step must be a finite positive real, got %r" % (self.step,)
            )


@dataclass(frozen=True)
class HelixSpec:
    """Marker for curves with tangent of hyperbolic-helix form.

    ``form`` 0 means ``T = (amp·cosh u, amp·sinh u, tilt)``; ``form`` 1 means
    ``T = (amp·sinh u, amp·cosh u, tilt)``; in both ``u = slope·s + phase``
    with the slope carried as a double-double ``(slope_hi, slope_lo)`` so the
    evaluation kernel can hold the biharmonicity root to ~31 digits.
    """

    form: int
    amp: float
    tilt: float
    slope_hi: float
    slope_lo: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        values = (self.amp, self.tilt, self.slope_hi, self.slope_lo, self.phase)
        if not all(math.isfinite(v) for v in values):
            raise InvalidInputError(
                "helix amp, tilt, slope and phase must be finite, got %r"
                % (values,)
            )

    @property
    def slope(self):
        """The slope as a plain double (the hi word)."""
        return self.slope_hi

    def tangent(self, s):
        u = self.slope_hi * s + self.phase
        c, sh = math.cosh(u), math.sinh(u)
        if self.form == 0:
            return (self.amp * c, self.amp * sh, self.tilt)
        return (self.amp * sh, self.amp * c, self.tilt)


# ---------------------------------------------------------------------------
# Finite differencing
# ---------------------------------------------------------------------------

# Central stencils of accuracy order 2: {order: ((offset, weight), ...)}.
_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def _fd_once(f, s, order, h):
    acc = None
    for off, w in _STENCILS[order]:
        vals = f(s + off * h)
        if acc is None:
            acc = [w * v for v in vals]
        else:
            for i, v in enumerate(vals):
                acc[i] += w * v
    scale = h ** order
    return tuple(a / scale for a in acc)


def fd_derivative(f, s, order, cfg):
    """Finite-difference derivative of a vector-valued callable.

    ``f(s)`` must return a fixed-length sequence of floats; ``order`` is 1–4.
    With ``cfg.richardson`` the order-2 stencil result is extrapolated from
    steps h and h/2, giving O(h⁴) accuracy.
    """
    if order not in _STENCILS:
        raise InvalidInputError("derivative order must be 1..4, got %r" % (order,))
    if not cfg.richardson:
        return _fd_once(f, s, order, cfg.step)
    d1 = _fd_once(f, s, order, cfg.step)
    d2 = _fd_once(f, s, order, cfg.step / 2.0)
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(d1, d2))


# ---------------------------------------------------------------------------
# Coordinate curves
# ---------------------------------------------------------------------------


def _finite_jets(jets):
    """Return tangent jets (T, T', T'', T''') after checking they are finite.

    A non-finite T cannot be unit-speed and raises :class:`UnitSpeedError`;
    a non-finite derivative raises :class:`InvalidInputError`.
    """
    for r, jet in enumerate(jets):
        if not all(math.isfinite(c) for c in jet):
            raise (UnitSpeedError if r == 0 else InvalidInputError)(
                "frame tangent jet of order %d is not finite: %r" % (r, jet)
            )
    return jets


def _tangent_from_coordinate_jets(pos, derivs):
    """Frame-tangent jets from coordinate derivatives.

    ``pos`` is (x, y, z) and ``derivs[m-1]`` the m-th coordinate derivative,
    m = 1..4. Returns tangent jets (T, T', T'', T''') using
    ``T = (x', y', z'/2 + x'·y − x·y')`` and the Leibniz expansion of the
    third component's derivatives. A jet that is not finite, as when the
    coordinates or their products overflow, raises (see :func:`_finite_jets`).
    """
    d = (pos,) + tuple(derivs)
    jets = []
    for r in range(4):
        acc = [d[r + 1][2] / 2.0]
        for j in range(r + 1):
            cjr = float(math.comb(r, j))
            acc.append(cjr * d[j + 1][0] * d[r - j][1])
            acc.append(-cjr * d[r - j][0] * d[j + 1][1])
        try:
            t3 = math.fsum(acc)
        except (ValueError, OverflowError):  # inf - inf, or a sum past DBL_MAX
            t3 = math.nan
        jets.append((d[r + 1][0], d[r + 1][1], t3))
    return _finite_jets(tuple(jets))


class CoordinateCurve:
    """A curve in exponential coordinates with a pluggable derivative backing.

    Construct via :meth:`from_functions` (closed-form) or
    :meth:`from_samples` (uniform grid). ``analytic`` is True exactly when
    coordinate derivatives come from user-supplied closed forms rather than
    finite differences.
    """

    def __init__(self, position, derivative=None, fd=None, helix=None,
                 samples=None):
        self._position = position
        self._derivative = derivative
        self._fd = fd if fd is not None else FDConfig()
        self._samples = samples
        self.helix = helix

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_functions(cls, position, derivative=None, fd=None, helix=None):
        """Closed-form backing: ``position(s) → (x, y, z)`` and optionally
        ``derivative(s, order) → (x, y, z)`` for orders 1..4."""
        return cls(position, derivative=derivative, fd=fd, helix=helix)

    @classmethod
    def from_samples(cls, s_values, points, richardson=True):
        """Uniform-grid backing from parallel sequences of s and (x, y, z).

        Requires strictly increasing, uniformly spaced ``s_values`` (relative
        tolerance 1e-9) with at least two nodes.
        """
        s_values = [float(v) for v in s_values]
        points = [tuple(float(c) for c in p) for p in points]
        if len(s_values) != len(points):
            raise InvalidInputError(
                "sample arrays disagree in length: %d vs %d"
                % (len(s_values), len(points))
            )
        if len(s_values) < 2:
            raise InvalidInputError("need at least 2 samples")
        d = s_values[1] - s_values[0]
        if d <= 0:
            raise InvalidInputError("sample parameter must be strictly increasing")
        scale = max(abs(s_values[0]), abs(s_values[-1]), 1.0)
        for i in range(1, len(s_values)):
            step = s_values[i] - s_values[i - 1]
            if step <= 0:
                raise InvalidInputError(
                    "sample parameter must be strictly increasing"
                )
            if abs(step - d) > 1e-9 * scale:
                raise InvalidInputError(
                    "sample parameter must be uniformly spaced "
                    "(spacing %r vs %r at row %d)" % (step, d, i)
                )
        sampled = _SampleTable(tuple(s_values), tuple(points), d, richardson)
        return cls(sampled.point, derivative=None, fd=None, samples=sampled)

    # -- basic queries -------------------------------------------------------

    @property
    def analytic(self):
        return self._derivative is not None

    @property
    def samples(self):
        """The underlying sample table, or None for closed-form backings."""
        return self._samples

    def point(self, s):
        return tuple(float(c) for c in self._position(s))

    def derivative(self, s, order):
        """m-th coordinate derivative, m = 1..4."""
        if order not in (1, 2, 3, 4):
            raise InvalidInputError(
                "derivative order must be 1..4, got %r" % (order,)
            )
        if self._derivative is not None:
            return tuple(float(c) for c in self._derivative(s, order))
        if self._samples is not None:
            return self._samples.derivative(s, order)
        return fd_derivative(self.point, s, order, self._fd)

    def tangent(self, s):
        """Frame components of the tangent: ``(x', y', z'/2 + x'·y − x·y')``."""
        x, y, _ = self.point(s)
        d1 = self.derivative(s, 1)
        return (d1[0], d1[1], d1[2] / 2.0 + d1[0] * y - x * d1[1])

    def tangent_jets(self, s):
        """Tangent and its first three parameter derivatives (frame comps)."""
        pos = self.point(s)
        derivs = [self.derivative(s, m) for m in (1, 2, 3, 4)]
        return _tangent_from_coordinate_jets(pos, derivs)


class _SampleTable:
    """Uniform-grid samples with stencil derivatives at interior nodes."""

    def __init__(self, s_values, points, spacing, richardson):
        self.s_values = s_values
        self.points = points
        self.spacing = spacing
        self.richardson = richardson
        # fd_derivative on the nodes, run at 0: Richardson's half step is one
        # spacing, so it asks only for 0, ±1, ±2 and ±4 spacings, each an
        # exact product that maps back to its node offset.
        self._fd = FDConfig(step=2.0 * spacing if richardson else spacing,
                            richardson=richardson)
        self._offsets = {k * spacing: k for k in range(-4, 5)}

    def _index(self, s):
        i = bisect_left(self.s_values, s - 1e-9 * max(1.0, abs(s)))
        if i >= len(self.s_values) or abs(self.s_values[i] - s) > 1e-9 * max(
            1.0, abs(s)
        ):
            raise InvalidInputError(
                "sampled curves can only be evaluated at grid nodes; "
                "%r is not one" % (s,)
            )
        return i

    def point(self, s):
        return self.points[self._index(s)]

    def interior_range(self):
        """(lo, hi) inclusive node-index range where all jets are available."""
        margin = 4 if self.richardson else 2
        return margin, len(self.s_values) - 1 - margin

    def derivative(self, s, order):
        i = self._index(s)
        lo, hi = self.interior_range()
        if not lo <= i <= hi:
            raise InvalidInputError(
                "node %d too close to the boundary for stencil derivatives "
                "(valid interior is [%d, %d])" % (i, lo, hi)
            )
        points, offsets = self.points, self._offsets
        return fd_derivative(lambda t: points[i + offsets[t]], 0.0, order,
                             self._fd)


# ---------------------------------------------------------------------------
# Frame curves
# ---------------------------------------------------------------------------


class FrameCurve:
    """A curve given by its tangent in frame components.

    ``tangent(s) → (T1, T2, T3)``; ``derivative(s, order) → (T1, T2, T3)``
    parameter derivatives for orders 1..3 when closed forms exist, otherwise
    finite differences on the tangent are used. ``analytic`` is True exactly
    when ``derivative`` is given.
    """

    def __init__(self, tangent, derivative=None, fd=None, helix=None):
        self._tangent = tangent
        self._derivative = derivative
        self._fd = fd if fd is not None else FDConfig()
        self.helix = helix

    @property
    def analytic(self):
        return self._derivative is not None

    def tangent(self, s):
        return tuple(float(c) for c in self._tangent(s))

    def derivative(self, s, order):
        if order not in (1, 2, 3):
            raise InvalidInputError(
                "tangent derivative order must be 1..3, got %r" % (order,)
            )
        if self._derivative is not None:
            return tuple(float(c) for c in self._derivative(s, order))
        return fd_derivative(self.tangent, s, order, self._fd)

    def tangent_jets(self, s):
        """Tangent and its first three parameter derivatives; raises when one
        is not finite (see :func:`_finite_jets`)."""
        return _finite_jets((
            self.tangent(s),
            self.derivative(s, 1),
            self.derivative(s, 2),
            self.derivative(s, 3),
        ))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def read_curve_csv(source):
    """Read a sampled coordinate curve from CSV with header ``s,x,y,z``.

    ``source`` is a path or an open text file. The parameter column must be
    strictly increasing and uniformly spaced. Extra columns after ``z`` (for
    example the ``T1,T2,T3`` tangent columns written by the ``generate``
    command) are ignored, so generated files can be ingested directly.
    Returns a sampled :class:`CoordinateCurve`.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidInputError("cannot read %r: %s" % (source, exc)) from exc
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError("empty curve CSV")
    header = [c.strip() for c in lines[0].split(",")]
    if header[:4] != ["s", "x", "y", "z"]:
        raise InvalidInputError(
            "curve CSV header must start with 's,x,y,z', got %r" % (lines[0],)
        )
    width = len(header)
    s_values = []
    points = []
    for ln_no, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != width:
            raise InvalidInputError(
                "curve CSV row %d has %d cells, expected %d"
                % (ln_no, len(cells), width)
            )
        try:
            vals = [float(c) for c in cells[:4]]
        except ValueError as exc:
            raise InvalidInputError(
                "curve CSV row %d is not numeric: %r" % (ln_no, ln)
            ) from exc
        if not all(math.isfinite(v) for v in vals):
            raise InvalidInputError("curve CSV row %d is not finite: %r" % (ln_no, ln))
        s_values.append(vals[0])
        points.append((vals[1], vals[2], vals[3]))
    return CoordinateCurve.from_samples(s_values, points)


# ---------------------------------------------------------------------------
# Frame-curve integration (fixed-step RK4)
# ---------------------------------------------------------------------------


def integrate_frame_curve(curve, start, s_range, step):
    """Integrate a frame curve's coordinates with fixed-step RK4.

    Solves ``x' = T1``, ``y' = T2``, ``z' = 2·T3 − 2·T1·y + 2·T2·x`` from
    ``start = (x0, y0, z0)`` over ``s_range = (s0, s1)``; ``step`` must divide
    the range to within 1e-9 relative. Returns a sampled
    :class:`CoordinateCurve` on the integration grid.
    """
    try:
        s0, s1 = (float(s_range[0]), float(s_range[1]))
    except (TypeError, IndexError, ValueError) as exc:
        raise InvalidInputError("s_range must be a pair of reals") from exc
    if not (math.isfinite(s0) and math.isfinite(s1) and s1 > s0):
        raise InvalidInputError(
            "invalid integration range %r: need finite s1 > s0" % (s_range,)
        )
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise InvalidInputError("invalid step %r: need a finite positive real" % (step,))
    n = round((s1 - s0) / step)
    if n < 1 or abs(n * step - (s1 - s0)) > 1e-9 * max(1.0, abs(s1 - s0)):
        raise InvalidInputError(
            "step %r does not divide the range %r" % (step, (s0, s1))
        )
    x, y, z = (float(start[0]), float(start[1]), float(start[2]))

    tangent = curve.tangent

    def rhs(s, state):
        t1, t2, t3 = tangent(s)
        return (t1, t2, 2.0 * t3 - 2.0 * t1 * state[1] + 2.0 * t2 * state[0])

    s_values = [s0]
    points = [(x, y, z)]
    state = (x, y, z)
    for i in range(n):
        s = s0 + i * step
        k1 = rhs(s, state)
        mid = tuple(state[m] + 0.5 * step * k1[m] for m in range(3))
        k2 = rhs(s + 0.5 * step, mid)
        mid = tuple(state[m] + 0.5 * step * k2[m] for m in range(3))
        k3 = rhs(s + 0.5 * step, mid)
        end = tuple(state[m] + step * k3[m] for m in range(3))
        k4 = rhs(s + step, end)
        state = tuple(
            state[m] + (step / 6.0) * (k1[m] + 2.0 * k2[m] + 2.0 * k3[m] + k4[m])
            for m in range(3)
        )
        s_values.append(s0 + (i + 1) * step)
        points.append(state)
    return CoordinateCurve.from_samples(s_values, points)


# ---------------------------------------------------------------------------
# Curve-level predicates
# ---------------------------------------------------------------------------


def vertical_momentum(curve, s):
    """Value of the contact coframe on the velocity: equals ``2·T3``."""
    t = curve.tangent(s)
    return 2.0 * t[2]


def is_horizontal(curve, grid, tol=1e-9):
    """True when the contact coframe annihilates the velocity on the grid."""
    return max(abs(vertical_momentum(curve, s)) for s in grid) <= tol


def causal_character_of_curve(curve, grid, tol=None):
    """Common causal character of the tangent over the grid.

    Raises :class:`MixedCausalityError` when the character changes between
    grid points.
    """
    if tol is None:
        tol = _frame.DEFAULT_CAUSAL_TOL
    chars = {
        _frame.causal_character(curve.tangent(s), tol=tol) for s in grid
    }
    if len(chars) != 1:
        raise MixedCausalityError(
            "curve changes causal character over the grid: %s"
            % (sorted(c.value for c in chars),)
        )
    return chars.pop()


def check_unit_speed(curve, grid, tol=None):
    """Verify ``| |inner(T, T)| − 1 | <= tol`` on the grid.

    Returns the max deviation; raises :class:`UnitSpeedError` beyond ``tol``.
    The library never silently renormalizes: Frenet-dependent operations call
    this (or the jet-level equivalent) and error out on failure.
    """
    if tol is None:
        tol = (DEFAULT_UNIT_TOL_ANALYTIC if getattr(curve, "analytic", False)
               else DEFAULT_UNIT_TOL_FD)
    worst = 0.0
    for s in grid:
        t = curve.tangent(s)
        dev = abs(abs(_frame.inner(t, t)) - 1.0)
        worst = max(worst, dev)
    if worst > tol:
        raise UnitSpeedError(
            "curve is not unit-speed on the grid: max deviation %r > %r"
            % (worst, tol)
        )
    return worst
