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

Both share one derivative backing (``_Backing``) with one source, fixed when
the curve is built: closed forms or an FD step from the caller, or a node
table from the library (:func:`_built`). Finite differencing uses order-2 central stencils with
Richardson extrapolation ``(4·D(h/2) − D(h)) / 3``. :func:`_fd_plan` lists
each order's stencil as integer offsets k in half steps, and one pass per
point reads a callable at ``s + k·h/2`` (29 arguments for a coordinate
curve, 19 for a frame curve, the value at ``s`` first) or a sample table at
``points[i + k]`` around node i, whose h is two spacings.

Every threshold that depends on how a curve is backed is chosen here, from
the curve alone: :func:`unit_speed_tol`, :func:`geodesic_tol` and
:func:`verdict_tol`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from hhcurves import frame as _frame
from hhcurves._kernels import _two_sum
from hhcurves.errors import (
    InvalidInputError,
    MixedCausalityError,
    NumericOverflowError,
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
    "unit_speed_tol",
    "geodesic_tol",
    "verdict_tol",
    "vertical_momentum",
]

DEFAULT_UNIT_TOL_ANALYTIC = 1e-9
DEFAULT_UNIT_TOL_FD = 1e-6
DEFAULT_GEO_TOL_ANALYTIC = 1e-9
DEFAULT_GEO_TOL_FD = 1e-5
DEFAULT_VERDICT_TOL_ANALYTIC = 1e-8
DEFAULT_VERDICT_TOL_SAMPLED = 1e-4


def _usable_step(h):
    """Whether h is a positive real whose fourth power, and that of h/2,
    are positive finite doubles, which the stencils divide by: h from about
    2.5e-81 to 1.1e77."""
    try:
        h = float(h)
        return h > 0 and all(0.0 < p < math.inf
                             for p in (h ** 4, (h / 2.0) ** 4))
    except OverflowError:  # an int or a power past DBL_MAX
        return False


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference configuration: the base step."""

    step: float = 1e-4

    def __post_init__(self):
        if (not isinstance(self.step, (int, float)) or isinstance(self.step, bool)
                or not _usable_step(self.step)):
            raise InvalidInputError(
                "FD step must be a finite positive real whose fourth power, "
                "and its half's, is a positive finite double, got %r"
                % (self.step,)
            )


@dataclass(frozen=True)
class HelixSpec:
    """Marker for curves with tangent of hyperbolic-helix form.

    ``form`` 0 means ``T = (amp·cosh u, amp·sinh u, tilt)``; ``form`` 1 means
    ``T = (amp·sinh u, amp·cosh u, tilt)``; in both ``u = slope·s + phase``
    with the slope carried as a double-double ``(slope_hi, slope_lo)`` so the
    evaluation kernel can hold the biharmonicity root to ~31 digits. The
    pair is stored normalized (``slope_hi`` is the double nearest the
    slope), so that the plain-double ``slope``, ``tangent`` and
    ``derivative`` describe the curve the kernel evaluates.
    """

    form: int
    amp: float
    tilt: float
    slope_hi: float
    slope_lo: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if type(self.form) is not int or self.form not in (0, 1):
            raise InvalidInputError(
                "helix form must be the int 0 or 1, got %r" % (self.form,)
            )
        # the slope is checked as its normalized pair, whose hi word
        # overflows when the given pair sums past DBL_MAX
        hi, lo = _two_sum(self.slope_hi, self.slope_lo)
        values = (self.amp, self.tilt, hi, lo, self.phase)
        if not all(math.isfinite(v) for v in values):
            raise InvalidInputError(
                "helix amp, tilt, slope and phase must be finite, got %r"
                % (values,)
            )
        if hi != self.slope_hi:
            object.__setattr__(self, "slope_hi", hi)
            object.__setattr__(self, "slope_lo", lo)

    @property
    def slope(self):
        """The slope as a plain double (the hi word)."""
        return self.slope_hi

    def tangent(self, s):
        return self.derivative(s, 0)

    def derivative(self, s, order):
        """The ``order``-th parameter derivative of T; order 0 is T. Raises
        :class:`NumericOverflowError` where it leaves the doubles."""
        try:
            u = self.slope_hi * s + self.phase
            f = self.amp * self.slope_hi ** order
            c, sh = math.cosh(u), math.sinh(u)
        except OverflowError as exc:
            raise NumericOverflowError(str(exc)) from exc
        t3 = self.tilt if order == 0 else 0.0
        if (order % 2 == 1) == (self.form == 0):
            c, sh = sh, c
        return _finite_value((f * c, f * sh, t3), s)


# ---------------------------------------------------------------------------
# Finite differencing
# ---------------------------------------------------------------------------


def _finite_parameter(s):
    """Raise :class:`InvalidInputError` unless the curve parameter s is a
    finite real number; each public evaluator checks its s once."""
    try:
        if math.isfinite(s):
            return
    except OverflowError:  # an int past the doubles
        pass
    except TypeError as exc:  # a str, None, a complex
        raise InvalidInputError(
            "curve parameter must be a real number, got %r" % (s,)) from exc
    raise InvalidInputError("curve parameter must be finite, got %r" % (s,))


def _finite_value(value, s):
    """Return an evaluator's ``value`` at ``s`` after checking that each
    component is finite. A product of closed forms overflows to inf, or
    meets inf − inf, before cosh itself overflows: that raises
    :class:`NumericOverflowError`, which names the value and ``s``."""
    if all(map(math.isfinite, value)):
        return value
    raise NumericOverflowError(
        "the curve value %r at s=%r is not finite" % (value, s))


# Central stencils of accuracy order 2: {order: (offsets, weights)}.
_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


def _fd_plan(orders):
    """The stencil pass that takes derivatives ``orders`` at base step h.

    Returns ``(offsets, multiples, sums)``. ``offsets`` are the integer
    multiples of h/2 the pass reads, in turn: for each order, its stencil at
    step h (each offset doubled), then at h/2 (as it is). ``multiples`` are
    the same numbers as floats, which multiply h/2 faster. ``sums`` has one
    entry per order: its first value's index in the pass, the stencil
    length, the first weight, the later weights with their positions, and
    the order.
    """
    offsets = []
    sums = []
    for order in orders:
        stencil, weights = _STENCILS[order]
        sums.append((len(offsets), len(stencil), weights[0],
                     tuple(enumerate(weights))[1:], order))
        offsets += [2 * k for k in stencil] + list(stencil)
    return tuple(offsets), tuple(map(float, offsets)), tuple(sums)


# The pass of each single order, and of the jets of each curve class
_PLANS = {orders: _fd_plan(orders)
          for orders in ((1,), (2,), (3,), (4,), (1, 2, 3), (1, 2, 3, 4))}


def _fd_sums(values, start, sums, h):
    """Finite-difference derivatives at base step h from the values a pass
    read (see :func:`_fd_plan`) from ``values[start]`` on, one per order of
    its ``sums``.

    Each stencil sum starts from its first weighted value and adds the others
    in stencil order, and is divided by step**order; the result is the
    Richardson extrapolation ``(4·D(h/2) − D(h)) / 3``.
    """
    out = []
    for k, n, w0, rest, order in sums:
        scale, half_scale = h ** order, (h / 2.0) ** order
        derivative = []
        for c in zip(*values[start + k:start + k + 2 * n]):
            a = w0 * c[0]
            b = w0 * c[n]
            for j, w in rest:
                a += w * c[j]
                b += w * c[n + j]
            derivative.append((4.0 * (b / half_scale) - a / scale) / 3.0)
        out.append(tuple(derivative))
    return tuple(out)


class _Backing:
    """The derivative backing of both curve classes.

    It holds the value callable (coordinates, or the frame tangent) and one
    source of derivatives: the closed-form ``derivative(s, order)``, the
    step of an :class:`FDConfig`, or a node table (see :func:`_built`). It
    takes derivatives of the orders in ``_ORDERS``, which a subclass sets
    with ``_ORDER_MESSAGE``.
    """

    _ORDERS = (1, 2, 3, 4)
    _ORDER_MESSAGE = "derivative order must be 1..4, got %r"

    def __init__(self, value, derivative=None, fd=None):
        if fd is not None and not isinstance(fd, FDConfig):
            raise InvalidInputError("fd must be an FDConfig, got %r" % (fd,))
        if derivative is not None and fd is not None:
            raise InvalidInputError(
                "closed-form derivatives and an FD step exclude each other")
        self._value = value
        self._derivative = derivative
        self._step = None if derivative else (fd or FDConfig()).step
        self._samples = None
        self._helix = None

    @property
    def analytic(self):
        return self._derivative is not None

    @property
    def helix(self):
        return self._helix

    def derivative(self, s, order):
        """The ``order``-th parameter derivative of the value at ``s``;
        raises :class:`NumericOverflowError` where it is not finite."""
        return _finite_value(self._raw_derivative(s, order), s)

    def _raw_derivative(self, s, order):
        """:meth:`derivative` as computed, finite or not."""
        if type(order) is not int or order not in self._ORDERS:
            raise InvalidInputError(self._ORDER_MESSAGE % (order,))
        _finite_parameter(s)
        return self._derivatives(s, (order,), 0)[0]

    def _derivatives(self, s, orders, head):
        """The derivatives of each of ``orders`` at ``s``, after the value
        at ``s`` itself when ``head`` is 1 (not when it is 0).

        This is the one place the backing is chosen: closed forms, called
        once per order; or one stencil pass (:func:`_fd_plan`) that reads,
        for each half-step offset k, the value callable at ``s + k·h/2`` or
        the sample table at ``points[i + k]`` around node i.
        """
        if self._derivative is not None:
            closed = self._derivative
            values = [tuple(map(float, self._value(s)))] if head else []
            return tuple(values + [tuple(map(float, closed(s, m)))
                                   for m in orders])
        offsets, multiples, sums = _PLANS[orders]
        table = self._samples
        if table is None:
            f, half = self._value, self._step / 2.0
            values = [tuple(map(float, f(s)))] if head else []
            values += [tuple(map(float, f(s + k * half))) for k in multiples]
        else:
            i, points = table.interior_index(s), table.points
            values = [points[i + k] for k in (0,) * head + offsets]
        derivs = _fd_sums(values, head, sums, self._step)
        return (values[0],) + derivs if head else derivs


def fd_derivative(f, s, order, cfg):
    """Finite-difference derivative of a vector-valued callable.

    ``f(s)`` must return a fixed-length sequence of floats; ``order`` is 1–4.
    The order-2 stencil result is extrapolated from steps h and h/2, giving
    O(h⁴) accuracy. Unlike a curve's ``derivative``, it returns what the
    stencils give, finite or not.
    """
    return _Backing(f, fd=cfg)._raw_derivative(s, order)


def _built(cls, value, derivative=None, helix=None, samples=None):
    """A curve of class ``cls`` with a helix spec or a node table. The table
    is read at a step of two spacings: Richardson's half step is one
    spacing, so each half-step offset of the stencils is a node offset."""
    curve = cls(value, derivative)
    curve._helix = helix
    if samples is not None:
        curve._samples, curve._step = samples, 2.0 * samples.spacing
    return curve


# ---------------------------------------------------------------------------
# Coordinate curves
# ---------------------------------------------------------------------------


def _finite_jets(jets):
    """Return tangent jets (T, T', T'', T''') after checking they are finite.

    A non-finite T cannot be unit-speed and raises :class:`UnitSpeedError`;
    a non-finite derivative raises :class:`InvalidInputError`.
    """
    for r, jet in enumerate(jets):
        if not all(map(math.isfinite, jet)):
            raise (UnitSpeedError if r == 0 else InvalidInputError)(
                "frame tangent jet of order %d is not finite: %r" % (r, jet)
            )
    return jets


# C(r, j) for r = 0..3: the Leibniz coefficients of T3's derivatives.
_BINOMIALS = tuple(tuple(float(math.comb(r, j)) for j in range(r + 1))
                   for r in range(4))


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
    for r, binomials in enumerate(_BINOMIALS):
        acc = [d[r + 1][2] / 2.0]
        for j, cjr in enumerate(binomials):
            acc.append(cjr * d[j + 1][0] * d[r - j][1])
            acc.append(-cjr * d[r - j][0] * d[j + 1][1])
        try:
            t3 = math.fsum(acc)
        except (ValueError, OverflowError):  # inf - inf, or a sum past DBL_MAX
            t3 = math.nan
        jets.append((d[r + 1][0], d[r + 1][1], t3))
    return _finite_jets(tuple(jets))


class CoordinateCurve(_Backing):
    """A curve in exponential coordinates with a pluggable derivative backing.

    Construct via :meth:`from_functions` (closed-form) or
    :meth:`from_samples` (uniform grid). ``analytic`` is True exactly when
    coordinate derivatives come from user-supplied closed forms rather than
    finite differences; ``derivative(s, m)`` is the m-th coordinate
    derivative, m = 1..4.
    """

    def __init__(self, position, derivative=None, fd=None):
        super().__init__(position, derivative, fd)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_functions(cls, position, derivative=None, fd=None):
        """``position(s) → (x, y, z)`` with closed-form ``derivative(s, order)
        → (x, y, z)`` for orders 1..4, or with the FD step ``fd``."""
        return cls(position, derivative=derivative, fd=fd)

    @classmethod
    def from_samples(cls, s_values, points):
        """Uniform-grid backing from parallel sequences of s and (x, y, z).

        Requires finite samples and strictly increasing, uniformly spaced
        ``s_values`` with at least two nodes: each spacing within
        ``1e-9·max(1, |s|)`` of the first, and within a quarter of it.
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
        for i, (s, p) in enumerate(zip(s_values, points)):
            if not (math.isfinite(s) and all(map(math.isfinite, p))):
                raise InvalidInputError(
                    "sample row %d is not finite: s=%r, point=%r" % (i, s, p)
                )
        d = s_values[1] - s_values[0]
        if d <= 0:
            raise InvalidInputError("sample parameter must be strictly increasing")
        # the stencils take a base step of 2·d, with Richardson's half step d
        if not _usable_step(2.0 * d):
            raise InvalidInputError(
                "sample spacing %r is outside the range stencil derivatives "
                "can divide by" % (d,)
            )
        tol = _node_tol(max(abs(s_values[0]), abs(s_values[-1])), d)
        for i in range(1, len(s_values)):
            step = s_values[i] - s_values[i - 1]
            if step <= 0:
                raise InvalidInputError(
                    "sample parameter must be strictly increasing"
                )
            if abs(step - d) > tol:
                raise InvalidInputError(
                    "sample parameter must be uniformly spaced "
                    "(spacing %r vs %r at row %d)" % (step, d, i)
                )
        sampled = _SampleTable(tuple(s_values), tuple(points), d)
        return _built(cls, sampled.point, samples=sampled)

    # -- basic queries -------------------------------------------------------

    @property
    def samples(self):
        """The underlying sample table, or None for closed-form backings."""
        return self._samples

    def point(self, s):
        _finite_parameter(s)
        return _finite_value(tuple(map(float, self._value(s))), s)

    def tangent(self, s):
        """Frame components of the tangent: ``(x', y', z'/2 + x'·y − x·y')``."""
        _finite_parameter(s)
        x, y, _ = map(float, self._value(s))
        d1 = self._derivatives(s, (1,), 0)[0]
        return _finite_value(
            (d1[0], d1[1], d1[2] / 2.0 + d1[0] * y - x * d1[1]), s)

    def tangent_jets(self, s):
        """Tangent and its first three parameter derivatives (frame comps)."""
        _finite_parameter(s)
        jets = self._derivatives(s, (1, 2, 3, 4), 1)
        return _tangent_from_coordinate_jets(jets[0], jets[1:])


def _node_tol(s, spacing):
    """How far an argument near ``s`` may be from a sample node, or a
    spacing from the first: 1e-9·max(1, |s|), and at most a quarter of the
    spacing, so that it never reaches a neighbouring node."""
    return min(1e-9 * max(1.0, abs(s)), 0.25 * spacing)


class _SampleTable:
    """Uniform-grid samples, and the index of each interior node, around
    which a sampled curve's stencils read the table."""

    def __init__(self, s_values, points, spacing):
        self.s_values = s_values
        self.points = points
        self.spacing = spacing

    def _index(self, s):
        tol = _node_tol(s, self.spacing)
        i = bisect_left(self.s_values, s - tol)
        if i >= len(self.s_values) or abs(self.s_values[i] - s) > tol:
            raise InvalidInputError(
                "sampled curves can only be evaluated at grid nodes; "
                "%r is not one" % (s,)
            )
        return i

    def point(self, s):
        return self.points[self._index(s)]

    def interior_range(self):
        """(lo, hi) inclusive node-index range where all jets are available."""
        return 4, len(self.s_values) - 5

    def interior_index(self, s):
        """The index of node ``s``; raises when s is not a node of the
        interior, whose stencils stay on the table."""
        i = self._index(s)
        lo, hi = self.interior_range()
        if not lo <= i <= hi:
            raise InvalidInputError(
                "node %d too close to the boundary for stencil derivatives "
                "(valid interior is [%d, %d])" % (i, lo, hi)
            )
        return i


# ---------------------------------------------------------------------------
# Frame curves
# ---------------------------------------------------------------------------


class FrameCurve(_Backing):
    """A curve given by its tangent in frame components.

    ``tangent(s) → (T1, T2, T3)``; ``derivative(s, order) → (T1, T2, T3)``
    parameter derivatives for orders 1..3 when closed forms exist, otherwise
    finite differences on the tangent are used, at the step of ``fd``.
    ``analytic`` is True exactly when ``derivative`` is given.
    """

    _ORDERS = (1, 2, 3)
    _ORDER_MESSAGE = "tangent derivative order must be 1..3, got %r"

    def __init__(self, tangent, derivative=None, fd=None):
        super().__init__(tangent, derivative, fd)

    def tangent(self, s):
        _finite_parameter(s)
        return _finite_value(tuple(map(float, self._value(s))), s)

    def tangent_jets(self, s):
        """Tangent and its first three parameter derivatives; raises when one
        is not finite (see :func:`_finite_jets`)."""
        _finite_parameter(s)
        return _finite_jets(self._derivatives(s, (1, 2, 3), 1))


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


def is_horizontal(curve, grid):
    """True when the contact coframe annihilates the velocity on the grid,
    to within 1e-9."""
    return max(abs(vertical_momentum(curve, s)) for s in grid) <= 1e-9


def causal_character_of_curve(curve, grid):
    """Common causal character of the tangent over the grid, classified at
    :data:`~hhcurves.frame.DEFAULT_CAUSAL_TOL`.

    Raises :class:`MixedCausalityError` when the character changes between
    grid points.
    """
    chars = {_frame.causal_character(curve.tangent(s)) for s in grid}
    if len(chars) != 1:
        raise MixedCausalityError(
            "curve changes causal character over the grid: %s"
            % (sorted(c.value for c in chars),)
        )
    return chars.pop()


def unit_speed_tol(curve):
    """How far ``|inner(T, T)|`` may be from 1 on ``curve``: 1e-9 when its
    derivatives are closed forms, 1e-6 when they are finite differences."""
    return DEFAULT_UNIT_TOL_ANALYTIC if curve.analytic else DEFAULT_UNIT_TOL_FD


def geodesic_tol(curve):
    """Largest ``‖∇_T T‖`` at which a point of ``curve`` counts as geodesic
    (its square bounds a null normal's ``|inner(A, A)|``): 1e-9 when its
    derivatives are closed forms, 1e-5 when they are finite differences."""
    return DEFAULT_GEO_TOL_ANALYTIC if curve.analytic else DEFAULT_GEO_TOL_FD


def verdict_tol(curve):
    """Tolerance of the biharmonicity verdict on ``curve``: 1e-8 when its
    derivatives are closed forms, 1e-4 when they are finite differences."""
    return (DEFAULT_VERDICT_TOL_ANALYTIC if curve.analytic
            else DEFAULT_VERDICT_TOL_SAMPLED)


def check_unit_speed(curve, grid):
    """Verify ``| |inner(T, T)| − 1 | <= unit_speed_tol(curve)`` on the grid.

    Returns the max deviation; raises :class:`UnitSpeedError` beyond the
    tolerance. Nothing in the library calls it; the Frenet layer gates unit
    speed on the tangent jets instead (``_kernels.project_unit_jets``).
    """
    tol = unit_speed_tol(curve)
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
