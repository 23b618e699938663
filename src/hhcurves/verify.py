"""Claim verification suite.

A fixed registry of 13 claims covers the geometric content this package
implements: the frame algebra tables, the cross-product theorem, the
biharmonicity conditions, the curve families, and the nonexistence result.
Each claim row carries:

* ``claim_id`` — stable identifier;
* ``anchor`` — where the claim lives in the source theorem inventory
  (section number plus a short descriptor);
* ``status`` — ``Confirmed``, ``ConfirmedWithErratum``,
  ``Refuted-as-printed`` or ``Error``. ``Refuted-as-printed`` is reserved for
  published constants that fail the direct bitension oracle; the corrected
  statement is then confirmed in its own row (see ``horizontal-family`` /
  ``horizontal-slope-printed``). ``Error`` marks a check that raised; no
  claim expects it, so a crash can never count as a pass.
* ``max_residual`` — the largest numeric defect observed for the confirmed
  content (for a refutation row, the witness residual itself);
* ``details`` — key=value summary of the evidence.

Every check recomputes its subject from an independent oracle: tables are
re-derived from the brackets and metric, curvature is brute-forced from the
connection, closed-form family constants are compared against the direct
covariant jet chain, and the Frenet-form bitension is cross-validated against
it. Randomized sweeps draw from a per-check generator seeded as
``[seed, registry_index]``, so two runs with the same seed produce
byte-identical reports. The generator is a pure-Python PCG64 stream that
reproduces ``numpy.random.default_rng([seed, registry_index])`` bit for bit
(``SeedSequence`` seeding, XSL-RR output and NumPy's ``uniform``), so a
report does not depend on the installed NumPy and the checks never import
``numpy.random``. Only ``cross-properties`` and the helix grid pass import
NumPy.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import islice, product
from operator import getitem

from hhcurves import _kernels
from hhcurves import biharmonic as _biharmonic
from hhcurves import connection as _connection
from hhcurves import curves as _curves
from hhcurves import families as _families
from hhcurves import frame as _frame
from hhcurves import frenet as _frenet
from hhcurves.errors import InvalidInputError

__all__ = [
    "STATUS_CONFIRMED",
    "STATUS_CONFIRMED_WITH_ERRATUM",
    "STATUS_REFUTED_AS_PRINTED",
    "STATUS_ERROR",
    "EXPECTED_STATUS",
    "VerifyConfig",
    "CheckResult",
    "VerificationReport",
    "registry_ids",
    "run_all",
    "verify_claim",
]

STATUS_CONFIRMED = "Confirmed"
STATUS_CONFIRMED_WITH_ERRATUM = "ConfirmedWithErratum"
STATUS_REFUTED_AS_PRINTED = "Refuted-as-printed"
STATUS_ERROR = "Error"


@dataclass(frozen=True)
class VerifyConfig:
    """Verification options: the RNG seed."""

    seed: int = 7

    def __post_init__(self):
        if (not isinstance(self.seed, int) or isinstance(self.seed, bool)
                or self.seed < 0):
            raise InvalidInputError(
                "seed must be a non-negative integer, got %r" % (self.seed,)
            )


@dataclass(frozen=True)
class CheckResult:
    claim_id: str
    anchor: str
    status: str
    max_residual: float
    details: str

    to_dict = asdict


@dataclass(frozen=True)
class VerificationReport:
    schema_version: int
    seed: int
    checks: tuple

    to_dict = asdict

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def passed(self):
        """True when every status matches the pinned expected manifest.

        A check that raised (status ``Error``) never passes.
        """
        return all(
            c.status != STATUS_ERROR and c.status == EXPECTED_STATUS[c.claim_id]
            for c in self.checks
        )


def _status(ok, erratum=False):
    """``Refuted-as-printed`` unless ``ok``; then ``ConfirmedWithErratum``
    when the check also showed a printed statement wrong, else
    ``Confirmed``."""
    if not ok:
        return STATUS_REFUTED_AS_PRINTED
    return STATUS_CONFIRMED_WITH_ERRATUM if erratum else STATUS_CONFIRMED


def _fmt(v):
    return "%.6e" % (v + 0.0)


def _det3(x, y, z):
    return (
        x[0] * (y[1] * z[2] - y[2] * z[1])
        - x[1] * (y[0] * z[2] - y[2] * z[0])
        + x[2] * (y[0] * z[1] - y[1] * z[0])
    )


def _vdiff(u, v):
    return max(abs(u[i] - v[i]) for i in range(3))


_BASIS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _kernel_matches(kernel, table, arity):
    """Whether ``kernel`` of every ``arity`` basis vectors returns, exactly,
    their integer entry of ``table``."""
    return all(
        tuple(kernel(*(_BASIS[i] for i in index)))
        == tuple(map(float, reduce(getitem, index, table.coeffs)))
        for index in product(range(3), repeat=arity)
    )


# ---------------------------------------------------------------------------
# The seeded stream: numpy.random.default_rng(entropy), bit for bit, for the
# one draw the checks take. NumPy's Generator does not promise the same
# stream across releases, and importing numpy.random costs about 6 MB.
# ---------------------------------------------------------------------------

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(entropy):
    """``SeedSequence(entropy).generate_state(4, numpy.uint64)`` as Python
    ints: each non-negative int becomes its 32-bit words, low word first
    (``[0]`` for zero), mixed into a pool of four words."""
    words = []
    for n in entropy:
        words.append(n & _M32)
        while n > _M32:
            n >>= 32
            words.append(n & _M32)
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = (const * 0x931E8875) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = (const * 0x58F38DED) & _M32
        value = (value * const) & _M32
        out.append(value ^ (value >> 16))
    return [out[i] | out[i + 1] << 32 for i in (0, 2, 4, 6)]


class _Stream:
    """``numpy.random.default_rng(entropy)``'s PCG64 stream (XSL-RR output)
    with its ``uniform``, bit for bit; a sized draw returns a list."""

    __slots__ = ("_state", "_inc")

    def __init__(self, entropy):
        s0, s1, i0, i1 = _seed_state(entropy)
        # pcg64_srandom_r: step from state 0, add the seed, step again
        self._inc = inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128

    def _next64(self, count):
        """The next ``count`` 64-bit outputs: step the 128-bit LCG, then
        rotate the xor of its halves right by its top 6 bits."""
        mult, inc, state = _PCG_MULT, self._inc, self._state
        out = []
        for _ in range(count):
            state = (state * mult + inc) & _M128
            x = ((state >> 64) ^ state) & _M64
            out.append(((x << 64 | x) >> (state >> 122)) & _M64)
        self._state = state
        return out

    def uniform(self, low=0.0, high=1.0, size=None):
        span = high - low
        out = [low + span * ((x >> 11) * 2.0 ** -53)
               for x in self._next64(1 if size is None else size)]
        return out[0] if size is None else out


def _evaluated(pairs):
    """:func:`frenet.evaluate_points` over the ``(curve, s)`` pairs, in
    order; a degeneracy error raises where it is met, as from the per-point
    call."""
    for res in _frenet.evaluate_points(pairs):
        if isinstance(res, Exception):
            raise res
        yield res


# ---------------------------------------------------------------------------
# Individual checks. Each takes its generator and returns (status,
# max_residual, details).
# ---------------------------------------------------------------------------


def _check_metric_signature(rng):
    good = _connection.metric_compatibility_defect(metric=(1, -1, -1))
    tors = _connection.torsion_defect()
    flipped = _connection.metric_compatibility_defect(metric=(1, 1, -1))
    status = _status(good == 0 and tors == 0, erratum=flipped != 0)
    details = (
        "signature (+,-,-): compatibility_defect=%s, torsion_defect=%s (exact); "
        "flipped plane signature (+,+,-) as in the displayed metric line: "
        "compatibility_defect=%s -- the displayed sign is inconsistent with "
        "the connection table and is corrected to (+,-,-)"
        % (good, tors, flipped)
    )
    return status, float(good), details


def _check_connection_table(rng):
    table = _connection.CONNECTION
    derived = _connection.connection_from_brackets()
    exact = derived.coeffs == table.coeffs
    kernel_ok = _kernel_matches(
        lambda x, y: _connection.covariant_derivative_along(
            x, y, (0.0, 0.0, 0.0)),
        table, 2)
    compat = _connection.metric_compatibility_defect()
    tors = _connection.torsion_defect()
    ok = exact and kernel_ok and compat == 0 and tors == 0
    status = _status(ok)
    details = (
        "table equals the torsion-free metric-compatible solve from the "
        "brackets: %s; kernel bilinear matches on all 9 basis pairs: %s; "
        "compatibility_defect=%s, torsion_defect=%s (exact integer arithmetic)"
        % (exact, kernel_ok, compat, tors)
    )
    return status, 0.0 if ok else 1.0, details


def _check_curvature_table(rng):
    table = _connection.CURVATURE
    brute = _connection.curvature_from_connection()
    exact = brute.coeffs == table.coeffs
    kernel_ok = _kernel_matches(_connection.curvature, table, 3)
    e1, e2, e3 = _BASIS
    ex1 = _connection.riemann_christoffel(e1, e2, e1, e2)
    ex2 = _connection.riemann_christoffel(e1, e3, e1, e3)
    examples_ok = ex1 == -3.0 and ex2 == 1.0
    ok = exact and kernel_ok and examples_ok
    status = _status(ok)
    details = (
        "brute-force curvature from the connection equals the table on all "
        "27 basis entries exactly: %s; type-(0,4) samples: "
        "(e1,e2,e1,e2)=%s, (e1,e3,e1,e3)=%s"
        % (exact and kernel_ok, repr(ex1), repr(ex2))
    )
    return status, 0.0 if ok else 1.0, details


def _check_cross_properties(rng):
    import numpy as np

    tol = 1e-12
    ops = _kernels.array_ops()
    inner, cross = ops.inner, ops.cross

    # One lane per triple. The 11 draws of a row are those a loop over the
    # triples would take in turn: x, y, z, then a and b.
    n_real = 1000
    x, y, z, (a,), (b,) = np.split(
        np.array(rng.uniform(-1.0, 1.0, n_real * 11)).reshape(n_real, 11).T
        .copy(), [3, 6, 9, 10])
    cxy, cyz, czx = cross(x, y), cross(y, z), cross(z, x)
    gxz, gyz = inner(x, z), inner(y, z)
    m = inner(cxy, z)  # mixed(x, y, z)
    dbl = cross(cxy, z)
    residuals = [
        # (i) bilinearity and antisymmetry
        np.subtract(cross(a * x + b * y, z), a * cross(x, z) + b * cyz),
        np.subtract(cxy, np.negative(cross(y, x))),
        # (ii) orthogonality to both factors
        inner(cxy, x), inner(cxy, y),
        # (iv) double-cross expansion
        np.subtract(dbl, gxz * y - gyz * x),
        # (v) mixed product vs -det and cyclic symmetry
        m + _det3(x, y, z), m - inner(cyz, x), m - inner(czx, y),
        # (vi) cyclic double-cross sum
        np.add(np.add(dbl, cross(cyz, x)), cross(czx, y)),
    ]
    # np.max, not max: a NaN residual must not hide behind the others
    worst = float(np.max([np.abs(r).max() for r in residuals]))
    # basis identities and integer triples: exact
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    basis_ok = (
        tuple(_frame.cross(e1, e2)) == (0.0, 0.0, 1.0)
        and tuple(_frame.cross(e2, e3)) == (-1.0, 0.0, 0.0)
        and tuple(_frame.cross(e3, e1)) == (0.0, 1.0, 0.0)
    )
    # integers in [-3, 3]; any such triples must satisfy the laws exactly
    x, y, z = np.split(
        np.floor(rng.uniform(-3.0, 4.0, 50 * 9)).reshape(50, 9).T, 3)
    cxy = np.array(cross(x, y))
    gxz, gyz = inner(x, z), inner(y, z)
    int_ok = bool(
        (np.array(cross(y, x)) == -cxy).all()
        and (inner(cxy, x) == 0.0).all() and (inner(cxy, y) == 0.0).all()
        and (inner(cxy, z) == -_det3(x, y, z)).all()
        and (np.array(cross(cxy, z)) == gxz * y - gyz * x).all()
    )
    status = _status(worst <= tol and basis_ok and int_ok)
    details = (
        "%d seeded real triples, properties (i)-(vi): max_residual=%s "
        "(tol %s); basis identities exact: %s; 50 integer triples exact: %s"
        % (n_real, _fmt(worst), _fmt(tol), basis_ok, int_ok)
    )
    return status, worst, details


def _helix_lemma(kind, tilt, slope):
    """``(amp, k1, k2)`` of :func:`families.make_helix`'s helix by the
    constant-T3 lemma, independently of :mod:`families`:
    ``k1 = |amp·(slope − 2·T3)|``, ``k2 = ±T3·(slope − T3) − amp²`` (− for
    the flat form)."""
    if kind == "spacelike":
        amp, t3 = math.cosh(tilt), math.sinh(tilt)
    elif kind == "timelike":
        amp, t3 = math.sinh(tilt), math.cosh(tilt)
    else:
        amp, t3 = math.cos(tilt), math.sin(tilt)
    k2 = t3 * (slope - t3)
    if kind == "timelike-flat":
        k2 = -k2
    return amp, abs(amp * (slope - 2.0 * t3)), k2 - amp * amp


def _guarded_helix(kind, tilt, slope):
    """A seeded helix's ``(tilt, slope)`` kept away from the geodesics:
    a timelike |tilt| of at least 0.3, and the slope moved by 1.5 where the
    lemma's k1 is below 0.2."""
    if kind == "timelike":
        tilt = math.copysign(max(abs(tilt), 0.3), tilt if tilt else 1.0)
    if _helix_lemma(kind, tilt, slope)[1] < 0.2:
        slope += 1.5
    return tilt, slope


def _generic_frame_curve():
    """Analytic unit spacelike curve with N3·B3 != 0 (erratum witness).

    Tangent (cosh α cosh β, cosh α sinh β, sinh α) with α = 0.3 + 0.2·s and
    β = 1.7·s; β' is unrelated to 2·sinh α, so neither N3 nor B3 vanishes.
    """

    def full(s):
        aj = (0.3 + 0.2 * s, 0.2, 0.0, 0.0)
        bj = (1.7 * s, 1.7, 0.0, 0.0)
        ach, ash = _families._jets_hyperbolic(aj)
        bch, bsh = _families._jets_hyperbolic(bj)
        tx = _families._jets_mul(ach, bch)
        ty = _families._jets_mul(ach, bsh)
        tz = ash
        return tuple((tx[r], ty[r], tz[r]) for r in range(4))

    return _curves.FrameCurve(
        lambda s: full(s)[0], derivative=lambda s, order: full(s)[order]
    )


def _closure_residuals(curve, s, d):
    """Residuals of the three frame evolution equations at one point.

    ``d`` is the Frenet record of ``point_data(curve, s)``.
    """
    jets = curve.tangent_jets(s)
    a10 = _kernels.covd(jets[0], jets[0], jets[1])
    rt = _vdiff(a10, d.k1 * d.eps2 * d.n)
    rn = _vdiff(d.nabla_t_n, -d.k1 * d.eps1 * d.t + d.k2 * d.eps3 * d.b)
    rb = _vdiff(d.nabla_t_b, -d.k2 * d.eps2 * d.n)
    return max(rt, rn, rb)


def _check_bitension_conditions(rng):
    tol = 1e-9
    samples = [
        (_families.make_spacelike_horizontal(branch=1), (-0.8, 0.0, 0.6)),
        (_families.make_spacelike_biharmonic(0.5, branch=-1, phase=0.3),
         (-0.5, 0.2, 1.0)),
        (_families.make_timelike_biharmonic(0.7, branch=1, phase=-0.2),
         (-0.5, 0.2, 1.0)),
        (_families.make_timelike_horizontal_helix(1.5), (-0.4, 0.0, 0.8)),
        (_families.make_b3zero_linear("spacelike", 0.4, 0.6, (0.0, 1.0)),
         (0.2, 0.5, 0.8)),
    ]
    helices = []
    for _ in range(40):
        tilt = rng.uniform(-1.0, 1.0)
        phase = rng.uniform(-1.0, 1.0)
        slope = rng.uniform(-3.0, 3.0)
        kind = "spacelike" if rng.uniform() < 0.5 else "timelike"
        tilt, slope = _guarded_helix(kind, tilt, slope)
        helices.append(_families.make_helix(kind, tilt, slope, phase))
    sample_pairs = [(curve, s) for curve, pts in samples for s in pts]
    # the Frenet routes raise on any value that is not finite, so no NaN
    # hides in the running maxima
    results = _evaluated(
        sample_pairs + [(hel, s) for hel in helices for s in (-0.7, 0.4)]
    )
    closure_max = 0.0
    route_max = 0.0
    for curve, s in sample_pairs:
        fr, tau_d, tau_f = next(results)
        closure_max = max(closure_max, _closure_residuals(curve, s, fr))
        route_max = max(route_max, _vdiff(tau_d, tau_f))
    for _, tau_d, tau_f in results:
        route_max = max(route_max, _vdiff(tau_d, tau_f))
    # third-condition factor: direct oracle on a curve with N3·B3 != 0
    d, tau_d, _ = _frenet.point_data(_generic_frame_curve(), 0.0)
    cb_direct = d.eps3 * _frame.inner(tau_d, d.b)
    base = 2.0 * d.k1_prime * d.k2 + d.k1 * d.k2_prime
    cb_factor4 = (base - 4.0 * d.k1 * d.n3 * d.b3) * d.eps2 * d.eps3
    cb_factor1 = (base - 1.0 * d.k1 * d.n3 * d.b3) * d.eps2 * d.eps3
    n3b3 = d.n3 * d.b3
    factor4_dev = abs(cb_direct - cb_factor4)
    factor1_dev = abs(cb_direct - cb_factor1)
    # torsion-zero reduction of the closure identity: pure sign algebra
    corollary_ok = True
    for _ in range(100):
        e1s = 1.0 if rng.uniform() < 0.5 else -1.0
        e3s = 1.0 if rng.uniform() < 0.5 else -1.0
        b3 = rng.uniform(-2.0, 2.0)
        k1sq = e1s * (e3s + 4.0 * b3 * b3)
        if k1sq <= 0.0:
            continue
        k1 = math.sqrt(k1sq)
        if abs(_biharmonic.identity_defect(k1, 0.0, e1s, e3s, b3)) > 1e-12:
            corollary_ok = False
    confirmed = max(closure_max, route_max, factor4_dev)
    status = _status(confirmed <= tol and corollary_ok,
                     erratum=factor1_dev > 0.05)
    details = (
        "frame evolution closure on 5 sample curves: max=%s; Frenet-form vs "
        "direct bitension on samples plus 40 seeded helices: max=%s; "
        "third-condition factor on a curve with N3*B3=%s: B-coefficient "
        "direct=%s, with factor 4 dev=%s, with the printed unit factor "
        "dev=%s -- the printed third condition understates the factor by 4 "
        "(downstream results carry N3*B3=0 and are unaffected); "
        "torsion-zero reduction consistent on 100 seeded sign tuples: %s"
        % (_fmt(closure_max), _fmt(route_max), _fmt(n3b3), _fmt(cb_direct),
           _fmt(factor4_dev), _fmt(factor1_dev), corollary_ok)
    )
    return status, confirmed, details


# The s-grid of the family sweeps: 81 points on [-2, 2].
_FAMILY_GRID = tuple(-2.0 + 0.05 * i for i in range(81))


def _family_sweep(rng, shapes, maker, kind, eps_want):
    """Both branches at each shape, with seeded phase and offsets, checked
    on the grid against :func:`_helix_lemma` and at s = 0 with the printed
    slope. Returns ``(worst, const_dev, printed_min, rows, curves)``."""
    grid = _FAMILY_GRID
    cases = []
    for shape in shapes:
        for branch in (1, -1):
            phase = rng.uniform(-1.0, 1.0)
            offsets = tuple(rng.uniform(-1.0, 1.0, 3))
            curve = maker(shape, branch=branch, phase=phase, offsets=offsets)
            printed = maker(shape, branch=branch, phase=phase,
                            offsets=offsets, as_printed=True)
            cases.append((shape, branch, curve, printed))
    # each curve's grid, then its printed twin at s = 0, all in one pass
    results = _evaluated([
        pair for _, _, curve, printed in cases
        for pair in [(curve, s) for s in grid] + [(printed, 0.0)]
    ])
    worst = 0.0
    const_dev = 0.0
    printed_min = math.inf
    rows = []
    for shape, branch, curve, _ in cases:
        points = list(islice(results, len(grid)))
        direct, fren = _biharmonic.route_norms(points)
        summ = _frenet.summarize_frames(grid, [p[0] for p in points])
        res = max(max(direct), max(fren))
        worst = max(worst, res)
        amp, k1_want, k2_want = _helix_lemma(kind, shape, curve.helix.slope)
        dev = max(
            abs(summ.k1_mean - k1_want), summ.k1_max_dev,
            abs(summ.k2_mean - k2_want), summ.k2_max_dev,
            abs(abs(summ.b3_mean) - abs(amp)), summ.b3_max_dev,
            abs(summ.n3_mean), summ.n3_max_dev,
        )
        const_dev = max(const_dev, dev)
        if not all((d.eps1, d.eps2, d.eps3) == eps_want for d in summ.data):
            const_dev = math.inf
        pres = _biharmonic.route_norms([next(results)])[0][0]
        printed_min = min(printed_min, pres)
        rows.append(
            "shape=%s branch=%+d: residual=%s, const_dev=%s, "
            "printed_slope_residual_s0=%s"
            % (repr(shape), branch, _fmt(res), _fmt(dev), _fmt(pres))
        )
    return worst, const_dev, printed_min, rows, [c[2] for c in cases]


def _check_family(rng, shapes, maker, kind, eps_want, printed, note=""):
    """The family sweep, confirmed on the slope roots, with the printed
    discriminant ``printed`` refuted at s = 0."""
    worst, const_dev, printed_min, rows, _ = _family_sweep(
        rng, shapes, maker, kind, eps_want)
    tol = 1e-9
    confirmed = max(worst, const_dev)
    status = _status(confirmed <= tol, erratum=printed_min > 100.0 * tol)
    details = (
        "quadratic slope roots (discriminant tilt^2+4*amp^2): all residuals "
        "and closed-form constant deviations above; printed discriminant "
        "(%s) refuted: min over cases of the s=0 residual = %s; %s%s"
        % (printed, _fmt(printed_min), note, "; ".join(rows))
    )
    return status, confirmed, details


def _check_spacelike_family(rng):
    return _check_family(
        rng, (0.0, 0.5, -0.5, 1.0, -1.0), _families.make_spacelike_biharmonic,
        "spacelike", (1.0, -1.0, -1.0), "5*sinh^2+1")


def _check_timelike_family(rng):
    return _check_family(
        rng, (0.5, -0.5, 1.0, -1.0), _families.make_timelike_biharmonic,
        "timelike", (-1.0, -1.0, 1.0), "5*cosh^2-1",
        note="note: one displayed derivative line in the integration uses "
        "the even hyperbolic function where the displayed solution and unit "
        "speed force the odd one; ")


def _seeded_b3zero_curves(rng, count):
    curves = []
    for i in range(count):
        p = rng.uniform(0.3, 1.0)
        q = rng.uniform(0.3, 0.9)
        w = rng.uniform(0.5, 1.4)
        kind = "b3zero-spacelike" if i % 2 == 0 else "b3zero-timelike"
        if i % 4 < 2:
            curves.append(_families.make_b3zero_linear(kind, p, q, (0.0, 1.0)))
        else:
            curves.append(
                _families.make_b3zero_curve(
                    kind, _families.sine_profile(p, q, w), (0.0, 1.0)
                )
            )
    return curves


_B3ZERO_POINTS = (0.15, 0.35, 0.55, 0.75, 0.9)


def _check_b3zero_signs(rng):
    tol = 1e-9
    worst = 0.0
    signs_ok = True
    curves = _seeded_b3zero_curves(rng, 12)
    for curve in curves:
        for s in _B3ZERO_POINTS:
            d = _frenet.compute_frenet(curve, s)
            worst = max(worst, abs(d.b3))
            if d.eps1 != -d.eps2 or d.eps3 != -1.0:
                signs_ok = False
    status = _status(worst <= tol and signs_ok)
    details = (
        "12 seeded profile curves (linear and sine, both causal kinds), "
        "%d frame evaluations: max |B3|=%s (tol %s); eps1=-eps2 and "
        "eps3=-1 (binormal timelike) at every point: %s"
        % (len(curves) * len(_B3ZERO_POINTS), _fmt(worst), _fmt(tol),
           signs_ok)
    )
    return status, worst, details


def _check_b3zero_k2(rng):
    tol = 1e-6
    worst = 0.0
    verdicts_ok = True
    min_res = math.inf
    for curve in _seeded_b3zero_curves(rng, 12):
        for s in _B3ZERO_POINTS:
            d = _frenet.compute_frenet(curve, s)
            worst = max(worst, abs(d.k2 * d.k2 - 1.0))
        report = _biharmonic.check_biharmonic_conditions(
            curve, _B3ZERO_POINTS
        )
        if report.verdict != "NotBiharmonic":
            verdicts_ok = False
        min_res = min(min_res, min(report.residual_direct))
    status = _status(worst <= tol and verdicts_ok)
    details = (
        "12 seeded profile curves: max |k2^2-1|=%s (tol %s, measured torsion "
        "is -1 in this frame orientation); every curve NotBiharmonic: %s; "
        "smallest direct bitension norm observed=%s (bounded away from 0)"
        % (_fmt(worst), _fmt(tol), verdicts_ok, _fmt(min_res))
    )
    return status, worst, details


def _check_helix_lemma(rng):
    tol = 1e-9
    lemma = []
    for _ in range(35):
        kind = "spacelike" if rng.uniform() < 0.5 else "timelike"
        tilt = rng.uniform(-1.0, 1.0)
        slope = rng.uniform(-3.0, 3.0)
        phase = rng.uniform(-1.0, 1.0)
        tilt, slope = _guarded_helix(kind, tilt, slope)
        amp, k1_want, k2_want = _helix_lemma(kind, tilt, slope)
        lemma.append((_families.make_helix(kind, tilt, slope, phase),
                      k1_want, k2_want, amp))
    flat = []
    for _ in range(10):
        theta = rng.uniform(-0.6, 0.6)
        slope = math.copysign(rng.uniform(0.5, 2.5),
                              rng.uniform(-1.0, 1.0))
        _, k1, k2_want = _helix_lemma("timelike-flat", theta, slope)
        if k1 < 0.2:
            continue
        flat.append((_families.make_helix("timelike-flat", theta, slope),
                     k2_want))
    members = (
        _families.make_spacelike_biharmonic(0.5, branch=1),
        _families.make_timelike_biharmonic(0.5, branch=-1),
    )
    frames = (res[0] for res in _evaluated(
        [(hel, s) for hel, *_ in lemma for s in (-0.6, 0.3)]
        + [(hel, s) for hel, _ in flat for s in (-0.4, 0.5)]
        + [(curve, s) for curve in members for s in (-0.5, 0.0, 0.8)]
    ))
    worst = 0.0
    signs_ok = True
    flat_outside = True
    for _, k1_want, k2_want, amp in lemma:
        for d in islice(frames, 2):
            worst = max(
                worst, abs(d.n3), abs(d.k1 - k1_want),
                abs(d.k2 - k2_want), abs(abs(d.b3) - abs(amp)),
            )
            if d.eps1 != -d.eps3 or d.eps2 != -1.0:
                signs_ok = False
    for _, k2_want in flat:
        for d in islice(frames, 2):
            worst = max(worst, abs(d.n3), abs(d.k2 - k2_want))
            # these tangents have |T3| < 1: outside the two displayed forms,
            # and the sign conclusion does not extend to them
            if d.eps1 != -1.0 or d.eps2 != 1.0 or d.eps3 != -1.0:
                flat_outside = False
    defect_max = 0.0
    for d in frames:  # the members' points
        defect_max = max(
            defect_max,
            abs(_biharmonic.identity_defect(d.k1, d.k2, d.eps1, d.eps3,
                                            d.b3)),
        )
        if abs(d.b3) <= tol:
            signs_ok = False
    worst = max(worst, defect_max)
    status = _status(worst <= tol and signs_ok and flat_outside)
    details = (
        "%d evaluations on seeded constant-T3 tangents of the two displayed "
        "forms: N3=0, closed-form k1, k2, |B3| within %s; sign corollary "
        "eps1=-eps3 with timelike normal holds on all of them: %s; "
        "biharmonic members satisfy the closure identity (max defect %s) "
        "with constant nonzero B3; %d evaluations on flat timelike helices "
        "(|T3|<1): N3=0 with eps1=eps3=-1 -- a constant-T3 case outside the "
        "two displayed forms, recorded as a case-analysis gap: %s"
        % (2 * len(lemma), _fmt(worst), signs_ok, _fmt(defect_max),
           2 * len(flat), flat_outside)
    )
    return status, worst, details


def _check_horizontal_family(rng):
    # the spacelike sweep at shape 0, where the lemma gives k1 = 2, k2 = -1
    # and |B3| = 1 exactly
    tol = 1e-9
    worst, const_dev, _, _, curves = _family_sweep(
        rng, (0.0,), _families.make_spacelike_biharmonic, "spacelike",
        (1.0, -1.0, -1.0),
    )
    horiz_max = max(abs(_curves.vertical_momentum(curve, s))
                    for curve in curves for s in _FAMILY_GRID)
    confirmed = max(worst, const_dev, horiz_max)
    status = _status(confirmed <= tol)
    details = (
        "corrected slope roots +/-2, both branches with seeded phase and "
        "offsets: max bitension residual=%s; k1=2, k2=-1, |B3|=1, N3=0 "
        "deviations <= %s; contact form annihilates the velocity: "
        "max |2*T3|=%s; signs (+,-,-)"
        % (_fmt(worst), _fmt(const_dev), _fmt(horiz_max))
    )
    return status, confirmed, details


def _check_horizontal_slope_printed(rng):
    tol = 1e-9
    grid = _FAMILY_GRID
    curves = [_families.make_spacelike_horizontal(branch=branch,
                                                  as_printed=True)
              for branch in (1, -1)]
    results = _evaluated([(curve, s) for curve in curves
                          for s in (0.0,) + grid])
    dev3 = 0.0
    res_s0 = 0.0
    sweep_max = 0.0
    for _ in curves:
        res = _biharmonic.route_norms([next(results)])[0][0]
        dev3 = max(dev3, abs(res - 3.0))
        res_s0 = max(res_s0, res)
        sweep = _biharmonic.route_norms(islice(results, len(grid)))[0]
        sweep_max = max(sweep_max, max(sweep))
    status = _status(not res_s0 > 100.0 * tol)
    details = (
        "printed unit slope, both signs, zero phase and offsets: direct "
        "bitension residual at s=0 equals 3 exactly (deviation %s); sweep "
        "max over [-2,2]: %s; the corrected slope +/-2 is confirmed in the "
        "horizontal-family row"
        % (_fmt(dev3), _fmt(sweep_max))
    )
    return status, res_s0, details


def _check_timelike_horizontal_nonexistence(rng):
    tol = 1e-9
    # the 30 points of numpy.linspace(0.1, 3.0, 30), bit for bit
    m_grid = [0.1 + i * ((3.0 - 0.1) / 29) for i in range(29)] + [3.0]
    s_pts = (-0.5, 0.0, 0.7)
    formula_dev = 0.0
    defect_dev = 0.0
    min_res = math.inf
    curves = [_families.make_timelike_horizontal_helix(m) for m in m_grid]
    results = _evaluated([(curve, s) for curve in curves for s in s_pts])
    for m in m_grid:
        points = list(islice(results, len(s_pts)))
        direct, _ = _biharmonic.route_norms(points)
        for s, res in zip(s_pts, direct):
            want = abs(m ** 3 + 4.0 * m) * math.sqrt(
                math.cosh(m * s) ** 2 + math.sinh(m * s) ** 2
            )
            formula_dev = max(formula_dev, abs(res - want))
            min_res = min(min_res, res)
        # the frame at s_pts[1] = 0.0
        d = points[1][0]
        defect = _biharmonic.identity_defect(d.k1, d.k2, d.eps1, d.eps3,
                                             d.b3)
        defect_dev = max(defect_dev, abs(defect - (m * m + 4.0)))
    ok = formula_dev <= tol and defect_dev <= tol and min_res >= 0.401
    status = _status(ok)
    details = (
        "30-point frequency grid on [0.1,3], 3 arclength points each: "
        "residual matches |m^3+4m|*sqrt(cosh^2+sinh^2) within %s; closure "
        "identity defect equals m^2+4 within %s; min residual over the "
        "sweep=%s (>= 0.401): nonexistence confirmed"
        % (_fmt(formula_dev), _fmt(defect_dev), _fmt(min_res))
    )
    return status, formula_dev, details


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# (claim id, anchor, check, expected status)
_REGISTRY = (
    ("metric-signature",
     "sec 2.2: left-invariant metric signature vs connection compatibility",
     _check_metric_signature, STATUS_CONFIRMED_WITH_ERRATUM),
    ("connection-table",
     "sec 2.2: covariant-derivative table of the connection",
     _check_connection_table, STATUS_CONFIRMED),
    ("curvature-table",
     "sec 2.2: nonzero curvature tensor components",
     _check_curvature_table, STATUS_CONFIRMED),
    ("cross-properties",
     "sec 2.2: cross-product properties (i)-(vi)",
     _check_cross_properties, STATUS_CONFIRMED),
    ("bitension-conditions",
     "sec 3: biharmonicity conditions and bitension coefficients",
     _check_bitension_conditions, STATUS_CONFIRMED_WITH_ERRATUM),
    ("spacelike-family",
     "sec 4: spacelike family parametric equations and slope",
     _check_spacelike_family, STATUS_CONFIRMED_WITH_ERRATUM),
    ("timelike-family",
     "sec 4: timelike family parametric equations and slope",
     _check_timelike_family, STATUS_CONFIRMED_WITH_ERRATUM),
    ("b3zero-signs",
     "sec 4: vanishing-B3 sign proposition",
     _check_b3zero_signs, STATUS_CONFIRMED),
    ("b3zero-k2",
     "sec 4: vanishing-B3 torsion-square and non-biharmonicity",
     _check_b3zero_k2, STATUS_CONFIRMED),
    ("helix-lemma",
     "sec 4: constant-T3 tangent lemma and vanishing-N3 sign corollary",
     _check_helix_lemma, STATUS_CONFIRMED),
    ("horizontal-family",
     "sec 5: horizontal family parametric equations (corrected slope)",
     _check_horizontal_family, STATUS_CONFIRMED),
    ("horizontal-slope-printed",
     "sec 5: horizontal family slope constant as printed",
     _check_horizontal_slope_printed, STATUS_REFUTED_AS_PRINTED),
    ("timelike-horizontal-nonexistence",
     "sec 5: timelike horizontal nonexistence",
     _check_timelike_horizontal_nonexistence, STATUS_CONFIRMED),
)

EXPECTED_STATUS = {cid: want for cid, _, _, want in _REGISTRY}

_CLAIM_INDEX = {cid: i for i, (cid, *_) in enumerate(_REGISTRY)}


def registry_ids():
    """Claim identifiers in registry order."""
    return tuple(cid for cid, *_ in _REGISTRY)


def _run_one(index, cfg):
    claim_id, anchor, fn, _ = _REGISTRY[index]
    rng = _Stream([cfg.seed, index])
    try:
        status, residual, details = fn(rng)
    except Exception as exc:  # failures become report rows, not exceptions
        status = STATUS_ERROR
        residual = math.inf
        details = "check aborted: %s: %s" % (type(exc).__name__, exc)
    return CheckResult(
        claim_id=claim_id,
        anchor=anchor,
        status=status,
        max_residual=float(residual),
        details=details,
    )


def run_all(config=None):
    """Run every registry check in order and assemble the report."""
    cfg = config if config is not None else VerifyConfig()
    checks = tuple(_run_one(i, cfg) for i in range(len(_REGISTRY)))
    return VerificationReport(schema_version=1, seed=cfg.seed, checks=checks)


def verify_claim(claim_id, config=None):
    """Run a single registry check; unknown ids are rejected."""
    cfg = config if config is not None else VerifyConfig()
    if claim_id not in _CLAIM_INDEX:
        raise InvalidInputError(
            "unknown claim id %r; known ids: %s"
            % (claim_id, ", ".join(registry_ids()))
        )
    return _run_one(_CLAIM_INDEX[claim_id], cfg)
