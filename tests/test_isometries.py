"""Left translations and boosts leave k1 and k2 unchanged on the FD and
sampled backings, and through the CLI's CSV round trip.

Each cell takes one biharmonic member (spacelike α₀ = 0.5, timelike
ν₀ = 0.7), one backing (finite differences at the default step, or samples
at spacing 0.005) and one kind of isometry (``tests/isometries.py``), and
compares k1 and k2 of every transformed copy with the untransformed curve's
on the same backing, at four interior nodes. The maps are small: |g| ≤ 1 and
|t| ≤ 0.5. Each cell's largest deviation is pinned at twice the value it
measured when the test was written (the FD cells are dominated by stencil
rounding, the sampled ones by the node spacing).

The CSV cells ``generate`` each member on ``-0.5:0.5:0.005``, map the
positions of its rows, and compare the k1 and k2 columns of ``frenet
--input`` on each image with those of the untransformed round trip, at
every interior node; each column is pinned on its own.
"""

import contextlib
import io

import pytest

from isometries import boost, left_translation, on_points, on_position, on_rows
from hhcurves import CoordinateCurve, compute_frenet
from hhcurves.cli import main
from hhcurves.families import make_spacelike_biharmonic, make_timelike_biharmonic

MEMBERS = {
    "spacelike": lambda: make_spacelike_biharmonic(0.5),
    "timelike": lambda: make_timelike_biharmonic(0.7),
}
MAPS = {
    "translation": [left_translation(g) for g in (
        (1.0, -1.0, 0.5), (-0.7, 0.4, -1.0), (0.3, 0.9, 0.0),
        (-0.25, -0.6, 0.8))],
    "boost": [boost(t) for t in (0.5, -0.5, 0.2, -0.1)],
}
NODES = [-1.0 + 0.005 * j for j in range(401)]
AT = [NODES[j] for j in (80, 160, 260, 340)]

# Twice each cell's measured largest |Δk1| or |Δk2|.
PINS = {
    ("spacelike", "fd", "translation"): 9.2e-3,
    ("spacelike", "fd", "boost"): 7.5e-4,
    ("spacelike", "samples", "translation"): 5.9e-9,
    ("spacelike", "samples", "boost"): 1.3e-9,
    ("timelike", "fd", "translation"): 5.6e-2,
    ("timelike", "fd", "boost"): 1.45e-1,
    ("timelike", "samples", "translation"): 3.1e-8,
    ("timelike", "samples", "boost"): 5.6e-8,
}


def _curve(member, backing, image):
    if backing == "fd":
        return CoordinateCurve.from_functions(on_position(image, member.point))
    points = [member.point(s) for s in NODES]
    return CoordinateCurve.from_samples(NODES, on_points(image, points))


def _curvatures(curve):
    return [(f.k1, f.k2) for f in (compute_frenet(curve, s) for s in AT)]


@pytest.mark.parametrize("member, backing, kind", sorted(PINS))
def test_isometries_keep_k1_and_k2(member, backing, kind):
    curve = MEMBERS[member]()
    want = _curvatures(_curve(curve, backing, lambda p: p))
    worst = 0.0
    for image in MAPS[kind]:
        got = _curvatures(_curve(curve, backing, image))
        for (k1, k2), (w1, w2) in zip(got, want):
            worst = max(worst, abs(k1 - w1), abs(k2 - w2))
    assert worst <= PINS[member, backing, kind]


# Flags of each member for the CLI, and twice each CSV cell's measured
# largest (|Δk1|, |Δk2|).
CLI_FLAGS = {"spacelike": ["--alpha0", "0.5"], "timelike": ["--nu0", "0.7"]}
CSV_PINS = {
    ("spacelike", "translation"): (1.1e-10, 6.1e-9),
    ("spacelike", "boost"): (1.4e-10, 7.4e-10),
    ("timelike", "translation"): (1.1e-10, 3.7e-8),
    ("timelike", "boost"): (1.7e-10, 3.2e-8),
}


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _k1_k2_columns(path):
    text = _cli(["frenet", "--input", str(path)])
    return [tuple(map(float, line.split(",")[1:3]))
            for line in text.strip().splitlines()[1:]]


@pytest.mark.parametrize("member, kind", sorted(CSV_PINS))
def test_isometries_keep_k1_and_k2_through_csv(member, kind, tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text(_cli(["generate", "--family", member] + CLI_FLAGS[member]
                         + ["--range", "-0.5:0.5:0.005"]), encoding="utf-8")
    want = _k1_k2_columns(path)
    generated = path.read_text(encoding="utf-8")
    worst = [0.0, 0.0]
    for image in MAPS[kind]:
        path.write_text(on_rows(image, generated), encoding="utf-8")
        got = _k1_k2_columns(path)
        assert len(got) == len(want)
        for row, want_row in zip(got, want):
            for j in (0, 1):
                worst[j] = max(worst[j], abs(row[j] - want_row[j]))
    pins = CSV_PINS[member, kind]
    assert worst[0] <= pins[0] and worst[1] <= pins[1], worst
