"""Left translations and boosts leave k1 and k2 unchanged on the FD and
sampled backings.

Each cell takes one biharmonic member (spacelike α₀ = 0.5, timelike
ν₀ = 0.7), one backing (finite differences at the default step, or samples
at spacing 0.005) and one kind of isometry (``tests/isometries.py``), and
compares k1 and k2 of every transformed copy with the untransformed curve's
on the same backing, at four interior nodes. The maps are small: |g| ≤ 1 and
|t| ≤ 0.5. Each cell's largest deviation is pinned at twice the value it
measured when the test was written (the FD cells are dominated by stencil
rounding, the sampled ones by the node spacing).
"""

import pytest

from isometries import boost, left_translation, on_points, on_position
from hhcurves import CoordinateCurve, compute_frenet
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
