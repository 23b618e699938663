"""Exact isometries of the group, applied to coordinate curves.

A left translation by ``g = (x0, y0, z0)`` maps a point to
``(x0 + x, y0 + y, z0 + z + 2(x0·y − x·y0))``; the family ``offsets`` are
these maps. A boost of rapidity ``t`` maps it to
``(x cosh t + y sinh t, x sinh t + y cosh t, z)``, an automorphism (its
determinant is 1, so it keeps ``[e1, e2] = 2·e3``) that preserves the
``(+, −)`` plane of the metric. Both leave k1, k2 and the causal signs of a
curve unchanged, so a transformed curve must give the answers of the
original. Each map takes a point ``(x, y, z)`` to its image; ``on_position``
applies one to a position callable, ``on_points`` to a sample table and
``on_rows`` to the rows of a curve CSV.
"""

import math


def left_translation(g):
    """The map ``p ↦ g·p`` of the left translation by ``g = (x0, y0, z0)``."""
    x0, y0, z0 = g

    def image(p):
        x, y, z = p
        return (x0 + x, y0 + y, z0 + z + 2.0 * (x0 * y - x * y0))

    return image


def boost(t):
    """The map of the boost of rapidity ``t`` in the ``(x, y)`` plane."""
    ch, sh = math.cosh(t), math.sinh(t)

    def image(p):
        x, y, z = p
        return (x * ch + y * sh, x * sh + y * ch, z)

    return image


def on_position(image, position):
    """The position callable ``s ↦ image(position(s))``."""
    return lambda s: image(position(s))


def on_points(image, points):
    """The images of a sample table's points, in order."""
    return [image(p) for p in points]


def on_rows(image, text):
    """The curve CSV ``s,x,y,z`` of the image of a curve CSV's positions.

    ``text`` has the header ``s,x,y,z`` and possibly more columns (such as
    the tangent columns ``generate`` writes); those are dropped, since a
    boost turns the frame components of the tangent. Each value is written
    with ``repr``, which reads back as the same double.
    """
    lines = text.strip().splitlines()
    rows = ["s,x,y,z"]
    for line in lines[1:]:
        s, x, y, z = (float(c) for c in line.split(",")[:4])
        rows.append(",".join(map(repr, (s,) + tuple(image((x, y, z))))))
    return "\n".join(rows) + "\n"
