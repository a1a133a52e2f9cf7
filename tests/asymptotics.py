"""Asymptotic oracles of the meridian roots, independent of g.

As a -> 0 with the masses fixed, three bodies that stay within O(a) of
each other see a sphere that is flat to second order in a. The roots of
g near x = 0 (mod 2 pi) therefore follow x = k a (1 + O(a^2)), where
(0, 1, k) are the positions on a line of the flat collinear relative
equilibria of the same masses: Euler's three configurations, one for
each place of body 3 (below 0, between 0 and 1, above 1). This module
solves the flat equations for k by bisection.

The roots near x = c = pi/2 and 3 pi/2 follow x = c + k a + O(a^3)
with k = m2 / (m1 + m2): body 3 sits a quarter turn from the centre of
mass of the close pair, which lies k a along the arc from body 1 to
body 2.
"""

from __future__ import annotations

import math

# where each of Euler's configurations puts body 3: below body 1, between
# bodies 1 and 2, and above body 2
FLAT_BRACKETS = ((-1e3, -1e-9), (1e-9, 1.0 - 1e-9), (1.0 + 1e-9, 1e3))


def flat_collinear_defect(masses, k: float) -> float:
    """Zero exactly at a flat collinear RE with bodies of masses m1, m2,
    m3 at 0, 1 and k: the points (position, acceleration) of the three
    bodies lie on one line, so each acceleration is -omega^2 (x - c) for
    one omega^2 and one centre c. The accelerations are Newton's,
    sum_j m_j (x_j - x_i) / |x_j - x_i|^3."""
    xs = (0.0, 1.0, k)
    acc = [sum(masses[j] * (xs[j] - xs[i]) / abs(xs[j] - xs[i]) ** 3
               for j in range(3) if j != i) for i in range(3)]
    return (acc[2] - acc[0]) * (xs[1] - xs[0]) - (acc[1] - acc[0]) * (xs[2] - xs[0])


def _bisect(f, lo: float, hi: float) -> float:
    """A sign change of f on [lo, hi], narrowed to neighbouring floats."""
    flo, fhi = f(lo), f(hi)
    if not flo * fhi < 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(flo) <= abs(fhi) else hi
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm


def flat_collinear_offsets(masses) -> tuple[float, float, float]:
    """k of each flat collinear RE of masses (m1, m2, m3), with bodies 1
    and 2 at 0 and 1 and body 3 at k, ascending."""
    return tuple(_bisect(lambda k: flat_collinear_defect(masses, k), lo, hi)
                 for lo, hi in FLAT_BRACKETS)


def near_quarter_offset(masses) -> float:
    """k of the roots x = c + k a near c = pi/2 and 3 pi/2: the centre of
    mass of bodies 1 and 2, at 0 and 1, of masses m1 and m2."""
    m1, m2, _ = masses
    return m2 / (m1 + m2)
