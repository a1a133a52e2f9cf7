"""The meridian roots against their a -> 0 limit (asymptotics.py)."""

import math

import pytest

from sphere3body import meridian as mer
from sphere3body.dynamics import MassTriple

import asymptotics

M321 = MassTriple(3.0, 2.0, 1.0)
# two decades of a, in steps of about half a decade
SMALL_A = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


def test_flat_offsets_are_eulers_configurations():
    ks = asymptotics.flat_collinear_offsets(M321)
    assert [round(k, 12) for k in ks] == [-0.891881471886, 0.532303936187, 1.780671858824]


def _near_zero_offsets(xs, a):
    """x / a of the roots within 10 a of x = 0 (mod 2 pi), ascending,
    with x - 2 pi in place of a root below 2 pi."""
    return sorted((x - mer.TWO_PI if x > math.pi else x) / a
                  for x in xs if min(x, mer.TWO_PI - x) <= 10.0 * a)


def test_near_zero_roots_tend_to_flat_euler_configurations():
    """The three roots of g within 10 a of x = 0, as found by the scan and
    as reported by the solver, sit at x = k a with k within 0.2 a^2 of the
    flat collinear RE's, and the error falls at order 2 on every step."""
    ks = asymptotics.flat_collinear_offsets(M321)
    sources = {
        "scan": lambda a: [x for r in mer._scan_roots(a, M321.nu1, M321.nu2) for x in r],
        "solver": lambda a: [s.x for s in mer.find_meridian_rotators(a, M321)],
    }
    for name, roots in sources.items():
        errors = []
        for a in SMALL_A:
            offsets = _near_zero_offsets(roots(a), a)
            assert len(offsets) == 3, (name, a, offsets)
            errors.append([abs(x - k) for x, k in zip(offsets, ks)])
            assert max(errors[-1]) <= 0.2 * a * a, (name, a, errors[-1])
        for j in range(len(SMALL_A) - 1):
            step = math.log(SMALL_A[j] / SMALL_A[j + 1])
            for e0, e1 in zip(errors[j], errors[j + 1]):
                assert abs(math.log(e0 / e1) / step - 2.0) <= 0.1, (name, SMALL_A[j])


@pytest.mark.parametrize("c", [0.5 * math.pi, 1.5 * math.pi], ids=["pi_2", "3pi_2"])
@pytest.mark.parametrize("m", [(3.0, 2.0, 1.0), (1.0, 4.0, 2.0), (5.0, 1.0, 3.0)],
                         ids=["m321", "m142", "m513"])
def test_near_quarter_roots_tend_to_the_pairs_centre_of_mass(m, c):
    """The one root of g within 10 a of c = pi/2 or 3 pi/2, as found by the
    scan and as reported by the solver, sits within a^3 of c + k a, with
    k = m2 / (m1 + m2), and the error falls at order 3 on every step. At
    m = (3, 2, 1) it is -0.832 a^3 near pi/2 and +0.768 a^3 near 3 pi/2."""
    masses = MassTriple(*m)
    k = asymptotics.near_quarter_offset(masses)
    sources = {
        "scan": lambda a: [x for r in mer._scan_roots(a, masses.nu1, masses.nu2)
                           for x in r],
        "solver": lambda a: [s.x for s in mer.find_meridian_rotators(a, masses)],
    }
    for name, roots in sources.items():
        errors = []
        for a in SMALL_A:
            near = [x for x in roots(a) if abs(x - c) <= 10.0 * a]
            assert len(near) == 1, (name, a, near)
            errors.append(abs(near[0] - (c + k * a)))
            assert errors[-1] <= a ** 3, (name, a, errors[-1])
        for j in range(len(SMALL_A) - 1):
            step = math.log(SMALL_A[j] / SMALL_A[j + 1])
            assert abs(math.log(errors[j] / errors[j + 1]) / step - 3.0) <= 0.1, (
                name, SMALL_A[j])
