"""The per-region root finder for g, against the sampled scan it replaced.

``old_scan_region_roots`` is a literal transcription of the earlier
``meridian._scan_region_roots``: 2000 samples per region, bisection and
finite-difference Newton on each sign change, golden-section refinement of
extrema for tangent roots, and a merge step.
"""

import math
import random

import numpy as np
import pytest

from sphere3body import kernels
from sphere3body import meridian as mer
from sphere3body.dynamics import MassTriple

SAMPLES_PER_REGION = 2000
MERGE_TOL = 1e-10
ROOT_XTOL = 1e-13
TANGENCY_TOL = 1e-9
BOUNDARY_TOL = 1e-8


def _old_bisect(f, lo, hi, flo, xtol):
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _old_newton_polish(f, x, steps=3):
    fx = f(x)
    for _ in range(steps):
        h = 1e-7 * max(abs(x), 1.0)
        df = (f(x + h) - f(x - h)) / (2.0 * h)
        if df == 0.0:
            break
        x_new = x - fx / df
        f_new = f(x_new)
        if abs(f_new) >= abs(fx):
            break
        x, fx = x_new, f_new
    return x


def _old_refine_extremum(f, lo, hi, sign, iters=100):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = sign * f(c), sign * f(d)
    for _ in range(iters):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = sign * f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = sign * f(d)
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def old_scan_region_roots(a, nu1, nu2, region):
    lo, hi = mer.region_bounds(region, a)
    lo += BOUNDARY_TOL
    hi -= BOUNDARY_TOL
    if hi <= lo:
        return []
    xs = np.linspace(lo, hi, SAMPLES_PER_REGION)
    gs = kernels.g_array(xs, a, nu1, nu2)
    scale = float(np.max(np.abs(gs)))
    if scale == 0.0:
        return []

    def f(x):
        return kernels.g_scalar(x, a, nu1, nu2)

    roots = []
    crossing = gs[:-1] * gs[1:] < 0.0
    for i in np.flatnonzero(crossing):
        r = _old_bisect(f, xs[i], xs[i + 1], gs[i], ROOT_XTOL)
        roots.append(_old_newton_polish(f, r))

    d = np.diff(gs)
    d_next = np.where(d[1:] == 0.0, -d[:-1], d[1:])
    ext = np.flatnonzero(d[:-1] * d_next < 0.0) + 1
    for i in ext:
        if crossing[max(i - 2, 0):min(i + 2, len(crossing))].any():
            continue
        sign = 1.0 if gs[i] > 0 else -1.0
        x_star = _old_refine_extremum(f, xs[i - 1], xs[i + 1], sign)
        if abs(f(x_star)) <= TANGENCY_TOL * scale:
            roots.append(x_star)

    roots.sort()
    merged = []
    for r in roots:
        if merged and r - merged[-1] < MERGE_TOL:
            continue
        merged.append(r)
    return merged


def _g(x, a, nu1, nu2):
    return float(kernels.g_scalar(x, a, nu1, nu2))


def _rounding_bound(x, a, nu1, nu2):
    P, Q, S = kernels.g_terms(x, a)
    return float(mer.TANGENT_ULPS * mer.EPS
                 * (abs(nu1 * P) + abs(nu2 * Q) + abs(S)))


def _changes_sign(x, h, a, nu1, nu2):
    return _g(x - h, a, nu1, nu2) * _g(x + h, a, nu1, nu2) < 0.0


# (a, nu1, nu2): the paper's named inputs and the faults of the sampled
# scan (a missed close pair, a false tangent root)
NEAR_EQUILATERAL = (2.0944782778443853, 0.2589050462028535, 0.46737615900736335)
FALSE_TANGENT = (0.007767171749992791, 0.09818343197039313, 18.6214398581705)
NAMED = [
    (math.pi / 6, 3.0, 2.0),
    (math.pi / 4, 3.0, 2.0),
    *[(math.pi / 2, 6.0 + d, 6.0) for d in (-5.0, -4.0, 0.0, 4.0, 5.0)],
    (1.575, 0.1, 4.5),
    (math.acos((math.sqrt(2.0) - 1.0) / 2.0), 1.3 / 0.7, 2.2 / 0.7),
    (math.acos(math.sqrt(1.0 / 15.0)), 2.0, 1.5),
    NEAR_EQUILATERAL,
    FALSE_TANGENT,
]


def _seeded(n=200, seed=20221):
    rng = random.Random(seed)
    return [(rng.uniform(0.0, math.pi), 10.0 ** rng.uniform(-2.0, 2.0),
             10.0 ** rng.uniform(-2.0, 2.0)) for _ in range(n)]


def test_differential_against_sampled_scan():
    """Every root of the sampled scan is a root of the new solver, a
    tangent root it now places exactly, or a false tangent root; every
    new root the scan lacked sits on a sign change of g."""
    kinds = {"matched": 0, "tangent moved": 0, "false": 0, "new": 0}
    for a, nu1, nu2 in NAMED + _seeded():
        for region in mer.REGIONS:
            old = old_scan_region_roots(a, nu1, nu2, region)
            new = mer._scan_region_roots(a, nu1, nu2, region, mer.ScanOptions())
            for x in old:
                if any(abs(x - y) <= 1e-12 for y in new):
                    kinds["matched"] += 1
                elif any(abs(x - y) <= 1e-8
                         and abs(_g(y, a, nu1, nu2)) <= _rounding_bound(y, a, nu1, nu2)
                         and not _changes_sign(y, 1e-7, a, nu1, nu2) for y in new):
                    kinds["tangent moved"] += 1
                else:
                    assert not _changes_sign(x, 1e-7, a, nu1, nu2), (a, nu1, nu2, x)
                    assert not _changes_sign(x, 1e-9, a, nu1, nu2), (a, nu1, nu2, x)
                    assert (abs(_g(x, a, nu1, nu2))
                            > 1e3 * _rounding_bound(x, a, nu1, nu2)), (a, nu1, nu2, x)
                    kinds["false"] += 1
            for y in new:
                if all(abs(x - y) > 1e-8 for x in old):
                    assert _changes_sign(y, 1e-10, a, nu1, nu2), (a, nu1, nu2, y)
                    kinds["new"] += 1
    # each kind occurs, so every branch above is exercised
    assert kinds["matched"] > 900
    assert kinds["tangent moved"] == 2  # Table 2 at nu1 - nu2 = +-4
    assert kinds["false"] >= 1
    assert kinds["new"] >= 2


def test_near_equilateral_close_pair():
    # two roots 5e-4 apart in region III, between two samples of the scan
    a, nu1, nu2 = NEAR_EQUILATERAL
    sols = mer.find_meridian_rotators(a, MassTriple(nu1, nu2, 1.0))
    assert [s.region for s in sols] == ["I", "III", "III", "III"]
    want = [0.82692, 4.03550, 4.18831, 4.18884]
    assert [s.x for s in sols] == pytest.approx(want, abs=1e-5)
    assert all(s.residual_max <= 1e-12 for s in sols)


def test_no_false_tangent_root():
    # the scan took g ~ -1.9e-9 at x ~ 0.014038, which does not change
    # sign, for a tangent root
    a, nu1, nu2 = FALSE_TANGENT
    assert mer.count_rotators_scan(a, nu1, nu2).as_tuple() == (1, 2, 1, 2)
    assert any(abs(x - 0.014038) < 1e-5
               for x in old_scan_region_roots(a, nu1, nu2, "II"))
    assert not _changes_sign(0.014038, 1e-4, a, nu1, nu2)


def test_close_pair_beside_a_fold():
    # a = 1, nu2 = 0.2: two region-II roots merge at nu1 ~ 1.1697988986459;
    # just before, they are 2e-6 apart (the scan took them for one tangent
    # root)
    a, nu1, nu2 = 1.0, 1.16979889864, 0.2
    roots = mer._scan_region_roots(a, nu1, nu2, "II", mer.ScanOptions())
    assert len(roots) == 2 and roots[1] - roots[0] < 1e-5
    h = (roots[1] - roots[0]) / 4.0
    assert all(_changes_sign(x, h, a, nu1, nu2) for x in roots)


# equal mass ratios: g is odd about x = a/2, the midpoint of region I,
# so a/2 is always a root; at a = 2 it is a triple root (g = g' = g'' = 0)
# for nu1 = nu2 = PITCHFORK_NU (solved from g' = 0 at x = 1 in 40-digit
# arithmetic), and two more roots branch off below it
PITCHFORK_NU = 0.19910120189031485


@pytest.mark.parametrize("d,count", [(1e-6, 1), (0.0, 1), (-1e-6, 3)])
def test_pitchfork_of_isosceles_root(d, count):
    # near the triple root several knots lie within rounding of zero;
    # they are one root
    a, nu = 2.0, PITCHFORK_NU + d
    roots = mer._scan_region_roots(a, nu, nu, "I", mer.ScanOptions())
    assert len(roots) == count
    assert roots[count // 2] == pytest.approx(1.0, abs=1e-6)
    if count == 3:
        assert all(_changes_sign(x, 1e-5, a, nu, nu) for x in roots)


@pytest.mark.parametrize("masses,region,x", [
    ((10.0, 6.0, 1.0), "II", 3.0 * math.pi / 4.0),
    ((2.0, 6.0, 1.0), "IV", 7.0 * math.pi / 4.0),
])
def test_table2_tangent_root_is_exact(masses, region, x):
    sols = mer.find_meridian_rotators(math.pi / 2, MassTriple(*masses))
    tangent = [s for s in sols if s.region == region]
    assert len(tangent) == 1
    assert tangent[0].x == pytest.approx(x, abs=1e-12)


@pytest.mark.parametrize("masses", [(2.0, 3.0, 1.0), (0.2, 5.0, 1.0), (1.3, 1.0, 1.0)])
def test_equilateral_tangent_root_at_two_thirds_pi(masses):
    # at a = 2*pi/3 the equilateral x = 4*pi/3 is a tangent root of g for
    # every mass ratio, where P, Q and S each vanish: g at the knot is
    # within rounding of the products they add up, not of their values
    a, x = 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0
    sols = mer.find_meridian_rotators(a, MassTriple(*masses))
    near = [s for s in sols if abs(s.x - x) < 1e-6]
    assert len(near) == 1
    assert near[0].x == pytest.approx(x, abs=1e-12)
    assert near[0].residual_max < 1e-13


def numpy_g_scalar(x, a, nu1, nu2):
    """The earlier g_scalar, on numpy scalars: g_terms took every sine
    from numpy."""
    sx = np.sin(x)
    sxa = np.sin(x - a)
    A = sx * abs(sx)
    B = sxa * abs(sxa)
    sin2x = np.sin(2.0 * x)
    sin2xa = np.sin(2.0 * (x - a))
    sa2 = math.sin(a) ** 2
    sa2s2a = sa2 * math.sin(2.0 * a)
    AB = A * B
    P = AB * sin2x - sa2s2a * B
    Q = AB * sin2xa - sa2s2a * A
    S = -sa2 * (A * sin2x - B * sin2xa)
    return float(nu1 * P + nu2 * Q + S)


def numpy_scan_region_roots(a, nu1, nu2, region, opts):
    """A literal transcription of the earlier ``_scan_region_roots``:
    chebinterpolate on every call, knots through np.unique, g and the
    tangent test at the knots on arrays, bisection on numpy scalars."""
    lo, hi = mer.region_bounds(region, a)
    mid = 0.5 * (lo + hi)
    chart = math.tan(0.25 * (hi - lo))
    lo += opts.boundary_tol
    hi -= opts.boundary_tol
    if hi <= lo:
        return []

    def x_of(u):
        return mid + 2.0 * np.arctan(u * chart)

    def poly(u):
        t = u * chart
        return kernels.g_array(x_of(u), a, nu1, nu2) * (1.0 + t * t) ** 6

    coef = np.polynomial.chebyshev.chebinterpolate(poly, 12)
    knots = x_of(np.polynomial.chebyshev.chebroots(
        np.polynomial.chebyshev.chebder(coef)).real)
    inside = knots[(knots > lo) & (knots < hi)]
    knots = np.unique(np.concatenate(([lo, hi], inside)))
    P, Q, S = kernels.g_terms(knots, a)
    gk = nu1 * P + nu2 * Q + S
    zero = np.abs(gk) <= mer.TANGENT_ULPS * mer.EPS * (
        np.abs(nu1 * P) + np.abs(nu2 * Q) + np.abs(S))
    zero[0] = zero[-1] = False

    def f(x):
        return numpy_g_scalar(x, a, nu1, nu2)

    roots = []
    for k in range(len(knots) - 1):
        if zero[k + 1]:
            if not zero[k]:
                roots.append(float(knots[k + 1]))
        elif not zero[k] and gk[k] * gk[k + 1] < 0.0:
            roots.append(float(mer._bisect(f, knots[k], knots[k + 1], gk[k],
                                           gk[k + 1])))
    return roots


@pytest.mark.parametrize("opts", [
    mer.ScanOptions(), mer.ScanOptions(boundary_tol=1e-6)],
    ids=["exact", "boundary"])
def test_scalar_scan_matches_numpy_scan_bitwise(opts):
    """The plain-float scan finds the same roots, bit for bit, as the
    numpy-scalar scan it replaced, tangent and close-pair roots included."""
    cases = NAMED + _seeded(300, seed=7) + [
        (1.0, 1.16979889864, 0.2),
        *[(2.0, PITCHFORK_NU + d, PITCHFORK_NU + d) for d in (1e-6, 0.0, -1e-6)]]
    roots = 0
    for a, nu1, nu2 in cases:
        for region in mer.REGIONS:
            new = mer._scan_region_roots(a, nu1, nu2, region, opts)
            old = numpy_scan_region_roots(a, nu1, nu2, region, opts)
            assert [x.hex() for x in new] == [x.hex() for x in old], (a, nu1, nu2)
            roots += len(new)
    assert roots > 1000
