"""The per-region root finder for g, against the solvers it replaced.

``old_scan_region_roots`` is a literal transcription of the earlier
``meridian._scan_region_roots``: 2000 samples per region, bisection and
finite-difference Newton on each sign change, golden-section refinement of
extrema for tangent roots, and a merge step. ``plain_bisect`` is the
bisection that refined each sign change of the exact scan before the
bracketing secant of ``meridian._bisect``.
"""

import math
import operator
import random

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from sphere3body import kernels
from sphere3body import meridian as mer
from sphere3body.dynamics import MassTriple

import oracles

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
    lo, hi = oracles.region_bounds(region, a)
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
    P, Q, S = (t[0] for t in kernels.g_terms(np.array([x]), a))
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
        for region, new in zip(mer.REGIONS, mer._scan_roots(a, nu1, nu2)):
            old = old_scan_region_roots(a, nu1, nu2, region)
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
    assert oracles.count_rotators_scan(a, nu1, nu2) == (1, 2, 1, 2)
    assert any(abs(x - 0.014038) < 1e-5
               for x in old_scan_region_roots(a, nu1, nu2, "II"))
    assert not _changes_sign(0.014038, 1e-4, a, nu1, nu2)


def test_close_pair_beside_a_fold():
    # a = 1, nu2 = 0.2: two region-II roots merge at nu1 ~ 1.1697988986459;
    # just before, they are 2e-6 apart (the scan took them for one tangent
    # root)
    a, nu1, nu2 = 1.0, 1.16979889864, 0.2
    roots = mer._scan_roots(a, nu1, nu2)[1]  # region II
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
    roots = mer._scan_roots(a, nu, nu)[0]  # region I
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


def numpy_scan_region_roots(a, nu1, nu2, region):
    """A literal transcription of the earlier ``_scan_region_roots``:
    chebinterpolate on every call, knots through np.unique, g and the
    tangent test at the knots on arrays, and root refinement (today's
    ``mer._bisect``) on numpy scalars."""
    lo, hi = oracles.region_bounds(region, a)
    mid = 0.5 * (lo + hi)
    chart = math.tan(0.25 * (hi - lo))
    lo += mer.BOUNDARY_TOL
    hi -= mer.BOUNDARY_TOL
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


def test_scan_matches_numpy_scan():
    """The plain-float scan, whose knots come from Bernstein sign counts,
    finds as many roots in each region as the numpy scan whose knots were
    companion-matrix eigenvalues, tangent and close-pair roots included:
    each the same float, another float sign change of g that the backward
    error judges alike, or, for a tangent root, another knot within
    rounding of zero and 1e-9 of it (beside a triple root, g is within
    rounding of zero on an interval wider than the knots' error)."""
    cases = NAMED + _seeded(300, seed=7) + [
        (1.0, 1.16979889864, 0.2),
        *[(2.0, PITCHFORK_NU + d, PITCHFORK_NU + d) for d in (1e-6, 0.0, -1e-6)]]
    roots = moved = 0
    for a, nu1, nu2 in cases:
        masses = MassTriple(nu1, nu2, 1.0)
        for region, new in zip(mer.REGIONS, mer._scan_roots(a, nu1, nu2)):
            old = numpy_scan_region_roots(a, nu1, nu2, region)
            assert len(new) == len(old), (a, nu1, nu2, region)
            roots += len(new)
            for x, y in zip(new, old):
                if x.hex() == y.hex():
                    continue
                moved += 1
                if _is_float_sign_change(y, a, nu1, nu2):
                    assert _is_float_sign_change(x, a, nu1, nu2), (a, nu1, nu2, x, y)
                    assert _reported(x, a, masses) == _reported(y, a, masses), (a, nu1, nu2, x, y)
                else:  # a tangent root
                    assert abs(_g(x, a, nu1, nu2)) <= _rounding_bound(x, a, nu1, nu2)
                    assert abs(x - y) <= 1e-9, (a, nu1, nu2, x, y)
    assert roots > 1000
    assert moved < 0.02 * roots


def _fit_samples(a, nu1, nu2):
    """Per live region, the scan's 13 samples of p = g * (1 + t^2)^6."""
    ends = mer._region_ends(a)
    g = kernels.g_of_x(a, nu1, nu2)
    for (lo, hi), inner in zip(ends, mer._interiors(a, mer.BOUNDARY_TOL)):
        if inner is not None:
            chart = math.tan(0.25 * (hi - lo))
            ts = [u * chart for u in mer._FIT_NODES]
            yield [g(0.5 * (lo + hi) + 2.0 * math.atan(t)) * (1.0 + t * t) ** 6 for t in ts]


def _fit_derivative(ps):
    return [sum(map(operator.mul, row, ps)) for row in mer._FIT_DERIVATIVE]


def test_knots_match_chebroots_real_roots():
    """The knots are the real roots in (-1, 1) of the fit's derivative
    that numpy's chebroots finds, on the scan's own fits with no
    eigenvalue off the real axis within 1e-6 of [-1, 1]: as many, each
    as near numpy's as a change of p' by 4e-12 of the largest sample
    moves it (the distance times |p''| at numpy's root)."""
    vander = cheb.chebvander(np.array(mer._FIT_NODES), 12)
    fits = compared = 0
    for a, nu1, nu2 in NAMED + _seeded(300, seed=11):
        for ps in _fit_samples(a, nu1, nu2):
            der = cheb.chebder(np.linalg.solve(vander, ps))
            eig = cheb.chebroots(der)
            if any(0.0 < abs(z.imag) <= 1e-6 and abs(z.real) < 1.0 + 1e-6 for z in eig):
                continue
            # a root within 1e-12 of an end may fall either side of it
            want = [z.real for z in eig if z.imag == 0.0 and abs(z.real) < 1.0 - 1e-12]
            got = [u for u in mer._knots(_fit_derivative(ps)) if abs(u) < 1.0 - 1e-12]
            assert len(got) == len(want), (a, nu1, nu2, got, want)
            fits += 1
            scale = max(map(abs, ps))
            want.sort()
            curvature = np.abs(cheb.chebval(np.array(want), cheb.chebder(der)))
            for u, v, c in zip(got, want, curvature.tolist()):
                assert abs(u - v) * c <= 4e-12 * scale, (a, nu1, nu2, u, v)
                compared += 1
    assert fits > 1000 and compared > 1000


def test_fit_derivative_matches_chebder():
    """_FIT_DERIVATIVE takes a polynomial's values at the 13 nodes to the
    Bernstein coefficients of a positive multiple of its derivative, the
    same for every polynomial: against numpy's fit and chebder, at points
    across [-1, 1], over polynomials whose sizes span ten decades."""
    rng = np.random.default_rng(18)
    vander = cheb.chebvander(np.array(mer._FIT_NODES), 12)
    # p(u) = u: p' = 1, and each coefficient is the multiple
    ones = _fit_derivative(mer._FIT_NODES)
    factor = ones[0]
    assert factor > 0.0 and ones == pytest.approx([factor] * 12, rel=1e-12)
    s = np.linspace(0.0, 1.0, 41)
    basis = np.array([[math.comb(11, i) * t ** i * (1.0 - t) ** (11 - i)
                       for i in range(12)] for t in s])
    for _ in range(500):
        ps = rng.standard_normal(13) * 10.0 ** rng.uniform(-5.0, 5.0)
        got = basis @ np.array(_fit_derivative(ps.tolist()))
        want = factor * cheb.chebval(2.0 * s - 1.0,
                                     cheb.chebder(np.linalg.solve(vander, ps)))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(ps))


def plain_bisect(f, lo, hi, flo, fhi):
    """The earlier ``meridian._bisect``: halve a sign change of f on
    [lo, hi] down to neighbouring floats; returns the end where |f| is
    smaller."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return lo if abs(flo) <= abs(fhi) else hi


def _scan_with(monkeypatch, refine, a, masses):
    """_scan_roots with each sign change refined by refine, and the f
    calls each root cost."""
    calls = []

    def counted(f, lo, hi, flo, fhi):
        n = [0]

        def g(x):
            n[0] += 1
            return f(x)

        x = refine(g, lo, hi, flo, fhi)
        calls.append(n[0])
        return x

    monkeypatch.setattr(mer, "_bisect", counted)
    try:
        return mer._scan_roots(a, masses.nu1, masses.nu2), calls
    finally:
        monkeypatch.undo()


def _is_float_sign_change(x, a, nu1, nu2):
    g = kernels.g_of_x(a, nu1, nu2)
    gx = g(x)
    return gx == 0.0 or any(gx * g(math.nextafter(x, d)) < 0.0
                            for d in (-math.inf, math.inf))


def _reported(x, a, masses):
    """Whether find_meridian_rotators reports the root x: its shape is
    valid and its backward error at most RESIDUAL_TOL."""
    shape = mer.Shape(a, x)
    try:
        shape.validate(mer.BOUNDARY_TOL)
        sol = mer.solution_from_shape(shape, masses)
    except ValueError:
        return False
    return sol.residual_max <= mer.RESIDUAL_TOL


def _refinement_cells(n=2000, seed=20221018):
    cells = [(a, MassTriple(nu1, nu2, 1.0)) for a, nu1, nu2 in NAMED]
    cells += [(2.0, MassTriple(PITCHFORK_NU + d, PITCHFORK_NU + d, 1.0))
              for d in (1e-6, 0.0, -1e-6)]
    cells.append((2.0 * math.pi / 3.0, MassTriple(1.0, 1.0, 1.0)))
    rng = random.Random(seed)
    cells += [(rng.uniform(0.0, math.pi),
               MassTriple(*(10.0 ** rng.uniform(-8.0, 8.0) for _ in range(3))))
              for _ in range(n)]
    # each with its 1<->2 mirror
    return [(a, m) for a, masses in cells
            for m in (masses, MassTriple(masses.m2, masses.m1, masses.m3))]


def test_secant_refinement_against_plain_bisection(monkeypatch):
    """The bracketing secant finds as many roots in each region as the
    bisection it replaced, each the same float or another float sign
    change of g that the backward error judges alike, in far fewer g
    calls."""
    new_calls, old_calls = [], []
    moved = 0
    for a, masses in _refinement_cells():
        new, n_new = _scan_with(monkeypatch, mer._bisect, a, masses)
        old, n_old = _scan_with(monkeypatch, plain_bisect, a, masses)
        new_calls += n_new
        old_calls += n_old
        assert [len(r) for r in new] == [len(r) for r in old], (a, masses)
        for x, y in zip((x for r in new for x in r), (y for r in old for y in r)):
            if x.hex() == y.hex():
                continue
            moved += 1
            assert _is_float_sign_change(x, a, masses.nu1, masses.nu2), (a, masses, x, y)
            assert _is_float_sign_change(y, a, masses.nu1, masses.nu2), (a, masses, x, y)
            assert _reported(x, a, masses) == _reported(y, a, masses), (a, masses, x, y)
    assert len(new_calls) > 15000
    assert 0 < moved < 0.05 * len(new_calls)
    assert sum(new_calls) / len(new_calls) <= 25.0
    assert max(new_calls) <= max(old_calls) + 8


def test_region_counts_have_the_parity_of_the_end_values():
    # with s = sin^4(a) sin(2a), g tends to s (nu1 + 1) at x = 0 and 2 pi,
    # -s (nu2 + 1) at a, -s (nu1 + 1) at pi and s (nu2 + 1) at pi + a: for
    # a != pi/2 and nu > 0, g changes sign across regions I and III and
    # not across II and IV, so their counts are odd and even (a tangent
    # root, which breaks this, is not met)
    rng = random.Random(4000)
    cells = 0
    while cells < 500:
        a = rng.uniform(0.01, math.pi - 0.01)
        if abs(a - math.pi / 2) < 1e-3:
            continue
        nu1, nu2 = 10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-2.0, 2.0)
        counts = oracles.count_rotators_scan(a, nu1, nu2)
        assert [n % 2 for n in counts] == [1, 0, 1, 0], (a, nu1, nu2, counts)
        cells += 1


def test_huge_nu_fit_is_scaled_exactly(monkeypatch):
    """Past FIT_SCALE_BOUND the fit's samples are scaled by a power of
    two, which leaves the roots of the unscaled fit bit for bit; g near
    1e308 then fits with no overflow warning (any warning fails the
    suite), and past that the scan names the nu that overflow g."""
    cases = [(a, nu1, nu2) for a in (0.4, 1.0, 2.5)
             for nu1, nu2 in ((1e303, 1.0), (1.0, 1e303), (3e302, 5e302))]
    # one root list per case and region
    scaled = [r for c in cases for r in mer._scan_roots(*c)]
    monkeypatch.setattr(mer, "FIT_SCALE_BOUND", math.inf)
    unscaled = [r for c in cases for r in mer._scan_roots(*c)]
    monkeypatch.undo()
    assert [[x.hex() for x in r] for r in scaled] == \
        [[x.hex() for x in r] for r in unscaled]
    assert sum(map(len, scaled)) >= len(scaled) // 2
    assert oracles.count_rotators_scan(1.0, 8e307, 1.0).total > 0
    with pytest.raises(ValueError, match="too large: g overflows"):
        oracles.count_rotators_scan(1.0, 1.7e308, 1.0)


def _bernstein_coefficients(roots):
    """The 12 Bernstein coefficients on [-1, 1] of the monic polynomial
    with the 11 given roots."""
    s = np.linspace(0.0, 1.0, 12)
    basis = np.array([[math.comb(11, i) * t ** i * (1.0 - t) ** (11 - i)
                       for i in range(12)] for t in s])
    return np.linalg.solve(basis, np.poly1d(roots, r=True)(2.0 * s - 1.0)).tolist()


def test_knots_of_a_root_on_a_split_point_and_of_a_root_pair(monkeypatch):
    # an odd polynomial, its coefficients made exactly antisymmetric:
    # the midpoint of [-1, 1], where the first halving splits, is an
    # exact root, found there
    half = _bernstein_coefficients([-0.5, 0.0, 0.5] + [-3.0, 3.0] * 4)[:6]
    coef = half + [-c for c in reversed(half)]
    knots = mer._knots(coef)
    assert knots[1] == 0.0 and knots == pytest.approx([-0.5, 0.0, 0.5], abs=1e-12)
    # roots 1e-6 apart (each as exact as 1e-6 apart allows): separate
    # knots, and one knot, the midpoint of the interval around them,
    # where ISOLATION_DEPTH halvings (here 4, an interval 1/8 wide)
    # cannot separate them
    coef = _bernstein_coefficients([-0.7, 0.3, 0.3 + 1e-6] + [3.0] * 8)
    assert mer._knots(coef) == pytest.approx([-0.7, 0.3, 0.3 + 1e-6], abs=1e-9)
    monkeypatch.setattr(mer, "ISOLATION_DEPTH", 4)
    assert mer._knots(coef) == pytest.approx([-0.7, 0.3125], abs=1e-12)
