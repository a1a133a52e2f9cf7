"""Rotating-meridian machinery: shape <-> configuration translation,
per-pair force/geometry terms with case classification, the region
bookkeeping and root finding for the reduced scalar equation g (defined
in kernels). The sweep's grid counter is grid's, the flat-space limit
euler_limit's; the paper's closed-form families are test oracles.

Shape angles: a = theta2 - theta1 in (0, pi) is fixed; the unknown is
x = theta3 - theta1 in (0, 2*pi). The potential is singular at
x in {0, a, pi, a + pi}, which bound the four regular regions I-IV:
_region_ends holds them and _interiors gives each region less a gap.

Every MeridianSolution carries its configuration thetas, the colatitudes
on the meridian phi = 0 (thetas_alt = thetas + pi is the antipodal one).
A rotator's thetas lift its shape on branch s so that
W = sum_k m_k e^(2i theta_k) = s * A: the planar angular momentum Im W
vanishes. The lift promises no more: residual_max, the backward error of
thetas in radians of x (dynamics.backward_error), judges everything else,
and find_meridian_rotators keeps a solution only where it is at most
RESIDUAL_TOL (or the tolerance given).

A shape becomes a solution in one pass, solution_from_shape then
_solution: the ratio equations (_ratio_terms, also the case's and the
generic scan's) give the case and a rate, and one evaluation of W's sums
gives A, the A-zero decision and the lift's angle; omega^2 = rate * A.

The sphere's radius comes from the potential alone (pot.radius); a
function given no potential solves on the unit sphere under the
cotangent potential.

Every command loads this module (the package imports it). The solver
runs on plain floats. Only the sweep's grid counter makes arrays, and it
lives in grid, which this module gives by name on first use
(count_rotators_grid_regions, through a module __getattr__, PEP 562):
a process that only solves never compiles it nor imports numpy.
"""

from __future__ import annotations

import math
import sys
from math import comb
from operator import mul, ne
from typing import NamedTuple

from . import kernels
from .dynamics import MassTriple, backward_error, meridian_pulls
from .geometry import SphereRadius
from .potential import PairPotential, cotangent_potential

TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon
REGIONS = ("I", "II", "III", "IV")

# relative tolerances of the lift and the case classification
# amplitude A at or under which a shape is a fixed point: A = |W| is the
# hypot of W's two sums, whose terms of size up to m1 + m2 + m3 cancel,
# so A's relative error is about eps * (m1 + m2 + m3) / A, 2e-10 at
# A = 1e-6 * (m1 + m2 + m3). So A_TOL is no rounding bound: it sets
# which shapes are A-zero fixed points, and moving it changes that set.
A_TOL = 1e-6
CASE_TOL = 1e-12  # two G values (or masses) closer than this are equal
BOUNDARY_TOL = 1e-8  # distance kept from the singular points
# largest backward error, in radians of x, of a reported solution
RESIDUAL_TOL = 1e-9

CASE1 = "Case1"
CASE2 = "Case2"
CASE3 = "Case3"
CASE4_FIXED_POINT = "Case4-fixed-point"
A_ZERO_FIXED_POINT = "A-zero-fixed-point"

# the potential of a call that names none
_UNIT_COTANGENT = cotangent_potential(SphereRadius())


def _region_ends(a: float) -> tuple[tuple[float, float], ...]:
    """The ends of each region, in REGIONS order: the singular points."""
    return ((0.0, a), (a, math.pi), (math.pi, math.pi + a), (math.pi + a, TWO_PI))


def _interiors(a: float, gap: float) -> list[tuple[float, float] | None]:
    """Each region less gap at both ends; None where it is no wider than 2 * gap."""
    return [(lo + gap, hi - gap) if lo + gap < hi - gap else None
            for lo, hi in _region_ends(a)]


def _check_a(a: float):
    """Raises ValueError unless 0 < a < pi (so also for nan)."""
    if not 0.0 < a < math.pi:
        raise ValueError(f"a must lie in (0, pi), got {a}")


def region_of(x: float, a: float) -> str:
    x = x % TWO_PI
    for region, (lo, hi) in zip(REGIONS, _region_ends(a)):
        if lo <= x <= hi:
            return region
    raise ValueError(f"x={x} outside (0, 2*pi)")


class Shape(NamedTuple):
    """Rotation-invariant collinear shape: angle differences from body 1."""

    theta21: float
    theta31: float

    @property
    def theta32(self) -> float:
        return self.theta31 - self.theta21

    def validate(self, tol: float = 1e-12):
        if not 0.0 < self.theta21 < math.pi:
            raise ValueError(f"theta21 must lie in (0, pi), got {self.theta21}")
        if not 0.0 < self.theta31 < TWO_PI:
            raise ValueError(f"theta31 must lie in (0, 2*pi), got {self.theta31}")
        for end in (end for span in _region_ends(self.theta21) for end in span):
            if abs(self.theta31 - end) <= tol:
                raise ValueError(f"theta31={self.theta31} sits on a singular point")


def _w_sums(masses: MassTriple, shape: Shape) -> tuple[float, float]:
    """The real and imaginary parts of W * e^(-2i theta1)
    = m1 + m2 e^(2i theta21) + m3 e^(2i theta31)."""
    m1, m2, m3 = masses
    t21, t31 = shape.theta21, shape.theta31
    return (m1 + m2 * math.cos(2.0 * t21) + m3 * math.cos(2.0 * t31),
            m2 * math.sin(2.0 * t21) + m3 * math.sin(2.0 * t31))


def _lift(masses: MassTriple, shape: Shape, s: int):
    """(A, thetas) from one evaluation of W's sums: the amplitude and the
    colatitudes that lift shape on branch s, or None for thetas where
    A <= A_TOL * (m1 + m2 + m3) (the lift is indefinite; the shape is a
    fixed point)."""
    m1, m2, m3 = masses
    cos_part, sin_part = _w_sums(masses, shape)
    A = math.hypot(cos_part, sin_part)
    if A <= A_TOL * (m1 + m2 + m3):
        return A, None
    # e^(2i theta1) = s * conj(W e^(-2i theta1)) / A, and atan2 needs no A
    t1 = 0.5 * math.atan2(s * (-sin_part), s * cos_part)
    return A, (t1, t1 + shape.theta21, t1 + shape.theta31)


class PairQuantities(NamedTuple):
    """Per-pair force-like terms F_ij, the pulls of dynamics.meridian_pulls
    at thetas (0, theta21, theta31), and geometric terms G_ij."""

    F12: float
    F23: float
    F31: float
    G12: float
    G23: float
    G31: float


def pair_quantities(
    masses: MassTriple,
    shape: Shape,
    pot: PairPotential | None = None,
) -> PairQuantities:
    shape.validate()
    m1, m2, m3 = masses
    t21, t31 = shape.theta21, shape.theta31
    F12, F23, F31 = meridian_pulls((0.0, t21, t31), masses, pot or _UNIT_COTANGENT)
    G12 = m1 * m2 * math.sin(2.0 * t21)
    G23 = m2 * m3 * math.sin(2.0 * (t31 - t21))
    G31 = m3 * m1 * math.sin(-2.0 * t31)
    return PairQuantities(F12, F23, F31, G12, G23, G31)


def _ratio_terms(pq: PairQuantities) -> tuple[float, float, float, float]:
    """The numerators and denominators (n12, d12, n31, d31) of the ratio
    equations n12 / d12 = n31 / d31, that is
    (F12 - F23) / (G12 - G23) = (F31 - F12) / (G31 - G12)."""
    return pq.F12 - pq.F23, pq.G12 - pq.G23, pq.F31 - pq.F12, pq.G31 - pq.G12


def classify_case(pq: PairQuantities, masses: MassTriple) -> str:
    """Which pair of rigid-rotator equations applies for this shape."""
    m1, m2, m3 = masses
    tol = CASE_TOL * (m1 * m2 + m2 * m3 + m3 * m1)
    _, d12, _, d31 = _ratio_terms(pq)
    d1 = abs(d12) <= tol
    d2 = abs(d31) <= tol
    d3 = abs(pq.G23 - pq.G31) <= tol
    if d1 and d2 and d3:
        return CASE4_FIXED_POINT
    if d1:
        return CASE2
    if d2:
        return CASE3
    return CASE1


class MeridianSolution(NamedTuple):
    """A rigid rotator on a rotating meridian, or a fixed point (s = 0,
    omega_squared None, thetas (0, theta21, theta31): no axis is
    preferred), with its configuration and residual (module docstring)
    and the region that holds x."""

    x: float
    shape: Shape
    thetas: tuple[float, float, float]
    s: int
    omega_squared: float | None
    case_tag: str
    residual_max: float
    region: str  # region_of(x, shape.theta21), set by _solution

    @property
    def thetas_alt(self) -> tuple[float, float, float]:
        t1, t2, t3 = self.thetas
        return (t1 + math.pi, t2 + math.pi, t3 + math.pi)

    @property
    def is_fixed_point(self) -> bool:
        return self.omega_squared is None


def _solution(shape, masses, s, rate, case_tag, pot) -> MeridianSolution:
    """The solution at shape, with its backward error: lifted on branch s,
    turning at omega^2 = rate * A, when a rate is given and
    A > A_TOL * (m1 + m2 + m3), else a fixed point (the A-zero one when a
    rate was given)."""
    thetas = (0.0, shape.theta21, shape.theta31)
    omega_squared = None
    if rate is not None:
        A, lifted = _lift(masses, shape, s)
        if lifted is None:
            s, case_tag = 0, A_ZERO_FIXED_POINT
        else:
            thetas, omega_squared = lifted, rate * A
    residual = backward_error(thetas, omega_squared or 0.0, masses, pot)
    return MeridianSolution(shape.theta31, shape, thetas, s, omega_squared,
                            case_tag, residual,
                            region_of(shape.theta31, shape.theta21))


# a knot where |g| <= TANGENT_ULPS * eps * (nu1*Ps + nu2*Qs + Ss)
# (kernels.g_terms_scale), that is, within the rounding error of
# evaluating g there, is a tangent root
TANGENT_ULPS = 64.0
# the 13 Chebyshev points of the first kind, ascending: chebinterpolate's
# nodes for degree 12. Node j is cos(theta_j), theta_j = pi (25 - 2j) / 26
_FIT_NODES = tuple(math.sin(math.pi * (2 * j - 12) / 26) for j in range(13))


def _fit_derivative_matrix() -> tuple[tuple[float, ...], ...]:
    """The 12 x 13 matrix that takes the values y_j of a polynomial p of
    degree <= 12 at _FIT_NODES to the Bernstein coefficients of p' on
    [-1, 1], times a power of two that brings each row's sum of
    magnitudes to at most 1.

    It is the product of the Chebyshev fit, a_k = w_k sum_j y_j T_k(u_j)
    with w_0 = 1/13 and w_k = 2/13 (chebinterpolate's), T_k's Bernstein
    coefficients in degree 12, C(12, i) b_ik = sum_l (-1)^(k - l)
    C(2k, 2l) C(12 - k, i - l) (Rababah 2003), and the derivative's,
    6 (b_(i+1) - b_i), whose rational parts are exact; each entry is one
    rounded sum of 13 rounded products."""
    num = [[sum((-1) ** (k - l) * comb(2 * k, 2 * l) * comb(12 - k, i - l)
                for l in range(max(0, i + k - 12), min(i, k) + 1))
            for k in range(13)] for i in range(13)]
    cheb_values = [[math.cos(k * math.pi * (25 - 2 * j) / 26) for k in range(13)]
                   for j in range(13)]
    rows = []
    for i in range(12):
        lo, hi = comb(12, i), comb(12, i + 1)
        diff = [(12 if k else 6) * (num[i + 1][k] * lo - num[i][k] * hi) / (13 * lo * hi)
                for k in range(13)]
        rows.append([math.fsum(map(mul, diff, col)) for col in cheb_values])
    scale = 2.0 ** -math.frexp(max(sum(map(abs, row)) for row in rows))[1]
    return tuple(tuple(scale * v for v in row) for row in rows)


_FIT_DERIVATIVE = _fit_derivative_matrix()
# C(11, i) / 2^11: the weights of a Bernstein polynomial of degree 11, so
# that its value is a weighted mean of its coefficients
_BERNSTEIN_WEIGHTS = tuple(comb(11, i) / 2.0 ** 11 for i in range(12))
# halvings of [-1, 1] after which an interval whose coefficients still
# change sign more than once (roots of p', or complex pairs, within
# about 1e-12 of each other and of the axis) gives its midpoint as a knot
ISOLATION_DEPTH = 40
# the bracket, in u, within which _bernstein_root places a knot: the
# resolution of u next to +-1. Where u is near 0, a narrower one would
# place x = c + 2 * arctan(u * tan(L/4)) far inside one ulp of c
KNOT_WIDTH = 2.0 ** -52
# the Bernstein coefficients are sums of 13 samples of up to 64 |g| with
# weights whose magnitudes sum to at most 1, and _bernstein_root's values
# and slopes are at most 22 times the largest of them. Past this bound
# on |g| the samples are scaled by an exact power of two, which leaves
# every root as it was
FIT_SCALE_BOUND = 2.0 ** 1000
# samples per region of the scan for a custom potential, whose ratio
# equation has no polynomial form
GENERIC_SCAN_SAMPLES = 2000
# distance of that scan's samples from each singular point. The chord
# 4R^2 sin^2(d/2) keeps its digits next to a collision, but U' takes
# D^2, which rounds to 4R^2 (an antipodal singularity) within about 1e-8
# of an antipodal point and keeps about 4 digits of 4R^2 - D^2 at 1e-6
GENERIC_BOUNDARY_GAP = 1e-6
# halvings by which _bisect's bracket may lag bisection's before it takes
# a midpoint step: a root costs at most about this many more f calls than
# bisection would
SECANT_SLACK = 20


def _bisect(f, lo, hi, flo, fhi):
    """Narrow a sign change of f on [lo, hi] to neighbouring floats;
    returns the end where |f| is smaller.

    Regula falsi in the Illinois form (Dowell & Jarratt 1971), which keeps
    the sign change bracketed at every step: each step takes the secant
    through the ends weighted by f's values there, save that the k-th step
    in a row that keeps an end halves that end's weight k - 1 times
    (Illinois halves it once from the second on), so that a run of steps
    beside a steep end is short. A step lands at least one ulp inside the
    bracket: once the secant is at floating-point resolution, the next
    step brackets the root within that ulp. A bracket two ulps wide, or
    more than SECANT_SLACK halvings wider than bisection's after as many
    steps, takes a midpoint step.
    """
    wlo, whi = flo, fhi
    # whether the last step moved lo, and how many steps before it moved
    # the same end
    moved_lo, run = None, 0
    bound = (hi - lo) * 2.0 ** SECANT_SLACK
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # at floating-point resolution
            break
        bound *= 0.5
        ulp = math.ulp(max(abs(lo), abs(hi)))
        if hi - lo <= 2.0 * ulp or hi - lo > bound:
            x = mid
        else:
            x = hi - whi * (hi - lo) / (whi - wlo)
            if not x >= lo + ulp:  # also where x is nan
                x = lo + ulp
            elif x > hi - ulp:
                x = hi - ulp
        fx = f(x)
        if fx == 0.0:
            return x
        lo_side = (flo < 0) == (fx < 0)
        run = run + 1 if lo_side == moved_lo else 0
        moved_lo = lo_side
        if lo_side:
            lo, flo, wlo = x, fx, fx
            whi *= 0.5 ** run
        else:
            hi, fhi, whi = x, fx, fx
            wlo *= 0.5 ** run
    return lo if abs(flo) <= abs(fhi) else hi


def _halves(c: list[float]) -> tuple[list[float], list[float]]:
    """de Casteljau's subdivision at the midpoint: the Bernstein
    coefficients of the same polynomial on each half of its interval."""
    left, right = [c[0]], [c[-1]]
    for _ in range(len(c) - 1):
        c = [0.5 * (p + q) for p, q in zip(c, c[1:])]
        left.append(c[0])
        right.append(c[-1])
    right.reverse()
    return left, right


def _bernstein_root(c: list[float], lo: float, hi: float) -> float:
    """The root in (lo, hi) of the polynomial with the 12 Bernstein
    coefficients c on [lo, hi], where it has one root and c[0] and c[-1]
    have opposite signs, to within KNOT_WIDTH.

    Newton's method in s = (u - lo) / (hi - lo), safeguarded by the
    bracket as in rtsafe (Press et al., Numerical Recipes): a step that
    would leave the bracket, or that is not half as long as the one
    before, is replaced by bisection. The value and slope come from one
    Horner pass in s / (1 - s) or (1 - s) / s, whichever is at most 1,
    each short of the same positive factor (1 - s)^10 or s^10, which
    leaves the signs and the step as they are."""
    w = list(map(mul, _BERNSTEIN_WEIGHTS, c))
    w_rev = w[::-1]
    # ends of the bracket where the polynomial is below and above zero
    s_neg, s_pos = (0.0, 1.0) if c[0] < 0.0 else (1.0, 0.0)
    s = c[0] / (c[0] - c[-1])  # the chord's root
    step = old_step = 1.0
    tol = KNOT_WIDTH / (hi - lo)
    while True:
        t = 1.0 - s
        acc = slope = 0.0
        if s <= 0.5:
            r = s / t
            for x in w_rev:
                slope = slope * r + acc
                acc = acc * r + x
            v, dv = t * t * acc, slope - 11.0 * t * acc
        else:
            r = t / s
            for x in w:
                slope = slope * r + acc
                acc = acc * r + x
            v, dv = s * s * acc, 11.0 * s * acc - slope
        if v == 0.0:
            break
        if v < 0.0:
            s_neg = s
        else:
            s_pos = s
        if (((s - s_pos) * dv - v) * ((s - s_neg) * dv - v) > 0.0
                or abs(2.0 * v) > abs(old_step * dv)):
            old_step, step = step, 0.5 * (s_pos - s_neg)
            s = s_neg + step
        else:
            old_step, step = step, v / dv
            s -= step
        if abs(step) <= tol:
            break
    return lo + s * (hi - lo)


def _knots(coef: list[float]) -> list[float]:
    """The real roots in (-1, 1), ascending, of the polynomial whose
    Bernstein coefficients on [-1, 1] are coef.

    Descartes' rule: the coefficients on an interval change sign at least
    as often as the polynomial has roots inside it, and as often where
    they change sign at most once (Lane & Riesenfeld 1981). An interval
    whose coefficients change sign more than once is halved by de
    Casteljau's subdivision (_halves); one whose coefficients change sign
    once, with neither end coefficient 0, holds one root, which
    _bernstein_root places. A midpoint where the polynomial is 0 is a
    root, and an interval ISOLATION_DEPTH halvings deep that still needs
    halving gives its midpoint."""
    knots = []
    todo = [(-1.0, 1.0, coef)]
    while todo:
        lo, hi, c = todo.pop()
        signs = [v > 0.0 for v in c if v]
        changes = sum(map(ne, signs, signs[1:]))
        if changes == 0:
            continue
        if changes == 1 and c[0] and c[-1]:
            knots.append(_bernstein_root(c, lo, hi))
            continue
        mid = 0.5 * (lo + hi)
        if hi - lo <= 2.0 ** (1 - ISOLATION_DEPTH):
            knots.append(mid)
            continue
        left, right = _halves(c)
        if right[0] == 0.0:
            knots.append(mid)
        todo += ((mid, hi, right), (lo, mid, left))
    return sorted(knots)


def _scan_roots(a: float, nu1: float, nu2: float) -> list[list[float]]:
    """Roots of g strictly inside each region, each found once: one list
    per region, in REGIONS order.

    Inside a region g is a trigonometric polynomial of degree 6 in x
    (kernels). With c the region's midpoint, L its length and
    t = tan((x - c)/2), the product p = g * (1 + t^2)^6 is therefore a
    polynomial of degree <= 12 in u = t / tan(L/4), which runs over
    [-1, 1] on the region; its values at the 13 _FIT_NODES determine it,
    and _FIT_DERIVATIVE takes them to the Bernstein coefficients of p'.
    The real roots of p' in (-1, 1) (_knots) and the region's ends are
    the knots: between neighbouring knots p is monotone, so it and g,
    which has its sign, have at most one root there. A sign change
    of g between knots is narrowed to neighbouring floats by _bisect's
    bracketing secant. A knot where g vanishes to within the rounding of
    its evaluation is one tangent (even-order) root. A region no wider
    than 2 * BOUNDARY_TOL has none. All of it runs on plain floats.
    """
    ends = _region_ends(a)
    roots: list[list[float]] = [[] for _ in REGIONS]
    g = kernels.g_of_x(a, nu1, nu2)
    bound = kernels.g_bound(nu1, nu2)
    scale = 2.0 ** -64 if bound > FIT_SCALE_BOUND else 1.0
    # nu1*Ps + nu2*Qs + Ss <= bound, as Ps, Qs, Ss <= 2 and rounding is
    # monotone: a knot where |g| passes this is no zero
    near_zero = TANGENT_ULPS * EPS * bound
    for k, inner in enumerate(_interiors(a, BOUNDARY_TOL)):
        if inner is None:
            continue
        lo, hi = inner
        mid = 0.5 * (ends[k][0] + ends[k][1])
        chart = math.tan(0.25 * (ends[k][1] - ends[k][0]))
        # x = c + 2 * arctan(u * tan(L/4))
        ps = []
        for u in _FIT_NODES:
            t = u * chart
            ps.append(g(mid + 2.0 * math.atan(t)) * scale * (1.0 + t * t) ** 6)
        coef = [sum(map(mul, row, ps)) for row in _FIT_DERIVATIVE]
        inside = [x for x in (mid + 2.0 * math.atan(u * chart) for u in _knots(coef))
                  if lo < x < hi]
        knots = sorted({lo, hi, *inside})
        # g at each knot, and whether it vanishes there to within the
        # rounding of its evaluation (never at the region's ends)
        gk = [g(x) for x in knots]
        zero = [False] * len(knots)
        for j in range(1, len(knots) - 1):
            if abs(gk[j]) <= near_zero:
                Ps, Qs, Ss = kernels.g_terms_scale(knots[j], a)
                zero[j] = abs(gk[j]) <= TANGENT_ULPS * EPS * (nu1 * Ps + nu2 * Qs + Ss)

        for j in range(len(knots) - 1):
            if zero[j + 1]:
                # neighbouring zero knots are one root
                if not zero[j]:
                    roots[k].append(knots[j + 1])
            elif not zero[j] and gk[j] * gk[j + 1] < 0.0:
                roots[k].append(_bisect(g, knots[j], knots[j + 1], gk[j], gk[j + 1]))
    return roots


def solution_from_shape(
    shape: Shape,
    masses: MassTriple,
    pot: PairPotential | None = None,
) -> MeridianSolution:
    """Lift a candidate shape to a solution with its backward error:
    omega^2 = 2 * A * |ratio| on the branch s = sign(ratio), with ratio
    the mean of the ratios that the case defines, or a fixed point in
    Case 4 (all G equal). The backward error judges the rest."""
    pot = pot or _UNIT_COTANGENT
    pq = pair_quantities(masses, shape, pot)
    case = classify_case(pq, masses)
    if case == CASE4_FIXED_POINT:
        return _solution(shape, masses, 0, None, case, pot)
    n12, d12, n31, d31 = _ratio_terms(pq)
    ratios = []
    if case in (CASE1, CASE3):
        ratios.append(n12 / d12)
    if case in (CASE1, CASE2):
        ratios.append(n31 / d31)
    ratio = sum(ratios) / len(ratios)
    return _solution(shape, masses, -1 if ratio < 0 else 1, 2.0 * abs(ratio),
                     case, pot)


def find_meridian_rotators(
    a: float,
    masses: MassTriple,
    pot: PairPotential | None = None,
    residual_tol: float = RESIDUAL_TOL,
) -> list[MeridianSolution]:
    """All rigid rotators on the rotating meridian for fixed a.

    A potential with pot.reduced_g, whose u_prime is the cotangent one or
    its sign flip (whatever its u): every root of the reduced equation g
    in each region (_scan_roots), to floating-point resolution; the
    exceptional Case 2/3 shapes are roots of g too. Any other potential
    samples the generic ratio equation at GENERIC_SCAN_SAMPLES points per
    region instead, from GENERIC_BOUNDARY_GAP off each singular point: it
    misses tangent roots, close pairs and roots nearer a singular point.
    A root is reported when its backward error (residual_max) is at most
    residual_tol radians of x. No potential means the unit-sphere
    cotangent one.
    """
    _check_a(a)
    pot = pot or _UNIT_COTANGENT
    if pot.reduced_g:
        roots = [x for region in _scan_roots(a, masses.nu1, masses.nu2)
                 for x in region]
    else:
        roots = _generic_scan_roots(a, masses, pot)

    solutions = []
    for x in roots:
        shape = Shape(a, x)
        try:
            shape.validate(BOUNDARY_TOL)
            sol = solution_from_shape(shape, masses, pot)
        except ValueError:
            continue
        if sol.residual_max <= residual_tol:
            solutions.append(sol)
    return solutions


def _generic_scan_roots(a, masses, pot) -> list[float]:
    # scan the cross-multiplied ratio equation for a generic potential
    def h(x):
        n12, d12, n31, d31 = _ratio_terms(pair_quantities(masses, Shape(a, x), pot))
        return n12 * d31 - n31 * d12

    roots = []
    for inner in _interiors(a, GENERIC_BOUNDARY_GAP):
        if inner is None:
            continue
        lo, hi = inner
        # numpy.linspace's samples, bit for bit
        step = (hi - lo) / (GENERIC_SCAN_SAMPLES - 1)
        xs = [k * step + lo for k in range(GENERIC_SCAN_SAMPLES - 1)] + [hi]
        hs = [h(x) for x in xs]
        for i in range(GENERIC_SCAN_SAMPLES - 1):
            if hs[i] * hs[i + 1] < 0.0:
                roots.append(_bisect(h, xs[i], xs[i + 1], hs[i], hs[i + 1]))
    return roots


def __getattr__(name: str):
    # sweep's call site, cli.cmd_sweep, looks the counter up here, as the
    # benchmark's tracer (perfbench/spans.py) wraps it on this module
    if name == "count_rotators_grid_regions":
        from . import grid

        return grid.count_rotators_grid_regions
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
