"""Rotating-meridian machinery: shape <-> configuration translation,
per-pair force/geometry terms with case classification, the region
bookkeeping and root finding for the reduced scalar equation g (defined
in kernels), the special families, and the flat-space (large radius)
limit.

Shape angles: a = theta2 - theta1 in (0, pi) is fixed; the unknown is
x = theta3 - theta1 in (0, 2*pi). The potential is singular at
x in {0, a, pi, a + pi}, which bound the four regular regions I-IV.

Every MeridianSolution carries its configuration thetas, the colatitudes
on the meridian phi = 0 (thetas_alt = thetas + pi is the antipodal one).
A rotator's thetas lift its shape on branch s so that
W = sum_k m_k e^(2i theta_k) = s * A: the planar angular momentum Im W
vanishes. The lift promises no more: residual_max, the backward error of
thetas in radians of x (dynamics.backward_error), judges everything else,
and find_meridian_rotators and isosceles_rotators keep a solution only
where it is at most RESIDUAL_TOL (or the tolerance given).

The sphere's radius comes from the potential alone (pot.radius); a
function given no potential solves on the unit sphere under the
cotangent potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

from . import kernels
from .dynamics import MassTriple, backward_error, meridian_pulls
from .geometry import SphereRadius
from .potential import PairPotential, cotangent_potential

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
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


class AZeroFixedPoint(Exception):
    """Amplitude A = 0: the shape-to-configuration map is indefinite and
    the shape is a fixed point."""


def region_bounds(region: str, a: float) -> tuple[float, float]:
    return {
        "I": (0.0, a),
        "II": (a, math.pi),
        "III": (math.pi, math.pi + a),
        "IV": (math.pi + a, TWO_PI),
    }[region]


def region_of(x: float, a: float) -> str:
    x = x % TWO_PI
    for region in REGIONS:
        lo, hi = region_bounds(region, a)
        if lo <= x <= hi:
            return region
    raise ValueError(f"x={x} outside (0, 2*pi)")


@dataclass(frozen=True)
class Shape:
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
        for bad in (0.0, self.theta21, math.pi, self.theta21 + math.pi):
            if abs(self.theta31 - bad) <= tol:
                raise ValueError(f"theta31={self.theta31} sits on a singular point")


def _w_sums(masses: MassTriple, shape: Shape) -> tuple[float, float]:
    """The real and imaginary parts of W * e^(-2i theta1)
    = m1 + m2 e^(2i theta21) + m3 e^(2i theta31)."""
    m1, m2, m3 = masses.as_tuple()
    t21, t31 = shape.theta21, shape.theta31
    return (m1 + m2 * math.cos(2.0 * t21) + m3 * math.cos(2.0 * t31),
            m2 * math.sin(2.0 * t21) + m3 * math.sin(2.0 * t31))


def amplitude_A(masses: MassTriple, shape: Shape) -> float:
    """Translation amplitude A = |W|; zero exactly at the fixed-point
    shapes."""
    return math.hypot(*_w_sums(masses, shape))


def shape_to_configurations(
    masses: MassTriple,
    shape: Shape,
    s: int,
) -> tuple[float, float, float]:
    """Lift a shape to absolute colatitudes on the branch s = +/-1, where
    W = s * A (module docstring).

    Raises AZeroFixedPoint when A <= A_TOL * (m1 + m2 + m3) (the lift is
    indefinite; the shape is a fixed point).
    """
    m1, m2, m3 = masses.as_tuple()
    if amplitude_A(masses, shape) <= A_TOL * (m1 + m2 + m3):
        raise AZeroFixedPoint(shape)
    # e^(2i theta1) = s * conj(W e^(-2i theta1)) / A, and atan2 needs no A
    cos_part, sin_part = _w_sums(masses, shape)
    t1 = 0.5 * math.atan2(s * (-sin_part), s * cos_part)
    return (t1, t1 + shape.theta21, t1 + shape.theta31)


@dataclass(frozen=True)
class PairQuantities:
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
    m1, m2, m3 = masses.as_tuple()
    t21, t31 = shape.theta21, shape.theta31
    F12, F23, F31 = meridian_pulls((0.0, t21, t31), masses, pot or _UNIT_COTANGENT)
    G12 = m1 * m2 * math.sin(2.0 * t21)
    G23 = m2 * m3 * math.sin(2.0 * (t31 - t21))
    G31 = m3 * m1 * math.sin(-2.0 * t31)
    return PairQuantities(F12, F23, F31, G12, G23, G31)


def classify_case(pq: PairQuantities, masses: MassTriple) -> str:
    """Which pair of rigid-rotator equations applies for this shape."""
    m1, m2, m3 = masses.as_tuple()
    tol = CASE_TOL * (m1 * m2 + m2 * m3 + m3 * m1)
    d1 = abs(pq.G12 - pq.G23) <= tol
    d2 = abs(pq.G31 - pq.G12) <= tol
    d3 = abs(pq.G23 - pq.G31) <= tol
    if d1 and d2 and d3:
        return CASE4_FIXED_POINT
    if d1:
        return CASE2
    if d2:
        return CASE3
    return CASE1


def solve_omega_and_branch(
    pq: PairQuantities,
    masses: MassTriple,
    A: float,
) -> tuple[int, float | None, str]:
    """Branch sign s, rotation rate omega^2 and case tag from the ratio
    equations: the mean of the ratios that the case defines.

    s is chosen so omega^2 = 2*A*s*ratio >= 0. Case 4 (all G equal)
    leaves both undetermined: a fixed point, (0, None, tag). Whether the
    shape is a rotator at all is the backward error's to judge.
    """
    case = classify_case(pq, masses)
    if case == CASE4_FIXED_POINT:
        return 0, None, case
    ratios = []
    if case in (CASE1, CASE3):
        ratios.append((pq.F12 - pq.F23) / (pq.G12 - pq.G23))
    if case in (CASE1, CASE2):
        ratios.append((pq.F31 - pq.F12) / (pq.G31 - pq.G12))
    ratio = sum(ratios) / len(ratios)
    s = -1 if ratio < 0 else 1
    return s, 2.0 * A * abs(ratio), case


@dataclass(frozen=True)
class MeridianSolution:
    """A rigid rotator on a rotating meridian, or a fixed point (s = 0,
    omega_squared None, thetas (0, theta21, theta31): no axis is
    preferred), with its configuration and residual (module docstring)."""

    x: float
    shape: Shape
    thetas: tuple[float, float, float]
    s: int
    omega_squared: float | None
    case_tag: str
    residual_max: float

    @property
    def thetas_alt(self) -> tuple[float, float, float]:
        return tuple(t + math.pi for t in self.thetas)

    @property
    def region(self) -> str:
        return region_of(self.x, self.shape.theta21)

    @property
    def is_fixed_point(self) -> bool:
        return self.omega_squared is None


def _solution(shape, masses, s, omega_squared, case_tag, pot) -> MeridianSolution:
    """The solution at shape, with its backward error: lifted on branch s
    when omega_squared is given and A > A_TOL * (m1 + m2 + m3), else a
    fixed point (the A-zero one when omega_squared was given)."""
    thetas = (0.0, shape.theta21, shape.theta31)
    if omega_squared is not None:
        try:
            thetas = shape_to_configurations(masses, shape, s)
        except AZeroFixedPoint:
            s, omega_squared, case_tag = 0, None, A_ZERO_FIXED_POINT
    residual = backward_error(thetas, omega_squared or 0.0, masses, pot)
    return MeridianSolution(shape.theta31, shape, thetas, s, omega_squared,
                            case_tag, residual)


# a knot where |g| <= TANGENT_ULPS * eps * (nu1*Ps + nu2*Qs + Ss)
# (kernels.g_terms_scale), that is, within the rounding error of
# evaluating g there, is a tangent root
TANGENT_ULPS = 64.0
# the 13 Chebyshev points of the first kind and the transposed matrix of
# Chebyshev polynomials at them: chebinterpolate's, for degree 12
_CHEB_NODES = cheb.chebpts1(13)
_CHEB_VANDER_T = cheb.chebvander(_CHEB_NODES, 12).T
# the fit sums 13 samples of up to 64 |g|. Past this bound on |g| they
# are scaled by an exact power of two, which leaves every root as it was
FIT_SCALE_BOUND = 2.0 ** 1000
# samples per region of the scan for a custom potential, whose ratio
# equation has no polynomial form
GENERIC_SCAN_SAMPLES = 2000
# distance of that scan's samples from each singular point. The chord
# 4R^2 sin^2(d/2) keeps its digits next to a collision, but U' takes
# D^2, which rounds to 4R^2 (an antipodal singularity) within about 1e-8
# of an antipodal point and keeps about 4 digits of 4R^2 - D^2 at 1e-6
GENERIC_BOUNDARY_GAP = 1e-6


def _bisect(f, lo, hi, flo, fhi):
    """Narrow a sign change of f on [lo, hi] to neighbouring floats;
    returns the end where |f| is smaller."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # at floating-point resolution
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return lo if abs(flo) <= abs(fhi) else hi


def _chebroots_rows(c: np.ndarray):
    """cheb.chebroots of each row of c, bit for bit: the sorted
    eigenvalues of each row's companion matrix, all from one eigvals
    call. Where a row's last coefficient is 0, which chebroots trims
    first, every row goes through chebroots."""
    if not c[:, -1].all():
        return [cheb.chebroots(row) for row in c]
    return np.sort(np.linalg.eigvals(np.stack(
        [cheb.chebcompanion(row)[::-1, ::-1] for row in c])), axis=1)


def _scan_roots(a: float, nu1: float, nu2: float) -> list[list[float]]:
    """Roots of g strictly inside each region, each found once: one list
    per region, in REGIONS order.

    Inside a region g is a trigonometric polynomial of degree 6 in x
    (kernels). With c the region's midpoint, L its length and
    t = tan((x - c)/2), the product g * (1 + t^2)^6 is therefore a
    polynomial of degree <= 12 in u = t / tan(L/4), which runs over
    [-1, 1] on the region; 13 Chebyshev samples of g determine it. Its
    derivative's roots (real parts; a spare knot does no harm) and the
    region's ends are the knots: between neighbouring knots the
    polynomial is monotone, so it and g, which has its sign, have at
    most one root there. A sign change of g between knots is bisected to
    neighbouring floats. A knot where g vanishes to within the rounding
    of its evaluation is one tangent (even-order) root. A region no
    wider than 2 * BOUNDARY_TOL has none.

    The regions are fitted together: g is evaluated once at all their
    samples, and the derivatives' companion matrices (chebroots') go to
    one eigenvalue call.
    """
    ends = [region_bounds(region, a) for region in REGIONS]
    live = [k for k, (lo, hi) in enumerate(ends)
            if lo + BOUNDARY_TOL < hi - BOUNDARY_TOL]
    roots: list[list[float]] = [[] for _ in REGIONS]
    if not live:
        return roots
    bound = kernels.g_bound(nu1, nu2)
    mids = np.array([0.5 * (ends[k][0] + ends[k][1]) for k in live])
    charts = np.array([math.tan(0.25 * (ends[k][1] - ends[k][0])) for k in live])

    # chebinterpolate(poly, 12) for every region, with its nodes and
    # matrix built once; x = c + 2 * arctan(u * tan(L/4))
    t = _CHEB_NODES * charts[:, None]
    xs = mids[:, None] + 2.0 * np.arctan(t)
    gs = kernels.g_array(xs.ravel(), a, nu1, nu2).reshape(xs.shape)
    if bound > FIT_SCALE_BOUND:
        gs *= 2.0 ** -64
    coef = np.array([np.dot(_CHEB_VANDER_T, row) for row in gs * (1.0 + t * t) ** 6])
    coef[:, 0] /= 13
    coef[:, 1:] /= 6.5
    crit = _chebroots_rows(cheb.chebder(coef, axis=1))

    g = kernels.g_of_x(a, nu1, nu2)
    for k, mid, chart, u in zip(live, mids, charts, crit):
        lo, hi = ends[k]
        lo += BOUNDARY_TOL
        hi -= BOUNDARY_TOL
        inside = [x for x in (mid + 2.0 * np.arctan(u.real * chart)).tolist()
                  if lo < x < hi]
        knots = sorted({lo, hi, *inside})
        # g at each knot, and whether it vanishes there to within the
        # rounding of its evaluation (never at the region's ends)
        gk = []
        zero = []
        for x in knots:
            gx = g(x)
            Ps, Qs, Ss = kernels.g_terms_scale(x, a)
            gk.append(gx)
            zero.append(abs(gx) <= TANGENT_ULPS * EPS * (nu1 * Ps + nu2 * Qs + Ss))
        zero[0] = zero[-1] = False

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
    """Lift a candidate shape to a solution with its backward error."""
    pot = pot or _UNIT_COTANGENT
    pq = pair_quantities(masses, shape, pot)
    A = amplitude_A(masses, shape)
    s, omega_squared, tag = solve_omega_and_branch(pq, masses, A)
    return _solution(shape, masses, s, omega_squared, tag, pot)


def find_meridian_rotators(
    a: float,
    masses: MassTriple,
    pot: PairPotential | None = None,
    residual_tol: float = RESIDUAL_TOL,
) -> list[MeridianSolution]:
    """All rigid rotators on the rotating meridian for fixed a.

    A potential with pot.reduced_g (the cotangent potential and its sign
    flip): every root of the reduced equation g in each region
    (_scan_roots), to floating-point resolution; the exceptional
    Case 2/3 shapes are roots of g too. Any other potential samples the
    generic ratio equation at GENERIC_SCAN_SAMPLES points per region
    instead, from GENERIC_BOUNDARY_GAP off each singular point: it
    misses tangent roots, close pairs and roots nearer a singular point.
    A root is reported when its backward error (residual_max) is at most
    residual_tol radians of x. No potential means the unit-sphere
    cotangent one.
    """
    if not 0.0 < a < math.pi:
        raise ValueError(f"a must lie in (0, pi), got {a}")

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
        pq = pair_quantities(masses, Shape(a, x), pot)
        return (pq.F12 - pq.F23) * (pq.G31 - pq.G12) - (pq.F31 - pq.F12) * (
            pq.G12 - pq.G23
        )

    roots = []
    for region in REGIONS:
        lo, hi = region_bounds(region, a)
        lo += GENERIC_BOUNDARY_GAP
        hi -= GENERIC_BOUNDARY_GAP
        if hi <= lo:
            continue
        xs = np.linspace(lo, hi, GENERIC_SCAN_SAMPLES).tolist()
        hs = [h(x) for x in xs]
        for i in range(GENERIC_SCAN_SAMPLES - 1):
            if hs[i] * hs[i + 1] < 0.0:
                roots.append(_bisect(h, xs[i], xs[i + 1], hs[i], hs[i + 1]))
    return roots


@dataclass(frozen=True)
class RegionCounts:
    I: int
    II: int
    III: int
    IV: int

    @property
    def total(self) -> int:
        return self.I + self.II + self.III + self.IV

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.I, self.II, self.III, self.IV)


def count_pi_over_2(nu_diff: float) -> RegionCounts:
    """Closed-form solution counts at a = pi/2 as a function of
    nu1 - nu2 (regions I and III always contribute one each)."""
    if nu_diff < -4.0:
        return RegionCounts(1, 0, 1, 2)
    if nu_diff == -4.0:
        return RegionCounts(1, 0, 1, 1)
    if nu_diff < 4.0:
        return RegionCounts(1, 0, 1, 0)
    if nu_diff == 4.0:
        return RegionCounts(1, 1, 1, 0)
    return RegionCounts(1, 2, 1, 0)


def count_rotators_scan(
    a: float,
    nu1: float,
    nu2: float,
) -> RegionCounts:
    """Root counts of the reduced equation per region, with no
    configuration lift. Every root counts once: a simple root, a tangent
    (even-order) root and each root of a close pair alike."""
    return RegionCounts(*map(len, _scan_roots(a, nu1, nu2)))


# count_rotators_grid_regions counts blocks of nu2 rows: a block's
# (sample, nu2) arrays and its (nu1 + 1, nu2) difference array each hold
# at most this many cells (48 KB in float64) unless one row is larger.
# At 400 samples, blocks of 12 to 25 rows ran fastest of 6 to 128. Larger
# blocks grow the top of the heap by a few hundred KB, which glibc's
# malloc gives back to the system after each block in some heap layouts,
# so the next block faults it in again (+20% time). Minor page faults per
# 50x50 slice, over copies with an unused function appended to one module
# and several PYTHONHASHSEEDs: 0.0-0.1 at 6144, 8192 and 12288 cells (21,
# 21 and 5 layouts), 372 at 16384 in 2 of 5 layouts. 6144 keeps a margin
# of 2x below the first size that faulted.
GRID_BLOCK_CELLS = 6144


def count_rotators_grid_regions(
    a: float,
    nu1_values: Sequence[float],
    nu2_values: Sequence[float],
    samples_per_region: int = 400,
) -> dict[str, np.ndarray]:
    """Per-region sign-change counts over a (nu1, nu2) grid for one a.

    Uses the linearity of g in (nu1, nu2): g = nu1 * P(x) + nu2 * Q(x)
    + S(x) (kernels.g_terms), so the whole grid shares one set of x
    samples, evenly spaced from BOUNDARY_TOL inside each singular point
    (a region no wider than 2 * BOUNDARY_TOL has none and counts 0, as
    in _scan_roots). Tangent roots are not detected here; this is
    the sweep's coarse counter. Raises ValueError, before anything is
    evaluated, where the largest |nu1| and |nu2| overflow g
    (kernels.g_bound).

    Each g value is (nu1 * P + nu2 * Q) + S in floating point, and a sign
    change is one sample below zero with its neighbour above zero (a zero
    sample is no sign change), so a cell's count does not depend on the
    rest of the grid. (Counting neighbour products below zero instead
    misses a sign change whose product underflows to zero, which takes a
    nonzero |nu1 * P|, |nu2 * Q| or |S| below about 1e-144.) The nu
    values are finite.

    Rounding is monotone, so for one nu2 and one sample the computed g
    is monotone in nu1: non-decreasing where P >= 0, non-increasing
    where P < 0. Over the sorted nu1 grid each (nu2, sample) pair is
    therefore below zero, zero and above zero on three runs of indices
    (the reverse where P < 0), which two thresholds bound: t_neg and
    t_pos, the counts of nu1 where g * sign(P) is below zero and at most
    zero. Each threshold is guessed from the real root -(nu2 * Q + S) / P
    and confirmed by g one index below and at it; a pair that fails the
    check (a zero of g near the guess, P = 0, a guess off by rounding)
    is settled by bisection over the indices. Two neighbouring samples
    then change sign on one interval of nu1 indices: [min t_pos,
    max t_neg) of the two where P keeps its sign between them (empty
    where it ends first), and where P turns, every index outside
    [min t_neg, max t_pos). A difference array over nu1 counts them. g
    is evaluated a few times per (nu2, sample) pair rather than once per
    nu1 value, and the working memory is one block of nu2 rows
    (GRID_BLOCK_CELLS) besides the output.
    """
    nu1v = np.asarray(nu1_values, dtype=float)
    nu2v = np.asarray(nu2_values, dtype=float)
    kernels.g_bound(float(np.abs(nu1v).max(initial=0.0)),
                    float(np.abs(nu2v).max(initial=0.0)))
    n1, n2 = len(nu1v), len(nu2v)
    order = np.argsort(nu1v, kind="stable")
    nu1s = nu1v[order]
    rows = max(1, GRID_BLOCK_CELLS // max(samples_per_region, n1 + 1))
    out: dict[str, np.ndarray] = {}
    for region in REGIONS:
        counts = np.zeros((n1, n2), dtype=np.intp)
        out[region] = counts
        lo, hi = region_bounds(region, a)
        lo += BOUNDARY_TOL
        hi -= BOUNDARY_TOL
        if hi <= lo or n1 == 0 or samples_per_region < 2:
            continue
        terms = _normalised_terms(
            *kernels.g_terms(np.linspace(lo, hi, samples_per_region), a))
        for j in range(0, n2, rows):
            block = slice(j, j + rows)
            counts[order, block] = _count_block(nu1s, nu2v[block], *terms).T
    return out


def _normalised_terms(P, Q, S):
    """(P, Q, S) times -1 at the samples where P < 0, so that
    h = (nu1 * P + nu2 * Q) + S is non-decreasing in nu1 (h = g where
    P >= 0 and -g where P < 0: the same sums of the negated terms give
    -g exactly, as rounding to nearest is symmetric), and the indices k
    of the sample pairs (k, k + 1) between which P changes sign."""
    flip = P < 0.0
    sign = np.where(flip, -1.0, 1.0)
    return sign * P, sign * Q, sign * S, np.flatnonzero(flip[:-1] != flip[1:])


def _count_block(nu1s, nu2b, P, Q, S, turns) -> np.ndarray:
    """Sign changes of g between neighbouring samples, for sorted nu1s and
    each nu2 in nu2b, from the terms and turns of _normalised_terms:
    shape (nu2, nu1)."""
    n1, n2 = len(nu1s), len(nu2b)
    nu2_q = Q[:, None] * nu2b  # arrays are (sample, nu2)

    # t_neg = #{h < 0} and t_pos = #{h <= 0} bound h's three runs; both
    # are the guess where h is below zero one index below it and above
    # zero at it, nu1 = -inf below the grid and +inf above it (where
    # P = 0 that gives NaN, and bisection)
    nu1p = np.concatenate(([-np.inf], nu1s, [np.inf]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        guess = np.searchsorted(nu1s, (nu2_q + S[:, None]) * (-1.0 / P)[:, None])
        ok = (((nu1p[guess] * P[:, None] + nu2_q) + S[:, None] < 0.0)
              & ((nu1p[guess + 1] * P[:, None] + nu2_q) + S[:, None] > 0.0))
    t_neg = t_pos = guess
    if not ok.all():
        # the rejected pairs, at sample k and nu2 j: bisect for the first
        # index where h >= 0 (t_neg), or h > 0 (t_pos)
        k, j = np.divmod(np.flatnonzero(~ok), n2)
        t_pos = guess.copy()
        for t, strict in ((t_neg, False), (t_pos, True)):
            lo = np.zeros(len(k), dtype=np.intp)
            hi = np.full(len(k), n1, dtype=np.intp)
            while True:
                active = np.flatnonzero(lo < hi)
                if not active.size:
                    break
                mid = (lo[active] + hi[active]) // 2
                ka = k[active]
                hm = (nu1s[mid] * P[ka] + nu2_q[ka, j[active]]) + S[ka]
                hit = hm > 0.0 if strict else hm >= 0.0
                hi[active] = np.where(hit, mid, hi[active])
                lo[active] = np.where(hit, lo[active], mid + 1)
            t[k, j] = lo

    # g < 0 on [0, t_neg) and g > 0 on [t_pos, n1), the reverse where P
    # was flipped. Where P keeps its sign between samples k and k + 1,
    # flipped or not, g changes sign on [min t_pos, max t_neg) of the two
    # samples (empty where that ends before it starts: clamped to an
    # empty interval, which cancels in the difference array). Where P
    # turns, g changes sign on [0, min t_neg) and on [max t_pos, n1):
    # everywhere (the count of turns, added to every cell) less
    # [min t_neg, max t_pos), counted as start = max t_pos and
    # end = min t_neg <= start.
    start = np.minimum(t_pos[:-1], t_pos[1:])
    end = np.maximum(t_neg[:-1], t_neg[1:])
    np.maximum(end, start, out=end)
    if turns.size:
        start[turns] = np.maximum(t_pos[turns], t_pos[turns + 1])
        end[turns] = np.minimum(t_neg[turns], t_neg[turns + 1])
    # one difference array of n1 + 1 entries per nu2
    offset = (n1 + 1) * np.arange(n2)
    start += offset
    end += offset
    size = (n1 + 1) * n2
    diff = np.bincount(start.ravel(), minlength=size)
    diff -= np.bincount(end.ravel(), minlength=size)
    counts = diff.reshape(n2, n1 + 1)
    counts[:, 0] += turns.size
    return np.cumsum(counts, axis=1, out=counts)[:, :n1]


def equilateral_rotator(
    masses: MassTriple,
    pot: PairPotential | None = None,
) -> MeridianSolution:
    """The equilateral rotator (all mutual arcs 2*pi/3).

    Potential-generic: omega^2 = 4 A |U'(3 R^2)|, on the branch s = -1
    where U'(3 R^2) < 0 (the potential attracts there) and s = +1
    otherwise; equal masses give the amplitude-zero fixed point.
    """
    pot = pot or _UNIT_COTANGENT
    shape = Shape(2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    u_prime = pot.u_prime(3.0 * pot.radius.R * pot.radius.R)
    omega_squared = 4.0 * amplitude_A(masses, shape) * abs(u_prime)
    return _solution(shape, masses, -1 if u_prime < 0.0 else 1, omega_squared,
                     CASE1, pot)


SPECIAL_ISOSCELES_COS_A = (math.sqrt(2.0) - 1.0) / 2.0


def isosceles_rotators(
    masses: MassTriple,
    a: float | None = None,
    pot: PairPotential | None = None,
) -> list[MeridianSolution]:
    """Isosceles rotators (body 3 at the midpoint of the minor or major
    arc joining bodies 1 and 2).

    nu1 = nu2: both families exist for every a. Unequal nu: the minor-arc
    family only at cos(a) = (sqrt(2)-1)/2, the major-arc family only at
    a = 2*pi/3 (where it is the equilateral rotator). a = None is the
    special angle.
    """
    if a is None:
        a = math.acos(SPECIAL_ISOSCELES_COS_A)
    if not 0.0 < a < math.pi:
        raise ValueError(f"a must lie in (0, pi), got {a}")
    equal_nu = abs(masses.nu1 - masses.nu2) <= 1e-12 * (masses.nu1 + masses.nu2)
    candidates = []
    if equal_nu or abs(math.cos(a) - SPECIAL_ISOSCELES_COS_A) <= 1e-9:
        candidates.append(a / 2.0)
    if equal_nu or abs(a - 2.0 * math.pi / 3.0) <= 1e-9:
        candidates.append(a / 2.0 + math.pi)
    sols = [solution_from_shape(Shape(a, x), masses, pot) for x in candidates]
    return [s for s in sols if s.residual_max <= RESIDUAL_TOL]


@dataclass(frozen=True)
class ExceptionalAngles:
    """Closed-form Case 2 / Case 3 shape angles for a given mass ratio.

    theta_pair is theta1 - theta2; theta_other is theta2 - theta3
    (Case 2) or theta3 - theta1 (Case 3).
    """

    which: str
    nu: float
    sin_theta_pair: float
    cos_theta_pair: float
    sin_theta_other: float
    cos_theta_other: float

    @property
    def theta_pair(self) -> float:
        return math.atan2(self.sin_theta_pair, self.cos_theta_pair)

    @property
    def theta_other(self) -> float:
        return math.atan2(self.sin_theta_other, self.cos_theta_other)


def exceptional_case_angles(which: str, nu: float) -> list[ExceptionalAngles]:
    """Both cosine branches of the exceptional-case closed forms."""
    if which not in (CASE2, CASE3):
        raise ValueError(f"which must be {CASE2} or {CASE3}")
    if nu <= 0:
        raise ValueError("mass ratio must be positive")
    den = (1.0 + nu) * (1.0 + nu * nu)
    sin_pair = math.sqrt(nu * (1.0 + nu + nu * nu) / den)
    cos_pair = 1.0 / math.sqrt(den)
    sin_other = math.sqrt((1.0 + nu + nu * nu) / den)
    cos_other = math.sqrt(nu ** 3 / den)
    return [
        ExceptionalAngles(which, nu, sin_pair, sign * cos_pair,
                          sin_other, sign * cos_other)
        for sign in (+1.0, -1.0)
    ]


def case4_fixed_point(masses: MassTriple) -> MeridianSolution | None:
    """The all-G-equal fixed point: exists only for equal masses, as the
    equilateral shape."""
    m1, m2, m3 = masses.as_tuple()
    tol = CASE_TOL * max(m1, m2, m3)
    if abs(m1 - m2) > tol or abs(m2 - m3) > tol:
        return None
    shape = Shape(2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    return _solution(shape, masses, 0, None, CASE4_FIXED_POINT, _UNIT_COTANGENT)


def euler_quintic_coefficients(masses: MassTriple) -> list[float]:
    """Coefficients (degree descending) of the collinear quintic that
    the reduced equation degenerates to on the flat plane."""
    m1, m2, m3 = masses.as_tuple()
    return [
        m1 + m2,
        3.0 * m1 + 2.0 * m2,
        3.0 * m1 + m2,
        -(m2 + 3.0 * m3),
        -(2.0 * m2 + 3.0 * m3),
        -(m2 + m3),
    ]


@dataclass(frozen=True)
class EulerLimitRow:
    R: float
    max_coeff_deviation: float
    root_deviation: float


@dataclass(frozen=True)
class EulerLimitReport:
    rows: list[EulerLimitRow]
    order_estimate: float
    quintic_coefficients: list[float]
    quintic_root: float


def _quintic_positive_root(coeffs: Sequence[float]) -> float:
    roots = np.roots(coeffs)
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
    if not real:
        raise ValueError("quintic has no positive real root")
    return min(real)


def euler_limit_check(
    masses: MassTriple,
    r21: float,
    R_values: Sequence[float],
) -> EulerLimitReport:
    """Compare the scaled reduced equation against the flat-plane
    collinear quintic as the sphere radius grows (region II setup).

    The scaled values m3/2 * g * (R/r21)^5 at x = (1 + lambda) * a,
    a = r21/R, converge to the quintic in lambda at second order in
    r21/R. reports per-R coefficient deviation and the deviation of the
    meridian root from the quintic's positive root.
    """
    coeffs = euler_quintic_coefficients(masses)
    lam_root = _quintic_positive_root(coeffs)
    nu1, nu2 = masses.nu1, masses.nu2
    m3 = masses.m3
    lam_nodes = np.linspace(0.2, 3.0, 6)
    vander = np.vander(lam_nodes, 6)
    rows = []
    for R in R_values:
        a = r21 / R
        try:
            scale = (R / r21) ** 5
        except OverflowError:
            raise ValueError(f"R/r21 = {R / r21} is out of range: (R/r21)^5 "
                             f"overflows") from None
        xs = (1.0 + lam_nodes) * a
        scaled = kernels.g_array(xs, a, nu1, nu2) * scale * m3 / 2.0
        fitted = np.linalg.solve(vander, scaled)
        dev = float(np.max(np.abs(fitted - np.array(coeffs))))

        # the region-II root of g nearest the flat-space root
        roots = _scan_roots(a, nu1, nu2)[1]
        root_dev = min((abs(x / a - 1.0 - lam_root) for x in roots),
                       default=math.nan)
        rows.append(EulerLimitRow(R, dev, root_dev))

    logs = [(math.log(r.R), math.log(r.max_coeff_deviation)) for r in rows]
    slope = np.polyfit([p[0] for p in logs], [p[1] for p in logs], 1)[0]
    return EulerLimitReport(rows, -slope, coeffs, lam_root)
