"""Rotating-meridian machinery: shape <-> configuration translation,
per-pair force/geometry terms with case classification, the region
bookkeeping and root finding for the reduced scalar equation g (defined
in kernels), the special families, and the flat-space (large radius)
limit.

Shape angles: a = theta2 - theta1 in (0, pi) is fixed; the unknown is
x = theta3 - theta1 in (0, 2*pi). The potential is singular at
x in {0, a, pi, a + pi}, which bound the four regular regions I-IV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

from . import kernels
from .dynamics import MassTriple, configuration_residuals
from .geometry import SphereRadius
from .potential import PairPotential, cotangent_potential

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
REGIONS = ("I", "II", "III", "IV")

# relative tolerances of the lift and the case classification
A_TOL = 1e-12  # amplitude A under which a shape is a fixed point
CASE_TOL = 1e-12  # two G values (or masses) closer than this are equal
RATIO_TOL = 1e-6  # branch equations closer than this agree
BOUNDARY_TOL = 1e-8  # distance kept from the singular points

CASE1 = "Case1"
CASE2 = "Case2"
CASE3 = "Case3"
CASE4_FIXED_POINT = "Case4-fixed-point"
A_ZERO_FIXED_POINT = "A-zero-fixed-point"


class NotARotatorError(ValueError):
    """The two independent branch equations disagree for this shape."""


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


def amplitude_A(masses: MassTriple, shape: Shape) -> float:
    """Translation amplitude; zero exactly at the fixed-point shapes."""
    m1, m2, m3 = masses.as_tuple()
    a2 = (
        m1 * m1 + m2 * m2 + m3 * m3
        + 2.0 * m1 * m2 * math.cos(2.0 * shape.theta21)
        + 2.0 * m1 * m3 * math.cos(2.0 * shape.theta31)
        + 2.0 * m2 * m3 * math.cos(2.0 * shape.theta32)
    )
    return math.sqrt(max(a2, 0.0))


@dataclass(frozen=True)
class MeridianTranslation:
    """Configuration lift of a shape, with its antipodal partner."""

    A: float
    s: int
    thetas: tuple[float, float, float]
    thetas_alt: tuple[float, float, float]


def shape_to_configurations(
    masses: MassTriple,
    shape: Shape,
    s: int,
) -> MeridianTranslation:
    """Lift a shape to absolute colatitudes on the branch s = +/-1.

    Raises AZeroFixedPoint when the amplitude vanishes (the lift is
    indefinite; the shape is a fixed point).
    """
    m1, m2, m3 = masses.as_tuple()
    t21, t31 = shape.theta21, shape.theta31
    A = amplitude_A(masses, shape)
    if A <= A_TOL * (m1 + m2 + m3):
        raise AZeroFixedPoint(shape)

    cos_part = m1 + m2 * math.cos(2.0 * t21) + m3 * math.cos(2.0 * t31)
    sin_part = m2 * math.sin(2.0 * t21) + m3 * math.sin(2.0 * t31)
    sin2t1 = s * (-sin_part) / A
    cos2t1 = s * cos_part / A
    t1 = 0.5 * math.atan2(sin2t1, cos2t1)
    thetas = (t1, t1 + t21, t1 + t31)
    thetas_alt = tuple(t + math.pi for t in thetas)

    _check_translation(masses, shape, s, A, thetas)
    return MeridianTranslation(A, s, thetas, thetas_alt)


def _check_translation(masses, shape, s, A, thetas, tol=1e-10):
    # the lifted angles must reproduce the translated (sin, cos) of
    # 2*theta_k for the remaining bodies. Both sides carry the rounding
    # of sin_part/A and cos_part/A, which grows like (m1+m2+m3)/A, so the
    # tolerance grows with it; the residual gate judges the lifted
    # configuration itself.
    m = masses.as_tuple()
    tol = tol * (m[0] + m[1] + m[2]) / A
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        sin_pred = (
            s / A * (
                m[i] * math.sin(2.0 * (thetas[k] - thetas[i]))
                + m[j] * math.sin(2.0 * (thetas[k] - thetas[j]))
            )
        )
        cos_pred = (
            s / A * (
                m[k]
                + m[i] * math.cos(2.0 * (thetas[k] - thetas[i]))
                + m[j] * math.cos(2.0 * (thetas[k] - thetas[j]))
            )
        )
        if (
            abs(sin_pred - math.sin(2.0 * thetas[k])) > tol
            or abs(cos_pred - math.cos(2.0 * thetas[k])) > tol
        ):
            raise RuntimeError("translation lift failed the consistency check")


@dataclass(frozen=True)
class PairQuantities:
    """Per-pair force-like terms F_ij and geometric terms G_ij."""

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
    R: SphereRadius = SphereRadius(),
) -> PairQuantities:
    shape.validate()
    if pot is None:
        pot = cotangent_potential(R)
    m1, m2, m3 = masses.as_tuple()
    t21, t31 = shape.theta21, shape.theta31
    u_prime = pot.u_prime
    two_r2 = 2.0 * R.R * R.R
    # pairs 12, 23, 31 in turn, with d = theta_j - theta_i and theta_1 = 0
    d12, d23, d31 = t21 - 0.0, t31 - t21, 0.0 - t31
    F12 = -2.0 * m1 * m2 * math.sin(d12) * u_prime(two_r2 * (1.0 - math.cos(d12)))
    G12 = m1 * m2 * math.sin(2.0 * d12)
    F23 = -2.0 * m2 * m3 * math.sin(d23) * u_prime(two_r2 * (1.0 - math.cos(d23)))
    G23 = m2 * m3 * math.sin(2.0 * d23)
    F31 = -2.0 * m3 * m1 * math.sin(d31) * u_prime(two_r2 * (1.0 - math.cos(d31)))
    G31 = m3 * m1 * math.sin(2.0 * d31)
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


@dataclass(frozen=True)
class BranchResult:
    s: int
    omega_squared: float | None  # None encodes a fixed point
    case_tag: str

    @property
    def is_fixed_point(self) -> bool:
        return self.omega_squared is None


def solve_omega_and_branch(
    pq: PairQuantities,
    masses: MassTriple,
    A: float,
) -> BranchResult:
    """Branch sign and rotation rate from the ratio equations.

    s is chosen so omega^2 = 2*A*s*ratio >= 0. Case 4 (all G equal)
    leaves both undetermined: a fixed point.
    """
    case = classify_case(pq, masses)
    ftol = RATIO_TOL * max(abs(pq.F12), abs(pq.F23), abs(pq.F31), 1e-300)
    if case == CASE4_FIXED_POINT:
        if abs(pq.F12 - pq.F23) > ftol or abs(pq.F31 - pq.F12) > ftol:
            raise NotARotatorError("all G equal but the F values differ")
        return BranchResult(0, None, case)
    ratios = []
    if case in (CASE1, CASE3):
        ratios.append((pq.F12 - pq.F23) / (pq.G12 - pq.G23))
    else:
        if abs(pq.F12 - pq.F23) > ftol:
            raise NotARotatorError("G12 = G23 but F12 != F23")
    if case in (CASE1, CASE2):
        ratios.append((pq.F31 - pq.F12) / (pq.G31 - pq.G12))
    else:
        if abs(pq.F31 - pq.F12) > ftol:
            raise NotARotatorError("G31 = G12 but F31 != F12")
    if len(ratios) == 2:
        rscale = max(abs(ratios[0]), abs(ratios[1]), 1.0)
        if abs(ratios[0] - ratios[1]) > RATIO_TOL * rscale:
            raise NotARotatorError(
                f"branch equations disagree: {ratios[0]} vs {ratios[1]}"
            )
    ratio = sum(ratios) / len(ratios)
    s = -1 if ratio < 0 else 1
    return BranchResult(s, 2.0 * A * abs(ratio), case)


@dataclass(frozen=True)
class MeridianSolution:
    """A rigid rotator on a rotating meridian plus its configuration lift."""

    x: float
    shape: Shape
    translation: MeridianTranslation | None
    s: int
    omega_squared: float | None
    case_tag: str
    region: str
    residual_max: float = math.nan

    @property
    def is_fixed_point(self) -> bool:
        return self.omega_squared is None

    def residual_inputs(self):
        if self.translation is not None:
            thetas = self.translation.thetas
        else:
            # fixed point: the axis is arbitrary, pick theta1 = 0
            thetas = (0.0, self.shape.theta21, self.shape.theta31)
        omega = 0.0 if self.omega_squared is None else math.sqrt(self.omega_squared)
        return thetas, (0.0, 0.0, 0.0), omega


@dataclass(frozen=True)
class ScanOptions:
    boundary_tol: float = BOUNDARY_TOL
    residual_tol: float = 1e-9


# a knot where |g| <= TANGENT_ULPS * eps * (nu1*Ps + nu2*Qs + Ss)
# (kernels.g_terms_scale), that is, within the rounding error of
# evaluating g there, is a tangent root
TANGENT_ULPS = 64.0
# the 13 Chebyshev points of the first kind and the transposed matrix of
# Chebyshev polynomials at them: chebinterpolate's, for degree 12
_CHEB_NODES = cheb.chebpts1(13)
_CHEB_VANDER_T = cheb.chebvander(_CHEB_NODES, 12).T
# samples per region of the scan for a custom potential, whose ratio
# equation has no polynomial form
GENERIC_SCAN_SAMPLES = 2000


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


def _scan_region_roots(
    a: float, nu1: float, nu2: float, region: str, opts: ScanOptions
) -> list[float]:
    """Roots of g strictly inside one region, each found once.

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
    of its evaluation is one tangent (even-order) root.
    """
    lo, hi = region_bounds(region, a)
    mid = 0.5 * (lo + hi)
    chart = math.tan(0.25 * (hi - lo))
    lo += opts.boundary_tol
    hi -= opts.boundary_tol
    if hi <= lo:
        return []

    def x_of(u):
        return mid + 2.0 * np.arctan(u * chart)

    # chebinterpolate(poly, 12), with its nodes and matrix built once
    t = _CHEB_NODES * chart
    coef = np.dot(_CHEB_VANDER_T, kernels.g_array(x_of(_CHEB_NODES), a, nu1, nu2)
                  * (1.0 + t * t) ** 6)
    coef[0] /= 13
    coef[1:] /= 6.5
    inside = [k for k in x_of(cheb.chebroots(cheb.chebder(coef)).real).tolist()
              if lo < k < hi]
    knots = sorted({lo, hi, *inside})
    # g at each knot, and whether it vanishes there to within the
    # rounding of its evaluation (never at the region's ends)
    gk = []
    zero = []
    for x in knots:
        P, Q, S = kernels.g_terms(x, a)
        Ps, Qs, Ss = kernels.g_terms_scale(x, a)
        g = nu1 * P + nu2 * Q + S
        gk.append(g)
        zero.append(abs(g) <= TANGENT_ULPS * EPS * (nu1 * Ps + nu2 * Qs + Ss))
    zero[0] = zero[-1] = False

    def f(x):
        return kernels.g_scalar(x, a, nu1, nu2)

    roots = []
    for k in range(len(knots) - 1):
        if zero[k + 1]:
            # neighbouring zero knots are one root
            if not zero[k]:
                roots.append(knots[k + 1])
        elif not zero[k] and gk[k] * gk[k + 1] < 0.0:
            roots.append(_bisect(f, knots[k], knots[k + 1], gk[k], gk[k + 1]))
    return roots


def solution_from_shape(
    shape: Shape,
    masses: MassTriple,
    pot: PairPotential | None = None,
    R: SphereRadius = SphereRadius(),
) -> MeridianSolution:
    """Lift a candidate shape to a verified solution (raises
    NotARotatorError when the branch equations reject it)."""
    if pot is None:
        pot = cotangent_potential(R)
    pq = pair_quantities(masses, shape, pot, R)
    A = amplitude_A(masses, shape)
    branch = solve_omega_and_branch(pq, masses, A)
    # a fixed point has no lift, no branch and no rotation rate
    translation, s, omega_squared, tag = None, 0, None, branch.case_tag
    if not branch.is_fixed_point:
        try:
            translation = shape_to_configurations(masses, shape, branch.s)
            s, omega_squared = branch.s, branch.omega_squared
        except AZeroFixedPoint:
            tag = A_ZERO_FIXED_POINT
    sol = MeridianSolution(shape.theta31, shape, translation, s, omega_squared,
                           tag, region_of(shape.theta31, shape.theta21))
    return _with_residual(sol, masses, pot, R)


def _with_residual(sol: MeridianSolution, masses, pot, R) -> MeridianSolution:
    thetas, phis, omega = sol.residual_inputs()
    res = configuration_residuals(thetas, phis, omega, masses, pot, R)
    return replace(sol, residual_max=float(np.max(np.abs(res))))


def find_meridian_rotators(
    a: float,
    masses: MassTriple,
    options: ScanOptions | None = None,
    pot: PairPotential | None = None,
    R: SphereRadius = SphereRadius(),
) -> list[MeridianSolution]:
    """All rigid rotators on the rotating meridian for fixed a.

    A potential with pot.reduced_g (the cotangent potential and its sign
    flip): every root of the reduced equation g in each region
    (_scan_region_roots), to floating-point resolution; the exceptional
    Case 2/3 shapes are roots of g too. Any other potential samples the
    generic ratio equation at GENERIC_SCAN_SAMPLES points per region
    instead, whatever its name. Every survivor must pass the
    raw-equation residuals.
    """
    if not 0.0 < a < math.pi:
        raise ValueError(f"a must lie in (0, pi), got {a}")
    opts = options or ScanOptions()

    if pot is None or pot.reduced_g:
        roots = []
        for region in REGIONS:
            roots.extend(_scan_region_roots(a, masses.nu1, masses.nu2, region, opts))
    else:
        roots = _generic_scan_roots(a, masses, pot, R, opts)

    solutions = []
    for x in roots:
        shape = Shape(a, x)
        try:
            shape.validate(opts.boundary_tol)
            sol = solution_from_shape(shape, masses, pot, R)
        except (ValueError, NotARotatorError):
            continue
        # gate relative to the equation scale: fast rotators near a
        # boundary have huge omega^2, so their raw residual floor grows
        scale = max(1.0, abs(sol.omega_squared or 0.0)) * sum(masses.as_tuple())
        if sol.residual_max < opts.residual_tol * scale:
            solutions.append(sol)
    return solutions


def _generic_scan_roots(a, masses, pot, R, opts) -> list[float]:
    # scan the cross-multiplied ratio equation for a generic potential
    def h(x):
        pq = pair_quantities(masses, Shape(a, x), pot, R)
        return (pq.F12 - pq.F23) * (pq.G31 - pq.G12) - (pq.F31 - pq.F12) * (
            pq.G12 - pq.G23
        )

    roots = []
    for region in REGIONS:
        lo, hi = region_bounds(region, a)
        lo += opts.boundary_tol
        hi -= opts.boundary_tol
        xs = np.linspace(lo, hi, GENERIC_SCAN_SAMPLES)
        hs = np.array([h(x) for x in xs])
        for i in np.flatnonzero(hs[:-1] * hs[1:] < 0.0):
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
    options: ScanOptions | None = None,
) -> RegionCounts:
    """Root counts of the reduced equation per region, with no
    configuration lift. Every root counts once: a simple root, a tangent
    (even-order) root and each root of a close pair alike."""
    opts = options or ScanOptions()
    counts = [len(_scan_region_roots(a, nu1, nu2, r, opts)) for r in REGIONS]
    return RegionCounts(*counts)


def count_rotators_grid_regions(
    a: float,
    nu1_values: Sequence[float],
    nu2_values: Sequence[float],
    samples_per_region: int = 400,
) -> dict[str, np.ndarray]:
    """Per-region sign-change counts over a (nu1, nu2) grid for one a.

    Uses the linearity of g in (nu1, nu2): g = nu1 * P(x) + nu2 * Q(x)
    + S(x) (kernels.g_terms), so the whole grid shares one set of x
    samples. Tangent roots are not detected here; this is the sweep's
    coarse counter.

    The grid is counted one nu1 row at a time in buffers reused through
    the ufuncs' ``out=``, so the working memory is one nu2 row times the
    samples, whatever the size of the nu1 grid. Each g value is summed
    as (nu1 * P + nu2 * Q) + S and a sign change is a product of
    neighbouring samples below zero (a zero sample, or a product that
    underflows to zero, is no sign change), so a cell's count does not
    depend on the rest of the grid.
    """
    nu1v = np.asarray(nu1_values, dtype=float)
    nu2v = np.asarray(nu2_values, dtype=float)
    row_shape = (len(nu2v), samples_per_region)
    nu1_p = np.empty(samples_per_region)
    nu2_q = np.empty(row_shape)
    g = np.empty(row_shape)
    product = np.empty_like(g[:, 1:])
    below = np.empty(product.shape, dtype=bool)
    out: dict[str, np.ndarray] = {}
    for region in REGIONS:
        lo, hi = region_bounds(region, a)
        xs = np.linspace(lo + BOUNDARY_TOL, hi - BOUNDARY_TOL, samples_per_region)
        P, Q, S = kernels.g_terms(xs, a)
        np.multiply(nu2v[:, None], Q, out=nu2_q)
        counts = np.empty((len(nu1v), len(nu2v)), dtype=np.intp)
        for i, nu1 in enumerate(nu1v):
            np.multiply(nu1, P, out=nu1_p)
            np.add(nu1_p, nu2_q, out=g)
            np.add(g, S, out=g)
            np.multiply(g[:, :-1], g[:, 1:], out=product)
            np.less(product, 0.0, out=below)
            counts[i] = np.count_nonzero(below, axis=1)
        out[region] = counts
    return out


def equilateral_rotator(
    masses: MassTriple,
    pot: PairPotential | None = None,
    R: SphereRadius = SphereRadius(),
) -> MeridianSolution:
    """The equilateral rotator (all mutual arcs 2*pi/3).

    Potential-generic: s = -1 and omega^2 = -4 A U'(3 R^2) for unequal
    masses; equal masses give the amplitude-zero fixed point.
    """
    if pot is None:
        pot = cotangent_potential(R)
    shape = Shape(2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    region = region_of(shape.theta31, shape.theta21)
    A = amplitude_A(masses, shape)
    uprime = pot.u_prime(3.0 * R.R * R.R)
    try:
        translation = shape_to_configurations(masses, shape, -1 if pot.attractive else 1)
        sol = MeridianSolution(shape.theta31, shape, translation, translation.s,
                               4.0 * A * abs(uprime), CASE1, region)
    except AZeroFixedPoint:
        sol = MeridianSolution(
            shape.theta31, shape, None, 0, None, A_ZERO_FIXED_POINT, region)
    return _with_residual(sol, masses, pot, R)


SPECIAL_ISOSCELES_COS_A = (math.sqrt(2.0) - 1.0) / 2.0


def isosceles_rotators(
    masses: MassTriple,
    a: float | str | None = "special",
    pot: PairPotential | None = None,
    R: SphereRadius = SphereRadius(),
) -> list[MeridianSolution]:
    """Isosceles rotators (body 3 at the midpoint of the minor or major
    arc joining bodies 1 and 2).

    nu1 = nu2: both families exist for every a. Unequal nu: the minor-arc
    family only at cos(a) = (sqrt(2)-1)/2, the major-arc family only at
    a = 2*pi/3 (where it is the equilateral rotator).
    """
    if a == "special" or a is None:
        a = math.acos(SPECIAL_ISOSCELES_COS_A)
    if not 0.0 < a < math.pi:
        raise ValueError(f"a must lie in (0, pi), got {a}")
    equal_nu = abs(masses.nu1 - masses.nu2) <= 1e-12 * (masses.nu1 + masses.nu2)
    out = []
    candidates = []
    if equal_nu or abs(math.cos(a) - SPECIAL_ISOSCELES_COS_A) <= 1e-9:
        candidates.append(a / 2.0)
    if equal_nu or abs(a - 2.0 * math.pi / 3.0) <= 1e-9:
        candidates.append(a / 2.0 + math.pi)
    for x in candidates:
        try:
            out.append(solution_from_shape(Shape(a, x), masses, pot, R))
        except NotARotatorError:
            continue
    return out


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
    sol = MeridianSolution(
        shape.theta31, shape, None, 0, None, CASE4_FIXED_POINT,
        region_of(shape.theta31, shape.theta21),
    )
    return _with_residual(sol, masses, cotangent_potential(SphereRadius()), SphereRadius())


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
        roots = _scan_region_roots(a, nu1, nu2, "II", ScanOptions())
        root_dev = min((abs(x / a - 1.0 - lam_root) for x in roots),
                       default=math.nan)
        rows.append(EulerLimitRow(R, dev, root_dev))

    logs = [(math.log(r.R), math.log(r.max_coeff_deviation)) for r in rows]
    slope = np.polyfit([p[0] for p in logs], [p[1] for p in logs], 1)[0]
    return EulerLimitReport(rows, -slope, coeffs, lam_root)
