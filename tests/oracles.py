"""The paper's closed forms, and the thin wrappers that only tests call.

No command runs any of these, so they live with the tests rather than
in the package: the solver is checked against them. The cotangent U and
the energy K - V are the integrator's conserved quantity, which the
package does not compute (a potential is its U'). The closed forms
(the equilateral and isosceles families, the exceptional Case 2/3
angles, the Case 4 fixed point, the counts at a = pi/2 and the
equator's antipodal limit) are built on private solver pieces where a
solution record is wanted (_solution, solution_from_shape, _lift,
_scan_roots, equator._closed_form), so that they share the solver's
lift and backward error but not its root finding.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from sphere3body.dynamics import MassTriple
from sphere3body.equator import INTERIOR, _closed_form, existence_check, solve_equator
from sphere3body.geometry import SphereRadius, _clamp, chord_squared
from sphere3body.meridian import (
    _UNIT_COTANGENT,
    CASE1,
    CASE2,
    CASE3,
    CASE4_FIXED_POINT,
    CASE_TOL,
    REGIONS,
    RESIDUAL_TOL,
    MeridianSolution,
    Shape,
    _check_a,
    _lift,
    _region_ends,
    _scan_roots,
    _solution,
    _w_sums,
    solution_from_shape,
)
from sphere3body.potential import (
    ANTIPODAL,
    COLLISION,
    PAIRS,
    PairPotential,
    SingularityError,
)

# ---------------------------------------------------------------- geometry


def chord_from_arc(sigma: float, R: SphereRadius) -> float:
    """Chord length D = 2 R sin(sigma / 2) for an arc angle in [0, pi]."""
    if not 0.0 <= sigma <= math.pi:
        raise ValueError(f"arc angle must lie in [0, pi], got {sigma}")
    return 2.0 * R.R * math.sin(0.5 * sigma)


def arc_from_chord_squared(d2: float, R: SphereRadius) -> float:
    """Inverse of chord_from_arc on squared input."""
    s = _clamp(math.sqrt(max(d2, 0.0)) * R.epsilon)
    return 2.0 * math.asin(s)


# ---------------------------------------------------------------- energy


def cotangent_u(d2: float, R: SphereRadius) -> float:
    """The cotangent pair potential U = (1/R) cot(sigma) in the squared
    chord, (1 - 2 eps^2 D^2) / sqrt(D^2 (1 - eps^2 D^2)), on the sphere of
    radius R: the U whose derivative cotangent_potential(R).u_prime is.
    Raises SingularityError at D^2 <= 0 and D^2 >= 4 R^2."""
    if d2 <= 0.0:
        raise SingularityError(COLLISION, d2)
    if d2 >= 4.0 * R.R * R.R:
        raise SingularityError(ANTIPODAL, d2)
    e2 = R.epsilon * R.epsilon
    return (1.0 - 2.0 * e2 * d2) / math.sqrt(d2 * (1.0 - e2 * d2))


def kinetic_energy(state, masses: MassTriple, R: SphereRadius) -> float:
    """K of an integrator.SphericalState on the sphere of radius R."""
    k = 0.0
    for m, p, td, pd in zip(masses, state.points, state.theta_dot, state.phi_dot):
        st = math.sin(p.theta)
        k += 0.5 * m * (td * td + st * st * pd * pd)
    return R.R ** 2 * k


def cotangent_energy(state, masses: MassTriple, R: SphereRadius) -> float:
    """E = K - V under cotangent_potential(R), with V = sum over the pairs
    of m_i m_j U(D_ij^2)."""
    v = sum(masses[i] * masses[j]
            * cotangent_u(chord_squared(state.points[i], state.points[j], R), R)
            for i, j in PAIRS)
    return kinetic_energy(state, masses, R) - v


# ---------------------------------------------------------------- meridian


def region_bounds(region: str, a: float) -> tuple[float, float]:
    return _region_ends(a)[REGIONS.index(region)]


def amplitude_A(masses: MassTriple, shape: Shape) -> float:
    """Translation amplitude A = |W|; zero exactly at the fixed-point
    shapes."""
    return math.hypot(*_w_sums(masses, shape))


def shape_to_configurations(
    masses: MassTriple,
    shape: Shape,
    s: int,
) -> tuple[float, float, float] | None:
    """Lift a shape to absolute colatitudes on the branch s = +/-1, where
    W = s * A; None for an A-zero shape (meridian._lift)."""
    return _lift(masses, shape, s)[1]


class RegionCounts(NamedTuple):
    I: int
    II: int
    III: int
    IV: int

    @property
    def total(self) -> int:
        return self.I + self.II + self.III + self.IV


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
    (even-order) root and each root of a close pair alike. Raises
    ValueError unless 0 < a < pi, as find_meridian_rotators does."""
    _check_a(a)
    return RegionCounts(*map(len, _scan_roots(a, nu1, nu2)))


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
    return _solution(shape, masses, -1 if u_prime < 0.0 else 1,
                     4.0 * abs(u_prime), CASE1, pot)


SPECIAL_ISOSCELES_COS_A = (math.sqrt(2.0) - 1.0) / 2.0


def isosceles_rotators(
    masses: MassTriple,
    a: float | None = None,
    pot: PairPotential | None = None,
) -> list[MeridianSolution]:
    """Isosceles rotators (body 3 at the midpoint of the minor or major
    arc joining bodies 1 and 2), kept where the backward error is at most
    RESIDUAL_TOL.

    nu1 = nu2: both families exist for every a. Unequal nu: the minor-arc
    family only at cos(a) = (sqrt(2)-1)/2, the major-arc family only at
    a = 2*pi/3 (where it is the equilateral rotator). a = None is the
    special angle.
    """
    if a is None:
        a = math.acos(SPECIAL_ISOSCELES_COS_A)
    _check_a(a)
    equal_nu = abs(masses.nu1 - masses.nu2) <= 1e-12 * (masses.nu1 + masses.nu2)
    candidates = []
    if equal_nu or abs(math.cos(a) - SPECIAL_ISOSCELES_COS_A) <= 1e-9:
        candidates.append(a / 2.0)
    if equal_nu or abs(a - 2.0 * math.pi / 3.0) <= 1e-9:
        candidates.append(a / 2.0 + math.pi)
    sols = [solution_from_shape(Shape(a, x), masses, pot) for x in candidates]
    return [s for s in sols if s.residual_max <= RESIDUAL_TOL]


class ExceptionalAngles(NamedTuple):
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
    m1, m2, m3 = masses
    tol = CASE_TOL * max(m1, m2, m3)
    if abs(m1 - m2) > tol or abs(m2 - m3) > tol:
        return None
    shape = Shape(2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    return _solution(shape, masses, 0, None, CASE4_FIXED_POINT, _UNIT_COTANGENT)


# ---------------------------------------------------------------- equator


def default_antipodal_path() -> Callable[[float], MassTriple]:
    """Mass family m1 = m2 growing toward the antipodal limit, m3 = 1.

    At t = 1, sqrt(m3/m1) + sqrt(m3/m2) = 1 exactly (m1 = m2 = 4 m3).
    The start m1 = 3 m3 puts the whole path on the tail where -V is
    monotone decreasing.
    """

    def path(t: float) -> MassTriple:
        m = 3.0 + t
        return MassTriple(m, m, 1.0)

    return path


class AntipodalScanRow(NamedTuple):
    t: float
    masses: MassTriple
    neg_potential_energy: float
    dphi_12: float
    dphi_23: float
    dphi_31: float


def antipodal_limit_scan(
    mass_path: Callable[[float], MassTriple] | None = None,
    steps: int = 50,
) -> list[AntipodalScanRow]:
    """Tabulate -V and the longitude differences along a mass path that
    terminates on the existence boundary.

    The terminal point is evaluated from the closed forms directly
    (rho -> 0, cosines clamped); every interior point must classify as
    interior or the scan aborts.
    """
    if mass_path is None:
        mass_path = default_antipodal_path()
    rows = []
    for n in range(steps + 1):
        t = n / steps
        masses = mass_path(t)
        check = existence_check(masses)
        if check.region == INTERIOR:
            sol = solve_equator(masses)
        elif n == steps:
            sol = _closed_form(masses)
        else:
            raise ValueError(
                f"path leaves the interior region at t={t} ({check.region})"
            )
        rows.append(
            AntipodalScanRow(
                t, masses, sol.neg_potential_energy,
                sol.dphi_12, sol.dphi_23, sol.dphi_31,
            )
        )
    return rows
