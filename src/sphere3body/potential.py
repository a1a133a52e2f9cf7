"""Pair potentials expressed in squared chord distance.

A pair potential is a pair of callables (u, u_prime) in the squared chord
length D^2: u is the force function, so total_potential is
V = sum m_i m_j u and the energy is K - V. A potential attracts where
u_prime(D^2) < 0 on the regular domain 0 < D^2 < 4 R^2; nothing else
records its sign, and repulsive() negates both callables. The cotangent
potential is the concrete instance used throughout; any contract
satisfying the same conventions can drive the generic meridian solver.

A potential is the one holder of the sphere's radius: u and u_prime are
functions of D^2 on that sphere, and every solver, gate and integrator
that takes a potential reads the radius from its radius field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .geometry import SpherePoint, SphereRadius, chord_squared

COLLISION = "collision"
ANTIPODAL = "antipodal"


class SingularityError(ValueError):
    """Potential evaluated at a singular separation.

    kind is "collision" (D^2 -> 0) or "antipodal" (D^2 -> 4 R^2); pair
    optionally identifies the offending body pair.
    """

    def __init__(self, kind: str, d2: float, pair: tuple[int, int] | None = None):
        self.kind = kind
        self.d2 = d2
        self.pair = pair
        where = f" for pair {pair}" if pair else ""
        super().__init__(f"{kind} singularity at D^2={d2}{where}")


@dataclass(frozen=True)
class PairPotential:
    """Potential contract: u(D^2) and its derivative with respect to D^2
    (module docstring); the sign of u_prime says whether it attracts.

    reduced_g marks a potential whose rotating-meridian RE are the roots
    of the reduced equation g (kernels), and radius is the sphere that
    D^2 is measured on (the unit sphere unless given). Only
    cotangent_potential sets reduced_g; it sets the radius it was given,
    and repulsive() keeps both.
    """

    u: Callable[[float], float]
    u_prime: Callable[[float], float]
    reduced_g: bool = False
    radius: SphereRadius = SphereRadius()


def _check_domain(d2: float, R: SphereRadius):
    if d2 <= 0.0:
        raise SingularityError(COLLISION, d2)
    if d2 >= 4.0 * R.R * R.R:
        raise SingularityError(ANTIPODAL, d2)


def cotangent_u(d2: float, R: SphereRadius) -> float:
    """Cotangent potential (1/R) cot(sigma) as a function of D^2."""
    _check_domain(d2, R)
    e2 = R.epsilon * R.epsilon
    return (1.0 - 2.0 * e2 * d2) / math.sqrt(d2 * (1.0 - e2 * d2))


def cotangent_potential(R: SphereRadius) -> PairPotential:
    """The cotangent pair potential bound to a sphere radius.

    u_prime is the integrator's innermost call (three per right-hand
    side), so R's constants and the domain check of _check_domain are
    bound into it here, once per radius.
    """
    r2 = R.R * R.R
    d2_antipodal = 4.0 * R.R * R.R
    e2 = R.epsilon * R.epsilon
    try:
        scale = 2.0 * R.R ** 3
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(f"sphere radius {R.R} is out of range: 2 R^3 = {scale}")

    def u_prime(d2: float) -> float:
        """-1 / (2 R^3 sin^3 sigma), with sin^2(sigma) = (D^2/R^2)(1 - eps^2 D^2)."""
        if d2 <= 0.0:
            raise SingularityError(COLLISION, d2)
        if d2 >= d2_antipodal:
            raise SingularityError(ANTIPODAL, d2)
        try:
            return -1.0 / (scale * ((d2 / r2) * (1.0 - e2 * d2)) ** 1.5)
        except ZeroDivisionError:
            # 2 R^3 sin^3(sigma) underflowed: as singular as the bounds
            kind = COLLISION if d2 < 0.5 * d2_antipodal else ANTIPODAL
            raise SingularityError(kind, d2) from None

    return PairPotential(
        u=lambda d2: cotangent_u(d2, R),
        u_prime=u_prime,
        reduced_g=True,
        radius=R,
    )


def repulsive(pot: PairPotential) -> PairPotential:
    """Sign-flipped copy of a potential (attractive <-> repulsive): u and
    u_prime negated, reduced_g and radius kept."""
    return PairPotential(
        u=lambda d2: -pot.u(d2),
        u_prime=lambda d2: -pot.u_prime(d2),
        reduced_g=pot.reduced_g,
        radius=pot.radius,
    )


_PAIRS = ((0, 1), (1, 2), (2, 0))


def total_potential(
    points: Sequence[SpherePoint],
    masses: Sequence[float],
    pot: PairPotential,
) -> float:
    """V = sum over unordered pairs of m_i m_j u(D_ij^2), on the sphere
    of pot.radius."""
    v = 0.0
    for i, j in _PAIRS:
        d2 = chord_squared(points[i], points[j], pot.radius)
        try:
            v += masses[i] * masses[j] * pot.u(d2)
        except SingularityError as err:
            raise SingularityError(err.kind, err.d2, (i + 1, j + 1)) from None
    return v
