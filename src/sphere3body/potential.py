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
that takes a potential reads the radius from its radius field. The
cotangent family's u_prime records its sphere too (reduced_g_sphere):
that marks its meridian RE as the roots of g, and no other radius is let in.

PAIRS orders the three body pairs and pair_value labels a
SingularityError with its pair, for every pair loop but the integrator's.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

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


class _PotentialFields(NamedTuple):
    u: Callable[[float], float]
    u_prime: Callable[[float], float]
    radius: SphereRadius = SphereRadius()


class PairPotential(_PotentialFields):
    """Potential contract: u(D^2) and its derivative with respect to D^2
    (module docstring); the sign of u_prime says whether it attracts.

    radius is the sphere that D^2 is measured on (the unit sphere unless
    given). A u_prime that records a sphere in u_prime.reduced_g_sphere
    (only cotangent_potential and repulsive() build one) must be given
    that radius, through _replace too, or ValueError is raised.
    """

    __slots__ = ()

    def __new__(cls, u, u_prime, radius: SphereRadius = SphereRadius()):
        sphere = getattr(u_prime, "reduced_g_sphere", radius)
        if sphere != radius:
            raise ValueError(f"u_prime was built for {sphere!r}, not {radius!r}")
        return super().__new__(cls, u, u_prime, radius)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    @property
    def reduced_g(self) -> bool:
        """True when the rotating-meridian RE are the roots of the reduced
        equation g (kernels): u_prime records its sphere. The RE depend on
        U' alone, so a new u keeps it and a new u_prime drops it."""
        return hasattr(self.u_prime, "reduced_g_sphere")


def cotangent_potential(R: SphereRadius) -> PairPotential:
    """The cotangent pair potential (1/R) cot(sigma) bound to a radius.

    u_prime is the integrator's innermost call (three per right-hand
    side), so R's constants and the domain check are bound into u and
    u_prime here, once per radius. u_prime records R as reduced_g_sphere,
    so the potential is solved through g and keeps radius R.
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

    def u(d2: float) -> float:
        """(1 - 2 eps^2 D^2) / sqrt(D^2 (1 - eps^2 D^2)) = (1/R) cot(sigma)."""
        if d2 <= 0.0:
            raise SingularityError(COLLISION, d2)
        if d2 >= d2_antipodal:
            raise SingularityError(ANTIPODAL, d2)
        return (1.0 - 2.0 * e2 * d2) / math.sqrt(d2 * (1.0 - e2 * d2))

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

    u_prime.reduced_g_sphere = R
    return PairPotential(u=u, u_prime=u_prime, radius=R)


def repulsive(pot: PairPotential) -> PairPotential:
    """Sign-flipped copy of a potential (attractive <-> repulsive): u and
    u_prime negated; radius and the sphere u_prime records are kept."""
    def u_prime(d2: float) -> float:
        return -pot.u_prime(d2)

    if pot.reduced_g:
        u_prime.reduced_g_sphere = pot.u_prime.reduced_g_sphere
    return PairPotential(u=lambda d2: -pot.u(d2), u_prime=u_prime, radius=pot.radius)


# the body pairs (i, j), from 0, in the order of every pair loop
PAIRS = ((0, 1), (1, 2), (2, 0))


def pair_value(f: Callable[[float], float], d2: float, i: int, j: int) -> float:
    """f(d2) for bodies i and j, a SingularityError labelled (i + 1, j + 1)."""
    try:
        return f(d2)
    except SingularityError as err:
        raise SingularityError(err.kind, err.d2, (i + 1, j + 1)) from None


def total_potential(
    points: Sequence[SpherePoint],
    masses: Sequence[float],
    pot: PairPotential,
) -> float:
    """V = sum over unordered pairs of m_i m_j u(D_ij^2), on the sphere
    of pot.radius."""
    v = 0.0
    for i, j in PAIRS:
        d2 = chord_squared(points[i], points[j], pot.radius)
        v += masses[i] * masses[j] * pair_value(pot.u, d2, i, j)
    return v
