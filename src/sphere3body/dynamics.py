"""Ground-truth layer of the solver, loaded by every command: the masses,
the pair pulls of three bodies on a meridian, and the backward error
that the meridian solver and the verifier both gate on.

The meridian force balance has one definition, meridian_pulls: the
backward error and meridian.pair_quantities both read it, so they share
its algebra. Independence lives elsewhere: in integrator, which only
verify loads (the raw equations of motion, the RK4 integrator, and
configuration_residuals, the tests' oracle), and in the benchmark's
Cartesian check.
"""

from __future__ import annotations

import math
from math import cos, sin
from typing import NamedTuple, Sequence

from .potential import PAIRS, PairPotential, pair_value


class _MassFields(NamedTuple):
    m1: float
    m2: float
    m3: float


class MassTriple(_MassFields):
    """Three positive masses with the derived ratios nu1, nu2 and mu_k."""

    __slots__ = ()

    def __new__(cls, m1: float, m2: float, m3: float):
        self = super().__new__(cls, m1, m2, m3)
        m = (m1, m2, m3)  # a plain tuple, for the messages
        # written so that nan fails too; min() would let it through
        if not all(0.0 < v < math.inf for v in m):
            raise ValueError(f"masses must be positive and finite: {m}")
        # the lift and the residuals multiply masses pairwise, so the
        # total's square must be finite. No solver step takes nu^3: the
        # bound on it (each ratio within about 1e-108 to 5.6e102) keeps
        # the closed forms of the exceptional Case 2/3 shapes, test oracles
        # that take nu^3, defined on every MassTriple, and holds the range
        # of accepted ratios where it was until it is re-derived from what
        # the scan needs. The scan loses roots well inside it (at a = 1,
        # nu = (1e18, 1), region III counts none, where its count is odd).
        total = m1 + m2 + m3
        if not (total * total < math.inf
                and all(0.0 < nu * nu * nu < math.inf for nu in (self.nu1, self.nu2))):
            raise ValueError(f"masses or their ratios are too extreme: {m}")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    @property
    def nu1(self) -> float:
        return self.m1 / self.m3

    @property
    def nu2(self) -> float:
        return self.m2 / self.m3

    @property
    def mu(self) -> tuple[float, float, float]:
        """mu_k = sqrt(m_i m_j), (i, j, k) cyclic."""
        return (
            math.sqrt(self.m2 * self.m3),
            math.sqrt(self.m3 * self.m1),
            math.sqrt(self.m1 * self.m2),
        )


# step of x = theta3 - theta1 that calibrates backward_error
X_STEP = 1e-6


def meridian_pulls(thetas, masses, pot) -> tuple[float, float, float]:
    """The pulls p_ki = 2 m_k m_i U'(D_ki^2) sin(t_k - t_i) of the pairs
    (k, i) = (1, 2), (2, 3), (3, 1) of three bodies at colatitudes thetas
    on one meridian: pair ki's term in body k's theta equation, and
    -p_ki in body i's. The chord D_ki^2 = 4 R^2 sin^2((t_k - t_i)/2)
    keeps its digits near a collision.

    Raises SingularityError labelled with the pair.
    """
    R = pot.radius.R
    four_r2 = 4.0 * R * R
    pulls = []
    for k, i in PAIRS:
        d = thetas[k] - thetas[i]
        h = sin(0.5 * d)
        u = pair_value(pot.u_prime, four_r2 * h * h, k, i)
        pulls.append(2.0 * masses[k] * masses[i] * u * sin(d))
    return tuple(pulls)


def _meridian_defect(thetas, omega_squared, masses, pot) -> float:
    """Largest relative defect of the rigid-rotation balance of three
    bodies on the meridian phi = 0 (nan if any defect is nan).

    Per body k, the theta row -w^2 m_k sin t_k cos t_k minus its pulls
    (meridian_pulls) against the sum of the magnitudes of its terms;
    when w^2 > 0, also the planar angular momentum
    |sum m_k sin t_k cos t_k| against m1 + m2 + m3.
    """
    m1, m2, m3 = masses
    p12, p23, p31 = meridian_pulls(thetas, masses, pot)
    pulls = ((p12, -p31), (-p12, p23), (-p23, p31))
    spins = [mk * sin(t) * cos(t) for mk, t in zip(masses, thetas)]
    defects = []
    for spin, (p, q) in zip(spins, pulls):
        spin *= -omega_squared
        scale = abs(spin) + abs(p) + abs(q)
        if scale != 0.0:
            defects.append(abs(spin - p - q) / scale)
    if omega_squared > 0.0:
        defects.append(abs(sum(spins)) / (m1 + m2 + m3))
    # a nan (an overflowed term) counts as the largest
    return max(defects, key=lambda v: (v != v, v), default=0.0)


def backward_error(
    thetas: Sequence[float],
    omega_squared: float,
    masses: MassTriple,
    pot: PairPotential,
) -> float:
    """How far a configuration on the meridian phi = 0, turning at
    omega_squared (0 for a fixed point), is from a relative equilibrium,
    in radians of x = theta3 - theta1: the largest relative defect of the
    force balance (_meridian_defect) over its change when theta3 moves by
    X_STEP, times X_STEP. inf where that change is 0 or nan.

    A relative defect alone cannot tell a wrong solution from a right one
    near a collision or an antipodal pair, where the terms grow like
    1/sin^3(sigma) and one ulp of x moves them by 1e-9 of their size;
    measured in x, both kinds meet the same tolerance. The solver's gate
    and the verifier both read this measure.
    """
    d = _meridian_defect(thetas, omega_squared, masses, pot)
    if d == 0.0:
        return 0.0
    t1, t2, t3 = thetas
    slope = abs(_meridian_defect((t1, t2, t3 + X_STEP), omega_squared,
                                 masses, pot) - d)
    return X_STEP * d / slope if slope > 0.0 else math.inf
