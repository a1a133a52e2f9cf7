"""Ground-truth layer: raw equations of motion, angular momentum,
residuals of the rotating-equilibrium conditions, the pair pulls of
three bodies on a meridian, the backward error that the meridian solver
and the verifier both gate on, and a fixed-step RK4 integrator used
only for independent verification.

The meridian force balance has one definition, meridian_pulls: the
backward error and meridian.pair_quantities both read it, so they share
its algebra. Independence lives elsewhere: in configuration_residuals,
the tests' oracle, a per-pair loop on the untranslated equations, and
in the benchmark's Cartesian check. The equations of motion have one
definition, the scalar kernel _accelerations, which integrate calls four
times per RK4 step on twelve local floats.

Every function that takes a potential reads the sphere's radius from it
(pot.radius). A SphericalState holds angles and rates only, so the
kinematics that take no potential, kinetic_energy and angular_momentum,
take the radius as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, sin
from typing import Sequence

import numpy as np

from .geometry import SpherePoint, SphereRadius, chord_squared
from .potential import PairPotential, SingularityError, total_potential


@dataclass(frozen=True)
class MassTriple:
    """Three positive masses with the derived ratios nu1, nu2 and mu_k."""

    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        m = self.as_tuple()
        # written so that nan fails too; min() would let it through
        if not all(0.0 < v < math.inf for v in m):
            raise ValueError(f"masses must be positive and finite: {m}")
        # the lift and the residuals multiply masses pairwise, and
        # meridian.exceptional_case_angles takes nu^3: none of these may
        # overflow or vanish
        total = m[0] + m[1] + m[2]
        if not (total * total < math.inf
                and all(0.0 < nu * nu * nu < math.inf for nu in (self.nu1, self.nu2))):
            raise ValueError(f"masses or their ratios are too extreme: {m}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.m1, self.m2, self.m3)

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


@dataclass(frozen=True)
class SphericalState:
    """Positions and angular velocities of the three bodies, in angles:
    the same state on a sphere of any radius."""

    points: tuple[SpherePoint, SpherePoint, SpherePoint]
    theta_dot: tuple[float, float, float]
    phi_dot: tuple[float, float, float]

    @property
    def thetas(self) -> tuple[float, float, float]:
        return tuple(p.theta for p in self.points)

    @property
    def phis(self) -> tuple[float, float, float]:
        return tuple(p.phi for p in self.points)


@dataclass(frozen=True)
class AngularMomentum:
    cx: float
    cy: float
    cz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz])


def angular_momentum(state: SphericalState, masses: MassTriple,
                     R: SphereRadius) -> AngularMomentum:
    """Angular momentum components in spherical coordinates, on the
    sphere of radius R."""
    R2 = R.R ** 2
    cx = cy = cz = 0.0
    for m, p, td, pd in zip(
        masses.as_tuple(), state.points, state.theta_dot, state.phi_dot
    ):
        st, ct = math.sin(p.theta), math.cos(p.theta)
        sp, cp = math.sin(p.phi), math.cos(p.phi)
        cx += m * (-sp * td - st * ct * cp * pd)
        cy += m * (cp * td - st * ct * sp * pd)
        cz += m * st * st * pd
    return AngularMomentum(R2 * cx, R2 * cy, R2 * cz)


def kinetic_energy(state: SphericalState, masses: MassTriple,
                   R: SphereRadius) -> float:
    """Kinetic energy on the sphere of radius R."""
    R2 = R.R ** 2
    k = 0.0
    for m, p, td, pd in zip(
        masses.as_tuple(), state.points, state.theta_dot, state.phi_dot
    ):
        st = math.sin(p.theta)
        k += 0.5 * m * (td * td + st * st * pd * pd)
    return R2 * k


def _accelerations(t1, t2, t3, p1, p2, p3, td1, td2, td3, pd1, pd2, pd3,
                   w1, w2, w3, u_prime, two_r2):
    """Second derivatives (theta_ddot_1..3, phi_ddot_1..3) of the raw
    equations of motion; w_k = 2 m_k and two_r2 = 2 R^2.

    This is the integrator's hot loop, written with plain floats: one
    sine and cosine per colatitude and per longitude difference, one U'
    per pair, shared by both bodies of the pair. cos and sin of
    phi_i - phi_k are even and odd, so each pair's values serve both
    orders. The floating-point operations are those of the per-pair
    loop that tests/test_dynamics.py keeps as the reference, in the same
    order, so results agree with it bit for bit.

    Raises SingularityError labelled with the pair, ZeroDivisionError
    for a body on a pole, and ValueError for an infinite angle.
    """
    s1, s2, s3 = sin(t1), sin(t2), sin(t3)
    c1, c2, c3 = cos(t1), cos(t2), cos(t3)
    # U' of each pair at its squared chord 2 R^2 (1 - cos sigma), with
    # cos sigma clamped to [-1, 1] as max(-1, min(1, .)) does
    pair = (1, 2)
    try:
        cos12 = cos(p1 - p2)
        cs = c1 * c2 + s1 * s2 * cos12
        cs = cs if cs < 1.0 else 1.0
        u12 = u_prime(two_r2 * (1.0 - (cs if cs > -1.0 else -1.0)))
        pair = (2, 3)
        cos23 = cos(p2 - p3)
        cs = c2 * c3 + s2 * s3 * cos23
        cs = cs if cs < 1.0 else 1.0
        u23 = u_prime(two_r2 * (1.0 - (cs if cs > -1.0 else -1.0)))
        pair = (3, 1)
        cos31 = cos(p3 - p1)
        cs = c3 * c1 + s3 * s1 * cos31
        cs = cs if cs < 1.0 else 1.0
        u31 = u_prime(two_r2 * (1.0 - (cs if cs > -1.0 else -1.0)))
    except SingularityError as err:
        raise SingularityError(err.kind, err.d2, pair) from None
    sin12, sin23, sin31 = sin(p1 - p2), sin(p2 - p3), sin(p3 - p1)
    # f_ki = 2 m_i U'_ki: the pull of body i on body k
    f12, f13 = w2 * u12, w3 * u31
    f21, f23 = w1 * u12, w3 * u23
    f31, f32 = w1 * u31, w2 * u23
    # each sum starts from 0.0, so a sum of zeros is +0.0 whatever
    # the signs of its terms
    gt1 = 0.0 + f12 * (s1 * c2 - c1 * s2 * cos12) + f13 * (s1 * c3 - c1 * s3 * cos31)
    gt2 = 0.0 + f21 * (s2 * c1 - c2 * s1 * cos12) + f23 * (s2 * c3 - c2 * s3 * cos23)
    gt3 = 0.0 + f31 * (s3 * c1 - c3 * s1 * cos31) + f32 * (s3 * c2 - c3 * s2 * cos23)
    gp1 = 0.0 + f12 * s2 * s1 * sin12 - f13 * s3 * s1 * sin31
    gp2 = 0.0 - f21 * s1 * s2 * sin12 + f23 * s3 * s2 * sin23
    gp3 = 0.0 + f31 * s1 * s3 * sin31 - f32 * s2 * s3 * sin23
    # the phi equations divide by sin(theta_k): ZeroDivisionError on a pole
    return (
        s1 * c1 * pd1 * pd1 + gt1,
        s2 * c2 * pd2 * pd2 + gt2,
        s3 * c3 * pd3 * pd3 + gt3,
        gp1 / (s1 * s1) - 2.0 * (c1 / s1) * td1 * pd1,
        gp2 / (s2 * s2) - 2.0 * (c2 / s2) * td2 * pd2,
        gp3 / (s3 * s3) - 2.0 * (c3 / s3) * td3 * pd3,
    )


@dataclass
class Trajectory:
    times: np.ndarray
    thetas: np.ndarray  # (n, 3)
    phis: np.ndarray
    theta_dots: np.ndarray
    phi_dots: np.ndarray
    energy_drift: float
    c_drift: float
    error: str | None = None

    def state_at(self, idx: int) -> SphericalState:
        # plain floats: a blown-up state overflows to inf without a
        # numpy RuntimeWarning
        pts = tuple(
            SpherePoint(t, p)
            for t, p in zip(self.thetas[idx].tolist(), self.phis[idx].tolist())
        )
        return SphericalState(
            pts, tuple(self.theta_dots[idx].tolist()),
            tuple(self.phi_dots[idx].tolist())
        )


def integrate(
    state: SphericalState,
    masses: MassTriple,
    pot: PairPotential,
    t_end: float,
    dt: float,
    store_every: int = 1,
) -> Trajectory:
    """Classical fixed-step RK4 over the raw equations of motion.

    The step works on twelve local floats and calls _accelerations once
    per stage. Every (store_every)-th state and the last one are kept.
    Reports the relative drift of the energy K - V and of the angular
    momentum vector over the run. On a singularity the partial
    trajectory is returned with the error recorded. The sphere's radius
    is pot.radius.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")
    m1, m2, m3 = masses.as_tuple()
    w1, w2, w3 = 2.0 * m1, 2.0 * m2, 2.0 * m3
    up = pot.u_prime
    R = pot.radius.R
    two_r2 = 2.0 * (R * R)
    t1, t2, t3 = state.thetas
    p1, p2, p3 = state.phis
    td1, td2, td3 = state.theta_dot
    pd1, pd2, pd3 = state.phi_dot
    n_steps = max(1, int(round(t_end / dt)))
    h = t_end / n_steps
    hh = 0.5 * h
    h6 = h / 6.0

    times = [0.0]
    rows = [(t1, t2, t3, p1, p2, p3, td1, td2, td3, pd1, pd2, pd3)]
    error = None
    for step in range(n_steps):
        # stage j evaluates the accelerations (tdd*j, pdd*j) at the state
        # whose velocities are td*j, pd*j; stage a is the current state
        try:
            tdd1a, tdd2a, tdd3a, pdd1a, pdd2a, pdd3a = _accelerations(
                t1, t2, t3, p1, p2, p3, td1, td2, td3, pd1, pd2, pd3,
                w1, w2, w3, up, two_r2)
            td1b, td2b, td3b = td1 + hh * tdd1a, td2 + hh * tdd2a, td3 + hh * tdd3a
            pd1b, pd2b, pd3b = pd1 + hh * pdd1a, pd2 + hh * pdd2a, pd3 + hh * pdd3a
            tdd1b, tdd2b, tdd3b, pdd1b, pdd2b, pdd3b = _accelerations(
                t1 + hh * td1, t2 + hh * td2, t3 + hh * td3,
                p1 + hh * pd1, p2 + hh * pd2, p3 + hh * pd3,
                td1b, td2b, td3b, pd1b, pd2b, pd3b, w1, w2, w3, up, two_r2)
            td1c, td2c, td3c = td1 + hh * tdd1b, td2 + hh * tdd2b, td3 + hh * tdd3b
            pd1c, pd2c, pd3c = pd1 + hh * pdd1b, pd2 + hh * pdd2b, pd3 + hh * pdd3b
            tdd1c, tdd2c, tdd3c, pdd1c, pdd2c, pdd3c = _accelerations(
                t1 + hh * td1b, t2 + hh * td2b, t3 + hh * td3b,
                p1 + hh * pd1b, p2 + hh * pd2b, p3 + hh * pd3b,
                td1c, td2c, td3c, pd1c, pd2c, pd3c, w1, w2, w3, up, two_r2)
            td1d, td2d, td3d = td1 + h * tdd1c, td2 + h * tdd2c, td3 + h * tdd3c
            pd1d, pd2d, pd3d = pd1 + h * pdd1c, pd2 + h * pdd2c, pd3 + h * pdd3c
            tdd1d, tdd2d, tdd3d, pdd1d, pdd2d, pdd3d = _accelerations(
                t1 + h * td1c, t2 + h * td2c, t3 + h * td3c,
                p1 + h * pd1c, p2 + h * pd2c, p3 + h * pd3c,
                td1d, td2d, td3d, pd1d, pd2d, pd3d, w1, w2, w3, up, two_r2)
        except SingularityError as err:
            error = str(err)
            break
        except ZeroDivisionError:
            # the phi equation divides by sin(theta_k)
            error = "a body sits on a pole (sin theta = 0)"
            break
        except (ValueError, OverflowError) as err:
            # accelerations blow up shortly before the singularity check
            # trips; report the partial trajectory either way
            error = f"numerical blow-up near a singularity: {err}"
            break
        t1 += h6 * (td1 + 2.0 * td1b + 2.0 * td1c + td1d)
        t2 += h6 * (td2 + 2.0 * td2b + 2.0 * td2c + td2d)
        t3 += h6 * (td3 + 2.0 * td3b + 2.0 * td3c + td3d)
        p1 += h6 * (pd1 + 2.0 * pd1b + 2.0 * pd1c + pd1d)
        p2 += h6 * (pd2 + 2.0 * pd2b + 2.0 * pd2c + pd2d)
        p3 += h6 * (pd3 + 2.0 * pd3b + 2.0 * pd3c + pd3d)
        td1 += h6 * (tdd1a + 2.0 * tdd1b + 2.0 * tdd1c + tdd1d)
        td2 += h6 * (tdd2a + 2.0 * tdd2b + 2.0 * tdd2c + tdd2d)
        td3 += h6 * (tdd3a + 2.0 * tdd3b + 2.0 * tdd3c + tdd3d)
        pd1 += h6 * (pdd1a + 2.0 * pdd1b + 2.0 * pdd1c + pdd1d)
        pd2 += h6 * (pdd2a + 2.0 * pdd2b + 2.0 * pdd2c + pdd2d)
        pd3 += h6 * (pdd3a + 2.0 * pdd3b + 2.0 * pdd3c + pdd3d)
        if (step + 1) % store_every == 0 or step == n_steps - 1:
            times.append((step + 1) * h)
            rows.append((t1, t2, t3, p1, p2, p3, td1, td2, td3, pd1, pd2, pd3))

    arr = np.array(rows)
    traj = Trajectory(
        times=np.array(times),
        thetas=arr[:, 0:3],
        phis=arr[:, 3:6],
        theta_dots=arr[:, 6:9],
        phi_dots=arr[:, 9:12],
        energy_drift=0.0,
        c_drift=0.0,
        error=error,
    )
    try:
        e0, c0 = _invariants(traj, 0, masses, pot)
        e1, c1 = _invariants(traj, len(times) - 1, masses, pot)
        escale = max(abs(e0), 1.0)
        traj.energy_drift = abs(e1 - e0) / escale
        # the norm of a blown-up state may overflow to inf, as it should
        with np.errstate(over="ignore"):
            cscale = max(float(np.linalg.norm(c0)), 1.0)
            traj.c_drift = float(np.linalg.norm(c1 - c0)) / cscale
    except (SingularityError, ValueError, OverflowError):
        # terminal state unusable (blow-up); drift is undefined
        traj.energy_drift = math.inf
        traj.c_drift = math.inf
    return traj


def _invariants(traj: Trajectory, idx: int, masses, pot):
    st = traj.state_at(idx)
    e = kinetic_energy(st, masses, pot.radius) - total_potential(
        st.points, masses.as_tuple(), pot)
    c = angular_momentum(st, masses, pot.radius).as_array()
    return e, c


def configuration_residuals(
    thetas: Sequence[float],
    phis: Sequence[float],
    omega: float,
    masses: MassTriple,
    pot: PairPotential,
) -> np.ndarray:
    """Left-minus-right values of the raw rotating-equilibrium conditions.

    Components: the two planar angular-momentum sums (only when
    omega != 0), the two independent differences of the phi equations,
    and the three theta equations. A per-pair loop over U' at each
    pair's chord (geometry.chord_squared), apart from the integrator's
    kernel and the meridian force balance, so the tests can hold both
    against it.
    """
    m = masses.as_tuple()
    st = [sin(t) for t in thetas]
    ct = [cos(t) for t in thetas]
    points = [SpherePoint(t, p) for t, p in zip(thetas, phis)]
    pairs = ((0, 1), (1, 2), (2, 0))
    up = {}
    for i, j in pairs:
        try:
            up[i, j] = up[j, i] = pot.u_prime(
                chord_squared(points[i], points[j], pot.radius))
        except SingularityError as err:
            raise SingularityError(err.kind, err.d2, (i + 1, j + 1)) from None

    res = []
    if omega != 0.0:
        res.append(sum(m[k] * st[k] * ct[k] * cos(phis[k]) for k in range(3)))
        res.append(sum(m[k] * st[k] * ct[k] * sin(phis[k]) for k in range(3)))

    r = [m[i] * m[j] * up[i, j] * st[i] * st[j] * sin(phis[i] - phis[j])
         for i, j in pairs]
    res.append(r[0] - r[1])
    res.append(r[1] - r[2])

    # theta_k: -omega^2 m_k sin cos = sum over i != k of
    # 2 m_k m_i U'_ki (sin t_k cos t_i - cos t_k sin t_i cos(phi_k - phi_i))
    for k in range(3):
        rhs = 0.0
        for i in range(3):
            if i != k:
                rhs += 2.0 * m[k] * m[i] * up[k, i] * (
                    st[k] * ct[i] - ct[k] * st[i] * cos(phis[k] - phis[i]))
        res.append(-(omega ** 2) * m[k] * st[k] * ct[k] - rhs)
    return np.array(res)


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
    m = masses.as_tuple()
    R = pot.radius.R
    four_r2 = 4.0 * R * R
    pulls = []
    for k, i in ((0, 1), (1, 2), (2, 0)):
        d = thetas[k] - thetas[i]
        h = sin(0.5 * d)
        try:
            u = pot.u_prime(four_r2 * h * h)
        except SingularityError as err:
            raise SingularityError(err.kind, err.d2, (k + 1, i + 1)) from None
        pulls.append(2.0 * m[k] * m[i] * u * sin(d))
    return tuple(pulls)


def _meridian_defect(thetas, omega_squared, masses, pot) -> float:
    """Largest relative defect of the rigid-rotation balance of three
    bodies on the meridian phi = 0 (nan if any defect is nan).

    Per body k, the theta row -w^2 m_k sin t_k cos t_k minus its pulls
    (meridian_pulls) against the sum of the magnitudes of its terms;
    when w^2 > 0, also the planar angular momentum
    |sum m_k sin t_k cos t_k| against m1 + m2 + m3.
    """
    m = masses.as_tuple()
    p12, p23, p31 = meridian_pulls(thetas, masses, pot)
    pulls = ((p12, -p31), (-p12, p23), (-p23, p31))
    spins = [mk * sin(t) * cos(t) for mk, t in zip(m, thetas)]
    defects = []
    for spin, (p, q) in zip(spins, pulls):
        spin *= -omega_squared
        scale = abs(spin) + abs(p) + abs(q)
        if scale != 0.0:
            defects.append(abs(spin - p - q) / scale)
    if omega_squared > 0.0:
        defects.append(abs(sum(spins)) / (m[0] + m[1] + m[2]))
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
