"""Verification dynamics: the raw equations of motion, angular momentum
and kinetic energy, a fixed-step RK4 integrator, and the residuals of
the rotating-equilibrium conditions. None of it solves: verify imports
this module where it runs (angular momentum, and integrate under
--integrate), and configuration_residuals is the tests' oracle. A
meridian or sweep process never loads it.

Independence from the solver lives here: configuration_residuals is a
per-pair loop on the untranslated equations that shares only the pair
order and label (potential.PAIRS, pair_value) with dynamics.meridian_pulls,
the one definition of the meridian force balance. The equations of
motion have one definition, written out in each of the four stages of
integrate's RK4 step on twelve local floats. They split into the terms
of the position alone (_position_terms: every sine, cosine, U' and
force sum) and the velocity terms; each integrate call keeps the last
position's terms and reuses them while the colatitudes and longitude
differences stay equal, as they do, often exactly, along a rigid
rotation.

Every function that takes a potential reads the sphere's radius from it
(pot.radius). A SphericalState holds angles and rates only, so the
kinematics that take no potential, kinetic_energy and angular_momentum,
take the radius as an argument.
"""

from __future__ import annotations

import math
from math import cos, sin
from typing import NamedTuple, Sequence

from .dynamics import MassTriple
from .geometry import SpherePoint, SphereRadius, chord_squared
from .potential import PAIRS, PairPotential, SingularityError, pair_value, total_potential


class SphericalState(NamedTuple):
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


class AngularMomentum(NamedTuple):
    cx: float
    cy: float
    cz: float


def angular_momentum(state: SphericalState, masses: MassTriple,
                     R: SphereRadius) -> AngularMomentum:
    """Angular momentum components in spherical coordinates, on the
    sphere of radius R."""
    R2 = R.R ** 2
    cx = cy = cz = 0.0
    for m, p, td, pd in zip(masses, state.points, state.theta_dot, state.phi_dot):
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
    for m, p, td, pd in zip(masses, state.points, state.theta_dot, state.phi_dot):
        st = math.sin(p.theta)
        k += 0.5 * m * (td * td + st * st * pd * pd)
    return R2 * k


def _position_terms(t1, t2, t3, d12, d23, d31, w1, w2, w3, u_prime, two_r2):
    """The twelve terms of the accelerations that depend on the position
    alone, (sc1, sc2, sc3, gt1, gt2, gt3, q1, q2, q3, r1, r2, r3): per
    body sc = sin cos of its colatitude, gt its theta force sum,
    q = gp / sin^2 its phi force term and r = 2 cos / sin; d_ik is
    phi_i - phi_k. w_k = 2 m_k and two_r2 = 2 R^2.

    One sine and cosine per colatitude and per longitude difference, one
    U' per pair, shared by both bodies of the pair. cos and sin of
    phi_i - phi_k are even and odd, so each pair's values serve both
    orders.

    Raises SingularityError labelled with the pair, ZeroDivisionError
    for a body on a pole, and ValueError for an infinite angle.
    """
    s1, s2, s3 = sin(t1), sin(t2), sin(t3)
    c1, c2, c3 = cos(t1), cos(t2), cos(t3)
    # U' of each pair at its squared chord 2 R^2 (1 - cos sigma), with
    # cos sigma clamped to [-1, 1] as max(-1, min(1, .)) does
    pair = (1, 2)
    try:
        cos12 = cos(d12)
        cs = c1 * c2 + s1 * s2 * cos12
        cs = cs if cs < 1.0 else 1.0
        u12 = u_prime(two_r2 * (1.0 - (cs if cs > -1.0 else -1.0)))
        pair = (2, 3)
        cos23 = cos(d23)
        cs = c2 * c3 + s2 * s3 * cos23
        cs = cs if cs < 1.0 else 1.0
        u23 = u_prime(two_r2 * (1.0 - (cs if cs > -1.0 else -1.0)))
        pair = (3, 1)
        cos31 = cos(d31)
        cs = c3 * c1 + s3 * s1 * cos31
        cs = cs if cs < 1.0 else 1.0
        u31 = u_prime(two_r2 * (1.0 - (cs if cs > -1.0 else -1.0)))
    except SingularityError as err:
        raise SingularityError(err.kind, err.d2, pair) from None
    sin12, sin23, sin31 = sin(d12), sin(d23), sin(d31)
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
    # the phi equations divide by sin(theta_k): ZeroDivisionError on a
    # pole, raised before the caller can store anything
    q1, r1 = gp1 / (s1 * s1), 2.0 * (c1 / s1)
    q2, r2 = gp2 / (s2 * s2), 2.0 * (c2 / s2)
    q3, r3 = gp3 / (s3 * s3), 2.0 * (c3 / s3)
    return s1 * c1, s2 * c2, s3 * c3, gt1, gt2, gt3, q1, q2, q3, r1, r2, r3


Triple = tuple[float, float, float]


class Trajectory(NamedTuple):
    """The stored states of a run: one time and one triple of each
    quantity per stored step."""

    times: tuple[float, ...]
    thetas: tuple[Triple, ...]
    phis: tuple[Triple, ...]
    theta_dots: tuple[Triple, ...]
    phi_dots: tuple[Triple, ...]
    energy_drift: float
    c_drift: float
    error: str | None = None

    def state_at(self, idx: int) -> SphericalState:
        pts = tuple(SpherePoint(t, p) for t, p in zip(self.thetas[idx], self.phis[idx]))
        return SphericalState(pts, self.theta_dots[idx], self.phi_dots[idx])


def integrate(
    state: SphericalState,
    masses: MassTriple,
    pot: PairPotential,
    t_end: float,
    dt: float,
    store_every: int = 1,
) -> Trajectory:
    """Classical fixed-step RK4 over the raw equations of motion.

    The step works on twelve local floats, and its four stages are
    written out: each computes its position key (t1, t2, t3, p1 - p2,
    p2 - p3, p3 - p1), calls _position_terms (sines, cosines, U' and the
    force sums) only where the key differs from the last one computed,
    and then the centrifugal and Coriolis terms, sc pd pd + gt and
    q - r td pd. A rigid rotation, seen from the frame that turns with
    it, holds the key still, so one evaluation can serve every stage.

    The floating-point operations are those of the per-pair loop that
    tests/test_dynamics.py keeps as the reference, in the same order, so
    results agree with it bit for bit, reused terms included. Keys are
    compared with !=, which differs from bit equality in two ways:
    - -0.0 == 0.0. A zero colatitude is a pole, which raises before
      anything is stored. A zero longitude difference enters through cos,
      which is even, and through sin(d) = +-0.0 as a product term of a gp
      sum that starts from 0.0: the partial sum is never -0.0, so adding
      or subtracting a zero of either sign leaves it as it is, and a
      non-finite factor makes the product NaN either way.
    - NaN != NaN, so a key holding NaN is always computed afresh (the
      key starts as NaN, so the first stage computes).

    Every (store_every)-th state and the last one are kept.
    Reports the drifts of the energy E = K - V and of the angular
    momentum vector c from the first state to the last,
    |E1 - E0| / max(|E0|, 1) and |c1 - c0| / max(|c0|, 1): relative, but
    absolute where the starting value is below 1. On a singularity the
    partial trajectory is returned with the error recorded; nothing else
    is an error. The step is fixed, so a run through a close encounter
    can end with error None and a large energy_drift: the caller judges
    the drifts (verify gates on the arc-angle drift alone). The sphere's
    radius is pot.radius.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")
    m1, m2, m3 = masses
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
    # the key of the last position terms computed
    k1 = k2 = k3 = k4 = k5 = k6 = math.nan

    times = [0.0]
    rows = [(t1, t2, t3, p1, p2, p3, td1, td2, td3, pd1, pd2, pd3)]
    error = None
    for step in range(n_steps):
        # stage j evaluates the accelerations (tdd*j, pdd*j) at the
        # velocities td*j, pd*j and a position: the current state's for
        # stage a, (th*, ph*) for stages b to d
        try:
            d12, d23, d31 = p1 - p2, p2 - p3, p3 - p1
            if (t1 != k1 or t2 != k2 or t3 != k3
                    or d12 != k4 or d23 != k5 or d31 != k6):
                sc1, sc2, sc3, gt1, gt2, gt3, q1, q2, q3, r1, r2, r3 = _position_terms(
                    t1, t2, t3, d12, d23, d31, w1, w2, w3, up, two_r2)
                k1, k2, k3, k4, k5, k6 = t1, t2, t3, d12, d23, d31
            tdd1a, pdd1a = sc1 * pd1 * pd1 + gt1, q1 - r1 * td1 * pd1
            tdd2a, pdd2a = sc2 * pd2 * pd2 + gt2, q2 - r2 * td2 * pd2
            tdd3a, pdd3a = sc3 * pd3 * pd3 + gt3, q3 - r3 * td3 * pd3

            td1b, td2b, td3b = td1 + hh * tdd1a, td2 + hh * tdd2a, td3 + hh * tdd3a
            pd1b, pd2b, pd3b = pd1 + hh * pdd1a, pd2 + hh * pdd2a, pd3 + hh * pdd3a
            th1, th2, th3 = t1 + hh * td1, t2 + hh * td2, t3 + hh * td3
            ph1, ph2, ph3 = p1 + hh * pd1, p2 + hh * pd2, p3 + hh * pd3
            d12, d23, d31 = ph1 - ph2, ph2 - ph3, ph3 - ph1
            if (th1 != k1 or th2 != k2 or th3 != k3
                    or d12 != k4 or d23 != k5 or d31 != k6):
                sc1, sc2, sc3, gt1, gt2, gt3, q1, q2, q3, r1, r2, r3 = _position_terms(
                    th1, th2, th3, d12, d23, d31, w1, w2, w3, up, two_r2)
                k1, k2, k3, k4, k5, k6 = th1, th2, th3, d12, d23, d31
            tdd1b, pdd1b = sc1 * pd1b * pd1b + gt1, q1 - r1 * td1b * pd1b
            tdd2b, pdd2b = sc2 * pd2b * pd2b + gt2, q2 - r2 * td2b * pd2b
            tdd3b, pdd3b = sc3 * pd3b * pd3b + gt3, q3 - r3 * td3b * pd3b

            td1c, td2c, td3c = td1 + hh * tdd1b, td2 + hh * tdd2b, td3 + hh * tdd3b
            pd1c, pd2c, pd3c = pd1 + hh * pdd1b, pd2 + hh * pdd2b, pd3 + hh * pdd3b
            th1, th2, th3 = t1 + hh * td1b, t2 + hh * td2b, t3 + hh * td3b
            ph1, ph2, ph3 = p1 + hh * pd1b, p2 + hh * pd2b, p3 + hh * pd3b
            d12, d23, d31 = ph1 - ph2, ph2 - ph3, ph3 - ph1
            if (th1 != k1 or th2 != k2 or th3 != k3
                    or d12 != k4 or d23 != k5 or d31 != k6):
                sc1, sc2, sc3, gt1, gt2, gt3, q1, q2, q3, r1, r2, r3 = _position_terms(
                    th1, th2, th3, d12, d23, d31, w1, w2, w3, up, two_r2)
                k1, k2, k3, k4, k5, k6 = th1, th2, th3, d12, d23, d31
            tdd1c, pdd1c = sc1 * pd1c * pd1c + gt1, q1 - r1 * td1c * pd1c
            tdd2c, pdd2c = sc2 * pd2c * pd2c + gt2, q2 - r2 * td2c * pd2c
            tdd3c, pdd3c = sc3 * pd3c * pd3c + gt3, q3 - r3 * td3c * pd3c

            td1d, td2d, td3d = td1 + h * tdd1c, td2 + h * tdd2c, td3 + h * tdd3c
            pd1d, pd2d, pd3d = pd1 + h * pdd1c, pd2 + h * pdd2c, pd3 + h * pdd3c
            th1, th2, th3 = t1 + h * td1c, t2 + h * td2c, t3 + h * td3c
            ph1, ph2, ph3 = p1 + h * pd1c, p2 + h * pd2c, p3 + h * pd3c
            d12, d23, d31 = ph1 - ph2, ph2 - ph3, ph3 - ph1
            if (th1 != k1 or th2 != k2 or th3 != k3
                    or d12 != k4 or d23 != k5 or d31 != k6):
                sc1, sc2, sc3, gt1, gt2, gt3, q1, q2, q3, r1, r2, r3 = _position_terms(
                    th1, th2, th3, d12, d23, d31, w1, w2, w3, up, two_r2)
                k1, k2, k3, k4, k5, k6 = th1, th2, th3, d12, d23, d31
            tdd1d, pdd1d = sc1 * pd1d * pd1d + gt1, q1 - r1 * td1d * pd1d
            tdd2d, pdd2d = sc2 * pd2d * pd2d + gt2, q2 - r2 * td2d * pd2d
            tdd3d, pdd3d = sc3 * pd3d * pd3d + gt3, q3 - r3 * td3d * pd3d
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

    traj = Trajectory(
        times=tuple(times),
        thetas=tuple(r[0:3] for r in rows),
        phis=tuple(r[3:6] for r in rows),
        theta_dots=tuple(r[6:9] for r in rows),
        phi_dots=tuple(r[9:12] for r in rows),
        # the drifts where the terminal state is unusable (blow-up)
        energy_drift=math.inf,
        c_drift=math.inf,
        error=error,
    )
    try:
        e0, c0 = _invariants(traj, 0, masses, pot)
        e1, c1 = _invariants(traj, len(times) - 1, masses, pot)
        escale = max(abs(e0), 1.0)
        energy_drift = abs(e1 - e0) / escale
        cscale = max(math.hypot(*c0), 1.0)
        c_drift = math.hypot(*[v1 - v0 for v1, v0 in zip(c1, c0)]) / cscale
    except (SingularityError, ValueError, OverflowError):
        return traj  # the drifts are undefined
    return traj._replace(energy_drift=energy_drift, c_drift=c_drift)


def _invariants(traj: Trajectory, idx: int, masses, pot):
    st = traj.state_at(idx)
    e = kinetic_energy(st, masses, pot.radius) - total_potential(
        st.points, masses, pot)
    c = angular_momentum(st, masses, pot.radius)
    return e, c


def configuration_residuals(
    thetas: Sequence[float],
    phis: Sequence[float],
    omega: float,
    masses: MassTriple,
    pot: PairPotential,
) -> tuple[float, ...]:
    """Left-minus-right values of the raw rotating-equilibrium conditions.

    Components: the two planar angular-momentum sums (only when
    omega != 0), the two independent differences of the phi equations,
    and the three theta equations. A per-pair loop over U' at each
    pair's chord (geometry.chord_squared), apart from the integrator's
    kernel and the meridian force balance, so the tests can hold both
    against it.
    """
    st = [sin(t) for t in thetas]
    ct = [cos(t) for t in thetas]
    points = [SpherePoint(t, p) for t, p in zip(thetas, phis)]
    up = {}
    for i, j in PAIRS:
        up[i, j] = up[j, i] = pair_value(
            pot.u_prime, chord_squared(points[i], points[j], pot.radius), i, j)

    res = []
    if omega != 0.0:
        res.append(sum(masses[k] * st[k] * ct[k] * cos(phis[k]) for k in range(3)))
        res.append(sum(masses[k] * st[k] * ct[k] * sin(phis[k]) for k in range(3)))

    r = [masses[i] * masses[j] * up[i, j] * st[i] * st[j] * sin(phis[i] - phis[j])
         for i, j in PAIRS]
    res.append(r[0] - r[1])
    res.append(r[1] - r[2])

    # theta_k: -omega^2 m_k sin cos = sum over i != k of
    # 2 m_k m_i U'_ki (sin t_k cos t_i - cos t_k sin t_i cos(phi_k - phi_i))
    for k in range(3):
        rhs = 0.0
        for i in range(3):
            if i != k:
                rhs += 2.0 * masses[k] * masses[i] * up[k, i] * (
                    st[k] * ct[i] - ct[k] * st[i] * cos(phis[k] - phis[i]))
        res.append(-(omega ** 2) * masses[k] * st[k] * ct[k] - rhs)
    return tuple(res)
