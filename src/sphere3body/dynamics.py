"""Ground-truth layer: raw equations of motion, angular momentum,
residuals of the rotating-equilibrium conditions, and a fixed-step RK4
integrator used only for independent verification.

The residuals are evaluated on the untranslated equations, so the
solvers and this verifier share no algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import SpherePoint, SphereRadius, chord_squared
from .potential import PairPotential, SingularityError, total_potential

_PAIRS = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class MassTriple:
    """Three positive masses with the derived ratios nu1, nu2 and mu_k."""

    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        if min(self.m1, self.m2, self.m3) <= 0:
            raise ValueError(f"masses must be positive: {self.as_tuple()}")

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
    """Positions and angular velocities of the three bodies."""

    points: tuple[SpherePoint, SpherePoint, SpherePoint]
    theta_dot: tuple[float, float, float]
    phi_dot: tuple[float, float, float]
    R: SphereRadius = field(default_factory=SphereRadius)

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


def angular_momentum(state: SphericalState, masses: MassTriple) -> AngularMomentum:
    """Angular momentum components in spherical coordinates."""
    R2 = state.R.R ** 2
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


def kinetic_energy(state: SphericalState, masses: MassTriple) -> float:
    R2 = state.R.R ** 2
    k = 0.0
    for m, p, td, pd in zip(
        masses.as_tuple(), state.points, state.theta_dot, state.phi_dot
    ):
        st = math.sin(p.theta)
        k += 0.5 * m * (td * td + st * st * pd * pd)
    return R2 * k


def _rhs(y, m, u_prime, R):
    """Time derivative of the flat state
    y = (t1, t2, t3, p1, p2, p3, td1, td2, td3, pd1, pd2, pd3).

    Written with plain floats; this is the integrator's hot loop.
    """
    t1, t2, t3, p1, p2, p3, td1, td2, td3, pd1, pd2, pd3 = y
    th = (t1, t2, t3)
    ph = (p1, p2, p3)
    st = (math.sin(t1), math.sin(t2), math.sin(t3))
    ct = (math.cos(t1), math.cos(t2), math.cos(t3))
    R2 = R.R * R.R
    # pairwise squared chords and U'
    up = {}
    for i, j in _PAIRS:
        cs = ct[i] * ct[j] + st[i] * st[j] * math.cos(ph[i] - ph[j])
        cs = max(-1.0, min(1.0, cs))
        d2 = 2.0 * R2 * (1.0 - cs)
        try:
            val = u_prime(d2)
        except SingularityError as err:
            raise SingularityError(err.kind, err.d2, (i + 1, j + 1)) from None
        up[(i, j)] = up[(j, i)] = val
    tdd = []
    pdd = []
    tds = (td1, td2, td3)
    pds = (pd1, pd2, pd3)
    for k in range(3):
        grav_t = 0.0
        grav_p = 0.0
        for i in range(3):
            if i == k:
                continue
            grav_t += (
                2.0
                * m[i]
                * up[(k, i)]
                * (st[k] * ct[i] - ct[k] * st[i] * math.cos(ph[i] - ph[k]))
            )
            grav_p += (
                2.0
                * m[i]
                * up[(k, i)]
                * st[i]
                * st[k]
                * math.sin(ph[k] - ph[i])
            )
        tdd.append(st[k] * ct[k] * pds[k] * pds[k] + grav_t)
        s2 = st[k] * st[k]
        pdd.append(grav_p / s2 - 2.0 * (ct[k] / st[k]) * tds[k] * pds[k])
    return (
        td1, td2, td3, pd1, pd2, pd3,
        tdd[0], tdd[1], tdd[2], pdd[0], pdd[1], pdd[2],
    )


def eom_rhs(state: SphericalState, masses: MassTriple, pot: PairPotential):
    """Second derivatives of (theta_k, phi_k) from the Euler-Lagrange
    equations. Returns (theta_ddot, phi_ddot) as tuples."""
    y = state.thetas + state.phis + state.theta_dot + state.phi_dot
    d = _rhs(y, masses.as_tuple(), pot.u_prime, state.R)
    return d[6:9], d[9:12]


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

    def state_at(self, idx: int, R: SphereRadius) -> SphericalState:
        pts = tuple(
            SpherePoint(self.thetas[idx, k], self.phis[idx, k]) for k in range(3)
        )
        return SphericalState(
            pts, tuple(self.theta_dots[idx]), tuple(self.phi_dots[idx]), R
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

    Reports the relative drift of the energy K - V and of the angular
    momentum vector over the run. On a singularity the partial
    trajectory is returned with the error recorded.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    m = masses.as_tuple()
    up = pot.u_prime
    R = state.R
    y = state.thetas + state.phis + state.theta_dot + state.phi_dot
    n_steps = max(1, int(round(t_end / dt)))
    h = t_end / n_steps

    times = [0.0]
    rows = [y]
    error = None
    for step in range(n_steps):
        try:
            k1 = _rhs(y, m, up, R)
            y2 = tuple(a + 0.5 * h * b for a, b in zip(y, k1))
            k2 = _rhs(y2, m, up, R)
            y3 = tuple(a + 0.5 * h * b for a, b in zip(y, k2))
            k3 = _rhs(y3, m, up, R)
            y4 = tuple(a + h * b for a, b in zip(y, k3))
            k4 = _rhs(y4, m, up, R)
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
        y = tuple(
            a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        )
        if (step + 1) % store_every == 0 or step == n_steps - 1:
            times.append((step + 1) * h)
            rows.append(y)

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
        e0, c0 = _invariants(traj, 0, masses, pot, R)
        e1, c1 = _invariants(traj, len(times) - 1, masses, pot, R)
        escale = max(abs(e0), 1.0)
        cscale = max(float(np.linalg.norm(c0)), 1.0)
        traj.energy_drift = abs(e1 - e0) / escale
        traj.c_drift = float(np.linalg.norm(c1 - c0)) / cscale
    except (SingularityError, ValueError, OverflowError):
        # terminal state unusable (blow-up); drift is undefined
        traj.energy_drift = math.inf
        traj.c_drift = math.inf
    return traj


def _invariants(traj: Trajectory, idx: int, masses, pot, R):
    st = traj.state_at(idx, R)
    e = kinetic_energy(st, masses) - total_potential(st.points, masses.as_tuple(), pot, R)
    c = angular_momentum(st, masses).as_array()
    return e, c


def configuration_residuals(
    thetas: Sequence[float],
    phis: Sequence[float],
    omega: float,
    masses: MassTriple,
    pot: PairPotential,
    R: SphereRadius = SphereRadius(),
) -> np.ndarray:
    """Left-minus-right values of the raw rotating-equilibrium conditions.

    Components: the two planar angular-momentum sums (only when
    omega != 0), the two independent differences of the phi equations,
    and the three theta equations.
    """
    m = masses.as_tuple()
    st = [math.sin(t) for t in thetas]
    ct = [math.cos(t) for t in thetas]
    up = {}
    for i, j in _PAIRS:
        pi = SpherePoint(thetas[i], phis[i])
        pj = SpherePoint(thetas[j], phis[j])
        d2 = chord_squared(pi, pj, R)
        try:
            val = pot.u_prime(d2)
        except SingularityError as err:
            raise SingularityError(err.kind, err.d2, (i + 1, j + 1)) from None
        up[(i, j)] = up[(j, i)] = val

    res: list[float] = []
    if omega != 0.0:
        res.append(sum(m[k] * st[k] * ct[k] * math.cos(phis[k]) for k in range(3)))
        res.append(sum(m[k] * st[k] * ct[k] * math.sin(phis[k]) for k in range(3)))

    r = [
        m[i] * m[j] * up[(i, j)] * st[i] * st[j] * math.sin(phis[i] - phis[j])
        for i, j in _PAIRS
    ]
    res.append(r[0] - r[1])
    res.append(r[1] - r[2])

    for k in range(3):
        lhs = -(omega ** 2) * m[k] * st[k] * ct[k]
        rhs = 0.0
        for i in range(3):
            if i == k:
                continue
            rhs += (
                2.0
                * m[k]
                * m[i]
                * up[(k, i)]
                * (st[k] * ct[i] - ct[k] * st[i] * math.cos(phis[k] - phis[i]))
            )
        res.append(lhs - rhs)
    return np.array(res)


def re_residuals(
    candidate,
    masses: MassTriple,
    pot: PairPotential,
    R: SphereRadius = SphereRadius(),
    omega: float | None = None,
) -> np.ndarray:
    """Residual vector for a solver-emitted candidate.

    Accepts anything exposing residual_inputs() -> (thetas, phis, omega);
    both the equator and the meridian solution types do. An explicit
    omega overrides the candidate's own (the equator solutions hold for
    every omega).
    """
    thetas, phis, cand_omega = candidate.residual_inputs()
    w = cand_omega if omega is None else omega
    return configuration_residuals(thetas, phis, w, masses, pot, R)
