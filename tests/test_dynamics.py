import math
import random

import numpy as np
import pytest

from sphere3body import meridian as mer
from sphere3body.dynamics import MassTriple
from sphere3body.equator import solve_equator
from sphere3body.geometry import SpherePoint, SphereRadius
from sphere3body.integrator import (
    SphericalState,
    _position_terms,
    angular_momentum,
    configuration_residuals,
    integrate,
)
from sphere3body.potential import (
    PairPotential,
    SingularityError,
    cotangent_potential,
    repulsive,
)
from oracles import cotangent_energy, kinetic_energy
from test_potential import cotangent_u_prime_reference

R1 = SphereRadius(1.0)
POT = cotangent_potential(R1)
EQUATOR_THETAS = (math.pi / 2,) * 3


def equator_state(masses, omega):
    sol = solve_equator(masses)
    return SphericalState(
        points=tuple(SpherePoint(t, p) for t, p in zip(EQUATOR_THETAS, sol.phis())),
        theta_dot=(0.0, 0.0, 0.0),
        phi_dot=(omega, omega, omega),
    )


class TestMassTriple:
    def test_ratios(self):
        m = MassTriple(3.0, 2.0, 0.5)
        assert m.nu1 == 6.0
        assert m.nu2 == 4.0

    def test_mu_cyclic(self):
        m = MassTriple(4.0, 9.0, 1.0)
        # mu_k = sqrt(m_i m_j) with (i, j, k) cyclic
        assert m.mu == (3.0, 2.0, 6.0)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            MassTriple(*bad)

    @pytest.mark.parametrize("bad", [
        (math.nan, 15.5, 0.0),  # min() passes nan over the zero
        (1.0, math.inf, 1.0),
        (1e300, 1.0, 1.0),  # m1 * m1 overflows in the lift
        (12.0, 5e-324, 12.0),  # nu2 underflows to 0
        (1e110, 1.0, 1.0),  # nu1 ** 3 overflows
    ])
    def test_rejects_non_finite_and_extreme(self, bad):
        with pytest.raises(ValueError):
            MassTriple(*bad)


class TestAngularMomentum:
    def test_equator_equal_masses(self):
        m = MassTriple(1.0, 1.0, 1.0)
        st = equator_state(m, 2.0)
        c = angular_momentum(st, m, R1)
        assert c.cx == pytest.approx(0.0, abs=1e-14)
        assert c.cy == pytest.approx(0.0, abs=1e-14)
        # c_z = sum m_k R^2 sin^2(theta_k) * omega = 3 * 2
        assert c.cz == pytest.approx(6.0, rel=1e-14)

    def test_scales_with_radius_squared(self):
        m = MassTriple(1.0, 2.0, 3.0)
        st = equator_state(m, 1.0)
        c1 = angular_momentum(st, m, R1)
        c2 = angular_momentum(st, m, SphereRadius(2.0))
        assert c2.cz == pytest.approx(4.0 * c1.cz, rel=1e-13)


def test_kinetic_energy_manual():
    # the energy oracle's K, which carries the factor R^2
    m = MassTriple(2.0, 1.0, 1.0)
    pts = (SpherePoint(0.5, 0.1), SpherePoint(1.0, 2.0), SpherePoint(2.0, -1.0))
    st = SphericalState(pts, (0.3, -0.2, 0.1), (1.0, 0.5, -0.4))
    expect = 0.0
    for mk, p, td, pd in zip(m, pts, st.theta_dot, st.phi_dot):
        expect += 0.5 * mk * 4.0 * (td * td + math.sin(p.theta) ** 2 * pd * pd)
    assert kinetic_energy(st, m, SphereRadius(2.0)) == pytest.approx(expect, rel=1e-14)


class TestResiduals:
    def test_equator_solution_is_equilibrium(self):
        m = MassTriple(1.0, 2.0, 1.5)
        sol = solve_equator(m)
        for omega in (0.0, 1.0, 2.0):
            res = configuration_residuals(EQUATOR_THETAS, sol.phis(), omega,
                                          m, POT)
            assert np.max(np.abs(res)) < 1e-12

    def test_perturbation_sensitivity(self):
        m = MassTriple(1.0, 2.0, 1.5)
        sol = solve_equator(m)
        thetas, phis, omega = EQUATOR_THETAS, sol.phis(), 1.0
        phis = (phis[0], phis[1], phis[2] + 1e-3)
        res = configuration_residuals(thetas, phis, omega, m, POT)
        assert np.max(np.abs(res)) >= 1e-4

    def test_omega_zero_drops_momentum_rows(self):
        m = MassTriple(1.0, 1.0, 1.0)
        sol = solve_equator(m)
        thetas, phis = EQUATOR_THETAS, sol.phis()
        assert len(configuration_residuals(thetas, phis, 0.0, m, POT)) == 5
        assert len(configuration_residuals(thetas, phis, 1.0, m, POT)) == 7


class TestEomRhs:
    def test_equator_re_has_zero_acceleration(self):
        m = MassTriple(1.0, 2.0, 1.5)
        sol = solve_equator(m)
        # on the equator the theta equation reads 0 = omega^2*0 + forces,
        # so a rotating frame RE means theta_ddot = 0 and phi_ddot = 0
        omega = 1.3
        st = SphericalState(
            tuple(SpherePoint(t, p) for t, p in zip(EQUATOR_THETAS, sol.phis())),
            (0.0, 0.0, 0.0), (omega, omega, omega),
        )
        # one step with t_end = dt = 1 adds a sixth to a third of each
        # stage's accelerations to the rates it stores
        traj, error = _integrate_both(st, m, 1.0, 1.0, 1)
        assert traj.error is error is None
        assert max(abs(v) for v in traj.theta_dots[-1]) < 1e-12
        assert max(abs(v - omega) for v in traj.phi_dots[-1]) < 1e-12


def _energy_drift(traj, m, R):
    """|E1 - E0| / max(|E0|, 1) of the oracle energy K - V between the
    first and the last stored state."""
    e0 = cotangent_energy(traj.state_at(0), m, R)
    e1 = cotangent_energy(traj.state_at(-1), m, R)
    return abs(e1 - e0) / max(abs(e0), 1.0)


class TestIntegrate:
    def test_conserves_invariants(self):
        # an equatorial RE over one period, and a state that moves: at the
        # RE every stage's accelerations nearly vanish, so only the moving
        # state sees a wrong RK4 stage weight
        m = MassTriple(1.0, 2.0, 1.5)
        moving = SphericalState(
            (SpherePoint(0.9, 0.0), SpherePoint(1.8, 2.0), SpherePoint(1.2, 4.0)),
            (0.05, -0.02, 0.0), (0.3, 0.3, 0.3),
        )
        for st, t_end, dt in [(equator_state(m, 1.0), 2.0 * math.pi,
                               2.0 * math.pi / 4000),
                              (moving, 1.0, 1.0 / 4000)]:
            traj = integrate(st, m, POT, t_end, dt)
            assert traj.error is None
            assert _energy_drift(traj, m, R1) < 1e-10
            assert traj.c_drift < 1e-10

    @pytest.mark.parametrize("R", [2.0, 4.0])
    def test_conserves_energy_off_the_unit_sphere(self, R):
        # no RE, so K and V trade: K - V holds only where both are taken
        # on the potential's sphere
        m = MassTriple(1.0, 2.0, 1.5)
        st = SphericalState(
            (SpherePoint(0.9, 0.0), SpherePoint(1.8, 2.0), SpherePoint(1.2, 4.0)),
            (0.05, -0.02, 0.0), (0.3, 0.3, 0.3),
        )
        radius = SphereRadius(R)
        traj = integrate(st, m, cotangent_potential(radius), 1.0, 1.0 / 2000)
        assert traj.error is None
        assert _energy_drift(traj, m, radius) < 1e-12
        assert traj.c_drift < 1e-12

    def test_angular_momentum_drift_is_taken_on_the_potentials_sphere(self):
        # at R = 0.5 with |c0| < 1 the drift's scale max(|c0|, 1) is 1, so
        # the factor R^2 of c does not cancel: c taken on any other sphere
        # changes c_drift
        R = SphereRadius(0.5)
        m = MassTriple(1.0, 2.0, 1.5)
        st = SphericalState(
            (SpherePoint(0.9, 0.0), SpherePoint(1.8, 2.0), SpherePoint(1.2, 4.0)),
            (0.05, -0.02, 0.0), (0.3, 0.3, 0.3),
        )
        traj = integrate(st, m, cotangent_potential(R), 0.3, 0.3 / 50)
        assert traj.error is None
        c0, c1 = (np.array(angular_momentum(traj.state_at(i), m, R))
                  for i in (0, -1))
        assert np.linalg.norm(c0) < 1.0
        assert traj.c_drift > 1e-8
        assert traj.c_drift == pytest.approx(float(np.linalg.norm(c1 - c0)),
                                             rel=1e-12, abs=0.0)

    def test_rk4_convergence_order(self):
        m = MassTriple(1.0, 2.0, 1.5)
        st = SphericalState(
            (SpherePoint(0.9, 0.0), SpherePoint(1.8, 2.0), SpherePoint(1.2, 4.0)),
            (0.05, -0.02, 0.0), (0.3, 0.3, 0.3),
        )
        end = []
        for n in (400, 800):
            traj = integrate(st, m, POT, 1.0, 1.0 / n)
            end.append(np.concatenate([traj.thetas[-1], traj.phis[-1]]))
        ref = integrate(st, m, POT, 1.0, 1.0 / 6400)
        ref = np.concatenate([ref.thetas[-1], ref.phis[-1]])
        e1 = np.max(np.abs(end[0] - ref))
        e2 = np.max(np.abs(end[1] - ref))
        order = math.log2(e1 / e2)
        assert 3.5 < order < 4.5

    def test_collision_reports_partial_trajectory(self):
        m = MassTriple(1.0, 1.0, 1.0)
        st = SphericalState(
            (SpherePoint(1.0, 0.0), SpherePoint(1.0, 0.05), SpherePoint(2.5, 3.0)),
            (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
        )
        traj = integrate(st, m, POT, 50.0, 0.01)
        assert traj.error is not None
        assert len(traj.times) >= 1

    def test_body_on_pole_reports_error(self):
        m = MassTriple(6.0, 6.0, 1.0)
        st = SphericalState(
            (SpherePoint(-math.pi / 4, 0.0), SpherePoint(math.pi / 4, 0.0),
             SpherePoint(0.0, 0.0)),
            (0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
        )
        traj = integrate(st, m, POT, 1.0, 0.01)
        assert "pole" in traj.error
        assert len(traj.times) == 1

    def test_collision_at_the_start_names_the_pair(self):
        # bodies 1 and 2 on the equator at one longitude: cos(sigma) = 1
        # exactly, so D^2 = 0 before the first step
        m = MassTriple(1.0, 2.0, 1.5)
        st = SphericalState(
            (SpherePoint(math.pi / 2, 0.4), SpherePoint(math.pi / 2, 0.4),
             SpherePoint(1.0, 2.0)),
            (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
        )
        traj = integrate(st, m, POT, 1.0, 0.01)
        assert traj.error == "collision singularity at D^2=0.0 for pair (1, 2)"
        assert len(traj.times) == 1

    def test_rejects_bad_dt(self):
        m = MassTriple(1.0, 1.0, 1.0)
        st = equator_state(m, 1.0)
        with pytest.raises(ValueError):
            integrate(st, m, POT, 1.0, 0.0)

    @pytest.mark.parametrize("store_every", [0, -1])
    def test_rejects_bad_store_every(self, store_every):
        m = MassTriple(1.0, 1.0, 1.0)
        st = equator_state(m, 1.0)
        with pytest.raises(ValueError, match="store_every"):
            integrate(st, m, POT, 1.0, 0.01, store_every=store_every)


# ------------------------------------------------------------------
# Differential tests: the integrator's RK4 stages (with the position
# terms they reuse from stage to stage) against a literal transcription
# of the loop-and-dict right-hand side and the tuple RK4 loop they
# replaced. Every floating-point operation is kept in order, so results
# must agree bit for bit, errors included.

_PAIRS = ((0, 1), (1, 2), (2, 0))


def _reference_forces(th, ph, m, u_prime, R):
    """rhs_reference's position half: (sin, cos, theta force sums, phi
    force sums), one triple each."""
    st = tuple(math.sin(t) for t in th)
    ct = tuple(math.cos(t) for t in th)
    R2 = R.R * R.R
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
    gts = []
    gps = []
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
        gts.append(grav_t)
        gps.append(grav_p)
    return st, ct, gts, gps


def reference_position_terms(th, ph, m, u_prime, R):
    """The twelve terms integrator._position_terms returns, each taken
    from rhs_reference's expressions: sin cos, the theta force sum,
    grav_p / sin^2 and 2 cos / sin per body."""
    st, ct, gts, gps = _reference_forces(th, ph, m, u_prime, R)
    return (
        tuple(st[k] * ct[k] for k in range(3)) + tuple(gts)
        + tuple(gps[k] / (st[k] * st[k]) for k in range(3))
        + tuple(2.0 * (ct[k] / st[k]) for k in range(3))
    )


def rhs_reference(y, m, u_prime, R):
    t1, t2, t3, p1, p2, p3, td1, td2, td3, pd1, pd2, pd3 = y
    st, ct, gts, gps = _reference_forces(
        (t1, t2, t3), (p1, p2, p3), m, u_prime, R)
    tdd = []
    pdd = []
    tds = (td1, td2, td3)
    pds = (pd1, pd2, pd3)
    for k in range(3):
        tdd.append(st[k] * ct[k] * pds[k] * pds[k] + gts[k])
        s2 = st[k] * st[k]
        pdd.append(gps[k] / s2 - 2.0 * (ct[k] / st[k]) * tds[k] * pds[k])
    return (
        td1, td2, td3, pd1, pd2, pd3,
        tdd[0], tdd[1], tdd[2], pdd[0], pdd[1], pdd[2],
    )


def rk4_reference(state, masses, u_prime, R, t_end, dt, store_every):
    """(times, rows, error) of the tuple RK4 loop on the sphere of radius
    R."""
    m = masses
    y = state.thetas + state.phis + state.theta_dot + state.phi_dot
    n_steps = max(1, int(round(t_end / dt)))
    h = t_end / n_steps
    times = [0.0]
    rows = [y]
    error = None
    for step in range(n_steps):
        try:
            k1 = rhs_reference(y, m, u_prime, R)
            y2 = tuple(a + 0.5 * h * b for a, b in zip(y, k1))
            k2 = rhs_reference(y2, m, u_prime, R)
            y3 = tuple(a + 0.5 * h * b for a, b in zip(y, k2))
            k3 = rhs_reference(y3, m, u_prime, R)
            y4 = tuple(a + h * b for a, b in zip(y, k3))
            k4 = rhs_reference(y4, m, u_prime, R)
        except SingularityError as err:
            error = str(err)
            break
        except ZeroDivisionError:
            error = "a body sits on a pole (sin theta = 0)"
            break
        except (ValueError, OverflowError) as err:
            error = f"numerical blow-up near a singularity: {err}"
            break
        y = tuple(
            a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        )
        if (step + 1) % store_every == 0 or step == n_steps - 1:
            times.append((step + 1) * h)
            rows.append(y)
    return times, rows, error


def _outcome(fn):
    """("ok", bit patterns of fn's floats), or the error fn raised."""
    try:
        values = fn()
    except SingularityError as err:
        return ("SingularityError", err.kind, err.d2.hex(), err.pair, str(err))
    except (ZeroDivisionError, ValueError, OverflowError) as err:
        return (type(err).__name__, str(err))
    return ("ok",) + tuple(float(v).hex() for v in values)


def _random_state(rng):
    """A random state and sphere radius, (state, R)."""
    R = SphereRadius(rng.choice([0.5, 1.0, 3.0]))
    th = [rng.uniform(-math.pi, math.pi) for _ in range(3)]
    ph = [rng.uniform(-7.0, 7.0) for _ in range(3)]
    kind = rng.randrange(8)
    j = rng.randrange(3)
    i = (j + 1) % 3
    if kind == 4:  # the non-finite values a blown-up step carries
        (th if rng.random() < 0.5 else ph)[j] = rng.choice([math.nan, math.inf])
    elif kind == 0:  # near or exact collision of bodies i and j
        eps = 10.0 ** rng.uniform(-17, -3)
        th[i] = th[j] + rng.choice([eps, 0.0])
        ph[i] = ph[j] + rng.choice([eps, 0.0, -eps])
    elif kind == 1:  # near-antipodal pair
        th[i] = math.pi - th[j]
        ph[i] = ph[j] + math.pi + rng.choice([0.0, 1e-9])
    elif kind == 2:  # a body on or next to a pole
        th[j] = rng.choice([0.0, math.pi, -math.pi, 1e-300])
    elif kind == 3:  # equal longitudes
        ph[i] = ph[j]
    return SphericalState(
        tuple(SpherePoint(t, p) for t, p in zip(th, ph)),
        tuple(rng.uniform(-2.0, 2.0) for _ in range(3)),
        tuple(rng.uniform(-2.0, 2.0) for _ in range(3)),
    ), R


def test_eom_rhs_matches_reference_bitwise():
    # per state, the twelve position terms bit for bit against the
    # reference's, and one integrate step with t_end = dt = 1, so each
    # stage's accelerations reach the stored state, or its error the
    # trajectory's
    rng = random.Random(2022)
    seen = set()
    for n in range(1500):
        st, R = _random_state(rng)
        m = MassTriple(*(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3)))
        pot = cotangent_potential(R)
        if n % 2:
            pot = repulsive(pot)
        y = st.thetas + st.phis + st.theta_dot + st.phi_dot
        ref_u_prime = lambda d2, R=R: cotangent_u_prime_reference(d2, R)
        if n % 2:
            ref_u_prime = lambda d2, up=ref_u_prime: -up(d2)
        th, ph = y[:3], y[3:6]
        terms = _outcome(lambda: _position_terms(
            *th, ph[0] - ph[1], ph[1] - ph[2], ph[2] - ph[0],
            *(2.0 * mk for mk in m), pot.u_prime, 2.0 * (R.R * R.R)))
        assert terms == _outcome(lambda: reference_position_terms(
            th, ph, m, ref_u_prime, R)), (n, st)
        traj, error = _integrate_both(st, m, 1.0, 1.0, 1, pot, ref_u_prime)
        assert traj.error == error, (n, st)
        # the outcome of the first stage, at the state itself
        expect = _outcome(lambda: rhs_reference(y, m, ref_u_prime, R)[6:])
        seen.add(expect[0] if expect[0] != "SingularityError" else expect[1:4:2])
    # the sample reaches a collision and an antipode of every pair, a pole
    # and a math domain error at the first stage; the integrator reports
    # each differently
    pairs = [(1, 2), (2, 3), (3, 1)]
    assert {"ok", "ZeroDivisionError", "ValueError"} <= seen
    assert {(k, p) for k in ("collision", "antipodal") for p in pairs} <= seen


def _solution_state(a, masses, pick):
    """The rigidly rotating state of one meridian solution, set up as
    verify --integrate does; returns (state, period)."""
    sols = mer.find_meridian_rotators(a, masses)
    sol = pick(sols)
    omega = math.sqrt(sol.omega_squared)
    state = SphericalState(
        tuple(SpherePoint(t % (2.0 * math.pi), 0.0) for t in sol.thetas),
        (0.0, 0.0, 0.0), (omega, omega, omega),
    )
    return state, 2.0 * math.pi / omega


DIFFERENTIAL_CASES = {
    "pi/6 (3,2,1)": (math.pi / 6, (3.0, 2.0, 1.0), lambda s: s[0]),
    "table 2 d=+5": (math.pi / 2, (11.0, 6.0, 1.0), lambda s: s[-1]),
    "eight solutions": (
        1.575, (0.1, 4.5, 1.0), lambda s: max(s, key=lambda x: x.omega_squared)),
    "unstable RE": (
        0.8863, (5.328, 4.586, 1.370),
        lambda s: min(s, key=lambda x: abs(x.x - 3.603))),
}


def _integrate_both(state, masses, t_end, dt, store_every, pot=POT,
                    ref_u_prime=lambda d2: cotangent_u_prime_reference(d2, R1)):
    """integrate with pot and the reference loop with ref_u_prime, on the
    sphere of pot's radius, on one input; asserts that the stored times
    and states are equal bit for bit, and returns (trajectory, reference
    error)."""
    traj = integrate(state, masses, pot, t_end, dt, store_every)
    times, rows, error = rk4_reference(
        state, masses, ref_u_prime, pot.radius, t_end, dt, store_every)
    got = np.hstack([traj.thetas, traj.phis, traj.theta_dots, traj.phi_dots])
    assert np.array_equal(got.view(np.int64), np.array(rows).view(np.int64))
    assert np.array_equal(np.array(traj.times).view(np.int64),
                          np.array(times).view(np.int64))
    return traj, error


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_integrate_matches_reference_bitwise(case):
    a, m, pick = DIFFERENTIAL_CASES[case]
    masses = MassTriple(*m)
    state, period = _solution_state(a, masses, pick)
    traj, error = _integrate_both(state, masses, period, period / 4000, 1)
    assert traj.error is error is None
    assert len(traj.times) == 4001


def _counting_potential():
    """(POT with a u_prime that records each D^2 it is given, the list it
    records them in)."""
    calls = []

    def counting_u_prime(d2):
        calls.append(d2)
        return POT.u_prime(d2)

    return POT._replace(u_prime=counting_u_prime), calls


def test_integrate_reuses_a_rigid_rotations_position_terms():
    # a rigid rotation from phi = 0 keeps every stage of this period at the
    # first stage's colatitudes and longitude differences, bit for bit, so
    # one evaluation of the position terms (one U' per pair) serves all
    # 16000 stages
    pot, calls = _counting_potential()
    masses = MassTriple(3.0, 2.0, 1.0)
    state, period = _solution_state(math.pi / 6, masses, lambda s: s[0])
    traj = integrate(state, masses, pot, period, period / 4000)
    assert traj.error is None and len(traj.times) == 4001
    assert len(calls) == 3


# (theta_dot, phi_dot, phis) of six states: the second stage of each moves
# one angle, which changes exactly one item of the position key from the
# first stage's: theta_k, or, for phi_k, the one longitude difference to a
# body at the same longitude (the step, 5e-18, is lost in the difference
# to the body 2 rad away)
KEY_MOVES = {
    "theta1": ((0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 1.0, 2.5)),
    "theta2": ((0.0, 0.5, 0.0), (0.0, 0.0, 0.0), (0.0, 1.0, 2.5)),
    "theta3": ((0.0, 0.0, 0.5), (0.0, 0.0, 0.0), (0.0, 1.0, 2.5)),
    "phi1 - phi2": ((0.0, 0.0, 0.0), (1e-15, 0.0, 0.0), (0.0, 0.0, 2.0)),
    "phi2 - phi3": ((0.0, 0.0, 0.0), (0.0, 1e-15, 0.0), (2.0, 0.0, 0.0)),
    "phi3 - phi1": ((0.0, 0.0, 0.0), (0.0, 0.0, 1e-15), (0.0, 2.0, 0.0)),
}


@pytest.mark.parametrize("moved", sorted(KEY_MOVES))
def test_integrate_recomputes_when_one_key_item_moves(moved):
    # the converse of the rigid rotation's reuse: each stage of these runs
    # sits at a new position key, so each calls U' once per pair, and a
    # key check that skipped the one item the second stage moves would
    # reuse the first stage's terms there
    pot, calls = _counting_potential()
    theta_dot, phi_dot, phis = KEY_MOVES[moved]
    st = SphericalState(
        tuple(SpherePoint(t, p) for t, p in zip((0.9, 1.8, 2.4), phis)),
        theta_dot, phi_dot,
    )
    traj, error = _integrate_both(st, MassTriple(3.0, 2.0, 1.0), 0.1, 0.01, 1, pot)
    assert traj.error is error is None and len(traj.times) == 11
    assert len(calls) == 3 * 4 * 10


def test_integrate_signed_zero_longitude_differences_match_reference():
    # phi_1 - phi_2 is -0.0 at the first stage and +0.0 at the second,
    # which sits at the same position (theta_dot = phi_dot = 0), so the
    # second reuses the terms of the first: sin(-0.0) = -0.0 must leave
    # them as +0.0 would
    m = MassTriple(3.0, 2.0, 1.0)
    st = SphericalState(
        (SpherePoint(0.9, -0.0), SpherePoint(1.8, 0.0), SpherePoint(2.4, 0.0)),
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
    )
    traj, error = _integrate_both(st, m, 1.0, 0.01, 1)
    assert traj.error is error is None


def test_integrate_error_and_storing_match_reference():
    # a collision part-way, with a stride that does not divide the steps
    m = MassTriple(1.0, 1.0, 1.0)
    st = SphericalState(
        (SpherePoint(1.0, 0.0), SpherePoint(1.0, 0.05), SpherePoint(2.5, 3.0)),
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
    )
    traj, error = _integrate_both(st, m, 50.0, 0.01, 7)
    assert error is not None and traj.error == error


@pytest.mark.parametrize("i, j", [(0, 1), (1, 2), (2, 0)])
@pytest.mark.parametrize("kind", ["collision", "antipodal"])
def test_configuration_residuals_label_singular_pair(i, j, kind):
    # bodies i and j on the equator at one point or at antipodes, the
    # third off it. The antipodal chord is 4 R^2 of the potential's
    # radius: a unit sphere's chord would pass for regular at R = 3
    th, ph = [1.0] * 3, [2.0] * 3
    th[i] = th[j] = math.pi / 2
    ph[i], ph[j] = 0.0, (0.0 if kind == "collision" else math.pi)
    m = MassTriple(1.0, 2.0, 1.5)
    for R in (SphereRadius(0.5), SphereRadius(3.0)):
        for pot in (cotangent_potential(R), repulsive(cotangent_potential(R))):
            with pytest.raises(SingularityError) as err:
                configuration_residuals(th, ph, 1.0, m, pot)
            assert (err.value.kind, err.value.pair) == (kind, (i + 1, j + 1))


def test_configuration_residuals_non_finite_outcomes():
    m = MassTriple(1.0, 2.0, 1.5)
    th, ph = (0.4, 1.3, 2.2), (0.1, 1.7, -2.0)
    # a NaN omega fails only the theta rows, a NaN U' every row it enters
    res = configuration_residuals(th, ph, math.nan, m, POT)
    assert np.isfinite(res[:4]).all() and np.isnan(res[4:]).all()
    nan_pot = PairPotential(u_prime=lambda d2: math.nan)
    res = configuration_residuals(th, ph, 1.0, m, nan_pot)
    assert np.isfinite(res[:2]).all() and np.isnan(res[2:]).all()
    with pytest.raises(OverflowError):
        configuration_residuals(th, ph, 1e200, m, POT)
    for bad in ((math.inf, 1.3, 2.2), (0.4, 1.3, -math.inf)):
        with pytest.raises(ValueError):
            configuration_residuals(bad, ph, 1.0, m, POT)
        with pytest.raises(ValueError):
            configuration_residuals(th, bad, 1.0, m, POT)
