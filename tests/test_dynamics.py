import math

import numpy as np
import pytest

from sphere3body.dynamics import (
    MassTriple,
    SphericalState,
    angular_momentum,
    configuration_residuals,
    eom_rhs,
    integrate,
    kinetic_energy,
    re_residuals,
)
from sphere3body.equator import solve_equator
from sphere3body.geometry import SpherePoint, SphereRadius
from sphere3body.potential import cotangent_potential

R1 = SphereRadius(1.0)
POT = cotangent_potential(R1)


def equator_state(masses, omega, R=R1):
    sol = solve_equator(masses)
    thetas, phis, _ = sol.residual_inputs()
    return SphericalState(
        points=tuple(SpherePoint(t, p) for t, p in zip(thetas, phis)),
        theta_dot=(0.0, 0.0, 0.0),
        phi_dot=(omega, omega, omega),
        R=R,
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


class TestAngularMomentum:
    def test_equator_equal_masses(self):
        m = MassTriple(1.0, 1.0, 1.0)
        st = equator_state(m, 2.0)
        c = angular_momentum(st, m)
        assert c.cx == pytest.approx(0.0, abs=1e-14)
        assert c.cy == pytest.approx(0.0, abs=1e-14)
        # c_z = sum m_k R^2 sin^2(theta_k) * omega = 3 * 2
        assert c.cz == pytest.approx(6.0, rel=1e-14)

    def test_scales_with_radius_squared(self):
        m = MassTriple(1.0, 2.0, 3.0)
        st1 = equator_state(m, 1.0)
        st2 = equator_state(m, 1.0, SphereRadius(2.0))
        c1 = angular_momentum(st1, m)
        c2 = angular_momentum(st2, m)
        assert c2.cz == pytest.approx(4.0 * c1.cz, rel=1e-13)


def test_kinetic_energy_manual():
    m = MassTriple(2.0, 1.0, 1.0)
    pts = (SpherePoint(0.5, 0.1), SpherePoint(1.0, 2.0), SpherePoint(2.0, -1.0))
    st = SphericalState(pts, (0.3, -0.2, 0.1), (1.0, 0.5, -0.4), SphereRadius(2.0))
    expect = 0.0
    for mk, p, td, pd in zip(m.as_tuple(), pts, st.theta_dot, st.phi_dot):
        expect += 0.5 * mk * 4.0 * (td * td + math.sin(p.theta) ** 2 * pd * pd)
    assert kinetic_energy(st, m) == pytest.approx(expect, rel=1e-14)


class TestResiduals:
    def test_equator_solution_is_equilibrium(self):
        m = MassTriple(1.0, 2.0, 1.5)
        sol = solve_equator(m)
        for omega in (0.0, 1.0, 2.0):
            res = re_residuals(sol, m, POT, R1, omega=omega)
            assert np.max(np.abs(res)) < 1e-12

    def test_perturbation_sensitivity(self):
        m = MassTriple(1.0, 2.0, 1.5)
        sol = solve_equator(m)
        thetas, phis, omega = sol.residual_inputs()
        phis = (phis[0], phis[1], phis[2] + 1e-3)
        res = configuration_residuals(thetas, phis, omega, m, POT, R1)
        assert np.max(np.abs(res)) >= 1e-4

    def test_omega_zero_drops_momentum_rows(self):
        m = MassTriple(1.0, 1.0, 1.0)
        sol = solve_equator(m)
        thetas, phis, _ = sol.residual_inputs()
        assert configuration_residuals(thetas, phis, 0.0, m, POT, R1).shape == (5,)
        assert configuration_residuals(thetas, phis, 1.0, m, POT, R1).shape == (7,)


class TestEomRhs:
    def test_equator_re_has_zero_acceleration(self):
        m = MassTriple(1.0, 2.0, 1.5)
        sol = solve_equator(m)
        # on the equator the theta equation reads 0 = omega^2*0 + forces,
        # so a rotating frame RE means theta_ddot = 0 and phi_ddot = 0
        thetas, phis, _ = sol.residual_inputs()
        omega = 1.3
        st = SphericalState(
            tuple(SpherePoint(t, p) for t, p in zip(thetas, phis)),
            (0.0, 0.0, 0.0), (omega, omega, omega), R1,
        )
        tdd, pdd = eom_rhs(st, m, POT)
        assert max(abs(v) for v in tdd + pdd) < 1e-12


class TestIntegrate:
    def test_conserves_invariants(self):
        m = MassTriple(1.0, 2.0, 1.5)
        st = equator_state(m, 1.0)
        traj = integrate(st, m, POT, 2.0 * math.pi, 2.0 * math.pi / 4000)
        assert traj.error is None
        assert traj.energy_drift < 1e-10
        assert traj.c_drift < 1e-10

    def test_rk4_convergence_order(self):
        m = MassTriple(1.0, 2.0, 1.5)
        st = SphericalState(
            (SpherePoint(0.9, 0.0), SpherePoint(1.8, 2.0), SpherePoint(1.2, 4.0)),
            (0.05, -0.02, 0.0), (0.3, 0.3, 0.3), R1,
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
            (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), R1,
        )
        traj = integrate(st, m, POT, 50.0, 0.01)
        assert traj.error is not None
        assert len(traj.times) >= 1

    def test_body_on_pole_reports_error(self):
        m = MassTriple(6.0, 6.0, 1.0)
        st = SphericalState(
            (SpherePoint(-math.pi / 4, 0.0), SpherePoint(math.pi / 4, 0.0),
             SpherePoint(0.0, 0.0)),
            (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), R1,
        )
        traj = integrate(st, m, POT, 1.0, 0.01)
        assert "pole" in traj.error
        assert len(traj.times) == 1

    def test_rejects_bad_dt(self):
        m = MassTriple(1.0, 1.0, 1.0)
        st = equator_state(m, 1.0)
        with pytest.raises(ValueError):
            integrate(st, m, POT, 1.0, 0.0)
