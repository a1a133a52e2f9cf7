import math

import numpy as np
import pytest

from sphere3body.dynamics import MassTriple, configuration_residuals
from sphere3body.equator import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    NoEquatorSolution,
    antipodal_limit_scan,
    default_antipodal_path,
    existence_check,
    solve_equator,
)
from sphere3body.geometry import SphereRadius
from sphere3body.potential import cotangent_potential

R1 = SphereRadius(1.0)
POT = cotangent_potential(R1)
EQUATOR_THETAS = (math.pi / 2,) * 3


class TestExistence:
    def test_equal_masses_interior(self):
        assert existence_check(MassTriple(1, 1, 1)).region == INTERIOR

    def test_dominant_pair_exterior(self):
        res = existence_check(MassTriple(25, 25, 1))
        assert res.region == EXTERIOR
        assert res.violated is not None

    def test_boundary_detected(self):
        # mu = (2, 2, 4): mu3 = mu1 + mu2 exactly
        assert existence_check(MassTriple(4, 4, 1)).region == BOUNDARY

    def test_no_solution_raises(self):
        with pytest.raises(NoEquatorSolution):
            solve_equator(MassTriple(25, 25, 1))


class TestClosedForm:
    def test_equal_masses(self):
        sol = solve_equator(MassTriple(1, 1, 1))
        third = 2.0 * math.pi / 3.0
        assert sol.dphi_12 == pytest.approx(third, rel=1e-14)
        assert sol.dphi_23 == pytest.approx(third, rel=1e-14)
        assert sol.dphi_31 == pytest.approx(third, rel=1e-14)
        assert sol.rho == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
        assert sol.neg_potential_energy == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_one_heavy_mass(self):
        # m = (1, 1, 4): cos(dphi_12) = -7/8, rho = sqrt(15)/8, -V = sqrt(15)
        sol = solve_equator(MassTriple(1, 1, 4))
        assert math.cos(sol.dphi_12) == pytest.approx(-7.0 / 8.0, abs=1e-14)
        assert sol.rho == pytest.approx(math.sqrt(15.0) / 8.0, rel=1e-14)
        assert sol.neg_potential_energy == pytest.approx(math.sqrt(15.0), rel=1e-13)

    def test_dphis_sum_to_full_circle(self):
        for m in [(1, 2, 3), (5, 1, 2), (0.3, 0.4, 0.5)]:
            sol = solve_equator(MassTriple(*m))
            total = sol.dphi_12 + sol.dphi_23 + sol.dphi_31
            assert total == pytest.approx(2.0 * math.pi, rel=1e-13)
            for d in (sol.dphi_12, sol.dphi_23, sol.dphi_31):
                assert 0.0 < d < math.pi

    def test_sine_theorem_holds(self):
        m = MassTriple(2.0, 3.0, 1.5)
        sol = solve_equator(m)
        mu1, mu2, mu3 = m.mu
        assert math.sin(sol.dphi_12) / mu3 == pytest.approx(sol.rho, rel=1e-12)
        assert math.sin(sol.dphi_23) / mu1 == pytest.approx(sol.rho, rel=1e-12)
        assert math.sin(sol.dphi_31) / mu2 == pytest.approx(sol.rho, rel=1e-12)

    @pytest.mark.parametrize("omega", [0.0, 1.0, 2.0])
    def test_solution_is_omega_independent_equilibrium(self, omega):
        m = MassTriple(1.3, 0.9, 2.1)
        sol = solve_equator(m)
        res = configuration_residuals(EQUATOR_THETAS, sol.phis(), omega, m, POT)
        assert np.max(np.abs(res)) < 1e-12


class TestAntipodalLimit:
    def test_default_path_hits_boundary(self):
        path = default_antipodal_path()
        assert existence_check(path(0.0)).region == INTERIOR
        assert existence_check(path(1.0)).region == BOUNDARY

    def test_scan_monotone_to_zero(self):
        rows = antipodal_limit_scan(steps=40)
        negv = [r.neg_potential_energy for r in rows]
        assert all(a > b for a, b in zip(negv, negv[1:]))
        assert negv[-1] < 1e-8

    def test_scan_dphis_reach_pi(self):
        rows = antipodal_limit_scan(steps=40)
        last = rows[-1]
        assert abs(last.dphi_23 - math.pi) < 1e-6
        assert abs(last.dphi_31 - math.pi) < 1e-6
        # bodies 1 and 2 collide at the antipode of body 3
        assert abs(last.dphi_12) < 1e-6 or abs(last.dphi_12 - 2 * math.pi) < 1e-6

    def test_scan_rejects_path_leaving_interior(self):
        bad = lambda t: MassTriple(25.0, 25.0, 1.0)
        with pytest.raises(ValueError):
            antipodal_limit_scan(bad, steps=5)
