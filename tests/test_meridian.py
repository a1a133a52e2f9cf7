import dataclasses
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sphere3body import kernels
from sphere3body import meridian as mer
from sphere3body.dynamics import MassTriple, configuration_residuals
from sphere3body.geometry import SphereRadius
from sphere3body.potential import PairPotential, cotangent_potential, repulsive
from test_dynamics import _outcome
from test_kernels import REGION_SIGNS, g_reference

R1 = SphereRadius(1.0)
POT = cotangent_potential(R1)
M321 = MassTriple(3.0, 2.0, 1.0)


class TestRegions:
    def test_region_of(self):
        a = 0.5
        assert mer.region_of(0.2, a) == "I"
        assert mer.region_of(2.0, a) == "II"
        assert mer.region_of(3.3, a) == "III"
        assert mer.region_of(5.0, a) == "IV"

    def test_region_signs(self):
        # alpha = sign(sin x), beta = sign(sin(x - a)) in the reference table
        a = 0.5
        for region, x in [("I", 0.2), ("II", 2.0), ("III", 3.3), ("IV", 5.0)]:
            assert mer.region_of(x, a) == region
            al, be = REGION_SIGNS[region]
            assert al == (1 if math.sin(x) >= 0 else -1)
            assert be == (1 if math.sin(x - a) >= 0 else -1)


class TestShape:
    def test_validate_rejects_singular(self):
        with pytest.raises(ValueError):
            mer.Shape(0.5, 0.5).validate()
        with pytest.raises(ValueError):
            mer.Shape(0.5, math.pi).validate()
        with pytest.raises(ValueError):
            mer.Shape(-0.1, 1.0).validate()

    def test_theta32(self):
        s = mer.Shape(0.5, 2.0)
        assert s.theta32 == pytest.approx(1.5)


class TestGFunction:
    # exact sample values for a = pi/6, nu1 = 3, nu2 = 2
    EXACT = [
        (math.pi / 6, -3.0 * math.sqrt(3.0) / 32.0),
        (math.pi / 2, 5.0 * math.sqrt(3.0) / 16.0),
        (math.pi, -math.sqrt(3.0) / 8.0),
        (7.0 * math.pi / 6.0, 3.0 * math.sqrt(3.0) / 32.0),
        (7.0 * math.pi / 4.0, -5.0 * (5.0 + math.sqrt(3.0)) / 32.0),
        (2.0 * math.pi, math.sqrt(3.0) / 8.0),
    ]

    @pytest.mark.parametrize("x,expected", EXACT)
    def test_exact_values(self, x, expected):
        assert kernels.g_scalar(x, math.pi / 6, 3.0, 2.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_g_function_matches_kernel(self):
        a, nu1, nu2 = 0.7, 2.5, 0.8
        for x in np.linspace(0.01, 2 * math.pi - 0.01, 57):
            region = mer.region_of(x, a)
            assert g_reference(x, a, nu1, nu2, region) == pytest.approx(
                kernels.g_scalar(x, a, nu1, nu2), rel=1e-13, abs=1e-13
            )

    def test_continuous_across_boundaries(self):
        a, nu1, nu2 = 0.9, 1.7, 3.1
        eps = 1e-9
        for b in (a, math.pi, math.pi + a):
            lo = kernels.g_scalar(b - eps, a, nu1, nu2)
            hi = kernels.g_scalar(b + eps, a, nu1, nu2)
            assert lo == pytest.approx(hi, abs=1e-6)

    def test_boundary_value_closed_form(self):
        # g(0) = -2*beta*(nu1+1)*cos(a)*sin^5(a) with region-I beta = -1
        a, nu1, nu2 = 0.8, 2.0, 5.0
        expected = 2.0 * (nu1 + 1.0) * math.cos(a) * math.sin(a) ** 5
        assert kernels.g_scalar(1e-12, a, nu1, nu2) == pytest.approx(
            expected, rel=1e-3
        )


class TestTranslation:
    def test_lift_reproduces_shape(self):
        shape = mer.Shape(0.6, 2.2)
        tr = mer.shape_to_configurations(M321, shape, 1)
        t1, t2, t3 = tr.thetas
        assert t2 - t1 == pytest.approx(shape.theta21)
        assert t3 - t1 == pytest.approx(shape.theta31)

    def test_branch_flip_is_quarter_turn(self):
        shape = mer.Shape(0.6, 2.2)
        plus = mer.shape_to_configurations(M321, shape, 1)
        minus = mer.shape_to_configurations(M321, shape, -1)
        d = (minus.thetas[0] - plus.thetas[0]) / (math.pi / 2.0)
        assert abs(d - round(d)) < 1e-10
        assert round(d) % 2 == 1  # odd multiple of pi/2

    def test_amplitude_zero_raises(self):
        m = MassTriple(1.0, 1.0, 1.0)
        shape = mer.Shape(2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
        assert mer.amplitude_A(m, shape) < 1e-12
        with pytest.raises(mer.AZeroFixedPoint):
            mer.shape_to_configurations(m, shape, 1)

    def test_antipodal_lift(self):
        shape = mer.Shape(0.6, 2.2)
        tr = mer.shape_to_configurations(M321, shape, 1)
        for t, ta in zip(tr.thetas, tr.thetas_alt):
            assert ta - t == pytest.approx(math.pi)


class TestCases:
    def test_generic_shape_is_case1(self):
        pq = mer.pair_quantities(M321, mer.Shape(0.6, 2.2))
        assert mer.classify_case(pq, M321) == mer.CASE1

    def test_equal_mass_equilateral_is_case4(self):
        m = MassTriple(1.0, 1.0, 1.0)
        pq = mer.pair_quantities(m, mer.Shape(2 * math.pi / 3, 4 * math.pi / 3))
        assert mer.classify_case(pq, m) == mer.CASE4_FIXED_POINT

    def test_inconsistent_shape_rejected(self):
        # an arbitrary shape does not satisfy both ratio equations
        pq = mer.pair_quantities(M321, mer.Shape(1.0, 2.0))
        A = mer.amplitude_A(M321, mer.Shape(1.0, 2.0))
        with pytest.raises(mer.NotARotatorError):
            mer.solve_omega_and_branch(pq, M321, A)


class TestSolver:
    def test_six_solutions_at_pi_over_6(self):
        sols = mer.find_meridian_rotators(math.pi / 6, M321)
        assert len(sols) == 6
        by_region = {r: 0 for r in mer.REGIONS}
        for s in sols:
            by_region[s.region] += 1
        assert by_region == {"I": 1, "II": 2, "III": 1, "IV": 2}

    def test_two_solutions_at_pi_over_4(self):
        sols = mer.find_meridian_rotators(math.pi / 4, M321)
        assert len(sols) == 2
        assert {s.region for s in sols} == {"I", "III"}

    def test_solutions_satisfy_raw_equations(self):
        for sols in (
            mer.find_meridian_rotators(math.pi / 6, M321),
            mer.find_meridian_rotators(math.pi / 4, M321),
        ):
            for s in sols:
                assert s.residual_max < 1e-9
                assert s.omega_squared is not None and s.omega_squared > 0

    def test_alternate_lift_also_solves(self):
        for s in mer.find_meridian_rotators(math.pi / 4, M321):
            omega = math.sqrt(s.omega_squared)
            res = configuration_residuals(
                s.translation.thetas_alt, (0.0, 0.0, 0.0), omega, M321, POT, R1
            )
            assert np.max(np.abs(res)) < 1e-9

    def test_equal_nu_pi_over_2(self):
        # nu1 = nu2: isosceles roots at x = a/2 and x = a/2 + pi
        m = MassTriple(1.0, 1.0, 2.0)
        sols = mer.find_meridian_rotators(math.pi / 2, m)
        xs = sorted(s.x for s in sols)
        assert xs[0] == pytest.approx(math.pi / 4, abs=1e-9)
        assert xs[1] == pytest.approx(math.pi / 4 + math.pi, abs=1e-9)

    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            mer.find_meridian_rotators(0.0, M321)
        with pytest.raises(ValueError):
            mer.find_meridian_rotators(math.pi, M321)

    def test_repulsive_potential_flips_branch(self):
        att = mer.find_meridian_rotators(math.pi / 4, M321)
        rep = mer.find_meridian_rotators(math.pi / 4, M321, pot=repulsive(POT))
        assert len(att) == len(rep) == 2
        for sa, sr in zip(att, rep):
            assert sa.x == pytest.approx(sr.x, abs=1e-10)
            assert sa.omega_squared == pytest.approx(sr.omega_squared, rel=1e-9)
            assert sr.s == -sa.s

    @pytest.mark.parametrize("a, m, count", [
        (1.2302, (0.3183, 0.2462, 0.2003), 6),
        # solve-pool entry 856 of the benchmark
        (1.8202418324125238,
         (0.5889264248276225, 0.5475259581794261, 0.2835682163913604), 4),
    ])
    def test_small_amplitude_lift(self, a, m, count):
        # a solution with A ~ 2e-4: the rounding of sin_part/A and
        # cos_part/A grows like (m1+m2+m3)/A, past a fixed 1e-10
        # consistency tolerance
        masses = MassTriple(*m)
        mirror = MassTriple(m[1], m[0], m[2])
        sols = mer.find_meridian_rotators(a, masses)
        mirror_sols = mer.find_meridian_rotators(a, mirror)
        assert len(sols) == len(mirror_sols) == count
        assert min(s.translation.A for s in sols) < 3e-4
        # swapping m1 and m2 maps x to a - x (mod 2 pi)
        mapped = sorted((a - s.x) % (2.0 * math.pi) for s in sols)
        assert mapped == pytest.approx(sorted(s.x for s in mirror_sols), abs=1e-7)
        for ms, found in ((masses, sols), (mirror, mirror_sols)):
            for s in found:
                t1, t2, t3 = s.translation.thetas
                assert t2 - t1 == pytest.approx(a, abs=1e-12)
                assert t3 - t1 == pytest.approx(s.x, abs=1e-12)
                gate = 1e-9 * max(1.0, s.omega_squared) * sum(m)
                res = configuration_residuals(
                    s.translation.thetas_alt, (0.0, 0.0, 0.0),
                    math.sqrt(s.omega_squared), ms, POT, R1)
                assert np.max(np.abs(res)) < gate

    def test_potential_name_selects_nothing(self):
        # a Newton-like potential is solved through its ratio equation
        # whatever its name; boundary_tol=1e-6, because at the default
        # 1e-8 pair_quantities rounds the chord of the boundary sample to 0
        def newton(name):
            return PairPotential(u=lambda d2: -d2 ** -0.5,
                                 u_prime=lambda d2: 0.5 * d2 ** -1.5, name=name)

        opts = mer.ScanOptions(boundary_tol=1e-6)

        def solve(pot):
            return [(s.x, s.region, s.omega_squared, s.residual_max)
                    for s in mer.find_meridian_rotators(math.pi / 6, M321, opts, pot)]

        custom = solve(newton("custom"))
        assert custom and solve(newton("cotangent")) == custom
        assert solve(POT) != custom

    def test_reduced_g_is_the_cotangent_family(self):
        assert POT.reduced_g and repulsive(POT).reduced_g
        assert not PairPotential(u=abs, u_prime=abs, name="cotangent").reduced_g

    def test_larger_radius_scales_omega(self):
        # omega^2 ~ 1/R^3 at fixed shape angles
        R2 = SphereRadius(2.0)
        pot2 = cotangent_potential(R2)
        s1 = mer.find_meridian_rotators(math.pi / 4, M321)
        s2 = mer.find_meridian_rotators(math.pi / 4, M321, pot=pot2, R=R2)
        for a_, b_ in zip(s1, s2):
            assert b_.omega_squared == pytest.approx(a_.omega_squared / 8.0, rel=1e-9)


class TestCounting:
    @pytest.mark.parametrize(
        "diff,expected",
        [(-5.0, (1, 0, 1, 2)), (-4.0, (1, 0, 1, 1)), (0.0, (1, 0, 1, 0)),
         (4.0, (1, 1, 1, 0)), (5.0, (1, 2, 1, 0))],
    )
    def test_count_pi_over_2_closed_form(self, diff, expected):
        assert mer.count_pi_over_2(diff).as_tuple() == expected

    # beside the tangent roots at |nu1 - nu2| = 4: pairs of roots 5e-4 to
    # 5e-7 apart (+-4 outwards) and no roots (+-4 inwards)
    @pytest.mark.parametrize("diff", [
        -5.0, -4.0, 0.0, 4.0, 5.0,
        *[4.0 + s * d for s in (1.0, -1.0) for d in (1e-6, 1e-9, 1e-12)],
        *[-4.0 + s * d for s in (1.0, -1.0) for d in (1e-6, 1e-9, 1e-12)],
    ])
    def test_scan_agrees_with_closed_form(self, diff):
        nu2 = 6.0
        nu1 = nu2 + diff
        scan = mer.count_rotators_scan(math.pi / 2, nu1, nu2)
        assert scan.as_tuple() == mer.count_pi_over_2(diff).as_tuple()

    def test_grid_counter_matches_scan(self):
        a = math.pi / 6
        nu1s = [1.0, 3.0, 6.0]
        nu2s = [2.0, 5.0]
        grid = sum(mer.count_rotators_grid_regions(a, nu1s, nu2s).values())
        for i, n1 in enumerate(nu1s):
            for j, n2 in enumerate(nu2s):
                assert grid[i, j] == mer.count_rotators_scan(a, n1, n2).total

    # per-region counts stored from an earlier version of the counters:
    # the named paper cases plus seeded random inputs, and a 10x10 grid
    with open(Path(__file__).parent / "data" / "scan_counts.json") as fh:
        STORED = json.load(fh)

    @pytest.mark.parametrize("case", STORED["scan"], ids=lambda c: c["case"])
    def test_scan_counts_match_stored(self, case):
        counts = mer.count_rotators_scan(case["a"], case["nu1"], case["nu2"])
        assert list(counts.as_tuple()) == case["counts"]

    def test_grid_counts_match_stored(self):
        grid = self.STORED["grid"]
        for piece in grid["slices"]:
            per_region = mer.count_rotators_grid_regions(
                piece["a"], grid["nu1"], grid["nu2"])
            for region in mer.REGIONS:
                assert per_region[region].tolist() == piece["counts"][region]


def broadcast_grid_regions(a, nu1_values, nu2_values, samples_per_region=400,
                           boundary_tol=1e-8):
    """The grid counter as it was before it counted one nu1 row at a
    time: g on the whole (nu1, nu2, samples) grid by broadcasting."""
    nu1v = np.asarray(nu1_values, dtype=float)
    nu2v = np.asarray(nu2_values, dtype=float)
    out = {}
    for region in mer.REGIONS:
        lo, hi = mer.region_bounds(region, a)
        xs = np.linspace(lo + boundary_tol, hi - boundary_tol, samples_per_region)
        P, Q, S = kernels.g_terms(xs, a)
        g = (
            nu1v[:, None, None] * P[None, None, :]
            + nu2v[None, :, None] * Q[None, None, :]
            + S[None, None, :]
        )
        out[region] = np.count_nonzero(g[:, :, :-1] * g[:, :, 1:] < 0.0, axis=2)
    return out


SWEEP_NU = np.linspace(0.1, 10.0, 50)


def _grid_cases():
    # the default sweep's 20 a values, Table 2 and the eight-solution point
    for a in [*np.linspace(0.15, 3.0, 20), math.pi / 2, 1.575]:
        yield a, SWEEP_NU, SWEEP_NU, 400
    rng = np.random.default_rng(2024)
    for a in rng.uniform(0.0, math.pi, 30):
        yield a, SWEEP_NU, SWEEP_NU, 400
    # nu1 a few ulps either side of a zero of g at one sample: the count
    # there depends on the order in which g's terms are summed
    for k, a in enumerate(rng.uniform(0.2, 3.0, 40)):
        lo, hi = mer.region_bounds(mer.REGIONS[k % 4], a)
        P, Q, S = kernels.g_terms(np.linspace(lo + 1e-8, hi - 1e-8, 400), a)
        i, nu2 = rng.integers(1, 399), rng.uniform(0.1, 10.0)
        nu1 = -(nu2 * Q[i] + S[i]) / P[i]
        if nu1 > 0.0:
            yield a, nu1 + np.arange(-4, 5) * np.spacing(nu1), [nu2], 400
    ragged = (np.linspace(0.3, 9.0, 37), np.linspace(0.2, 7.5, 23))
    tied = np.array([1.0, 2.0, 5.0, 6.0])  # Table 2's |nu1 - nu2| = 4
    for a in (math.pi / 6, math.pi / 2, 2.5):
        yield a, *ragged, 400
        yield a, tied, tied, 400
        yield a, [3.0], [2.0], 400
        yield a, [6.0], SWEEP_NU, 400
        yield a, SWEEP_NU, [6.0], 400
        for samples in (2, 3):
            yield a, *ragged, samples
            yield a, tied, tied, samples


class TestGridCounter:
    def test_rows_match_broadcast_counter(self):
        for a, nu1, nu2, samples in _grid_cases():
            got = mer.count_rotators_grid_regions(a, nu1, nu2, samples)
            want = broadcast_grid_regions(a, nu1, nu2, samples)
            assert list(got) == list(want)
            for region in mer.REGIONS:
                assert got[region].dtype == want[region].dtype
                assert np.array_equal(got[region], want[region]), (a, region)

    def test_memory_is_one_row(self):
        # numpy reports its allocations to tracemalloc; the whole
        # (nu1, nu2, samples) grid in float64 would be 128 MB
        nu = np.linspace(0.1, 10.0, 200)
        tracemalloc.start()
        try:
            mer.count_rotators_grid_regions(1.0, nu, nu, 400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSpecialFamilies:
    def test_equilateral_unequal_masses(self):
        sol = mer.equilateral_rotator(M321)
        assert sol.s == -1
        A = mer.amplitude_A(M321, sol.shape)
        uprime = POT.u_prime(3.0)
        assert sol.omega_squared == pytest.approx(-4.0 * A * uprime, rel=1e-13)
        assert sol.residual_max < 1e-10

    def test_equilateral_equal_masses_fixed_point(self):
        sol = mer.equilateral_rotator(MassTriple(1.0, 1.0, 1.0))
        assert sol.is_fixed_point
        assert sol.case_tag == mer.A_ZERO_FIXED_POINT
        assert sol.residual_max < 1e-12

    def test_isosceles_special_angle_omega(self):
        # R^3 omega^2 = (16 A / 7) sqrt((13 + 16 sqrt(2)) / 7), s = +1
        rng = np.random.default_rng(42)
        for _ in range(5):
            m = MassTriple(*rng.uniform(0.5, 5.0, size=3))
            sols = mer.isosceles_rotators(m, "special")
            small = [s for s in sols if s.x == pytest.approx(
                math.acos(mer.SPECIAL_ISOSCELES_COS_A) / 2.0, abs=1e-9)]
            assert len(small) == 1
            sol = small[0]
            A = mer.amplitude_A(m, sol.shape)
            expected = (16.0 * A / 7.0) * math.sqrt((13.0 + 16.0 * math.sqrt(2.0)) / 7.0)
            assert sol.s == 1
            assert sol.omega_squared == pytest.approx(expected, rel=1e-10)

    def test_isosceles_equal_nu_any_angle(self):
        m = MassTriple(2.0, 2.0, 1.0)
        sols = mer.isosceles_rotators(m, 1.1)
        xs = sorted(s.x for s in sols)
        assert xs[0] == pytest.approx(0.55, abs=1e-12)
        assert xs[1] == pytest.approx(0.55 + math.pi, abs=1e-12)
        for s in sols:
            assert s.residual_max < 1e-10

    def test_exceptional_angles_satisfy_equalities(self):
        for nu in (0.1, 0.5, 1.0, 2.0, 10.0):
            for row in mer.exceptional_case_angles(mer.CASE2, nu):
                m = MassTriple(nu, 1.7, 1.0)
                th1, th2 = 0.0, -row.theta_pair
                th3 = th2 - row.theta_other
                G12 = m.m1 * m.m2 * math.sin(2 * (th2 - th1))
                G23 = m.m2 * m.m3 * math.sin(2 * (th3 - th2))
                F12 = m.m1 * m.m2 * math.sin(th2 - th1) / abs(math.sin(th2 - th1)) ** 3
                F23 = m.m2 * m.m3 * math.sin(th3 - th2) / abs(math.sin(th3 - th2)) ** 3
                scale = m.m1 * m.m2 + m.m2 * m.m3
                assert abs(G12 - G23) < 1e-12 * scale
                assert abs(F12 - F23) < 1e-10 * max(abs(F12), 1.0)
            for row in mer.exceptional_case_angles(mer.CASE3, nu):
                m = MassTriple(1.3, nu, 1.0)
                th1, th2 = 0.0, -row.theta_pair
                th3 = th1 + row.theta_other
                G12 = m.m1 * m.m2 * math.sin(2 * (th2 - th1))
                G31 = m.m3 * m.m1 * math.sin(2 * (th1 - th3))
                F12 = m.m1 * m.m2 * math.sin(th2 - th1) / abs(math.sin(th2 - th1)) ** 3
                F31 = m.m3 * m.m1 * math.sin(th1 - th3) / abs(math.sin(th1 - th3)) ** 3
                scale = m.m1 * m.m2 + m.m3 * m.m1
                assert abs(G12 - G31) < 1e-12 * scale
                assert abs(F12 - F31) < 1e-10 * max(abs(F12), 1.0)

    @pytest.mark.parametrize("nu", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_solver_finds_exceptional_shapes(self, nu):
        # at the exceptional angle the region solver returns the closed-form
        # shape (reflected, so that a = theta_pair lies in (0, pi)), tagged
        # with its case
        for row in mer.exceptional_case_angles(mer.CASE2, nu):
            a = row.theta_pair
            sols = mer.find_meridian_rotators(a, MassTriple(nu, 1.7, 1.0))
            x = (a + row.theta_other) % (2.0 * math.pi)
            assert any(s.case_tag == mer.CASE2 and abs(s.x - x) <= 1e-12
                       for s in sols), (a, x, [(s.x, s.case_tag) for s in sols])
        for row in mer.exceptional_case_angles(mer.CASE3, nu):
            a = row.theta_pair
            sols = mer.find_meridian_rotators(a, MassTriple(1.3, nu, 1.0))
            x = -row.theta_other % (2.0 * math.pi)
            assert any(s.case_tag == mer.CASE3 and abs(s.x - x) <= 1e-12
                       for s in sols), (a, x, [(s.x, s.case_tag) for s in sols])

    def test_case4_only_for_equal_masses(self):
        assert mer.case4_fixed_point(M321) is None
        sol = mer.case4_fixed_point(MassTriple(2.0, 2.0, 2.0))
        assert sol is not None
        assert sol.is_fixed_point
        assert sol.residual_max < 1e-12


class TestEulerLimit:
    def test_quintic_coefficients(self):
        assert mer.euler_quintic_coefficients(M321) == [5, 13, 11, -5, -7, -3]

    def test_equal_mass_root_is_one(self):
        m = MassTriple(1.0, 1.0, 1.0)
        assert mer._quintic_positive_root(mer.euler_quintic_coefficients(m)) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_convergence_order_two(self):
        report = mer.euler_limit_check(M321, 1.0, [100.0, 1000.0, 10000.0])
        assert report.order_estimate == pytest.approx(2.0, abs=0.2)
        devs = [r.max_coeff_deviation for r in report.rows]
        assert devs[0] > devs[1] > devs[2]

    def test_root_converges(self):
        report = mer.euler_limit_check(M321, 1.0, [100.0, 1000.0, 10000.0])
        devs = [r.root_deviation for r in report.rows]
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 1e-6

    def test_equal_mass_root_deviation_tiny(self):
        m = MassTriple(1.0, 1.0, 1.0)
        report = mer.euler_limit_check(m, 1.0, [1000.0, 10000.0])
        assert all(r.root_deviation < 1e-4 for r in report.rows)


def dict_pair_quantities(masses, shape, pot, R):
    """A literal transcription of the earlier pair_quantities, with F and
    G kept in dicts."""
    shape.validate()
    m = masses.as_tuple()
    th = (0.0, shape.theta21, shape.theta31)
    F = {}
    G = {}
    for i, j in ((0, 1), (1, 2), (2, 0)):
        d = th[j] - th[i]
        d2 = 2.0 * R.R * R.R * (1.0 - math.cos(d))
        F[(i, j)] = -2.0 * m[i] * m[j] * math.sin(d) * pot.u_prime(d2)
        G[(i, j)] = m[i] * m[j] * math.sin(2.0 * d)
    return (F[(0, 1)], F[(1, 2)], F[(2, 0)], G[(0, 1)], G[(1, 2)], G[(2, 0)])


def test_pair_quantities_match_dict_version_bitwise():
    rng = random.Random(77)
    nan_pot = PairPotential(u=lambda d2: math.nan, u_prime=lambda d2: math.nan)
    seen = set()
    for n in range(1500):
        R = SphereRadius(rng.choice([0.5, 1.0, 3.0]))
        pot = [cotangent_potential(R), repulsive(cotangent_potential(R)),
               nan_pot][n % 3]
        masses = MassTriple(*(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3)))
        a = rng.uniform(1e-3, math.pi - 1e-3)
        x = rng.uniform(1e-3, 2.0 * math.pi - 1e-3)
        if n % 2:  # next to a boundary: a collision or an antipode
            bound = rng.choice([0.0, a, math.pi, a + math.pi])
            x = bound + rng.choice([1e-9, 1e-11]) * (1.0 if bound == 0.0
                                                      else rng.choice([1.0, -1.0]))
        shape = mer.Shape(a, x)
        expect = _outcome(lambda: dict_pair_quantities(masses, shape, pot, R))
        got = _outcome(lambda: dataclasses.astuple(
            mer.pair_quantities(masses, shape, pot, R)))
        assert got == expect, (n, a, x)
        if "nan" in expect:
            seen.add("nan")
        else:
            seen.add(expect[1] if expect[0] == "SingularityError" else expect[0])
    assert {"ok", "nan", "collision", "antipodal"} <= seen
