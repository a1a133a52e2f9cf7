import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sphere3body import euler_limit, kernels
from sphere3body import meridian as mer
from sphere3body.dynamics import MassTriple, backward_error
from sphere3body.geometry import SphereRadius
from sphere3body.grid import _count_block, _normalised_terms, _split_samples
from sphere3body.integrator import configuration_residuals
from sphere3body.potential import (
    PairPotential,
    SingularityError,
    cotangent_potential,
    repulsive,
)

import oracles
from test_dynamics import _outcome
from test_kernels import REGION_SIGNS, g_reference
from test_region_roots import NAMED

R1 = SphereRadius(1.0)
POT = cotangent_potential(R1)
M321 = MassTriple(3.0, 2.0, 1.0)
# (a, masses, solution count) with a solution of amplitude A ~ 2e-4
SMALL_AMPLITUDE = [
    (1.2302, (0.3183, 0.2462, 0.2003), 6),
    # solve-pool entry 856 of the benchmark
    (1.8202418324125238,
     (0.5889264248276225, 0.5475259581794261, 0.2835682163913604), 4),
]

# (a, masses) near a = pi/2 where the gates that came before this one
# reported roots 6e-9 to 7e-8 rad from an RE (x ~ 3.14182 at the first
# input, x ~ 3.14148 and 6.28307 at the third) or dropped roots within
# 1e-11 rad of one (x ~ 1.5708 and 4.71239 at the second)
NEAR_PI_OVER_2 = [
    (1.5710047, (0.5472, 6.2022, 5.3968)),
    (1.571004144129151,
     (8.977753128404313, 0.0022578195460126993, 929.3664701741169)),
    (1.5707648126605667,
     (4.398655551487779, 6.432469490862524, 1.682413136053711)),
]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _tangential(v, n):
    d = sum(p * q for p, q in zip(v, n))
    return tuple(p - d * q for p, q in zip(v, n))


def cartesian_defect(thetas, omega_squared, masses):
    """Largest relative defect of the rigid rotation about the z-axis of
    three bodies on the meridian phi = 0 of the unit sphere, under the
    cotangent potential, in Cartesian coordinates: per body the
    tangential gravity plus m w^2 rho against the sum of the magnitudes
    of its terms, and, for w^2 > 0, the planar angular momentum against
    sum(m). The force of body i on body k is m_k m_i r_i / sin^3(sigma),
    with sin(sigma) from a cross product; no algebra is shared with the
    package."""
    w2 = omega_squared or 0.0  # None for a fixed point
    r = [(math.sin(t), 0.0, math.cos(t)) for t in thetas]
    worst = 0.0
    for k in range(3):
        terms = [_tangential((w2 * masses[k] * r[k][0], 0.0, 0.0), r[k])]
        for i in range(3):
            if i != k:
                sin_s = math.hypot(*_cross(r[k], r[i]))
                c = masses[k] * masses[i] / sin_s ** 3
                terms.append(_tangential(tuple(c * v for v in r[i]), r[k]))
        total = [sum(t[j] for t in terms) for j in range(3)]
        worst = max(worst, math.hypot(*total) / sum(math.hypot(*t) for t in terms))
    if w2 > 0.0:
        lx = sum(m * _cross(rk, (-rk[1], rk[0], 0.0))[0] for m, rk in zip(masses, r))
        worst = max(worst, abs(lx) / sum(masses))
    return worst


def cartesian_defect_in_x(thetas, omega_squared, masses, step=1e-6):
    """cartesian_defect as a distance in x: its ratio to the defect
    after moving body 3 by step, times step."""
    moved = (thetas[0], thetas[1], thetas[2] + step)
    return step * (cartesian_defect(thetas, omega_squared, masses)
                   / cartesian_defect(moved, omega_squared, masses))


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

    def test_region_of_nan_is_in_no_region(self):
        with pytest.raises(ValueError, match="outside"):
            mer.region_of(math.nan, 0.5)


class TestShape:
    def test_validate_rejects_singular(self):
        with pytest.raises(ValueError):
            mer.Shape(0.5, 0.5).validate()
        with pytest.raises(ValueError):
            mer.Shape(0.5, math.pi).validate()
        with pytest.raises(ValueError):
            mer.Shape(-0.1, 1.0).validate()

    @pytest.mark.parametrize("theta31", [0.0, -0.5, 2.0 * math.pi, 7.0, math.nan])
    def test_validate_rejects_theta31_outside_the_circle(self, theta31):
        with pytest.raises(ValueError, match="theta31 must lie in"):
            mer.Shape(0.5, theta31).validate()

    @pytest.mark.parametrize("theta31", [2.0 * math.pi - 1e-13, 2.0 * math.pi - 5e-13])
    def test_validate_rejects_theta31_just_below_two_pi(self, theta31):
        # 2 pi is region IV's singular end, as 0 is region I's: there g's
        # ratio equations divide by zero (omega^2 came out 3.1e26 with
        # residual inf before validate rejected it)
        with pytest.raises(ValueError, match="sits on a singular point"):
            mer.Shape(0.5, theta31).validate()
        with pytest.raises(ValueError, match="sits on a singular point"):
            mer.solution_from_shape(mer.Shape(0.5, theta31), M321)
        mer.Shape(0.5, 2.0 * math.pi - 1e-11).validate()

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
        t1, t2, t3 = oracles.shape_to_configurations(M321, shape, 1)
        assert t2 - t1 == pytest.approx(shape.theta21)
        assert t3 - t1 == pytest.approx(shape.theta31)

    @pytest.mark.parametrize("s", [1, -1])
    def test_lift_makes_w_equal_s_times_a(self, s):
        # W = sum m_k e^(2i theta_k) = s * A: Im W, the planar angular
        # momentum, vanishes
        shape = mer.Shape(0.6, 2.2)
        thetas = oracles.shape_to_configurations(M321, shape, s)
        W = sum(m * complex(math.cos(2.0 * t), math.sin(2.0 * t))
                for m, t in zip(M321, thetas))
        A = oracles.amplitude_A(M321, shape)
        assert abs(W - s * A) < 1e-14 * sum(M321)

    def test_branch_flip_is_quarter_turn(self):
        shape = mer.Shape(0.6, 2.2)
        plus = oracles.shape_to_configurations(M321, shape, 1)
        minus = oracles.shape_to_configurations(M321, shape, -1)
        d = (minus[0] - plus[0]) / (math.pi / 2.0)
        assert abs(d - round(d)) < 1e-10
        assert round(d) % 2 == 1  # odd multiple of pi/2

    def test_amplitude_zero_has_no_lift(self):
        m = MassTriple(1.0, 1.0, 1.0)
        shape = mer.Shape(2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
        assert oracles.amplitude_A(m, shape) < 1e-12
        assert oracles.shape_to_configurations(m, shape, 1) is None
        assert oracles.shape_to_configurations(m, shape, -1) is None
        # 3.5e-8 off the equilateral shape the G values differ (Case 1),
        # but A ~ 7e-8 is under the A-zero bound: an A-zero fixed point
        near = mer.Shape(shape.theta21, shape.theta31 + 3.5e-8)
        assert oracles.shape_to_configurations(m, near, 1) is None
        sol = mer.solution_from_shape(near, m)
        assert sol.case_tag == mer.A_ZERO_FIXED_POINT
        assert sol.s == 0 and sol.omega_squared is None and sol.is_fixed_point
        assert sol.thetas == (0.0, near.theta21, near.theta31)

    def test_antipodal_lift(self):
        fixed = oracles.case4_fixed_point(MassTriple(1.0, 1.0, 1.0))
        assert fixed.thetas == (0.0, fixed.shape.theta21, fixed.shape.theta31)
        for sol in mer.find_meridian_rotators(math.pi / 4, M321) + [fixed]:
            for t, ta in zip(sol.thetas, sol.thetas_alt):
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
        # an arbitrary shape does not satisfy both ratio equations: the
        # gate rejects its lift
        sol = mer.solution_from_shape(mer.Shape(1.0, 2.0), M321)
        assert sol.residual_max > mer.RESIDUAL_TOL


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
                s.thetas_alt, (0.0, 0.0, 0.0), omega, M321, POT
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

    @pytest.mark.parametrize("a, m, count", SMALL_AMPLITUDE)
    def test_small_amplitude_lift(self, a, m, count):
        # a solution with A ~ 2e-4, where the rounding of the lift grows
        # like (m1+m2+m3)/A: the residual gate alone judges it
        masses = MassTriple(*m)
        mirror = MassTriple(m[1], m[0], m[2])
        sols = mer.find_meridian_rotators(a, masses)
        mirror_sols = mer.find_meridian_rotators(a, mirror)
        assert len(sols) == len(mirror_sols) == count
        assert min(oracles.amplitude_A(masses, s.shape) for s in sols) < 3e-4
        # swapping m1 and m2 maps x to a - x (mod 2 pi)
        mapped = sorted((a - s.x) % (2.0 * math.pi) for s in sols)
        assert mapped == pytest.approx(sorted(s.x for s in mirror_sols), abs=1e-7)
        for ms, found in ((masses, sols), (mirror, mirror_sols)):
            for s in found:
                t1, t2, t3 = s.thetas
                assert t2 - t1 == pytest.approx(a, abs=1e-12)
                assert t3 - t1 == pytest.approx(s.x, abs=1e-12)
                gate = 1e-9 * max(1.0, s.omega_squared) * sum(m)
                res = configuration_residuals(
                    s.thetas_alt, (0.0, 0.0, 0.0),
                    math.sqrt(s.omega_squared), ms, POT)
                assert np.max(np.abs(res)) < gate

    @pytest.mark.parametrize(
        "a, m", [(a, (nu1, nu2, 1.0)) for a, nu1, nu2 in NAMED]
        + [(a, m) for a, m, _ in SMALL_AMPLITUDE])
    def test_gate_rejects_rotated_lifts(self, a, m):
        # turning every theta by delta keeps the shape and turns
        # W = sum m_k e^(2i theta_k) = s * A by 2 * delta: pi/2 gives the
        # wrong branch -s, and other deltas a nonzero Im W, the planar
        # angular momentum. The gate must reject each, so it alone checks
        # what the lift promises.
        for ms in (MassTriple(*m), MassTriple(m[1], m[0], m[2])):
            for s in mer.find_meridian_rotators(a, ms):
                for delta in (math.pi / 2, 0.1, 1e-6):
                    turned = tuple(t + delta for t in s.thetas)
                    err = backward_error(turned, s.omega_squared, ms, POT)
                    assert err > mer.RESIDUAL_TOL, (s.x, delta)

    def test_gate_matches_cartesian_check_near_pi_over_2(self):
        # near a = pi/2 roots sit near collisions and antipodal pairs,
        # where the raw residual tells right from wrong solutions badly. A
        # root is reported exactly when its lift is within RESIDUAL_TOL
        # radians of x of an RE by the Cartesian check
        rng = random.Random(20221018)
        inputs = [(math.pi / 2 + rng.uniform(-1e-3, 1e-3),
                   tuple(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3)))
                  for _ in range(150)] + NEAR_PI_OVER_2
        kept = dropped = 0
        for a, m in inputs:
            masses = MassTriple(*m)
            reported = {s.x for s in mer.find_meridian_rotators(a, masses)}
            for x in (x for r in mer._scan_roots(a, masses.nu1, masses.nu2) for x in r):
                try:
                    sol = mer.solution_from_shape(mer.Shape(a, x), masses)
                except SingularityError:
                    assert x not in reported
                    continue
                good = cartesian_defect_in_x(sol.thetas, sol.omega_squared, m) <= 1e-9
                assert (x in reported) == good, (a, m, x, sol.residual_max)
                kept += good
                dropped += not good
        assert kept > 800 and dropped > 10

    def test_custom_potential_is_solved_through_its_ratio_equation(self, monkeypatch):
        # a Newton-like potential is solved through its ratio equation,
        # never through g
        newton = PairPotential(u=lambda d2: -d2 ** -0.5,
                               u_prime=lambda d2: 0.5 * d2 ** -1.5)

        def solve(pot):
            return [(s.x, s.region, s.omega_squared, s.residual_max)
                    for s in mer.find_meridian_rotators(math.pi / 6, M321, pot)]

        cotangent = solve(POT)
        monkeypatch.setattr(mer, "_scan_roots", None)
        custom = solve(newton)
        assert custom and custom != cotangent

    def test_generic_path_matches_reduced_path(self):
        # a cotangent clone whose u_prime records no sphere is solved by
        # sampling its ratio equation; it finds every root of g but the
        # tangent roots of Table 2 at |nu1 - nu2| = 4, where no sample
        # sees a sign change
        clone = PairPotential(POT.u, lambda d2: POT.u_prime(d2), POT.radius)
        assert not clone.reduced_g
        missing = []
        for a, nu1, nu2 in NAMED[:10]:  # the paper's named inputs
            m = MassTriple(nu1, nu2, 1.0)
            generic = mer.find_meridian_rotators(a, m, clone)
            assert all(type(s.x) is float for s in generic)
            for r in mer.find_meridian_rotators(a, m):
                near = [s for s in generic if s.region == r.region
                        and abs(s.x - r.x) <= 1e-12]
                assert len(near) <= 1
                if near:
                    generic.remove(near[0])
                else:
                    missing.append((a, nu1 - nu2, r.region))
            assert generic == []
        assert missing == [(math.pi / 2, -4.0, "IV"), (math.pi / 2, 4.0, "II")]

    def test_reduced_g_is_the_cotangent_family(self):
        assert POT.reduced_g and repulsive(POT).reduced_g
        assert not PairPotential(u=abs, u_prime=abs).reduced_g
        # reduced_g is read from u_prime, never set
        assert PairPotential._fields == ("u", "u_prime", "radius")
        with pytest.raises(AttributeError):
            POT.reduced_g = False

    def test_larger_radius_scales_omega(self):
        # the radius reaches the solver through the potential alone: the
        # same shapes and lifts, and omega^2 ~ 1/R^3
        for flip in (lambda p: p, repulsive):
            unit_pot = flip(cotangent_potential(R1))
            unit = mer.find_meridian_rotators(math.pi / 6, M321, unit_pot)
            unit_eq = oracles.equilateral_rotator(M321, unit_pot)
            for R in (0.5, 2.0, 1000.0):
                pot = flip(cotangent_potential(SphereRadius(R)))
                scaled = mer.find_meridian_rotators(math.pi / 6, M321, pot)
                assert len(scaled) == len(unit) == 6
                for u, s in zip(unit, scaled):
                    assert s.x.hex() == u.x.hex()
                    assert [t.hex() for t in s.thetas] == [t.hex() for t in u.thetas]
                    assert s.omega_squared * R ** 3 == pytest.approx(
                        u.omega_squared, rel=1e-12)
                eq = oracles.equilateral_rotator(M321, pot)
                assert eq.residual_max <= mer.RESIDUAL_TOL
                assert eq.omega_squared * R ** 3 == pytest.approx(
                    unit_eq.omega_squared, rel=1e-12)


class TestCounting:
    def test_scan_count_rejects_a_above_pi(self):
        # it counted (1, 0, 1, 0) roots on regions that run backwards past pi
        with pytest.raises(ValueError, match="a must lie in"):
            oracles.count_rotators_scan(4.0, 2.0, 1.0)

    def test_scan_count_rejects_nan_a(self):
        # it raised IndexError
        with pytest.raises(ValueError, match="a must lie in"):
            oracles.count_rotators_scan(math.nan, 2.0, 1.0)

    @pytest.mark.parametrize(
        "diff,expected",
        [(-5.0, (1, 0, 1, 2)), (-4.0, (1, 0, 1, 1)), (0.0, (1, 0, 1, 0)),
         (4.0, (1, 1, 1, 0)), (5.0, (1, 2, 1, 0))],
    )
    def test_count_pi_over_2_closed_form(self, diff, expected):
        assert oracles.count_pi_over_2(diff) == expected

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
        scan = oracles.count_rotators_scan(math.pi / 2, nu1, nu2)
        assert scan == oracles.count_pi_over_2(diff)

    def test_grid_counter_matches_scan(self):
        a = math.pi / 6
        nu1s = [1.0, 3.0, 6.0]
        nu2s = [2.0, 5.0]
        grid = sum(mer.count_rotators_grid_regions(a, nu1s, nu2s).values())
        for i, n1 in enumerate(nu1s):
            for j, n2 in enumerate(nu2s):
                assert grid[i, j] == oracles.count_rotators_scan(a, n1, n2).total

    # per-region counts stored from an earlier version of the counters:
    # the named paper cases plus seeded random inputs, and a 10x10 grid
    with open(Path(__file__).parent / "data" / "scan_counts.json") as fh:
        STORED = json.load(fh)

    @pytest.mark.parametrize("case", STORED["scan"], ids=lambda c: c["case"])
    def test_scan_counts_match_stored(self, case):
        counts = oracles.count_rotators_scan(case["a"], case["nu1"], case["nu2"])
        assert list(counts) == case["counts"]

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
        lo, hi = oracles.region_bounds(region, a)
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
        lo, hi = oracles.region_bounds(mer.REGIONS[k % 4], a)
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

    def test_nu1_order_is_the_callers(self):
        # unsorted, reversed and repeated nu1 values, each against the
        # transcription (the rounded draw shifted by 1, as 0 is no ratio)
        rng = np.random.default_rng(7)
        nu = rng.uniform(0.1, 10.0, 30)
        for nu1 in (nu, np.sort(nu)[::-1], np.repeat(nu[:6], 4),
                    rng.choice(np.round(nu, 0), 25) + 1.0):
            for a in (0.4, math.pi / 2, 2.8):
                got = mer.count_rotators_grid_regions(a, nu1, nu[:17], 50)
                want = broadcast_grid_regions(a, nu1, nu[:17], 50)
                for region in mer.REGIONS:
                    assert np.array_equal(got[region], want[region])

    def test_nu_that_overflow_g_are_rejected(self):
        # as count_rotators_scan does, before any sample of g is taken
        for nu1, nu2 in ((1.7e308, 1.7e308), (1.0, -1.7e308), (math.inf, 1.0)):
            with pytest.raises(ValueError, match="too large: g overflows"):
                mer.count_rotators_grid_regions(1.0, [1.0, nu1], [nu2], 400)
        assert mer.count_rotators_grid_regions(1.0, [], [], 400)["I"].shape == (0, 0)

    # inputs it cannot answer, each counted as if it could before
    @pytest.mark.parametrize("a,nu1,nu2,samples,message", [
        (4.0, 1.0, 1.0, 400, "a must lie in"),
        (-0.5, 1.0, 1.0, 400, "a must lie in"),
        (1.0, -1.0, 1.0, 400, "must be positive"),
        (1.0, 0.0, 0.0, 400, "must be positive"),
        (1.0, 1.0, 1.0, 1, "at least 2"),
    ], ids=["a=4", "a=-0.5", "nu1=-1", "nu=0", "samples=1"])
    def test_unanswerable_inputs_are_rejected(self, a, nu1, nu2, samples, message):
        with pytest.raises(ValueError, match=message):
            mer.count_rotators_grid_regions(a, [nu1], [nu2], samples)

    # regions I and III (II and IV near pi) no wider than 2 * BOUNDARY_TOL
    # have no room for samples, and the scan finds no roots in them
    @pytest.mark.parametrize("a", [1e-9, 1.5e-8, math.pi - 1e-9])
    def test_narrow_regions_match_scan(self, a):
        nus = [0.5, 1.0, 3.0]
        grid = mer.count_rotators_grid_regions(a, nus, nus)
        for i, nu1 in enumerate(nus):
            for j, nu2 in enumerate(nus):
                scan = oracles.count_rotators_scan(a, nu1, nu2)
                assert tuple(int(grid[r][i, j]) for r in mer.REGIONS) == scan


def sign_changes(P, Q, S, nu1, nu2):
    """Neighbouring samples of (nu1 * P + nu2 * Q) + S strictly below and
    above zero, counted over the whole (nu1, nu2, samples) grid."""
    g = (np.asarray(nu1)[:, None, None] * P
         + np.asarray(nu2)[None, :, None] * Q) + S
    neg, pos = g < 0.0, g > 0.0
    return np.count_nonzero(neg[..., :-1] & pos[..., 1:]
                            | pos[..., :-1] & neg[..., 1:], axis=2)


def guess_misses(P, Q, S, nu1, nu2):
    """How many (nu2, sample) thresholds the root guess
    searchsorted(nu1, -(nu2 * Q + S) / P) misses, by a full count of the
    samples of g below zero and at most zero."""
    g = (np.asarray(nu1)[:, None, None] * P
         + np.asarray(nu2)[None, :, None] * Q) + S
    h = np.where(P < 0.0, -g, g)
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.searchsorted(nu1, -(np.multiply.outer(nu2, Q) + S) / P)
    return int(np.count_nonzero(guess != np.count_nonzero(h < 0.0, axis=0))
               + np.count_nonzero(guess != np.count_nonzero(h <= 0.0, axis=0)))


def count_block(nu1, nu2, P, Q, S):
    """_count_block on raw g terms, sign-normalised and classified against
    the grid's corners as the counter does."""
    *terms, turns = _normalised_terms(P, Q, S)
    return _count_block(nu1, nu2, turns, *_split_samples(nu1, nu2, *terms))


class TestGridThresholds:
    """The counter's split of samples at the corners of the grid, and its
    slow path: root guesses that the check at the guess rejects, settled
    by bisection, on hand-built g terms."""

    @staticmethod
    def mixed(P, Q, S, nu1, nu2):
        """The samples that _split_samples leaves to the root guess, which
        are those where g is not of one sign on the whole grid."""
        P, Q, S, nu1, nu2 = (np.asarray(v, dtype=float) for v in (P, Q, S, nu1, nu2))
        *terms, _ = _normalised_terms(P, Q, S)
        mixed = _split_samples(nu1, nu2, *terms)[1].tolist()
        g = (nu1[:, None, None] * P + nu2[None, :, None] * Q) + S
        assert mixed == np.flatnonzero(~(g > 0.0).all(axis=(0, 1))
                                       & ~(g < 0.0).all(axis=(0, 1))).tolist()
        return mixed

    @staticmethod
    def check(P, Q, S, nu1, nu2):
        P, Q, S = (np.asarray(v, dtype=float) for v in (P, Q, S))
        nu1, nu2 = np.asarray(nu1, dtype=float), np.asarray(nu2, dtype=float)
        got = count_block(nu1, nu2, P, Q, S)
        assert got.shape == (len(nu2), len(nu1))
        assert np.array_equal(got.T, sign_changes(P, Q, S, nu1, nu2))
        return guess_misses(P, Q, S, nu1, nu2)

    def test_p_zero(self):
        # g constant in nu1 at the middle samples, below, at and above
        # zero: the guess is +-inf or NaN there
        P = [1.0, 0.0, 0.0, -0.0, 0.0, -2.0, 0.0, 1.0]
        Q = [0.0, 1.0, 1.0, 1.0, -1.0, 0.5, -1.0, 0.0]
        S = [-3.0, -2.0, 1.0, -1.0, 2.0, 1.0, 1.5, -1.0]
        nu1 = [0.5, 1.0, 2.0, 3.0, 3.0, 4.0]
        assert self.check(P, Q, S, nu1, [1.0, 2.0, 3.0]) > 0

    def test_exact_zeros_on_the_grid(self):
        # g vanishes exactly at grid values, some of them repeated (nu1 = 2
        # at the first sample), so its zero run spans several indices
        P = [1.0, -1.0, 2.0, -0.5, 1.0]
        Q = [0.0, 1.0, -1.0, 0.0, 0.0]
        S = [-2.0, 1.0, -2.0, 1.0, -1.0]
        nu1 = [0.5, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0]
        assert self.check(P, Q, S, nu1, [1.0, 2.0]) > 0

    def test_guesses_off_by_rounding(self):
        # nu1 a few ulps either side of the real root of g at each sample:
        # the guess and the rounded g disagree on some of them
        rng = np.random.default_rng(11)
        misses = 0
        for _ in range(20):
            P, Q, S = rng.uniform(-2.0, 2.0, (3, 12))
            nu2 = rng.uniform(0.1, 10.0, 3)
            root = -(nu2[0] * Q[4] + S[4]) / P[4]
            nu1 = np.sort(root + np.arange(-8, 9) * np.spacing(root))
            misses += self.check(P, Q, S, nu1, nu2)
        assert misses > 0

    def test_underflowing_products_count(self):
        # the neighbour product of g = -1e-200 and 1e-200 underflows to
        # zero: a product rule would miss these sign changes
        P = np.array([1e-200, -1e-200, 1e-200])
        Q = np.zeros(3)
        S = np.array([-2e-200, 1e-200, -3e-200])
        nu1, nu2 = np.array([1.0, 2.5, 4.0]), np.array([1.0])
        self.check(P, Q, S, nu1, nu2)
        g = (nu1[:, None] * P + nu2[0] * Q) + S
        assert np.all(g[:, :-1] * g[:, 1:] == 0.0)
        assert count_block(nu1, nu2, P, Q, S).tolist() == [[0, 1, 2]]

    def test_random_blocks_match_full_count(self):
        # hand-built blocks with P turning sign between neighbours, exact
        # zeros of g on repeated nu1, P = 0.0 and -0.0 at a turn and 1 to
        # 3 samples: every sign-change interval rule of _count_block, each
        # against the full count
        rng = np.random.default_rng(15)
        turns = 0
        for trial in range(300):
            samples = int(rng.integers(1, 4)) if trial % 4 == 0 else \
                int(rng.integers(4, 13))
            # small integers make exact zeros of g on the grid common
            P = rng.integers(-3, 4, samples) * rng.choice([1.0, 0.5])
            Q = rng.integers(-2, 3, samples).astype(float)
            S = rng.integers(-6, 7, samples).astype(float)
            if samples > 2 and trial % 3 == 0:
                k = int(rng.integers(1, samples - 1))
                P[k - 1], P[k], P[k + 1] = 1.0, rng.choice([0.0, -0.0]), -1.0
            nu1 = np.sort(np.repeat(rng.integers(0, 8, 6) * 0.5,
                                    rng.integers(1, 4, 6)))
            if trial % 2:
                nu1 = np.sort(rng.uniform(-4.0, 4.0, int(rng.integers(1, 20))))
            nu2 = rng.integers(0, 5, int(rng.integers(1, 6))) * 0.5
            self.check(P, Q, S, nu1, nu2)
            turns += np.count_nonzero((P[:-1] < 0.0) != (P[1:] < 0.0))
        assert turns > 100

    def test_exact_zero_at_a_corner_is_mixed(self):
        # h = 0.0 exactly at the least corner (samples 0 and 2; sample 2
        # has Q < 0, so that corner is at the largest nu2) and at the
        # largest (samples 4 and 6), next to samples of one sign: a zero
        # there counted as h > 0 (or h < 0) adds a sign change
        P = [1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 2.0, -1.0]
        Q = [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
        S = [-1.0, -10.0, 1.0, 10.0, 3.0, 10.0, -8.0, -10.0]
        nu1, nu2 = [1.0, 2.0, 3.0], [1.0, 1.5, 2.0]
        self.check(P, Q, S, nu1, nu2)
        assert self.mixed(P, Q, S, nu1, nu2) == [0, 2, 4, 6]

    def test_one_sign_blocks(self):
        # every sample has one sign over the whole grid (P turning between
        # some of them, Q of both signs): no sample is mixed
        P = [1.0, -1.0, 2.0, 0.5, -3.0, -1.0, 1.0]
        Q = [1.0, -2.0, -1.0, 0.0, 2.0, 1.0, -1.0]
        S = [1.0, 30.0, -40.0, -10.0, 50.0, -20.0, 5.0]
        nu1, nu2 = [0.5, 1.0, 4.0, 4.0, 7.0], [0.25, 2.0, 5.0]
        assert self.mixed(P, Q, S, nu1, nu2) == []
        self.check(P, Q, S, nu1, nu2)
        got = count_block(*map(np.array, (nu1, nu2, P, Q, S)))
        assert got.tolist() == [[4] * 5] * 3
        # below zero everywhere, and above zero everywhere
        for S in ([-100.0] * 7, [100.0] * 7):
            assert self.mixed(P, [0.0] * 7, S, nu1, nu2) == []
            self.check(P, [0.0] * 7, S, nu1, nu2)

    def test_signed_zero_terms_at_one_sign_samples(self):
        # P and Q = +-0.0 at samples where h = S has one sign, at a turn
        # of P's sign and next to it; h = 0.0 everywhere at the last
        # sample, which is mixed, as are those where h spans zero
        P = [1.0, 0.0, -0.0, -1.0, -0.0, 0.0, 1.0, 0.0]
        Q = [0.0, -0.0, 0.0, 1.0, -0.0, 0.0, -1.0, -0.0]
        S = [-2.0, 1.0, -1.0, 3.0, 2.0, -3.0, 4.0, 0.0]
        for nu1 in ([1.0, 2.0, 3.0], [-3.0, -1.0, 2.0]):
            nu2 = [0.5, 1.0]
            mixed = self.mixed(P, Q, S, nu1, nu2)
            assert 0 in mixed and 7 in mixed and not {1, 2, 4, 5} & set(mixed)
            self.check(P, Q, S, nu1, nu2)

    def test_one_value_grids(self):
        # one nu1 and one nu2: both corners are the one cell, where h is
        # below, at and above zero
        P = [1.0, -1.0, 2.0, 1.0, -0.5, 1.0]
        Q = [1.0, 1.0, -1.0, 0.0, 2.0, -1.0]
        S = [-3.0, -3.0, 1.0, -2.0, -1.0, 0.5]
        for nu1, nu2 in (([2.0], [1.0]), ([1.0], [1.0]), ([2.0], [0.5, 1.0, 3.0]),
                         ([0.5, 2.0, 4.0], [1.0])):
            self.check(P, Q, S, nu1, nu2)
        assert self.mixed(P, Q, S, [2.0], [1.0]) == [0, 3, 4]
        assert count_block(*map(np.array, ([2.0], [1.0], P, Q, S))).tolist() == [[1]]

    def test_negative_nu1(self):
        # sorted nu1 below zero and across it, P of both signs: the least
        # corner is at the most negative nu1
        rng = np.random.default_rng(23)
        mixed = uniform = 0
        for _ in range(100):
            P = rng.integers(-3, 4, 9) * 0.5
            Q = rng.integers(-2, 3, 9).astype(float)
            S = rng.integers(-12, 13, 9).astype(float)
            nu1 = np.sort(rng.integers(-8, 3, int(rng.integers(1, 7))) * 0.5)
            nu2 = rng.integers(0, 5, int(rng.integers(1, 4))) * 0.5
            self.check(P, Q, S, nu1, nu2)
            k = len(self.mixed(P, Q, S, nu1, nu2))
            mixed, uniform = mixed + k, uniform + 9 - k
        assert mixed > 100 and uniform > 100


class TestSpecialFamilies:
    def test_equilateral_unequal_masses(self):
        sol = oracles.equilateral_rotator(M321)
        assert sol.s == -1
        A = oracles.amplitude_A(M321, sol.shape)
        uprime = POT.u_prime(3.0)
        assert sol.omega_squared == pytest.approx(-4.0 * A * uprime, rel=1e-13)
        assert sol.residual_max < 1e-10

    def test_equilateral_branch_is_the_sign_of_u_prime(self):
        # u = -1/D has U' > 0 with no repulsive() wrapper: the branch
        # follows U'(3 R^2), and the rotator is the repulsive copy's of
        # u = 1/D bit for bit (negating U' is exact)
        inverse = PairPotential(u=lambda d2: d2 ** -0.5,
                                u_prime=lambda d2: -0.5 * d2 ** -1.5)
        pushing = PairPotential(u=lambda d2: -d2 ** -0.5,
                                u_prime=lambda d2: 0.5 * d2 ** -1.5)
        for m in (M321, MassTriple(1.0, 2.0, 3.0), MassTriple(0.3, 5.0, 1.7)):
            pulled = oracles.equilateral_rotator(m, inverse)
            pushed = oracles.equilateral_rotator(m, pushing)
            assert pulled.s == -1 and pushed.s == 1
            assert pushed == oracles.equilateral_rotator(m, repulsive(inverse))
            assert pushed.omega_squared == pulled.omega_squared
            assert max(pulled.residual_max, pushed.residual_max) <= 1e-12
            for pot in (POT, repulsive(POT)):
                sol = oracles.equilateral_rotator(m, pot)
                assert sol.s == (-1 if pot.u_prime(3.0) < 0.0 else 1)
                assert sol.residual_max < 1e-10

    def test_equilateral_equal_masses_fixed_point(self):
        sol = oracles.equilateral_rotator(MassTriple(1.0, 1.0, 1.0))
        assert sol.is_fixed_point
        assert sol.case_tag == mer.A_ZERO_FIXED_POINT
        assert sol.residual_max < 1e-12

    def test_isosceles_special_angle_omega(self):
        # R^3 omega^2 = (16 A / 7) sqrt((13 + 16 sqrt(2)) / 7), s = +1
        rng = np.random.default_rng(42)
        for _ in range(5):
            m = MassTriple(*rng.uniform(0.5, 5.0, size=3))
            sols = oracles.isosceles_rotators(m)
            small = [s for s in sols if s.x == pytest.approx(
                math.acos(oracles.SPECIAL_ISOSCELES_COS_A) / 2.0, abs=1e-9)]
            assert len(small) == 1
            sol = small[0]
            A = oracles.amplitude_A(m, sol.shape)
            expected = (16.0 * A / 7.0) * math.sqrt((13.0 + 16.0 * math.sqrt(2.0)) / 7.0)
            assert sol.s == 1
            assert sol.omega_squared == pytest.approx(expected, rel=1e-10)

    def test_isosceles_equal_nu_any_angle(self):
        m = MassTriple(2.0, 2.0, 1.0)
        sols = oracles.isosceles_rotators(m, 1.1)
        xs = sorted(s.x for s in sols)
        assert xs[0] == pytest.approx(0.55, abs=1e-12)
        assert xs[1] == pytest.approx(0.55 + math.pi, abs=1e-12)
        for s in sols:
            assert s.residual_max < 1e-10

    def test_exceptional_angles_satisfy_equalities(self):
        for nu in (0.1, 0.5, 1.0, 2.0, 10.0):
            for row in oracles.exceptional_case_angles(mer.CASE2, nu):
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
            for row in oracles.exceptional_case_angles(mer.CASE3, nu):
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
        for row in oracles.exceptional_case_angles(mer.CASE2, nu):
            a = row.theta_pair
            sols = mer.find_meridian_rotators(a, MassTriple(nu, 1.7, 1.0))
            x = (a + row.theta_other) % (2.0 * math.pi)
            assert any(s.case_tag == mer.CASE2 and abs(s.x - x) <= 1e-12
                       for s in sols), (a, x, [(s.x, s.case_tag) for s in sols])
        for row in oracles.exceptional_case_angles(mer.CASE3, nu):
            a = row.theta_pair
            sols = mer.find_meridian_rotators(a, MassTriple(1.3, nu, 1.0))
            x = -row.theta_other % (2.0 * math.pi)
            assert any(s.case_tag == mer.CASE3 and abs(s.x - x) <= 1e-12
                       for s in sols), (a, x, [(s.x, s.case_tag) for s in sols])

    @pytest.mark.parametrize("a", [0.0, -0.3, math.pi, 4.0, math.nan])
    def test_isosceles_rejects_a_outside_range(self, a):
        with pytest.raises(ValueError, match="a must lie in"):
            oracles.isosceles_rotators(M321, a)

    def test_exceptional_angles_reject_bad_input(self):
        with pytest.raises(ValueError, match="which must be"):
            oracles.exceptional_case_angles(mer.CASE1, 2.0)
        for nu in (0.0, -1.0):
            with pytest.raises(ValueError, match="mass ratio must be positive"):
                oracles.exceptional_case_angles(mer.CASE2, nu)

    def test_case4_only_for_equal_masses(self):
        assert oracles.case4_fixed_point(M321) is None
        sol = oracles.case4_fixed_point(MassTriple(2.0, 2.0, 2.0))
        assert sol is not None
        assert sol.is_fixed_point
        assert sol.residual_max < 1e-12


class TestEulerLimit:
    def test_quintic_coefficients(self):
        assert euler_limit.euler_quintic_coefficients(M321) == [5, 13, 11, -5, -7, -3]

    def test_equal_mass_root_is_one(self):
        m = MassTriple(1.0, 1.0, 1.0)
        coeffs = euler_limit.euler_quintic_coefficients(m)
        assert euler_limit._quintic_positive_root(coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_quintic_without_positive_root_is_an_error(self):
        # roots -1 and -2 +- i
        with pytest.raises(ValueError, match="no positive real root"):
            euler_limit._quintic_positive_root([1.0, 5.0, 9.0, 5.0])

    def test_convergence_order_two(self):
        report = euler_limit.euler_limit_check(M321, 1.0, [100.0, 1000.0, 10000.0])
        assert report.order_estimate == pytest.approx(2.0, abs=0.2)
        devs = [r.max_coeff_deviation for r in report.rows]
        assert devs[0] > devs[1] > devs[2]

    def test_root_converges(self):
        report = euler_limit.euler_limit_check(M321, 1.0, [100.0, 1000.0, 10000.0])
        devs = [r.root_deviation for r in report.rows]
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 1e-6

    def test_radius_with_r21_over_r_outside_zero_pi_is_rejected(self):
        # r21 / R = 5 >= pi at R = 2: there is no a to solve at
        with pytest.raises(ValueError, match="a must lie in"):
            euler_limit.euler_limit_check(M321, 10.0, [2.0, 3.0])

    def test_equal_mass_root_deviation_tiny(self):
        m = MassTriple(1.0, 1.0, 1.0)
        report = euler_limit.euler_limit_check(m, 1.0, [1000.0, 10000.0])
        assert all(r.root_deviation < 1e-4 for r in report.rows)


def dict_pair_quantities(masses, shape, pot, R):
    """A literal transcription of pair_quantities, with F and G kept in
    dicts: F_ij = 2 m_i m_j U'(4 R^2 sin^2(d/2)) sin(d), d = t_i - t_j,
    and G_ij = m_i m_j sin(2 (t_j - t_i)), at thetas (0, theta21, theta31)."""
    shape.validate()
    m = masses
    th = (0.0, shape.theta21, shape.theta31)
    F = {}
    G = {}
    for i, j in ((0, 1), (1, 2), (2, 0)):
        d = th[i] - th[j]
        h = math.sin(0.5 * d)
        try:
            u = pot.u_prime(4.0 * R.R * R.R * h * h)
        except SingularityError as err:
            raise SingularityError(err.kind, err.d2, (i + 1, j + 1)) from None
        F[(i, j)] = 2.0 * m[i] * m[j] * u * math.sin(d)
        G[(i, j)] = m[i] * m[j] * math.sin(2.0 * (th[j] - th[i]))
    return (F[(0, 1)], F[(1, 2)], F[(2, 0)], G[(0, 1)], G[(1, 2)], G[(2, 0)])


def test_pair_quantities_match_dict_version_bitwise():
    rng = random.Random(77)
    seen = set()
    for n in range(1500):
        R = SphereRadius(rng.choice([0.5, 1.0, 3.0]))
        nan_pot = PairPotential(u=lambda d2: math.nan, u_prime=lambda d2: math.nan,
                                radius=R)
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
        got = _outcome(lambda: tuple(
            mer.pair_quantities(masses, shape, pot)))
        assert got == expect, (n, a, x)
        if "nan" in expect:
            seen.add("nan")
        else:
            seen.add(expect[1] if expect[0] == "SingularityError" else expect[0])
    # the chord keeps its digits next to a collision, so only antipodes
    # raise (test_pair_forces_near_collision_match_mpmath)
    assert {"ok", "nan", "antipodal"} <= seen


@pytest.mark.parametrize("x", [1e-9, 1.0 - 1e-9, 1.0 + 1e-9, 1e-7])
def test_pair_forces_near_collision_match_mpmath(x):
    # F_ij = m_i m_j sin(d) / |sin d|^3, d = t_j - t_i, for the cotangent
    # potential on the unit sphere, at the floats a and x to 60 digits
    mpmath = pytest.importorskip("mpmath")
    a = 1.0
    pq = mer.pair_quantities(M321, mer.Shape(a, x), POT)
    m = M321
    th = (0.0, a, x)
    with mpmath.workdps(60):
        for (i, j), got in zip(((0, 1), (1, 2), (2, 0)), (pq.F12, pq.F23, pq.F31)):
            d = mpmath.mpf(th[j]) - mpmath.mpf(th[i])
            ref = m[i] * m[j] * mpmath.sin(d) / abs(mpmath.sin(d)) ** 3
            assert abs((got - ref) / ref) < 1e-12, (x, (i + 1, j + 1), got)


def test_small_amplitude_matches_mpmath():
    # at the equal-mass equilateral shape W's terms cancel; 1e-6 off it
    # A ~ 2e-6 still keeps its digits
    mpmath = pytest.importorskip("mpmath")
    shape = mer.Shape(2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0 + 1e-6)
    with mpmath.workdps(60):
        ref = abs(1 + mpmath.expj(2 * mpmath.mpf(shape.theta21))
                  + mpmath.expj(2 * mpmath.mpf(shape.theta31)))
        got = oracles.amplitude_A(MassTriple(1.0, 1.0, 1.0), shape)
        assert abs((got - ref) / ref) < 1e-9


def test_antipodal_pair_is_labelled():
    with pytest.raises(SingularityError) as err:
        mer.pair_quantities(M321, mer.Shape(1.0, math.pi - 1e-9), POT)
    assert err.value.kind == "antipodal"
    assert err.value.pair == (3, 1)


# ------------------------------------------------------------------
# Differential test of the candidate chain: solution_from_shape and the
# special families against a literal transcription of the chain they
# replaced, pair_quantities -> amplitude_A -> the ratio equations
# (solve_omega_and_branch) -> the lift, which raised on an A-zero shape
# -> backward_error. omega^2 was 2*A*|ratio| (4*A*|U'| for the
# equilateral rotator); it is now (2*|ratio|)*A, the same float, as
# scaling by 2 or 4 is exact.


class _AZero(Exception):
    pass


def chain_classify_case(pq, masses):
    m1, m2, m3 = masses
    tol = mer.CASE_TOL * (m1 * m2 + m2 * m3 + m3 * m1)
    d1 = abs(pq.G12 - pq.G23) <= tol
    d2 = abs(pq.G31 - pq.G12) <= tol
    d3 = abs(pq.G23 - pq.G31) <= tol
    if d1 and d2 and d3:
        return mer.CASE4_FIXED_POINT
    if d1:
        return mer.CASE2
    if d2:
        return mer.CASE3
    return mer.CASE1


def chain_omega_and_branch(pq, masses, A):
    case = chain_classify_case(pq, masses)
    if case == mer.CASE4_FIXED_POINT:
        return 0, None, case
    ratios = []
    if case in (mer.CASE1, mer.CASE3):
        ratios.append((pq.F12 - pq.F23) / (pq.G12 - pq.G23))
    if case in (mer.CASE1, mer.CASE2):
        ratios.append((pq.F31 - pq.F12) / (pq.G31 - pq.G12))
    ratio = sum(ratios) / len(ratios)
    s = -1 if ratio < 0 else 1
    return s, 2.0 * A * abs(ratio), case


def chain_lift(masses, shape, s):
    m1, m2, m3 = masses
    if oracles.amplitude_A(masses, shape) <= mer.A_TOL * (m1 + m2 + m3):
        raise _AZero(shape)
    t21, t31 = shape.theta21, shape.theta31
    cos_part = m1 + m2 * math.cos(2.0 * t21) + m3 * math.cos(2.0 * t31)
    sin_part = m2 * math.sin(2.0 * t21) + m3 * math.sin(2.0 * t31)
    t1 = 0.5 * math.atan2(s * (-sin_part), s * cos_part)
    return (t1, t1 + t21, t1 + t31)


def chain_solution(shape, masses, s, omega_squared, case_tag, pot):
    thetas = (0.0, shape.theta21, shape.theta31)
    if omega_squared is not None:
        try:
            thetas = chain_lift(masses, shape, s)
        except _AZero:
            s, omega_squared, case_tag = 0, None, mer.A_ZERO_FIXED_POINT
    residual = backward_error(thetas, omega_squared or 0.0, masses, pot)
    return (shape.theta31, thetas, s, omega_squared, case_tag, residual)


def chain_from_shape(shape, masses, pot):
    pq = mer.pair_quantities(masses, shape, pot)
    A = oracles.amplitude_A(masses, shape)
    s, omega_squared, tag = chain_omega_and_branch(pq, masses, A)
    return chain_solution(shape, masses, s, omega_squared, tag, pot)


def chain_equilateral(masses, pot):
    shape = mer.Shape(2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    u_prime = pot.u_prime(3.0 * pot.radius.R * pot.radius.R)
    omega_squared = 4.0 * oracles.amplitude_A(masses, shape) * abs(u_prime)
    return chain_solution(shape, masses, -1 if u_prime < 0.0 else 1,
                          omega_squared, mer.CASE1, pot)


def chain_generic_roots(a, masses, pot):
    def h(x):
        pq = mer.pair_quantities(masses, mer.Shape(a, x), pot)
        return (pq.F12 - pq.F23) * (pq.G31 - pq.G12) - (pq.F31 - pq.F12) * (
            pq.G12 - pq.G23)

    roots = []  # one list per region
    for region in mer.REGIONS:
        roots.append([])
        lo, hi = oracles.region_bounds(region, a)
        lo += mer.GENERIC_BOUNDARY_GAP
        hi -= mer.GENERIC_BOUNDARY_GAP
        xs = np.linspace(lo, hi, mer.GENERIC_SCAN_SAMPLES).tolist()
        hs = [h(x) for x in xs]
        for i in range(mer.GENERIC_SCAN_SAMPLES - 1):
            if hs[i] * hs[i + 1] < 0.0:
                roots[-1].append(mer._bisect(h, xs[i], xs[i + 1], hs[i], hs[i + 1]))
    return roots


def _hex_fields(fields):
    x, thetas, s, omega_squared, case_tag, residual = fields
    return (x.hex(), tuple(t.hex() for t in thetas), s,
            None if omega_squared is None else omega_squared.hex(),
            case_tag, residual.hex())


def _solution_fields(sol):
    return _hex_fields((sol.x, sol.thetas, sol.s, sol.omega_squared,
                        sol.case_tag, sol.residual_max))


def _candidate_outcome(fn):
    try:
        return fn()
    except ValueError as err:  # SingularityError too
        return (type(err).__name__, str(err))


def benchmark_pool():
    """The benchmark's solve pool (perfbench/workloads.py, random_pool):
    a uniform in (0, pi), masses log-uniform over [0.1, 10]."""
    rng = random.Random(20220221)
    pool = []
    for _ in range(1024):
        a = rng.uniform(0.0, math.pi)
        pool.append((a, tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3))))
    return pool


def _check_candidates(a, masses, pot, roots):
    """Every candidate root through both chains, hex-identical; returns
    the case tags met."""
    tags = set()
    for x in roots:
        shape = mer.Shape(a, x)
        got = _candidate_outcome(
            lambda: _solution_fields(mer.solution_from_shape(shape, masses, pot)))
        expect = _candidate_outcome(
            lambda: _hex_fields(chain_from_shape(shape, masses, pot)))
        assert got == expect, (a, masses, x)
        tags.add(expect[4] if len(expect) == 6 else expect[0])
    return tags


def test_candidate_chain_matches_transcription_bitwise():
    cases = [(a, (nu1, nu2, 1.0)) for a, nu1, nu2 in NAMED] + benchmark_pool()
    cases.append((2.0 * math.pi / 3.0, (1.0, 1.0, 1.0)))  # an A-zero root
    pots = (POT, repulsive(cotangent_potential(SphereRadius(2.5))))
    tags = set()
    for a, m in cases:
        for mm in (m, (m[1], m[0], m[2])):
            masses = MassTriple(*mm)
            roots = [x for region in mer._scan_roots(a, masses.nu1, masses.nu2)
                     for x in region]
            for pot in pots:
                tags |= _check_candidates(a, masses, pot, roots)
    assert {mer.CASE1, mer.CASE2, mer.CASE3, mer.CASE4_FIXED_POINT,
            mer.A_ZERO_FIXED_POINT} <= tags


def test_special_families_match_transcription_bitwise():
    rng = random.Random(19)
    masses_list = [MassTriple(1.0, 1.0, 1.0), M321, MassTriple(2.0, 2.0, 1.0),
                   MassTriple(1.3, 2.2, 0.7)] + [
        MassTriple(*(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3)))
        for _ in range(12)]
    pushing = PairPotential(u=lambda d2: -d2 ** -0.5,
                            u_prime=lambda d2: 0.5 * d2 ** -1.5,
                            radius=SphereRadius(1.7))
    pots = (POT, repulsive(cotangent_potential(SphereRadius(2.5))), pushing)
    tags = set()
    for masses in masses_list:
        for pot in pots:
            got = _solution_fields(oracles.equilateral_rotator(masses, pot))
            assert got == _hex_fields(chain_equilateral(masses, pot))
            tags.add(got[4])
            for a in (None, 0.7, 2.0 * math.pi / 3.0):
                angle = math.acos(oracles.SPECIAL_ISOSCELES_COS_A) if a is None else a
                equal_nu = abs(masses.nu1 - masses.nu2) <= 1e-12 * (
                    masses.nu1 + masses.nu2)
                xs = []
                cos_gap = abs(math.cos(angle) - oracles.SPECIAL_ISOSCELES_COS_A)
                if equal_nu or cos_gap <= 1e-9:
                    xs.append(angle / 2.0)
                if equal_nu or abs(angle - 2.0 * math.pi / 3.0) <= 1e-9:
                    xs.append(angle / 2.0 + math.pi)
                expect = [chain_from_shape(mer.Shape(angle, x), masses, pot)
                          for x in xs]
                assert [_solution_fields(s) for s in
                        oracles.isosceles_rotators(masses, a, pot)] == [
                    _hex_fields(f) for f in expect if f[5] <= mer.RESIDUAL_TOL]
                tags.update(f[4] for f in expect)
        fixed = oracles.case4_fixed_point(masses)
        if fixed is not None:
            shape = mer.Shape(2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
            assert _solution_fields(fixed) == _hex_fields(chain_solution(
                shape, masses, 0, None, mer.CASE4_FIXED_POINT, POT))
    assert {mer.CASE1, mer.A_ZERO_FIXED_POINT} <= tags


def test_generic_chain_matches_transcription_bitwise():
    # a potential without reduced_g: the scan of the cross-multiplied
    # ratio equation and each of its roots through both chains
    base = cotangent_potential(SphereRadius(1.3))
    custom = PairPotential(u=base.u, u_prime=lambda d2: 1.1 * base.u_prime(d2) - 0.05,
                           radius=SphereRadius(1.3))
    for a, nu1, nu2 in NAMED[:3]:
        masses = MassTriple(nu1, nu2, 1.0)
        roots = chain_generic_roots(a, masses, custom)
        got = mer._generic_scan_roots(a, masses, custom)
        assert [[x.hex() for x in r] for r in got] == [
            [x.hex() for x in r] for r in roots]
        assert any(roots)
        _check_candidates(a, masses, custom, [x for r in roots for x in r])


def test_replaced_u_prime_is_solved_on_the_generic_path():
    # a new u_prime drops the cotangent record, so the potential is
    # solved as PairPotential(u, u_prime, radius) is, not through g
    base = cotangent_potential(SphereRadius(1.3))

    def f(d2):
        return 1.1 * base.u_prime(d2) - 0.05

    replaced = base._replace(u_prime=f)
    assert not replaced.reduced_g and replaced.radius == base.radius
    built = PairPotential(base.u, f, base.radius)
    xs = [[s.x.hex() for s in mer.find_meridian_rotators(math.pi / 6, M321, pot)]
          for pot in (replaced, built)]
    assert len(xs[0]) == 6 and xs[0] == xs[1]


def test_generic_scan_skips_regions_narrower_than_its_gap():
    # at a = 1e-7, regions I and III are narrower than
    # 2 * GENERIC_BOUNDARY_GAP: only II and IV are sampled
    base = cotangent_potential(SphereRadius(1.0))
    custom = PairPotential(u=base.u, u_prime=base.u_prime)
    a = 1e-7
    roots = dict(zip(mer.REGIONS, mer._generic_scan_roots(a, M321, custom)))
    assert not roots["I"] and not roots["III"] and roots["II"] and roots["IV"]
    for region, xs in roots.items():
        assert all(mer.region_of(x, a) == region for x in xs)


# Literal transcriptions of region_bounds, region_of and Shape.validate
# as each wrote the singular points out, kept as the reference for the
# shared table of region ends.
def region_bounds_reference(region, a):
    return {
        "I": (0.0, a),
        "II": (a, math.pi),
        "III": (math.pi, math.pi + a),
        "IV": (math.pi + a, 2.0 * math.pi),
    }[region]


def region_of_reference(x, a):
    x = x % (2.0 * math.pi)
    for region in ("I", "II", "III", "IV"):
        lo, hi = region_bounds_reference(region, a)
        if lo <= x <= hi:
            return region
    raise ValueError(f"x={x} outside (0, 2*pi)")


def validate_reference(theta21, theta31, tol=1e-12):
    if not 0.0 < theta21 < math.pi:
        raise ValueError(f"theta21 must lie in (0, pi), got {theta21}")
    if not 0.0 < theta31 < 2.0 * math.pi:
        raise ValueError(f"theta31 must lie in (0, 2*pi), got {theta31}")
    for bad in (0.0, theta21, math.pi, theta21 + math.pi):
        if abs(theta31 - bad) <= tol:
            raise ValueError(f"theta31={theta31} sits on a singular point")


def _region_outcome(fn):
    try:
        value = fn()
    except (ValueError, KeyError) as err:
        return (type(err).__name__, str(err))
    if isinstance(value, tuple):
        return ("ok",) + tuple(v.hex() for v in value)
    return ("ok", value)


def test_regions_match_transcription_bitwise():
    # random (a, x), x on and next to each singular point, and nan.
    # validate has one tolerance, the transcription's default
    assert mer.SINGULAR_TOL == 1e-12
    rng = random.Random(22)
    angles = [rng.uniform(0.0, math.pi) for _ in range(300)]
    angles += [1e-9, 1e-7, math.pi / 2, 2.0 * math.pi / 3.0, math.pi - 1e-9, math.nan]
    raised = 0
    for a in angles:
        points = [0.0, a, math.pi, math.pi + a, 2.0 * math.pi]
        xs = [rng.uniform(-1.0, 7.5) for _ in range(10)]
        for p in points:
            xs += [p, p - 1e-13, p + 1e-13, p - 1e-9, p + 1e-9, p - 1e-7, p + 1e-7]
        xs += [math.nan, math.inf, -0.0]
        for region in mer.REGIONS:
            assert _region_outcome(lambda: oracles.region_bounds(region, a)) == (
                _region_outcome(lambda: region_bounds_reference(region, a)))
        for x in xs:
            assert _region_outcome(lambda: mer.region_of(x, a)) == _region_outcome(
                lambda: region_of_reference(x, a)), (a, x)
            got = _region_outcome(lambda: mer.Shape(a, x).validate())
            want = _region_outcome(lambda: validate_reference(a, x))
            if want == ("ok", None) and abs(x - 2.0 * math.pi) <= mer.SINGULAR_TOL:
                # the transcription let theta31 within tol below 2 pi
                # through: 2 pi, the end of region IV, is singular too
                want = ("ValueError", f"theta31={x} sits on a singular point")
            assert got == want, (a, x)
            raised += got[0] != "ok"
    assert raised > 7000
