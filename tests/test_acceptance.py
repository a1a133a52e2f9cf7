"""Acceptance gate: the eleven release criteria, one test each.

Each test prints a single PASS/FAIL line (visible with -s or on
failure) in addition to the pytest verdict.
"""

import math
import time

import numpy as np
import pytest

from sphere3body import euler_limit, kernels
from sphere3body import meridian as mer
from sphere3body.dynamics import MassTriple
from sphere3body.equator import solve_equator
from sphere3body.geometry import SpherePoint, SphereRadius, arc_angle
from sphere3body.integrator import SphericalState, configuration_residuals, integrate
from sphere3body.potential import cotangent_potential, repulsive

import oracles

R1 = SphereRadius(1.0)
POT = cotangent_potential(R1)
M321 = MassTriple(3.0, 2.0, 1.0)


def report(num, name, ok):
    print(f"[ACCEPTANCE] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_table2_counts():
    t0 = time.perf_counter()
    expected_totals = {-5.0: 4, -4.0: 3, 0.0: 2, 4.0: 3, 5.0: 4}
    ok = True
    for diff, total in expected_totals.items():
        closed = oracles.count_pi_over_2(diff)
        scan = oracles.count_rotators_scan(math.pi / 2, 6.0 + diff, 6.0)
        ok &= closed.total == total
        ok &= scan == closed
    ok &= (time.perf_counter() - t0) < 5.0
    report(1, "table-2-counts", ok)


def test_criterion_02_six_solution_example():
    sols = mer.find_meridian_rotators(math.pi / 6, M321)
    regions = {r: 0 for r in mer.REGIONS}
    for s in sols:
        regions[s.region] += 1
    ok = len(sols) == 6
    ok &= regions == {"I": 1, "II": 2, "III": 1, "IV": 2}
    exact = [
        (math.pi / 6, -3.0 * math.sqrt(3.0) / 32.0),
        (math.pi / 2, 5.0 * math.sqrt(3.0) / 16.0),
        (math.pi, -math.sqrt(3.0) / 8.0),
        (7.0 * math.pi / 6.0, 3.0 * math.sqrt(3.0) / 32.0),
        (7.0 * math.pi / 4.0, -5.0 * (5.0 + math.sqrt(3.0)) / 32.0),
        (2.0 * math.pi, math.sqrt(3.0) / 8.0),
    ]
    for x, val in exact:
        ok &= abs(kernels.g_scalar(x, math.pi / 6, 3.0, 2.0) - val) < 1e-12
    report(2, "six-solution-example", ok)


def test_criterion_03_two_solution_example():
    a = math.pi / 4
    sols = mer.find_meridian_rotators(a, M321)
    ok = len(sols) == 2
    ok &= M321.nu1 * math.sin(2 * a) > 1
    ok &= M321.nu2 * math.sin(2 * a) > 1
    report(3, "two-solution-example", ok)


def test_criterion_04_isosceles_exact_omega():
    a = math.acos((math.sqrt(2.0) - 1.0) / 2.0)
    rng = np.random.default_rng(4)
    factor = math.sqrt((13.0 + 16.0 * math.sqrt(2.0)) / 7.0)
    ok = True
    for _ in range(10):
        m = MassTriple(*rng.uniform(0.3, 6.0, size=3))
        sols = [s for s in mer.find_meridian_rotators(a, m)
                if abs(s.x - a / 2.0) < 1e-9]
        if len(sols) != 1:
            ok = False
            continue
        sol = sols[0]
        A = oracles.amplitude_A(m, sol.shape)
        expected = (16.0 * A / 7.0) * factor
        ok &= sol.s == 1
        ok &= abs(sol.omega_squared - expected) < 1e-10 * expected
    report(4, "isosceles-exact-omega", ok)


def test_criterion_05_equilateral_family():
    rng = np.random.default_rng(5)
    uprime = POT.u_prime(3.0)
    ok = True
    for _ in range(10):
        m = MassTriple(*rng.uniform(0.3, 6.0, size=3))
        sol = oracles.equilateral_rotator(m)
        A = oracles.amplitude_A(m, sol.shape)
        ok &= sol.s == -1
        ok &= abs(sol.omega_squared - (-4.0 * A * uprime)) < 1e-10 * abs(
            4.0 * A * uprime)
        res = configuration_residuals(
            sol.thetas, (0.0, 0.0, 0.0),
            math.sqrt(sol.omega_squared), m, POT)
        ok &= float(np.max(np.abs(res))) < 1e-10
    equal = oracles.equilateral_rotator(MassTriple(1.0, 1.0, 1.0))
    ok &= equal.is_fixed_point
    report(5, "equilateral-family", ok)


def test_criterion_06_equator_closed_form():
    ok = True
    sol = solve_equator(MassTriple(1, 1, 1))
    third = 2.0 * math.pi / 3.0
    ok &= abs(sol.dphi_12 - third) < 1e-13
    ok &= abs(sol.rho - math.sqrt(3.0) / 2.0) < 1e-13
    ok &= abs(sol.neg_potential_energy - math.sqrt(3.0)) < 1e-13

    sol2 = solve_equator(MassTriple(1, 1, 4))
    ok &= abs(math.cos(sol2.dphi_12) + 7.0 / 8.0) < 1e-13
    ok &= abs(sol2.rho - math.sqrt(15.0) / 8.0) < 1e-13
    ok &= abs(sol2.neg_potential_energy - math.sqrt(15.0)) < 1e-12

    for s, m in ((sol, MassTriple(1, 1, 1)), (sol2, MassTriple(1, 1, 4))):
        for omega in (0.0, 1.0, 2.0):
            res = configuration_residuals((math.pi / 2,) * 3, s.phis(), omega,
                                          m, POT)
            ok &= float(np.max(np.abs(res))) < 1e-12
    report(6, "equator-closed-form", ok)


def test_criterion_07_antipodal_limit():
    rows = oracles.antipodal_limit_scan(steps=60)
    negv = [r.neg_potential_energy for r in rows]
    ok = all(a > b for a, b in zip(negv, negv[1:]))
    ok &= negv[-1] < 1e-8
    ok &= abs(rows[-1].dphi_23 - math.pi) < 1e-6
    ok &= abs(rows[-1].dphi_31 - math.pi) < 1e-6
    report(7, "antipodal-limit", ok)


def test_criterion_08_euler_flat_space_limit():
    report_u = euler_limit.euler_limit_check(MassTriple(1.0, 1.0, 1.0), 1.0,
                                             [100.0, 1000.0, 10000.0])
    ok = abs(report_u.order_estimate - 2.0) <= 0.2
    devs = [r.max_coeff_deviation for r in report_u.rows]
    ok &= devs[0] > devs[1] > devs[2]
    ok &= abs(report_u.quintic_root - 1.0) < 1e-12
    roots = [r.root_deviation for r in report_u.rows]
    ok &= all(r < 1e-4 for r in roots) and roots[-1] < 1e-6
    report(8, "euler-flat-space-limit", ok)


def test_criterion_09_appendix_closed_forms():
    ok = True
    for nu in (0.1, 0.5, 1.0, 2.0, 10.0):
        for which, m in ((mer.CASE2, MassTriple(nu, 1.7, 1.0)),
                         (mer.CASE3, MassTriple(1.3, nu, 1.0))):
            for row in oracles.exceptional_case_angles(which, nu):
                th1 = 0.0
                th2 = -row.theta_pair
                if which == mer.CASE2:
                    th3 = th2 - row.theta_other
                    G1 = m.m1 * m.m2 * math.sin(2 * (th2 - th1))
                    G2 = m.m2 * m.m3 * math.sin(2 * (th3 - th2))
                    F1 = m.m1 * m.m2 * math.sin(th2 - th1) / abs(
                        math.sin(th2 - th1)) ** 3
                    F2 = m.m2 * m.m3 * math.sin(th3 - th2) / abs(
                        math.sin(th3 - th2)) ** 3
                else:
                    th3 = th1 + row.theta_other
                    G1 = m.m1 * m.m2 * math.sin(2 * (th2 - th1))
                    G2 = m.m3 * m.m1 * math.sin(2 * (th1 - th3))
                    F1 = m.m1 * m.m2 * math.sin(th2 - th1) / abs(
                        math.sin(th2 - th1)) ** 3
                    F2 = m.m3 * m.m1 * math.sin(th1 - th3) / abs(
                        math.sin(th1 - th3)) ** 3
                gscale = max(abs(G1), abs(G2), 1.0)
                fscale = max(abs(F1), abs(F2), 1.0)
                ok &= abs(G1 - G2) < 1e-12 * gscale
                ok &= abs(F1 - F2) < 1e-12 * fscale
    ok &= oracles.case4_fixed_point(M321) is None
    ok &= oracles.case4_fixed_point(MassTriple(2.0, 2.0, 2.0)) is not None
    report(9, "appendix-closed-forms", ok)


def test_criterion_10_property_suite():
    ok = True
    sols = mer.find_meridian_rotators(math.pi / 4, M321)

    # branch symmetry: s flip = odd quarter-turn of the lift
    for sol in sols:
        flipped = oracles.shape_to_configurations(M321, sol.shape, -sol.s)
        d = (flipped[0] - sol.thetas[0]) / (math.pi / 2.0)
        ok &= abs(d - round(d)) < 1e-10 and round(d) % 2 == 1

    # attractive/repulsive duality: same roots and rates, flipped branch
    rep = mer.find_meridian_rotators(math.pi / 4, M321, pot=repulsive(POT))
    ok &= len(rep) == len(sols)
    for sa, sr in zip(sols, rep):
        ok &= abs(sa.x - sr.x) < 1e-10 and sr.s == -sa.s

    for sol in sols:
        omega = math.sqrt(sol.omega_squared)
        # antipodal-map invariance
        anti = configuration_residuals(
            sol.thetas_alt, (0.0, 0.0, 0.0), omega, M321, POT)
        ok &= float(np.max(np.abs(anti))) < 1e-10
        # coordinate-rotation invariance
        base = float(np.max(np.abs(configuration_residuals(
            sol.thetas, (0.0, 0.0, 0.0), omega, M321, POT))))
        rot = float(np.max(np.abs(configuration_residuals(
            sol.thetas, (1.1, 1.1, 1.1), omega, M321, POT))))
        ok &= abs(base - rot) < 1e-12

        # conservation over one integrated period
        period = 2.0 * math.pi / omega
        state = SphericalState(
            tuple(SpherePoint(t % (2 * math.pi), 0.0)
                  for t in sol.thetas),
            (0.0, 0.0, 0.0), (omega, omega, omega),
        )
        traj = integrate(state, M321, POT, period, period / 4000,
                         store_every=100)
        ok &= traj.error is None and traj.c_drift < 1e-8
        ref = [arc_angle(SpherePoint(traj.thetas[0][i], traj.phis[0][i]),
                         SpherePoint(traj.thetas[0][j], traj.phis[0][j]))
               for i, j in ((0, 1), (1, 2), (2, 0))]
        for row in range(len(traj.times)):
            cur = [arc_angle(SpherePoint(traj.thetas[row][i], traj.phis[row][i]),
                             SpherePoint(traj.thetas[row][j], traj.phis[row][j]))
                   for i, j in ((0, 1), (1, 2), (2, 0))]
            ok &= max(abs(c - r) for c, r in zip(cur, ref)) < 1e-6
    report(10, "property-suite", ok)


def test_criterion_11_sweep_conjecture_evidence():
    # evidence only: within the counting-condition domain
    # (nu_k sin 2a > 1 for k = 1, 2) the observed maximum count is 6.
    nus = np.linspace(0.1, 10.0, 50)
    max_count = 0
    for a in np.linspace(0.05, math.pi / 2 - 0.02, 20):
        counts = sum(mer.count_rotators_grid_regions(a, nus, nus, 400).values())
        s2a = math.sin(2.0 * a)
        cond = (nus[:, None] * s2a > 1.0) & (nus[None, :] * s2a > 1.0)
        if cond.any():
            max_count = max(max_count, int(counts[cond].max()))
    print(f"[ACCEPTANCE] criterion 11 evidence: max count in condition "
          f"domain = {max_count}")
    report(11, "sweep-conjecture-evidence", max_count <= 6)
