"""Property-based and invariance tests for the solver outputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere3body import meridian as mer
from sphere3body.dynamics import MassTriple
from sphere3body.equator import solve_equator
from sphere3body.geometry import SpherePoint, SphereRadius, arc_angle
from sphere3body.integrator import (
    SphericalState,
    angular_momentum,
    configuration_residuals,
    integrate,
)
from sphere3body.potential import cotangent_potential

import oracles
from oracles import arc_from_chord_squared, chord_from_arc

R1 = SphereRadius(1.0)
POT = cotangent_potential(R1)
M321 = MassTriple(3.0, 2.0, 1.0)

masses_st = st.tuples(
    st.floats(0.2, 8.0), st.floats(0.2, 8.0), st.floats(0.2, 8.0)
).map(lambda t: MassTriple(*t))


@given(st.floats(1e-3, math.pi - 1e-3), st.floats(0.3, 5.0))
def test_chord_arc_round_trip(sigma, R_val):
    R = SphereRadius(R_val)
    d = chord_from_arc(sigma, R)
    assert abs(arc_from_chord_squared(d * d, R) - sigma) < 1e-7


@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0))
def test_arc_angle_symmetric(t1, t2, p1, p2):
    a = SpherePoint(t1, p1)
    b = SpherePoint(t2, p2)
    assert arc_angle(a, b) == pytest.approx(arc_angle(b, a), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(masses_st)
def test_equator_triangle_closes(m):
    try:
        sol = solve_equator(m)
    except ValueError:
        return  # outside the existence region
    total = sol.dphi_12 + sol.dphi_23 + sol.dphi_31
    assert total == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert all(0 < d < math.pi for d in (sol.dphi_12, sol.dphi_23, sol.dphi_31))


@settings(max_examples=15, deadline=None)
@given(masses_st, st.floats(0.3, 2.6))
def test_translation_lift_round_trip(m, a):
    x = a + 0.4 * (math.pi - a)  # a point inside region II
    shape = mer.Shape(a, x)
    if oracles.amplitude_A(m, shape) < 1e-3 * sum(m):
        return  # near the indefinite fixed-point locus
    for s in (1, -1):
        t1, t2, t3 = oracles.shape_to_configurations(m, shape, s)
        assert t2 - t1 == pytest.approx(a, abs=1e-12)
        assert t3 - t1 == pytest.approx(x, abs=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_scan_counts_mirror_under_swap_of_bodies_1_and_2(a, log_nu1, log_nu2):
    # swapping bodies 1 and 2 maps x to a - x (mod 2 pi): regions I and
    # III onto themselves and II onto IV, with nu1 and nu2 swapped
    nu1, nu2 = 10.0 ** log_nu1, 10.0 ** log_nu2
    c = oracles.count_rotators_scan(a, nu1, nu2)
    swapped = oracles.count_rotators_scan(a, nu2, nu1)
    assert (c.II, c.I, c.III) == (swapped.IV, swapped.I, swapped.III)


def _meridian_solutions():
    return mer.find_meridian_rotators(math.pi / 4, M321)


def test_branch_symmetry_s_flip_is_quarter_turn():
    # flipping s rotates the lift by an odd multiple of pi/2
    for sol in _meridian_solutions():
        flipped = oracles.shape_to_configurations(M321, sol.shape, -sol.s)
        d = (flipped[0] - sol.thetas[0]) / (math.pi / 2.0)
        assert abs(d - round(d)) < 1e-10
        assert round(d) % 2 == 1


def test_antipodal_map_invariance():
    for sol in _meridian_solutions():
        omega = math.sqrt(sol.omega_squared)
        base = configuration_residuals(
            sol.thetas, (0.0, 0.0, 0.0), omega, M321, POT)
        anti = configuration_residuals(
            sol.thetas_alt, (0.0, 0.0, 0.0), omega, M321, POT)
        assert np.max(np.abs(base)) < 1e-10
        assert np.max(np.abs(anti)) < 1e-10


def test_rotation_invariance_of_residual_norm():
    # rotating every longitude by the same angle must not change the
    # residual max-norm
    for sol in _meridian_solutions():
        omega = math.sqrt(sol.omega_squared)
        base = configuration_residuals(
            sol.thetas, (0.0, 0.0, 0.0), omega, M321, POT)
        for shift in (0.7, 2.0, -1.3):
            rot = configuration_residuals(
                sol.thetas, (shift, shift, shift), omega,
                M321, POT)
            assert np.max(np.abs(rot)) == pytest.approx(
                np.max(np.abs(base)), abs=1e-12)


@pytest.mark.parametrize("sol", _meridian_solutions(),
                         ids=lambda s: f"x={s.x:.3f}")
def test_accepted_re_conserves_over_one_period(sol):
    omega = math.sqrt(sol.omega_squared)
    period = 2.0 * math.pi / omega
    state = SphericalState(
        tuple(SpherePoint(t % (2 * math.pi), 0.0) for t in sol.thetas),
        (0.0, 0.0, 0.0), (omega, omega, omega),
    )
    traj = integrate(state, M321, POT, period, period / 4000, store_every=100)
    assert traj.error is None
    assert traj.c_drift < 1e-8

    def sigmas(th, ph):
        pts = [SpherePoint(th[k], ph[k]) for k in range(3)]
        return [arc_angle(pts[i], pts[j]) for i, j in ((0, 1), (1, 2), (2, 0))]

    ref = sigmas(traj.thetas[0], traj.phis[0])
    for th, ph in zip(traj.thetas, traj.phis):
        cur = sigmas(th, ph)
        assert max(abs(c - r) for c, r in zip(cur, ref)) < 1e-6


def test_equator_fixed_point_sigma_drift():
    m = MassTriple(1.0, 2.0, 1.5)
    sol = solve_equator(m)
    state = SphericalState(
        tuple(SpherePoint(math.pi / 2, p) for p in sol.phis()),
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
    )
    traj = integrate(state, m, POT, 10.0, 10.0 / 8000, store_every=200)
    assert traj.error is None
    ref = [arc_angle(SpherePoint(traj.thetas[0][i], traj.phis[0][i]),
                     SpherePoint(traj.thetas[0][j], traj.phis[0][j]))
           for i, j in ((0, 1), (1, 2), (2, 0))]
    for row in range(len(traj.times)):
        cur = [arc_angle(SpherePoint(traj.thetas[row][i], traj.phis[row][i]),
                         SpherePoint(traj.thetas[row][j], traj.phis[row][j]))
               for i, j in ((0, 1), (1, 2), (2, 0))]
        assert max(abs(c - r) for c, r in zip(cur, ref)) < 1e-8


def test_angular_momentum_axis_selection():
    # for every accepted meridian RE the planar momentum components vanish
    for sol in _meridian_solutions():
        omega = math.sqrt(sol.omega_squared)
        state = SphericalState(
            tuple(SpherePoint(t, 0.0) for t in sol.thetas),
            (0.0, 0.0, 0.0), (omega, omega, omega),
        )
        c = angular_momentum(state, M321, R1)
        scale = max(abs(c.cz), 1.0)
        assert abs(c.cx) / scale < 1e-12
        assert abs(c.cy) / scale < 1e-12
