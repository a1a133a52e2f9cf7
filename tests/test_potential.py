import math
import random

import pytest

from sphere3body.geometry import SphereRadius
from sphere3body.potential import (
    ANTIPODAL,
    COLLISION,
    SingularityError,
    cotangent_potential,
    repulsive,
)

from oracles import chord_from_arc, cotangent_u


def cotangent_u_prime_reference(d2, R):
    """The cotangent U' as written before its constants were bound once
    per radius: a domain check, then -1 / (2 R^3 sin^3 sigma)."""
    if d2 <= 0.0:
        raise SingularityError(COLLISION, d2)
    if d2 >= 4.0 * R.R * R.R - 0.0:
        raise SingularityError(ANTIPODAL, d2)
    e2 = R.epsilon * R.epsilon
    s2 = (d2 / (R.R * R.R)) * (1.0 - e2 * d2)
    return -1.0 / (2.0 * R.R ** 3 * s2 ** 1.5)


@pytest.mark.parametrize("R_val", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("sigma", [0.2, math.pi / 3, math.pi / 2, 2.5])
def test_u_is_cotangent_over_R(R_val, sigma):
    # the oracle U in D^2, against cot(sigma) / R in the arc angle
    R = SphereRadius(R_val)
    d = chord_from_arc(sigma, R)
    assert cotangent_u(d * d, R) == pytest.approx(
        math.cos(sigma) / math.sin(sigma) / R_val, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("R_val", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("sigma", [0.2, math.pi / 3, math.pi / 2, 2.5])
def test_u_prime_closed_form(R_val, sigma):
    # U'(D^2) = -1 / (2 R^3 sin^3 sigma)
    R = SphereRadius(R_val)
    pot = cotangent_potential(R)
    d = chord_from_arc(sigma, R)
    expected = -1.0 / (2.0 * R_val ** 3 * math.sin(sigma) ** 3)
    assert pot.u_prime(d * d) == pytest.approx(expected, rel=1e-12)


def test_u_prime_matches_finite_difference():
    # U' is the derivative of the oracle U, written apart from it
    R = SphereRadius(1.3)
    pot = cotangent_potential(R)
    d2 = 1.7
    h = 1e-6
    fd = (cotangent_u(d2 + h, R) - cotangent_u(d2 - h, R)) / (2.0 * h)
    assert pot.u_prime(d2) == pytest.approx(fd, rel=1e-8)


def test_collision_singularity():
    R = SphereRadius(1.0)
    for f in (cotangent_potential(R).u_prime, lambda d2: cotangent_u(d2, R)):
        with pytest.raises(SingularityError) as exc:
            f(0.0)
        assert exc.value.kind == "collision"


def test_antipodal_singularity_in_derivative_only():
    R = SphereRadius(1.0)
    pot = cotangent_potential(R)
    d2 = 4.0 * R.R * R.R  # antipodal chord
    # cot(pi) blows up in the oracle U as well for the cotangent form
    with pytest.raises(SingularityError) as exc:
        pot.u_prime(d2)
    assert exc.value.kind == "antipodal"
    with pytest.raises(SingularityError) as exc:
        cotangent_u(d2, R)
    assert exc.value.kind == "antipodal"


def test_repulsive_flips_sign():
    pot = cotangent_potential(SphereRadius(1.0))
    rep = repulsive(pot)
    d = chord_from_arc(1.0, SphereRadius(1.0))
    assert rep.u_prime(d * d) == -pot.u_prime(d * d)
    assert rep.u_prime(d * d) > 0.0 > pot.u_prime(d * d)
    assert rep.reduced_g and repulsive(rep).reduced_g
    twice = repulsive(rep)
    assert twice.u_prime(d * d) == pot.u_prime(d * d)


@pytest.mark.parametrize("R_val", [1.0, 2.5])
def test_cotangent_family_keeps_its_record(R_val):
    # the exact path is read from u_prime: negating it or giving the same
    # radius again keeps it, a new u_prime drops it, and the radius stays
    # bound to the one u_prime was built for
    R = SphereRadius(R_val)
    other = SphereRadius(2.0 * R_val)
    pot = cotangent_potential(R)
    for kept in (repulsive(repulsive(pot)), repulsive(pot), pot._replace(radius=R)):
        assert kept.reduced_g and kept.radius == R
        with pytest.raises(ValueError, match="u_prime was built for"):
            kept._replace(radius=other)
    dropped = pot._replace(u_prime=lambda d2: pot.u_prime(d2))
    assert not dropped.reduced_g
    assert dropped._replace(radius=other).radius == other


@pytest.mark.parametrize("R_val", [0.5, 1.0, 1.3, 4.0])
def test_u_prime_equals_reference_bitwise(R_val):
    R = SphereRadius(R_val)
    u_prime = cotangent_potential(R).u_prime
    top = 4.0 * R_val * R_val
    rng = random.Random(11)
    values = [rng.uniform(0.0, top) for _ in range(500)]
    values += [top * 10.0 ** -rng.uniform(1, 17) for _ in range(100)]
    values += [top * (1.0 - 10.0 ** -rng.uniform(1, 16)) for _ in range(100)]
    values += [0.0, -0.0, -1.0, top, top * 2.0, math.nan, math.inf]
    for d2 in values:
        try:
            expect = cotangent_u_prime_reference(d2, R).hex()
        except SingularityError as err:
            expect = (err.kind, err.d2, str(err))
        try:
            got = u_prime(d2).hex()
        except SingularityError as err:
            got = (err.kind, err.d2, str(err))
        assert repr(got) == repr(expect), d2


@pytest.mark.parametrize("R_val", [1e-150, 1e120])
def test_radius_whose_cube_leaves_float_range_is_rejected(R_val):
    with pytest.raises(ValueError, match="out of range"):
        cotangent_potential(SphereRadius(R_val))


def test_underflowing_u_prime_is_a_singularity():
    # 2 R^3 sin^3(sigma) underflows to 0 at a chord far inside the domain
    R = SphereRadius(1e-90)
    with pytest.raises(SingularityError) as exc:
        cotangent_potential(R).u_prime(1e-300)
    assert exc.value.kind == "collision"
