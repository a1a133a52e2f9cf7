import math
import random

import pytest

from sphere3body.geometry import SpherePoint, SphereRadius, chord_squared
from sphere3body.potential import (
    ANTIPODAL,
    COLLISION,
    SingularityError,
    cotangent_potential,
    repulsive,
    total_potential,
)

from oracles import chord_from_arc


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
    R = SphereRadius(R_val)
    pot = cotangent_potential(R)
    d = chord_from_arc(sigma, R)
    assert pot.u(d * d) == pytest.approx(math.cos(sigma) / math.sin(sigma) / R_val,
                                         rel=1e-12, abs=1e-12)


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
    R = SphereRadius(1.3)
    pot = cotangent_potential(R)
    d2 = 1.7
    h = 1e-6
    fd = (pot.u(d2 + h) - pot.u(d2 - h)) / (2.0 * h)
    assert pot.u_prime(d2) == pytest.approx(fd, rel=1e-8)


def test_collision_singularity():
    pot = cotangent_potential(SphereRadius(1.0))
    with pytest.raises(SingularityError) as exc:
        pot.u(0.0)
    assert exc.value.kind == "collision"


def test_antipodal_singularity_in_derivative_only():
    R = SphereRadius(1.0)
    pot = cotangent_potential(R)
    d2 = 4.0 * R.R * R.R  # antipodal chord
    # cot(pi) blows up in u as well for the cotangent form
    with pytest.raises(SingularityError) as exc:
        pot.u_prime(d2)
    assert exc.value.kind == "antipodal"
    with pytest.raises(SingularityError) as exc:
        pot.u(d2)
    assert exc.value.kind == "antipodal"


def test_repulsive_flips_sign():
    pot = cotangent_potential(SphereRadius(1.0))
    rep = repulsive(pot)
    d = chord_from_arc(1.0, SphereRadius(1.0))
    assert rep.u(d * d) == -pot.u(d * d)
    assert rep.u_prime(d * d) == -pot.u_prime(d * d)
    assert rep.u_prime(d * d) > 0.0 > pot.u_prime(d * d)
    assert rep.reduced_g and repulsive(rep).reduced_g
    twice = repulsive(rep)
    assert twice.u(d * d) == pot.u(d * d)
    assert twice.u_prime(d * d) == pot.u_prime(d * d)


@pytest.mark.parametrize("R_val", [1.0, 2.5])
def test_cotangent_family_keeps_its_record(R_val):
    # the exact path is read from u_prime: negating it twice or giving a
    # new u keeps it, a new u_prime drops it, and the radius stays bound
    # to the one u_prime was built for
    R = SphereRadius(R_val)
    other = SphereRadius(2.0 * R_val)
    pot = cotangent_potential(R)
    for kept in (repulsive(repulsive(pot)), pot._replace(u=lambda d2: 2.0 * pot.u(d2)),
                 repulsive(pot)._replace(u=abs)):
        assert kept.reduced_g and kept.radius == R
        with pytest.raises(ValueError, match="u_prime was built for"):
            kept._replace(radius=other)
    dropped = pot._replace(u_prime=lambda d2: pot.u_prime(d2))
    assert not dropped.reduced_g
    assert dropped._replace(radius=other).radius == other


def test_total_potential_equilateral_equal_masses():
    # three unit masses at mutual arc 2*pi/3: V = 3 * cot(2*pi/3) = -sqrt(3)
    R = SphereRadius(1.0)
    pot = cotangent_potential(R)
    pts = [SpherePoint(math.pi / 2, 2.0 * math.pi * k / 3.0) for k in range(3)]
    v = total_potential(pts, (1.0, 1.0, 1.0), pot)
    assert v == pytest.approx(-math.sqrt(3.0), rel=1e-14)


def test_total_potential_reports_pair():
    R = SphereRadius(1.0)
    pot = cotangent_potential(R)
    pts = [SpherePoint(0.5, 0.0), SpherePoint(0.5, 0.0), SpherePoint(2.0, 1.0)]
    with pytest.raises(SingularityError) as exc:
        total_potential(pts, (1.0, 1.0, 1.0), pot)
    assert exc.value.pair == (1, 2)


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


# Literal transcriptions of the cotangent u, with its own domain check,
# and of total_potential's labelled pair loop, kept as the reference for
# the shared ones.
def cotangent_u_reference(d2, R):
    if d2 <= 0.0:
        raise SingularityError(COLLISION, d2)
    if d2 >= 4.0 * R.R * R.R:
        raise SingularityError(ANTIPODAL, d2)
    e2 = R.epsilon * R.epsilon
    return (1.0 - 2.0 * e2 * d2) / math.sqrt(d2 * (1.0 - e2 * d2))


def total_potential_reference(points, masses, pot):
    v = 0.0
    for i, j in ((0, 1), (1, 2), (2, 0)):
        d2 = chord_squared(points[i], points[j], pot.radius)
        try:
            v += masses[i] * masses[j] * pot.u(d2)
        except SingularityError as err:
            raise SingularityError(err.kind, err.d2, (i + 1, j + 1)) from None
    return v


def _value_outcome(fn):
    """("ok", fn()'s bits), or the error fn raised, with its kind, D^2
    and pair where it is a SingularityError."""
    try:
        return ("ok", fn().hex())
    except SingularityError as err:
        return ("SingularityError", err.kind, err.d2.hex(), err.pair, str(err))
    except ValueError as err:
        return (type(err).__name__, str(err))


@pytest.mark.parametrize("R_val", [0.5, 1.0, 1.3, 4.0])
def test_u_equals_transcription_bitwise(R_val):
    R = SphereRadius(R_val)
    u = cotangent_potential(R).u
    top = 4.0 * R_val * R_val
    rng = random.Random(12)
    values = [rng.uniform(0.0, top) for _ in range(500)]
    values += [top * 10.0 ** -rng.uniform(1, 17) for _ in range(100)]
    values += [top * (1.0 - 10.0 ** -rng.uniform(1, 16)) for _ in range(100)]
    values += [0.0, -0.0, -1.0, top, top * 2.0, math.nan, math.inf]
    for d2 in values:
        assert _value_outcome(lambda: u(d2)) == _value_outcome(
            lambda: cotangent_u_reference(d2, R)), d2


def _random_points(rng):
    """Three sphere points, with a random pair at one point, at antipodes
    or next to either, a body on a pole, or a non-finite angle."""
    th = [rng.uniform(-math.pi, math.pi) for _ in range(3)]
    ph = [rng.uniform(-7.0, 7.0) for _ in range(3)]
    kind = rng.randrange(6)
    j = rng.randrange(3)
    i = (j + 1) % 3
    if kind == 0:
        th[i], ph[i] = th[j] + rng.choice([0.0, 1e-9]), ph[j]
    elif kind == 1:
        th[i], ph[i] = math.pi - th[j], ph[j] + math.pi + rng.choice([0.0, 1e-9])
    elif kind == 2:
        th[j] = rng.choice([0.0, math.pi])
    elif kind == 3:
        th[j] = rng.choice([math.nan, math.inf])
    return [SpherePoint(t, p) for t, p in zip(th, ph)]


def test_total_potential_matches_transcription_bitwise():
    rng = random.Random(21)
    seen = set()
    for n in range(3000):
        R = SphereRadius(rng.choice([0.5, 1.0, 3.0]))
        pot = cotangent_potential(R)
        if n % 2:
            pot = repulsive(pot)
        points = _random_points(rng)
        masses = tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3))
        expect = _value_outcome(lambda: total_potential_reference(points, masses, pot))
        assert _value_outcome(lambda: total_potential(points, masses, pot)) == expect, (
            n, points)
        seen.add(expect[0] if expect[0] != "SingularityError" else expect[1:4:2])
    pairs = [(1, 2), (2, 3), (3, 1)]
    assert {"ok", "ValueError"} <= seen
    assert {(k, p) for k in (COLLISION, ANTIPODAL) for p in pairs} <= seen
