import math
import random

import pytest

from sphere3body.geometry import SpherePoint, SphereRadius, arc_angle, chord_squared

from oracles import arc_from_chord_squared, chord_from_arc


def test_sphere_radius_epsilon():
    R = SphereRadius(2.0)
    assert R.epsilon == 0.25


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_sphere_radius_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        SphereRadius(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sphere_radius_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        SphereRadius(bad)


def test_chord_squared_matches_embedding():
    R = SphereRadius(3.0)
    p = SpherePoint(0.7, 1.1)
    q = SpherePoint(2.1, -0.4)
    xp, yp, zp = p.embed(R)
    xq, yq, zq = q.embed(R)
    direct = (xp - xq) ** 2 + (yp - yq) ** 2 + (zp - zq) ** 2
    assert chord_squared(p, q, R) == pytest.approx(direct, rel=1e-14)


def test_chord_squared_symmetric():
    R = SphereRadius(1.0)
    p = SpherePoint(0.3, 2.0)
    q = SpherePoint(1.9, 0.5)
    assert chord_squared(p, q, R) == chord_squared(q, p, R)


@pytest.mark.parametrize("R_val", [0.5, 1.0, 10.0])
@pytest.mark.parametrize("sigma", [1e-6, 0.1, math.pi / 2, 3.0, math.pi])
def test_chord_arc_round_trip(R_val, sigma):
    R = SphereRadius(R_val)
    d = chord_from_arc(sigma, R)
    assert arc_from_chord_squared(d * d, R) == pytest.approx(sigma, abs=1e-7)


def test_chord_from_arc_domain():
    R = SphereRadius(1.0)
    with pytest.raises(ValueError):
        chord_from_arc(-0.1, R)
    with pytest.raises(ValueError):
        chord_from_arc(math.pi + 0.1, R)


def test_chord_from_arc_extremes():
    R = SphereRadius(2.0)
    assert chord_from_arc(0.0, R) == 0.0
    assert chord_from_arc(math.pi, R) == pytest.approx(4.0)  # diameter


def test_arc_angle_known_values():
    north = SpherePoint(0.0, 0.0)
    equ = SpherePoint(math.pi / 2, 0.0)
    south = SpherePoint(math.pi, 0.3)
    assert arc_angle(north, equ) == pytest.approx(math.pi / 2)
    assert arc_angle(north, south) == pytest.approx(math.pi)
    assert arc_angle(equ, equ) == pytest.approx(0.0, abs=1e-8)


def test_arc_angle_fundamental_relation():
    # cos(sigma) = cos t_i cos t_j + sin t_i sin t_j cos(p_i - p_j)
    p = SpherePoint(1.2, 0.4)
    q = SpherePoint(0.8, 2.9)
    expected = math.acos(
        math.cos(1.2) * math.cos(0.8)
        + math.sin(1.2) * math.sin(0.8) * math.cos(0.4 - 2.9)
    )
    assert arc_angle(p, q) == pytest.approx(expected, rel=1e-14)


# Literal transcriptions of chord_squared and arc_angle as each wrote the
# arc's cosine out in full, kept as the reference for the shared one.
def chord_squared_reference(p_i, p_j, R):
    c = (
        math.cos(p_i.theta) * math.cos(p_j.theta)
        + math.sin(p_i.theta) * math.sin(p_j.theta) * math.cos(p_i.phi - p_j.phi)
    )
    return 2.0 * R.R * R.R * (1.0 - max(-1.0, min(1.0, c)))


def arc_angle_reference(p_i, p_j):
    c = (
        math.cos(p_i.theta) * math.cos(p_j.theta)
        + math.sin(p_i.theta) * math.sin(p_j.theta) * math.cos(p_i.phi - p_j.phi)
    )
    return math.acos(max(-1.0, min(1.0, c)))


def _geometry_outcome(fn, *args):
    try:
        return ("ok", fn(*args).hex())
    except ValueError as err:
        return (type(err).__name__, str(err))


def test_chord_and_arc_match_transcription_bitwise():
    # random pairs, and pairs at one point, at antipodes, on a pole and
    # with a non-finite angle
    rng = random.Random(20)
    pairs = []
    for _ in range(2000):
        t, p = rng.uniform(-math.pi, math.pi), rng.uniform(-7.0, 7.0)
        pairs.append(((t, p), (rng.uniform(-math.pi, math.pi), rng.uniform(-7.0, 7.0))))
        pairs.append(((t, p), (t, p)))
        pairs.append(((t, p), (math.pi - t, p + math.pi)))
        pairs.append(((rng.choice([0.0, math.pi, -math.pi]), p), (t, p + 1.0)))
        pairs.append(((t + rng.choice([1e-9, 1e-15]), p), (t, p)))
    pairs += [((math.nan, 0.3), (1.0, 0.2)), ((1.0, math.inf), (1.0, 0.2)),
              ((math.inf, 0.3), (1.0, 0.2))]
    clamped = 0
    for R in (SphereRadius(0.5), SphereRadius(1.0), SphereRadius(3.0)):
        for (ti, pi_), (tj, pj) in pairs:
            p, q = SpherePoint(ti, pi_), SpherePoint(tj, pj)
            got = _geometry_outcome(chord_squared, p, q, R)
            assert got == _geometry_outcome(chord_squared_reference, p, q, R), (p, q, R)
            clamped += got[1] in ((0.0).hex(), (4.0 * R.R * R.R).hex())
            assert _geometry_outcome(arc_angle, p, q) == _geometry_outcome(
                arc_angle_reference, p, q), (p, q)
    assert clamped > 1000  # D^2 = 0 and D^2 = 4 R^2 both occur
