import math

import pytest

from sphere3body.geometry import (
    SpherePoint,
    SphereRadius,
    arc_angle,
    arc_from_chord_squared,
    chord_from_arc,
    chord_squared,
)


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
