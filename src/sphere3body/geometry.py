"""Spherical-coordinate kinematics: embedding, chord distances, arc angles.

Colatitude theta is allowed in [-pi, pi] so that configurations on a
rotating meridian can be parameterized continuously through the poles.
Longitude phi is reduced mod 2*pi. The cosine of the arc between two
points is written once (_cos_arc); chord_squared and arc_angle read it.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class SpherePoint(NamedTuple):
    """A point on the sphere, (theta, phi) in radians."""

    theta: float
    phi: float

    def embed(self, R: "SphereRadius") -> tuple[float, float, float]:
        """Cartesian embedding (X, Y, Z) on the radius-R sphere."""
        st = math.sin(self.theta)
        return (
            R.R * st * math.cos(self.phi),
            R.R * st * math.sin(self.phi),
            R.R * math.cos(self.theta),
        )


class _SphereRadiusFields(NamedTuple):
    R: float = 1.0


class SphereRadius(_SphereRadiusFields):
    """Sphere radius R > 0 and the derived scale epsilon = 1/(2R)."""

    __slots__ = ()

    def __new__(cls, R: float = 1.0):
        if not 0.0 < R < math.inf:
            raise ValueError(f"sphere radius must be positive and finite, got {R}")
        return super().__new__(cls, R)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    @property
    def epsilon(self) -> float:
        return 1.0 / (2.0 * self.R)


def _clamp(v: float) -> float:
    return max(-1.0, min(1.0, v))


def _cos_arc(p_i: SpherePoint, p_j: SpherePoint) -> float:
    """The cosine of the arc between two points, clamped to [-1, 1]."""
    return _clamp(
        math.cos(p_i.theta) * math.cos(p_j.theta)
        + math.sin(p_i.theta) * math.sin(p_j.theta) * math.cos(p_i.phi - p_j.phi)
    )


def chord_squared(p_i: SpherePoint, p_j: SpherePoint, R: SphereRadius) -> float:
    """Squared chord (embedding) distance 2 R^2 (1 - cos sigma) between
    two sphere points, always in [0, 4 R^2]."""
    return 2.0 * R.R * R.R * (1.0 - _cos_arc(p_i, p_j))


def arc_angle(p_i: SpherePoint, p_j: SpherePoint) -> float:
    """Arc angle in [0, pi] between two points as seen from the center."""
    return math.acos(_cos_arc(p_i, p_j))
