"""Closed-form rotating equilibria on the equator for the cotangent
potential: existence region, longitude differences, the common sine
ratio and the potential energy.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .dynamics import MassTriple

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


class ExistenceResult(NamedTuple):
    region: str
    violated: str | None = None


class EquatorSolution(NamedTuple):
    """Longitude differences of the unique equatorial rotator.

    The differences each lie in (0, pi) and sum to 2*pi. rho is the
    common value of sin(dphi)/mu. neg_potential_energy is -V, always
    positive on the interior region.
    """

    dphi_12: float
    dphi_23: float
    dphi_31: float
    rho: float
    neg_potential_energy: float

    def phis(self) -> tuple[float, float, float]:
        """A concrete longitude assignment with phi_1 = 0."""
        return (0.0, -self.dphi_12, -self.dphi_12 - self.dphi_23)


class NoEquatorSolution(ValueError):
    def __init__(self, result: ExistenceResult):
        self.result = result
        super().__init__(
            f"no equatorial rotator: region={result.region}, violated={result.violated}"
        )


def existence_check(masses: MassTriple) -> ExistenceResult:
    """Classify the mass triple by the triangle inequalities on mu_k.

    Interior (strict inequalities) has exactly one rotator; the boundary
    and the exterior have none.
    """
    mu = masses.mu
    scale = sum(mu)
    region = INTERIOR
    violated = None
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        gap = (mu[i] + mu[j]) - mu[k]
        label = f"mu{k + 1} < mu{i + 1} + mu{j + 1}"
        if abs(gap) <= 1e-12 * scale:
            region = BOUNDARY
            violated = label
            break
        if gap < 0:
            region = EXTERIOR
            violated = label
            break
    return ExistenceResult(region, violated)


def _dphis_from_mu(mu: Sequence[float], rho: float) -> tuple[float, float, float]:
    # two-argument arctangent fixes each quadrant so the three sum to 2*pi
    out = []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        cos_v = (mu[k] ** 2 - (mu[i] ** 2 + mu[j] ** 2)) / (2.0 * mu[i] * mu[j])
        out.append(math.atan2(rho * mu[k], cos_v))
    # order: dphi_12 pairs with mu3, dphi_23 with mu1, dphi_31 with mu2
    return out[2], out[0], out[1]


def solve_equator(masses: MassTriple) -> EquatorSolution:
    """The unique equatorial rotator, valid for every omega including 0."""
    check = existence_check(masses)
    if check.region != INTERIOR:
        raise NoEquatorSolution(check)
    return _closed_form(masses)


def _closed_form(masses: MassTriple) -> EquatorSolution:
    # prod > 0 inside the existence region; on its boundary (the antipodal
    # limit) rounding may leave it just below 0
    mu1, mu2, mu3 = masses.mu
    prod = max(
        0.0,
        (mu1 + mu2 + mu3)
        * (mu1 + mu2 - mu3)
        * (mu2 + mu3 - mu1)
        * (mu3 + mu1 - mu2),
    )
    rho = math.sqrt(prod) / (2.0 * mu1 * mu2 * mu3)
    d12, d23, d31 = _dphis_from_mu(masses.mu, rho)
    neg_v = math.sqrt(prod)  # divided by R when R != 1; stored for R = 1
    return EquatorSolution(d12, d23, d31, rho, neg_v)
