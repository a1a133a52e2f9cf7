"""The flat-space (large radius) limit of the meridian equation: as the
sphere's radius grows, the scaled reduced equation g tends to the
collinear quintic of Euler's configurations on the plane. Only the
euler-limit command imports this module.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import kernels
from .dynamics import MassTriple
from .meridian import _scan_roots


def euler_quintic_coefficients(masses: MassTriple) -> list[float]:
    """Coefficients (degree descending) of the collinear quintic that
    the reduced equation degenerates to on the flat plane."""
    m1, m2, m3 = masses
    return [
        m1 + m2,
        3.0 * m1 + 2.0 * m2,
        3.0 * m1 + m2,
        -(m2 + 3.0 * m3),
        -(2.0 * m2 + 3.0 * m3),
        -(m2 + m3),
    ]


class EulerLimitRow(NamedTuple):
    R: float
    max_coeff_deviation: float
    root_deviation: float


class EulerLimitReport(NamedTuple):
    rows: list[EulerLimitRow]
    order_estimate: float
    quintic_coefficients: list[float]
    quintic_root: float


def _quintic_positive_root(coeffs: Sequence[float]) -> float:
    import numpy as np

    roots = np.roots(coeffs)
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
    if not real:
        raise ValueError("quintic has no positive real root")
    return min(real)


def euler_limit_check(
    masses: MassTriple,
    r21: float,
    R_values: Sequence[float],
) -> EulerLimitReport:
    """Compare the scaled reduced equation against the flat-plane
    collinear quintic as the sphere radius grows (region II setup).

    The scaled values m3/2 * g * (R/r21)^5 at x = (1 + lambda) * a,
    a = r21/R, converge to the quintic in lambda at second order in
    r21/R. reports per-R coefficient deviation and the deviation of the
    meridian root from the quintic's positive root.
    """
    import numpy as np

    coeffs = euler_quintic_coefficients(masses)
    lam_root = _quintic_positive_root(coeffs)
    nu1, nu2 = masses.nu1, masses.nu2
    m3 = masses.m3
    lam_nodes = np.linspace(0.2, 3.0, 6)
    vander = np.vander(lam_nodes, 6)
    rows = []
    for R in R_values:
        a = r21 / R
        try:
            scale = (R / r21) ** 5
        except OverflowError:
            raise ValueError(f"R/r21 = {R / r21} is out of range: (R/r21)^5 "
                             f"overflows") from None
        xs = (1.0 + lam_nodes) * a
        scaled = kernels.g_array(xs, a, nu1, nu2) * scale * m3 / 2.0
        fitted = np.linalg.solve(vander, scaled)
        dev = float(np.max(np.abs(fitted - np.array(coeffs))))

        # the region-II root of g nearest the flat-space root
        roots = _scan_roots(a, nu1, nu2)[1]
        root_dev = min((abs(x / a - 1.0 - lam_root) for x in roots),
                       default=math.nan)
        rows.append(EulerLimitRow(R, dev, root_dev))

    logs = [(math.log(r.R), math.log(r.max_coeff_deviation)) for r in rows]
    slope = np.polyfit([p[0] for p in logs], [p[1] for p in logs], 1)[0]
    return EulerLimitReport(rows, -slope, coeffs, lam_root)
