"""The reduced scalar equation g of the rotating meridian, in one place.

With alpha = sign(sin x) and beta = sign(sin(x - a)) taken from the
region of x,

    g = alpha*beta*sin^2(x)*sin^2(x - a)*(nu1*sin 2x + nu2*sin 2(x - a))
        - sin^2(a)*(alpha*sin^2(x)*sin 2x - beta*sin^2(x - a)*sin 2(x - a))
        - sin^2(a)*sin(2a)*(nu2*alpha*sin^2(x) + nu1*beta*sin^2(x - a)).

g is linear in (nu1, nu2): g = nu1*P + nu2*Q + S, where P, Q and S
depend on x and a only (``g_terms``). alpha*sin^2(x) is written as
sin(x)*|sin(x)|, so no region table is needed.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "python"


def g_terms(x, a: float):
    """(P, Q, S) with g = nu1*P + nu2*Q + S, for a float or an array x."""
    sx = np.sin(x)
    sxa = np.sin(x - a)
    A = sx * abs(sx)  # alpha * sin^2(x)
    B = sxa * abs(sxa)  # beta * sin^2(x - a)
    sin2x = np.sin(2.0 * x)
    sin2xa = np.sin(2.0 * (x - a))
    sa2 = math.sin(a) ** 2
    sa2s2a = sa2 * math.sin(2.0 * a)
    AB = A * B
    P = AB * sin2x - sa2s2a * B
    Q = AB * sin2xa - sa2s2a * A
    S = -sa2 * (A * sin2x - B * sin2xa)
    return P, Q, S


def g_array(x, a: float, nu1: float, nu2: float) -> np.ndarray:
    P, Q, S = g_terms(np.asarray(x, dtype=float), a)
    return nu1 * P + nu2 * Q + S


def g_scalar(x: float, a: float, nu1: float, nu2: float) -> float:
    P, Q, S = g_terms(x, a)
    return float(nu1 * P + nu2 * Q + S)
