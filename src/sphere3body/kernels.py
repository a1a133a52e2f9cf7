"""The reduced scalar equation g of the rotating meridian, in one place.

With alpha = sign(sin x) and beta = sign(sin(x - a)) taken from the
region of x,

    g = alpha*beta*sin^2(x)*sin^2(x - a)*(nu1*sin 2x + nu2*sin 2(x - a))
        - sin^2(a)*(alpha*sin^2(x)*sin 2x - beta*sin^2(x - a)*sin 2(x - a))
        - sin^2(a)*sin(2a)*(nu2*alpha*sin^2(x) + nu1*beta*sin^2(x - a)).

g is linear in (nu1, nu2): g = nu1*P + nu2*Q + S, where P, Q and S
depend on x and a only (``g_terms``). alpha*sin^2(x) is written as
sin(x)*|sin(x)|, so no region table is needed.

A float x (numpy's float64 is one) takes its sines from ``math``, an
array from numpy: the root finder bisects on scalar g (``g_of_x``),
where a numpy scalar costs more than the arithmetic. ``g_scalar`` is
``g_of_x`` at one x. Both paths give the same bits only while numpy's
float64 sin agrees with the C library's; numpy 2.4.6 on an AVX512_SPR
host (its highest dispatch target) disagreed at none of 8 million
points, and the exact g_scalar == g_array test in tests/test_kernels.py
checks it, and so the bisection's g, on every host.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "python"


def _terms(x, a, sin, sa2, sa2s2a):
    """(P, Q, S) at x, with sa2 = sin^2(a) and sa2s2a = sin^2(a)*sin(2a)."""
    sx = sin(x)
    sxa = sin(x - a)
    A = sx * abs(sx)  # alpha * sin^2(x)
    B = sxa * abs(sxa)  # beta * sin^2(x - a)
    sin2x = sin(2.0 * x)
    sin2xa = sin(2.0 * (x - a))
    AB = A * B
    P = AB * sin2x - sa2s2a * B
    Q = AB * sin2xa - sa2s2a * A
    S = -sa2 * (A * sin2x - B * sin2xa)
    return P, Q, S


def g_terms(x, a: float):
    """(P, Q, S) with g = nu1*P + nu2*Q + S, for a float or an array x."""
    sin = math.sin if isinstance(x, float) else np.sin
    sa2 = math.sin(a) ** 2
    return _terms(x, a, sin, sa2, sa2 * math.sin(2.0 * a))


def g_terms_scale(x: float, a: float) -> tuple[float, float, float]:
    """For a float x, the sums (Ps, Qs, Ss) of the magnitudes of the
    products that P, Q and S add up. g's rounding error is a few ulps of
    nu1*Ps + nu2*Qs + Ss, also where P, Q and S each cancel (all three
    vanish at a = 2*pi/3, x = 4*pi/3)."""
    sx, sxa = math.sin(x), math.sin(x - a)
    A, B = sx * sx, sxa * sxa
    sin2x, sin2xa = abs(math.sin(2.0 * x)), abs(math.sin(2.0 * (x - a)))
    sa2 = math.sin(a) ** 2
    sa2s2a = sa2 * abs(math.sin(2.0 * a))
    return (A * B * sin2x + sa2s2a * B, A * B * sin2xa + sa2s2a * A,
            sa2 * (A * sin2x + B * sin2xa))


def g_bound(nu1: float, nu2: float) -> float:
    """2*(|nu1| + |nu2|) + 2, which bounds |g| and every partial sum of
    nu1*P + nu2*Q + S, as |P|, |Q|, |S| <= 2. Raises ValueError where it
    is not finite: g may overflow there."""
    bound = 2.0 * (abs(nu1) + abs(nu2)) + 2.0
    if not bound < math.inf:
        raise ValueError(f"nu1 = {nu1} and nu2 = {nu2} are too large: g overflows")
    return bound


def g_array(x, a: float, nu1: float, nu2: float) -> np.ndarray:
    P, Q, S = g_terms(np.asarray(x, dtype=float), a)
    return nu1 * P + nu2 * Q + S


def g_scalar(x: float, a: float, nu1: float, nu2: float) -> float:
    return g_of_x(a, nu1, nu2)(x)


def g_of_x(a: float, nu1: float, nu2: float):
    """g as a function of a float x alone, for fixed (a, nu1, nu2), on
    plain floats, with sin^2(a) and sin(2a) taken once (the root
    finder's bisection calls it a few hundred times per solve)."""
    nu1, nu2 = float(nu1), float(nu2)
    sa2 = math.sin(a) ** 2
    sa2s2a = sa2 * math.sin(2.0 * a)
    sin = math.sin

    def g(x: float) -> float:
        P, Q, S = _terms(x, a, sin, sa2, sa2s2a)
        return nu1 * P + nu2 * Q + S

    return g
