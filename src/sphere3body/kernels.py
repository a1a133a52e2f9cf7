"""The reduced scalar equation g of the rotating meridian, in one place.

With alpha = sign(sin x) and beta = sign(sin(x - a)) taken from the
region of x,

    g = alpha*beta*sin^2(x)*sin^2(x - a)*(nu1*sin 2x + nu2*sin 2(x - a))
        - sin^2(a)*(alpha*sin^2(x)*sin 2x - beta*sin^2(x - a)*sin 2(x - a))
        - sin^2(a)*sin(2a)*(nu2*alpha*sin^2(x) + nu1*beta*sin^2(x - a)).

g is linear in (nu1, nu2): g = nu1*P + nu2*Q + S, where P, Q and S
depend on x and a only (``g_terms``). alpha*sin^2(x) is written as
sin(x)*|sin(x)|, so no region table is needed. The six products that P,
Q and S add up are written once (``_products``): g_terms, g_of_x's g
and g_terms_scale, which bounds g's rounding, all take them from there.

Each g function takes one form of x. ``g_of_x``, ``g_scalar`` (g_of_x
at one x) and ``g_terms_scale`` take a float and take their sines from
``math``; ``g_terms`` and ``g_array`` take an array and take them from
numpy, which only they import. The root finder samples and refines g on
plain floats (``g_of_x``), so a process that solves and never makes an
array never imports numpy. Both forms give the same bits only while
numpy's float64 sin agrees with the C library's; numpy 2.4.6 on an
AVX512_SPR host (its highest dispatch target) disagreed at none of 8
million points, and the exact g_scalar == g_array test in
tests/test_kernels.py checks it on every host.
"""

from __future__ import annotations

import math

BACKEND = "python"


def _products(x, a, sin, sa2s2a):
    """The six products that P, Q and S add up, at x: with
    A = alpha*sin^2(x), B = beta*sin^2(x - a) and sa2s2a = sin^2(a)*sin(2a),
    (A*B*sin 2x, sa2s2a*B, A*B*sin 2(x - a), sa2s2a*A, A*sin 2x,
    B*sin 2(x - a))."""
    sx = sin(x)
    sxa = sin(x - a)
    A = sx * abs(sx)
    B = sxa * abs(sxa)
    sin2x = sin(2.0 * x)
    sin2xa = sin(2.0 * (x - a))
    AB = A * B
    return AB * sin2x, sa2s2a * B, AB * sin2xa, sa2s2a * A, A * sin2x, B * sin2xa


def g_terms(x, a: float):
    """(P, Q, S) with g = nu1*P + nu2*Q + S, as numpy arrays, at each x of
    an array."""
    import numpy as np

    sa2 = math.sin(a) ** 2
    p1, p2, p3, p4, p5, p6 = _products(x, a, np.sin, sa2 * math.sin(2.0 * a))
    return p1 - p2, p3 - p4, -sa2 * (p5 - p6)


def g_terms_scale(x: float, a: float) -> tuple[float, float, float]:
    """For a float x, the sums (Ps, Qs, Ss) of the magnitudes of the
    products that P, Q and S add up. g's rounding error is a few ulps of
    nu1*Ps + nu2*Qs + Ss, also where P, Q and S each cancel (all three
    vanish at a = 2*pi/3, x = 4*pi/3)."""
    sa2 = math.sin(a) ** 2
    p1, p2, p3, p4, p5, p6 = _products(x, a, math.sin, sa2 * math.sin(2.0 * a))
    return abs(p1) + abs(p2), abs(p3) + abs(p4), sa2 * (abs(p5) + abs(p6))


def g_bound(nu1: float, nu2: float) -> float:
    """2*(|nu1| + |nu2|) + 2, which bounds |g| and every partial sum of
    nu1*P + nu2*Q + S, as |P|, |Q|, |S| <= 2. Raises ValueError where it
    is not finite: g may overflow there."""
    bound = 2.0 * (abs(nu1) + abs(nu2)) + 2.0
    if not bound < math.inf:
        raise ValueError(f"nu1 = {nu1} and nu2 = {nu2} are too large: g overflows")
    return bound


def g_array(x, a: float, nu1: float, nu2: float):
    """g at each x of an array, as a numpy array."""
    import numpy as np

    P, Q, S = g_terms(np.asarray(x, dtype=float), a)
    return nu1 * P + nu2 * Q + S


def g_scalar(x: float, a: float, nu1: float, nu2: float) -> float:
    return g_of_x(a, nu1, nu2)(x)


def g_of_x(a: float, nu1: float, nu2: float):
    """g as a function of a float x alone, for fixed (a, nu1, nu2), on
    plain floats, with sin^2(a) and sin(2a) taken once (the root finder
    calls it at 13 samples per region, at each knot and about 11 times
    per root it refines)."""
    nu1, nu2 = float(nu1), float(nu2)
    sa2 = math.sin(a) ** 2
    sa2s2a = sa2 * math.sin(2.0 * a)
    sin = math.sin

    def g(x: float) -> float:
        p1, p2, p3, p4, p5, p6 = _products(x, a, sin, sa2s2a)
        return nu1 * (p1 - p2) + nu2 * (p3 - p4) - sa2 * (p5 - p6)

    return g
