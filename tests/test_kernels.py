import math

import numpy as np
import pytest

from sphere3body import kernels
from sphere3body.meridian import REGIONS

from oracles import region_bounds

# region -> (alpha, beta): the signs of sin(x) and sin(x - a)
REGION_SIGNS = {"I": (1, -1), "II": (1, 1), "III": (-1, 1), "IV": (-1, -1)}


def g_reference(x, a, nu1, nu2, region):
    """The paper's reduced equation written out term by term, with the
    signs alpha and beta taken from the region table."""
    al, be = REGION_SIGNS[region]
    s2x = math.sin(x) ** 2
    s2xa = math.sin(x - a) ** 2
    sa2 = math.sin(a) ** 2
    return (
        al * be * s2x * s2xa * (nu1 * math.sin(2.0 * x) + nu2 * math.sin(2.0 * (x - a)))
        - sa2 * (al * s2x * math.sin(2.0 * x) - be * s2xa * math.sin(2.0 * (x - a)))
        - sa2 * math.sin(2.0 * a) * (nu2 * al * s2x + nu1 * be * s2xa)
    )


def random_cases(seed, n):
    """(a, nu1, nu2, region, x) with x drawn inside the region."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        a = rng.uniform(0.05, math.pi - 0.05)
        nu1, nu2 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        region = REGIONS[k % 4]
        lo, hi = region_bounds(region, a)
        yield a, nu1, nu2, region, rng.uniform(lo + 1e-6, hi - 1e-6)


def terms_at(x, a):
    """g_terms, which takes arrays, at one float x, as floats."""
    return [float(t[0]) for t in kernels.g_terms(np.array([x]), a)]


def test_backend_identifier():
    assert kernels.BACKEND == "python"


def test_matches_paper_reference():
    for a, nu1, nu2, region, x in random_cases(7, 400):
        ref = g_reference(x, a, nu1, nu2, region)
        tol = dict(rel=1e-12, abs=1e-14 * (2.0 + nu1 + nu2))
        P, Q, S = terms_at(x, a)
        assert nu1 * P + nu2 * Q + S == pytest.approx(ref, **tol)
        assert kernels.g_scalar(x, a, nu1, nu2) == pytest.approx(ref, **tol)
        assert kernels.g_array([x], a, nu1, nu2)[0] == pytest.approx(ref, **tol)


def test_scalar_matches_array():
    a, nu1, nu2 = 0.6, 3.0, 2.0
    xs = np.linspace(0.01, 2 * math.pi - 0.01, 101)
    arr = kernels.g_array(xs, a, nu1, nu2)
    assert [kernels.g_scalar(float(x), a, nu1, nu2) for x in xs] == arr.tolist()
    for a, nu1, nu2, _region, x in random_cases(11, 200):
        assert kernels.g_scalar(x, a, nu1, nu2) == kernels.g_array([x], a, nu1, nu2)[0]


def test_bound_g_matches_g_scalar_bitwise():
    for a, nu1, nu2, _region, x in random_cases(17, 400):
        g = kernels.g_of_x(a, nu1, nu2)
        for y in (x, np.float64(x)):
            assert type(g(y)) is float
            assert g(y).hex() == kernels.g_scalar(y, a, nu1, nu2).hex()


def test_array_handles_noncontiguous_input():
    a = 0.5
    xs = np.linspace(0.01, 6.0, 200)[::2]
    assert not xs.flags.c_contiguous
    out = kernels.g_array(xs, a, 1.5, 2.5)
    ref = kernels.g_array(np.ascontiguousarray(xs), a, 1.5, 2.5)
    np.testing.assert_array_equal(out, ref)


def test_scalar_path_stays_on_plain_floats():
    # the bisection's g and the scale of its rounding: no numpy scalar,
    # whether x is a float or a numpy float64 (a float subclass); g_terms
    # takes arrays and gives arrays
    for x in (1.0, np.float64(1.0)):
        assert all(type(v) is float for v in kernels.g_terms_scale(x, 0.5))
        assert type(kernels.g_scalar(x, 0.5, 3.0, 2.0)) is float
    assert all(type(v) is np.ndarray for v in kernels.g_terms(np.array([1.0]), 0.5))


def test_terms_scale_bounds_the_terms():
    for a, nu1, nu2, _region, x in random_cases(13, 200):
        P, Q, S = terms_at(x, a)
        Ps, Qs, Ss = kernels.g_terms_scale(x, a)
        assert abs(P) <= Ps and abs(Q) <= Qs and abs(S) <= Ss
    # at the equilateral shape of a = 2*pi/3 the terms cancel to rounding
    # noise while the products they add up stay of order one
    P, Q, S = terms_at(4.0 * math.pi / 3.0, 2.0 * math.pi / 3.0)
    scale = kernels.g_terms_scale(4.0 * math.pi / 3.0, 2.0 * math.pi / 3.0)
    assert max(abs(P), abs(Q), abs(S)) < 1e-15
    assert min(scale) > 0.1


def terms_transcription(x, a, sin):
    """(P, Q, S) as g's terms were written before their products were
    shared: _terms with sin^2(a) and sin^2(a)*sin(2a) taken from a."""
    sa2 = math.sin(a) ** 2
    sa2s2a = sa2 * math.sin(2.0 * a)
    sx = sin(x)
    sxa = sin(x - a)
    A = sx * abs(sx)
    B = sxa * abs(sxa)
    sin2x = sin(2.0 * x)
    sin2xa = sin(2.0 * (x - a))
    AB = A * B
    P = AB * sin2x - sa2s2a * B
    Q = AB * sin2xa - sa2s2a * A
    S = -sa2 * (A * sin2x - B * sin2xa)
    return P, Q, S


def terms_scale_transcription(x, a):
    sx, sxa = math.sin(x), math.sin(x - a)
    A, B = sx * sx, sxa * sxa
    sin2x, sin2xa = abs(math.sin(2.0 * x)), abs(math.sin(2.0 * (x - a)))
    sa2 = math.sin(a) ** 2
    sa2s2a = sa2 * abs(math.sin(2.0 * a))
    return (A * B * sin2x + sa2s2a * B, A * B * sin2xa + sa2s2a * A,
            sa2 * (A * sin2x + B * sin2xa))


def test_shared_products_match_transcription_bitwise():
    # g on floats (g_of_x, g_scalar) and arrays (g_terms, g_array), and the scale
    # of g's rounding, all from kernels._products, against the terms as
    # they were written out: random (a, x) in all four regions, with
    # nu1 and nu2 of either sign, and the point where P, Q and S cancel
    cases = [(a, nu1, -nu2 if k % 3 else nu2, x)
             for k, (a, nu1, nu2, _region, x) in enumerate(random_cases(23, 800))]
    cases.append((2.0 * math.pi / 3.0, 3.0, 2.0, 4.0 * math.pi / 3.0))
    for a, nu1, nu2, x in cases:
        P, Q, S = terms_transcription(x, a, math.sin)
        g = nu1 * P + nu2 * Q + S
        assert kernels.g_of_x(a, nu1, nu2)(x).hex() == g.hex()
        assert kernels.g_scalar(x, a, nu1, nu2).hex() == g.hex()
        x1 = np.array([x])
        assert [t.tobytes() for t in kernels.g_terms(x1, a)] == [
            t.tobytes() for t in terms_transcription(x1, a, np.sin)]
        assert [t.hex() for t in kernels.g_terms_scale(x, a)] == [
            t.hex() for t in terms_scale_transcription(x, a)]
    xs = np.array([x for _a, _nu1, _nu2, x in cases])
    for a, nu1, nu2, _x in cases[::40] + cases[-1:]:
        P, Q, S = terms_transcription(xs, a, np.sin)
        assert (kernels.g_array(xs, a, nu1, nu2).tobytes()
                == (nu1 * P + nu2 * Q + S).tobytes())
