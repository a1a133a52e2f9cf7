"""Output checks made apart from the solver.

Nothing here imports sphere3body: every check re-derives what it needs
from the paper or from a property the method must have, so a fault the
solver and its own verifier share still shows. Plain ``math`` only, so
that importing this module does not pre-load numpy before the benchmark
times the import of the CLI.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

# Largest defect, in radians of x, of a configuration taken as a
# relative equilibrium (RE). The solutions of the workloads sit within
# 1.5e-12 rad of an exact RE; moving x by 1e-6 gives about 5e-7 rad.
CARTESIAN_TOL_X = 1e-9
# Step of x that calibrates the defect scale (see defect_in_x).
_X_STEP = 1e-6
# Mirrored solutions come from separate root searches, so their x agree
# only to the solver's precision.
MIRROR_X_TOL = 1e-7
ISOSCELES_COS_A = (math.sqrt(2.0) - 1.0) / 2.0
ISOSCELES_FACTOR = math.sqrt((13.0 + 16.0 * math.sqrt(2.0)) / 7.0)

# Paper, Table 2: counts per region I..IV at a = pi/2, which depend on
# nu1 - nu2 only. On |nu1 - nu2| = 4 one root is tangent.
TABLE2_BELOW_MINUS4 = (1, 0, 1, 2)
TABLE2_AT_MINUS4 = (1, 0, 1, 1)
TABLE2_INSIDE = (1, 0, 1, 0)
TABLE2_AT_PLUS4 = (1, 1, 1, 0)
TABLE2_ABOVE_PLUS4 = (1, 2, 1, 0)

# Paper's named solve cases: a = pi/6 and a = pi/4 with m = (3, 2, 1),
# and the eight-solution point outside the counting-condition domain.
PI6_REGIONS = (1, 2, 1, 2)  # regions I..IV
PI4_COUNT = 2
EIGHT_POINT_COUNT = 8


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _norm(u):
    return math.sqrt(_dot(u, u))


def _tangential(v, n):
    d = _dot(v, n)
    return (v[0] - d * n[0], v[1] - d * n[1], v[2] - d * n[2])


def rigid_rotation_defect(thetas, omega_squared, masses, R=1.0) -> float:
    """Largest relative defect of the rigid-rotation conditions for three
    bodies on the meridian phi = 0, spinning at omega about the z-axis
    under the cotangent potential (1/R) cot(sigma).

    Two conditions, in Cartesian coordinates:
    - per body, the tangential part of gravity plus m w^2 rho (rho the
      distance vector from the axis) vanishes, measured against the sum
      of the magnitudes of its terms;
    - the angular momentum lies along the axis, measured against
      R^2 * sum(m).

    The force of body i on body k is m_k m_i r_i / (R^3 sin^3 sigma),
    the gradient of the force function in r_k; sin(sigma) comes from a
    cross product so that near-collision pairs keep their precision.
    """
    w2 = 0.0 if omega_squared is None else float(omega_squared)
    r = [(R * math.sin(t), 0.0, R * math.cos(t)) for t in thetas]
    worst = 0.0
    for k in range(3):
        n = (r[k][0] / R, r[k][1] / R, r[k][2] / R)
        terms = []
        for i in range(3):
            if i == k:
                continue
            sin_s = _norm(_cross(r[k], r[i])) / (R * R)
            if sin_s == 0.0:
                return math.inf  # collision or antipodal pair
            c = masses[k] * masses[i] / (R ** 3 * sin_s ** 3)
            terms.append(_tangential((c * r[i][0], c * r[i][1], c * r[i][2]), n))
        rho = (r[k][0], r[k][1], 0.0)
        terms.append(_tangential(
            (masses[k] * w2 * rho[0], masses[k] * w2 * rho[1], 0.0), n))
        total = (sum(t[0] for t in terms), sum(t[1] for t in terms),
                 sum(t[2] for t in terms))
        scale = sum(_norm(t) for t in terms)
        if scale > 0.0:
            worst = max(worst, _norm(total) / scale)
    if w2 > 0.0:
        # L = sum m r x (z x r); omega factors out of both sides
        lx = ly = 0.0
        for m, rk in zip(masses, r):
            lk = _cross(rk, (-rk[1], rk[0], 0.0))
            lx += m * lk[0]
            ly += m * lk[1]
        worst = max(worst, math.hypot(lx, ly) / (R * R * sum(masses)))
    return worst


def defect_in_x(thetas, omega_squared, masses, R=1.0) -> float:
    """rigid_rotation_defect expressed as a distance in x: its ratio to
    the defect after moving body 3 by a known step, times that step.

    A relative defect alone cannot tell a wrong solution from a right one
    near a collision or an antipodal pair, where the terms grow like
    1/sin^3(sigma) and one ulp of x moves them by 1e-9 of their size;
    measured in x, both kinds of solution meet the same tolerance.
    """
    d = rigid_rotation_defect(thetas, omega_squared, masses, R)
    moved = (thetas[0], thetas[1], thetas[2] + _X_STEP)
    ref = rigid_rotation_defect(moved, omega_squared, masses, R)
    return _X_STEP * d / ref if ref > 0.0 else math.inf


def _wrap(d: float) -> float:
    """d reduced to (-pi, pi]."""
    return math.remainder(d, TWO_PI)


def solution_problems(rec: dict, a: float, masses, R=1.0) -> list[str]:
    """Problems with one meridian solution record (empty when it holds):
    the lift must place body 2 at a and body 3 at x from body 1, and both
    the configuration and its antipodal partner must be RE."""
    out = []
    th = rec["theta"]
    if abs(_wrap(th[1] - th[0] - a)) > 1e-12:
        out.append(f"theta2 - theta1 != a at x={rec['x']}")
    if abs(_wrap(th[2] - th[0] - rec["x"])) > 1e-12:
        out.append(f"theta3 - theta1 != x at x={rec['x']}")
    for key in ("theta", "theta_alt"):
        d = defect_in_x(rec[key], rec["omega_squared"], masses, R)
        if not d <= CARTESIAN_TOL_X:
            out.append(f"{key} at x={rec['x']} is no RE: defect {d:.3e} rad")
    return out


def mirror_problems(xs: list[float], mirror_xs: list[float], a: float) -> list[str]:
    """Swapping m1 and m2 maps each solution x to a - x (mod 2 pi): the
    two inputs must give equal counts and matching shape angles."""
    if len(xs) != len(mirror_xs):
        return [f"mirror counts differ: {len(xs)} vs {len(mirror_xs)} at a={a}"]
    mapped = sorted((a - x) % TWO_PI for x in xs)
    for x, y in zip(mapped, sorted(mirror_xs)):
        if abs(_wrap(x - y)) > MIRROR_X_TOL:
            return [f"mirror x differs: {x} vs {y} at a={a}"]
    return []


def amplitude(masses, a: float, x: float) -> float:
    """Amplitude A of the zero-angular-momentum lift for shape (a, x)."""
    m1, m2, m3 = masses
    a2 = (m1 * m1 + m2 * m2 + m3 * m3 + 2.0 * m1 * m2 * math.cos(2.0 * a)
          + 2.0 * m1 * m3 * math.cos(2.0 * x)
          + 2.0 * m2 * m3 * math.cos(2.0 * (x - a)))
    return math.sqrt(a2)


def named_case_problems(case: str, a: float, masses, records: list[dict]) -> list[str]:
    """The paper's counts and closed forms for the named solve inputs."""
    n = len(records)
    if case == "pi6":
        got = _region_counts(records)
        if got != PI6_REGIONS:
            return [f"a=pi/6 regions {got}, paper {PI6_REGIONS}"]
    elif case == "pi4":
        if n != PI4_COUNT:
            return [f"a=pi/4 gives {n} solutions, paper {PI4_COUNT}"]
    elif case.startswith("table2"):
        want = table2_counts(masses[0] / masses[2] - masses[1] / masses[2])
        got = _region_counts(records)
        if got != want:
            return [f"Table 2 case {case} gives {got}, paper {want}"]
    elif case == "eight":
        if n != EIGHT_POINT_COUNT:
            return [f"eight-solution point gives {n}"]
    elif case == "isosceles":
        iso = [r for r in records if abs(r["x"] - a / 2.0) < 1e-9]
        if len(iso) != 1:
            return [f"isosceles x=a/2 found {len(iso)} times"]
        want = 16.0 * amplitude(masses, a, a / 2.0) / 7.0 * ISOSCELES_FACTOR
        got = iso[0]["omega_squared"]
        if got is None or abs(got - want) > 1e-10 * want:
            return [f"isosceles omega^2 {got}, closed form {want}"]
    return []


def table2_counts(nu_diff: float) -> tuple[int, int, int, int]:
    """Table 2 counts per region for a = pi/2."""
    if abs(nu_diff + 4.0) <= 1e-12:
        return TABLE2_AT_MINUS4
    if abs(nu_diff - 4.0) <= 1e-12:
        return TABLE2_AT_PLUS4
    if nu_diff < -4.0:
        return TABLE2_BELOW_MINUS4
    if nu_diff > 4.0:
        return TABLE2_ABOVE_PLUS4
    return TABLE2_INSIDE


def _region_counts(records) -> tuple[int, int, int, int]:
    return tuple(sum(r["region"] == name for r in records)
                 for name in ("I", "II", "III", "IV"))


def sweep_slice_problems(a: float, nu1: list[float], nu2: list[float],
                         counts: dict[str, list[list[int]]]) -> list[str]:
    """Symmetries of one a-slice of per-region counts (indexed [i][j] for
    nu1[i], nu2[j]), and Table 2 when a = pi/2.

    Swapping m1 and m2 maps region I and III onto themselves and II onto
    IV, so on a square grid with nu1 == nu2 count_I and count_III are
    symmetric and count_II is the transpose of count_IV.
    """
    out = []
    n = len(nu1)
    cI, cII, cIII, cIV = (counts[r] for r in ("I", "II", "III", "IV"))
    for i in range(n):
        for j in range(n):
            if cI[i][j] != cI[j][i] or cIII[i][j] != cIII[j][i]:
                out.append(f"count_I/III not symmetric at ({i},{j}), a={a}")
            if cII[i][j] != cIV[j][i]:
                out.append(f"count_II != count_IV^T at ({i},{j}), a={a}")
    if abs(a - math.pi / 2.0) <= 1e-15:
        for i in range(n):
            for j in range(n):
                diff = nu1[i] - nu2[j]
                if abs(abs(diff) - 4.0) <= 1e-9:
                    continue  # tangent: the sampled counter cannot resolve it
                want = table2_counts(diff)
                got = (cI[i][j], cII[i][j], cIII[i][j], cIV[i][j])
                if got != want:
                    out.append(f"Table 2 cell nu=({nu1[i]},{nu2[j]}): "
                               f"{got} vs {want}")
    return out[:5]
