"""Command-line entry point: solve, sweep, verify, and emit
machine-readable results.

Exit codes: 0 = success with solutions, 2 = success but empty/no
solution (or a verification failure), 1 = usage or domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import equator as eq
from . import kernels
from . import meridian as mer
from .dynamics import (
    MassTriple,
    SphericalState,
    angular_momentum,
    backward_error,
    # not called here: the benchmark's tracer (perfbench/spans.py) reads
    # this name from the cli module
    configuration_residuals,
    integrate,
)
from .geometry import SpherePoint, SphereRadius, arc_angle
from .potential import cotangent_potential, repulsive


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_masses(text: str) -> MassTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--masses expects m1,m2,m3")
    try:
        m1, m2, m3 = (float(p) for p in parts)
        return MassTriple(m1, m2, m3)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_grid(text: str) -> np.ndarray:
    # lo:hi:n inclusive grid
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError("grid expects lo:hi:n")
    if n < 1:
        raise argparse.ArgumentTypeError(f"grid needs n >= 1 points, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"grid bounds must be finite, got {text}")
    try:
        grid = np.linspace(lo, hi, n)
    except MemoryError:
        raise argparse.ArgumentTypeError(
            f"grid of {n} points cannot be allocated") from None
    # the parser is built once, so a default grid is shared by every call
    grid.flags.writeable = False
    return grid


# argparse types; a text float() rejects is reported by argparse as an
# "invalid <function name> value"


def tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return tol


def positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def radii(text: str) -> list[float]:
    """Comma-separated radii, at least two distinct, in ascending order."""
    values = sorted(positive(r) for r in text.split(","))
    if values[0] == values[-1]:
        raise argparse.ArgumentTypeError(f"needs two distinct radii, got {text}")
    return values


def _add_masses(p: argparse.ArgumentParser):
    p.add_argument("--masses", type=_parse_masses, required=True,
                   help="m1,m2,m3 (strictly positive)")


def _add_out(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _potential(name, R: SphereRadius):
    pot = cotangent_potential(R)
    return repulsive(pot) if name == "repulsive" else pot


# ---------------------------------------------------------------- equator


def cmd_equator(args) -> int:
    R = SphereRadius(args.radius)
    try:
        result = eq.solve_equator(args.masses)
    except eq.NoEquatorSolution as exc:
        payload = {
            "exists": False,
            "region": exc.result.region,
            "reason": exc.result.region,
            "violated": exc.result.violated,
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return 2
    payload = {
        "exists": True,
        "region": eq.INTERIOR,
        "dphi_12": result.dphi_12,
        "dphi_23": result.dphi_23,
        "dphi_31": result.dphi_31,
        "dphi_over_pi": [result.dphi_12 / math.pi,
                         result.dphi_23 / math.pi,
                         result.dphi_31 / math.pi],
        "rho": result.rho,
        "neg_potential_energy": result.neg_potential_energy / R.R,
    }
    if not math.isfinite(payload["neg_potential_energy"]):
        raise ValueError(f"--radius {R.R} is out of range: the potential "
                         f"energy overflows")
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


# ---------------------------------------------------------------- meridian


def _solution_record(sol: mer.MeridianSolution) -> dict:
    return {
        "region": sol.region,
        "x": sol.x,
        "x_over_pi": sol.x / math.pi,
        "theta": list(sol.thetas),
        "theta_over_pi": [t / math.pi for t in sol.thetas],
        "theta_alt": list(sol.thetas_alt),
        "theta_alt_over_pi": [t / math.pi for t in sol.thetas_alt],
        "s": sol.s,
        "omega_squared": sol.omega_squared,
        "case": sol.case_tag,
        "residual": sol.residual_max,
    }


CSV_HEADER = ["a", "nu1", "nu2", "region", "x", "theta1", "theta2",
              "theta3", "s", "omega_squared", "residual"]


def cmd_meridian(args) -> int:
    if not 0.0 < args.a < math.pi:
        raise ValueError(f"--a must lie in (0, pi), got {args.a}")
    pot = _potential(args.potential, SphereRadius(args.radius))
    solutions = mer.find_meridian_rotators(args.a, args.masses, pot,
                                           residual_tol=args.tol_residual)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        for sol in solutions:
            writer.writerow([
                _fmt(args.a), _fmt(args.masses.nu1), _fmt(args.masses.nu2),
                sol.region, _fmt(sol.x), *(_fmt(t) for t in sol.thetas), sol.s,
                "" if sol.omega_squared is None else _fmt(sol.omega_squared),
                _fmt(sol.residual_max),
            ])
        _emit(buf.getvalue(), args.out)
    else:
        payload = {
            "metadata": {
                "masses": list(args.masses.as_tuple()),
                "a": args.a,
                "radius": args.radius,
                "potential": args.potential,
            },
            "solutions": [_solution_record(s) for s in solutions],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    return 0 if solutions else 2


# ---------------------------------------------------------------- sweep


def cmd_sweep(args) -> int:
    a_grid = args.a_grid
    nu1_grid = args.nu1_grid
    nu2_grid = args.nu2_grid
    # main() reports a ValueError and exits 1
    bad_a = [a for a in a_grid if not 0.0 < a < math.pi]
    if bad_a:
        raise ValueError(f"--a-grid values must lie in (0, pi), got {bad_a[0]}")
    if min(nu1_grid.min(), nu2_grid.min()) <= 0.0:
        raise ValueError("--nu1-grid and --nu2-grid values must be positive")
    try:
        kernels.g_bound(float(nu1_grid.max()), float(nu2_grid.max()))
    except ValueError:
        raise ValueError("--nu1-grid and --nu2-grid values are too large: "
                         "g overflows") from None
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    a_values = a_grid.tolist()
    # the first slice is counted before anything is written, so a grid too
    # large to count (MemoryError, reported by main()) leaves no output
    per_region = mer.count_rotators_grid_regions(
        a_values[0], nu1_grid, nu2_grid, args.samples)
    # the rows csv.writer would write: no field needs quoting, CRLF ends
    # each. Each a-slice is written as soon as it is counted.
    nu1_text = [_fmt(v) for v in nu1_grid.tolist()]
    nu2_text = [_fmt(v) for v in nu2_grid.tolist()]
    max_count = -1
    argmax_text = ""
    with (open(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write("a,nu1,nu2,count,count_I,count_II,count_III,count_IV\r\n")
        for a in a_values:
            if per_region is None:
                per_region = mer.count_rotators_grid_regions(
                    a, nu1_grid, nu2_grid, args.samples)
            count, text = _write_sweep_slice(fh, a, per_region, nu1_text, nu2_text)
            per_region = None  # freed before the next slice is counted
            if count > max_count:
                max_count, argmax_text = count, text
        fh.write(f"# max_count,{argmax_text},{max_count},,,,\r\n")
    return 0


class _Tails(dict):
    """The ",count,count_I,count_II,count_III,count_IV\r\n" text of each
    code of four region counts in base `base`, made on first use."""

    def __init__(self, base: int):
        super().__init__()
        self.base = base

    def __missing__(self, code: int) -> str:
        rest, c4 = divmod(code, self.base)
        rest, c3 = divmod(rest, self.base)
        c1, c2 = divmod(rest, self.base)
        tail = self[code] = f",{c1 + c2 + c3 + c4},{c1},{c2},{c3},{c4}\r\n"
        return tail


def _write_sweep_slice(fh, a, per_region, nu1_text, nu2_text) -> tuple[int, str]:
    """Write the rows of one a-slice from its per-region counts. Returns
    its largest count and the "a,nu1" text of the first cell (in row
    order) that has it."""
    total = per_region["I"].copy()
    for region in mer.REGIONS[1:]:
        total += per_region[region]
    k = int(np.argmax(total))  # the first maximum in row order
    max_count = int(total.flat[k])
    # each cell's four region counts as one code in base max_count + 1
    # (no count exceeds the total), in Python ints where int64 would
    # overflow. A row is "a,nu1," before each cell's nu2 and code's tail.
    base = max_count + 1
    code = per_region["I"].astype(np.int64 if base ** 4 <= 2 ** 63 - 1 else object)
    for region in mer.REGIONS[1:]:
        code *= base
        code += per_region[region]
    tails = _Tails(base)
    a_text = _fmt(a)
    for nu1, row in zip(nu1_text, code):
        head = f"{a_text},{nu1},"
        fh.write(head + head.join(map(str.__add__, nu2_text,
                                      map(tails.__getitem__, row.tolist()))))
    return max_count, f"{a_text},{nu1_text[k // len(nu2_text)]}"


# ---------------------------------------------------------------- verify


VERIFY_STEPS = 4000  # RK4 steps per period


def _sigma_drift(thetas, omega, masses, pot):
    """Integrate the configuration over one period and report the max
    drift of the three mutual arc angles, plus the relative drift of |c|."""
    t_end = 2.0 * math.pi / omega if omega > 0 else 10.0
    state = SphericalState(
        points=tuple(SpherePoint(t % (2 * math.pi), 0.0) for t in thetas),
        theta_dot=(0.0, 0.0, 0.0),
        phi_dot=(omega, omega, omega),
    )
    traj = integrate(state, masses, pot, t_end, t_end / VERIFY_STEPS, store_every=50)
    if traj.error:
        return None, None, traj.error

    def sigmas(th, ph):
        pts = [SpherePoint(th[k], ph[k]) for k in range(3)]
        return [arc_angle(pts[i], pts[j]) for i, j in ((0, 1), (1, 2), (2, 0))]

    ref = sigmas(traj.thetas[0], traj.phis[0])
    drift = 0.0
    for th, ph in zip(traj.thetas, traj.phis):
        cur = sigmas(th, ph)
        drift = max(drift, max(abs(c - r) for c, r in zip(cur, ref)))
    return drift, traj.c_drift, None


def _verify_record(rec: dict) -> tuple:
    """(x, thetas, omega_squared) of one solution record, omega_squared 0
    for a fixed point; raises KeyError, TypeError or ValueError when the
    record is malformed."""
    thetas = tuple(float(t) for t in rec["theta"])
    if len(thetas) != 3:
        raise ValueError(f"theta needs 3 values, got {len(thetas)}")
    if not all(math.isfinite(t) for t in thetas):
        raise ValueError(f"theta must be finite, got {list(thetas)}")
    omega2 = rec["omega_squared"]
    if omega2 is None:
        return rec.get("x"), thetas, 0.0
    if not (math.isfinite(omega2) and omega2 >= 0.0):
        raise ValueError(
            f"omega_squared must be finite and non-negative, got {omega2}")
    return rec.get("x"), thetas, omega2


def _json_value(v):
    """v, or None (JSON null) in place of a float that strict JSON
    cannot hold (nan, inf)."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def cmd_verify(args) -> int:
    try:
        with open(args.solutions) as fh:
            data = json.load(fh)
        meta = data["metadata"]
        masses = MassTriple(*meta["masses"])
        R = SphereRadius(meta["radius"])
        # files written before the key existed hold the cotangent potential
        potential = meta.get("potential", "cotangent")
        if potential not in ("cotangent", "repulsive"):
            raise ValueError(f"unknown potential {potential!r}")
        records = [_verify_record(rec) for rec in data["solutions"]]
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse {args.solutions}: {exc}", file=sys.stderr)
        return 1
    pot = _potential(potential, R)

    reports = []
    # a file with no solution verifies none: exit 2, as meridian did
    all_pass = bool(records)
    for x, thetas, omega_squared in records:
        residual = backward_error(thetas, omega_squared, masses, pot)
        omega = math.sqrt(omega_squared)
        state = SphericalState(
            points=tuple(SpherePoint(t, 0.0) for t in thetas),
            theta_dot=(0.0, 0.0, 0.0),
            phi_dot=(omega, omega, omega),
        )
        c = angular_momentum(state, masses, R)
        # not integrated, or the integrator failed: no drift (null)
        drift, c_drift, err = (None, None, None)
        if args.integrate:
            drift, c_drift, err = _sigma_drift(thetas, omega, masses, pot)
        ok = residual <= args.tol_residual and err is None
        if args.integrate:
            ok = ok and drift <= args.tol_sigma
        all_pass = all_pass and ok
        reports.append({
            "x": _json_value(x),
            "residual": _json_value(residual),
            "cx": _json_value(c.cx),
            "cy": _json_value(c.cy),
            "sigma_drift": _json_value(drift),
            "c_drift": _json_value(c_drift),
            "pass": bool(ok),
            **({"error": err} if err else {}),
        })
    payload = {"count": len(reports), "all_pass": all_pass, "solutions": reports}
    _emit(json.dumps(payload, indent=2, allow_nan=False), args.out)
    return 0 if all_pass else 2


# ---------------------------------------------------------------- euler-limit


def cmd_euler_limit(args) -> int:
    for R in args.R_list:
        if not 0.0 < args.r21 / R < math.pi:
            raise ValueError(f"--r21 / R must lie in (0, pi) for every R in "
                             f"--R-list, got --r21 {args.r21} and R {R}")
    report = mer.euler_limit_check(args.masses, args.r21, args.R_list)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["R", "max_coeff_deviation", "root_deviation"])
        for row in report.rows:
            writer.writerow([_fmt(row.R), _fmt(row.max_coeff_deviation),
                             _fmt(row.root_deviation)])
        writer.writerow(["# order_estimate", _fmt(report.order_estimate), ""])
        _emit(buf.getvalue(), args.out)
    else:
        payload = {
            "quintic_coefficients": report.quintic_coefficients,
            "quintic_root": report.quintic_root,
            "order_estimate": report.order_estimate,
            "rows": [
                {"R": r.R, "max_coeff_deviation": r.max_coeff_deviation,
                 "root_deviation": _json_value(r.root_deviation)}
                for r in report.rows
            ],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    return 0


# ---------------------------------------------------------------- parser


@functools.cache  # one parser per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphere3body",
        description="Relative equilibria of the three-body problem on the "
                    "two-sphere (cotangent potential).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads
    p = sub.add_parser("equator", help="closed-form equator RE")
    _add_masses(p)
    p.add_argument("--radius", type=float, default=1.0)
    _add_out(p)
    p.set_defaults(func=cmd_equator)

    p = sub.add_parser("meridian", help="rigid rotators on a rotating meridian")
    _add_masses(p)
    p.add_argument("--a", type=float, required=True,
                   help="theta2 - theta1 in radians, in (0, pi)")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--potential", choices=["cotangent", "repulsive"],
                   default="cotangent")
    p.add_argument("--tol-residual", type=tolerance, default=mer.RESIDUAL_TOL,
                   help="largest backward error, in radians of x")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_out(p)
    p.set_defaults(func=cmd_meridian)

    p = sub.add_parser("sweep", help="solution counts over a parameter grid")
    p.add_argument("--a-grid", type=_parse_grid, default=_parse_grid("0.15:3.0:20"))
    p.add_argument("--nu1-grid", type=_parse_grid, default=_parse_grid("0.1:10:50"))
    p.add_argument("--nu2-grid", type=_parse_grid, default=_parse_grid("0.1:10:50"))
    p.add_argument("--samples", type=int, default=400,
                   help="x samples per region for the coarse counter")
    _add_out(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="re-check a meridian solution file")
    p.add_argument("solutions", help="JSON file produced by the meridian command")
    p.add_argument("--tol-residual", type=tolerance, default=mer.RESIDUAL_TOL,
                   help="largest backward error, in radians of x")
    p.add_argument("--tol-sigma", type=tolerance, default=1e-6)
    p.add_argument("--integrate", action="store_true",
                   help="also integrate one period and report drifts")
    _add_out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("euler-limit", help="flat-space limit convergence check")
    _add_masses(p)
    p.add_argument("--r21", type=positive, default=1.0,
                   help="fixed arc distance between bodies 1 and 2 (> 0)")
    p.add_argument("--R-list", type=radii, default="100,1000,10000",
                   help="comma-separated sphere radii, at least two distinct, "
                        "each with r21/R in (0, pi)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_out(p)
    p.set_defaults(func=cmd_euler_limit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
