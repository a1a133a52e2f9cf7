"""Command-line entry point: solve, sweep, verify, and emit
machine-readable results.

Exit codes: 0 = success with solutions, 2 = success but empty/no
solution (or a verification failure), 1 = usage or domain error, or a
stdout whose reader has gone (nothing is printed then).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter, getitem, itemgetter
from typing import Sequence

from . import meridian as mer
from .dynamics import MassTriple, backward_error
from .geometry import SpherePoint, SphereRadius, arc_angle
from .potential import PAIRS, cotangent_potential, repulsive


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


def _parse_grid(text: str):
    """The inclusive grid lo:hi:n as a numpy array. Only sweep takes a
    grid, and its defaults are text that argparse passes here when sweep
    is parsed, so no other command imports numpy."""
    import numpy as np

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
        return np.linspace(lo, hi, n)
    except MemoryError:
        raise argparse.ArgumentTypeError(
            f"grid of {n} points cannot be allocated") from None


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


# the potentials by name (meridian --potential, a solution file's
# metadata), each a builder from a radius
POTENTIALS = {
    "cotangent": cotangent_potential,
    "repulsive": lambda R: repulsive(cotangent_potential(R)),
}


# ---------------------------------------------------------------- equator


def cmd_equator(args) -> int:
    from . import equator as eq

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


# A solution record's fields, in the order meridian writes them: the key,
# the MeridianSolution attribute, the form, and whether the CSV has it.
# TEXT is a string, INT an int, REAL a float or None (JSON null, an empty
# CSV field), ANGLE a float in radians that the JSON follows with
# key_over_pi, its multiple of pi, and ANGLES three of them (CSV columns
# key1, key2, key3). The forms are numbered in the order of a record's
# pool (_record_writers).
TEXT, INT, REAL, ANGLE, ANGLES = range(5)
SOLUTION_FIELDS = (
    ("region", "region", TEXT, True),
    ("x", "x", ANGLE, True),
    ("theta", "thetas", ANGLES, True),
    ("theta_alt", "thetas_alt", ANGLES, False),
    ("s", "s", INT, True),
    ("omega_squared", "omega_squared", REAL, True),
    ("case", "case_tag", TEXT, False),
    ("residual", "residual_max", REAL, True),
)
# A solution file as json.dumps(payload, indent=2) writes it, byte for
# byte, with the solutions list "[]" or the records joined by ",\n"
_MERIDIAN_JSON = json.dumps({
    "metadata": {"masses": [None] * 3, "a": None, "radius": None,
                 "potential": None},
    "solutions": None}, indent=2).replace("null", "%s")
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values) -> list[str]:
    """The floats as json.dumps writes them: float.__repr__ (json's own
    call), but NaN, Infinity and -Infinity where they are not finite, and
    null for None. Their sum checks them all at once; where a finite sum
    overflows, the renaming passes every text through unchanged."""
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # a None
        texts = _json_floats([0.0 if v is None else v for v in values])
        return ["null" if v is None else t for v, t in zip(values, texts)]
    if not math.isfinite(sum(values)):
        texts = [_JSON_NONFINITE.get(t, t) for t in texts]
    return texts


def _record_writers(fields):
    """meridian's writers for a table of solution fields: a solution's JSON
    record, the CSV header, and a solution's CSV row after a, nu1 and nu2.

    A record's values, read in one attrgetter call sorted by form, make a
    pool: TEXT, INT, REAL, each angle (a triple flattened), then, for the
    JSON, each angle over pi, its floats written by one _json_floats call.
    One itemgetter puts the pool in a template's order, for one % format."""
    by_form = sorted(fields, key=itemgetter(2))
    values = attrgetter(*[attr for _, attr, _, _ in by_form])
    # where the values of each form after TEXT begin
    ints, reals, angles, triples = (sum(f[2] < form for f in fields)
                                    for form in (INT, REAL, ANGLE, ANGLES))
    at, n = {}, 0
    for key, _, form, _ in by_form:
        at[key] = range(n, n + (3 if form == ANGLES else 1))
        n += len(at[key])
    skeleton, json_slots, header, csv_slots = {}, [], ["a", "nu1", "nu2"], []
    csv_row = ["%.17g"] * 3
    for key, _, form, in_csv in fields:
        skeleton[key] = [None] * 3 if form == ANGLES else None
        json_slots += at[key]
        if form >= ANGLE:
            skeleton[key + "_over_pi"] = skeleton[key]
            json_slots += [k + n - angles for k in at[key]]
        if in_csv:
            header += [f"{key}{k}" for k in (1, 2, 3)] if form == ANGLES else [key]
            csv_slots += at[key]
            csv_row += ["%.17g" if form >= ANGLE else "%s"] * len(at[key])
    # one record of the solutions list, at depth 2: the text between
    # "[\n  [\n" and "\n  ]\n]"
    template = json.dumps([[skeleton]], indent=2)[6:-6].replace("null", "%s")
    json_at, csv_at = itemgetter(*json_slots), itemgetter(*csv_slots)
    csv_row = ",".join(csv_row) + "\r\n"
    pi = math.pi

    # an int's %s is its repr, as json and csv.writer write it
    def solution_json(sol) -> str:
        v = values(sol)
        floats = [*v[reals:triples], *chain.from_iterable(v[triples:])]
        floats += [t / pi for t in floats[angles - reals:]]
        return template % json_at([*map(encode_basestring_ascii, v[:ints]),
                                   *v[ints:reals], *_json_floats(floats)])

    def solution_csv(head, sol) -> str:
        v = values(sol)
        return csv_row % (*head, *csv_at([
            *v[:reals], *["" if r is None else _fmt(r) for r in v[reals:angles]],
            *v[angles:triples], *chain.from_iterable(v[triples:])]))

    return solution_json, header, solution_csv


_solution_json, CSV_HEADER, _solution_csv = _record_writers(SOLUTION_FIELDS)


def cmd_meridian(args) -> int:
    if not 0.0 < args.a < math.pi:
        raise ValueError(f"--a must lie in (0, pi), got {args.a}")
    pot = POTENTIALS[args.potential](SphereRadius(args.radius))
    solutions = mer.find_meridian_rotators(args.a, args.masses, pot,
                                           residual_tol=args.tol_residual)
    if args.format == "csv":
        # the rows csv.writer would write: no field needs quoting, CRLF ends each
        head = (args.a, args.masses.nu1, args.masses.nu2)
        _emit(",".join(CSV_HEADER) + "\r\n" + "".join(
            _solution_csv(head, sol) for sol in solutions), args.out)
    else:
        records = ",\n".join(map(_solution_json, solutions))
        _emit(_MERIDIAN_JSON % (
            *_json_floats((*args.masses, args.a, args.radius)),
            encode_basestring_ascii(args.potential),
            f"[\n{records}\n  ]" if solutions else "[]"), args.out)
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
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    a_values = a_grid.tolist()
    # the first slice is counted before anything is written, so a grid that
    # cannot be counted (MemoryError, or nu that overflow g) leaves no output
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


class _Cells(dict):
    """The n2 cell texts "nu2,count,count_I,count_II,count_III,count_IV\r\n"
    of each code of four region counts in base `base`, one per nu2 text,
    made on first use. It holds at most as many codes as a slice has nu1
    rows (it starts again when full), so never more cells than the
    slice."""

    def __init__(self, base: int, nu2_text: list[str], size: int):
        super().__init__()
        self.base, self.nu2_text, self.size = base, nu2_text, size

    def __missing__(self, code: int) -> list[str]:
        if len(self) >= self.size:
            self.clear()
        rest, c4 = divmod(code, self.base)
        rest, c3 = divmod(rest, self.base)
        c1, c2 = divmod(rest, self.base)
        tail = f",{c1 + c2 + c3 + c4},{c1},{c2},{c3},{c4}\r\n"
        cells = self[code] = [nu2 + tail for nu2 in self.nu2_text]
        return cells


def _write_sweep_slice(fh, a, per_region, nu1_text, nu2_text) -> tuple[int, str]:
    """Write the rows of one a-slice from its per-region counts. Returns
    its largest count and the "a,nu1" text of the first cell (in row
    order) that has it."""
    import numpy as np

    total = per_region["I"].copy()
    for region in mer.REGIONS[1:]:
        total += per_region[region]
    k = int(np.argmax(total))  # the first maximum in row order
    max_count = int(total.flat[k])
    # each cell's four region counts as one code in base max_count + 1
    # (no count exceeds the total), in Python ints where int64 would
    # overflow. A row is "a,nu1," before each cell's text, the text of
    # its code for its nu2.
    base = max_count + 1
    code = per_region["I"].astype(np.int64 if base ** 4 <= 2 ** 63 - 1 else object)
    for region in mer.REGIONS[1:]:
        code *= base
        code += per_region[region]
    cells = _Cells(base, nu2_text, len(nu1_text))
    columns = range(len(nu2_text))
    a_text = _fmt(a)
    for nu1, row in zip(nu1_text, code):
        head = f"{a_text},{nu1},"
        fh.write(head + head.join(map(getitem, map(cells.__getitem__, row.tolist()),
                                      columns)))
    return max_count, f"{a_text},{nu1_text[k // len(nu2_text)]}"


# ---------------------------------------------------------------- verify


VERIFY_STEPS = 4000  # RK4 steps per period
# largest distance, in radians mod 2*pi, of a record's x from theta3 - theta1
X_TOL = 1e-9


def _sigma_drift(thetas, omega, masses, pot):
    """Integrate the configuration over one period and report the max
    drift of the three mutual arc angles, plus c_drift: the change of the
    angular-momentum vector, |c1 - c0| / max(|c0|, 1), which is absolute
    where |c0| < 1."""
    from .integrator import SphericalState

    t_end = 2.0 * math.pi / omega if omega > 0 else 10.0
    state = SphericalState(
        points=tuple(SpherePoint(t % (2 * math.pi), 0.0) for t in thetas),
        theta_dot=(0.0, 0.0, 0.0),
        phi_dot=(omega, omega, omega),
    )
    # looked up on this module, where the benchmark's tracer wraps it
    integrate = sys.modules[__name__].integrate
    traj = integrate(state, masses, pot, t_end, t_end / VERIFY_STEPS, store_every=50)
    if traj.error:
        return None, None, traj.error

    def sigmas(th, ph):
        pts = [SpherePoint(th[k], ph[k]) for k in range(3)]
        return [arc_angle(pts[i], pts[j]) for i, j in PAIRS]

    ref = sigmas(traj.thetas[0], traj.phis[0])
    drift = 0.0
    for th, ph in zip(traj.thetas, traj.phis):
        cur = sigmas(th, ph)
        drift = max(drift, max(abs(c - r) for c, r in zip(cur, ref)))
    return drift, traj.c_drift, None


def _json_number(value, field: str) -> float:
    """A number read from a solution file, as a float. Raises ValueError,
    naming the field, for anything else: true and false too (json reads
    them as bools, which are ints), and an int too large for a float."""
    if type(value) not in (int, float):
        raise ValueError(f"{field}: {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{field}: an int too large for a float") from None


def _json_triple(values, field: str) -> tuple[float, float, float]:
    if not isinstance(values, list) or len(values) != 3:
        raise ValueError(f"{field} needs 3 numbers, got {values!r}")
    return tuple(_json_number(v, field) for v in values)


def _verify_record(rec: dict) -> tuple:
    """(x, thetas, omega_squared) of one solution record, x None where the
    record has none and omega_squared 0 for a fixed point; raises
    KeyError, TypeError or ValueError when the record is malformed, also
    where x is not theta3 - theta1 (mod 2*pi) to within X_TOL."""
    thetas = _json_triple(rec["theta"], "theta")
    if not all(math.isfinite(t) for t in thetas):
        raise ValueError(f"theta must be finite, got {list(thetas)}")
    x = None
    if "x" in rec:
        x = _json_number(rec["x"], "x")
        gap = (thetas[2] - thetas[0] - x) % mer.TWO_PI
        if not min(gap, mer.TWO_PI - gap) <= X_TOL:  # also where x is nan or inf
            raise ValueError(f"x: {x!r} is not theta3 - theta1 (mod 2*pi)")
    omega2 = rec["omega_squared"]
    if omega2 is None:
        return x, thetas, 0.0
    omega2 = _json_number(omega2, "omega_squared")
    if not (math.isfinite(omega2) and omega2 >= 0.0):
        raise ValueError(
            f"omega_squared must be finite and non-negative, got {omega2}")
    return x, thetas, omega2


def _json_value(v):
    """v, or None (JSON null) in place of a float that strict JSON
    cannot hold (nan, inf)."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def cmd_verify(args) -> int:
    from .integrator import SphericalState, angular_momentum

    try:
        with open(args.solutions) as fh:
            data = json.load(fh)
        meta = data["metadata"]
        masses = MassTriple(*_json_triple(meta["masses"], "masses"))
        R = SphereRadius(_json_number(meta["radius"], "radius"))
        # files written before the key existed hold the cotangent potential
        potential = meta.get("potential", "cotangent")
        # a list or a dict is not hashable, so only a string is looked up
        if not (isinstance(potential, str) and potential in POTENTIALS):
            raise ValueError(f"unknown potential {potential!r}")
        records = [_verify_record(rec) for rec in data["solutions"]]
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse {args.solutions}: {exc}", file=sys.stderr)
        return 1
    pot = POTENTIALS[potential](R)

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
    from .euler_limit import euler_limit_check

    report = euler_limit_check(args.masses, args.r21, args.R_list)
    if args.format == "csv":
        # the rows csv.writer would write: no field needs quoting, CRLF ends each
        lines = ["R,max_coeff_deviation,root_deviation",
                 *(",".join(map(_fmt, row)) for row in report.rows),
                 f"# order_estimate,{_fmt(report.order_estimate)},"]
        _emit("".join(line + "\r\n" for line in lines), args.out)
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
    p.add_argument("--potential", choices=POTENTIALS, default="cotangent")
    p.add_argument("--tol-residual", type=tolerance, default=mer.RESIDUAL_TOL,
                   help="largest backward error, in radians of x")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_out(p)
    p.set_defaults(func=cmd_meridian)

    p = sub.add_parser("sweep", help="solution counts over a parameter grid")
    p.add_argument("--a-grid", type=_parse_grid, default="0.15:3.0:20")
    p.add_argument("--nu1-grid", type=_parse_grid, default="0.1:10:50")
    p.add_argument("--nu2-grid", type=_parse_grid, default="0.1:10:50")
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
        status = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here
        return status
    except BrokenPipeError:
        # stdout's reader has gone (`... | head`): point stdout at the null
        # device, so that the flush at exit writes nothing, and fail quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def __getattr__(name: str):
    # the verify-only dynamics, loaded on first use. configuration_residuals
    # is not called here: the benchmark's tracer (perfbench/spans.py) reads
    # and wraps it, and integrate, on this module
    if name in ("configuration_residuals", "integrate"):
        from . import integrator

        return getattr(integrator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
