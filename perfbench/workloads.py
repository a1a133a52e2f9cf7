"""Seeded inputs and the operations of the three workloads.

Each workload builds its inputs once (set-up) and then hands out rounds:
lists of ``Op``s, every one a full ``sphere3body.cli.main`` call. A run
attempts whole rounds only, so the share of failed operations is the
same in every run. After each op the workload checks what the CLI wrote
with ``checks``, apart from the solver.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

SOLVE_RANDOM_PAIRS = 96
# Random solve inputs are drawn by --seed from one fixed pool, screened
# once by screen_pool.py: POOL_EXCLUDED lists the entries on which the
# program fails or answers wrongly (CHANGES.md, FOUND lines), because a
# fault that only some seeds meet would make runs incomparable.
POOL_SEED = 20220221
POOL_SIZE = 1024
POOL_EXCLUDED = frozenset({856})  # lift consistency RuntimeError
SWEEP_RANDOM_SLICES = 15
SWEEP_NU_GRID = "0.1:10:50"
SWEEP_SAMPLES = 400
VERIFY_TOL_RESIDUAL = 1e-9
VERIFY_TOL_SIGMA = 1e-6

ISOSCELES_A = math.acos(checks.ISOSCELES_COS_A)
_EXC_NU = 2.0
EXCEPTIONAL_A = math.acos(math.sqrt(1.0 / ((1.0 + _EXC_NU) * (1.0 + _EXC_NU ** 2))))

# (case, a, masses): the paper's named inputs.
NAMED_SOLVE = [
    ("pi6", math.pi / 6, (3.0, 2.0, 1.0)),
    ("pi4", math.pi / 4, (3.0, 2.0, 1.0)),
    *[(f"table2_{d:+d}", math.pi / 2, (6.0 + d, 6.0, 1.0))
      for d in (-5, -4, 0, 4, 5)],
    ("eight", 1.575, (0.1, 4.5, 1.0)),
    ("isosceles", ISOSCELES_A, (1.3, 2.2, 0.7)),
    ("exceptional", EXCEPTIONAL_A, (_EXC_NU, 1.5, 1.0)),
]
# verify: every solution of these, one file each. "unstable" holds an RE
# whose sigma drift grows to O(1) within one period.
NAMED_VERIFY = [c for c in NAMED_SOLVE if c[0] in ("pi6", "pi4", "eight")
                or c[0].startswith("table2")]
NAMED_VERIFY.append(("unstable", 0.8863, (5.328, 4.586, 1.370)))


@dataclass
class Outcome:
    """What one op did: failed names the fault when the CLI refused or
    crashed on a valid input; problems are wrong outputs."""

    failed: str | None = None
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0


@dataclass
class Op:
    """One CLI call; check reads what it wrote to out, given its exit
    code 0 or 2."""

    argv: list[str]
    out: str
    check: Callable[[int], Outcome]


def _masses_arg(m) -> str:
    return ",".join(repr(float(v)) for v in m)


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


class Solve:
    """``meridian`` on one (a, masses) input and its 1<->2 mirror."""

    name = "solve"

    def __init__(self, seed: int, workdir: str, main, cases=None):
        if cases is None:
            pool = random_pool()
            usable = [k for k in range(POOL_SIZE) if k not in POOL_EXCLUDED]
            picked = random.Random(seed).sample(usable, SOLVE_RANDOM_PAIRS)
            cases = NAMED_SOLVE + [pool[k] for k in picked]
        self.inputs = []
        for case, a, m in cases:
            self.inputs.append((case, a, m, "base"))
            self.inputs.append((case, a, (m[1], m[0], m[2]), "mirror"))
        self.out = os.path.join(workdir, "solve.json")
        self.xs: dict[tuple[str, str], list[float]] = {}

    def round(self) -> list[Op]:
        self.xs.clear()
        return [self._op(*inp) for inp in self.inputs]

    def _op(self, case, a, m, side) -> Op:
        argv = ["meridian", "--masses", _masses_arg(m), "--a", repr(a),
                "--out", self.out]

        def check(rc: int) -> Outcome:
            with open(self.out) as fh:
                data = json.load(fh)
            recs = data["solutions"]
            res = Outcome(output_bytes=_file_size(self.out))
            if rc != (0 if recs else 2):
                res.problems.append(f"exit {rc} with {len(recs)} solutions")
            for rec in recs:
                res.problems += checks.solution_problems(rec, a, m)
            res.problems += checks.named_case_problems(case, a, m, recs)
            self.xs[(case, side)] = [r["x"] for r in recs]
            base = self.xs.get((case, "base"))
            if side == "mirror" and base is not None:
                res.problems += checks.mirror_problems(base, self.xs[(case, side)], a)
            return res

        return Op(argv, self.out, check)


def random_pool() -> list[tuple[str, float, tuple[float, float, float]]]:
    """POOL_SIZE inputs: a uniform in (0, pi), masses log-uniform over
    [0.1, 10]."""
    rng = random.Random(POOL_SEED)
    pool = []
    for k in range(POOL_SIZE):
        a = rng.uniform(0.0, math.pi)
        m = tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3))
        pool.append((f"pool{k}", a, m))
    return pool


class Sweep:
    """``sweep`` over one a-slice of the a x nu1 x nu2 grid."""

    name = "sweep"

    def __init__(self, seed: int, workdir: str, main):
        rng = random.Random(seed)
        self.a_values = [math.pi / 2] + [rng.uniform(0.0, math.pi)
                                         for _ in range(SWEEP_RANDOM_SLICES)]
        self.out = os.path.join(workdir, "sweep.csv")

    def round(self) -> list[Op]:
        return [self._op(a) for a in self.a_values]

    def _op(self, a: float) -> Op:
        grid = f"{a!r}:{a!r}:1"
        argv = ["sweep", "--a-grid", grid, "--nu1-grid", SWEEP_NU_GRID,
                "--nu2-grid", SWEEP_NU_GRID, "--samples", str(SWEEP_SAMPLES),
                "--out", self.out]

        def check(rc: int) -> Outcome:
            res = Outcome(output_bytes=_file_size(self.out))
            with open(self.out, newline="") as fh:
                rows = list(csv.reader(fh))
            body, footer = rows[1:-1], rows[-1]
            nu1 = sorted({float(r[1]) for r in body})
            nu2 = sorted({float(r[2]) for r in body})
            i_of = {v: i for i, v in enumerate(nu1)}
            j_of = {v: j for j, v in enumerate(nu2)}
            counts = {r: [[0] * len(nu2) for _ in nu1]
                      for r in ("I", "II", "III", "IV")}
            top = 0
            for row in body:
                i, j = i_of[float(row[1])], j_of[float(row[2])]
                per = [int(v) for v in row[4:8]]
                if float(row[0]) != a or int(row[3]) != sum(per):
                    res.problems.append(f"bad row {row}")
                for r, c in zip(("I", "II", "III", "IV"), per):
                    counts[r][i][j] = c
                top = max(top, int(row[3]))
            if rc != 0 or len(body) != len(nu1) * len(nu2) or len(nu1) != 50:
                res.problems.append(f"exit {rc}, {len(body)} rows")
            if footer[0] != "# max_count" or int(footer[3]) != top:
                res.problems.append(f"footer {footer} vs max {top}")
            res.problems += checks.sweep_slice_problems(a, nu1, nu2, counts)
            return res

        return Op(argv, self.out, check)


class Verify:
    """``verify --integrate`` on one-solution files of the named cases."""

    name = "verify"

    def __init__(self, seed: int, workdir: str, main):
        self.files = []
        for case, a, m in NAMED_VERIFY:
            path = os.path.join(workdir, f"{case}.json")
            rc = main(["meridian", "--masses", _masses_arg(m), "--a", repr(a),
                       "--out", path])
            if rc != 0:
                raise RuntimeError(f"set-up: meridian exit {rc} on {case}")
            files = write_single_solution_files(path)
            for f in files:
                with open(f) as fh:
                    rec = json.load(fh)["solutions"][0]
                confirmed = not checks.solution_problems(rec, a, m)
                self.files.append((f, confirmed))
        random.Random(seed).shuffle(self.files)
        self.out = os.path.join(workdir, "verify-report.json")

    def round(self) -> list[Op]:
        return [self._op(f, ok) for f, ok in self.files]

    def _op(self, path: str, confirmed: bool) -> Op:
        argv = ["verify", path, "--integrate", "--out", self.out]

        def check(rc: int) -> Outcome:
            res = Outcome(output_bytes=_file_size(self.out))
            with open(self.out) as fh:
                rep = json.load(fh)
            sol = rep["solutions"][0]
            if rc == 0 and not confirmed:
                res.problems.append(f"{path}: verify passed a non-RE")
            elif rc == 2 and confirmed:
                # a confirmed RE rejected: name which gate refused it
                if sol.get("error"):
                    res.failed = "integrator error"
                elif sol["residual"] > VERIFY_TOL_RESIDUAL:
                    res.failed = "absolute residual gate"
                else:
                    res.failed = "sigma drift (unstable RE)"
            if rep["count"] != 1 or rep["all_pass"] != (rc == 0) \
                    or sol["pass"] != (rc == 0):
                res.problems.append(f"{path}: inconsistent report")
            if rc == 0 and not (sol["residual"] <= VERIFY_TOL_RESIDUAL
                                and sol["sigma_drift"] <= VERIFY_TOL_SIGMA):
                res.problems.append(f"{path}: pass outside the gates")
            return res

        return Op(argv, self.out, check)


def write_single_solution_files(path: str) -> list[str]:
    """Split a ``meridian`` JSON file into one file per solution, named
    <stem>.<k>.json next to it."""
    with open(path) as fh:
        data = json.load(fh)
    stem = path[:-len(".json")]
    out = []
    for k, rec in enumerate(data["solutions"]):
        one = f"{stem}.{k}.json"
        with open(one, "w") as fh:
            json.dump({"metadata": data["metadata"], "solutions": [rec]}, fh)
        out.append(one)
    return out


WORKLOADS = {w.name: w for w in (Solve, Sweep, Verify)}
