"""One SHA-256 over what the CLI writes, to show that a change leaves
every output byte as it was.

Run it on each of two checkouts and compare the two lines it prints:

    python3 tests/output_digest.py [CHECKOUT] [--list]

It imports the package from CHECKOUT's ``src`` (by default, the checkout
that holds this file), takes the solve inputs from CHECKOUT's
``perfbench/workloads.py``, and makes in-process
``sphere3body.cli.main`` calls in a temporary directory, with relative
paths. For each call it hashes the exit code (or the type and message of
an exception that escapes ``main``), stdout, stderr and the bytes of the
``--out`` file. ``--list`` also prints each call's own digest and argv,
to find the first call that differs. pytest does not collect this file.

The calls:

- ``meridian`` as JSON to ``--out``, as CSV, and with ``--potential
  repulsive --radius 2.5``, on the named cases, the unstable RE and the
  1024-entry pool, each with its 1<->2 mirror;
- the default ``sweep``, a small one, and ``sweep`` slices: the sweep
  benchmark's 50x50 grid at 400 samples at a = 0.5, pi/2 and 2.5 and
  at a = 2.094, 2.0944 and 2.095 (next to 2*pi/3, where the counter
  misses a close triple of roots), a descending ``--nu1-grid``, equal
  descending ``--nu1-grid`` and ``--nu2-grid`` (region IV written as
  II's transpose), the same values ascending in ``--nu1-grid`` and
  descending in ``--nu2-grid`` (counted directly), a
  ``--nu2-grid`` from 0.001 to 1000, one cell, ``--samples 2`` and 3 on
  a 50x50 grid, and ``--nu1-grid`` from 1e-6 and from 1000 to 1e6;
- ``verify``, with and without ``--integrate``, on the verify workload's
  34 one-solution files, and ``verify --integrate`` on a repulsive file;
- ``equator``, with and without ``--radius 2``, and ``euler-limit`` as JSON
  and as CSV, with and without ``--R-list 2,3``, on 1,1,1, 3,2,1, 25,25,1
  and 1,1,4;
- every ``--help``, and usage errors (``verify`` on files whose
  ``metadata.potential`` is unknown among them).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

CHECKOUT = [arg for arg in sys.argv[1:] if arg != "--list"]
ROOT = Path(CHECKOUT[0] if CHECKOUT else Path(__file__).parents[1]).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from sphere3body import cli  # noqa: E402

OUT = "out.dat"
SMALL_MASSES = ["1,1,1", "3,2,1", "25,25,1", "1,1,4"]
BAD_POTENTIALS = ["newton", "", None, 5, ["cotangent"], {"name": "cotangent"}]


def _masses_arg(m) -> str:
    return ",".join(repr(float(v)) for v in m)


def _call(argv: list[str]) -> bytes:
    """What one main(argv) call returns and writes, as bytes."""
    if os.path.exists(OUT):
        os.remove(OUT)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = repr(cli.main(argv))
        except Exception as exc:  # a crash is an output too
            status = f"{type(exc).__name__}: {exc}"
    out = b""
    if os.path.exists(OUT):
        with open(OUT, "rb") as fh:
            out = fh.read()
    parts = [status.encode(), stdout.getvalue().encode(), stderr.getvalue().encode(), out]
    # each part prefixed with its length, so no two outputs hash alike
    return b"".join(b"%d:" % len(p) + p for p in parts)


def _meridian_calls():
    unstable = [c for c in workloads.NAMED_VERIFY if c[0] == "unstable"]
    cases = workloads.NAMED_SOLVE + unstable + workloads.random_pool()
    for _, a, m in cases:
        for masses in (m, (m[1], m[0], m[2])):
            base = ["meridian", "--masses", _masses_arg(masses), "--a", repr(a)]
            yield base + ["--out", OUT]
            yield base + ["--format", "csv"]
            yield base + ["--potential", "repulsive", "--radius", "2.5"]


def _verify_files() -> list[str]:
    """The verify workload's one-solution files, written here."""
    files = []
    for case, a, m in workloads.NAMED_VERIFY:
        path = f"{case}.json"
        argv = ["meridian", "--masses", _masses_arg(m), "--a", repr(a), "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"meridian exit on {case}")
        files += workloads.write_single_solution_files(path)
    return files


def _verify_calls():
    files = _verify_files()
    if len(files) != 34:
        raise RuntimeError(f"{len(files)} verify files, not 34")
    for f in files:
        yield ["verify", f]
        yield ["verify", f, "--integrate"]
    _, a, m = workloads.NAMED_SOLVE[0]  # pi/6, m = (3, 2, 1)
    cli.main(["meridian", "--masses", _masses_arg(m), "--a", repr(a),
              "--potential", "repulsive", "--radius", "2.5", "--out", "rep.json"])
    yield ["verify", "rep.json", "--integrate"]
    with open(files[0]) as fh:
        data = json.load(fh)
    for k, bad in enumerate(BAD_POTENTIALS):
        data["metadata"]["potential"] = bad
        with open(f"bad{k}.json", "w") as fh:
            json.dump(data, fh)
        yield ["verify", f"bad{k}.json"]


def _sweep_calls():
    yield ["sweep", "--out", OUT]
    yield ["sweep", "--a-grid", "0.5:2.5:3", "--nu1-grid", "0.5:4:5",
           "--nu2-grid", "0.5:4:5", "--samples", "50"]
    for a in (0.5, math.pi / 2, 2.5, 2.094, 2.0944, 2.095):
        yield ["sweep", "--a-grid", f"{a!r}:{a!r}:1", "--nu1-grid", "0.1:10:50",
               "--nu2-grid", "0.1:10:50", "--samples", "400", "--out", OUT]
    yield ["sweep", "--a-grid", "0.3:2.9:5", "--nu1-grid", "10:0.1:50", "--out", OUT]
    # equal descending grids, whose region IV is II's transpose, and the
    # same 50 values (multiples of 0.5) ascending and descending, which
    # are not equal arrays and are counted region by region
    yield ["sweep", "--a-grid", "0.3:2.9:5", "--nu1-grid", "10:0.1:50",
           "--nu2-grid", "10:0.1:50", "--out", OUT]
    yield ["sweep", "--a-grid", "0.3:2.9:5", "--nu1-grid", "0.5:25:50",
           "--nu2-grid", "25:0.5:50", "--out", OUT]
    yield ["sweep", "--a-grid", "0.3:2.9:5", "--nu2-grid", "0.001:1000:40",
           "--out", OUT]
    yield ["sweep", "--a-grid", "2.094:2.094:1", "--nu1-grid", "1:1:1",
           "--nu2-grid", "1:1:1"]
    # two and three samples per region, and nu1 up to 1e6: g has one sign
    # over the whole grid at 47 % of the samples from nu1 = 1e-6 and at
    # 96 % from nu1 = 1000
    for samples in ("2", "3"):
        yield ["sweep", "--a-grid", "0.3:2.9:5", "--nu1-grid", "0.1:10:50",
               "--nu2-grid", "0.1:10:50", "--samples", samples, "--out", OUT]
    for nu1 in ("1e-6:1e6:40", "1000:1e6:40"):
        yield ["sweep", "--a-grid", "0.3:2.9:5", "--nu1-grid", nu1, "--out", OUT]


def _other_calls():
    for m in SMALL_MASSES:
        yield ["equator", "--masses", m]
        yield ["equator", "--masses", m, "--radius", "2"]
        for fmt in ("json", "csv"):
            yield ["euler-limit", "--masses", m, "--format", fmt]
            yield ["euler-limit", "--masses", m, "--format", fmt, "--R-list", "2,3",
                   "--out", OUT]
    yield ["--help"]
    for command in ("meridian", "sweep", "verify", "equator", "euler-limit"):
        yield [command, "--help"]
    yield from [
        [], ["bogus"], ["meridian"],
        ["meridian", "--masses", "3,2,1", "--a", "0.5", "--potential", "newton"],
        ["meridian", "--masses", "3,2", "--a", "0.5"],
        ["meridian", "--masses", "3,0,1", "--a", "0.5"],
        ["meridian", "--masses", "3,2,1", "--a", "0"],
        ["meridian", "--masses", "3,2,1", "--a", "nan"],
        ["meridian", "--masses", "3,2,1", "--a", "0.5", "--radius", "-1"],
        ["meridian", "--masses", "3,2,1", "--a", "0.5", "--tol-residual", "-1"],
        ["meridian", "--masses", "3,2,1", "--a", "0.5", "--format", "xml"],
        ["sweep", "--a-grid", "1:2"], ["sweep", "--samples", "0"],
        ["verify", "missing.json"], ["verify", "x.json", "--tol-sigma", "nan"],
        ["equator", "--masses", "1,1,1", "--radius", "0"],
        ["euler-limit", "--masses", "3,2,1", "--R-list", "2,2"],
        ["euler-limit", "--masses", "3,2,1", "--r21", "-1"],
        ["euler-limit", "--masses", "3,2,1", "--r21", "10", "--R-list", "2,3"],
    ]


def main(argv: list[str]) -> int:
    listing = "--list" in argv
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal
    total, count = hashlib.sha256(), 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for calls in (_meridian_calls(), _verify_calls(), _sweep_calls(),
                          _other_calls()):
                for call in calls:
                    result = _call(call)
                    total.update(result)
                    count += 1
                    if listing:
                        print(hashlib.sha256(result).hexdigest()[:16], *call)
        finally:
            os.chdir(cwd)
    print(f"calls {count}")
    print(f"sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
