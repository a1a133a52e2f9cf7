"""Fuzz the command line: whatever the arguments or the solution file,
main returns 0, 1 or 2 and raises nothing.

Most examples are well-formed, so they reach the solvers and the
integrator; the rest are malformed at one place. The examples are
derandomized, so every run tries the same inputs.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from sphere3body.cli import main


def fuzz(n):
    return settings(derandomize=True, database=None, deadline=None, max_examples=n)


def mostly(usual, odd):
    """usual three times in four, odd otherwise (one_of would draw each
    half the time)."""
    return st.sampled_from([0, 1, 2, 3]).flatmap(lambda k: odd if k == 0 else usual)


edge_numbers = st.sampled_from([
    0.0, -0.0, -1.0, 5e-324, 1e-150, 1e150, 1e300, math.pi, math.pi / 2,
    math.inf, math.nan])
masses = mostly(st.floats(min_value=0.05, max_value=20.0), edge_numbers)
angles = mostly(st.floats(min_value=1e-3, max_value=math.pi - 1e-3), edge_numbers)
# text where the CLI expects a number: mostly a number, sometimes not
number_text = mostly(masses.map(repr), st.text(max_size=4))
json_values = st.recursive(
    st.none() | st.booleans() | edge_numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@fuzz(100)
@given(
    m=mostly(st.lists(masses.map(repr), min_size=3, max_size=3),
             st.lists(number_text, min_size=2, max_size=4)),
    a=mostly(angles.map(repr), number_text),
    extra=st.lists(st.sampled_from([
        ["--radius", "2"], ["--radius", "0"], ["--radius", "nan"],
        ["--radius", "1e300"], ["--potential", "repulsive"],
        ["--format", "csv"], ["--tol-residual", "-1"], ["--tol-residual", "nan"],
    ]), max_size=2),
)
def test_meridian(m, a, extra):
    argv = ["meridian", "--masses", ",".join(m), "--a", a]
    assert run(argv + sum(extra, [])) in (0, 1, 2)


@fuzz(60)
@given(m=st.lists(masses.map(repr), min_size=3, max_size=3),
       radius=mostly(masses, edge_numbers))
def test_equator(m, radius):
    argv = ["equator", "--masses", ",".join(m), "--radius", repr(radius)]
    assert run(argv) in (0, 1, 2)


def grid(lo, hi, n):
    return f"{lo!r}:{hi!r}:{n}"


points = mostly(st.integers(1, 3), st.integers(-1, 0))
a_grids = st.builds(grid, angles, angles, points)
nu_grids = st.builds(grid, masses, masses, points)


@fuzz(60)
@given(a_grid=a_grids, nu1_grid=nu_grids, nu2_grid=nu_grids,
       samples=mostly(st.integers(2, 12), st.integers(-1, 1)),
       garbage=mostly(st.none(), st.text(max_size=6)))
def test_sweep(a_grid, nu1_grid, nu2_grid, samples, garbage):
    argv = ["sweep", "--a-grid", a_grid, "--nu1-grid", nu1_grid,
            "--nu2-grid", nu2_grid, "--samples", str(samples)]
    if garbage is not None:
        argv[2] = garbage
    assert run(argv) in (0, 1, 2)


def _x_from_theta(rec: dict) -> dict:
    """The record with its x, where it has one, set to theta3 - theta1,
    as verify reads it."""
    if "x" in rec:
        rec["x"] = rec["theta"][2] - rec["theta"][0]
    return rec


records = st.fixed_dictionaries(
    {"theta": st.lists(angles, min_size=3, max_size=3)},
    optional={"omega_squared": masses | st.none(), "x": st.none()},
).map(_x_from_theta)
malformed_records = st.fixed_dictionaries({}, optional={
    "theta": st.lists(angles, max_size=4) | json_values,
    "omega_squared": json_values,
    "x": json_values,
})
metadata = st.fixed_dictionaries(
    {"masses": st.lists(masses, min_size=3, max_size=3),
     "radius": st.sampled_from([1.0, 2.0]) | edge_numbers},
    optional={"potential": st.sampled_from(["cotangent", "repulsive"])},
)
malformed_metadata = st.fixed_dictionaries({}, optional={
    "masses": st.lists(masses, max_size=4) | json_values,
    "radius": json_values,
    "potential": json_values,
})


def documents(record_lists):
    """JSON text: mostly a solution file, else malformed JSON or none."""
    parsed = mostly(
        st.fixed_dictionaries({"metadata": metadata, "solutions": record_lists}),
        st.fixed_dictionaries(
            {"metadata": malformed_metadata | json_values,
             "solutions": st.lists(records | malformed_records, max_size=2)})
        | json_values,
    )
    return mostly(parsed.map(json.dumps), st.text(max_size=20))


def verify(text, *flags) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "solutions.json")
        with open(path, "w") as fh:
            fh.write(text)
        return run(["verify", path, *flags])


@fuzz(80)
@given(text=documents(st.lists(mostly(records, malformed_records), max_size=3)))
def test_verify(text):
    assert verify(text) in (0, 1, 2)


# each well-formed record integrates 4000 RK4 steps, so fewer examples
@fuzz(12)
@given(text=documents(st.lists(records, max_size=1)))
def test_verify_integrate(text):
    assert verify(text, "--integrate") in (0, 1, 2)
