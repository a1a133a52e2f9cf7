"""meridian's JSON and CSV, byte for byte, against literal transcriptions
of the writers they replaced: a dict per solution and
json.dumps(payload, indent=2), and csv.writer rows of "%.17g" floats.
The command writes the same text through --out and on stdout, the JSON
with one newline after it."""

import csv
import io
import json
import math

import pytest

from sphere3body import cli
from sphere3body import meridian as mer
from sphere3body.cli import main
from test_meridian import benchmark_pool
from test_region_roots import NAMED


def solution_record(sol):
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


def transcription(masses, a, radius, potential, solutions):
    payload = {
        "metadata": {
            "masses": list(masses),
            "a": a,
            "radius": radius,
            "potential": potential,
        },
        "solutions": [solution_record(s) for s in solutions],
    }
    return json.dumps(payload, indent=2)


def spy(monkeypatch, find):
    """Calls of find in place of find_meridian_rotators; returns the list
    of the solutions of each call, in order."""
    calls = []

    def found(*args, **kwargs):
        calls.append(find(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(mer, "find_meridian_rotators", found)
    return calls


@pytest.fixture
def solved(monkeypatch):
    return spy(monkeypatch, mer.find_meridian_rotators)


def check_bytes(masses, a, solved, capsys, tmp_path, radius=1.0,
                potential="cotangent"):
    """meridian on one input, on stdout and through --out, against the
    transcription of the solutions it found. Returns the text."""
    argv = ["meridian", "--masses", ",".join(map(repr, masses)), "--a", repr(a),
            "--radius", repr(radius), "--potential", potential]
    code = main(argv)
    captured = capsys.readouterr()
    expect = transcription(masses, a, radius, potential, solved[-1])
    assert (code, captured.out, captured.err) == (
        0 if solved[-1] else 2, expect + "\n", ""), (masses, a)
    out = tmp_path / "solutions.json"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert solved[-1] == solved[-2]
    assert out.read_bytes() == expect.encode(), (masses, a)
    return expect


def with_mirrors(cases):
    for a, m in cases:
        yield a, m
        yield a, (m[1], m[0], m[2])


def test_named_and_pool_inputs_match_transcription(solved, capsys, tmp_path):
    # the paper's named inputs and 200 entries of the benchmark's pool,
    # each with its 1<->2 mirror
    cases = [(a, (nu1, nu2, 1.0)) for a, nu1, nu2 in NAMED[:10]]
    cases += benchmark_pool()[:200]
    for a, m in with_mirrors(cases):
        check_bytes(m, a, solved, capsys, tmp_path)
    counts = [len(sols) for sols in solved[::2]]
    assert len(counts) == 420 and max(counts) >= 6


def test_repulsive_potential_matches_transcription(solved, capsys, tmp_path):
    check_bytes((3.0, 2.0, 1.0), math.pi / 6, solved, capsys, tmp_path,
                radius=2.5, potential="repulsive")
    assert len(solved[-1]) == 6


def test_no_solutions_match_transcription(solved, capsys, tmp_path):
    text = check_bytes((1.0, 1.0, 1.0), 2.0943951023931953, solved, capsys,
                       tmp_path)
    assert text.endswith('"solutions": []\n}')


def forged(monkeypatch, **fields):
    """Spies on a find_meridian_rotators that returns the six solutions of
    pi/6, m = (3, 2, 1), the first with the given fields replaced."""
    sols = mer.find_meridian_rotators(math.pi / 6, mer.MassTriple(3.0, 2.0, 1.0))
    sols[0] = sols[0]._replace(**fields)
    return spy(monkeypatch, lambda *args, **kwargs: list(sols))


def test_fixed_point_matches_transcription(monkeypatch, capsys, tmp_path):
    solved = forged(monkeypatch, s=0, omega_squared=None,
                    case_tag=mer.A_ZERO_FIXED_POINT)
    text = check_bytes((3.0, 2.0, 1.0), math.pi / 6, solved, capsys, tmp_path)
    assert '"omega_squared": null' in text


@pytest.mark.parametrize("fields,names", [
    ({"omega_squared": math.inf, "residual_max": math.nan},
     ["Infinity", "NaN"]),
    ({"thetas": (0.0, math.inf, -math.inf), "residual_max": -math.inf},
     ["Infinity", "-Infinity"]),
    # finite floats whose sum overflows: written as they are
    ({"thetas": (1e308, 1e308, 1e308)}, ["1e+308"]),
])
def test_non_finite_values_match_transcription(fields, names, monkeypatch,
                                               capsys, tmp_path):
    solved = forged(monkeypatch, **fields)
    text = check_bytes((3.0, 2.0, 1.0), math.pi / 6, solved, capsys, tmp_path)
    assert all(name in text for name in names)


def fmt(v):
    return f"{v:.17g}"


def csv_transcription(masses, a, solutions):
    m = mer.MassTriple(*masses)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["a", "nu1", "nu2", "region", "x", "theta1", "theta2",
                     "theta3", "s", "omega_squared", "residual"])
    for sol in solutions:
        writer.writerow([
            fmt(a), fmt(m.nu1), fmt(m.nu2),
            sol.region, fmt(sol.x), *(fmt(t) for t in sol.thetas), sol.s,
            "" if sol.omega_squared is None else fmt(sol.omega_squared),
            fmt(sol.residual_max),
        ])
    return buf.getvalue()


def check_csv_bytes(masses, a, solved, capsys, tmp_path):
    """meridian --format csv on one input, on stdout and through --out,
    against the transcription of the solutions it found."""
    argv = ["meridian", "--masses", ",".join(map(repr, masses)), "--a", repr(a),
            "--format", "csv"]
    code = main(argv)
    captured = capsys.readouterr()
    expect = csv_transcription(masses, a, solved[-1])
    assert (code, captured.out, captured.err) == (
        0 if solved[-1] else 2, expect, ""), (masses, a)
    out = tmp_path / "solutions.csv"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert solved[-1] == solved[-2]
    assert out.read_bytes() == expect.encode(), (masses, a)
    return expect


def test_csv_named_and_pool_inputs_match_transcription(solved, capsys, tmp_path):
    cases = [(a, (nu1, nu2, 1.0)) for a, nu1, nu2 in NAMED[:10]]
    cases += benchmark_pool()[:200]
    for a, m in with_mirrors(cases):
        check_csv_bytes(m, a, solved, capsys, tmp_path)
    counts = [len(sols) for sols in solved[::2]]
    assert len(counts) == 420 and max(counts) >= 6
    # the input with no solution writes the header alone
    assert check_csv_bytes((1.0, 1.0, 1.0), 2.0943951023931953, solved, capsys,
                           tmp_path).count("\r\n") == 1


@pytest.mark.parametrize("fields", [
    {"s": 0, "omega_squared": None, "case_tag": mer.A_ZERO_FIXED_POINT},
    {"omega_squared": math.inf, "residual_max": math.nan},
    {"thetas": (0.0, math.inf, -math.inf), "residual_max": -math.inf},
    {"thetas": (1e308, 1e308, 1e308)},
])
def test_csv_forged_records_match_transcription(fields, monkeypatch, capsys,
                                                tmp_path):
    solved = forged(monkeypatch, **fields)
    text = check_csv_bytes((3.0, 2.0, 1.0), math.pi / 6, solved, capsys, tmp_path)
    assert text.count("\r\n") == 7


@pytest.mark.parametrize("form,attr,json_items,csv_items", [
    ("TEXT", "case_tag", lambda v: [("extra", v)], lambda v: [("extra", v)]),
    ("INT", "s", lambda v: [("extra", v)], lambda v: [("extra", str(v))]),
    ("REAL", "omega_squared", lambda v: [("extra", v)],
     lambda v: [("extra", "" if v is None else fmt(v))]),
    ("ANGLE", "x", lambda v: [("extra", v), ("extra_over_pi", v / math.pi)],
     lambda v: [("extra", fmt(v))]),
    ("ANGLES", "thetas_alt",
     lambda v: [("extra", list(v)), ("extra_over_pi", [t / math.pi for t in v])],
     lambda v: [(f"extra{k}", fmt(t)) for k, t in enumerate(v, 1)]),
])
def test_field_added_to_the_table_is_written(form, attr, json_items, csv_items,
                                             monkeypatch, capsys):
    # a copy of the table with one more field after theta: the JSON holds it
    # after theta_over_pi, as json.dumps(indent=2) writes it, and the CSV
    # in the columns after theta3; a fixed point's omega_squared is null
    fields = list(cli.SOLUTION_FIELDS)
    fields.insert(3, ("extra", attr, getattr(cli, form), True))
    for name, writer in zip(["_solution_json", "CSV_HEADER", "_solution_csv"],
                            cli._record_writers(fields)):
        monkeypatch.setattr(cli, name, writer)
    solved = forged(monkeypatch, s=0, omega_squared=None,
                    case_tag=mer.A_ZERO_FIXED_POINT)
    argv = ["meridian", "--masses", "3.0,2.0,1.0", "--a", repr(math.pi / 6)]

    assert main(argv) == 0
    records = []
    for sol in solved[-1]:
        items = list(solution_record(sol).items())
        records.append(dict(items[:5] + json_items(getattr(sol, attr)) + items[5:]))
    payload = {"metadata": {"masses": [3.0, 2.0, 1.0], "a": math.pi / 6,
                            "radius": 1.0, "potential": "cotangent"},
               "solutions": records}
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    assert main([*argv, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(
        csv_transcription((3.0, 2.0, 1.0), math.pi / 6, solved[-1]))))
    extra = [csv_items(getattr(sol, attr)) for sol in solved[-1]]
    rows[0][8:8] = [name for name, _ in extra[0]]
    for row, items in zip(rows[1:], extra):
        row[8:8] = [text for _, text in items]
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    assert capsys.readouterr().out == buf.getvalue()
