import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sphere3body import cli
from sphere3body import meridian as mer
from sphere3body.cli import _parse_grid as _grid, main

from oracles import count_rotators_scan


README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestEquator:
    def test_equal_masses(self, capsys):
        code, out = run(capsys, ["equator", "--masses", "1,1,1"])
        assert code == 0
        data = json.loads(out)
        assert data["dphi_12"] == pytest.approx(2.0943951023931953, rel=1e-12)
        assert data["rho"] == pytest.approx(0.8660254037844386, rel=1e-12)

    def test_exterior_exit_code(self, capsys):
        code, out = run(capsys, ["equator", "--masses", "25,25,1"])
        assert code == 2
        data = json.loads(out)
        assert data["exists"] is False
        assert data["reason"] == "exterior"

    def test_heavy_third_mass(self, capsys):
        code, out = run(capsys, ["equator", "--masses", "1,1,4", "--radius", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["neg_potential_energy"] == pytest.approx(
            math.sqrt(15.0) / 2.0, rel=1e-12)

    def test_invalid_masses(self, capsys):
        assert main(["equator", "--masses", "1,-1,1"]) == 1
        assert main(["equator", "--masses", "1,1"]) == 1

    @pytest.mark.parametrize("masses,radius,message", [
        # an exterior mass triple too: the radius is checked first
        *[(m, r, "sphere radius") for m in ("1,1,1", "25,25,1")
          for r in ("0", "-1", "nan")],
        ("1,1,1", "5e-324", "--radius 5e-324 is out of range")])
    def test_invalid_radius(self, masses, radius, message, capsys):
        assert main(["equator", "--masses", masses, "--radius", radius]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


class TestMeridian:
    def test_six_rows_csv(self, capsys):
        code, out = run(capsys, [
            "meridian", "--masses", "3,2,1", "--a", str(math.pi / 6),
            "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        assert [r["region"] for r in rows] == ["I", "II", "II", "III", "IV", "IV"]
        for r in rows:
            assert float(r["residual"]) < 1e-9
            assert float(r["theta2"]) - float(r["theta1"]) == pytest.approx(
                math.pi / 6, abs=1e-10)

    def test_two_rows_json(self, capsys):
        code, out = run(capsys, [
            "meridian", "--masses", "3,2,1", "--a", str(math.pi / 4)])
        assert code == 0
        data = json.loads(out)
        assert len(data["solutions"]) == 2
        for sol in data["solutions"]:
            assert sol["s"] in (-1, 1)
            assert sol["omega_squared"] > 0
            assert sol["x_over_pi"] == pytest.approx(sol["x"] / math.pi)
            assert len(sol["theta"]) == 3 and len(sol["theta_alt"]) == 3

    def test_invalid_a(self, capsys):
        assert main(["meridian", "--masses", "1,1,1", "--a", "4.0"]) == 1

    @pytest.mark.parametrize("tol", ["nan", "-1e-13", "inf"])
    def test_invalid_tol_root(self, tol, capsys):
        # roots are always bisected to neighbouring floats: no such option
        argv = ["meridian", "--masses", "3,2,1", "--a", "0.5", "--tol-root", tol]
        assert main(argv) == 1
        assert "unrecognized arguments: --tol-root" in capsys.readouterr().err


@pytest.mark.parametrize("argv,option", [
    (["meridian", "--masses", "3,2,1", "--a", "0.5", "--tol-residual", "nan"],
     "--tol-residual"),
    (["meridian", "--masses", "3,2,1", "--a", "0.5", "--tol-residual", "-1"],
     "--tol-residual"),
    (["verify", "none.json", "--tol-residual", "inf"], "--tol-residual"),
    (["verify", "none.json", "--tol-sigma", "nan"], "--tol-sigma"),
    (["verify", "none.json", "--tol-sigma=-1e-6"], "--tol-sigma"),
])
def test_invalid_tolerance(argv, option, capsys):
    assert main(argv) == 1
    assert f"argument {option}: must be finite and >= 0" in capsys.readouterr().err


def test_valid_tol_residual_is_the_gate(capsys):
    # the six pi/6 solutions have backward errors from 2.3e-17 to 3.1e-16
    argv = ["meridian", "--masses", "3,2,1", "--a", "0.5235987755982988"]
    code, out = run(capsys, argv + ["--tol-residual", "5e-17"])
    assert code == 0
    residuals = [s["residual"] for s in json.loads(out)["solutions"]]
    assert len(residuals) == 2 and max(residuals) <= 5e-17
    code, out = run(capsys, argv)
    assert code == 0 and len(json.loads(out)["solutions"]) == 6


def test_valid_tol_sigma_is_the_gate(tmp_path, capsys):
    # the unstable RE's sigma drift reaches 2.42 within one period: the
    # default gate rejects it, and --tol-sigma 10 passes it
    sol_file = tmp_path / "unstable.json"
    assert main(["meridian", "--masses", "5.328,4.586,1.370", "--a", "0.8863",
                 "--out", str(sol_file)]) == 0
    data = json.loads(sol_file.read_text())
    data["solutions"] = [s for s in data["solutions"] if s["region"] == "III"]
    assert len(data["solutions"]) == 1
    sol_file.write_text(json.dumps(data))
    code, out = run(capsys, ["verify", str(sol_file), "--integrate"])
    assert code == 2
    assert 1.0 < json.loads(out)["solutions"][0]["sigma_drift"] < 10.0
    code, out = run(capsys, ["verify", str(sol_file), "--integrate",
                             "--tol-sigma", "10"])
    assert code == 0 and json.loads(out)["all_pass"] is True


class TestVerifyRoundTrip:
    def test_residuals_reproduced(self, tmp_path, capsys):
        sol_file = tmp_path / "six.json"
        code = main(["meridian", "--masses", "3,2,1", "--a", str(math.pi / 6),
                     "--out", str(sol_file)])
        assert code == 0
        emitted = json.loads(sol_file.read_text())

        code, out = run(capsys, ["verify", str(sol_file)])
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        for src, chk in zip(emitted["solutions"], report["solutions"]):
            # both commands call one gate on the same numbers
            assert src["residual"] == chk["residual"]

    def test_perturbed_solution_fails(self, tmp_path, capsys):
        sol_file = tmp_path / "six.json"
        main(["meridian", "--masses", "3,2,1", "--a", str(math.pi / 6),
              "--out", str(sol_file)])
        data = json.loads(sol_file.read_text())
        # x moves with theta3, as verify reads x as theta3 - theta1
        data["solutions"][0]["theta"][2] += 1e-3
        data["solutions"][0]["x"] += 1e-3
        sol_file.write_text(json.dumps(data))

        code, out = run(capsys, ["verify", str(sol_file)])
        assert code == 2
        report = json.loads(out)
        assert report["all_pass"] is False
        assert report["solutions"][0]["residual"] >= 1e-4

    def test_fast_rotators_pass_integrated_verify(self, tmp_path, capsys):
        # the eight-solution point: three rotators turn at w^2 ~ 4e5 to
        # 1e7, whose raw residuals reach 1e-6; in radians of x each sits
        # within 1e-11 of an RE
        sol_file = tmp_path / "eight.json"
        assert main(["meridian", "--masses", "0.1,4.5,1", "--a", "1.575",
                     "--out", str(sol_file)]) == 0
        code, out = run(capsys, ["verify", str(sol_file), "--integrate"])
        report = json.loads(out)
        assert code == 0 and report["all_pass"] is True
        assert report["count"] == 8
        assert all(s["pass"] and s["residual"] < 1e-11 for s in report["solutions"])

    def test_integration_drift(self, tmp_path, capsys):
        sol_file = tmp_path / "two.json"
        main(["meridian", "--masses", "3,2,1", "--a", str(math.pi / 4),
              "--out", str(sol_file)])
        code, out = run(capsys, ["verify", str(sol_file), "--integrate"])
        assert code == 0
        report = json.loads(out)
        for sol in report["solutions"]:
            assert sol["sigma_drift"] < 1e-6
            assert sol["c_drift"] < 1e-8
        # the default tolerances, written out, give the same report
        assert run(capsys, ["verify", str(sol_file), "--integrate",
                            "--tol-residual", "1e-9",
                            "--tol-sigma", "1e-6"]) == (code, out)

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        # `verify six.json --integrate | head -c 5`, with the reader gone
        # before the first write: exit 1, and nothing on stderr
        sol_file = tmp_path / "six.json"
        assert main(["meridian", "--masses", "3,2,1", "--a", repr(math.pi / 6),
                     "--out", str(sol_file)]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        # a buffered stdout, as in a shell, holds output until the flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sphere3body.cli", "verify", str(sol_file),
                 "--integrate"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    def test_radius_reaches_verify(self, tmp_path, capsys):
        sol_file = tmp_path / "six.json"
        assert main(["meridian", "--masses", "3,2,1", "--a", repr(math.pi / 6),
                     "--radius", "2", "--out", str(sol_file)]) == 0
        code, out = run(capsys, ["verify", str(sol_file), "--integrate"])
        report = json.loads(out)
        assert code == 0 and report["all_pass"] is True
        assert report["count"] == 6
        assert all(s["pass"] for s in report["solutions"])

    @pytest.mark.parametrize("integrate", [[], ["--integrate"]])
    def test_file_with_no_solution_fails(self, tmp_path, capsys, integrate):
        # meridian exits 2 on this input (README), and verify agrees
        sol_file = tmp_path / "none.json"
        assert main(["meridian", "--masses", "1,1,1", "--a", "2.0943951023931953",
                     "--out", str(sol_file)]) == 2
        code, out = run(capsys, ["verify", str(sol_file), *integrate])
        assert code == 2
        assert json.loads(out) == {"count": 0, "all_pass": False, "solutions": []}

    def test_unparseable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", str(bad)]) == 1

    @pytest.mark.parametrize("key", ["theta", "omega_squared"])
    def test_record_missing_key(self, tmp_path, capsys, key):
        sol_file = tmp_path / "two.json"
        main(["meridian", "--masses", "3,2,1", "--a", str(math.pi / 4),
              "--out", str(sol_file)])
        data = json.loads(sol_file.read_text())
        del data["solutions"][0][key]
        sol_file.write_text(json.dumps(data))
        assert main(["verify", str(sol_file)]) == 1
        assert "cannot parse" in capsys.readouterr().err

    def test_body_on_pole_fails_cleanly(self, tmp_path, capsys):
        # Table 2, m = (6, 6, 1): the lift of x = pi/4 puts body 3 on a pole
        sol_file = tmp_path / "pole.json"
        main(["meridian", "--masses", "6,6,1", "--a", str(math.pi / 2),
              "--out", str(sol_file)])
        data = json.loads(sol_file.read_text())
        data["solutions"] = [s for s in data["solutions"]
                             if s["x"] == pytest.approx(math.pi / 4)]
        assert 0.0 in data["solutions"][0]["theta"]
        sol_file.write_text(json.dumps(data))
        code, out = run(capsys, ["verify", str(sol_file), "--integrate"])
        assert code == 2
        assert "pole" in json.loads(out)["solutions"][0]["error"]


class TestSweep:
    def test_counts_match_scan(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code = main(["sweep", "--a-grid", "0.5235987755982988:0.5235987755982988:1",
                     "--nu1-grid", "3:3:1", "--nu2-grid", "2:2:1",
                     "--out", str(out_file)])
        assert code == 0
        rows = [r for r in csv.reader(out_file.read_text().splitlines())
                if r and not r[0].startswith("#")]
        header, data = rows[0], rows[1]
        assert header[:4] == ["a", "nu1", "nu2", "count"]
        scan = count_rotators_scan(math.pi / 6, 3.0, 2.0)
        assert int(data[3]) == scan.total == 6
        assert [int(v) for v in data[4:8]] == list(scan)

    def test_empty_grid_is_usage_error(self, capsys):
        assert main(["sweep", "--a-grid", "0.15:1.55:0"]) == 1
        assert "n >= 1" in capsys.readouterr().err

    def test_unallocatable_grid_is_usage_error(self, capsys):
        # 1e15 points (8 PB) fail to allocate at once; a grid that could
        # be allocated is never tried here
        assert main(["sweep", "--nu1-grid", "0.1:10:1000000000000000"]) == 1
        captured = capsys.readouterr()
        assert "cannot be allocated" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_uncountable_grid_is_error(self, capsys, tmp_path):
        # 1e15 samples (8 PB) fail to allocate at once, in the first slice,
        # which is counted before anything is written; a size that could
        # be allocated is never tried here
        argv = ["sweep", "--a-grid", "1:2:2", "--nu1-grid", "1:1:1",
                "--nu2-grid", "1:1:1", "--samples", "1000000000000000"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err and captured.out == ""
        out_file = tmp_path / "sweep.csv"
        assert main([*argv, "--out", str(out_file)]) == 1
        assert not out_file.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--a-grid", "4:4:1"], "(0, pi)"),
        (["--a-grid", "1:1:1", "--nu1-grid=-1:-1:1"], "must be positive"),
        (["--a-grid", "1:1:1", "--samples", "1"], "at least 2"),
        (["--a-grid", "1:1:1", "--nu2-grid", "nan:1:2"], "finite"),
        (["--a-grid", "1:1:1", "--nu1-grid", "1.7e308:1.7e308:1"], "too large"),
        (["--a-grid", "1:1:1", "--nu2-grid", "1:9e307:2"], "too large"),
    ])
    def test_out_of_range_is_rejected(self, capsys, argv, message):
        assert main(["sweep", "--nu1-grid", "1:1:1", "--nu2-grid", "1:1:1",
                     *argv]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("a,nu1", [
        (1e-9, 1.0), (math.pi - 1e-9, 1.0),  # regions narrower than 2e-8
        (1.0, 1e300),  # |g| near 1e300: the product of two would overflow
    ])
    def test_edge_counts_match_scan(self, capsys, a, nu1):
        code, out = run(capsys, ["sweep", "--a-grid", f"{a!r}:{a!r}:1",
                                 "--nu1-grid", f"{nu1!r}:{nu1!r}:1",
                                 "--nu2-grid", "1:1:1"])
        assert code == 0
        counts = [int(v) for v in out.splitlines()[1].split(",")[3:]]
        scan = count_rotators_scan(a, nu1, 1.0)
        assert counts == [scan.total, *scan]

    def test_footer_reports_max(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        main(["sweep", "--a-grid", "0.5:1.0:2", "--nu1-grid", "1:5:3",
              "--nu2-grid", "1:5:3", "--out", str(out_file)])
        footer = out_file.read_text().splitlines()[-1]
        assert footer.startswith("# max_count")


def csv_writer_sweep(a_grid, nu1_grid, nu2_grid, samples=400):
    """The sweep's CSV as csv.writer wrote it, one writerow per grid
    point, before the rows were formatted by hand."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["a", "nu1", "nu2", "count",
                     "count_I", "count_II", "count_III", "count_IV"])
    max_count = -1
    argmax = None
    for a in a_grid:
        per_region = mer.count_rotators_grid_regions(
            a, nu1_grid, nu2_grid, samples)
        total = sum(per_region.values())
        for i, nu1 in enumerate(nu1_grid):
            for j, nu2 in enumerate(nu2_grid):
                c = int(total[i, j])
                if c > max_count:
                    max_count = c
                    argmax = (a, nu1, nu2)
                writer.writerow(
                    [f"{a:.17g}", f"{nu1:.17g}", f"{nu2:.17g}", c]
                    + [int(per_region[r][i, j]) for r in mer.REGIONS]
                )
    writer.writerow(["# max_count", f"{argmax[0]:.17g}", f"{argmax[1]:.17g}",
                     max_count, "", "", "", ""])
    return buf.getvalue()


class TestSweepStreaming:
    def test_peak_memory_is_one_slice(self, tmp_path):
        # six a-slices of 100 x 100 cells: the CSV is written slice by
        # slice, so the peak holds one slice's counts and rows, not the
        # whole text
        out_file = tmp_path / "sweep.csv"
        argv = ["sweep", "--a-grid", "0.5:2.5:6", "--nu1-grid", "0.1:10:100",
                "--nu2-grid", "0.1:10:100", "--samples", "8",
                "--out", str(out_file)]
        assert main(argv) == 0  # warm-up: imports and first-call set-up
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slice_bytes = out_file.stat().st_size / 6
        assert peak < 1.5 * slice_bytes
        assert out_file.read_bytes() == csv_writer_sweep(
            _grid("0.5:2.5:6"), _grid("0.1:10:100"), _grid("0.1:10:100"),
            8).encode()


class TestSweepBytes:
    @pytest.mark.parametrize("grids", [
        {},  # the default 20 x 50 x 50 grid
        {"--a-grid": "0.5:1.0:2", "--nu1-grid": "1:5:3", "--nu2-grid": "1:5:3"},
        {"--a-grid": "1.2:1.2:1", "--nu1-grid": "2:2:1", "--nu2-grid": "3:3:1"},
        {"--a-grid": "0.3:2.9:3", "--nu1-grid": "0.3:7:5",
         "--nu2-grid": "0.2:9:4", "--samples": "3"},
    ], ids=["default", "two-slices", "one-point", "ragged"])
    def test_file_matches_csv_writer(self, tmp_path, grids):
        defaults = {"--a-grid": "0.15:3.0:20", "--nu1-grid": "0.1:10:50",
                    "--nu2-grid": "0.1:10:50", "--samples": "400"}
        opts = {**defaults, **grids}
        out_file = tmp_path / "sweep.csv"
        argv = [v for k, val in grids.items() for v in (k, val)]
        assert main(["sweep", *argv, "--out", str(out_file)]) == 0
        want = csv_writer_sweep(_grid(opts["--a-grid"]), _grid(opts["--nu1-grid"]),
                                _grid(opts["--nu2-grid"]), int(opts["--samples"]))
        assert out_file.read_bytes() == want.encode()

    def test_footer_names_first_max(self, tmp_path):
        # both slices reach 8, at different cells; the footer keeps the first
        a_grid, nu = _grid("1.55:1.6:3"), _grid("0.5:8:5")
        totals = [sum(mer.count_rotators_grid_regions(a, nu, nu).values())
                  for a in a_grid]
        assert totals[0].max() == totals[1].max() == 8
        first = [tuple(np.argwhere(t == 8)[0]) for t in totals[:2]]
        assert first[0] != first[1] and first[0] != (0, 0)
        out_file = tmp_path / "sweep.csv"
        assert main(["sweep", "--a-grid", "1.55:1.6:3", "--nu1-grid", "0.5:8:5",
                     "--nu2-grid", "0.5:8:5", "--out", str(out_file)]) == 0
        assert out_file.read_bytes() == csv_writer_sweep(a_grid, nu, nu).encode()
        assert out_file.read_bytes().endswith(b"# max_count,1.55,0.5,8,,,,\r\n")

    @pytest.mark.parametrize("high", [9, 40000, 10**6])
    def test_slice_rows_match_cell_formatting(self, high):
        # region counts up to 40000 and 1e6 make the cell codes overflow
        # int64 (base ** 4 > 2 ** 63), so they are Python ints there
        rng = np.random.default_rng(high)
        per_region = {r: rng.integers(0, high, (4, 3)).astype(np.intp)
                      for r in mer.REGIONS}
        per_region["II"][2, 1] = high
        nu1_text, nu2_text = ["0.5", "1", "2", "7"], ["3", "4.25", "9"]
        fh = io.StringIO()
        top = cli._write_sweep_slice(fh, 1.25, per_region, nu1_text, nu2_text)
        total = sum(per_region.values())
        i, j = np.unravel_index(np.argmax(total), total.shape)
        assert top == (total.max(), f"1.25,{nu1_text[i]}")
        assert fh.getvalue() == "".join(
            f"1.25,{nu1},{nu2},{total[i, j]},"
            + ",".join(str(per_region[r][i, j]) for r in mer.REGIONS) + "\r\n"
            for i, nu1 in enumerate(nu1_text) for j, nu2 in enumerate(nu2_text))

    def test_stdout_matches_csv_writer(self, capsys):
        code, out = run(capsys, ["sweep", "--a-grid", "0.5:2.5:2",
                                 "--nu1-grid", "1:9:4", "--nu2-grid", "2:2:1"])
        assert code == 0
        assert out == csv_writer_sweep(_grid("0.5:2.5:2"), _grid("1:9:4"),
                                       _grid("2:2:1"))


class TestVerifyReport:
    @staticmethod
    def strict_json(text):
        def reject(name):
            raise ValueError(f"not strict JSON: {name}")
        return json.loads(text, parse_constant=reject)

    def test_no_integration_writes_null_drifts(self, tmp_path, capsys):
        sol_file = tmp_path / "six.json"
        main(["meridian", "--masses", "3,2,1", "--a", str(math.pi / 6),
              "--out", str(sol_file)])
        code, out = run(capsys, ["verify", str(sol_file)])
        assert code == 0
        report = self.strict_json(out)
        assert len(report["solutions"]) == 6
        for sol in report["solutions"]:
            assert sol["sigma_drift"] is None and sol["c_drift"] is None

    def test_integrator_error_writes_null_drifts(self, tmp_path, capsys):
        # Table 2, m = (6, 6, 1), x = pi/4: body 3 on a pole
        sol_file = tmp_path / "pole.json"
        main(["meridian", "--masses", "6,6,1", "--a", str(math.pi / 2),
              "--out", str(sol_file)])
        data = json.loads(sol_file.read_text())
        data["solutions"] = [s for s in data["solutions"]
                             if s["x"] == pytest.approx(math.pi / 4)]
        sol_file.write_text(json.dumps(data))
        report_file = tmp_path / "report.json"
        code = main(["verify", str(sol_file), "--integrate",
                     "--out", str(report_file)])
        assert code == 2
        sol = self.strict_json(report_file.read_text())["solutions"][0]
        assert "pole" in sol["error"]
        assert sol["sigma_drift"] is None and sol["c_drift"] is None

    @pytest.mark.parametrize("field,value", [
        ("omega_squared", math.inf),
        ("omega_squared", -1.0),
        ("omega_squared", math.nan),
        ("theta", [0.1, math.nan, 0.3]),
        ("theta", [0.1, math.inf, 0.3]),
        ("theta", [0.1, 0.3]),
        # a string is no list of numbers, and true no number (not 1.0)
        ("theta", "123"),
        ("theta", [0.1, True, 0.3]),
        ("omega_squared", True),
        # an int that no float holds
        pytest.param("theta", [0.1, 10 ** 400, 0.3], id="theta-huge_int"),
        pytest.param("omega_squared", 10 ** 400, id="omega_squared-huge_int"),
        # x is a number, theta3 - theta1 (mod 2 pi) to within 1e-9 rad
        ("x", "not a number"),
        ("x", True),
        pytest.param("x", lambda x: x + 1e-6, id="x-off_by_1e-6"),
    ])
    def test_bad_field_is_named(self, tmp_path, capsys, field, value):
        sol_file = tmp_path / "two.json"
        main(["meridian", "--masses", "3,2,1", "--a", str(math.pi / 4),
              "--out", str(sol_file)])
        data = json.loads(sol_file.read_text())
        if callable(value):
            value = value(data["solutions"][0][field])
        data["solutions"][0][field] = value
        sol_file.write_text(json.dumps(data))
        assert main(["verify", str(sol_file), "--integrate"]) == 1
        captured = capsys.readouterr()
        assert "cannot parse" in captured.err and field in captured.err
        assert "dt" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field,value", [
        ("masses", [3, 2, True]),
        ("masses", "321"),
        ("radius", True),
        pytest.param("radius", 10 ** 400, id="radius-huge_int"),
    ])
    def test_bad_metadata_field_is_named(self, tmp_path, capsys, field, value):
        sol_file = tmp_path / "two.json"
        main(["meridian", "--masses", "3,2,1", "--a", str(math.pi / 4),
              "--out", str(sol_file)])
        data = json.loads(sol_file.read_text())
        data["metadata"][field] = value
        sol_file.write_text(json.dumps(data))
        assert main(["verify", str(sol_file)]) == 1
        captured = capsys.readouterr()
        assert "cannot parse" in captured.err and field in captured.err
        assert captured.out == ""

    # an empty dict or string would iterate as no solution (exit 2)
    @pytest.mark.parametrize("value", [{}, "", None], ids=["dict", "string", "null"])
    def test_solutions_that_are_not_a_list(self, tmp_path, capsys, value):
        sol_file = tmp_path / "two.json"
        main(["meridian", "--masses", "3,2,1", "--a", str(math.pi / 4),
              "--out", str(sol_file)])
        data = json.loads(sol_file.read_text())
        data["solutions"] = value
        sol_file.write_text(json.dumps(data))
        assert main(["verify", str(sol_file)]) == 1
        captured = capsys.readouterr()
        assert "cannot parse" in captured.err and "solutions" in captured.err
        assert captured.out == ""


class TestEulerLimit:
    @pytest.mark.parametrize("extra,option", [
        (["--R-list", "0"], "--R-list"),
        (["--R-list", "100"], "--R-list"),
        (["--R-list", "100,100"], "--R-list"),
        (["--R-list", "100,nan"], "--R-list"),
        (["--R-list", "100,x"], "--R-list"),
        (["--R-list", "0.1,100"], "--R-list"),
        (["--R-list", "1e150,1e300"], "R/r21"),
        (["--r21", "0"], "--r21"),
        (["--r21", "-1"], "--r21"),
        (["--r21", "inf"], "--r21"),
    ])
    def test_invalid_input(self, extra, option, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["euler-limit", "--masses", "3,2,1", *extra])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert option in captured.err
        assert "Traceback" not in captured.err and "Warning" not in captured.err

    def test_no_region_root_is_null(self, capsys):
        # r21/R just below pi leaves region II narrower than the boundary
        # margin: no root, so no root deviation
        code, out = run(capsys, ["euler-limit", "--masses", "3,2,1",
                                 "--R-list", "0.3183099,1"])
        assert code == 0
        assert json.loads(out)["rows"][0]["root_deviation"] is None

    def test_quintic_for_321(self, capsys):
        code, out = run(capsys, ["euler-limit", "--masses", "3,2,1"])
        assert code == 0
        data = json.loads(out)
        assert data["quintic_coefficients"] == [5, 13, 11, -5, -7, -3]
        assert data["order_estimate"] == pytest.approx(2.0, abs=0.2)

    def test_csv_format(self, capsys):
        code, out = run(capsys, [
            "euler-limit", "--masses", "1,1,1", "--R-list", "100,1000",
            "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "R,max_coeff_deviation,root_deviation"
        assert lines[-1].startswith("# order_estimate")

    @pytest.mark.parametrize("r_list", [[], ["--R-list", "2,3"]],
                             ids=["default-R", "R-2-3"])
    @pytest.mark.parametrize("masses", ["1,1,1", "3,2,1", "25,25,1", "1,1,4"])
    def test_csv_matches_csv_writer(self, masses, r_list, tmp_path, capsys):
        argv = ["euler-limit", "--masses", masses, *r_list, "--format", "csv"]
        want = csv_writer_euler_limit(cli.build_parser().parse_args(argv))
        code, out = run(capsys, argv)
        assert code == 0 and out == want
        out_file = tmp_path / "euler.csv"
        assert main([*argv, "--out", str(out_file)]) == 0
        assert out_file.read_bytes() == want.encode()


def csv_writer_euler_limit(args) -> str:
    """euler-limit's CSV as csv.writer wrote it, one writerow per row,
    before the rows were joined by hand."""
    from sphere3body.euler_limit import euler_limit_check

    report = euler_limit_check(args.masses, args.r21, args.R_list)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["R", "max_coeff_deviation", "root_deviation"])
    for row in report.rows:
        writer.writerow([f"{row.R:.17g}", f"{row.max_coeff_deviation:.17g}",
                         f"{row.root_deviation:.17g}"])
    writer.writerow(["# order_estimate", f"{report.order_estimate:.17g}", ""])
    return buf.getvalue()


@pytest.mark.parametrize("argv", [
    ["sweep", "--potential", "repulsive"],
    ["sweep", "--masses", "3,2,1"],
    ["sweep", "--radius", "2"],
    ["sweep", "--format", "json"],
    ["sweep", "--tol-root", "1e-6"],
    ["sweep", "--tol-residual", "1e-6"],
    ["euler-limit", "--masses", "3,2,1", "--radius", "2"],
    ["euler-limit", "--masses", "3,2,1", "--potential", "repulsive"],
    ["euler-limit", "--masses", "3,2,1", "--tol-root", "1e-6"],
    ["euler-limit", "--masses", "3,2,1", "--tol-residual", "1e-6"],
    ["equator", "--masses", "1,1,1", "--format", "csv"],
    ["equator", "--masses", "1,1,1", "--potential", "repulsive"],
    ["equator", "--masses", "1,1,1", "--tol-root", "1e-6"],
    ["equator", "--masses", "1,1,1", "--tol-residual", "1e-6"],
])
def test_option_a_command_does_not_read_is_rejected(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""


def test_verify_blow_up_writes_no_warning(tmp_path, capsys):
    # the isosceles RE x ~ 3.7187 is unstable: the integrator blows up,
    # and the overflowing end state must not raise numpy RuntimeWarnings
    a = math.acos((math.sqrt(2.0) - 1.0) / 2.0)
    sol_file = tmp_path / "iso.json"
    main(["meridian", "--masses", "1.3,2.2,0.7", "--a", repr(a),
          "--out", str(sol_file)])
    data = json.loads(sol_file.read_text())
    data["solutions"] = [s for s in data["solutions"]
                         if s["x"] == pytest.approx(3.7187, abs=1e-4)]
    sol_file.write_text(json.dumps(data))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify", str(sol_file), "--integrate"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "count": 1, "all_pass": False, "solutions": [{
            "x": pytest.approx(3.7186683671832457, abs=1e-12),
            "residual": pytest.approx(0.0, abs=1e-13),
            "cx": pytest.approx(0.0, abs=1e-15),
            "cy": pytest.approx(0.0, abs=1e-15),
            "sigma_drift": None, "c_drift": None, "pass": False,
            "error": "numerical blow-up near a singularity: math domain error",
        }]}


@pytest.mark.parametrize("argv", [
    # inputs found by test_cli_fuzz that ended in a traceback
    ["meridian", "--masses", "nan,15.5,0", "--a", "1.5"],
    ["meridian", "--masses", "1e300,1,1", "--a", "0.5"],
    ["meridian", "--masses", "12,5e-324,12", "--a", "5e-324"],
    ["meridian", "--masses", "3,2,1", "--a", "0.5", "--radius", "1e-150"],
    # 4 R^2 overflows here, so every chord read as antipodal: no solutions
    ["meridian", "--masses", "3,2,1", "--a", "0.5", "--radius", "1e300"],
])
def test_out_of_range_input_is_usage_error(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_too_extreme_mass_ratio_is_usage_error():
    # nu1 = 1e103 cubed overflows, past MassTriple's bound on the ratios
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "sphere3body.cli", "meridian", "--masses",
         "1e103,1,1", "--a", "1"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 1
    assert "masses or their ratios are too extreme" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("masses", ["1,1,1", "4,4,4"])
def test_equal_masses_at_two_thirds_pi_end_cleanly(masses, capsys):
    # the equilateral root of g is of higher order here, and the scan
    # takes it at a knot 1.6e-7 from it where g is within rounding of 0,
    # and where the amplitude A (3.2e-7 at unit masses) is under the
    # A-zero bound: a fixed point, judged at omega = 0, whose backward
    # error 2.4e-7 rad fails the gate. The Case-4 fixed point is not
    # reported (README)
    code = main(["meridian", "--masses", masses, "--a", "2.0943951023931953"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert json.loads(captured.out)["solutions"] == []


def test_verify_rejects_an_unknown_potential(tmp_path, capsys):
    # a misspelt potential is not read as the cotangent one; a missing
    # key is
    sol_file = tmp_path / "repulsive.json"
    assert main(["meridian", "--masses", "3,2,1", "--a", repr(math.pi / 6),
                 "--potential", "repulsive", "--out", str(sol_file)]) == 0
    data = json.loads(sol_file.read_text())
    assert main(["verify", str(sol_file)]) == 0
    # nor is a name that is not a string (a list is not hashable)
    for bad, shown in [("repulsve", "'repulsve'"), (["cotangent"], "['cotangent']"),
                       (5, "5")]:
        data["metadata"]["potential"] = bad
        sol_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(sol_file)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot parse {sol_file}")
        assert f"unknown potential {shown}" in captured.err, bad
        assert captured.out == ""
    assert main(["meridian", "--masses", "3,2,1", "--a", repr(math.pi / 6),
                 "--out", str(sol_file)]) == 0
    data = json.loads(sol_file.read_text())
    del data["metadata"]["potential"]
    sol_file.write_text(json.dumps(data))
    assert main(["verify", str(sol_file)]) == 0


def test_verify_tiny_radius_is_usage_error(tmp_path, capsys):
    sol_file = tmp_path / "tiny.json"
    sol_file.write_text(json.dumps({
        "metadata": {"masses": [1.4, 1.1, 1.1], "radius": 1e-150},
        "solutions": [{"theta": [1.39, 2.14, 2.16], "omega_squared": 4.1}],
    }))
    assert main(["verify", str(sol_file)]) == 1
    assert "out of range" in capsys.readouterr().err


def test_usage_error_returns_one():
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_usage_error_leaves_the_parser_whole(capsys):
    # the parser is built once per process and serves every call
    assert main(["meridian", "--masses", "3,2,1", "--a", "x"]) == 1
    code, out = run(capsys, ["meridian", "--masses", "3,2,1",
                             "--a", repr(math.pi / 6)])
    assert code == 0
    assert len(json.loads(out)["solutions"]) == 6


def test_default_grids_survive_a_sweep(tmp_path):
    # the default grids are text that each parse of sweep turns into a
    # fresh grid: two default sweeps write the same bytes
    texts = []
    for k in range(2):
        path = tmp_path / f"sweep{k}.csv"
        assert main(["sweep", "--out", str(path)]) == 0
        texts.append(path.read_bytes())
    assert texts[0] and texts[0] == texts[1]


def _readme_block(fence: str, after: str) -> str:
    """The first fenced block of README.md opened by fence after the
    heading after."""
    text = README.read_text().split(after, 1)[1]
    return text.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # every command of README's CLI block, in order, from one directory:
    # the verify line reads the file the meridian line before it wrote
    monkeypatch.chdir(tmp_path)
    lines = [line.split("#", 1)[0].strip()
             for line in _readme_block("sh", "## CLI").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("sphere3body ")]
    assert len(commands) == 8
    for argv in commands:
        exit_2 = argv == ["equator", "--masses", "25,25,1"]
        assert main(argv) == (2 if exit_2 else 0), argv
        capsys.readouterr()
    namespace = {}
    exec(_readme_block("python", "## Library"), namespace)
    assert len(namespace["sols"]) == 6


# run in a fresh interpreter: one command (the script's arguments), then
# which of the watched modules it loaded (every numpy module counts as
# numpy), then the package's public names
ON_DEMAND_SCRIPT = """
import contextlib, io, sys
from sphere3body import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = {"numpy" if m.split(".")[0] == "numpy" else m for m in sys.modules}
print(code, *sorted(loaded & {"csv", "dataclasses", "inspect", "numpy",
                              "sphere3body.equator", "sphere3body.euler_limit",
                              "sphere3body.grid", "sphere3body.integrator"}))
import sphere3body
from sphere3body import *
from sphere3body import equator
print(sphere3body.solve_equator is equator.solve_equator,
      all(globals()[name] is getattr(sphere3body, name)
          for name in sphere3body.__all__))
"""
# the watched modules that numpy imports for itself (inspect, in numpy 2)
NUMPY_SCRIPT = """
import sys
import numpy
print(*sorted({"csv", "dataclasses", "inspect"} & set(sys.modules)))
"""
# each command and the watched modules that it loads, in the order they
# run: verify reads the six.json that the first meridian writes
ON_DEMAND = [
    (["meridian", "--masses", "3,2,1", "--a", "0.5235987755982988",
      "--out", "six.json"], []),
    (["meridian", "--masses", "3,2,1", "--a", "0.7853981633974483",
      "--format", "csv"], []),
    (["sweep", "--a-grid", "1.2:1.2:1", "--nu1-grid", "0.5:8:5",
      "--nu2-grid", "0.5:8:5"], ["numpy", "sphere3body.grid"]),
    (["verify", "six.json", "--integrate"], ["sphere3body.integrator"]),
    (["equator", "--masses", "1,2,3"], ["sphere3body.equator"]),
    (["euler-limit", "--masses", "3,2,1", "--format", "csv"],
     ["numpy", "sphere3body.euler_limit"]),
    (["--help"], []),
]


# the watched modules that say whether a command runs on plain floats
NUMPY_WATCHED = {"dataclasses", "inspect", "numpy"}


@pytest.fixture(scope="module")
def command_loads(tmp_path_factory):
    # each ON_DEMAND command run once, in order, in a fresh interpreter:
    # its arguments, the watched modules it should load and the script's
    # output words
    cwd = tmp_path_factory.mktemp("loads")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    numpy_loads = subprocess.run([sys.executable, "-c", NUMPY_SCRIPT],
                                 capture_output=True, text=True, check=True,
                                 timeout=300).stdout.split()
    runs = []
    for argv, loaded in ON_DEMAND:
        if "numpy" in loaded:
            loaded = sorted({*loaded, *numpy_loads})
        proc = subprocess.run([sys.executable, "-c", ON_DEMAND_SCRIPT, *argv],
                              capture_output=True, text=True, env=env,
                              cwd=cwd, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append((argv, loaded, proc.stdout.split()))
    return runs


def test_solving_commands_never_import_numpy(command_loads):
    # meridian's scan, verify and equator run on plain floats: only sweep
    # and euler-limit import numpy. The records are named tuples, so no
    # command loads dataclasses (or the inspect it imports)
    for argv, loaded, words in command_loads:
        assert ([w for w in words if w in NUMPY_WATCHED]
                == [m for m in loaded if m in NUMPY_WATCHED]), argv


def test_meridian_loads_neither_equator_nor_euler_limit(command_loads):
    # each command loads only what it runs: every CSV is joined text, so
    # none loads csv. cmd_equator imports equator, cmd_euler_limit
    # euler_limit, cmd_verify the integrator, and sweep the grid counter
    # (meridian gives its name on first use). The package gives the
    # equator's names on first use, so `from sphere3body import *` still
    # has them
    for argv, loaded, words in command_loads:
        assert [w for w in words if w not in NUMPY_WATCHED] == [
            "0", *[m for m in loaded if m not in NUMPY_WATCHED],
            "True", "True"], argv


@pytest.mark.parametrize("module", [cli, mer])
def test_unknown_name_is_an_attribute_error(module):
    # the module __getattr__ that gives names on demand gives no other
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        module.nope
    assert not hasattr(module, "nope")
    with pytest.raises(ImportError):
        exec(f"from {module.__name__} import nope", {})


def test_names_given_on_demand_are_their_home_modules_objects():
    from sphere3body import grid, integrator

    assert cli.integrate is integrator.integrate
    assert cli.configuration_residuals is integrator.configuration_residuals
    assert mer.count_rotators_grid_regions is grid.count_rotators_grid_regions
