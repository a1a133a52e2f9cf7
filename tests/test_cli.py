import csv
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sphere3body import meridian as mer
from sphere3body.cli import _parse_grid as _grid, main
from sphere3body.meridian import count_rotators_scan


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
            assert abs(src["residual"] - chk["residual"]) < 1e-12

    def test_perturbed_solution_fails(self, tmp_path, capsys):
        sol_file = tmp_path / "six.json"
        main(["meridian", "--masses", "3,2,1", "--a", str(math.pi / 6),
              "--out", str(sol_file)])
        data = json.loads(sol_file.read_text())
        data["solutions"][0]["theta"][2] += 1e-3
        sol_file.write_text(json.dumps(data))

        code, out = run(capsys, ["verify", str(sol_file)])
        assert code == 2
        report = json.loads(out)
        assert report["all_pass"] is False
        assert report["solutions"][0]["residual"] >= 1e-4

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
        assert [int(v) for v in data[4:8]] == list(scan.as_tuple())

    def test_empty_grid_is_usage_error(self, capsys):
        assert main(["sweep", "--a-grid", "0.15:1.55:0"]) == 1
        assert "n >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--a-grid", "4:4:1"], "(0, pi)"),
        (["--a-grid", "1:1:1", "--nu1-grid=-1:-1:1"], "must be positive"),
        (["--a-grid", "1:1:1", "--samples", "1"], "at least 2"),
        (["--a-grid", "1:1:1", "--nu2-grid", "nan:1:2"], "finite"),
    ])
    def test_out_of_range_is_rejected(self, capsys, argv, message):
        assert main(["sweep", "--nu1-grid", "1:1:1", "--nu2-grid", "1:1:1",
                     *argv]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

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
        assert peak < 2.0 * slice_bytes
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
    ])
    def test_bad_field_is_named(self, tmp_path, capsys, field, value):
        sol_file = tmp_path / "two.json"
        main(["meridian", "--masses", "3,2,1", "--a", str(math.pi / 4),
              "--out", str(sol_file)])
        data = json.loads(sol_file.read_text())
        data["solutions"][0][field] = value
        sol_file.write_text(json.dumps(data))
        assert main(["verify", str(sol_file), "--integrate"]) == 1
        captured = capsys.readouterr()
        assert "cannot parse" in captured.err and field in captured.err
        assert "dt" not in captured.err
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
