"""The benchmark's tracer (perfbench/spans.py) on this package: install
wraps each layer's functions where their callers look them up, so a
function that moves or is called another way reads zero in the per-layer
figures. Each layer the benchmark reports on must record calls."""

import importlib.util
import json
import math
from pathlib import Path

from sphere3body import cli, kernels
from sphere3body import meridian as mer

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# every attribute that install replaces or adds
INSTALLED = [(kernels, "g_scalar"), (kernels, "g_array"),
             (mer, "find_meridian_rotators"), (mer, "solution_from_shape"),
             (mer, "count_rotators_grid_regions"), (mer, "configuration_residuals"),
             (cli, "configuration_residuals"), (cli, "integrate")]


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_each_layer(monkeypatch, tmp_path, capsys):
    spans = _spans_module()
    missing = object()
    before = {(m, name): getattr(m, name, missing) for m, name in INSTALLED}
    for (module, name), value in before.items():
        # undo puts each back, and deletes what was not there
        monkeypatch.setattr(module, name, None if value is missing else value,
                            raising=False)
    modules = (cli, mer, kernels)
    names = {m: dict(vars(m)) for m in modules}
    tracer = spans.Tracer()
    main = spans.install(tracer, cli, mer, kernels)
    changed = {(m, name) for m in modules for name, value in vars(m).items()
               if names[m].get(name, missing) is not value}
    assert changed <= set(before), changed

    solutions = tmp_path / "pi6.json"
    assert main(["meridian", "--masses", "3,2,1", "--a", repr(math.pi / 6),
                 "--out", str(solutions)]) == 0
    assert main(["sweep", "--a-grid", "1.2:1.2:1", "--nu1-grid", "0.5:8:5",
                 "--nu2-grid", "0.5:8:5", "--out", str(tmp_path / "s.csv")]) == 0
    data = json.loads(solutions.read_text())
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"metadata": data["metadata"],
                               "solutions": data["solutions"][:1]}))
    assert main(["verify", str(one), "--integrate"]) == 0
    capsys.readouterr()

    calls = tracer.summary()["calls"]
    assert calls["cli.main"] == 3
    assert calls["meridian.find_meridian_rotators"] == 1
    assert calls["meridian.solution_from_shape"] >= 6
    assert calls["meridian.count_rotators_grid_regions"] == 1
    assert calls["dynamics.integrate"] == 1

    monkeypatch.undo()
    for (module, name), value in before.items():
        assert getattr(module, name, missing) is value, name
