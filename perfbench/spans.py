"""Per-layer spans, recorded from the benchmark's side.

``install`` replaces the public functions of each layer with wrappers on
the module attributes their callers look up at call time; nothing in the
package changes. A wrapper records a span (name, start, end, parent, op)
and the counts named in the README. Totals and self times (a span minus
the spans it directly encloses) are kept as running sums, and raw spans
only for the first ops, so a long traced run stays small in memory.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

KEEP_SPANS = 5000


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        """Forget everything recorded; the installed wrappers stay."""
        self.op = 0
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn, on_return=None):
        """fn wrapped in a span; on_return(tracer, bound_args, result)
        records counts once fn has returned."""
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            self._next_id += 1
            parent = self._stack[-1][3] if self._stack else 0
            frame = [name, time.perf_counter(), 0.0, self._next_id]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - frame[1]
                self.total[name] += dur
                self.self_time[name] += dur - frame[2]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][2] += dur
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append((frame[3], parent, self.op, name,
                                       frame[1], end))
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self, bound.arguments, result)
            return result

        return traced

    def summary(self) -> dict:
        """The running sums, as plain dicts."""
        return {"total_s": dict(self.total), "self_s": dict(self.self_time),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def _g_array_points(tr, args, result):
    tr.counts["g_array.points"] += len(result)


def _accepted(tr, args, result):
    tr.counts["accepted"] += len(result)


def _grid(tr, args, result):
    n1, n2 = len(args["nu1_values"]), len(args["nu2_values"])
    s = args["samples_per_region"]
    tr.counts["grid_samples"] += n1 * n2 * len(result) * s
    # per region, g on (nu1, nu2, samples) and the product of its
    # neighbouring samples are live at once: float64, from the shapes
    tr.counts["grid_bytes_peak"] = max(tr.counts["grid_bytes_peak"],
                                       8 * n1 * n2 * (2 * s - 1))


def _rk4(tr, args, result):
    n = max(1, int(round(args["t_end"] / args["dt"])))
    h = args["t_end"] / n
    tr.counts["rk4_steps"] += int(round(result.times[-1] / h))


def install(tracer: Tracer, cli, mer, kernels):
    """Wrap each layer's public functions where their callers find them.
    Returns the traced ``cli.main``."""
    kernels.g_scalar = tracer.wrap("kernels.g_scalar", kernels.g_scalar)
    kernels.g_array = tracer.wrap("kernels.g_array", kernels.g_array,
                                  _g_array_points)
    mer.find_meridian_rotators = tracer.wrap(
        "meridian.find_meridian_rotators", mer.find_meridian_rotators, _accepted)
    mer.solution_from_shape = tracer.wrap(
        "meridian.solution_from_shape", mer.solution_from_shape)
    mer.count_rotators_grid_regions = tracer.wrap(
        "meridian.count_rotators_grid_regions",
        mer.count_rotators_grid_regions, _grid)
    residuals = tracer.wrap("dynamics.configuration_residuals",
                            cli.configuration_residuals)
    mer.configuration_residuals = residuals
    cli.configuration_residuals = residuals
    cli.integrate = tracer.wrap("dynamics.integrate", cli.integrate, _rk4)
    return tracer.wrap("cli.main", cli.main)


def layer_metrics(t: dict, ops: int, scale: float) -> dict[str, float]:
    """Per-layer figures from a Tracer.summary(), per op unless the name
    says otherwise; times are multiplied by scale (reference seconds per
    second, see calibrate.py). cli.import_ms is measured apart."""
    total, self_time = t["total_s"], t["self_s"]
    calls, counts = t["calls"], t["counts"]

    def ms(name, table):
        return 1e3 * scale * table.get(name, 0.0) / ops

    candidates = calls.get("meridian.solution_from_shape", 0)
    accepted = counts.get("accepted", 0)
    steps = counts.get("rk4_steps", 0)
    integrate_s = scale * total.get("dynamics.integrate", 0.0)
    return {
        "kernels.g_scalar.calls": calls.get("kernels.g_scalar", 0) / ops,
        "kernels.g_scalar.ms": ms("kernels.g_scalar", total),
        "kernels.g_array.calls": calls.get("kernels.g_array", 0) / ops,
        "kernels.g_array.points": counts.get("g_array.points", 0) / ops,
        "kernels.g_array.ms": ms("kernels.g_array", total),
        "meridian.scan.self_ms": ms("meridian.find_meridian_rotators", self_time),
        "meridian.candidates": candidates / ops,
        "meridian.accepted": accepted / ops,
        "meridian.accept_ratio": accepted / candidates if candidates else 0.0,
        "meridian.solution_from_shape.self_ms": ms(
            "meridian.solution_from_shape", self_time),
        "meridian.count_rotators_grid_regions.ms": ms(
            "meridian.count_rotators_grid_regions", total),
        "meridian.grid_samples": counts.get("grid_samples", 0) / ops,
        "meridian.grid_bytes_computed": float(counts.get("grid_bytes_peak", 0)),
        "dynamics.configuration_residuals.calls":
            calls.get("dynamics.configuration_residuals", 0) / ops,
        "dynamics.configuration_residuals.ms": ms(
            "dynamics.configuration_residuals", total),
        "dynamics.integrate.ms": ms("dynamics.integrate", total),
        "dynamics.rk4_steps": steps / ops,
        "dynamics.rk4_steps_per_s": steps / integrate_s if integrate_s else 0.0,
        "cli.main.self_ms": ms("cli.main", self_time),
        "cli.output_bytes": counts.get("output_bytes", 0) / ops,
    }
