"""Benchmark of the sphere3body CLI: solve, sweep and verify workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Each workload runs in its own single-threaded worker process that calls
``sphere3body.cli.main`` in-process, op after op, for --seconds. Set-up
(importing the CLI and building the inputs) is timed in fresh
interpreters. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones, and the spans
go to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import calibrate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "sweep", "verify")
# fresh interpreters that time set-up; the measuring worker adds one more
SETUP_REPEATS = 6
WORKER_TIMEOUT_S = 150
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in PINNED_THREADS})
    return env


def run_worker(args, workdir: str, setup_only: bool) -> dict:
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    subprocess.run(cmd, env=worker_env(), check=True, timeout=WORKER_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    with open(result) as fh:
        return json.load(fh)


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sphere3body" / "cli.py").is_file():
        print(f"error: no sphere3body sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        run_worker(args, workdir, setup_only=True)  # writes the .pyc files
        setups = [run_worker(args, workdir, setup_only=True)
                  for _ in range(SETUP_REPEATS)]
        res = run_worker(args, workdir, setup_only=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res)

    lat = res["latencies_s"]
    refs = res["references_s"]
    attempted = len(lat)
    failed = sum(res["failed"].values())
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": res["python"], "numpy": res["numpy"],
        "backend": res["backend"], "nproc": os.cpu_count(),
        "host": platform.node(), "commit": commit(),
        "rounds": res["rounds"], "failed_by_kind": res["failed"],
    }
    print("provenance: " + json.dumps(provenance))
    for problem in res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)

    # Times are in reference seconds (calibrate.py): each op's time is
    # scaled by the reference loop timed just before it, each set-up by
    # the median of the loops timed just after it.
    nominal = calibrate.NOMINAL_S
    scaled = [t * nominal / r for t, r in zip(lat, refs)]
    ops_per_s = attempted / sum(scaled)
    if args.trace:
        import_ms = 1e3 * statistics.median(
            s["import_s"] * nominal / statistics.median(s["setup_refs_s"])
            for s in setups)
        metrics = spans.layer_metrics(res["layers"], attempted,
                                      sum(scaled) / sum(lat))
        metrics["cli.import_ms"] = import_ms
        units = {name: spec["unit"] for name, spec in layer_specs().items()}
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({"provenance": provenance, "metrics": metrics,
                       "traced_ops_per_s": ops_per_s,
                       "spans": ["id parent op name start_s end_s"] + res["spans"]},
                      fh)
        print(f"trace: {trace_file.relative_to(ROOT)} "
              f"(traced ops_per_s {ops_per_s:.4g})")
    else:
        metrics = {
            "setup_s": statistics.median(
                (s["import_s"] + s["inputs_s"]) * nominal
                / statistics.median(s["setup_refs_s"]) for s in setups),
            "ops_per_s": ops_per_s,
            "call_ms_p50": 1e3 * statistics.median(scaled),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print("wall clock: " + json.dumps({
            "setup_s": statistics.median(s["import_s"] + s["inputs_s"]
                                         for s in setups),
            "ops_per_s": attempted / sum(lat),
            "call_ms_p50": statistics.median(lat) * 1e3,
            "reference_ms_p50": statistics.median(refs) * 1e3}))
        units = {"setup_s": "s", "ops_per_s": "1/s", "call_ms_p50": "ms",
                 "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": res["problem_count"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def layer_specs() -> dict[str, dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
