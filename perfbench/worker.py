"""One workload in one process: set-up, then (unless --setup-only) the
timed loop of whole rounds. Writes its raw figures as JSON to --result.

Started by run.py with the package's src/ on PYTHONPATH and the BLAS and
OpenMP thread counts pinned to 1. Nothing heavy is imported before the
CLI import is timed, so that import is measured cold.
"""

import argparse
import json
import os
import resource
import sys
import time

# reference loops timed right after set-up, to scale its time
SETUP_REFERENCES = 25


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    t0 = time.perf_counter()
    from sphere3body import cli
    t1 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir,
                                                  cli.main)
    t2 = time.perf_counter()
    import calibrate

    refs = [calibrate.timed_reference() for _ in range(SETUP_REFERENCES)]
    result = {"import_s": t1 - t0, "inputs_s": t2 - t1, "setup_refs_s": refs}
    if not args.setup_only:
        result.update(measure(workload, cli, args.seconds, args.trace))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(workload, cli, seconds: float, trace: bool) -> dict:
    import numpy
    from sphere3body import kernels, meridian

    import calibrate
    import spans
    import workloads

    tracer = None
    call = cli.main
    if trace:
        tracer = spans.Tracer()
        call = spans.install(tracer, cli, meridian, kernels)

    # one untimed op, so lazy first-call work is not in the figures
    try:
        call(workload.round()[0].argv)
    except Exception:
        pass  # counted when the op comes round in the timed loop
    if tracer is not None:
        tracer.reset()

    latencies = []
    references = []
    failed_kinds: dict[str, int] = {}
    problems: list[str] = []
    rounds = 0
    stop = time.perf_counter() + seconds
    while True:
        for op in workload.round():
            if os.path.exists(op.out):
                os.remove(op.out)
            if tracer is not None:
                tracer.op = len(latencies)
            references.append(calibrate.timed_reference())
            t = time.perf_counter()
            try:
                rc = call(op.argv)
            except Exception as exc:  # a traceback the user would see
                rc, kind = None, f"crash: {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t)
            if rc in (0, 2):
                try:
                    outcome = op.check(rc)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    outcome = workloads.Outcome(
                        problems=[f"{op.argv}: unreadable output: {exc!r}"])
                kind = outcome.failed
                problems += outcome.problems
                if tracer is not None:
                    tracer.counts["output_bytes"] += outcome.output_bytes
            elif rc is not None:
                kind = f"exit {rc}"
            if kind is not None:
                failed_kinds[kind] = failed_kinds.get(kind, 0) + 1
        rounds += 1
        if time.perf_counter() >= stop:
            break

    out = {
        "latencies_s": latencies,
        "references_s": references,
        "rounds": rounds,
        "failed": failed_kinds,
        "problems": problems[:20],
        "problem_count": len(problems),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": kernels.BACKEND,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    sys.exit(main())
