"""Screen the random solve pool: run ``meridian`` and the solve checks on
every pool entry and its mirror, and print the entries that fail or
answer wrongly, for POOL_EXCLUDED in workloads.py.

    PYTHONPATH=src python3 perfbench/screen_pool.py
"""

import sys
import tempfile

import workloads
from sphere3body.cli import main as cli_main


def main() -> int:
    bad = {}
    pool = workloads.random_pool()
    with tempfile.TemporaryDirectory() as tmp:
        for k, case in enumerate(pool):
            solve = workloads.Solve(0, tmp, cli_main, cases=[case])
            for op in solve.round():
                try:
                    rc = cli_main(op.argv)
                except Exception as exc:
                    bad.setdefault(k, []).append(f"{type(exc).__name__}: {exc}")
                    continue
                outcome = op.check(rc) if rc in (0, 2) else None
                if outcome is None or outcome.failed or outcome.problems:
                    bad.setdefault(k, []).append(
                        f"exit {rc}" if outcome is None
                        else outcome.failed or outcome.problems[0])
    for k, reasons in sorted(bad.items()):
        _, a, m = pool[k]
        print(f"{k}: a={a!r} m={m!r}: {reasons[0]}")
    print(f"POOL_EXCLUDED = frozenset({sorted(bad)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
