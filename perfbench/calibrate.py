"""Host-speed reference: a fixed pure-Python loop timed between ops.

The benchmark host's speed drifts by up to 1.5x over seconds to minutes
(co-tenants; CPU time tracks wall time, so it is the host that slows,
not the process that waits). Every timing the benchmark reports is
scaled by NOMINAL_S / (time of this loop measured alongside it): a time
in "reference seconds", which is what the same work would take on a host
that runs the loop in NOMINAL_S. The loop is float arithmetic and math
calls in the interpreter, the kind of work that dominates every workload.
"""

import math
import time

NOMINAL_S = 0.002


def reference_loop(n: int = 20000) -> float:
    s = 0.0
    x = 0.1
    for _ in range(n):
        x = math.sin(x) * 1.0000001 + 0.3
        s += x * x
    return s


def timed_reference() -> float:
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t
