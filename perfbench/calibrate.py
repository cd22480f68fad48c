"""Write perfbench/costs/<workload>.json: the time of one op on every case of
the workload's grid, in grid order.  The benchmark sorts the grid by these
reference costs to cut it into strata, so that runs with different seeds
take different cases with the same cost profile.

Every case is timed twice, in a forward and then a reverse sweep over the
grid, and keeps the smaller time, so that a slow spell of the machine does
not reorder the cases it fell on.  Each op starts with an empty Giambelli
block cache, so a case's cost does not depend on the cases timed before it.
Costs keep two significant digits: they rank cases, they are not results.

    python3 perfbench/calibrate.py --workload verify-box
"""

import argparse
import json
import os
import platform
import time

import workloads


def sweep(sk, workload, cases, order):
    """Milliseconds of one op on each case, timed in the given order."""
    costs = [None] * len(cases)
    for i in order:
        workloads.clear_character_cache()
        t0 = time.perf_counter()
        workload.op(sk, cases[i])
        costs[i] = (time.perf_counter() - t0) * 1000
    return costs


def calibrate(name):
    sk = workloads.import_skewchar()
    workload = workloads.WORKLOADS[name]
    cases = workload.grid()
    workloads.warm(cases)
    forward = sweep(sk, workload, cases, range(len(cases)))
    backward = sweep(sk, workload, cases, reversed(range(len(cases))))
    return {
        "workload": name,
        "grid_size": len(cases),
        "machine": "%s, %d CPUs, Python %s" % (platform.machine(), os.cpu_count(), platform.python_version()),
        "cost_ms": [float("%.2g" % min(a, b)) for a, b in zip(forward, backward)],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    data = calibrate(args.workload)
    workloads.COSTS.mkdir(exist_ok=True)
    path = workloads.COSTS / ("%s.json" % args.workload)
    path.write_text(json.dumps(data) + "\n")
    print("%s: %d cases, %.1f s" % (path, data["grid_size"], sum(data["cost_ms"]) / 1000))


if __name__ == "__main__":
    main()
