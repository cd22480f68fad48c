"""The skewchar benchmark.

    python3 perfbench/run.py --workload verify-box --seed 1 --seconds 15 --trace 0

One process, one op in flight (a closed loop with a single client).  The
run does its set-up, then runs the ops of the seeded plan (see
workloads.plan; at least 100 ops, so that ten lie beyond p90) in rounds:
every round runs every op once, and rounds go on until at least MIN_ROUNDS
rounds and --seconds of op time are done.  Every time is scaled to the
reference speed of the host (see hostspeed.py), and an op's latency is the
fastest of its rounds.  Every run of every op is checked.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one round in which
each op runs untraced and traced back to back, prints the per-layer metrics
(counts from the traced runs; trace.overhead_s from the pairs) and writes
every span to perfbench/out/.  The last line
of standard output is one JSON object; the exit code is 1 if any op failed
and 2 if the checkout cannot be benchmarked.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
import tracing
import workloads

MIN_ROUNDS = 2  # an op's time is the fastest of at least this many
PROBES = 9  # fresh-process set-ups per run; setup_s is their median

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def probe_setup(name, seed):
    """Seconds from starting a fresh interpreter until its first op is ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(workloads.HERE / "probe.py"), name, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        raise workloads.BenchSetupError("set-up probe failed with exit code %d" % rc)
    return elapsed


class Tally:
    """What a run did: op counts and, per planned op, its fastest time."""

    def __init__(self, size):
        self.best = [None] * size  # seconds, passed runs of the op only
        self.attempted = 0
        self.failed = 0
        self.rounds = 0


def timed_op(sk, workload, case, tally, tracer=None, index=0):
    """Run one op with an empty Giambelli block cache and check its output;
    return (perf_counter() at its start, its time in seconds), or None if it
    failed."""
    workloads.clear_character_cache()
    if tracer is not None:
        tracer.begin_op(index)
    t0 = time.perf_counter()
    try:
        result, error = workload.op(sk, case), None
    except Exception as exc:
        result, error = None, exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    try:
        ok = error is None and workload.check(sk, case, result)
    except Exception as exc:
        ok, error = False, exc
    tally.attempted += 1
    if ok:
        return t0, dt
    tally.failed += 1
    if tally.failed <= 5:
        sys.stderr.write("FAIL %s %r\n" % (workload.name, case))
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
    return None


def run_rounds(sk, workload, ops, seconds, min_rounds, speed):
    """Run every op of the plan once per round, in plan order, until
    `min_rounds` rounds and `seconds` of scaled op time are done; a run
    stops only at the end of a round, so every round covers every cost
    stratum.  Each op keeps its fastest scaled time, so a slow spell of the
    host has to cover the same op in every round to show."""
    tally = Tally(len(ops))
    runs = [[] for _ in ops]  # (start, seconds) of each passed run of each op
    scaled = 0.0
    while tally.rounds < min_rounds or scaled < seconds:
        round_s = 0.0
        for i, case in enumerate(ops):
            timing = timed_op(sk, workload, case, tally)
            if timing is not None:
                runs[i].append(timing)
                round_s += timing[1]
            speed.tick()
        scaled += round_s * speed.current()
        tally.rounds += 1
    speed.sample()
    tally.best = [min((dt * speed.scale(t + dt / 2) for t, dt in r), default=None) for r in runs]
    return tally


def run_traced(sk, workload, ops, tracer):
    """One round in which every op runs twice back to back, once untraced
    and once traced (alternating which goes first).  Return the tally and
    the tracing overhead in seconds.  The pairs of ops that passed both runs
    are sorted by untraced time and cut into ten bands; each band adds its
    untraced time times its median of traced / untraced - 1.  The medians
    keep one slow run of a long op from swamping the wrappers' cost (a few
    microseconds per traced call), and the bands keep the relative cost on
    cheap ops, which make more traced calls per second, from being applied
    to the long ones."""
    tally = Tally(len(ops))
    pairs = []  # (untraced, traced) seconds
    for i, case in enumerate(ops):
        times = {}
        for traced in (i % 2 == 1, i % 2 == 0):
            times[traced] = timed_op(sk, workload, case, tally, tracer if traced else None, i)
        if None not in times.values():
            pairs.append((times[False][1], times[True][1]))
    tally.rounds = 1
    pairs.sort()
    bands = [pairs[k * len(pairs) // 10:(k + 1) * len(pairs) // 10] for k in range(10)]
    overhead = sum(
        sum(u for u, _ in band) * statistics.median(t / u - 1 for u, t in band) for band in bands if band
    )
    return tally, overhead


def quantile(values, p, steps=32):
    """The Harrell-Davis estimate of quantile p: a weighted mean of all the
    sorted values, with Beta(p(n+1), (1-p)(n+1)) weights.  It spreads each
    estimate over the ops near rank pn instead of the one or two at it, so
    one op's noise moves it much less."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):  # Beta density integrated over [i/n, (i+1)/n], midpoint rule
        points = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log(1 - x) - log_norm) for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(tally, setup_s):
    lat_ms = [x * 1000 for x in tally.best if x is not None]
    if not lat_ms:  # every op failed: still print a result, marked incorrect
        lat_ms = [1.0]
    return {
        "ops_per_s": 1000 * len(lat_ms) / sum(lat_ms),
        "op_p50_ms": quantile(lat_ms, 0.5),
        "op_p90_ms": quantile(lat_ms, 0.9),
        "ok_ratio": 1 - tally.failed / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(name, seed, seconds, trace, strata=None, probes=PROBES, min_rounds=MIN_ROUNDS):
    """Run one benchmark run; return (result object, summary, trace dump)."""
    sk, workload, cases, ops = workloads.setup(name, seed, strata)
    summary = {"workload": name, "seed": seed, "grid_cases": len(cases), "ops_per_round": len(ops)}
    dump = None
    if trace:  # unscaled: per-layer times have no bound, and the pairs share the host's speed
        workloads.reset_caches(cases)
        tracer = tracing.Tracer(tracing.skewchar_modules())
        tally, overhead_s = run_traced(sk, workload, ops, tracer)
        values = tracer.metrics(overhead_s)
        units = tracing.PER_LAYER
        dump = dict(summary, **tracer.dump())
        if tracer.missing:
            sys.stderr.write("trace targets not found: %s\n" % ", ".join(tracer.missing))
    else:
        speed = hostspeed.HostSpeed()
        tally = run_rounds(sk, workload, ops, seconds, min_rounds, speed)
        setups = []
        for _ in range(probes):
            t0 = time.perf_counter()
            elapsed = probe_setup(name, seed)
            speed.sample()
            setups.append(elapsed * speed.scale(t0 + elapsed / 2))
        values = end_to_end(tally, statistics.median(setups))
        units = END_TO_END
        summary["host_scale"] = round(speed.typical(), 3)
    summary.update(rounds=tally.rounds, attempted=tally.attempted, failed=tally.failed)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, summary, dump


def main(argv=None):
    parser = argparse.ArgumentParser(description="skewchar benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, summary, dump = measure(args.workload, args.seed, args.seconds, args.trace)
    except workloads.BenchSetupError as exc:
        sys.stderr.write("benchmark set-up failed: %s\n" % exc)
        return 2
    if dump is not None:
        out = workloads.HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps(dump))
        summary["trace_file"] = str(path.relative_to(workloads.ROOT))
    print(" ".join("%s=%s" % kv for kv in summary.items()))
    for name, m in result["metrics"].items():
        print("%-32s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
