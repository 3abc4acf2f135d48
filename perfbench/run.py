"""The hoch benchmark: one workload as a closed loop, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process starts each sample only after the previous one
has finished, until the next would end past S seconds.  Every sample is
checked against its workload's oracle; a sample that disagrees, raises or
does not pass counts as failed and its time is left out of the medians.

With --trace 0 the result holds the end-to-end metrics (job_s, setup_s,
peak_rss_mb), with times scaled by a reference loop timed around each
sample (see timed_run).  With --trace 1 it alternates untraced and traced samples
and holds the per-layer metrics.  Either way the last line of standard
output is {"correct", "attempted", "failed", "metrics"}; the lines before
it are a readable report.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import probe
import tracing

PROBES_PER_SAMPLE = 2
REFERENCE_S = 0.08
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def one_sample(workload, state, oracle):
    """(ok, seconds) of one checked sample; an exception counts as not ok."""
    gc.collect()
    start = time.perf_counter()
    try:
        ok = bool(workload.check(workload.sample(state, oracle), oracle))
    except Exception:
        traceback.print_exc()
        ok = False
    return ok, time.perf_counter() - start


def closed_loop(seconds, step):
    """Call step() at least once, and again while a step of typical
    duration still ends within ``seconds``."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        start = time.perf_counter()
        step()
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return


def run_probe(name, seed):
    """Seconds from starting a fresh process to its workload being set up."""
    cmd = [sys.executable, os.path.join(probe.ROOT, "perfbench", "probe.py"),
           name, str(seed)]
    cmd.append(repr(time.monotonic()))
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, cwd=probe.ROOT,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def reference_seconds():
    """Time of a fixed sparse elimination mod p, a gauge of machine speed.

    It does the kind of work hoch's hot loops do (dict rows with int keys,
    fill-in, modular arithmetic), so a busy or idle machine slows or speeds
    it about as much as it does hoch.  It runs no hoch code, so a change to
    hoch cannot move it.
    """
    rng = random.Random(0)
    p = 2_147_483_647
    start = time.perf_counter()
    rows = [{rng.randrange(500): rng.randrange(1, p) for _ in range(3)}
            for _ in range(500)]
    while rows:
        rows.sort(key=len)
        pivot = rows.pop(0)
        col = min(pivot)
        inverse = pow(pivot[col], p - 2, p)
        for row in rows:
            x = row.get(col)
            if x is None:
                continue
            factor = x * inverse % p
            for c, v in pivot.items():
                acc = (row.get(c, 0) - factor * v) % p
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
        rows = [row for row in rows if row]
    return time.perf_counter() - start


def timed_run(name, seed, workload, state, oracle, seconds):
    """End-to-end metrics, scaled to a machine of REFERENCE_S speed.

    Neighbours on a shared machine slow everything by up to a half for
    minutes at a time.  So the reference loop is timed before the first
    sample and after each step, and both medians are multiplied by
    REFERENCE_S over the median reference time.  Set-up probes run inside
    the steps, so that both medians cover the whole run.
    """
    refs = [reference_seconds()]
    wall, setups, failures = [], [], []

    def step():
        ok, took = one_sample(workload, state, oracle)
        failures.append(not ok)
        if ok:
            wall.append(took)
        setups.extend(run_probe(name, seed) for _ in range(PROBES_PER_SAMPLE))
        refs.append(reference_seconds())

    closed_loop(seconds, step)
    scale = REFERENCE_S / statistics.median(refs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = len(failures), sum(failures)
    metrics = {
        "job_s": _metric(
            statistics.median(wall) * scale if wall else None, "s"
        ),
        "setup_s": _metric(statistics.median(setups) * scale, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
    }
    print(f"workload {name}, seed {seed}: closed loop, 1 client, "
          f"{attempted} samples; times scaled to a {REFERENCE_S * 1000:.0f} ms "
          f"reference loop, which took {statistics.median(refs) * 1000:.1f} ms")
    if wall:
        print(f"  job_s        {metrics['job_s']['value']:.4f} s   "
              f"median of {len(wall)} passing samples; unscaled median "
              f"{statistics.median(wall):.4f} s, max {max(wall):.4f} s")
    print(f"  setup_s      {metrics['setup_s']['value']:.4f} s   "
          f"median of {len(setups)} fresh processes")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MiB  peak of the sampling process")
    print(f"  failed_ratio {failed / attempted:.4f} 1   "
          f"{failed} of {attempted} samples failed")
    return attempted, failed, metrics


def traced_run(name, seed, workload, state, oracle, seconds):
    explained = workload.explain(state) if workload.explain else None
    tracer = tracing.Tracer()
    plain, traced, per_sample, unaccounted, failures = [], [], [], [], []
    detail = {}

    def step():
        ok, plain_s = one_sample(workload, state, oracle)
        failures.append(not ok)
        if ok:
            plain.append(plain_s)
        with tracer:
            ok, traced_s = one_sample(workload, state, oracle)
        failures.append(not ok)
        if ok:
            traced.append(traced_s)
            per_sample.append(tracing.layer_metrics(tracer))
            unaccounted.append(traced_s - tracer.self_total())
            detail["blocks"] = tracing.block_table(tracer)
            detail["levels"] = tracing.measured_level_dims(tracer)
        tracer.reset()  # drops the kept arguments and results

    closed_loop(seconds, step)
    attempted, failed = len(failures), sum(failures)
    metrics = {}
    for metric, unit in tracing.PER_LAYER_UNITS.items():
        values = [m[metric] for m in per_sample if m[metric] is not None]
        if values:
            metrics[metric] = _metric(statistics.median(values), unit)
    if traced and plain:
        job_s = statistics.median(traced)
        overhead_s = job_s - statistics.median(plain)
        metrics["trace.job_s"] = _metric(job_s, "s")
        metrics["trace.overhead_s"] = _metric(overhead_s, "s")
        metrics["trace.unaccounted_s"] = _metric(
            statistics.median(unaccounted), "s"
        )
    print(f"workload {name}, seed {seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passing samples, alternating")
    for metric in tracing.PER_LAYER_UNITS:
        if metric not in metrics:
            print(f"  {metric:28s} absent (traced function not found)")
    for metric, m in metrics.items():
        print(f"  {metric:28s} {m['value']:>14.6g} {m['unit']}")
    if "trace.job_s" in metrics:
        job_s = metrics["trace.job_s"]["value"]
        gap = metrics["trace.unaccounted_s"]["value"]
        allowed = max(abs(metrics["trace.overhead_s"]["value"]), 0.01 * job_s)
        verdict = "ok" if abs(gap) <= allowed else "MISMATCH"
        print(f"  self-time accounting: layer self times leave {gap:.6f} s of "
              f"the traced job_s unaccounted, allowed {allowed:.6f} s: {verdict}")
    print(f"  explain level dims:  {explained}")
    print(f"  measured level dims: {detail.get('levels')}")
    print("  blocks (kind degree weight rows cols nnz rank seconds calls):")
    for row in detail.get("blocks", []):
        print(f"    {row['kind']:11s} {row['degree']} {row['weight']} "
              f"{row['rows']} {row['cols']} {row['nnz']} {row['rank']} "
              f"{row['seconds']:.6f} {row['calls']}")
    print(f"  failed_ratio {failed / attempted:.4f} 1   "
          f"{failed} of {attempted} samples failed")
    return attempted, failed, metrics


def main(argv=None):
    args = parse_args(argv)
    try:
        workloads = probe.load_workloads()
    except ImportError as exc:
        print(f"perfbench: cannot load hoch: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    raw = workload.spec(args.seed)
    state = workload.setup(raw)
    oracle = workload.oracle(raw, state)
    run = traced_run if args.trace else timed_run
    attempted, failed, metrics = run(
        args.workload, args.seed, workload, state, oracle, args.seconds
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
