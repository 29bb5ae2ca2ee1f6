"""Benchmark of the tsfo toolkit: one command, three closed-loop workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload single-t1 --seed 1 --seconds 25 --trace 0

It imports ``tsfo`` from the checkout's ``src/``, pins BLAS to one thread,
generates its inputs from ``--seed``, sets the program up several times,
then sends requests in shuffled rounds (one to each variant) for
``--seconds`` seconds, one in flight at a time, and checks every output.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A fuller record
(environment, sample counts, per-variant errors) and, for traced runs, the
spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from environment import PIN_VARS  # noqa: E402  (imports nothing numeric)

# BLAS reads these once, when numpy loads it.
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import HostSampler  # noqa: E402

# Set-up is repeated at least this often and for at least this long, and
# the median is reported: a single set-up can take under a millisecond.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
OUT_DIR = os.path.join(HERE, "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("single-t1", "batch-t2", "study-t1"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import tsfo from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tsfo", "__init__.py")):
        raise SystemExit(f"error: no tsfo sources under {src}; run from a full checkout")
    sys.path.insert(0, src)
    import tsfo

    if os.path.dirname(os.path.abspath(tsfo.__file__)) != os.path.join(src, "tsfo"):
        raise SystemExit(f"error: imported tsfo from {tsfo.__file__}, not from {src}")


def schedule(seed: int, workload, variants):
    """Shuffled rounds: each round sends one request to every variant."""
    rng = np.random.default_rng([seed, 1])
    while True:
        for k in rng.permutation(len(variants)):
            yield variants[k], workload.pick(rng)


def closed_loop(workload, served, variants, seed, seconds, tracer=None):
    """Send requests one at a time until ``seconds`` pass, at a round boundary."""
    samples = {v: [] for v in variants}
    raw = {v: [] for v in variants}
    instances = {v: 0 for v in variants}
    in_order = []
    attempted = failed = 0

    def traced(name, fn):
        if tracer is None:
            return fn()
        with tracer.span(name):
            return fn()

    with HostSampler() as host:
        deadline = time.perf_counter() + seconds
        for op_id, (variant, i) in enumerate(schedule(seed, workload, variants)):
            if op_id % len(variants) == 0 and time.perf_counter() >= deadline:
                break
            attempted += 1
            if tracer is not None:
                tracer.current_op = op_id
            try:
                (out, n), busy, scaled = host.timed(
                    lambda: traced(f"op.{variant}", lambda: workload.request(served, variant, i))
                )
                ok = traced("oracle", lambda: workload.check(variant, i, out))
            except Exception:  # a failed request is counted, and the loop goes on
                failed += 1
                if failed <= 3:
                    traceback.print_exc(file=sys.stderr)
                continue
            samples[variant].append(scaled)
            raw[variant].append(busy)
            instances[variant] += n
            in_order.append(scaled)
            if not ok:
                failed += 1
                if failed <= 3:
                    print(f"request {op_id} to {variant} missed the reference", file=sys.stderr)
    return {
        "samples": samples,
        "raw": raw,
        "instances": instances,
        "in_order": in_order,
        "host_speed": host.ratios,
        "attempted": attempted,
        "failed": failed,
    }


def end_to_end(loop, setup_times, variants) -> tuple[dict, dict]:
    metrics, counts = {}, {}
    for v in variants:
        lat = np.asarray(loop["samples"][v])
        counts[v] = len(lat)
        if len(lat) == 0:
            continue
        metrics[f"{v}_p50_ms"] = (float(np.percentile(lat, 50)) * 1e3, "ms")
        metrics[f"{v}_p90_ms"] = (float(np.percentile(lat, 90)) * 1e3, "ms")
        metrics[f"{v}_ips"] = (loop["instances"][v] / float(lat.sum()), "1/s")
    metrics["setup_s"] = (float(np.median(setup_times)), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    counts["setup_s"] = len(setup_times)
    return metrics, counts


def raw_summary(loop, variants) -> dict:
    """Unscaled p50/p90 in ms and the host speed seen, for the run record."""
    out = {}
    for v in variants:
        lat = np.asarray(loop["raw"][v]) * 1e3
        if len(lat):
            out[v] = {"p50_ms": float(np.percentile(lat, 50)), "p90_ms": float(np.percentile(lat, 90))}
    speed = np.asarray(loop["host_speed"])
    if len(speed):
        out["host_speed"] = {q: float(np.percentile(speed, p)) for q, p in (("p10", 10), ("p50", 50), ("p90", 90))}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import environment
    import layers
    import workloads
    from spans import Tracer

    env = environment.describe(ROOT, args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload]()
    variants = workloads.VARIANTS
    workload.make_inputs(args.seed)
    tmp_dir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        setup_times, raw_setup = [], []
        if tracer is None:
            with HostSampler() as host:
                start = time.perf_counter()
                while len(setup_times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_SECONDS:
                    served, busy, scaled = host.timed(lambda: workload.setup(args.seed, tmp_dir))
                    raw_setup.append(busy)
                    setup_times.append(scaled)
        else:
            tracer.install()
            try:
                with tracer.span("setup"):
                    t0 = time.perf_counter()
                    served = workload.setup(args.seed, tmp_dir)
                    raw_setup.append(time.perf_counter() - t0)
                    setup_times.append(raw_setup[-1])
            finally:
                tracer.uninstall()
        workload.prepare_oracle(served)
        gc.collect()

        if tracer is None:
            loop = closed_loop(workload, served, variants, args.seed, args.seconds)
            traced = None
        else:
            # the same request sequence, untraced then traced, gives the overhead
            loop = closed_loop(workload, served, variants, args.seed, args.seconds / 2)
            gc.collect()
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced = closed_loop(workload, served, variants, args.seed, args.seconds / 2, tracer)
                traced["wall_s"] = time.perf_counter() - t0
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    final = workload.final_checks()
    attempted = loop["attempted"] + (traced["attempted"] if traced else 0)
    failed = loop["failed"] + (traced["failed"] if traced else 0)
    correct = failed == 0 and all(c["ok"] for c in final.values())

    record = {
        "environment": env,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted if attempted else None,
        "oracle": final,
        "setup_runs_s": setup_times,
        "setup_runs_raw_s": raw_setup,
        "raw": raw_summary(loop, variants),
    }
    if tracer is None:
        values, counts = end_to_end(loop, setup_times, variants)
        record["sample_counts"] = counts
    else:
        values, summary = layers.per_layer(tracer, loop, traced)
        record["trace_summary"] = summary
        if not summary["coverage_ok"]:
            correct = False
            print(f"trace coverage {summary['coverage_pct']:.1f}% is too low", file=sys.stderr)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    record["correct"] = correct

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if tracer is not None:
        tracer.save(stem + "-spans")

    print(json.dumps({"environment": env}, sort_keys=True))
    counts = record.get("sample_counts", {})
    for name, (value, unit) in values.items():
        count = counts.get(name) or counts.get(name.split("_")[0])
        suffix = f"  (n={count})" if count else ""
        print(f"{name:48s} {value:14.6g} {unit}{suffix}")
    print(f"fail_rate {record['fail_rate']} ({failed} failed of {attempted} attempted)")
    for variant, c in final.items():
        print(f"oracle {variant}: median rel error {c['median_rel_error']:.3g}, max {c['max_rel_error']:.3g}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
