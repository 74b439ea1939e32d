"""Run one workload of the sqgt benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

# One thread per process: numpy must not start a BLAS thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
TAIL_PERCENTILE = 99.0  # why p99 on each workload: bench/README.md, Latency
MIN_BEYOND_TAIL = 10  # samples that must lie beyond the tail percentile

# name, module, attribute(s), items counted from the result, traced per item
LAYERS = (
    ("channel.syndrome", "channel", ("syndrome",), None, False),
    ("channel.inject_exhaustive", "channel", ("inject_exhaustive",), None, True),
    ("decoders.decode", "decoders", ("decode",), None, False),
    ("decoders.recover_support", "decoders", ("recover_support",),
     len, False),
    ("decoders.select_witness_coords", "decoders", ("select_witness_coords",), None, False),
    ("sequences.knapsack_solve", "sequences", ("knapsack_solve",),
     lambda subset: subset is not None, False),
    ("sequences.subset_sums", "sequences", ("subset_sums",), None, False),
    ("sequences.check_sequence", "sequences", ("check_sequence",), None, False),
    ("sequences.greedy_generate", "sequences", ("greedy_generate",),
     lambda seq: seq.K, False),
    ("quantization.quantize", "quantization", ("quantize",), None, False),
    ("codebook.verify_sq_separable", "codebook", ("verify_sq_separable",), None, False),
    ("codebook.save_code", "codebook", ("save_code",), None, False),
    ("codebook.load_code", "codebook", ("load_code",), None, False),
    ("codebook.build", "codebook", ("build",), None, False),
    ("disjunct.base", "disjunct",
     ("identity_code", "replicated_identity", "kautz_singleton"), None, False),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import sqgt from this checkout's sources, never an installed copy."""
    package = ROOT / "src" / "sqgt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import sqgt

    if Path(sqgt.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported sqgt from {sqgt.__file__}, not {package}")


def install_tracer(tracing):
    tracer = tracing.Tracer()
    for name, module, attrs, count, per_item in LAYERS:
        mod = importlib.import_module(f"sqgt.{module}")
        for attr in attrs:
            tracer.trace(mod, attr, name, count=count, per_item=per_item)
    return tracer


def nearest_rank(n: int, p: float) -> int:
    return max(1, math.ceil(round(p / 100 * n, 6)))


def percentile(sorted_samples, p: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = nearest_rank(len(sorted_samples), p)
    return sorted_samples[rank - 1], len(sorted_samples) - rank


def run(workload, seconds: float, tracer, clock_ns):
    """Run whole rounds for about `seconds`, with a set-up before the first
    round, one after every round and the rest of SETUP_REPEATS after the
    last, so that the set-up times spread over the run as the rounds do."""
    setup_times = []
    setup_snapshots = []  # tracer totals before and after each set-up

    def set_up():
        before = tracer.snapshot() if tracer else None
        gc.collect()
        t0 = clock_ns()
        workload.setup()
        setup_times.append((clock_ns() - t0) / 1e9)
        if tracer:
            setup_snapshots.append((before, tracer.snapshot()))

    samples = array("q")  # nanoseconds, compact: a campaign round holds 521,506
    round_rates = []  # operations per CPU second of each round
    attempted = failed = rounds = 0
    set_up()
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = clock_ns()
        a, f = workload.run_round(samples)
        round_rates.append(a / ((clock_ns() - t0) / 1e9))
        attempted, failed, rounds = attempted + a, failed + f, rounds + 1
        set_up()
        wall = time.perf_counter() - start
        beyond = len(samples) - nearest_rank(len(samples), TAIL_PERCENTILE)
        # stop before a round that would end past `seconds`
        if beyond >= MIN_BEYOND_TAIL and wall * (rounds + 1) / rounds > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after_all = tracer.snapshot() if tracer else None
    if tracer:
        tracer.uninstall()
    extra_failed, problems = workload.finish()
    return {
        "setup_times": setup_times,
        "samples": samples,
        "attempted": attempted,
        "failed": failed + extra_failed,
        "rounds": rounds,
        "round_rates": round_rates,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "setup_snapshots": setup_snapshots,
        "after_all": after_all,
    }


def end_to_end_metrics(workload, r):
    samples = np.sort(np.frombuffer(r["samples"], dtype=np.int64))
    p50, _ = percentile(samples, 50)
    tail, beyond = percentile(samples, TAIL_PERCENTILE)
    p50, tail = int(p50), int(tail)
    if beyond < MIN_BEYOND_TAIL:
        raise RuntimeError(f"only {beyond} samples beyond the tail percentile")
    return {
        "setup_s": (statistics.median(r["setup_times"]), "s"),
        "ops_per_s": (statistics.median(r["round_rates"]), "1/s"),
        "op_p50_us": (p50 / 1e3, "us"),
        "op_tail_us": (tail / 1e3, "us"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


COUNTED = ("channel.syndrome", "decoders.decode", "sequences.knapsack_solve",
           "sequences.subset_sums", "sequences.check_sequence", "quantization.quantize")
TIMED = ("channel.syndrome", "channel.inject_exhaustive", "decoders.decode",
         "decoders.recover_support", "decoders.select_witness_coords",
         "sequences.knapsack_solve", "sequences.subset_sums", "sequences.check_sequence",
         "sequences.greedy_generate", "codebook.verify_sq_separable", "codebook.save_code",
         "codebook.load_code", "codebook.build", "disjunct.base")


def per_layer_metrics(workloads, workload, r):
    """Counts and self times per set-up plus per round: set-up totals over
    the set-ups, timed-phase totals over the rounds."""
    setups, total = r["setup_snapshots"], r["after_all"]

    def per(name, value):
        s = sum(value(after[name]) - value(before[name]) for before, after in setups)
        return s / len(setups) + (value(total[name]) - s) / r["rounds"]

    def ratio(a, b):
        return a / b if b else 0.0

    calls = {name: per(name, lambda st: st.calls) for name, *_ in LAYERS}
    items = {name: per(name, lambda st: st.items) for name, *_ in LAYERS}
    metrics = {f"{name}.calls": (calls[name], "count") for name in COUNTED}
    metrics.update({
        f"{name}.self_ms": (per(name, lambda st: st.self_ns) / 1e6, "ms") for name in TIMED
    })
    greedy_checks = per(
        "sequences.check_sequence", lambda st: st.parents["sequences.greedy_generate"]
    )
    metrics.update({
        "channel.inject_exhaustive.outcomes": (items["channel.inject_exhaustive"], "count"),
        "decoders.supports_per_decode": (
            ratio(items["decoders.recover_support"], calls["decoders.decode"]), "count"),
        "sequences.knapsack_solve.calls_per_decode": (
            ratio(calls["sequences.knapsack_solve"], calls["decoders.decode"]), "count"),
        "sequences.knapsack_solve.hit_ratio": (
            ratio(items["sequences.knapsack_solve"], calls["sequences.knapsack_solve"]),
            "ratio"),
        "sequences.greedy_generate.checks_per_element": (
            ratio(greedy_checks, items["sequences.greedy_generate"]), "count"),
    })
    hot, rest = workloads.campaign_rates(getattr(workload, "per_code", []))
    metrics["campaign.hot_cases_per_s"] = (hot, "1/s")
    metrics["campaign.rest_cases_per_s"] = (rest, "1/s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = install_tracer(tracing) if args.trace else None
        r = run(workload, args.seconds, tracer, workloads.clock_ns)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.trace:
        metrics = per_layer_metrics(workloads, workload, r)
    else:
        metrics = end_to_end_metrics(workload, r)
    for problem in r["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not r["problems"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
