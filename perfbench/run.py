"""The denumerant benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload count-huge-n --seed 0 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository; the package is taken
from the checkout's ``src`` directory, so nothing needs installing.

Each pass starts a fresh interpreter (perfbench/worker.py), so module caches
start empty as they do for a CLI process.  One closed-loop client drives the
program: one process, one thread, the next op sent only when the previous one
returned.  An op is one ``denumerant.cli.run(argv)`` call.  A run is a fixed,
seeded amount of work, ``--seconds`` times the workload's nominal rate on the
reference machine (2 vCPU, Python 3.11), split over the passes.

With ``--trace 0`` the run reports the end-to-end metrics: the median set-up
time over several fresh interpreters, and the timed phase with each op at its
faster pass.  With ``--trace 1`` it runs the ops once untraced and once traced,
and reports per-layer self times and work counters, plus the tracing overhead.
Times are scaled to the reference host speed (see hostspeed.py); the context
line keeps the raw ones.

Before the final line the command prints the run's context as one JSON object
and a table of every metric; the final line is the result object.  The exit
code is 0 only when every op succeeded and every output checked out, 1 when an
output was wrong, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
from spans import LAYERS, SUBLAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
# The timed phase runs this many times, each in a fresh interpreter, and each
# op counts at its fastest pass: a stall of the host that hits one op in one
# pass does not reach the metrics.
PASSES = 2
# Fresh interpreters whose set-up is timed in an untraced run (the passes
# plus set-up-only probes); the median is reported.
SETUP_RUNS = 5
# latency_tail_ms needs ten samples beyond it; twenty ops leave a p50 tail at
# worst, and real runs have far more.
MIN_OPS = 20
# Every process this command starts is waited for within this many seconds.
DEADLINE_S = 170
# stdout digests of the default seed's runs, by workload and op count.
DIGESTS_FILE = BENCH / "digests.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{sub}.self_s": "s" for sub in SUBLAYERS},
    "series.inv_calls": "count",
    "series.mul_calls": "count",
    "series.exp_calls": "count",
    "bernoulli.bb_calls": "count",
    "bernoulli.bb_cache_hits": "count",
    "bernoulli.bb_cache_misses": "count",
    "bernoulli.numbers_calls": "count",
    "oracle.calls": "count",
    "oracle.table_builds": "count",
    "oracle.table_entries_built": "count",
    "oracle.cached_sets": "count",
    "oracle.cached_entries": "count",
    "partset.constructions": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def op_count(workload: str, seconds: int) -> int:
    """Ops per pass, so that all passes together take about `seconds`."""
    return max(MIN_OPS, round(seconds * WORKLOADS[workload].rate / PASSES))


def spawn(deadline: float, *args: str) -> dict:
    """Run one worker to completion and return its result with its set-up time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    calibrator = hostspeed.Calibrator()
    calibrator.sample(3)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # Set-up spans two processes; the kernel is timed just before and just
    # after it, and the median of those six samples scales it.
    kernel_s = statistics.median(calibrator.durations + result["setup_kernel_s"])
    result["setup_raw_s"] = result["first_op"] - launched
    result["setup_s"] = result["setup_raw_s"] * hostspeed.REFERENCE_S / kernel_s
    return result


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def normalised(result: dict) -> list:
    """The op latencies of a worker, scaled to the reference host speed."""
    return [t * k for t, k in zip(result["latencies_s"], result["scales"])]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    n_ops = op_count(workload, seconds)
    common = ["--workload", workload, "--seed", str(seed), "--ops", str(n_ops)]
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": n_ops,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "client": "closed loop, 1 process, 1 thread",
        "reference_kernel_s": hostspeed.REFERENCE_S,
    }
    if trace:
        spans_dir = ROOT / ".bench_build" / "perfbench"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"spans-{workload}-seed{seed}.tsv"
        plain = spawn(deadline, *common, "--trace", "0")
        traced = spawn(deadline, *common, "--trace", "1", "--spans", str(spans_path))
        runs = [plain, traced]
        context["spans_file"] = str(spans_path.relative_to(ROOT))
        context["absent"] = traced["absent"]
        metrics = dict(traced["layers"])
        metrics["cli.output_bytes"] = traced["output_bytes"]
        metrics["trace.overhead_s"] = sum(normalised(traced)) - sum(normalised(plain))
        layer_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        context["self_time_shares"] = {
            layer: round(metrics[f"{layer}.self_s"] / layer_total, 4) for layer in LAYERS
        }
        units = PER_LAYER_UNITS
    else:
        runs = [spawn(deadline, *common) for _ in range(PASSES)]
        probes = [spawn(deadline, *common, "--setup-only") for _ in range(SETUP_RUNS - PASSES)]
        latencies = [min(times) for times in zip(*map(normalised, runs))]
        tail_s, percentile = tail(latencies)
        wall = sum(latencies)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in probes + runs),
            "wall_s": wall,
            "ops_per_s": runs[0]["units"] / wall,
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * tail_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        context["raw"] = {
            "setup_s": statistics.median(r["setup_raw_s"] for r in probes + runs),
            "wall_s": [sum(r["latencies_s"]) for r in runs],
            "timed_phase_s": [r["wall_s"] for r in runs],
        }
        context["host_speed"] = [hostspeed.REFERENCE_S / r["kernel_s"] for r in runs]
        context["latency_samples"] = len(latencies)
        context["latency_tail_percentile"] = round(percentile, 2)
        context["ops_per_s_counts"] = "trials" if workload == "verify-sweep" else "ops"
        units = END_TO_END_UNITS

    attempted = sum(len(r["latencies_s"]) for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    context["failure_reasons"] = [reason for r in runs for reason in r["reasons"]]
    first = runs[0]
    context["package"] = str(Path(first["package"]).resolve().parent.relative_to(ROOT))
    digest = first["digest"]
    expected = None
    if seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS_FILE.read_text()).get(workload, {}).get(str(n_ops))
    context["stdout_digest"] = digest
    if any(r["digest"] != digest for r in runs):
        context["digest_check"] = "stdout differs between passes"
        failed = attempted
    elif expected is None:
        context["digest_check"] = "none recorded for this seed and op count"
    elif expected != digest:
        # Which op diverged is unknown, so every op counts as failed.
        context["digest_check"] = f"mismatch: recorded {expected}"
        failed = attempted
    else:
        context["digest_check"] = "match"
    context["failed_op_share"] = failed / attempted
    return {
        "context": context,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "denumerant" / "cli.py").is_file():
        print(f"error: no denumerant package under {SRC}", file=sys.stderr)
        return 2
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report["result"]
    print(json.dumps({"context": report["context"]}))
    for name, metric in result["metrics"].items():
        print(f"{name:32} {metric['value']!s:>24} {metric['unit']}")
    print(f"{'failed_op_share':32} {report['context']['failed_op_share']!s:>24} share")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
