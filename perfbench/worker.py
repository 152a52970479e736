"""One workload run in a fresh interpreter: set-up, a timed closed loop, checks.

run.py starts this file with the package's ``src`` directory on PYTHONPATH:

    python3 perfbench/worker.py --workload count-huge-n --seed 0 --ops 5000 --trace 0

Set-up is everything before the first timed op: importing the package,
generating the argv list from the seed and any warm-up the workload needs.
The timed phase then sends the ops one at a time through
``denumerant.cli.run(argv)`` with stdout and stderr captured, the next op only
after the previous one returned.  Between ops, outside their timings, the
host-speed kernel is sampled (see hostspeed.py).  Checks run after the timed
phase.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from array import array


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop at the first op")
    parser.add_argument("--spans", help="file to write the spans of a traced run to")
    args = parser.parse_args()

    from hostspeed import Calibrator
    from workloads import WORKLOADS

    import denumerant.cli

    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed, args.ops)
    workload.warm(ops)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run = denumerant.cli.run
    # The argv lists and everything else set-up made would otherwise be
    # traversed by every full collection during the timed phase, a cost a
    # CLI process does not have.
    gc.collect()
    gc.freeze()
    first_op = time.monotonic()
    calibrator = Calibrator()
    calibrator.sample(3)
    if args.setup_only:
        print(json.dumps({"first_op": first_op, "setup_kernel_s": calibrator.durations}))
        return 0

    starts = array("d", bytes(8 * len(ops)))
    ends = array("d", bytes(8 * len(ops)))
    outputs = [""] * len(ops)
    problems = {}
    started = time.perf_counter()
    for i, argv in enumerate(ops):
        if calibrator.due():
            calibrator.sample()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            starts[i] = time.perf_counter()
            try:
                code = run(argv)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                code = repr(exc)
            ends[i] = time.perf_counter()
        outputs[i] = out.getvalue()
        if code != 0:
            problems[i] = f"exit {code}: {err.getvalue()[-200:]}"
    calibrator.sample()
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = tracer.metrics(calibrator.overall()) if tracer is not None else None
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    for i, reason in workload.check(ops, outputs):
        problems.setdefault(i, reason)
    digest = hashlib.sha256()
    for text in outputs:
        digest.update(text.encode())

    print(
        json.dumps(
            {
                "first_op": first_op,
                "setup_kernel_s": calibrator.durations[:3],
                "wall_s": wall,
                "latencies_s": [end - start for start, end in zip(starts, ends)],
                "scales": calibrator.scales(zip(starts, ends)),
                "kernel_s": statistics.median(calibrator.durations),
                "units": sum(workload.units(argv) for argv in ops),
                "failed": sorted(problems),
                "reasons": [f"op {i} {ops[i][:2]}: {problems[i]}" for i in sorted(problems)[:5]],
                "peak_rss_mb": peak_rss_mb,
                "output_bytes": sum(len(text.encode()) for text in outputs),
                "digest": digest.hexdigest(),
                "layers": layers,
                "absent": tracer.absent if tracer is not None else [],
                "python": sys.version.split()[0],
                "package": denumerant.cli.__file__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
