"""Alternating A/B pairs of perfbench runs: a parent side against a change side.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload count-cold-product \\
        --seed 0 --pairs 10 [--trace 0] --out BENCH_N.json [--key seed_0]

PARENT and CHANGE are each a git revision of this repository or a directory
holding a checkout.  Each is exported once into a fresh temporary directory
(`git archive` for a revision, a copy for a directory), with no
`__pycache__`.  A pair runs `python3 perfbench/run.py --workload W --seed S
--trace R` unchanged in both exports, so the benchmark sets its own run
length, with PYTHONDONTWRITEBYTECODE=1; the side that runs first alternates,
the parent first in pair 0.  A series has at least two pairs.  Every metric in a run's result line is summarised by
`summarize`: its runs on each side, their median and inclusive quartiles, and
`change_wins`, the pairs where the change's value is the better one by
BENCHMARK.json's `better`.  Ties count for neither side.  `gain` is the
verdict of the rule for claiming a gain: the change wins at least nine tenths
of the pairs, and its median is better than the parent's by more than the
parent's quartile spread, q3 - q1.

The series is stored in the --out file (made if missing) at [key][workload],
next to what the file holds already.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def summarize(parent_runs: Sequence[float], change_runs: Sequence[float], better: str) -> dict:
    """Median and inclusive quartiles per side, the pairs the change wins, and
    whether that is a gain.

    Pair i is (parent_runs[i], change_runs[i]).  The change wins a pair when
    its value is lower (better = "lower") or higher (better = "higher");
    equal values count for neither side.  It gains when it wins at least
    nine tenths of the pairs and its median is better than the parent's by
    more than q3 - q1 of the parent's runs.
    """
    if len(parent_runs) != len(change_runs) or len(parent_runs) < 2:
        raise ValueError("need one parent run and one change run per pair, and two pairs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent_runs, change_runs))

    def spread(runs: Sequence[float]) -> dict:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}

    parent, change = spread(parent_runs), spread(change_runs)
    lead = sign * (parent["median"] - change["median"])
    return {
        "parent": parent,
        "change": change,
        "change_wins": f"{wins}/{len(parent_runs)}",
        "gain": 10 * wins >= 9 * len(parent_runs) and lead > parent["q3"] - parent["q1"],
        "parent_runs": list(parent_runs),
        "change_runs": list(change_runs),
    }


def export(side: str, into: Path) -> str:
    """Put a checkout of side (a directory or a git revision) at into; return its label."""
    if Path(side).is_dir():
        skip = shutil.ignore_patterns("__pycache__", ".git", ".hypothesis", ".pytest_cache")
        shutil.copytree(side, into, ignore=skip)
        return side
    rev = subprocess.run(
        ["git", "rev-parse", "--short", side], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return rev


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its result line with each metric's bare value, plus the
    digest verdict of its context line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
    )
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode == 2 or len(lines) < 2:
        raise RuntimeError(f"perfbench could not run in {checkout}:\n{proc.stderr}")
    context, result = json.loads(lines[0])["context"], json.loads(lines[-1])
    result["metrics"] = {name: metric["value"] for name, metric in result["metrics"].items()}
    result["digest_check"] = context.get("digest_check")
    return result


def run_pairs(dirs: Dict[str, Path], workload: str, seed: int, pairs: int, trace: int) -> dict:
    """pairs alternating pairs; the parent runs first in even pairs."""
    runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
    first_side = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first_side.append(order[0])
        for side in order:
            runs[side].append(run_once(dirs[side], workload, seed, trace))
            print(f"pair {i} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
    declared = json.loads((dirs["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    every = runs["parent"] + runs["change"]
    metrics = {
        name: summarize(
            [r["metrics"][name] for r in runs["parent"]],
            [r["metrics"][name] for r in runs["change"]],
            better[name],
        )
        for name in runs["parent"][0]["metrics"]
    }
    return {
        "pairs": pairs,
        "first_side": first_side,
        "failed_ops": sorted({r["failed"] for r in every}),
        "attempted_ops": sorted({r["attempted"] for r in every}),
        "digest_check": sorted({str(r["digest_check"]) for r in every}),
        "metrics": metrics,
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision or checkout directory")
    parser.add_argument("change", help="git revision or checkout directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to store the series in")
    parser.add_argument("--key", default="series", help="the series' key in --out")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        specs = {"parent": args.parent, "change": args.change}
        labels = {side: export(specs[side], dirs[side]) for side in SIDES}
        series = run_pairs(dirs, args.workload, args.seed, args.pairs, args.trace)
    series = {"sides": labels, "seed": args.seed, "trace": args.trace, **series}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault(args.key, {})[args.workload] = series
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
