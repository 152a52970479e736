"""Whole CLI processes, timed on a parent tree against a change tree.

    python3 scripts/process_wall.py PARENT CHANGE --runs 11 [--compile] \\
        --out BENCH_N.json [--key process_wall]

PARENT and CHANGE are each a git revision of this repository or a directory
holding a checkout, exported once as scripts/ab_pairs.py exports a side.  Each
argv of ARGVS runs `python3 -m denumerant ARGV` in a fresh process, with
PYTHONPATH=src and PYTHONDONTWRITEBYTECODE=1, --runs times a side; the sides
alternate, the parent first in run 0.  Each child is started and waited for
by a bare launcher interpreter (LAUNCHER), which times it and reads its max
RSS (`os.wait4`): Linux carries the peak RSS of the process that forks a
child across its exec, and the launcher's is below any CLI process's, where
this script's or a test runner's need not be.  Per argv, each side's
runs are summarised by ab_pairs' `summarize` (median, inclusive quartiles,
the runs the change wins), with each side's exit codes and whether both sides
printed the same stdout.  With --compile each export's package is compiled to
bytecode before the first run, and without it no package bytecode is written;
the result states which, as `package_bytecode`, from the .pyc files found.

The series is stored in the --out file (made if missing) at [key], next to
what the file holds already.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_pairs import SIDES, export, summarize  # noqa: E402

# The README's command-line examples, one argv the CLI refuses (exit 3), a
# large bb table and a verify sweep.
ARGVS = (
    "count --parts 2,3,5 --n 100",
    "count --parts 3,5,7,11,13,17,19,23 --n 1000000000 --method waves",
    "count --parts 2,3,5 --n 100 --method closed-form --output json",
    "theorem2 --parts 3,5,7 --x 4",
    "theorem3 --parts 3,5,7 --x 15",
    "bb --parts 2,3,5 --max-index 2",
    "bernoulli --max-index 6",
    "verify --trials 500 --seed 0",
    "verify --trials 200 --seed 0 --k-min 5 --k-max 5",
    "theorem2 --parts 2,3,5 --x 9",
    "theorem3 --parts 2,3,5 --x 10",
    "count --parts 2,3 --n 100000000 --method oracle",
    "bb --parts 2,3,5,7 --max-index 300",
    "verify --trials 200",
)


# argv: the child's.  Its stdout is the child's, its stderr goes to /dev/null,
# and the launcher's stderr is one line: wall seconds, max RSS in KiB, exit code.
LAUNCHER = """import os, sys, time
started = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - started
print(wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status), file=sys.stderr)
"""


class Run(NamedTuple):
    wall_s: float
    max_rss_mb: float
    exit_code: int
    stdout: bytes


def run_once(checkout: Path, argv: str) -> Run:
    """One fresh process of argv."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    launched = subprocess.run(
        [sys.executable, "-c", LAUNCHER, "-m", "denumerant", *argv.split()],
        cwd=checkout, env=env, capture_output=True, check=True,
    )
    wall, rss, code = launched.stderr.split()
    return Run(float(wall), int(rss) / 1024, int(code), launched.stdout)


def run_series(dirs: Dict[str, Path], argvs: Sequence[str], runs: int) -> List[dict]:
    """runs alternating runs of each argv a side, summarised per argv."""
    rows = []
    for argv in argvs:
        seen: Dict[str, List[Run]] = {side: [] for side in SIDES}
        for i in range(runs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                seen[side].append(run_once(dirs[side], argv))
        parent, change = (seen[side] for side in SIDES)
        rows.append({
            "argv": argv,
            "exit_codes": {side: sorted({run.exit_code for run in seen[side]}) for side in SIDES},
            "same_stdout": len({run.stdout for run in parent + change}) == 1,
            **{metric: summarize([getattr(run, metric) for run in parent],
                                 [getattr(run, metric) for run in change], "lower")
               for metric in ("wall_s", "max_rss_mb")},
        })
        print(f"{argv}: wall medians {rows[-1]['wall_s']['parent']['median']} ->"
              f" {rows[-1]['wall_s']['change']['median']} s", file=sys.stderr)
    return rows


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision or checkout directory")
    parser.add_argument("change", help="git revision or checkout directory")
    parser.add_argument("--runs", type=int, default=11)
    parser.add_argument("--compile", action="store_true",
                        help="compile each export's package to bytecode first")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to store the series in")
    parser.add_argument("--key", default="process_wall", help="the series' key in --out")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    with tempfile.TemporaryDirectory(prefix="process_wall_") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        specs = {"parent": args.parent, "change": args.change}
        labels = {side: export(specs[side], dirs[side]) for side in SIDES}
        if args.compile:
            for side in SIDES:
                compileall.compile_dir(dirs[side] / "src", quiet=1)
        rows = run_series(dirs, ARGVS, args.runs)
        bytecode = {side: any((dirs[side] / "src").rglob("*.pyc")) for side in SIDES}
    series = {"sides": labels, "runs": args.runs, "package_bytecode": bytecode,
              "python": sys.version.split()[0], "rows": rows}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.key] = series
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
