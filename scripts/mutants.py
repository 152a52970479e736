"""A checked-in panel of mutants, each run against verify and against tier-1.

    python3 scripts/mutants.py TREE [--key parent] [--out MUTANTS.json]

TREE is a git revision of this repository or a directory holding a checkout,
exported once as scripts/ab_pairs.py exports a side.  The unmutated export is
run first and must pass both checks.  Then each row of PANEL is applied in a
fresh copy of that export: its old text must occur exactly once in its file,
and is replaced.  Each copy runs

    python -m denumerant verify --trials 500 --seed 0
    python -m pytest -x -v -p no:cacheprovider --hypothesis-seed=0 \
        --ignore=tests/test_mutants.py

with PYTHONPATH=src and PYTHONDONTWRITEBYTECODE=1, its address space capped
at MEMORY_LIMIT by RLIMIT_AS, so that a mutant which allocates without end
ends in MemoryError and not in the host's OOM killer.  A check kills a mutant
when it exits nonzero, recorded as "killed (memory limit)" when its output
names a MemoryError; a run past its timeout kills nothing.  Hypothesis is
seeded so that a test two trees share draws the same examples in both, and
pytest is verbose so that each test's id and outcome are printed as it ends,
even when the report of a failure fails itself.  tests/test_mutants.py is
left out: it checks that each row's old text is in the source, which no
mutated copy passes.  The result, per row, is whether verify killed it,
whether tier-1 killed it, and the first failing test id, stored in the --out
file (made if missing) at [key], next to what the file holds already, with
verify's kills of the rows of kind "answer": those agreement can see, as
some route answers or refuses differently under them.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_pairs import ROOT, export  # noqa: E402

TIMEOUT_S = 900
# Tier-1 and verify each pass with half of this address space (ulimit -v).
MEMORY_LIMIT = 1 << 30
MEMORY_KILL = "killed (memory limit)"


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    recorded: str  # the commit whose notes first named it, or "panel"
    # "answer" when some route returns a different value or refuses a
    # different input under it, which agreement can see; else "gate": it
    # changes work, memory, a type, the output or verify's own coverage
    kind: str


PANEL = (
    Mutant("walk-index-stride", "src/denumerant/waves.py",
           "return [wave[m * s % a] for m in range(a)]",
           "return [wave[m * t % a] for m in range(a)]", "76d4639", "answer"),
    Mutant("unit-c6-plus-one", "src/denumerant/bernoulli.py",
           "unit.append(-acc // (n + 1))",
           "unit.append(-acc // (n + 1) + (n == 6))", "76d4639", "answer"),
    Mutant("tangent-step", "src/denumerant/bernoulli.py",
           "(j - k + 2) * t[j]", "(j - k + 1) * t[j]", "3423e45", "answer"),
    Mutant("waves-off-by-one-from-P", "src/denumerant/waves.py",
           "    return count\n", "    return count + (n >= parts.product)\n",
           "e774d71", "answer"),
    Mutant("widening-threshold", "src/denumerant/oracle.py",
           "while top >> 8 * len(self.planes) > 0:",
           "while top >> 8 * (len(self.planes) + 1) > 0:", "a53e92a", "answer"),
    Mutant("window-one-late", "src/denumerant/oracle.py",
           "window = held.ints(max(low - span, 0))",
           "window = held.ints(max(low - span, 0) + 1)", "a53e92a", "answer"),
    Mutant("b4-sign", "src/denumerant/bernoulli.py",
           "    return tuple(table[: m + 1])",
           "    if m >= 4:\n        table[4] = -table[4]\n    return tuple(table[: m + 1])",
           "0a2db09", "answer"),
    Mutant("b4-plus-1e-6", "src/denumerant/bernoulli.py",
           "    return tuple(table[: m + 1])",
           "    if m >= 4:\n        table[4] += Fraction(1, 10 ** 6)\n"
           "    return tuple(table[: m + 1])",
           "0a2db09", "answer"),
    Mutant("block-spans-16", "src/denumerant/oracle.py",
           "_BLOCK_SPANS = 64", "_BLOCK_SPANS = 16", "adbe927", "gate"),
    Mutant("never-recall-a-table", "src/denumerant/oracle.py",
           "table = admission.recall(_TABLES, key) or ()", "table = ()", "a53e92a", "gate"),
    Mutant("oracle-route-bound-at-import", "src/denumerant/cli.py",
           '"oracle": lambda parts, n: oracle.oracle_count(parts, n),',
           '"oracle": oracle.oracle_count,', "7bedc05", "gate"),
    Mutant("one-block-growth", "src/denumerant/oracle.py",
           "_BLOCK_ENTRIES = 1 << 12", "_BLOCK_ENTRIES = 1 << 30", "adbe927", "gate"),
    Mutant("no-quarter-growth", "src/denumerant/oracle.py",
           "grown = min(len(table) * 5 // 4, admission.MAX_TABLE_ENTRIES) - 1",
           "grown = 0", "panel", "gate"),
    Mutant("closed-form-k5-pair-term", "src/denumerant/reductions.py",
           "+ 3 * sum(parts.product // (ai * aj)", "+ 2 * sum(parts.product // (ai * aj)",
           "panel", "answer"),
    Mutant("theorem2-domain-short", "src/denumerant/reductions.py",
           "if not 1 <= x <= parts.total - 1:", "if not 1 <= x <= parts.total - 2:",
           "panel", "answer"),
    Mutant("exact-returns-fraction", "src/denumerant/reductions.py",
           "    return quotient\n", "    return Fraction(quotient)\n", "panel", "gate"),
    Mutant("closed-form-row-to-k4", "src/denumerant/verify.py",
           '("closed-form", 2, 5, "n",', '("closed-form", 2, 4, "n",', "panel", "gate"),
    Mutant("json-method-for-every-subcommand", "src/denumerant/cli.py",
           '"method": getattr(args, "method", None),',
           '"method": getattr(args, "method", args.subcommand),', "panel", "gate"),
    Mutant("fail-line-drops-parts", "src/denumerant/verify.py",
           'f"FAIL {failure.check} parts={list(failure.parts.parts)}"',
           'f"FAIL {failure.check}"', "panel", "gate"),
    Mutant("served-second-sum-one-late", "src/denumerant/oracle.py",
           "_sum_down(held, n - x, largest)", "_sum_down(held, n - x + 1, largest)",
           "panel", "answer"),
    Mutant("wider-table-one-entry-short", "src/denumerant/oracle.py",
           "if len(_TABLES.get(wider, ())) > n:", "if len(_TABLES.get(wider, ())) >= n:",
           "panel", "answer"),
    Mutant("hold-keeps-replaced-weight", "src/denumerant/admission.py",
           "cache.bytes -= weigh(old)", "cache.bytes -= 0", "panel", "gate"),
    Mutant("growth-put-one-late", "src/denumerant/oracle.py",
           "table.put(base, counts,", "table.put(base + 1, counts,", "panel", "answer"),
    Mutant("copy-drops-last-held-entry", "src/denumerant/oracle.py",
           "plane[:low] = old", "plane[:low - 1] = old[:-1]", "panel", "answer"),
    Mutant("index-keeps-first", "src/denumerant/oracle.py",
           "if len(_TABLES.get(_WIDER.get(narrower), ())) <= len(new):",
           "if not _TABLES.get(_WIDER.get(narrower)):", "panel", "gate"),
    Mutant("index-keeps-shorter", "src/denumerant/oracle.py",
           "<= len(new):", ">= len(new):", "panel", "gate"),
    Mutant("growth-one-short", "src/denumerant/oracle.py",
           "bytearray(upper + 1)", "bytearray(upper)", "2b50364", "gate"),
    Mutant("parser-built-every-run", "src/denumerant/cli.py",
           "    name = argv[0] if argv and argv[0] in _OPTIONS else None\n",
           "    _build_parser()\n    name = argv[0] if argv and argv[0] in _OPTIONS else None\n",
           "panel", "gate"),
    Mutant("theorem1-row-reads-waves-at-n", "src/denumerant/verify.py",
           "w(reductions.decompose(parts, n)[1]) + reductions.theorem1_correction(parts, n)",
           "w(n) + reductions.theorem1_correction(parts, n)", "panel", "answer"),
    Mutant("split-drops-low-bits", "src/denumerant/cli.py",
           "low = low << half | value & ((1 << half) - 1)", "low = low << half",
           "panel", "gate"),
    Mutant("split-remainder-unshifted", "src/denumerant/cli.py",
           "low = low << half | value", "low = low | value", "panel", "gate"),
)

VERIFY = ("-m", "denumerant", "verify", "--trials", "500", "--seed", "0")
TIER1 = ("-m", "pytest", "-x", "-v", "-p", "no:cacheprovider", "--hypothesis-seed=0",
         "--ignore=tests/test_mutants.py")


def apply(mutant: Mutant, tree: Path) -> None:
    """Replace the mutant's old text, which must occur exactly once, in tree."""
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        count = text.count(mutant.old)
        raise ValueError(f"{mutant.id}: old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def cap_memory() -> None:
    """In a check's child, before it runs: cap its address space."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_check(tree: Path, args: Sequence[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run([sys.executable, *args], cwd=tree, env=env, preexec_fn=cap_memory,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(args, None, "", f"timeout after {TIMEOUT_S} s")


def killed(proc: subprocess.CompletedProcess) -> Union[bool, str]:
    """Whether the check killed its mutant: MEMORY_KILL when it failed on the
    memory cap, False when it passed or timed out."""
    if proc.returncode in (0, None):
        return False
    return MEMORY_KILL if "MemoryError" in proc.stdout + proc.stderr else True


def first_failure(proc: subprocess.CompletedProcess) -> Optional[str]:
    """The id of the first test pytest marks FAILED or ERROR, else its last line.

    A verbose line starts with the test id; what the test prints itself may
    come between the id and its outcome, which then starts a later line.
    """
    if proc.returncode == 0:
        return None
    lines, current = (proc.stdout + proc.stderr).splitlines(), None
    for words in map(str.split, lines):
        if words and "::" in words[0]:
            current, words = words[0], words[1:]
        if words and words[0] in ("FAILED", "ERROR"):
            return words[1] if len(words) > 1 and "::" in words[1] else current or " ".join(words)
    return lines[-1] if lines else None


def run_tree(tree: Path) -> dict:
    verify, tier1 = run_check(tree, VERIFY), run_check(tree, TIER1)
    return {
        "verify_killed": killed(verify),
        "tier1_killed": killed(tier1),
        "first_failure": first_failure(tier1),
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", help="git revision or checkout directory")
    parser.add_argument("--key", default="tree", help="the run's key in --out")
    parser.add_argument("--out", type=Path, default=ROOT / "MUTANTS.json")
    args = parser.parse_args(argv)
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        base = Path(tmp) / "base"
        label = export(args.tree, base)
        baseline = run_tree(base)
        print(f"baseline: {baseline}", file=sys.stderr)
        if baseline["verify_killed"] or baseline["tier1_killed"]:
            print("the unmutated tree fails a check, so no kill means anything", file=sys.stderr)
            return 2
        for mutant in PANEL:
            copy = Path(tmp) / mutant.id
            shutil.copytree(base, copy)
            apply(mutant, copy)
            results.append({"id": mutant.id, "file": mutant.file, "recorded": mutant.recorded,
                            "kind": mutant.kind, **run_tree(copy)})
            print(f"{mutant.id}: {results[-1]}", file=sys.stderr)
            shutil.rmtree(copy)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    answers = [row for row in results if row["kind"] == "answer"]
    kills = sum(bool(row["verify_killed"]) for row in answers)
    data[args.key] = {"tree": label, "verify_answer_kills": f"{kills}/{len(answers)}",
                      "rows": results}
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
