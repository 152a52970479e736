"""Tests of the benchmark itself (not of the package).

    PYTHONPATH=src python -m pytest -q perfbench

Workers run with small op counts here; the numbers they time are not checked,
only what the benchmark derives from them: digests, counters and verdicts.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

# Small runs that still reach every counter the workload is named for.
SMALL_OPS = {"bb-high-index": 4, "count-cold-product": 6, "count-huge-n": 60, "verify-sweep": 3}

# Counter -> the workload on which the benchmark's design says it is nonzero.
NONZERO = {
    "bb-high-index": [
        "series.self_s",
        "series.inv_calls",
        "series.mul_calls",
        "bernoulli.self_s",
        "bernoulli.bb_calls",
        "bernoulli.bb_cache_misses",
        "bernoulli.numbers_calls",
        "cli.self_s",
    ],
    "count-cold-product": [
        "oracle.self_s",
        "oracle.calls",
        "oracle.table_builds",
        "oracle.table_entries_built",
        "oracle.cached_sets",
        "oracle.cached_entries",
        "bernoulli.bb_cache_misses",
    ],
    "count-huge-n": [
        "reductions.self_s",
        "reductions.theorem1.self_s",
        "reductions.section3.self_s",
        "reductions.closed_form.self_s",
        "reductions.boundary.self_s",
        "series.exp_calls",
        "bernoulli.bb_calls",
        "bernoulli.bb_cache_hits",
        "bernoulli.numbers_calls",
        "oracle.calls",
    ],
    "verify-sweep": [
        "oracle.self_s",
        "oracle.calls",
        "oracle.table_builds",
        "oracle.table_entries_built",
        "partset.self_s",
        "partset.constructions",
        "cli.self_s",
    ],
}


def worker(workload: str, trace: int, cwd: Path = ROOT) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["--workload", workload, "--seed", "0", "--ops", str(SMALL_OPS[workload]), "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    """One untraced and two traced small runs of a workload, same seed."""
    name = request.param
    return name, worker(name, 0), worker(name, 1), worker(name, 1)


def test_runs_are_correct(runs):
    name, plain, traced, _ = runs
    assert plain["failed"] == [] and traced["failed"] == [], plain["reasons"] + traced["reasons"]


def test_traced_and_untraced_stdout_digests_match(runs):
    _, plain, traced, _ = runs
    assert plain["digest"] == traced["digest"]
    assert plain["output_bytes"] == traced["output_bytes"]


def test_named_counters_are_nonzero(runs):
    name, _, traced, _ = runs
    layers = traced["layers"]
    assert set(layers) | {"cli.output_bytes", "trace.overhead_s"} == set(run.PER_LAYER_UNITS)
    for metric in NONZERO[name]:
        assert layers[metric], f"{metric} is {layers[metric]!r} on {name}"


def test_same_seed_gives_identical_counters(runs):
    _, _, first, second = runs
    counts = [m for m, unit in run.PER_LAYER_UNITS.items() if unit == "count" and m in first["layers"]]
    assert {m: first["layers"][m] for m in counts} == {m: second["layers"][m] for m in counts}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_argv(name):
    ops = workloads.WORKLOADS[name].ops
    assert ops(0, 30) == ops(0, 30)
    assert ops(0, 30) != ops(1, 30)
    assert len(ops(0, 30)) == 30


def test_wrong_recorded_digest_fails_the_run(monkeypatch, capsys, tmp_path):
    n_ops = str(run.op_count("verify-sweep", 1))
    recorded = json.loads(run.DIGESTS_FILE.read_text())["verify-sweep"][n_ops]
    argv = ["--workload", "verify-sweep", "--seed", "0", "--seconds", "1"]

    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[0])["context"]["digest_check"] == "match"
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)

    wrong = tmp_path / "digests.json"
    wrong.write_text(json.dumps({"verify-sweep": {n_ops: "0" * len(recorded)}}))
    monkeypatch.setattr(run, "DIGESTS_FILE", wrong)
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_wrong_output_is_caught_by_the_checks():
    ops = workloads.WORKLOADS["count-huge-n"].ops(0, 6)
    same = [argv for argv in ops if argv[0] == "count"][:2]
    assert same[0][:5] == same[1][:5] and same[0][-1] != same[1][-1]
    failures = workloads.WORKLOADS["count-huge-n"].check(same, ["12\n", "13\n"])
    assert [i for i, _ in failures] == [1]

    bb = ["bb", "--parts", "2,3,5", "--max-index", "2"]
    good = "B_0 = [1/30]\nB_1 = [-1/6, 1/30]\nB_2 = [131/180, -1/3, 1/30]\n"
    check = workloads.WORKLOADS["bb-high-index"].check
    assert check([bb], [good]) == []
    assert [i for i, _ in check([bb], [good.replace("131/180", "131/181")])] == [0]


def test_bench_without_the_package_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_private_names_read_as_absent():
    script = (
        "import denumerant.oracle as o, denumerant.bernoulli as b\n"
        "del o._dp_counts, o._TABLES\n"
        "b._bernoulli_barnes = b._bernoulli_barnes.__wrapped__\n"
        "from spans import Tracer\n"
        "t = Tracer(); t.install()\n"
        "import json; print(json.dumps({'absent': t.absent, 'layers': t.metrics()}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    out = json.loads(proc.stdout)
    assert out["absent"] == ["oracle._dp_counts"]
    for metric in (
        "oracle.table_builds",
        "oracle.table_entries_built",
        "oracle.cached_sets",
        "oracle.cached_entries",
        "bernoulli.bb_cache_hits",
        "bernoulli.bb_cache_misses",
    ):
        assert out["layers"][metric] is None
    assert out["layers"]["oracle.calls"] == 0
