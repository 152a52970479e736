"""The mutant panel of scripts/mutants.py applies to the current source,
MUTANTS.json holds a run of each of its rows that keeps every kill, and a
check's child runs under the panel's memory cap."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

RUNS = json.loads((ROOT / "MUTANTS.json").read_text())
IDS = [mutant.id for mutant in mutants.PANEL]


def test_row_ids_are_distinct():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("mutant", mutants.PANEL, ids=IDS)
def test_each_row_applies_to_the_source_once(mutant):
    # a row whose old text is gone or repeated fails here, not silently in
    # the next panel run
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutants.PANEL, ids=IDS)
def test_no_recorded_kill_is_lost(mutant):
    # the row was run at the change and, unless the change added it, at the
    # parent: a row verify or tier-1 killed at the parent is killed by it at
    # the change, which may add kills; tier-1 kills a row the change added
    parent, change = ({row["id"]: row for row in RUNS[key]["rows"]}.get(mutant.id)
                      for key in ("parent", "change"))
    assert change["file"] == mutant.file
    if parent is None:
        assert change["tier1_killed"]
        return
    assert parent["file"] == mutant.file
    assert change["verify_killed"] or not parent["verify_killed"]
    assert change["tier1_killed"] or not parent["tier1_killed"]


def test_a_check_past_the_memory_cap_is_a_memory_kill(tmp_path, monkeypatch):
    # under a 256 MiB cap a 4 GiB request is refused at once, so nothing is
    # allocated, and the child ends in MemoryError; a child within the cap passes
    monkeypatch.setattr(mutants, "MEMORY_LIMIT", 256 << 20)
    over = mutants.run_check(tmp_path, ("-c", "bytearray(4 << 30)"))
    assert over.returncode == 1 and over.stderr.rstrip().endswith("MemoryError")
    assert mutants.killed(over) == mutants.MEMORY_KILL
    within = mutants.run_check(tmp_path, ("-c", "bytearray(1 << 20)"))
    assert within.returncode == 0 and mutants.killed(within) is False
    plain = subprocess.CompletedProcess((), 1, "", "AssertionError")
    assert mutants.killed(plain) is True
