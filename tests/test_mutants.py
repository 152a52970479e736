"""The mutant panel of scripts/mutants.py applies to the current source,
each row classed; MUTANTS.json holds a run of each of its rows that keeps
every kill, and verify's kills of the answer rows; each answer row verify
misses is an open item of ROADMAP.md; and a check's child runs under the
panel's memory cap."""

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
ANSWER = {mutant.id for mutant in mutants.PANEL if mutant.kind == "answer"}


def test_row_ids_are_distinct():
    assert len(set(IDS)) == len(IDS)
    assert {mutant.kind for mutant in mutants.PANEL} == {"answer", "gate"}


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


def test_verify_keeps_its_answer_kills():
    # verify's kills of the rows agreement can see, classed as the panel
    # classes them now (a row the panel no longer has, as its run recorded
    # it): the change kills at least as many as the parent, and each run's
    # record of them is its rows'
    kills = {}
    for key in ("parent", "change"):
        rows = [row for row in RUNS[key]["rows"]
                if row["id"] in ANSWER or row["id"] not in IDS and row["kind"] == "answer"]
        kills[key] = sum(bool(row["verify_killed"]) for row in rows)
        assert RUNS[key]["verify_answer_kills"] == f"{kills[key]}/{len(rows)}"
    assert kills["change"] >= kills["parent"]


def test_rows_verify_misses_are_open_items():
    # no answer row leaves ROADMAP.md's open items while verify misses it
    roadmap = (ROOT / "ROADMAP.md").read_text()
    open_items = roadmap.split("\n## Open items\n", 1)[1].split("\n## Recent\n", 1)[0]
    missed = [row["id"] for row in RUNS["change"]["rows"]
              if row["id"] in ANSWER and not row["verify_killed"]]
    assert [row for row in missed if f"`{row}`" not in open_items] == []


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
