"""The mutant panel of scripts/mutants.py applies to the current source, and
MUTANTS.json holds a run of each of its rows that keeps every kill."""

import importlib.util
import json
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
    # the row was run at the parent and at the change: verify's verdict is
    # the same, and a row tier-1 killed at the parent is killed at the change
    parent, change = ({row["id"]: row for row in RUNS[key]["rows"]}[mutant.id]
                      for key in ("parent", "change"))
    assert parent["file"] == change["file"] == mutant.file
    assert parent["verify_killed"] == change["verify_killed"]
    assert change["tier1_killed"] or not parent["tier1_killed"]
