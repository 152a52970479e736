"""The A/B runner's summary of paired runs (scripts/ab_pairs.py), on fixed runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def test_median_and_inclusive_quartiles_per_side():
    summary = ab_pairs.summarize([4, 1, 3, 2], [2.5, 0.5, 6, 2], "lower")
    # inclusive quartiles of 1..4 are 1.75 and 3.25 (exclusive: 1.25 and 3.75)
    assert summary["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert summary["change"] == {"median": 2.25, "q1": 1.625, "q3": 3.375}
    assert summary["parent_runs"] == [4, 1, 3, 2]
    assert summary["change_runs"] == [2.5, 0.5, 6, 2]


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    parent, change = [1, 2, 3, 4, 5], [0.5, 2, 2.5, 4.5, 6]
    assert ab_pairs.summarize(parent, change, "lower")["change_wins"] == "2/5"
    assert ab_pairs.summarize(parent, change, "higher")["change_wins"] == "2/5"
    assert ab_pairs.summarize(parent, parent, "lower")["change_wins"] == "0/5"


def test_quartiles_are_rounded_and_runs_kept_whole():
    summary = ab_pairs.summarize([0.12345678, 0.2], [0.1, 0.3], "lower")
    assert summary["parent"] == {"median": 0.161728, "q1": 0.142593, "q3": 0.180864}
    assert summary["parent_runs"] == [0.12345678, 0.2]
    assert summary["change_wins"] == "1/2"


@pytest.mark.parametrize(
    "parent, change, better, gain",
    [
        # 10/10 wins, medians 2.25 apart, parent's quartile spread 0.375
        ([10, 10.25, 10.5, 10, 10.25, 10.5, 10, 10.25, 10.5, 10.25], [8] * 10, "lower", True),
        ([10] * 10, [12] * 9 + [9], "higher", True),  # 9/10 wins is enough
        ([10] * 10, [12] * 8 + [9] * 2, "higher", False),  # 8/10 is not
        ([10] * 10, [10] * 10, "lower", False),  # ties win nothing
        # 10/10 wins, but 0.1 apart is within the parent's spread of 1.0
        ([9.6, 10.6, 9.6, 10.6, 9.6, 10.6, 9.6, 10.6, 9.6, 10.6], [9.5, 10.5] * 5, "lower", False),
        ([1, 2, 3, 4], [0.5, 1.5, 2.5, 3.5], "higher", False),  # better the wrong way
    ],
)
def test_gain_needs_nine_tenths_of_pairs_and_medians_past_the_parent_spread(
    parent, change, better, gain
):
    assert ab_pairs.summarize(parent, change, better)["gain"] is gain


@pytest.mark.parametrize(
    "parent, change, better",
    [([1, 2], [1], "lower"), ([], [], "lower"), ([1], [2], "lower"), ([1, 2], [2, 1], "smaller")],
)
def test_refuses_unpaired_runs_single_pairs_and_unknown_directions(parent, change, better):
    with pytest.raises(ValueError):
        ab_pairs.summarize(parent, change, better)
