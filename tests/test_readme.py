"""The README's Python examples run as written."""

import re
from array import array
from pathlib import Path

from denumerant import oracle

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_oracle_memory_note_matches_the_code():
    """The budget and the width limits the README states are the module's."""
    text = " ".join(README.read_text().split())
    budgets = re.findall(r"held to a (\d+) MiB budget|Past (\d+) MiB held", text)
    assert len(budgets) == 2
    assert {int(a or b) << 20 for a, b in budgets} == {oracle._MAX_HELD_BYTES}
    limits = [2 ** int(e) - 1 for e in re.findall(r"passes 2\^(\d+) − 1", text)]
    assert limits == [2 ** (8 * array(c).itemsize) - 1 for c in "IQ"]
