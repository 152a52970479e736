"""The README's Python and command-line examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from denumerant import admission, cli, oracle

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def cli_examples() -> list:
    """(argv, expected stdout lines) for each `$ denumerant ...` in a text block.

    An example's output runs from its command line to the next blank line.
    """
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text(), re.M | re.S):
        for chunk in block.split("\n\n"):
            command, *lines = chunk.strip("\n").splitlines()
            program, *argv = shlex.split(command.removeprefix("$ "), comments=True)
            assert program == "denumerant", command
            examples.append(pytest.param(argv, lines, id=" ".join(argv)))
    assert examples
    return examples


@pytest.mark.parametrize("argv, expected", cli_examples())
def test_command_line_examples_print_as_shown(capsys, argv, expected):
    """A trailing `...` line stands for any further output."""
    assert cli.run(argv) == 0, argv
    out = capsys.readouterr().out.splitlines()
    if expected[-1] == "...":
        expected, out = expected[:-1], out[: len(expected) - 1]
    assert out == expected, argv


def test_oracle_memory_note_matches_the_code():
    """The budget and the build's block sizes the README states are the modules'."""
    text = " ".join(README.read_text().split())
    budgets = re.findall(r"held to a (\d+) MiB budget|Past (\d+) MiB held", text)
    assert len(budgets) == 2
    assert {int(a or b) << 20 for a, b in budgets} == {admission.MAX_HELD_BYTES}
    blocks = re.search(r"blocks of at least ([\d,]+) entries and at least (\d+) times", text)
    entries, spans = int(blocks[1].replace(",", "")), int(blocks[2])
    assert (entries, spans) == (oracle._BLOCK_ENTRIES, oracle._BLOCK_SPANS)
