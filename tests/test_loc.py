"""scripts/loc.py counts the lines that are not blank, comment or docstring."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("loc", ROOT / "scripts" / "loc.py")
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SNIPPET = '''"""A module docstring,
over two lines."""

import sys  # a comment after code


# a comment alone
class Table:
    """A class docstring."""

    size = (
        1,
        2,
    )

    def put(self):
        """A function docstring,

        with a blank line in it."""
        note = """a string that is
not a docstring"""
        "an expression after the first statement"
        return note
'''


def test_counts_code_lines_only():
    # import, class, size's four lines, def, note's two lines, the late
    # string and return
    assert loc.code_lines(SNIPPET) == 11


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["11", "a.py"], ["1", "b.py"], ["12", "total"]]
