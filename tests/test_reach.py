"""What verify's default sweep runs of the routes, held to a ledger.

A stdlib line tracer follows `run_verify(500, 0, 2, 5, 13, 100000)`, the
sweep `verify --trials 500 --seed 0` makes, from cold caches, in the route
modules only.  Every line of a function body there that the sweep does not
run must be in LEDGER, except the lines of a `raise` statement; a function
never called is one entry, with no line text.  The tests fail both ways: a
new path the sweep does not run needs an entry and a reason, and an entry the
sweep now reaches must go.  The sweep is traced once per session.
"""

import ast
import inspect
import sys
import types

import pytest

from denumerant import bernoulli, oracle, reductions, series, verify, waves

from helpers import cold_caches

TRACED = (waves, reductions, bernoulli, oracle, series)

# (function, the stripped text of a line it leaves unreached, or None when the
# function is never called): why the default sweep does not run it.
LEDGER = {
    ("_walk", "return [wave[m * s % a] for m in range(a)]"):
        "the index walk takes strides past 32, and parts are at most 13",
    ("_wave", "return a, 1, (a - 1,) + (-1,) * (a - 1)  # a * ([a divides n] - 1/a)"):
        "the one-part wave, and --k-min is 2",
    ("oracle_count", "return int(n % largest == 0)"): "the one-part count, and --k-min is 2",
    ("_exact", "value = Fraction(numerator, denominator)"): "only before its raise",
    ("theorem3_rhs", "if parts.total > parts.product:"):
        "only for an x outside the domain, which verify never draws",
    ("_Table.put", "chunk = [v >> 64 for v in chunk]"):
        "counts past 2^64 - 1, over eight planes, need n far past 4P",
    ("oracle_table", None): "the full table, which only the tests read",
    ("BBPoly.at", None): "bb only; the routes read beta through numerators_at",
    ("lowest_terms", None): "bb's printer",
    ("poly_eval", None): "no src path calls it",
    ("series_mul", None): "the tests' reference product; no src path calls it",
    ("series_inv", None): "the tests' reference inverse; no src path calls it",
}


def body_lines(module):
    """{line: qualified function name} for the lines a function body of module
    can run, those of `raise` statements left out."""
    source = inspect.getsource(module)
    tree = ast.parse(source)
    raises = {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    names = {}

    def name_lines(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    names.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), name))
                name_lines(child, name + ".")

    name_lines(tree, "")
    runnable = set()
    codes = [compile(source, module.__file__, "exec")]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            runnable |= {line for *_, line in code.co_lines() if line} - {code.co_firstlineno}
    return {line: names[line] for line in runnable - raises}


@pytest.fixture(scope="module")
def unreached():
    """{module: the (function, line text) and (function, None) it leaves unreached}."""
    files = {module.__file__: set() for module in TRACED}

    def tracer(frame, event, arg):
        reached = files.get(frame.f_code.co_filename)
        if reached is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                reached.add(frame.f_lineno)
            return line

        return line

    cold_caches()
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        failures, _, _ = verify.run_verify(500, 0, 2, 5, 13, 100000)
    finally:
        sys.settrace(previous)
    assert failures == ()

    found = {}
    for module in TRACED:
        lines, reached = body_lines(module), files[module.__file__]
        text = inspect.getsource(module).splitlines()
        idle = set(lines.values()) - {lines[line] for line in reached & lines.keys()}
        found[module] = {(name, None) for name in idle} | {
            (name, text[line - 1].strip())
            for line, name in lines.items()
            if line not in reached and name not in idle
        }
    return found


@pytest.mark.parametrize("module", TRACED, ids=lambda module: module.__name__)
def test_unreached_route_lines_are_in_the_ledger(unreached, module):
    assert unreached[module] - LEDGER.keys() == set(), "unreached, not in the ledger"


@pytest.mark.parametrize("entry", LEDGER, ids=[name for name, _ in LEDGER])
def test_ledger_entry_is_still_unreached(unreached, entry):
    assert entry in set().union(*unreached.values()), "in the ledger, now reached"
