"""Size policy: each budget refuses before any work, and the bb bound holds."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import admission, bernoulli, cli, oracle, verify, waves
from denumerant.errors import ResourceLimitError
from denumerant.partset import PartSet

SRC = Path(__file__).resolve().parent.parent / "src" / "denumerant"


def size_refusals() -> set:
    """(file, enclosing function) of each `raise ResourceLimitError` in src."""
    found = set()
    for path in SRC.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == "ResourceLimitError":
                    found.add((path.name, func.name))
    return found


def test_size_refusals_raised_by_admission_and_the_kernel_guard_only():
    assert size_refusals() == {
        ("admission.py", "admit_waves"),
        ("admission.py", "admit_sweep"),
        ("admission.py", "admit_bernoulli"),
        ("admission.py", "admit_bb"),
        ("oracle.py", "_dp_counts"),
    }


# Everything a refused request could have started on.
WORK = [
    (oracle, "_dp_counts"),
    (waves, "_setup"),
    (bernoulli, "_bernoulli_barnes"),
    (bernoulli, "bernoulli_numbers"),
    (verify, "_check_trial"),
]


@pytest.mark.parametrize(
    "argv, budget, small",
    [
        ("count --parts 3,5,7 --n 10 --method waves", "MAX_TABLE_ENTRIES", 29),
        ("verify --trials 3", "MAX_TABLE_ENTRIES", 100),
        ("bernoulli --max-index 40", "MAX_DIGITS", 20),
        ("bb --parts 2,3 --max-index 10", "MAX_DIGITS", 10),
    ],
)
@pytest.mark.parametrize("output", ["text", "json"])
def test_small_budget_refuses_before_any_work(monkeypatch, capsys, argv, budget, small, output):
    # each argv runs at the default budgets
    assert cli.run(argv.split()) == 0
    capsys.readouterr()
    called = []
    for module, name in WORK:
        monkeypatch.setattr(module, name, lambda *args, name=name: called.append(name))
    monkeypatch.setattr(admission, budget, small)
    code = cli.run([*argv.split(), "--output", output])
    out, err = capsys.readouterr()
    assert (code, out, called) == (3, "", [])
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"over the cap of {small}" in err


def test_bernoulli_budget_at_the_default():
    # B_2064 is the first index whose numerator passes 4,300 digits: B_2062 has
    # 4,300
    admission.admit_bernoulli(2063)
    with pytest.raises(ResourceLimitError, match="B_2064 has about 4311 digits"):
        admission.admit_bernoulli(2064)


def test_bernoulli_bound_holds_for_every_row(monkeypatch):
    # every max index is refused under a budget one digit short of the longest
    # numerator or denominator it prints, in any earlier row too: B_38's
    # numerator has 16 digits, B_36's 20, and B_4 = -1/30 has a 2-digit
    # denominator
    longest = 0
    for m, b in enumerate(bernoulli.bernoulli_numbers(700)):
        longest = max(longest, digits(b.numerator), digits(b.denominator))
        if m >= 2:
            monkeypatch.setattr(admission, "MAX_DIGITS", longest - 1)
            with pytest.raises(ResourceLimitError):
                admission.admit_bernoulli(m)


def test_bb_bound_at_the_readme_example(monkeypatch):
    # the README quotes 3911 and 4446; (2,3,5,7) is refused from m = 873 on,
    # though at m = 900 the longest number printed has about 2,330 digits
    parts = PartSet.of(2, 3, 5, 7)
    admission.admit_bb(parts, 872)
    with pytest.raises(ResourceLimitError, match="may print 4301-digit numbers"):
        admission.admit_bb(parts, 873)
    monkeypatch.setattr(admission, "MAX_DIGITS", 0)
    for m, bound in [(800, 3911), (872, 4295), (900, 4446)]:
        with pytest.raises(ResourceLimitError, match=f"may print {bound}-digit numbers"):
            admission.admit_bb(parts, m)


@pytest.mark.parametrize("m, bound", [(0, 401), (1, 401), (2, 802), (3, 1203)])
def test_bb_bound_takes_parts_past_the_float_range(monkeypatch, m, bound):
    # 10^400 has no float, so the bound reads parts through logs of the int;
    # B_2 = [5 10^399/3, -1, 1/10^400] has 401-digit numbers
    monkeypatch.setattr(admission, "MAX_DIGITS", 0)
    with pytest.raises(ResourceLimitError, match=f"may print {bound}-digit numbers"):
        admission.admit_bb(PartSet.of(10 ** 400), m)


def digits(value: int) -> int:
    return len(str(abs(value)))


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 40), min_size=1, max_size=6), st.integers(0, 60))
def test_bb_bound_holds(combo, m):
    # coprime or not: the bound reads only k, the largest part, P and m; it
    # is refused under a budget one digit short of the longest printed number
    parts = PartSet(tuple(combo))
    table = bernoulli.bernoulli_barnes(parts, m)
    longest = max(
        max(digits(n), digits(d)) for row in bernoulli.lowest_terms(table) for n, d in row
    )
    admission.admit_bb(parts, m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(admission, "MAX_DIGITS", longest - 1)
        with pytest.raises(ResourceLimitError):
            admission.admit_bb(parts, m)
