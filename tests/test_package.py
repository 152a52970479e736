"""The package root's public names, and no dead imports in the source."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import denumerant

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [*(ROOT / "src" / "denumerant").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
)


def test_every_exported_name_resolves():
    missing = [name for name in denumerant.__all__ if not hasattr(denumerant, name)]
    assert missing == []
    assert len(set(denumerant.__all__)) == len(denumerant.__all__)


def test_root_exports_the_documented_api():
    # The function behind each CLI subcommand, the README Library example's
    # decompose and closed_form_correction, PartSet and DomainError.
    assert sorted(denumerant.__all__) == [
        "DomainError",
        "PartSet",
        "bernoulli_barnes",
        "bernoulli_numbers",
        "closed_form_correction",
        "closed_form_count",
        "decompose",
        "oracle_count",
        "section3_count",
        "theorem1_count",
        "theorem2_count",
        "theorem3_rhs",
        "waves_count",
    ]
    bound = {
        name
        for name, value in vars(denumerant).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert bound == set(denumerant.__all__)


def test_benchmark_bound_names_resolve(monkeypatch):
    # perfbench/spans.py wraps these by name; a dropped name would silently
    # turn its span and counters into "absent"
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    modules = {m: importlib.import_module(f"denumerant.{m}") for m in spans.LAYERS}
    missing = [f"{m}.{a}" for m, a in spans.FUNCTIONS if not hasattr(modules[m], a)]
    for m, c, a in spans.METHODS:
        cls = getattr(modules[m], c, None)
        if cls is None or a not in vars(cls):
            missing.append(f"{m}.{c}.{a}")
    assert missing == []


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


def test_unused_import_check_finds_one():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from math import gcd, lcm as least\n"
        "from .errors import DomainError\n"
        "__all__ = ['DomainError']\n"
        "print(sys.argv, os.sep, gcd(4, 6))\n"
    )
    assert unused_imports(source) == ["least (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
