"""The package root's public names, and no dead imports in the source."""

import ast
import importlib
import inspect
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import ModuleType

import pytest

import denumerant
from denumerant import cli

from helpers import cold_caches

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "denumerant").glob("*.py"))


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


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # dataclasses imports inspect, and with it ast, dis and tokenize: about
    # 1 MB and 14 ms on every CLI start
    probe = "import sys, denumerant.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "[]\n")


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


ROUTE_MODULES = ("oracle", "waves", "reductions", "bernoulli")


def names_imported_from_routes(source: str) -> list:
    """Names imported one by one from a route module, e.g. `from .oracle import f`."""
    return sorted(
        f"{node.module or ''}.{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] in ROUTE_MODULES
        for alias in node.names
    )


def test_route_import_check_finds_one():
    source = (
        "from . import oracle, reductions\n"
        "from .errors import DomainError\n"
        "from .waves import waves_count\n"
    )
    assert names_imported_from_routes(source) == ["waves.waves_count (line 3)"]


@pytest.mark.parametrize("name", ["cli.py", "verify.py"])
def test_callers_reach_routes_through_their_modules(name):
    # A route bound here by name would miss a rebinding on its module (a
    # test's monkeypatch, or the span tracer in perfbench/spans.py).
    source = (ROOT / "src" / "denumerant" / name).read_text()
    assert names_imported_from_routes(source) == []


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list:
    """Private names a module reads on anything but `self`, or imports by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            found += [
                f"{node.module or ''}.{alias.name} (line {node.lineno})"
                for alias in node.names
                if is_private(alias.name)
            ]
    return sorted(found)


def test_private_read_check_finds_them():
    source = (
        "from . import oracle\n"
        "from .waves import _wave, waves_count\n"
        "class A:\n"
        "    def f(self):\n"
        "        return self._x, self.__dict__, oracle._hold(oracle.__name__)\n"
    )
    assert private_reads(source) == ["oracle._hold (line 5)", "waves._wave (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_reads_across_modules(path):
    # A module's private names are its own: another module that reads one
    # couples to code it does not own, a route to another route's caches or
    # the command line to argparse's internals.
    assert private_reads(path.read_text()) == []


# Module-level tables that never change after import.
CONSTANT_TABLES = {"cli._ROUTES", "cli._OPTIONS", "cli._OUTPUT", "verify._ORACLE_SIDES"}


def module_caches() -> dict:
    """module.name -> value for every module-level dict, list and functools
    cache in src, but for __dunder__ names and CONSTANT_TABLES."""
    found = {}
    for path in SOURCES:
        module = importlib.import_module(f"denumerant.{path.stem}".replace(".__init__", ""))
        for attr, value in vars(module).items():
            name = f"{path.stem}.{attr}"
            if attr.startswith("__") or name in CONSTANT_TABLES:
                continue
            if isinstance(value, (dict, list)) or hasattr(value, "cache_clear"):
                found[name] = value
    return found


def size(value) -> int:
    """Entries held."""
    return value.cache_info().currsize if hasattr(value, "cache_clear") else len(value)


def test_cold_caches_empties_every_module_cache():
    # A cache that cold_caches left out would carry one test's values into the
    # next, and let a route read what another route computed.  Each cache is
    # filled first, so a new one that these runs do not reach fails here too.
    argvs = [["count", "--parts", "2,3,5", "--n", "100"]]
    argvs += [
        ["count", "--parts", "2,3,5", "--n", str(10 ** 700), "--method", method]
        for method in ("theorem1", "section3", "closed-form", "waves")
    ]
    for argv in argvs:
        with redirect_stdout(io.StringIO()):
            assert cli.run(argv) == 0
    caches = module_caches()
    assert [name for name, value in caches.items() if not size(value)] == []
    cold_caches()
    assert {name: size(value) for name, value in caches.items()} == dict.fromkeys(caches, 0)


# The caches admission's rule holds to its byte budget.
HELD = {"oracle._TABLES", "waves._SETUPS"}


def bounded(name: str, value) -> bool:
    """A dict admission holds, or a functools cache with a finite maxsize or
    of a function that takes no arguments."""
    if isinstance(value, dict):
        return name in HELD
    if not hasattr(value, "cache_info"):
        return False
    if value.cache_info().maxsize is not None:
        return True
    return not inspect.signature(value.__wrapped__).parameters


def unstated_bounds(source: str) -> list:
    """Functions under an lru_cache that leaves maxsize at its default, 128."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        for decorator in node.decorator_list
        if ast.unparse(decorator) in {"lru_cache", "lru_cache()"}
    ]


def test_every_module_cache_is_bounded():
    # Memory stays bounded in a long-running process, and no cache keeps state
    # of its own: each is a pure function under a bounded functools cache, or
    # one of the dicts admission's rule holds.  A module-level list is neither.
    # Each lru_cache states its bound, so the bound is chosen, not defaulted.
    caches = module_caches()
    assert set(HELD) <= set(caches)
    assert [name for name, value in caches.items() if not bounded(name, value)] == []
    assert [f"{p.name}: {f}" for p in SOURCES for f in unstated_bounds(p.read_text())] == []


def module_dict_writes(source: str) -> list:
    """Pops, clears and item writes on a dict bound at a module's top level."""
    tree = ast.parse(source)
    dicts = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            dicts.update(t.id for t in targets if isinstance(t, ast.Name))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            mutating = node.func.attr in {"pop", "popitem", "clear", "update", "setdefault"}
            target = node.func.value if mutating else None
        else:
            continue
        if isinstance(target, ast.Name) and target.id in dicts:
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return sorted(found)


def test_module_dict_write_check_finds_them():
    source = (
        "_HELD: dict = {}\n"
        "_LIST = []\n"
        "def f(key, cache):\n"
        "    _HELD.get(key), cache.pop(key), _LIST.clear()\n"
        "    _, x = _HELD[key] = _HELD.pop(key)\n"
        "    del _HELD[key]\n"
    )
    assert module_dict_writes(source) == [
        "_HELD.pop(key) (line 5)",
        "_HELD[key] (line 5)",
        "_HELD[key] (line 6)",
    ]


@pytest.mark.parametrize(
    "path",
    [path for path in SOURCES if path.name != "admission.py"],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_only_admission_reorders_or_evicts_a_held_cache(path):
    # A cache a module reorders or evicts by hand is state of its own; the
    # held caches go through admission.recall and admission.hold.
    assert module_dict_writes(path.read_text()) == []
