"""Outside-in span tracing of the denumerant layers, for the traced benchmark run.

The package's modules bind each other's functions with ``from .x import y``,
so wrapping a function on its defining module alone would miss every caller
that already holds the name.  ``install`` therefore replaces each traced
function at every module-level binding of it in the package (for example
``oracle.oracle_count``, ``reductions.oracle_count`` and
``cli.oracle_count``), and methods on their class.

Each call records a span: name, start, end and the span that was open when it
began.  Spans live in flat arrays while the run goes on and are written out
once it ends.  A layer's self time is the total duration of its spans minus
the time covered by their direct children.

Private names (``oracle._dp_counts``, ``oracle._TABLES``,
``bernoulli._bernoulli_barnes``) feed some counters.  A later version of the
package may drop them; a counter whose source is gone reads ``None``
("absent") and the run goes on.
"""

from __future__ import annotations

import importlib
import time
from array import array
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("partset", "series", "bernoulli", "oracle", "reductions", "cli")

# (module, attribute) -> span name.  The layer is the span name's prefix.
FUNCTIONS: Dict[Tuple[str, str], str] = {
    ("cli", "run"): "cli.run",
    ("series", "series_mul"): "series.mul",
    ("series", "series_inv"): "series.inv",
    ("series", "series_exp"): "series.exp",
    ("series", "poly_eval"): "series.poly_eval",
    ("bernoulli", "bernoulli_barnes"): "bernoulli.bb",
    ("bernoulli", "_bernoulli_barnes"): "bernoulli.bb_compute",
    ("bernoulli", "bernoulli_numbers"): "bernoulli.numbers",
    ("bernoulli", "power_sum"): "bernoulli.power_sum",
    ("oracle", "oracle_count"): "oracle.count",
    ("oracle", "oracle_table"): "oracle.table",
    ("oracle", "_counts_up_to"): "oracle.counts_up_to",
    ("oracle", "_dp_counts"): "oracle.dp",
    ("reductions", "decompose"): "reductions.decompose",
    ("reductions", "theorem1_count"): "reductions.theorem1",
    ("reductions", "theorem1_correction"): "reductions.theorem1",
    ("reductions", "section3_count"): "reductions.section3",
    ("reductions", "closed_form_correction"): "reductions.closed_form",
    ("reductions", "closed_form_theorem2"): "reductions.closed_form",
    ("reductions", "theorem2_count"): "reductions.boundary",
    ("reductions", "theorem3_rhs"): "reductions.boundary",
    ("reductions", "_product_sum_rhs"): "reductions.boundary",
}

# (module, class, attribute) -> span name, for methods and cached properties.
METHODS: Dict[Tuple[str, str, str], str] = {
    ("partset", "PartSet", "__post_init__"): "partset.construct",
    ("partset", "PartSet", "pairwise_coprime"): "partset.coprime",
    ("partset", "PartSet", "require_pairwise_coprime"): "partset.coprime",
    ("bernoulli", "BBPoly", "at"): "bernoulli.bb_at",
}

# Per-layer count metrics: metric -> the span names whose calls it counts.
CALL_COUNTS: Dict[str, Tuple[str, ...]] = {
    "series.inv_calls": ("series.inv",),
    "series.mul_calls": ("series.mul",),
    "series.exp_calls": ("series.exp",),
    "bernoulli.bb_calls": ("bernoulli.bb",),
    "bernoulli.numbers_calls": ("bernoulli.numbers",),
    "oracle.calls": ("oracle.count", "oracle.table"),
    "oracle.table_builds": ("oracle.dp",),
    "partset.constructions": ("partset.construct",),
}

SUBLAYERS = ("reductions.theorem1", "reductions.section3", "reductions.closed_form", "reductions.boundary")


class Tracer:
    """Spans of one traced run, held in flat arrays until the run ends."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.live: set = set()
        self.absent: List[str] = []
        self.entries_built = 0
        self._bb_cache = None
        self._bb_cache_start = (0, 0)
        self._tables = None

    def span(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        """fn wrapped so each call records a span named `name`."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each of its lookup sites."""
        modules = {name: importlib.import_module(f"denumerant.{name}") for name in LAYERS}
        package = importlib.import_module("denumerant")
        self._tables = getattr(modules["oracle"], "_TABLES", None)
        cache = getattr(modules["bernoulli"], "_bernoulli_barnes", None)
        if hasattr(cache, "cache_info"):
            self._bb_cache = cache
            info = cache.cache_info()
            self._bb_cache_start = (info.hits, info.misses)
        for (mod, attr), name in FUNCTIONS.items():
            original = getattr(modules[mod], attr, None)
            if original is None:
                self.absent.append(f"{mod}.{attr}")
                continue
            self.live.add(name)
            measure = self._count_entries if attr == "_dp_counts" else None
            wrapped = self.span(name, original, measure)
            for namespace in [*modules.values(), package]:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapped)
        for (mod, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[mod], cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.absent.append(f"{mod}.{cls_name}.{attr}")
                continue
            self.live.add(name)
            if isinstance(original, cached_property):
                wrapped = cached_property(self.span(name, original.func))
                wrapped.__set_name__(cls, attr)
            else:
                wrapped = self.span(name, original)
            setattr(cls, attr, wrapped)

    def _count_entries(self, table) -> None:
        self.entries_built += len(table)

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus direct children's durations."""
        count = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(count)]
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        totals: Dict[str, float] = {}
        for i in range(count):
            name = self.names[self.name[i]]
            totals[name] = totals.get(name, 0.0) + own[i]
        return totals

    def metrics(self, scale: float = 1.0) -> Dict[str, Optional[float]]:
        """Per-layer self times (times `scale`) and counters; None marks an absent counter."""
        by_name = self.self_times()
        out: Dict[str, Optional[float]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = scale * sum(v for k, v in by_name.items() if k.split(".")[0] == layer)
        for sub in SUBLAYERS:
            out[f"{sub}.self_s"] = scale * by_name.get(sub, 0.0)
        calls: Dict[str, int] = {}
        for nid in self.name:
            calls[self.names[nid]] = calls.get(self.names[nid], 0) + 1
        for metric, span_names in CALL_COUNTS.items():
            live = any(s in self.live for s in span_names)
            out[metric] = sum(calls.get(s, 0) for s in span_names) if live else None
        out["oracle.table_entries_built"] = self.entries_built if "oracle.dp" in self.live else None
        if self._bb_cache is not None:
            info = self._bb_cache.cache_info()
            out["bernoulli.bb_cache_hits"] = info.hits - self._bb_cache_start[0]
            out["bernoulli.bb_cache_misses"] = info.misses - self._bb_cache_start[1]
        else:
            out["bernoulli.bb_cache_hits"] = out["bernoulli.bb_cache_misses"] = None
        if isinstance(self._tables, dict):
            out["oracle.cached_sets"] = len(self._tables)
            out["oracle.cached_entries"] = sum(len(t) for t in self._tables.values())
        else:
            out["oracle.cached_sets"] = out["oracle.cached_entries"] = None
        return out

    def write(self, path) -> None:
        """All spans as tab-separated lines: id, name, parent, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
