"""In-memory span recorder that wraps treespectra's public functions from
outside the package.

A span is (name, start, end, parent).  Wrapping patches the class attribute
for methods and, for module-level functions, every ``treespectra.*`` module
binding that refers to the original object, so calls made through
``from .spectra import char_poly`` style imports are recorded too.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

ENUM = "enumeration.FreeTreeEnumerator.__iter__"
CANON = "trees.Tree.canonical_code"
CHAR_POLY = "spectra.char_poly"
TO_JSON = "catalog.CatalogRecord.to_json"
RUN_SUITE = "verifier.run_suite"

# (span name, module, attribute path inside the module)
TARGETS = [
    (ENUM, "treespectra.enumeration", "FreeTreeEnumerator.__iter__"),
    (CANON, "treespectra.trees", "Tree.canonical_code"),
    (CHAR_POLY, "treespectra.spectra", "char_poly"),
    ("spectra.TreeSpectrum.analyze", "treespectra.spectra", "TreeSpectrum.analyze"),
    ("spectra.m_value", "treespectra.spectra", "m_value"),
    ("spectra.nullity_matching", "treespectra.spectra", "nullity_matching"),
    ("polys.integer_roots", "treespectra.polys", "integer_roots"),
    ("polys.count_roots_open", "treespectra.polys", "count_roots_open"),
    ("polys.isolate_kth_largest", "treespectra.polys", "isolate_kth_largest"),
    ("polys.count_roots_above_quadratic", "treespectra.polys",
     "count_roots_above_quadratic"),
    ("reduction.pendant_report", "treespectra.reduction", "pendant_report"),
    (TO_JSON, "treespectra.catalog", "CatalogRecord.to_json"),
    ("search.run_search", "treespectra.search", "run_search"),
    (RUN_SUITE, "treespectra.verifier", "run_suite"),
]
SPAN_NAMES = [name for name, _, _ in TARGETS]
SUITES = ["eigencat", "rhocat", "inttr", "parter", "join", "delp2",
          "cskvarithm", "nul1", "nul2", "eq3"]


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.us_per_call"] = "us"
    units["enumeration.us_per_tree"] = "us"
    units["trees.candidates_per_tree"] = "ratio"
    units["spectra.char_poly.repeat_ratio"] = "ratio"
    units["catalog.records"] = "count"
    units["catalog.bytes"] = "bytes"
    for suite in SUITES:
        units[f"verifier.{suite}.busy_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def rebind(module_name: str, attr: str, make_wrapper) -> bool:
    """Replace module-level function ``attr`` of ``module_name`` by
    ``make_wrapper(fn)`` in every ``treespectra.*`` module that binds it.
    Returns False, changing nothing, if the module has no such attribute."""
    module = sys.modules.get(module_name)
    original = getattr(module, attr, None)
    if original is None:
        return False
    wrapped = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "treespectra" or mod_name.startswith("treespectra."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return True


class Tracer:
    """Span store plus the counters measured at the wrapped boundaries."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.stack: list = []
        self.labels: dict = {}  # span index -> suite name for run_suite
        self.trees_yielded = 0
        self.canon_in_enum = 0
        self.char_poly_repeats = 0
        self.codes_seen: set = set()
        self.catalog_bytes = 0
        self.enabled = True

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(None)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str:
        return self.names[self.stack[-1]] if self.stack else ""

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def _wrap_char_poly(self, fn):
        @functools.wraps(fn)
        def traced(tree):
            if not self.enabled:
                return fn(tree)
            index = self.open(CHAR_POLY)
            try:
                code = tree.canonical_code  # char_poly reads it first anyway
                if code in self.codes_seen:
                    self.char_poly_repeats += 1
                else:
                    self.codes_seen.add(code)
                return fn(tree)
            finally:
                self.close(index)
        return traced

    def _wrap_to_json(self, fn):
        @functools.wraps(fn)
        def traced(record, *args, **kwargs):
            if not self.enabled:
                return fn(record, *args, **kwargs)
            index = self.open(TO_JSON)
            try:
                text = fn(record, *args, **kwargs)
            finally:
                self.close(index)
            self.catalog_bytes += len(text.encode("utf-8")) + 1  # newline
            return text
        return traced

    def _wrap_run_suite(self, fn):
        @functools.wraps(fn)
        def traced(name, *args, **kwargs):
            if not self.enabled:
                return fn(name, *args, **kwargs)
            index = self.open(RUN_SUITE)
            self.labels[index] = name
            try:
                return fn(name, *args, **kwargs)
            finally:
                self.close(index)
        return traced

    def _wrap_iter(self, fn):
        """One span per step of the generator: the work to produce one tree."""
        @functools.wraps(fn)
        def traced(enumerator):
            inner = fn(enumerator)
            while self.enabled:
                index = self.open(ENUM)
                try:
                    tree = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                self.trees_yielded += 1
                yield tree
            yield from inner
        return traced

    def _wrap_canonical(self, prop):
        fget = prop.fget

        def traced(tree):
            if not self.enabled or tree._code is not None:  # cached read
                return fget(tree)
            if self.current() == ENUM:
                self.canon_in_enum += 1
            index = self.open(CANON)
            try:
                return fget(tree)
            finally:
                self.close(index)
        return property(traced, doc=prop.__doc__)

    def install(self) -> None:
        """Wrap every target; call after ``import treespectra``."""
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, property):
                    setattr(cls, member, self._wrap_canonical(raw))
                elif isinstance(raw, classmethod):
                    setattr(cls, member,
                            classmethod(self._wrap_call(raw.__func__, name)))
                elif member == "__iter__":
                    setattr(cls, member, self._wrap_iter(raw))
                elif name == TO_JSON:
                    setattr(cls, member, self._wrap_to_json(raw))
                else:
                    setattr(cls, member, self._wrap_call(raw, name))
                continue
            if name == CHAR_POLY:
                rebind(module_name, attr, self._wrap_char_poly)
            elif name == RUN_SUITE:
                rebind(module_name, attr, self._wrap_run_suite)
            else:
                rebind(module_name, attr,
                       functools.partial(self._wrap_call, name=name))

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        """Dump spans as tab-separated name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in zip(self.names, self.starts,
                                                self.ends, self.parents):
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics except trace.overhead_frac, which needs the
        untraced runs."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_time = defaultdict(float)
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        suite_busy = defaultdict(float)
        for i, name in enumerate(self.names):
            span = self.ends[i] - self.starts[i]
            calls[name] += 1
            self_time[name] += span - child_time[i]
            if not self._nested_in_same(i):
                busy[name] += span
            if i in self.labels:
                suite_busy[self.labels[i]] += span
        out = {}
        for name in SPAN_NAMES:
            n = calls[name]
            out[f"{name}.calls"] = n
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_time[name]
            out[f"{name}.us_per_call"] = busy[name] / n * 1e6 if n else 0.0
        trees = self.trees_yielded
        out["enumeration.us_per_tree"] = busy[ENUM] / trees * 1e6 if trees else 0.0
        out["trees.candidates_per_tree"] = self.canon_in_enum / trees if trees else 0.0
        n = calls[CHAR_POLY]
        out["spectra.char_poly.repeat_ratio"] = self.char_poly_repeats / n if n else 0.0
        out["catalog.records"] = calls[TO_JSON]
        out["catalog.bytes"] = self.catalog_bytes
        for suite in SUITES:
            out[f"verifier.{suite}.busy_s"] = suite_busy[suite]
        return out

    def _nested_in_same(self, index: int) -> bool:
        name = self.names[index]
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False
