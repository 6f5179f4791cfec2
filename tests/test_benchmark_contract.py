"""The names the benchmark in perfbench/ reaches into the package by.

Tracer.install looks up each dotted tracing target as a class member and
the workloads clear the char_poly memo between repetitions, with no
fallback: a rename here would fail every benchmark operation.  The laps
rebind the module-level functions of LAP_TARGETS and skip a missing one
silently, so those are checked here too.  The workloads also count trees at the yields of FreeTreeEnumerator.__iter__,
and perfbench's own tests plant a dropped tree by rewriting one line of
the enumerator.
"""

import ast
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from treespectra.enumeration import FreeTreeEnumerator
from treespectra.search import SearchConfig, run_search

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, module_name, attr", [
    target for target in _load_perfbench("tracing").TARGETS if "." in target[2]])
def test_dotted_trace_target_is_a_class_member(name, module_name, attr):
    cls_name, member = attr.split(".")
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert member in cls.__dict__, name


# Lap targets already gone from the package, whose removal from perfbench
# is on the ROADMAP: polys.isolate_kth_largest was replaced by RealRoot,
# and polys.count_roots_above_quadratic by comparing against the root of
# (x - mu)^2 - m.  polys.integer_roots and polys.rational_root_multiplicity
# live on only as test oracles; no workload called either, so no lap is
# lost.
LAP_TARGETS_GONE = {("treespectra.polys", "isolate_kth_largest"),
                    ("treespectra.polys", "count_roots_above_quadratic"),
                    ("treespectra.polys", "integer_roots"),
                    ("treespectra.polys", "rational_root_multiplicity")}


def test_lap_targets_are_module_level_callables(monkeypatch):
    """The laps that cut wall_s rebind these module globals; a refactor that
    inlined one would coarsen the laps without any error."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports calibrate
    targets = _load_perfbench("workloads").LAP_TARGETS
    assert any(module == "treespectra.polys" for module, _ in targets)
    for module_name, attr in LAP_TARGETS_GONE:
        # an exception only for a name that is really gone
        assert attr not in vars(importlib.import_module(module_name)), (
            module_name, attr)
    for module_name, attr in targets:
        if (module_name, attr) not in LAP_TARGETS_GONE:
            value = vars(importlib.import_module(module_name)).get(attr)
            assert callable(value), (module_name, attr)


def test_char_poly_memo_can_be_cleared():
    from treespectra import spectra
    assert callable(spectra.clear_char_poly_cache)


def test_names_imported_from_the_package_exist():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "treespectra"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, alias.name)


def test_enumerator_keeps_the_planted_mutant_line():
    # perfbench's planted wrong-answer test rewrites this line
    text = (ROOT / "src" / "treespectra" / "enumeration.py").read_text(
        encoding="utf-8")
    assert "if take:" in text


@pytest.mark.parametrize("shard, integral", [((0, 1), True), ((1, 4), False)])
def test_one_enumerator_yield_per_owned_tree(monkeypatch, shard, integral):
    """The per-order yield counts of FreeTreeEnumerator.__iter__ during a
    search pass perfbench's check_search: the shard's share of A000055,
    and records as the workloads expect them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports calibrate
    workloads = _load_perfbench("workloads")
    counts: dict = {}
    inner = FreeTreeEnumerator.__iter__

    def counted(enumerator):
        for item in inner(enumerator):
            counts[enumerator.n] = counts.get(enumerator.n, 0) + 1
            yield item

    monkeypatch.setattr(FreeTreeEnumerator, "__iter__", counted)
    out = io.StringIO()
    run_search(SearchConfig(max_order=9, integral_only=integral, shard=shard),
               out, io.StringIO())
    for n in range(1, 10):
        assert counts.get(n, 0) == workloads.shard_share(
            workloads.A000055[n], *shard), n
    assert workloads.check_search(out.getvalue().splitlines(), counts, 9,
                                  shard, integral=integral) == 0
