"""The names the benchmark in perfbench/ reaches into the package by.

Tracer.install looks up each dotted tracing target as a class member and
the workloads clear the char_poly memo between repetitions, with no
fallback: a rename here would fail every benchmark operation.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, module_name, attr", [
    target for target in _load_tracing().TARGETS if "." in target[2]])
def test_dotted_trace_target_is_a_class_member(name, module_name, attr):
    cls_name, member = attr.split(".")
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert member in cls.__dict__, name


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
