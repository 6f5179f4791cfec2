"""Every name a package module imports is used in it (__init__.py is left
out: it imports names to re-export them), every private module-level
name is used somewhere in the package, every public module-level function
and class, and every public method and property of a package class, is
read somewhere in the package or named in an allowlist with the benchmark
function that keeps it, and no function body imports anything:
a module's dependencies are all at its top.  The free-tree stream is
walked in one place: only enumerate_free_trees and the search's
kept_codes construct a FreeTreeEnumerator.  Catalog records are built in
one place: only CatalogRecord.of and from_json construct one.  Every
candidate the free-tree walk rejects leaves it through one jump: the only
slice write to seq in FreeTreeEnumerator.__iter__ writes [1] * ... over
the tail.  Remainder
sequences are taken in one place: only polys._remainders calls
_pseudo_rem.  Roots are refined
in lockstep in one loop: only polys.compare_sum reads _FIRST_WIDTH.  The
unchecked Tree._build is private to trees.py: no other module names it.  The test oracles take no
private name from the package, so they share no code path with it beyond
its public API."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "treespectra"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set:
    """Names read anywhere, also inside quoted annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= used_names(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert imported_names(tree) - used_names(tree) == set()


def test_unused_import_is_found():
    tree = ast.parse("from math import gcd, isqrt\nimport os.path\n"
                     "from typing import Optional\n"
                     "x: 'Optional[int]' = isqrt(4)\n")
    assert imported_names(tree) - used_names(tree) == {"gcd", "os"}


def private_definitions(tree: ast.Module):
    """(name, statement) for each name with one leading underscore that a
    top-level statement of the module binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def names_read(node: ast.AST) -> set:
    """Names a node reads, as a name or an attribute."""
    names = used_names(node)
    names.update(sub.attr for sub in ast.walk(node)
                 if isinstance(sub, ast.Attribute))
    return names


def referenced_names(node: ast.AST) -> set:
    """Names a statement reads: plain names, attributes and the names it
    imports."""
    names = names_read(node)
    names.update(a.name for sub in ast.walk(node)
                 if isinstance(sub, ast.ImportFrom) for a in sub.names)
    return names


def dead_private_names(modules: list) -> set:
    """Private module-level names that no statement reads but the one that
    defines them."""
    reads = [(s, referenced_names(s)) for m in modules for s in m.body]
    return {name for m in modules for name, node in private_definitions(m)
            if not any(name in names for s, names in reads if s is not node)}


def test_every_private_name_is_used():
    modules = [ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES]
    assert dead_private_names(modules) == set()


def test_dead_private_name_is_found():
    modules = [ast.parse("_LIMIT = 3\n_used = 1\n__all__ = []\n"
                         "def _loop(n):\n    return _loop(n - 1)\n"),
               ast.parse("from a import _used\n")]
    assert dead_private_names(modules) == {"_LIMIT", "_loop"}


def read_units(modules: list):
    """(top-level statement, part, names the part reads): a top-level
    class is cut into the statements of its body and its header (bases,
    keywords and decorators); any other top-level statement is one part,
    itself."""
    for m in modules:
        for s in m.body:
            if not isinstance(s, ast.ClassDef):
                yield s, s, names_read(s)
                continue
            for part in s.body:
                yield s, part, names_read(part)
            header = set()
            for node in s.bases + s.keywords + s.decorator_list:
                header |= names_read(node)
            yield s, s, header


def unread_public_names(modules: list) -> set:
    """Public module-level functions and classes that no statement reads,
    as a name or an attribute, but the one that defines them; and, as
    "Class.name", public methods and properties of a module-level class
    that nothing reads but their own definition (another method of the
    class may read them).  Dunder methods are left out.  An import is not
    a read, so __init__.py's re-exports keep nothing alive."""
    units = list(read_units(modules))
    unread = set()
    for m in modules:
        for node in m.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if not any(node.name in names for s, _, names in units
                       if s is not node):
                unread.add(node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                        and not method.name.startswith("_")
                        and not any(method.name in names
                                    for _, part, names in units
                                    if part is not method)):
                    unread.add(f"{node.name}.{method.name}")
    return unread


# Public names nothing in the package reads, each with the benchmark
# function (perfbench/<file>::<function>) that reads it.
KEPT_FOR_OUTSIDE_CALLERS = {
    "clear_char_poly_cache": "perfbench/workloads.py::_clear_memo, "
                             "between repetitions",
    "format_tree_text": "perfbench/workloads.py::make_spectrum_inputs, "
                        "writing the tree files spectrum reads",
    "nullity_matching": "perfbench/workloads.py::check_spectrum, checking "
                        "each printed nullity",
    "IntPoly.from_text": "perfbench/workloads.py::check_spectrum, parsing "
                         "each printed residual",
    "SpectrumSummary.reassemble": "perfbench/workloads.py::check_spectrum, "
                                  "rebuilding each printed polynomial",
    "CatalogRecord.from_json": "perfbench/workloads.py::check_search, "
                               "parsing each record line",
    "CatalogRecord.roundtrip_ok": "perfbench/workloads.py::check_search, "
                                  "checking each record's round trip",
}


def test_every_public_name_is_read():
    modules = [ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES]
    assert unread_public_names(modules) == set(KEPT_FOR_OUTSIDE_CALLERS)


@pytest.mark.parametrize("name", sorted(KEPT_FOR_OUTSIDE_CALLERS))
def test_kept_name_is_read_where_its_entry_says(name):
    path, function = KEPT_FOR_OUTSIDE_CALLERS[name].split(",")[0].split("::")
    tree = ast.parse((PACKAGE.parents[1] / path).read_text(encoding="utf-8"))
    caller = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == function)
    assert name.split(".")[-1] in names_read(caller)


def test_unread_public_name_is_found():
    modules = [ast.parse("def walk(n):\n    return walk(n - 1)\n"
                         "def helper():\n    pass\n"
                         "def method_target():\n    pass\n"
                         "class Spectrum:\n    pass\n"
                         "def _private():\n    pass\n"),
               ast.parse("from a import walk, helper\n"
                         "from . import a\n"
                         "x: 'Spectrum' = a.method_target()\n")]
    assert unread_public_names(modules) == {"walk", "helper"}


def test_unread_method_and_property_are_found():
    modules = [ast.parse("class Box:\n"
                         "    def used(self):\n        return self.size\n"
                         "    @property\n"
                         "    def size(self):\n        return 1\n"
                         "    def unread(self):\n        return self.used()\n"
                         "    @property\n"
                         "    def hidden(self):\n        return self.hidden\n"
                         "    @classmethod\n"
                         "    def make(cls):\n        return cls()\n"
                         "    def __len__(self):\n        return 0\n"
                         "    def _private(self):\n        pass\n"),
               ast.parse("from a import Box\n"
                         "print(Box.make().used())\n")]
    assert unread_public_names(modules) == {"Box.unread", "Box.hidden"}


def local_imports(tree: ast.Module) -> set:
    """Names of the functions and methods whose body, nested functions
    included, holds an import."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(sub, (ast.Import, ast.ImportFrom))
                    for stmt in node.body for sub in ast.walk(stmt))}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_local_import(path):
    assert local_imports(ast.parse(path.read_text(encoding="utf-8"))) == set()


def test_function_local_import_is_found():
    tree = ast.parse("import os\n"
                     "def top():\n    return os.sep\n"
                     "def outer():\n    def inner():\n"
                     "        from math import gcd\n        return gcd\n"
                     "    return inner\n"
                     "class C:\n    def to_json(self):\n"
                     "        import json\n        return json.dumps(1)\n")
    assert local_imports(tree) == {"outer", "inner", "to_json"}


def hit_scopes(tree: ast.Module, hit) -> set:
    """The innermost function (or "<module>") around each node that
    hit(node) accepts."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.add(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def call_scopes(tree: ast.Module, callee: str) -> set:
    """The scopes of the calls to callee, by name or as a module
    attribute."""
    return hit_scopes(tree, lambda node: isinstance(node, ast.Call) and (
        callee in (getattr(node.func, "id", None),
                   getattr(node.func, "attr", None))))


def enumerator_constructions(tree: ast.Module) -> set:
    """The scopes that construct a FreeTreeEnumerator."""
    return call_scopes(tree, "FreeTreeEnumerator")


def test_one_walk_constructs_the_enumerator():
    found = {(path.name, scope) for path in SOURCES
             for scope in enumerator_constructions(
                 ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("enumeration.py", "enumerate_free_trees"),
                     ("search.py", "kept_codes")}


def test_enumerator_construction_is_found():
    tree = ast.parse("from . import enumeration\n"
                     "from .enumeration import FreeTreeEnumerator\n"
                     "WALK = FreeTreeEnumerator(3)\n"
                     "def census(n):\n"
                     "    def inner():\n"
                     "        return enumeration.FreeTreeEnumerator(n)\n"
                     "    return FreeTreeEnumerator\n")
    assert enumerator_constructions(tree) == {"<module>", "inner"}


def record_constructions(tree: ast.Module) -> set:
    """The scopes that construct a CatalogRecord: by calling the class, by
    name or as a module attribute, or by calling cls in its methods."""
    found = call_scopes(tree, "CatalogRecord")
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "CatalogRecord":
            found |= call_scopes(node, "cls")
    return found


def test_one_builder_constructs_a_record():
    found = {(path.name, scope) for path in SOURCES
             for scope in record_constructions(
                 ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("catalog.py", "of"), ("catalog.py", "from_json")}


def test_record_construction_is_found():
    tree = ast.parse("from . import catalog\n"
                     "from .catalog import CatalogRecord\n"
                     "EMPTY = CatalogRecord('0', 1, 1, {}, 'x', 1, '0/1')\n"
                     "def kept_record(code):\n"
                     "    return catalog.CatalogRecord(code)\n"
                     "class CatalogRecord:\n"
                     "    @classmethod\n"
                     "    def of(cls, code):\n"
                     "        return cls(code)\n"
                     "    def again(self):\n"
                     "        return CatalogRecord.of(self.code)\n"
                     "class Verdict:\n"
                     "    @classmethod\n"
                     "    def make(cls):\n"
                     "        return cls()\n")
    assert record_constructions(tree) == {"<module>", "kept_record", "of"}


def walk_slice_writes(tree: ast.Module) -> list:
    """The source text of each value that FreeTreeEnumerator.__iter__
    assigns to a slice of seq."""
    return [ast.unparse(node.value)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            and cls.name == "FreeTreeEnumerator"
            for method in cls.body if isinstance(method, ast.FunctionDef)
            and method.name == "__iter__"
            for node in ast.walk(method) if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Slice)
                    and getattr(target.value, "id", None) == "seq"
                    for target in node.targets)]


def test_one_jump_leaves_the_walk():
    writes = walk_slice_writes(
        ast.parse((PACKAGE / "enumeration.py").read_text(encoding="utf-8")))
    assert len(writes) == 1 and writes[0].startswith("[1] * ")


def test_second_jump_write_is_found():
    tree = ast.parse("class FreeTreeEnumerator:\n"
                     "    def __iter__(self):\n"
                     "        seq, tail = [0, 1, 2], []\n"
                     "        seq[m + 1:] = [1] * (n - m - 1)\n"
                     "        if k < n:\n"
                     "            seq[k:] = [1] * (n - k)\n"
                     "        seq[2] = 1\n"
                     "        tail[1:] = [1]\n"
                     "    def position(self):\n"
                     "        seq[1:] = [2]\n"
                     "def walk(seq):\n"
                     "    seq[1:] = [1]\n")
    assert walk_slice_writes(tree) == ["[1] * (n - m - 1)", "[1] * (n - k)"]


def test_one_loop_takes_pseudo_remainders():
    found = {(path.name, scope) for path in SOURCES
             for scope in call_scopes(
                 ast.parse(path.read_text(encoding="utf-8")), "_pseudo_rem")}
    assert found == {("polys.py", "_remainders")}


def test_pseudo_remainder_caller_is_found():
    tree = ast.parse("from . import polys\n"
                     "def _remainders(a, b):\n"
                     "    return [a, b, _pseudo_rem(a, b)]\n"
                     "def poly_gcd(p, q):\n"
                     "    while q:\n"
                     "        p, q = q, polys._pseudo_rem(p, q)\n"
                     "    return p\n")
    assert call_scopes(tree, "_pseudo_rem") == {"_remainders", "poly_gcd"}


def read_scopes(tree: ast.Module, name: str) -> set:
    """The scopes of the reads of name, bare or as a module attribute; an
    assignment to it is no read."""
    return hit_scopes(tree, lambda node: isinstance(
        getattr(node, "ctx", None), ast.Load) and name in (
            getattr(node, "id", None), getattr(node, "attr", None)))


def test_one_loop_reads_the_first_width():
    found = {(path.name, scope) for path in SOURCES
             for scope in read_scopes(
                 ast.parse(path.read_text(encoding="utf-8")), "_FIRST_WIDTH")}
    assert found == {("polys.py", "compare_sum")}


def test_first_width_reader_is_found():
    tree = ast.parse("from . import polys\n"
                     "_FIRST_WIDTH = 1\n"
                     "def compare_sum(root, *terms):\n"
                     "    width = _FIRST_WIDTH\n"
                     "class RealRoot:\n"
                     "    def _compare_root(self, other):\n"
                     "        width = polys._FIRST_WIDTH\n"
                     "def reset(width):\n"
                     "    polys._FIRST_WIDTH = width\n")
    assert read_scopes(tree, "_FIRST_WIDTH") == {"compare_sum",
                                                 "_compare_root"}


def builder_references(tree: ast.Module) -> set:
    """Line numbers where a module names _build: as a name, an attribute
    or an imported name."""
    found = set()
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name == "_build":
            found.add(node.lineno)
    return found


def test_only_trees_names_the_unchecked_builder():
    found = {path.name for path in SOURCES
             if builder_references(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {"trees.py"}


def test_builder_reference_is_found():
    tree = ast.parse("from .trees import Tree\n"
                     "def grow(t):\n"
                     "    return Tree._build(t.n, t.edges())\n"
                     "build = Tree.__init__\n"
                     "from .trees import _build as make\n"
                     "copy = _build\n")
    assert builder_references(tree) == {3, 5, 6}


def private_package_names(tree: ast.Module) -> set:
    """Names with one leading underscore that a module takes from
    treespectra: imported from it, or read as an attribute of anything
    imported from it (a module, a class, a function)."""
    found = set()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names
                            if a.name.split(".")[0] == "treespectra")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "treespectra"):
            imported.update(a.asname or a.name for a in node.names)
            found.update(a.name for a in node.names
                         if a.name.startswith("_")
                         and not a.name.startswith("__"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in imported:
                found.add(node.attr)
    return found


def test_oracles_take_no_private_name():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    assert private_package_names(tree) == set()


def test_private_package_name_is_found():
    tree = ast.parse("from treespectra.spectra import _signature, char_poly\n"
                     "from treespectra import spectra as sp, trees\n"
                     "import treespectra.polys\n"
                     "from fractions import _private\n"
                     "x = sp._matching_numbers(char_poly.__name__)\n"
                     "y = trees.Tree._build\n"
                     "z = treespectra.polys._as_fraction\n"
                     "def f(tree):\n    return tree._code\n")
    assert private_package_names(tree) == {
        "_signature", "_matching_numbers", "_build", "_as_fraction"}
