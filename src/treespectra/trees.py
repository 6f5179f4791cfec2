"""Labeled trees, the caterpillar-style constructors, and canonical codes.

A Tree is immutable once built.  Its canonical code is the level sequence of
the tree rooted at its center (the lexicographically larger choice when two
centers exist), with children ordered by their subtree codes descending; two
trees are isomorphic exactly when their codes are equal.  Every code comes
from one fold of bracket strings on one rooting (_bracket_fold).  Past the
input boundary a tree is one rooted order and parent array, and
without_vertex cuts T - v from the one the caller holds.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Sequence


class TreeFormatError(ValueError):
    """Malformed tree text input; message carries the offending line."""


class Tree:
    """Immutable labeled tree on vertices 0..n-1."""

    __slots__ = ("n", "adj")
    _code = None  # no memo: read only by perfbench's canonical_code tracer

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        """The checked constructor, for edges from outside the package:
        trees the package makes itself come from the unchecked _build,
        which only this module calls."""
        if n < 1:
            raise ValueError("tree needs at least one vertex")
        edges = list(edges)
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"parallel edge ({u},{v})")
            seen.add(key)
        if len(edges) != n - 1:
            raise ValueError(f"tree of order {n} needs {n - 1} edges, "
                             f"got {len(edges)}")
        self._fill(n, edges)
        # n - 1 edges that reach every vertex: connected, hence acyclic
        if len(self.rooted_order()[0]) != n:
            raise ValueError("edge set is not connected")

    @classmethod
    def _build(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Tree":
        """The tree on edges known to form one, unchecked."""
        tree = object.__new__(cls)
        tree._fill(n, edges)
        return tree

    def _fill(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        """The one place that builds adj: each neighbor list ascending."""
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            a.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(map(tuple, adj)))

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, code={self.code_str()!r})"

    # -- basic structure ----------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    # -- canonical code -----------------------------------------------

    def centers(self) -> tuple[int, ...]:
        """The one or two middle vertices found by stripping leaf layers."""
        if self.n <= 2:
            return tuple(range(self.n))
        deg = [len(a) for a in self.adj]
        layer = [v for v in range(self.n) if deg[v] == 1]
        remaining = self.n
        while remaining > 2:
            nxt = []
            for v in layer:
                deg[v] = 0
                for w in self.adj[v]:
                    if deg[w] > 1:
                        deg[w] -= 1
                        if deg[w] == 1:
                            nxt.append(w)
            remaining -= len(layer)
            layer = nxt
        return tuple(sorted(layer))

    def rooted_order(self, root: int = 0) -> tuple[list[int], list[int]]:
        """Vertices in breadth-first order from root, and each vertex's
        parent (-1 for the root); reversed, the order is bottom-up."""
        if not 0 <= root < self.n:
            raise ValueError(f"vertex {root} out of range")
        adj = self.adj
        parent = [-1] * self.n
        order = [root]
        parent[root] = root
        for u in order:
            for w in adj[u]:
                if parent[w] == -1:
                    parent[w] = u
                    order.append(w)
        parent[root] = -1
        return order, parent

    def canonical_rooting(self) -> tuple[tuple[int, ...], list, list]:
        """The canonical code, with the rooted order and parent array at the
        first center c1 that it is folded on.  A second center c2 is a
        child of c1; rooted at c2, c1 without c2 is one more child."""
        c1, *second = self.centers()
        order, parent = self.rooted_order(c1)
        kids = _bracket_fold(order, parent)
        code = _bracket(kids[c1])
        for c2 in second:
            kids[c1].remove(_bracket(kids[c2]))
            code = max(code, _bracket(sorted(kids[c2] + [_bracket(kids[c1])],
                                             reverse=True)))
        return _level_sequence(code), order, parent

    @property
    def canonical_code(self) -> tuple[int, ...]:
        return self.canonical_rooting()[0]

    def code_str(self) -> str:
        return ",".join(str(d) for d in self.canonical_code)

    @classmethod
    def from_code(cls, code: Sequence[int] | str) -> "Tree":
        """Rebuild a tree from a level sequence (or its comma-separated form)."""
        if isinstance(code, str):
            try:
                code = [int(p) for p in code.split(",")]
            except ValueError as exc:
                raise ValueError(f"bad level sequence {code!r}") from exc
        code = list(code)
        if not code or code[0] != 0:
            raise ValueError("level sequence must start at 0")
        for v in range(1, len(code)):
            if not 1 <= code[v] <= code[v - 1] + 1:
                raise ValueError(f"level jump at position {v}")
        return cls._build(len(code), enumerate(code_parents(code)[1:], 1))


def _bracket_fold(order, parent: list) -> list[list[str]]:
    """Each vertex's children's bracket strings in decreasing order, by one
    bottom-up pass on a rooted order (AHU): a vertex's string is "1", its
    children's strings, then "0".  With "1" > "0", string order is level-
    sequence order, a proper prefix the smaller, as the code orders them."""
    kids: list = [[] for _ in parent]
    for v in reversed(order):
        kids[v].sort(reverse=True)
        if parent[v] >= 0:
            kids[parent[v]].append(_bracket(kids[v]))
    return kids


def _bracket(kids: list[str]) -> str:
    return "1" + "".join(kids) + "0"


def _level_sequence(bracket: str) -> tuple[int, ...]:
    """The depth of each "1" of a bracket string: one below the "1" before
    it, less one per "0" between them."""
    runs = bracket.split("1")[1:-1]
    return tuple(accumulate((1 - len(run) for run in runs), initial=0))


def without_vertex(order, parent: list, v: int) -> tuple[list, list]:
    """The forest T - v, cut from any rooted order of a tree T and its
    parent array: the order without v, with v's children made roots
    (parent -1).  The component that held v's parent keeps the old root.
    Reversed, the order is bottom-up, as the folds of spectra take it; no
    component is relabeled or built."""
    if not 0 <= v < len(parent):
        raise ValueError(f"vertex {v} out of range")
    return ([w for w in order if w != v],
            [-1 if p == v else p for p in parent])


def code_parents(code: Sequence[int]) -> list[int]:
    """The parent of each vertex of a level sequence, labels in preorder
    (-1 for the root): the parent of v is the last earlier vertex one
    level up.  Every vertex comes after its parent, so range(n - 1, -1, -1)
    walks the tree bottom-up."""
    parent = [-1] * len(code)
    last = [0] * len(code)  # last[d] = most recent vertex at depth d
    for v in range(1, len(code)):
        depth = code[v]
        parent[v] = last[depth - 1]
        last[depth] = v
    return parent


def parent_degrees(parent: Sequence[int]) -> list[int]:
    """The degree of each vertex of a parent array rooted at vertex 0."""
    degree = [1] * len(parent)
    degree[0] = 0
    for p in parent[1:]:
        degree[p] += 1
    return degree


def _is_reduced(parent: Sequence[int], degree: Sequence[int]) -> bool:
    """Whether a parent array (-1 for the root) with its degrees has no
    pendant P2: no edge joins a vertex of degree 2 to a leaf, that is, no
    edge has end degrees of product 2."""
    return all(degree[v] * degree[parent[v]] != 2
               for v in range(1, len(parent)))


# ---------------------------------------------------------------------------
# constructors


def grow(tree: Tree, parents: Sequence[int]) -> Tree:
    """tree plus one new vertex per entry of parents, labeled tree.n,
    tree.n + 1, ... in order: new vertex tree.n + i is joined to
    parents[i], a vertex of tree or one added earlier in the list.
    Unchecked, like _build: the entries must be such vertices."""
    edges = tree.edges()
    edges += [(p, v) for v, p in enumerate(parents, tree.n)]
    return Tree._build(tree.n + len(parents), edges)


_VERTEX = Tree.from_code((0,))  # the one-vertex tree the constructors grow


def path(n: int) -> Tree:
    """The path P_n."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return grow(_VERTEX, range(n - 1))


def _caterpillar_parents(r: Sequence[int]) -> list[int]:
    """The parents of vertices 1, 2, ... of c_tree(r) grown from vertex 0:
    the rest of the spine, then each hub's leaves in hub order."""
    if len(r) < 1:
        raise ValueError("c_tree needs at least one group")
    if any(x < 0 for x in r):
        raise ValueError("leaf counts must be nonnegative")
    return [*range(2 * len(r)),
            *(hub for hub, count in zip(hub_vertices(r), r)
              for _ in range(count))]


def c_tree(r: Sequence[int]) -> Tree:
    """Caterpillar on a path of odd order with leaf bundles at even positions.

    A path on 2n+1 vertices is labeled 0..2n from one endpoint (spine vertex
    v_k of the classical description is label k-1), and r[i-1] new leaves are
    attached at v_{2i} (label 2i-1).  Leaves are appended after the spine in
    attachment order.
    """
    return grow(_VERTEX, _caterpillar_parents(r))


def s_tree(r: Sequence[int]) -> Tree:
    """Extend c_tree(r) by one new leaf at every degree-1 vertex and at each
    odd interior spine vertex v_3, v_5, ..., v_{2n-1}.

    New vertices are appended after c_tree's labels: first over the degree-1
    vertices in increasing label order, then over the odd spine positions.
    The spider hubs v_2, v_4, ..., v_{2n} keep their c_tree labels 1, 3, ...,
    2n-1.
    """
    parents = _caterpillar_parents(r)
    end = 2 * len(r)
    # c_tree's degree-1 vertices are the spine ends 0 and 2n, then hub leaves
    return grow(_VERTEX, [*parents, 0, *range(end, len(parents) + 1),
                          *range(2, end, 2)])


def hub_vertices(r: Sequence[int]) -> tuple[int, ...]:
    """Labels of v_2, v_4, ..., v_{2n} in c_tree(r) / s_tree(r)."""
    return tuple(2 * i - 1 for i in range(1, len(r) + 1))


def attach_pendants(tree: Tree, spec: Sequence[tuple[int, int]]) -> Tree:
    """Attach pendant paths of length two: spec lists (vertex, count) pairs.

    Vertices must be distinct and counts at least one; an empty spec returns
    the tree unchanged.  New vertices are appended in spec order, midpoint
    before leaf.
    """
    if not spec:
        return tree
    seen = set()
    for v, s in spec:
        if not 0 <= v < tree.n:
            raise ValueError(f"vertex {v} out of range")
        if v in seen:
            raise ValueError(f"duplicate vertex {v} in attachment spec")
        if s < 1:
            raise ValueError("pendant counts must be >= 1")
        seen.add(v)
    parents: list[int] = []
    for v, s in spec:
        for _ in range(s):
            parents += (v, tree.n + len(parents))  # midpoint at v, leaf at it
    return grow(tree, parents)


def _induced_subtree(tree: Tree, keep: Sequence[int]) -> Tree:
    """The subgraph induced on keep, an ascending list of vertices that
    must span a subtree, relabeled 0..len(keep)-1 in that order; unchecked."""
    index = {orig: i for i, orig in enumerate(keep)}
    edges = [(index[a], index[b]) for a in keep for b in tree.adj[a]
             if b in index and a < b]
    return Tree._build(len(keep), edges)


def join_trees(t1: Tree, v1: int, t2: Tree, v2: int, k: int) -> Tree:
    """Join v1 of t1 to the v2 vertex of each of k fresh copies of t2."""
    if k < 1:
        raise ValueError("need k >= 1 copies")
    if not 0 <= v1 < t1.n:
        raise ValueError(f"vertex {v1} out of range")
    if not 0 <= v2 < t2.n:
        raise ValueError(f"vertex {v2} out of range")
    edges = t1.edges()
    t2_edges = t2.edges()
    for j in range(k):
        off = t1.n + j * t2.n
        edges.extend((off + a, off + b) for a, b in t2_edges)
        edges.append((v1, off + v2))
    return Tree._build(t1.n + k * t2.n, edges)


def bipartition(tree: Tree) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two color classes by distance parity from vertex 0."""
    order, parent = tree.rooted_order()
    color = [0] * tree.n
    for v in order[1:]:
        color[v] = 1 - color[parent[v]]
    side0 = tuple(v for v in range(tree.n) if color[v] == 0)
    side1 = tuple(v for v in range(tree.n) if color[v] == 1)
    return side0, side1


# ---------------------------------------------------------------------------
# text format


def parse_tree_text(text: str) -> Tree:
    """Parse "n then n-1 edge lines" format, reporting line numbers on error."""
    lines = text.splitlines()
    if not lines:
        raise TreeFormatError("line 1: empty input, expected vertex count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise TreeFormatError(f"line 1: expected integer order, got {lines[0]!r}")
    edges = []
    need = max(n - 1, 0)
    body = [ln for ln in lines[1:]]
    # ignore trailing blank lines only
    while body and not body[-1].strip():
        body.pop()
    if len(body) != need:
        raise TreeFormatError(f"expected {need} edge lines after the header, "
                              f"got {len(body)}")
    for i, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise TreeFormatError(f"line {i}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise TreeFormatError(f"line {i}: non-integer endpoint in {ln!r}")
        edges.append((u, v))
    try:
        return Tree(n, edges)
    except ValueError as exc:
        raise TreeFormatError(str(exc))


def format_tree_text(tree: Tree) -> str:
    lines = [str(tree.n)]
    lines.extend(f"{u} {v}" for u, v in tree.edges())
    return "\n".join(lines) + "\n"
