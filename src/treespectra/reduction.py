"""Pendant length-2 paths: detection, stripping, and the census of trees
without them.

A pendant P2 at v is a two-vertex path hanging off v; in degree terms, a
neighbor w of v with degree 2 whose other neighbor is a leaf.  A tree is
reduced when no vertex carries one, that is, when no vertex of degree 2 has
a leaf neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .search import SearchConfig, kept_codes
from .spectra import _m_value, inertia, m_value
from .trees import Tree, _induced_subtree, attach_pendants


@dataclass(frozen=True)
class PendantReport:
    """Per-vertex pendant-P2 counts for one tree."""

    per_vertex: tuple[int, ...]
    total: int
    is_reduced: bool


def _pendant_midpoints(tree: Tree, v: int) -> list[int]:
    """Midpoints w of pendant P2s at v (v-w-leaf with deg w = 2)."""
    if not 0 <= v < tree.n:
        raise ValueError(f"vertex {v} out of range")
    out = []
    for w in tree.adj[v]:
        if tree.degree(w) != 2:
            continue
        other = tree.adj[w][0] if tree.adj[w][0] != v else tree.adj[w][1]
        if tree.degree(other) == 1:
            out.append(w)
    return out


def pendant_report(tree: Tree) -> PendantReport:
    counts = tuple(len(_pendant_midpoints(tree, v)) for v in range(tree.n))
    total = sum(counts)
    return PendantReport(per_vertex=counts, total=total, is_reduced=(total == 0))


def strip_pendant_p2(tree: Tree, v: int) -> Tree:
    """Remove one pendant P2 at v (the smallest-labeled midpoint)."""
    mids = _pendant_midpoints(tree, v)
    if not mids:
        raise ValueError(f"no pendant P2 at vertex {v}")
    w = min(mids)
    leaf = tree.adj[w][0] if tree.adj[w][0] != v else tree.adj[w][1]
    keep = [u for u in range(tree.n) if u not in (w, leaf)]
    return _induced_subtree(tree, keep)


def reduce_with_trace(tree: Tree) -> tuple[Tree, list[dict]]:
    """Strip pendant P2s until none remain; return the core and one trace
    entry per strip (vertex, m before and after, the code after).

    Strips at the smallest vertex carrying one (smallest midpoint first), so
    the returned labeled tree is deterministic; the isomorphism class is
    independent of strip order, which the test suite asserts on small orders.
    """
    steps = []
    current = tree
    m_after = None
    while True:
        report = pendant_report(current)
        if report.is_reduced:
            return current, steps
        v = next(i for i, c in enumerate(report.per_vertex) if c)
        m_before = m_value(current) if m_after is None else m_after
        current = strip_pendant_p2(current, v)
        code, order, parent = current.canonical_rooting()
        m_after = _m_value(order, parent)
        steps.append({
            "vertex": v,
            "m_before": m_before,
            "m_after": m_after,
            "code_after": ",".join(map(str, code)),
        })


def strip_monotonicity_holds(tree: Tree) -> bool:
    """Every single pendant-P2 strip keeps the count of eigenvalues in
    (-1, 1) from growing."""
    report = pendant_report(tree)
    if report.total == 0:
        raise ValueError("tree has no pendant P2")
    m_before = m_value(tree)
    for v, c in enumerate(report.per_vertex):
        if c and m_value(strip_pendant_p2(tree, v)) > m_before:
            return False
    return True


def pendant_growth_holds(tree: Tree, v: int) -> bool:
    """Adding one more pendant P2 at a vertex that already has one keeps the
    (-1, 1) eigenvalue count and raises the multiplicity of 1 by one.

    The count is 2 * (eigenvalues below 1) - n and the grown tree has two
    more vertices, so it is kept when one more eigenvalue lies below 1."""
    if not _pendant_midpoints(tree, v):
        raise ValueError(f"no existing pendant P2 at vertex {v}")
    below, at = inertia(tree, 1)
    below_grown, at_grown = inertia(attach_pendants(tree, [(v, 1)]), 1)
    return below_grown == below + 1 and at_grown == at + 1


def reduced_census(k: int, order_cap: int) -> list[tuple[int, ...]]:
    """The canonical codes of all reduced trees with exactly k eigenvalues
    in (-1, 1), up to the given order, sorted by (order, code)."""
    if k < 0:
        raise ValueError(f"m-value must be nonnegative, got {k}")
    config = SearchConfig(max_order=order_cap, reduced_only=True)
    return sorted((code for n in config.orders()
                   for code, parent in kept_codes(config, n)
                   if _m_value(range(n), parent) == k),
                  key=lambda code: (len(code), code))
