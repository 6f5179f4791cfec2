"""Characteristic polynomials of trees and the spectral statistics built on them.

The tree characteristic polynomial is computed by the pendant-vertex
recurrence phi(G) = x*phi(G-v) - phi(G-v-u), organized as a single rooted
bottom-up pass; results are memoized on canonical codes in a bounded cache.
The one non-tree graph needed anywhere (an even cycle with two pendants) gets
its polynomial from an exact integer Faddeev-LeVerrier determinant.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .polys import (IntPoly, RealRoot, SpectrumSummary, compare_sum,
                    count_roots_open, even_part, integer_roots,
                    rational_root_multiplicity, taylor_shift)
from .trees import Tree, attach_pendants, bipartition, delete_vertex

_X = IntPoly.x()
_ONE = IntPoly.one()

_MEMO_LIMIT = 20000
_memo: "OrderedDict[tuple, IntPoly]" = OrderedDict()


def clear_char_poly_cache() -> None:
    _memo.clear()


def char_poly(tree: Tree) -> IntPoly:
    """Monic characteristic polynomial of the tree's adjacency matrix."""
    key = tree.canonical_code
    hit = _memo.get(key)
    if hit is not None:
        return hit
    n, adj = tree.n, tree.adj
    parent = [-1] * n
    order = [0]
    parent[0] = 0
    for u in order:
        for w in adj[u]:
            if parent[w] == -1:
                parent[w] = u
                order.append(w)
    parent[0] = -1
    # a[v] = phi(subtree at v), b[v] = phi(subtree at v minus v)
    a: list = [None] * n
    b: list = [None] * n
    for v in reversed(order):
        kids = [w for w in adj[v] if parent[w] == v]
        if not kids:
            a[v], b[v] = _X, _ONE
            continue
        ka = [a[w] for w in kids]
        prefix = [_ONE]
        for p in ka:
            prefix.append(prefix[-1] * p)
        suffix = [_ONE]
        for p in reversed(ka):
            suffix.append(suffix[-1] * p)
        suffix.reverse()
        prod_all = prefix[-1]
        acc = IntPoly.zero()
        for j, w in enumerate(kids):
            acc = acc + b[w] * (prefix[j] * suffix[j + 1])
        a[v] = _X * prod_all - acc
        b[v] = prod_all
    phi = a[0]
    _memo[key] = phi
    while len(_memo) > _MEMO_LIMIT:
        _memo.popitem(last=False)
    return phi


def char_poly_forest(components: Sequence[Tree]) -> IntPoly:
    """Product of component characteristic polynomials (1 for no components)."""
    out = _ONE
    for t in components:
        out = out * char_poly(t)
    return out


# ---------------------------------------------------------------------------
# exact determinant route for small general graphs


def char_poly_adjacency(matrix: Sequence[Sequence[int]]) -> IntPoly:
    """Characteristic polynomial of an integer matrix via Faddeev-LeVerrier.

    All divisions are exact for integer matrices; suitable for the small
    fixed graphs the verifier needs (cycles with pendants).
    """
    n = len(matrix)
    a = [list(row) for row in matrix]
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    c = 1
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                m[i][i] += c
            m = _mat_mul(a, m)
        else:
            m = [row[:] for row in a]
        trace = sum(m[i][i] for i in range(n))
        q, r = divmod(-trace, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division failed")
        c = q
        coeffs[n - k] = c
    return IntPoly(coeffs)


def _mat_mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(n):
                    oi[j] += aik * bk[j]
    return out


def ring_with_pendants_matrix(extra: int = 0) -> list[list[int]]:
    """Adjacency matrix of a cycle of length 6+extra with two pendant
    vertices attached to one cycle vertex.

    extra=0 is the 8-vertex graph whose largest eigenvalue is exactly sqrt(5);
    each increment corresponds to one subdivision of a cycle edge.
    """
    if extra < 0:
        raise ValueError("extra must be nonnegative")
    cycle = 6 + extra
    n = cycle + 2
    mat = [[0] * n for _ in range(n)]

    def link(u, v):
        mat[u][v] = mat[v][u] = 1

    for i in range(cycle):
        link(i, (i + 1) % cycle)
    link(0, cycle)
    link(0, cycle + 1)
    return mat


def char_poly_ring_with_pendants(extra: int = 0) -> IntPoly:
    """Exact characteristic polynomial of the cycle-with-two-pendants family."""
    return char_poly_adjacency(ring_with_pendants_matrix(extra))


# ---------------------------------------------------------------------------
# spectral statistics


def m_value(tree: Tree) -> int:
    """Eigenvalues in the open interval (-1, 1), counted with multiplicity."""
    return count_roots_open(char_poly(tree), -1, 1).with_multiplicity


def multiplicity(tree: Tree, eigenvalue: int) -> int:
    """Exact multiplicity of an integer eigenvalue."""
    return rational_root_multiplicity(char_poly(tree), eigenvalue)


def forest_multiplicity(components: Sequence[Tree], eigenvalue: int) -> int:
    return sum(multiplicity(t, eigenvalue) for t in components)


def nullity_poly(tree: Tree) -> int:
    """Multiplicity of 0, read off as the valuation of the char polynomial."""
    coeffs = char_poly(tree).coeffs
    h = 0
    while coeffs[h] == 0:
        h += 1
    return h


def max_matching_size(tree: Tree) -> int:
    """Maximum matching via leaf stripping (a leaf is always matchable to
    its unique neighbor without loss)."""
    n = tree.n
    deg = [tree.degree(v) for v in range(n)]
    alive = bytearray([1]) * n
    queue = [v for v in range(n) if deg[v] == 1]
    matched = 0
    for u in queue:
        if not alive[u] or deg[u] != 1:
            continue
        partner = -1
        for w in tree.adj[u]:
            if alive[w]:
                partner = w
                break
        if partner < 0:
            continue
        alive[u] = alive[partner] = 0
        matched += 1
        for w in tree.adj[partner]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    return matched


def nullity_matching(tree: Tree) -> int:
    """Nullity as order minus twice the maximum matching size."""
    return tree.n - 2 * max_matching_size(tree)


def is_integral(tree: Tree) -> SpectrumSummary:
    """Integer-root extraction of the char polynomial; the verdict is the
    summary's is_integral flag (residual of degree zero)."""
    return integer_roots(char_poly(tree))


@dataclass(frozen=True)
class TreeSpectrum:
    """Bundle of the spectral facts the search and verifier care about."""

    code: tuple
    char_poly: IntPoly
    summary: SpectrumSummary
    nullity: int

    @classmethod
    def analyze(cls, tree: Tree) -> "TreeSpectrum":
        phi = char_poly(tree)
        summary = integer_roots(phi)
        return cls(code=tree.canonical_code, char_poly=phi, summary=summary,
                   nullity=summary.nullity)

    @cached_property
    def m_value(self) -> int:
        """Eigenvalues in (-1, 1), counted on first read only."""
        return count_roots_open(self.char_poly, -1, 1).with_multiplicity


# ---------------------------------------------------------------------------
# the attachment identity


def join_formula(t1: Tree, v1: int, t2: Tree, v2: int, k: int) -> IntPoly:
    """phi of the tree made by joining v1 to the v2 of k copies of t2:

        phi(T2)^(k-1) * (phi(T1) phi(T2) - k phi(T1-v1) phi(T2-v2))
    """
    if k < 1:
        raise ValueError("need k >= 1")
    p1 = char_poly(t1)
    p2 = char_poly(t2)
    q1 = char_poly_forest(delete_vertex(t1, v1))
    q2 = char_poly_forest(delete_vertex(t2, v2))
    return (p2 ** (k - 1)) * (p1 * p2 - k * (q1 * q2))


# ---------------------------------------------------------------------------
# exact comparisons of eigenvalues


def courant_weyl_check(tree: Tree, spec: Sequence[tuple[int, int]]) -> list[bool]:
    """Certify lambda_i(T') >= sqrt(s_i + 1) + lambda_n(T) for i = 1..k,
    where T' attaches s_i pendant length-2 paths at the i-th spec vertex and
    the spec is taken in nonincreasing order of s.

    Comparisons are exact: when lambda_n(T) is rational the verdict comes
    from root counting; otherwise isolating intervals are refined until
    conclusive (PrecisionExhausted beyond the width cap).
    """
    if not spec:
        raise ValueError("empty attachment spec")
    ordered = sorted(spec, key=lambda it: -it[1])
    phi_grown = char_poly(attach_pendants(tree, ordered))
    lam_min = RealRoot(char_poly(tree), tree.n)

    verdicts = []
    for i, (_, s) in enumerate(ordered, start=1):
        top = RealRoot(phi_grown, i)
        if lam_min.exact is not None:
            # against a rational, or in the quadratic field of sqrt(s+1)
            sign = top.compare((lam_min.exact, s + 1))
        else:
            sign = compare_sum(top, RealRoot(IntPoly((-(s + 1), 0, 1)), 1),
                               lam_min)
        verdicts.append(sign >= 0)
    return verdicts


# ---------------------------------------------------------------------------
# squared-eigenvalue shift


def squared_shift_check(tree: Tree, side: int, r: int) -> bool:
    """Attach r new leaves to every vertex of one bipartition class and
    verify that the k largest squared eigenvalues each move up by exactly r
    (k = number of positive eigenvalues of the original tree).

    Tries the exact divisibility certificate first and falls back to per-root
    matching when the extra eigenvalues of the grown tree get in the way of
    a clean split.
    """
    if side not in (0, 1):
        raise ValueError("side selects bipartition class 0 or 1")
    if r < 0:
        raise ValueError("r must be nonnegative")
    cls = bipartition(tree)[side]
    if not cls:
        raise ValueError("empty bipartition class")
    edges = tree.edges()
    nxt = tree.n
    for v in cls:
        for _ in range(r):
            edges.append((v, nxt))
            nxt += 1
    grown = Tree(nxt, edges)

    _, q_base = even_part(char_poly(tree))
    _, q_grown = even_part(char_poly(grown))
    k = q_base.degree
    if k == 0:
        return True
    shifted = taylor_shift(q_base, r)

    if shifted.divides(q_grown):
        cof = q_grown.exact_divide(shifted)
        # every root of q_grown is real, so the cofactor has a largest root;
        # below the k-th root of the shifted factor it splits off cleanly
        if (cof.degree == 0
                or RealRoot(cof, 1).compare(RealRoot(shifted, k)) < 0):
            return True
        # fall through to per-root matching on ties

    return all(RealRoot(q_grown, j).compare(RealRoot(shifted, j)) == 0
               for j in range(1, k + 1))
