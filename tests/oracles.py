"""Independent reference implementations used to cross-check the library.

Nothing here shares code paths with the package internals being tested:
characteristic polynomials come from matching counts (by subset
enumeration, or for large trees by a two-state recursion in IntPoly
arithmetic) and from an integer Faddeev-LeVerrier determinant of the
adjacency matrix, tree counts come from
labeled-tree dedup and from the rooted-tree counting recurrence, free-tree
codes come from networkx and from building each candidate tree, maximum
matchings come from subset enumeration, integer and rational roots come
from a divisor scan and synthetic division, and the components of T - v
come from a breadth-first search, each built by the checked constructor.
The reference walk (_successor, _doomed_run_end, _is_center_code) builds a
fresh list for every candidate and recomputes each fact it needs, where
FreeTreeEnumerator works in place.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from math import isqrt
from operator import mul
from typing import Optional

from treespectra.polys import IntPoly
from treespectra.spectra import SpectrumSummary
from treespectra.trees import Tree


def matchings_by_size(tree: Tree) -> list[int]:
    """m[k] = number of k-edge matchings, by brute force over edge subsets."""
    edges = tree.edges()
    counts = [0] * (len(edges) + 1)
    counts[0] = 1
    for k in range(1, len(edges) + 1):
        for subset in combinations(edges, k):
            used = set()
            ok = True
            for u, v in subset:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                counts[k] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def matchings_by_recursion(tree: Tree) -> list[int]:
    """m[k] = number of k-edge matchings, for trees too large for subset
    enumeration.  Rooted at 0 by a breadth-first search, each vertex v has
    free(v), the matchings of its subtree that leave v uncovered, and
    every(v), all of them, as polynomials in the matching size:
    free(v) = prod every(c) over the children c, and every(v) = free(v)
    + x * sum over c of free(c) * prod of every(c') over the c' != c."""
    x = IntPoly.x()
    parent = {0: None}
    order = [0]
    for v in order:
        for w in tree.adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    free, every = {}, {}
    for v in reversed(order):
        kids = [c for c in tree.adj[v] if c != parent[v]]
        free[v] = reduce(mul, (every[c] for c in kids), IntPoly.one())
        every[v] = free[v] + x * sum(
            (reduce(mul, (every[d] for d in kids if d != c), free[c])
             for c in kids), IntPoly.zero())
    return list(every[0].coeffs)


def char_poly_from_matchings(tree: Tree) -> IntPoly:
    """For forests the characteristic polynomial is determined by matching
    counts: sum over k of (-1)^k m_k x^(n-2k)."""
    n = tree.n
    coeffs = [0] * (n + 1)
    for k, m in enumerate(matchings_by_size(tree)):
        coeffs[n - 2 * k] = (-1) ** k * m
    return IntPoly(coeffs)


def adjacency_matrix(n: int, edges) -> list[list[int]]:
    """The n x n 0/1 adjacency matrix of an undirected simple graph."""
    m = [[0] * n for _ in range(n)]
    for u, v in edges:
        m[u][v] = m[v][u] = 1
    return m


def char_poly_determinant(matrix) -> IntPoly:
    """Characteristic polynomial det(xI - A) of an integer matrix by
    Faddeev-LeVerrier: M_1 = A, c_1 = -tr A, and M_k = A (M_(k-1) +
    c_(k-1) I), c_k = -tr(M_k) / k.  Every division is exact for an
    integer matrix.  Works on any graph, cycles included, and shares
    nothing with the matching fold."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    m = [row[:] for row in a]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                m[i][i] += coeffs[n - k + 1]
            m = [[sum(a[i][j] * m[j][l] for j in range(n)) for l in range(n)]
                 for i in range(n)]
        c, r = divmod(-sum(m[i][i] for i in range(n)), k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division failed")
        coeffs[n - k] = c
    return IntPoly(coeffs)


def _divide_out(coeffs: list, t) -> tuple[int, list]:
    """(how often x - t divides, the quotient left) for ascending
    coefficients, by synthetic division repeated while the remainder is
    zero.  An int t keeps every coefficient an int."""
    mult = 0
    while len(coeffs) > 1:
        quot, acc = [], 0
        for c in reversed(coeffs):
            acc = acc * t + c
            quot.append(acc)
        if quot.pop():  # the remainder, p(t)
            break
        coeffs = quot[::-1]
        mult += 1
    return mult, coeffs


def rational_root_multiplicity(p: IntPoly, t) -> int:
    """Multiplicity of the rational number t as a root of p."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    return _divide_out(list(p.coeffs), Fraction(t))[0]


def integer_roots(p: IntPoly) -> SpectrumSummary:
    """All integer roots of a monic polynomial with their multiplicities,
    by the divisor scan: x^h is split off for the root 0, and every other
    integer root divides the lowest nonzero coefficient.  Candidates are
    tried as -1, 1, -2, 2, ..., the order TreeSpectrum.analyze lists its
    roots in, and the residual has no integer root left."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if not p.is_monic:
        raise ValueError("integer_roots requires a monic polynomial")
    h = 0
    while p.coeffs[h] == 0:
        h += 1
    q = list(p.coeffs[h:])
    roots = {0: h} if h else {}
    tail = abs(q[0])
    divisors = {c for d in range(1, isqrt(tail) + 1) if tail % d == 0
                for c in (d, tail // d)}
    for d in sorted(divisors):
        for k in (-d, d):
            mult, q = _divide_out(q, k)
            if mult:
                roots[k] = mult
    residual = IntPoly(q)
    return SpectrumSummary(roots=roots, residual=residual,
                           is_integral=residual.degree == 0, nullity=h)


def delete_vertex(tree: Tree, v: int) -> list[Tree]:
    """Connected components of tree - v, each relabeled 0..k-1 in the order
    of its original labels and built by the checked Tree constructor; the
    components come in the order of their smallest original label."""
    if not 0 <= v < tree.n:
        raise ValueError(f"vertex {v} out of range")
    seen = {v}
    components = []
    for start in range(tree.n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for u in comp:
            for w in tree.adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        comp.sort()
        index = {orig: i for i, orig in enumerate(comp)}
        components.append(Tree(len(comp), [
            (index[a], index[b]) for a in comp for b in tree.adj[a]
            if b in index and a < b]))
    return components


def prufer_tree(rng, n: int) -> Tree:
    """Uniformly random labeled tree of order n, decoded from a random
    Prufer sequence."""
    if n <= 2:
        return Tree(n, [(0, 1)] if n == 2 else [])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u = degree.index(1)
    edges.append((u, degree.index(1, u + 1)))
    return Tree(n, edges)


def rooted_code_by_shifting(tree: Tree, root: int) -> tuple[int, ...]:
    """Level sequence of the tree rooted at root, built bottom-up: a
    vertex's code is 0 followed by its children's codes, each shifted one
    level down, in decreasing order."""
    order, parent = tree.rooted_order(root)
    codes: list = [None] * tree.n
    for v in reversed(order):
        kids = [codes[w] for w in tree.adj[v] if parent[w] == v]
        shifted = sorted((tuple(d + 1 for d in k) for k in kids),
                         reverse=True)
        codes[v] = (0,) + tuple(chain.from_iterable(shifted))
    return codes[root]


def max_matching_brute(tree: Tree) -> int:
    return len(matchings_by_size(tree)) - 1


def labeled_tree_codes(n: int) -> set:
    """Canonical codes of every tree on n vertices, by exhausting parent
    sequences parent[v] < v (every isomorphism class admits such a labeling)."""
    if n == 1:
        return {Tree(1, []).canonical_code}
    codes = set()
    parents = [0] * n

    def rec(v: int):
        if v == n:
            codes.add(Tree(n, [(parents[i], i) for i in range(1, n)]).canonical_code)
            return
        for p in range(v):
            parents[v] = p
            rec(v + 1)

    rec(1)
    return codes


def is_free_tree_code(seq) -> bool:
    """Whether a level sequence is the canonical code of the tree it
    describes, by building the tree and computing its code."""
    return Tree.from_code(seq).canonical_code == tuple(seq)


def free_tree_codes_networkx(n: int) -> set:
    """Canonical codes of the free trees networkx generates (WROM
    algorithm, independent of this package's successor rule)."""
    import networkx as nx

    return {Tree(n, list(g.edges())).canonical_code
            for g in nx.nonisomorphic_trees(n)}


def free_tree_counts_by_recurrence(n_max: int) -> list[int]:
    """Free-tree counts from the rooted-tree counting recurrence.

    r(m+1) = (1/m) * sum_{k=1..m} (sum_{d|k} d r(d)) r(m-k+1);
    free(n) = r(n) - (1/2) sum_{i=1..n-1} r(i) r(n-i) + (r(n/2)/2 if n even).
    """
    r = [0] * (n_max + 1)
    r[1] = 1
    for m in range(1, n_max):
        total = Fraction(0)
        for k in range(1, m + 1):
            divisor_sum = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += divisor_sum * r[m - k + 1]
        value = total / m
        assert value.denominator == 1
        r[m + 1] = int(value)
    out = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        t = Fraction(r[n])
        t -= Fraction(sum(r[i] * r[n - i] for i in range(1, n)), 2)
        if n % 2 == 0:
            t += Fraction(r[n // 2], 2)
        assert t.denominator == 1
        out[n] = int(t)
    return out


def eccentricities(tree: Tree) -> list[int]:
    """All-pairs BFS eccentricities (for center cross-checks)."""
    out = []
    for src in range(tree.n):
        dist = [-1] * tree.n
        dist[src] = 0
        queue = [src]
        for u in queue:
            for w in tree.adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append(max(dist))
    return out


def _degree_square_sum(parent: list[int]) -> int:
    """Sum of the squared degrees of the tree of a parent array (-1 for the
    root), each degree counted as a vertex's children plus its parent."""
    children = Counter(parent)
    return sum((children[v] + (p >= 0)) ** 2 for v, p in enumerate(parent))


def _successor(seq: list[int]) -> Optional[list[int]]:
    """Next canonical rooted level sequence in decreasing lex order."""
    p = len(seq) - 1
    while p >= 0 and seq[p] < 2:
        p -= 1
    if p < 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = seq[:p]
    block = seq[q:p]
    while len(out) < len(seq):
        out.extend(block[: len(seq) - len(out)])
    return out


def _is_center_code(seq: list[int]) -> bool:
    """Whether a canonical rooted level sequence is the canonical code of
    the free tree it describes, i.e. rooted at the (larger) center.

    Canonical order puts the deepest subtree of every vertex first.  Let
    the root's second subtree start at position k (the second 1 in seq), and
    let its first branch reach depth H = max(seq) and its other branches
    depth d = max(seq[k:]).  The root has eccentricity H and vertex 1 has
    max(H - 1, d + 1).  With no second subtree the root is a leaf, which is
    no center once n > 2.  If d == H, two branches of depth H meet at the
    root, which is the only center.  If d < H - 1, vertex 1 has the smaller
    eccentricity, so the root is no center.  If d == H - 1, the diameter is
    2H - 1 and the centers are the root and vertex 1; the code is the larger
    of their rooted codes.  Rooted at vertex 1, the root's side comes first
    (it is deeper than any subtree of vertex 1), then the subtrees of
    vertex 1 in their order in seq.
    """
    if len(seq) <= 2:
        return True
    try:
        k = seq.index(1, 2)
    except ValueError:
        return False
    h = max(seq)
    d = max(seq[k:])
    if d == h:
        return True
    if d < h - 1:
        return False
    return seq >= [0, 1] + [x + 1 for x in seq[k:]] + [x - 1 for x in seq[2:k]]


def _doomed_run_end(seq: list[int]) -> Optional[list[int]]:
    """The end of the run of candidates, from seq on, whose root cannot be
    a center, or None when seq's root may be one; the walk goes on at the
    successor of the end.

    The root is a center only when the rest seq[k:] reaches depth H - 1,
    which takes H - 1 vertices.  A canonical code of height H starts
    0, 1, ..., H, because the deepest subtree comes first at every vertex;
    so max(seq[:i]) = min(i - 1, H), and a smaller rest is no deeper.

    Rule B (k + H - 1 > n): let i be the largest in [2, k) with
    n - i >= max(seq[:i]) - 1.  Every candidate from seq down to
    seq[:i+1] + [1]*(n-i-1) keeps seq[:i+1], so its second 1 comes after
    position i and its height is at least max(seq[:i+1]); by the choice of
    i (or, when i + 1 == k, as for seq itself) too few vertices are left
    for its rest.  Rule A (max(seq[k:]) < H - 1): every candidate from seq
    down to seq[:k] + [1]*(n-k) keeps seq[:k], hence k and H, and has a
    smaller, so no deeper, rest.
    """
    n = len(seq)
    try:
        k = seq.index(1, 2)
    except ValueError:
        k = n
    h = max(seq)
    if k + h - 1 > n:
        i = k - 1
        while n - i < min(i - 1, h) - 1:
            i -= 1
        return seq[:i + 1] + [1] * (n - i - 1)
    if k < n and max(seq[k:]) < h - 1:
        return seq[:k] + [1] * (n - k)
    return None
