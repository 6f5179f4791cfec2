"""Independent reference implementations used to cross-check the library.

Nothing here shares code paths with the package internals being tested:
characteristic polynomials come from matching counts, tree counts come from
labeled-tree dedup and from the rooted-tree counting recurrence, free-tree
codes come from networkx and from building each candidate tree, and maximum
matchings come from subset enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations

from treespectra.polys import IntPoly
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


def char_poly_from_matchings(tree: Tree) -> IntPoly:
    """For forests the characteristic polynomial is determined by matching
    counts: sum over k of (-1)^k m_k x^(n-2k)."""
    n = tree.n
    coeffs = [0] * (n + 1)
    for k, m in enumerate(matchings_by_size(tree)):
        coeffs[n - 2 * k] = (-1) ** k * m
    return IntPoly(coeffs)


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
