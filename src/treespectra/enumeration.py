"""Isomorphism-free enumeration of all trees of a given order.

Canonical rooted level sequences are generated in lexicographically
decreasing order by the classic successor rule: with p the last position
of depth at least 2 and q its parent, seq[i] = seq[i - L] for i >= p, with
L = p - q, copies the block seq[q:p] cyclically over the tail.  One list is
rewritten in place, and with it the parent array: a copy of q is a sibling
of q (parent[i] = parent[q]), and any deeper vertex keeps its offset to its
parent in the block (parent[i] = parent[i - L] + L).  The enumerator's
parent attribute is that array, the parent array of the code it yielded
last; it is valid until the next step, and a caller must not keep it.
The degree attribute and degree_square_sum, the sum of the squared
degrees, follow the same rule.  They are built once, when a walk starts,
and then kept in step: a rewrite that moves vertex i from parent o to
parent w lowers degree[o] and raises degree[w] by 1, so the square sum
loses 2 d_o - 1 and gains 2 d_w + 1 (the degrees before the move).

With k the position of the second 1 (n if none), H = max(seq) and d =
max(seq[k:]), each computed at most once per candidate (k and H only when
a step rewrites seq[:k+1]), the root is a center only when the rest
seq[k:] reaches depth H - 1, which needs H - 1 vertices.  A canonical
code of height H starts 0, 1, ..., H, as the deepest subtree of every
vertex comes first, so max(seq[:i]) = min(i - 1, H).  Runs of candidates
whose root is no center are jumped over whole, by writing 1s over the
tail; the walk goes on at the successor of the run's end, which rewrites
the parent array from a position before the 1s.

- Rule B, the first subtree is too big (k + H - 1 > n, a leaf root
  included): with i the largest in [2, k) such that
  n - i >= max(seq[:i]) - 1, every candidate down to
  seq[:i+1] + [1]*(n-i-1) keeps seq[:i+1], so its second 1 comes after
  position i and too few vertices are left for its rest.
- Rule A, the rest is too shallow (d < H - 1): every candidate down to
  seq[:k] + [1]*(n-k) keeps seq[:k], hence k and H, and has a smaller, so
  no deeper, rest.

A candidate that neither rule jumps is a free tree's canonical code
exactly when its root is a center and, when vertex 1 is the other center,
the sequence is at least the code rooted there.  The root has eccentricity
H and vertex 1 has max(H - 1, d + 1).  If d == H, the root is the only
center.  Otherwise d == H - 1, the centers are the root and vertex 1, and
the code rooted at vertex 1 is [0, 1], the root's side shifted one level
down, then vertex 1's subtrees shifted one level up; it is compared entry
by entry with the sequence, up to the first difference, and never built.
So each isomorphism class appears once, as its canonical code.

Sharding hands out emitted trees round-robin by emission index, which keeps
shard unions exactly equal to the unsharded stream.  A walk's position is
the pair (sequence, emitted): the last candidate examined and the global
emission count.  A walk started from a position goes on with the rest of
the stream; the last candidate of a finished walk has no successor, so it
yields nothing.  The search owns the file that stores a position; this
module reads and writes none.  The enumerator yields
the canonical codes of the trees the shard owns, as tuples, and builds no
tree: a filter or a catalog record needs only the code and parent array.
enumerate_free_trees builds each Tree with the checked Tree.from_code.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .trees import Tree, code_parents, parent_degrees


class FreeTreeEnumerator:
    """Single-consumer stream of the canonical codes of all free trees of
    order n (one shard)."""

    def __init__(self, n: int, shard: tuple = (0, 1),
                 position: tuple = (None, 0)):
        if n < 1:
            raise ValueError("order must be at least 1")
        index, count = shard
        if count < 1 or not 0 <= index < count:
            raise ValueError(f"invalid shard {shard}")
        sequence, emitted = position
        if sequence is not None and len(sequence) != n:
            raise ValueError(f"position sequence is not of order {n}")
        if emitted < 0:
            raise ValueError("position count must be nonnegative")
        self.n = n
        self.shard = (index, count)
        self.parent: Optional[list] = None
        self.degree: Optional[list] = None
        self.degree_square_sum: Optional[int] = None
        self._seq = list(sequence) if sequence is not None else None
        self._emitted = emitted

    def position(self) -> tuple:
        """(sequence, emitted): the last candidate examined (None before
        the walk starts) and the count of trees emitted so far, across all
        shards.  An enumerator given it goes on with the rest of the
        stream; after the end, the last candidate has no successor."""
        seq = self._seq
        return (tuple(seq) if seq is not None else None, self._emitted)

    def __iter__(self) -> Iterator[tuple]:
        n = self.n
        index, count = self.shard
        if self._seq is None:
            seq, parent, step = list(range(n)), list(range(-1, n - 1)), False
        else:
            seq, parent, step = list(self._seq), code_parents(self._seq), True
        degree = parent_degrees(parent)
        square_sum = sum(d * d for d in degree)
        self._seq, self.parent, self.degree = seq, parent, degree
        p, k, h = 0, n, 0  # p <= k: the first candidate computes k and H
        while True:
            if step:
                p = n - 1
                while p and seq[p] < 2:
                    p -= 1
                if not p:
                    return
                q = parent[p]
                gap, top, up = p - q, seq[q], parent[q]
                for i in range(p, n):
                    depth = seq[i - gap]
                    seq[i] = depth
                    new = parent[i - gap] + gap if depth > top else up
                    old = parent[i]
                    if new != old:  # vertex i moves from old to new
                        parent[i] = new
                        d_old, d_new = degree[old], degree[new]
                        degree[old], degree[new] = d_old - 1, d_new + 1
                        square_sum += (2 * d_new + 1) - (2 * d_old - 1)
            step = True
            if p <= k:  # else seq[:k+1] is kept, and with it k, H and Rule B
                try:
                    k = seq.index(1, 2)
                except ValueError:
                    k = n
                h = max(seq)
                if k + h - 1 > n:  # Rule B
                    i = k - 1
                    while n - i < min(i - 1, h) - 1:
                        i -= 1
                    seq[i + 1:] = [1] * (n - i - 1)
                    continue
            if k < n:  # else n <= 2, and the root is a center
                d = max(seq[k:])
                if d < h - 1:  # Rule A
                    seq[k:] = [1] * (n - k)
                    continue
                if d < h:
                    # seq[2:] against the code rooted at vertex 1 past its
                    # [0, 1]: seq[k:] one level deeper, then seq[2:k] one
                    # level shallower; the first difference decides
                    shift = k - 2
                    for i in range(2, n):
                        j = i + shift
                        x = seq[j] + 1 if j < n else seq[j + 2 - n] - 1
                        if seq[i] != x:
                            break
                    if seq[i] < x:
                        continue  # the code rooted at vertex 1 is larger
            take = self._emitted % count == index
            self._emitted += 1
            if take:
                self.degree_square_sum = square_sum
                yield tuple(seq)


def enumerate_free_trees(n: int) -> Iterator[Tree]:
    """All free trees of order n, one per isomorphism class."""
    return map(Tree.from_code, FreeTreeEnumerator(n))
