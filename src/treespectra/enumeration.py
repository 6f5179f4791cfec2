"""Isomorphism-free enumeration of all trees of a given order.

Canonical rooted level sequences are generated in lexicographically
decreasing order by the classic successor rule (copy the block between the
deepest vertex and its parent cyclically over the tail).  A candidate is
emitted as a free tree exactly when its root is a center and, when vertex 1
is the other center, the sequence is at least the code rooted there; both
are read off the depths of the root's first two subtrees, so each
isomorphism class appears once, as its canonical code.

Runs of candidates that cannot be center-rooted are jumped over whole.  With
k the position of the second 1 (n if none) and H = max(seq), the root is a
center only when the rest seq[k:] reaches depth H - 1, which needs H - 1
vertices:

- Rule A, the rest is too shallow (max(seq[k:]) < H - 1): every later
  candidate with the prefix seq[:k] has a smaller rest, which is no deeper.
- Rule B, the first subtree is too big (k + H - 1 > n, a leaf root
  included): every candidate that keeps a long enough prefix of the first
  subtree leaves too few vertices for the rest.

Sharding hands out emitted trees round-robin by emission index, which keeps
shard unions exactly equal to the unsharded stream.  The enumerator yields
the canonical codes of the trees the shard owns, as tuples; a caller that
needs the Tree builds it from the code, which the tree keeps as its
canonical code (enumerate_free_trees does so for every code).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional

from .trees import Tree


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


@dataclass
class EnumerationCursor:
    """Restart point: the last candidate sequence examined plus the global
    count of trees emitted so far (across all shards)."""

    n: int
    sequence: Optional[tuple]
    emitted: int
    exhausted: bool
    shard: tuple

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "sequence": list(self.sequence) if self.sequence is not None else None,
            "emitted": self.emitted,
            "exhausted": self.exhausted,
            "shard": list(self.shard),
        })

    @classmethod
    def from_json(cls, text: str) -> "EnumerationCursor":
        data = json.loads(text)
        seq = data["sequence"]
        return cls(n=int(data["n"]),
                   sequence=tuple(seq) if seq is not None else None,
                   emitted=int(data["emitted"]),
                   exhausted=bool(data["exhausted"]),
                   shard=tuple(data["shard"]))


class FreeTreeEnumerator:
    """Single-consumer stream of the canonical codes of all free trees of
    order n (one shard)."""

    def __init__(self, n: int, shard: tuple = (0, 1),
                 cursor: Optional[EnumerationCursor] = None):
        if n < 1:
            raise ValueError("order must be at least 1")
        index, count = shard
        if count < 1 or not 0 <= index < count:
            raise ValueError(f"invalid shard {shard}")
        self.n = n
        self.shard = (index, count)
        if cursor is not None:
            if cursor.n != n or tuple(cursor.shard) != self.shard:
                raise ValueError("cursor does not match enumerator parameters")
            self._seq = list(cursor.sequence) if cursor.sequence is not None else None
            self._emitted = cursor.emitted
            self._exhausted = cursor.exhausted
        else:
            self._seq = None
            self._emitted = 0
            self._exhausted = False

    def cursor(self) -> EnumerationCursor:
        return EnumerationCursor(
            n=self.n,
            sequence=tuple(self._seq) if self._seq is not None else None,
            emitted=self._emitted,
            exhausted=self._exhausted,
            shard=self.shard,
        )

    def __iter__(self) -> Iterator[tuple]:
        if self._exhausted:
            return
        index, count = self.shard
        seq = self._seq
        while True:
            seq = list(range(self.n)) if seq is None else _successor(seq)
            if seq is None:
                self._exhausted = True
                return
            doomed = _doomed_run_end(seq)
            if doomed is not None:
                seq = doomed
                continue
            self._seq = seq
            if _is_center_code(seq):
                take = self._emitted % count == index
                self._emitted += 1
                if take:
                    yield tuple(seq)


def enumerate_free_trees(n: int, shard: tuple = (0, 1)) -> Iterator[Tree]:
    """All free trees of order n, one per isomorphism class."""
    return map(Tree._from_canonical_code, FreeTreeEnumerator(n, shard))
