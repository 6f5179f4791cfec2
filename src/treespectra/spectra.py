"""Characteristic polynomials of trees and the spectral statistics built on them.

A tree's characteristic polynomial is sum (-1)^k m_k x^(n-2k), with the
matching numbers m_k counted in one bottom-up pass of big-integer
products.  Tree spectra need no Sturm chain: the integer eigenvalues are
+-k with k^2 <= n-1 (the trace bound).  Printed records find them by
deflation in y = x^2 (the SpectrumSummary of TreeSpectrum.of, which takes
the polynomial and no Tree); verdicts read them off the inertia of A - tI,
the eigenvalues below and at a rational t, from an exact tree
diagonalisation (Jacobs-Trevisan) kept in integer pairs.  By Sylvester's
law of inertia those counts are certificates, and the counts at t = 0, 1,
..., isqrt(n-1) decide integrality without the polynomial.
The trace moments tr A^2 and tr A^4 depend only on the order and the
degrees, and they may rule integrality out before any count
(_moments_admit); a search with no nullity to cross-check tries them
first, on the sum of squared degrees the enumerator keeps in step with
its parent array.  These folds take no Tree: they take a bottom-up order and a parent
array, which the public functions get from Tree.rooted_order() and the
search and the verifier from the enumerator (range(n) and
FreeTreeEnumerator.parent), so they build no Tree to filter or to record.
_char_poly and _signature also take a forest, an order with several roots,
such as T - v, which trees.without_vertex cuts from the order the caller
already folds; the others take trees only.  Sturm chains stay for general
polynomials, such as the eigenvalue comparisons below.  The one non-tree
graph needed anywhere (a cycle with two pendants) gets its polynomial from
tree polynomials by Schwenk's edge formula, so the matching fold is the
only characteristic-polynomial algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Sequence

from .polys import (DivisibilityError, IntPoly, RealRoot, _as_fraction,
                    _deflate, _slot_width, _unpack, compare_sum, even_part,
                    lift_square, taylor_shift)
from .trees import (Tree, attach_pendants, bipartition, grow, path,
                    without_vertex)


def clear_char_poly_cache() -> None:
    """Do nothing: char_poly keeps no memo.  A memo keyed on canonical codes
    cost a canonical code for every tree the package builds itself, and
    leaving it out measured no slower.  The function stays only because
    the benchmark's workloads still call it."""


def char_poly(tree: Tree) -> IntPoly:
    """Monic characteristic polynomial of the tree's adjacency matrix,
    sum over k of (-1)^k m_k x^(n-2k) with m_k the k-edge matchings."""
    return _char_poly(*tree.rooted_order())


def _char_poly(order, parent: list) -> IntPoly:
    """char_poly of the tree or forest on one rooted order (1 for an empty
    one): n = len(order) and the m_k of its matchings."""
    n = len(order)
    phi = [0] * (n + 1)
    for k, m in enumerate(_matching_numbers(order, parent)):
        phi[n - 2 * k] = -m if k & 1 else m
    return IntPoly(phi)


def _matching_numbers(order, parent: list) -> list[int]:
    """[m_0, m_1, ...]: the k-edge matchings of a tree or forest, by one
    bottom-up pass on a rooted order.

    A polynomial in the matching size is held as one int, its value at
    x = 2^w (polys._slot_width, _unpack).  For v with children c, let A_c
    count the matchings of c's subtree and B_c those that leave c
    uncovered.  Then B_v = P = prod A_c, and a matching that covers v uses
    one edge vc: S = sum B_c prod_{c' != c} A_c' counts the rest of it, so
    A_v = P + (S << w), S shifted up one size.  P and S are updated child
    by child: S <- S*A_c + P*B_c, then P <- P*A_c.  The forest's matchings
    are the product of the A of its roots.

    Evaluation at 2^w is a ring map, so the int at the end is the matching
    polynomial's value there, and one unpack reads it exactly when every
    m_k lies in [0, 2^w).  Each m_k is at most the forest's total matching
    count Z, and a forest G on j vertices has Z(G) <= F(j+1), F(i) the
    Fibonacci numbers: take a leaf u with neighbour p, then Z(G) =
    Z(G - u) + Z(G - u - p), and induct (with no leaf, no edge and Z = 1).
    So w = F(n+1).bit_length(), n = len(order), keeps the slots apart.
    """
    w = _slot_width(len(order))
    prod = [1] * len(parent)  # P of each vertex so far
    cover = [0] * len(parent)  # S of each vertex so far
    out = 1
    for v in reversed(order):
        a = prod[v] + (cover[v] << w)
        u = parent[v]
        if u < 0:
            out *= a
        else:
            cover[u] = cover[u] * a + prod[u] * prod[v]
            prod[u] *= a
    return _unpack(out, w)


def char_poly_ring_with_pendants(extra: int = 0) -> IntPoly:
    """Exact characteristic polynomial of a cycle of length 6+extra with two
    pendant vertices attached to one cycle vertex.

    extra=0 is the 8-vertex graph whose largest eigenvalue is exactly sqrt(5);
    each increment corresponds to one subdivision of a cycle edge.

    Schwenk's edge formula on the cycle edge e = {0, c-1}, c = 6+extra:
    phi(G) = phi(G-e) - phi(G-0-(c-1)) - 2 phi(G-cycle).  G-e is a tree,
    the path 0..c-1 with two leaves at 0; G-0-(c-1) is the path P_(c-2)
    beside the two pendants, and G-cycle is the two pendants alone, so
    phi(G) = phi(G-e) - x^2 (phi(P_(c-2)) + 2).
    """
    if extra < 0:
        raise ValueError("extra must be nonnegative")
    cycle = 6 + extra
    return char_poly(grow(path(cycle), [0, 0])) - IntPoly.monomial(2) * (
        char_poly(path(cycle - 2)) + IntPoly.const(2))


# ---------------------------------------------------------------------------
# spectral statistics


def inertia(tree: Tree, t) -> tuple[int, int]:
    """(eigenvalues below t, multiplicity of t), both with multiplicity, for
    a rational t, an int or a Fraction: the negative and zero counts of a
    diagonal matrix congruent to A - tI (Sylvester's law of inertia)."""
    t = _as_fraction(t)
    order, parent = tree.rooted_order()
    return _signature(order, parent, t.numerator, t.denominator)


def _signature(order: list, parent: list, num: int, den: int
               ) -> tuple[int, int]:
    """inertia at t = num/den on one rooted order of a tree or a forest.

    The diagonal comes from the Jacobs-Trevisan tree diagonalisation: every
    vertex starts at -t, and bottom-up each vertex v subtracts 1/d(c) for
    its children c.  If some child has d(c) = 0, that child becomes 2, v
    becomes -1/2 and the edge from v to its parent is dropped, so v adds
    nothing to its parent.  Each d(v) is kept as an integer pair a/b with
    no gcd: a/b - 1/(a_c/b_c) = (a a_c - b b_c) / (b a_c), so the sign of
    d(v) is the sign of a b and d(v) = 0 exactly when a = 0.
    """
    n = len(parent)
    a = [-num] * n
    b = [den] * n
    zero_child = [-1] * n
    below = at = 0
    for v in reversed(order):
        if zero_child[v] >= 0:
            # the zero child counted at 0 turns to 2, v to -1/2
            at -= 1
            below += 1
            continue
        av = a[v]
        p = parent[v]
        if av:
            bv = b[v]
            if (av < 0) != (bv < 0):
                below += 1
            if p >= 0:
                bp = b[p]
                a[p] = a[p] * av - bp * bv
                b[p] = bp * av
        else:
            at += 1
            if p >= 0:
                zero_child[p] = v
    return below, at


def inertia_integrality(tree: Tree) -> tuple[int, bool]:
    """(nullity, whether every eigenvalue is an integer); see _integrality."""
    return _integrality(*tree.rooted_order())


def _integrality(order, parent: list) -> tuple[int, bool]:
    """(nullity, whether every eigenvalue is an integer), from the inertia
    of A - kI for k = 0, 1, ..., isqrt(n-1) on one rooted order of a tree.

    The trace bound of TreeSpectrum.of puts every integer eigenvalue
    at +-k with k^2 <= n-1, and the spectrum is symmetric, so the tree is
    integral exactly when at(0) + 2 * sum of at(k) over those k is n.  An
    eigenvalue in (k-1, k) shows as below(k) != below(k-1) + at(k-1) and
    ends the test early; so does reaching n.
    """
    n = len(order)
    below, nullity = _signature(order, parent, 0, 1)
    counted = nullity
    last = below + nullity
    for k in range(1, isqrt(n - 1) + 1):
        if counted == n:
            break
        below, at = _signature(order, parent, k, 1)
        if below != last:
            return nullity, False
        counted += 2 * at
        last = below + at
    return nullity, counted == n


@lru_cache(maxsize=None)
def _moments_admit(n: int, degree_square_sum: int) -> bool:
    """Whether the trace moments of a tree of order n allow an integral
    spectrum: nonnegative integers a_k, the multiplicity of each of +-k for
    k = 1..isqrt(n-1), with sum a_k k^2 = n - 1 (half of tr A^2), sum a_k
    k^4 = degree_square_sum - (n - 1) (half of tr A^4, as a tree has no
    4-cycle) and 2 sum a_k <= n.  A False is a certificate that some
    eigenvalue is not an integer."""
    def fits(k: int, two: int, four: int, pairs: int) -> bool:
        if k <= 1:
            return two == four <= pairs
        k2 = k * k
        k4 = k2 * k2
        return any(fits(k - 1, two - a * k2, four - a * k4, pairs - a)
                   for a in range(min(two // k2, four // k4, pairs) + 1))

    return fits(isqrt(n - 1), n - 1, degree_square_sum - (n - 1), n // 2)


def m_value(tree: Tree) -> int:
    """Eigenvalues in the open interval (-1, 1), counted with multiplicity."""
    return _m_value(*tree.rooted_order())


def _m_value(order, parent: list) -> int:
    """m_value on one rooted order of a tree.  The spectrum is symmetric,
    so as many eigenvalues lie at or below -1 as at or above 1, which
    leaves 2 * (eigenvalues below 1) - n in (-1, 1)."""
    return 2 * _signature(order, parent, 1, 1)[0] - len(order)


def nullity_matching(tree: Tree) -> int:
    """Nullity as order minus twice the maximum matching size."""
    return _matching_nullity(*tree.rooted_order())


def _matching_nullity(order, parent: list) -> int:
    """nullity_matching on one rooted order of a tree (the root first,
    every vertex after its parent).  Bottom-up, each vertex still free is
    matched to its parent if that is free too: a leaf of what is left is
    always matchable to its neighbor without loss, so the matching is
    maximum."""
    free = bytearray([1]) * len(parent)
    unmatched = len(parent)
    for v in order[:0:-1]:
        p = parent[v]
        if free[v] and free[p]:
            free[v] = free[p] = 0
            unmatched -= 2
    return unmatched


@dataclass(frozen=True)
class SpectrumSummary:
    """Integer roots with multiplicities plus the unfactored residual."""

    roots: dict
    residual: IntPoly
    is_integral: bool
    nullity: int

    def reassemble(self) -> IntPoly:
        out = self.residual
        x = IntPoly.x()
        for k, m in self.roots.items():
            out = out * (x - IntPoly.const(k)) ** m
        return out


@dataclass(frozen=True)
class TreeSpectrum:
    """Bundle of the spectral facts the search and verifier care about."""

    char_poly: IntPoly
    summary: SpectrumSummary

    @classmethod
    def analyze(cls, tree: Tree) -> "TreeSpectrum":
        """TreeSpectrum.of the tree's characteristic polynomial."""
        return cls.of(char_poly(tree))

    @classmethod
    def of(cls, phi: IntPoly) -> "TreeSpectrum":
        """Integer roots of a tree's polynomial phi with multiplicities,
        found in y = x^2 and listed as 0, -1, 1, -2, 2, ...

        With phi = x^h q(x^2), an integer root +-k != 0 of phi is a root
        k^2 of q, and both signs have its multiplicity there.  The trace
        bound limits k: tr A^2 = 2(n-1) is the sum of the squared
        eigenvalues, and the spectrum is symmetric, so an eigenvalue
        lambda != 0 and its mirror -lambda give 2 lambda^2 <= 2(n-1).
        Hence deflating q by y - k^2 for k = 1..isqrt(n-1) removes every
        integer root, and what is left is the residual.
        """
        h, q = even_part(phi)
        roots: dict = {0: h} if h else {}
        q = list(q.coeffs)
        for k in range(1, isqrt(phi.degree - 1) + 1):
            mult, q = _deflate(q, k * k)
            if mult:
                roots[-k] = roots[k] = mult
        summary = SpectrumSummary(roots=roots, residual=lift_square(q),
                                  is_integral=len(q) == 1, nullity=h)
        return cls(char_poly=phi, summary=summary)


# ---------------------------------------------------------------------------
# the attachment identity


def join_formula(t1: Tree, v1: int, t2: Tree, v2: int, k: int) -> IntPoly:
    """phi of the tree made by joining v1 to the v2 of k copies of t2:

        phi(T2)^(k-1) * (phi(T1) phi(T2) - k phi(T1-v1) phi(T2-v2))
    """
    if k < 1:
        raise ValueError("need k >= 1")
    o1, o2 = t1.rooted_order(), t2.rooted_order()
    p1, p2 = _char_poly(*o1), _char_poly(*o2)
    q1 = _char_poly(*without_vertex(*o1, v1))
    q2 = _char_poly(*without_vertex(*o2, v2))
    return (p2 ** (k - 1)) * (p1 * p2 - k * (q1 * q2))


# ---------------------------------------------------------------------------
# exact comparisons of eigenvalues


def courant_weyl_check(tree: Tree, spec: Sequence[tuple[int, int]]) -> list[bool]:
    """Certify lambda_i(T') >= sqrt(s_i + 1) + lambda_n(T) for i = 1..k,
    where T' attaches s_i pendant length-2 paths at the i-th spec vertex and
    the spec is taken in nonincreasing order of s.

    Each entry is one exact compare_sum: the three isolating intervals are
    refined until they separate, a tie is certified at every width by a
    common root of phi(T') and the sum polynomial, and PrecisionExhausted
    is raised beyond the width cap.
    """
    if not spec:
        raise ValueError("empty attachment spec")
    ordered = sorted(spec, key=lambda it: -it[1])
    phi_grown = char_poly(attach_pendants(tree, ordered))
    lam_min = RealRoot(char_poly(tree), tree.n)
    return [compare_sum(RealRoot(phi_grown, i),
                        RealRoot(IntPoly((-(s + 1), 0, 1)), 1), lam_min) >= 0
            for i, (_, s) in enumerate(ordered, start=1)]


# ---------------------------------------------------------------------------
# squared-eigenvalue shift


def squared_shift_check(tree: Tree, side: int, r: int) -> bool:
    """Attach r new leaves to every vertex of one bipartition class and
    verify that the k largest squared eigenvalues each move up by exactly r
    (k = number of positive eigenvalues of the original tree).

    Every root of q_grown is real, so its k largest roots are the roots of
    shifted = q_base(y - r) exactly when shifted divides q_grown and the
    cofactor's largest root is at or below shifted's k-th root.
    """
    if side not in (0, 1):
        raise ValueError("side selects bipartition class 0 or 1")
    if r < 0:
        raise ValueError("r must be nonnegative")
    cls = bipartition(tree)[side]
    if not cls:
        raise ValueError("empty bipartition class")
    grown = grow(tree, [v for v in cls for _ in range(r)])

    _, q_base = even_part(char_poly(tree))
    _, q_grown = even_part(char_poly(grown))
    k = q_base.degree
    if k == 0:
        return True
    shifted = taylor_shift(q_base, r)

    try:
        cof = q_grown.exact_divide(shifted)
    except DivisibilityError:
        return False
    return (cof.degree == 0
            or RealRoot(cof, 1).compare(RealRoot(shifted, k)) <= 0)
