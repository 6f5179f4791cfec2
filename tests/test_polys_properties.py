"""Property tests (hypothesis, skipped when it is missing) of the Sturm
root counts on polynomials built from chosen roots, every count checked
against the one read off the roots themselves, endpoints on roots
included; and of IntPoly's arithmetic against sympy.Poly (skipped when
sympy is missing)."""

from fractions import Fraction
from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import rational_root_multiplicity  # noqa: E402
from treespectra.polys import (DivisibilityError, IntPoly,  # noqa: E402
                               RealRoot, count_roots_above,
                               count_roots_at_least, count_roots_open)

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
NONSQUARES = st.integers(min_value=2, max_value=30).filter(
    lambda m: isqrt(m) ** 2 != m)


def _side(root, t: Fraction) -> int:
    """Sign of root - t, for a rational root or a pair (s, m) standing for
    s * sqrt(m) with m nonsquare, which is never equal to t."""
    if isinstance(root, Fraction):
        return (root > t) - (root < t)
    s, m = root
    if s > 0:
        return 1 if t < 0 or t * t < m else -1
    return -1 if t > 0 or t * t < m else 1


@st.composite
def chosen_roots(draw):
    """(p, {real root: multiplicity}) for p = c * prod (den x - num)^mult
    * prod (x^2 - m) * prod (x^2 + c')."""
    p = IntPoly.const(draw(st.sampled_from((1, -1, 2, -3))))
    roots: dict = {}
    for t, mult in draw(st.lists(st.tuples(RATIONALS, st.integers(1, 3)),
                                 max_size=4)):
        p = p * IntPoly((-t.numerator, t.denominator)) ** mult
        roots[t] = roots.get(t, 0) + mult
    for m in draw(st.lists(NONSQUARES, max_size=2)):
        p = p * IntPoly((-m, 0, 1))
        for s in (1, -1):
            roots[(s, m)] = roots.get((s, m), 0) + 1
    for c in draw(st.lists(st.integers(min_value=1, max_value=9), max_size=1)):
        p = p * IntPoly((c, 0, 1))
    return p, roots


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(chosen_roots(), st.data())
def test_sturm_counts_match_the_chosen_roots(built, data):
    p, roots = built
    rational = [r for r in roots if isinstance(r, Fraction)]
    point = st.one_of(RATIONALS, st.sampled_from(rational)) if rational else RATIONALS
    lo, hi = sorted(data.draw(st.lists(point, min_size=2, max_size=2,
                                       unique=True)))

    def count(keep) -> tuple[int, int]:
        kept = [mult for r, mult in roots.items() if keep(r)]
        return sum(kept), len(kept)

    assert count_roots_open(p, lo, hi) == count(
        lambda r: _side(r, lo) > 0 > _side(r, hi))
    real = sum(roots.values())
    for t in (lo, hi):
        above = count(lambda r: _side(r, t) > 0)
        at_least = count(lambda r: _side(r, t) >= 0)[0]
        assert count_roots_above(p, t) == above
        assert count_roots_at_least(p, t) == at_least
        assert rational_root_multiplicity(p, t) == roots.get(t, 0)
        for k in range(1, real + 1):
            # the k-th largest root is above t when k roots are, and is t
            # when the roots at t close the count to k
            expected = 1 if above[0] >= k else 0 if at_least >= k else -1
            root = RealRoot(p, k)
            assert root.compare(t) == expected, (p, k, t)
            assert root.refine(Fraction(1, 64)).compare(t) == expected


# ---------------------------------------------------------------------------
# IntPoly arithmetic against sympy.Poly

POLYS = st.lists(st.integers(min_value=-60, max_value=60),
                 max_size=7).map(IntPoly)


def _sympy():
    return pytest.importorskip("sympy")


def as_sympy(p: IntPoly):
    sympy = _sympy()
    return sympy.Poly(list(reversed(p.coeffs)) or [0], sympy.Symbol("x"),
                      domain="ZZ")


def from_sympy(poly) -> IntPoly:
    return IntPoly(int(c) for c in reversed(poly.all_coeffs()))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(POLYS, POLYS, st.integers(min_value=0, max_value=4))
def test_ring_operations_match_sympy(a, b, k):
    sa, sb = as_sympy(a), as_sympy(b)
    assert a + b == from_sympy(sa + sb)
    assert a - b == from_sympy(sa - sb)
    assert a * b == from_sympy(sa * sb)
    assert a ** k == from_sympy(sa ** k)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(POLYS, POLYS, POLYS)
def test_exact_divide_matches_sympy(a, b, c):
    hypothesis.assume(not b.is_zero)
    # a * b is divisible by b; a + c, in general, is not
    assert (a * b).exact_divide(b) == a
    quot, rem = as_sympy(a + c).div(as_sympy(b))
    if rem.is_zero and all(q.is_integer for q in quot.all_coeffs()):
        assert (a + c).exact_divide(b) == from_sympy(quot)
    else:
        with pytest.raises(DivisibilityError):
            (a + c).exact_divide(b)
    with pytest.raises(ZeroDivisionError):
        a.exact_divide(IntPoly.zero())


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(POLYS, st.one_of(st.integers(-20, 20), RATIONALS))
def test_evaluate_matches_sympy(p, t):
    sympy = _sympy()
    value = as_sympy(p).eval(sympy.Rational(t.numerator, t.denominator))
    assert p.evaluate(t) == Fraction(int(value.p), int(value.q))
