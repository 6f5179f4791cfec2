"""Property tests of the Sturm root counts on polynomials built from chosen
roots (hypothesis, skipped when it is missing): every count is checked
against the one read off the roots themselves, endpoints on roots
included."""

from fractions import Fraction
from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from treespectra.polys import (IntPoly, RealRoot,  # noqa: E402
                               count_roots_above, count_roots_at_least,
                               count_roots_open, rational_root_multiplicity)

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
