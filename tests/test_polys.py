import math
import random
from fractions import Fraction

import pytest

from oracles import integer_roots, rational_root_multiplicity
from treespectra import polys
from treespectra.polys import (DivisibilityError, IntPoly, PrecisionExhausted,
                               RealRoot, SymmetryError, compare_sum,
                               count_roots_above, count_roots_at_least,
                               count_roots_open, even_part, poly_gcd,
                               root_bound, square_free_decomposition,
                               taylor_shift, _sum_poly)
from treespectra.enumeration import enumerate_free_trees
from treespectra.spectra import char_poly
from treespectra.verifier import run_suite

X = IntPoly.x()


def lin(k):
    return IntPoly((-k, 1))


class TestArithmetic:
    def test_square_of_quadratic(self):
        p = IntPoly((-1, 0, 1))
        assert p * p == IntPoly((1, 0, -2, 0, 1))

    def test_exact_divide(self):
        assert IntPoly((0, -1, 0, 1)).exact_divide(X) == IntPoly((-1, 0, 1))

    def test_exact_divide_failure(self):
        with pytest.raises(DivisibilityError):
            IntPoly((-1, 0, 1)).exact_divide(IntPoly((-2, 1)))

    def test_pow_and_neg(self):
        assert (X - IntPoly.one()) ** 2 == IntPoly((1, -2, 1))
        assert -X == IntPoly((0, -1))

    def test_scalar_multiply(self):
        assert 3 * X == IntPoly((0, 3))
        assert X * 0 == IntPoly.zero()

    def test_zero_behavior(self):
        z = IntPoly.zero()
        assert z.degree == -1 and z.is_zero
        assert z + X == X and X * z == z

    def test_evaluate_fraction(self):
        p = IntPoly((-1, 0, 1))
        assert p.evaluate(Fraction(1, 2)) == Fraction(-3, 4)

    def test_text_roundtrip(self):
        p = IntPoly((-1, 0, 1))
        assert p.to_text() == "-1,0,1"
        assert IntPoly.from_text("-1,0,1") == p

    def test_text_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(50):
            p = IntPoly([rng.randrange(-10 ** 6, 10 ** 6)
                         for _ in range(rng.randrange(0, 8))])
            assert IntPoly.from_text(p.to_text()) == p
        assert IntPoly.zero().to_text() == ""
        assert IntPoly.from_text("") == IntPoly.zero()

    @pytest.mark.parametrize("text", ["1,,2", " , ", ",", "1,", " "])
    def test_text_empty_field_refused(self, text):
        with pytest.raises(ValueError):
            IntPoly.from_text(text)

    @pytest.mark.parametrize("operation", [
        lambda p: p * 2.5, lambda p: 2.5 * p, lambda p: p * Fraction(1, 2),
        lambda p: Fraction(1, 2) * p, lambda p: p + 3, lambda p: 3 + p,
        lambda p: p - 1, lambda p: p + 0.5],
        ids=["p*float", "float*p", "p*Fraction", "Fraction*p", "p+int",
             "int+p", "p-int", "p+float"])
    def test_non_polynomial_operand_refused(self, operation):
        # a TypeError from Python's operator protocol, not an
        # AttributeError on the operand's missing coeffs
        with pytest.raises(TypeError, match="unsupported operand"):
            operation(IntPoly((1, 2)))
        assert IntPoly((1, 2)) * 3 == 3 * IntPoly((1, 2)) == IntPoly((3, 6))

    def test_str_form(self):
        assert str(IntPoly((1, 0, -3, 0, 1))) == "x^4 - 3x^2 + 1"

    @pytest.mark.parametrize("coeffs", [(Fraction(-1, 3), 1), (2.7,)])
    def test_non_integer_coefficient_refused(self, coeffs):
        # no silent truncation to x or 2
        with pytest.raises(TypeError):
            IntPoly(coeffs)


class TestGcdSquareFree:
    def test_gcd_shared_factor(self):
        a = lin(1) * lin(-2) ** 2
        b = lin(1) ** 2 * lin(-2)
        assert poly_gcd(a, b) == lin(1) * lin(-2)

    def test_gcd_coprime(self):
        assert poly_gcd(lin(1), lin(2)).degree == 0

    def test_gcd_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(29)

        def draw(degree):
            # nonzero leading coefficient of either sign, non-monic at will
            return IntPoly([rng.randrange(-9, 10) for _ in range(degree)]
                           + [rng.choice((-3, -2, -1, 1, 2, 3))])

        pairs = [
            (IntPoly.zero(), IntPoly.zero()),
            (IntPoly.zero(), IntPoly((4, -2))),
            (IntPoly((-6, 0, 6)), IntPoly.zero()),
            (IntPoly.const(6), IntPoly((1, 0, 1))),
            (IntPoly.const(-4), IntPoly.const(6)),
            (-(lin(1) * lin(-2)), IntPoly((3, -3))),
            (IntPoly((-1, 0, 1)), IntPoly((1, 2, 1))),
            (IntPoly((-1, 2)) * IntPoly((1, 3)), IntPoly((-1, 2)) * lin(-5)),
        ]
        for _ in range(60):
            common = draw(rng.randrange(0, 3))
            pairs.append((common * draw(rng.randrange(0, 4)),
                          common * draw(rng.randrange(0, 4))))
        for p, q in pairs:
            expected = sympy.gcd(
                sympy.Poly(sum(c * x ** i for i, c in enumerate(p.coeffs)),
                           x, domain="ZZ"),
                sympy.Poly(sum(c * x ** i for i, c in enumerate(q.coeffs)),
                           x, domain="ZZ"))
            expected = IntPoly(expected.all_coeffs()[::-1]).primitive()
            assert poly_gcd(p, q) == expected == poly_gcd(q, p)

    def test_square_free_cube(self):
        assert square_free_decomposition(IntPoly((0, 0, 0, 1))) == [(X, 3)]

    def test_square_free_random_products(self):
        rng = random.Random(5)
        for _ in range(25):
            roots = rng.sample(range(-6, 7), k=rng.randrange(1, 4))
            mults = [rng.randrange(1, 4) for _ in roots]
            p = IntPoly.one()
            for r, m in zip(roots, mults):
                p = p * lin(r) ** m
            rebuilt = IntPoly.one()
            for factor, mult in square_free_decomposition(p):
                rebuilt = rebuilt * factor ** mult
            assert rebuilt == p


class TestRootCounting:
    def test_quartic_two_in_unit_gap(self):
        p = IntPoly((1, 0, -3, 0, 1))
        assert count_roots_open(p, -1, 1) == (2, 2)

    def test_unit_roots_excluded(self):
        assert count_roots_open(IntPoly((-1, 0, 1)), -1, 1) == (0, 0)

    def test_triple_zero(self):
        rc = count_roots_open(IntPoly((0, 0, 0, 1)), -1, 1)
        assert rc.with_multiplicity == 3 and rc.distinct == 1

    def test_constructed_roots(self):
        rng = random.Random(11)
        for _ in range(30):
            roots = sorted(rng.sample(range(-8, 9), k=rng.randrange(1, 5)))
            mults = {r: rng.randrange(1, 3) for r in roots}
            p = IntPoly.one()
            for r in roots:
                p = p * lin(r) ** mults[r]
            a = Fraction(rng.randrange(-20, 18), 2)
            b = a + Fraction(rng.randrange(1, 12), 2)
            inside = [r for r in roots if a < r < b]
            rc = count_roots_open(p, a, b)
            assert rc.distinct == len(inside)
            assert rc.with_multiplicity == sum(mults[r] for r in inside)

    def test_interval_additivity(self):
        p = lin(0) * lin(1) ** 2 * lin(3)
        a, b, c = Fraction(-1), Fraction(1), Fraction(4)
        left = count_roots_open(p, a, b).with_multiplicity
        right = count_roots_open(p, b, c).with_multiplicity
        at_b = rational_root_multiplicity(p, b)
        assert left + right + at_b == count_roots_open(p, a, c).with_multiplicity

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            count_roots_open(IntPoly.zero(), 0, 1)

    @pytest.mark.parametrize("point", [math.sqrt(2), 1.0, "7/5", None])
    def test_inexact_points_refused(self, point):
        # math.sqrt(2) is a binary rational just above sqrt 2; read as an
        # exact point, it put sqrt 2 below itself
        p = IntPoly((-2, 0, 1))
        root = RealRoot(p, 1)
        for call in (lambda: count_roots_open(p, point, 2),
                     lambda: count_roots_open(p, -2, point),
                     lambda: count_roots_above(p, point),
                     lambda: count_roots_at_least(p, point),
                     lambda: root.compare(point),
                     lambda: root.refine(point)):
            with pytest.raises(TypeError, match="cannot be interpreted as an"):
                call()
        assert root.compare(Fraction(7, 5)) == 1 and root.compare(2) == -1

    def test_plus_infinity_is_the_point_at_the_root_bound(self):
        # no root lies at or above root_bound(p), so the Sturm evaluation
        # there equals the one at +infinity, as RealRoot relies on
        seen = 0
        for n in range(1, 11):
            for tree in enumerate_free_trees(n):
                phi = char_poly(tree)
                for p in (phi, even_part(phi)[1]):
                    at_inf = polys._sturm_point(p, None)
                    assert at_inf == polys._sturm_point(
                        p, Fraction(root_bound(p)))
                    assert not any(zero for _, _, zero in at_inf)
                    seen += len(at_inf)
        assert seen > 0

    def test_no_root_at_or_above_the_bound(self):
        rng = random.Random(37)
        for _ in range(40):
            p = IntPoly([rng.randrange(-9, 10)
                         for _ in range(rng.randrange(1, 7))]
                        + [rng.choice((-2, -1, 1, 2))])
            b = root_bound(p)
            for t in (b, Fraction(2 * b + 1, 2), 10 ** 6):
                assert count_roots_above(p, t) == (0, 0)
                assert count_roots_at_least(p, t) == 0
            # control: every real root lies above -b
            assert count_roots_at_least(p, -b) == count_roots_open(
                p, -b, b).with_multiplicity
        for c in (1, -7):
            assert count_roots_above(IntPoly.const(c), -10 ** 6) == (0, 0)
            assert count_roots_at_least(IntPoly.const(c), -10 ** 6) == 0
        assert count_roots_at_least(lin(5), 5) == 1

    def test_rational_root_multiplicity(self):
        p = IntPoly((1, 2, 1)) * lin(3)
        assert rational_root_multiplicity(p, -1) == 2
        assert rational_root_multiplicity(p, 3) == 1
        assert rational_root_multiplicity(p, 0) == 0
        half = IntPoly((-1, 2))  # 2x - 1
        assert rational_root_multiplicity(half * half, Fraction(1, 2)) == 2


class TestIntegerRoots:
    def test_star_like_poly(self):
        p = IntPoly.monomial(3) * (X * X - IntPoly.const(4))
        summary = integer_roots(p)
        assert summary.roots == {0: 3, 2: 1, -2: 1}
        assert summary.is_integral and summary.nullity == 3
        assert summary.residual == IntPoly.one()

    def test_no_integer_roots(self):
        p = IntPoly((1, 0, -3, 0, 1))
        summary = integer_roots(p)
        assert summary.roots == {} and not summary.is_integral
        assert summary.residual == p

    def test_mixed_multiplicities(self):
        p = X * (X * X - IntPoly.const(4)) * (X * X - IntPoly.one()) ** 2
        summary = integer_roots(p)
        assert summary.roots == {0: 1, 1: 2, -1: 2, 2: 1, -2: 1}
        assert summary.is_integral

    def test_reassembly(self):
        rng = random.Random(3)
        for _ in range(25):
            p = IntPoly.one()
            for _ in range(rng.randrange(1, 4)):
                p = p * lin(rng.randrange(-5, 6))
            if rng.random() < 0.5:
                p = p * IntPoly((1, 1, 1))  # irreducible quadratic
            assert integer_roots(p).reassemble() == p

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            integer_roots(IntPoly((0, 2)))


class TestEvenPart:
    def test_odd_valuation(self):
        assert even_part(IntPoly((0, 0, 0, -4, 0, 1))) == (3, IntPoly((-4, 1)))

    def test_even_cycle_poly(self):
        h, q = even_part(IntPoly((-4, 0, 9, 0, -6, 0, 1)))
        assert h == 0 and q == IntPoly((-4, 9, -6, 1))

    def test_plain_quartic(self):
        assert even_part(IntPoly((1, 0, -3, 0, 1))) == (0, IntPoly((1, -3, 1)))

    def test_violation(self):
        with pytest.raises(SymmetryError):
            even_part(IntPoly((0, 1, 1)))

    def test_roundtrip(self):
        rng = random.Random(7)
        for _ in range(20):
            h = rng.randrange(0, 3)
            q = IntPoly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4))]
                        + [1])
            p = IntPoly.monomial(h) * IntPoly(
                [c if i % 2 == 0 else 0
                 for i, c in enumerate(_interleave(q.coeffs))])
            got_h, got_q = even_part(p)
            assert IntPoly.monomial(got_h) * _substitute_square(got_q) == p


def _interleave(coeffs):
    out = []
    for c in coeffs:
        out.extend((c, 0))
    return out[:-1]


def _substitute_square(q):
    out = IntPoly.zero()
    for i, c in enumerate(q.coeffs):
        out = out + IntPoly.monomial(2 * i, c)
    return out


class TestTaylorShift:
    def test_linear(self):
        assert taylor_shift(IntPoly((-1, 1)), 3) == IntPoly((-4, 1))

    def test_square(self):
        assert taylor_shift(IntPoly((0, 0, 1)), 1) == IntPoly((1, -2, 1))

    def test_negative_shift(self):
        assert taylor_shift(IntPoly((1, -3, 1)), -2) == IntPoly((-1, 1, 1))

    def test_involution(self):
        rng = random.Random(1)
        for _ in range(20):
            q = IntPoly([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))])
            if q.is_zero:
                continue
            r = rng.randrange(-5, 6)
            assert taylor_shift(taylor_shift(q, r), -r) == q


class TestIsolation:
    def test_rational_root_pinched(self):
        box = RealRoot(IntPoly((-4, 0, 1)), 1).refine(Fraction(1, 8))
        assert box.exact == 2
        assert box.lo < 2 < box.hi and box.hi - box.lo <= Fraction(1, 8)

    def test_second_root(self):
        box = RealRoot(IntPoly((-1, 0, 1)), 2).refine(Fraction(1, 4))
        assert box.exact == -1

    def test_sqrt5(self):
        box = RealRoot(IntPoly((-5, 0, 1)), 1).refine(Fraction(1, 64))
        assert box.exact is None and box.hi - box.lo <= Fraction(1, 64)
        assert 0 < box.lo and box.lo ** 2 < 5 < box.hi ** 2
        tight = RealRoot(IntPoly((-5, 0, 1)), 1).refine(Fraction(1, 512))
        assert Fraction(223, 100) < tight.lo < tight.hi < Fraction(224, 100)

    def test_index_too_large(self):
        with pytest.raises(ValueError):
            RealRoot(IntPoly((-1, 0, 1)), 3)

    def test_multiplicity_ranking(self):
        p = lin(2) * lin(1) ** 2
        assert RealRoot(p, 2).refine(Fraction(1, 4)).exact == 1
        assert RealRoot(p, 3).refine(Fraction(1, 4)).exact == 1
        assert RealRoot(p, 1).refine(Fraction(1, 4)).exact == 2

    def test_root_bound_contains_roots(self):
        rng = random.Random(9)
        for _ in range(20):
            p = IntPoly.one()
            for _ in range(rng.randrange(1, 5)):
                p = p * lin(rng.randrange(-9, 10))
            bound = root_bound(p)
            assert count_roots_open(p, -bound, bound).with_multiplicity == p.degree


def _random_real_rooted(rng):
    """Product of linear factors (some non-monic, so bisection midpoints can
    hit rational roots) and x^2 - m factors with nonsquare m."""
    p = IntPoly.one()
    for _ in range(rng.randrange(1, 5)):
        if rng.random() < 0.5:
            p = p * IntPoly((-rng.randrange(-7, 8), rng.choice((1, 1, 2, 3, 4))))
        else:
            p = p * IntPoly((-rng.choice((2, 3, 5, 6, 7, 10)), 0, 1))
    return p


class TestRealRoot:
    def test_stepwise_refinement_matches_fresh_isolation(self):
        rng = random.Random(2012)
        for _ in range(60):
            p = _random_real_rooted(rng)
            k = rng.randrange(1, p.degree + 1)
            widths = sorted((Fraction(1, rng.randrange(1, 5000))
                             for _ in range(rng.randrange(1, 5))), reverse=True)
            root = RealRoot(p, k)
            for w in widths:
                root.refine(w)
            fresh = RealRoot(p, k).refine(widths[-1])
            assert (root.lo, root.hi, root.exact) == (fresh.lo, fresh.hi,
                                                       fresh.exact), (p, k)

    def test_quartering_matches_fresh_isolation(self):
        root = RealRoot(IntPoly((-5, 0, 1)), 1)
        width = Fraction(1, 4)
        while width >= Fraction(1, 2 ** 20):
            root.refine(width)
            fresh = RealRoot(IntPoly((-5, 0, 1)), 1).refine(width)
            assert (root.lo, root.hi) == (fresh.lo, fresh.hi)
            width /= 4

    def test_same_validation_as_isolation(self):
        for p, k, message in ((IntPoly(), 1, "zero polynomial"),
                              (IntPoly((-1, 0, 1)), 0, "root index starts at 1"),
                              (IntPoly((-1, 0, 1)), 3, "only 2 real roots")):
            with pytest.raises(ValueError, match=message):
                RealRoot(p, k)

    def test_integer_root_exact_at_construction(self):
        assert RealRoot(lin(2) * lin(1) ** 2, 3).exact == 1
        assert RealRoot(IntPoly((-5, 0, 1)), 1).exact is None

    def test_integer_roots_found_without_divisor_scan(self):
        assert RealRoot(lin(2) * lin(1) ** 2, 3).exact == 1
        for name in ("join", "cskvarithm", "rhocat"):
            records = run_suite(name, seed=0, trials=5)
            assert records and all(r.passed for r in records), name

    @pytest.mark.parametrize("width", [0, -1, Fraction(-1, 4)])
    def test_refine_refuses_nonpositive_width(self, width):
        root = RealRoot(IntPoly((-5, 0, 1)), 1)
        with pytest.raises(ValueError, match="width must be positive"):
            root.refine(width)

    def test_compare_sqrt_against_quadratic_irrational(self):
        """mu + sqrt(m) is the larger root of the primitive minimal
        polynomial (den x - num)^2 - m den^2 of mu = num/den."""
        def plus_sqrt(mu, m):
            num, den = Fraction(mu).numerator, Fraction(mu).denominator
            return RealRoot(IntPoly((num * num - m * den * den,
                                     -2 * num * den, den * den)), 1)

        assert plus_sqrt(0, 5).poly == IntPoly((-5, 0, 1))
        assert RealRoot(IntPoly((-5, 0, 1)), 1).compare(plus_sqrt(0, 5)) == 0
        assert RealRoot(IntPoly((-5, 0, 1)), 2).compare(plus_sqrt(0, 5)) == -1
        minus_third = plus_sqrt(Fraction(-1, 3), 5)
        assert minus_third.poly == IntPoly((-44, 6, 9))
        assert RealRoot(IntPoly((-5, 0, 1)), 1).compare(minus_third) == 1
        # a square radicand gives a rational root, here the integer 3
        assert plus_sqrt(1, 4).exact == 3
        assert RealRoot(IntPoly((-9, 0, 1)), 1).compare(plus_sqrt(1, 4)) == 0
        with pytest.raises(TypeError):  # no (mu, m) pair form
            RealRoot(IntPoly((-5, 0, 1)), 1).compare((0, 5))

    def test_compare_roots_sharing_a_factor(self):
        shared = IntPoly((-5, 0, 1))
        p, q = shared * lin(3), shared * lin(-1)
        assert RealRoot(p, 2).compare(RealRoot(q, 1)) == 0
        assert RealRoot(p, 1).compare(RealRoot(q, 1)) == 1
        assert RealRoot(q, 2).compare(RealRoot(p, 2)) == -1

    def test_compare_rational_root_hit_exactly(self):
        p = IntPoly((-1, 2)) * IntPoly((-3, 0, 1))  # roots sqrt(3), 1/2, -sqrt(3)
        root = RealRoot(p, 2)
        assert root.exact is None
        assert root.compare(Fraction(1, 2)) == 0
        assert root.compare(Fraction(1, 3)) == 1
        assert root.compare(1) == -1
        # bisection from the root bound lands on the dyadic root exactly
        assert root.refine(Fraction(1, 64)).exact == Fraction(1, 2)
        assert root.compare(RealRoot(lin(1) * IntPoly((-1, 2)), 2)) == 0

    def test_root_comparison_past_the_cap_raises(self):
        # sqrt(2) against sqrt(2 + 2^-140): distinct, with no common factor
        # to certify a tie, and apart by far less than the width cap
        sqrt2 = RealRoot(IntPoly((-2, 0, 1)), 1)
        near = RealRoot(IntPoly((-(2 ** 141 + 1), 0, 2 ** 140)), 1)
        with pytest.raises(PrecisionExhausted):
            sqrt2.compare(near)
        # control: apart by about 2^-42, above the cap, they are separated
        sqrt2 = RealRoot(IntPoly((-2, 0, 1)), 1)
        near = RealRoot(IntPoly((-(2 ** 41 + 1), 0, 2 ** 40)), 1)
        assert sqrt2.compare(near) == -1 and near.compare(sqrt2) == 1

    def test_compare_unequal_coprime_roots(self):
        sqrt5, sqrt6 = RealRoot(IntPoly((-5, 0, 1)), 1), RealRoot(IntPoly((-6, 0, 1)), 1)
        assert sqrt5.compare(sqrt6) == -1
        assert sqrt5.hi <= sqrt6.lo

    def test_compare_sum(self):
        def sqrt(m):
            return RealRoot(IntPoly((-m, 0, 1)), 1)
        assert compare_sum(sqrt(10), sqrt(2), sqrt(3)) == 1
        assert compare_sum(sqrt(11), sqrt(3), sqrt(5)) == -1
        assert compare_sum(RealRoot(lin(5), 1), RealRoot(lin(2), 1),
                           sqrt(9)) == 0
        assert compare_sum(sqrt(8), sqrt(2), sqrt(2)) == 0

    def test_compare_sum_ties(self):
        def sqrt(m):
            return RealRoot(IntPoly((-m, 0, 1)), 1)
        # an irrational sum, in either order of the summands
        assert compare_sum(sqrt(18), sqrt(2), sqrt(8)) == 0
        assert compare_sum(sqrt(18), sqrt(8), sqrt(2)) == 0
        # the tie is certified at the first width, not at the cap
        root = sqrt(18)
        assert compare_sum(root, sqrt(2), sqrt(8)) == 0
        assert root.hi - root.lo > Fraction(1, 16)
        # a rational root equal to a sum of two irrationals
        assert compare_sum(RealRoot(X, 1), sqrt(2),
                           RealRoot(IntPoly((-2, 0, 1)), 2)) == 0
        # near misses are still separated
        assert compare_sum(sqrt(19), sqrt(2), sqrt(8)) == 1
        assert compare_sum(sqrt(17), sqrt(2), sqrt(8)) == -1
        # a non-monic summand keeps the tie unresolved: 1/sqrt(2) + 1/sqrt(2)
        with pytest.raises(PrecisionExhausted):
            compare_sum(sqrt(2), RealRoot(IntPoly((-1, 0, 2)), 1),
                        RealRoot(IntPoly((-1, 0, 2)), 1))

    def test_sum_poly_has_the_sums_as_roots(self):
        f = lin(1) * lin(-2) * lin(-2)
        g = lin(3) * lin(0)
        expected = IntPoly.one()
        for a in (1, -2, -2):
            for b in (3, 0):
                expected = expected * lin(a + b)
        assert _sum_poly(f, g) == expected
        assert _sum_poly(IntPoly((-2, 0, 1)), IntPoly((-8, 0, 1))) == (
            IntPoly((-2, 0, 1)) * IntPoly((-18, 0, 1)))

    def test_one_sturm_evaluation_per_bisection_step(self, monkeypatch):
        # irrational roots only: +-sqrt(2), +-sqrt(3) and three of x^3 - 3x + 1
        p = IntPoly((-2, 0, 1)) * IntPoly((-3, 0, 1)) * IntPoly((1, -3, 0, 1))
        inner = polys._sturm_point
        calls = []

        def counted(q, t):
            calls.append(t)
            return inner(q, t)

        monkeypatch.setattr(polys, "_sturm_point", counted)
        root = RealRoot(p, 1)  # monic: construction already bisects
        start = 2 * root_bound(p)
        root.refine(Fraction(1, 2 ** 20))
        assert root.exact is None and root.hi - root.lo <= Fraction(1, 2 ** 20)
        steps = (start / (root.hi - root.lo)).numerator.bit_length() - 1
        assert start / (root.hi - root.lo) == 2 ** steps
        # the two endpoints at construction, then one midpoint per step
        assert len(calls) <= steps + 2
