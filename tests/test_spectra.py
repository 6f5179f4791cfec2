import random
from fractions import Fraction
from functools import reduce
from math import comb
from operator import mul

import pytest

from oracles import (adjacency_matrix, char_poly_determinant,
                     char_poly_from_matchings, delete_vertex, integer_roots,
                     matchings_by_recursion, matchings_by_size,
                     max_matching_brute, prufer_tree,
                     rational_root_multiplicity)
from treespectra import spectra
from treespectra.enumeration import enumerate_free_trees
from treespectra.polys import (IntPoly, _slot_width, count_roots_above,
                               count_roots_at_least, count_roots_open,
                               even_part, root_bound)
from treespectra.spectra import (TreeSpectrum, _char_poly,
                                 _matching_numbers, _signature,
                                 char_poly, char_poly_ring_with_pendants,
                                 courant_weyl_check, inertia, join_formula,
                                 m_value, nullity_matching,
                                 squared_shift_check)
from treespectra.trees import (Tree, c_tree, join_trees, path, s_tree,
                               without_vertex)

X = IntPoly.x()


def component_product(parts) -> IntPoly:
    """The product of the components' matching polynomials, 1 for none."""
    return reduce(mul, map(char_poly_from_matchings, parts), IntPoly.one())


def double_star_2_2() -> Tree:
    return Tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def random_tree(rng, n):
    return Tree(n, [(rng.randrange(0, v), v) for v in range(1, n)])


class TestCharPoly:
    def test_edge(self):
        assert char_poly(path(2)) == IntPoly((-1, 0, 1))

    def test_star(self):
        assert char_poly(Tree.from_code([0, 1, 1, 1, 1])) == (
            IntPoly.monomial(3) * (X * X - IntPoly.const(4)))

    def test_spider_family(self):
        for p in range(6):
            expected = (X * (X * X - IntPoly.const(p + 3))
                        * (X * X - IntPoly.one()) ** (p + 1))
            assert char_poly(s_tree([p])) == expected

    def test_matches_matching_polynomial(self):
        # forests: char poly coefficients are signed matching counts
        for n in range(1, 10):
            for tree in enumerate_free_trees(n):
                assert char_poly(tree) == char_poly_from_matchings(tree)

    def test_forest_product(self):
        # a rooted forest order: star minus its center, and the empty forest
        star = Tree.from_code([0, 1, 1, 1])
        assert _char_poly(*without_vertex(*star.rooted_order(), 0)) == (
            IntPoly.monomial(3))
        assert _char_poly(*without_vertex(*path(1).rooted_order(), 0)) == (
            IntPoly.one())

    def test_monic_degree(self):
        rng = random.Random(12)
        for _ in range(15):
            t = random_tree(rng, rng.randrange(1, 15))
            phi = char_poly(t)
            assert phi.is_monic and phi.degree == t.n

    def test_no_canonical_code_is_computed(self, code_folds):
        char_poly(c_tree([2, 3]))
        TreeSpectrum.analyze(s_tree([1, 2]))
        assert code_folds == []
        # the counter sees a code when one is built
        assert s_tree([1, 2]).canonical_code
        assert code_folds == [s_tree([1, 2]).n]


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def fold(tree: Tree) -> list:
    return _matching_numbers(*tree.rooted_order())


class TestPackedFold:
    """_matching_numbers, the fold on packed ints, against the oracles'
    matching counts; on the forests T - v, TestForestCut checks it through
    _char_poly."""

    @pytest.fixture(scope="class")
    def small_trees(self):
        return [(tree, matchings_by_size(tree)) for n in range(1, 13)
                for tree in enumerate_free_trees(n)]

    def test_every_tree_to_order_12(self, small_trees):
        for tree, counts in small_trees:
            assert fold(tree) == counts, tree.code_str()

    def test_paths_to_order_300(self):
        # P_n has the most matchings of any tree of order n, so its counts
        # come closest to filling the slots
        for n in range(1, 301):
            assert fold(path(n)) == [comb(n - k, k) for k in range(n // 2 + 1)]

    def test_stars(self):
        assert fold(Tree.from_code([0])) == [1]
        for k in range(1, 400, 9):
            assert fold(Tree.from_code([0] + [1] * k)) == [1, k]

    def test_random_trees_of_orders_30_to_400(self):
        rng = random.Random(22)
        for n in range(30, 401, 10):
            tree = prufer_tree(rng, n)
            assert fold(tree) == matchings_by_recursion(tree), n

    def test_slot_width_bound(self, small_trees):
        # the width F(n+1).bit_length() needs every forest on n vertices to
        # have at most F(n+1) matchings; P_n has exactly that many
        for n in range(1, 41):
            assert sum(fold(path(n))) == fibonacci(n + 1)
            assert _slot_width(n) == fibonacci(n + 1).bit_length()
        for tree, counts in small_trees:
            assert sum(counts) <= fibonacci(tree.n + 1), tree.code_str()


def oracle_trees():
    """Every tree of orders 1-12 plus seeded Prufer trees of orders 13-80."""
    trees = [t for n in range(1, 13) for t in enumerate_free_trees(n)]
    rng = random.Random(4)
    trees += [prufer_tree(rng, n) for n in range(13, 81, 2)]
    return trees


class TestTreeRoutesAgainstPolynomialRoutes:
    """The tree-only routes (integer roots in y = x^2, inertia) against the
    general polynomial routes (divisor scan, Sturm counts, deflation)."""

    @pytest.fixture(scope="class")
    def trees(self):
        return oracle_trees()

    def test_analyze_equals_integer_roots(self, trees):
        for tree in trees:
            summary = TreeSpectrum.analyze(tree).summary
            expected = integer_roots(char_poly(tree))
            assert summary == expected
            assert list(summary.roots.items()) == list(expected.roots.items())

    def test_summary_is_symmetric_with_monic_residual(self):
        # cli.factored_text pairs k with -k and prints no constant factor
        for n in range(1, 11):
            for tree in enumerate_free_trees(n):
                summary = TreeSpectrum.analyze(tree).summary
                for k, m in summary.roots.items():
                    assert summary.roots.get(-k) == m, (tree, k)
                assert summary.residual.coeffs[-1] == 1, tree

    def test_m_value_equals_sturm_count(self, trees):
        for tree in trees:
            expected = count_roots_open(char_poly(tree), -1, 1).with_multiplicity
            assert m_value(tree) == expected

    def test_inertia_equals_sturm_and_deflation(self, trees):
        for tree in trees:
            phi = char_poly(tree)
            for t in (-2, -1, 0, 1, 2):
                at = rational_root_multiplicity(phi, t)
                below = tree.n - count_roots_at_least(phi, t)
                assert inertia(tree, t) == (below, at), (tree, t)

    def test_inertia_at_a_fraction(self):
        # path P_4: eigenvalues +-(1 +- sqrt 5)/2, i.e. +-1.618 and +-0.618
        assert inertia(path(4), Fraction(1, 2)) == (2, 0)
        assert inertia(path(3), Fraction(0)) == (1, 1)


class TestRingGraph:
    def test_frozen_poly(self):
        assert char_poly_ring_with_pendants(0) == IntPoly(
            (0, 0, -10, 0, 17, 0, -8, 0, 1))

    def test_even_part_factors(self):
        h, q = even_part(char_poly_ring_with_pendants(0))
        assert h == 2
        assert q == (X - IntPoly.const(5)) * (X - IntPoly.const(2)) * (X - IntPoly.one())

    def test_largest_squared_is_five(self):
        _, q = even_part(char_poly_ring_with_pendants(0))
        assert q.evaluate(5) == 0
        assert count_roots_open(q, 5, root_bound(q) + 1).with_multiplicity == 0

    def test_determinant_route_on_trees(self):
        for n in range(1, 8):
            for tree in enumerate_free_trees(n):
                assert char_poly_determinant(
                    adjacency_matrix(n, tree.edges())) == char_poly(tree)

    def test_determinant_known_graphs(self):
        # self-checks of the oracle on graphs with cycles
        cycle6 = adjacency_matrix(6, [(i, (i + 1) % 6) for i in range(6)])
        assert char_poly_determinant(cycle6) == IntPoly((-4, 0, 9, 0, -6, 0, 1))
        k4 = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
        assert char_poly_determinant(k4) == IntPoly((-3, -8, -6, 0, 1))

    @pytest.mark.parametrize("extra", range(9))
    def test_schwenk_route_matches_determinant(self, extra):
        # odd and even cycles of length 6..14, two pendants at vertex 0
        cycle = 6 + extra
        edges = [(i, (i + 1) % cycle) for i in range(cycle)]
        matrix = adjacency_matrix(cycle + 2, edges + [(0, cycle),
                                                      (0, cycle + 1)])
        assert char_poly_ring_with_pendants(extra) == char_poly_determinant(
            matrix)

    def test_negative_extra_refused(self):
        with pytest.raises(ValueError):
            char_poly_ring_with_pendants(-1)


class TestStatistics:
    def test_m_values(self):
        assert m_value(path(2)) == 0
        assert m_value(path(4)) == 2
        assert m_value(path(1)) == 1

    def test_multiplicity(self):
        assert inertia(Tree.from_code([0, 1, 1, 1, 1]), 0)[1] == 3
        assert inertia(s_tree([1]), 1)[1] == 2
        assert inertia(path(2), 2)[1] == 0

    def test_nullity_both_routes(self):
        star = Tree.from_code([0, 1, 1, 1, 1])
        assert even_part(char_poly(star))[0] == nullity_matching(star) == 3
        edge = path(2)
        assert even_part(char_poly(edge))[0] == nullity_matching(edge) == 0
        for p in range(4):
            assert even_part(char_poly(s_tree([p])))[0] == 1
            assert nullity_matching(s_tree([p])) == 1

    def test_nullity_exhaustive_small(self):
        for n in range(1, 11):
            for tree in enumerate_free_trees(n):
                assert even_part(char_poly(tree))[0] == nullity_matching(tree)

    def test_matching_against_brute_force(self):
        rng = random.Random(13)
        for _ in range(25):
            t = random_tree(rng, rng.randrange(1, 11))
            assert (t.n - nullity_matching(t)) // 2 == max_matching_brute(t)

    def test_is_integral(self):
        summary = TreeSpectrum.analyze(double_star_2_2()).summary
        assert summary.is_integral
        assert summary.roots == {0: 2, 1: 1, -1: 1, 2: 1, -2: 1}
        p4 = TreeSpectrum.analyze(path(4)).summary
        assert not p4.is_integral
        assert p4.residual == IntPoly((1, 0, -3, 0, 1))
        assert TreeSpectrum.analyze(s_tree([6])).summary.is_integral

    def test_sum_of_squares_coefficient(self):
        # the x^(n-2) coefficient is -(n-1): eigenvalue squares sum to 2(n-1)
        for n in range(2, 10):
            for tree in enumerate_free_trees(n):
                assert char_poly(tree).coeffs[n - 2] == -(n - 1)

    def test_spectrum_symmetry(self):
        rng = random.Random(14)
        for _ in range(20):
            t = random_tree(rng, rng.randrange(1, 13))
            h, _ = even_part(char_poly(t))  # must not raise
            assert (t.n - h) % 2 == 0

    def test_analyze_bundle(self):
        spec = TreeSpectrum.analyze(s_tree([1]))
        assert spec.summary.nullity == 1 and m_value(s_tree([1])) == 1
        assert spec.summary.is_integral

    def test_pendant_edge_preserves_nullity(self):
        # removing a leaf together with its unique neighbor keeps the nullity
        for n in range(2, 10):
            for tree in enumerate_free_trees(n):
                h = even_part(char_poly(tree))[0]
                for u in range(tree.n):
                    if tree.degree(u) != 1:
                        continue
                    v = tree.adj[u][0]
                    remaining = [w for w in range(tree.n) if w not in (u, v)]
                    index = {w: i for i, w in enumerate(remaining)}
                    edges = [(index[a], index[b]) for a in remaining
                             for b in tree.adj[a] if b in index and a < b]
                    forest_nullity = 0
                    seen = set()
                    adj = {i: [] for i in range(len(remaining))}
                    for a, b in edges:
                        adj[a].append(b)
                        adj[b].append(a)
                    for start in range(len(remaining)):
                        if start in seen:
                            continue
                        comp = [start]
                        seen.add(start)
                        for x in comp:
                            for y in adj[x]:
                                if y not in seen:
                                    seen.add(y)
                                    comp.append(y)
                        sub_edges = [(comp.index(a), comp.index(b))
                                     for a, b in edges
                                     if a in comp and b in comp]
                        forest_nullity += even_part(char_poly(
                            Tree(len(comp), sub_edges)))[0]
                    assert forest_nullity == h


class TestInterlacing:
    def test_one_step_interlacing(self):
        rng = random.Random(15)
        grid = [Fraction(k, 2) for k in range(-8, 9)]
        for _ in range(12):
            t = random_tree(rng, rng.randrange(2, 9))
            phi = char_poly(t)
            for v in range(t.n):
                sub = component_product(delete_vertex(t, v))
                for a in grid:
                    big = count_roots_above(phi, a).with_multiplicity
                    small = count_roots_above(sub, a).with_multiplicity
                    assert small <= big <= small + 1


class TestForestCut:
    """The folds on without_vertex's rooted forest order, cut from the
    tree rooted at 0 and at n - 1, against the oracle's components of
    T - v, for every tree up to order 9 and every v."""

    POINTS = [Fraction(k) for k in range(-3, 4)] + [Fraction(1, 2)]

    @staticmethod
    def cuts():
        for n in range(1, 10):
            for tree in enumerate_free_trees(n):
                for root in {0, n - 1}:
                    rooted = tree.rooted_order(root)
                    for v in range(n):
                        yield (tree, v, without_vertex(*rooted, v),
                               delete_vertex(tree, v))

    def test_signature_sums_component_inertia(self):
        for tree, v, (order, parent), parts in self.cuts():
            for t in self.POINTS:
                summed = [sum(inertia(p, t)[i] for p in parts) for i in (0, 1)]
                assert list(_signature(order, parent, t.numerator,
                                       t.denominator)) == summed, (
                    tree.code_str(), v, t)

    def test_char_poly_is_component_product(self):
        for tree, v, (order, parent), parts in self.cuts():
            assert _char_poly(order, parent) == component_product(parts), (
                tree.code_str(), v)


class TestJoinFormula:
    def test_path5_identity(self):
        assert join_formula(path(1), 0, path(2), 0, 2) == IntPoly((0, 3, 0, -4, 0, 1))

    def test_star_identity(self):
        assert join_formula(path(1), 0, path(1), 0, 4) == char_poly(
            Tree.from_code([0, 1, 1, 1, 1]))

    def test_against_construction(self):
        rng = random.Random(16)
        for _ in range(40):
            n1 = rng.randrange(1, 7)
            n2 = rng.randrange(1, 5)
            k = rng.randrange(1, 4)
            t1, t2 = random_tree(rng, n1), random_tree(rng, n2)
            v1, v2 = rng.randrange(n1), rng.randrange(n2)
            formula = join_formula(t1, v1, t2, v2, k)
            assert formula == char_poly(join_trees(t1, v1, t2, v2, k))


class TestCourantWeyl:
    def test_single_vertex_equality(self):
        # spiders grown from one vertex meet the bound exactly
        assert courant_weyl_check(path(1), [(0, 3)]) == [True]
        assert courant_weyl_check(path(1), [(0, 1)]) == [True]

    def test_path_examples(self):
        assert courant_weyl_check(path(2), [(0, 1)]) == [True]
        assert all(courant_weyl_check(path(3), [(0, 2), (2, 1)]))

    def test_monotone_in_s(self):
        for s in range(1, 11):
            assert courant_weyl_check(path(3), [(1, s)]) == [True]

    def test_random_instances(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randrange(1, 8)
            t = random_tree(rng, n)
            k = min(n, rng.randrange(1, 4))
            picks = rng.sample(range(n), k=k)
            spec = [(v, rng.randrange(1, 6)) for v in picks]
            assert all(courant_weyl_check(t, spec))

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            courant_weyl_check(path(2), [])


class TestSquaredShift:
    def test_edge_to_star(self):
        assert squared_shift_check(path(2), 0, 3)

    def test_path3_endpoints(self):
        assert squared_shift_check(path(3), 0, 2)

    def test_trivial_r0(self):
        assert squared_shift_check(path(2), 0, 0)

    def test_random_instances(self):
        rng = random.Random(18)
        for _ in range(25):
            t = random_tree(rng, rng.randrange(2, 9))
            assert squared_shift_check(t, rng.randrange(2), rng.randrange(0, 7))

    def test_wrong_shift_is_refused(self, monkeypatch):
        # shifting by r + 1 moves every root past where r puts it
        shift = spectra.taylor_shift
        monkeypatch.setattr(spectra, "taylor_shift",
                            lambda q, r: shift(q, r + 1))
        for tree, r in ((path(2), 3), (path(3), 2), (c_tree([1, 2]), 1),
                        (Tree.from_code([0, 1, 1, 1]), 2)):
            assert not squared_shift_check(tree, 0, r)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            squared_shift_check(path(2), 2, 1)
