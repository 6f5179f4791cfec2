import random

import pytest

from oracles import delete_vertex
from treespectra.enumeration import enumerate_free_trees
from treespectra.reduction import (pendant_report, pendant_growth_holds,
                                   reduce_with_trace,
                                   reduced_census, strip_monotonicity_holds,
                                   strip_pendant_p2)
from treespectra.search import SearchConfig, kept_codes
from treespectra.spectra import _m_value, inertia, m_value
from treespectra.trees import Tree, attach_pendants, path, s_tree


def literal_pendant_counts(tree: Tree) -> tuple:
    """Counts straight from the definition: components of T - v that are
    two-vertex paths."""
    out = []
    for v in range(tree.n):
        out.append(sum(1 for comp in delete_vertex(tree, v) if comp.n == 2))
    return tuple(out)


class TestPendantReport:
    def test_path5_center(self):
        report = pendant_report(path(5))
        assert report.per_vertex[2] == 2
        assert not report.is_reduced

    def test_edge_is_reduced(self):
        assert pendant_report(path(2)).is_reduced

    def test_spider_center(self):
        spider = s_tree([1])
        center = next(v for v in range(7) if spider.degree(v) == 3)
        report = pendant_report(spider)
        assert report.per_vertex[center] == 3

    def test_matches_literal_definition(self):
        for n in range(1, 9):
            for tree in enumerate_free_trees(n):
                assert pendant_report(tree).per_vertex == literal_pendant_counts(tree)


class TestStrip:
    def test_path5(self):
        assert strip_pendant_p2(path(5), 2).canonical_code == (0, 1, 1)

    def test_spider(self):
        spider = s_tree([1])
        center = next(v for v in range(7) if spider.degree(v) == 3)
        assert (strip_pendant_p2(spider, center).canonical_code
                == path(5).canonical_code)

    def test_no_pendant_error(self):
        with pytest.raises(ValueError):
            strip_pendant_p2(path(2), 0)

    def test_order_drop(self):
        t = attach_pendants(path(3), [(1, 2)])
        assert strip_pendant_p2(t, 1).n == t.n - 2


class TestReduceCore:
    def test_examples(self):
        assert reduce_with_trace(path(5))[0].canonical_code == (0,)
        assert reduce_with_trace(path(2))[0].canonical_code == (0, 1)
        assert reduce_with_trace(s_tree([1]))[0].canonical_code == (0,)

    def test_trace(self):
        core, steps = reduce_with_trace(path(5))
        assert core.n == 1 and len(steps) == 2
        assert all(s["m_after"] <= s["m_before"] for s in steps)
        # each step's counts are those of the trees on either side of it
        for n in range(1, 10):
            for tree in enumerate_free_trees(n):
                m = m_value(tree)
                for step in reduce_with_trace(tree)[1]:
                    assert step["m_before"] == m
                    m = m_value(Tree.from_code(step["code_after"]))
                    assert step["m_after"] == m

    def test_idempotent(self):
        for n in range(1, 10):
            for tree in enumerate_free_trees(n):
                core = reduce_with_trace(tree)[0]
                again = reduce_with_trace(core)[0]
                assert again.canonical_code == core.canonical_code

    def test_strip_order_invariance(self):
        rng = random.Random(21)
        for n in range(2, 10):
            for tree in enumerate_free_trees(n):
                expected = reduce_with_trace(tree)[0].canonical_code
                for _ in range(3):
                    current = tree
                    while True:
                        report = pendant_report(current)
                        if report.is_reduced:
                            break
                        options = [v for v, c in enumerate(report.per_vertex) if c]
                        current = strip_pendant_p2(current, rng.choice(options))
                    assert current.canonical_code == expected


class TestStripAndGrowth:
    def test_strip_monotonicity_examples(self):
        assert strip_monotonicity_holds(path(5))
        assert strip_monotonicity_holds(s_tree([1]))
        assert strip_monotonicity_holds(path(4))

    def test_growth_example_path5(self):
        # growing the center of the 5-path gives the 3-leg spider:
        # m stays 1, multiplicity of 1 goes from 0 to 1... measured directly
        assert pendant_growth_holds(path(5), 2)
        grown = attach_pendants(path(5), [(2, 1)])
        assert (grown.canonical_code == s_tree([0, 0]).canonical_code
                or grown.n == 7)

    def test_growth_spider(self):
        spider = s_tree([1])
        center = next(v for v in range(7) if spider.degree(v) == 3)
        assert inertia(spider, 1)[1] == 2
        assert pendant_growth_holds(spider, center)

    def test_growth_path3_endpoint(self):
        assert pendant_growth_holds(path(3), 0)

    def test_growth_precondition(self):
        with pytest.raises(ValueError):
            pendant_growth_holds(path(2), 0)

    @pytest.mark.parametrize("v", [-1, -3, 3])
    def test_vertex_out_of_range(self, v):
        # in P3 a negative index would wrap to an end that has a pendant P2
        for check in (strip_pendant_p2, pendant_growth_holds):
            with pytest.raises(ValueError, match=f"vertex {v} out of range"):
                check(path(3), v)

    def test_no_pendant_monotonicity_error(self):
        with pytest.raises(ValueError):
            strip_monotonicity_holds(path(2))


class TestReducedCensus:
    def test_no_gap_eigenvalue(self):
        assert reduced_census(0, 10) == [(0, 1)]

    def test_one_gap_eigenvalue(self):
        assert reduced_census(1, 10) == [(0,)]

    def test_two_gap_eigenvalues_stable(self):
        census = reduced_census(2, 9)
        assert census == [(0, 1, 1, 1), (0, 1, 2, 2, 1, 1)]
        assert reduced_census(2, 9) == census
        assert all(Tree.from_code(code).canonical_code == code
                   for code in census)

    def test_all_other_reduced_trees_have_m_at_least_2(self):
        for n in range(1, 10):
            for tree in enumerate_free_trees(n):
                if pendant_report(tree).is_reduced and tree.n not in (1, 2):
                    assert m_value(tree) >= 2


class TestCoreBound:
    """A conjecture, checked here to order 16 and not proved in this
    package: every reduced tree R but K2 has |R| <= 3 m(R), m(R) its count
    of eigenvalues in (-1, 1).  To order 16, equality holds for exactly one
    tree at each of orders 6, 9, 12 and 15: a path on |R| - 4 vertices with
    two leaves at each end."""

    def test_order_at_most_three_times_m_to_order_16(self):
        config = SearchConfig(max_order=16, reduced_only=True)
        over, equal, checked = [], [], 0
        for n in config.orders():
            for code, parent in kept_codes(config, n):
                checked += 1
                m = _m_value(range(n), parent)
                if n > 3 * m:
                    over.append(code)
                elif n == 3 * m:
                    equal.append(",".join(map(str, code)))
        assert checked == 3152
        assert over == [(0, 1)]  # K2, with m = 0
        assert equal == ["0,1,2,2,1,1", "0,1,2,3,3,1,2,3,3",
                         "0,1,2,3,4,5,5,1,2,3,4,4",
                         "0,1,2,3,4,5,6,6,1,2,3,4,5,6,6"]
