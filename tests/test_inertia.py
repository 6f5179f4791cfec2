"""The integer-pair inertia routes against the polynomial routes, and the
search's cross-checks between them."""

import io
import json
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from oracles import _degree_square_sum, rational_root_multiplicity
from treespectra import enumeration, search, spectra, trees
from treespectra.enumeration import FreeTreeEnumerator, enumerate_free_trees
from treespectra.reduction import pendant_report
from treespectra.search import SearchConfig, kept_codes, run_search
from treespectra.spectra import (TreeSpectrum, _integrality,
                                 _matching_nullity, _moments_admit,
                                 _signature, char_poly, inertia,
                                 inertia_integrality, nullity_matching)
from treespectra.trees import (Tree, _is_reduced, code_parents,
                               parent_degrees, path, s_tree)


class TestInertiaIntegrality:
    def test_equals_analyze_on_every_tree_up_to_order_14(self):
        checked = 0
        for n in range(1, 15):
            for tree in enumerate_free_trees(n):
                summary = TreeSpectrum.analyze(tree).summary
                assert inertia_integrality(tree) == (
                    summary.nullity, summary.is_integral), tree.code_str()
                checked += 1
        assert checked == 5447  # A000055, orders 1-14

    def test_small_cases(self):
        star = Tree.from_code([0, 1, 1, 1, 1])
        assert inertia_integrality(star) == (3, True)  # 0^3, +-2
        assert inertia_integrality(path(3)) == (1, False)  # 0, +-sqrt 2
        assert inertia_integrality(path(1)) == (1, True)
        assert inertia_integrality(s_tree([1])) == (1, True)

    def test_multiplicity_equals_deflation(self):
        for n in range(1, 11):
            for tree in enumerate_free_trees(n):
                phi = char_poly(tree)
                for k in range(-3, 4):
                    assert inertia(tree, k)[1] == rational_root_multiplicity(
                        phi, k), (tree.code_str(), k)

    def test_inertia_refuses_float_and_text(self):
        # path P_4: eigenvalues +-1.618 and +-0.618
        assert inertia(path(4), Fraction(1, 2)) == (2, 0)
        for t in ("1/2", 0.5):
            with pytest.raises(TypeError, match="cannot be interpreted as an"):
                inertia(path(4), t)


class TestCodeRoute:
    def test_equals_tree_route_on_every_tree_up_to_order_14(self):
        # the folds on a code's preorder parent array against the Tree-based
        # routes on a breadth-first rooted order
        checked = 0
        for n in range(1, 15):
            for code in FreeTreeEnumerator(n):
                tree = Tree.from_code(code)
                parent = code_parents(code)
                order = range(n)
                assert _matching_nullity(order, parent) == nullity_matching(
                    tree), code
                assert _is_reduced(parent, parent_degrees(parent)) == (
                    pendant_report(tree).is_reduced), code
                assert _integrality(order, parent) == inertia_integrality(tree), code
                for t in (0, 1, 2):
                    assert _signature(order, parent, t, 1) == inertia(tree, t), (
                        code, t)
                checked += 1
        assert checked == 5447  # A000055, orders 1-14

    def test_code_parents(self):
        # vertices 2 and 3 hang off 1, vertices 1 and 4 off the root
        assert code_parents((0, 1, 2, 2, 1)) == [-1, 0, 1, 1, 0]
        assert code_parents((0,)) == [-1]


class TestTraceMoments:
    def test_moments_admit_matches_brute_force(self):
        for n in range(1, 21):
            top = isqrt(n - 1)
            fourth = set()
            for a in product(*(range((n - 1) // k ** 2 + 1)
                               for k in range(1, top + 1))):
                terms = list(enumerate(a, start=1))  # (k, a_k)
                if (sum(m * k ** 2 for k, m in terms) == n - 1
                        and 2 * sum(a) <= n):
                    fourth.add(sum(m * k ** 4 for k, m in terms))
            for square_sum in range(n * n + 1):
                assert _moments_admit(n, square_sum) == (
                    square_sum - (n - 1) in fourth), (n, square_sum)

    def test_degree_square_sum(self):
        for n in range(1, 11):
            for tree in enumerate_free_trees(n):
                parent = code_parents(tree.canonical_code)
                assert _degree_square_sum(parent) == sum(
                    len(a) ** 2 for a in tree.adj)

    def test_every_integral_tree_up_to_order_14_passes(self):
        integral = 0
        for n in range(1, 15):
            enum = FreeTreeEnumerator(n)
            for code in enum:
                if _integrality(range(n), enum.parent)[1]:
                    integral += 1
                    assert _moments_admit(
                        n, _degree_square_sum(enum.parent)), code
        assert integral == 7  # A077027, orders 1-14

    def test_stars_with_square_leaf_counts_pass(self):
        # K_{1,k^2} has spectrum +-k, 0^(k^2-1)
        for k in range(1, 7):
            tree = Tree.from_code([0] + [1] * (k * k))
            assert _moments_admit(tree.n, sum(len(a) ** 2 for a in tree.adj))
            assert inertia_integrality(tree) == (k * k - 1, True)


class TestSearchRoutesAgree:
    def test_integrality_routes_disagree_is_raised(self, monkeypatch):
        # the first tree the search meets whose trace moments admit an
        # integral spectrum, though it has none, so only the inertia route
        # can turn it down
        monkeypatch.setattr(search, "_integrality",
                            lambda order, parent: (1, True))
        config = SearchConfig(max_order=7, integral_only=True)
        with pytest.raises(AssertionError,
                           match="integrality routes disagree on "
                                 "0,1,2,3,3,1,2"):
            run_search(config, io.StringIO(), io.StringIO())

    def test_inertia_nullity_is_checked_on_rejected_trees(self, monkeypatch):
        # the verdict says "not integral", yet the wrong nullity is caught
        monkeypatch.setattr(search, "_integrality",
                            lambda order, parent: (3, False))
        # on the one tree of order 3, the path
        config = SearchConfig(max_order=3, nullity=1, integral_only=True)
        with pytest.raises(AssertionError,
                           match="nullity routes disagree on 0,1,1"):
            list(kept_codes(config, 3))

    @pytest.mark.parametrize("reduced_only", [False, True])
    def test_degrees_built_once_per_order(self, monkeypatch, reduced_only):
        # the moments and the reduced test read the degrees the walk keeps
        # in step: they are built when the walk of an order starts, not
        # once per tree (987 trees up to order 12)
        calls = []

        def counted(parent):
            calls.append(len(parent))
            return parent_degrees(parent)

        monkeypatch.setattr(trees, "parent_degrees", counted)
        monkeypatch.setattr(enumeration, "parent_degrees", counted)
        out = io.StringIO()
        run_search(SearchConfig(max_order=12, integral_only=True,
                                reduced_only=reduced_only),
                   out, io.StringIO())
        assert calls == list(range(1, 13))
        # A077027 to order 12, and the reduced ones among them
        assert len(out.getvalue().splitlines()) == (5 if reduced_only else 6)

    # integral to order 10: A077027; and unfiltered, shard 1/3 to --out:
    # the trees of each order up to 9 with emission index 1 mod 3,
    # (A000055(n) + 1) // 3 of them
    RECORD_SEARCHES = [(dict(max_order=10, integral_only=True), 6),
                       (dict(max_order=9, shard=(1, 3)), 32)]

    @staticmethod
    def _record_search(monkeypatch, tmp_path, config):
        """Runs a search with Tree._build and the polynomial fold counted;
        returns the built calls, the folded parent arrays and the records."""
        built, folded = [], []
        build = Tree._build.__func__
        fold = spectra._matching_numbers

        def building(cls, *args):
            built.append(args)
            return build(cls, *args)

        def folding(order, parent):
            folded.append(list(parent))
            return fold(order, parent)

        monkeypatch.setattr(Tree, "_build", classmethod(building))
        monkeypatch.setattr(spectra, "_matching_numbers", folding)
        err = io.StringIO()
        if "shard" in config:
            out_path = tmp_path / "records.jsonl"
            run_search(SearchConfig(out_path=str(out_path), **config),
                       None, err)
            lines = out_path.read_text(encoding="utf-8").splitlines()
        else:
            out = io.StringIO()
            run_search(SearchConfig(**config), out, err)
            lines = out.getvalue().splitlines()
        return built, folded, lines

    def test_polynomial_only_for_records(self, monkeypatch, tmp_path):
        # the one polynomial per record is folded on the walk's parent array
        for config, records in self.RECORD_SEARCHES:
            _, folded, lines = self._record_search(monkeypatch, tmp_path,
                                                   config)
            assert len(lines) == len(folded) == records
            for line, parent in zip(lines, folded):
                assert parent == code_parents(
                    tuple(map(int, json.loads(line)["code"].split(","))))

    def test_tree_only_for_records(self, monkeypatch, tmp_path):
        # a record comes from the walk's (code, parent): no Tree is built
        for config, records in self.RECORD_SEARCHES:
            built, _, lines = self._record_search(monkeypatch, tmp_path,
                                                  config)
            assert built == []
            assert len(lines) == records
