import hashlib
import random

import pytest

from oracles import (delete_vertex, eccentricities, prufer_tree,
                     rooted_code_by_shifting)
from treespectra.cli import main
from treespectra.enumeration import enumerate_free_trees
from treespectra.trees import (Tree, TreeFormatError, attach_pendants,
                               bipartition, c_tree, format_tree_text,
                               hub_vertices, join_trees, parse_tree_text,
                               path, s_tree, without_vertex)
from treespectra.verifier import _attach_cases, random_tree


def shuffled_copy(tree: Tree, rng: random.Random) -> Tree:
    perm = list(range(tree.n))
    rng.shuffle(perm)
    return Tree(tree.n, [(perm[u], perm[v]) for u, v in tree.edges()])


class TestConstructors:
    def test_paths(self):
        assert path(1).n == 1 and path(1).edges() == []
        assert path(2).edges() == [(0, 1)]
        assert sorted(map(len, path(5).adj)) == [1, 1, 2, 2, 2]

    def test_stars(self):
        # the star K_(1,k) is the level sequence 0 then k ones
        assert Tree.from_code([0]).n == 1
        star = Tree.from_code([0, 1, 1, 1, 1])
        assert star.n == 5 and star.degree(0) == 4
        assert (Tree.from_code([0, 1, 1]).canonical_code
                == path(3).canonical_code)

    def test_c_tree_figure(self):
        t = c_tree([1, 3, 0, 2])
        assert t.n == 9 + 6
        # spine hub degrees: v_2 gets 1 leaf, v_4 gets 3, v_6 none, v_8 two
        assert [t.degree(h) for h in hub_vertices([1, 3, 0, 2])] == [3, 5, 2, 4]

    def test_c_tree_small(self):
        assert c_tree([0]).canonical_code == path(3).canonical_code
        assert c_tree([2]).canonical_code == (0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            c_tree([])

    def test_c_tree_degree_sum(self):
        for r in ([1, 3, 0, 2], [0], [5], [2, 2]):
            t = c_tree(r)
            n = len(r)
            assert sum(map(len, t.adj)) == 2 * (2 * n + sum(r))

    def test_s_tree_small(self):
        assert s_tree([0]).canonical_code == path(5).canonical_code
        spider = s_tree([1])
        assert spider.n == 7
        assert sorted(map(len, spider.adj)) == [1, 1, 1, 2, 2, 2, 3]
        with pytest.raises(ValueError):
            s_tree([])

    def test_s_tree_order_formula(self):
        for r in ([1, 3, 0, 2], [0], [6], [2, 0, 1]):
            n = len(r)
            expected = (2 * n + 1 + sum(r)) + (2 + sum(r)) + (n - 1)
            assert s_tree(r).n == expected

    def test_s_tree_hub_structure(self):
        # each hub of the two-group tree carries r_i + 1 pendant length-2 paths
        t = s_tree([2, 1])
        for hub, r in zip(hub_vertices([2, 1]), [2, 1]):
            legs = 0
            for w in t.adj[hub]:
                if t.degree(w) == 2:
                    far = t.adj[w][0] if t.adj[w][0] != hub else t.adj[w][1]
                    if t.degree(far) == 1:
                        legs += 1
            assert legs == r + 1


class TestAttachPendants:
    def test_single_vertex(self):
        assert (attach_pendants(path(1), [(0, 1)]).canonical_code
                == path(3).canonical_code)

    def test_path3_center(self):
        grown = attach_pendants(path(3), [(1, 1)])
        assert grown.n == 5
        assert sorted(map(len, grown.adj)) == [1, 1, 1, 2, 3]

    def test_star_center_order(self):
        grown = attach_pendants(Tree.from_code([0, 1, 1, 1]), [(0, 2)])
        assert grown.n == 8 and grown.degree(0) == 5

    def test_spec_permutation_invariance(self):
        rng = random.Random(2)
        base = c_tree([1, 0, 2])
        spec = [(0, 2), (3, 1), (5, 3)]
        codes = set()
        for _ in range(6):
            rng.shuffle(spec)
            codes.add(attach_pendants(base, list(spec)).canonical_code)
        assert len(codes) == 1

    def test_empty_spec_unchanged(self):
        t = c_tree([1])
        assert attach_pendants(t, []) is t

    def test_errors(self):
        with pytest.raises(ValueError):
            attach_pendants(path(2), [(5, 1)])
        with pytest.raises(ValueError):
            attach_pendants(path(2), [(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            attach_pendants(path(2), [(0, 0)])


class TestLabels:
    """The labelled edges each constructor's docstring promises; canonical
    codes, and so the verify digests, cannot see a relabelling."""

    def test_star(self):
        # from_code labels in preorder: the star's center is 0
        assert Tree.from_code([0, 1, 1, 1]).edges() == [(0, 1), (0, 2), (0, 3)]

    def test_c_tree(self):
        # spine 0..6, then one leaf at hub 1 and two at hub 5
        assert c_tree([1, 0, 2]).edges() == [
            (0, 1), (1, 2), (1, 7), (2, 3), (3, 4), (4, 5), (5, 6), (5, 8),
            (5, 9)]

    def test_s_tree(self):
        # c_tree([1, 2]) is the spine 0..4 with leaf 5 at hub 1 and leaves
        # 6, 7 at hub 3; new leaves 8..12 go to its degree-1 vertices
        # 0, 4, 5, 6, 7, and 13 to the odd spine vertex v_3 (label 2)
        assert s_tree([1, 2]).edges() == [
            (0, 1), (0, 8), (1, 2), (1, 5), (2, 3), (2, 13), (3, 4), (3, 6),
            (3, 7), (4, 9), (5, 10), (6, 11), (7, 12)]

    def test_attach_pendants(self):
        # spec order, midpoint before leaf: 3-4 and 5-6 at 2, then 7-8 at 0
        assert attach_pendants(path(3), [(2, 2), (0, 1)]).edges() == [
            (0, 1), (0, 7), (1, 2), (2, 3), (2, 5), (3, 4), (5, 6), (7, 8)]

    def test_random_tree_draws_one_parent_per_vertex(self):
        rng, twin = random.Random(5), random.Random(5)
        for n in range(1, 12):
            assert random_tree(rng, n).edges() == sorted(
                (twin.randrange(0, v), v) for v in range(1, n))
        assert rng.random() == twin.random()

    def test_attach_cases(self):
        # s_tree([1]) has order 7 and s_tree([2]) order 9; r = 1 adds one
        # pendant P2 to case (i) at 0, to case (ii) latter at 14 and to
        # case (iii) at 6; s_tree([1, 2]) is pinned by test_s_tree
        s_12 = set(s_tree([1, 2]).edges())
        expected = [
            {(0, 1), (0, 8), (0, 17), (1, 2), (1, 5), (2, 3), (2, 4), (3, 6),
             (4, 7), (8, 9), (8, 13), (9, 10), (9, 11), (9, 12), (10, 14),
             (11, 15), (12, 16), (17, 18)},
            s_12 | {(0, 14)},
            s_12 | {(4, 14)},
            s_12 | {(2, 14), (14, 15), (15, 16)},
            {(0, 1), (0, 2), (0, 3), (0, 6), (1, 4), (1, 5), (6, 7), (7, 8)},
        ]
        assert [set(t.edges()) for t in _attach_cases(1, 2, 1)] == expected


def assert_cut(tree: Tree, v: int, order: list, parent: list) -> None:
    """order and parent are the forest tree - v, cut from a rooted order of
    the tree at any root: every vertex but v exactly once, each after its
    parent, every parent edge a tree edge, and deg(v) roots, one per
    component of tree - v.  That makes n - 1 - deg(v) distinct edges, all
    of tree - v."""
    assert sorted(order) == [w for w in range(tree.n) if w != v]
    position = {w: i for i, w in enumerate(order)}
    root_of = {}
    for w in order:
        p = parent[w]
        if p < 0:
            root_of[w] = w
        else:
            assert p != v and p in tree.adj[w] and position[p] < position[w]
            root_of[w] = root_of[p]
    roots = [w for w in order if parent[w] < 0]
    assert len(roots) == tree.degree(v)
    for r in roots:  # the component of r in tree - v, by flood fill
        component = {r}
        stack = [r]
        while stack:
            for w in tree.adj[stack.pop()]:
                if w != v and w not in component:
                    component.add(w)
                    stack.append(w)
        assert component == {w for w in order if root_of[w] == r}


def roots_and_sizes(order: list, parent: list) -> dict:
    """Each root of a rooted forest order with the order of its component."""
    root = {}
    for w in order:
        root[w] = w if parent[w] < 0 else root[parent[w]]
    sizes = {}
    for w in order:
        sizes[root[w]] = sizes.get(root[w], 0) + 1
    return sizes


class TestDeleteVertex:
    """T - v as without_vertex cuts it from a rooted order of the tree."""

    def test_star_center(self):
        order, parent = without_vertex(
            *Tree.from_code([0, 1, 1, 1, 1]).rooted_order(), 0)
        assert roots_and_sizes(order, parent) == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_path_leaf(self):
        order, parent = without_vertex(*path(3).rooted_order(), 0)
        assert order == [1, 2] and parent[1:] == [-1, 1]

    def test_path_middle_from_an_end(self):
        # the root keeps its component; v's child starts the other
        order, parent = without_vertex(*path(3).rooted_order(2), 1)
        assert order == [2, 0] and parent == [-1, 2, -1]

    def test_spider_center(self):
        spider = s_tree([1])
        center = next(v for v in range(spider.n) if spider.degree(v) == 3)
        order, parent = without_vertex(*spider.rooted_order(), center)
        assert_cut(spider, center, order, parent)
        assert sorted(roots_and_sizes(order, parent).values()) == [2, 2, 2]

    def test_orders_sum(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randrange(2, 12)
            t = Tree(n, [(rng.randrange(0, v), v) for v in range(1, n)])
            v = rng.randrange(n)
            order, parent = without_vertex(*t.rooted_order(rng.randrange(n)),
                                           v)
            assert_cut(t, v, order, parent)
            assert (sorted(roots_and_sizes(order, parent).values())
                    == sorted(p.n for p in delete_vertex(t, v)))

    def test_out_of_range(self):
        for v in (2, 7, -1):
            with pytest.raises(ValueError, match=f"vertex {v} out of range"):
                without_vertex(*path(2).rooted_order(), v)

    def test_root_out_of_range(self):
        # a root outside 0..n-1 is refused, not read as a label from the end
        for root in (-1, 3):
            with pytest.raises(ValueError, match=f"vertex {root} out of range"):
                path(3).rooted_order(root)
        for root in (-1, 3):
            with pytest.raises(ValueError, match=f"vertex {root} out of range"):
                path(3).rooted_code(root)


class TestCanonicalCodes:
    def test_relabeling_invariance(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randrange(1, 14)
            t = Tree(n, [(rng.randrange(0, v), v) for v in range(1, n)])
            assert shuffled_copy(t, rng).canonical_code == t.canonical_code

    def test_distinct_small_trees(self):
        assert path(4).canonical_code == (0, 1, 2, 1)
        assert Tree(4, [(3, 0), (3, 1), (3, 2)]).canonical_code == (0, 1, 1, 1)

    def test_code_roundtrip(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randrange(1, 12)
            t = Tree(n, [(rng.randrange(0, v), v) for v in range(1, n)])
            back = Tree.from_code(t.canonical_code)
            assert back.canonical_code == t.canonical_code

    def test_code_string_form(self):
        t = Tree.from_code("0,1,2,2,1")
        assert t.code_str() == "0,1,2,2,1"
        with pytest.raises(ValueError):
            Tree.from_code("1,2")
        with pytest.raises(ValueError):
            Tree.from_code("0,2")

    def test_centers_match_eccentricity(self):
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randrange(1, 13)
            t = Tree(n, [(rng.randrange(0, v), v) for v in range(1, n)])
            ecc = eccentricities(t)
            radius = min(ecc)
            assert set(t.centers()) == {v for v in range(n) if ecc[v] == radius}


class TestRootedCodeBuilders:
    """The one-pass rooted code against the bottom-up builder that shifts
    and concatenates child codes (tests/oracles.py)."""

    def test_every_root_of_every_tree_up_to_order_12(self):
        for n in range(1, 13):
            for code in enumerate_free_trees(n):
                tree = Tree(code.n, code.edges())  # no code kept
                for root in range(n):
                    assert tree.rooted_code(root) == rooted_code_by_shifting(
                        tree, root), (code.code_str(), root)

    def test_seeded_prufer_trees_up_to_order_180(self):
        rng = random.Random(12)
        for n in list(range(13, 181, 7)) + [180] * 5:
            tree = prufer_tree(rng, n)
            for center in tree.centers():
                assert tree.rooted_code(center) == rooted_code_by_shifting(
                    tree, center)
            relabelled = shuffled_copy(tree, rng)
            assert relabelled.canonical_code == tree.canonical_code

    def test_canonical_code_up_to_order_12(self):
        # the larger of the center rootings, relabelled so that the first
        # center is not always the one the enumerator put first
        rng = random.Random(29)
        for n in range(1, 13):
            for code in enumerate_free_trees(n):
                tree = shuffled_copy(code, rng)
                assert tree.canonical_code == max(
                    rooted_code_by_shifting(tree, c)
                    for c in tree.centers()), code.code_str()

    def test_canonical_code_of_seeded_prufer_trees_up_to_order_180(self):
        rng = random.Random(29)
        kinds = set()
        for n in list(range(13, 181, 7)) + [180] * 5:
            tree = shuffled_copy(prufer_tree(rng, n), rng)
            centers = tree.centers()
            kinds.add(len(centers))
            code, order, parent = tree.canonical_rooting()
            assert code == tree.canonical_code == max(
                rooted_code_by_shifting(tree, c) for c in centers)
            assert (order, parent) == tree.rooted_order(centers[0])
        assert kinds == {1, 2}

    def test_bicentral_tree_coded_from_its_second_center(self):
        # 3-2-1-0-4-6 is the longest path and 5 hangs at 0: the centers
        # are 0 and 1, and the rooting at 1 is the larger
        tree = Tree(7, [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (4, 6)])
        assert tree.centers() == (0, 1)
        assert tree.rooted_code(0) == (0, 1, 2, 3, 1, 2, 1)
        assert tree.rooted_code(1) == (0, 1, 2, 3, 2, 1, 2)
        code, order, parent = tree.canonical_rooting()
        assert code == tree.canonical_code == tree.rooted_code(1)
        assert order[0] == 0 and parent[0] == -1

    def test_spectrum_output_of_seeded_prufer_trees(self, tmp_path, capsys):
        # sha256 of spectrum FILE stdout, orders 20-180 with both one and
        # two centers, taken from the rank-sorting code before the bracket
        # fold replaced it
        rng = random.Random(29)
        out = []
        for n in range(20, 181, 10):
            f = tmp_path / "tree.txt"
            f.write_text(format_tree_text(shuffled_copy(prufer_tree(rng, n),
                                                        rng)))
            assert main(["spectrum", str(f)]) == 0
            out.append(capsys.readouterr().out)
        assert hashlib.sha256("".join(out).encode("utf-8")).hexdigest() == (
            "6b8a702b6a8f02c11454b307dadb8f09560c1099d591fee8a114181c3a7a4821")


class TestTreeValidation:
    def test_edge_count(self):
        with pytest.raises(ValueError):
            Tree(3, [(0, 1)])

    def test_disconnected(self):
        with pytest.raises(ValueError):
            Tree(4, [(0, 1), (2, 3), (0, 1)])

    def test_self_loop(self):
        with pytest.raises(ValueError):
            Tree(2, [(0, 0)])

    def test_immutability(self):
        t = path(2)
        with pytest.raises(AttributeError):
            t.n = 5


class TestJoinAndBipartition:
    def test_join_structure(self):
        joined = join_trees(path(1), 0, path(2), 0, 2)
        assert joined.canonical_code == path(5).canonical_code
        assert join_trees(path(1), 0, path(1), 0, 4).canonical_code == (
            0, 1, 1, 1, 1)

    def test_bipartition_classes(self):
        side0, side1 = bipartition(path(4))
        assert set(side0) | set(side1) == set(range(4))
        for u, v in path(4).edges():
            assert (u in side0) != (v in side0)


class TestTextFormat:
    def test_roundtrip(self):
        t = c_tree([2, 1])
        back = parse_tree_text(format_tree_text(t))
        assert back.canonical_code == t.canonical_code

    def test_single_vertex(self):
        assert parse_tree_text("1\n").n == 1

    def test_bad_header(self):
        with pytest.raises(TreeFormatError):
            parse_tree_text("zebra\n0 1\n")

    def test_bad_edge_line_number(self):
        with pytest.raises(TreeFormatError, match="line 3"):
            parse_tree_text("3\n0 1\n1 two\n")

    def test_wrong_edge_count(self):
        with pytest.raises(TreeFormatError):
            parse_tree_text("3\n0 1\n")


class TestCheckedConstructorMessages:
    @pytest.mark.parametrize("n, edges, message", [
        (0, [], "tree needs at least one vertex"),
        (3, [(0, 3), (1, 2)], r"edge \(0,3\) out of range for order 3"),
        (3, [(-1, 0), (1, 2)], r"edge \(-1,0\) out of range for order 3"),
        (3, [(1, 1), (0, 2)], "self-loop at 1"),
        (3, [(0, 1), (1, 0)], r"parallel edge \(1,0\)"),
        (4, [(0, 1), (1, 2)], "tree of order 4 needs 3 edges, got 2"),
        (2, [(0, 1), (0, 1)], r"parallel edge \(0,1\)"),
        (4, [(0, 1), (1, 2), (2, 0)], "edge set is not connected"),
        (5, [(1, 2), (2, 3), (3, 1), (0, 4)], "edge set is not connected"),
    ])
    def test_each_check_keeps_its_message(self, n, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Tree(n, edges)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Tree(n, iter(edges))  # edges may be a one-pass iterable

    @pytest.mark.parametrize("code, message", [
        ("", "bad level sequence ''"),
        ("0,a", "bad level sequence '0,a'"),
        ([], "level sequence must start at 0"),
        ("1,2", "level sequence must start at 0"),
        ("0,2", "level jump at position 1"),
        ("0,1,0", "level jump at position 2"),
        ("0,1,2,4", "level jump at position 3"),
        ("0,1,-1", "level jump at position 2"),
    ])
    def test_from_code_messages(self, code, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Tree.from_code(code)


def assert_checks_pass(tree: Tree) -> None:
    """The tree built unchecked is one the checked constructor accepts,
    with the same adjacency."""
    checked = Tree(tree.n, tree.edges())
    assert checked.adj == tree.adj


def relabelled_trees(max_order: int, seed: int):
    """Every tree up to max_order, in its preorder labels and relabelled."""
    rng = random.Random(seed)
    for n in range(1, max_order + 1):
        for tree in enumerate_free_trees(n):
            yield tree
            yield shuffled_copy(tree, rng)


class TestUncheckedBuilds:
    def test_constructors(self):
        from itertools import product

        built = [path(n) for n in range(1, 12)]
        for size in range(1, 4):
            for r in product(range(3), repeat=size):
                built += [c_tree(r), s_tree(r)]
        small = list(relabelled_trees(5, seed=3))
        for tree in small:
            built += [attach_pendants(tree, [(v, s)])
                      for v in range(tree.n) for s in (1, 2)]
            if tree.n > 1:
                built.append(attach_pendants(tree, [(tree.n - 1, 1), (0, 2)]))
        for t1, t2 in product(small[::3], repeat=2):
            built += [join_trees(t1, v1, t2, v2, k)
                      for v1 in range(t1.n) for v2 in range(t2.n)
                      for k in (1, 2)]
        for n in range(1, 10):
            built += enumerate_free_trees(n)  # Tree.from_code of each code
        rng = random.Random(4)
        built += [random_tree(rng, n) for n in range(1, 40)]
        for p, q, r in product(range(1, 4), range(1, 4), range(3)):
            built += _attach_cases(p, q, r)
        for tree in built:
            assert_checks_pass(tree)

    def test_deletions_and_strips_up_to_order_nine(self):
        # a deletion builds no Tree: its parent array must be tree - v
        from treespectra.reduction import pendant_report, strip_pendant_p2

        for tree in relabelled_trees(9, seed=5):
            rooted = [tree.rooted_order(root) for root in {0, tree.n - 1}]
            for v in range(tree.n):
                for order, parent in rooted:
                    assert_cut(tree, v, *without_vertex(order, parent, v))
                if pendant_report(tree).per_vertex[v]:
                    assert_checks_pass(strip_pendant_p2(tree, v))

    def test_verify_all_builds_only_trees(self, monkeypatch, capsys):
        from treespectra.cli import main

        built = []
        build = Tree._build.__func__

        def recording(cls, *args, **kwargs):
            tree = build(cls, *args, **kwargs)
            built.append(tree)
            return tree

        monkeypatch.setattr(Tree, "_build", classmethod(recording))
        assert main(["verify", "all", "--trials", "20", "--seed", "1"]) == 0
        assert len(built) > 1000
        for tree in built:
            assert_checks_pass(tree)

    def test_verify_all_runs_no_checked_constructor(self, monkeypatch, capsys):
        from treespectra.cli import main

        calls = []
        init = Tree.__init__

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tree, "__init__", counting)
        assert main(["verify", "all", "--trials", "20", "--seed", "1"]) == 0
        assert calls == []
