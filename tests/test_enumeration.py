import json
import random

import pytest

from oracles import (_degree_square_sum, _doomed_run_end, _is_center_code,
                     _successor, free_tree_codes_networkx,
                     free_tree_counts_by_recurrence, is_free_tree_code,
                     labeled_tree_codes)
from treespectra.enumeration import FreeTreeEnumerator, enumerate_free_trees
from treespectra.trees import Tree, code_parents, parent_degrees

# counts for n = 1..12, from the labeled-tree dedup oracle (live below for
# n <= 8) and the counting recurrence (cross-checked live for all 12)
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


class TestSuccessorRule:
    def test_order_four_walk(self):
        seqs = []
        seq = list(range(4))
        while seq is not None:
            seqs.append(tuple(seq))
            seq = _successor(seq)
        assert seqs == [(0, 1, 2, 3), (0, 1, 2, 2), (0, 1, 2, 1), (0, 1, 1, 1)]

    def test_candidates_are_canonical(self):
        # every generated rooted sequence is its own root-0 canonical code
        for n in range(1, 8):
            seq = list(range(n))
            while seq is not None:
                tree = Tree.from_code(seq)
                assert tree.rooted_code(0) == tuple(seq)
                seq = _successor(seq)

    def test_emission_rule_matches_built_tree(self):
        # the sequence-level rule against building every candidate tree
        for n in range(1, 13):
            seq = list(range(n))
            while seq is not None:
                assert _is_center_code(seq) == is_free_tree_code(seq), seq
                seq = _successor(seq)


    def test_direct_build_matches_validated_build(self):
        # every rooted candidate, center-rooted or not: from_code's
        # unchecked build is the tree the checked constructor makes of the
        # code's parent array
        for n in range(1, 11):
            seq = list(range(n))
            while seq is not None:
                direct = Tree.from_code(seq)
                checked = Tree(n, enumerate(code_parents(seq)[1:], 1))
                assert (direct.n, direct.adj) == (checked.n, checked.adj), seq
                assert direct.edges() == checked.edges(), seq
                seq = _successor(seq)


def reference_codes(n, shard=(0, 1)):
    """The emitted stream without skipping: _is_center_code on every
    candidate of the successor walk, then the round-robin shard rule."""
    index, count = shard
    codes = []
    emitted = 0
    seq = list(range(n))
    while seq is not None:
        if _is_center_code(seq):
            if emitted % count == index:
                codes.append(tuple(seq))
            emitted += 1
        seq = _successor(seq)
    return codes


def skipping_reference_codes(n):
    """The emitted stream of the reference walk with Rules A and B: fresh
    lists, and every fact recomputed for every candidate."""
    codes = []
    seq = list(range(n))
    while seq is not None:
        doomed = _doomed_run_end(seq)
        if doomed is not None:
            seq = doomed
        elif _is_center_code(seq):
            codes.append(tuple(seq))
        seq = _successor(seq)
    return codes


def walk_with_parents(enum):
    """(code, parent array, degrees, sum of squared degrees) at each yield."""
    return [(code, list(enum.parent), list(enum.degree),
             enum.degree_square_sum) for code in enum]


def code_state(code):
    parent = code_parents(code)
    return code, parent, parent_degrees(parent), _degree_square_sum(parent)


class TestSkippingWalk:
    def test_in_place_walk_matches_reference_and_code_parents(self):
        # codes, the parent array and the degrees kept in step with it at
        # every yield, for every shard
        for n in range(1, 15):
            full = skipping_reference_codes(n)
            for count in (1, 3, 4):
                for index in range(count):
                    ours = walk_with_parents(
                        FreeTreeEnumerator(n, (index, count)))
                    assert ours == [code_state(code)
                                    for code in full[index::count]], (
                        n, index, count)

    def test_resume_at_every_yield_gives_rest_and_parents(self):
        enum = FreeTreeEnumerator(9)
        full = walk_with_parents(FreeTreeEnumerator(9))
        for done, _ in enumerate(enum, start=1):
            rest = walk_with_parents(
                FreeTreeEnumerator(9, position=enum.position()))
            assert rest == full[done:], done

    def test_stream_matches_reference_walk(self):
        for n in range(1, 15):
            ours = [t.canonical_code for t in enumerate_free_trees(n)]
            assert ours == reference_codes(n), n

    def test_shards_match_reference_walk(self):
        for n in range(1, 13):
            for i in range(3):
                ours = list(FreeTreeEnumerator(n, (i, 3)))
                assert ours == reference_codes(n, (i, 3)), (n, i)

    def test_resume_after_every_emitted_tree(self):
        full = reference_codes(10, (1, 3))
        enum = FreeTreeEnumerator(10, (1, 3))
        for done, code in enumerate(enum, start=1):
            # the position holds the last emitted owned sequence
            assert enum.position()[0] == code
            rest = list(FreeTreeEnumerator(10, (1, 3), enum.position()))
            assert rest == full[done:], done
        assert list(FreeTreeEnumerator(10, (1, 3), enum.position())) == []


class TestFreeTreeStream:
    def test_counts_match_recurrence(self):
        live = free_tree_counts_by_recurrence(12)
        for n, expected in enumerate(FREE_TREE_COUNTS, start=1):
            assert live[n] == expected

    def test_counts_small(self):
        for n, expected in enumerate(FREE_TREE_COUNTS[:9], start=1):
            assert sum(1 for _ in enumerate_free_trees(n)) == expected

    def test_codes_match_labeled_dedup(self):
        for n in range(1, 9):
            ours = {t.canonical_code for t in enumerate_free_trees(n)}
            assert ours == labeled_tree_codes(n)

    @pytest.mark.parametrize("n", range(9, 14))
    def test_codes_match_networkx(self, n):
        pytest.importorskip("networkx")
        ours = {t.canonical_code for t in enumerate_free_trees(n)}
        assert ours == free_tree_codes_networkx(n)

    def test_emitted_code_is_recomputed_code(self):
        # each yielded code is the canonical code its tree computes from
        # its centers
        for n in range(1, 13):
            for code in FreeTreeEnumerator(n):
                assert code == Tree.from_code(code).canonical_code, code

    def test_no_duplicates_and_sorted(self):
        for n in range(1, 10):
            codes = [t.canonical_code for t in enumerate_free_trees(n)]
            assert len(set(codes)) == len(codes)
            assert codes == sorted(codes, reverse=True)

    def test_examples(self):
        assert sum(1 for _ in enumerate_free_trees(4)) == 2
        assert sum(1 for _ in enumerate_free_trees(7)) == 11
        assert sum(1 for _ in enumerate_free_trees(10)) == 106


class TestSharding:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_partition(self, m):
        full = [t.canonical_code for t in enumerate_free_trees(9)]
        shards = [list(FreeTreeEnumerator(9, (i, m))) for i in range(m)]
        merged = [c for shard in shards for c in shard]
        assert sorted(merged, reverse=True) == full
        assert len(merged) == len(set(merged))

    def test_invalid_shard(self):
        with pytest.raises(ValueError):
            FreeTreeEnumerator(5, (3, 2))
        with pytest.raises(ValueError):
            FreeTreeEnumerator(5, (0, 0))


def resumed_streams(n, shard):
    """(stream so far, stream resumed from the position) at every position
    of a walk: before the first yield, after each yield and after the end;
    each position goes through JSON, as a search saves it."""
    enum = FreeTreeEnumerator(n, shard)
    done = []

    def resumed():
        position = json.loads(json.dumps(enum.position()))
        return list(done), list(FreeTreeEnumerator(n, shard, position))

    pairs = [resumed()]
    for code in enum:
        done.append(code)
        pairs.append(resumed())
    pairs.append(resumed())
    return pairs


class TestCursorResume:
    @pytest.mark.parametrize("shard", [(0, 1), (1, 3), (2, 4)])
    def test_resume_from_every_position(self, shard):
        for n in range(1, 13):
            full = list(FreeTreeEnumerator(n, shard))
            for done, rest in resumed_streams(n, shard):
                assert done + rest == full, (n, len(done))

    def test_resume_mid_stream(self):
        rng = random.Random(0)
        for n in (6, 8, 9):
            full = [t.canonical_code for t in enumerate_free_trees(n)]
            stop = rng.randrange(1, len(full))
            enum = FreeTreeEnumerator(n)
            first = []
            for code in enum:
                first.append(code)
                if len(first) == stop:
                    break
            # through JSON, like the search's state file
            position = json.loads(json.dumps(enum.position()))
            rest = list(FreeTreeEnumerator(n, position=position))
            assert first + rest == full

    def test_fresh_cursor_resumes_from_start(self):
        enum = FreeTreeEnumerator(5)
        assert enum.position() == (None, 0)
        again = FreeTreeEnumerator(5, position=enum.position())
        assert [len(c) for c in again] == [5, 5, 5]

    def test_exhausted_cursor(self):
        # a finished position yields nothing, whatever the shard
        for shard in [(0, 1), (1, 3), (2, 4)]:
            enum = FreeTreeEnumerator(3, shard)
            list(enum)
            assert enum.position() == ((0, 1, 1), 1)
            assert list(FreeTreeEnumerator(3, shard, enum.position())) == []

    def test_cursor_mismatch(self):
        enum = FreeTreeEnumerator(5)
        list(enum)
        with pytest.raises(ValueError, match="not of order 6"):
            FreeTreeEnumerator(6, position=enum.position())
        with pytest.raises(ValueError, match="nonnegative"):
            FreeTreeEnumerator(5, position=((0, 1, 2, 1, 1), -1))
