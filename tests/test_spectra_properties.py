"""Property tests on random trees and on the enumeration stream
(hypothesis, skipped when it is missing)."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import (adjacency_matrix, char_poly_determinant,  # noqa: E402
                     prufer_tree, rational_root_multiplicity)
from treespectra.enumeration import FreeTreeEnumerator  # noqa: E402
from treespectra.spectra import char_poly  # noqa: E402
from treespectra.trees import Tree  # noqa: E402


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.lists(st.integers(min_value=0, max_value=10 ** 6),
                           max_size=17))
def test_char_poly_equals_determinant_route(picks):
    # vertex v + 1 hangs off an earlier vertex chosen by picks[v]
    tree = Tree(len(picks) + 1,
                [(p % (v + 1), v + 1) for v, p in enumerate(picks)])
    assert char_poly(tree) == char_poly_determinant(
        adjacency_matrix(tree.n, tree.edges()))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.integers(min_value=0, max_value=10 ** 6),
                  st.integers(min_value=1, max_value=40),
                  st.fractions(min_value=-6, max_value=6, max_denominator=12)
                  .filter(lambda t: t.denominator > 1))
def test_inertia_at_non_integer_rationals(seed, n, t):
    from treespectra.polys import count_roots_at_least
    from treespectra.spectra import inertia

    tree = prufer_tree(random.Random(seed), n)
    phi = char_poly(tree)
    below = n - count_roots_at_least(phi, t)
    assert inertia(tree, t) == (below, rational_root_multiplicity(phi, t))


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(st.integers(min_value=0, max_value=10 ** 6),
                  st.integers(min_value=1, max_value=30))
def test_canonical_code_invariant_under_relabelling(seed, n):
    rng = random.Random(seed)
    tree = prufer_tree(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = Tree(n, [(perm[u], perm[v]) for u, v in tree.edges()])
    assert relabelled.canonical_code == tree.canonical_code


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(st.integers(min_value=1, max_value=7),
                  st.integers(min_value=1, max_value=10))
def test_shards_merged_in_emission_order_are_the_stream(m, n):
    # shard i owns emission indices k with k % m == i, in order
    shards = [list(FreeTreeEnumerator(n, (i, m))) for i in range(m)]
    total = sum(map(len, shards))
    merged = [shards[k % m][k // m] for k in range(total)]
    assert merged == list(FreeTreeEnumerator(n))
