"""Property tests on random trees (hypothesis, skipped when it is missing)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from treespectra.spectra import char_poly, char_poly_adjacency  # noqa: E402
from treespectra.trees import Tree  # noqa: E402


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.lists(st.integers(min_value=0, max_value=10 ** 6),
                           max_size=17))
def test_char_poly_equals_determinant_route(picks):
    # vertex v + 1 hangs off an earlier vertex chosen by picks[v]
    tree = Tree(len(picks) + 1,
                [(p % (v + 1), v + 1) for v, p in enumerate(picks)])
    assert char_poly(tree) == char_poly_adjacency(tree.adjacency_matrix())
