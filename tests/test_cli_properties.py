"""Property tests on the command line's input boundary and on resumed
searches (hypothesis, skipped when it is missing)."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_search_cli import _Interrupted, _InterruptingWriter  # noqa: E402
from treespectra.cli import main  # noqa: E402
from treespectra.search import SearchConfig, run_search  # noqa: E402
from treespectra.trees import format_tree_text, s_tree  # noqa: E402

TREE_COMMANDS = ("spectrum", "reduce", "nullity", "charpoly")
ALPHABET = "0123456789 \n-,x\t#"
VALID_FILE = format_tree_text(s_tree([1, 2]))
VALID_CODE = s_tree([1, 2]).code_str()

mutations = st.lists(
    st.tuples(st.sampled_from(("delete", "insert", "replace")),
              st.integers(min_value=0, max_value=10 ** 6),
              st.sampled_from(ALPHABET)),
    min_size=1, max_size=6)


def mutate(text: str, edits) -> str:
    for kind, position, char in edits:
        i = position % (len(text) + 1)
        if kind == "insert":
            text = text[:i] + char + text[i:]
        elif i < len(text):
            text = text[:i] + ("" if kind == "delete" else char) + text[i + 1:]
    return text


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv) -> None:
    """Exit code 0 with no complaint, or 2 with one error line and no
    result: an exception escaping main would fail the test instead."""
    code, out, err = run_cli(argv)
    if code == 0:
        assert out and not err
    else:
        assert code == 2
        assert not out and err.startswith("error: ")


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(mutations)
def test_mutated_tree_file_exits_0_or_2(edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(mutate(VALID_FILE, edits))
        for command in TREE_COMMANDS:
            assert_clean_exit([command, path])


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(mutations)
def test_mutated_code_exits_0_or_2(edits):
    code = mutate(VALID_CODE, edits)
    for command in TREE_COMMANDS:
        assert_clean_exit([command, f"--code={code}"])


def search_args(max_order, shard, filters, every, out_path, cursor):
    return (["search", "--max-order", str(max_order),
             "--shard", f"{shard[0]}/{shard[1]}",
             "--cursor-every", str(every),
             "--out", str(out_path), "--resume", str(cursor)] + filters)


@st.composite
def searches(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    shard = (draw(st.integers(min_value=0, max_value=count - 1)), count)
    filters = draw(st.sampled_from(
        [[], ["--integral"]]
        + [["--nullity", str(k)] for k in range(4)]))
    return (draw(st.integers(min_value=1, max_value=10)), shard, filters,
            draw(st.integers(min_value=1, max_value=12)))


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(searches(), st.data())
def test_cursor_round_trips_at_random_stop(search, data):
    max_order, shard, filters, every = search
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        full = tmp / "full.jsonl"
        assert main(search_args(max_order, shard, filters, every, full,
                                tmp / "full.json")) == 0
        expected = full.read_bytes()
        stop = data.draw(st.integers(min_value=0,
                                     max_value=len(expected.splitlines())))
        out_path, cursor = tmp / "out.jsonl", tmp / "cursor.json"
        config = SearchConfig(
            max_order=max_order, shard=shard, cursor_every=every,
            integral_only="--integral" in filters,
            nullity=int(filters[1]) if "--nullity" in filters else None,
            out_path=str(out_path), resume_path=str(cursor))
        # the writer raises instead of writing record number stop, unless
        # stop is past the last record
        with open(out_path, "w", encoding="utf-8") as fh:
            try:
                run_search(config, _InterruptingWriter(fh, stop),
                           io.StringIO())
            except _Interrupted:
                pass
        assert main(search_args(max_order, shard, filters, every,
                                out_path, cursor)) == 0
        assert out_path.read_bytes() == expected
        assert json.loads(cursor.read_text())["complete"]
