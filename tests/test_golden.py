"""Golden digests: the sha256 of outputs that a rewrite of the walk, the
filters or the polynomial routines must leave byte for byte unchanged.
Each digest was taken from the code before the rewrite it guards: the
search, census and stream digests before the in-place walk and the
trace-moment prefilter, the per-tree command digests before the
quadratic-field comparison was dropped."""

import hashlib
import json

import pytest

from treespectra.cli import main
from treespectra.enumeration import FreeTreeEnumerator


def sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_integral_search_records(capsys):
    assert main(["search", "--max-order", "14", "--integral"]) == 0
    records = capsys.readouterr().out.splitlines()
    assert len(records) == 7  # A077027, orders 1-14
    assert sha(records) == (
        "9efe63a52aacba3b702ba02001534f87a49a000d483672d17135e29229d5a5de")


def test_shard_catalog_records(tmp_path, capsys):
    out = tmp_path / "shard.jsonl"
    assert main(["search", "--max-order", "12", "--shard", "1/4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    records = out.read_text(encoding="utf-8").splitlines()
    assert len(records) == 249
    assert sha(records) == (
        "1da9b981dc9169b73641c9c82b96b545f3cfc398f6d944995f79468233e048d0")


def test_records_depend_only_on_the_search(tmp_path, capsys):
    # every record carries the same seven keys, none of them a wall clock,
    # so two runs of one search write the same bytes
    args = ["search", "--max-order", "7", "--shard", "1/2"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    for line in printed.splitlines():
        assert sorted(json.loads(line)) == [
            "char_poly", "code", "nullity", "order", "order_cap", "shard",
            "spectrum"]
    out = tmp_path / "again.jsonl"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == printed


def test_census_output(capsys):
    lines = []
    for m in (0, 1, 2):
        assert main(["census", "--m-value", str(m), "--max-order", "10"]) == 0
        lines.append(capsys.readouterr().out)
    assert sha(lines) == (
        "dd66412687346323a28a4cb958ed0bb9174d8e0e2662b6ea812ff8cde4e6578e")


@pytest.mark.parametrize("count, digest", [
    (1, "0c4ea04ae3baa378573739d184a361d97891ec03c67cd282a7b60e3c508a4359"),
    (3, "6d597b03e3116b4b38f36ba18c13664d4cd995a45c912942e35fc273ddb41555"),
    (4, "e0c9ff0331495ff978d64107a502bb72bd2355d31670c5ac794667ce79c00884"),
])
def test_order_14_code_stream(count, digest):
    lines = []
    for index in range(count):
        lines.append(f"shard {index}/{count}")
        lines.extend(",".join(map(str, code))
                     for code in FreeTreeEnumerator(14, (index, count)))
    assert len(lines) == 3159 + count  # A000055(14)
    assert sha(lines) == digest


@pytest.mark.parametrize("command, digest", [
    ("charpoly",
     "0e7e5839f9afa255d0c420a58c7cbf4b3d39235dc186c7d4e0e2fe31d324c2b7"),
    ("spectrum",
     "32ad8ceecf1e90839399483dbb2080894d75b4d3e65449634f67bac50548c555"),
    ("nullity",
     "5fbf8f21b787e74d9a7ddf7dba1b1f7756164e6c89cade1aee05b6ce6b2847e9"),
    ("reduce",
     "83552fd1f6c284f776ff4be254e60719619f3b0775465383a30dcad30d710878"),
])
def test_per_tree_command_output(command, digest, capsys):
    """Standard output of a per-tree command run with --code on every tree
    of order 1-9, concatenated in enumeration order."""
    count = 0
    for n in range(1, 10):
        for code in FreeTreeEnumerator(n):
            assert main([command, "--code", ",".join(map(str, code))]) == 0
            count += 1
    assert count == 95  # A000055, orders 1-9
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_cursor_at_every_yield():
    enum = FreeTreeEnumerator(10, (1, 3))
    lines = [json.dumps(enum.position())]
    lines.extend(json.dumps(enum.position()) for _ in enum)
    lines.append(json.dumps(enum.position()))
    assert sha(lines) == (
        "5ab4b84fd789be38fbae5191257c2de9228f50fd577bb1ce42077271ea34e64c")
