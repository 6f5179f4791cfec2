"""Golden digests: the sha256 of outputs that a rewrite of the walk or of
the filters must leave byte for byte unchanged.  Each digest was taken
from the code before the in-place walk and the trace-moment prefilter."""

import hashlib
import json

import pytest

from treespectra.cli import main
from treespectra.enumeration import FreeTreeEnumerator


def sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def without_timestamps(text: str) -> list:
    out = []
    for line in text.splitlines():
        data = json.loads(line)
        data.pop("timestamp")
        out.append(json.dumps(data, sort_keys=True))
    return out


def test_integral_search_records(capsys):
    assert main(["search", "--max-order", "14", "--integral"]) == 0
    records = without_timestamps(capsys.readouterr().out)
    assert len(records) == 7  # A077027, orders 1-14
    assert sha(records) == (
        "9efe63a52aacba3b702ba02001534f87a49a000d483672d17135e29229d5a5de")


def test_shard_catalog_records(tmp_path, capsys):
    out = tmp_path / "shard.jsonl"
    assert main(["search", "--max-order", "12", "--shard", "1/4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    records = without_timestamps(out.read_text(encoding="utf-8"))
    assert len(records) == 249
    assert sha(records) == (
        "1da9b981dc9169b73641c9c82b96b545f3cfc398f6d944995f79468233e048d0")


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


def test_cursor_at_every_yield():
    enum = FreeTreeEnumerator(10, (1, 3))
    lines = [enum.cursor().to_json()]
    lines.extend(enum.cursor().to_json() for _ in enum)
    lines.append(enum.cursor().to_json())
    assert sha(lines) == (
        "0a8a70dcfdfeddc947c4a1d4ece68d7bc3baac7479dc01397bfeeb784583312e")
