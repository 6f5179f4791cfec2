import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import zlib

import pytest

import treespectra
from treespectra import cli, search, verifier
from treespectra.catalog import CatalogRecord
from treespectra.cli import build_parser, command_parser, main
from treespectra.enumeration import FreeTreeEnumerator
from treespectra.search import CursorError, SearchConfig, run_search
from treespectra.spectra import _integrality
from treespectra.trees import Tree, format_tree_text, path, s_tree


def run_engine(tmp_path, **kwargs):
    out = io.StringIO()
    err = io.StringIO()
    config = SearchConfig(**kwargs)
    summary = run_search(config, out, err)
    records = [CatalogRecord.from_json(line)
               for line in out.getvalue().splitlines()]
    return records, summary


class _Interrupted(Exception):
    pass


class _InterruptingWriter:
    """Text stream that raises instead of performing write number limit+1."""

    def __init__(self, fh, limit):
        self._fh = fh
        self._left = limit

    def write(self, text):
        if self._left == 0:
            raise _Interrupted
        self._left -= 1
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class _Crash(BaseException):
    """A process killed in the middle of a call: no handler of the package
    catches it, and the files it had open lose what they had not flushed."""


_os_replace = os.replace


class _FaultyFiles:
    """Counts each write, flush and os.replace the search makes, on every
    file it opens; call number crash_at raises _Crash instead (0: none
    does).  A file holds its writes in memory until it is flushed, and a
    crash drops them, as a killed process drops its buffers; a crash in a
    flush writes half of them first, a torn write."""

    def __init__(self, crash_at: int):
        self.crash_at = crash_at
        self.calls = []

    def tick(self, kind: str) -> None:
        self.calls.append(kind)
        if len(self.calls) == self.crash_at:
            raise _Crash(kind)

    def open(self, *args, **kwargs):
        return _FaultyFile(self, open(*args, **kwargs))

    def replace(self, src, dst) -> None:
        self.tick("replace")
        _os_replace(src, dst)


class _FaultyFile:
    def __init__(self, files: _FaultyFiles, fh):
        self._files = files
        self._fh = fh
        self._pending = []

    def write(self, text):
        self._files.tick("write")
        self._pending.append(text)
        return len(text)

    def flush(self):
        data = "".join(self._pending)
        self._pending.clear()
        try:
            self._files.tick("flush")
        except _Crash:
            self._fh.write(data[:len(data) // 2])  # reaches the disk at close
            raise
        self._fh.write(data)
        self._fh.flush()

    def tell(self):
        assert not self._pending, "tell before a flush"
        return self._fh.tell()

    def __enter__(self):
        return self

    def __exit__(self, kind, *rest):
        try:
            if kind is None:
                self.flush()  # closing flushes
        finally:
            self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def interrupted_order_9(tmp_path):
    """(--out file, state file) of a search to order 9 stopped after 60
    records, mid-order 9, with a state saved every 2 owned trees."""
    out_path, cursor = tmp_path / "cat.jsonl", tmp_path / "cursor.json"
    config = SearchConfig(max_order=9, out_path=str(out_path),
                          resume_path=str(cursor), cursor_every=2)
    with open(out_path, "w", encoding="utf-8") as fh:
        with pytest.raises(_Interrupted):
            run_search(config, _InterruptingWriter(fh, 60), io.StringIO())
    return out_path, cursor


def state_check(state):
    """The state file's check, computed apart from the package's."""
    fields = {key: value for key, value in state.items() if key != "check"}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(text.encode("utf-8"))


class TestSearchEngine:
    def test_nullity_two_integral(self, tmp_path):
        records, _ = run_engine(tmp_path, max_order=10, nullity=2,
                                integral_only=True)
        assert len(records) == 1
        assert records[0].order == 6
        assert records[0].spectrum == {"-2": 1, "-1": 1, "0": 2, "1": 1, "2": 1}

    def test_integral_up_to_ten(self, tmp_path):
        records, _ = run_engine(tmp_path, max_order=10, integral_only=True)
        assert [r.order for r in records] == [1, 2, 5, 6, 7, 10]

    def test_reduced_filter(self, tmp_path):
        records, _ = run_engine(tmp_path, max_order=6, reduced_only=True,
                                integral_only=True)
        # one vertex, the edge, the order-5 star, and the nullity-2 tree
        assert {r.order for r in records} == {1, 2, 5, 6}

    def test_shard_union(self, tmp_path):
        full, _ = run_engine(tmp_path, max_order=9, nullity=1)
        merged = []
        for i in range(3):
            part, _ = run_engine(tmp_path, max_order=9, nullity=1, shard=(i, 3))
            merged.extend(r.code for r in part)
        assert sorted(merged) == sorted(r.code for r in full)
        assert len(merged) == len(set(merged))

    def test_resume_no_duplicates(self, tmp_path):
        out_path = tmp_path / "catalog.jsonl"
        config = SearchConfig(max_order=8, integral_only=True,
                              out_path=str(out_path),
                              resume_path=str(tmp_path / "cursor.json"),
                              cursor_every=2)
        with open(out_path, "w", encoding="utf-8") as fh:
            run_search(config, fh, io.StringIO())
        first = out_path.read_bytes()
        # a rerun against the completed cursor adds nothing
        with open(out_path, "a", encoding="utf-8") as fh:
            summary = run_search(config, fh, io.StringIO())
        assert summary.get("resumed_complete")
        assert out_path.read_bytes() == first

    @pytest.mark.parametrize("every", [2, 3])
    def test_resume_after_interrupt_at_every_record(self, tmp_path, every):
        def cli_args(out_path, cursor):
            return ["search", "--max-order", "8", "--out", str(out_path),
                    "--resume", str(cursor), "--cursor-every", str(every)]

        full = tmp_path / "full.jsonl"
        assert main(cli_args(full, tmp_path / "full.json")) == 0
        expected = full.read_bytes()
        assert len(expected.splitlines()) == 48  # every tree of order 1..8
        for limit in range(48):
            out_path = tmp_path / f"out{limit}.jsonl"
            cursor = tmp_path / f"cursor{limit}.json"
            config = SearchConfig(max_order=8, out_path=str(out_path),
                                  resume_path=str(cursor), cursor_every=every)
            with open(out_path, "w", encoding="utf-8") as fh:
                with pytest.raises(_Interrupted):
                    run_search(config, _InterruptingWriter(fh, limit),
                               io.StringIO())
            assert main(cli_args(out_path, cursor)) == 0
            assert out_path.read_bytes() == expected, limit

    def test_resume_after_interrupt_before_complete_save(self, tmp_path,
                                                         monkeypatch):
        """A run stopped after its last incomplete cursor save, before the
        save that marks it complete, writes no record twice on resume."""
        full = tmp_path / "full.jsonl"
        assert main(["search", "--max-order", "6", "--out", str(full)]) == 0
        expected = full.read_bytes()
        assert len(expected.splitlines()) == 14  # every tree of order 1..6
        out_path, cursor = tmp_path / "out.jsonl", tmp_path / "cursor.json"
        config = SearchConfig(max_order=6, out_path=str(out_path),
                              resume_path=str(cursor))
        save = search._save_cursor

        def stop_before_complete(config, out, order, cursor, complete):
            if complete:
                raise _Interrupted
            save(config, out, order, cursor, complete)

        with monkeypatch.context() as patch:
            patch.setattr(search, "_save_cursor", stop_before_complete)
            with open(out_path, "w", encoding="utf-8") as fh:
                with pytest.raises(_Interrupted):
                    run_search(config, fh, io.StringIO())
        assert main(["search", "--max-order", "6", "--out", str(out_path),
                     "--resume", str(cursor)]) == 0
        assert out_path.read_bytes() == expected

    @pytest.mark.parametrize("every", [1, 2, 3])
    def test_resume_after_a_crash_in_any_file_call(self, tmp_path,
                                                   monkeypatch, every):
        """A search killed in any write, flush or os.replace it makes, its
        records' and its cursor's alike, resumes to the bytes of a run that
        was never interrupted."""
        def cli_args(name):
            return ["search", "--max-order", "8",
                    "--out", str(tmp_path / f"{name}.jsonl"),
                    "--resume", str(tmp_path / f"{name}.json"),
                    "--cursor-every", str(every)]

        def run_until(name, crash_at):
            files = _FaultyFiles(crash_at)
            with monkeypatch.context() as patch:
                patch.setattr(search, "open", files.open, raising=False)
                patch.setattr(search.os, "replace", files.replace)
                if crash_at:
                    with pytest.raises(_Crash):
                        main(cli_args(name))
                else:
                    assert main(cli_args(name)) == 0
            return files.calls

        assert main(cli_args("full")) == 0
        expected = (tmp_path / "full.jsonl").read_bytes()
        assert len(expected.splitlines()) == 48  # every tree of order 1..8
        calls = run_until("counted", 0)
        assert (tmp_path / "counted.jsonl").read_bytes() == expected
        assert {"write", "flush", "replace"} == set(calls)
        for crash_at in range(1, len(calls) + 1):
            name = f"crash{crash_at}"
            run_until(name, crash_at)
            assert main(cli_args(name)) == 0, (crash_at, calls[crash_at - 1])
            assert (tmp_path / f"{name}.jsonl").read_bytes() == expected, (
                crash_at, calls[crash_at - 1])

    def test_cursor_without_offset_refused(self, tmp_path):
        cursor = tmp_path / "cursor.json"
        config = SearchConfig(max_order=5, out_path=str(tmp_path / "o.jsonl"),
                              resume_path=str(cursor), cursor_every=2)
        run_search(config, None, io.StringIO())
        state = json.loads(cursor.read_text())
        del state["out_offset"]
        cursor.write_text(json.dumps(state))
        with pytest.raises(CursorError, match="delete it"):
            run_search(config, None, io.StringIO())

    def test_resume_refuses_shortened_output(self, tmp_path):
        out_path = tmp_path / "cat.jsonl"
        cursor = tmp_path / "cursor.json"
        config = SearchConfig(max_order=6, out_path=str(out_path),
                              resume_path=str(cursor), cursor_every=2)
        with open(out_path, "w", encoding="utf-8") as fh:
            with pytest.raises(_Interrupted):
                run_search(config, _InterruptingWriter(fh, 8), io.StringIO())
        out_path.write_text("")
        with open(out_path, "a", encoding="utf-8") as fh:
            with pytest.raises(CursorError, match="shorter"):
                run_search(config, fh, io.StringIO())
        out_path.unlink()  # refused before the missing file is made again
        assert main(["search", "--max-order", "6", "--out", str(out_path),
                     "--resume", str(cursor), "--cursor-every", "2"]) == 2
        assert not out_path.exists()

    def test_resume_into_other_file_refused(self, tmp_path):
        cursor = tmp_path / "cursor.json"
        config = SearchConfig(max_order=6, out_path=str(tmp_path / "a.jsonl"),
                              resume_path=str(cursor), cursor_every=2)
        with open(config.out_path, "w", encoding="utf-8") as fh:
            with pytest.raises(_Interrupted):
                run_search(config, _InterruptingWriter(fh, 8), io.StringIO())
        other = tmp_path / "other.txt"
        other.write_text("x" * 10000)
        assert main(["search", "--max-order", "6", "--out", str(other),
                     "--resume", str(cursor), "--cursor-every", "2"]) == 2
        assert other.read_text() == "x" * 10000
        missing = tmp_path / "missing.jsonl"
        assert main(["search", "--max-order", "6", "--out", str(missing),
                     "--resume", str(cursor), "--cursor-every", "2"]) == 2
        assert not missing.exists()

    def test_stdout_cursor_and_out_file_refuse_each_other(self, tmp_path):
        # standard output has no offset to cut back to, so a search to it
        # saves no cursor: the config is refused before anything runs (a
        # file's cursor refuses every other --out, as tested above)
        cursor = tmp_path / "cursor.json"
        with pytest.raises(ValueError, match="--resume needs --out"):
            SearchConfig(max_order=7, resume_path=str(cursor))
        assert not cursor.exists()

    @pytest.mark.parametrize("name", ["c.json", "c.json.tmp"])
    def test_out_file_clashing_with_cursor_refused(self, tmp_path, capsys,
                                                   monkeypatch, name):
        # a cursor is saved to its name + ".tmp", then renamed over its
        # name: either as --out would lose the records; the paths are
        # compared absolute, and the refusal makes no file
        monkeypatch.chdir(tmp_path)
        assert main(["search", "--max-order", "7", "--out",
                     str(tmp_path / name), "--resume", "c.json"]) == 2
        assert "--out must be neither" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("other", [False, True])
    def test_complete_cursor_checks_out_file(self, tmp_path, capsys, other):
        # a finished search's cursor still guards its output file: a
        # deleted file or another --out is refused, and no file is made
        out_path = tmp_path / "a.jsonl"
        cursor = tmp_path / "c.json"
        args = ["search", "--max-order", "5", "--resume", str(cursor)]
        assert main(args + ["--out", str(out_path)]) == 0
        assert out_path.stat().st_size > 0
        if other:
            target = tmp_path / "b.jsonl"
        else:
            target = out_path
            out_path.unlink()
        capsys.readouterr()
        assert main(args + ["--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert ("belongs to the output file" if other else "shorter") in err
        assert not target.exists()

    @pytest.mark.parametrize("field, value", [
        ("sequence", [0, 5, 1, 1, 1, 1, 1, 1, 1]),  # no level sequence
        ("sequence", [0, 1]),  # the wrong length
        ("sequence", [0, 1, 1, 2, 1, 1, 1, 1, 1]),  # not canonical
        ("sequence", None),
        ("emitted", -1),
        ("order", 10),
        ("order", 0),
        # a well-formed count that would hand the shard other shards' trees
        pytest.param("emitted", "+1", id="emitted-plus-1"),
        # a shorter offset would cut records the state counts as written
        pytest.param("out_offset", "-1", id="out_offset-minus-1"),
        ("complete", True),
    ])
    def test_mutated_cursor_refused(self, tmp_path, capsys, field, value):
        out_path, cursor = interrupted_order_9(tmp_path)
        state = json.loads(cursor.read_text())
        assert state["order"] == 9 and len(state["sequence"]) == 9
        if field == "order":  # as saved at an order boundary
            state.update(order=value, sequence=None, emitted=0)
        elif value in ("+1", "-1"):
            state[field] += int(value)
        else:
            state[field] = value
        cursor.write_text(json.dumps(state))
        before = out_path.read_bytes()
        assert main(["search", "--max-order", "9", "--out", str(out_path),
                     "--resume", str(cursor), "--cursor-every", "2"]) == 2
        assert out_path.read_bytes() == before
        assert "delete it" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        {"complete": False},
        {"order": 4},
        {"complete": False, "order": 4},
    ], ids=["incomplete", "order-4", "incomplete-order-4"])
    def test_edited_finished_state_refused(self, tmp_path, capsys, edit):
        # run again from an edited state, a finished search would write
        # its last orders' records a second time
        out_path, cursor = tmp_path / "o.jsonl", tmp_path / "c.json"
        args = ["search", "--max-order", "6", "--out", str(out_path),
                "--resume", str(cursor)]
        assert main(args) == 0
        assert len(out_path.read_text().splitlines()) == 14
        state = json.loads(cursor.read_text())
        assert state["complete"] and state["order"] == 6
        state.update(edit)
        cursor.write_text(json.dumps(state))
        before = out_path.read_bytes()
        assert main(args) == 2
        assert out_path.read_bytes() == before
        assert "edited" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        {"sequence": [0, 5, 1, 1, 1, 1, 1, 1, 1]},  # no level sequence
        {"sequence": [0, 1]},  # the wrong length
        {"sequence": [0, 1, 1, 2, 1, 1, 1, 1, 1]},  # not canonical
        {"emitted": -1},
        {"sequence": None},  # a count with no sequence: other shards' trees
        {"emitted": 0},
        {"order": 10, "sequence": None, "emitted": 0},
        {"order": 0, "sequence": None, "emitted": 0},
    ], ids=["no-level-sequence", "wrong-length", "not-canonical",
            "negative-count", "count-without-sequence",
            "sequence-without-count", "order-10", "order-0"])
    def test_rechecked_state_refused(self, tmp_path, capsys, edit):
        # a state no search writes is refused also under a check that
        # matches it: the check is a CRC-32 of the canonical JSON of every
        # other field
        out_path, cursor = interrupted_order_9(tmp_path)
        state = json.loads(cursor.read_text())
        assert sorted(state) == ["check", "complete", "emitted", "filters",
                                 "order", "out_offset", "out_path",
                                 "sequence"]
        assert state["check"] == state_check(state)
        state.update(edit)
        state["check"] = state_check(state)
        cursor.write_text(json.dumps(state))
        before = out_path.read_bytes()
        assert main(["search", "--max-order", "9", "--out", str(out_path),
                     "--resume", str(cursor), "--cursor-every", "2"]) == 2
        assert out_path.read_bytes() == before
        err = capsys.readouterr().err
        assert "delete it" in err and "edited" not in err

    def test_cursor_mismatch_refused(self, tmp_path):
        paths = dict(out_path=str(tmp_path / "o.jsonl"),
                     resume_path=str(tmp_path / "cursor.json"))
        run_search(SearchConfig(max_order=5, **paths), None, io.StringIO())
        with pytest.raises(CursorError):
            run_search(SearchConfig(max_order=6, **paths), None,
                       io.StringIO())

    def test_corrupt_cursor_refused(self, tmp_path):
        cursor = tmp_path / "cursor.json"
        cursor.write_text("{not json")
        with pytest.raises(CursorError):
            run_search(SearchConfig(max_order=5,
                                    out_path=str(tmp_path / "o.jsonl"),
                                    resume_path=str(cursor)),
                       None, io.StringIO())

    @pytest.mark.parametrize("existing", [None, b'{"kept": 1}\n'])
    def test_corrupt_cursor_leaves_out_file_untouched(self, tmp_path, capsys,
                                                      existing):
        cursor = tmp_path / "cursor.json"
        cursor.write_text("{not json")
        out_path = tmp_path / "new.jsonl"
        if existing is not None:
            out_path.write_bytes(existing)
        assert main(["search", "--max-order", "5", "--out", str(out_path),
                     "--resume", str(cursor)]) == 2
        assert "corrupt" in capsys.readouterr().err
        if existing is None:
            assert not out_path.exists()
        else:
            assert out_path.read_bytes() == existing

    def test_record_roundtrip(self, tmp_path):
        records, _ = run_engine(tmp_path, max_order=7, integral_only=True)
        for record in records:
            assert record.roundtrip_ok()
            parsed = CatalogRecord.from_json(record.to_json())
            assert parsed.code == record.code
            assert parsed.spectrum == record.spectrum

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SearchConfig(max_order=0)
        with pytest.raises(ValueError):
            SearchConfig(max_order=5, shard=(2, 2))


class TestCursorSaves:
    """Every state a search saves, against a plain enumerator walk: a save
    after every K-th owned code of an order, one at each order boundary
    naming the next order, and one complete save at the end."""

    @staticmethod
    def expected_saves(max_order, shard, every, integral, lines):
        saves, offset, records = [], 0, iter(lines)
        for n in range(1, max_order + 1):
            enum = FreeTreeEnumerator(n, shard)
            for owned, code in enumerate(enum, start=1):
                if not integral or _integrality(range(n), enum.parent)[1]:
                    line = next(records)
                    assert json.loads(line)["code"] == ",".join(map(str, code))
                    offset += len(line.encode("utf-8"))
                if owned % every == 0:
                    sequence, emitted = enum.position()
                    saves.append((n, list(sequence), emitted, False, offset))
            if n < max_order:
                saves.append((n + 1, None, 0, False, offset))
        assert next(records, None) is None
        saves.append((max_order, None, 0, True, offset))
        return saves

    @pytest.mark.parametrize("integral", [False, True])
    @pytest.mark.parametrize("every", [1, 3, 7])
    @pytest.mark.parametrize("shard", [(0, 1), (1, 3)])
    def test_every_save_point(self, tmp_path, monkeypatch, integral, every,
                              shard):
        cursor = tmp_path / "cursor.json"
        out_path = tmp_path / "out.jsonl"
        saved = []
        save = search._save_cursor

        def capture(*args, **kwargs):
            save(*args, **kwargs)
            state = json.loads(cursor.read_text())
            saved.append((state["order"], state["sequence"], state["emitted"],
                          state["complete"], state["out_offset"]))

        monkeypatch.setattr(search, "_save_cursor", capture)
        config = SearchConfig(max_order=9, integral_only=integral,
                              shard=shard, out_path=str(out_path),
                              resume_path=str(cursor), cursor_every=every)
        search.run_search(config, None, io.StringIO())
        lines = out_path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert saved == self.expected_saves(9, shard, every, integral, lines)


class TestCli:
    def test_charpoly_file(self, tmp_path, capsys):
        f = tmp_path / "edge.txt"
        f.write_text(format_tree_text(path(2)))
        assert main(["charpoly", str(f)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "-1,0,1"

    def test_charpoly_code_factored(self, capsys):
        assert main(["charpoly", "--code", s_tree([1]).code_str()]) == 0
        out = capsys.readouterr().out
        assert "x * (x^2 - 1)^2 * (x^2 - 4)" in out

    def test_charpoly_malformed(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("3\n0 1\n1 zebra\n")
        assert main(["charpoly", str(f)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_spectrum(self, capsys):
        assert main(["spectrum", "--code", "0,1,1,1,1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["is_integral"] and data["nullity"] == 3

    def test_nullity(self, capsys):
        assert main(["nullity", "--code", "0,1,2,1,2,1,2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["by_polynomial"] == data["by_matching"] == 1

    def test_nullity_routes_disagreeing_exit_one(self, capsys, monkeypatch):
        matching = cli._matching_nullity
        monkeypatch.setattr(cli, "_matching_nullity",
                            lambda order, parent: matching(order, parent) + 1)
        assert main(["nullity", "--code", "0,1,2,1,2,1,2"]) == 1
        out = capsys.readouterr()
        data = json.loads(out.out)
        assert data["by_matching"] == data["by_polynomial"] + 1
        assert out.err == "nullity routes disagree\n"

    def test_reduce(self, capsys):
        assert main(["reduce", "--code", path(5).code_str()]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads(lines[-1])
        assert summary["core"] == "0" and summary["strips"] == 2

    def test_reduce_noop(self, capsys):
        assert main(["reduce", "--code", "0,1"]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["strips"] == 0

    def test_search_cli(self, tmp_path, capsys):
        code = main(["search", "--max-order", "8", "--nullity", "3",
                     "--integral"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and json.loads(out[0])["order"] == 5

    def test_search_out_file_and_resume(self, tmp_path):
        out_file = tmp_path / "cat.jsonl"
        cursor = tmp_path / "cur.json"
        args = ["search", "--max-order", "7", "--integral",
                "--out", str(out_file), "--resume", str(cursor),
                "--cursor-every", "3"]
        assert main(args) == 0
        first = out_file.read_text()
        assert main(args) == 0
        assert out_file.read_text() == first
        orders = [json.loads(l)["order"] for l in first.splitlines()]
        assert orders == [1, 2, 5, 6, 7]

    @pytest.mark.parametrize("max_order, nullity", [(6, 1), (1, 0)])
    def test_search_nullity_other_parity_completes(self, tmp_path, capsys,
                                                   max_order, nullity):
        # the last order of a nullity-1 search to 6 is 5, not 6; a
        # nullity-0 search to 1 has no order at all
        out_file = tmp_path / "cat.jsonl"
        args = ["search", "--max-order", str(max_order),
                "--nullity", str(nullity), "--out", str(out_file),
                "--resume", str(tmp_path / "cur.json")]
        assert main(args) == 0
        first = out_file.read_text()
        capsys.readouterr()
        assert main(args) == 0
        assert "search already complete" in capsys.readouterr().err
        assert out_file.read_text() == first

    @pytest.mark.parametrize("flag, value, message", [
        ("--nullity", "-1", "nullity filter must be nonnegative"),
        ("--cursor-every", "0", "cursor interval must be positive")])
    def test_search_config_refused(self, tmp_path, capsys, flag, value,
                                   message):
        out_file = tmp_path / "cat.jsonl"
        assert main(["search", "--max-order", "5", flag, value,
                     "--out", str(out_file)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"
        assert not out_file.exists()

    def test_search_resume_without_out_refused(self, tmp_path, capsys):
        cursor = tmp_path / "cur.json"
        assert main(["search", "--max-order", "5",
                     "--resume", str(cursor)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--resume needs --out" in out.err
        assert "standard output" in out.err
        assert not cursor.exists()

    def test_verify_cli(self, capsys):
        assert main(["verify", "rhocat", "--trials", "2"]) == 0
        out = capsys.readouterr()
        assert "checks passed" in out.err
        for line in out.out.splitlines():
            assert json.loads(line)["verdict"] == "pass"

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        def failing(rng, trials):
            yield verifier.VerdictRecord(check="planted", instance={},
                                         passed=False)

        monkeypatch.setitem(verifier.SUITES, "rhocat", failing)
        assert main(["verify", "rhocat", "--trials", "2"]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out)["verdict"] == "fail"
        assert out.err == "0/1 checks passed\n"

    def test_verify_deterministic(self, capsys):
        main(["verify", "eigencat", "--seed", "7", "--trials", "3"])
        first = capsys.readouterr().out
        main(["verify", "eigencat", "--seed", "7", "--trials", "3"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("seed, digest, trials", [
        (1, "15ab5b53ff300870a386ec0e44265de4a8fe0aac8882f3e6131a8f7bf174e0e2", 20),
        (7, "46eb480f977c42f335783834003f2bc56706ae90f0b7447a0b7d655050ac15bc", 20),
        (7, "a922b643f1f2e873e4022f5aa0dd7c294ad8791fb00c0609e76096df6231e587", 50),
    ])
    def test_verify_all_report_bytes(self, capsys, seed, digest, trials):
        # the report bytes of a fixed seed are pinned, not only repeatable
        assert main(["verify", "all", "--trials", str(trials),
                     "--seed", str(seed)]) == 0
        report = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(report).hexdigest() == digest

    def test_verify_timings_on_every_line(self, capsys):
        argv = ["verify", "all", "--trials", "5", "--seed", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(argv + ["--timings"]) == 0
        timed = capsys.readouterr().out.splitlines()
        assert len(timed) == len(plain) > 0
        for line, expected in zip(timed, plain):
            data = json.loads(line)
            assert data.pop("wall_time_ms") >= 0
            assert json.dumps(data, sort_keys=True) == expected

    def test_census_cli(self, capsys):
        assert main(["census", "--m-value", "0", "--max-order", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["code"] == "0,1"

    def test_census_roots_no_tree(self, tmp_path, capsys, code_folds):
        # the census prints the codes the walk yields: no tree is rooted
        # at its centres again to recompute one
        assert main(["census", "--m-value", "3", "--max-order", "12"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert code_folds == []
        # the same counter sees the one fold of a spectrum call
        f = tmp_path / "tree.txt"
        f.write_text(format_tree_text(path(6)))
        assert main(["spectrum", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["code"] == "0,1,2,3,1,2"
        assert code_folds == [6]

    def test_spectrum_roots_the_tree_once_for_phi_and_m(self, tmp_path,
                                                        capsys, monkeypatch):
        # one rooted order from vertex 0 for the parse's connectivity check,
        # and one at the first center that the printed code, the
        # polynomial and m(T) all fold on
        calls = []
        rooted_order = Tree.rooted_order

        def counted(self, root=0):
            calls.append(root)
            return rooted_order(self, root)

        monkeypatch.setattr(Tree, "rooted_order", counted)
        for tree, centers in ((s_tree([1, 2]), [2]), (path(6), [2, 3])):
            f = tmp_path / "tree.txt"
            f.write_text(format_tree_text(tree))
            calls.clear()
            assert main(["spectrum", str(f)]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["order"] == tree.n
            assert calls == [0, centers[0]]

    def test_verify_negative_trials_refused(self, capsys):
        assert main(["verify", "rhocat", "--trials", "-3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "trial count must be at least 1, got -3" in out.err

    def test_verify_zero_trials_refused(self, capsys):
        assert main(["verify", "parter", "--trials", "0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: trial count must be at least 1, got 0: "
                           "a check over no trials checks nothing\n")

    @pytest.mark.parametrize("shard", ["1", "a/b", "1/2/3"])
    def test_malformed_shard_refused(self, capsys, shard):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--max-order", "3", "--shard", shard])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(
            "treespectra search: error: argument --shard: "
            f"shard must look like i/m, got {shard!r}\n")

    def test_census_order_cap_below_one_refused(self, capsys):
        assert main(["census", "--m-value", "0", "--max-order", "0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "max order must be at least 1" in out.err

    def test_census_negative_m_value_refused(self, capsys):
        assert main(["census", "--m-value", "-1", "--max-order", "5"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: m-value must be nonnegative, got -1\n"

    def test_missing_input(self, capsys):
        assert main(["charpoly"]) == 2


def _count_parsers(monkeypatch) -> list:
    """Record the prog of every ArgumentParser built from here on:
    subparsers are ArgumentParsers too."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def _clear_parsers() -> None:
    command_parser.cache_clear()
    build_parser.cache_clear()


def _run(route, argv, capsys):
    """Exit code, stdout and stderr of route(argv); an argparse exit counts
    as the exit code it carries."""
    try:
        code = route(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParserReuse:
    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        _clear_parsers()
        built = _count_parsers(monkeypatch)
        for _ in range(10):
            assert main(["spectrum", "--code", "0,1,2,1"]) == 0
        assert built == ["treespectra spectrum"]
        assert len(capsys.readouterr().out.splitlines()) == 10

    def test_command_builds_only_its_own_parser(self, capsys, monkeypatch):
        _clear_parsers()
        built = _count_parsers(monkeypatch)
        assert main(["search", "--max-order", "3"]) == 0
        assert built == ["treespectra search"]

    def test_import_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(treespectra.__file__))
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import treespectra.cli\n"
            "print(len(built))\n")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert done.stdout == "0\n"

    CALLS = [
        ["verify", "nosuch"],
        ["--help"],
        ["search", "--max-order", "3", "--shard", "1/2"],
        ["search", "--max-order", "3"],
        ["spectrum", "--code", "0,1,2,1"],
        ["verify", "eq3", "--seed", "1", "--trials", "1"],
    ]

    def test_reused_parser_matches_fresh_parser(self, capsys):
        fresh = []
        for argv in self.CALLS:
            _clear_parsers()
            fresh.append(_run(main, argv, capsys))
        _clear_parsers()
        reused = [_run(main, argv, capsys) for argv in self.CALLS]
        # only --help needs the full parser; verify, search and spectrum
        # each build their own parser once
        assert build_parser.cache_info().misses == 1
        assert command_parser.cache_info().misses == 3
        assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0, 0]
        assert reused == fresh

    PARITY = [
        [],
        ["--help"],
        ["nosuch"],
        ["search"],
        ["search", "--help"],
        ["search", "--max-order", "x"],
        ["search", "--max-order", "3", "--bogus"],
        ["spectrum", "a.txt", "b.txt"],
        ["verify", "nosuch"],
        ["spectrum", "--code", "0,1,2,1"],
        ["verify", "eq3"],
        ["census"],
    ]

    @staticmethod
    def _full_parser_route(argv):
        args = build_parser().parse_args(argv)
        return args.fn(args)

    def test_main_matches_the_full_parser(self, capsys):
        _clear_parsers()
        expected = [_run(self._full_parser_route, argv, capsys)
                    for argv in self.PARITY]
        _clear_parsers()
        got = [_run(main, argv, capsys) for argv in self.PARITY]
        assert [code for code, _, _ in expected] == [2, 0, 2, 2, 0, 2, 2, 2,
                                                     2, 0, 0, 2]
        assert got == expected
