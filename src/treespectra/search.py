"""Sharded, resumable search over all trees up to a given order.

The search streams CatalogRecords for every tree passing the configured
filters, the same bytes for the same parameters.  A cursor file makes a
search into an output file restartable, and this module alone reads and
writes it: one flat JSON record of the search parameters, the order and
the enumerator position (sequence, emitted) to go on from, whether the
search is complete, and how far the output file had got, all under one
CRC-32.  A resumed run cuts the output file back to that offset, so the
file ends as an uninterrupted run's; a refused cursor leaves it as it was.
Shards partition the emitted stream round-robin so that the union over
shards equals an unsharded run.  kept_codes is the one filtered walk of an
order: the search, the census and the verifier's nullity checks share it.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional, TextIO

from .catalog import CatalogRecord
from .enumeration import FreeTreeEnumerator
from .spectra import _integrality, _matching_nullity, _moments_admit
from .trees import Tree, _is_reduced


class CursorError(ValueError):
    """Resume state is unusable; the message says what to do."""


@dataclass
class SearchConfig:
    max_order: int
    nullity: Optional[int] = None
    integral_only: bool = False
    reduced_only: bool = False
    shard: tuple = (0, 1)
    out_path: Optional[str] = None
    resume_path: Optional[str] = None
    cursor_every: int = 100000

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max order must be at least 1")
        index, count = self.shard
        if count < 1 or not 0 <= index < count:
            raise ValueError(f"invalid shard {self.shard}")
        if self.nullity is not None and self.nullity < 0:
            raise ValueError("nullity filter must be nonnegative")
        if self.cursor_every < 1:
            raise ValueError("cursor interval must be positive")
        if self.resume_path and not self.out_path:
            raise ValueError(
                "--resume needs --out: records already written to standard "
                "output cannot be taken back, so a resumed run would print "
                "again every record after the last cursor save")
        # a cursor is saved to its name + ".tmp", then renamed over it
        if self.resume_path and os.path.abspath(self.out_path) in (
                os.path.abspath(self.resume_path),
                os.path.abspath(self.resume_path + ".tmp")):
            raise ValueError("--out must be neither the cursor file nor "
                             "its temporary file, the cursor's name + .tmp")

    def orders(self, start: int = 1) -> list[int]:
        """Orders from start to max_order that can hold a match: a tree's
        nullity always has the parity of its order."""
        return [n for n in range(start, self.max_order + 1)
                if self.nullity is None or (n - self.nullity) % 2 == 0]

    def filters_key(self) -> dict:
        return {
            "max_order": self.max_order,
            "nullity": self.nullity,
            "integral_only": self.integral_only,
            "reduced_only": self.reduced_only,
            "shard": list(self.shard),
        }


def kept_codes(config: SearchConfig, n: int, position: tuple = (None, 0),
               save: Optional[Callable] = None) -> Iterator[tuple]:
    """(code, parent) for each code of order n that the config's shard owns
    and its filters keep, walked from an enumerator position; parent is the
    enumerator's, valid until the next step.  The filters run on the parent
    array, bottom-up, and on the degrees and their square sum the
    enumerator keeps in step with it: the matching-number nullity and the
    reduced test first, then, with integral_only, the trace moments and the
    inertia counts, so no Tree is built here.  With ``save``,
    save(position) follows every config.cursor_every owned codes."""
    enum = FreeTreeEnumerator(n, config.shard, position)
    order = range(n)
    nullity = config.nullity
    # with a nullity to cross-check, the inertia count at t = 0 is needed
    # anyway, and the moments would stand in only for the count at t = 1,
    # which measured no faster
    moments = config.integral_only and nullity is None
    since_save = 0
    for code in enum:
        parent = enum.parent
        keep = ((nullity is None
                 or _matching_nullity(order, parent) == nullity)
                and (not config.reduced_only
                     or _is_reduced(parent, enum.degree))
                and (not moments
                     or _moments_admit(n, enum.degree_square_sum)))
        if keep and config.integral_only:
            inertia_nullity, keep = _integrality(order, parent)
            if nullity is not None and inertia_nullity != nullity:
                raise AssertionError(f"nullity routes disagree on "
                                     f"{','.join(map(str, code))}")
        if keep:
            yield code, parent
        if save:
            since_save += 1
            if since_save >= config.cursor_every:
                save(enum.position())
                since_save = 0


def kept_record(config: SearchConfig, code: tuple,
                parent: list) -> CatalogRecord:
    """The catalog record of a kept code and parent array, with no Tree
    built.  Where the record and the parent-array filters decide the same
    fact, they must agree."""
    record = CatalogRecord.of(code, range(len(code)), parent,
                              config.max_order, "{}/{}".format(*config.shard))
    if config.nullity not in (None, record.nullity):
        raise AssertionError(f"nullity routes disagree on {record.code}")
    if config.integral_only and sum(record.spectrum.values()) != record.order:
        raise AssertionError(f"integrality routes disagree on {record.code}")
    return record


def _state_check(state: dict) -> int:
    """CRC-32 of the canonical JSON of every field of a state but check."""
    fields = {key: value for key, value in state.items() if key != "check"}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(text.encode("utf-8"))


def _load_resume(config: SearchConfig) -> Optional[dict]:
    path = config.resume_path
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
        if state["filters"] != config.filters_key():
            raise CursorError(
                "cursor file was written by a search with different "
                "parameters; delete it or point --resume elsewhere")
        if state.get("check") != _state_check(state):
            raise CursorError(
                "cursor file does not match its check (it was edited, or "
                "is of an older format with no check); delete it and the "
                "output file to start over")
        # refuse what no search writes, on which the walk would fail, end
        # the order early, take other shards' trees or be dropped: a search
        # saves (None, 0) at the start of an order, else, at an order it
        # walks, the canonical code of a free tree of that order and a
        # positive count, all as ints, and an int byte offset of at least 0
        order, seq, emitted, offset, complete = (
            state["order"], state["sequence"], state["emitted"],
            state["out_offset"], state["complete"])
        if any(type(x) is not int
               for x in [order, emitted, offset, *(seq or [])]):
            raise ValueError("the order, the count, the offset and the "
                             "sequence must hold integers")
        if offset < 0:
            raise ValueError(f"offset {offset} is negative")
        if not 1 <= order <= config.max_order:
            raise ValueError(f"order {order} is outside 1..{config.max_order}")
        if (emitted != 0 if seq is None else
                emitted < 1 or len(seq) != order
                or order not in config.orders(order)
                or list(Tree.from_code(seq).canonical_code) != seq):
            raise ValueError("the position is no position of this search")
        if type(complete) is not bool or complete and (
                order, seq) != (config.max_order, None):
            raise ValueError("complete is a bool, true only at the end")
        # the resumed search cuts the output file back to the offset, and a
        # complete one leaves the file as the state records it
        saved, out_path = state["out_path"], config.out_path
        if saved != os.path.abspath(out_path):
            raise CursorError(
                f"cursor file belongs to the output file {saved!r}; pass "
                "that as --out or delete the cursor to start over")
        if (os.path.getsize(out_path) if os.path.exists(out_path)
                else 0) < offset:
            raise CursorError(
                f"output file {out_path!r} is shorter than the cursor file "
                "records; restore it or delete the cursor to start over")
        return state
    except CursorError:
        raise
    except Exception as exc:
        raise CursorError(
            f"cursor file {path!r} is corrupt ({exc}); delete it to start over")


def _save_cursor(config: SearchConfig, out: TextIO, order: int,
                 position: tuple, complete: bool) -> None:
    """Flush the records, then persist the resume state: the order and the
    enumerator position to go on from, with the output file and the byte
    offset the records reached in it, all under one CRC-32."""
    out.flush()
    path = config.resume_path
    if not path:
        return
    sequence, emitted = position
    state = {
        "filters": config.filters_key(),
        "order": order,
        "sequence": list(sequence) if sequence is not None else None,
        "emitted": emitted,
        "complete": complete,
        "out_path": os.path.abspath(config.out_path),
        "out_offset": out.tell(),
    }
    state["check"] = _state_check(state)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(state))
    os.replace(tmp, path)


def run_search(config: SearchConfig, out: Optional[TextIO],
               err: TextIO) -> dict:
    """Run the search into out, or with out None into config.out_path,
    opened only once the resume state has passed its checks: to append on
    a resume, afresh otherwise.  Returns {"per_order": {n: hits}}."""
    resume = _load_resume(config)
    if resume and resume["complete"]:
        print("search already complete per cursor file", file=err)
        return {"per_order": {}, "resumed_complete": True}
    start_order, start = 1, (None, 0)
    per_order: dict = {}
    with (open(config.out_path, "a" if resume else "w", encoding="utf-8")
          if out is None else nullcontext(out)) as out:
        if resume:
            start_order = resume["order"]
            start = (resume["sequence"], resume["emitted"])
            # drop records written after the last cursor save; the resumed
            # enumeration emits them again
            out.seek(resume["out_offset"])
            out.truncate()
        for n in config.orders(start_order):
            position = start if n == start_order else (None, 0)
            hits = 0
            save = partial(_save_cursor, config, out, n, complete=False)
            for code, parent in kept_codes(config, n, position, save):
                out.write(kept_record(config, code, parent).to_json() + "\n")
                hits += 1
            per_order[n] = hits
            print(f"order {n}: {hits} matching trees", file=err)
            if n < config.max_order:
                _save_cursor(config, out, n + 1, (None, 0), complete=False)
        # only this save marks the last order done (a resume from an
        # incomplete save there would write it again), also when the
        # nullity's parity skips the last orders, or all of them
        _save_cursor(config, out, config.max_order, (None, 0), complete=True)
    print("order | matches", file=err)
    for n, hits in per_order.items():
        print(f"{n:5d} | {hits}", file=err)
    return {"per_order": per_order}
