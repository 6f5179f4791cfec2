"""One measured repetition of one workload, run in a fresh interpreter.

Usage (normally started by run.py):

    python3 perfbench/workloads.py '<json spec>'

The spec names the workload, seed, repetition index, sizes, whether to
trace, and the CLOCK_MONOTONIC time at which the parent started this
process.  The last line of standard output is one JSON object with the
repetition's timings, operation counts and correctness misses.  The timed
part is split into units, each one ``treespectra.cli.main`` call (the whole
search, one verify suite, one spectrum call); ``units_s`` lists their wall
times in a fixed order, the same in every repetition of a run, and
``laps_s`` the same time cut into laps (see Laps).  ``reference_s`` times
the chunks of calibrate.py's reference task, run after the checks.  Anything
treespectra prints goes to in-memory sinks or to files in the work
directory, never to this process's standard output.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import heapq
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# Free trees per order, OEIS A000055 (index = order, order 0 unused).
A000055 = [1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
           19320]

# Integral trees per order, OEIS A077027 (index = order, order 0 unused).
INTEGRAL_TREES = [0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0]

SHARDS = 4

# Orders of the spectrum_large trees.  Three trees share the median order and
# two the top order, so p50 and p90 fall inside one order group instead of
# on the edge between two.
SPECTRUM_ORDERS = (20, 60, 100, 130, 130, 130, 150, 170, 180, 180)


def shard_share(total: int, index: int, count: int) -> int:
    """Trees with emission index k, 0 <= k < total, and k % count == index."""
    return max(0, (total - index + count - 1) // count)


def prufer_tree_edges(rng: random.Random, n: int) -> list:
    """Edges of a uniformly random labelled tree on n vertices."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


# ---------------------------------------------------------------------------
# correctness checks (run after the timed region; importable by tests)


def check_search(lines: list, tree_counts: dict, max_order: int,
                 shard: tuple, integral: bool = False,
                 roundtrip: bool = True) -> int:
    """Misses in the output of one search shard, unfiltered or ``--integral``.

    ``lines`` are the record lines written, ``tree_counts`` maps each order
    to the trees the enumerator yielded to this run.  Every tree a count is
    off by (trees yielded against the shard's share of A000055; records
    written against that share, or against A077027 for an integral search),
    and every record that does not parse, belongs to another shard, repeats
    a code, fails its round-trip check (if ``roundtrip``) or, in an
    integral search, has a non-integer eigenvalue, is one miss.
    """
    from treespectra import CatalogRecord

    index, count = shard
    shard_text = f"{index}/{count}"
    misses = 0
    hits: dict = {}
    seen = set()
    for line in lines:
        try:
            record = CatalogRecord.from_json(line)
            ok = (record.shard == shard_text and record.order_cap == max_order
                  and record.code not in seen
                  and (not roundtrip or record.roundtrip_ok())
                  and (not integral
                       or sum(record.spectrum.values()) == record.order))
        except (ValueError, KeyError, TypeError):
            misses += 1
            continue
        seen.add(record.code)
        hits[record.order] = hits.get(record.order, 0) + 1
        if not ok:
            misses += 1
    for n in range(1, max_order + 1):
        share = shard_share(A000055[n], index, count)
        wanted = INTEGRAL_TREES[n] if integral else share
        misses += abs(tree_counts.get(n, 0) - share) + abs(hits.get(n, 0) - wanted)
    return misses


def check_spectrum(output: str, edges: list, n: int) -> bool:
    """Whether one ``spectrum`` output is right for the tree it was run on.

    The integer roots times the residual must give the characteristic
    polynomial, and the polynomial nullity must equal the maximum-matching
    nullity, an independent route.
    """
    from treespectra import IntPoly, SpectrumSummary, Tree, char_poly, nullity_matching

    try:
        data = json.loads(output)
        tree = Tree(n, edges)
        roots = {int(k): int(m) for k, m in data["integer_roots"].items()}
        residual = IntPoly.from_text(data["residual"])
        summary = SpectrumSummary(roots=roots, residual=residual,
                                  is_integral=residual.degree == 0,
                                  nullity=roots.get(0, 0))
        return (data["order"] == n and data["code"] == tree.code_str()
                and summary.reassemble() == char_poly(tree)
                and data["nullity"] == roots.get(0, 0) == nullity_matching(tree)
                and data["is_integral"] == summary.is_integral)
    except (ValueError, KeyError, TypeError, AttributeError):
        return False


def output_digest(lines: list) -> str:
    """SHA-256 of output lines, without the wall-clock ``timestamp`` field
    of catalog records."""
    digest = hashlib.sha256()
    for line in lines:
        try:
            data = json.loads(line)
        except ValueError:
            data = line
        if isinstance(data, dict):
            data.pop("timestamp", None)
        digest.update(json.dumps(data, sort_keys=True).encode("utf-8") + b"\n")
    return digest.hexdigest()


def check_verify(lines: list) -> int:
    """Verdicts that are not a parseable pass."""
    misses = 0
    for line in lines:
        try:
            passed = json.loads(line)["verdict"] == "pass"
        except (ValueError, KeyError, TypeError):
            passed = False
        misses += not passed
    return misses


# ---------------------------------------------------------------------------
# laps: clock readings inside the timed units

# Functions at whose entry and exit every repetition reads the clock, as
# (module, attribute); a name the package no longer has is skipped.  With
# each tree the enumerator yields, they cut the timed units into laps of a
# few microseconds to a few tens of milliseconds (the longest is one
# integer_roots divisor scan on an order-180 tree).  ``_pseudo_rem`` splits
# the Sturm chains of large trees.
LAP_TARGETS = [
    ("treespectra.spectra", "char_poly"),
    ("treespectra.spectra", "nullity_matching"),
    ("treespectra.polys", "integer_roots"),
    ("treespectra.polys", "count_roots_open"),
    ("treespectra.polys", "isolate_kth_largest"),
    ("treespectra.polys", "count_roots_above_quadratic"),
    ("treespectra.polys", "rational_root_multiplicity"),
    ("treespectra.polys", "poly_gcd"),
    ("treespectra.polys", "_pseudo_rem"),
    ("treespectra.reduction", "pendant_report"),
]
# Consecutive laps reported as one, to keep a repetition's output small.
LAP_GROUP = 4


class Laps:
    """Clock readings at the LAP_TARGETS boundaries and at every tree the
    enumerator yields; ``unit()`` brackets one timed ``cli.main`` call.

    The same code on the same inputs reads the clock at the same points in
    every repetition (run.py fixes PYTHONHASHSEED), so lap k of one
    repetition is the same stretch of work as lap k of another.
    """

    def __init__(self):
        self.stamps: list = []
        self.units: list = []  # (first, last) stamp index of each unit
        stamps = self.stamps
        perf = time.perf_counter
        self.mark = lambda: stamps.append(perf())

    def install(self) -> None:
        """Wrap the targets; call after ``import treespectra`` (and after
        the tracer, so traced repetitions read the clock around spans)."""
        from tracing import rebind
        from treespectra.enumeration import FreeTreeEnumerator

        mark = self.mark
        for module_name, attr in LAP_TARGETS:
            rebind(module_name, attr, functools.partial(_lapped, mark=mark))
        inner = FreeTreeEnumerator.__iter__

        def lapped_iter(enumerator):
            for tree in inner(enumerator):
                mark()
                yield tree
        FreeTreeEnumerator.__iter__ = lapped_iter

    @contextlib.contextmanager
    def unit(self):
        first = len(self.stamps)
        self.mark()
        try:
            yield
        finally:
            self.mark()
            self.units.append((first, len(self.stamps) - 1))

    def result(self) -> dict:
        """Wall time of each unit, and the laps of all units in order, each
        the time from one stamp to the LAP_GROUP-th next within its unit."""
        units, laps = [], []
        stamps = self.stamps
        for first, last in self.units:
            units.append(stamps[last] - stamps[first])
            ends = list(range(first, last, LAP_GROUP)) + [last]
            laps.extend(stamps[b] - stamps[a] for a, b in zip(ends, ends[1:]))
        return {"units_s": units, "laps_s": laps}


def _lapped(fn, mark):
    @functools.wraps(fn)
    def lapped(*args, **kwargs):
        mark()
        try:
            return fn(*args, **kwargs)
        finally:
            mark()
    return lapped


# ---------------------------------------------------------------------------
# workloads: each returns a result dict holding the timed-region start


def _count_enumerated(counts: dict) -> None:
    """Count the trees the enumerator yields per order.  A pass-through
    generator, installed identically in traced and untraced repetitions."""
    from treespectra.enumeration import FreeTreeEnumerator

    inner = FreeTreeEnumerator.__iter__

    def counted(enumerator):
        for tree in inner(enumerator):
            counts[enumerator.n] = counts.get(enumerator.n, 0) + 1
            yield tree
    FreeTreeEnumerator.__iter__ = counted


def _quiet(sink_out, sink_err):
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(sink_out))
    stack.enter_context(contextlib.redirect_stderr(sink_err))
    return stack


def run_search(spec: dict, main, tracer, laps) -> dict:
    max_order = spec["size"]["max_order"]
    counts: dict = {}
    _count_enumerated(counts)
    shard = (spec["seed"] % SHARDS, SHARDS)
    out_path = WORK / f"catalog-{os.getpid()}.jsonl"
    cursor_path = WORK / f"cursor-{os.getpid()}.json"
    for path in (out_path, cursor_path):  # a fresh start, not a resume
        path.unlink(missing_ok=True)
    argv = ["search", "--max-order", str(max_order),
            "--shard", f"{shard[0]}/{shard[1]}", "--out", str(out_path),
            "--resume", str(cursor_path),
            "--cursor-every", str(spec["size"]["cursor_every"])]
    start = time.perf_counter()
    with _quiet(io.StringIO(), io.StringIO()), laps.unit():
        code = main(argv)
    wall = time.perf_counter() - start
    rss = _end_timed(tracer)
    lines = out_path.read_text(encoding="utf-8").splitlines()
    cursor = json.loads(cursor_path.read_text(encoding="utf-8"))
    out_path.unlink()
    cursor_path.unlink()
    _clear_memo()
    misses = check_search(lines, counts, max_order, shard,
                          roundtrip=_full_check(spec))
    misses += (code != 0) + (cursor.get("complete") is not True)
    return {"start": start, "wall_s": wall, "rss_mb": rss,
            "ops": sum(counts.values()), "attempted": max(1, sum(counts.values())),
            "failed": misses, "digest": output_digest(lines)}


def run_search_integral(spec: dict, main, tracer, laps) -> dict:
    max_order = spec["size"]["max_order"]
    counts: dict = {}
    _count_enumerated(counts)
    sink = io.StringIO()
    start = time.perf_counter()
    with _quiet(sink, io.StringIO()), laps.unit():
        code = main(["search", "--max-order", str(max_order), "--integral"])
    wall = time.perf_counter() - start
    rss = _end_timed(tracer)
    _clear_memo()
    lines = sink.getvalue().splitlines()
    misses = check_search(lines, counts, max_order, (0, 1), integral=True,
                          roundtrip=_full_check(spec)) + (code != 0)
    trees = sum(counts.values())
    return {"start": start, "wall_s": wall, "rss_mb": rss, "ops": trees,
            "attempted": max(1, trees), "failed": misses,
            "digest": output_digest(lines)}


def run_verify(spec: dict, main, tracer, laps) -> dict:
    """``verify all`` as one ``verify SUITE`` call per suite, in the order
    ``verify all`` runs them, in one process: the same work and the same
    report bytes, timed per suite."""
    from treespectra.verifier import SUITES

    tail = ["--seed", str(spec["seed"]), "--trials", str(spec["size"]["trials"])]
    sink_out, sink_err = io.StringIO(), io.StringIO()
    codes = []
    start = time.perf_counter()
    with _quiet(sink_out, sink_err):
        for suite in SUITES:
            with laps.unit():
                codes.append(main(["verify", suite] + tail))
    wall = time.perf_counter() - start
    rss = _end_timed(tracer)
    report = sink_out.getvalue()
    lines = report.splitlines()
    failed = check_verify(lines) + sum(code != 0 for code in codes) + (not lines)
    return {"start": start, "wall_s": wall, "rss_mb": rss,
            "ops": len(lines), "attempted": max(1, len(lines)), "failed": failed,
            "digest": hashlib.sha256(report.encode("utf-8")).hexdigest()}


def make_spectrum_inputs(seed: int, orders) -> list:
    """Write one tree file per order; returns (path, order, edges) triples.

    The tree shapes are uniformly random labelled trees drawn from a fixed
    stream; the seed relabels their vertices and shuffles their edge lists.
    Shapes at these orders differ in cost by up to 4x (the integer-root
    divisor scan), so seed-chosen shapes would make one seed's run cost up
    to 1.6x another's.
    """
    from treespectra import Tree, format_tree_text

    shapes = random.Random("spectrum_large")
    labels = random.Random(f"spectrum_large:{seed}")
    inputs = []
    for i, n in enumerate(orders):
        perm = list(range(n))
        labels.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in prufer_tree_edges(shapes, n)]
        labels.shuffle(edges)
        path = WORK / f"tree-{os.getpid()}-{i}.txt"
        path.write_text(format_tree_text(Tree(n, edges)), encoding="utf-8")
        inputs.append((path, n, edges))
    return inputs


def run_spectrum(spec: dict, main, tracer, laps) -> dict:
    inputs = make_spectrum_inputs(spec["seed"], spec["size"]["orders"])
    outputs, codes = [], []
    start = time.perf_counter()
    with _quiet(io.StringIO(), io.StringIO()):
        for path, _, _ in inputs:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), laps.unit():
                codes.append(main(["spectrum", str(path)]))
            outputs.append(sink.getvalue())
    wall = time.perf_counter() - start
    rss = _end_timed(tracer)
    _clear_memo()
    failed = 0
    for (path, n, edges), output, code in zip(inputs, outputs, codes):
        failed += code != 0 or (_full_check(spec)
                                and not check_spectrum(output, edges, n))
        path.unlink()
    return {"start": start, "wall_s": wall, "rss_mb": rss,
            "ops": len(inputs), "attempted": len(inputs), "failed": failed,
            "digest": output_digest(outputs)}


def _full_check(spec: dict) -> bool:
    """Whether this repetition re-derives every output from scratch.  The
    first does; run.py fails every repetition whose output digest differs
    from another's, so the later ones need to match the first only, and
    the run holds more repetitions."""
    return spec["rep"] == 0


def _end_timed(tracer) -> float:
    """Stop tracing, so the checks that follow record no spans, and return
    the peak resident memory so far in MB."""
    if tracer is not None:
        tracer.enabled = False
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _clear_memo() -> None:
    """Checks recompute from scratch instead of reading the run's memo."""
    from treespectra import spectra

    spectra.clear_char_poly_cache()


def run_repetition(spec: dict) -> dict:
    from treespectra import cli  # setup_s includes importing the package

    tracer = None
    WORK.mkdir(exist_ok=True)
    name = spec["workload"]
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    laps = Laps()
    laps.install()
    if name == "search_integral":
        result = run_search_integral(spec, cli.main, tracer, laps)
    elif name == "search_shard_catalog":
        result = run_search(spec, cli.main, tracer, laps)
    elif name == "verify_all":
        result = run_verify(spec, cli.main, tracer, laps)
    elif name == "spectrum_large":
        result = run_spectrum(spec, cli.main, tracer, laps)
    else:
        raise ValueError(f"unknown workload {name!r}")
    result.update(laps.result())
    result["reference_s"] = calibrate.chunk_times()  # after the checks
    result["setup_s"] = _monotonic_at(result.pop("start")) - spec["t_spawn"]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        spans = WORK / f"spans-{name}-seed{spec['seed']}-rep{spec['rep']}.tsv"
        tracer.write(spans)
    return result


_CLOCK_OFFSET = time.monotonic() - time.perf_counter()


def _monotonic_at(perf: float) -> float:
    """A perf_counter reading expressed on the CLOCK_MONOTONIC timeline the
    parent used for t_spawn."""
    return perf + _CLOCK_OFFSET


if __name__ == "__main__":
    print(json.dumps(run_repetition(json.loads(sys.argv[1]))))
