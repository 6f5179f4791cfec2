"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q

They run every workload at a tiny size, check the printed metrics against
BENCHMARK.json, and plant wrong answers to show the correctness gate sees
them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import SUITES, layer_metric_units  # noqa: E402

TINY = {
    "search_integral": {"max_order": 7},
    "search_shard_catalog": {"max_order": 8, "cursor_every": 3},
    "verify_all": {"trials": 1},
    "spectrum_large": {"orders": [5, 9, 14]},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(text: str) -> dict:
    result = json.loads(text.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.SIZES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layer_metric_units()
    from treespectra.verifier import SUITES as VERIFIER_SUITES
    assert SUITES == list(VERIFIER_SUITES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_printed_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)], sizes=TINY)
    assert code == 0
    out = capsys.readouterr().out
    result = _result(out)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    lines = out.splitlines()
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(metric["name"] + " ")
                   and line.endswith(" " + metric["unit"]) for line in lines)
    assert any(line.startswith("failed_fraction 0.000000 ") for line in lines)
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.overhead_frac"]["value"] > -1
        if workload.startswith("search"):
            assert metrics["enumeration.us_per_tree"]["value"] > 0
            assert metrics["search.run_search.calls"]["value"] == 1
        if workload == "verify_all":
            assert metrics["verifier.run_suite.calls"]["value"] == 10
            assert metrics["verifier.nul1.busy_s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(TINY))
def test_laps_cut_the_units_alike_in_every_repetition(workload):
    reps = [run.run_repetition({"workload": workload, "seed": 5, "rep": rep,
                                "trace": False, "size": TINY[workload]})
            for rep in range(2)]
    assert len(reps[0]["laps_s"]) == len(reps[1]["laps_s"]) > len(reps[0]["units_s"])
    for rep in reps:
        assert sum(rep["laps_s"]) == pytest.approx(sum(rep["units_s"]), rel=1e-6)
        assert len(rep["reference_s"]) == calibrate.CHUNKS
    assert run.fastest_wall(reps) <= min(sum(r["units_s"]) for r in reps)
    assert run.slowdown(reps) > 0


# ---------------------------------------------------------------------------
# planted wrong answers


def _search_lines(shard=(0, 1), max_order=6):
    from treespectra import SearchConfig, run_search
    import io

    out = io.StringIO()
    run_search(SearchConfig(max_order=max_order, shard=shard), out, io.StringIO())
    return out.getvalue().splitlines()


def _counts(max_order, shard):
    return {n: workloads.shard_share(workloads.A000055[n], *shard)
            for n in range(1, max_order + 1)}


def test_search_check_accepts_a_correct_shard():
    lines = _search_lines(shard=(1, 4))
    assert workloads.check_search(lines, _counts(6, (1, 4)), 6, (1, 4)) == 0


def test_integral_search_check():
    from treespectra import SearchConfig, run_search
    import io

    out = io.StringIO()
    run_search(SearchConfig(max_order=10, integral_only=True), out, io.StringIO())
    lines = out.getvalue().splitlines()
    counts = _counts(10, (0, 1))
    assert workloads.check_search(lines, counts, 10, (0, 1), integral=True) == 0
    assert workloads.check_search(lines[:-1], counts, 10, (0, 1), integral=True) == 1
    # a record of a non-integral tree counts as a hit too many and a miss
    bad = _search_lines(max_order=10)[-1]
    assert workloads.check_search(lines + [bad], counts, 10, (0, 1), integral=True) == 2


def test_output_digest_ignores_only_timestamps():
    lines = _search_lines()
    record = json.loads(lines[0])
    record["timestamp"] = "2000-01-01T00:00:00+00:00"
    same = [json.dumps(record)] + lines[1:]
    assert workloads.output_digest(same) == workloads.output_digest(lines)
    record["nullity"] += 1
    changed = [json.dumps(record)] + lines[1:]
    assert workloads.output_digest(changed) != workloads.output_digest(lines)


def test_corrupted_record_line_is_a_miss():
    lines = _search_lines()
    bad = json.loads(lines[-1])
    bad["char_poly"] = bad["char_poly"] + ",0"
    planted = lines[:-1] + [json.dumps(bad, sort_keys=True)]
    assert workloads.check_search(planted, _counts(6, (0, 1)), 6, (0, 1)) >= 1
    garbled = lines[:-1] + [lines[-1][:-5]]
    assert workloads.check_search(garbled, _counts(6, (0, 1)), 6, (0, 1)) >= 1


def test_wrong_tree_count_is_a_miss():
    lines = _search_lines()
    counts = _counts(6, (0, 1))
    counts[6] -= 1
    assert workloads.check_search(lines, counts, 6, (0, 1)) == 1
    assert workloads.check_search(lines[:-1], _counts(6, (0, 1)), 6, (0, 1)) == 1


def test_wrong_spectrum_and_failed_verdict_are_misses(tmp_path):
    import contextlib
    import io
    import random

    from treespectra import Tree, format_tree_text
    from treespectra.cli import main

    edges = workloads.prufer_tree_edges(random.Random(1), 12)
    path = tmp_path / "tree.txt"
    path.write_text(format_tree_text(Tree(12, edges)), encoding="utf-8")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert main(["spectrum", str(path)]) == 0
    good = sink.getvalue()
    assert workloads.check_spectrum(good, edges, 12)
    data = json.loads(good)
    data["residual"] = data["residual"] + ",1"
    assert not workloads.check_spectrum(json.dumps(data), edges, 12)
    assert not workloads.check_spectrum(good[:-3], edges, 12)
    assert workloads.check_verify(['{"verdict": "pass"}', '{"verdict": "fail"}',
                                   "not json"]) == 2


def _planted_copy(tmp_path: Path, relpath: str, old: str, new: str) -> Path:
    """A copy of the repository's sources and benchmark with one edit."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    target = tmp_path / relpath
    text = target.read_text(encoding="utf-8")
    assert old in text
    target.write_text(text.replace(old, new, 1), encoding="utf-8")
    return tmp_path


def _run_copy(root: Path, workload: str) -> subprocess.CompletedProcess:
    script = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
              f"sys.exit(run.main(['--workload', {workload!r}, '--seed', '0', "
              f"'--seconds', '0.1', '--trace', '0'], sizes={TINY!r}))")
    return subprocess.run([sys.executable, "-c", script], cwd=root,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("relpath, old, new", [
    # a dropped tree: the per-order count no longer matches A000055
    ("src/treespectra/enumeration.py", "if take:", "if take and self._emitted != 5:"),
    # a corrupted record: the round-trip check fails
    ("src/treespectra/catalog.py", '"char_poly": self.char_poly,',
     '"char_poly": self.char_poly + ",1",'),
])
def test_planted_wrong_answer_raises_failed_fraction(tmp_path, relpath, old, new):
    root = _planted_copy(tmp_path, relpath, old, new)
    proc = _run_copy(root, "search_shard_catalog")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert result["failed"] > 0 and not result["correct"]
    line = next(l for l in proc.stdout.splitlines() if l.startswith("failed_fraction"))
    assert float(line.split()[1]) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
