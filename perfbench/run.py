"""treespectra benchmark: one command, four workloads, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition is a fresh interpreter
(perfbench/workloads.py) that imports treespectra from ./src, generates its
inputs, times the workload's ``treespectra.cli.main`` calls and checks the
output outside the timed region.  Repetitions are started back to back
until the next one would end after ``--seconds``.  ``wall_s`` sums each
lap's fastest repetition (see fastest_wall), ``setup_s`` is the median over
repetitions, and both are scaled to the reference speed of calibrate.py
(see slowdown).

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` repetitions alternate between untraced and traced (spans
around treespectra's public functions, see tracing.py) and the result holds
the per-layer metrics, including the traced/untraced wall-time overhead.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from tracing import layer_metric_units  # noqa: E402
from workloads import SPECTRUM_ORDERS, WORK  # noqa: E402

# Sizes chosen so a repetition takes at most a few seconds on a 2-core
# machine and a run holds a dozen repetitions or more; see fastest_wall.
SIZES = {
    "search_integral": {"max_order": 12},
    "search_shard_catalog": {"max_order": 12, "cursor_every": 10},
    "verify_all": {"trials": 20},
    "spectrum_large": {"orders": list(SPECTRUM_ORDERS)},
}
MIN_REPS = 3
REP_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                    "peak_rss_mb": "MB"}
# What one operation of ops_per_s is, per workload.
OP_NAMES = {"search_integral": "trees_per_s",
            "search_shard_catalog": "trees_per_s",
            "verify_all": "checks_per_s",
            "spectrum_large": "trees_per_s"}


class RepetitionError(RuntimeError):
    """A repetition died or printed no result."""


def run_repetition(spec: dict) -> dict:
    spec = dict(spec, t_spawn=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionError(
            f"{spec['workload']} repetition {spec['rep']} exited "
            f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same laps in every repetition
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict = SIZES) -> tuple:
    """Repetitions of one workload; returns (untraced, traced, failures).

    With ``trace`` the repetitions alternate untraced/traced, starting
    untraced.  A repetition that crashes counts as one failed operation.
    """
    untraced, traced = [], []
    crashed = 0
    started = time.monotonic()
    durations = []
    rep = 0
    while True:
        traced_rep = trace and rep % 2 == 1
        spec = {"workload": workload, "seed": seed, "rep": rep,
                "trace": traced_rep, "size": sizes[workload]}
        t0 = time.monotonic()
        try:
            result = run_repetition(spec)
            (traced if traced_rep else untraced).append(result)
        except (RepetitionError, subprocess.TimeoutExpired, ValueError) as exc:
            print(exc, file=sys.stderr)
            crashed += 1
        durations.append(time.monotonic() - t0)
        rep += 1
        elapsed = time.monotonic() - started
        enough = rep >= (2 * MIN_REPS if trace else MIN_REPS)
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        if crashed and not (untraced or traced):
            break
    return untraced, traced, crashed


def fastest_wall(reps: list) -> float:
    """Sum over the laps of the timed part of each lap's fastest repetition.

    Other tenants of a shared machine slow a CPU-bound process by up to 2x,
    in bursts from milliseconds to longer than a run.  A lap lasts
    microseconds to tens of milliseconds, so it usually finds a quiet
    stretch in one of a run's repetitions and its minimum follows the
    program; a median over repetitions follows the neighbours' load.  If
    the repetitions disagree on the number of laps, the units (cli.main
    calls) stand in for them.
    """
    laps = [r["laps_s"] for r in reps]
    if len({len(x) for x in laps}) != 1:
        laps = [r["units_s"] for r in reps]
    return sum(min(times) for times in zip(*laps))


def slowdown(reps: list) -> float:
    """How much slower than on a quiet machine Python ran during the run:
    the reference task's time, taken like fastest_wall, over REFERENCE_S.

    Load that lasts for most of a run raises even the fastest laps; it
    raises the reference task's time, timed in the same processes, about
    as much.
    """
    ref = sum(min(times) for times in zip(*(r["reference_s"] for r in reps)))
    return ref / calibrate.REFERENCE_S


def end_to_end(reps: list) -> dict:
    factor = slowdown(reps)
    wall = fastest_wall(reps) / factor
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps) / factor,
        "wall_s": wall,
        "ops_per_s": reps[0]["ops"] / wall,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def per_layer(untraced: list, traced: list) -> dict:
    units = layer_metric_units()
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in units if name != "trace.overhead_frac"}
    values["trace.overhead_frac"] = fastest_wall(traced) / fastest_wall(untraced) - 1.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def describe(workload: str, untraced: list, traced: list, attempted: int,
             failed: int) -> list:
    """Human-readable lines: throughput under its workload name, the
    latency percentiles and failed_fraction."""
    lines = [f"workload {workload}: {len(untraced)} untraced and "
             f"{len(traced)} traced repetitions"]
    throughput = end_to_end(untraced)["ops_per_s"]["value"]
    lines.append(f"{OP_NAMES[workload]} {throughput:.4f} 1/s "
                 f"({untraced[0]['ops']} operations per repetition)")
    walls = [r["wall_s"] for r in untraced]
    lines.append(f"unscaled: wall_s {fastest_wall(untraced):.4f} s, setup_s "
                 f"{statistics.median(r['setup_s'] for r in untraced):.4f} s, "
                 f"slowdown {slowdown(untraced):.4f} against calibrate.py")
    lines.append(f"repetition wall time median {statistics.median(walls):.4f} s "
                 f"(min {min(walls):.4f}, max {max(walls):.4f})")
    if workload == "spectrum_large":
        samples = [x * 1000.0 for r in untraced for x in r["units_s"]]
        cuts = statistics.quantiles(samples, n=10)
        above = sum(x > cuts[8] for x in samples)
        lines.append(f"tree_ms_p50 {statistics.median(samples):.3f} ms "
                     f"(n={len(samples)})")
        lines.append(f"tree_ms_p90 {cuts[8]:.3f} ms (n={len(samples)}, "
                     f"{above} above)")
    lines.append(f"failed_fraction {failed / attempted:.6f} ratio "
                 f"({failed}/{attempted})")
    return lines


def main(argv=None, sizes: dict = SIZES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treespectra" / "__init__.py").is_file():
        print(f"error: no treespectra sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # byte-compile once so no repetition pays for compiling the package
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: treespectra sources do not compile", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)

    untraced, traced, crashed = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    if not untraced or (args.trace and not traced):
        print("error: no repetition finished", file=sys.stderr)
        return 1

    reps = untraced + traced
    attempted = sum(r["attempted"] for r in reps) + crashed
    failed = sum(r["failed"] for r in reps) + crashed
    digests = {r["digest"] for r in reps if "digest" in r}
    if len(digests) > 1:  # outputs differ between repetitions
        failed += sum(r["ops"] for r in reps)
    failed = min(failed, attempted)

    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced)
    for line in describe(args.workload, untraced, traced, attempted, failed):
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
