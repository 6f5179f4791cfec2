"""Command-line surface: charpoly, spectrum, nullity, reduce, search,
verify, census.

Standard output carries machine-readable results only; progress and
summaries go to standard error.  Exit codes: 0 success, 1 verification
failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Optional

from .reduction import reduce_with_trace, reduced_census
from .search import CursorError, SearchConfig, run_search, search_to_file
from .spectra import (SpectrumSummary, TreeSpectrum, _char_poly, _m_value,
                      nullity_matching, nullity_poly)
from .trees import Tree, TreeFormatError, parse_tree_text
from .verifier import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2


def _load_tree(args) -> Tree:
    if args.code:
        return Tree.from_code(args.code)
    if not args.tree_file:
        raise TreeFormatError("provide a tree file or --code")
    with open(args.tree_file, "r", encoding="utf-8") as fh:
        return parse_tree_text(fh.read())


def factored_text(summary: SpectrumSummary) -> str:
    """Human-readable factorization: x^h, then (x^2 - k^2)^m for each
    integer eigenvalue pair +-k, then the residual.  A tree's spectrum is
    symmetric, so k and -k share a multiplicity, and the residual is monic."""
    h = summary.roots.get(0, 0)
    parts = ["x" if h == 1 else f"x^{h}"] if h else []
    for k in sorted(k for k in summary.roots if k > 0):
        m = summary.roots[k]
        parts.append(f"(x^2 - {k * k})" + (f"^{m}" if m > 1 else ""))
    if summary.residual.degree > 0:
        parts.append(f"({summary.residual})")
    return " * ".join(parts) if parts else "1"


def _cmd_charpoly(args) -> int:
    tree = _load_tree(args)
    analysis = TreeSpectrum.analyze(tree)
    print(analysis.char_poly.to_text())
    print(f"factored: {factored_text(analysis.summary)}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    tree = _load_tree(args)
    order, parent = tree.rooted_order()
    analysis = TreeSpectrum.of(_char_poly(order, parent))
    print(json.dumps({
        "code": tree.code_str(),
        "order": tree.n,
        "integer_roots": {str(k): m for k, m in sorted(analysis.summary.roots.items())},
        "residual": analysis.summary.residual.to_text(),
        "is_integral": analysis.summary.is_integral,
        "nullity": analysis.summary.nullity,
        "eigenvalues_in_unit_gap": _m_value(order, parent),
    }, sort_keys=True))
    return EXIT_OK


def _cmd_nullity(args) -> int:
    tree = _load_tree(args)
    by_poly = nullity_poly(tree)
    by_matching = nullity_matching(tree)
    print(json.dumps({"by_polynomial": by_poly, "by_matching": by_matching}))
    if by_poly != by_matching:
        print("nullity routes disagree", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK


def _cmd_reduce(args) -> int:
    tree = _load_tree(args)
    core, steps = reduce_with_trace(tree)
    for step in steps:
        print(json.dumps(step, sort_keys=True))
    print(json.dumps({"core": core.code_str(), "order": core.n,
                      "strips": len(steps)}, sort_keys=True))
    return EXIT_OK


def _parse_shard(text: str) -> tuple:
    try:
        index, count = text.split("/")
        return int(index), int(count)
    except Exception:
        raise argparse.ArgumentTypeError(f"shard must look like i/m, got {text!r}")


def _cmd_search(args) -> int:
    config = SearchConfig(
        max_order=args.max_order,
        nullity=args.nullity,
        integral_only=args.integral,
        reduced_only=args.reduced,
        shard=args.shard,
        out_path=args.out,
        resume_path=args.resume,
        cursor_every=args.cursor_every,
    )
    if args.out:
        search_to_file(config, sys.stderr)
    else:
        run_search(config, sys.stdout, sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    records = run_suite(args.suite, seed=args.seed, trials=args.trials)
    failed = 0
    for record in records:
        print(record.to_json(with_timing=args.timings))
        if not record.passed:
            failed += 1
    print(f"{len(records) - failed}/{len(records)} checks passed",
          file=sys.stderr)
    return EXIT_VERIFICATION_FAILED if failed else EXIT_OK


def _cmd_census(args) -> int:
    for code in reduced_census(args.m_value, args.max_order):
        print(json.dumps({"code": ",".join(map(str, code)),
                          "order": len(code), "m_value": args.m_value},
                         sort_keys=True))
    return EXIT_OK


def _add_tree_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("tree_file", nargs="?",
                        help="tree file: first line n, then n-1 'u v' lines")
    parser.add_argument("--code", help="inline canonical code, e.g. 0,1,2,2,1")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: each parse_args makes a fresh Namespace, and the parser
    holds only immutable defaults and the _cmd_* functions.  Only callers
    that run several commands in one process gain; the console script runs
    one."""
    parser = argparse.ArgumentParser(
        prog="treespectra",
        description="Exact spectral analysis and search over trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charpoly", help="characteristic polynomial of a tree")
    _add_tree_input(p)
    p.set_defaults(fn=_cmd_charpoly)

    p = sub.add_parser("spectrum", help="integer spectrum summary of a tree")
    _add_tree_input(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("nullity", help="nullity by polynomial and by matching")
    _add_tree_input(p)
    p.set_defaults(fn=_cmd_nullity)

    p = sub.add_parser("reduce", help="strip pendant length-2 paths to the core")
    _add_tree_input(p)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("search", help="sharded resumable search over all trees")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--nullity", type=int, default=None)
    p.add_argument("--integral", action="store_true")
    p.add_argument("--reduced", action="store_true",
                   help="keep only trees with no pendant length-2 path")
    p.add_argument("--shard", type=_parse_shard, default=(0, 1),
                   metavar="i/m")
    p.add_argument("--out", help="JSONL output path (default: stdout)")
    p.add_argument("--resume", help="cursor file for restartable runs "
                                    "(requires --out)")
    p.add_argument("--cursor-every", type=int, default=100000,
                   help="persist the cursor every N owned trees")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all"] + sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--timings", action="store_true",
                   help="add wall_time_ms to every record: the time "
                        "since the previous record of its suite (breaks "
                        "byte determinism)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("census", help="reduced trees with a given count of "
                                      "eigenvalues in (-1,1)")
    p.add_argument("--m-value", type=int, required=True)
    p.add_argument("--max-order", type=int, required=True)
    p.set_defaults(fn=_cmd_census)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TreeFormatError, CursorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
