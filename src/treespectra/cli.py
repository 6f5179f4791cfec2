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

from .polys import even_part
from .reduction import reduce_with_trace, reduced_census
from .search import CursorError, SearchConfig, run_search
from .spectra import (SpectrumSummary, TreeSpectrum, _char_poly,
                      _matching_nullity, _m_value)
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
    code, order, parent = tree.canonical_rooting()
    analysis = TreeSpectrum.of(_char_poly(order, parent))
    print(json.dumps({
        "code": ",".join(map(str, code)),
        "order": tree.n,
        "integer_roots": {str(k): m for k, m in sorted(analysis.summary.roots.items())},
        "residual": analysis.summary.residual.to_text(),
        "is_integral": analysis.summary.is_integral,
        "nullity": analysis.summary.nullity,
        "eigenvalues_in_unit_gap": _m_value(order, parent),
    }, sort_keys=True))
    return EXIT_OK


def _cmd_nullity(args) -> int:
    order, parent = _load_tree(args).rooted_order()
    by_poly = even_part(_char_poly(order, parent))[0]
    by_matching = _matching_nullity(order, parent)
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
    except ValueError:
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
    run_search(config, None if args.out else sys.stdout, sys.stderr)
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


def _add_search(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-order", type=int, required=True)
    parser.add_argument("--nullity", type=int, default=None)
    parser.add_argument("--integral", action="store_true")
    parser.add_argument("--reduced", action="store_true",
                        help="keep only trees with no pendant length-2 path")
    parser.add_argument("--shard", type=_parse_shard, default=(0, 1),
                        metavar="i/m")
    parser.add_argument("--out", help="JSONL output path (default: stdout)")
    parser.add_argument("--resume", help="cursor file for restartable runs "
                                         "(requires --out)")
    parser.add_argument("--cursor-every", type=int, default=100000,
                        help="persist the cursor every N owned trees")


def _add_verify(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("suite", nargs="?", default="all",
                        choices=["all"] + sorted(SUITES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--timings", action="store_true",
                        help="add wall_time_ms to every record: the time "
                             "since the previous record of its suite (breaks "
                             "byte determinism)")


def _add_census(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m-value", type=int, required=True)
    parser.add_argument("--max-order", type=int, required=True)


# command name -> (help text, argument adder, handler)
COMMANDS = {
    "charpoly": ("characteristic polynomial of a tree",
                 _add_tree_input, _cmd_charpoly),
    "spectrum": ("integer spectrum summary of a tree",
                 _add_tree_input, _cmd_spectrum),
    "nullity": ("nullity by polynomial and by matching",
                _add_tree_input, _cmd_nullity),
    "reduce": ("strip pendant length-2 paths to the core",
               _add_tree_input, _cmd_reduce),
    "search": ("sharded resumable search over all trees",
               _add_search, _cmd_search),
    "verify": ("run a verification suite", _add_verify, _cmd_verify),
    "census": ("reduced trees with a given count of eigenvalues in (-1,1)",
               _add_census, _cmd_census),
}


@cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, built on its first use: the same
    arguments, usage, help and errors as that command's subparser in
    build_parser, without building the other commands."""
    _, add_arguments, handler = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"treespectra {name}")
    add_arguments(parser)
    parser.set_defaults(fn=handler)
    return parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser with every command as a subparser.  main needs it
    only for what no command parser answers: no command or an unknown
    one, top-level --help, and arguments left over after a command."""
    parser = argparse.ArgumentParser(
        prog="treespectra",
        description="Exact spectral analysis and search over trees")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(fn=handler)
    return parser


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = extras = None
    if argv and argv[0] in COMMANDS:
        args, extras = command_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or extras:
        # the full parser prints the top-level usage, help and errors,
        # "unrecognized arguments" included, and exits
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TreeFormatError, CursorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
