"""Command-line front end: solve, oracle, trace, and scan subcommands.

All integer flags accept values of any magnitude.  Python caps int<->str
conversion at 4300 digits by default, and values derived from a flag (d0,
a trace's remainders, a scan record's bound_used) outgrow the flag itself,
so run(), the entry point of the console script and of python -m
cubetriples, lifts that cap for its own process before parsing; main()
leaves it as it finds it.  Exit codes:

0  the command ran; an empty solution set is an answer, not an error.
1  a runtime failure, reported as one stderr line that starts with
   "cubetriples <command>: ": an unwritable output path, a scan --out that
   exists and is not a regular file, or a d0 whose divisors up to the
   cube-root cap cannot be proven complete.  The line names --out as
   given; a number in it with more than 40 digits is shortened to its first
   and last 8 digits and its digit count.  scan writes to a temporary file
   beside the file --out resolves to and renames it there only on success,
   so a failed scan leaves no partial output.
2  a usage error.

A reader that closes stdout before the output ends, as in `cubetriples
oracle ... | head -1`, is not a failure: the command stops writing, prints
nothing to stderr and exits 0.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .intmath import IncompleteFactorizationError
from .oracle import brute_force
from .scan import record_to_json, scan_grid
from .solver import SolutionSet, TripleSystem, solve
from .trace import derive_trace, format_triple, format_solution_set, render

__all__ = ["build_parser", "main", "run"]


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        return (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an inclusive range A:B, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubetriples",
        description="Exact integer solutions of X + Y + Z = s, X^3 + Y^3 + Z^3 = c.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one system exactly")
    p_solve.add_argument("--sum", type=int, required=True, help="target of X + Y + Z")
    p_solve.add_argument("--cubes", type=int, required=True, help="target of X^3 + Y^3 + Z^3")
    p_solve.add_argument("--format", choices=("text", "json"), default="text")

    p_oracle = sub.add_parser("oracle", help="brute-force search inside a box")
    p_oracle.add_argument("--sum", type=int, required=True)
    p_oracle.add_argument("--cubes", type=int, required=True)
    p_oracle.add_argument("--bound", type=int, required=True, help="box radius max(|x|,|y|,|z|)")
    p_oracle.add_argument("--format", choices=("text", "json"), default="text")

    p_trace = sub.add_parser("trace", help="print the derivation step by step")
    p_trace.add_argument("--sum", type=int, required=True)
    p_trace.add_argument("--cubes", type=int, required=True)
    p_trace.add_argument("--format", choices=("plain", "markdown", "json"), default="plain")

    p_scan = sub.add_parser("scan", help="classify every system on an (s, c) grid")
    p_scan.add_argument("--sum-range", type=_parse_range, required=True, metavar="A:B")
    p_scan.add_argument("--cubes-range", type=_parse_range, required=True, metavar="A:B")
    p_scan.add_argument("--out", required=True, help="output file, one record per line")
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--include-solutions", action="store_true")
    # let values like -2:2 pass as arguments rather than option flags
    p_scan._negative_number_matcher = re.compile(r"^-\d+(:-?\d+)?$")

    return parser


def _print_solutions(solution_set: SolutionSet, format: str) -> None:
    if format == "json":
        # imported here so that no other command loads json
        import json

        print(json.dumps(solution_set.to_json_dict()))
    elif solution_set.kind == "infinite_family":
        print(format_solution_set(solution_set))
    elif not solution_set.triples:
        print("no solutions")
    else:
        for triple in solution_set.triples:
            print(format_triple(triple))


def cmd_solve(args: argparse.Namespace) -> None:
    _print_solutions(solve(TripleSystem(args.sum, args.cubes)), args.format)


def cmd_oracle(args: argparse.Namespace) -> None:
    triples = brute_force(TripleSystem(args.sum, args.cubes), args.bound)
    _print_solutions(SolutionSet.finite(tuple(triples)), args.format)


def cmd_trace(args: argparse.Namespace) -> None:
    trace = derive_trace(TripleSystem(args.sum, args.cubes))
    format = "structured-records" if args.format == "json" else args.format
    sys.stdout.write(render(trace, format))


def cmd_scan(args: argparse.Namespace) -> None:
    s_range = args.sum_range
    c_range = args.cubes_range
    counts = {"finite": 0, "empty": 0, "infinite_family": 0}
    # rename onto the file a symlink names, never onto the link itself, and
    # never replace a FIFO, device or directory with a regular file
    out = os.path.realpath(args.out)
    if os.path.exists(out) and not os.path.isfile(out):
        raise OSError(f"--out {args.out} is not a regular file")
    partial = f"{out}.{os.getpid()}.tmp"
    try:
        sink = open(partial, "x", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot open output file: {args.out}: {exc.strerror}") from exc
    try:
        with sink:
            for record in scan_grid(
                s_range, c_range, workers=args.jobs, include_solutions=args.include_solutions
            ):
                counts["empty" if record.solution_count == 0 else record.kind] += 1
                sink.write(record_to_json(record) + "\n")
        os.replace(partial, out)
    except BaseException:
        os.unlink(partial)
        raise
    total = sum(counts.values())
    print(
        f"{total} systems: {counts['finite']} finite, {counts['empty']} empty, "
        f"{counts['infinite_family']} infinite-family"
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle" and args.bound < 0:
        parser.error("--bound must be nonnegative")
    if args.command == "scan":
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        for name, (lo, hi) in (("--sum-range", args.sum_range), ("--cubes-range", args.cubes_range)):
            if lo > hi:
                parser.error(f"{name} is empty: {lo}:{hi}")
    handler = {
        "solve": cmd_solve,
        "oracle": cmd_oracle,
        "trace": cmd_trace,
        "scan": cmd_scan,
    }[args.command]
    try:
        handler(args)
        # a reader that closes stdout early fails this flush, not the one at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, which is no failure; point stdout at
        # devnull so that the interpreter's final flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (IncompleteFactorizationError, OSError) as exc:
        print(f"cubetriples {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    # Python 3.10.0 to 3.10.6 have no digit cap and no way to set it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(main())
