"""Command-line front end: solve one instance, run a benchmark suite, or
compare two result CSVs.

The argument parser is built once per process, on the first `main` call,
and shared by every later call; parsing leaves it as it was, so in-process
calls stay independent."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .bench import (CSV_COLUMNS, compare_results, format_value, load_document,
                    make_solve_arg_parser, render_comparison, request_from_args,
                    resolve_property, run_request, run_suite)
from .errors import SoundMdpError
from .model import collector_paused


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soundmdp",
                                     description="Explicit-state MDP solver with sound value iteration")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = make_solve_arg_parser("solve")
    sub.add_parser("solve", parents=[solve_p], add_help=False,
                   help="solve one model/property instance")

    bench_p = sub.add_parser("bench", help="run a suite file and write a result CSV")
    bench_p.add_argument("suite", help="suite file: one solve request per line")
    bench_p.add_argument("-o", "--output", required=True, help="output CSV path")
    bench_p.add_argument("--reps", type=int, default=3, help="repetitions per instance (times are averaged)")
    bench_p.add_argument("--timeout", type=float, default=120.0, help="per-instance numeric-phase timeout in seconds")
    bench_p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    cmp_p = sub.add_parser("compare", help="per-instance ratio table of two result CSVs")
    cmp_p.add_argument("csv_a")
    cmp_p.add_argument("csv_b")
    return parser


@collector_paused()  # as `run_request`: the report parses the model again
def _cmd_solve(args: argparse.Namespace) -> int:
    req = request_from_args(args, Path.cwd(), timeout=args.timeout)
    row, result = run_request(req)
    if args.csv:
        import csv  # only here: no report needs it

        writer = csv.DictWriter(sys.stdout, CSV_COLUMNS, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerow(row)
    if result is None:
        print(f"error: {row.get('_message', row['status'])}", file=sys.stderr)
        return 1
    if args.csv:
        return 0
    doc = load_document(req.model_path)
    prop = resolve_property(doc, req)
    outcome = result.outcome
    model = doc.model
    print(f"model       {req.model_path.name}: {model.num_states} states, "
          f"{model.transition_count()} transitions, {model.branch_count()} branches")
    goals = ", ".join(doc.label_of(g) or str(g) for g in sorted(prop.goals))
    print(f"property    {prop.kind.value} to {{{goals}}}, epsilon {prop.epsilon:g} ({prop.width} width)")
    print(f"pipeline    {' -> '.join(result.applied) if result.applied else 'none'}")
    for w in result.warnings:
        print(f"warning     {w}")
    print(f"method      {outcome.method}")
    print(f"result      {format_value(outcome.value)}")
    if outcome.lower_bound is not None and outcome.upper_bound is not None:
        print(f"interval    [{format_value(outcome.lower_bound)}, {format_value(outcome.upper_bound)}]")
    print(f"certified   {'yes' if outcome.certified else 'no'} ({outcome.status})")
    print(f"sweeps      {outcome.iterations} "
          f"(verification phases {outcome.verification_phases}, "
          f"cancelled {outcome.cancelled_verifications})")
    print(f"time        precomp {1000 * result.precomp_time:.3f} ms, "
          f"transform {1000 * result.transform_time:.3f} ms, "
          f"solve {1000 * result.solve_time:.3f} ms")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows, ok = run_suite(Path(args.suite), Path(args.output), reps=args.reps,
                         timeout=args.timeout, jobs=args.jobs)
    for row in rows:
        note = f" ({row['_message']})" if row.get("_message") else ""
        correct = f" correct={row['correct']}" if row.get("correct") else ""
        print(f"{row['instance']:<40} {row['method']:<7} {row['status']:<11} "
              f"result={row['result'] or '-'}{correct}{note}")
    print(f"wrote {args.output} ({len(rows)} rows)")
    return 0 if ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    cmp = compare_results(Path(args.csv_a), Path(args.csv_b))
    print(render_comparison(cmp, args.csv_a, args.csv_b))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_compare(args)
    except SoundMdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
