"""Benchmark suites: run solve requests from a suite file, emit a fixed-column
CSV, and compare two result CSVs as ratio tables.

A suite file holds one solve request per line using the same flags as the
`solve` subcommand, plus `--id`, `--ref` (reference value, fills the
`correct` column) and `--exclude-trivial` (mark rows whose result is 0 or 1
as trivial instead of scoring them).  `#` starts a comment; model paths are
relative to the suite file.
"""

from __future__ import annotations

import argparse
import math
import time
from pathlib import Path

from .errors import IterationCapExceeded, ParseError, PipelineError, SolveTimeout, SoundMdpError
from .model import Property, PropertyKind, collector_paused, make_property
from .modelio import ModelDocument, parse_explicit
from .pipeline import METHODS, PipelineResult, SolveOptions, solve
from .solvers import DEFAULT_SWEEP_CAP

CSV_COLUMNS = ("instance", "method", "result", "lower", "upper", "sweeps", "phases",
               "precomp_ms", "transform_ms", "solve_ms", "correct", "status")


def make_solve_arg_parser(prog: str = "solve", suite_mode: bool = False) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=prog, add_help=not suite_mode)
    p.add_argument("model", help="path to an MDPX model file")
    p.add_argument("--prop", required=True, choices=[k.value for k in PropertyKind])
    # `extend` copies the list default before adding to it, so repeated flags
    # accumulate and the parser, built once per process, is left as it was.
    p.add_argument("--goal", nargs="+", action="extend", default=[], metavar="STATE",
                   help="goal states (labels or ids), repeatable; defaults to the file's "
                        "goal declaration")
    p.add_argument("--method", default="ovi", choices=METHODS)
    p.add_argument("--epsilon", type=float, default=1e-6,
                   help="required result half-width (ignored by the oracle)")
    p.add_argument("--width", default="relative", choices=["relative", "absolute"],
                   help="interpret epsilon as a relative or absolute half-width")
    p.add_argument("--error", default="relative", choices=["relative", "absolute"],
                   help="per-sweep convergence criterion of the iteration phases")
    p.add_argument("--epsilon-vi", type=float, default=None,
                   help="initial iteration-phase threshold (default: epsilon)")
    p.add_argument("--precomp", default="required", choices=["required", "none"],
                   help="required: prob0/prob1 or the infinite-reward states; none: skip them")
    p.add_argument("--ec-elim", default="auto", choices=["auto", "force", "off"])
    p.add_argument("--order", default="goal-distance",
                   help="state iteration order: goal-distance (by backward distance from "
                        "the goals, ties by id), forward, reverse, or random:<seed>")
    p.add_argument("--max-sweeps", type=int, default=DEFAULT_SWEEP_CAP)
    if suite_mode:
        p.add_argument("--id", default=None, help="instance id for the CSV")
        p.add_argument("--ref", type=float, default=None,
                       help="reference value; fills the correct column")
        p.add_argument("--exclude-trivial", action="store_true",
                       help="mark the row trivial when the result is 0 or 1")
    else:
        p.add_argument("--csv", action="store_true", help="emit a CSV row instead of a report")
        p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="numeric-phase timeout in seconds (default: none)")
    return p


class RunRequest:
    __slots__ = ("model_path", "prop_kind", "goal_tokens", "epsilon", "width", "options",
                 "instance", "ref", "exclude_trivial")

    def __init__(self, model_path: Path, prop_kind: str, goal_tokens: list[str], epsilon: float,
                 width: str, options: SolveOptions, instance: str, ref: float | None = None,
                 exclude_trivial: bool = False) -> None:
        self.model_path, self.prop_kind, self.goal_tokens = model_path, prop_kind, goal_tokens
        self.epsilon, self.width, self.options = epsilon, width, options
        self.instance, self.ref, self.exclude_trivial = instance, ref, exclude_trivial


def request_from_args(args: argparse.Namespace, base_dir: Path,
                      timeout: float | None = None) -> RunRequest:
    if not (args.epsilon > 0 and math.isfinite(args.epsilon)):
        raise PipelineError(f"epsilon must be a positive finite real, not {args.epsilon!r}")
    options = SolveOptions(method=args.method, precomp=args.precomp, ec_elim=args.ec_elim,
                           error_mode=args.error, epsilon_vi=args.epsilon_vi,
                           max_sweeps=args.max_sweeps, order=args.order, timeout=timeout)
    path = (base_dir / args.model).resolve() if not Path(args.model).is_absolute() else Path(args.model)
    instance = getattr(args, "id", None) or f"{path.stem}:{args.prop}"
    return RunRequest(path, args.prop, list(args.goal), args.epsilon, args.width, options,
                      instance, getattr(args, "ref", None), getattr(args, "exclude_trivial", False))


def _read_text(path: Path) -> str:
    """A file's text; a file that cannot be read or does not decode is a
    ParseError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not {exc.encoding} text: {exc.reason} "
                         f"at byte {exc.start}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None


def load_document(path: Path) -> ModelDocument:
    """Reads and parses a model file."""
    return parse_explicit(_read_text(path))


def resolve_property(doc: ModelDocument, req: RunRequest) -> Property:
    if req.goal_tokens:
        goals = [doc.resolve_state(tok) for tok in req.goal_tokens]
    elif doc.declared_goals:
        goals = sorted(doc.declared_goals)
    else:
        raise PipelineError("no goal states: pass --goal or declare goals in the model file")
    return make_property(req.prop_kind, goals, req.epsilon, req.width)


@collector_paused()  # one pause: no collection walks the model the parse and the solve built
def run_request(req: RunRequest, reps: int = 1) -> tuple[dict, PipelineResult | None]:
    """Execute one request `reps` times; returns the CSV row and the last result."""
    row = {c: "" for c in CSV_COLUMNS}
    row["instance"] = req.instance
    row["method"] = req.options.method
    try:
        doc = load_document(req.model_path)
        prop = resolve_property(doc, req)
    except SoundMdpError as exc:
        row["status"] = "error"
        row["_message"] = str(exc)
        return row, None

    reps = max(1, reps)
    times = {"precomp": 0.0, "transform": 0.0, "solve": 0.0}
    result: PipelineResult | None = None
    for _ in range(reps):
        try:
            result = solve(doc.model, prop, req.options)
        except SolveTimeout:
            row["status"] = "timeout"
            return row, None
        except IterationCapExceeded:
            row["status"] = "cap"
            return row, None
        except SoundMdpError as exc:
            row["status"] = "error"
            row["_message"] = str(exc)
            return row, None
        times["precomp"] += result.precomp_time
        times["transform"] += result.transform_time
        times["solve"] += result.solve_time
    assert result is not None
    outcome = result.outcome

    row["result"] = format_value(outcome.value)
    row["lower"] = format_value(outcome.lower_bound)
    row["upper"] = format_value(outcome.upper_bound)
    row["sweeps"] = str(outcome.iterations)
    row["phases"] = str(outcome.verification_phases)
    for phase, total in times.items():
        row[f"{phase}_ms"] = f"{1000 * total / reps:.3f}"
    row["status"] = outcome.status
    row["_certified"] = outcome.certified
    if req.exclude_trivial and outcome.value in (0.0, 1.0):
        row["status"] = "trivial"
    elif req.ref is not None:
        row["correct"] = "true" if _within_width(outcome.value, req.ref, prop) else "false"
    return row, result


def _within_width(value: float, ref: float, prop: Property) -> bool:
    if math.isinf(value) or math.isinf(ref):
        return value == ref
    if prop.width == "relative":
        return abs(value - ref) <= prop.epsilon * abs(ref)
    return abs(value - ref) <= prop.epsilon


def format_value(x: float | None) -> str:
    if x is None:
        return ""
    if math.isinf(x):
        return "inf"
    return f"{x:.17g}"


def parse_suite(path: Path, timeout: float | None = None) -> list[RunRequest]:
    """The suite's requests in file order, each with this numeric-phase timeout."""
    # csv, io and shlex are imported where `bench` and `compare` use them:
    # no `soundmdp solve` needs them.
    import shlex

    parser = make_solve_arg_parser("suite-line", suite_mode=True)
    requests: list[RunRequest] = []
    seen: dict[str, int] = {}
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        try:
            words = shlex.split(raw, comments=True)  # ValueError: an unbalanced quote
            if not words:
                continue
            args = parser.parse_args(words)
        except (SystemExit, ValueError):
            raise PipelineError(f"{path}:{line_no}: malformed suite line") from None
        try:
            req = request_from_args(args, path.parent, timeout)
        except PipelineError as exc:
            raise PipelineError(f"{path}:{line_no}: {exc}") from None
        # A repeated id takes the first free `~<n>`: the keys of `seen` are
        # the ids taken, each with the last n tried for it as a base.
        base = req.instance
        n = seen.get(base, 1)
        while req.instance in seen:
            n += 1
            req.instance = f"{base}~{n}"
        seen[base] = n
        seen.setdefault(req.instance, 1)
        requests.append(req)
    return requests


def _request_row(req: RunRequest, reps: int) -> dict:
    return run_request(req, reps)[0]


def run_suite(suite_path: Path, output_path: Path, reps: int = 3,
              timeout: float | None = 120.0, jobs: int = 1) -> tuple[list[dict], bool]:
    """Run every request in the suite and write the CSV; returns (rows, all_ok)."""
    for name, count in (("reps", reps), ("jobs", jobs)):
        if type(count) is not int or count < 1:
            raise PipelineError(f"{name} must be a positive integer, not {count!r}")
    SolveOptions(timeout=timeout)  # a bad timeout fails here, not at the first suite line
    requests = parse_suite(suite_path, timeout)
    all_reps = [reps] * len(requests)
    if jobs > 1:
        # Imported here: the process pool loads concurrent.futures.process and
        # multiprocessing, which no `soundmdp solve` needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_request_row, requests, all_reps))
    else:
        rows = list(map(_request_row, requests, all_reps))

    import csv

    with output_path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# soundmdp bench reps={reps} timeout={timeout} jobs={jobs} "
                 f"generated={time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    # `correct` is scored only where a row claims a bound, that is on a
    # certified result; plain value iteration, for one, claims none.
    ok = all(row["status"] in ("ok", "trivial", "uncertified", "no-certificate")
             and not (row["correct"] == "false" and row.get("_certified")) for row in rows)
    return rows, ok


def read_result_csv(path: Path) -> dict[str, dict]:
    """A result CSV's rows by instance; an instance on two rows is a
    ParseError naming the file."""
    import csv
    import io

    text = "\n".join(ln for ln in _read_text(path).splitlines() if not ln.startswith("#"))
    out: dict[str, dict] = {}
    for row in csv.DictReader(io.StringIO(text)):
        if row["instance"] in out:
            raise ParseError(f"{path} repeats instance {row['instance']!r}")
        out[row["instance"]] = row
    return out


def _ratio(a: float, b: float) -> float:
    if a == b:
        return 1.0
    if a == 0.0:
        return math.inf
    return b / a


def _measures(path: Path) -> dict[str, tuple[float, float]]:
    """Solve time and sweeps by instance from a result CSV; a missing column
    or a cell that is not a number is a ParseError naming the file."""
    try:
        return {instance: (float(row["solve_ms"] or 0.0), float(row["sweeps"] or 0.0))
                for instance, row in read_result_csv(path).items()}
    except KeyError as exc:
        raise ParseError(f"{path} has no {exc.args[0]!r} column") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def compare_results(path_a: Path, path_b: Path) -> list[tuple[str, float, float]]:
    """(instance, solve-time ratio, sweep ratio) rows of B over A, by instance."""
    a, b = _measures(path_a), _measures(path_b)
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))
        only_b = sorted(set(b) - set(a))
        raise PipelineError(f"instance ids differ: only in A {only_a}, only in B {only_b}")
    return [(instance, _ratio(a[instance][0], b[instance][0]),
             _ratio(a[instance][1], b[instance][1])) for instance in sorted(a)]


def render_comparison(rows: list[tuple[str, float, float]], name_a: str, name_b: str) -> str:
    """The ratio table, with the counts of instances beyond the 2x and 0.5x bands."""
    lines = [f"{'instance':<40} {'time B/A':>10} {'sweeps B/A':>11}"]
    for instance, t, s in rows:
        lines.append(f"{instance:<40} {t:>10.3f} {s:>11.3f}")
    times, sweeps = [t for _, t, _ in rows], [s for _, _, s in rows]
    lines.append("")
    lines.append(f"A = {name_a}, B = {name_b}; {len(rows)} instances")
    lines.append(f"time:   B slower >2x on {sum(t > 2.0 for t in times)}, "
                 f"faster <0.5x on {sum(t < 0.5 for t in times)}")
    lines.append(f"sweeps: B more >2x on {sum(s > 2.0 for s in sweeps)}, "
                 f"fewer <0.5x on {sum(s < 0.5 for s in sweeps)}")
    return "\n".join(lines)
