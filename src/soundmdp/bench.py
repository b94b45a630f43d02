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
import csv
import dataclasses
import io
import math
import shlex
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .errors import IterationCapExceeded, ParseError, PipelineError, SolveTimeout, SoundMdpError
from .model import Property, PropertyKind, make_property
from .modelio import ModelDocument, parse_explicit
from .pipeline import PipelineResult, SolveOptions, solve
from .solvers import DEFAULT_SWEEP_CAP

CSV_COLUMNS = ("instance", "method", "result", "lower", "upper", "sweeps", "phases",
               "precomp_ms", "transform_ms", "solve_ms", "correct", "status")


def make_solve_arg_parser(prog: str = "solve", suite_mode: bool = False) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=prog, add_help=not suite_mode)
    p.add_argument("model", help="path to an MDPX model file")
    p.add_argument("--prop", required=True, choices=[k.value for k in PropertyKind])
    p.add_argument("--goal", nargs="+", default=[], metavar="STATE",
                   help="goal states (labels or ids); defaults to the file's goal declaration")
    p.add_argument("--method", default="ovi", choices=["vi", "ovi", "ii", "oracle"])
    p.add_argument("--epsilon", type=float, default=1e-6,
                   help="required result half-width (ignored by the oracle)")
    p.add_argument("--width", default="relative", choices=["relative", "absolute"],
                   help="interpret epsilon as a relative or absolute half-width")
    p.add_argument("--error", default="relative", choices=["relative", "absolute"],
                   help="per-sweep convergence criterion of the iteration phases")
    p.add_argument("--epsilon-vi", type=float, default=None,
                   help="initial iteration-phase threshold (default: epsilon)")
    p.add_argument("--precomp", default="required", choices=["required", "all", "none"])
    p.add_argument("--ec-elim", default="auto", choices=["auto", "force", "off"])
    p.add_argument("--order", default="forward",
                   help="state iteration order: forward, reverse, or random:<seed>")
    p.add_argument("--max-sweeps", type=int, default=DEFAULT_SWEEP_CAP)
    if suite_mode:
        p.add_argument("--id", default=None, help="instance id for the CSV")
        p.add_argument("--ref", type=float, default=None,
                       help="reference value; fills the correct column")
        p.add_argument("--exclude-trivial", action="store_true",
                       help="mark the row trivial when the result is 0 or 1")
    else:
        p.add_argument("--csv", action="store_true", help="emit a CSV row instead of a report")
    return p


@dataclass
class RunRequest:
    model_path: Path
    prop_kind: str
    goal_tokens: list[str]
    epsilon: float
    width: str
    options: SolveOptions
    instance: str
    ref: float | None = None
    exclude_trivial: bool = False


def request_from_args(args: argparse.Namespace, base_dir: Path,
                      default_id: str | None = None, timeout: float | None = None) -> RunRequest:
    options = SolveOptions(method=args.method, precomp=args.precomp, ec_elim=args.ec_elim,
                           error_mode=args.error, epsilon_vi=args.epsilon_vi,
                           max_sweeps=args.max_sweeps, order=args.order, timeout=timeout)
    path = (base_dir / args.model).resolve() if not Path(args.model).is_absolute() else Path(args.model)
    instance = getattr(args, "id", None) or default_id or f"{path.stem}:{args.prop}"
    return RunRequest(path, args.prop, list(args.goal), args.epsilon, args.width, options,
                      instance, getattr(args, "ref", None), getattr(args, "exclude_trivial", False))


def load_document(path: Path) -> ModelDocument:
    return parse_explicit(path.read_text())


def resolve_property(doc: ModelDocument, req: RunRequest) -> Property:
    if req.goal_tokens:
        goals = [doc.resolve_state(tok) for tok in req.goal_tokens]
    elif doc.declared_goals:
        goals = sorted(doc.declared_goals)
    else:
        raise PipelineError("no goal states: pass --goal or declare goals in the model file")
    return make_property(req.prop_kind, goals, req.epsilon, req.width)


def run_request(req: RunRequest, reps: int = 1) -> tuple[dict, PipelineResult | None]:
    """Execute one request `reps` times; returns the CSV row and the last result."""
    row = {c: "" for c in CSV_COLUMNS}
    row["instance"] = req.instance
    row["method"] = req.options.method
    try:
        doc = load_document(req.model_path)
        prop = resolve_property(doc, req)
    except (OSError, ParseError, PipelineError, SoundMdpError) as exc:
        row["status"] = "error"
        row["result"] = ""
        row["correct"] = ""
        row["_message"] = str(exc)
        return row, None

    times = {"precomp": 0.0, "transform": 0.0, "solve": 0.0}
    result: PipelineResult | None = None
    for _ in range(max(1, reps)):
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
        times["solve"] += result.outcome.wall_time
    reps = max(1, reps)
    assert result is not None
    outcome = result.outcome

    row["result"] = format_value(outcome.value)
    row["lower"] = format_value(outcome.lower_bound)
    row["upper"] = format_value(outcome.upper_bound)
    row["sweeps"] = str(outcome.iterations)
    row["phases"] = str(outcome.verification_phases)
    row["precomp_ms"] = f"{1000 * times['precomp'] / reps:.3f}"
    row["transform_ms"] = f"{1000 * times['transform'] / reps:.3f}"
    row["solve_ms"] = f"{1000 * times['solve'] / reps:.3f}"
    row["status"] = "ok" if outcome.status == "ok" else "uncertified"
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


def parse_suite(path: Path) -> list[RunRequest]:
    parser = make_solve_arg_parser("suite-line", suite_mode=True)
    requests: list[RunRequest] = []
    seen: dict[str, int] = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            args = parser.parse_args(shlex.split(body))
        except SystemExit:
            raise PipelineError(f"{path}:{line_no}: malformed suite line") from None
        req = request_from_args(args, path.parent)
        base = req.instance
        seen[base] = seen.get(base, 0) + 1
        if seen[base] > 1:
            req.instance = f"{base}~{seen[base]}"
        requests.append(req)
    return requests


def _request_row(req: RunRequest, reps: int) -> dict:
    return run_request(req, reps)[0]


def run_suite(suite_path: Path, output_path: Path, reps: int = 3,
              timeout: float | None = 120.0, jobs: int = 1) -> tuple[list[dict], bool]:
    """Run every request in the suite and write the CSV; returns (rows, all_ok)."""
    requests = parse_suite(suite_path)
    for req in requests:
        req.options = dataclasses.replace(req.options, timeout=timeout)
    all_reps = [reps] * len(requests)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_request_row, requests, all_reps))
    else:
        rows = list(map(_request_row, requests, all_reps))

    with output_path.open("w", newline="") as fh:
        fh.write(f"# soundmdp bench reps={reps} timeout={timeout} jobs={jobs} "
                 f"generated={time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    # `correct` is scored only where a row claims a bound, that is on a
    # certified result; plain value iteration, for one, claims none.
    ok = all(row["status"] in ("ok", "trivial", "uncertified") for row in rows) \
        and not any(row["correct"] == "false" and row.get("_certified") for row in rows)
    return rows, ok


def read_result_csv(path: Path) -> dict[str, dict]:
    text = "\n".join(ln for ln in path.read_text().splitlines() if not ln.startswith("#"))
    out: dict[str, dict] = {}
    for row in csv.DictReader(io.StringIO(text)):
        out[row["instance"]] = row
    return out


def _ratio(a: float, b: float) -> float:
    if a == b:
        return 1.0
    if a == 0.0:
        return math.inf
    return b / a


@dataclass
class Comparison:
    rows: list[tuple[str, float, float]] = field(default_factory=list)  # instance, time, sweeps
    time_over_2x: int = 0
    time_under_half: int = 0
    sweeps_over_2x: int = 0
    sweeps_under_half: int = 0


def compare_results(path_a: Path, path_b: Path) -> Comparison:
    """Per-instance solve-time and sweep ratios of B over A, with the counts of
    instances beyond the 2x and 0.5x bands."""
    a = read_result_csv(path_a)
    b = read_result_csv(path_b)
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))
        only_b = sorted(set(b) - set(a))
        raise PipelineError(f"instance ids differ: only in A {only_a}, only in B {only_b}")
    cmp = Comparison()
    for instance in sorted(a):
        ra, rb = a[instance], b[instance]
        t = _ratio(float(ra["solve_ms"] or 0.0), float(rb["solve_ms"] or 0.0))
        s = _ratio(float(ra["sweeps"] or 0.0), float(rb["sweeps"] or 0.0))
        cmp.rows.append((instance, t, s))
        cmp.time_over_2x += t > 2.0
        cmp.time_under_half += t < 0.5
        cmp.sweeps_over_2x += s > 2.0
        cmp.sweeps_under_half += s < 0.5
    return cmp


def render_comparison(cmp: Comparison, name_a: str, name_b: str) -> str:
    lines = [f"{'instance':<40} {'time B/A':>10} {'sweeps B/A':>11}"]
    for instance, t, s in cmp.rows:
        lines.append(f"{instance:<40} {t:>10.3f} {s:>11.3f}")
    lines.append("")
    lines.append(f"A = {name_a}, B = {name_b}; {len(cmp.rows)} instances")
    lines.append(f"time:   B slower >2x on {cmp.time_over_2x}, faster <0.5x on {cmp.time_under_half}")
    lines.append(f"sweeps: B more >2x on {cmp.sweeps_over_2x}, fewer <0.5x on {cmp.sweeps_under_half}")
    return "\n".join(lines)
