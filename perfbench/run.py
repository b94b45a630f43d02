"""Layered benchmark of `soundmdp solve`.

    python3 perfbench/run.py --workload {large,sweep} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`.  Set-up (timed as `setup_s`) imports soundmdp and generates and
writes the workload's MDPX models.  References are then computed outside any
timed region by an independent policy-iteration solver (`reference.py`).  A
worker process (`worker.py`) runs the requests through
`soundmdp.cli.main(["solve", ...])` for about S seconds, one at a time.
Every printed answer is classified (`classify.py`) and every certified one
is checked against its reference.  Times are scaled to a reference host
speed by gauges taken around each timed step (`hostspeed.py`), because the
shared host's own speed drifts by 20-50 % between runs.  The metrics are printed by name with
their units; the last line of standard output is one JSON object with the
end-to-end metrics (`--trace 0`) or the per-layer metrics from the spans
(`--trace 1`).  The exit code is 1 if a certified answer misses its
reference by more than the requested width, 2 if the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from classify import CERTIFIED, classify, within_width  # noqa: E402
from hostspeed import REFERENCE_NS, gauge_ns, scaled_ns  # noqa: E402
from spans import Span, layer_metrics  # noqa: E402

EPSILON = 1e-6
#: relative allowance for the reference's own rounding error; policy
#: iteration agrees with the exact oracle to about 1e-13
REFERENCE_SLACK = 1e-10
SETUP_REPEATS = 3
#: set-up is repeated only while the repetitions so far took less than this;
#: one generation of the `large` model takes 4-7 s, and a single sample of it
#: spread by 22 % between runs
SETUP_BUDGET_S = 15.0
#: the whole command ends within this many seconds
RUN_LIMIT_S = 175.0

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import soundmdp; print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], list[tuple[str, object, tuple]]]  # (name, ModelDocument, requests)
    max_sweeps: int                                        # far above today's counts


# Every workload's models are fixed and the run's seed orders the requests.
# Outcomes and costs depend on the generator seed: of the 4000-state models
# probed, most fail pmax/ovi but some certify it, and the sweep counts of the
# 50-state models range from 2e4 (seed 3) through 1.3e5 (seed 1) to 9e5
# (seed 4).  Seed-drawn models would swing every figure between runs.

#: (property, method) pairs asked of each model
LARGE_REQUESTS = (("pmax", "ovi"), ("pmax", "ii"), ("emin", "ovi"), ("emin", "ii"))
STIFF_REQUESTS = (("pmin", "ovi"), ("pmin", "ii"), ("emax", "ovi"))
CHAIN_REQUESTS = (("emax", "ovi"), ("emax", "ii"))

#: stiff seed 1 (1.3e5 sweeps) is left out so that a pass fits four times in a run
STIFF_SEEDS = (2, 3)
#: short slow chains, 0.1-1.6 s per request
CHAIN_PARAMS = ((10, Fraction(1, 2)), (16, Fraction(2, 3)), (20, Fraction(3, 4)),
                (40, Fraction(9, 10)))


def _large():
    from soundmdp import generate_random
    return [("large-1", generate_random(1, 4000, 3, 4, 4, 80), LARGE_REQUESTS)]


def _sweep():
    from soundmdp import generate_random, generate_slow_chain
    return ([(f"stiff-{s}", generate_random(s, 50, 3, 4, 4, 1), STIFF_REQUESTS)
             for s in STIFF_SEEDS]
            + [(f"chain-{n}-{p.numerator}_{p.denominator}", generate_slow_chain(n, p),
                CHAIN_REQUESTS) for n, p in CHAIN_PARAMS])


WORKLOADS = {w.name: w for w in (Workload("large", _large, 10_000),
                                 Workload("sweep", _sweep, 1_000_000))}


@dataclass
class Request:
    model: str
    path: Path
    prop: str
    method: str
    reference: float = 0.0

    @property
    def label(self) -> str:
        return f"{self.prop}/{self.method}"


def _import_seconds() -> float:
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True, timeout=60)
    return float(probe.stdout)


def set_up(workload: Workload, work: Path) -> tuple[float, dict]:
    """Import soundmdp, generate and write the models; returns the set-up
    time (median import plus median model generation, each at the reference
    host speed) and the documents."""
    imports: list[float] = []
    for _ in range(SETUP_REPEATS):
        before = gauge_ns()
        seconds = _import_seconds()
        imports.append(scaled_ns(seconds * 1e9, before, gauge_ns()) / 1e9)
    from soundmdp import write_explicit
    times: list[float] = []
    spent_ns = 0
    docs: dict = {}
    while len(times) < SETUP_REPEATS and spent_ns < SETUP_BUDGET_S * 1e9:
        before = gauge_ns()
        start = time.perf_counter_ns()
        docs = {}
        for name, doc, asked in workload.build():
            (work / f"{name}.mdpx").write_text(write_explicit(doc))
            docs[name] = doc, asked
        wall = time.perf_counter_ns() - start
        spent_ns += wall
        times.append(scaled_ns(wall, before, gauge_ns()) / 1e9)
    return statistics.median(imports) + statistics.median(times), docs


def references(docs: dict, work: Path, seed: int) -> list[Request]:
    """The workload's requests in the run's order, each with its reference."""
    from reference import reference_value

    requests = []
    for name, (doc, asked) in docs.items():
        goals = sorted(doc.declared_goals)
        values = {prop: reference_value(doc.model, goals, prop)
                  for prop in dict.fromkeys(p for p, _ in asked)}
        for prop, method in asked:
            requests.append(Request(name, work / f"{name}.mdpx", prop, method, values[prop]))
    random.Random(f"order-{seed}").shuffle(requests)
    return requests


def solve_argv(req: Request, max_sweeps: int) -> list[str]:
    return ["solve", str(req.path), "--prop", req.prop, "--method", req.method,
            "--epsilon", repr(EPSILON), "--max-sweeps", str(max_sweeps)]


def run_worker(plan: dict, work: Path, timeout: float) -> dict:
    """Run the timed requests in a fresh process; it is killed and waited
    for if it overruns `timeout` or this process is interrupted."""
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan))
    worker = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                               str(plan_path), str(result_path)])
    try:
        code = worker.wait(timeout=timeout)
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    if code != 0:
        raise subprocess.CalledProcessError(code, worker.args)
    return json.loads(result_path.read_text())


def scaled_request_ns(res: dict) -> float:
    """A request's wall time at the reference host speed."""
    return scaled_ns(res["wall_ns"], *res["gauge_ns"])


def wall_request_ns(res: dict) -> float:
    return res["wall_ns"]


def robust_rates(results: list[dict], certified: set[int],
                 request_ns: Callable[[dict], float]) -> tuple[float, float]:
    """Certified answers per minute and the median certified solve time,
    with each request timed by `request_ns`.

    Every request of a pass is repeated once per pass, and the speed of a
    shared host drifts within a run, so each request is timed by the median
    of its repetitions.  The rate is the certified answers of a pass
    divided by the sum of those medians; the p50 is the median, over the
    requests that were certified, of their median times."""
    walls: dict[int, list[float]] = {}
    cert_walls: dict[int, list[float]] = {}
    for i, res in enumerate(results):
        walls.setdefault(res["index"], []).append(request_ns(res))
        if i in certified:
            cert_walls.setdefault(res["index"], []).append(request_ns(res))
    pass_ns = sum(statistics.median(w) for w in walls.values())
    per_pass = sum(len(cert_walls.get(k, ())) / len(w) for k, w in walls.items())
    typical = [statistics.median(w) for w in (cert_walls or walls).values()]
    return per_pass / (pass_ns / 1e9) * 60.0, statistics.median(typical) / 1e6


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that the worker and the scratch
    # directory are cleaned up on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "soundmdp" / "__init__.py").is_file():
        print(f"perfbench: no soundmdp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.monotonic()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(WORKLOADS[args.workload], args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(workload: Workload, args: argparse.Namespace, work: Path, started: float) -> int:
    from soundmdp import generate_example_me, write_explicit

    setup_s, docs = set_up(workload, work)
    requests = references(docs, work, args.seed)
    warmup = Request("warmup", work / "warmup.mdpx", "pmax", "ovi")
    warmup.path.write_text(write_explicit(generate_example_me()))
    plan = {"requests": [solve_argv(r, workload.max_sweeps) for r in requests],
            "warmup": solve_argv(warmup, workload.max_sweeps) + ["--goal", "s+"],
            "seconds": args.seconds, "trace": bool(args.trace),
            "parse_file": str(requests[0].path)}
    try:
        report = run_worker(plan, work, RUN_LIMIT_S - (time.monotonic() - started))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1

    results = report["results"]
    certified: set[int] = set()
    wrong = crashed = 0
    outcomes: dict[tuple[str, str, str], int] = {}
    for i, res in enumerate(results):
        req = requests[res["index"]]
        out = classify(res["code"], res["stdout"], res["stderr"])
        crashed += res["code"] == -1
        status = out.status
        if out.kind == CERTIFIED:
            if within_width(out.value, req.reference, EPSILON, REFERENCE_SLACK):
                certified.add(i)
            else:
                wrong += 1
                status = "wrong"
                print(f"WRONG {req.model} {req.label}: {out.value!r}, reference {req.reference!r}")
        key = (req.model, req.label, status)
        outcomes[key] = outcomes.get(key, 0) + 1

    attempted = len(results)
    per_min, p50_ms = robust_rates(results, certified, scaled_request_ns)
    wall_per_min, wall_p50_ms = robust_rates(results, certified, wall_request_ns)
    gauge_ms = statistics.median(g for res in results for g in res["gauge_ns"]) / 1e6
    wall_s = sum(res["wall_ns"] for res in results) / 1e9
    print(f"workload {workload.name} seed {args.seed}: {attempted} requests in "
          f"{report['passes']} pass(es), {wall_s:.3f} s of requests, trace={args.trace}")
    for (model, label, status), count in sorted(outcomes.items()):
        print(f"  {model:<14} {label:<10} {status:<15} x{count}")
    print(f"host gauge median {gauge_ms:.3f} ms (reference {REFERENCE_NS / 1e6:g} ms); "
          f"unscaled: certified_per_min {_fmt(wall_per_min)} 1/min, "
          f"solve_ms.p50 {_fmt(wall_p50_ms)} ms")

    if args.trace:
        spans = [Span(*s) for s in report["spans"]]
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{workload.name}-seed{args.seed}.jsonl", "w") as fh:
            for s in report["spans"]:
                fh.write(json.dumps(s) + "\n")
        values = layer_metrics(spans, certified, attempted)
        values["modelio.bytes_per_branch"] = report["parse_peak_bytes"] / report["parse_branches"]
        values["trace.certified_per_min"] = per_min
    else:
        values = {
            "certified_per_min": per_min,
            "solve_ms.p50": p50_ms,
            "certified_share": len(certified) / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
        print(f"failed_share {_fmt(1.0 - len(certified) / attempted)} ratio")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    for name, value in values.items():
        note = f" (requests={len(certified)})" if name == "solve_ms.p50" else ""
        print(f"{name} {_fmt(value)} {units[name]}{note}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": wrong + crashed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
