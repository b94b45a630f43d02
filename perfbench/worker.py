"""The process that runs a benchmark's timed requests.

    python3 perfbench/worker.py <plan.json> <result.json>

The plan lists `soundmdp solve` argument vectors.  Each is run in-process
through `soundmdp.cli.main` with standard output and error captured, one at
a time (a closed loop with one client).  A run makes whole passes over the
list; it starts another pass only while that pass is expected to end within
the plan's `seconds`, and always makes at least one.  Each request is
bracketed by two untimed host-speed gauges (`hostspeed.gauge_ns`), which the
results carry beside the wall time.  With `trace` set, the
requests run under `spans.tracing` and the spans are written out with the
results; a separate, untimed pass then measures the tracemalloc peak of one
parse.  The process's peak resident set is reported before that pass, so it
covers the timed requests and not the benchmark's own set-up or references.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hostspeed import gauge_ns  # noqa: E402
from spans import Recorder, tracing  # noqa: E402


def run_request(cli_main, argv: list[str]) -> tuple[int, str, str, int]:
    """One solve through the CLI: exit code, stdout, stderr, wall ns."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is data: the classifier reports it as an error
            traceback.print_exc()
            code = -1
    wall = time.perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), wall


def run_traced(cli_main, recorder: Recorder, argv: list[str]) -> tuple[int, str, str, int]:
    """`run_request` inside a root span `cli.main`; the wall time is that span's."""
    root = recorder.open("cli.main")
    code, out, err, _ = run_request(cli_main, argv)
    recorder.close(root)
    span = recorder.spans[root]
    return code, out, err, span.end - span.start


def closed_loop(cli_main, requests: list[list[str]], seconds: float,
                recorder: Recorder | None) -> tuple[list[dict], int]:
    results: list[dict] = []
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for index, argv in enumerate(requests):
            gc.collect()  # start each request from a clean heap, as a fresh process would
            before = gauge_ns()
            if recorder is None:
                code, out, err, wall = run_request(cli_main, argv)
            else:
                recorder.request = len(results)
                code, out, err, wall = run_traced(cli_main, recorder, argv)
            results.append({"index": index, "code": code, "stdout": out, "stderr": err,
                            "wall_ns": wall, "gauge_ns": [before, gauge_ns()]})
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return results, passes


def parse_peak_bytes(path: str) -> tuple[int, int]:
    """tracemalloc peak of one parse of the file, and its branch count."""
    from soundmdp.modelio import parse_explicit

    text = Path(path).read_text()
    tracemalloc.start()
    try:
        doc = parse_explicit(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, doc.model.branch_count()


def peak_rss_kb() -> int:
    """High-water resident set of this process image, in KiB.  VmHWM is used
    rather than ru_maxrss, which on Linux carries over the parent's peak
    from before the exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    from soundmdp.cli import main as cli_main

    run_request(cli_main, plan["warmup"])
    recorder = Recorder() if plan["trace"] else None
    with tracing(recorder) if recorder else contextlib.nullcontext():
        results, passes = closed_loop(cli_main, plan["requests"], plan["seconds"], recorder)
    report = {"results": results, "passes": passes,
              "peak_rss_kb": peak_rss_kb()}
    if recorder is not None:
        report["spans"] = [s.as_list() for s in recorder.spans]
        report["parse_peak_bytes"], report["parse_branches"] = parse_peak_bytes(plan["parse_file"])
    Path(result_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
