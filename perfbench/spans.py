"""Benchmark-side tracing: spans around soundmdp's layer boundaries.

`tracing(recorder)` replaces, for the duration of a `with` block, each
function below at the name its caller looks it up under, so the program
files stay untouched: the parser and the pipeline as `soundmdp.bench` calls
them, the model, graph and solver functions as `soundmdp.pipeline` imported
them, and `soundmdp.solvers.gsvi`, which `ovi` looks up at call time.  Each
call becomes a span with its name, start and end (perf_counter_ns), parent
span and request id, plus a few counts read from its arguments and result
after the span has ended.  Spans stay in memory; the caller writes them out
when the run ends.

A span's self time is its duration minus the durations of its children.
Calls are strictly nested on one thread, so the self times of one request's
spans add up to the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int   # index of the parent span, -1 for a request's root
    request: int
    info: dict = field(default_factory=dict)

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.request, self.info]


class Recorder:
    """Collects spans in call order; `request` tags the spans opened next."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._open: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter_ns(), 0, parent, self.request))
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter_ns()
        self._open.pop()


def _branches_of_unknowns(problem) -> int:
    kernel = problem.kernel
    return sum(len(tr) for s in problem.unknowns for tr in kernel[s])


def _outcome_info(args, outcome) -> dict:
    return {"sweeps": outcome.iterations, "phases": outcome.verification_phases,
            "certified": outcome.certified}


#: (module, attribute, span name, counts read from (args, result) after the call)
TRACED = (
    ("soundmdp.bench", "parse_explicit", "modelio.parse_explicit",
     lambda args, doc: {"branches": doc.model.branch_count()}),
    ("soundmdp.bench", "solve", "pipeline.solve", None),
    ("soundmdp.pipeline", "make_goals_absorbing", "model.make_goals_absorbing", None),
    ("soundmdp.pipeline", "strip_rewards", "model.strip_rewards", None),
    ("soundmdp.pipeline", "mec_decomposition", "graph.mec_decomposition", None),
    ("soundmdp.pipeline", "eliminate_end_components", "graph.eliminate_end_components",
     lambda args, qm: {"states_in": args[0].num_states, "states_out": qm.quotient.num_states}),
    ("soundmdp.pipeline", "prob0_set", "graph.prob0_set", None),
    ("soundmdp.pipeline", "prob1_set", "graph.prob1_set", None),
    ("soundmdp.pipeline", "s_infinity", "graph.s_infinity", None),
    ("soundmdp.pipeline", "probability_problem", "solvers.probability_problem",
     lambda args, problem: {"branches": _branches_of_unknowns(problem)}),
    ("soundmdp.pipeline", "reward_problem", "solvers.reward_problem",
     lambda args, problem: {"branches": _branches_of_unknowns(problem)}),
    ("soundmdp.pipeline", "ovi", "solvers.ovi", _outcome_info),
    ("soundmdp.pipeline", "interval_iteration", "solvers.interval_iteration", _outcome_info),
    ("soundmdp.pipeline", "reward_upper_init", "solvers.reward_upper_init", None),
    ("soundmdp.solvers", "gsvi", "solvers.gsvi", lambda args, sweeps: {"sweeps": sweeps}),
)


def _traced(recorder: Recorder, name: str, fn, describe):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        idx = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.close(idx)
            info = {"raised": type(exc).__name__}
            if hasattr(exc, "sweeps"):  # IterationCapExceeded
                info["sweeps"] = exc.sweeps
            recorder.spans[idx].info = info
            raise
        recorder.close(idx)
        if describe is not None:
            recorder.spans[idx].info = describe(args, result)
        return result
    return call


@contextmanager
def tracing(recorder: Recorder):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, describe in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _traced(recorder, name, original, describe))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], certified_requests: set[int], attempted: int) -> dict:
    """Per-layer metrics of a traced run.  Times and sweep counts are totals
    divided by the requests attempted; ratios are totals over totals; a
    layer that never ran reports 0 (1 for the shrink ratio)."""
    own = self_times(spans)
    total: dict[str, int] = {}
    self_total: dict[str, int] = {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0) + s.end - s.start
        self_total[s.name] = self_total.get(s.name, 0) + t

    def ms(*names: str, table=total) -> float:
        return sum(table.get(n, 0) for n in names) / 1e6 / attempted

    def ratio(num: float, den: float, empty: float = 0.0) -> float:
        return num / den if den else empty

    branches = {s.request: s.info["branches"] for s in spans
                if s.name in ("solvers.probability_problem", "solvers.reward_problem")}
    parses = [s for s in spans if s.name == "modelio.parse_explicit"]
    elims = [s for s in spans if s.name == "graph.eliminate_end_components" and "states_in" in s.info]
    gsvi = [s for s in spans if s.name == "solvers.gsvi" and "sweeps" in s.info]
    ovi = [s for s in spans if s.name == "solvers.ovi" and "phases" in s.info]
    ovi_ids = {i for i, s in enumerate(spans) if s.name == "solvers.ovi"}
    ii = [s for s in spans if s.name == "solvers.interval_iteration" and "sweeps" in s.info]
    gsvi_sweeps = sum(s.info["sweeps"] for s in gsvi)
    ii_sweeps = sum(s.info["sweeps"] for s in ii)
    phases = sum(s.info["phases"] for s in ovi)
    return {
        "cli.self_ms": ms("cli.main", table=self_total),
        "modelio.parse_ms": ms("modelio.parse_explicit"),
        "modelio.parse_ns_per_branch": ratio(total.get("modelio.parse_explicit", 0),
                                             sum(s.info.get("branches", 0) for s in parses)),
        "modelio.parse_calls": ratio(sum(s.request in certified_requests for s in parses),
                                     len(certified_requests)),
        "model.transform_ms": ms("model.make_goals_absorbing", "model.strip_rewards"),
        "graph.mec_ms": ms("graph.mec_decomposition"),
        "graph.ec_elim_ms": ms("graph.eliminate_end_components"),
        "graph.ec_elim_shrink": ratio(sum(s.info["states_out"] for s in elims),
                                      sum(s.info["states_in"] for s in elims), 1.0),
        "graph.precomp_ms": ms("graph.prob0_set", "graph.prob1_set", "graph.s_infinity"),
        "solvers.kernel_ms": ms("solvers.probability_problem", "solvers.reward_problem"),
        "solvers.iter_ms": ms("solvers.gsvi"),
        "solvers.iter_sweeps": gsvi_sweeps / attempted,
        "solvers.verify_ms": ms("solvers.ovi", table=self_total),
        "solvers.verify_sweeps": (sum(s.info["sweeps"] for s in ovi)
                                  - sum(s.info["sweeps"] for s in gsvi if s.parent in ovi_ids))
        / attempted,
        "solvers.ii_ms": ms("solvers.interval_iteration"),
        "solvers.ii_sweeps": ii_sweeps / attempted,
        "solvers.ns_per_branch_update.iter": ratio(
            sum(s.end - s.start for s in gsvi),
            sum(s.info["sweeps"] * branches.get(s.request, 0) for s in gsvi)),
        "solvers.ns_per_branch_update.ii": ratio(
            sum(s.end - s.start for s in ii),
            sum(2 * s.info["sweeps"] * branches.get(s.request, 0) for s in ii)),
        "solvers.ovi_phases": phases / attempted,
        "solvers.ovi_verified_ratio": ratio(sum(bool(s.info["certified"]) for s in ovi), phases),
        "solvers.upper_init_ms": ms("solvers.reward_upper_init"),
        "pipeline.self_ms": ms("pipeline.solve", table=self_total),
    }
