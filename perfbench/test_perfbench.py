"""Tests of the benchmark's own parts: the output classifier, the span
bookkeeping, the host-speed scaling and the independent reference solver."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from classify import CERTIFIED, ERROR, NOT_CERTIFIED, classify
from hostspeed import REFERENCE_NS, gauge_ns, scaled_ns
from reference import reference_value
from run import CHAIN_PARAMS, robust_rates, scaled_request_ns, wall_request_ns
from spans import Recorder, layer_metrics, self_times, tracing
from worker import run_request, run_traced

import soundmdp.bench
from soundmdp import (generate_random, generate_slow_chain, make_goals_absorbing,
                      make_property, oracle_exact, write_explicit)
from soundmdp.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
ME = ROOT / "bench_suite" / "models" / "me.mdpx"
SLOW_CHAIN = ROOT / "bench_suite" / "models" / "slow-chain.mdpx"


def solve(*argv: str):
    code, out, err, _ = run_request(cli_main, ["solve", *argv])
    return classify(code, out, err)


def test_classifier_certified_on_bundled_example():
    outcome = solve(str(ME), "--prop", "pmax", "--goal", "s+", "--method", "ovi")
    assert outcome.kind == CERTIFIED and outcome.status == "ok"
    assert outcome.value == pytest.approx(0.5, rel=1e-6)


def test_classifier_out_of_budget():
    ovi = solve(str(SLOW_CHAIN), "--prop", "emax", "--method", "ovi", "--max-sweeps", "50")
    assert (ovi.kind, ovi.status) == (NOT_CERTIFIED, "no-certificate")
    ii = solve(str(SLOW_CHAIN), "--prop", "emax", "--method", "ii", "--max-sweeps", "50")
    assert (ii.kind, ii.status) == (ERROR, "cap")


def test_classifier_error_on_emin_ii_at_500_states(tmp_path):
    path = tmp_path / "r500.mdpx"
    path.write_text(write_explicit(generate_random(1, 500, 3, 4, 4, 10)))
    outcome = solve(str(path), "--prop", "emin", "--method", "ii")
    assert outcome.kind == ERROR and outcome.status == "error"
    assert "no finite reward upper bound" in outcome.reason


def test_classifier_reports_a_crash_as_error():
    outcome = classify(-1, "", "Traceback (most recent call last):\nZeroDivisionError\n")
    assert outcome.kind == ERROR and outcome.value is None


def test_span_self_times_add_up_to_the_request_wall_time():
    recorder = Recorder()
    original = soundmdp.bench.parse_explicit
    with tracing(recorder):
        recorder.request = 0
        code, out, err, wall = run_traced(
            cli_main, recorder, ["solve", str(ME), "--prop", "pmax", "--goal", "s+", "--method", "ii"])
    assert soundmdp.bench.parse_explicit is original
    assert classify(code, out, err).kind == CERTIFIED
    spans = recorder.spans
    root = spans[0]
    assert root.name == "cli.main" and root.parent == -1
    assert all(s.request == 0 for s in spans)
    own = self_times(spans)
    assert sum(own) == wall == root.end - root.start
    assert all(t >= 0 for t in own)
    for s in spans[1:]:
        parent = spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
    names = {s.name for s in spans}
    assert {"modelio.parse_explicit", "pipeline.solve", "model.make_goals_absorbing",
            "graph.mec_decomposition", "graph.eliminate_end_components", "graph.prob0_set",
            "solvers.probability_problem", "solvers.interval_iteration"} <= names
    metrics = layer_metrics(spans, {0}, 1)
    assert metrics["modelio.parse_calls"] == 2
    layer_ms = sum(v for k, v in metrics.items() if k.endswith("_ms"))
    assert layer_ms == pytest.approx(wall / 1e6, rel=1e-9)


def test_scaling_removes_host_speed_from_request_times():
    assert gauge_ns() > 0
    assert scaled_ns(10.0, REFERENCE_NS, REFERENCE_NS) == 10.0
    # the same request, timed once on a host at reference speed and once on
    # one twice as slow: the scaled times agree, the wall times do not
    results = [{"index": 0, "wall_ns": 2e9, "gauge_ns": [REFERENCE_NS] * 2},
               {"index": 0, "wall_ns": 4e9, "gauge_ns": [2 * REFERENCE_NS] * 2}]
    assert scaled_request_ns(results[0]) == scaled_request_ns(results[1]) == 2e9
    per_min, p50_ms = robust_rates(results, {0, 1}, scaled_request_ns)
    assert (per_min, p50_ms) == (30.0, 2000.0)
    per_min, p50_ms = robust_rates(results, {0, 1}, wall_request_ns)
    assert (per_min, p50_ms) == (20.0, 3000.0)


def test_reference_matches_demo_suite_refs():
    requests = [r for r in soundmdp.bench.parse_suite(ROOT / "bench_suite" / "demo.suite")
                if r.ref is not None]
    assert requests
    for req in requests:
        doc = soundmdp.bench.load_document(req.model_path)
        prop = soundmdp.bench.resolve_property(doc, req)
        value = reference_value(doc.model, prop.goals, req.prop_kind)
        assert value == pytest.approx(req.ref, rel=1e-12), req.instance


def _exact(doc, kind: str) -> float:
    goals = sorted(doc.declared_goals)
    return float(oracle_exact(make_goals_absorbing(doc.model, goals),
                              make_property(kind, goals, 1e-6)))


@pytest.mark.parametrize("n,p", CHAIN_PARAMS)
def test_reference_matches_oracle_on_benchmark_chains(n, p):
    doc = generate_slow_chain(n, p)
    value = reference_value(doc.model, sorted(doc.declared_goals), "emax")
    assert value == pytest.approx(_exact(doc, "emax"), rel=1e-12)


@pytest.mark.parametrize("seed", range(16))
def test_reference_matches_oracle_on_small_random_models(seed):
    doc = generate_random(seed, 7, 2, 3, 3, 2, allow_end_components=seed % 2 == 0)
    for kind in ("pmax", "pmin", "emax", "emin"):
        value = reference_value(doc.model, sorted(doc.declared_goals), kind)
        exact = _exact(doc, kind)
        if math.isinf(exact):
            assert value == exact, kind
        else:
            assert value == pytest.approx(exact, rel=1e-12, abs=1e-15), kind
