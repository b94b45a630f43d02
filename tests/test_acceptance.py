"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances and runtime budgets are pinned here; run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from soundmdp import (ErrorCriterion, SolveOptions, bellman_apply,
                      generate_example_me, generate_random, generate_slow_chain,
                      gsvi, make_goals_absorbing, make_property, mec_decomposition,
                      oracle_exact, oracle_values, ovi, prob0_set, prob1_set,
                      probability_problem, reward_problem, reward_upper_init,
                      s_infinity, solve, strip_rewards)
from soundmdp.bench import read_result_csv, run_suite

from conftest import record
from test_graph import _brute_force_mecs

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {label}")
        raise
    print(f"[criterion {number}] PASS  {label} ({time.perf_counter() - started:.2f}s)")


def golden_problem():
    doc = generate_example_me()
    me0 = strip_rewards(make_goals_absorbing(doc.model, [1]))
    return doc, probability_problem(me0, goals=[1], opt="max", fixed_zero=[2])


def brackets(lower: float, upper: float, exact: Fraction) -> bool:
    """Certified bounds contain the exact value, up to binary64 resolution.

    The iterates are binary64, so a converged interval can sit a few ulps off
    a value that is not representable (23/10, 131/144, ...).  The allowance of
    1e-13 relative is seven orders of magnitude below the certified width
    being validated and cannot mask a real certificate defect.
    """
    slack = Fraction(1, 10**13) * max(Fraction(1), abs(exact))
    return Fraction(lower) - slack <= exact <= Fraction(upper) + slack


def small_model(seed: int, reward: bool, allow_ec: bool = False):
    doc = generate_random(seed, 2 + seed % 5, 2, 2,
                          Fraction(2) if reward else Fraction(0), 1,
                          min_reward=Fraction(1, 4) if reward else 0,
                          allow_end_components=allow_ec)
    return make_goals_absorbing(doc.model, doc.declared_goals), sorted(doc.declared_goals)


def test_criterion_1_gauss_seidel_golden_trace():
    with criterion(1, "Gauss-Seidel golden trace, 4 sweeps, < 1 ms"):
        _, problem = golden_problem()
        v = problem.initial_vector()
        assert v[0] == 0.0
        seen: list[tuple[float, float]] = []
        started = time.perf_counter()
        sweeps = gsvi(problem, v, ErrorCriterion("absolute", 0.05),
                      observer=lambda event, k, err, vec: seen.append((vec[0], err)))
        elapsed = time.perf_counter() - started
        assert sweeps == 4
        expected = [(0.1, 0.4), (0.18, 0.4), (0.4, 0.22), (0.42, 0.02)]
        for (got_v, got_e), (want_v, want_e) in zip(seen, expected):
            assert abs(got_v - want_v) <= 1e-12
            assert abs(got_e - want_e) <= 1e-12
        assert elapsed < 1e-3, f"golden trace took {elapsed * 1e3:.3f} ms"


def test_criterion_2_optimistic_iteration_golden_trace():
    with criterion(2, "optimistic-iteration golden trace and certified midpoint"):
        _, problem = golden_problem()
        prop = make_property("pmax", [1], 0.05, "absolute")
        events: list[tuple] = []
        out = ovi(problem, ErrorCriterion("absolute", 0.05), prop, observer=record(events))

        guesses = [ev[1] for ev in events if ev[0] == "guess"]
        assert len(guesses) == 2
        for got, want in zip((guesses[0][0], guesses[0][3], guesses[0][4]), (0.47, 0.45, 0.45)):
            assert abs(got - want) <= 1e-12
        verifies = [ev for ev in events if ev[0] == "verify"]
        assert verifies[0][1] == 1 and verifies[0][5] is True  # one sweep, rejected upward
        eps_after_retry = [ev[1] for ev in events if ev[0] == "epsilon-vi"][0]
        assert abs(eps_after_retry - 0.008) <= 1e-12
        for got, want in zip((guesses[1][0], guesses[1][3], guesses[1][4]),
                             (0.5237856, 0.45, 0.45)):
            assert abs(got - want) <= 1e-12

        assert out.certified
        assert abs(out.upper_bound - 0.51902848) <= 1e-12
        assert abs(out.lower_bound - 0.47902848) <= 1e-12
        assert abs(out.value - 0.5 * (0.51902848 + 0.47902848)) <= 1e-12
        assert abs(out.value - 0.5) <= 0.05
        assert out.iterations == 10 and out.verification_phases == 2


def test_criterion_3_fixed_point_traps():
    with criterion(3, "spurious fixed point with and without component elimination"):
        doc = generate_example_me()
        me0 = strip_rewards(make_goals_absorbing(doc.model, [1]))
        both = make_goals_absorbing(doc.model, [1, 2])
        assert oracle_exact(me0, make_property("pmax", [1])) == Fraction(1, 2)
        assert oracle_exact(both, make_property("emin", [1, 2])) == Fraction(3, 5)

        trapped = solve(doc.model, make_property("emin", [1, 2]),
                        SolveOptions(method="vi", ec_elim="off"))
        assert trapped.outcome.value == 0.0
        assert not trapped.outcome.certified

        sound = solve(doc.model, make_property("emin", [1, 2], 1e-6),
                      SolveOptions(method="ovi"))
        assert sound.outcome.certified
        assert abs(Fraction(sound.outcome.value) - Fraction(3, 5)) <= Fraction(3, 5) / 10**6
        assert Fraction(sound.outcome.lower_bound) <= Fraction(3, 5) \
            <= Fraction(sound.outcome.upper_bound)


def test_criterion_4_certified_methods_match_exact_oracle():
    with criterion(4, "200-model differential: ovi and ii within 1e-6 of the oracle, < 60 s"):
        started = time.perf_counter()
        eps = Fraction(1, 10**6)
        checked = 0
        for seed in range(200):
            model, goals = small_model(seed, reward=True)
            for kind in ("pmax", "pmin", "emax", "emin"):
                prop = make_property(kind, goals, 1e-6)
                exact = oracle_exact(model, prop)
                for method in ("ovi", "ii"):
                    res = solve(model, prop, SolveOptions(method=method))
                    out = res.outcome
                    if exact == math.inf:
                        assert out.value == math.inf
                        continue
                    assert out.certified, f"seed {seed} {kind} {method} gave no certificate"
                    assert abs(Fraction(out.value) - exact) <= eps * exact, \
                        f"seed {seed} {kind} {method}: {out.value} vs {exact}"
                    assert brackets(out.lower_bound, out.upper_bound, exact), \
                        f"seed {seed} {kind} {method}: [{out.lower_bound}, {out.upper_bound}] vs {exact}"
                    checked += 1
        elapsed = time.perf_counter() - started
        assert checked >= 600
        assert elapsed < 60.0, f"differential suite took {elapsed:.1f}s"


def test_criterion_5_inductive_upper_bounds_and_monotonicity():
    with criterion(5, "inductive upper bounds dominate the oracle; backups are monotone, < 30 s"):
        started = time.perf_counter()
        rng = random.Random(20260808)
        inductive_hits = 0
        pairs = 0
        mono_pairs = 0
        while pairs < 1000:
            seed = pairs % 60
            reward = seed % 2 == 0
            model, goals = small_model(seed, reward=reward)
            if reward:
                s_inf = s_infinity(model, goals, "max")
                if model.initial in s_inf:
                    model, goals = small_model(seed + 1, reward=False)
                    reward = False
            if reward:
                problem = reward_problem(model, goals, "max", s_infinity(model, goals, "max"))
                kind, scale = "emax", 12.0
            else:
                stripped = strip_rewards(model)
                problem = probability_problem(stripped, goals, "max")
                model, kind, scale = stripped, "pmax", 1.0
            truth = oracle_values(model, make_property(kind, goals))

            u = problem.initial_vector()
            if pairs % 2 == 0:
                # A constant inflation of the exact solution is inductive:
                # the offset passes through every backup unshortened at worst.
                delta = rng.uniform(0.001, 0.3) * scale
                for s in problem.unknowns:
                    u[s] = float(truth[s]) + delta
            else:
                for s in problem.unknowns:
                    u[s] = rng.uniform(0, scale)
            backed = bellman_apply(problem, u)
            if all(backed[s] <= u[s] for s in problem.unknowns):
                inductive_hits += 1
                for s in problem.unknowns:
                    assert truth[s] <= Fraction(u[s]), \
                        f"inductive vector below the exact value at state {s}"
            pairs += 1

            v = [rng.uniform(0, scale) for _ in model.states]
            w = [x + rng.uniform(0, scale) for x in v]
            fv, fw = bellman_apply(problem, v), bellman_apply(problem, w)
            assert all(a <= b for a, b in zip(fv, fw)), "backup not monotone"
            mono_pairs += 1
        elapsed = time.perf_counter() - started
        assert inductive_hits >= 300, f"only {inductive_hits} inductive samples"
        assert mono_pairs == 1000
        assert elapsed < 30.0, f"property suite took {elapsed:.1f}s"


def test_criterion_6_unsoundness_demonstration(tmp_path):
    with criterion(6, "plain VI misses its tolerance where optimistic iteration certifies"):
        chain = generate_slow_chain(10, Fraction(1, 2))
        model = make_goals_absorbing(chain.model, [10])
        prop = make_property("emax", [10], 1e-6)
        exact = oracle_exact(model, prop)
        assert exact == 1534

        vi_res = solve(chain.model, prop, SolveOptions(method="vi"))
        vi_rel_error = abs(Fraction(vi_res.outcome.value) - exact) / exact
        assert vi_rel_error > Fraction(1, 10**6), \
            f"plain VI accidentally accurate: {float(vi_rel_error)}"

        ovi_res = solve(chain.model, prop, SolveOptions(method="ovi"))
        out = ovi_res.outcome
        assert out.certified
        assert Fraction(out.lower_bound) <= exact <= Fraction(out.upper_bound)

        # The bundled suite must produce the time/sweep CSV; both sound
        # methods score correct, plain VI does not.  No speed ordering is
        # asserted anywhere.
        out_csv = tmp_path / "bundled.csv"
        rows, _ = run_suite(ROOT / "bench_suite" / "demo.suite", out_csv, reps=1, timeout=120.0)
        table = read_result_csv(out_csv)
        assert len(table) == len(rows) >= 8
        for row in table.values():
            assert {"instance", "method", "sweeps", "solve_ms", "status"} <= set(row)
            assert row["status"] == ("uncertified" if row["method"] == "vi" else "ok")
        assert table["slow-chain:vi"]["correct"] == "false"
        assert table["slow-chain:ovi"]["correct"] == "true"
        assert table["slow-chain:ii"]["correct"] == "true"


def test_criterion_7_qualitative_precomputations():
    with criterion(7, "graph precomputations and component decomposition vs brute force, < 30 s"):
        started = time.perf_counter()
        for seed in range(200):
            model, goals = small_model(seed, reward=seed % 4 == 0, allow_ec=seed % 3 == 0)
            pmax_vals = oracle_values(model, make_property("pmax", goals))
            pmin_vals = oracle_values(model, make_property("pmin", goals))
            for opt, vals in (("max", pmax_vals), ("min", pmin_vals)):
                assert prob0_set(model, goals, opt) == \
                    frozenset(s for s, x in enumerate(vals) if x == 0)
                assert prob1_set(model, goals, opt) == \
                    frozenset(s for s, x in enumerate(vals) if x == 1)
            assert s_infinity(model, goals, "max") == \
                frozenset(s for s, x in enumerate(pmin_vals) if x != 1)
            assert s_infinity(model, goals, "min") == \
                frozenset(s for s, x in enumerate(pmax_vals) if x != 1)

            got = {(tuple(sorted(m.states)),
                    tuple(m.kept_transitions[s] for s in sorted(m.states)))
                   for m in mec_decomposition(model)}
            assert got == _brute_force_mecs(model), f"seed {seed}"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"precomputation suite took {elapsed:.1f}s"


def test_criterion_8_reward_upper_bound_soundness():
    with criterion(8, "reward upper bounds dominate exact values on 100 models, < 30 s"):
        started = time.perf_counter()
        for seed in range(100):
            model, goals = small_model(seed, reward=True)
            for opt, kind in (("max", "emax"), ("min", "emin")):
                s_inf = s_infinity(model, goals, opt)
                bounds = reward_upper_init(model, goals, opt, s_inf)
                truth = oracle_values(model, make_property(kind, goals))
                for s in model.states:
                    if s in s_inf:
                        assert bounds[s] == math.inf
                    else:
                        assert Fraction(bounds[s]) >= truth[s], \
                            f"seed {seed} {kind}: bound below exact value at state {s}"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"upper-bound suite took {elapsed:.1f}s"
