from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from soundmdp import (ErrorCriterion, IterationCapExceeded, OviGuards, OviTrace,
                      SolverError, bellman_apply, eliminate_end_components,
                      generate_random, generate_slow_chain, gsvi, interval_iteration,
                      make_goals_absorbing, make_property, mec_decomposition,
                      oracle_exact, oracle_values, ovi, plain_vi, prob0_set,
                      probability_problem, reward_problem, reward_upper_init,
                      s_infinity, strip_rewards)
from soundmdp.solvers import _sweep
from conftest import mdp_of


def golden_problem(me0):
    """The example reachability problem with s- held at zero: unknowns {s0, s1, s2}."""
    return probability_problem(me0, goals=[1], opt="max", fixed_zero=[2])


# ---------------------------------------------------------------------------
# Bellman backups.

def test_bellman_first_backup(me0):
    problem = golden_problem(me0)
    v1 = bellman_apply(problem, problem.initial_vector())
    assert v1[4] == pytest.approx(0.4, abs=1e-15)  # transition c beats the cycle hop
    assert v1[0] == pytest.approx(0.1, abs=1e-15)
    assert v1[3] == 0.0


def test_bellman_leaves_input_untouched(me0):
    problem = golden_problem(me0)
    v = problem.initial_vector()
    bellman_apply(problem, v)
    assert v == problem.initial_vector()


def test_bellman_spurious_fixed_point(me0):
    # All-ones over the cycle closure is a fixed point, though not the least one.
    problem = golden_problem(me0)
    v = [1.0, 1.0, 0.0, 1.0, 1.0]
    assert bellman_apply(problem, v) == v


def test_bellman_monotonic_random(me0):
    problem = golden_problem(me0)
    rng = random.Random(1)
    for _ in range(200):
        v = [rng.uniform(0, 2) for _ in range(5)]
        w = [x + rng.uniform(0, 1) for x in v]
        fv, fw = bellman_apply(problem, v), bellman_apply(problem, w)
        assert all(a <= b for a, b in zip(fv, fw))


# ---------------------------------------------------------------------------
# The sweep primitive.

@pytest.mark.parametrize("relative", [True, False])
@pytest.mark.parametrize("opt", ["max", "min"])
@pytest.mark.parametrize("seed", range(8))
def test_sweep_two_vectors_match_one_vector_sweeps(seed, opt, relative):
    # Even seeds give probability problems (zero values exercise the
    # relative rule), odd seeds reward problems (inf seeds at s_inf).
    doc = generate_random(seed, 6 + seed, 3, 3, 4, 1)
    model = make_goals_absorbing(doc.model, doc.declared_goals)
    goals = sorted(doc.declared_goals)
    if seed % 2 == 0:
        model = strip_rewards(model)
        problem = probability_problem(model, goals, opt, fixed_zero=prob0_set(model, goals, opt))
    else:
        problem = reward_problem(model, goals, opt, s_infinity(model, goals, opt))
    maximize = opt == "max"
    rng = random.Random(seed)
    order = problem.default_order()
    rng.shuffle(order)
    v = problem.initial_vector()
    # The upper start may lie below v somewhere, so crossings occur too.
    u = [x + rng.uniform(-1.0, 3.0) if s in problem.unknowns else x for s, x in enumerate(v)]
    for _ in range(4):
        v_alone, u_alone, u_before = list(v), list(u), list(u)
        error, up, down, cross = _sweep(problem.kernel, order, maximize, relative, v, u)
        alone = _sweep(problem.kernel, order, maximize, relative, v_alone)
        _sweep(problem.kernel, order, maximize, relative, u_alone)
        assert v == v_alone and error == alone[0]
        assert u == u_alone
        assert up == all(u[s] >= u_before[s] for s in order)
        assert down == all(u[s] <= u_before[s] for s in order)
        assert cross == next((s for s in order if u[s] < v[s]), -1)


# ---------------------------------------------------------------------------
# Gauss-Seidel value iteration.

def test_gsvi_golden_trace(me0):
    problem = golden_problem(me0)
    v = problem.initial_vector()
    seen: list[tuple[float, float]] = []
    sweeps = gsvi(problem, v, ErrorCriterion("absolute", 0.05),
                  observer=lambda k, err, vec: seen.append((vec[0], err)))
    assert sweeps == 4
    expected = [(0.1, 0.4), (0.18, 0.4), (0.4, 0.22), (0.42, 0.02)]
    for (got_v, got_e), (want_v, want_e) in zip(seen, expected):
        assert got_v == pytest.approx(want_v, abs=1e-12)
        assert got_e == pytest.approx(want_e, abs=1e-12)
    assert v[3] == pytest.approx(0.4, abs=1e-12) and v[4] == pytest.approx(0.4, abs=1e-12)


def test_gsvi_termination_gap(me0):
    # After converging at epsilon 0.05 the answer still misses the truth by 0.08.
    problem = golden_problem(me0)
    v = problem.initial_vector()
    gsvi(problem, v, ErrorCriterion("absolute", 0.05))
    exact = oracle_exact(me0, make_property("pmax", [1]))
    assert exact == Fraction(1, 2)
    assert float(exact) - v[0] == pytest.approx(0.08, abs=1e-12)


def test_gsvi_fixed_point_stops_in_one_sweep(me0):
    problem = golden_problem(me0)
    v = [0.5, 1.0, 0.0, 0.4, 0.4]
    errors = []
    sweeps = gsvi(problem, v, ErrorCriterion("absolute", 1e-9),
                  observer=lambda k, err, vec: errors.append(err))
    assert sweeps == 1 and errors == [0.0]


def test_gsvi_relative_mode_skips_zero_values():
    # One state stuck at zero must not poison the relative error with a 0/0.
    m = mdp_of(0, [[(0.5, 0, 1), (0.5, 0, 0)]], [[(1, 0, 1)]], [[(1, 0, 2)]])
    problem = probability_problem(m, goals=[2], opt="max")
    v = problem.initial_vector()
    sweeps = gsvi(problem, v, ErrorCriterion("relative", 1e-6))
    assert v[0] == 0.0 and sweeps == 1


def test_gsvi_iteration_cap():
    doc = generate_slow_chain(6, Fraction(1, 2))
    problem = reward_problem(make_goals_absorbing(doc.model, [6]), [6], "max", [])
    with pytest.raises(IterationCapExceeded):
        gsvi(problem, problem.initial_vector(), ErrorCriterion("relative", 1e-12), max_sweeps=10)


@pytest.mark.parametrize("seed", range(15))
def test_gsvi_stays_below_the_fixed_point(seed, subtests=None):
    doc = generate_random(seed, 2 + seed % 5, 2, 2, 0, 1)
    model = strip_rewards(make_goals_absorbing(doc.model, doc.declared_goals))
    goals = sorted(doc.declared_goals)
    problem = probability_problem(model, goals, "max",
                                  fixed_zero=prob0_set(model, goals, "max"))
    v = problem.initial_vector()
    gsvi(problem, v, ErrorCriterion("relative", 1e-4))
    for value, truth in zip(v, oracle_values(model, make_property("pmax", goals))):
        assert value <= truth + 1e-9


# ---------------------------------------------------------------------------
# Plain (unsound) value iteration.

def test_plain_vi_is_unsound_on_the_example(me0):
    problem = golden_problem(me0)
    out = plain_vi(problem, ErrorCriterion("absolute", 0.05))
    assert out.value == pytest.approx(0.42, abs=1e-12)
    assert out.upper_bound is None and out.lower_bound == out.value
    assert not out.certified and out.iterations == 4


def test_plain_vi_exact_input_is_exact(me0):
    problem = golden_problem(me0)
    out = plain_vi(problem, ErrorCriterion("absolute", 1e-12))
    # run from the seed to convergence: the limit of the iterates is 0.5
    assert out.value == pytest.approx(0.5, abs=1e-9)


def test_plain_vi_slow_chain_misses_tolerance():
    doc = generate_slow_chain(10, Fraction(1, 2))
    model = make_goals_absorbing(doc.model, [10])
    problem = reward_problem(model, [10], "max", s_infinity(model, [10], "max"))
    out = plain_vi(problem, ErrorCriterion("relative", 1e-6))
    exact = oracle_exact(model, make_property("emax", [10]))
    assert exact == 1534
    assert abs(out.value - 1534.0) / 1534.0 > 1e-6


# ---------------------------------------------------------------------------
# Optimistic value iteration.

def test_ovi_golden_run(me0):
    problem = golden_problem(me0)
    prop = make_property("pmax", [1], 0.05, "absolute")
    trace = OviTrace()
    out = ovi(problem, ErrorCriterion("absolute", 0.05), prop, trace=trace)
    assert out.certified and out.status == "ok"
    assert out.value == pytest.approx(0.49902848, abs=1e-12)
    assert out.lower_bound == pytest.approx(0.47902848, abs=1e-12)
    assert out.upper_bound == pytest.approx(0.51902848, abs=1e-12)
    assert out.iterations == 10
    assert out.verification_phases == 2 and out.cancelled_verifications == 1

    guesses = [ev for ev in trace.events if ev[0] == "guess"]
    first, second = guesses[0][1], guesses[1][1]
    assert [first[0], first[3], first[4]] == pytest.approx([0.47, 0.45, 0.45], abs=1e-12)
    assert [second[0], second[3], second[4]] == pytest.approx([0.5237856, 0.45, 0.45], abs=1e-12)
    # First candidate is rejected after a single sweep with the upper value rising.
    verifies = [ev for ev in trace.events if ev[0] == "verify"]
    assert verifies[0][4][0] == pytest.approx(0.476, abs=1e-12)
    assert verifies[0][5] is True and verifies[0][6] is False  # up, not down
    # The iteration-phase threshold is halved to 0.008 for the retry.
    eps_events = [ev for ev in trace.events if ev[0] == "epsilon-vi"]
    assert eps_events[0][1] == pytest.approx(0.008, abs=1e-12)


def test_ovi_accepts_exact_fixed_point_immediately(me0):
    problem = golden_problem(me0)
    prop = make_property("pmax", [1], 0.05, "absolute")
    # Sneak the exact fixed point in as the seed.
    fixed = probability_problem(me0, goals=[1], opt="max", fixed_zero=[2])
    object.__setattr__(fixed, "seed", (0.5, 1.0, 0.0, 0.4, 0.4))
    out = ovi(fixed, ErrorCriterion("absolute", 0.05), prop)
    assert out.certified
    assert out.verification_phases == 1 and out.cancelled_verifications == 0
    assert out.upper_bound - out.lower_bound <= 2 * 0.05
    assert out.lower_bound <= 0.5 <= out.upper_bound


def test_ovi_initial_state_outside_unknowns(me0):
    problem = probability_problem(me0, goals=[1], opt="max",
                                  fixed_zero=[0, 2, 3, 4])
    out = ovi(problem, ErrorCriterion("relative", 1e-6), make_property("pmax", [1]))
    assert out.certified and out.value == 0.0 and out.iterations == 0


def test_ovi_reports_no_certificate_when_stalled():
    # Reachability value exactly 1 with a relative width: the inflated guess
    # clamps back onto the fixed point and every verification sweep leaves it
    # unchanged, which the flag discipline treats as a rejection.  OVI must
    # give up with an honest no-certificate outcome rather than loop.
    m = mdp_of(0, [[(1, 0, 1)]], [[(1, 0, 1)]])
    problem = probability_problem(m, goals=[1], opt="max")
    out = ovi(problem, ErrorCriterion("relative", 1e-6), make_property("pmax", [1]))
    assert not out.certified and out.status == "no-certificate"
    assert out.value == 1.0 and out.upper_bound is None


def test_ovi_global_sweep_cap():
    doc = generate_slow_chain(8, Fraction(1, 2))
    model = make_goals_absorbing(doc.model, [8])
    problem = reward_problem(model, [8], "max", [])
    out = ovi(problem, ErrorCriterion("relative", 1e-6), make_property("emax", [8]),
              OviGuards(max_total_sweeps=50))
    assert not out.certified and out.status == "no-certificate"
    assert out.iterations <= 50
    # Never a wrong value: the reported lower bound really is one.
    assert Fraction(out.value) <= oracle_exact(model, make_property("emax", [8]))


def test_ovi_lower_bound_optimisation_adopts_rising_upper():
    doc = generate_slow_chain(8, Fraction(1, 2))
    model = make_goals_absorbing(doc.model, [8])
    problem = reward_problem(model, [8], "max", [], unique_fixed_point=True)
    prop = make_property("emax", [8], 1.0, "absolute")
    trace = OviTrace()
    out = ovi(problem, ErrorCriterion("absolute", 50.0), prop, trace=trace)
    assert any(ev[0] == "adopt-upper" for ev in trace.events)
    assert out.certified
    exact = oracle_exact(model, make_property("emax", [8]))
    assert Fraction(out.lower_bound) <= exact <= Fraction(out.upper_bound)


def test_ovi_ten_times_verification_guard():
    # Two arms converging at very different speeds: seeding the fast arm just
    # below its exact value makes the guessed upper value drift down there for
    # hundreds of sweeps while the slow arm's keeps rising, so the phase is
    # neither accepted nor rejected until the ten-times guard cancels it.
    m = mdp_of(
        0,
        [[(0.5, 1, 1), (0.5, 1, 2)]],
        [[(0.9, 1, 1), (0.1, 1, 3)]],    # fast arm, exact value 10
        [[(0.99, 1, 2), (0.01, 1, 3)]],  # slow arm, exact value 100
        [[(1, 0, 3)]],
    )
    problem = reward_problem(m, [3], "max", [])
    object.__setattr__(problem, "seed", (0.0, 10 - 1e-7, 2.0, 0.0))
    trace = OviTrace()
    out = ovi(problem, ErrorCriterion("absolute", 1e6), make_property("emax", [3], 1e-6),
              OviGuards(max_total_sweeps=5000), trace=trace)
    cancel_reasons = [ev[1] for ev in trace.events if ev[0] == "cancel"]
    assert "guard" in cancel_reasons
    # Every verification phase stays within ten times its own preceding
    # iteration phase (plus the sweep on which the guard is checked).
    last_iter = 1
    phase_iter: list[int] = []
    phase_verif: list[int] = []
    for ev in trace.events:
        if ev[0] == "iter":
            last_iter = ev[1]
        elif ev[0] == "guess":
            phase_iter.append(last_iter)
            phase_verif.append(0)
        elif ev[0] == "verify":
            phase_verif[-1] = ev[1]
    assert any(v > 1 for v in phase_verif)
    for iters, verifs in zip(phase_iter, phase_verif):
        assert verifs <= 10 * max(iters, 1) + 1
    if out.certified:
        exact = oracle_exact(m, make_property("emax", [3]))
        assert Fraction(out.lower_bound) <= exact <= Fraction(out.upper_bound)


# ---------------------------------------------------------------------------
# Interval iteration.

def quotient_problem(me0):
    qm = eliminate_end_components(me0, mec_decomposition(me0), protect=[1])
    goals = sorted(qm.map_states([1]))
    zero = prob0_set(qm.quotient, goals, "max")
    return qm, probability_problem(qm.quotient, goals, "max", fixed_zero=zero,
                                   unique_fixed_point=True)


def test_interval_iteration_example(me0):
    qm, problem = quotient_problem(me0)
    prop = make_property("pmax", sorted(qm.map_states([1])), 0.05, "absolute")
    out = interval_iteration(problem, prop, [1.0] * qm.quotient.num_states)
    assert out.certified
    assert abs(out.value - 0.5) <= 0.05
    assert out.lower_bound <= 0.5 <= out.upper_bound


def test_interval_iteration_fixed_point_stops_in_one_sweep(me0):
    qm, problem = quotient_problem(me0)
    exact = [float(x) for x in oracle_values(
        qm.quotient, make_property("pmax", sorted(qm.map_states([1]))))]
    object.__setattr__(problem, "seed", tuple(exact))
    prop = make_property("pmax", sorted(qm.map_states([1])), 0.05, "absolute")
    out = interval_iteration(problem, prop, exact)
    assert out.iterations == 1 and out.certified


def test_interval_iteration_detects_upper_below_lower(me0):
    # An upper start below the lower vector can never recover (sweeps keep
    # the order), so it is rejected before iterating.
    qm, problem = quotient_problem(me0)
    prop = make_property("pmax", sorted(qm.map_states([1])), 0.05, "absolute")
    with pytest.raises(SolverError):
        interval_iteration(problem, prop, [-0.1] * qm.quotient.num_states)


@pytest.mark.parametrize("order, first", [([0, 1, 2], 0), ([2, 1, 0], 2)])
def test_interval_iteration_names_the_first_crossing_state(order, first):
    # On a valid model a sweep keeps u >= v (the backup is monotone), so
    # once the pre-check passes the vectors never cross.  Each state here
    # solves x = 2 - x through a negative weight, so the backup is not
    # monotone: the upper start 0.5 lies above the seeds but below the fixed
    # point 1, and the first sweep drops every upper value below its lower.
    m = mdp_of(0, *([[(2, 0, 3), (-1, 0, s)]] for s in range(3)), [[(1, 0, 3)]])
    problem = probability_problem(m, goals=[3], opt="max")
    with pytest.raises(SolverError, match=f"crossed at state {first}:"):
        interval_iteration(problem, make_property("pmax", [3], 0.05, "absolute"),
                           [0.5] * 4, order)


def test_interval_iteration_cap(me0):
    qm, problem = quotient_problem(me0)
    prop = make_property("pmax", sorted(qm.map_states([1])), 1e-12, "absolute")
    with pytest.raises(IterationCapExceeded):
        interval_iteration(problem, prop, [1.0] * qm.quotient.num_states, max_sweeps=3)


@pytest.mark.parametrize("seed", range(10))
def test_interval_iteration_brackets_at_every_sweep(seed):
    # The exact value stays between both iterates throughout the run (up to
    # binary64 resolution near convergence).
    doc = generate_random(seed, 2 + seed % 5, 2, 2, 0, 1)
    model = strip_rewards(make_goals_absorbing(doc.model, doc.declared_goals))
    goals = sorted(doc.declared_goals)
    problem = probability_problem(
        model, goals, "max",
        fixed_zero=prob0_set(model, goals, "max"),
        fixed_one=__import__("soundmdp").prob1_set(model, goals, "max"),
        unique_fixed_point=True)
    truth = oracle_values(model, make_property("pmax", goals))
    slack = Fraction(1, 10**13)

    def check(sweep, v, u):
        for s in problem.unknowns:
            assert Fraction(v[s]) <= truth[s] + slack
            assert Fraction(u[s]) >= truth[s] - slack

    interval_iteration(problem, make_property("pmax", goals, 1e-6),
                       [1.0] * model.num_states, observer=check)


# ---------------------------------------------------------------------------
# Reward upper bounds.

def test_reward_upper_init_goal_is_zero():
    m = mdp_of(0, [[(1, "2.5", 1)]], [[(1, 0, 1)]])
    bounds = reward_upper_init(m, [1], "max", [])
    assert bounds[1] == 0.0
    assert bounds[0] >= 2.5


def test_reward_upper_init_single_state_dominates_reward():
    m = mdp_of(0, [[(1, 7, 1)]], [[(1, 0, 1)]])
    bounds = reward_upper_init(m, [1], "max", [])
    assert bounds[0] >= 7.0


def test_reward_upper_init_infinite_states():
    m = mdp_of(0, [[(0.5, 1, 1), (0.5, 1, 2)]], [[(1, 0, 1)]], [[(1, 0, 2)]])
    s_inf = s_infinity(m, [1], "max")
    assert s_inf == {0, 2}
    bounds = reward_upper_init(m, [1], "max", s_inf)
    assert bounds[0] == math.inf and bounds[2] == math.inf and bounds[1] == 0.0


def test_reward_upper_init_degenerate_probabilities():
    states = []
    for i in range(170):
        states.append([[("1/100", 1, i + 1), ("99/100", 1, 0)]])
    states.append([[(1, 0, 170)]])
    m = mdp_of(0, *states)
    with pytest.raises(SolverError):
        reward_upper_init(m, [170], "max", [])


@pytest.mark.parametrize("seed", range(15))
def test_reward_upper_init_dominates_oracle(seed):
    doc = generate_random(seed, 2 + seed % 5, 2, 2, Fraction(2), 1, min_reward=Fraction(1, 4))
    model = make_goals_absorbing(doc.model, doc.declared_goals)
    goals = sorted(doc.declared_goals)
    for opt, kind in (("max", "emax"), ("min", "emin")):
        s_inf = s_infinity(model, goals, opt)
        bounds = reward_upper_init(model, goals, opt, s_inf)
        for s, truth in enumerate(oracle_values(model, make_property(kind, goals))):
            if s in s_inf:
                assert bounds[s] == math.inf
            else:
                assert Fraction(bounds[s]) >= truth


# ---------------------------------------------------------------------------
# Random differential smoke test (the acceptance suite runs the full version).

@pytest.mark.parametrize("seed", range(20))
def test_sound_solvers_match_oracle(seed):
    doc = generate_random(seed, 2 + seed % 5, 2, 2, Fraction(2), 1, min_reward=Fraction(1, 4))
    model = make_goals_absorbing(doc.model, doc.declared_goals)
    goals = sorted(doc.declared_goals)
    prop = make_property("pmax", goals, 1e-6)
    zero = prob0_set(model, goals, "max")
    one = __import__("soundmdp").prob1_set(model, goals, "max")
    stripped = strip_rewards(model)
    problem = probability_problem(stripped, goals, "max", fixed_zero=zero, fixed_one=one,
                                  unique_fixed_point=True)
    exact = oracle_exact(stripped, prop)
    out = ovi(problem, ErrorCriterion("relative", 1e-6), prop)
    assert out.certified
    assert abs(out.value - float(exact)) <= 1e-6 * float(exact) + 1e-15
    out2 = interval_iteration(problem, prop, [1.0] * model.num_states)
    assert abs(out2.value - float(exact)) <= 1e-6 * float(exact) + 1e-15
