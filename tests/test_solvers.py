from __future__ import annotations

import importlib.util
import itertools
import math
import operator
import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from soundmdp import (ErrorCriterion, IterationCapExceeded, SolveOptions, SolverError,
                      SolveTimeout, bellman_apply, branch, eliminate_end_components,
                      generate_random, generate_slow_chain, gsvi, interval_iteration,
                      make_goals_absorbing, make_property, mec_decomposition, oracle_exact,
                      oracle_values, ovi, plain_vi, prob0_set, probability_problem,
                      reward_problem, reward_upper_init, s_infinity, solve, strip_rewards)
from soundmdp.graph import goal_distance_order
from soundmdp.oracle import SCHEDULER_GUARD, scheduler_count
from soundmdp import pipeline, solvers
from soundmdp.model import Branch, Mdp, Transition
from soundmdp.solvers import _compile_phase, _sweep
from conftest import (HALF, clear_caches, count_generic_sweeps, mdp_of, record, spy_lookups,
                      spy_runners, spy_sources)

#: the slow chains of the benchmark's `sweep` workload
BENCHMARK_CHAINS = ((10, HALF), (16, Fraction(2, 3)), (20, Fraction(3, 4)), (40, Fraction(9, 10)))


def golden_problem(me0):
    """The example reachability problem with s- held at zero: unknowns {s0, s1, s2}."""
    return probability_problem(me0, goals=[1], opt="max", fixed_zero=[2])


# ---------------------------------------------------------------------------
# Bellman backups.

def test_records_check_their_fields(me0):
    with pytest.raises(SolverError, match="unknown opt 'mean'"):
        solvers.BellmanProblem(me0, "mean", frozenset([0]), (0.0,) * 5, True)
    with pytest.raises(SolverError, match="seed vector length does not match"):
        solvers.BellmanProblem(me0, "max", frozenset([0]), (0.0,) * 4, True)
    with pytest.raises(SolverError, match="unknown error mode 'squared'"):
        ErrorCriterion("squared", 1e-6)
    for bad in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(SolverError, match="epsilon_vi must be a positive finite real"):
            ErrorCriterion("relative", bad)
    for lower, value, upper in ((0.5, 0.4, 0.6), (0.5, 0.7, 0.6), (0.6, 0.55, 0.5)):
        with pytest.raises(SolverError, match="outcome bounds do not bracket the value"):
            solvers.SolveOutcome(value, lower, upper, 1)
    # A one-sided or empty bracket is not checked.
    assert solvers.SolveOutcome(0.7, 0.5, None, 1).upper_bound is None
    assert solvers.SolveOutcome(0.5, None, None, 0).value == 0.5


def test_problem_kernel_is_built_on_first_use(me0):
    problem = golden_problem(me0)
    kernel = problem.kernel
    assert problem.kernel is kernel and len(kernel) == me0.num_states
    with pytest.raises(AttributeError, match="has no attribute 'kernal'"):
        problem.kernal


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

def hexes(vec):
    return [x.hex() for x in vec]


def random_problem(seed, opt):
    """Even seeds give probability problems (zero values exercise the
    relative rule), odd seeds reward problems (inf seeds at s_inf, rewards
    zero and non-zero)."""
    doc = generate_random(seed, 6 + seed, 3, 3, 4, 1)
    model = make_goals_absorbing(doc.model, doc.declared_goals)
    goals = sorted(doc.declared_goals)
    if seed % 2 == 0:
        model = strip_rewards(model)
        return probability_problem(model, goals, opt, fixed_zero=prob0_set(model, goals, opt))
    return reward_problem(model, goals, opt, s_infinity(model, goals, opt))


def generic_phase(problem, order, relative, v, u=None, *, eps, max_sweeps,
                  relative_width=False):
    """`gsvi`'s iteration (one vector) or interval iteration's phase (two) as
    a loop of `_sweep`s that measure every error."""
    maximize = problem.opt == "max"
    s_i = problem.model.initial
    sweeps = 0
    while True:
        if sweeps >= max_sweeps:
            raise IterationCapExceeded(sweeps)
        sweeps += 1
        error, _, _, cross = _sweep(problem.kernel, order, maximize, relative, v, u)
        if u is None:
            if error < eps:
                return sweeps, -1
        elif cross >= 0 or u[s_i] - v[s_i] <= (eps * v[s_i] if relative_width else eps):
            return sweeps, cross


def compiled_phase(problem, order, v, u, *, eps, max_sweeps, deadline=None,
                   relative_width=False):
    """Interval iteration's phase by its compiled runner alone, from sweep 0,
    ending like `generic_phase`: (sweeps, cross), or the cap's
    IterationCapExceeded; past the deadline, SolveTimeout."""
    runner = _compile_phase(problem.kernel, order, problem.opt == "max", problem.model.initial)
    assert runner is not None
    sweeps, end = runner(v, u, 0, max_sweeps, deadline, eps, relative_width)
    if end == solvers._CAPPED:
        raise IterationCapExceeded(sweeps)
    if end == solvers._LATE:
        raise SolveTimeout("late")
    return sweeps, end


def ending(run):
    """What a phase returned, or the type and sweep count of what it raised."""
    try:
        return run()
    except SolverError as exc:
        return type(exc).__name__, getattr(exc, "sweeps", None)


def ii_ending(problem, upper, order=None, **budget):
    """interval_iteration's outcome in hex at an absolute width of 1e-3, or
    the type and sweep count of what it raised.  Interval iteration reads
    only the property's width, not its goals."""
    prop = make_property("pmax" if problem.probability_mode else "emax", [0], 1e-3, "absolute")

    def run():
        o = interval_iteration(problem, prop, upper, order, **budget)
        return o.value.hex(), o.lower_bound.hex(), o.upper_bound.hex(), o.iterations
    return ending(run)


def shuffled_order(problem, seed):
    order = problem.default_order()
    random.Random(seed).shuffle(order)
    return order


@pytest.mark.parametrize("relative", [True, False])
@pytest.mark.parametrize("opt", ["max", "min"])
@pytest.mark.parametrize("seed", range(8))
def test_sweep_two_vectors_match_one_vector_sweeps(seed, opt, relative):
    # `_sweep`'s two-vector form must match two one-vector sweeps, also
    # where the vectors cross (as OVI's can), and one sweep of the compiled
    # runner, wherever interval iteration would call it (no negative or -0.0
    # entry, `u >= v` everywhere), must match `_sweep` bit for bit.
    problem = random_problem(seed, opt)
    maximize = opt == "max"
    rng = random.Random(seed)
    runs = 0
    for order in (shuffled_order(problem, seed), problem.default_order(),
                  problem.default_order()[::-1]):
        v = problem.initial_vector()
        # The upper start may lie below v somewhere, so crossings occur too.
        u = [x + rng.uniform(-1.0, 3.0) if s in problem.unknowns else x for s, x in enumerate(v)]
        for step in range(4):
            if step == 2:  # a start interval iteration accepts, and so the runner
                v = [x + rng.uniform(0.0, 1.0) if s in problem.unknowns else x
                     for s, x in enumerate(v)]
                u = [max(abs(x), y) for x, y in zip(u, v)]
            v_alone, u_alone, u_before = list(v), list(u), list(u)
            v_two, u_two = list(v), list(u)
            error, up, down, cross = _sweep(problem.kernel, order, maximize, relative, v, u)
            alone = _sweep(problem.kernel, order, maximize, relative, v_alone)
            _sweep(problem.kernel, order, maximize, relative, u_alone)
            assert hexes(v) == hexes(v_alone) and error.hex() == alone[0].hex()
            assert hexes(u) == hexes(u_alone)
            assert up == all(u[s] >= u_before[s] for s in order)
            assert down == all(u[s] <= u_before[s] for s in order)
            assert cross == next((s for s in order if u[s] < v[s]), -1)
            if runner_input(v_two, u_two):
                runs += 1
                assert cross == -1
                # A width of at most -inf is never met.
                assert ending(lambda: compiled_phase(problem, order, v_two, u_two, eps=-math.inf,
                                                     max_sweeps=1)) == ("IterationCapExceeded", 1)
                assert hexes(v_two) == hexes(v) and hexes(u_two) == hexes(u)
    assert runs >= 6


@pytest.mark.parametrize("relative", [True, False])
@pytest.mark.parametrize("opt", ["max", "min"])
@pytest.mark.parametrize("seed", range(12))
def test_one_vector_sweep_measures_the_error_up_to_stop(seed, opt, relative):
    # `_sweep` skips the gains past stop: it returns the exact error below
    # stop and at least stop otherwise, and the vector never depends on
    # stop.  Unobserved gsvi, whose sweeps stop measuring at epsilon_vi,
    # ends at the first sweep whose error so measured is below epsilon_vi,
    # which is the sweep a loop of exact `_sweep`s ends at, even for
    # epsilon_vi at an exact error or one ulp beside it.
    problem = random_problem(seed, opt)
    maximize = opt == "max"
    order = shuffled_order(problem, seed)
    v = problem.initial_vector()
    errors = []
    for _ in range(6):
        v_exact = list(v)
        exact = _sweep(problem.kernel, order, maximize, relative, v_exact)[0]
        errors.append(exact)
        stops = (math.inf, exact, math.nextafter(exact, -math.inf),
                 math.nextafter(exact, math.inf), 0.5 * exact, 2.0 * exact)
        for stop in stops:
            v_generic = list(v)
            generic = _sweep(problem.kernel, order, maximize, relative, v_generic, stop=stop)
            assert generic[1:] == (True, True, -1)
            assert hexes(v_generic) == hexes(v_exact)
            if exact < stop:
                assert generic[0].hex() == exact.hex()
            else:
                assert generic[0] >= stop
        v = v_exact
    mode = "relative" if relative else "absolute"
    for eps in {x for e in errors if e > 0.0
                for x in (e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf))}:
        v_exact, v_gsvi = problem.initial_vector(), problem.initial_vector()
        want = ending(lambda: generic_phase(problem, order, relative, v_exact, eps=eps,
                                            max_sweeps=6))
        got = ending(lambda: gsvi(problem, v_gsvi, ErrorCriterion(mode, eps), order,
                                  max_sweeps=6))
        assert got == (want[0] if want[1] == -1 else want)
        assert hexes(v_gsvi) == hexes(v_exact)


def state_value_sweep(kernel, order, maximize, relative, v, stop):
    """Reference: `_sweep`'s one-vector form as a `_choice_value` call per
    choice, the best of them taken by `max` or `min` (the first of equals)."""
    best = max if maximize else min
    error = 0.0
    for s in order:
        v_new = best(solvers._choice_value(branches, v) for branches in kernel[s])
        if error < stop:
            gain = v_new - v[s]
            if relative:
                gain = gain / v_new if v_new > 0 else 0.0
            if gain > error:
                error = gain
        v[s] = v_new
    return error, True, True, -1


@pytest.fixture(scope="module")
def model_past_local_branches():
    doc = generate_random(3, 300, 3, 4, 4, 6)
    goals = sorted(doc.declared_goals)
    return make_goals_absorbing(doc.model, goals), goals


@pytest.mark.parametrize("finite_stop", [True, False])
@pytest.mark.parametrize("relative", [True, False])
@pytest.mark.parametrize("opt", ["max", "min"])
def test_one_vector_sweep_matches_a_state_value_loop(model_past_local_branches, opt,
                                                     relative, finite_stop):
    # The one-vector form inlines the state's backup: over 30 sweeps of a phase
    # too long to compile, from the seeds, its errors equal the reference's
    # and its vectors are hex-equal.  A finite stop lies among the exact
    # errors, so that some sweeps measure every gain and some stop early.
    model, goals = model_past_local_branches
    problem = reward_problem(model, goals, opt, s_infinity(model, goals, opt))
    order = goal_distance_order(model, goals, problem.unknowns)
    kernel, maximize = problem.kernel, opt == "max"
    assert sum(len(b) for s in order for b in kernel[s]) > solvers._LOCAL_BRANCHES
    stop = math.inf
    if finite_stop:
        v = problem.initial_vector()
        errors = sorted(state_value_sweep(kernel, order, maximize, relative, v, stop)[0]
                        for _ in range(30))
        stop = errors[15]
        assert errors[0] < stop
    v, v_ref = problem.initial_vector(), problem.initial_vector()
    for _ in range(30):
        want = state_value_sweep(kernel, order, maximize, relative, v_ref, stop)
        assert _sweep(kernel, order, maximize, relative, v, stop=stop) == want
        assert hexes(v) == hexes(v_ref)


def test_sweep_past_stop_measures_no_more_gains():
    # s0 gains 1 and s1 gains 2 in the first sweep: once the error has
    # reached stop at s0, the sweep stops measuring, and still updates s1.
    # Unobserved gsvi stops measuring the same way: with epsilon_vi 1 its
    # first sweep reads an error of at least 1, so a second sweep runs (and
    # ends the iteration with error 0), while a measured 2 would mean the
    # same.
    model = mdp_of(0, [[(1, 1, 2)]], [[(1, 2, 2)]], [[(1, 0, 2)]])
    problem = reward_problem(model, [2], "max", [])
    order = problem.default_order()
    for stop, error in ((0.5, 1.0), (1.0, 1.0), (math.nextafter(1.0, 2.0), 2.0),
                        (math.inf, 2.0)):
        v = problem.initial_vector()
        assert _sweep(problem.kernel, order, True, False, v, stop=stop) == (error, True, True, -1)
        assert v == [1.0, 2.0, 0.0]
    for eps, sweeps in ((0.5, 2), (1.0, 2), (2.0, 2), (math.nextafter(2.0, 3.0), 1)):
        v = problem.initial_vector()
        assert gsvi(problem, v, ErrorCriterion("absolute", eps), order, max_sweeps=5) == sweeps
        assert v == [1.0, 2.0, 0.0]


def test_interval_iteration_compiles_after_the_threshold(me0, monkeypatch):
    # From an empty runner cache the first COMPILE_AFTER_SWEEPS sweeps run
    # `_sweep`; then one compile, and the runner runs the rest of the phase,
    # to its end or its cap.  A repeat finds the runner cached and runs it
    # from sweep 0: no `_sweep`, no compile.  gsvi and ovi never compile,
    # nor does an observed interval iteration, whose every sweep runs
    # `_sweep` also where the runner is cached.
    generic = []
    real_sweep = solvers._sweep
    monkeypatch.setattr(solvers, "_sweep", lambda *args: generic.append(args) or real_sweep(*args))
    compiled, ran = spy_runners(monkeypatch)
    _, problem = quotient_problem(me0)
    upper = [1.0] * problem.model.num_states
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 10**18)
    want = ii_ending(problem, upper)
    assert want[3] > 4 and not compiled
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 3)
    for cap, sweeps, end in ((2, 2, ("IterationCapExceeded", 2)),
                             (3, 3, ("IterationCapExceeded", 3)),
                             (4, 3, ("IterationCapExceeded", 4)),
                             (10**6, 3, want)):
        clear_caches()
        for spy in (generic, compiled, ran):
            spy.clear()
        assert ii_ending(problem, upper, max_sweeps=cap) == end
        assert len(generic) == sweeps
        assert len(compiled) == len(ran) == (cap >= 3)
    assert ran == [want[3]]
    for cap, end in ((2, ("IterationCapExceeded", 2)), (10**6, want)):
        for spy in (generic, compiled, ran):
            spy.clear()
        assert ii_ending(problem, upper, max_sweeps=cap) == end
        assert not generic and not compiled and ran == [min(cap, want[3])]
    generic.clear()
    ran.clear()
    events: list = []
    prop = make_property("pmax", [0], 1e-3, "absolute")
    interval_iteration(problem, prop, upper, observer=record(events))
    assert len(generic) == len(events) == want[3] and not compiled and not ran
    criterion = ErrorCriterion("absolute", 1e-12)
    assert gsvi(problem, problem.initial_vector(), criterion) > 3
    ovi(problem, criterion, make_property("pmax", [0], 1e-9, "absolute"))
    assert not compiled


@pytest.mark.parametrize("mode", ["relative", "absolute"])
def test_verification_sweeps_never_compile(mode, monkeypatch):
    # OVI compiles nothing: even at threshold 1 no generated source exists,
    # every sweep runs `_sweep`, and the outcome is that of the default
    # threshold.  A reward problem whose ovi certifies after 19 (relative)
    # or 3 (absolute) verification sweeps.
    prop = make_property("emax", generate_random(7, 13, 3, 3, 4, 1).declared_goals)

    def run():
        o = ovi(random_problem(7, "max"), ErrorCriterion(mode), prop)
        return (o.value.hex(), o.lower_bound.hex(), o.upper_bound.hex(), o.iterations,
                o.verification_phases, o.cancelled_verifications, o.status)

    expected = run()
    generic_two: list = []
    real_sweep = solvers._sweep
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 1)
    compiled, _ = spy_runners(monkeypatch)
    sources = spy_sources(monkeypatch)
    monkeypatch.setattr(solvers, "_sweep", lambda *args: generic_two.append(args[5] is not None)
                        or real_sweep(*args))
    assert run() == expected and expected[-1] == "ok"
    # Every two-vector sweep ran generic, and there were several of them.
    assert sum(generic_two) > 1
    assert compiled == [] and sources == [] and len(solvers._RUNNERS) == 0


def hand_built(*states):
    """A model of raw (p, r, t) branches, each state a list of choices: no
    field is converted or checked, as `pipeline.solve` and the problems
    take a hand-built model."""
    return Mdp(len(states), 0, tuple(
        tuple(Transition(tuple(Branch(p, r, t, None, None) for p, r, t in choice))
              for choice in choices)
        for choices in states))


#: branches outside the contract, by the field and the breach; each is put
#: into state 0's second choice
OUTSIDE = {"weight-0": (0.0, 0.0, 1), "weight-negative": (-0.5, 0.0, 1),
           "weight-above-1": (1.5, 0.0, 1), "weight-nan": (math.nan, 0.0, 1),
           "weight-inf": (math.inf, 0.0, 1), "weight--inf": (-math.inf, 0.0, 1),
           "weight-int": (1, 0.0, 1), "weight-fraction": (Fraction(1, 2), 0.0, 1),
           "reward-negative": (0.5, -1.0, 1), "reward-nan": (0.5, math.nan, 1),
           "reward-inf": (0.5, math.inf, 1), "reward--inf": (0.5, -math.inf, 1),
           "target-2": (0.5, 0.0, 2), "target--1": (0.5, 0.0, -1)}


@pytest.mark.parametrize("odd", OUTSIDE.values(), ids=OUTSIDE.keys())
def test_kernel_refuses_branches_outside_the_contract(odd, monkeypatch):
    # A problem's kernel, built on first use, refuses a branch that breaks
    # the contract, naming its state and transition; a solver that needs
    # the kernel raises before its first sweep.  A negative index would
    # read a list from its end, and a runner's local variables would not
    # alias it; a non-float constant or a non-finite one could not be a
    # literal of a runner's source.
    model = hand_built([[(1.0, 0.0, 1)], [(0.5, 1.0, 1), odd]], [[(1.0, 0.0, 1)]])
    problem = reward_problem(model, [1], "max", [])
    message = re.escape(f"state 0, transition 1: branch {odd!r} needs a float weight in (0,1]")
    with pytest.raises(SolverError, match=message):
        problem.kernel
    generic = count_generic_sweeps(monkeypatch)
    for run in (lambda p: gsvi(p, p.initial_vector(), ErrorCriterion()),
                lambda p: ovi(p, ErrorCriterion(), make_property("emax", [1])),
                lambda p: interval_iteration(p, make_property("emax", [1]), [10.0, 0.0])):
        with pytest.raises(SolverError, match=message):
            run(reward_problem(model, [1], "max", []))
    assert not generic


def test_kernel_refuses_a_state_or_choice_without_branches():
    # Every state needs a choice and every choice a branch, and the
    # transition table covers every state.
    for model, message in (
            (hand_built([[(1.0, 0.0, 1)]], []), "state 1 has no transitions"),
            (hand_built([[(1.0, 0.0, 1)], []], [[(1.0, 0.0, 1)]]),
             "state 0, transition 1: transition has no branches"),
            (Mdp(3, 0, hand_built([[(1.0, 0.0, 1)]], [[(1.0, 0.0, 1)]]).transitions),
             "transition table covers 2 of 3 states")):
        problem = solvers.BellmanProblem(model, "max", frozenset([0]),
                                         (0.0,) * model.num_states, False)
        with pytest.raises(SolverError, match=f"^{message}$"):
            problem.kernel


@pytest.mark.parametrize("method", ["vi", "ovi", "ii"])
def test_solve_refuses_a_model_outside_the_contract(method):
    # A hand-built pmax model whose state 0 keeps 7/10 of its value and
    # sends 1/2 to the goal and -1/5 to a trap: its operator is not
    # monotone, and interval iteration certified [1.66666224..., 1.66666489...]
    # for a probability.  Every sweeping method refuses it now.
    model = mdp_of(0, [[(HALF, 0, 1), (Fraction(7, 10), 0, 0), (Fraction(-1, 5), 0, 2)]],
                   [[(1, 0, 1)]], [[(1, 0, 2)]])
    with pytest.raises(SolverError, match=r"^state 0, transition 0: branch \(-0\.2, 0\.0, 2\)"):
        solve(model, make_property("pmax", [1]), SolveOptions(method=method))


@pytest.mark.parametrize("bad", [-1.0, -0.0, -1e-320, -math.inf, math.nan])
def test_problems_refuse_a_negative_zero_negative_or_nan_seed(me0, bad):
    # A sweep reads only positive-signed values: +0.0, above it, or +inf.
    seed = [0.0, 1.0, 0.0, math.inf, 0.5]
    assert solvers.BellmanProblem(me0, "max", frozenset([0]), tuple(seed), False).seed[3] \
        == math.inf
    seed[2] = bad
    with pytest.raises(SolverError, match=f"^seed value {re.escape(repr(bad))} at state 2 is "
                                          "negative, -0.0 or NaN$"):
        solvers.BellmanProblem(me0, "max", frozenset([0]), tuple(seed), False)


def test_orders_that_repeat_a_state_compile(monkeypatch):
    # An order that names a state twice, which no solver passes, compiles:
    # its runner sweeps that state twice, as `_sweep` does, with hex-equal
    # vectors after the same sweeps.  An empty order keeps `_sweep`.
    problem, prop, upper, _ = chain_phase(8, HALF)
    repeated = [3, 2, 1, 0, 4, 5, 6, 7, 2]
    v, u = problem.initial_vector(), list(upper)
    want = generic_phase(problem, repeated, False, v, u, eps=2e-3, max_sweeps=10**4)
    v_run, u_run = problem.initial_vector(), list(upper)
    assert compiled_phase(problem, repeated, v_run, u_run, eps=2e-3, max_sweeps=10**4) == want
    assert want[0] > 300 and hexes(v_run) == hexes(v) and hexes(u_run) == hexes(u)
    assert _compile_phase(problem.kernel, [], True, 0) is None
    for order, compiles in ((repeated, True), ([], False)):
        want = ii_ending(problem, upper, order, max_sweeps=300, observer=lambda *event: None)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 0)
            compiled, _ = spy_runners(patch)
            assert ii_ending(problem, upper, order, max_sweeps=300) == want
        assert len(compiled) == 1 and (compiled[0] is not None) == compiles


def test_compiled_sweep_splits_long_sums_and_many_choices():
    # One choice of 100 branches becomes statements of 32 terms; the next
    # state has 40 choices, many with equal sums.
    for width in (3, 100):
        wide = [[(Fraction(1, width), k % 3, k % 7) for k in range(width)]]
        many = [[(1, 0, 1 + k % 5)] for k in range(40)]
        model = mdp_of(0, wide, many, [[(1, 1, 2)]], [[(1, 0, 3)]], [[(1, 2, 4)]],
                       [[(1, 0, 5)]], [[(1, 0, 6)]])
        for opt in ("max", "min"):
            problem = reward_problem(model, [6], opt, [])
            order = problem.default_order()
            v, v_ref = problem.initial_vector(), problem.initial_vector()
            u, u_ref = [10.0] * 7, [10.0] * 7
            want = ending(lambda: generic_phase(problem, order, True, v_ref, u_ref,
                                                eps=-math.inf, max_sweeps=3))
            assert ending(lambda: compiled_phase(problem, order, v, u, eps=-math.inf,
                                                 max_sweeps=3)) == want
            assert hexes(v) == hexes(v_ref) and hexes(u) == hexes(u_ref)


def test_phases_over_local_branches_stay_generic(monkeypatch):
    # A phase of more than _LOCAL_BRANCHES branches is not compiled: here a
    # choice of 3 000 branches.  Interval iteration then runs `_sweep` for
    # every sweep, with the outcome of an unreachable threshold.  A phase of
    # exactly _LOCAL_BRANCHES branches compiles.
    wide = [[(Fraction(1, 3000), k % 3, k % 7) for k in range(3000)]]
    model = mdp_of(0, wide, *([[(HALF, 1, s + 1), (HALF, 0, 0)]] for s in range(1, 6)),
                   [[(1, 0, 6)]])
    upper = reward_upper_init(model, [6], "max", [])
    for opt in ("max", "min"):
        problem = reward_problem(model, [6], opt, [])
        assert _compile_phase(problem.kernel, problem.default_order(), opt == "max", 0) is None
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 10**18)
            want = ii_ending(problem, upper)
        assert want[3] > 2
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 2)
            compiled, _ = spy_runners(patch)
            assert ii_ending(problem, upper) == want
            assert compiled == [None]
    small = random_problem(1, "max")
    order = small.default_order()
    branches = sum(len(b) for s in order for b in small.kernel[s])
    for local_branches, compiles in ((branches, True), (branches - 1, False)):
        monkeypatch.setattr(solvers, "_LOCAL_BRANCHES", local_branches)
        assert (_compile_phase(small.kernel, order, True, small.model.initial) is not None) \
            == compiles


# ---------------------------------------------------------------------------
# The compiled phase against a loop of `_sweep`.

#: the runner's body, values in local variables, up to this many branches
#: (a longer phase stays with `_sweep`)
LOCALS = pytest.mark.parametrize("local_branches", [solvers._LOCAL_BRANCHES], ids=["locals"])


@LOCALS
@pytest.mark.parametrize("relative_width", [True, False])
@pytest.mark.parametrize("opt", ["max", "min"])
@pytest.mark.parametrize("seed", range(6))
def test_compiled_interval_phase_matches_generic_sweeps(seed, opt, relative_width,
                                                        local_branches, monkeypatch):
    # From the seeds and an upper start 3 above them, and from a lower
    # vector lifted off the seeds and an upper one at most 3 above it, the
    # phase ends at the width test or the cap; both vectors and the sweep
    # count, or the cap's count, must agree.
    monkeypatch.setattr(solvers, "_LOCAL_BRANCHES", local_branches)
    problem = random_problem(seed, opt)
    order = shuffled_order(problem, seed)
    rng = random.Random(seed)
    start = problem.initial_vector()
    above = [x + 3.0 if s in problem.unknowns else x for s, x in enumerate(start)]
    lifted = [x + rng.uniform(0.0, 2.0) if s in problem.unknowns else x
              for s, x in enumerate(start)]
    mixed = [x + rng.uniform(0.0, 3.0) if s in problem.unknowns else x
             for s, x in enumerate(lifted)]
    for lower, upper in ((start, above), (lifted, mixed)):
        for eps in (1e-1, 1e-4, 1e-8):
            for cap in (10**5, 3, 1):
                v_generic, u_generic = list(lower), list(upper)
                v_compiled, u_compiled = list(lower), list(upper)
                want = ending(lambda: generic_phase(problem, order, False, v_generic, u_generic,
                                                    eps=eps, max_sweeps=cap,
                                                    relative_width=relative_width))
                assert ending(lambda: compiled_phase(problem, order, v_compiled, u_compiled,
                                                     eps=eps, max_sweeps=cap,
                                                     relative_width=relative_width)) == want
                assert hexes(v_compiled) == hexes(v_generic)
                assert hexes(u_compiled) == hexes(u_generic)


@LOCALS
@pytest.mark.parametrize("through_ii", [False, True])
def test_compiled_phase_raises_at_the_deadline(through_ii, local_branches, monkeypatch):
    # A clock that ticks once per deadline test: the test before sweep 7
    # reads 6, past the deadline 5.5, so six sweeps run and stay in the
    # vectors.  A width of at most -inf is never met.  Through interval
    # iteration, which reads the clock only in the deadline test, six sweeps
    # run too and the runner's end becomes SolveTimeout.
    monkeypatch.setattr(solvers, "_LOCAL_BRANCHES", local_branches)
    problem = random_problem(3, "max")
    ticks = itertools.count()
    monkeypatch.setattr(solvers.time, "perf_counter", lambda: next(ticks))
    if through_ii:
        monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 0)
        _, ran = spy_runners(monkeypatch)
        with pytest.raises(SolveTimeout, match="past its deadline"):
            interval_iteration(problem, make_property("emax", [0], 1e-300, "absolute"),
                               [1e9] * problem.model.num_states, deadline=5.5)
        assert ran == [6]
        return
    order = problem.default_order()
    v, v_ref = problem.initial_vector(), problem.initial_vector()
    u = [x + 3.0 if s in problem.unknowns else x for s, x in enumerate(v)]
    u_ref = list(u)
    with pytest.raises(SolveTimeout):
        compiled_phase(problem, order, v, u, eps=-math.inf, max_sweeps=100, deadline=5.5)
    assert next(ticks) == 7
    with pytest.raises(IterationCapExceeded):
        generic_phase(problem, order, True, v_ref, u_ref, eps=-math.inf, max_sweeps=6)
    assert hexes(v) == hexes(v_ref) and hexes(u) == hexes(u_ref)


@LOCALS
def test_compiled_width_test_reads_an_initial_state_outside_the_order(local_branches,
                                                                      monkeypatch):
    # s0 is the initial state, but neither in the order nor a target of its
    # states: its values stay at their start, 5 apart.
    monkeypatch.setattr(solvers, "_LOCAL_BRANCHES", local_branches)
    model = mdp_of(0, [[(1, 1, 1)]], [[(1, 1, 2)]], [[(1, 0, 2)]])
    order = [1]
    for eps, want in ((5.0, (1, -1)), (4.0, ("IterationCapExceeded", 4))):
        problem = reward_problem(model, [2], "max", [])
        v, u = problem.initial_vector(), [5.0, 5.0, 0.0]
        assert ending(lambda: compiled_phase(problem, order, v, u, eps=eps, max_sweeps=4)) \
            == want
        assert (v, u) == ([0.0, 1.0, 0.0], [5.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# The settled upper vector: a runner checks every
# _SETTLE_CHECK_SWEEPS + 1 sweeps, from its first, whether a whole sweep left
# every `u` value as it was, and from then on skips the u-sweep.  From sweep
# 0 it snapshots `u` before sweeps 1, 18, 35, ... and compares after each.

def pipeline_phase(model, prop, order="goal-distance"):
    """The interval-iteration phase `solve` runs for `prop` on `model`:
    (problem, prop, upper start, order), the order None where the initial
    state is decided."""
    calls = []
    real = pipeline.interval_iteration
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "interval_iteration",
                      lambda *args, **budget: calls.append(args) or real(*args, **budget))
        solve(model, prop, SolveOptions(method="ii", order=order))
    (args,) = calls
    return args


def chain_phase(n, p, order="goal-distance"):
    """The interval-iteration phase the pipeline runs for emax on the slow
    chain s0..sn: (problem, prop, upper start, order)."""
    return pipeline_phase(generate_slow_chain(n, p).model, make_property("emax", [n], 1e-6),
                          order)


def last_upper_change(problem, prop, upper, order):
    """The last sweep of interval iteration's phase that changed a `u` value
    (0 if none did), and the phase's outcome, by generic sweeps."""
    last, before = [0], [None]

    def observe(event, sweep, v, u):
        if u != before[0]:
            before[0], last[0] = list(u), sweep
    before[0] = [upper[s] if s in problem.unknowns else problem.seed[s]
                 for s in problem.model.states]
    outcome = interval_iteration(problem, prop, upper, order, observer=observe)
    return last[0], outcome


def u_sweeps_skipped(run):
    """Runs `run()` with the compiled runners' lines traced.  Returns its
    result, the sweep count at the first sweep that skipped the u-sweep (or
    None), and the number of sweeps that ran the u-sweep."""
    skipped, ran = [], []

    def local(frame, event, arg):
        if event == "line":
            text = sources[-1].split("\n")[frame.f_lineno - 1].strip()
            if text == "if moving:":
                if frame.f_locals["moving"]:
                    ran.append(frame.f_locals["k"])
                else:
                    skipped.append(frame.f_locals["k"])
                    frame.f_trace_lines = False  # the rest of the run is untraced
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename == "<compiled phase>" else None

    clear_caches()  # so that `run` compiles its runner, and its source is seen
    with pytest.MonkeyPatch.context() as patch:
        sources = spy_sources(patch)
        sys.settrace(trace)
        try:
            result = run()
        finally:
            sys.settrace(None)
    return result, (skipped[0] if skipped else None), len(ran)


def fixed_upper(problem, order, u):
    """`u` swept alone until a whole sweep leaves it as it was."""
    maximize = problem.opt == "max"
    while True:
        before = list(u)
        _sweep(problem.kernel, order, maximize, False, list(u), u)
        if before == u:
            return u


def endings_agree(problem, order, v, u, caps, eps=2e-6, deadline=None, relative_width=True):
    """Runs the compiled runner and `_sweep` from (v, u) to each cap; both
    vectors in hex and the sweep count or cap must agree.
    Returns the endings."""
    endings = []
    for cap in caps:
        v_ref, u_ref, v_run, u_run = list(v), list(u), list(v), list(u)
        want = ending(lambda: generic_phase(problem, order, False, v_ref, u_ref, eps=eps,
                                            max_sweeps=cap, relative_width=relative_width))
        got = ending(lambda: compiled_phase(problem, order, v_run, u_run, eps=eps,
                                            max_sweeps=cap, deadline=deadline,
                                            relative_width=relative_width))
        assert got == want, cap
        assert hexes(v_run) == hexes(v_ref) and hexes(u_run) == hexes(u_ref), cap
        endings.append(want)
    return endings


#: caps on the snapshot and the compare sweeps of the first three checks, and
#: on the sweeps next to them
CHECK_CAPS = (1, 2, 3, 16, 17, 18, 19, 33, 34, 35, 36, 37, 40)


def test_runner_on_an_upper_vector_settled_from_sweep_0():
    # The first check compares after sweep 1 and the runner skips the
    # u-sweep from sweep 2; every cap, and the width test, ends as `_sweep`'s.
    problem, prop, upper, order = chain_phase(10, HALF)
    v = problem.initial_vector()
    u = fixed_upper(problem, order, [upper[s] if s in problem.unknowns else problem.seed[s]
                                     for s in problem.model.states])
    endings = endings_agree(problem, order, v, u, (*CHECK_CAPS, 10**5))
    assert endings[-1][1] == -1 and endings[-1][0] > 100
    runner = lambda: compiled_phase(problem, order, list(v), list(u), eps=2e-6, max_sweeps=10**5,
                                    relative_width=True)
    result, first, ran = u_sweeps_skipped(runner)
    assert result == endings[-1] and (first, ran) == (2, 1)


def test_runner_on_an_upper_vector_that_settles_after_sweep_31():
    # chain-16's `u` last changes in sweep 31: the checks after sweeps 1 and
    # 18 fail, the one after sweep 35 passes.
    problem, prop, upper, order = chain_phase(16, Fraction(2, 3))
    assert last_upper_change(problem, prop, upper, order)[0] == 31
    v = problem.initial_vector()
    u = [upper[s] if s in problem.unknowns else problem.seed[s] for s in problem.model.states]
    endings = endings_agree(problem, order, v, u, (*CHECK_CAPS, 10**5))
    assert endings[-1] == (5740, -1)
    runner = lambda: compiled_phase(problem, order, list(v), list(u), eps=2e-6, max_sweeps=10**5,
                                    relative_width=True)
    assert u_sweeps_skipped(runner) == ((5740, -1), 36, 35)


def test_runner_on_an_upper_vector_that_never_settles():
    # Under the forward order chain-10's `u` moves in every sweep of the
    # phase: every check fails and every sweep runs the u-sweep (traced
    # over the first 500).
    problem, prop, upper, order = chain_phase(10, HALF, "forward")
    assert last_upper_change(problem, prop, upper, order)[0] == 13321
    v = problem.initial_vector()
    u = [upper[s] if s in problem.unknowns else problem.seed[s] for s in problem.model.states]
    endings = endings_agree(problem, order, v, u, (*CHECK_CAPS, 10**5))
    assert endings[-1] == (13321, -1)
    runner = lambda: ending(lambda: compiled_phase(problem, order, list(v), list(u), eps=2e-6,
                                                   max_sweeps=500, relative_width=True))
    assert u_sweeps_skipped(runner) == (("IterationCapExceeded", 500), None, 500)


@pytest.mark.parametrize("tick", [1, 2, 17, 18, 30, 40])
def test_runner_on_a_settled_upper_vector_ends_at_the_deadline(tick, monkeypatch):
    # A clock that ticks once per deadline test: `tick` sweeps run, before,
    # on and after the checks of chain-16 (compares after sweeps 1, 18 and
    # 35), and stay in the vectors.
    problem, prop, upper, order = chain_phase(16, Fraction(2, 3))
    v = problem.initial_vector()
    u = [upper[s] if s in problem.unknowns else problem.seed[s] for s in problem.model.states]
    v_ref, u_ref = list(v), list(u)
    ticks = itertools.count()
    monkeypatch.setattr(solvers.time, "perf_counter", lambda: next(ticks))
    with pytest.raises(SolveTimeout):
        compiled_phase(problem, order, v, u, eps=2e-6, max_sweeps=100, deadline=tick - 0.5,
                       relative_width=True)
    assert next(ticks) == tick + 1
    with pytest.raises(IterationCapExceeded):
        generic_phase(problem, order, False, v_ref, u_ref, eps=2e-6, max_sweeps=tick,
                      relative_width=True)
    assert hexes(v) == hexes(v_ref) and hexes(u) == hexes(u_ref)


@pytest.mark.parametrize("n, p", BENCHMARK_CHAINS)
def test_benchmark_chains_skip_the_u_sweep_within_17_sweeps_of_its_last_change(n, p, monkeypatch):
    # No output shows whether the runner ever skips its u-sweep, so this
    # traces its lines: interval iteration on each benchmark chain, with its
    # runner from sweep 0, must stop sweeping `u` within
    # _SETTLE_CHECK_SWEEPS + 1 sweeps of `u`'s last change, and certify the
    # same interval after the same sweeps as its generic run.
    problem, prop, upper, order = chain_phase(n, p)
    settled, generic = last_upper_change(problem, prop, upper, order)
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 0)
    outcome, first, ran = u_sweeps_skipped(
        lambda: interval_iteration(problem, prop, upper, order))
    assert (outcome.lower_bound.hex(), outcome.upper_bound.hex(), outcome.iterations) \
        == (generic.lower_bound.hex(), generic.upper_bound.hex(), generic.iterations)
    assert first == ran + 1 and settled < ran <= settled + solvers._SETTLE_CHECK_SWEEPS + 1


# ---------------------------------------------------------------------------
# The runner's lean sums (no `0.0 +` seed, no unit weights, no zero rewards,
# no temporaries) against a loop of `_sweep`, on hand-built kernels within
# the contract, from the inputs interval iteration hands a runner.

#: weights, rewards and input values of the hand-built kernels: unit
#: probabilities, +0.0 and -0.0 rewards; inputs with -0.0, negatives and a
#: negative subnormal, which interval iteration refuses
WEIGHTS = (1.0, 0.5, 0.25, 0.75)
REWARDS = (0.0, 0.0, 1.0, 0.5, -0.0)
VALUES = (0.0, 0.3, 1.0, -0.0, -1e-320, -0.5)


def signed_kernel_model(rng, n, signed):
    """n states, the last an absorbing goal; every other state has one to
    three choices of one to four branches, self-loops among them.  Every
    weight lies in (0, 1]; only where `signed` is a reward -0.0."""
    def choice():
        branches = []
        for t in rng.sample(range(n), rng.randint(1, min(4, n))):
            p = rng.choice(WEIGHTS)
            r = rng.choice(REWARDS if signed else REWARDS[:4])
            branches.append(Branch(p, r, t, Fraction(p), Fraction(r)))
        return Transition(tuple(branches))

    states = [tuple(choice() for _ in range(rng.randint(1, 3))) for _ in range(n - 1)]
    states.append((Transition((Branch(1.0, 0.0, n - 1, Fraction(1), Fraction(0)),)),))
    return Mdp(n, 0, tuple(states))


def positive_signs(*vectors):
    return all(math.copysign(1.0, x) > 0.0 for vec in vectors for x in vec)


def runner_input(v, u):
    """Whether interval iteration can hand `v` and `u` to a runner: no
    value negative, -0.0 or NaN, and `u >= v` at every state."""
    return positive_signs(v, u) and all(map(operator.ge, u, v))


@LOCALS
@pytest.mark.parametrize("signed", [False, True], ids=["positive", "signed"])
@pytest.mark.parametrize("seed", range(10))
def test_runners_match_sweep_on_signed_zeros_and_negatives(seed, signed, local_branches,
                                                            monkeypatch):
    # Random kernels, with -0.0 rewards where `signed`; lower vectors drawn
    # from positive values, -0.0, negatives and a negative subnormal, upper
    # ones above them or drawn alike.  Interval iteration refuses every
    # start that is not a runner's input: a lower one as the seeds, an
    # upper one by its own check.  From the others the runner gives
    # hex-equal vectors and the same sweep count or cap as `_sweep`.
    monkeypatch.setattr(solvers, "_LOCAL_BRANCHES", local_branches)
    rng = random.Random(seed)
    runs = refused = 0
    for _ in range(6):
        n = rng.randint(2, 8)
        model, opt = signed_kernel_model(rng, n, signed), rng.choice(["max", "min"])
        problem = reward_problem(model, [n - 1], opt, [])
        order = problem.default_order()
        rng.shuffle(order)
        for trial in range(18):
            values = VALUES[:3] if trial % 3 == 0 else VALUES
            v = [rng.choice(values) for _ in range(n)]
            u = [x + rng.choice((0.0, 2.0)) if trial % 2 == 0
                 else rng.choice(values) + rng.choice((0.0, 2.0)) for x in v]
            u[n - 1] = v[n - 1]  # interval iteration's upper start at the fixed goal
            if not runner_input(v, u):
                refused += 1
                with pytest.raises(SolverError, match="^seed value|^initial upper value"):
                    started = solvers.BellmanProblem(model, opt, problem.unknowns, tuple(v),
                                                     False)
                    interval_iteration(started, make_property("emax", [n - 1]), u, order,
                                       max_sweeps=1)
                continue
            runs += 1
            v_ref, u_ref = list(v), list(u)
            eps, cap = rng.choice((1e-3, 0.5, -math.inf)), rng.randint(1, 6)
            want = ending(lambda: generic_phase(problem, order, False, v_ref, u_ref,
                                                eps=eps, max_sweeps=cap))
            assert ending(lambda: compiled_phase(problem, order, v, u, eps=eps,
                                                 max_sweeps=cap)) == want
            assert hexes(v) == hexes(v_ref) and hexes(u) == hexes(u_ref)
    assert runs >= 12 and refused >= 12


def shared_term_phase(rng, signed):
    """A phase built to share terms: n states, the last two absorbing and
    fixed, whose branches draw from a few (p, r, t) triples into s1 (last
    in the order), into s2 (third in the order, so that it is written
    between uses of a term; every state's first choice reads it) and into
    the fixed states, plus self-loops; one to three choices per state.
    Every weight lies in (0, 1]; only where `signed` is a reward -0.0.
    Returns the problem and the order."""
    n = rng.randint(6, 9)
    rewards = REWARDS if signed else REWARDS[:4]
    pool = [(rng.choice(WEIGHTS), rng.choice(rewards), t) for t in (1, 1, 2, 2, n - 2, n - 1)]

    def choice(s, first):
        picks = [pool[2]] * first + rng.choices(pool, k=rng.randint(1, 3))
        if rng.random() < 0.3:
            picks.append((rng.choice(WEIGHTS), rng.choice(rewards), s))
        return Transition(tuple(Branch(p, r, t, Fraction(p), Fraction(r)) for p, r, t in picks))

    states = [tuple(choice(s, i == 0) for i in range(rng.randint(1, 3))) for s in range(n - 2)]
    states += [(Transition((Branch(1.0, 0.0, g, Fraction(1), Fraction(0)),)),)
               for g in (n - 2, n - 1)]
    problem = reward_problem(Mdp(n, 0, tuple(states)), [n - 2, n - 1], rng.choice(["max", "min"]),
                             [])
    rest = [s for s in range(n - 2) if s not in (1, 2)]
    rng.shuffle(rest)
    return problem, [*rest[:2], 2, *rest[2:], 1]


@LOCALS
@pytest.mark.parametrize("signed", [False, True], ids=["positive", "signed"])
@pytest.mark.parametrize("seed", range(8))
def test_shared_terms_match_sweep(seed, signed, local_branches, monkeypatch):
    # Runners that hoist the terms into fixed states and compute each term
    # shared by several states once per sweep give hex-equal vectors and
    # the same sweep count or cap as `_sweep`, from upper vectors equal to
    # the lower ones, 2 above them, or above them by a state's own margin.
    monkeypatch.setattr(solvers, "_LOCAL_BRANCHES", local_branches)
    sources = spy_sources(monkeypatch)
    rng = random.Random(seed)
    endings = set()
    for _ in range(6):
        problem, order = shared_term_phase(rng, signed)
        for trial in range(18):
            v = [rng.choice(VALUES[:3]) for _ in problem.model.states]
            u = [x + (0.0 if trial % 3 == 0 else 2.0 if trial % 3 == 1
                      else rng.choice((0.0, 0.5, 2.0))) for x in v]
            v_ref, u_ref = list(v), list(u)
            eps, cap = rng.choice((1e-3, 0.5, 4.0, -math.inf)), rng.randint(1, 6)
            want = ending(lambda: generic_phase(problem, order, False, v_ref, u_ref,
                                                eps=eps, max_sweeps=cap))
            assert ending(lambda: compiled_phase(problem, order, v, u, eps=eps,
                                                 max_sweeps=cap)) == want
            assert hexes(v) == hexes(v_ref) and hexes(u) == hexes(u_ref)
            endings.add("cap" if want[0] == "IterationCapExceeded" else want[1])
    assert endings == {"cap", -1}
    # Every kind of term the rewrites make was written: hoisted before the
    # loop, shared in it, and shared again after its target's write.
    assert any(re.search(r"^    w\d+ = ", source.split("while True:")[0], re.M)
               for source in sources)
    walrus = re.compile(r"\(w\d+:=([^()]*(?:\([^()]*\))?)\)")
    assert any(len(terms) > len(set(terms)) for terms in map(walrus.findall, sources))


def runner_source(problem, monkeypatch):
    """The source `_compile_phase` generates for `problem`'s default order."""
    with monkeypatch.context() as patch:
        sources = spy_sources(patch)
        assert _compile_phase(problem.kernel, problem.default_order(), True,
                              problem.model.initial)
    return "\n".join(sources)


@pytest.mark.parametrize("weight", [Fraction(1, 2), Fraction(1, 4)])
def test_runner_sources_drop_seed_unit_weights_and_interval_temporaries(weight, monkeypatch):
    # s0: one choice, no self-loop.  s1: two choices, a self-loop in one.
    # s2: two choices, no self-loop, the first with a branch of weight
    # `weight` into the goal s3.  No sum starts at `0.0 +`, no unit weight
    # is multiplied, and no state is tested for a crossing.
    model = mdp_of(0, [[(1, 1, 1)]],
                   [[(HALF, 0, 1), (HALF, 2, 2)], [(1, 0, 3)]],
                   [[(weight, 0, 3), (1 - weight, 1, 0)], [(1, 0, 3)]],
                   [[(1, 0, 3)]])
    problem = reward_problem(model, [3], "max", [])
    source = runner_source(problem, monkeypatch)
    assert "1.0*" not in source and "0.0+" not in source
    assert not re.search(r"if u\d+ < v\d+", source)
    # s0 and s2 assign their own values; s1 reads its own.
    assert "v0 = (1.0+v1)\n" in source and "u0 = (1.0+u1)\n" in source
    assert "n = 0.5*v1+0.5*(2.0+v2)" in source and "m = 0.5*u1+0.5*(2.0+u2)" in source
    assert "u1 = m\n" in source and "v1 = n\n" in source
    # s2's branch into the goal s3, which the phase never writes, is
    # computed once, before the loop.
    w, rest = float(weight), float(1 - weight)
    assert f"    w0 = {w!r}*v3\n    w1 = {w!r}*u3\n    lim = k\n" in source
    assert f"v2 = w0+{rest!r}*(1.0+v0)" in source and "if y > v2: v2 = y" in source
    # A term read by several states before its target is next written is
    # computed once per sweep: in id order, s1 to s7 of the slow chain read
    # s0's new value, each through 0.5*(1.0+v0).
    chain = runner_source(chain_ii_runs()[1](), monkeypatch)
    assert chain.count("0.5*(1.0+v0)") == 1 and "+(w0:=0.5*(1.0+v0))\n" in chain
    assert all(f"v{s} = 0.5*(1.0+v{s + 1})+w0\n" in chain for s in range(2, 7))
    # Interval iteration runs the runner with the outcome of `_sweep` alone.
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 0)
    compiled, ran = spy_runners(monkeypatch)
    got = ii_ending(problem, [50.0, 50.0, 50.0, 0.0])
    v, u = problem.initial_vector(), [50.0, 50.0, 50.0, 0.0]
    sweeps, _ = generic_phase(problem, problem.default_order(), False, v, u, eps=2e-3,
                              max_sweeps=10**4)
    assert got == ((0.5 * (u[0] + v[0])).hex(), v[0].hex(), u[0].hex(), sweeps)
    assert ran == [sweeps]


def test_compile_memory_stays_bounded(monkeypatch):
    # A compile holds about 10 KB per branch, so a phase of 235 branches,
    # below the cap of 256, peaks near 2.3 MB (tracemalloc, Python 3.11;
    # 2.8 MB on 3.12).  A phase of 2 000+ branches, which would hold about
    # 20 MB, is not compiled.
    def problem(seed, n, goals):
        doc = generate_random(seed, n, 3, 4, 4, goals)
        targets = sorted(doc.declared_goals)
        model = make_goals_absorbing(doc.model, targets)
        return reward_problem(model, targets, "max", s_infinity(model, targets, "max"))

    small, large = problem(2, 50, 1), problem(11, 500, 5)
    assert 200 < sum(len(b) for s in small.unknowns for b in small.kernel[s]) \
        <= solvers._LOCAL_BRANCHES
    assert sum(len(b) for s in large.unknowns for b in large.kernel[s]) > 2000
    tracemalloc.start()
    try:
        runner = _compile_phase(small.kernel, small.default_order(), True, small.model.initial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert runner is not None and peak < 4_000_000
    assert _compile_phase(large.kernel, large.default_order(), True, large.model.initial) is None
    # Interval iteration does not even key a phase of more states than a
    # runner may hold branches; it keys the small one.
    assert len(large.unknowns) > solvers._LOCAL_BRANCHES and large.model.initial in large.unknowns
    keys = spy_lookups(monkeypatch)
    for phase in (large, small):
        ii_ending(phase, [1e3] * phase.model.num_states, max_sweeps=1)
    assert len(keys) == 1 and keys[0][2] == tuple(small.default_order())


def chain_ii_runs(n=8):
    """A run of interval iteration on the slow chain with n + 1 states, in a
    problem of its own: the outcome in hex and the sweep count."""
    doc = generate_slow_chain(n, HALF)
    goals = sorted(doc.declared_goals)
    model = make_goals_absorbing(doc.model, goals)
    prop = make_property("emax", goals)
    upper = reward_upper_init(model, goals, "max", [])

    def run(problem=None):
        o = interval_iteration(problem or reward_problem(model, goals, "max", []), prop, upper)
        return o.value.hex(), o.lower_bound.hex(), o.upper_bound.hex(), o.iterations
    return run, lambda: reward_problem(model, goals, "max", [])


def test_a_repeated_phase_reuses_its_runner(monkeypatch):
    # The first interval iteration on the phase runs COMPILE_AFTER_SWEEPS
    # generic sweeps and compiles; a second, in a problem of its own, finds
    # the runner cached and runs it from sweep 0, with no generic sweep and
    # no compile.  Both give the all-generic outcome.
    run, _ = chain_ii_runs()
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 10**18)
    generic_outcome = run()
    assert len(solvers._RUNNERS) == 0
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 2)
    sources = spy_sources(monkeypatch)
    compiled, ran = spy_runners(monkeypatch)
    generic = count_generic_sweeps(monkeypatch)
    first = run()
    assert len(sources) == len(compiled) == len(ran) == 1 and compiled[0] is not None
    assert len(generic) == 2 and ran == [first[-1]]
    generic.clear()
    second = run()
    assert len(sources) == len(compiled) == 1 and not generic
    assert ran == [first[-1]] * 2
    assert first == second == generic_outcome and generic_outcome[-1] > 2


def test_phases_that_differ_get_distinct_runners(monkeypatch):
    # One constant, the order, the direction or the initial state changes
    # the phase's key, and interval iteration then compiles a runner of its
    # own for it; an equal phase, its order a list or a tuple, finds the
    # cached one.
    problem = random_problem(3, "max")
    kernel, order, s_i = problem.kernel, problem.default_order(), problem.model.initial
    assert any(len(kernel[s]) > 1 for s in order)
    s = order[0]
    (p, r, t), *rest = kernel[s][0]
    changed = list(kernel)
    changed[s] = (((p, math.nextafter(r, math.inf), t), *rest), *kernel[s][1:])
    phases = [(kernel, order, True, s_i), (tuple(changed), order, True, s_i),
              (kernel, order[::-1], True, s_i), (kernel, order, False, s_i),
              (kernel, order, True, next(x for x in order if x != s_i))]
    keys = spy_lookups(monkeypatch)
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 0)
    compiled, ran = spy_runners(monkeypatch)
    for k, (phase_kernel, phase_order, maximize, initial) in enumerate(phases):
        model = Mdp(problem.model.num_states, initial, tuple(
            tuple(Transition(tuple(Branch(p, r, t, Fraction(p), Fraction(r))
                                   for p, r, t in branches)) for branches in trs)
            for trs in phase_kernel))
        phase_problem = solvers.BellmanProblem(model, "max" if maximize else "min",
                                               problem.unknowns, problem.seed, False)
        ii_ending(phase_problem, [1e3] * model.num_states, phase_order, max_sweeps=3)
        assert len(compiled) == k + 1 and len(solvers._RUNNERS) == k + 1
    assert None not in compiled and len({id(runner) for runner in compiled}) == 5
    assert len(ran) == 5 and len(keys) == len(set(keys)) == 5
    ii_ending(problem, [1e3] * problem.model.num_states, tuple(order), max_sweeps=3)
    assert len(compiled) == 5 and len(ran) == 6 and keys[5] == keys[0]


def test_signed_zero_rewards_share_a_runner(monkeypatch):
    # Two raw kernels that differ only in the sign of one zero reward: equal
    # as tuples of floats, and with equal hashes, so their phases share a
    # key.  The contract takes a -0.0 reward, and a zero reward of either
    # sign drops out of its term (`-0.0 + x` and, as no value read is -0.0,
    # `+0.0 + x` are `x`), so both compile from equal source, and the
    # second phase runs the first one's runner.  Each phase ends as a loop
    # of `_sweep`s does, with hex-equal vectors.
    def model(zero):
        half, one, nought = Fraction(1, 2), Fraction(1), Fraction(0)
        return Mdp(3, 0, (
            (Transition((Branch(0.5, 1.0, 1, half, one), Branch(0.5, 0.0, 0, half, nought))),),
            (Transition((Branch(0.5, zero, 2, half, nought), Branch(0.5, 1.0, 0, half, one))),),
            (Transition((Branch(1.0, 0.0, 2, one, nought),)),)))

    plus, minus = model(0.0), model(-0.0)
    problems = [reward_problem(m, [2], "max", []) for m in (plus, minus)]
    assert problems[0].kernel == problems[1].kernel
    assert hash(problems[0].kernel) == hash(problems[1].kernel)
    assert math.copysign(1.0, problems[1].kernel[1][0][0][1]) == -1.0
    order = problems[0].default_order()
    upper = [50.0, 50.0, 0.0]
    sources = spy_sources(monkeypatch)
    wants = []
    for problem in problems:
        v, u = problem.initial_vector(), list(upper)
        sweeps, _ = generic_phase(problem, order, False, v, u, eps=2e-3, max_sweeps=10**4)
        wants.append(((0.5 * (u[0] + v[0])).hex(), v[0].hex(), u[0].hex(), sweeps))
        v_run, u_run = problem.initial_vector(), list(upper)
        assert compiled_phase(problem, order, v_run, u_run, eps=2e-3, max_sweeps=10**4) \
            == (sweeps, -1)
        assert hexes(v_run) == hexes(v) and hexes(u_run) == hexes(u)
    assert sources[0] == sources[1] and "0.5*v2" in sources[0]
    keys = spy_lookups(monkeypatch)
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 0)
    compiled, ran = spy_runners(monkeypatch)
    for problem, want in zip(problems, wants):
        assert ii_ending(problem, upper) == want
    assert len(compiled) == 1 and len(ran) == 2 and len(sources) == 3
    assert keys[0] == keys[1] and len(solvers._RUNNERS) == 1
    for problem, want in zip(problems, wants):
        assert ii_ending(problem, upper) == want
    assert len(compiled) == 1 and len(ran) == 4


def test_runner_cache_stays_at_its_bound(monkeypatch):
    # A single-state phase per reward: more distinct phases than the cache
    # holds.  A full cache is emptied before the next runner is stored, so
    # it never holds more than its bound; until then the most recent phase
    # is found without a compile, and afterwards the first compiles again.
    compiled, _ = spy_runners(monkeypatch)
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 0)

    def phase(reward):
        model = mdp_of(0, [[(HALF, reward, 0), (HALF, 0, 1)]], [[(1, 0, 1)]])
        ii_ending(reward_problem(model, [1], "max", []), [1e3, 0.0], max_sweeps=2)
        assert len(solvers._RUNNERS) <= size

    size = solvers._RUNNER_CACHE_SIZE
    for k in range(size):
        phase(k)
    assert len(solvers._RUNNERS) == size and len(compiled) == size
    phase(size - 1)
    assert len(compiled) == size
    phase(size)
    assert len(solvers._RUNNERS) == 1 and len(compiled) == size + 1
    phase(0)
    assert len(solvers._RUNNERS) == 2 and len(compiled) == size + 2


def test_threads_sharing_a_problem_get_identical_outcomes(monkeypatch):
    # Threads start on an empty runner cache, so several may compile the
    # phase at once: the cache keeps the first runner stored and hands it to
    # every later call.  A runner keeps its values in its own local
    # variables, so threads sharing one problem get the outcome of a lone
    # generic call.
    run, new_problem = chain_ii_runs()
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 10**18)
    expected = run()
    assert expected[-1] > 2
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 2)
    compiled, ran = spy_runners(monkeypatch)
    shared = new_problem()
    results: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: results.extend(run(shared) for _ in range(3)))
                   for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 12 and len(ran) == 12
    assert 1 <= len(compiled) <= 4 and None not in compiled
    assert len(solvers._RUNNERS) == 1
    assert run() == expected and len(ran) == 13 and len(compiled) <= 4


# ---------------------------------------------------------------------------
# Gauss-Seidel value iteration.

def test_gsvi_golden_trace(me0):
    problem = golden_problem(me0)
    v = problem.initial_vector()
    seen: list[tuple[float, float]] = []
    sweeps = gsvi(problem, v, ErrorCriterion("absolute", 0.05),
                  observer=lambda event, k, err, vec: seen.append((vec[0], err)))
    assert sweeps == 4
    expected = [(0.1, 0.4), (0.18, 0.4), (0.4, 0.22), (0.42, 0.02)]
    for (got_v, got_e), (want_v, want_e) in zip(seen, expected):
        assert got_v == pytest.approx(want_v, abs=1e-12)
        assert got_e == pytest.approx(want_e, abs=1e-12)
    assert v[3] == pytest.approx(0.4, abs=1e-12) and v[4] == pytest.approx(0.4, abs=1e-12)


def test_observers_get_the_live_vectors(me0):
    # The hook costs no copies: each solver sends the vectors it sweeps.
    problem = golden_problem(me0)
    v = problem.initial_vector()
    sent: list[tuple] = []
    gsvi(problem, v, ErrorCriterion("absolute", 0.05), observer=lambda *event: sent.append(event))
    assert sent and all(event[3] is v for event in sent)
    prop = make_property("pmax", [1], 0.05, "absolute")
    sent.clear()
    ovi(problem, ErrorCriterion("absolute", 0.05), prop, observer=lambda *event: sent.append(event))
    verifies = [event for event in sent if event[0] == "verify"]
    guesses = [event[1] for event in sent if event[0] == "guess"]
    assert verifies and all(any(event[4] is u for u in guesses) for event in verifies)


@pytest.mark.parametrize("compile_after", [solvers.COMPILE_AFTER_SWEEPS, 2])
@pytest.mark.parametrize("mode", ["relative", "absolute"])
def test_gsvi_observer_changes_nothing_and_sees_exact_errors(mode, compile_after,
                                                              monkeypatch):
    # chain-16 runs hundreds of sweeps, past the compile switch at either
    # threshold, yet gsvi compiles nothing.  Without an observer its sweeps
    # stop measuring at epsilon_vi; with one they measure everything.
    # Sweep count and vector agree to the last bit, and the observed errors
    # are those of sweeps that measure everything.
    monkeypatch.setattr(solvers, "COMPILE_AFTER_SWEEPS", compile_after)
    compiled, _ = spy_runners(monkeypatch)
    stops = []
    monkeypatch.setattr(solvers, "_sweep", lambda *args: stops.append(args[6]) or _sweep(*args))
    doc = generate_slow_chain(16, Fraction(2, 3))
    goals = sorted(doc.declared_goals)
    model = make_goals_absorbing(doc.model, goals)
    criterion = ErrorCriterion(mode, 1e-9)
    quiet, watched = (reward_problem(model, goals, "max", []) for _ in range(2))
    v_quiet, v_watched = quiet.initial_vector(), watched.initial_vector()
    sweeps = gsvi(quiet, v_quiet, criterion)
    assert sweeps > 256 and stops == [1e-9] * sweeps
    stops.clear()
    events: list = []
    assert gsvi(watched, v_watched, criterion, observer=record(events)) == sweeps
    assert stops == [math.inf] * sweeps and not compiled
    assert hexes(v_quiet) == hexes(v_watched)
    v = watched.initial_vector()
    for _, _, error, _ in events:
        assert _sweep(watched.kernel, watched.default_order(), True, mode == "relative",
                      v)[0].hex() == error.hex()
    assert hexes(v) == hexes(v_watched)


def test_gsvi_termination_gap(me0):
    # After converging at epsilon 0.05 the answer still misses the truth by 0.08.
    problem = golden_problem(me0)
    v = problem.initial_vector()
    gsvi(problem, v, ErrorCriterion("absolute", 0.05))
    exact = oracle_exact(me0, make_property("pmax", [1]))
    assert exact == Fraction(1, 2)
    assert float(exact) - v[0] == pytest.approx(0.08, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-3, math.inf])
def test_solvers_reject_an_error_threshold_that_is_never_met(me0, bad):
    # A NaN, zero or negative epsilon_vi used to let gsvi run to its sweep
    # cap, and ovi to report no-certificate after it.
    problem = golden_problem(me0)
    prop = make_property("pmax", [1], 0.05, "absolute")
    runs = (lambda c: gsvi(problem, problem.initial_vector(), c, max_sweeps=5000),
            lambda c: plain_vi(problem, c, max_sweeps=5000),
            lambda c: ovi(problem, c, prop, max_sweeps=5000))
    for run in runs:
        for mode in ("relative", "absolute"):
            with pytest.raises(SolverError, match="epsilon_vi must be a positive finite real"):
                run(ErrorCriterion(mode, bad))


def test_gsvi_fixed_point_stops_in_one_sweep(me0):
    problem = golden_problem(me0)
    v = [0.5, 1.0, 0.0, 0.4, 0.4]
    errors = []
    sweeps = gsvi(problem, v, ErrorCriterion("absolute", 1e-9),
                  observer=lambda event, k, err, vec: errors.append(err))
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
    events: list[tuple] = []
    out = ovi(problem, ErrorCriterion("absolute", 0.05), prop, observer=record(events))
    assert out.certified and out.status == "ok"
    assert out.value == pytest.approx(0.49902848, abs=1e-12)
    assert out.lower_bound == pytest.approx(0.47902848, abs=1e-12)
    assert out.upper_bound == pytest.approx(0.51902848, abs=1e-12)
    assert out.iterations == 10
    assert out.verification_phases == 2 and out.cancelled_verifications == 1

    guesses = [ev for ev in events if ev[0] == "guess"]
    first, second = guesses[0][1], guesses[1][1]
    assert [first[0], first[3], first[4]] == pytest.approx([0.47, 0.45, 0.45], abs=1e-12)
    assert [second[0], second[3], second[4]] == pytest.approx([0.5237856, 0.45, 0.45], abs=1e-12)
    # First candidate is rejected after a single sweep with the upper value rising.
    verifies = [ev for ev in events if ev[0] == "verify"]
    assert verifies[0][4][0] == pytest.approx(0.476, abs=1e-12)
    assert verifies[0][5] is True and verifies[0][6] is False  # up, not down
    # The iteration-phase threshold is halved to 0.008 for the retry.
    eps_events = [ev for ev in events if ev[0] == "epsilon-vi"]
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


def test_ovi_certifies_a_stationary_upper_vector():
    # Reachability value exactly 1 with a relative width: the inflated guess
    # clamps back onto the fixed point, and the first verification sweep
    # leaves it unchanged.  A sweep that moves no upper value proves
    # B(u) = u <= u, so the guess is inductive and certified at once.
    m = mdp_of(0, [[(1, 0, 1)]], [[(1, 0, 1)]])
    problem = probability_problem(m, goals=[1], opt="max")
    events: list[tuple] = []
    out = ovi(problem, ErrorCriterion("relative", 1e-6), make_property("pmax", [1]),
              observer=record(events))
    assert out.certified and out.status == "ok"
    assert (out.lower_bound, out.value, out.upper_bound) == (1.0, 1.0, 1.0)
    assert out.verification_phases == 1 and out.cancelled_verifications == 0
    assert [ev[5:7] for ev in events if ev[0] == "verify"] == [(True, True)]  # up and down


def test_ovi_certifies_the_slow_chain_pmax_without_precomputation():
    # Without prob1 the slow chain's pmax is 1 everywhere but settled by no
    # precomputation.  The guesses clamp to 1.0, which no sweep moves: each
    # such sweep was cancelled as "up", 68 phases and 15 780 sweeps ending
    # in no-certificate.  Certified once the certify test comes first.
    doc = generate_slow_chain(10, HALF)
    out = solve(doc.model, make_property("pmax", [10]),
                SolveOptions(method="ovi", precomp="none")).outcome
    assert out.certified and out.status == "ok"
    assert (out.lower_bound.hex(), out.upper_bound) == ((0.99999904652441807).hex(), 1.0)
    assert out.iterations == 7091
    assert out.cancelled_verifications < out.verification_phases


def test_ovi_global_sweep_cap():
    doc = generate_slow_chain(8, Fraction(1, 2))
    model = make_goals_absorbing(doc.model, [8])
    problem = reward_problem(model, [8], "max", [])
    out = ovi(problem, ErrorCriterion("relative", 1e-6), make_property("emax", [8]),
              max_sweeps=50)
    assert not out.certified and out.status == "no-certificate"
    assert out.iterations <= 50
    # Never a wrong value: the reported lower bound really is one.
    assert Fraction(out.value) <= oracle_exact(model, make_property("emax", [8]))


def test_ovi_lower_bound_optimisation_adopts_rising_upper():
    doc = generate_slow_chain(8, Fraction(1, 2))
    model = make_goals_absorbing(doc.model, [8])
    problem = reward_problem(model, [8], "max", [], unique_fixed_point=True)
    prop = make_property("emax", [8], 1.0, "absolute")
    events: list[tuple] = []
    out = ovi(problem, ErrorCriterion("absolute", 50.0), prop, observer=record(events))
    assert any(ev[0] == "adopt-upper" for ev in events)
    assert out.certified
    exact = oracle_exact(model, make_property("emax", [8]))
    assert Fraction(out.lower_bound) <= exact <= Fraction(out.upper_bound)


def two_arm_problem():
    """emax on two arms converging at very different speeds: seeding the
    fast arm just below its exact value makes the guessed upper value drift
    down there for hundreds of sweeps while the slow arm's keeps rising, so
    the first verification phase is neither accepted nor rejected until the
    ten-times guard cancels it."""
    m = mdp_of(
        0,
        [[(0.5, 1, 1), (0.5, 1, 2)]],
        [[(0.9, 1, 1), (0.1, 1, 3)]],    # fast arm, exact value 10
        [[(0.99, 1, 2), (0.01, 1, 3)]],  # slow arm, exact value 100
        [[(1, 0, 3)]],
    )
    problem = reward_problem(m, [3], "max", [])
    object.__setattr__(problem, "seed", (0.0, 10 - 1e-7, 2.0, 0.0))
    return m, problem


def two_arm_run(max_sweeps):
    """`ovi` on `two_arm_problem` under `max_sweeps`: (outcome, events)."""
    events: list[tuple] = []
    out = ovi(two_arm_problem()[1], ErrorCriterion("absolute", 1e6),
              make_property("emax", [3], 1e-6), max_sweeps=max_sweeps, observer=record(events))
    return out, events


def test_ovi_ten_times_verification_guard():
    m = two_arm_problem()[0]
    out, events = two_arm_run(5000)
    cancel_reasons = [ev[1] for ev in events if ev[0] == "cancel"]
    assert "guard" in cancel_reasons
    # Every verification phase stays within ten times its own preceding
    # iteration phase (plus the sweep on which the guard is checked), and a
    # phase the guard cancels ran exactly that many.
    last_iter = 1
    phase_iter: list[int] = []
    phase_verif: list[int] = []
    guarded: list[bool] = []
    for ev in events:
        if ev[0] == "iter":
            last_iter = ev[1]
        elif ev[0] == "guess":
            phase_iter.append(last_iter)
            phase_verif.append(0)
            guarded.append(False)
        elif ev[0] == "verify":
            phase_verif[-1] = ev[1]
        elif ev == ("cancel", "guard"):
            guarded[-1] = True
    assert any(v > 1 for v in phase_verif)
    for iters, verifs in zip(phase_iter, phase_verif):
        assert verifs <= 10 * max(iters, 1) + 1
    assert guarded == [True] + [False] * (len(guarded) - 1)
    assert (phase_iter[0], phase_verif[0]) == (1, 10 * 1 + 1)
    if out.certified:
        exact = oracle_exact(m, make_property("emax", [3]))
        assert Fraction(out.lower_bound) <= exact <= Fraction(out.upper_bound)


def outline(events):
    """An event stream without its "iter" events, "verify" cut to its sweep
    and every other event that carries a vector or a float to its name."""
    return [ev[:2] if ev[0] == "verify" else
            ev[:1] if ev[0] in ("guess", "policy", "epsilon-vi") else ev
            for ev in events if ev[0] != "iter"]


def guessed(verify_sweeps, guard=False):
    """The outline of a verification phase: its guess, its verify sweeps and
    its cancellation by the guard."""
    return [("guess",)] + [("verify", k) for k in range(1, verify_sweeps + 1)] + (
        [("cancel", "guard"), ("epsilon-vi",)] if guard else [])


@pytest.mark.parametrize("max_sweeps, steps", [
    (11, guessed(10)),                           # inside the first phase
    (12, guessed(11, True)),                     # on its last sweep: the guard comes first
    (81, guessed(11, True) + guessed(0)),        # the second iteration phase ends there
    (82, guessed(11, True) + guessed(1)),        # after the second phase's first sweep
    (100, guessed(11, True) + guessed(19)),      # after its 19th
])
def test_ovi_budget_ending_inside_a_verification_phase(max_sweeps, steps):
    # The two-arm run verifies sweeps 2-12 (cancelled by the guard after
    # 10 * 1 + 1) and 82-279.  A budget that ends inside a phase counts the
    # phase as cancelled but sends no "cancel"; the stream ends where the
    # sweeps did.
    out, events = two_arm_run(max_sweeps)
    assert (out.status, out.certified, out.iterations) == ("no-certificate", False, max_sweeps)
    phases = steps.count(("guess",))
    assert (out.verification_phases, out.cancelled_verifications) == (phases, phases)
    assert outline(events) == steps
    assert out.upper_bound is None and out.lower_bound == out.value


# ---------------------------------------------------------------------------
# Policy-evaluation guesses.

def chain_problem(unique=True):
    """emax on the slow chain s0..s10 (p = 1/2): its first iteration phase
    runs far past POLICY_AFTER_SWEEPS."""
    model = make_goals_absorbing(generate_slow_chain(10, HALF).model, [10])
    return model, reward_problem(model, [10], "max", s_infinity(model, [10], "max"),
                                 unique_fixed_point=unique)


def summary(out):
    """An outcome's fields, floats as hex."""
    values = (getattr(out, k) for k in out.__slots__)
    return tuple(x.hex() if type(x) is float else x for x in values)


def spy_policy(monkeypatch, replace=None):
    """Counts `_policy_values` calls; `replace(problem, v)` gives their result."""
    calls = []
    real = solvers._policy_values

    def spy(problem, v, deadline):
        calls.append(list(v))
        return replace(problem, v) if replace else real(problem, v, deadline)

    monkeypatch.setattr(solvers, "_policy_values", spy)
    return calls


def test_policy_guess_certifies_the_slow_chain_after_one_joint_sweep(monkeypatch):
    model, problem = chain_problem()
    calls = spy_policy(monkeypatch)
    events: list[tuple] = []
    out = ovi(problem, ErrorCriterion("relative", 1e-6), make_property("emax", [10]),
              observer=record(events))
    assert len(calls) == 1 and len(calls[0]) == model.num_states
    assert out.certified and out.status == "ok"
    assert (out.iterations, out.verification_phases, out.cancelled_verifications) == \
        (solvers.POLICY_FORECAST_SWEEPS + 1, 1, 0)
    exact = oracle_exact(model, make_property("emax", [10]))
    assert Fraction(out.lower_bound) <= exact <= Fraction(out.upper_bound)
    assert [ev[0] for ev in events if ev[0] != "iter"] == ["policy"]
    assert [ev[1] for ev in events if ev[0] == "iter"] == \
        list(range(1, solvers.POLICY_FORECAST_SWEEPS + 1))
    rounds, lower, upper = events[-1][1:]
    assert rounds == 1
    assert lower[10] == upper[10] == 0.0  # the goal holds its seed
    assert all(lo < hi for lo, hi in zip(lower[:10], upper[:10]))


def test_policy_guess_above_the_value_is_not_kept_as_a_lower_bound(monkeypatch):
    # Every value times 1 + 2e-6: the upper vector is inductive and narrow
    # enough, but the lower one lies above the value and moves down.
    model, problem = chain_problem()
    prop = make_property("emax", [10])
    exact = oracle_values(model, prop)
    above = [float(x) * (1.0 + 2e-6) for x in exact]
    spy_policy(monkeypatch, lambda problem, v: (1, list(above)))
    events: list[tuple] = []
    out = ovi(problem, ErrorCriterion("relative", 1e-6), prop, observer=record(events))
    assert ("cancel", "policy") in events
    assert out.certified
    assert Fraction(out.lower_bound) <= exact[0] <= Fraction(out.upper_bound)


def test_policy_guess_needs_a_unique_fixed_point(monkeypatch):
    calls = spy_policy(monkeypatch)
    for unique in (False, True):
        problem = chain_problem(unique)[1]
        events: list[tuple] = []
        out = ovi(problem, ErrorCriterion("relative", 1e-6), make_property("emax", [10]),
                  observer=record(events))
        assert out.certified
        assert len(calls) == unique
        assert any(ev[0] == "policy" for ev in events) == unique


def test_policy_guess_needs_at_most_policy_max_unknowns(monkeypatch):
    calls = spy_policy(monkeypatch)
    problem = chain_problem()[1]
    monkeypatch.setattr(solvers, "POLICY_MAX_UNKNOWNS", len(problem.unknowns) - 1)
    ovi(problem, ErrorCriterion("relative", 1e-6), make_property("emax", [10]))
    assert not calls
    monkeypatch.setattr(solvers, "POLICY_MAX_UNKNOWNS", len(problem.unknowns))
    ovi(problem, ErrorCriterion("relative", 1e-6), make_property("emax", [10]))
    assert len(calls) == 1


@pytest.mark.parametrize("weight", [0, Fraction(-1, 16)])
def test_policy_guess_refuses_a_kernel_with_a_non_positive_weight(weight, monkeypatch):
    # A hand-built model, which `solve` does not validate: the chain's state
    # 3 gets one more branch of weight `weight`, balanced on its restart.
    # Its kernel refuses it before the first sweep, so no guess is made.
    chain = generate_slow_chain(10, HALF).model
    ts = list(chain.transitions)
    ts[3] = (Transition((branch(HALF, 1, 4), branch(HALF - weight, 1, 0), branch(weight, 1, 5))),)
    model = Mdp(chain.num_states, 0, tuple(ts))
    policy = spy_policy(monkeypatch)
    generic = count_generic_sweeps(monkeypatch)
    with pytest.raises(SolverError, match=rf"^state 3, transition 0: branch \({float(weight)!r}, "):
        solve(model, make_property("emax", [10]), SolveOptions(method="ovi"))
    assert not policy and not generic


@pytest.mark.parametrize("order", ["forward", "goal-distance"])
def test_refuted_policy_guess_leaves_the_iteration_as_it_was(order, monkeypatch):
    # The guess is half the lower vector, which every upper value leaves
    # upwards in the first joint sweep; the run then is the run without a
    # guess, one sweep, one phase and one cancellation longer.
    model, problem = chain_problem()
    order = (problem.default_order() if order == "forward"
             else goal_distance_order(model, frozenset([10]), problem.unknowns))
    criterion, prop = ErrorCriterion("relative", 1e-6), make_property("emax", [10])

    def run(observed):
        events: list[tuple] = []
        fresh = chain_problem()[1]
        out = ovi(fresh, criterion, prop, order, observer=record(events) if observed else None)
        return out, [tuple(x.hex() if type(x) is float else hexes(x) if type(x) is list else x
                           for x in ev) for ev in events]

    monkeypatch.setattr(solvers, "POLICY_MAX_UNKNOWNS", 0)
    parent = {observed: run(observed) for observed in (False, True)}
    monkeypatch.undo()
    calls = spy_policy(monkeypatch, lambda problem, v: (1, [0.5 * x for x in v]))
    for observed in (False, True):
        out, events = run(observed)
        before, events = parent[observed][0], [ev for ev in events
                                               if ev[0] != "policy" and ev != ("cancel", "policy")]
        assert (out.iterations, out.verification_phases, out.cancelled_verifications) == (
            before.iterations + 1, before.verification_phases + 1,
            before.cancelled_verifications + 1)
        assert summary(out)[:3] == summary(before)[:3]  # value and bounds
        assert events == parent[observed][1]
    assert len(calls) == 2
    assert hexes(calls[0]) == hexes(calls[1])


def observed_solve(model, prop, options):
    """`solve` with the pipeline's `ovi` observed: (outcome, events)."""
    events: list[tuple] = []
    real = pipeline.ovi
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "ovi", lambda *args, **budget: real(
            *args, **budget, observer=record(events)))
        return solve(model, prop, options).outcome, events


def test_budget_ending_inside_a_policy_check():
    # pmin/ovi on this 30-state model in forward order: at sweep 64 the
    # forecast (115 more sweeps of 108 branches against 12 * 25**2) pauses
    # for a guess, which its 5th joint sweep certifies.  A budget that ends
    # before that refutes the guess, sends ("cancel", "policy") and ends
    # with no-certificate; a budget of 64 makes no guess.
    doc = generate_random(25, 30, 3, 4, 4, 1, allow_end_components=True)
    prop = make_property("pmin", sorted(doc.declared_goals))
    pause = solvers.POLICY_FORECAST_SWEEPS
    for extra in range(0, 6):
        out, events = observed_solve(doc.model, prop, SolveOptions(
            method="ovi", order="forward", max_sweeps=pause + extra))
        steps = outline(events)
        assert not any(ev[0] == "verify" for ev in events)
        if extra == 5:
            assert (out.status, out.certified, out.iterations) == ("ok", True, pause + 5)
            assert (out.verification_phases, out.cancelled_verifications) == (1, 0)
            assert steps == [("policy",)]
        elif extra:
            assert (out.status, out.certified, out.iterations) == \
                ("no-certificate", False, pause + extra)
            assert (out.verification_phases, out.cancelled_verifications) == (1, 1)
            assert steps == [("policy",), ("cancel", "policy")]
        else:
            assert (out.status, out.iterations, out.verification_phases) == \
                ("no-certificate", pause, 0)
            assert steps == []
        assert [ev[1] for ev in events if ev[0] == "iter"] == list(range(1, pause + 1))


def test_policy_guess_certifies_a_500_state_stiff_emax_within_a_timeout():
    # Without the guess this request runs past 60 s.
    doc = generate_random(1, 500, 3, 4, 4, 10)
    goals = sorted(doc.declared_goals)
    out = solve(doc.model, make_property("emax", goals), SolveOptions(method="ovi", timeout=30)).outcome
    assert out.certified and out.status == "ok"
    assert out.verification_phases == 1 and out.cancelled_verifications == 0
    assert out.iterations <= solvers.POLICY_AFTER_SWEEPS + solvers.POLICY_CHECK_SWEEPS
    reference = perfbench_reference()
    if reference is not None:
        ref = reference.reference_value(doc.model, goals, "emax")
        assert out.lower_bound * (1 - 1e-10) <= ref <= out.upper_bound * (1 + 1e-10)


#: emax/ovi and emin/ovi requests and where the forecast at sweep 64 puts
#: their first phase's policy guess: (model, property, pause, sweeps, lower,
#: upper).  With the fixed pause at 128 every one certified the same
#: interval, the first six after 129 sweeps.
FORECAST_CASES = [
    *[(("random", s, 50, 3, 4, 4, 1), "emax", 64, 65, lower, upper) for s, lower, upper in (
        (2, "0x1.923e9eb701cb0p+13", "0x1.923eb91283209p+13"),
        (3, "0x1.1ba9d9b626286p+12", "0x1.1ba9ec4a3435bp+12"))],
    *[(("chain", n, p), "emax", 64, 65, lower, upper) for (n, p), (lower, upper) in zip(
        BENCHMARK_CHAINS, (("0x1.7f7ff37540896p+10", "0x1.7f800c8abf76ap+10"),
                           ("0x1.b524c7b55847ap+10", "0x1.b524e44aa761ap+10"),
                           ("0x1.26a0cec51efbfp+10", "0x1.26a0e1ff435b2p+10"),
                           ("0x1.49e451eb0b242p+9", "0x1.49e4672ed1047p+9")))],
    # The phase would end 27 and 6 sweeps later: no guess.
    (("random", 0, 300, 3, 4, 4, 6), "emin", None, 162,
     "0x1.35a96e82df634p+4", "0x1.35a9792b4b2f0p+4"),
    (("random", 1, 300, 3, 4, 4, 6), "emin", None, 82,
     "0x1.3b1fd26a6a177p+4", "0x1.3b1fd99739227p+4"),
    # Policy rounds on 588 unknowns cost more than the forecast sweeps.
    (("random", 1, 600, 3, 4, 4, 12), "emax", 128, 130,
     "0x1.85fe065ff51d6p+22", "0x1.85fe1feeef971p+22"),
]


@pytest.mark.parametrize("model, kind, pause, sweeps, lower, upper", FORECAST_CASES,
                         ids=["stiff-2", "stiff-3", "chain-10", "chain-16", "chain-20", "chain-40",
                              "random-0-300-emin", "random-1-300-emin", "random-1-600-emax"])
def test_forecast_chooses_the_policy_pause(model, kind, pause, sweeps, lower, upper,
                                           monkeypatch):
    doc = (generate_random(*model[1:]) if model[0] == "random"
           else generate_slow_chain(*model[1:]))
    prop = make_property(kind, sorted(doc.declared_goals))
    policy = spy_policy(monkeypatch)
    forecasts = []
    real = solvers._guess_pays
    monkeypatch.setattr(solvers, "_guess_pays", lambda problem, errors, eps: forecasts.append(
        dict(errors)) or real(problem, errors, eps))
    out, events = observed_solve(doc.model, prop, SolveOptions(method="ovi"))
    unobserved = solve(doc.model, prop, SolveOptions(method="ovi")).outcome
    assert summary(out) == summary(unobserved)
    assert (out.certified, out.iterations) == (True, sweeps)
    assert (out.lower_bound.hex(), out.upper_bound.hex()) == (lower, upper)
    steps = [ev[0] for ev in events]
    if pause is None:
        assert not policy and "policy" not in steps
    else:
        assert len(policy) == 2 and steps.index("policy") == pause
        assert set(steps[:pause]) == {"iter"}
    # Both runs forecast once, from the exact errors the observer saw.
    first_phase = itertools.takewhile(lambda ev: ev[0] == "iter", events)
    errors = {ev[1]: ev[2] for ev in first_phase if ev[1] in (48, 64)}
    assert forecasts == [errors, errors]


def test_forecast_measures_exact_errors_only_where_a_guess_can_follow(monkeypatch):
    # Unobserved, the first phase of the slow chain measures its exact error
    # only on sweeps 48 and 64; without a possible guess it measures none.
    problem = chain_problem()[1]
    criterion, prop = ErrorCriterion("relative", 1e-6), make_property("emax", [10])
    exact = []
    real = solvers._sweep

    def spy(kernel, order, maximize, relative, v, u=None, stop=math.inf):
        if u is None and stop == math.inf:
            exact.append(1)
        return real(kernel, order, maximize, relative, v, u, stop)

    monkeypatch.setattr(solvers, "_sweep", spy)
    assert ovi(problem, criterion, prop).iterations == solvers.POLICY_FORECAST_SWEEPS + 1
    assert len(exact) == 2
    exact.clear()
    monkeypatch.setattr(solvers, "POLICY_MAX_UNKNOWNS", 0)
    assert ovi(chain_problem()[1], criterion, prop).certified
    assert not exact


def perfbench_reference():
    """The benchmark's policy-iteration reference (`perfbench/reference.py`,
    on numpy and scipy), or None where those are not installed."""
    try:
        import numpy, scipy.sparse  # noqa: F401
    except ImportError:
        return None
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: (states, seeds) of the differential run: models the oracle can solve, and
#: the `sweep` benchmark's 50-state size, which only the reference can
STIFF_MODELS = ((6, range(16)), (8, range(16)), (50, range(12)))


def test_policy_guesses_bracket_the_value_on_stiff_random_models(monkeypatch):
    reference = perfbench_reference()
    calls = spy_policy(monkeypatch)
    checked = {"oracle": 0, "reference": 0}
    for n, seeds in STIFF_MODELS:
        for seed in seeds:
            doc = generate_random(seed, n, 3, 4, 4, 1)
            goals = sorted(doc.declared_goals)
            small = scheduler_count(doc.model) <= SCHEDULER_GUARD
            if not small and reference is None:
                continue
            for kind in ("pmax", "pmin", "emax", "emin"):
                fired = len(calls)
                prop = make_property(kind, goals)
                out = solve(doc.model, prop, SolveOptions(method="ovi")).outcome
                if len(calls) == fired:
                    continue
                assert out.certified and out.status == "ok"
                if small:
                    exact = oracle_exact(doc.model, prop)
                    assert Fraction(out.lower_bound) <= exact <= Fraction(out.upper_bound)
                    checked["oracle"] += 1
                else:
                    ref = reference.reference_value(doc.model, goals, kind)
                    slack = 1e-10 * ref  # the reference's own rounding
                    assert out.lower_bound - slack <= ref <= out.upper_bound + slack
                    checked["reference"] += 1
    assert checked["oracle"] >= 10
    assert checked["reference"] >= 10 or reference is None


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


def test_interval_iteration_rejects_a_negative_zero_upper_start():
    # -0.0 >= 0.0, so the start passed the check against the seeds, and the
    # phase's values were no longer all positive-signed.
    model = mdp_of(0, [[(HALF, 1, 0), (HALF, 1, 1)]], [[(1, 0, 1)]])
    problem = reward_problem(model, [1], "max", [])
    prop = make_property("emax", [1])
    assert interval_iteration(problem, prop, [2.0, -0.0]).certified  # a fixed state's start
    with pytest.raises(SolverError, match="^initial upper value at state 0 lies below the lower "
                                          "vector or is NaN or -0.0$"):
        interval_iteration(problem, prop, [-0.0, 0.0], max_sweeps=10)


def test_interval_iteration_rejects_a_nan_upper_start():
    # `u < v` is False for NaN, so a NaN start passed the check and then
    # neither crossed nor narrowed: the phase ran to its sweep cap.
    doc = generate_slow_chain(10, HALF)
    goals = sorted(doc.declared_goals)
    model = make_goals_absorbing(doc.model, goals)
    problem = reward_problem(model, goals, "max", [])
    upper = reward_upper_init(model, goals, "max", [])
    for s in (model.initial, max(problem.unknowns)):
        start = list(upper)
        start[s] = math.nan
        with pytest.raises(SolverError, match=f"initial upper value at state {s} lies below"):
            interval_iteration(problem, make_property("emax", goals), start, max_sweeps=1000)


@pytest.mark.parametrize("kind, traps", [
    (kind, traps) for kind in ("pmax", "pmin", "emax", "emin") for traps in (False, True)
    if (kind, traps) != ("emax", True)],  # the injected zero-reward cycle makes emax infinite
    ids=lambda x: x if type(x) is str else "end-components" if x else "plain")
def test_interval_iteration_vectors_never_cross(kind, traps):
    # The proof in `_compile_kernel` that let interval iteration drop its
    # crossing test: from an upper start at or above the seeds, every sweep
    # leaves u >= v at every state.  Random valid models, with and without
    # end components, as `solve` hands them to interval iteration
    # (eliminated where it eliminates), in three orders, from upper starts
    # that range from the seeds up to the pipeline's own (all-ones, or the
    # reward bound).  Some lie between the seeds and the value, such as
    # half and all of a lower bound on it, from which the certified
    # interval misses the value; the vectors do not cross there either.
    # Probabilities go to the first of two absorbing goals, so that the
    # second is a trap and the values vary; rewards go to both.
    phases = sweeps = 0
    for seed in range(16):
        doc = generate_random(seed, 6 + seed, 3, 4, 4, 2, allow_end_components=traps)
        goals = sorted(doc.declared_goals)[:1 if kind[0] == "p" else None]
        problem, prop, upper, order = pipeline_phase(doc.model, make_property(kind, goals, 1e-6))
        if order is None:  # decided without a sweep
            continue
        phases += 1
        seeds, unknowns = problem.seed, problem.unknowns
        below = problem.initial_vector()
        gsvi(problem, below, ErrorCriterion("relative", 1e-3))
        rng = random.Random(seed)
        starts = [[seeds[s] + f * (upper[s] - seeds[s]) for s in problem.model.states]
                  for f in (0.0, 0.25, 1.0)]
        starts += [[f * x for x in below] for f in (0.5, 1.0)]
        starts.append([rng.uniform(seeds[s], upper[s]) if s in unknowns and upper[s] < math.inf
                       else upper[s] for s in problem.model.states])
        for sweep_order in (order, order[::-1], shuffled_order(problem, seed)):
            for start in starts:
                def check(event, sweep, v, u):
                    nonlocal sweeps
                    sweeps += 1
                    assert all(map(operator.ge, u, v)), (event, sweep)
                try:
                    interval_iteration(problem, prop, start, sweep_order, max_sweeps=300,
                                       observer=check)
                except IterationCapExceeded:
                    pass
    assert phases >= 3 and sweeps > 1000


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

    def check(event, sweep, v, u):
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


@pytest.mark.parametrize("reversed_order", [False, True])
@pytest.mark.parametrize("tie", ["reward", "probability"])
def test_reward_upper_init_takes_exact_extremes_among_float_ties(tie, reversed_order):
    # emin keeps the global bound n * r_max / q_min**n.  1 + 2**-60 rounds to
    # 1.0, and 1/2 + 2**-70 and 1/2 - 2**-70 both round to 0.5.  The bound
    # 1 * r_max / q_min must come from the exact extremes (1 + 2**-60, resp.
    # 1/2 - 2**-70), where it lies just above 2 and rounds up; the other tie
    # would give exactly 2.0.
    if tie == "reward":
        branches = [(HALF, 1, 1), (HALF, 1 + Fraction(1, 2**60), 0)]
    else:
        branches = [(HALF + Fraction(1, 2**70), 1, 1), (HALF - Fraction(1, 2**70), 1, 0)]
    if reversed_order:
        branches.reverse()
    m = mdp_of(0, [branches], [[(1, 0, 1)]])
    ((a, b),) = [t.branches for t in m.transitions[0]]
    assert a[:2] == b[:2]  # the floats tie on both fields
    assert reward_upper_init(m, [1], "min", []) == [math.nextafter(2.0, math.inf), 0.0]


@pytest.mark.parametrize("reward, restart", [(1, "1/4"), ("1/3", "1/2"), ("1/10", "3/10")])
def test_emax_reward_bound_rounds_outward(reward, restart):
    # One state that pays `reward` per step and falls back to itself with
    # probability `restart`: its value r / (1 - restart) is the bound itself.
    # Rounded to nearest, the bound lands below the value in each of these:
    # at the quotient 1/0.75, at the reward 1/3, and at 1/10 and 7/10.
    r, q = Fraction(reward), Fraction(restart)
    m = mdp_of(0, [[(q, r, 0), (1 - q, r, 1)]], [[(1, 0, 1)]])
    exact = r / (1 - q)
    assert oracle_values(m, make_property("emax", [1]))[0] == exact
    bound = reward_upper_init(m, [1], "max", [])[0]
    assert exact <= Fraction(bound) <= exact * (1 + Fraction(1, 10**14))


@pytest.mark.parametrize("n, p", BENCHMARK_CHAINS)
def test_emax_reward_bound_on_benchmark_chains(n, p):
    # On a restarting chain a path from s_k reaches the goal without coming
    # back with probability exactly p**(n-k), so the bound is the exact value.
    model = make_goals_absorbing(generate_slow_chain(n, p).model, [n])
    exact = oracle_exact(model, make_property("emax", [n]))
    bounds = reward_upper_init(model, [n], "max", s_infinity(model, [n], "max"))
    assert bounds[n] == 0.0 and len(set(bounds[:n])) == 1
    assert exact <= Fraction(bounds[0]) <= exact * (1 + Fraction(1, 10**8))


@pytest.mark.parametrize("n, p, sweeps", [(n, p, sweeps) for (n, p), sweeps in zip(
    BENCHMARK_CHAINS, ({"goal-distance": 6713, "forward": 13321},
                       {"goal-distance": 5740, "forward": 17048},
                       {"goal-distance": 3097, "forward": 12172},
                       {"goal-distance": 793, "forward": 7485}))])
def test_interval_iteration_from_emax_bound_brackets_chain_values(n, p, sweeps):
    # The upper vector starts within ulps of the value.  On chain-16 the float
    # sweeps of the goal-distance order end one ulp below 14324331/8192, so
    # the certificate rests on the widening of its upper end.
    doc = generate_slow_chain(n, p)
    prop = make_property("emax", [n], 1e-6)
    exact = oracle_exact(make_goals_absorbing(doc.model, [n]), prop)
    for order, count in sweeps.items():
        out = solve(doc.model, prop, SolveOptions(method="ii", order=order)).outcome
        assert out.certified and out.status == "ok"
        assert out.iterations == count
        assert Fraction(out.lower_bound) <= exact <= Fraction(out.upper_bound)


@pytest.mark.parametrize("seed, sweeps", [(3, 20872), (2, None)])
def test_stiff_emax_interval_iteration_certifies(seed, sweeps):
    # From n * r_max / q_min**n interval iteration needed 195 729 sweeps on
    # seed 3 and did not finish within 200 000 on seed 2.  The oracle's
    # scheduler guard refuses these models, so OVI's interval is the referee.
    doc = generate_random(seed, 50, 3, 4, 4, 1)
    prop = make_property("emax", sorted(doc.declared_goals), 1e-6)
    ii, ref = (solve(doc.model, prop, SolveOptions(method=m, max_sweeps=200_000)).outcome
               for m in ("ii", "ovi"))
    assert ii.certified and ii.status == "ok" and ref.certified
    if sweeps is not None:
        assert ii.iterations == sweeps
    assert ii.lower_bound <= ref.upper_bound and ref.lower_bound <= ii.upper_bound


@pytest.mark.parametrize("branches", [
    [(Fraction(3, 2), 1, 1), (Fraction(-1, 2), 1, 0)],   # a negative weight
    [(HALF, -1, 1), (HALF, 1, 0)],                         # a negative reward
    [(HALF, Fraction(-1, 10**400), 1), (HALF, 1, 0)],      # one whose float is -0.0
])
def test_emax_reward_bound_refuses_negative_fields(branches):
    # pipeline.solve does not validate a hand-built model; the bound's argument
    # needs weights in (0, 1] and rewards >= 0, so it refuses the rest.
    m = mdp_of(0, [branches], [[(1, 0, 1)]])
    with pytest.raises(SolverError, match="no finite reward upper bound"):
        reward_upper_init(m, [1], "max", [])


def test_emax_reward_bound_refuses_an_unprocessed_state():
    # With s-infinity left out, state 0 (free of rewards, but able to stay
    # put) has a choice that never reaches a processed state.
    m = mdp_of(0, [[(1, 0, 0)], [(1, 0, 1)]], [[(1, 1, 2)]], [[(1, 0, 2)]])
    assert s_infinity(m, [2], "max") == {0}
    bounds = reward_upper_init(m, [2], "max", [0])
    assert bounds[0] == math.inf and 1.0 < bounds[1] < 1.0 + 1e-14 and bounds[2] == 0.0
    with pytest.raises(SolverError, match="no finite reward upper bound"):
        reward_upper_init(m, [2], "max", [])


def test_rounding_widened_covers_the_sweeps_rounding():
    # 2 sweeps over 1 unknown with choices of at most 2 branches: the upper
    # end grows by at least 2 * (2 + 3) * 2 * 2**-53 relative.
    m = mdp_of(0, [[(HALF, 1, 0), (HALF, 1, 1)]], [[(1, 0, 1)]])
    problem = reward_problem(m, [1], "max", [])
    out = solvers.SolveOutcome(2.0, 1.5, 2.0, 2, method="ii", certified=True)
    widened = solvers.rounding_widened(problem, out, math.inf)
    assert Fraction(widened.upper_bound) >= 2 * (1 + Fraction(20, 2**53))
    assert widened.lower_bound == 1.5 and widened.value == 0.5 * (1.5 + widened.upper_bound)
    assert solvers.rounding_widened(problem, out, 2.0).upper_bound == 2.0


def test_rounding_widened_checks_its_new_outcome():
    # The widened outcome is built anew, so its bracket check runs again: an
    # upper start below the outcome's lower end cannot bracket the value.
    m = mdp_of(0, [[(HALF, 1, 0), (HALF, 1, 1)]], [[(1, 0, 1)]])
    problem = reward_problem(m, [1], "max", [])
    out = solvers.SolveOutcome(2.0, 1.5, 2.0, 2, method="ii", certified=True)
    with pytest.raises(SolverError, match="outcome bounds do not bracket the value"):
        solvers.rounding_widened(problem, out, 1.0)


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
