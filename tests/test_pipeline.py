from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from soundmdp import (ErrorCriterion, Mdp, PipelineError, SolveOptions, SolveTimeout,
                      SolverError, eliminate_end_components, generate_random,
                      generate_slow_chain, make_goals_absorbing, make_property,
                      mec_decomposition, oracle_exact, ovi, rebase_initial, reward_problem,
                      s_infinity, solve, strip_rewards)
from soundmdp import graph, pipeline, solvers
from soundmdp.graph import goal_distance_order, predecessor_index

from conftest import (HALF, clear_caches, count_generic_sweeps, spy_runners, trap_beside_chain,
                      trap_instance)


def test_pipeline_pmax_golden_run(me_doc):
    prop = make_property("pmax", [1], 0.05, "absolute")
    res = solve(me_doc.model, prop, SolveOptions(method="ovi", error_mode="absolute",
                                                 order="forward"))
    out = res.outcome
    assert out.value == pytest.approx(0.49902848, abs=1e-12)
    assert out.iterations == 10
    assert out.verification_phases == 2
    assert out.certified
    assert "prob0(1 states)" in res.applied


def test_pipeline_pmax_golden_run_default_order(me_doc):
    # Goal-distance order visits s0 and s2 (one step from s+) before s1 (two
    # steps): one sweep less, the same phases and the same interval.
    prop = make_property("pmax", [1], 0.05, "absolute")
    options = SolveOptions(method="ovi", error_mode="absolute")
    assert options.order == "goal-distance"
    res = solve(me_doc.model, prop, options)
    out = res.outcome
    assert _outcome_hex(res)[0] == [x.hex() for x in (0.4990284800000001, 0.4790284800000001,
                                                      0.5190284800000001)]
    assert (out.iterations, out.verification_phases, out.cancelled_verifications) == (9, 2, 1)
    assert out.certified and out.status == "ok"


def test_pipeline_min_reward_trap_documented(me_doc):
    prop = make_property("emin", [1, 2])
    res = solve(me_doc.model, prop, SolveOptions(method="vi", ec_elim="off"))
    assert res.outcome.value == 0.0
    assert not res.outcome.certified
    assert any("end components" in w for w in res.warnings)
    assert res.outcome.iterations == 1  # the spurious fixed point is hit immediately


def test_pipeline_min_reward_with_elimination(me_doc):
    prop = make_property("emin", [1, 2], 1e-6)
    res = solve(me_doc.model, prop, SolveOptions(method="ovi"))
    out = res.outcome
    assert out.certified
    assert abs(out.value - 0.6) <= 1e-6 * 0.6
    assert any(step.startswith("ec-elimination") for step in res.applied)
    res_ii = solve(me_doc.model, prop, SolveOptions(method="ii"))
    assert abs(res_ii.outcome.value - 0.6) <= 1e-6 * 0.6


def test_pipeline_requirement_rejections(me_doc):
    prop = make_property("pmax", [1])
    with pytest.raises(PipelineError, match="unique fixed point"):
        solve(me_doc.model, prop, SolveOptions(method="ii", precomp="none"))
    with pytest.raises(PipelineError, match="elimination for pmax"):
        solve(me_doc.model, prop, SolveOptions(method="ii", ec_elim="off"))
    with pytest.raises(PipelineError, match="elimination for emin"):
        solve(me_doc.model, make_property("emin", [1, 2]),
              SolveOptions(method="ii", ec_elim="off"))


@pytest.mark.parametrize("kind, options, eliminated", [
    ("pmax", SolveOptions(method="ovi"), False),
    ("pmax", SolveOptions(method="ovi", ec_elim="force"), True),
    ("pmax", SolveOptions(method="ii"), True),
    ("pmax", SolveOptions(method="ii", ec_elim="force"), True),
    ("pmin", SolveOptions(method="ii"), False),
    ("emax", SolveOptions(method="vi"), False),
    ("emin", SolveOptions(method="vi"), True),
    ("emin", SolveOptions(method="oracle", ec_elim="off"), False),
], ids=["pmax-ovi", "pmax-ovi-forced", "pmax-ii", "pmax-ii-forced", "pmin-ii",
        "emax-vi", "emin-vi", "emin-oracle-off"])
def test_pipeline_eliminates_end_components_where_needed(me_doc, kind, options, eliminated):
    prop = make_property(kind, [1] if kind.startswith("p") else [1, 2])
    res = solve(me_doc.model, prop, options)
    assert any(step.startswith("ec-elimination") for step in res.applied) == eliminated


def test_pipeline_infinite_reward_initial_state(me_doc):
    # The adversary can avoid {s+, s-} forever, so the max expected reward
    # from s0 is infinite and no iteration happens.
    res = solve(me_doc.model, make_property("emax", [1, 2]), SolveOptions(method="ovi"))
    assert res.outcome.value == math.inf
    assert res.outcome.certified
    assert res.outcome.iterations == 0


def test_pipeline_early_exit_goal_initial(me_doc):
    model = rebase_initial(me_doc.model, 1)
    assert solve(model, make_property("pmax", [1])).outcome.value == 1.0
    assert solve(model, make_property("emax", [1])).outcome.value == 0.0


def test_pipeline_early_exit_probability_zero(me_doc):
    model = rebase_initial(me_doc.model, 2)
    res = solve(model, make_property("pmax", [1]))
    assert res.outcome.value == 0.0 and res.outcome.certified
    assert res.outcome.iterations == 0


def test_pipeline_pmin_trap_value(me_doc):
    res = solve(me_doc.model, make_property("pmin", [1]))
    assert res.outcome.value == 0.0 and res.outcome.certified


def test_pipeline_prob1_fixes_sure_states():
    doc = generate_random(11, 6, 2, 2, Fraction(2), 1, min_reward=Fraction(1, 4))
    prop = make_property("pmax", sorted(doc.declared_goals))
    res = solve(doc.model, prop, SolveOptions(method="ovi"))
    assert res.outcome.value == 1.0 and res.outcome.iterations == 0  # prob1 covers s0


def test_pipeline_required_precomp_settles_value_one_states():
    # Without prob1 the lower iterate creeps towards 1 inside the end
    # component and OVI ends without a certificate.
    doc = generate_random(0, 8, 3, 3, 4, 2, allow_end_components=True)
    res = solve(doc.model, make_property("pmax", doc.declared_goals))
    assert res.outcome.certified and res.outcome.status == "ok"
    assert res.outcome.value == res.outcome.lower_bound == res.outcome.upper_bound == 1.0
    assert res.outcome.iterations == 0
    assert "prob1(8 states)" in res.applied


@pytest.mark.parametrize("options", [SolveOptions(method="vi", precomp="none", epsilon_vi=1e-15,
                                                  error_mode="absolute"),
                                     SolveOptions(method="ovi", precomp="none")],
                         ids=["vi", "ovi"])
def test_pipeline_probability_bounds_never_exceed_one(options):
    # Summation rounding lifts the lower iterate to 1.0000000000000002 here.
    doc = generate_random(30, 40, 3, 4, 4, 4, allow_end_components=True)
    out = solve(doc.model, make_property("pmax", doc.declared_goals), options).outcome
    assert out.value <= 1.0 and out.lower_bound <= 1.0


def test_pipeline_decided_initial_state_skips_end_components(me_doc, monkeypatch):
    calls = []

    def counting(model, **kwargs):
        calls.append(model.num_states)
        return mec_decomposition(model, **kwargs)

    monkeypatch.setattr("soundmdp.pipeline.mec_decomposition", counting)
    doc = generate_random(0, 8, 3, 3, 4, 2, allow_end_components=True)
    prob1_everywhere = make_property("pmax", doc.declared_goals)
    for model, prop in ((doc.model, prob1_everywhere),
                        (rebase_initial(me_doc.model, 2), make_property("pmax", [1])),
                        (rebase_initial(me_doc.model, 1), make_property("emin", [1, 2]))):
        for method in ("vi", "ovi", "ii"):
            res = solve(model, prop, SolveOptions(method=method))
            assert res.outcome.certified or method == "vi"
            assert not res.warnings
            assert not any(step.startswith("ec-elimination") for step in res.applied)
    assert calls == []
    # Forced elimination still runs and still warns; the oracle keeps its path.
    res = solve(doc.model, make_property("pmin", doc.declared_goals),
                SolveOptions(method="ovi", ec_elim="force"))
    assert any(step.startswith("ec-elimination") for step in res.applied)
    assert any("not guaranteed to preserve" in w for w in res.warnings)
    assert len(calls) == 1
    solve(rebase_initial(me_doc.model, 1), make_property("emin", [1, 2]),
          SolveOptions(method="oracle"))
    assert len(calls) == 2


def test_pipeline_orders_agree(me_doc, monkeypatch):
    prop = make_property("pmax", [1], 1e-6)
    base = solve(me_doc.model, prop, SolveOptions(method="ovi"))
    for order in ("reverse", "random:7"):
        res = solve(me_doc.model, prop, SolveOptions(method="ovi", order=order))
        assert res.outcome.certified
        assert abs(res.outcome.value - base.outcome.value) <= 2e-6
    # The seed is part of the option: a random order reproduces exactly,
    # whatever the environment holds.
    model, goals = trap_instance(1, 30)  # pmax strictly between 0 and 1 at state 0
    prop = make_property("pmax", goals, 1e-6)
    runs = [_outcome_hex(solve(model, prop, SolveOptions(method="ovi", order=f"random:{seed}")))
            for seed in (1, 1, 99)]
    assert runs[0] == runs[1] != runs[2]
    monkeypatch.setenv("SOUNDMDP_SEED", "99")
    assert _outcome_hex(solve(model, prop,
                              SolveOptions(method="ovi", order="random:1"))) == runs[0]


@pytest.mark.parametrize("method", ["ovi", "ii"])
def test_goal_distance_order_cuts_slow_chain_sweeps(method):
    # Values flow back from the goal; id order carries them one state per
    # sweep, goal-distance order through the whole chain in one.
    doc = generate_slow_chain(10, HALF)
    prop = make_property("emax", [10], 1e-6)
    model = make_goals_absorbing(doc.model, [10])
    exact = oracle_exact(model, prop)
    if method == "ovi":
        # On a unique-fixed-point problem a policy-evaluation guess certifies
        # either order after 65 sweeps; without one, OVI's own guesses
        # measure the order.
        def chain_ovi(order):
            problem = reward_problem(model, [10], "max", s_infinity(model, [10], "max"))
            if order == "goal-distance":
                order = goal_distance_order(model, frozenset([10]), problem.unknowns)
            else:
                order = problem.default_order()
            return ovi(problem, ErrorCriterion("relative", 1e-6), prop, order)

        outcomes = {order: chain_ovi(order) for order in ("forward", "goal-distance")}
    else:
        outcomes = {order: solve(doc.model, prop, SolveOptions(method=method, order=order)).outcome
                    for order in ("forward", "goal-distance")}
    for out in outcomes.values():
        assert out.certified and out.status == "ok"
        assert Fraction(out.lower_bound) <= exact <= Fraction(out.upper_bound)
    # ii starts its upper vector from the emax bound, which on this chain
    # lies a few ulps above the exact value.
    assert outcomes["forward"].iterations == {"ovi": 14046, "ii": 13321}[method]
    assert outcomes["goal-distance"].iterations < outcomes["forward"].iterations / 1.9


def test_decided_request_computes_no_order(me_doc, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an order was computed for a solve that runs no sweep")

    def no_bound(*args, **kwargs):
        raise SolverError("no bound")

    monkeypatch.setattr("soundmdp.pipeline.goal_distance_order", refuse)
    chain = generate_slow_chain(10, HALF)
    decided = [(chain.model, make_property("pmax", [10]), {}),  # prob1 holds s0
               (me_doc.model, make_property("emax", [1, 2]), {}),  # s0 has infinite reward
               (rebase_initial(me_doc.model, 2), make_property("pmin", [1]),
                {"ec_elim": "force"})]  # prob0 holds s-, elimination runs anyway
    for model, prop, extra in decided:
        for method in ("vi", "ovi", "ii"):
            out = solve(model, prop, SolveOptions(method=method, **extra)).outcome
            assert out.iterations == 0
    # Interval iteration asks for the order only once its upper start exists.
    monkeypatch.setattr("soundmdp.pipeline.reward_upper_init", no_bound)
    with pytest.raises(SolverError, match="no bound"):
        solve(chain.model, make_property("emax", [10]), SolveOptions(method="ii"))
    # An undecided request computes it once.
    calls = _spy(monkeypatch, "goal_distance_order", goal_distance_order)
    solve(chain.model, make_property("emax", [10]), SolveOptions(method="ovi"))
    assert calls == [[9, 8, 7, 6, 5, 4, 3, 2, 1, 0]]


@pytest.mark.parametrize("method", ["ovi", "ii"])
def test_decided_reward_request_needs_no_upper_start(method):
    # s-infinity decides the initial state, so no sweep runs and interval
    # iteration needs no reward bound, which the chain beside it makes
    # infinite.
    model, goals = trap_beside_chain()
    prop = make_property("emax", goals)
    out = solve(model, prop, SolveOptions(method=method)).outcome
    assert (out.value, out.lower_bound, out.upper_bound) == (math.inf,) * 3
    assert out.certified and out.status == "ok" and out.iterations == 0
    if method == "ii":
        # From the chain's own start the request is undecided and still fails.
        with pytest.raises(SolverError, match="no finite reward upper bound"):
            solve(rebase_initial(model, 0), prop, SolveOptions(method=method))


def test_goal_distance_order_reproduces(me_doc):
    model, goals = trap_instance(1, 30)
    requests = [(model, make_property("pmax", goals), "ovi"),
                (model, make_property("pmax", goals), "ii"),
                (me_doc.model, make_property("emin", [1, 2]), "ovi")]
    for m, prop, method in requests:
        runs = [_outcome_hex(solve(m, prop, SolveOptions(method=method))) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][1] > 0 and runs[0][4]  # swept, and certified


@pytest.mark.parametrize("field, value, message", [
    ("epsilon_vi", math.nan, "epsilon-vi must be a positive finite real"),
    ("epsilon_vi", 0.0, "epsilon-vi must be a positive finite real"),
    ("epsilon_vi", -1e-3, "epsilon-vi must be a positive finite real"),
    ("epsilon_vi", math.inf, "epsilon-vi must be a positive finite real"),
    ("max_sweeps", -5, "max-sweeps must be a positive integer"),
    ("max_sweeps", 0, "max-sweeps must be a positive integer"),
    ("max_sweeps", 1e6, "max-sweeps must be a positive integer"),
    ("timeout", math.nan, "timeout must be a positive number"),
    ("timeout", -1.0, "timeout must be a positive number"),
    ("timeout", 0.0, "timeout must be a positive number"),  # once meant no limit
    ("error_mode", "squared", "unknown error mode"),
    ("precomp", "all", "unknown precomp mode"),  # retired: `ec_elim="force"` does its work
    ("order", "bogus", "unknown iteration order"),
    ("order", "randomly", "unknown iteration order"),
    ("order", "random:x", "malformed random order seed"),
    ("order", "random:1_0", "malformed random order seed '1_0'"),
    ("order", "random:\u0663", "malformed random order seed '\u0663'"),  # ARABIC-INDIC DIGIT THREE
    ("order", "random: 7", "malformed random order seed ' 7'"),
])
def test_solve_options_reject_bad_fields(field, value, message):
    with pytest.raises(PipelineError, match=message):
        SolveOptions(**{field: value})


def test_solve_options_accept_every_order():
    for order in ("goal-distance", "forward", "reverse", "random", "random:7", "random:-3"):
        assert SolveOptions(order=order).order == order
    assert SolveOptions().order == "goal-distance"
    assert SolveOptions(max_sweeps=1, epsilon_vi=1e-300, timeout=1e-9).max_sweeps == 1


def test_pipeline_oracle_method(me_doc):
    res = solve(me_doc.model, make_property("emin", [1, 2]), SolveOptions(method="oracle"))
    assert res.exact_value == Fraction(3, 5)
    assert res.outcome.value == 0.6
    assert res.outcome.certified and res.outcome.method == "oracle"


def _advancing(clock, fn, seconds):
    """`fn`, advancing the fake clock `clock` (a one-item list) first."""
    def call(*args, **kwargs):
        clock[0] += seconds
        return fn(*args, **kwargs)
    return call


def test_solve_time_counts_the_upper_start_and_the_order(me_doc, monkeypatch):
    # A clock that only the wrapped steps advance: interval iteration's
    # upper start takes 1 s, the goal-distance order 10 s and an oracle
    # call 100 s.  Each counts in solve_time and in no other phase.
    clock = [0.0]
    monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    for name, seconds in (("reward_upper_init", 1.0), ("goal_distance_order", 10.0),
                          ("oracle_values", 100.0)):
        monkeypatch.setattr(pipeline, name, _advancing(clock, getattr(pipeline, name), seconds))
    chain = generate_slow_chain(10, HALF)
    for model, prop, method, seconds in (
            (chain.model, make_property("emax", [10]), "ii", 11.0),
            (chain.model, make_property("emax", [10]), "ovi", 10.0),
            (me_doc.model, make_property("emin", [1, 2]), "oracle", 100.0)):
        result = solve(model, prop, SolveOptions(method=method))
        assert result.outcome.certified and result.outcome.iterations > 0 or method == "oracle"
        times = (result.precomp_time, result.transform_time, result.solve_time)
        assert times == (0.0, 0.0, seconds)


@pytest.mark.parametrize("method", ["vi", "ovi", "ii", "oracle"])
def test_an_outcome_holds_no_time(me_doc, method):
    # An outcome holds only what the solver proved, so two runs of one
    # request give outcomes equal slot by slot.
    for kind, goals in (("pmax", [1]), ("emin", [1, 2])):
        outcomes = [solve(me_doc.model, make_property(kind, goals), SolveOptions(method=method))
                    .outcome for _ in range(2)]
        slots = [[getattr(out, k) for k in out.__slots__] for out in outcomes]
        assert slots[0] == slots[1]
        assert outcomes[0].iterations > 0 or method == "oracle"


def test_pipeline_force_elimination_warns_for_pmin(me_doc):
    res = solve(me_doc.model, make_property("pmin", [1]),
                SolveOptions(method="ovi", ec_elim="force"))
    assert any("not guaranteed to preserve" in w for w in res.warnings)
    assert not res.outcome.certified


def test_pipeline_timeout():
    doc = generate_slow_chain(12, Fraction(1, 2))
    with pytest.raises(SolveTimeout):
        solve(doc.model, make_property("emax", [12]),
              SolveOptions(method="vi", timeout=1e-4))


def test_pipeline_epsilon_vi_is_configurable(me_doc):
    # A finer first iteration phase reaches a better lower value before the
    # first guess, changing the sweep pattern but not the certified answer.
    prop = make_property("pmax", [1], 0.05, "absolute")
    default = solve(me_doc.model, prop, SolveOptions(method="ovi", error_mode="absolute"))
    finer = solve(me_doc.model, prop, SolveOptions(method="ovi", error_mode="absolute",
                                                   epsilon_vi=0.001))
    assert finer.outcome.iterations != default.outcome.iterations
    assert finer.outcome.certified
    assert abs(finer.outcome.value - 0.5) <= 0.05


def _outcome_hex(result):
    o = result.outcome
    bits = [None if x is None else float(x).hex() for x in (o.value, o.lower_bound, o.upper_bound)]
    return (bits, o.iterations, o.verification_phases, o.cancelled_verifications,
            o.certified, o.status)


@pytest.mark.parametrize("method", ["vi", "ovi", "ii"])
@pytest.mark.parametrize("kind", ["pmax", "pmin", "emax", "emin"])
def test_compiled_sweeps_change_no_outcome(kind, method, monkeypatch):
    # From an empty runner cache an unreachable threshold keeps every sweep
    # generic, and threshold 1 compiles interval iteration's phase after its
    # first sweep and stores its runner; the unreachable threshold then runs
    # the stored runner from sweep 0.  Outcomes must match bit for bit.
    docs = [generate_random(3, 12, 3, 4, 4, 1),
            generate_random(5, 16, 3, 4, 4, 2, allow_end_components=True),
            generate_slow_chain(10, Fraction(1, 2))]
    for doc in docs:
        prop = make_property(kind, doc.declared_goals)
        for order in ("forward", "reverse"):
            for error_mode in ("relative", "absolute"):
                options = SolveOptions(method=method, order=order, error_mode=error_mode,
                                       max_sweeps=40_000)
                outcomes = []
                clear_caches()
                for threshold in (10**18, 1, 10**18):
                    monkeypatch.setattr("soundmdp.solvers.COMPILE_AFTER_SWEEPS", threshold)
                    try:
                        outcomes.append(_outcome_hex(solve(doc.model, prop, options)))
                    except Exception as exc:  # the same failure on both tiers
                        outcomes.append((type(exc).__name__, str(exc)))
                assert outcomes[0] == outcomes[1] == outcomes[2]


#: the slow chains of the benchmark's `sweep` workload (perfbench's CHAIN_PARAMS)
BENCHMARK_CHAINS = ((10, Fraction(1, 2)), (16, Fraction(2, 3)), (20, Fraction(3, 4)),
                    (40, Fraction(9, 10)))


@pytest.mark.parametrize("n, p", BENCHMARK_CHAINS)
def test_benchmark_chain_emax_ii_runs_one_compiled_runner(n, p, monkeypatch):
    # The one compiled form the benchmark runs: from an empty runner cache,
    # interval iteration on the slow chains passes the switch after
    # COMPILE_AFTER_SWEEPS generic sweeps, compiles one runner and hands it
    # the rest of its phase, with the outcome of an unreachable threshold.
    doc = generate_slow_chain(n, p)
    prop = make_property("emax", doc.declared_goals)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 10**18)
        generic = _outcome_hex(solve(doc.model, prop, SolveOptions(method="ii")))
    compiled, ran = spy_runners(monkeypatch)
    sweeps = count_generic_sweeps(monkeypatch)
    result = solve(doc.model, prop, SolveOptions(method="ii"))
    assert result.outcome.certified and result.outcome.iterations > solvers.COMPILE_AFTER_SWEEPS
    assert len(compiled) == 1 and compiled[0] is not None
    assert ran == [result.outcome.iterations] and len(sweeps) == solvers.COMPILE_AFTER_SWEEPS
    assert _outcome_hex(result) == generic


def test_warm_benchmark_chains_emax_ii_run_no_generic_sweep(monkeypatch):
    # Repeated in one process, as the benchmark's worker repeats them, the
    # four chain emax/ii solves find their runners cached and run them from
    # sweep 0: no generic sweep and no compile, and every outcome hex-equal
    # to an all-generic solve.
    requests = [(doc.model, make_property("emax", doc.declared_goals))
                for doc in (generate_slow_chain(n, p) for n, p in BENCHMARK_CHAINS)]
    options = SolveOptions(method="ii")
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "COMPILE_AFTER_SWEEPS", 10**18)
        generic = [_outcome_hex(solve(model, prop, options)) for model, prop in requests]
    assert len(solvers._RUNNERS) == 0
    compiled, ran = spy_runners(monkeypatch)
    cold = [_outcome_hex(solve(model, prop, options)) for model, prop in requests]
    assert len(compiled) == len(solvers._RUNNERS) == 4 and None not in compiled
    compiled.clear()
    ran.clear()
    sweeps = count_generic_sweeps(monkeypatch)
    warm = [_outcome_hex(solve(model, prop, options)) for model, prop in requests]
    assert warm == cold == generic
    assert not sweeps and not compiled and ran == [o[1] for o in warm] == [6713, 5740, 3097, 793]


def _spy(monkeypatch, name, fn):
    """Replace soundmdp.pipeline's `name` by a wrapper recording each call's result."""
    results = []

    def wrapper(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(f"soundmdp.pipeline.{name}", wrapper)
    return results


def test_solve_builds_one_predecessor_index_per_model(monkeypatch):
    # One index serves prob0/prob1 or s-infinity, the MEC decomposition, the
    # emax upper start and the goal-distance order; only an elimination that
    # collapses a component makes a model with other targets, and a second
    # index for it.
    builds = []

    def counting(model):
        builds.append(model.num_states)
        return predecessor_index(model)

    for module in (graph, pipeline, solvers):
        monkeypatch.setattr(module, "predecessor_index", counting)
    ec_free = generate_random(1, 12, 3, 3, 4, 2)
    with_ec = generate_random(30, 40, 3, 4, 4, 4, allow_end_components=True)
    trap, trap_goals = trap_instance(1, 30)
    for model, goals, kind, method, states in (
            (trap, trap_goals, "pmax", "ovi", [30]),
            (ec_free.model, ec_free.declared_goals, "emin", "ovi", [12]),  # identity quotient
            (ec_free.model, ec_free.declared_goals, "emax", "ii", [12]),
            (trap, trap_goals, "pmax", "ii", [30, 29]),
            (with_ec.model, with_ec.declared_goals, "emin", "ovi", [40, 39]),
            (with_ec.model, with_ec.declared_goals, "emin", "ii", [40, 39])):
        builds.clear()
        res = solve(model, make_property(kind, goals), SolveOptions(method=method))
        assert res.outcome.certified and res.outcome.iterations > 0
        assert builds == states, (kind, method)


def test_a_reused_index_orders_like_a_fresh_one(me_doc, monkeypatch):
    # Under ovi the pmax sweeps run on the reward-stripped copy, and the
    # goal-distance order reads the index of the goal-absorbed model; after
    # a collapse (ii, emin) it reads the quotient's own.  A fresh index of
    # the solved model gives the same order either way.
    orders = []

    def both(model, sources, unknowns, *, pred):
        orders.append((goal_distance_order(model, sources, unknowns, pred=pred),
                       goal_distance_order(model, sources, unknowns)))
        return orders[-1][0]

    monkeypatch.setattr(pipeline, "goal_distance_order", both)
    for kind, goals, method in (("pmax", [1], "ovi"), ("pmax", [2], "ovi"),
                                ("pmax", [1], "ii"), ("emin", [1, 2], "ovi")):
        res = solve(me_doc.model, make_property(kind, goals), SolveOptions(method=method))
        assert res.outcome.certified
    assert orders == [([0, 4, 3],) * 2, ([0, 4, 3],) * 2, ([0, 3],) * 2, ([0, 3],) * 2]


@pytest.mark.parametrize("method", ["vi", "ovi", "ii"])
@pytest.mark.parametrize("kind", ["pmax", "pmin"])
def test_decided_probability_request_copies_nothing(kind, method, monkeypatch):
    # prob1 decides state 0 here; prob0 and prob1 read only the structure,
    # so neither the reward-stripped copy nor the MEC decomposition is made.
    doc = generate_random(11, 6, 2, 2, Fraction(2), 1, min_reward=Fraction(1, 4))
    stripped = _spy(monkeypatch, "strip_rewards", strip_rewards)
    mecs = _spy(monkeypatch, "mec_decomposition", mec_decomposition)
    res = solve(doc.model, make_property(kind, doc.declared_goals), SolveOptions(method=method))
    assert res.outcome.value == 1.0 and res.outcome.iterations == 0
    assert stripped == [] and mecs == []
    assert "strip-rewards" not in res.applied
    # An undecided request strips after the precomputations, before it
    # eliminates end components.
    model, goals = trap_instance(1, 30)
    res = solve(model, make_property("pmax", goals), SolveOptions(method=method, ec_elim="force"))
    assert len(stripped) == len(mecs) == 1
    steps = [step.split("(")[0] for step in res.applied]
    assert steps == ["absorb-goals", "prob0", "prob1", "strip-rewards", "ec-elimination"]


@pytest.mark.parametrize("method", ["vi", "ovi", "ii", "oracle"])
def test_duplicate_transition_solves_like_its_deduplicated_copy(method, monkeypatch):
    # The identity quotient keeps a duplicate choice that full elimination
    # would drop; a duplicate never changes a state's optimal value, so the
    # outcome is the same to the last bit.
    doc = generate_random(6, 9, 3, 4, 4, 2)  # small enough for the oracle
    model = doc.model
    dup = Mdp(model.num_states, model.initial,
              tuple(ts + ts if s % 3 == 0 and s not in doc.declared_goals else ts
                    for s, ts in enumerate(model.transitions)))
    assert dup != model
    quotients = _spy(monkeypatch, "eliminate_end_components", eliminate_end_components)
    prop = make_property("emin", doc.declared_goals)
    outcomes = [_outcome_hex(solve(m, prop, SolveOptions(method=method))) for m in (model, dup)]
    assert outcomes[0] == outcomes[1]
    assert [len(qm.quotient.transitions[0]) for qm in quotients] == \
        [len(model.transitions[0]), 2 * len(model.transitions[0])]
