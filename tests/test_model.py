from __future__ import annotations

import gc
import sys
import threading
from fractions import Fraction

import pytest

from soundmdp import (Branch, ModelError, ParseError, PipelineError, SolveOptions,
                      Transition, branch, exact, generate_random, make_goals_absorbing,
                      make_property, parse_explicit, probability_problem, rebase_initial,
                      solve, strip_rewards, transition, validate, write_explicit)
from soundmdp.model import Mdp, collector_paused

from conftest import mdp_of, trap_instance


def test_exact_coercions():
    assert exact("0.1") == Fraction(1, 10)
    assert exact("1/3") == Fraction(1, 3)
    assert exact("1e-3") == Fraction(1, 1000)
    assert exact(0.5) == Fraction(1, 2)
    # Floats coerce to their binary64 value, not the decimal they were typed as.
    assert exact(0.1) != Fraction(1, 10)


def test_validate_example_model_clean(me_doc):
    assert validate(me_doc.model) == []


def test_validate_minimal_self_loop():
    assert validate(mdp_of(0, [[(1, 0, 0)]])) == []


def test_validate_bad_probability_sum():
    m = mdp_of(0, [[("0.5", 0, 0), ("0.4", 0, 0)]])
    problems = validate(m)
    assert len(problems) == 1
    assert problems[0].state == 0 and problems[0].transition == 0
    assert "sum to 0.9" in problems[0].message


def test_validate_reports_each_rule():
    m = mdp_of(0, [[("1.5", 0, 0)]], [[(1, -2, 0)]], [[(1, 0, 9)]], [])
    messages = [v.message for v in validate(m)]
    assert any("outside (0,1]" in msg for msg in messages)
    assert any("reward" in msg for msg in messages)
    assert any("out of range" in msg for msg in messages)
    assert any("no transitions" in msg for msg in messages)


def test_validate_accepts_close_sum():
    # Two decimal halves of 3 thirds: floats sum to 1 within 1e-9.
    m = mdp_of(0, [[("0.333333333", 0, 0), ("0.666666667", 0, 0)]])
    assert validate(m) == []


def test_make_goals_absorbing(me_doc):
    absorbed = make_goals_absorbing(me_doc.model, [1, 2])
    for g in (1, 2):
        (only,) = absorbed.transitions[g]
        (b,) = only.branches
        assert (b.probability, b.reward, b.target) == (1.0, 0.0, g)
        assert b.probability_exact == 1 and b.reward_exact == 0
    assert absorbed.transitions[0] == me_doc.model.transitions[0]


def test_make_goals_absorbing_idempotent(me_doc):
    once = make_goals_absorbing(me_doc.model, [1, 2])
    assert make_goals_absorbing(once, [1, 2]) == once


def test_make_goals_absorbing_replaces_all_transitions():
    m = mdp_of(0, [[(1, 0, 1)]], [[(1, 0, 0)], [("0.5", 1, 0), ("0.5", 0, 1)]])
    absorbed = make_goals_absorbing(m, [1])
    assert len(absorbed.transitions[1]) == 1


def test_make_goals_absorbing_unknown_state(me_doc):
    with pytest.raises(ModelError):
        make_goals_absorbing(me_doc.model, [7])


def test_strip_rewards(me_doc):
    stripped = strip_rewards(me_doc.model)
    a = stripped.transitions[0][0]
    assert [b.reward for b in a.branches] == [0.0, 0.0, 0.0]
    assert all(b.reward_exact == 0 for b in a.branches)
    # Probabilities and structure are untouched.
    assert [b.probability_exact for b in a.branches] == \
        [b.probability_exact for b in me_doc.model.transitions[0][0].branches]
    assert strip_rewards(stripped) == stripped


def test_strip_rewards_single_value():
    m = mdp_of(0, [[(1, "7.5", 0)]])
    assert strip_rewards(m).transitions[0][0].branches[0].reward == 0.0


def test_rebase_initial(me_doc):
    moved = rebase_initial(me_doc.model, 3)
    assert moved.initial == 3
    assert moved.transitions == me_doc.model.transitions
    assert rebase_initial(me_doc.model, me_doc.model.initial) == me_doc.model
    with pytest.raises(ModelError):
        rebase_initial(me_doc.model, 5)


def test_absorb_and_strip_commute(me_doc):
    a = strip_rewards(make_goals_absorbing(me_doc.model, [1, 2]))
    b = make_goals_absorbing(strip_rewards(me_doc.model), [1, 2])
    assert a == b


def test_absorbing_goals_removes_only_goal_violations():
    # State 1 (the goal) and state 2 are both malformed; absorbing the goal
    # must fix exactly the goal's problem and keep the other one.
    bad = Mdp(3, 0, (
        (transition([branch(1, 0, 1)]),),
        (transition([branch("0.3", 0, 1)]),),
        (transition([branch("0.7", 0, 0), branch("0.6", 0, 1)]),),
    ))
    before = {(v.state, v.message) for v in validate(bad)}
    after = {(v.state, v.message) for v in validate(make_goals_absorbing(bad, [1]))}
    assert after == {x for x in before if x[0] != 1}


def test_records_are_immutable():
    b = branch("1/2", 1, 2)
    tr = transition([b, branch("1/2", 0, 0)], "a")
    for record, name in ((b, "probability"), (b, "target"), (b, "reward_exact"),
                         (tr, "branches"), (tr, "label")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        b.note = "no per-instance dict"


def test_records_with_equal_fields_are_equal_and_hash_alike():
    a = Branch(0.5, 1.0, 2, Fraction(1, 2), Fraction(1))
    b = branch("0.5", "1", 2)
    assert a == b and hash(a) == hash(b)
    assert a != branch("0.5", 0, 2) and a != branch("0.5", 1, 3)
    ta, tb = Transition((a, b), "x"), transition([b, a], "x")
    assert ta == tb and hash(ta) == hash(tb)
    assert ta != transition([a, b], "y")
    assert len({ta, tb, transition([a, b])}) == 2


def test_record_fields_defaults_and_repr():
    assert Branch._fields == ("probability", "reward", "target", "probability_exact",
                              "reward_exact")
    assert Transition._fields == ("branches", "label")
    assert Transition((branch(1, 0, 0),)).label is None
    assert transition([branch(1, 0, 0)]).label is None
    assert repr(branch("1/2", 3, 1)) == ("Branch(probability=0.5, reward=3.0, target=1, "
                                         "probability_exact=Fraction(1, 2), "
                                         "reward_exact=Fraction(3, 1))")


def test_kernel_entries_are_the_first_three_fields_of_their_branches():
    doc = generate_random(3, 40, 3, 4, 4, 2)
    problem = probability_problem(doc.model, doc.declared_goals, "max")
    assert len(problem.kernel) == doc.model.num_states
    for ts, kts in zip(doc.model.transitions, problem.kernel):
        assert type(kts) is tuple and len(kts) == len(ts)
        for tr, ktr in zip(ts, kts):
            assert type(ktr) is tuple and len(ktr) == len(tr.branches)
            for b, entry in zip(tr.branches, ktr):
                assert type(entry) is tuple
                assert entry == (b.probability, b.reward, b.target) == b[:3]


def test_collector_paused_restores_the_collector():
    assert gc.isenabled()
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(KeyError):
        with collector_paused():
            raise KeyError("boom")
    assert gc.isenabled()


def test_collector_back_on_after_parse_or_solve_raises(me_doc):
    assert gc.isenabled()
    with pytest.raises(ParseError):
        parse_explicit("mdpx 1\nstates 1\ninitial 0\nstate 0\n transition\n  branch 1 1e400 0\n")
    assert gc.isenabled()
    with pytest.raises(PipelineError):
        solve(me_doc.model, make_property("pmax", [1]), SolveOptions(method="ii", precomp="none"))
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled(me_doc):
    text = write_explicit(me_doc)
    gc.disable()
    try:
        doc = parse_explicit(text)
        assert not gc.isenabled()
        solve(doc.model, make_property("pmax", [1]))
        assert not gc.isenabled()
        generate_random(1, 20, 3, 4, 4, 2)
        assert not gc.isenabled()
        with pytest.raises(ParseError):
            parse_explicit("")
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("method", ["vi", "ovi", "ii"])
@pytest.mark.parametrize("kind", ["pmax", "pmin", "emax", "emin"])
def test_parse_and_solve_leave_no_cyclic_garbage(kind, method):
    # The collector pause relies on this: reference counting alone frees
    # everything parsing and solving build.
    text = write_explicit(generate_random(1, 30, 3, 4, 4, 1))
    gc.collect()
    doc = parse_explicit(text)
    result = solve(doc.model, make_property(kind, doc.declared_goals),
                   SolveOptions(method=method))
    assert result.outcome.status in (("uncertified",) if method == "vi"
                                     else ("ok", "no-certificate"))
    del doc, result
    assert gc.collect() == 0


@pytest.mark.parametrize("method", ["vi", "ovi", "ii"])
def test_compiled_sweeps_leave_no_cyclic_garbage(method, monkeypatch):
    # Interval iteration's compiled phase runner is dropped from the
    # namespace it was exec'd into; otherwise function and globals would
    # form a cycle.  vi and ovi compile nothing.
    monkeypatch.setattr("soundmdp.solvers.COMPILE_AFTER_SWEEPS", 1)
    model, goals = trap_instance(1, 30)  # pmax strictly between 0 and 1 at state 0
    gc.collect()
    result = solve(model, make_property("pmax", goals), SolveOptions(method=method))
    assert result.outcome.iterations > 1
    del model, result
    assert gc.collect() == 0


def test_overlapping_pauses_in_threads_change_no_result():
    text = write_explicit(generate_random(2, 60, 3, 4, 4, 3))
    expected = parse_explicit(text)
    results: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: results.extend(parse_explicit(text) for _ in range(5)))
                   for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 20 and all(doc == expected for doc in results)
    assert gc.isenabled()
