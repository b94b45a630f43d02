from __future__ import annotations

import hashlib
import random
import re
import time
from fractions import Fraction

import pytest

from soundmdp import (GeneratorError, Mdp, ModelDocument, ModelError, ParseError, branch,
                      generate_example_me, generate_random, generate_slow_chain,
                      make_goals_absorbing, make_property, mec_decomposition, oracle_exact,
                      parse_explicit, strip_rewards, transition, validate, write_explicit)
from soundmdp import modelio

ME_TEXT = """
mdpx 1
states 5
initial s0
state 0 s0
  transition a
    branch 0.1 1 s-
    branch 0.1 0 s+
    branch 0.8 1 s0
  transition b
    branch 1 0 s1
state 1 s+
  transition
    branch 1 0 s+
state 2 s-
  transition
    branch 1 0 s-
state 3 s1
  transition
    branch 1 0 s2
state 4 s2
  transition
    branch 1 0 s1
  transition c
    branch 0.6 1 s-
    branch 0.4 0 s+
goal s+
"""


def test_parse_example_model(me_doc):
    doc = parse_explicit(ME_TEXT)
    assert doc.model == me_doc.model
    assert doc.named_states == me_doc.named_states
    assert doc.declared_goals == frozenset([1])
    assert doc.model.num_states == 5
    # Five transitions and eight branches once the absorbing self-loops are set aside.
    absorbing = {1, 2}
    non_absorbing = [t for s in doc.model.states if s not in absorbing
                     for t in doc.model.transitions[s]]
    assert len(non_absorbing) == 5
    assert sum(len(t.branches) for t in non_absorbing) == 8


def test_parse_empty_input():
    with pytest.raises(ParseError):
        parse_explicit("")
    with pytest.raises(ParseError):
        parse_explicit("# only a comment\n")


def test_round_trip_example(me_doc):
    text = write_explicit(ModelDocument(me_doc.model, me_doc.named_states, frozenset([1])))
    again = parse_explicit(text)
    assert again.model == me_doc.model
    assert parse_explicit(write_explicit(again)).model == me_doc.model


def test_round_trip_random_models():
    for seed in range(20):
        doc = generate_random(seed, 5, 2, 3, Fraction(3, 2), 1)
        assert parse_explicit(write_explicit(doc)).model == doc.model


def test_write_formats_whole_reward_as_integer():
    doc = generate_example_me()
    text = write_explicit(ModelDocument(doc.model, {}))
    assert "branch 0.1 1 2" in text
    assert "0.80000000" not in text  # exact decimals print short


def test_fraction_values_round_trip_exactly():
    text = "mdpx 1\nstates 2\ninitial 0\nstate 0\n transition\n  branch 1/3 2/7 1\n  branch 2/3 0 0\nstate 1\n transition\n  branch 1 0 1\n"
    doc = parse_explicit(text)
    b = doc.model.transitions[0][0].branches[0]
    assert b.probability_exact == Fraction(1, 3)
    assert b.reward_exact == Fraction(2, 7)
    again = parse_explicit(write_explicit(doc))
    b2 = again.model.transitions[0][0].branches[0]
    assert b2.probability_exact == Fraction(1, 3) and b2.reward_exact == Fraction(2, 7)


def test_float_sourced_numbers_survive_round_trip():
    from soundmdp import Mdp, branch, transition
    m = Mdp(1, 0, ((transition([branch(1 / 3, 0.1 + 0.2, 0), branch(2 / 3, 0.0, 0)]),),))
    doc = parse_explicit(write_explicit(ModelDocument(m, {})))
    b = doc.model.transitions[0][0].branches[0]
    assert b.probability == 1 / 3
    assert b.reward == 0.1 + 0.2


def test_writer_keys_numbers_by_exact_value():
    # One float, 1/3 rounded, with two exact values: Fraction(1, 3) and the
    # float's own.  The writer formats each distinct number once per call, so
    # its key must hold the exact value; keyed by the float alone, the second
    # branch would be written with the first one's text.
    one_third = Fraction(1 / 3)
    assert float(Fraction(1, 3)) == float(one_third) and Fraction(1, 3) != one_third
    m = Mdp(1, 0, ((transition([branch(Fraction(1, 2), Fraction(1, 3), 0),
                                branch(Fraction(1, 2), one_third, 0)]),),))
    text = write_explicit(ModelDocument(m, {}))
    assert "branch 0.5 1/3 0\n" in text and "branch 0.5 0.33333333333333331 0\n" in text
    again = parse_explicit(text)
    first, second = again.model.transitions[0][0].branches
    assert first == m.transitions[0][0].branches[0]
    assert second.reward == 1 / 3 and second.reward_exact == Fraction("0.33333333333333331")
    assert write_explicit(again) == text


def _labelled_pair(named_states=None, label=None, goals=None, initial=0) -> ModelDocument:
    model = Mdp(2, initial, ((transition([branch(1, 0, 1)], label),),
                             (transition([branch(1, 0, 1)]),)))
    return ModelDocument(model, named_states or {}, goals)


# Each of these documents was once written without complaint, to a text that
# the parser refuses or reads back as another document.
@pytest.mark.parametrize("doc, message", [
    (_labelled_pair({"a b": 1}), "state 1: cannot write label 'a b'"),
    (_labelled_pair({"": 1}), "state 1: cannot write label ''"),
    (_labelled_pair({"7": 1}), "state 1: cannot write label '7'"),
    (_labelled_pair({"x#y": 1}), "state 1: cannot write label 'x#y'"),
    (_labelled_pair({"s1": 1, "t1": 1}), "state 1: cannot write label 's1'"),
    (_labelled_pair(label=""), "state 0, transition 0: cannot write label ''"),
    (_labelled_pair(goals=frozenset({5})), "cannot write goal state 5: no such state"),
    (_labelled_pair(goals=frozenset({1, -1})), "cannot write goal state -1: no such state"),
    (_labelled_pair(initial=7), "cannot write initial state 7: no such state"),
    (_labelled_pair(initial=True), "cannot write initial state True: no such state"),
    (_labelled_pair(goals=frozenset({1.0})), "cannot write goal state 1.0: no such state"),
    # Written without a goal line, it was read back as no declaration.
    (_labelled_pair(goals=frozenset()), "cannot write an empty goal declaration"),
], ids=["state-label-with-space", "empty-state-label", "integer-state-label",
        "state-label-with-comment", "two-labels-on-one-state", "empty-transition-label",
        "goal-past-the-last-state", "negative-goal", "initial-past-the-last-state",
        "boolean-initial-state", "float-goal", "empty-goal-declaration"])
def test_writer_refuses_what_the_parser_cannot_read_back(doc, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        write_explicit(doc)


def test_writer_refuses_a_label_of_no_state():
    # It was written without the label, and read back with no named states.
    for sid in (5, 2, -1):
        with pytest.raises(ModelError, match=re.escape(f"state {sid}: cannot write label 'ghost'")):
            write_explicit(_labelled_pair({"ghost": sid}))


def test_writer_refuses_a_label_that_is_not_a_string():
    # Each raised AttributeError.
    with pytest.raises(ModelError, match=re.escape("state 1: cannot write label 5")):
        write_explicit(_labelled_pair({5: 1}))
    with pytest.raises(ModelError, match=re.escape("state 0, transition 0: cannot write label 7")):
        write_explicit(_labelled_pair(label=7))


def test_writer_keeps_labels_the_parser_reads_back():
    for doc in (_labelled_pair({"s+": 0, "x-1": 1}, "7"), _labelled_pair({"-": 1}, "a")):
        assert parse_explicit(write_explicit(doc)) == doc


@pytest.mark.parametrize("text,fragment", [
    ("mdpx 2\nstates 1\ninitial 0\nstate 0\n transition\n  branch 1 0 0\n", "version"),
    ("mdpx 1\nstates 1\ninitial 0\nstate 0\n transition\n  branch 1 0 nowhere\n", "dangling target"),
    ("mdpx 1\nstates 2\ninitial 0\nstate 0 x\n transition\n  branch 1 0 1\nstate 1 x\n transition\n  branch 1 0 1\n", "duplicate state label"),
    ("mdpx 1\nstates 1\ninitial 0\nstate 0\n transition\n  branch 0.5 0 0\n", "sum"),
    ("mdpx 1\nstates 2\ninitial 0\nstate 1\n transition\n  branch 1 0 1\n", "declaration order"),
    ("mdpx 1\nstates 1\ninitial 0\nstate 0\n branch 1 0 0\n", "outside a transition"),
    ("mdpx 1\nstates 1\nstate 0\n transition\n  branch 1 0 0\n", "initial"),
    ("mdpx 1\ninitial 0\nstate 0\n transition\n  branch 1 0 0\n", "states"),
    ("mdpx 1\nstates 1\ninitial 0\nstate 0\n transition\n  branch one 0 0\n", "malformed number"),
    ("mdpx 1\nstates 1\ninitial 0\nwibble 3\n", "unknown keyword"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_explicit(text)
    assert fragment in str(err.value)


def test_parse_error_carries_location():
    text = "mdpx 1\nstates 1\ninitial 0\nstate 0\n transition\n  branch 1 0 zap\n"
    with pytest.raises(ParseError) as err:
        parse_explicit(text)
    assert err.value.line == 6 and err.value.column is not None


def test_forward_references_resolve():
    text = "mdpx 1\nstates 2\ninitial the-end\nstate 0 start\n transition\n  branch 1 0 the-end\nstate 1 the-end\n transition\n  branch 1 0 the-end\n"
    doc = parse_explicit(text)
    assert doc.model.initial == 1
    assert doc.model.transitions[0][0].branches[0].target == 1


def test_zero_padded_targets_split_the_text_once():
    # Non-canonical integer targets ("0007") miss the build's table and are
    # resolved one by one; the text is split into lines once, by the line
    # pass, and looked up again only to locate an error.  Each distinct
    # target used to split the whole text again.
    class Counted(str):
        calls = 0

        def splitlines(self, *args):
            Counted.calls += 1
            return super().splitlines(*args)

    n = 40

    def document(ref):
        lines = ["mdpx 1", f"states {n}", f"initial {ref(0)}"]
        for s in range(n):
            lines += [f"state {s}", " transition",
                      f"  branch 1/2 1 {ref(min(s + 1, n - 1))}", f"  branch 1/2 0 {ref(0)}"]
        return "\n".join(lines + [f"goal {ref(n - 1)}", ""])

    padded = Counted(document(lambda s: f"{s:04d}"))
    assert parse_explicit(padded) == parse_explicit(document(str))
    assert Counted.calls == 1


def test_generate_random_deterministic():
    a = generate_random(42, 6, 2, 2, 1, 1)
    b = generate_random(42, 6, 2, 2, 1, 1)
    assert a.model == b.model and a.declared_goals == b.declared_goals
    assert generate_random(43, 6, 2, 2, 1, 1).model != a.model


def test_generate_random_minimal():
    doc = generate_random(7, 2, 1, 1, 0, 1)
    assert doc.model.num_states == 2
    assert doc.declared_goals == frozenset([1])
    (only,) = doc.model.transitions[1]
    assert only.branches[0].target == 1  # absorbing goal


def test_generate_random_bounds_respected():
    for seed in range(30):
        doc = generate_random(seed, 6, 2, 3, Fraction(2), 2, min_reward=Fraction(1, 2))
        m = doc.model
        assert m.num_states == 6
        for s in m.states:
            if s in doc.declared_goals:
                continue
            assert 1 <= len(m.transitions[s]) <= 2
            for t in m.transitions[s]:
                assert 1 <= len(t.branches) <= 3
                for b in t.branches:
                    assert Fraction(1, 2) <= b.reward_exact <= 2


def test_generate_random_validates_clean_and_ec_free():
    for seed in range(100):
        doc = generate_random(seed, 2 + seed % 5, 2, 2, Fraction(seed % 3), 1)
        assert validate(doc.model) == []
        for mec in mec_decomposition(strip_rewards(doc.model)):
            (s,) = mec.states  # only single, fully absorbing states qualify
            assert len(mec.kept_transitions[s]) == len(doc.model.transitions[s])


def test_generate_random_ec_flag_injects_cycle():
    doc = generate_random(5, 6, 2, 2, 1, 1, allow_end_components=True)
    stripped = strip_rewards(doc.model)
    assert any(len(mec.states) >= 2 for mec in mec_decomposition(stripped))


def test_generate_random_inconsistent_bounds():
    with pytest.raises(GeneratorError):
        generate_random(0, 1, 1, 1, 0, 1)
    with pytest.raises(GeneratorError):
        generate_random(0, 3, 1, 1, 0, 3)  # goals would cover every non-initial state +1
    with pytest.raises(GeneratorError):
        generate_random(0, 3, 0, 1, 0, 1)
    with pytest.raises(GeneratorError):
        generate_random(0, 3, 1, 1, 1, 1, min_reward=2)


# sha256 of write_explicit(generate_random(...)): the benchmark's models
# (large, stiff-2, stiff-3) and variants with end components, a minimum
# reward and no rewards.  A generator that draws other integers, or in
# another order, or accepts another draw, changes them.
GENERATED_DIGESTS = [
    ((1, 4000, 3, 4, 4, 80), {},
     "045be712ed1d360a37e8c9b7e56aaa39186e7f7575e7eb3032549dcc8bec7664"),
    ((2, 50, 3, 4, 4, 1), {},
     "cc1cec316b627c04d824eea9e7fd58a532046d694e40804731fae88d7507030f"),
    ((3, 50, 3, 4, 4, 1), {},
     "7d92dc4b603845161e257c480e1e91e9ee3fa4f555f594cf36325839e71f22e9"),
    ((0, 8, 3, 3, 4, 2), {"allow_end_components": True},
     "d7ed3b8a35581fcbdcd892ab26edf8625a6d87ad90fbf456722e8ab14e6f0878"),
    ((30, 40, 3, 4, 4, 4), {"allow_end_components": True},
     "173cecf2d9b887dfda462c27daac20fe847206133310539f11df3a66ae34e30b"),
    ((11, 6, 2, 2, Fraction(2), 1), {"min_reward": Fraction(1, 4)},
     "ef7dc16a4e51c3cf9e28e58314f809cf5f05510e6ba1a50d971ef30222ca287f"),
    ((7, 20, 2, 3, 0, 2), {},
     "1b8fcbf83ff9382206ffbf08f9f8392715ecbb2dad4f3291fdc32ddd1c136efa"),
]


@pytest.mark.parametrize("args, kwargs, digest", GENERATED_DIGESTS,
                         ids=["large", "stiff-2", "stiff-3", "ec-8", "ec-40", "min-reward",
                              "no-reward"])
def test_generate_random_models_are_pinned(args, kwargs, digest):
    text = write_explicit(generate_random(*args, **kwargs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generator_end_component_test_matches_mec_decomposition():
    # The generator tests a draw's bare targets before it builds any model;
    # on every draw, the rejected ones too, the verdict must be that of the
    # MEC decomposition of the built, reward-stripped model.
    rng = random.Random(3)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(2, 9)
        goals, draw, _ = modelio._random_draw(rng, n, 3, 3, True, rng.randint(1, n - 1), False)
        model = modelio._random_model(goals, draw, None, Fraction(4), Fraction(0)).model
        mecs = mec_decomposition(strip_rewards(model))
        want = all(len(mec.states) == 1 and len(mec.kept_transitions[min(mec.states)])
                   == len(model.transitions[min(mec.states)]) for mec in mecs)
        assert modelio._only_absorbing_components(draw) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_draw_helpers_match_randint_and_sample():
    # The generator calls only getrandbits, through _below and _sample; each
    # must draw what randint and sample draw and leave the same state, in
    # both of sample's ways: a pool while the population is at most the
    # set's size (21, and 85 for k = 6), else a set of drawn indices.
    cases = 0
    for seed in range(40):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for n, k in ((1, 1), (5, 3), (21, 4), (22, 4), (4000, 4), (3999, 80), (30, 6),
                     (85, 6), (86, 6), (38, 12), (60, 20)):
            population = range(n) if seed % 2 else list(range(100, 100 + n))
            assert modelio._sample(ours.getrandbits, population, k) == stdlib.sample(population, k)
            high = stdlib.randint(1, min(4, n))  # the generator's branch-count draw
            assert 1 + modelio._below(ours.getrandbits, min(4, n)) == high
            assert modelio._below(ours.getrandbits, n) == stdlib.randint(0, n - 1)
            cases += 1
        assert ours.getstate() == stdlib.getstate()
    assert cases >= 200


def test_slow_chain_structure():
    doc = generate_slow_chain(4, Fraction(1, 4))
    m = doc.model
    assert m.num_states == 5 and m.initial == 0
    assert doc.declared_goals == frozenset([4])
    (entry,) = m.transitions[0]
    assert [(b.probability_exact, b.target) for b in entry.branches] == [(Fraction(1), 1)]
    (mid,) = m.transitions[2]
    assert [(b.probability_exact, b.target) for b in mid.branches] == \
        [(Fraction(1, 4), 3), (Fraction(3, 4), 0)]
    assert all(b.reward_exact == 1 for t in m.transitions[:4] for tr in [t] for b in tr[0].branches)
    with pytest.raises(GeneratorError):
        generate_slow_chain(1, Fraction(1, 2))
    with pytest.raises(GeneratorError):
        generate_slow_chain(3, 1)


def test_slow_chain_small_instance_oracle_values():
    # Exact values for n=2, p=1/2, computed by the rational oracle: the chain
    # restarts until it wins twice in a row, so the goal is reached surely
    # and takes four steps on average.
    doc = generate_slow_chain(2, Fraction(1, 2))
    m = make_goals_absorbing(doc.model, [2])
    assert oracle_exact(m, make_property("pmax", [2])) == 1
    assert oracle_exact(m, make_property("emax", [2])) == 4


def test_slow_chain_frozen_regression_instance():
    # The instance bench_suite/models/slow-chain.mdpx is built from: oracle
    # says the expected step count is exactly 1534.
    doc = generate_slow_chain(10, Fraction(1, 2))
    m = make_goals_absorbing(doc.model, [10])
    assert oracle_exact(m, make_property("emax", [10])) == 1534


_H = "mdpx 1\nstates 1\ninitial 0\n"
_LOOP = "state 0\n transition\n  branch 1 0 0\n"


_ERROR_CASES = [
    ("", "empty input", 1, 1),
    ("  hello 1\n", "expected 'mdpx 1' header", 1, 3),
    (" mdpx one\n", "malformed header", 1, 2),
    ("mdpx ١\n", "malformed header", 1, 1),  # int() reads the Arabic-Indic digit as 1
    ("mdpx   7\n", "unsupported format version", 1, 8),
    (_H + "states 1\n" + _LOOP, "duplicate 'states' line", 4, 1),
    ("mdpx 1\n  states 0\n", "'states' expects one positive integer", 2, 3),
    (_H + "initial 0\n" + _LOOP, "duplicate 'initial' line", 4, 1),
    ("mdpx 1\nstates 1\n initial\n", "'initial' expects one id or label", 3, 2),
    ("mdpx 1\n" + _LOOP, "'state' before 'states' count", 2, 1),
    (_H + "state x\n", "'state' expects an integer id", 4, 1),
    ("mdpx 1\nstates 2\ninitial 0\nstate  1\n", "declaration order", 4, 8),
    (_H + _LOOP + "state 1\n", "exceeds declared count", 7, 7),
    (_H + "state 0 a b\n", "too many tokens on 'state' line", 4, 1),
    (_H + "state 0 0\n", "must not be an integer", 4, 9),
    ("mdpx 1\nstates 2\ninitial 0\nstate 0 x\n transition\n  branch 1 0 1\nstate 1 x\n",
     "duplicate state label", 7, 9),
    (_H + " transition\n", "'transition' outside a state block", 4, 2),
    (_H + "state 0\n  transition a b\n", "too many tokens on 'transition' line", 5, 3),
    (_H + "state 0\n   branch 1 0 0\n", "'branch' outside a transition block", 5, 4),
    (_H + "state 0\n transition\n  branch 1 0\n", "'branch' expects", 6, 3),
    (_H + "state 0\n transition\n  branch 1/0 0 0\n", "malformed number '1/0'", 6, 10),
    # The bad reward repeats the keyword: its column is the second occurrence.
    (_H + "state 0\n transition\n  branch 1 branch 0\n", "malformed number 'branch'", 6, 12),
    # A tab counts as one column.
    (_H + "state 0\n transition\n\t\tbranch 1 x 0\n", "malformed number 'x'", 6, 12),
    (_H + _LOOP + "goal\n", "'goal' expects at least one", 7, 1),
    (_H + _LOOP + "  wibble 3 # comment\n", "unknown keyword 'wibble'", 7, 3),
    ("mdpx 1\ninitial 0\n", "missing 'states' line", None, None),
    ("mdpx 1\nstates 2\ninitial 0\n" + _LOOP, "declared 2 states but found 1", None, None),
    ("mdpx 1\nstates 1\n" + _LOOP, "missing 'initial' line", None, None),
    # The out-of-range target repeats the probability and the reward token.
    (_H + "state 0\n transition\n  branch 1 1 1\n", "state id 1 out of range", 6, 14),
    (_H + "state 0\n\ttransition\n\tbranch 1 0 zap\n", "dangling target", 6, 13),
    (_H + "state 0\n transition\n  branch 1 0 ٣\n", "dangling target", 6, 14),  # not state 3
    ("mdpx 1\nstates 1\ninitial   9\n" + _LOOP, "state id 9 out of range", 3, 11),
    ("mdpx 1\nstates 1\ninitial nowhere\n" + _LOOP, "dangling target", 3, 9),
    (_H + _LOOP + "goal 0 0 elsewhere\n", "dangling target", 7, 10),
    (_H + "state 0\n transition\n  branch 0.5 0 0\n", "invalid model", None, None),
]


@pytest.mark.parametrize("text,fragment,line,column", _ERROR_CASES,
                         ids=[f"{fragment}@{line}:{column}" for _, fragment, line, column in _ERROR_CASES])
def test_parse_error_positions(text, fragment, line, column):
    with pytest.raises(ParseError) as err:
        parse_explicit(text)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == (line, column)


def _one_state(*branches: str) -> str:
    return _H + "state 0\n transition\n" + "".join(f"  branch {b}\n" for b in branches)


# Each document with the hand-built model it describes and the parser's exact
# message: the first five of validate()'s violations, in its order.
_MODEL_RULE_CASES = [
    pytest.param(_one_state("0 0 0", "1 0 0"),
                 Mdp(1, 0, ((transition([branch(0, 0, 0), branch(1, 0, 0)]),),)),
                 "invalid model: state 0, transition 0: branch probability 0.0 outside (0,1]",
                 id="probability-0"),
    pytest.param(_one_state("1.5 0 0"),
                 Mdp(1, 0, ((transition([branch("1.5", 0, 0)]),),)),
                 "invalid model: state 0, transition 0: branch probability 1.5 outside (0,1]; "
                 "state 0, transition 0: probabilities sum to 1.5",
                 id="probability-1.5"),
    pytest.param(_one_state("1 -1 0"),
                 Mdp(1, 0, ((transition([branch(1, -1, 0)]),),)),
                 "invalid model: state 0, transition 0: branch reward -1.0 not a finite "
                 "non-negative real",
                 id="reward--1"),
    pytest.param(_one_state("0.5 0 0"),
                 Mdp(1, 0, ((transition([branch("0.5", 0, 0)]),),)),
                 "invalid model: state 0, transition 0: probabilities sum to 0.5",
                 id="sum-0.5"),
    pytest.param("mdpx 1\nstates 2\ninitial 0\nstate 0\n transition\n  branch 1 0 1\nstate 1\n",
                 Mdp(2, 0, ((transition([branch(1, 0, 1)]),), ())),
                 "invalid model: state 1: state has no transitions",
                 id="state-without-transition"),
    pytest.param(_H + "state 0\n transition a\n transition b\n  branch 1 0 0\n",
                 Mdp(1, 0, ((transition([], "a"), transition([branch(1, 0, 0)], "b")),)),
                 "invalid model: state 0, transition 0: transition has no branches",
                 id="transition-without-branch"),
    # Seven violations across four states; the message keeps the first five.
    pytest.param("mdpx 1\nstates 4\ninitial 0\n"
                 "state 0\n transition\n  branch 0 0 0\n  branch 1 0 1\n"
                 "state 1\n"
                 "state 2\n transition\n transition\n  branch 0.5 -1 2\n"
                 "state 3\n transition\n  branch 1.5 0 3\n  branch 0.25 0 0\n",
                 Mdp(4, 0, ((transition([branch(0, 0, 0), branch(1, 0, 1)]),),
                            (),
                            (transition([]), transition([branch("0.5", -1, 2)])),
                            (transition([branch("1.5", 0, 3), branch("0.25", 0, 0)]),))),
                 "invalid model: state 0, transition 0: branch probability 0.0 outside (0,1]; "
                 "state 1: state has no transitions; "
                 "state 2, transition 0: transition has no branches; "
                 "state 2, transition 1: branch reward -1.0 not a finite non-negative real; "
                 "state 2, transition 1: probabilities sum to 0.5",
                 id="seven-violations"),
]


@pytest.mark.parametrize("text,model,message", _MODEL_RULE_CASES)
def test_model_rule_messages(text, model, message):
    problems = validate(model)
    assert message == "invalid model: " + "; ".join(str(v) for v in problems[:5])
    with pytest.raises(ParseError) as err:
        parse_explicit(text)
    assert str(err.value) == message
    assert (err.value.line, err.value.column) == (None, None)


def test_model_rules_are_checked_before_the_goals():
    with pytest.raises(ParseError, match="^invalid model: state 0, transition 0: probabilities"):
        parse_explicit(_one_state("0.5 0 0") + "goal nowhere\n")


def test_label_of_first_label_wins(me_doc):
    doc = ModelDocument(me_doc.model, {"start": 0, "s+": 1, "home": 0, "won": 1})
    assert doc.label_of(0) == "start"
    assert doc.label_of(1) == "s+"
    assert doc.label_of(2) is None
    assert [doc.label_of(s) for s in range(5)] == ["start", "s+", None, None, None]
    assert doc == ModelDocument(me_doc.model, {"start": 0, "s+": 1, "home": 0, "won": 1})


_OVERFLOW_CASES = [
    (_H + "state 0\n transition\n  branch 1e400 0 0\n", "'1e400' outside the binary64 range", 6, 10),
    (_H + "state 0\n transition\n  branch 1 1e400 0\n", "'1e400' outside the binary64 range", 6, 12),
    (_H + "state 0\n transition\n  branch 1 -1e400 0\n", "'-1e400' outside the binary64 range", 6, 12),
    # The first branch that uses the token is reported.
    (_H + "state 0\n transition\n  branch 1 0 0\n transition\n  branch 1 1e999 0\n"
     " transition\n  branch 1 1e999 0\n", "'1e999' outside the binary64 range", 8, 12),
    # A dangling target on an earlier line wins, and loses to an earlier overflow.
    (_H + "state 0\n transition\n  branch 1 0 zap\n transition\n  branch 1 1e400 0\n",
     "dangling target", 6, 14),
    (_H + "state 0\n transition\n  branch 1 1e400 0\n transition\n  branch 1 0 zap\n",
     "'1e400' outside the binary64 range", 6, 12),
    # Statement errors are found first, whatever their line.
    (_H + "state 0\n transition\n  branch 1 1e400 0\nwibble\n", "unknown keyword", 7, 1),
]


@pytest.mark.parametrize("text,fragment,line,column", _OVERFLOW_CASES,
                         ids=["probability", "reward", "negative-reward", "first-use",
                              "earlier-dangling-target", "earlier-overflow", "statement-error"])
def test_number_outside_binary64_range_is_a_parse_error(text, fragment, line, column):
    with pytest.raises(ParseError) as err:
        parse_explicit(text)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("token", [
    "1e3000000", "-1e1000000", "2.5E+3000000", "7e0003000000",
    # Exponents longer than int()'s 4300-digit limit on string conversion.
    pytest.param("1e" + "9" * 5000, id="1e<5000 nines>"),
    pytest.param("-2.5E+00" + "1" * 4301, id="-2.5E+00<4301 ones>"),
    # A negative exponent that long leaves a non-zero value no exact form.
    pytest.param("1e-" + "9" * 5000, id="1e-<5000 nines>"),
    pytest.param("-7.5E-00" + "1" * 4301, id="-7.5E-00<4301 ones>"),
    # Short negative exponents whose exact value took 0.3 s and 15 s to build.
    "1e-1000000", "1e-10000000"])
def test_huge_exponent_is_rejected_without_building_the_number(token):
    # Building 10**3000000 exactly took seconds before the parse failed.
    text = _H + f"state 0\n transition\n  branch 1 {token} 0\n"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_explicit(text)
    assert time.perf_counter() - start < 0.25
    assert str(err.value) == f"number {token!r} outside the binary64 range (line 6, column 12)"
    # A statement error on a later line still wins.
    with pytest.raises(ParseError, match="unknown keyword"):
        parse_explicit(text + "wibble\n")


def test_huge_exponent_of_zero_and_tiny_values_parse_exactly():
    start = time.perf_counter()
    doc = parse_explicit(_H + "state 0\n transition\n  branch 1 0.0e3000000 0\n")
    assert time.perf_counter() - start < 0.25
    (b,) = doc.model.transitions[0][0].branches
    assert (b.reward, b.reward_exact) == (0.0, 0)
    doc = parse_explicit(_H + "state 0\n transition\n  branch 1 0.0e" + "9" * 5000 + " 0\n")
    (b,) = doc.model.transitions[0][0].branches
    assert (b.reward, b.reward_exact) == (0.0, 0)
    doc = parse_explicit(_H + "state 0\n transition\n  branch 1 0.0e-" + "9" * 5000 + " 0\n")
    (b,) = doc.model.transitions[0][0].branches
    assert (b.reward, b.reward_exact) == (0.0, 0)
    for digits in (400, 99999):
        doc = parse_explicit(_H + f"state 0\n transition\n  branch 1 1e-{digits} 0\n")
        (b,) = doc.model.transitions[0][0].branches
        assert (b.reward, b.reward_exact) == (0.0, Fraction(1, 10**digits))
    # Leading zeros do not count towards an exponent's length.
    doc = parse_explicit(_H + "state 0\n transition\n  branch 1 25e-" + "0" * 5000 + "1 0\n")
    (b,) = doc.model.transitions[0][0].branches
    assert (b.reward, b.reward_exact) == (2.5, Fraction(5, 2))


def test_huge_negative_exponent_is_reported_at_its_first_branch():
    token = "1e-" + "9" * 5000
    text = (_H + "state 0\n transition\n  branch 1 0 0\n transition\n  branch 1 0 zap\n"
            f" transition\n  branch 1 {token} 0\n")
    with pytest.raises(ParseError, match="dangling target") as err:
        parse_explicit(text)
    assert (err.value.line, err.value.column) == (8, 14)
    text = (_H + f"state 0\n transition\n  branch 1 0 0\n transition\n  branch 1 {token} 0\n"
            f" transition\n  branch {token} 0 zap\n")
    with pytest.raises(ParseError) as err:
        parse_explicit(text)
    assert str(err.value) == f"number {token!r} outside the binary64 range (line 8, column 12)"


@pytest.mark.parametrize("token", ["1e-99999", "1E-99999", "0." + "0" * 40 + "1"],
                         ids=["exponent", "upper-case-exponent", "43-characters"])
def test_number_memo_keeps_no_long_or_exponent_token(token):
    # 1e-99999 is 8 characters with a 41 KB denominator: a token with an
    # exponent, or of more than 32 characters, is converted on every parse
    # and never kept.  Only the probability 1 is.
    text = _H + f"state 0\n transition\n  branch 1 {token} 0\n"
    for _ in range(2):
        (b,) = parse_explicit(text).model.transitions[0][0].branches
        assert b.reward_exact == Fraction(token)
    info = modelio._memo_number.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 1)


def test_malformed_number_is_located_by_every_parse():
    # Errors are never memoised: each parse converts a malformed token anew
    # and reports it at the first line and column where it finds it.
    first = _H + "state 0\n transition\n  branch 1 1/0 0\n"
    later = _H + "state 0\n transition\n  branch 1 0 0\n transition\n  branch   1/0 0 0\n"
    for text, where in ((first, (6, 12)), (first, (6, 12)), (later, (8, 12)),
                        (first, (6, 12))):
        with pytest.raises(ParseError, match="malformed number '1/0'") as err:
            parse_explicit(text)
        assert (err.value.line, err.value.column) == where
    assert modelio._memo_number.cache_info().currsize == 2  # "1" and "0"


def test_number_memo_stays_at_its_bound():
    # More distinct short tokens than the memo holds: it stays at its
    # bound, and a parse after it has dropped tokens gives an equal model.
    size = modelio._NUMBER_MEMO_SIZE
    text = _H + "state 0\n" + "".join(f" transition\n  branch 1 {k} 0\n"
                                      for k in range(size + 10))
    doc = parse_explicit(text)
    info = modelio._memo_number.cache_info()
    assert info.currsize == info.maxsize == size and info.misses == size + 10
    assert parse_explicit(text) == doc
    assert modelio._memo_number.cache_info().currsize == size


# Every token of this document is corrupted in turn below.  It has comments,
# tabs, blank lines, forward label references and non-canonical integer
# targets ("+2", "03", "+1").
_TOKENS_DOC = (
    "# a model with comments, tabs, blank lines and forward labels\n"
    "mdpx 1\n"
    "states 4  # four states\n"
    "\n"
    "initial start\n"
    "state 0 start\n"
    "\ttransition go\t# forward references to done and far\n"
    "\t\tbranch 1/2 1 done\n"
    "\t\tbranch 0.25 2.5 +2\n"
    "\t\tbranch 1e-1 0 far\n"
    "\t\tbranch 3/20 0 03\n"
    "\n"
    "state 1 done\n"
    "  transition\n"
    "    branch 1 0 done\n"
    "state 2\n"
    "  transition\n"
    "    branch 1 0 0\n"
    "state 3 far\n"
    "  transition b\n"
    "    branch 1 0 +1\n"
    "goal done\n")

#: (line, word index, replacement, the error it raises)
_CORRUPTED_TOKENS = [
    (2, 0, '?', "expected 'mdpx 1' header, found '?' (line 2, column 1)"),
    (2, 1, '?', "malformed header, expected 'mdpx 1' (line 2, column 1)"),
    (3, 0, '?', "unknown keyword '?' (line 3, column 1)"),
    (3, 1, '?', "'states' expects one positive integer (line 3, column 1)"),
    (5, 0, '?', "unknown keyword '?' (line 5, column 1)"),
    (5, 1, '?', "dangling target: unknown state label '?' (line 5, column 9)"),
    (6, 0, '?', "unknown keyword '?' (line 6, column 1)"),
    (6, 1, '?', "'state' expects an integer id (line 6, column 1)"),
    (6, 2, '9', "state label '9' must not be an integer (line 6, column 9)"),
    (7, 0, '?', "unknown keyword '?' (line 7, column 2)"),
    (7, 1, 'a b', "too many tokens on 'transition' line (line 7, column 2)"),
    (8, 0, '?', "unknown keyword '?' (line 8, column 3)"),
    (8, 1, '?', "malformed number '?' (line 8, column 10)"),
    (8, 2, '1e400', "number '1e400' outside the binary64 range (line 8, column 14)"),
    (8, 3, '?', "dangling target: unknown state label '?' (line 8, column 16)"),
    (9, 0, '?', "unknown keyword '?' (line 9, column 3)"),
    (9, 1, '?', "malformed number '?' (line 9, column 10)"),
    (9, 2, '1e400', "number '1e400' outside the binary64 range (line 9, column 15)"),
    (9, 3, '9', 'state id 9 out of range (line 9, column 19)'),
    (10, 0, '?', "unknown keyword '?' (line 10, column 3)"),
    (10, 1, '?', "malformed number '?' (line 10, column 10)"),
    (10, 2, '1e400', "number '1e400' outside the binary64 range (line 10, column 15)"),
    (10, 3, '?', "dangling target: unknown state label '?' (line 10, column 17)"),
    (11, 0, '?', "unknown keyword '?' (line 11, column 3)"),
    (11, 1, '?', "malformed number '?' (line 11, column 10)"),
    (11, 2, '1e400', "number '1e400' outside the binary64 range (line 11, column 15)"),
    (11, 3, '9', 'state id 9 out of range (line 11, column 17)'),
    (13, 0, '?', "unknown keyword '?' (line 13, column 1)"),
    (13, 1, '?', "'state' expects an integer id (line 13, column 1)"),
    (13, 2, '9', "state label '9' must not be an integer (line 13, column 9)"),
    (14, 0, '?', "unknown keyword '?' (line 14, column 3)"),
    (15, 0, '?', "unknown keyword '?' (line 15, column 5)"),
    (15, 1, '?', "malformed number '?' (line 15, column 12)"),
    (15, 2, '1e400', "number '1e400' outside the binary64 range (line 15, column 14)"),
    (15, 3, '?', "dangling target: unknown state label '?' (line 15, column 16)"),
    (16, 0, '?', "unknown keyword '?' (line 16, column 1)"),
    (16, 1, '?', "'state' expects an integer id (line 16, column 1)"),
    (17, 0, '?', "unknown keyword '?' (line 17, column 3)"),
    (18, 0, '?', "unknown keyword '?' (line 18, column 5)"),
    (18, 1, '?', "malformed number '?' (line 18, column 12)"),
    (18, 2, '1e400', "number '1e400' outside the binary64 range (line 18, column 14)"),
    (18, 3, '9', 'state id 9 out of range (line 18, column 16)'),
    (19, 0, '?', "unknown keyword '?' (line 19, column 1)"),
    (19, 1, '?', "'state' expects an integer id (line 19, column 1)"),
    (19, 2, '9', "state label '9' must not be an integer (line 19, column 9)"),
    (20, 0, '?', "unknown keyword '?' (line 20, column 3)"),
    (20, 1, 'a b', "too many tokens on 'transition' line (line 20, column 3)"),
    (21, 0, '?', "unknown keyword '?' (line 21, column 5)"),
    (21, 1, '?', "malformed number '?' (line 21, column 12)"),
    (21, 2, '1e400', "number '1e400' outside the binary64 range (line 21, column 14)"),
    (21, 3, '9', 'state id 9 out of range (line 21, column 16)'),
    (22, 0, '?', "unknown keyword '?' (line 22, column 1)"),
    (22, 1, '?', "dangling target: unknown state label '?' (line 22, column 6)"),
    # A renamed label leaves its references dangling; the first one is
    # reported, found in the second pass from the line number alone.
    (6, 2, 'begin', "dangling target: unknown state label 'start' (line 5, column 9)"),
    (13, 2, 'fin', "dangling target: unknown state label 'done' (line 8, column 16)"),
    (19, 2, 'near', "dangling target: unknown state label 'far' (line 10, column 17)"),
]


def _corrupt(text: str, line: int, index: int, replacement: str) -> str:
    """The text with the index-th word of a line replaced, the rest kept as is."""
    lines = text.split("\n")
    raw = lines[line - 1]
    spans = [m.span() for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
    start, end = spans[index]
    lines[line - 1] = raw[:start] + replacement + raw[end:]
    return "\n".join(lines)


def test_tokens_doc_parses_with_non_canonical_targets():
    doc = parse_explicit(_TOKENS_DOC)
    targets = [[[b.target for b in t.branches] for t in ts] for ts in doc.model.transitions]
    assert targets == [[[1, 2, 3, 3]], [[1]], [[0]], [[1]]]
    assert [t.label for ts in doc.model.transitions for t in ts] == ["go", None, None, "b"]
    assert doc.declared_goals == frozenset([1])


def test_every_token_is_covered():
    covered = {(line, index) for line, index, _, _ in _CORRUPTED_TOKENS}
    for line, raw in enumerate(_TOKENS_DOC.split("\n"), start=1):
        for index in range(len(raw.split("#", 1)[0].split())):
            assert (line, index) in covered


@pytest.mark.parametrize("line,index,replacement,message", _CORRUPTED_TOKENS,
                         ids=[f"{line}:{index}={rep}" for line, index, rep, _ in _CORRUPTED_TOKENS])
def test_each_corrupted_token_is_located(line, index, replacement, message):
    with pytest.raises(ParseError) as err:
        parse_explicit(_corrupt(_TOKENS_DOC, line, index, replacement))
    assert str(err.value) == message
    where = message[message.rindex("(line "):]
    assert where == f"(line {err.value.line}, column {err.value.column})"


def test_integer_ids_are_ascii_digits_with_an_optional_sign():
    # int() also reads "1_0" as 10, " 7" as 7 and the Arabic-Indic "٣" as 3.
    loops = "".join(f"state {s}\n transition\n  branch 1 0 {s}\n" for s in range(11))
    doc = parse_explicit("mdpx 1\nstates 11\ninitial 0\n" + loops)
    for token in ("1_0", " 7", "7 ", "٣", "+", "", "9" * 5000):
        with pytest.raises(ParseError, match=re.escape(f"unknown state label {token!r}")):
            doc.resolve_state(token)
    assert [doc.resolve_state(t) for t in ("7", "+7", "007", "-0")] == [7, 7, 7, 0]
    with pytest.raises(ParseError, match=re.escape("state id -1 out of range")):
        doc.resolve_state("-1")
    with pytest.raises(ParseError, match=re.escape("'state' expects an integer id (line 4")):
        parse_explicit(_H + "state " + "0" * 5000 + "\n")
    # A token that int() reads but the rule refuses is a label, and is written back.
    labelled = parse_explicit("mdpx 1\nstates 1\ninitial 1_0\nstate 0 1_0\n transition\n"
                              "  branch 1 0 1_0\ngoal 1_0\n")
    assert labelled.named_states == {"1_0": 0} and labelled.declared_goals == frozenset([0])
    assert parse_explicit(write_explicit(labelled)) == labelled


def test_non_canonical_integer_targets_resolve():
    loops = "".join(f"state {s}\n transition\n  branch 1 0 {s}\n" for s in range(1, 8))
    text = ("mdpx 1\nstates 8\ninitial 007\nstate 0\n transition\n"
            "  branch 1/4 0 007\n  branch 1/4 0 +2\n  branch 1/4 0 04\n  branch 1/4 0 0\n"
            + loops + "goal +07 6\n")
    doc = parse_explicit(text)
    assert doc.model.initial == 7
    assert [b.target for b in doc.model.transitions[0][0].branches] == [7, 2, 4, 0]
    assert doc.declared_goals == frozenset([6, 7])
    with pytest.raises(ParseError, match=r"state id 8 out of range \(line 6, column 16\)"):
        parse_explicit(text.replace("branch 1/4 0 007", "branch 1/4 0 008"))
