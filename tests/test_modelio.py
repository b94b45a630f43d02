from __future__ import annotations

from fractions import Fraction

import pytest

from soundmdp import (GeneratorError, ModelDocument, ParseError, generate_example_me,
                      generate_random, generate_slow_chain, make_goals_absorbing,
                      make_property, mec_decomposition, oracle_exact, parse_explicit,
                      strip_rewards, validate, write_explicit)

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
