from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from soundmdp import (ModelError, eliminate_end_components,
                      generate_random, generate_slow_chain, make_goals_absorbing,
                      make_property, mec_decomposition, oracle_exact, oracle_values,
                      prob0_set, prob1_set, reward_upper_init, s_infinity, strip_rewards)
from soundmdp.graph import EndComponent, goal_distance_order, predecessor_index
from soundmdp.model import Mdp, Transition

from conftest import HALF, mdp_of, trap_instance


# ---------------------------------------------------------------------------
# Qualitative sets on the example model (exact oracle values for reference:
# pmax to s+ gives 1/2, 1, 0, 2/5, 2/5 on s0, s+, s-, s1, s2).

def test_prob0_max_example(me0):
    assert prob0_set(me0, [1], "max") == {2}


def test_prob0_with_goals_everywhere(me0):
    assert prob0_set(me0, range(5), "max") == frozenset()
    assert prob0_set(me0, range(5), "min") == frozenset()


def test_prob0_on_a_chain():
    chain = mdp_of(0, [[(1, 0, 1)]], [[(0.5, 0, 2), (0.5, 0, 1)]], [[(1, 0, 2)]])
    assert prob0_set(chain, [2], "max") == frozenset()


def test_prob0_min_example(me0):
    # Some scheduler dodges s+ from s0 (enter the s1/s2 cycle and stay).
    assert prob0_set(me0, [1], "min") == {0, 2, 3, 4}


def test_prob1_max_example(me0):
    assert prob1_set(me0, [1], "max") == {1}


def test_prob1_goals_everywhere(me0):
    assert prob1_set(me0, range(5), "max") == frozenset(range(5))
    assert prob1_set(me0, range(5), "min") == frozenset(range(5))


def test_prob1_never_contains_absorbing_non_goal():
    m = mdp_of(0, [[(0.5, 0, 1), (0.5, 0, 2)]], [[(1, 0, 1)]], [[(1, 0, 2)]])
    for opt in ("max", "min"):
        assert 2 not in prob1_set(m, [1], opt)


def test_s_infinity_example(me_both):
    # Every scheduler hits {s+, s-} with probability 1 under max, and the
    # best scheduler does under min, so no state has infinite reward for min.
    assert s_infinity(me_both, [1, 2], "min") == frozenset()
    # For max the adversary can sit in the s1/s2 cycle forever.
    assert s_infinity(me_both, [1, 2], "max") == {0, 3, 4}


def test_s_infinity_goals_everywhere(me_both):
    assert s_infinity(me_both, range(5), "max") == frozenset()


def test_s_infinity_unreachable_goal():
    m = mdp_of(0, [[(1, 0, 0)]], [[(1, 0, 1)]])
    assert s_infinity(m, [1], "max") == {0}
    assert s_infinity(m, [1], "min") == {0}


def _classify_against_oracle(model, goals, opt):
    kind = "pmax" if opt == "max" else "pmin"
    values = oracle_values(model, make_property(kind, goals))
    zero = frozenset(s for s, v in enumerate(values) if v == 0)
    one = frozenset(s for s, v in enumerate(values) if v == 1)
    return zero, one


@pytest.mark.parametrize("seed", range(25))
def test_qualitative_sets_match_oracle(seed):
    doc = generate_random(seed, 2 + seed % 5, 2, 2, 0, 1, allow_end_components=seed % 3 == 0)
    model = make_goals_absorbing(doc.model, doc.declared_goals)
    goals = sorted(doc.declared_goals)
    for opt in ("max", "min"):
        zero, one = _classify_against_oracle(model, goals, opt)
        assert prob0_set(model, goals, opt) == zero
        assert prob1_set(model, goals, opt) == one
    below_one_min = frozenset(
        s for s, v in enumerate(oracle_values(model, make_property("pmin", goals))) if v != 1)
    below_one_max = frozenset(
        s for s, v in enumerate(oracle_values(model, make_property("pmax", goals))) if v != 1)
    assert s_infinity(model, goals, "max") == below_one_min
    assert s_infinity(model, goals, "min") == below_one_max


def _prob0_min_by_passes(model, goals):
    """Reference: the full-pass fixpoint the worklist attractor replaced."""
    positive = set(goals)
    changed = True
    while changed:
        changed = False
        for s in model.states:
            if s not in positive and all(any(b.target in positive for b in t.branches)
                                         for t in model.transitions[s]):
                positive.add(s)
                changed = True
    return frozenset(set(model.states) - positive)


def _prob1_max_by_passes(model, goals):
    """Reference: the nested full-pass fixpoint the worklist attractor replaced."""
    r = set(model.states)
    while True:
        x = set(goals)
        grew = True
        while grew:
            grew = False
            for s in model.states:
                if s not in x and any(all(b.target in r for b in t.branches)
                                      and any(b.target in x for b in t.branches)
                                      for t in model.transitions[s]):
                    x.add(s)
                    grew = True
        if x == r:
            return frozenset(r)
        r = x


def _ec_instance(seed, n):
    model, goals = trap_instance(seed, n)
    return make_goals_absorbing(model, goals), goals


@pytest.mark.parametrize("seed", range(40))
def test_attractors_match_full_pass_fixpoints(seed):
    for n in (8, 20):
        model, goals = _ec_instance(seed, n)
        for work in (model, strip_rewards(model)):
            assert prob0_set(work, goals, "min") == _prob0_min_by_passes(work, goals)
            assert prob1_set(work, goals, "max") == _prob1_max_by_passes(work, goals)
            # All declared goals as targets: larger sets, other traps.
            every = range(1, n, 3)
            assert prob0_set(work, every, "min") == _prob0_min_by_passes(work, every)
            assert prob1_set(work, every, "max") == _prob1_max_by_passes(work, every)


def _reach_by_passes(model, targets, avoid=frozenset()):
    """Reference: the states with a branch path into `targets` that passes
    through no state of `avoid`, by full passes."""
    reached = set(targets)
    grew = True
    while grew:
        grew = False
        for s in model.states:
            if s not in reached and s not in avoid and any(
                    b.target in reached for t in model.transitions[s] for b in t.branches):
                reached.add(s)
                grew = True
    return reached


#: the hex of reward_upper_init(..., "max", s_infinity(...)) at the states
#: that are neither goals nor infinite, on `_pinned_instance(k)`; None where
#: every state is one or the other
EMAX_BOUND_PINS = {
    0: None, 1: "0x1.58ef200315ce8p+13", 2: "0x1.6000000000009p+2", 3: None,
    4: "0x1.25d1745d17467p+3", 5: "0x1.7f55cc68c6fcbp+18", 6: None,
    7: "0x1.0000000000008p-1", 8: "0x1.69999999999a4p+2", 9: "0x1.4f8ac7c03f261p+12",
    10: None, 11: "0x1.8000000000009p+1", 12: None, 13: None, 14: "0x1.e00000000000fp+2",
    15: None, 16: None, 17: "0x1.484afcfe9b129p+18", 18: None, 19: None,
    20: "0x1.2000000000009p+2", 21: "0x1.db43bda5a969ap+8", 22: None,
    23: "0x1.500000000000cp+3", 24: "0x1.1000000000009p+2", 25: "0x1.ff091f716055ep+13",
    26: None, 27: None, 28: None, 29: "0x1.1960c132788a4p+17", 30: None, 31: None,
    32: "0x1.4000000000008p+0", 33: "0x1.ccb3604d16da8p+13", 34: None,
    35: "0x1.c00000000000cp+1",
}

#: the same on the benchmark's slow chains (n, p), which have no infinite state
CHAIN_EMAX_BOUND_PINS = {
    (10, HALF): "0x1.7f80000000025p+10", (16, Fraction(2, 3)): "0x1.b524d6000004fp+10",
    (20, Fraction(3, 4)): "0x1.26a0d862312fbp+10", (40, Fraction(9, 10)): "0x1.49e45c8cee1b4p+9",
}


def _pinned_instance(k):
    """A random model of 20, 60 or 200 states, every other one with an
    injected end component, and its goals: every declared goal, or, for
    half of the models, all but the last, which is then a trap."""
    n = (20, 60, 200)[k % 3]
    doc = generate_random(k, n, 3, 4, 4, n // 10, allow_end_components=k % 2 == 0)
    goals = sorted(doc.declared_goals)[:None if k % 4 < 2 else -1]
    return make_goals_absorbing(doc.model, goals), goals


def _check_sets_and_emax_bound(model, goals, pin):
    """The prob0/prob1/s-infinity sets equal their full-pass references, and
    the emax bound's hex equals `pin`."""
    states = set(model.states)
    zero_min = _prob0_min_by_passes(model, goals)
    one_min = states - _reach_by_passes(model, zero_min, avoid=frozenset(goals))
    one_max = _prob1_max_by_passes(model, goals)
    assert prob0_set(model, goals, "max") == states - _reach_by_passes(model, goals)
    assert prob0_set(model, goals, "min") == zero_min
    assert prob1_set(model, goals, "min") == one_min
    assert prob1_set(model, goals, "max") == one_max
    pred = predecessor_index(model)
    for opt, one in (("min", one_min), ("max", one_max)):  # prob1 from prob0's set
        assert prob1_set(model, goals, opt, pred=pred,
                         zero=prob0_set(model, goals, opt, pred=pred)) == one
    s_inf = s_infinity(model, goals, "max")
    assert s_inf == states - one_min
    assert s_infinity(model, goals, "min") == states - one_max
    bounds = reward_upper_init(model, goals, "max", s_inf)
    assert all(bounds[s] == (math.inf if s in s_inf else 0.0) for s in states
               if s in s_inf or s in goals)
    assert {x.hex() for s, x in enumerate(bounds)
            if s not in s_inf and s not in goals} == ({pin} if pin else set())


@pytest.mark.parametrize("k", range(36))
def test_qualitative_sets_and_emax_bound_stay_pinned(k):
    # Half of these models have an end component, most have infinite-reward
    # states, and the bound's hex depends on the order in which the states
    # join its attractor.
    model, goals = _pinned_instance(k)
    _check_sets_and_emax_bound(model, goals, EMAX_BOUND_PINS[k])


@pytest.mark.parametrize("n, p", list(CHAIN_EMAX_BOUND_PINS))
def test_chain_sets_and_emax_bound_stay_pinned(n, p):
    model = make_goals_absorbing(generate_slow_chain(n, p).model, [n])
    _check_sets_and_emax_bound(model, [n], CHAIN_EMAX_BOUND_PINS[n, p])


@pytest.mark.parametrize("seed", range(40))
def test_precomputed_sets_map_onto_the_quotient(seed):
    # The pipeline precomputes before elimination and maps the sets; for the
    # kinds elimination preserves, they are the sets of the quotient itself.
    for n in (8, 20):
        model, goals = _ec_instance(seed, n)
        stripped = strip_rewards(model)
        for work, sets in ((stripped, lambda m, g: (prob0_set(m, g, "max"),
                                                    prob1_set(m, g, "max"))),
                           (model, lambda m, g: (s_infinity(m, g, "min"),))):
            qm = eliminate_end_components(work, mec_decomposition(work), protect=goals)
            quotient_goals = qm.map_states(goals)
            assert tuple(qm.map_states(x) for x in sets(work, goals)) == \
                sets(qm.quotient, quotient_goals)


# ---------------------------------------------------------------------------
# End components.

def test_mec_example_model(me_both):
    mecs = mec_decomposition(me_both)
    by_states = {tuple(sorted(m.states)): m for m in mecs}
    assert set(by_states) == {(1,), (2,), (3, 4)}
    cycle = by_states[(3, 4)]
    # Only the two zero-reward connecting transitions qualify; transition c
    # carries a reward and leaves the set.
    assert cycle.kept_transitions == {3: (0,), 4: (0,)}


def test_mec_acyclic_model_has_only_goal_loops():
    m = mdp_of(0, [[(0.5, 0, 1), (0.5, 0, 2)]], [[(1, 0, 2)]], [[(1, 0, 2)]])
    mecs = mec_decomposition(m)
    assert [sorted(mec.states) for mec in mecs] == [[2]]


def test_mec_two_disjoint_cycles():
    m = mdp_of(
        0,
        [[(1, 0, 1)], [(1, 0, 4)]],
        [[(1, 0, 0)]],
        [[(1, 0, 3)], [(1, 0, 4)]],
        [[(1, 0, 2)]],
        [[(1, 0, 4)]],
    )
    mecs = mec_decomposition(m)
    assert [sorted(mec.states) for mec in mecs] == [[0, 1], [2, 3], [4]]
    assert mecs[0].kept_transitions == {0: (0,), 1: (0,)}


def test_mec_rewarded_self_loop_is_not_a_component():
    m = mdp_of(0, [[(1, 1, 0)], [(1, 0, 1)]], [[(1, 0, 1)]])
    assert [sorted(mec.states) for mec in mec_decomposition(m)] == [[1]]


def _brute_force_mecs(model: Mdp) -> set[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """Enumerate all end components by subset check, keep the maximal ones."""
    n = model.num_states
    ecs = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            kept = {}
            for s in subset:
                ok = tuple(ti for ti, t in enumerate(model.transitions[s])
                           if all(b.reward_exact == 0 and b.target in inside for b in t.branches))
                if not ok:
                    kept = None
                    break
                kept[s] = ok
            if kept is None:
                continue
            edges = {s: {b.target for ti in kept[s] for b in model.transitions[s][ti].branches}
                     for s in subset}
            if _strongly_connected(subset, edges):
                ecs.append((inside, kept))
    maximal = [
        (states, kept) for states, kept in ecs
        if not any(states < other for other, _ in ecs)
    ]
    return {(tuple(sorted(states)), tuple(kept[s] for s in sorted(states)))
            for states, kept in maximal}


def _strongly_connected(nodes, edges) -> bool:
    nodes = list(nodes)
    if len(nodes) == 1:
        return nodes[0] in edges[nodes[0]]  # needs the kept self-loop
    for start in (nodes[0],):
        seen = {start}
        stack = [start]
        while stack:
            for t in edges[stack.pop()]:
                if t in seen:
                    continue
                seen.add(t)
                stack.append(t)
        if seen != set(nodes):
            return False
    reverse = {s: {t for t in nodes if s in edges[t]} for s in nodes}
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for t in reverse[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen == set(nodes)


@pytest.mark.parametrize("seed", range(30))
def test_mec_decomposition_matches_brute_force(seed):
    doc = generate_random(seed, 2 + seed % 5, 2, 2, Fraction(seed % 2), 1,
                          allow_end_components=seed % 2 == 0)
    model = make_goals_absorbing(doc.model, doc.declared_goals)
    got = {(tuple(sorted(m.states)), tuple(m.kept_transitions[s] for s in sorted(m.states)))
           for m in mec_decomposition(model)}
    assert got == _brute_force_mecs(model)


def test_mec_invariants_hold(me_both):
    for mec in mec_decomposition(me_both):
        for s, kept in mec.kept_transitions.items():
            assert kept, "every member state keeps a transition"
            for ti in kept:
                for b in me_both.transitions[s][ti].branches:
                    assert b.reward_exact == 0
                    assert b.target in mec.states


def _ladder(rungs: int) -> Mdp:
    """Rungs {L_i, R_i} (zero-reward 2-cycles) hang off a rail x_0..x_{k-1}.

    L_i may climb to x_i, and x_i moves to x_{i-1}, L_i or x_{i+1} in one
    transition, so the reward-stripped ladder is one SCC.  Only x_0's
    transition carries a reward, which strands x_0; that strands x_1, then
    x_2 and so on.  Refinement without peeling needs one SCC pass per rail
    state; with peeling the rail goes in one round, and the rungs remain as
    the MECs.  States are L_i = 3i, R_i = 3i + 1, x_i = 3i + 2.
    """
    third = Fraction(1, 3)
    states = []
    for i in range(rungs):
        left, right, rail = 3 * i, 3 * i + 1, 3 * i + 2
        states.append([[(1, 0, rail)], [(1, 0, right)]])  # climb, then the rung
        states.append([[(1, 0, left)]])
        if i == 0:
            states.append([[(HALF, 1, left), (HALF, 1, rail + 3)]])
        elif i == rungs - 1:
            states.append([[(HALF, 0, rail - 3), (HALF, 0, left)]])
        else:
            states.append([[(third, 0, rail - 3), (third, 0, left), (third, 0, rail + 3)]])
    return mdp_of(0, *states)


def test_mec_ladder_peels_the_whole_rail():
    rungs = 12
    m = _ladder(rungs)
    mecs = mec_decomposition(m)
    assert [sorted(mec.states) for mec in mecs] == [[3 * i, 3 * i + 1] for i in range(rungs)]
    for i, mec in enumerate(mecs):
        assert mec.kept_transitions == {3 * i: (1,), 3 * i + 1: (0,)}
    # Without the reward nothing is stranded: the ladder is one MEC keeping everything.
    (whole,) = mec_decomposition(strip_rewards(m))
    assert whole.states == frozenset(m.states)
    assert whole.kept_transitions == {s: tuple(range(len(m.transitions[s]))) for s in m.states}


def _reference_mecs(model: Mdp) -> set[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """MECs by the global fixpoint: drop every zero-reward transition that
    leaves its source's SCC until none does; the SCCs whose states keep a
    transition are the MECs.  SCCs by Kosaraju, independently of graph._sccs."""
    allowed = {s: tuple(ti for ti, t in enumerate(model.transitions[s])
                        if all(b.reward_exact == 0 for b in t.branches)) for s in model.states}
    while True:
        succ = {s: {b.target for ti in allowed[s] for b in model.transitions[s][ti].branches}
                for s in model.states}
        pred = {s: set() for s in model.states}
        for s, ts in succ.items():
            for t in ts:
                pred[t].add(s)
        finished: list[int] = []
        seen: set[int] = set()

        def visit(s):
            seen.add(s)
            for t in succ[s]:
                if t not in seen:
                    visit(t)
            finished.append(s)

        for s in model.states:
            if s not in seen:
                visit(s)
        comp: dict[int, int] = {}

        def assign(s, root):
            comp[s] = root
            for t in pred[s]:
                if t not in comp:
                    assign(t, root)

        for s in reversed(finished):
            if s not in comp:
                assign(s, s)
        narrowed = {s: tuple(ti for ti in allowed[s]
                             if all(comp[b.target] == comp[s] for b in model.transitions[s][ti].branches))
                    for s in model.states}
        if narrowed == allowed:
            break
        allowed = narrowed
    groups: dict[int, list[int]] = {}
    for s in model.states:
        if allowed[s]:
            groups.setdefault(comp[s], []).append(s)
    return {(tuple(states), tuple(allowed[s] for s in states)) for states in groups.values()}


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("stripped", [False, True])
def test_mec_invariants_on_larger_models(seed, stripped):
    doc = generate_random(seed, 50 + 150 * seed // 11, 3, 1 + seed % 4, Fraction(seed % 3), 1 + seed,
                          allow_end_components=True)
    model = strip_rewards(doc.model) if stripped else doc.model
    mecs = mec_decomposition(model)
    covered: set[int] = set()
    for mec in mecs:
        assert not mec.states & covered
        covered |= mec.states
        assert list(mec.kept_transitions) == sorted(mec.states)
        for s, kept in mec.kept_transitions.items():
            # Every zero-reward transition staying inside is kept, in index order.
            assert kept == tuple(ti for ti, t in enumerate(model.transitions[s])
                                 if all(b.reward_exact == 0 and b.target in mec.states
                                        for b in t.branches))
            assert kept
        edges = {s: {b.target for ti in kept for b in model.transitions[s][ti].branches}
                 for s, kept in mec.kept_transitions.items()}
        assert _strongly_connected(sorted(mec.states), edges)
    # Maximality: the same components as the independent global fixpoint.
    got = {(tuple(sorted(m.states)), tuple(m.kept_transitions[s] for s in sorted(m.states)))
           for m in mecs}
    assert got == _reference_mecs(model)
    if stripped:
        assert any(len(m.states) > 1 for m in mecs)


# ---------------------------------------------------------------------------
# End-component elimination.

def test_eliminate_example_quotient(me_both):
    mecs = mec_decomposition(me_both)
    qm = eliminate_end_components(me_both, mecs, protect=[1, 2])
    q = qm.quotient
    assert q.num_states == 4
    assert qm.representative[3] == qm.representative[4] == 3
    merged = qm.to_quotient[3]
    # The merged state keeps exactly transition c's two branches.
    (only,) = q.transitions[merged]
    assert only.label == "c"
    assert [(b.probability_exact, b.reward_exact, b.target) for b in only.branches] == \
        [(Fraction(6, 10), Fraction(1), qm.to_quotient[2]),
         (Fraction(4, 10), Fraction(0), qm.to_quotient[1])]


def test_eliminate_empty_list_is_identity(me_both):
    qm = eliminate_end_components(me_both, [])
    assert qm.quotient == me_both
    assert qm.to_quotient == tuple(range(5))


@pytest.mark.parametrize("seed", range(6))
def test_eliminate_returns_the_model_when_nothing_collapses(seed):
    # Generated models have no end components but their goals' self-loops.
    doc = generate_random(seed, 20, 3, 4, 4, 2)
    goals = sorted(doc.declared_goals)
    for model in (make_goals_absorbing(doc.model, goals),
                  strip_rewards(make_goals_absorbing(doc.model, goals))):
        mecs = mec_decomposition(model)
        assert mecs and all(len(mec.states) == 1 for mec in mecs)
        for protect in (goals, ()):
            qm = eliminate_end_components(model, mecs, protect=protect)
            assert qm.quotient is model
            assert qm.representative == qm.to_quotient == tuple(range(20))
            assert qm.map_states(goals) == frozenset(goals)


def test_eliminate_replaces_a_labelled_self_loop():
    loop = mdp_of(0, [[(1, 0, 0)]])
    m = Mdp(1, 0, ((Transition(loop.transitions[0][0].branches, "wait"),),))
    qm = eliminate_end_components(m, mec_decomposition(m))
    assert qm.quotient is not m
    assert qm.quotient == loop


def test_eliminate_merges_branches_into_one_state_without_components():
    # Two branches into state 1 merge into one, though nothing collapses.
    m = mdp_of(0, [[(HALF, 1, 1), (HALF, 1, 1)]], [[(1, 0, 1)]])
    qm = eliminate_end_components(m, mec_decomposition(m))
    assert qm.to_quotient == (0, 1)
    assert qm.quotient == mdp_of(0, [[(1, 1, 1)]], [[(1, 0, 1)]])


def test_predecessor_index_is_shared_by_prob0_and_prob1(me0):
    pred = predecessor_index(me0)
    for opt in ("max", "min"):
        assert prob0_set(me0, [1], opt, pred=pred) == prob0_set(me0, [1], opt)
        assert prob1_set(me0, [1], opt, pred=pred) == prob1_set(me0, [1], opt)
        # The pipeline passes prob0's set as `zero` too: here it is empty
        # with every state a goal, and not empty with s+ alone.
        for goals in ([1], range(5)):
            zero = prob0_set(me0, goals, opt, pred=pred)
            assert bool(zero) == (goals == [1])
            assert prob1_set(me0, goals, opt, pred=pred, zero=zero) == prob1_set(me0, goals, opt)


def test_goal_distance_order_by_hand():
    # Sources 5 and 8.  Distances: 2, 4 and 9 one step, 1 two steps (through
    # 2, which is not an unknown), 3 three steps (its nearer choice), 0 four
    # steps; 6 and 7 reach no source.
    m = mdp_of(0,
               [[(1, 0, 3)]],                    # 0
               [[(1, 0, 2)]],                    # 1
               [[(1, 0, 5)]],                    # 2
               [[(1, 0, 0)], [(1, 0, 1)]],       # 3
               [[(HALF, 0, 5), (HALF, 0, 3)]],   # 4
               [[(1, 0, 5)]],                    # 5
               [[(1, 0, 6)]],                    # 6
               [[(1, 0, 6)]],                    # 7
               [[(1, 0, 8)]],                    # 8
               [[(HALF, 0, 8), (HALF, 0, 0)]])   # 9
    unknowns = frozenset({0, 1, 3, 4, 6, 7, 9})
    order = goal_distance_order(m, {5, 8}, unknowns)
    assert order == [4, 9, 1, 3, 0, 6, 7]
    # Ties keep id order, whatever the order the sources come in.
    assert goal_distance_order(m, [8, 5], reversed(sorted(unknowns))) == order
    # With no source every unknown is unreached: plain id order.
    assert goal_distance_order(m, (), unknowns) == sorted(unknowns)
    assert goal_distance_order(m, {5}, ()) == []
    with pytest.raises(ModelError, match="unknown state id 10"):
        goal_distance_order(m, {10}, unknowns)


@pytest.mark.parametrize("seed", range(12))
def test_goal_distance_order_is_a_sorted_permutation(seed):
    doc = generate_random(seed, 30, 3, 3, 4, 3, allow_end_components=seed % 2 == 0)
    model = doc.model
    sources = frozenset(doc.declared_goals)
    unknowns = frozenset(s for s in model.states if s not in sources and s % 5 != 1)
    order = goal_distance_order(model, sources, unknowns)
    assert sorted(order) == sorted(unknowns) and len(order) == len(unknowns)
    # Reference distances: shortest branch paths, by repeated relaxation.
    inf = len(model.states) + 1
    dist = [0 if s in sources else inf for s in model.states]
    changed = True
    while changed:
        changed = False
        for s, ts in enumerate(model.transitions):
            best = min(dist[b.target] + 1 for t in ts for b in t.branches)
            if best < dist[s]:
                dist[s], changed = best, True
    assert order == sorted(unknowns, key=lambda s: (dist[s], s))


def test_eliminate_fixes_the_min_reward_trap(me_both):
    # Solving the raw model's least fixed point yields 0; the quotient's is 3/5.
    prop = make_property("emin", [1, 2])
    qm = eliminate_end_components(me_both, mec_decomposition(me_both), protect=[1, 2])
    qprop = make_property("emin", sorted(qm.map_states([1, 2])))
    assert oracle_exact(qm.quotient, qprop) == Fraction(3, 5)


def test_eliminate_rejects_two_protected_states_in_one_component():
    m = mdp_of(0, [[(1, 0, 1)]], [[(1, 0, 0)]])
    mecs = mec_decomposition(m)
    assert [sorted(mec.states) for mec in mecs] == [[0, 1]]
    with pytest.raises(ModelError):
        eliminate_end_components(m, mecs, protect=[0, 1])


def test_eliminate_bottom_component_gets_self_loop():
    # A zero-reward cycle with no way out collapses to an absorbing state.
    m = mdp_of(0, [[(1, 0, 1)]], [[(1, 0, 0)]], [[(1, 0, 2)]])
    qm = eliminate_end_components(m, mec_decomposition(m))
    rep = qm.to_quotient[0]
    (only,) = qm.quotient.transitions[rep]
    assert [(b.probability, b.target) for b in only.branches] == [(1.0, rep)]


def test_eliminate_merges_parallel_branches_exactly():
    # A transition splitting between the two cycle states must merge into a
    # single branch with the exact probability sum.
    m = mdp_of(
        0,
        [[(Fraction(1, 3), 0, 1), (Fraction(1, 3), 0, 2), (Fraction(1, 3), 0, 3)]],
        [[(1, 0, 2)]],
        [[(1, 0, 1)], [(1, 0, 3)]],
        [[(1, 0, 3)]],
    )
    qm = eliminate_end_components(m, mec_decomposition(m))
    start = qm.to_quotient[0]
    (entry,) = qm.quotient.transitions[start]
    merged = {(b.target, b.probability_exact) for b in entry.branches}
    assert merged == {(qm.to_quotient[1], Fraction(2, 3)), (qm.to_quotient[3], Fraction(1, 3))}


@pytest.mark.parametrize("seed", range(20))
def test_eliminate_preserves_pmax_and_emin_exactly(seed):
    doc = generate_random(seed, 2 + seed % 5, 2, 2, Fraction(1), 1, allow_end_components=True)
    goals = sorted(doc.declared_goals)
    for kind, model in (("pmax", strip_rewards(make_goals_absorbing(doc.model, goals))),
                        ("emin", make_goals_absorbing(doc.model, goals))):
        qm = eliminate_end_components(model, mec_decomposition(model), protect=goals)
        qgoals = sorted(qm.map_states(goals))
        original = oracle_exact(model, make_property(kind, goals))
        quotient = oracle_exact(qm.quotient, make_property(kind, qgoals))
        assert original == quotient


def test_eliminate_merges_and_copies_in_one_quotient():
    # States 1 and 2 form a zero-reward cycle; 3 is absorbing.  From 0,
    # transition a splits 1/10 and 2/10 over the cycle: the branches merge and
    # the float is the rounding of the exact sum 3/10, not 0.1 + 0.2.
    # Transition b has distinct targets and is copied; transition c becomes
    # identical to b after retargeting and is dropped.
    m = mdp_of(
        0,
        [[(Fraction(1, 10), 0, 1), (Fraction(2, 10), 0, 2), (Fraction(7, 10), 0, 3)],
         [(Fraction(1, 3), 0, 1), (Fraction(2, 3), 2, 3)],
         [(Fraction(1, 3), 0, 2), (Fraction(2, 3), 2, 3)]],
        [[(1, 0, 2)], [(HALF, 0, 3), (HALF, 0, 0)]],
        [[(1, 0, 1)], [(HALF, 0, 3), (HALF, 0, 0)]],
        [[(1, 0, 3)]],
    )
    mecs = mec_decomposition(m)
    assert [sorted(mec.states) for mec in mecs] == [[1, 2], [3]]
    qm = eliminate_end_components(m, mecs)
    q0, q1, q3 = qm.to_quotient[0], qm.to_quotient[1], qm.to_quotient[3]
    merged, copied = qm.quotient.transitions[q0]
    assert [(b.probability_exact, b.reward_exact, b.target) for b in merged.branches] == \
        [(Fraction(3, 10), 0, q1), (Fraction(7, 10), 0, q3)]
    assert merged.branches[0].probability.hex() == (0.3).hex() != (0.1 + 0.2).hex()
    assert [(b.probability_exact, b.reward_exact, b.target) for b in copied.branches] == \
        [(Fraction(1, 3), 0, q1), (Fraction(2, 3), 2, q3)]
    assert [(b.probability, b.reward) for b in copied.branches] == [(1 / 3, 0.0), (2 / 3, 2.0)]
    # The cycle's two exits are one distribution once its states are merged.
    (exit_,) = qm.quotient.transitions[q1]
    assert [(b.probability_exact, b.target) for b in exit_.branches] == [(HALF, q3), (HALF, q0)]


@pytest.mark.parametrize("seed", range(12))
def test_eliminate_keeps_floats_rounded_from_exact_fields(seed):
    # The Branch contract: every float is float() of its exact field, in the
    # models that feed elimination and in the quotients it copies them into.
    doc = generate_random(seed, 8 + 3 * seed, 3, 4, 4, 2, allow_end_components=True)
    goals = sorted(doc.declared_goals)
    absorbed = make_goals_absorbing(doc.model, goals)
    for model, protect in ((doc.model, ()), (strip_rewards(doc.model), ()), (absorbed, goals)):
        qm = eliminate_end_components(model, mec_decomposition(model), protect=protect)
        for m in (model, qm.quotient):
            branches = [b for ts in m.transitions for t in ts for b in t.branches]
            assert [(p.hex(), r.hex(), q, pe, re) for p, r, q, pe, re in branches] == \
                [(float(pe).hex(), float(re).hex(), q, pe, re) for _, _, q, pe, re in branches]


def test_end_component_keeps_its_states_as_a_frozenset():
    mec = EndComponent([2, 1, 2], {1: (0,), 2: (0,)})
    assert type(mec.states) is frozenset and mec.states == {1, 2}
    assert mec.kept_transitions == {1: (0,), 2: (0,)}
