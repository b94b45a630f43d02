"""Graph-based qualitative precomputations and end-component machinery.

Everything here looks only at the transition structure, never at the numeric
probabilities: a branch either exists (probability > 0 by model invariant) or
it does not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Sized

from .errors import ModelError
from .model import Branch, Mdp, Transition, _check_states

StateSet = frozenset[int]


def predecessor_index(model: Mdp) -> list[list[tuple[int, int]]]:
    """Per target state, the (state, transition index) pairs with a branch into it.

    A transition with several branches into one target is listed once per
    branch; `attractor` visits each pair at most once, `_prob1_max` at most
    once per round.  The analyses here take it as `pred`, built there when
    not given; it serves any model with the same targets per transition.
    """
    pred: list[list[tuple[int, int]]] = [[] for _ in model.states]
    for s, ts in enumerate(model.transitions):
        for ti, t in enumerate(ts):
            edge = (s, ti)
            for b in t.branches:
                pred[b[2]].append(edge)  # b.target
    return pred


def attractor(choices: Sequence[Sized], pred: list[list[tuple[int, int]]], seeds: Iterable[int],
              avoid: frozenset[int] = frozenset(), *, every_choice: bool) -> list[int]:
    """The seeds (distinct states, in the order given), then every state
    outside `avoid` in the order it joins: once every one of its choices
    (`every_choice`) or any one of them has a branch into a state that
    joined before it.  `choices` are each state's choices (a model's
    `transitions`, or anything sized per state) and `pred` their
    predecessor_index, walked in its order from each joined state in turn;
    a state with no choices joins no attractor.
    """
    n = len(choices)
    joined = list(seeds)
    done = bytearray(n)  # joined, or in `avoid`
    for s in (*joined, *avoid):
        done[s] = 1
    missing = [len(ts) for ts in choices] if every_choice else [1] * n
    hit = [0] * n  # per state, a bit per choice with a branch in
    for t in joined:  # the list grows as states join
        for s, ti in pred[t]:
            bit = 1 << ti
            if done[s] or hit[s] & bit:
                continue
            hit[s] |= bit
            missing[s] -= 1
            if not missing[s]:
                done[s] = 1
                joined.append(s)
    return joined


def prob0_set(model: Mdp, goals: Iterable[int], opt: str, *,
              pred: list[list[tuple[int, int]]] | None = None) -> StateSet:
    """States whose optimal probability of reaching the goals is exactly 0.

    opt="max": no path reaches the goals at all (complement of backward
    reachability).  opt="min": some scheduler can avoid the goals forever,
    computed as the complement of the least set closed under "every
    transition has a branch into the set".  `pred` is the model's
    predecessor_index, built here when not given.
    """
    goal_set = _check_states(model, goals, "goals")
    if opt not in ("max", "min"):
        raise ModelError(f"unknown opt {opt!r}")
    if pred is None:
        pred = predecessor_index(model)
    if opt == "max":
        return frozenset(model.states).difference(
            attractor(model.transitions, pred, goal_set, every_choice=False))
    # A state without choices joins too: every one of its (no) choices hits.
    idle = [s for s, ts in enumerate(model.transitions) if not ts and s not in goal_set]
    return frozenset(model.states).difference(
        attractor(model.transitions, pred, [*goal_set, *idle], every_choice=True))


def prob1_set(model: Mdp, goals: Iterable[int], opt: str, *,
              pred: list[list[tuple[int, int]]] | None = None,
              zero: StateSet | None = None) -> StateSet:
    """States whose optimal probability of reaching the goals is exactly 1.

    `pred` (the model's predecessor_index) and `zero` (its prob0_set for the
    same goals and opt) are precomputed inputs, each built here when not given.
    """
    goal_set = _check_states(model, goals, "goals")
    if opt not in ("max", "min"):
        raise ModelError(f"unknown opt {opt!r}")
    if pred is None:
        pred = predecessor_index(model)
    if zero is None:
        zero = prob0_set(model, goal_set, opt, pred=pred)
    if opt == "max":
        return _prob1_max(model, pred, goal_set, zero)
    # Pmin = 1 iff no scheduler can, while avoiding the goals, reach a state
    # from which some scheduler avoids the goals forever.
    return frozenset(model.states).difference(
        attractor(model.transitions, pred, zero, goal_set, every_choice=False))


def _prob1_max(model: Mdp, pred: list[list[tuple[int, int]]], goals: frozenset[int],
               zero: StateSet) -> StateSet:
    # Greatest fixpoint of: R := { s | some transition stays inside R and can
    # reach the current inner least fixpoint X built up from the goals }.
    # R starts as the first round's X, the complement of prob0.  Each round
    # grows X from the goals backwards, with a worklist, along the
    # transitions still inside R; X only shrinks from round to round, so the
    # states it drops mark their predecessors' transitions as leaving R.
    if not zero:
        return frozenset(model.states)
    r = set(model.states).difference(zero)
    inside = [[True] * len(ts) for ts in model.transitions]
    dropped = zero
    while dropped:
        for t in dropped:
            for s, ti in pred[t]:
                inside[s][ti] = False
        x = set(goals)
        stack = list(x)
        while stack:
            t = stack.pop()
            for s, ti in pred[t]:
                if s not in x and inside[s][ti]:
                    x.add(s)
                    stack.append(s)
        dropped = r - x
        r = x
    return frozenset(r)


def goal_distance_order(model: Mdp, sources: Iterable[int], unknowns: Iterable[int], *,
                        pred: list[list[tuple[int, int]]] | None = None) -> list[int]:
    """The unknowns sorted by (d(s), s), where d(s) is the length of the
    shortest branch path from s into `sources`; unknowns with no such path
    come last, by id.

    A backward breadth-first search over `pred`, the predecessor_index of
    any model with these targets per transition (built here when not
    given), then a bucket pass by id: linear in the branches and states.
    """
    if pred is None:
        pred = predecessor_index(model)
    distance = [-1] * model.num_states
    layer = list(_check_states(model, sources, "sources"))
    for s in layer:
        distance[s] = 0
    depth = 0
    while layer:
        depth += 1
        reached = []
        for t in layer:
            for s, _ in pred[t]:
                if distance[s] < 0:
                    distance[s] = depth
                    reached.append(s)
        layer = reached
    # Buckets 0 .. depth-1 hold the distances; bucket `depth` the unreached.
    buckets: list[list[int]] = [[] for _ in range(depth + 1)]
    unknown_set = _check_states(model, unknowns, "unknowns")
    for s in model.states:
        if s in unknown_set:
            buckets[distance[s] if distance[s] >= 0 else depth].append(s)
    return [s for bucket in buckets for s in bucket]


def s_infinity(model: Mdp, goals: Iterable[int], opt: str, *,
               pred: list[list[tuple[int, int]]] | None = None) -> StateSet:
    """States whose expected reward is infinite: the pessimal reachability
    probability (min for opt="max", max for opt="min") is below 1.  `pred`
    is the predecessor_index of any model with these targets per transition."""
    if opt not in ("max", "min"):
        raise ModelError(f"unknown opt {opt!r}")
    sure = prob1_set(model, goals, "min" if opt == "max" else "max", pred=pred)
    return frozenset(set(model.states) - sure)


class EndComponent:
    """A maximal end component: its states and, per state, the kept transition
    indices (all of whose branches are zero-reward and stay inside)."""

    __slots__ = ("states", "kept_transitions")

    def __init__(self, states: Iterable[int], kept_transitions: dict[int, tuple[int, ...]]) -> None:
        self.states, self.kept_transitions = frozenset(states), kept_transitions


def _sccs(nodes: Sequence[int], succ: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan strongly-connected components over the given subgraph."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def mec_decomposition(model: Mdp, *,
                      pred: list[list[tuple[int, int]]] | None = None) -> list[EndComponent]:
    """Maximal end components, by attractor peeling and SCC refinement.

    Only transitions whose branches all carry reward zero can take part; a
    transition stays in a candidate component only while all its branch
    targets do.  Each round first peels, with a worklist over `pred`, every
    state of the candidate left with no such transition (removing a state
    can strand its predecessors), then splits the rest into SCCs.  A
    candidate that stays one SCC is a MEC; otherwise each SCC is a new
    candidate.  Single states qualify only with such a self-loop.  `pred`,
    built here when not given, is the predecessor_index of any model with
    these targets per transition.
    """
    if pred is None:
        pred = predecessor_index(model)
    # Target sets of the zero-reward transitions.
    zero_targets = [[(ti, frozenset(b.target for b in t.branches)) for ti, t in enumerate(ts)
                     if all(b.reward_exact == 0 for b in t.branches)]
                    for ts in model.transitions]

    result: list[EndComponent] = []
    # Only a state with a zero-reward transition can take part.
    todo = [{s for s, zs in enumerate(zero_targets) if zs}]
    while todo:
        component = todo.pop()
        kept = {s: {ti for ti, targets in zero_targets[s] if targets <= component}
                for s in component}
        stranded = [s for s, ks in kept.items() if not ks]
        while stranded:
            t = stranded.pop()
            component.discard(t)
            del kept[t]
            for s, ti in pred[t]:
                ks = kept.get(s)
                if ks and ti in ks:
                    ks.discard(ti)
                    if not ks:
                        stranded.append(s)
        if not component:
            continue
        succ = {s: sorted({target for ti, targets in zero_targets[s] if ti in ks
                           for target in targets})
                for s, ks in kept.items()}
        comps = _sccs(sorted(component), succ)
        if len(comps) == 1:
            result.append(EndComponent(frozenset(component),
                                       {s: tuple(sorted(kept[s])) for s in sorted(component)}))
        else:
            todo.extend(set(comp) for comp in comps)
    result.sort(key=lambda ec: min(ec.states))
    return result


class QuotientMap(NamedTuple):
    """Result of collapsing end components: the quotient model, whose states
    are the components' representatives in id order, and to_quotient:
    original state -> state id in the quotient model."""

    to_quotient: tuple[int, ...]
    quotient: Mdp

    def map_states(self, states: Iterable[int]) -> frozenset[int]:
        return frozenset(self.to_quotient[s] for s in states)


def _nothing_to_collapse(model: Mdp, mecs: Sequence[EndComponent]) -> bool:
    """True when collapsing the components would change no state and merge no branch."""
    transitions = model.transitions
    for mec in mecs:
        if len(mec.states) > 1:
            return False
        (s,) = mec.states
        if transitions[s] != (_self_loop(s),):
            return False
    for ts in transitions:
        for bs, _ in ts:
            if len(bs) > 1 and len({b[2] for b in bs}) < len(bs):
                return False
    return True


def _self_loop(s: int) -> Transition:
    """The zero-reward self-loop of a bottom component's representative."""
    return Transition((Branch(1.0, 0.0, s, Fraction(1), Fraction(0)),))


def eliminate_end_components(model: Mdp, mecs: Sequence[EndComponent],
                             protect: Iterable[int] = ()) -> QuotientMap:
    """Collapse each end component to one state, keeping transitions that lead out.

    A protected state (typically a goal) becomes its component's representative;
    a component holding two protected states cannot be collapsed coherently and
    is rejected.  Branches that land in the same component merge, summing their
    exact probabilities, and the merged floats are rounded from the sums; the
    other branches are copied with their fields, floats included (the `Branch`
    contract makes them `float()` of the exact fields).  A representative
    left with no transitions (a bottom component) gets a zero-reward
    self-loop so the quotient stays well formed.

    When there is nothing to collapse, the input model itself is returned
    with identity maps: every component is one state whose only transition
    is that self-loop, and no transition has two branches into one state.
    Such a model differs from the full quotient at most in duplicate
    transitions of a state, which the full quotient drops; a duplicate
    choice never changes a state's optimal value, to the last bit.
    """
    protect_set = _check_states(model, protect, "protect")
    if _nothing_to_collapse(model, mecs):
        return QuotientMap(tuple(model.states), model)
    rep_of = list(model.states)
    component_of: dict[int, EndComponent] = {}
    for mec in mecs:
        inside = mec.states & protect_set
        if len(inside) > 1:
            raise ModelError(f"end component {sorted(mec.states)} contains several protected states")
        rep = min(inside) if inside else min(mec.states)
        for s in mec.states:
            rep_of[s] = rep
            component_of[s] = mec

    members_of: dict[int, list[int]] = {}
    for s in model.states:
        members_of.setdefault(rep_of[s], []).append(s)
    reps = sorted(members_of)
    new_id = {old: i for i, old in enumerate(reps)}
    to_quotient = tuple(new_id[rep_of[s]] for s in model.states)

    def retarget(tr: Transition) -> Transition:
        targets = [to_quotient[b.target] for b in tr.branches]
        if len(set(targets)) == len(targets):  # nothing to merge
            return Transition(tuple(Branch(p, r, q, pe, re)
                                    for (p, r, _, pe, re), q in zip(tr.branches, targets)),
                              tr.label)
        merged: dict[tuple[Fraction, int], Fraction] = {}
        for b, q in zip(tr.branches, targets):
            key = (b.reward_exact, q)
            merged[key] = merged.get(key, 0) + b.probability_exact
        return Transition(tuple(Branch(float(p), float(k[0]), k[1], p, k[0])
                                for k, p in merged.items()), tr.label)

    transitions: list[tuple[Transition, ...]] = []
    for old_rep in reps:
        mec = component_of.get(old_rep)
        ts: list[Transition] = []
        seen: dict[tuple, list[tuple[Branch, ...]]] = {}
        for s in members_of[old_rep]:
            kept = set(mec.kept_transitions.get(s, ())) if mec else set()
            for ti, tr in enumerate(model.transitions[s]):
                if ti in kept:
                    continue
                new_tr = retarget(tr)
                # Every float here is float(exact) by the Branch contract, so
                # duplicates share their (probability, reward, target) prefixes,
                # which hash far faster than Fractions; equal exact fields
                # confirm a duplicate.
                alike = seen.setdefault(tuple(b[:3] for b in new_tr.branches), [])
                if new_tr.branches in alike:
                    continue
                alike.append(new_tr.branches)
                ts.append(new_tr)
        if not ts:
            ts.append(_self_loop(new_id[old_rep]))
        transitions.append(tuple(ts))

    quotient = Mdp(len(reps), to_quotient[model.initial], tuple(transitions))
    return QuotientMap(to_quotient, quotient)
