"""Graph-based qualitative precomputations and end-component machinery.

Everything here looks only at the transition structure, never at the numeric
probabilities: a branch either exists (probability > 0 by model invariant) or
it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ModelError
from .model import Branch, Mdp, Transition, _check_states

StateSet = frozenset[int]


def _predecessors(model: Mdp) -> list[set[int]]:
    pred: list[set[int]] = [set() for _ in model.states]
    for s in model.states:
        for t in model.transitions[s]:
            for b in t.branches:
                pred[b.target].add(s)
    return pred


def _backward_reach(model: Mdp, targets: Iterable[int], avoid: frozenset[int] = frozenset()) -> set[int]:
    """States with some path into `targets` that does not pass through `avoid`."""
    pred = _predecessors(model)
    reached = set(targets)
    stack = list(reached)
    while stack:
        t = stack.pop()
        for s in pred[t]:
            if s not in reached and s not in avoid:
                reached.add(s)
                stack.append(s)
    return reached


def prob0_set(model: Mdp, goals: Iterable[int], opt: str) -> StateSet:
    """States whose optimal probability of reaching the goals is exactly 0.

    opt="max": no path reaches the goals at all (complement of backward
    reachability).  opt="min": some scheduler can avoid the goals forever,
    computed as the complement of the least set closed under "every
    transition has a branch into the set".
    """
    goal_set = _check_states(model, goals, "goals")
    if opt == "max":
        return frozenset(set(model.states) - _backward_reach(model, goal_set))
    if opt != "min":
        raise ModelError(f"unknown opt {opt!r}")
    positive = set(goal_set)
    changed = True
    while changed:
        changed = False
        for s in model.states:
            if s in positive:
                continue
            if all(any(b.target in positive for b in t.branches) for t in model.transitions[s]):
                positive.add(s)
                changed = True
    return frozenset(set(model.states) - positive)


def prob1_set(model: Mdp, goals: Iterable[int], opt: str) -> StateSet:
    """States whose optimal probability of reaching the goals is exactly 1."""
    goal_set = _check_states(model, goals, "goals")
    if opt == "max":
        return _prob1_max(model, goal_set)
    if opt != "min":
        raise ModelError(f"unknown opt {opt!r}")
    # Pmin = 1 iff no scheduler can, while avoiding the goals, reach a state
    # from which some scheduler avoids the goals forever.
    zero = prob0_set(model, goal_set, "min")
    bad = _backward_reach(model, zero, avoid=goal_set)
    return frozenset(set(model.states) - bad)


def _prob1_max(model: Mdp, goals: frozenset[int]) -> StateSet:
    # Greatest fixpoint of: R := { s | some transition stays inside R and can
    # reach the current inner least fixpoint X built up from the goals }.
    r = set(model.states)
    while True:
        x = set(goals)
        grew = True
        while grew:
            grew = False
            for s in model.states:
                if s in x:
                    continue
                for t in model.transitions[s]:
                    if all(b.target in r for b in t.branches) and any(b.target in x for b in t.branches):
                        x.add(s)
                        grew = True
                        break
        if x == r:
            return frozenset(r)
        r = x


def s_infinity(model: Mdp, goals: Iterable[int], opt: str) -> StateSet:
    """States whose expected reward is infinite: the pessimal reachability
    probability (min for opt="max", max for opt="min") is below 1."""
    if opt == "max":
        sure = prob1_set(model, goals, "min")
    elif opt == "min":
        sure = prob1_set(model, goals, "max")
    else:
        raise ModelError(f"unknown opt {opt!r}")
    return frozenset(set(model.states) - sure)


@dataclass(frozen=True)
class EndComponent:
    """A maximal end component: its states and, per state, the kept transition
    indices (all of whose branches are zero-reward and stay inside)."""

    states: StateSet
    kept_transitions: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", frozenset(self.states))


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


def mec_decomposition(model: Mdp) -> list[EndComponent]:
    """Maximal end components, by attractor peeling and SCC refinement.

    Only transitions whose branches all carry reward zero can take part; a
    transition stays in a candidate component only while all its branch
    targets do.  Each round first peels, with a worklist, every state of the
    candidate left with no such transition (removing a state can strand its
    predecessors), then splits the rest into SCCs.  A candidate that stays one
    SCC is a MEC; otherwise each SCC is a new candidate.  Single states
    qualify only with such a self-loop.
    """
    # Target sets of the zero-reward transitions, and who uses each target.
    zero_targets: list[list[tuple[int, frozenset[int]]]] = []
    users: list[list[tuple[int, int]]] = [[] for _ in model.states]
    for s, ts in enumerate(model.transitions):
        mine = []
        for ti, t in enumerate(ts):
            if all(b.reward_exact == 0 for b in t.branches):
                targets = frozenset(b.target for b in t.branches)
                mine.append((ti, targets))
                for target in targets:
                    users[target].append((s, ti))
        zero_targets.append(mine)

    result: list[EndComponent] = []
    todo: list[set[int]] = [set(model.states)]
    while todo:
        component = todo.pop()
        kept = {s: {ti for ti, targets in zero_targets[s] if targets <= component}
                for s in component}
        stranded = [s for s, ks in kept.items() if not ks]
        while stranded:
            t = stranded.pop()
            component.discard(t)
            del kept[t]
            for s, ti in users[t]:
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


@dataclass(frozen=True)
class QuotientMap:
    """Result of collapsing end components: the quotient model plus state maps.

    representative: original state -> representative original state (idempotent);
    to_quotient: original state -> state id in the quotient model.
    """

    representative: tuple[int, ...]
    to_quotient: tuple[int, ...]
    quotient: Mdp

    def map_state(self, state: int) -> int:
        return self.to_quotient[state]

    def map_states(self, states: Iterable[int]) -> frozenset[int]:
        return frozenset(self.to_quotient[s] for s in states)


def identity_quotient(model: Mdp) -> QuotientMap:
    ids = tuple(model.states)
    return QuotientMap(ids, ids, model)


def eliminate_end_components(model: Mdp, mecs: Sequence[EndComponent],
                             protect: Iterable[int] = ()) -> QuotientMap:
    """Collapse each end component to one state, keeping transitions that lead out.

    A protected state (typically a goal) becomes its component's representative;
    a component holding two protected states cannot be collapsed coherently and
    is rejected.  Branches that land in the same component merge, summing their
    exact probabilities.  A representative left with no transitions (a bottom
    component) gets a zero-reward self-loop so the quotient stays well formed.
    """
    protect_set = _check_states(model, protect, "protect")
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
            return Transition(tuple(Branch(float(b.probability_exact), float(b.reward_exact), q,
                                           b.probability_exact, b.reward_exact)
                                    for b, q in zip(tr.branches, targets)), tr.label)
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
                # Every float here is float(exact), so duplicates share their
                # (probability, reward, target) prefixes, which hash far faster
                # than Fractions; equal exact fields confirm a duplicate.
                alike = seen.setdefault(tuple(b[:3] for b in new_tr.branches), [])
                if new_tr.branches in alike:
                    continue
                alike.append(new_tr.branches)
                ts.append(new_tr)
        if not ts:
            me = new_id[old_rep]
            ts.append(Transition((Branch(1.0, 0.0, me, Fraction(1), Fraction(0)),)))
        transitions.append(tuple(ts))

    quotient = Mdp(len(reps), to_quotient[model.initial], tuple(transitions))
    return QuotientMap(tuple(rep_of), to_quotient, quotient)
