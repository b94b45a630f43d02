"""Reference values by policy iteration, independent of the solvers under test.

The benchmark checks every certified answer of `soundmdp solve` against a
value computed here.  Nothing in this module calls soundmdp's graph
analyses, solvers or oracle: the qualitative sets are recomputed with
worklists, and each policy is evaluated by a sparse linear solve (scipy)
with one step of iterative refinement.  States whose optimal probability is
exactly 0 or 1 get that value exactly, so a probability reference never
carries rounding error.

Goal states are treated as absorbing with value 1 (probabilities) or 0
(expected rewards), matching the semantics of `soundmdp solve`.  Expected
rewards are infinite where the goals are not reached almost surely under the
pessimal scheduler.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import bicgstab, splu

#: per state: its choices, each a list of (probability, reward, target)
Choices = list[list[list[tuple[float, float, int]]]]

MAX_POLICY_ROUNDS = 500
#: systems this large are solved iteratively: LU fill-in on random graphs of
#: thousands of states costs seconds per policy
KRYLOV_MIN_STATES = 2000
#: a choice replaces the current one only when better by this relative margin
SWITCH_MARGIN = 1e-12


def choices_of(model) -> Choices:
    """Plain nested lists from a soundmdp `Mdp` (binary64 fields only)."""
    return [[[(b.probability, b.reward, b.target) for b in t.branches] for t in ts]
            for ts in model.transitions]


def _predecessors(choices: Choices, allowed) -> list[list[int]]:
    pred: list[list[int]] = [[] for _ in choices]
    for s, cs in enumerate(choices):
        for ci, branches in enumerate(cs):
            if allowed(s, ci):
                for _, _, t in branches:
                    pred[t].append(s)
    return pred


def _reach_exists(choices: Choices, targets: set[int], allowed=lambda s, ci: True,
                  avoid: set[int] = frozenset()) -> set[int]:
    """States with a path into `targets` through allowed choices, not passing `avoid`."""
    pred = _predecessors(choices, allowed)
    reached = set(targets)
    queue = deque(reached)
    while queue:
        t = queue.popleft()
        for s in pred[t]:
            if s not in reached and s not in avoid:
                reached.add(s)
                queue.append(s)
    return reached


def _forced_positive(choices: Choices, goals: set[int]) -> set[int]:
    """Least set containing the goals and every state all of whose choices
    have a branch into the set: the states where Pmin > 0."""
    edges: list[list[tuple[int, int]]] = [[] for _ in choices]
    for s, cs in enumerate(choices):
        if s in goals:
            continue
        for ci, branches in enumerate(cs):
            for _, _, t in branches:
                edges[t].append((s, ci))
    open_choices = [len(cs) for cs in choices]
    hit: set[tuple[int, int]] = set()
    positive = set(goals)
    queue = deque(positive)
    while queue:
        t = queue.popleft()
        for s, ci in edges[t]:
            if s in positive or (s, ci) in hit:
                continue
            hit.add((s, ci))
            open_choices[s] -= 1
            if open_choices[s] == 0:
                positive.add(s)
                queue.append(s)
    return positive


def _prob1_max(choices: Choices, goals: set[int]) -> set[int]:
    """States where Pmax = 1: nested fixpoint over choices that stay inside."""
    region = set(range(len(choices)))
    while True:
        inside = region
        nxt = _reach_exists(
            choices, goals,
            allowed=lambda s, ci: all(t in inside for _, _, t in choices[s][ci]))
        if nxt == region:
            return region
        region = nxt


def _attractor_policy(choices: Choices, goals: set[int], states: set[int],
                      allowed=lambda s, ci: True) -> dict[int, int]:
    """For each state in `states`, an allowed choice with a branch one BFS
    layer closer to the goals; the resulting policy reaches them with
    positive probability from everywhere."""
    pred: list[list[tuple[int, int]]] = [[] for _ in choices]
    for s in states:
        for ci, branches in enumerate(choices[s]):
            if allowed(s, ci):
                for _, _, t in branches:
                    pred[t].append((s, ci))
    policy: dict[int, int] = {}
    queue = deque(goals)
    while queue:
        t = queue.popleft()
        for s, ci in pred[t]:
            if s not in policy and s not in goals:
                policy[s] = ci
                queue.append(s)
    missing = states - set(policy)
    if missing:
        raise RuntimeError(f"no attractor choice for {len(missing)} states")
    return policy


class _Flat:
    """The unknown states' choices as flat arrays for vectorised backups."""

    def __init__(self, choices: Choices, unknown: list[int], use_rewards: bool):
        self.unknown = unknown
        starts, c_state, b_choice, b_p, b_r, b_t = [], [], [], [], [], []
        for i, s in enumerate(unknown):
            starts.append(len(c_state))
            for branches in choices[s]:
                c = len(c_state)
                c_state.append(i)
                for p, r, t in branches:
                    b_choice.append(c)
                    b_p.append(p)
                    b_r.append(r if use_rewards else 0.0)
                    b_t.append(t)
        self.starts = np.array(starts, dtype=np.int64)
        self.c_state = np.array(c_state, dtype=np.int64)
        self.b_choice = np.array(b_choice, dtype=np.int64)
        self.b_p = np.array(b_p)
        self.b_r = np.array(b_r)
        self.b_t = np.array(b_t, dtype=np.int64)
        self.n_choices = len(c_state)

    def q_values(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.b_choice, weights=self.b_p * (self.b_r + values[self.b_t]),
                           minlength=self.n_choices)


def _solve(a, b: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Solve a x = b to working precision: warm-started BiCGSTAB on large
    systems, sparse LU otherwise or when BiCGSTAB stalls; each followed by
    one step of iterative refinement."""
    n = len(b)
    if n >= KRYLOV_MIN_STATES:
        x = bicgstab(a, b, x0=np.where(np.isfinite(guess), guess, 0.0),
                     rtol=1e-15, atol=0.0, maxiter=10 * n)[0]
        x += bicgstab(a, b - a @ x, rtol=1e-15, atol=0.0, maxiter=10 * n)[0]
        if np.max(np.abs(b - a @ x)) <= 1e-14 * max(1.0, np.max(np.abs(x))):
            return x
    lu = splu(a)
    x = lu.solve(b)
    x += lu.solve(b - a @ x)
    return x


def _evaluate(flat: _Flat, policy: np.ndarray, values: np.ndarray,
              index: np.ndarray) -> np.ndarray:
    """Solve x = P_pi x + b over the unknown states; `values` holds the fixed ones."""
    n = len(flat.unknown)
    chosen = np.zeros(flat.n_choices, dtype=bool)
    chosen[flat.starts + policy] = True
    sel = chosen[flat.b_choice]
    rows = flat.c_state[flat.b_choice[sel]]
    p, r, t = flat.b_p[sel], flat.b_r[sel], flat.b_t[sel]
    col = index[t]
    inner = col >= 0
    fixed_vals = np.where(inner, 0.0, values[t])
    if not np.all(np.isfinite(fixed_vals)):
        raise RuntimeError("a policy under evaluation leaves the finite region")
    b = np.bincount(rows, weights=p * (r + fixed_vals), minlength=n)
    a = csc_matrix((-p[inner], (rows[inner], col[inner])), shape=(n, n))
    a = a + csc_matrix((np.ones(n), (np.arange(n), np.arange(n))), shape=(n, n))
    x = _solve(a.tocsc(), b, values[flat.unknown])
    if not np.all(np.isfinite(x)):
        raise RuntimeError("singular policy evaluation")
    return x


def _policy_iteration(choices: Choices, unknown: list[int], values: np.ndarray,
                      maximize: bool, use_rewards: bool, initial: dict[int, int],
                      forbidden: set[int] = frozenset()) -> None:
    """Fill `values` at the unknown states with their optimal values."""
    if not unknown:
        return
    flat = _Flat(choices, unknown, use_rewards)
    index = np.full(len(values), -1, dtype=np.int64)
    index[unknown] = np.arange(len(unknown))
    policy = np.array([initial.get(s, 0) for s in unknown], dtype=np.int64)
    unsafe = np.zeros(flat.n_choices, dtype=bool)
    if forbidden:
        bad = np.isin(flat.b_t, np.array(sorted(forbidden), dtype=np.int64))
        unsafe[flat.b_choice[bad]] = True
    for _ in range(MAX_POLICY_ROUNDS):
        values[unknown] = _evaluate(flat, policy, values, index)
        q = flat.q_values(values)
        q[unsafe] = -np.inf if maximize else np.inf
        current = q[flat.starts + policy]
        best = (np.maximum if maximize else np.minimum).reduceat(q, flat.starts)
        margin = SWITCH_MARGIN * np.maximum(1.0, np.abs(current))
        better = best > current + margin if maximize else best < current - margin
        if not better.any():
            return
        for i in np.flatnonzero(better):
            lo = flat.starts[i]
            hi = flat.starts[i + 1] if i + 1 < len(flat.starts) else flat.n_choices
            policy[i] = int(np.argmax(q[lo:hi]) if maximize else np.argmin(q[lo:hi]))
    raise RuntimeError("policy iteration did not converge")


def reference_values(choices: Choices, goals, kind: str) -> np.ndarray:
    """Optimal values of every state for kind in pmax, pmin, emax, emin."""
    n = len(choices)
    goal_set = set(goals)
    everything = set(range(n))
    values = np.zeros(n)
    if kind in ("pmax", "pmin"):
        if kind == "pmax":
            zero = everything - _reach_exists(choices, goal_set)
            one = _prob1_max(choices, goal_set)
        else:
            zero = everything - _forced_positive(choices, goal_set)
            one = everything - _reach_exists(choices, zero, avoid=goal_set)
        values[sorted(one | goal_set)] = 1.0
        unknown = sorted(everything - zero - one - goal_set)
        initial = (_attractor_policy(choices, goal_set | one, set(unknown))
                   if kind == "pmax" else {})
        _policy_iteration(choices, unknown, values, kind == "pmax", False, initial)
        return values
    if kind == "emax":
        zero = everything - _forced_positive(choices, goal_set)
        sure = everything - _reach_exists(choices, zero, avoid=goal_set)
    elif kind == "emin":
        sure = _prob1_max(choices, goal_set)
    else:
        raise RuntimeError(f"unknown property kind {kind!r}")
    infinite = everything - sure
    values[sorted(infinite)] = math.inf
    unknown = sorted(sure - goal_set)
    initial = {}
    if kind == "emin":
        initial = _attractor_policy(
            choices, goal_set, set(unknown),
            allowed=lambda s, ci: all(t in sure for _, _, t in choices[s][ci]))
    _policy_iteration(choices, unknown, values, kind == "emax", True, initial,
                      forbidden=infinite)
    return values


def reference_value(model, goals, kind: str) -> float:
    """The optimal value at the initial state of a soundmdp `Mdp`."""
    return float(reference_values(choices_of(model), goals, kind)[model.initial])
