"""Numeric solvers: Bellman backups, Gauss-Seidel VI, optimistic VI, interval iteration.

All solvers work on a BellmanProblem: the model, the optimization direction,
the set of unknown states S? that sweeps update, and the seed vector holding
the fixed values of everything else (goal states, probability-0 states,
infinite-reward states).  Every iterative solver advances by Gauss-Seidel
sweeps, which update their vectors in place, so within a sweep later states
already see this sweep's earlier updates; iteration order therefore matters
and is part of every call.  A solver given no order sweeps the unknowns by
id (`default_order`); the pipeline passes its own, by default the unknowns
sorted by their distance from the goals (`graph.goal_distance_order`).  On
the slow chains, whose values flow back from the goal against id order,
that order needs a half to a tenth of the sweeps.
A sweep comes in two forms.  `gsvi` sweeps a lower vector alone and reads
the error.  OVI's proof loop and interval iteration sweep a lower and an
upper vector together, in one pass over each state's branches; only OVI
reads the error, the up/down flags and the first crossing state.

The branch contract, `model.validate`'s branch rules: every state has a
choice and every choice a branch, every weight is a float in (0, 1], every
reward a finite float >= 0 (-0.0 included) and every target a state.
`_compile_kernel` checks it once per problem, before the first sweep; no
seed (`BellmanProblem`) and no upper start (`interval_iteration`) may be
negative, -0.0 or NaN.  So the backup is monotone, and interval
iteration's vectors never cross (the proof is `_compile_kernel`'s).

`_sweep` loops over the kernel's branch tuples and runs every sweep of
`gsvi` and `ovi`; it is the reference the tests hold compiled code to.
Its one-vector form, every `gsvi` sweep, has a loop of its own with the
state's backup inlined: a call per state cost about a tenth of a `large`
emin sweep.  `bellman_apply` still calls `_choice_value` per choice.
Unobserved, `gsvi` measures the error only up to epsilon_vi (beyond it the
sweep cannot end the iteration, so the rest of it updates states without
measuring their gains).  Interval iteration measures no error, and its
phase ends at a narrow enough interval at the initial state.
An unobserved interval iteration that runs COMPILE_AFTER_SWEEPS sweeps
compiles its phase into a runner (`_compile_phase`): straight-line Python
with the kernel's constants as literals, which performs the same
operations in the same order without the per-branch loop overhead, inside
a loop over sweeps that holds the values in local variables up to the
phase's end.  It leaves out only operations that cannot change a float
under the branch contract: a multiply by a probability of 1.0, the
temporaries of a state without a self-loop, a zero reward, a repeat of a
branch term `p*(r+x[t])` before t is next written (a term whose t the
phase never writes is computed once, before the loop), and the `0.0 +`
that starts each choice sum.  The runner also stops sweeping the upper
vector once a whole sweep has left it as it was: u-sums read only `u`, so
every later sweep would too, and the runner sweeps `v` alone from then on.
The benchmark chains' upper vectors, which start at the emax bound, settle
within their first 31 sweeps of 793 to 6 713.  A phase of more than
_LOCAL_BRANCHES branches stays with `_sweep`.  Runners are kept per
process in a plain dict (`_RUNNERS`), emptied when full, keyed by the
phase itself: the direction, the initial state, the order and the order's
kernel rows, as a tuple.  So a phase repeated in the process compiles
once, and its repeats run the runner from their first sweep.  The
benchmark's `sweep` workload compiles 4 runners, `large` none, and a
one-shot `soundmdp solve` reuses none.

Lower iterates started from the seed vector stay below the least fixed point,
so a plain VI result is only a lower bound with no error guarantee.  The sound
solvers return certified two-sided bounds: interval iteration squeezes the
value between a rising lower and a falling upper iterate, and optimistic VI
guesses an upper vector from the lower one, or both vectors from a policy's
values, and proves either guess in one loop of joint sweeps, which accepts
it only when a sweep moves no upper value up (inductivity, hence a true
upper bound).  The policy guess comes at sweep 64 of the first phase where
the phase's convergence, forecast from two exact errors, would cost more
than policy rounds (`_guess_pays`), else at sweep 128.

`gsvi`, `ovi` and `interval_iteration` share one calling convention:
`(problem, ..., order=None, *, max_sweeps=DEFAULT_SWEEP_CAP, deadline=None,
observer=None)`.  `max_sweeps` bounds all sweeps of the call (for `ovi`, the
total over its iteration and verification phases), `deadline` is a
`time.perf_counter()` value past which a sweep raises `SolveTimeout`, and
`observer(event, *payload)` is called with the solver's live vectors, which
it must copy to keep.  An observed solve runs `_sweep` for every sweep:

  ("iter", sweep, error, v)        after each `gsvi` sweep, with the exact
                                   error;
  ("ii", sweep, v, u)              after each interval-iteration sweep;
  ("guess", u)                     when `ovi` guesses an upper vector;
  ("verify", sweep, error, v, u, up, down, cross)
                                   after each `ovi` verification sweep, with
                                   the flags of `_sweep` (cross: the first
                                   crossing state or -1);
  ("policy", rounds, l, u)         when `ovi` makes a policy-evaluation guess,
                                   before its first joint sweep: the rounds
                                   of policy iteration, the lower and the
                                   upper vector;
  ("cancel", reason)               when `ovi` refutes a guess: "up", "cross"
                                   or "guard" (the ten-times rule), or
                                   "policy" for a policy-evaluation guess;
  ("adopt-upper",)                 when `ovi` keeps a refuted upper vector as
                                   its lower one;
  ("epsilon-vi", x)                when `ovi` sets the next phase's threshold.

`ovi` passes its observer on to `gsvi`, so its iteration phases send "iter";
an iteration phase paused for a policy-evaluation guess counts its sweeps on
from the pause when it resumes.  The joint sweeps of a policy-evaluation
guess send no "verify".
"""

from __future__ import annotations

import math
import operator
import time
from collections import Counter
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Sequence

from .errors import IterationCapExceeded, SolveTimeout, SolverError
from .graph import attractor, predecessor_index
from .model import Mdp, Property

DEFAULT_SWEEP_CAP = 10_000_000

#: per state: tuple of transitions, each a tuple of (probability, reward, target)
Kernel = tuple[tuple[tuple[tuple[float, float, int], ...], ...], ...]


def _compile_kernel(model: Mdp) -> Kernel:
    """The model's branches as (p, r, t) tuples, checked against the branch
    contract (see the module docstring; weights need not sum to 1 here); a
    breach raises SolverError naming the state and the transition.

    With positive-signed seeds and upper starts (+0.0, above it or +inf),
    every value a sweep reads is positive-signed: `r + x` is -0.0 only
    where both are, `p*y` keeps the sign of y for p > 0, and so do sums
    and the best of them.  Rounding to nearest is monotone, so each rounded
    `+`, `*` by p > 0, `max` and `min` keeps operands' order in its result.
    A two-vector sweep updates each state's `v` and `u` by the same
    operations on values read at the same point of the sweep, so by
    induction over its updates `v <= u` everywhere before a sweep gives
    `v <= u` everywhere after it: interval iteration's vectors, started so,
    never cross.  OVI's guess is clamped to 1 and can start below a `v`
    that rounding lifted past 1, so `_sweep` still reports crossings.
    """
    n = model.num_states
    kernel = tuple(tuple(tuple(b[:3] for b in t.branches) for t in ts)
                   for ts in model.transitions)
    if len(kernel) != n:
        raise SolverError(f"transition table covers {len(kernel)} of {n} states")
    for s, trs in enumerate(kernel):
        if not trs:
            raise SolverError(f"state {s} has no transitions")
        for i, branches in enumerate(trs):
            if not branches:
                raise SolverError(f"state {s}, transition {i}: transition has no branches")
            for p, r, t in branches:
                if not (type(p) is float and 0.0 < p <= 1.0 and type(r) is float
                        and 0.0 <= r < math.inf and type(t) is int and 0 <= t < n):
                    raise SolverError(f"state {s}, transition {i}: branch ({p!r}, {r!r}, {t!r}) "
                                      "needs a float weight in (0,1], a finite float reward "
                                      ">= 0 and a target state")
    return kernel


class BellmanProblem:
    """A fixed-point problem: update states in `unknowns`, hold the rest at their seeds."""

    __slots__ = ("model", "opt", "unknowns", "seed", "probability_mode", "unique_fixed_point",
                 "kernel")

    def __init__(self, model: Mdp, opt: str, unknowns: frozenset[int], seed: tuple[float, ...],
                 probability_mode: bool, unique_fixed_point: bool = False) -> None:
        self.model, self.opt, self.unknowns, self.seed = model, opt, unknowns, seed
        self.probability_mode, self.unique_fixed_point = probability_mode, unique_fixed_point
        if self.opt not in ("max", "min"):
            raise SolverError(f"unknown opt {self.opt!r}")
        if len(self.seed) != self.model.num_states:
            raise SolverError("seed vector length does not match the state count")
        if -1.0 in map(math.copysign, repeat(1.0), seed) or any(map(math.isnan, seed)):
            s = next(s for s, x in enumerate(seed)
                     if not (x >= 0.0 and math.copysign(1.0, x) > 0.0))
            raise SolverError(f"seed value {seed[s]!r} at state {s} is negative, -0.0 or NaN")

    def __getattr__(self, name: str) -> Kernel:
        # Reached only while a slot is unset: `kernel` is built and checked
        # on first use, so a solve that runs no sweep never pays for it.
        if name != "kernel":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.kernel = kernel = _compile_kernel(self.model)
        return kernel

    def initial_vector(self) -> list[float]:
        return list(self.seed)

    def default_order(self) -> list[int]:
        return sorted(self.unknowns)


def probability_problem(model: Mdp, goals: Iterable[int], opt: str, *,
                        fixed_zero: Iterable[int] = (), fixed_one: Iterable[int] = (),
                        unique_fixed_point: bool = False) -> BellmanProblem:
    """Reachability problem on a reward-stripped model: goals seed 1, the rest 0."""
    goal_set, zero, one = frozenset(goals), frozenset(fixed_zero), frozenset(fixed_one)
    seed = tuple(1.0 if s in goal_set or s in one else 0.0 for s in model.states)
    unknowns = frozenset(model.states) - goal_set - zero - one
    return BellmanProblem(model, opt, unknowns, seed, True, unique_fixed_point)


def reward_problem(model: Mdp, goals: Iterable[int], opt: str, s_inf: Iterable[int], *,
                   unique_fixed_point: bool = False) -> BellmanProblem:
    """Expected-reward problem: infinite-reward states seed inf, goals are fixed at 0."""
    goal_set, inf_set = frozenset(goals), frozenset(s_inf)
    seed = tuple(math.inf if s in inf_set else 0.0 for s in model.states)
    unknowns = frozenset(model.states) - goal_set - inf_set
    return BellmanProblem(model, opt, unknowns, seed, False, unique_fixed_point)


class ErrorCriterion:
    """Stopping rule for an iteration phase: relative skips zero values."""

    __slots__ = ("mode", "epsilon_vi")

    def __init__(self, mode: str = "relative", epsilon_vi: float = 1e-6) -> None:
        self.mode, self.epsilon_vi = mode, epsilon_vi
        if self.mode not in ("relative", "absolute"):
            raise SolverError(f"unknown error mode {self.mode!r}")
        # SolveOptions' rule for epsilon-vi: one of 0 or below, or NaN, is never
        # met, and gsvi would run to its cap.
        if not (self.epsilon_vi > 0 and math.isfinite(self.epsilon_vi)):
            raise SolverError(f"epsilon_vi must be a positive finite real, not {self.epsilon_vi!r}")


class SolveOutcome:
    """What a solver proved at the initial state; it carries no time."""

    __slots__ = ("value", "lower_bound", "upper_bound", "iterations", "verification_phases",
                 "cancelled_verifications", "method", "certified", "status")

    def __init__(self, value: float, lower_bound: float | None, upper_bound: float | None,
                 iterations: int, verification_phases: int = 0,
                 cancelled_verifications: int = 0, method: str = "", certified: bool = False,
                 status: str = "ok") -> None:  # "ok", "no-certificate", "uncertified"
        self.value, self.lower_bound, self.upper_bound = value, lower_bound, upper_bound
        self.iterations, self.verification_phases = iterations, verification_phases
        self.cancelled_verifications, self.method = cancelled_verifications, method
        self.certified, self.status = certified, status
        if self.lower_bound is not None and self.upper_bound is not None:
            if not (self.lower_bound <= self.value <= self.upper_bound):
                raise SolverError("outcome bounds do not bracket the value")


#: OVI cancels a verification phase running past this many times its iteration phase
VERIFICATION_FACTOR = 10


def bellman_apply(problem: BellmanProblem, values: Sequence[float]) -> list[float]:
    """One synchronous backup: a fresh vector, the input untouched."""
    if len(values) != problem.model.num_states:
        raise SolverError("value vector length does not match the state count")
    kernel, best = problem.kernel, max if problem.opt == "max" else min
    out = list(values)
    for s in problem.unknowns:
        out[s] = best(_choice_value(branches, values) for branches in kernel[s])
    return out


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise SolveTimeout(_LATE_MESSAGE)


def _sweep(kernel: Kernel, order: Sequence[int], maximize: bool, relative: bool,
           v: list[float], u: list[float] | None = None,
           stop: float = math.inf) -> tuple[float, bool, bool, int]:
    """One Gauss-Seidel sweep over `order`, updating `v` (and `u`) in place.

    Returns (error, up, down, cross): the largest gain of `v`, relative to the
    new value (non-positive new values count nothing) or absolute; whether no
    `u` value moved down, and whether none moved up; and the first state where
    `u` fell below `v`, or -1.  `u` is backed up in the same pass over each
    state's branches, with the sums and tie-breaks of a one-vector sweep.

    Gains are measured only while the error is below `stop`: every gain below
    it is seen, the first that reaches it lifts the error to at least `stop`,
    and the error never falls, so the result is the exact error when that is
    below `stop` and some value >= `stop` otherwise.
    """
    error = 0.0
    if u is None:
        for s in order:
            v_new = None
            for branches in kernel[s]:
                acc = 0.0
                for p, r, t in branches:
                    acc += p * (r + v[t])
                if v_new is None or (acc > v_new if maximize else acc < v_new):
                    v_new = acc
            if error < stop:
                gain = v_new - v[s]
                if relative:
                    gain = gain / v_new if v_new > 0 else 0.0
                if gain > error:
                    error = gain
            v[s] = v_new
        return error, True, True, -1
    up = down = True
    cross = -1
    for s in order:
        v_new = u_new = None
        for branches in kernel[s]:
            acc_v = acc_u = 0.0
            for p, r, t in branches:
                acc_v += p * (r + v[t])
                acc_u += p * (r + u[t])
            if v_new is None or (acc_v > v_new if maximize else acc_v < v_new):
                v_new = acc_v
            if u_new is None or (acc_u > u_new if maximize else acc_u < u_new):
                u_new = acc_u
        if u_new < u[s]:
            up = False
        elif u_new > u[s]:
            down = False
        if cross < 0 and u_new < v_new:
            cross = s
        u[s] = u_new
        if error < stop:
            gain = v_new - v[s]
            if relative:
                gain = gain / v_new if v_new > 0 else 0.0
            if gain > error:
                error = gain
        v[s] = v_new
    return error, up, down, cross


#: generic sweeps interval iteration runs before it compiles its phase.  On
#: the benchmark's four slow chains (phases of 19 to 79 branches) a compile
#: costs as much as 190 to 250 generic two-vector sweeps (1.1 to 3.1 ms).  A
#: runner sweep is 8.5 to 9.1 times faster than a generic one once `u` has
#: settled, as it has on these chains long before sweep 256, and 4.7 to 5.1
#: times while `u` still moves, so a compile is repaid 215 to 270 sweeps
#: after the switch (250 to 320 while `u` moves; medians of 15 to 21
#: in-process runs, shared 2-core x86-64 host, Python 3.11.7).  At 256 the
#: generic sweeps have cost about one compile when the switch comes, so a
#: phase that ends right after it pays at most about twice its generic
#: cost, and every long phase gains.  Only a phase's first run in the
#: process runs these generic sweeps and pays the compile: a repeat finds
#: its runner in `_RUNNERS` and runs it from sweep 0.
COMPILE_AFTER_SWEEPS = 256

#: sweeps a phase runner waits after a failed check before it
#: snapshots `u` again (`_compile_phase`'s settle rule).  A check builds a
#: tuple of the phase's `u` values, which a runner whose `u` never settles
#: pays once per 17 sweeps; a runner stops sweeping a settled `u` at most 17
#: sweeps after its last change
_SETTLE_CHECK_SWEEPS = 16

#: branches per statement of a choice sum, so that the compiler never sees a
#: deeply nested expression
_STATEMENT_BRANCHES = 32

#: the most branches a phase runner holds in local variables.  CPython's
#: parser and compiler hold the whole source of a runner at once, about 10
#: KB per branch at the compile's peak (tracemalloc: 9.6 KB on Python 3.11,
#: 11.7 KB on 3.12), so this bounds one compile near 2.5 to 3 MB.  A larger
#: phase stays with `_sweep`.
_LOCAL_BRANCHES = 256

#: how a runner ended other than by its stop test: at the sweep cap, or past the deadline
_CAPPED, _LATE = -2, -3

_LATE_MESSAGE = "numeric phase ran past its deadline"


def _best_lines(trs: tuple, vec: str, target: str, maximize: bool,
                share: Callable[[str, int], str]) -> list[str]:
    """Statements leaving the state's best choice value over `vec` in `target`.

    `vec` is the prefix of the local variables holding one vector's values
    (`v` or `u`).  Each choice's sum is `_sweep`'s `0.0 + p*(r+vec[t]) + ...`
    in branch order, written in statements of at most _STATEMENT_BRANCHES
    terms; `share(term, t)` gives the text each term is written as (see
    `_compile_phase`).  Three rewrites leave every float as it is, since
    every value read is positive-signed (see `_compile_kernel`):

    - `p*vec[t]` stands for a reward of +0.0 or -0.0: `-0.0 + x` is `x`
      for every x, and `+0.0 + x` for every x but -0.0;
    - `(r+vec[t])` and `vec[t]` stand for a probability of exactly 1.0,
      since `1.0*y` is `y` for every y;
    - a sum starts at its first term instead of at `0.0 +`, since
      `0.0 + y` is `y` for every y but -0.0.

    A later choice replaces the best only when strictly better, so ties go
    to the first best choice, as in `_sweep`.
    """
    better = ">" if maximize else "<"
    lines = []
    for i, branches in enumerate(trs):
        name = target if i == 0 else "y"
        terms = []
        for p, r, t in branches:
            term = f"{vec}{t}" if r == 0.0 else f"({r!r}+{vec}{t})"
            terms.append(share(term if p == 1.0 else f"{p!r}*{term}", t))
        for j in range(0, len(terms), _STATEMENT_BRANCHES):
            chunk = "+".join(terms[j:j + _STATEMENT_BRANCHES])
            lines.append(f"{name} = {name}+{chunk}" if j else f"{name} = {chunk}")
        if i:
            lines.append(f"if y {better} {target}: {target} = y")
    return lines


def _state_lines(s: int, trs: tuple, vec: str, maximize: bool,
                 share: Callable[[str, int], str]) -> list[str]:
    """One state's statements of a sweep over `vec` (`v` or `u`), `_sweep`'s
    operations on that vector in its order.  A state without a self-loop
    assigns its new value straight to its own variable, since its sums read
    only other states' values; one with a self-loop sums into a temporary
    first (`n` for `v`, `m` for `u`).
    """
    if all(t != s for branches in trs for _, _, t in branches):
        return _best_lines(trs, vec, f"{vec}{s}", maximize, share)
    temp = "n" if vec == "v" else "m"
    return [*_best_lines(trs, vec, temp, maximize, share), f"{vec}{s} = {temp}"]


def _compile_phase(kernel: Kernel, order: Sequence[int], maximize: bool,
                   s_init: int) -> Callable | None:
    """Interval iteration's phase runner: `_sweep` over two vectors, unrolled,
    in a loop.

    The runner `run(v, u, sweeps, cap, deadline, eps, relative_width)` runs
    Gauss-Seidel sweeps, counting on from `sweeps`, until one whose width
    `u - v` at state `s_init` is at most `eps` (`eps` times the lower value
    if `relative_width`); before each sweep it ends at the cap or past the
    deadline, as `interval_iteration`'s loop does.  It returns (sweeps,
    end): end is -1 after the width test, _CAPPED or _LATE otherwise.  Its
    input is interval iteration's: positive-signed vectors with `v <= u`,
    which never cross (see `_compile_kernel`), so it tests no crossing.

    Every state of `order` becomes a few statements with its probabilities,
    rewards and targets as literals.  A runner sweep first updates `u` over
    the whole order, then `v`.  A u-sum reads only `u` and a v-sum only
    `v`, so every sum performs `_sweep`'s operations in its order on the
    values `_sweep` gives it: every float and the sweep count come out as
    in `_sweep`.  Every value the runner reads sits in a local variable,
    loaded before the loop (one `itemgetter` call per vector) and stored
    back after it (one loop per vector), which keeps the source a tenth
    shorter than a statement per value would.  Returns None, and the caller
    stays with `_sweep`, for a phase of more than _LOCAL_BRANCHES branches,
    and for an empty order or one that holds anything but int states: the
    source holds only `repr` of floats and int indices.  A state named
    twice is swept twice, as in `_sweep`.

    Common terms.  A term's value depends only on its text and on the one
    variable it reads, so the runner computes it once while that variable
    stays the same: a term into a state outside `order` once, before the
    loop, and a term used again before its target is next written once per
    sweep, into a temporary (`(w<k>:=term)` at its first use, `w<k>` after).
    A first pass over `order` counts the uses of each term by its text and
    its target's epoch, the writes to it so far in the sweep; the second
    pass writes the sweep.

    Every call compiles; `interval_iteration` keeps the runner in
    `_RUNNERS` under the phase's arguments, so a phase repeated in the
    process compiles once.  A runner keeps its values in locals and reads
    only `time`, so solves in several threads may share it.

    The settle rule.  The runner stops sweeping `u` once one whole sweep has
    left every `u` value as it was, and keeps the rest of each sweep.  This
    is exact: a u-sum reads only `u` and constants, so such a sweep repeats
    itself at every later sweep.  The runner tells by `==`, bit equality
    for positive-signed values.  The check sits behind the cap test, `k >=
    lim` with `lim <= cap`, so a sweep between checks pays nothing.  It
    snapshots `u` and sets `lim` to the next sweep; after that sweep it
    compares (the first state's value first, which ends the comparison at
    once while `u` moves), and on a difference sets `lim`
    _SETTLE_CHECK_SWEEPS sweeps on (at most to the cap) for the next
    snapshot.  So a runner stops sweeping `u` at most
    _SETTLE_CHECK_SWEEPS + 1 sweeps after its last change.
    """
    n = len(kernel)
    if not (type(s_init) is int and 0 <= s_init < n and order
            and all(type(s) is int and 0 <= s < n for s in order)
            and sum(len(b) for s in order for b in kernel[s]) <= _LOCAL_BRANCHES):
        return None
    read = sorted({t for s in order for b in kernel[s] for _, _, t in b}
                  | set(order) | {s_init})
    uses: Counter = Counter()
    temps: dict[tuple, str] = {}
    hoisted: list[str] = []

    def count(term: str, t: int) -> str:
        uses[term, epoch.get(t)] += 1
        return term

    def share(term: str, t: int) -> str:
        key = (term, epoch.get(t))
        fixed = key[1] is None
        if term.isidentifier() or not fixed and uses[key] < 2:
            return term  # a bare variable, or a term used once per sweep
        name = temps.get(key)
        if name is None:
            name = temps[key] = f"w{len(temps)}"
            if not fixed:
                return f"({name}:={term})"
            hoisted.append(f"    {name} = {term}")
        return name

    for rewrite in (count, share):  # count every term's uses, then write the sweeps
        sweeps = []
        for vec in ("v", "u"):
            epoch = dict.fromkeys(order, 0)
            lines = []
            for s in order:
                lines += _state_lines(s, kernel[s], vec, maximize, rewrite)
                epoch[s] += 1
            sweeps.append(lines)
    lower, upper = sweeps

    def pack(vec: str) -> str:
        return "(" + "".join(f"{vec}{s}, " for s in order) + ")"

    source = "\n".join([
        "def run(v, u, k, cap, deadline, eps, rel):",
        "    " + ", ".join(f"v{t}" for t in read) + " = load(v)",
        "    " + ", ".join(f"u{t}" for t in read) + " = load(u)",
        *hoisted,
        "    lim = k",
        "    snap = None",
        "    moving = True",
        "    while True:",
        "        if k >= lim:",
        "            if k >= cap:",
        f"                end = {_CAPPED}",
        "                break",
        "            if snap is None:",
        f"                snap = {pack('u')}",
        "                lim = k + 1",
        f"            elif snap[0] == u{order[0]} and snap == {pack('u')}:",
        "                moving = False",
        "                lim = cap",
        "            else:",
        "                snap = None",
        f"                lim = k + {_SETTLE_CHECK_SWEEPS} "
        f"if k + {_SETTLE_CHECK_SWEEPS} < cap else cap",
        "        if deadline is not None and time.perf_counter() > deadline:",
        f"            end = {_LATE}",
        "            break",
        "        k += 1",
        "        if moving:",
        *("            " + line for line in upper),
        *("        " + line for line in lower),
        f"        if u{s_init} - v{s_init} <= (eps * v{s_init} if rel else eps):",
        "            end = -1",
        "            break",
        f"    for t, x in zip(written, {pack('v')}): v[t] = x",
        f"    for t, x in zip(written, {pack('u')}): u[t] = x",
        "    return k, end"])
    namespace: dict = {"__builtins__": {}, "time": time, "zip": zip,
                       "load": operator.itemgetter(*read), "written": tuple(order)}
    exec(compile(source, "<compiled phase>", "exec"), namespace)
    return namespace.pop("run")


#: compiled runners kept per process.  A runner of 235 branches retains 70
#: KB with its key, half of it the key's kernel rows; the `sweep` workload's
#: four chain runners (19 to 79 branches) retain 58 KB with their keys
#: (tracemalloc, Python 3.11).  So a full cache holds about 2.5 MB at most.
_RUNNER_CACHE_SIZE = 32

#: compiled phase runners by `_compile_phase`'s arguments, the tuple
#: (maximize, s_init, order, the order's kernel rows); emptied when full.
#: The kernel contract admits only float weights and rewards and int
#: targets, and equal floats differ at most in the sign of a zero, which a
#: zero reward's term drops: equal keys write equal source.  Every access
#: is one dict call, atomic under the GIL, so threads share it without a lock
_RUNNERS: dict[tuple, Callable] = {}


#: observer(event, *payload), see the module docstring
Observer = Callable[..., None]


def gsvi(problem: BellmanProblem, values: list[float], criterion: ErrorCriterion,
         order: Sequence[int] | None = None, *, max_sweeps: int = DEFAULT_SWEEP_CAP,
         deadline: float | None = None, observer: Observer | None = None,
         errors: dict[int, float | None] | None = None) -> int:
    """Gauss-Seidel value iteration, in place; returns the number of sweeps.

    A sweep's error is the largest per-state improvement, relative or
    absolute per the criterion; in relative mode states whose new value is 0
    contribute nothing.  Iteration stops once a sweep's error drops below
    epsilon_vi.  Started below the least fixed point it stays below it.

    Without an observer, a sweep stops measuring gains once the error
    reaches epsilon_vi (the sweep cannot end the iteration then).  An
    observer receives every sweep's exact error, and so does `errors` for
    each sweep number it holds as a key; every vector and sweep count is
    the same either way.
    """
    relative = criterion.mode == "relative"
    eps = criterion.epsilon_vi
    if order is None:
        order = problem.default_order()
    kernel, maximize = problem.kernel, problem.opt == "max"
    stop = eps if observer is None else math.inf
    sweeps = 0
    while True:
        if sweeps >= max_sweeps:
            raise IterationCapExceeded(sweeps)
        _check_deadline(deadline)
        sweeps += 1
        exact = errors is not None and sweeps in errors
        error = _sweep(kernel, order, maximize, relative, values, None,
                       math.inf if exact else stop)[0]
        if exact:
            errors[sweeps] = error
        if observer is not None:
            observer("iter", sweeps, error, values)
        if error < eps:
            return sweeps


def plain_vi(problem: BellmanProblem, criterion: ErrorCriterion,
             order: Sequence[int] | None = None, *, max_sweeps: int = DEFAULT_SWEEP_CAP,
             deadline: float | None = None) -> SolveOutcome:
    """Standard (unsound) value iteration: the result is a lower bound only."""
    values = problem.initial_vector()
    sweeps = 0
    s_i = problem.model.initial
    if s_i in problem.unknowns:
        sweeps = gsvi(problem, values, criterion, order, max_sweeps=max_sweeps, deadline=deadline)
    value = _reported_lower(problem, values[s_i])
    return SolveOutcome(value, value, None, sweeps, method="vi", status="uncertified")


def _reported_lower(problem: BellmanProblem, value: float) -> float:
    """A lower value as reported: summation rounding can lift a probability
    iterate past 1, but no probability bound exceeds it.  The iterate itself
    is left as it is."""
    return min(value, 1.0) if problem.probability_mode else value


def _exact_outcome(value: float, method: str) -> SolveOutcome:
    return SolveOutcome(value, value, value, 0, method=method, certified=True)


#: `ovi`'s first iteration phase forecasts its end at this sweep (above 50,
#: so that a 50-sweep budget makes no guess), from its exact errors there
#: and POLICY_FORECAST_SPAN (k) sweeps before
POLICY_FORECAST_SWEEPS, POLICY_FORECAST_SPAN = 64, 16

#: C of `_guess_pays`, which prices a guess at C·n² branch updates.  At sweep
#: 64 the probes below took 1-11 policy rounds of 1.5-2.8 n² updates each
#: (82-131 ns per update; shared 2-core x86-64 host, Python 3.11).  Their
#: forecast costs m·B/n² (k = 16, default order) were:
#:   stiff-2/3, chain-10/16/20/40 emax          49, 50, 96, 60, 46, 16: pause
#:   generate_random(0|1, 300, 3, 4, 4, 6) emin  0.5, 0.1: no guess
#:   their emax, 500 and 600 states              4.4-9.0: pause at 128
#: A pause at 64 halved the first six's sweeps with the same intervals, and
#: slowed the seed-1 emin from 13 to 27 ms and the 600-state emax from 0.64
#: to 0.84 s (11 rounds where 8 did at 128).  12 lies between the groups.
POLICY_ROUND_COST = 12

#: sweeps after which `ovi`'s first iteration phase pauses for a
#: policy-evaluation guess if `_guess_pays` declined one at
#: POLICY_FORECAST_SWEEPS
POLICY_AFTER_SWEEPS = 128

#: the most unknowns a policy-evaluation guess solves for.  Dense elimination
#: holds n**2 floats and costs up to n**3/3 multiply-adds per round; skipping
#: zero entries, a round on `generate_random(seed, n, 3, 4, 4, n // 50)` emax
#: took 33-55 ms at 400 unknowns, 84-111 ms at 600 and 130-240 ms at 800,
#: against 30-95 ms for 128 generic sweeps (seeds 0-2, 4-8 rounds each,
#: shared 2-core x86-64 host, Python 3.11); `_guess_pays` keeps their pause
#: at 128.  Above 600 a round costs more than twice those sweeps, and a
#: guess that fails costs seconds.
POLICY_MAX_UNKNOWNS = 600

#: policy-improvement rounds before a policy-evaluation guess is given up;
#: the models above took at most 8 up to 600 unknowns, and 13 at 1 500
POLICY_MAX_ROUNDS = 16

#: joint sweeps a policy-evaluation guess gets to prove itself.  Its lower
#: and upper vectors are scaled solutions of a linear system, and the first
#: sweep can move a value by an ulp the wrong way, most often at a state
#: that copies another through a zero-reward branch of probability 1; a
#: sweep or two settles them on the benchmark's models and on random models
#: of up to 600 unknowns, and an ultra-stiff 1 000-state model (value
#: 3.8e13) took 39.
POLICY_CHECK_SWEEPS = 32


def _choice_value(branches: tuple, values: Sequence[float]) -> float:
    acc = 0.0
    for p, r, t in branches:
        acc += p * (r + values[t])
    return acc


def _improved_choice(trs: tuple, current: int, values: Sequence[float], maximize: bool) -> int:
    """The state's best choice over `values`: `current` unless another is
    strictly better, and of several such the first best."""
    best = _choice_value(trs[current], values)
    for c, branches in enumerate(trs):
        value = _choice_value(branches, values)
        if value > best if maximize else value < best:
            best, current = value, c
    return current


def _guess_pays(problem: BellmanProblem, errors: dict[int, float], eps: float) -> bool:
    """Whether m·B >= C·n²: the m sweeps forecast to bring the error to
    `eps` cost at least a policy guess (B the unknowns' branches, n their
    number, C = POLICY_ROUND_COST).  From the exact errors e, e' of two
    sweeps k apart, λ = (e'/e)**(1/k) and m = ln(e'/eps)/(-ln λ), infinite
    at λ >= 1."""
    early, late = errors.values()
    if late >= early:
        return True
    sweeps = POLICY_FORECAST_SPAN * math.log(late / eps) / math.log(early / late)
    branches = sum(len(b) for s in problem.unknowns for b in problem.kernel[s])
    return sweeps * branches >= POLICY_ROUND_COST * len(problem.unknowns) ** 2


def _solve_dense(rows: list[list[float]]) -> list[float] | None:
    """Solve the augmented system `rows` (each row n coefficients and then
    the right-hand side) by Gaussian elimination with partial pivoting,
    skipping zero entries; None if a pivot is 0 or a solution entry is not
    finite.  The rows are overwritten."""
    n = len(rows)
    for j in range(n):
        k = max(range(j, n), key=lambda i: abs(rows[i][j]))
        pivot = rows[k]
        d = pivot[j]
        if d == 0.0:
            return None
        rows[j], rows[k] = pivot, rows[j]
        tail = [(c, pivot[c]) for c in range(j + 1, n + 1) if pivot[c] != 0.0]
        for i in range(j + 1, n):
            row = rows[i]
            if row[j] != 0.0:
                f = row[j] / d
                for c, y in tail:
                    row[c] -= f * y
    x = [0.0] * n
    for j in range(n - 1, -1, -1):
        row = rows[j]
        acc = row[n]
        for c in range(j + 1, n):
            acc -= row[c] * x[c]
        x[j] = acc / row[j]
    return x if all(map(math.isfinite, x)) else None


def _policy_values(problem: BellmanProblem, v: Sequence[float],
                   deadline: float | None) -> tuple[int, list[float]] | None:
    """Policy iteration from the greedy policy of `v`: (rounds, values).

    A round solves x = r_σ + P_σ·x over the unknowns by `_solve_dense`,
    fixed states read from the seeds, and then moves each state to a
    strictly better choice over x, if it has one; the first round that
    moves none ends the iteration.  The values are the seeds with x at the
    unknowns.  None if a system is singular or has a non-finite solution,
    or POLICY_MAX_ROUNDS rounds all move a choice.
    Checks `deadline` before every round.
    """
    kernel = problem.kernel
    unknowns = sorted(problem.unknowns)
    maximize = problem.opt == "max"
    seed = problem.seed
    index = {s: i for i, s in enumerate(unknowns)}
    n = len(unknowns)
    policy = [_improved_choice(kernel[s], 0, v, maximize) for s in unknowns]
    x = list(seed)
    for rounds in range(1, POLICY_MAX_ROUNDS + 1):
        _check_deadline(deadline)
        rows = []
        for s, c in zip(unknowns, policy):
            row = [0.0] * (n + 1)
            row[index[s]] = 1.0
            b = 0.0
            for p, r, t in kernel[s][c]:
                j = index.get(t)
                if j is None:
                    b += p * (r + seed[t])
                else:
                    b += p * r
                    row[j] -= p
            row[n] = b
            rows.append(row)
        solution = _solve_dense(rows)
        if solution is None:
            return None
        for s, value in zip(unknowns, solution):
            x[s] = value
        moved = False
        for i, s in enumerate(unknowns):
            c = _improved_choice(kernel[s], policy[i], x, maximize)
            if c != policy[i]:
                policy[i] = c
                moved = True
        if not moved:
            return rounds, x
    return None


def ovi(problem: BellmanProblem, criterion: ErrorCriterion, prop: Property,
        order: Sequence[int] | None = None, *, max_sweeps: int = DEFAULT_SWEEP_CAP,
        deadline: float | None = None, observer: Observer | None = None) -> SolveOutcome:
    """Optimistic value iteration: iterate, guess an upper vector, prove it.

    Iteration phases run plain Gauss-Seidel on the lower vector `v`.  Every
    guess is proved by one loop, `verify`, which sweeps a lower and an upper
    vector together.  A sweep in which no upper value moved up and the
    vectors did not cross makes the upper vector inductive (B(u) <= u), an
    upper bound, and the midpoint is returned once the interval at the
    initial state is narrow enough.  That test comes first, so a sweep that
    moves no upper value at all certifies a narrow enough guess.  A sweep in
    which no upper value moved down, or where the vectors cross, refutes the
    guess, and so does reaching the loop's sweep limit.

    The guesses come from two sources, each a vector widened by `widened`
    (relative or absolute, an upper vector clamped to 1 in probability mode):
    - the paper's, after every iteration phase: `v` widened by eps, swept
      with `v` itself for at most ten times the preceding iteration phase's
      sweeps plus one.  The next iteration phase halves the error
      requirement.  With a unique fixed point, a refuted upper vector that
      never moved down and lies above `v` is a lower bound and becomes `v`
      ("adopt-upper").
    - policy evaluation, once: on a problem with a unique fixed point and at
      most POLICY_MAX_UNKNOWNS unknowns, a first iteration phase that runs
      POLICY_FORECAST_SWEEPS sweeps pauses there if `_guess_pays` (its
      forecast sweeps cost more than policy rounds, read from no clock), else
      after POLICY_AFTER_SWEEPS.  `_policy_values` runs policy iteration
      from the greedy policy of `v`, each policy evaluated by dense
      Gaussian elimination, and its values x widened by -eps/2 and +eps/2
      are swept together, apart from `v`, for at most POLICY_CHECK_SWEEPS
      sweeps.  The certifying sweep must also move no lower value down: then
      B(l) >= l, which proves `l` a lower bound only where the fixed point
      is unique, as "adopt-upper" assumes too.  A refuted guess counts as
      one phase, cancelled, and the paused phase resumes from the untouched
      `v`, so every later vector is what it would have been without it.  No
      guess is made where `_policy_values` finds none (a singular system, a
      non-finite value, or too many rounds).

    Observed and unobserved runs take the same path, and the forecast reads
    exact errors in both.  This is a
    semi-algorithm: when `max_sweeps`, the budget of all phases together,
    runs out, the outcome is flagged "no-certificate" rather than pretending
    soundness.
    """
    model = problem.model
    s_i = model.initial
    if s_i not in problem.unknowns:
        return _exact_outcome(problem.seed[s_i], "ovi")

    relative_error = criterion.mode == "relative"
    relative_width = prop.width == "relative"
    eps = prop.epsilon
    if order is None:
        order = problem.default_order()

    kernel, maximize = problem.kernel, problem.opt == "max"
    v = problem.initial_vector()
    total_sweeps = 0
    phases = 0
    cancelled = 0
    vi_error = criterion.epsilon_vi
    # The first iteration phase stops after POLICY_FORECAST_SWEEPS sweeps, if
    # it runs that long, and pauses there for one policy-evaluation guess if
    # `_guess_pays`, else after POLICY_AFTER_SWEEPS; `paused` counts the
    # sweeps the current phase ran before its last stop.
    pause = POLICY_FORECAST_SWEEPS if problem.unique_fixed_point and \
        len(problem.unknowns) <= POLICY_MAX_UNKNOWNS else 0
    paused = 0

    def uncertified() -> SolveOutcome:
        lower = _reported_lower(problem, v[s_i])
        return SolveOutcome(lower, lower, None, total_sweeps, phases, cancelled, "ovi", False,
                            "no-certificate")

    def widened(x: list[float], w: float) -> list[float]:
        """`x` with every unknown moved by `w`, a probability moved up clamped to 1."""
        y = list(x)
        for s in order:
            y[s] = x[s] * (1.0 + w) if relative_width else x[s] + w
            if w > 0.0 and problem.probability_mode and y[s] > 1.0:
                y[s] = 1.0
        return y

    def verify(lower: list[float], upper: list[float], limit: int,
               guessed_lower: bool) -> SolveOutcome | tuple[str, float | None]:
        """At most `limit` joint sweeps: the certified outcome, or why none came
        ("up", "cross", "guard" at the limit, "budget") and the last error."""
        nonlocal total_sweeps
        for sweep in range(1, limit + 1):
            if total_sweeps >= max_sweeps:
                return "budget", None
            _check_deadline(deadline)
            total_sweeps += 1
            before = list(lower) if guessed_lower else None
            error, up, down, cross = _sweep(kernel, order, maximize, relative_error,
                                            lower, upper)
            if observer is not None and not guessed_lower:
                observer("verify", sweep, error, lower, upper, up, down, cross)
            # Certify before refuting: a sweep that moves no upper value sets
            # both flags, and B(u) = u <= u makes `upper` inductive.
            if down and cross < 0 and (before is None or all(map(operator.le, before, lower))) \
                    and upper[s_i] - lower[s_i] <= 2.0 * eps * (lower[s_i] if relative_width
                                                                else 1.0):
                return SolveOutcome(0.5 * (upper[s_i] + lower[s_i]), lower[s_i], upper[s_i],
                                    total_sweeps, phases, cancelled, "ovi", True, "ok")
            if up or cross >= 0:
                return "up" if up else "cross", error
        return "guard", error

    while True:
        # Iteration phase.
        budget = max_sweeps - total_sweeps
        if budget <= 0:
            return uncertified()
        cap = pause - paused if budget > pause - paused > 0 else budget
        forecast = pause == POLICY_FORECAST_SWEEPS and cap < budget
        errors = dict.fromkeys((cap - POLICY_FORECAST_SPAN, cap)) if forecast else None
        pause = 0
        phase_observer = observer
        if observer is not None and paused:
            def phase_observer(event, sweep, *payload, shift=paused):
                observer(event, sweep + shift, *payload)
        try:
            iter_sweeps = gsvi(problem, v, ErrorCriterion(criterion.mode, vi_error), order,
                               max_sweeps=cap, deadline=deadline, observer=phase_observer,
                               errors=errors)
        except IterationCapExceeded:
            if cap == budget:
                total_sweeps = max_sweeps
                return uncertified()
            total_sweeps += cap
            paused += cap
            if errors is not None and not _guess_pays(problem, errors, vi_error):
                pause = POLICY_AFTER_SWEEPS
                continue  # the phase runs on to the later pause
            guess = _policy_values(problem, v, deadline)
            if guess is not None:
                rounds, x = guess
                lower, upper = widened(x, -0.5 * eps), widened(x, 0.5 * eps)
                phases += 1
                if observer is not None:
                    observer("policy", rounds, lower, upper)
                proof = verify(lower, upper, POLICY_CHECK_SWEEPS, True)
                if isinstance(proof, SolveOutcome):
                    return proof
                cancelled += 1
                if observer is not None:
                    observer("cancel", "policy")
            continue  # resume the paused phase from `v`, which the guess left as it was
        total_sweeps += iter_sweeps
        iter_sweeps += paused
        paused = 0

        u = widened(v, eps)
        phases += 1
        if observer is not None:
            observer("guess", u)
        proof = verify(v, u, VERIFICATION_FACTOR * max(iter_sweeps, 1) + 1, False)
        if isinstance(proof, SolveOutcome):
            return proof
        cancelled += 1
        reason, error = proof
        if reason == "budget":
            return uncertified()
        if observer is not None:
            observer("cancel", reason)
        if problem.unique_fixed_point and reason == "up" and all(map(operator.le, v, u)):
            # With a unique fixed point, an upper vector that never moved
            # down is itself a lower bound; adopt it where the refuting sweep
            # found no crossing, that is where it lies above `v` everywhere.
            v = u
            if observer is not None:
                observer("adopt-upper")

        vi_error = error / 2.0
        if observer is not None:
            observer("epsilon-vi", vi_error)
        if vi_error <= 0.0:
            # The lower vector is numerically stationary and the same guess
            # would be rejected again; no certificate is reachable from here.
            return uncertified()


def interval_iteration(problem: BellmanProblem, prop: Property, upper_init: Sequence[float],
                       order: Sequence[int] | None = None, *,
                       max_sweeps: int = DEFAULT_SWEEP_CAP,
                       deadline: float | None = None,
                       observer: Observer | None = None) -> SolveOutcome:
    """Iterate a lower vector from the seeds and an upper vector from upper_init
    until the interval at the initial state is narrow enough; needs a unique
    fixed point to terminate.

    `upper_init` must be a proven upper bound on the value at every unknown
    state: the result is certified only under that contract.  A start below
    the seeds, NaN or -0.0 is reported as an error naming the state.  From
    any other start the vectors never cross (see `_compile_kernel`), so an
    upper_init between the seeds and the true value goes undetected, and the
    returned interval then misses the value.

    The phase ends after the first sweep whose width at the initial state
    is at most twice the property's epsilon; it measures no error.
    Unobserved, it looks its phase up in `_RUNNERS` before the first sweep,
    unless its order holds more than _LOCAL_BRANCHES states.
    A phase compiled earlier in the process runs its runner from sweep 0;
    any other runs COMPILE_AFTER_SWEEPS generic sweeps, then compiles its
    runner (`_compile_phase`), stores it and hands it the remaining sweeps,
    which give the floats and sweep count of `_sweep`.  It stores by
    `setdefault`, so threads that compile one phase at once run the runner
    stored first, and it empties a full `_RUNNERS` first."""
    model = problem.model
    s_i = model.initial
    if len(upper_init) != model.num_states:
        raise SolverError("upper_init length does not match the state count")
    if s_i not in problem.unknowns:
        return _exact_outcome(problem.seed[s_i], "ii")

    relative_width = prop.width == "relative"
    eps = prop.epsilon
    if order is None:
        order = problem.default_order()

    v = problem.initial_vector()
    # Fixed states hold their seed values in both vectors; upper_init only
    # seeds the unknowns, so a blanket 1-vector works for probabilities.
    u = [upper_init[s] if s in problem.unknowns else problem.seed[s]
         for s in model.states]
    for s in problem.unknowns:
        # `not >=` also rejects NaN, which would never narrow; a -0.0 would
        # break the positive signs the runner relies on.
        if not u[s] >= v[s] or math.copysign(1.0, u[s]) < 0.0:
            raise SolverError(f"initial upper value at state {s} lies below the lower "
                              "vector or is NaN or -0.0")
    tolerance = 2.0 * eps
    kernel, maximize = problem.kernel, problem.opt == "max"
    key = runner = None
    if observer is None and len(order) <= _LOCAL_BRANCHES:  # else too many branches
        key = (maximize, s_i, tuple(order), tuple(map(kernel.__getitem__, order)))
        runner = _RUNNERS.get(key)
    # The sweep at which the runner takes over: the first for a cached one.
    switch = 0 if runner is not None else COMPILE_AFTER_SWEEPS
    sweeps = 0
    while True:
        if sweeps == switch and observer is None:
            if runner is None:
                runner = _compile_phase(kernel, order, maximize, s_i)
                if runner is not None and key is not None:
                    if len(_RUNNERS) >= _RUNNER_CACHE_SIZE:
                        _RUNNERS.clear()
                    runner = _RUNNERS.setdefault(key, runner)
            if runner is not None:
                sweeps, end = runner(v, u, sweeps, max_sweeps, deadline, tolerance,
                                     relative_width)
                if end == _CAPPED:
                    raise IterationCapExceeded(sweeps)
                if end == _LATE:
                    raise SolveTimeout(_LATE_MESSAGE)
                break
        if sweeps >= max_sweeps:
            raise IterationCapExceeded(sweeps)
        _check_deadline(deadline)
        sweeps += 1
        _sweep(kernel, order, maximize, False, v, u, 0.0)  # stop 0.0: no error
        if observer is not None:
            observer("ii", sweeps, v, u)
        if u[s_i] - v[s_i] <= (tolerance * v[s_i] if relative_width else tolerance):
            break
    return SolveOutcome(0.5 * (u[s_i] + v[s_i]), v[s_i], u[s_i], sweeps, method="ii",
                        certified=True)


#: the least positive float
_TINY = math.nextafter(0.0, 1.0)


def rounding_widened(problem: BellmanProblem, outcome: SolveOutcome,
                     start: float) -> SolveOutcome:
    """Interval iteration's `outcome` with its upper end raised past the
    rounding of its sweeps, for an upper start that lies within rounding of
    the value, such as `_emax_reward_bound`'s.  `start` is the upper start
    at the initial state, itself a proven bound, so the upper end is the
    lesser of the two.

    In exact arithmetic the sweeps keep an upper vector that starts above
    the value v* above it; in floats they converge to the float fixed point,
    which can lie ulps below v*.  With weights and rewards >= 0 and every
    float the nearest to its exact field, an update over a choice of k
    branches (a sum of k terms p*(r+x)) loses at most a factor
    (1-2**-53)**(k+3) against the exact backup, so after U state updates
    u >= (1 - m*2**-53) * v* with m = (k+3)*U, and v* <= u * (1 + 2*m*2**-53)
    while m*2**-53 <= 1/2.  Products that underflow add at most k*U*2**-1074
    more.  The lower end is left as it is.
    """
    kernel, unknowns = problem.kernel, problem.unknowns
    updates = outcome.iterations * len(unknowns)
    if not updates:
        return outcome
    k = max(len(branches) for s in unknowns for branches in kernel[s])
    slack = (k + 3) * updates * 2.0 ** -53
    if slack > 0.5:
        upper = math.inf
    else:
        up = math.inf
        factor = math.nextafter(1.0 + 2.0 * slack, up)
        upper = math.nextafter(math.nextafter(outcome.upper_bound * factor, up)
                               + k * updates * _TINY, up)
    upper = min(upper, start)
    return SolveOutcome(0.5 * (outcome.lower_bound + upper), outcome.lower_bound, upper,
                        outcome.iterations, outcome.verification_phases,
                        outcome.cancelled_verifications, outcome.method, outcome.certified,
                        outcome.status)


_NO_BOUND = ("no finite reward upper bound derivable; "
             "the probability structure is too degenerate")


def _emax_reward_bound(model: Mdp, goal_set: frozenset[int], inf_set: frozenset[int],
                       pred: list[list[tuple[int, int]]] | None) -> float:
    """The maximal-reward bound of Baier, Klein, Leuschner, Parker and
    Wunderlich, "Ensuring the Reliability of Your Model Checker: Interval
    Iteration for MDPs" (CAV 2017), rounded outward.

    Goals get d = 1, and the other states get theirs in the order they
    join `graph.attractor` from the goals (in id order) outside `inf_set`,
    over `pred` (the model's predecessor index, built here when not given),
    once every one of their choices has a branch into a state that joined
    before them: d(s) is the minimum over its choices of the mass into
    those states, each target weighted by its own d.  Under every
    scheduler, a path from s then reaches a goal through states that joined
    earlier only, never returning to s, with probability at least d(s), so
    s is visited at most 1/d(s) times in expectation, and every value is at
    most the sum of r(s)/d(s), where r(s) is the state's largest expected
    one-step reward.  A state that never joins has no d and no bound.  The
    argument needs weights in (0, 1] and non-negative rewards; other
    branches are refused.  Every float is one step from its exact field, so
    d is built from weights one step down and r from weights and rewards one
    step up; every later operation steps towards 0 (d) or +inf (r, r/d and
    the sum), which keeps the bound above the exact value although it lies
    within a few ulps of it on the chains.
    """
    up, nextafter = math.inf, math.nextafter
    transitions = model.transitions
    relevant = [s for s in model.states if s not in goal_set and s not in inf_set]
    reward = [0.0] * model.num_states
    for s in relevant:
        best = 0.0
        for t in transitions[s]:
            acc = 0.0
            for b in t.branches:
                p, r = b[0], b[1]
                if not r and b[4]:  # the float 0 hides a nonzero exact reward
                    r = math.copysign(_TINY, b[4])
                if not (0.0 < p <= 1.0 and r >= 0.0):
                    raise SolverError(f"{_NO_BOUND}: state {s} has a branch of weight "
                                      f"{p!r} and reward {b[1]!r}")
                if r:
                    acc = nextafter(acc + nextafter(nextafter(p, up) * nextafter(r, up), up), up)
            best = max(best, acc)
        reward[s] = best
    if not any(reward):
        return 0.0

    goals = sorted(goal_set)
    if pred is None:
        pred = predecessor_index(model)
    joined = attractor(transitions, pred, goals, inf_set, every_choice=True)
    if len(joined) < len(goals) + len(relevant):
        raise SolverError(_NO_BOUND)
    d = [0.0] * model.num_states
    for g in goals:
        d[g] = 1.0
    for s in joined[len(goals):]:
        low = 1.0
        for tr in transitions[s]:
            acc = 0.0
            for b in tr.branches:
                x = d[b[2]]  # 0.0 unless joined before s
                if x:
                    acc = nextafter(acc + nextafter(nextafter(b[0], 0.0) * x, 0.0), 0.0)
            low = min(low, acc)
        d[s] = low
    total = 0.0
    for s in relevant:
        if reward[s]:
            if not d[s]:  # underflowed
                raise SolverError(_NO_BOUND)
            total = nextafter(total + nextafter(reward[s] / d[s], up), up)
    if not math.isfinite(total):
        raise SolverError(_NO_BOUND)
    return total


def reward_upper_init(model: Mdp, goals: Iterable[int], opt: str, s_inf: Iterable[int], *,
                      pred: list[list[tuple[int, int]]] | None = None) -> list[float]:
    """A certain upper bound on expected rewards, for seeding interval
    iteration.  Infinite-reward states get inf, goals 0, and every other
    state one bound for the whole model.

    For opt="max" the bound is `_emax_reward_bound`'s (Baier et al., CAV
    2017), computed in floats rounded outward after every operation.  On
    the slow chains it is the exact value up to a few ulps, so interval
    iteration's float sweeps decide how far above the value its upper end
    stays (see `rounding_widened`).  The bound is per model, not per
    state: on a 4 000-state random model it is about 1e12, and interval
    iteration from it stays slow there.

    For opt="min" it is still the coarse global bound: from any relevant
    state some scheduler reaches the goals along at most n distinct states,
    each step with probability at least q, so a block of n steps succeeds
    with probability at least q**n and accrues at most n * r_max reward;
    summing the geometric series bounds every state's expected reward by
    n * r_max / q**n, evaluated in exact arithmetic and rounded upward.
    The emin form of the CAV 2017 bound would turn the 500-state emin/ii
    request that the benchmark's tests pin as an error into a certified
    answer, so it waits for that pin to move.

    Either raises SolverError where it finds no finite bound.  `pred`, the
    model's predecessor_index, serves opt="max", built there when not given.
    """
    goal_set, inf_set = frozenset(goals), frozenset(s_inf)
    bound = (_emax_reward_bound(model, goal_set, inf_set, pred) if opt == "max"
             else _emin_reward_bound(model, goal_set, inf_set))
    return [math.inf if s in inf_set else 0.0 if s in goal_set else bound for s in model.states]


def _emin_reward_bound(model: Mdp, goal_set: frozenset[int], inf_set: frozenset[int]) -> float:
    relevant = [s for s in model.states if s not in goal_set and s not in inf_set]
    n = len(relevant)
    # float() is monotone and every float field is float() of its exact
    # field, so the exact extremes lie among the branches whose floats tie
    # at the float extremes: scan the floats, compare Fractions only there.
    branches = [b for ts in model.transitions for t in ts for b in t.branches]
    r_top = max([b[1] for b in branches], default=0.0)
    q_bottom = min([b[0] for b in branches], default=1.0)
    r_max = max((b[4] for b in branches if b[1] == r_top), default=Fraction(0))
    q_min = min((b[3] for b in branches if b[0] == q_bottom), default=Fraction(1))
    if n == 0 or r_max == 0:
        return 0.0
    exact_bound = r_max * n / (q_min ** n)
    try:
        bound = float(exact_bound)  # finite, or OverflowError
    except OverflowError:
        raise SolverError(_NO_BOUND) from None
    if Fraction(bound) < exact_bound:
        bound = math.nextafter(bound, math.inf)
    return bound
