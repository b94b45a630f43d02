"""Numeric solvers: Bellman backups, Gauss-Seidel VI, optimistic VI, interval iteration.

All solvers work on a BellmanProblem: the model, the optimization direction,
the set of unknown states S? that sweeps update, and the seed vector holding
the fixed values of everything else (goal states, probability-0 states,
infinite-reward states).  Every iterative solver advances through one
primitive, `_sweep`: a Gauss-Seidel sweep that updates its vectors in place,
so within a sweep later states already see this sweep's earlier updates;
iteration order therefore matters and is part of the call.  `gsvi` sweeps a
lower vector alone; OVI's verification phases and interval iteration sweep a
lower and an upper vector together, in one pass over each state's branches.

Lower iterates started from the seed vector stay below the least fixed point,
so a plain VI result is only a lower bound with no error guarantee.  The sound
solvers return certified two-sided bounds: interval iteration squeezes the
value between a rising lower and a falling upper iterate, and optimistic VI
guesses an upper vector from the lower one and accepts it only when a joint
sweep moves no upper value up (inductivity, hence a true upper bound).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import IterationCapExceeded, SolveTimeout, SolverError
from .model import Mdp, Property

DEFAULT_SWEEP_CAP = 10_000_000

#: per state: tuple of transitions, each a tuple of (probability, reward, target)
Kernel = tuple[tuple[tuple[tuple[float, float, int], ...], ...], ...]


def _compile_kernel(model: Mdp) -> Kernel:
    return tuple(
        tuple(tuple(b[:3] for b in t.branches) for t in ts)
        for ts in model.transitions
    )


@dataclass(frozen=True)
class BellmanProblem:
    """A fixed-point problem: update states in `unknowns`, hold the rest at their seeds."""

    model: Mdp
    opt: str  # "max" | "min"
    unknowns: frozenset[int]
    seed: tuple[float, ...]
    probability_mode: bool
    unique_fixed_point: bool = False

    def __post_init__(self) -> None:
        if self.opt not in ("max", "min"):
            raise SolverError(f"unknown opt {self.opt!r}")
        if len(self.seed) != self.model.num_states:
            raise SolverError("seed vector length does not match the state count")
        object.__setattr__(self, "_kernel", _compile_kernel(self.model))

    @property
    def kernel(self) -> Kernel:
        return self._kernel  # type: ignore[attr-defined]

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


@dataclass(frozen=True)
class ErrorCriterion:
    """Stopping rule for an iteration phase: relative skips zero values."""

    mode: str = "relative"  # "relative" | "absolute"
    epsilon_vi: float = 1e-6

    def __post_init__(self) -> None:
        if self.mode not in ("relative", "absolute"):
            raise SolverError(f"unknown error mode {self.mode!r}")


@dataclass
class SolveOutcome:
    value: float
    lower_bound: float | None
    upper_bound: float | None
    iterations: int
    verification_phases: int = 0
    cancelled_verifications: int = 0
    wall_time: float = 0.0
    method: str = ""
    certified: bool = False
    status: str = "ok"  # "ok" | "no-certificate"

    def __post_init__(self) -> None:
        if self.lower_bound is not None and self.upper_bound is not None:
            if not (self.lower_bound <= self.value <= self.upper_bound):
                raise SolverError("outcome bounds do not bracket the value")


#: OVI cancels a verification phase running past this many times its iteration phase
VERIFICATION_FACTOR = 10


@dataclass(frozen=True)
class OviGuards:
    """Termination guards turning potential non-termination into an honest failure."""

    max_total_sweeps: int = DEFAULT_SWEEP_CAP
    deadline: float | None = None


def _state_value(trs: tuple, values: Sequence[float], maximize: bool) -> float:
    best = None
    for branches in trs:
        acc = 0.0
        for p, r, t in branches:
            acc += p * (r + values[t])
        if best is None or (acc > best if maximize else acc < best):
            best = acc
    return best  # type: ignore[return-value]


def bellman_apply(problem: BellmanProblem, values: Sequence[float]) -> list[float]:
    """One synchronous backup: a fresh vector, the input untouched."""
    if len(values) != problem.model.num_states:
        raise SolverError("value vector length does not match the state count")
    kernel = problem.kernel
    maximize = problem.opt == "max"
    out = list(values)
    for s in problem.unknowns:
        out[s] = _state_value(kernel[s], values, maximize)
    return out


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise SolveTimeout("numeric phase ran past its deadline")


def _sweep(kernel: Kernel, order: Sequence[int], maximize: bool, relative: bool,
           v: list[float], u: list[float] | None = None) -> tuple[float, bool, bool, int]:
    """One Gauss-Seidel sweep over `order`, updating `v` (and `u`) in place.

    Returns (error, up, down, cross): the largest gain of `v`, relative to the
    new value (non-positive new values count nothing) or absolute; whether no
    `u` value moved down, and whether none moved up; and the first state where
    `u` fell below `v`, or -1.  `u` is backed up in the same pass over each
    state's branches, with the sums and tie-breaks of a one-vector sweep.
    """
    error = 0.0
    up = down = True
    cross = -1
    for s in order:
        if u is None:
            v_new = _state_value(kernel[s], v, maximize)
        else:
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
        gain = v_new - v[s]
        if relative:
            gain = gain / v_new if v_new > 0 else 0.0
        if gain > error:
            error = gain
        v[s] = v_new
    return error, up, down, cross


Observer = Callable[[int, float, Sequence[float]], None]


def gsvi(problem: BellmanProblem, values: list[float], criterion: ErrorCriterion,
         order: Sequence[int] | None = None, *, max_sweeps: int = DEFAULT_SWEEP_CAP,
         deadline: float | None = None, observer: Observer | None = None) -> int:
    """Gauss-Seidel value iteration, in place; returns the number of sweeps.

    A sweep's error is the largest per-state improvement, relative or
    absolute per the criterion; in relative mode states whose new value is 0
    contribute nothing.  Iteration stops once a sweep's error drops below
    epsilon_vi.  Started below the least fixed point it stays below it.
    """
    kernel = problem.kernel
    maximize = problem.opt == "max"
    relative = criterion.mode == "relative"
    eps = criterion.epsilon_vi
    if order is None:
        order = problem.default_order()
    sweeps = 0
    while True:
        if sweeps >= max_sweeps:
            raise IterationCapExceeded(sweeps)
        _check_deadline(deadline)
        sweeps += 1
        error = _sweep(kernel, order, maximize, relative, values)[0]
        if observer is not None:
            observer(sweeps, error, values)
        if error < eps:
            return sweeps


def plain_vi(problem: BellmanProblem, criterion: ErrorCriterion,
             order: Sequence[int] | None = None, *, max_sweeps: int = DEFAULT_SWEEP_CAP,
             deadline: float | None = None) -> SolveOutcome:
    """Standard (unsound) value iteration: the result is a lower bound only."""
    start = time.perf_counter()
    values = problem.initial_vector()
    sweeps = 0
    s_i = problem.model.initial
    if s_i in problem.unknowns:
        sweeps = gsvi(problem, values, criterion, order, max_sweeps=max_sweeps, deadline=deadline)
    return SolveOutcome(values[s_i], values[s_i], None, sweeps,
                        wall_time=time.perf_counter() - start, method="vi")


@dataclass
class OviTrace:
    """Optional instrumentation: per-sweep snapshots of the OVI run."""

    events: list[tuple] = field(default_factory=list)

    def record(self, kind: str, *payload) -> None:
        self.events.append((kind, *payload))


def _exact_outcome(value: float, sweeps: int, method: str, start: float) -> SolveOutcome:
    return SolveOutcome(value, value, value, sweeps, wall_time=time.perf_counter() - start,
                        method=method, certified=True)


def ovi(problem: BellmanProblem, criterion: ErrorCriterion, prop: Property,
        guards: OviGuards | None = None, order: Sequence[int] | None = None,
        trace: OviTrace | None = None) -> SolveOutcome:
    """Optimistic value iteration.

    Alternates iteration phases (plain Gauss-Seidel on the lower vector) with
    verification phases that sweep lower and upper vectors together.  The
    upper candidate is the lower vector inflated by the required width
    (clamped to 1 in probability mode).  A verification sweep in which no
    upper value moved up proves the candidate inductive, so the exact value
    lies in [v(init), u(init)]; the midpoint is returned once that interval
    is narrow enough.  A sweep in which no upper value moved down, or where
    the vectors cross, refutes the candidate: the iteration phase resumes
    with the error requirement halved.  Verification phases running past ten
    times the preceding iteration phase are cancelled likewise.

    This is a semi-algorithm: when the global sweep budget runs out, the
    outcome is flagged "no-certificate" rather than pretending soundness.
    """
    guards = guards or OviGuards()
    start = time.perf_counter()
    model = problem.model
    s_i = model.initial
    if s_i not in problem.unknowns:
        return _exact_outcome(problem.seed[s_i], 0, "ovi", start)

    kernel = problem.kernel
    maximize = problem.opt == "max"
    relative_error = criterion.mode == "relative"
    relative_width = prop.width == "relative"
    eps = prop.epsilon
    if order is None:
        order = problem.default_order()

    v = problem.initial_vector()
    total_sweeps = 0
    phases = 0
    cancelled = 0
    vi_error = criterion.epsilon_vi

    def uncertified() -> SolveOutcome:
        return SolveOutcome(v[s_i], v[s_i], None, total_sweeps, phases, cancelled,
                            time.perf_counter() - start, "ovi", False, "no-certificate")

    while True:
        # Iteration phase.
        budget = guards.max_total_sweeps - total_sweeps
        if budget <= 0:
            return uncertified()
        try:
            iter_sweeps = gsvi(problem, v, ErrorCriterion(criterion.mode, vi_error), order,
                               max_sweeps=budget, deadline=guards.deadline,
                               observer=(lambda k, e, vec: trace.record("iter", k, e, list(vec)))
                               if trace else None)
        except IterationCapExceeded:
            total_sweeps = guards.max_total_sweeps
            return uncertified()
        total_sweeps += iter_sweeps

        # Guess the upper candidate from the lower values over the unknowns.
        u = list(v)
        for s in order:
            u[s] = v[s] * (1.0 + eps) if relative_width else v[s] + eps
            if problem.probability_mode and u[s] > 1.0:
                u[s] = 1.0
        phases += 1
        if trace:
            trace.record("guess", list(u))

        # Verification phase: joint sweeps tracking the upper vector's direction.
        verif_sweeps = 0
        while True:
            if total_sweeps >= guards.max_total_sweeps:
                cancelled += 1
                return uncertified()
            _check_deadline(guards.deadline)
            total_sweeps += 1
            verif_sweeps += 1
            error, up, down, cross = _sweep(kernel, order, maximize, relative_error, v, u)
            if trace:
                trace.record("verify", verif_sweeps, error, list(v), list(u), up, down, cross >= 0)
            if up or cross >= 0:
                cancelled += 1
                if trace:
                    trace.record("cancel", "up" if up else "cross")
                if problem.unique_fixed_point and up and cross < 0:
                    # With a unique fixed point, an upper vector that never
                    # moved down is itself a lower bound; adopt it.
                    v = list(u)
                    if trace:
                        trace.record("adopt-upper",)
                break
            if down and u[s_i] - v[s_i] <= (2.0 * eps * v[s_i] if relative_width else 2.0 * eps):
                return SolveOutcome(0.5 * (u[s_i] + v[s_i]), v[s_i], u[s_i], total_sweeps,
                                    phases, cancelled, time.perf_counter() - start,
                                    "ovi", True, "ok")
            if verif_sweeps > VERIFICATION_FACTOR * max(iter_sweeps, 1):
                cancelled += 1
                if trace:
                    trace.record("cancel", "guard")
                break

        vi_error = error / 2.0
        if trace:
            trace.record("epsilon-vi", vi_error)
        if vi_error <= 0.0:
            # The lower vector is numerically stationary and the same guess
            # would be rejected again; no certificate is reachable from here.
            return uncertified()


def interval_iteration(problem: BellmanProblem, prop: Property, upper_init: Sequence[float],
                       order: Sequence[int] | None = None, *,
                       max_sweeps: int = DEFAULT_SWEEP_CAP,
                       deadline: float | None = None,
                       observer: Callable[[int, Sequence[float], Sequence[float]], None] | None = None,
                       ) -> SolveOutcome:
    """Iterate a lower vector from the seeds and an upper vector from upper_init
    until the interval at the initial state is narrow enough; needs a unique
    fixed point to terminate.  A crossing (upper below lower) means upper_init
    was not an overapproximation and is reported as an error; sweeps are
    monotone, so an upper_init between the seeds and the true value goes
    undetected."""
    start = time.perf_counter()
    model = problem.model
    s_i = model.initial
    if len(upper_init) != model.num_states:
        raise SolverError("upper_init length does not match the state count")
    if s_i not in problem.unknowns:
        return _exact_outcome(problem.seed[s_i], 0, "ii", start)

    kernel = problem.kernel
    maximize = problem.opt == "max"
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
        if u[s] < v[s]:
            raise SolverError(f"initial upper value at state {s} lies below the lower vector")
    sweeps = 0
    while True:
        if sweeps >= max_sweeps:
            raise IterationCapExceeded(sweeps)
        _check_deadline(deadline)
        sweeps += 1
        cross = _sweep(kernel, order, maximize, False, v, u)[3]
        if cross >= 0:
            raise SolverError(
                f"interval iteration crossed at state {cross}: the initial upper vector "
                "was not an overapproximation")
        if observer is not None:
            observer(sweeps, v, u)
        if u[s_i] - v[s_i] <= (2.0 * eps * v[s_i] if relative_width else 2.0 * eps):
            return SolveOutcome(0.5 * (u[s_i] + v[s_i]), v[s_i], u[s_i], sweeps,
                                wall_time=time.perf_counter() - start,
                                method="ii", certified=True)


def reward_upper_init(model: Mdp, goals: Iterable[int], opt: str,
                      s_inf: Iterable[int]) -> list[float]:
    """A coarse but certain upper bound on expected rewards, for seeding
    interval iteration.

    From any relevant state some scheduler reaches the goals along at most
    n distinct states, each step with probability at least q, so a block of
    n steps succeeds with probability at least q**n and accrues at most
    n * r_max reward; summing the geometric series bounds every state's
    expected reward by n * r_max / q**n.  The bound is evaluated in exact
    arithmetic and rounded upward.  Infinite-reward states get inf, goals 0.
    """
    goal_set = frozenset(goals)
    inf_set = frozenset(s_inf)
    relevant = [s for s in model.states if s not in goal_set and s not in inf_set]
    n = len(relevant)
    r_max = max((b.reward_exact for ts in model.transitions for t in ts for b in t.branches),
                default=Fraction(0))
    q_min = min((b.probability_exact for ts in model.transitions for t in ts for b in t.branches),
                default=Fraction(1))
    if n == 0 or r_max == 0:
        bound = 0.0
    else:
        exact_bound = r_max * n / (q_min ** n)
        try:
            bound = float(exact_bound)
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise SolverError("no finite reward upper bound derivable; "
                              "the probability structure is too degenerate")
        if Fraction(bound) < exact_bound:
            bound = math.nextafter(bound, math.inf)
    out = []
    for s in model.states:
        if s in inf_set:
            out.append(math.inf)
        elif s in goal_set:
            out.append(0.0)
        else:
            out.append(bound)
    return out
