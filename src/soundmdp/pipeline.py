"""Solve pipeline: the qualitative graph steps first, then one of the solvers,
with per-phase timing.

A solve runs in this order, and copies the model only where a later step
reads the copy:
  1. absorb the goals;
  2. precompute on that model, which still has its rewards (prob0 and prob1
     read only the structure): prob0 and then prob1, from prob0's set, for
     probabilities, the infinite-reward states s-infinity for rewards
     (precomp="required"; "none" computes none of them).  Every graph step
     reads this model's predecessor index, built here, which its
     reward-stripped copy and a quotient that collapsed nothing share;
  3. unless step 2 decided the initial state, or it is a goal, strip the
     rewards for probability queries, since end-component elimination and
     the solvers read them;
  4. collapse end components where the plan asks for it (always for emin,
     and for pmax under ii), mapping the precomputed sets onto the
     quotient: elimination preserves pmax and emin, whose sets are unions
     of components.  With ec_elim="auto" this step is
     skipped when the initial state is decided as in step 3; "force"
     always eliminates, and the oracle keeps its planned path;
  5. solve, where a decided initial state costs no sweep, no iteration
     order and no upper start for interval iteration (whose reward bound
     can be infinite on a model where the request needs none).  Otherwise
     the sweeps visit the unknowns in the order the options name; the
     default, "goal-distance", sorts them by (d(s), s),
     where d(s) is the backward breadth-first distance, over the branches
     of the model being solved, from the states whose seed fixes the value
     (the goals and prob1 for probabilities, the goals for rewards), and
     unknowns that reach none of them come last.  Values then flow out
     from the goals within one sweep instead of one state per sweep.
     Interval iteration computes the order only once its upper start
     exists.  Both read step 2's index, or the one step 4 builds for a
     quotient that changed a transition's targets; no sweep holds either.
     "forward" is id order, the solvers' own default.  The emax upper start
     lies within rounding of the value, so for emax the upper end that
     interval iteration reports is widened by its sweeps' rounding
     (`rounding_widened`).

`PipelineResult` times three phases: precomp is step 2, transform steps 1,
3 and 4, and solve step 5, from the problem build (or the oracle call) to
the final outcome, the upper start, the order and the emax widening
included.

SolveOptions checks every field when it is built, so a bad option fails
before any work, whether or not the request would reach a sweep.

Method requirements enforced here:
  - interval iteration needs a unique fixed point, so it rejects
    precomp="none" outright and, for pmax and emin, rejects ec_elim="off";
  - emin always eliminates end components unless forced off, and a forced-off
    run is labelled uncertified because the least fixed point it converges to
    is not the queried value;
  - expected-reward queries resolve the infinite-reward states first and
    return inf immediately when the initial state is one of them.
"""

from __future__ import annotations

import math
import random
import time

from .errors import PipelineError
from .graph import (eliminate_end_components, goal_distance_order, mec_decomposition,
                    predecessor_index, prob0_set, prob1_set, s_infinity)
from .model import (Mdp, Property, PropertyKind, collector_paused, make_goals_absorbing,
                    strip_rewards)
from .modelio import _is_int
from .oracle import oracle_values
from .solvers import (DEFAULT_SWEEP_CAP, BellmanProblem, ErrorCriterion, SolveOutcome,
                      interval_iteration, ovi, plain_vi, probability_problem, reward_problem,
                      reward_upper_init, rounding_widened)

METHODS = ("vi", "ovi", "ii", "oracle")
#: the fixed iteration orders; "random:<seed>" shuffles the ids with that seed
ORDERS = ("goal-distance", "forward", "reverse")


class SolveOptions:
    """How to solve a request; every field is checked when the options are built."""

    __slots__ = ("method", "precomp", "ec_elim", "error_mode", "epsilon_vi", "max_sweeps",
                 "order", "timeout")

    def __init__(self, method: str = "ovi",
                 precomp: str = "required",  # "required" | "none"
                 ec_elim: str = "auto",      # "auto" | "force" | "off"
                 error_mode: str = "relative",
                 epsilon_vi: float | None = None,  # defaults to the property epsilon
                 max_sweeps: int = DEFAULT_SWEEP_CAP,
                 order: str = "goal-distance",  # | "forward" | "reverse" | "random[:<seed>]"
                 timeout: float | None = None) -> None:
        self.method, self.precomp, self.ec_elim = method, precomp, ec_elim
        self.error_mode, self.epsilon_vi, self.max_sweeps = error_mode, epsilon_vi, max_sweeps
        self.order, self.timeout = order, timeout
        if self.method not in METHODS:
            raise PipelineError(f"unknown method {self.method!r}")
        if self.precomp not in ("required", "none"):
            raise PipelineError(f"unknown precomp mode {self.precomp!r}")
        if self.ec_elim not in ("auto", "force", "off"):
            raise PipelineError(f"unknown ec-elim mode {self.ec_elim!r}")
        if self.error_mode not in ("relative", "absolute"):
            raise PipelineError(f"unknown error mode {self.error_mode!r}")
        eps = self.epsilon_vi
        if eps is not None and not (eps > 0 and math.isfinite(eps)):
            raise PipelineError(f"epsilon-vi must be a positive finite real, not {eps!r}")
        if type(self.max_sweeps) is not int or self.max_sweeps < 1:
            raise PipelineError(f"max-sweeps must be a positive integer, not {self.max_sweeps!r}")
        if self.timeout is not None and not self.timeout > 0:  # NaN too
            raise PipelineError(f"timeout must be a positive number, not {self.timeout!r}")
        _random_seed(self.order)  # rejects an unknown order


class PipelineResult:
    """What `solve` did: the outcome, the property, the transforms that ran,
    and the seconds each phase took (`SolveOutcome` carries no time)."""

    __slots__ = ("outcome", "prop", "precomp_time", "transform_time", "solve_time",
                 "applied", "warnings", "exact_value")

    def __init__(self, outcome: SolveOutcome, prop: Property) -> None:
        self.outcome, self.prop = outcome, prop
        self.precomp_time = self.transform_time = self.solve_time = 0.0
        self.applied: list[str] = []
        self.warnings: list[str] = []
        self.exact_value: object = None  # Fraction or math.inf for "oracle"


def _plan(kind: PropertyKind, options: SolveOptions) -> tuple[bool, bool]:
    """(eliminate end components, the problem has a unique fixed point).

    Raises PipelineError for the requests interval iteration cannot solve.
    """
    eliminate = options.ec_elim == "force" or options.ec_elim == "auto" and (
        kind == PropertyKind.EMIN or kind == PropertyKind.PMAX and options.method == "ii")
    if options.method == "ii":
        if options.precomp == "none":
            raise PipelineError("ii requires a unique fixed point: precomp=none is not allowed")
        if kind in (PropertyKind.PMAX, PropertyKind.EMIN) and not eliminate:
            raise PipelineError(f"ii requires end-component elimination for {kind.value}")
    # pmin fixes its probability-0 states, emax its goal and infinite-reward
    # states; pmax and emin need their end components collapsed.
    unique = options.precomp != "none" and (
        eliminate or kind in (PropertyKind.PMIN, PropertyKind.EMAX))
    return eliminate, unique


def _random_seed(scheme: str) -> int | None:
    """The seed of a `random[:<seed>]` order, None for the fixed orders."""
    if scheme in ORDERS:
        return None
    if scheme == "random":
        return 0
    if scheme.startswith("random:"):
        seed_text = scheme[len("random:"):]
        if not _is_int(seed_text):  # the parser's rule for an integer id
            raise PipelineError(f"malformed random order seed {seed_text!r}")
        return int(seed_text)
    raise PipelineError(f"unknown iteration order {scheme!r}")


def _iteration_order(problem: BellmanProblem, sources: frozenset[int], scheme: str,
                     pred: list[list[tuple[int, int]]]) -> list[int]:
    """The unknowns in the order a sweep visits them; `sources` are the
    fixed states the goal-distance order measures from, over `pred`."""
    if scheme == "goal-distance":
        return goal_distance_order(problem.model, sources, problem.unknowns, pred=pred)
    order = sorted(problem.unknowns)
    if scheme == "reverse":
        return order[::-1]
    seed = _random_seed(scheme)
    if seed is not None:
        random.Random(seed).shuffle(order)
    return order


@collector_paused()
def solve(model: Mdp, prop: Property, options: SolveOptions | None = None) -> PipelineResult:
    """Run the full pipeline on an in-memory model.

    The transforms and the kernel build acyclic model data, so the cyclic
    garbage collector is paused for the whole call.
    """
    options = options or SolveOptions()
    kind = prop.kind
    eliminate, unique = _plan(kind, options)
    result = PipelineResult(SolveOutcome(0.0, None, None, 0), prop)

    # Absorb the goals.
    t0 = time.perf_counter()
    work = make_goals_absorbing(model, prop.goals)
    result.applied.append("absorb-goals")
    goals = frozenset(prop.goals)
    result.transform_time = time.perf_counter() - t0
    opt = kind.opt

    # Graph precomputations, on the model before any elimination.
    t0 = time.perf_counter()
    fixed_zero: frozenset[int] = frozenset()
    fixed_one: frozenset[int] = frozenset()
    s_inf: frozenset[int] = frozenset()
    pred = predecessor_index(work)  # serves every graph step until the targets change
    if kind.is_probability:
        if options.precomp != "none":
            fixed_zero = prob0_set(work, goals, opt, pred=pred)
            result.applied.append(f"prob0({len(fixed_zero)} states)")
            fixed_one = prob1_set(work, goals, opt, pred=pred, zero=fixed_zero)
            result.applied.append(f"prob1({len(fixed_one)} states)")
    else:
        if options.precomp != "none":
            s_inf = s_infinity(work, goals, opt, pred=pred)
            result.applied.append(f"s-infinity({len(s_inf)} states)")
        else:
            result.warnings.append("uncertified: infinite-reward states not precomputed")
    result.precomp_time = time.perf_counter() - t0

    # Strip the rewards and collapse end components (steps 3 and 4 of the
    # module docstring).
    decided = (options.ec_elim == "auto" and options.method != "oracle"
               and any(work.initial in states for states in (goals, fixed_zero, fixed_one, s_inf)))
    t0 = time.perf_counter()
    if kind.is_probability and not decided:  # a decided solve runs no sweep
        work = strip_rewards(work)
        result.applied.append("strip-rewards")
    if eliminate and not decided:
        qm = eliminate_end_components(work, mec_decomposition(work, pred=pred), protect=goals)
        pred = pred if qm.quotient is work else predecessor_index(qm.quotient)
        work = qm.quotient
        goals, fixed_zero, fixed_one, s_inf = (
            qm.map_states(states) for states in (goals, fixed_zero, fixed_one, s_inf))
        result.applied.append(f"ec-elimination({model.num_states}->{work.num_states} states)")
        if kind in (PropertyKind.PMIN, PropertyKind.EMAX) and options.ec_elim == "force":
            result.warnings.append("end-component elimination forced for a property kind "
                                   "whose values it is not guaranteed to preserve")
    elif kind == PropertyKind.EMIN and not decided:
        result.warnings.append("uncertified: end components not eliminated for emin; "
                               "the computed fixed point may undershoot the true value")
    result.transform_time += time.perf_counter() - t0

    # Solve: from the problem build, or the oracle call, to the final outcome.
    t0 = time.perf_counter()
    if options.method == "oracle":
        result.exact_value = oracle_values(
            work, Property(kind, goals, prop.epsilon, prop.width))[work.initial]
        value = float(result.exact_value)
        outcome = SolveOutcome(value, value, value, 0, method="oracle", certified=True)
    else:
        if kind.is_probability:
            problem = probability_problem(work, goals, opt, fixed_zero=fixed_zero,
                                          fixed_one=fixed_one, unique_fixed_point=unique)
            sources = goals | fixed_one
        else:
            problem = reward_problem(work, goals, opt, s_inf, unique_fixed_point=unique)
            sources = goals
        criterion = ErrorCriterion(options.error_mode, options.epsilon_vi
                                   if options.epsilon_vi is not None else prop.epsilon)
        # The timeout budget covers the numeric phase only.
        deadline = None if options.timeout is None else time.perf_counter() + options.timeout
        budget = {"max_sweeps": options.max_sweeps, "deadline": deadline}
        # Only a sweep reads the upper start and the order, and a decided
        # initial state runs none: interval iteration then gets the seeds.
        undecided = work.initial in problem.unknowns
        upper = problem.seed
        if options.method == "ii" and undecided:
            upper = ([1.0] * work.num_states if kind.is_probability
                     else reward_upper_init(work, goals, opt, s_inf, pred=pred))
        order = _iteration_order(problem, sources, options.order, pred) if undecided else None
        del pred  # not held through the sweeps
        if options.method == "vi":
            outcome = plain_vi(problem, criterion, order, **budget)
        elif options.method == "ovi":
            outcome = ovi(problem, criterion, prop, order, **budget)
        else:  # ii
            outcome = interval_iteration(problem, prop, upper, order, **budget)
            if undecided and kind == PropertyKind.EMAX:
                # The emax start lies within rounding of the value.
                outcome = rounding_widened(problem, outcome, upper[work.initial])
    result.solve_time = time.perf_counter() - t0

    if result.warnings:
        outcome.certified = False
        if outcome.status == "ok":
            outcome.status = "uncertified"
    result.outcome = outcome
    return result
