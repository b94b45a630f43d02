"""Solve pipeline: goal absorption, precomputations, end-component elimination,
then one of the solvers, with per-phase timing.

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
import os
import random
import time
from dataclasses import dataclass, field

from .errors import PipelineError
from .graph import (QuotientMap, eliminate_end_components, mec_decomposition,
                    prob0_set, prob1_set, s_infinity)
from .model import (Mdp, Property, PropertyKind, collector_paused, make_goals_absorbing,
                    strip_rewards)
from .modelio import ModelDocument
from .oracle import oracle_values
from .solvers import (DEFAULT_SWEEP_CAP, ErrorCriterion, OviGuards, SolveOutcome,
                      interval_iteration, ovi, plain_vi, probability_problem,
                      reward_problem, reward_upper_init)

METHODS = ("vi", "ovi", "ii", "oracle")
SEED_ENV_VAR = "SOUNDMDP_SEED"


@dataclass(frozen=True)
class SolveOptions:
    method: str = "ovi"
    precomp: str = "required"  # "required" | "all" | "none"
    ec_elim: str = "auto"      # "auto" | "force" | "off"
    error_mode: str = "relative"
    epsilon_vi: float | None = None  # defaults to the property epsilon
    max_sweeps: int = DEFAULT_SWEEP_CAP
    order: str = "forward"     # "forward" | "reverse" | "random:<seed>"
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise PipelineError(f"unknown method {self.method!r}")
        if self.precomp not in ("required", "all", "none"):
            raise PipelineError(f"unknown precomp mode {self.precomp!r}")
        if self.ec_elim not in ("auto", "force", "off"):
            raise PipelineError(f"unknown ec-elim mode {self.ec_elim!r}")


@dataclass
class PipelineResult:
    outcome: SolveOutcome
    prop: Property
    options: SolveOptions
    precomp_time: float = 0.0
    transform_time: float = 0.0
    applied: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    quotient: QuotientMap | None = None
    exact_value: object = None  # Fraction or math.inf when method == "oracle"


def _needs_ec_elimination(kind: PropertyKind, options: SolveOptions) -> bool:
    if options.ec_elim == "force":
        return True
    if options.ec_elim == "off":
        return False
    if kind == PropertyKind.EMIN:
        return True
    if kind == PropertyKind.PMAX:
        return options.method == "ii" or options.precomp == "all"
    return False


def _check_requirements(kind: PropertyKind, options: SolveOptions) -> None:
    if options.method != "ii":
        return
    if options.precomp == "none":
        raise PipelineError("ii requires a unique fixed point: precomp=none is not allowed")
    if kind == PropertyKind.PMAX and options.ec_elim == "off":
        raise PipelineError("ii requires end-component elimination for pmax")
    if kind == PropertyKind.EMIN and options.ec_elim == "off":
        raise PipelineError("ii requires end-component elimination for emin")


def _iteration_order(unknowns: frozenset[int], scheme: str) -> list[int]:
    order = sorted(unknowns)
    if scheme == "forward":
        return order
    if scheme == "reverse":
        return order[::-1]
    if scheme.startswith("random"):
        seed_text = scheme.split(":", 1)[1] if ":" in scheme else "0"
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            seed_text = env
        try:
            seed = int(seed_text)
        except ValueError:
            raise PipelineError(f"malformed random order seed {seed_text!r}") from None
        random.Random(seed).shuffle(order)
        return order
    raise PipelineError(f"unknown iteration order {scheme!r}")


@collector_paused()
def solve(model: Mdp, prop: Property, options: SolveOptions | None = None) -> PipelineResult:
    """Run the full pipeline on an in-memory model.

    The transforms and the kernel build acyclic model data, so the cyclic
    garbage collector is paused for the whole call.
    """
    options = options or SolveOptions()
    kind = prop.kind
    _check_requirements(kind, options)
    result = PipelineResult(SolveOutcome(0.0, None, None, 0), prop, options)

    # Transformations: absorb goals, strip rewards for probability queries,
    # then optionally collapse end components.
    t0 = time.perf_counter()
    work = make_goals_absorbing(model, prop.goals)
    result.applied.append("absorb-goals")
    if kind.is_probability:
        work = strip_rewards(work)
        result.applied.append("strip-rewards")
    goals = frozenset(prop.goals)
    if _needs_ec_elimination(kind, options):
        qm = eliminate_end_components(work, mec_decomposition(work), protect=goals)
        work = qm.quotient
        goals = qm.map_states(goals)
        result.quotient = qm
        result.applied.append(f"ec-elimination({model.num_states}->{work.num_states} states)")
        if kind in (PropertyKind.PMIN, PropertyKind.EMAX) and options.ec_elim == "force":
            result.warnings.append("end-component elimination forced for a property kind "
                                   "whose values it is not guaranteed to preserve")
    elif kind == PropertyKind.EMIN:
        result.warnings.append("uncertified: end components not eliminated for emin; "
                               "the computed fixed point may undershoot the true value")
    result.transform_time = time.perf_counter() - t0
    opt = kind.opt
    s_i = work.initial

    # Graph precomputations.
    t0 = time.perf_counter()
    fixed_zero: frozenset[int] = frozenset()
    fixed_one: frozenset[int] = frozenset()
    s_inf: frozenset[int] = frozenset()
    if kind.is_probability:
        if options.precomp != "none":
            fixed_zero = prob0_set(work, goals, opt)
            result.applied.append(f"prob0({len(fixed_zero)} states)")
        if options.precomp == "all":
            fixed_one = prob1_set(work, goals, opt)
            result.applied.append(f"prob1({len(fixed_one)} states)")
    else:
        if options.precomp != "none":
            s_inf = s_infinity(work, goals, opt)
            result.applied.append(f"s-infinity({len(s_inf)} states)")
        else:
            result.warnings.append("uncertified: infinite-reward states not precomputed")
    result.precomp_time = time.perf_counter() - t0

    if options.method == "oracle":
        return _run_oracle(result, work, goals)

    unique = _unique_fixed_point(kind, options)
    if kind.is_probability:
        problem = probability_problem(work, goals, opt, fixed_zero=fixed_zero,
                                      fixed_one=fixed_one, unique_fixed_point=unique)
    else:
        problem = reward_problem(work, goals, opt, s_inf, unique_fixed_point=unique)

    order = _iteration_order(problem.unknowns, options.order)
    criterion = ErrorCriterion(options.error_mode,
                               options.epsilon_vi if options.epsilon_vi is not None else prop.epsilon)

    # The timeout budget covers the numeric phase only.
    deadline = time.perf_counter() + options.timeout if options.timeout else None
    if options.method == "vi":
        outcome = plain_vi(problem, criterion, order, max_sweeps=options.max_sweeps,
                           deadline=deadline)
    elif options.method == "ovi":
        guards = OviGuards(max_total_sweeps=options.max_sweeps, deadline=deadline)
        outcome = ovi(problem, criterion, prop, guards, order)
    else:  # ii
        upper = ([1.0] * work.num_states if kind.is_probability
                 else reward_upper_init(work, goals, opt, s_inf))
        outcome = interval_iteration(problem, prop, upper, order,
                                     max_sweeps=options.max_sweeps, deadline=deadline)

    if result.warnings:
        outcome.certified = False
        if outcome.status == "ok":
            outcome.status = "uncertified"
    result.outcome = outcome
    return result


def _unique_fixed_point(kind: PropertyKind, options: SolveOptions) -> bool:
    if options.precomp == "none":
        return False
    if kind == PropertyKind.PMAX:
        return _needs_ec_elimination(kind, options)
    if kind == PropertyKind.PMIN:
        return True  # probability-0 states are fixed
    if kind == PropertyKind.EMAX:
        return True  # goal and infinite-reward states are fixed
    return options.ec_elim != "off"  # emin


def _run_oracle(result: PipelineResult, work: Mdp, goals: frozenset[int]) -> PipelineResult:
    start = time.perf_counter()
    prop = Property(result.prop.kind, goals, result.prop.epsilon, result.prop.width)
    values = oracle_values(work, prop)
    value = values[work.initial]
    as_float = math.inf if value == math.inf else float(value)
    result.exact_value = value
    result.outcome = SolveOutcome(as_float, as_float, as_float, 0,
                                  wall_time=time.perf_counter() - start,
                                  method="oracle", certified=True)
    if result.warnings:
        result.outcome.certified = False
        result.outcome.status = "uncertified"
    return result


def solve_document(doc: ModelDocument, prop: Property,
                   options: SolveOptions | None = None) -> PipelineResult:
    return solve(doc.model, prop, options)
