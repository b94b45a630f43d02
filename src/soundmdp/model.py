"""Core MDP data model: branches, transitions, properties, validation, transforms.

States are dense integers 0..n-1.  Every numeric field is kept twice: as the
binary64 value used by the iterative solvers, and as an exact rational used by
the oracle.  Transforms preserve both representations.

`Branch`, `Transition`, `Mdp` and `Violation` are named tuples: immutable,
compared and hashed by their fields, and without a per-instance dict, so a
model of many branches is cheap to build and hold.  `Property` checks its
fields when it is built.  Model data holds no reference cycles; reference
counting frees it, and `collector_paused` lets the layers that build it skip
the cyclic garbage collector's passes over it.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import ModelError

Number = Union[int, float, str, Fraction]

#: Absolute tolerance for per-transition probability sums (binary64 side).
PROBABILITY_SUM_TOLERANCE = 1e-9


def exact(value: Number) -> Fraction:
    """Coerce a number to an exact rational.

    Strings may be decimals ("0.1", "1e-3") or fractions ("1/3"); both parse
    without rounding.  Floats convert to their exact binary64 value.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off while acyclic model data is built.

    Building a model allocates many container objects, each of which pushes
    the collector towards another pass over everything built so far, yet the
    data has no cycles and reference counting alone frees it.  The pause is
    process-wide: it changes only speed, never results.  If the collector is
    already off the block runs as is and leaves it off; otherwise it is
    switched on again when the block ends, also when it raises.  Usable as a
    decorator.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Branch(NamedTuple):
    """One probabilistic outcome of a transition: (probability, reward, target).

    The float fields are `float()` of the exact ones.  `branch()`, the
    parser, `strip_rewards` and end-component elimination all keep this, so
    a layer that copies a branch copies its floats instead of rounding again.
    """

    probability: float
    reward: float
    target: int
    probability_exact: Fraction
    reward_exact: Fraction


def branch(probability: Number, reward: Number, target: int) -> Branch:
    p = exact(probability)
    r = exact(reward)
    return Branch(float(p), float(r), int(target), p, r)


class Transition(NamedTuple):
    """A nondeterministic choice: a distribution over (reward, successor) branches."""

    branches: tuple[Branch, ...]
    label: str | None = None


def transition(branches: Iterable[Branch], label: str | None = None) -> Transition:
    return Transition(tuple(branches), label)


class Mdp(NamedTuple):
    """A finite MDP: dense states 0..num_states-1, one initial state, per-state transitions."""

    num_states: int
    initial: int
    transitions: tuple[tuple[Transition, ...], ...]

    @property
    def states(self) -> range:
        return range(self.num_states)

    def transition_count(self) -> int:
        return sum(len(ts) for ts in self.transitions)

    def branch_count(self) -> int:
        return sum(len(t.branches) for ts in self.transitions for t in ts)


class PropertyKind(str, Enum):
    PMAX = "pmax"
    PMIN = "pmin"
    EMAX = "emax"
    EMIN = "emin"

    @property
    def is_probability(self) -> bool:
        return self in (PropertyKind.PMAX, PropertyKind.PMIN)

    @property
    def opt(self) -> str:
        return "max" if self in (PropertyKind.PMAX, PropertyKind.EMAX) else "min"


class Property:
    """A reachability or expected-reward query with its required result width."""

    __slots__ = ("kind", "goals", "epsilon", "width")

    def __init__(self, kind: PropertyKind, goals: frozenset[int], epsilon: float = 1e-6,
                 width: str = "relative") -> None:
        self.kind, self.goals, self.epsilon, self.width = kind, goals, epsilon, width
        if not self.goals:
            raise ModelError("property needs at least one goal state")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ModelError("epsilon must be a positive finite real")
        if self.width not in ("relative", "absolute"):
            raise ModelError(f"unknown width mode {self.width!r}")


def make_property(kind: str | PropertyKind, goals: Iterable[int],
                  epsilon: float = 1e-6, width: str = "relative") -> Property:
    return Property(PropertyKind(kind), frozenset(goals), epsilon, width)


class Violation(NamedTuple):
    """One structural rule broken by a model, pointing at the offending spot."""

    state: int
    transition: int | None
    message: str

    def __str__(self) -> str:
        where = f"state {self.state}"
        if self.transition is not None:
            where += f", transition {self.transition}"
        return f"{where}: {self.message}"


def validate(model: Mdp) -> list[Violation]:
    """Report every structural violation; an empty list means the model is well formed.

    Total by design: malformed input yields violations, never an exception.
    """
    out: list[Violation] = []
    n = model.num_states
    if n <= 0:
        out.append(Violation(0, None, "model has no states"))
        return out
    if not (0 <= model.initial < n):
        out.append(Violation(model.initial, None, f"initial state {model.initial} out of range"))
    if len(model.transitions) != n:
        out.append(Violation(0, None,
                             f"transition table covers {len(model.transitions)} of {n} states"))
    for s, ts in enumerate(model.transitions[:n]):
        if not ts:
            out.append(Violation(s, None, "state has no transitions"))
            continue
        for ti, tr in enumerate(ts):
            if not tr.branches:
                out.append(Violation(s, ti, "transition has no branches"))
                continue
            for b in tr.branches:
                if not (0.0 < b.probability <= 1.0):
                    out.append(Violation(s, ti,
                                         f"branch probability {b.probability!r} outside (0,1]"))
                if not (math.isfinite(b.reward) and b.reward >= 0.0):
                    out.append(Violation(s, ti, f"branch reward {b.reward!r} not a finite non-negative real"))
                if not (0 <= b.target < n):
                    out.append(Violation(s, ti, f"branch target {b.target} out of range"))
            total = math.fsum(b.probability for b in tr.branches)
            if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
                shown = float(math.fsum(b.probability_exact for b in tr.branches)
                              if all(isinstance(b.probability_exact, Fraction) for b in tr.branches)
                              else total)
                out.append(Violation(s, ti, f"probabilities sum to {shown!r}"))
    return out


def _check_states(model: Mdp, states: Iterable[int], what: str) -> frozenset[int]:
    out = frozenset(states)
    for s in out:
        if not (0 <= s < model.num_states):
            raise ModelError(f"unknown state id {s} in {what}")
    return out


def make_goals_absorbing(model: Mdp, goals: Iterable[int]) -> Mdp:
    """Replace each goal state's transitions by a single zero-reward self-loop."""
    goal_set = _check_states(model, goals, "goals")
    loop = {g: (transition([branch(Fraction(1), Fraction(0), g)]),) for g in goal_set}
    new = tuple(loop.get(s, ts) for s, ts in enumerate(model.transitions))
    return model._replace(transitions=new)


def strip_rewards(model: Mdp) -> Mdp:
    """Return the same model with every branch reward set to zero."""
    zero = Fraction(0)
    new = tuple(
        tuple(Transition(tuple(Branch(p, 0.0, q, pe, zero) for p, _, q, pe, _ in t.branches),
                         t.label)
              for t in ts)
        for ts in model.transitions
    )
    return model._replace(transitions=new)


def rebase_initial(model: Mdp, state: int) -> Mdp:
    """Return the same model with a different initial state."""
    if not (0 <= state < model.num_states):
        raise ModelError(f"unknown state id {state} in rebase_initial")
    return model._replace(initial=state)
