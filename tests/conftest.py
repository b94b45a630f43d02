from __future__ import annotations

from fractions import Fraction
from typing import Callable

import pytest

from soundmdp import (Mdp, branch, generate_example_me, generate_random, generate_slow_chain,
                      make_goals_absorbing, modelio, solvers, strip_rewards, transition)


def clear_caches() -> None:
    """Empty the per-process caches: interval iteration's phase runners
    and the parser's number conversions."""
    solvers._RUNNERS.clear()
    modelio._memo_number.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts, and leaves, with both caches empty, so that no
    test depends on the tests run before it."""
    clear_caches()
    yield
    clear_caches()


def mdp_of(initial: int, *states) -> Mdp:
    """Compact model builder: each state is a list of transitions, each
    transition a list of (probability, reward, target) triples."""
    transitions = tuple(
        tuple(transition([branch(p, r, t) for p, r, t in trans]) for trans in state)
        for state in states
    )
    return Mdp(len(states), initial, transitions)


def trap_instance(seed: int, n_states: int) -> tuple[Mdp, list[int]]:
    """A random model with an injected end component and its first declared
    goal only: the second, absorbing, is a trap.  Random models that reach
    their goals from everywhere have every value at 1, which prob1 settles
    without a sweep; here pmax and pmin vary between states."""
    doc = generate_random(seed, n_states, 3, 4, 4, 2, allow_end_components=True)
    return doc.model, sorted(doc.declared_goals)[:1]


def record(events: list) -> Callable[..., None]:
    """A solver observer appending each event, with copies of the live vectors."""
    return lambda *event: events.append(tuple(list(x) if type(x) is list else x for x in event))


def spy_runners(monkeypatch):
    """Wraps `_compile_phase`.  Returns two lists that fill as interval
    iteration runs: what each compile returned, and the sweep count each
    call of a runner ended at, also of a runner taken from the cache, which
    holds the wrapped runners."""
    compiled, ran = [], []
    real = solvers._compile_phase

    def compile_phase(*args):
        runner = real(*args)
        compiled.append(runner)
        if runner is None:
            return None

        def run(*call):
            sweeps, end = runner(*call)
            ran.append(sweeps)
            return sweeps, end
        return run

    monkeypatch.setattr(solvers, "_compile_phase", compile_phase)
    return compiled, ran


def spy_sources(monkeypatch) -> list:
    """Wraps `compile` in `solvers`' namespace.  Returns a list that gains
    the source of each runner compiled."""
    sources: list = []
    monkeypatch.setattr(solvers, "compile", lambda source, *args: sources.append(source)
                        or compile(source, *args), raising=False)
    return sources


def spy_lookups(monkeypatch) -> list:
    """Replaces `solvers._RUNNERS` by an empty dict that records its
    lookups.  Returns a list that gains each key interval iteration looks a
    phase up by."""
    keys: list = []

    class Runners(dict):
        def get(self, key, default=None):
            keys.append(key)
            return super().get(key, default)

    monkeypatch.setattr(solvers, "_RUNNERS", Runners())
    return keys


def count_generic_sweeps(monkeypatch) -> list:
    """Wraps `solvers._sweep`.  Returns a list that gains one entry per
    generic sweep."""
    sweeps: list = []
    real_sweep = solvers._sweep
    monkeypatch.setattr(solvers, "_sweep", lambda *args: sweeps.append(1) or real_sweep(*args))
    return sweeps


@pytest.fixture(scope="session")
def me_doc():
    return generate_example_me()


@pytest.fixture(scope="session")
def me_plus(me_doc):
    """Example model with s+ absorbing (probability queries to s+)."""
    return make_goals_absorbing(me_doc.model, [1])


@pytest.fixture(scope="session")
def me0(me_plus):
    """Reward-stripped example model."""
    return strip_rewards(me_plus)


@pytest.fixture(scope="session")
def me_both(me_doc):
    """Example model with both s+ and s- absorbing (reward queries)."""
    return make_goals_absorbing(me_doc.model, [1, 2])


HALF = Fraction(1, 2)


def trap_beside_chain(n: int = 1200) -> tuple[Mdp, list[int]]:
    """The slow chain s0..sn (branch probability 1/2, goal sn) and, beside
    it, an initial state whose only choice leads into a non-goal trap.  The
    initial state's maximal expected reward is infinite, and the chain's
    states make the global reward bound of interval iteration overflow."""
    chain = generate_slow_chain(n, HALF).model
    into_trap = (transition([branch(1, 1, n + 2)]),)
    return Mdp(n + 3, n + 1, chain.transitions + (into_trap, into_trap)), [n]
