"""MDPX v1 text format plus the bundled model generators.

The format is line oriented; `#` starts a comment, tokens are whitespace
separated.  Numbers are decimals ("0.25", "1e-3") or fractions ("1/3"), both
parsed exactly before rounding to binary64.  State and target references may
be ids or labels; labels resolve after the whole file is read, so forward
references are fine.

    mdpx 1
    states 5
    initial s0
    state 0 s0
      transition a
        branch 0.1 1 s-
        branch 0.1 0 s+
        branch 0.8 1 s0
      transition b
        branch 1 0 s1
    ...
    goal s+ s-
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from .errors import GeneratorError, ParseError
from .model import (Branch, Mdp, Number, Transition, branch, collector_paused, exact,
                    transition, validate)

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelDocument:
    """A parsed model together with its label table and optional goal declaration."""

    model: Mdp
    named_states: dict[str, int] = field(default_factory=dict)
    declared_goals: frozenset[int] | None = None
    format_version: int = FORMAT_VERSION

    @cached_property
    def _label_by_state(self) -> dict[int, str]:
        """Inverse of named_states, derived on first use."""
        out: dict[int, str] = {}
        for name, sid in self.named_states.items():
            out.setdefault(sid, name)
        return out

    def label_of(self, state: int) -> str | None:
        """The first label, in insertion order, that names the state."""
        return self._label_by_state.get(state)

    def resolve_state(self, token: str) -> int:
        """Map an id or label to a state id."""
        if token in self.named_states:
            return self.named_states[token]
        try:
            sid = int(token)
        except ValueError:
            raise ParseError(f"unknown state label {token!r}") from None
        if not (0 <= sid < self.model.num_states):
            raise ParseError(f"state id {sid} out of range")
        return sid


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def _column(body: str, index: int) -> int:
    """1-based column of the index-th whitespace-separated word of a line."""
    col = 0
    for word in body.split()[:index + 1]:
        col = body.index(word, col) + len(word)
    return col - len(word) + 1


def _error(message: str, line: int, body: str, index: int) -> ParseError:
    return ParseError(message, line, _column(body, index))


def _parse_number(token: str, line: int, body: str, index: int) -> Fraction:
    try:
        return exact(token)
    except (ValueError, ZeroDivisionError):
        raise _error(f"malformed number {token!r}", line, body, index) from None


def _lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, text before any comment, words) of each non-blank line."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        words = body.split()
        if words:
            yield ln, body, words


@collector_paused()
def parse_explicit(text: str) -> ModelDocument:
    """Parse an MDPX document; raises ParseError with line/column on bad input.

    Lines are read one at a time from a generator, and a line's words are
    dropped once its statement is recorded; a branch keeps its three tokens
    and its line, from which a column is computed only when an error is
    raised.  Model files repeat a few number tokens many times, so each
    distinct token is parsed to a Fraction, rounded to a float and resolved
    as a target once per call.  A number outside the binary64 range is a
    ParseError at its first branch.  Nothing is cached across calls, and the
    cyclic garbage collector is paused while the model is built.
    """
    lines = _lines(text)
    first = next(lines, None)
    if first is None:
        raise ParseError("empty input: missing 'mdpx 1' header", 1, 1)

    ln, body, words = first
    if words[0] != "mdpx":
        raise _error(f"expected 'mdpx 1' header, found {words[0]!r}", ln, body, 0)
    if len(words) != 2 or not _is_int(words[1]):
        raise _error("malformed header, expected 'mdpx 1'", ln, body, 0)
    if int(words[1]) != FORMAT_VERSION:
        raise _error(f"unsupported format version {words[1]}", ln, body, 1)

    # A raw branch is (probability, reward, target, line, body), all tokens;
    # a state reference elsewhere is (token, line, body, word index).
    num_states: int | None = None
    initial_token: tuple[str, int, str, int] | None = None
    goal_tokens: list[tuple[str, int, str, int]] = []
    labels: dict[str, int] = {}
    exacts: dict[str, Fraction] = {}
    state_transitions: list[list[tuple[str | None, list[tuple]]]] = []
    branches: list[tuple] | None = None  # raw branches of the open transition

    for ln, body, words in lines:
        keyword = words[0]
        if keyword == "branch":
            if branches is None:
                raise _error("'branch' outside a transition block", ln, body, 0)
            if len(words) != 4:
                raise _error("'branch' expects <probability> <reward> <target>", ln, body, 0)
            _, pt, rt, tt = words
            if pt not in exacts:
                exacts[pt] = _parse_number(pt, ln, body, 1)
            if rt not in exacts:
                exacts[rt] = _parse_number(rt, ln, body, 2)
            branches.append((pt, rt, tt, ln, body))
        elif keyword == "transition":
            if not state_transitions:
                raise _error("'transition' outside a state block", ln, body, 0)
            if len(words) > 2:
                raise _error("too many tokens on 'transition' line", ln, body, 0)
            branches = []
            state_transitions[-1].append((words[1] if len(words) == 2 else None, branches))
        elif keyword == "state":
            if num_states is None:
                raise _error("'state' before 'states' count", ln, body, 0)
            if len(words) < 2 or not _is_int(words[1]):
                raise _error("'state' expects an integer id", ln, body, 0)
            sid = int(words[1])
            if sid != len(state_transitions):
                raise _error(
                    f"state ids must appear in declaration order; expected {len(state_transitions)}, found {sid}",
                    ln, body, 1)
            if sid >= num_states:
                raise _error(f"state id {sid} exceeds declared count {num_states}", ln, body, 1)
            if len(words) > 3:
                raise _error("too many tokens on 'state' line", ln, body, 0)
            if len(words) == 3:
                label = words[2]
                if _is_int(label):
                    raise _error(f"state label {label!r} must not be an integer", ln, body, 2)
                if label in labels:
                    raise _error(f"duplicate state label {label!r}", ln, body, 2)
                labels[label] = sid
            state_transitions.append([])
            branches = None
        elif keyword == "states":
            if num_states is not None:
                raise _error("duplicate 'states' line", ln, body, 0)
            if len(words) != 2 or not _is_int(words[1]) or int(words[1]) <= 0:
                raise _error("'states' expects one positive integer", ln, body, 0)
            num_states = int(words[1])
        elif keyword == "initial":
            if initial_token is not None:
                raise _error("duplicate 'initial' line", ln, body, 0)
            if len(words) != 2:
                raise _error("'initial' expects one id or label", ln, body, 0)
            initial_token = (words[1], ln, body, 1)
        elif keyword == "goal":
            if len(words) < 2:
                raise _error("'goal' expects at least one id or label", ln, body, 0)
            goal_tokens.extend((t, ln, body, i) for i, t in enumerate(words[1:], start=1))
        else:
            raise _error(f"unknown keyword {keyword!r}", ln, body, 0)

    if num_states is None:
        raise ParseError("missing 'states' line")
    if len(state_transitions) != num_states:
        raise ParseError(f"declared {num_states} states but found {len(state_transitions)} state blocks")
    if initial_token is None:
        raise ParseError("missing 'initial' line")

    targets: dict[str, int] = dict(labels)

    def resolve(token: str, ln: int, body: str, index: int) -> int:
        if token in targets:
            return targets[token]
        if not _is_int(token):
            raise _error(f"dangling target: unknown state label {token!r}", ln, body, index)
        sid = int(token)
        if not 0 <= sid < num_states:
            raise _error(f"state id {sid} out of range", ln, body, index)
        targets[token] = sid
        return sid

    # Floats are rounded here, branch by branch, so a number too large for
    # binary64 fails at its first branch and not before the errors found in
    # earlier lines and branches.
    numbers: dict[str, tuple[float, Fraction]] = {}

    def number(token: str, ln: int, body: str, index: int) -> tuple[float, Fraction]:
        value = exacts[token]
        try:
            pair = numbers[token] = (float(value), value)
        except OverflowError:
            raise _error(f"number {token!r} outside the binary64 range", ln, body, index) from None
        return pair

    transitions: list[tuple[Transition, ...]] = []
    for raw in state_transitions:
        ts = []
        for label, raw_branches in raw:
            bs = []
            for pt, rt, tt, ln, body in raw_branches:
                pf, pe = numbers.get(pt) or number(pt, ln, body, 1)
                rf, re = numbers.get(rt) or number(rt, ln, body, 2)
                sid = targets.get(tt)
                if sid is None:
                    sid = resolve(tt, ln, body, 3)
                bs.append(Branch(pf, rf, sid, pe, re))
            ts.append(Transition(tuple(bs), label))
        transitions.append(tuple(ts))

    model = Mdp(num_states, resolve(*initial_token), tuple(transitions))
    problems = validate(model)
    if problems:
        raise ParseError("invalid model: " + "; ".join(str(v) for v in problems[:5]))
    goals = frozenset(resolve(*t) for t in goal_tokens) if goal_tokens else None
    return ModelDocument(model, labels, goals)


def _format_number(value: Fraction, as_float: float) -> str:
    """Render a number losslessly when short, otherwise faithful to its binary64 value."""
    if value == Fraction(as_float):
        return f"{as_float:.17g}"
    num, den = value.numerator, value.denominator
    # Denominators of the form 2^a * 5^b have a finite decimal expansion.
    d, twos, fives = den, 0, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d == 1:
        k = max(twos, fives)
        digits = num * 10 ** k // den
        text = str(digits).rstrip("0")
        if len(text.lstrip("-")) <= 17:
            sign = "-" if digits < 0 else ""
            body = str(abs(digits)).rjust(k + 1, "0")
            return (sign + body[:-k] + "." + body[-k:]).rstrip("0").rstrip(".") if k else sign + body
    return f"{num}/{den}"


def write_explicit(doc: ModelDocument) -> str:
    """Serialize a document so that parse_explicit(write_explicit(doc)) is structurally equal."""
    model = doc.model
    name_of = {sid: name for name, sid in doc.named_states.items()}

    def ref(sid: int) -> str:
        return name_of.get(sid, str(sid))

    out = [f"mdpx {doc.format_version}", f"states {model.num_states}", f"initial {ref(model.initial)}"]
    for s in model.states:
        head = f"state {s}"
        if s in name_of:
            head += f" {name_of[s]}"
        out.append(head)
        for t in model.transitions[s]:
            out.append("  transition" + (f" {t.label}" if t.label else ""))
            for b in t.branches:
                out.append("    branch "
                           f"{_format_number(b.probability_exact, b.probability)} "
                           f"{_format_number(b.reward_exact, b.reward)} {ref(b.target)}")
    if doc.declared_goals:
        out.append("goal " + " ".join(ref(g) for g in sorted(doc.declared_goals)))
    return "\n".join(out) + "\n"


def generate_example_me() -> ModelDocument:
    """The five-state example model used throughout the tests.

    s0 chooses between a risky loop (transition a) and a detour into the
    zero-reward s1/s2 cycle (transition b); s2 can exit via transition c.
    s+ and s- are absorbing.
    """
    h = Fraction(1, 10)
    s0, sp, sm, s1, s2 = range(5)
    transitions = (
        (transition([branch(h, 1, sm), branch(h, 0, sp), branch(Fraction(8, 10), 1, s0)], "a"),
         transition([branch(1, 0, s1)], "b")),
        (transition([branch(1, 0, sp)]),),
        (transition([branch(1, 0, sm)]),),
        (transition([branch(1, 0, s2)]),),
        (transition([branch(1, 0, s1)]),
         transition([branch(Fraction(6, 10), 1, sm), branch(Fraction(4, 10), 0, sp)], "c")),
    )
    model = Mdp(5, s0, transitions)
    return ModelDocument(model, {"s0": s0, "s+": sp, "s-": sm, "s1": s1, "s2": s2})


def _labelled(model: Mdp, goals: Iterable[int]) -> ModelDocument:
    return ModelDocument(model, {f"s{s}": s for s in model.states}, frozenset(goals))


@collector_paused()
def generate_random(seed: int, n_states: int, max_transitions: int, max_branches: int,
                    reward_max: Number, goal_count: int, *,
                    allow_end_components: bool = False,
                    min_reward: Number = 0) -> ModelDocument:
    """Deterministic random model; goals are absorbing and state 0 is initial.

    By default the output contains no end components beyond absorbing
    self-loops, even on the reward-stripped model, so random differential
    tests run in the unique-fixed-point regime.  With allow_end_components a
    zero-reward two-state cycle is injected instead.  The cyclic garbage
    collector is paused while the model is built.
    """
    if n_states < 2 or goal_count < 1 or goal_count > n_states - 1:
        raise GeneratorError("inconsistent bounds: need n_states >= 2 and 1 <= goal_count <= n_states-1")
    if max_transitions < 1 or max_branches < 1:
        raise GeneratorError("inconsistent bounds: need at least one transition and branch")
    r_max = exact(reward_max)
    r_min = exact(min_reward)
    if r_max < 0 or r_min < 0 or r_min > r_max:
        raise GeneratorError("inconsistent bounds: need 0 <= min_reward <= reward_max")

    rng = random.Random(seed)
    for _ in range(1000):
        doc = _random_attempt(rng, n_states, max_transitions, max_branches,
                              r_max, r_min, goal_count, allow_end_components)
        if allow_end_components or _only_absorbing_components(doc.model):
            assert not validate(doc.model)
            return doc
    raise GeneratorError("could not generate an end-component-free model with these bounds")


def _random_attempt(rng: random.Random, n_states: int, max_transitions: int,
                    max_branches: int, r_max: Fraction, r_min: Fraction,
                    goal_count: int, allow_ec: bool) -> ModelDocument:
    goals = sorted(rng.sample(range(1, n_states), goal_count))
    goal_set = set(goals)
    transitions: list[tuple[Transition, ...]] = []
    for s in range(n_states):
        if s in goal_set:
            transitions.append((transition([branch(1, 0, s)]),))
            continue
        ts = []
        for _ in range(rng.randint(1, max_transitions)):
            targets = rng.sample(range(n_states), rng.randint(1, min(max_branches, n_states)))
            weights = [rng.randint(1, 9) for _ in targets]
            total = sum(weights)
            branches = []
            for w, tgt in zip(weights, targets):
                if r_max > 0:
                    reward = r_min + (r_max - r_min) * Fraction(rng.randint(0, 8), 8)
                else:
                    reward = Fraction(0)
                branches.append(branch(Fraction(w, total), reward, tgt))
            ts.append(transition(branches))
        transitions.append(tuple(ts))
    model = Mdp(n_states, 0, tuple(transitions))
    if allow_ec and n_states - goal_count >= 2:
        a, b = rng.sample([s for s in range(n_states) if s not in goal_set], 2)
        new = list(model.transitions)
        new[a] = new[a] + (transition([branch(1, 0, b)]),)
        new[b] = new[b] + (transition([branch(1, 0, a)]),)
        model = Mdp(n_states, 0, tuple(new))
    return _labelled(model, goals)


def _only_absorbing_components(model: Mdp) -> bool:
    """True when every end component of the reward-stripped model is a fully
    absorbing single state (all of whose transitions are kept self-loops)."""
    from .graph import mec_decomposition
    from .model import strip_rewards

    for mec in mec_decomposition(strip_rewards(model)):
        if len(mec.states) > 1:
            return False
        (s,) = mec.states
        if len(mec.kept_transitions[s]) != len(model.transitions[s]):
            return False
    return True


def generate_slow_chain(n: int, p: Number) -> ModelDocument:
    """A restarting chain whose value iteration converges slowly.

    States s0..sn: s0 enters the chain surely, each interior si advances to
    s(i+1) with probability p and falls back to s0 otherwise, and sn is the
    absorbing goal.  Every non-loop branch carries reward 1, so the expected
    accumulated reward counts steps until the goal; smaller p and larger n
    stretch the geometric tail that defeats the usual convergence criterion.
    """
    if n < 2:
        raise GeneratorError("slow chain needs n >= 2")
    pf = exact(p)
    if not (0 < pf < 1):
        raise GeneratorError("slow chain needs 0 < p < 1")
    transitions: list[tuple[Transition, ...]] = [(transition([branch(1, 1, 1)]),)]
    for i in range(1, n):
        transitions.append((transition([branch(pf, 1, i + 1), branch(1 - pf, 1, 0)]),))
    transitions.append((transition([branch(1, 0, n)]),))
    model = Mdp(n + 1, 0, tuple(transitions))
    return _labelled(model, [n])
