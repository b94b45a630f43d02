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
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, repeat
from math import ceil, fsum, gcd, log
from operator import itemgetter, lt, sub
from typing import Iterable

from .errors import GeneratorError, ModelError, ParseError
from .graph import attractor
from .model import (PROBABILITY_SUM_TOLERANCE, Branch, Mdp, Number, Transition, branch,
                    collector_paused, exact, transition, validate)

FORMAT_VERSION = 1


class ModelDocument:
    """A parsed model together with its label table and optional goal declaration.

    Documents are equal when their three fields are.  The format has one
    version, `FORMAT_VERSION`: the writer puts it in the header."""

    __slots__ = ("model", "named_states", "declared_goals", "_labels")

    def __init__(self, model: Mdp, named_states: dict[str, int] | None = None,
                 declared_goals: frozenset[int] | None = None) -> None:
        self.model, self.named_states = model, {} if named_states is None else named_states
        self.declared_goals = declared_goals
        self._labels: dict[int, str] | None = None  # inverse of named_states, built on first use

    def __eq__(self, other: object) -> bool:
        fields = ("model", "named_states", "declared_goals")
        return type(other) is type(self) and all(
            getattr(self, f) == getattr(other, f) for f in fields)

    def label_of(self, state: int) -> str | None:
        """The first label, in insertion order, that names the state."""
        if self._labels is None:
            self._labels = {sid: name for name, sid in reversed(self.named_states.items())}
        return self._labels.get(state)

    def resolve_state(self, token: str) -> int:
        """Map an id or label to a state id."""
        if token in self.named_states:
            return self.named_states[token]
        if not _is_int(token):
            raise ParseError(f"unknown state label {token!r}")
        sid = int(token)
        if not (0 <= sid < self.model.num_states):
            raise ParseError(f"state id {sid} out of range")
        return sid


def _is_int(token: str) -> bool:
    """True for an integer id: ASCII digits with an optional sign.  int()
    alone also takes "1_0", blanks around the digits and non-ASCII digits
    ("٣"); it refuses more than 4300 digits, and such a token is no id."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        return False
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


def _error(message: str, line: int, raw: str, index: int) -> ParseError:
    """A ParseError at the index-th word of a line, given the line's full text."""
    return ParseError(message, line, _column(raw.split("#", 1)[0], index))


#: a decimal exponent this far above its mantissa's length puts any non-zero
#: value beyond 10**400, far outside the binary64 range
_HUGE_EXPONENT = 400
#: a negative exponent this far above its mantissa's length puts any non-zero
#: value below 10**-100000, whose exact build would grow without bound with
#: the exponent (about 8 ms at this bound, 15 s for 1e-10000000)
_TINY_EXPONENT = 100_000
#: a plain exponent; the groups hold its sign and its digits without leading zeros
_EXPONENT = re.compile(r"([+-]?)0*([0-9]+)")


def _number(token: str) -> tuple:
    """The token's (float, exact value), or (token,) for a value outside the
    binary64 range; ValueError or ZeroDivisionError for a malformed token.

    A huge exponent is recognised without building the number, which would
    take seconds for a token such as 1e3000000 or 1e-10000000: a non-zero
    mantissa of k characters is at least 10**-k and below 10**k, so a
    positive exponent above k + 400 is known to overflow, and a negative
    exponent above k + 100000 gives a value below 10**-100000, which is
    reported as out of range too.  With a zero mantissa either parses to 0.
    Exponents are compared by their digit counts first and passed on without
    their leading zeros, since int() refuses more than 4300 digits.
    """
    cut = max(token.rfind("e"), token.rfind("E"))
    exponent = _EXPONENT.fullmatch(token, cut + 1) if cut > 0 else None
    if exponent:
        sign, digits = exponent.groups()
        bound = str(cut + (_TINY_EXPONENT if sign == "-" else _HUGE_EXPONENT))
        # Digit strings without leading zeros order as (length, text).
        if (len(digits), digits) > (len(bound), bound):
            value = exact(token[:cut] + "e0")
            if value != 0:
                return (token,)
        else:
            value = exact(token[:cut] + "e" + sign + digits)
    else:
        value = exact(token)
    try:
        return (float(value), value)
    except OverflowError:
        return (token,)


#: the longest number token whose conversion is kept for the process.  A
#: token without an exponent of at most this many characters holds a
#: numerator and a denominator below 10**32; with an exponent a few
#: characters can stand for a huge one (1e-99999 has a 41 KB denominator),
#: so such tokens are converted on every call.
_MEMO_TOKEN_CHARS = 32

#: conversions kept per process, the least recently used dropped first; at
#: most a few hundred bytes each
_NUMBER_MEMO_SIZE = 1024

_memo_number = lru_cache(maxsize=_NUMBER_MEMO_SIZE)(_number)


def _parse_number(token: str, line: int, raw: str, index: int) -> tuple:
    """`_number` of the token, raising a located ParseError for a malformed
    one.  The conversion of a short token without an exponent is taken from
    a per-process memo (`_memo_number`), which keeps no error: a malformed
    token is converted, and reported at its line and column, on every call.
    The memo holds only immutable (float, Fraction) pairs, and `lru_cache`
    may be shared by threads.
    """
    try:
        if len(token) <= _MEMO_TOKEN_CHARS and "e" not in token and "E" not in token:
            return _memo_number(token)
        return _number(token)
    except (ValueError, ZeroDivisionError):
        raise _error(f"malformed number {token!r}", line, raw, index) from None


@collector_paused()
def parse_explicit(text: str) -> ModelDocument:
    """Parse an MDPX document; raises ParseError with line/column on bad input.

    One pass over the lines, then bulk steps over whole columns.  The line
    pass checks every statement and resolves each distinct number token,
    once per call and role and at its first line, to its (float, Fraction)
    pair, or to (token,) when it is outside the binary64 range; so a
    malformed number is reported in document order (`_parse_number` tells
    which conversions a memo keeps).  It keeps the branches as four flat
    columns in document order, holding each branch's probability pair,
    reward pair, target token and line number, and records the index of
    each transition's first branch and of each state's first transition.

    The build reads the canonical integer targets ("0", "1", ...) and the
    labels from one table and makes every Branch in one `map` over the
    zipped columns; each Transition takes its branches, and each state its
    Transitions, from that stream by `islice`, in the sizes the recorded
    starts give.  A target missing from the table (such as "007") or a
    number out of range sends the build through a walk over the branches
    in document order that resolves each target and raises the first
    error.

    The model rules of `model.validate` are then checked in bulk: the
    probability and the reward range once per distinct token in that
    role, each transition's sum by one `math.fsum` over its probabilities,
    and empty transitions and states by the starts.  Targets are in range
    by construction.  Only when one of these fails is `validate` run, so
    that its violations, their order and the cut to the first five make
    the message.  A line's text is looked up again only when an error has
    to be located.  Only number conversions are kept across calls, and the
    cyclic garbage collector is paused while the model is built.
    """
    lines = enumerate(text.splitlines(), start=1)
    for ln, raw in lines:
        words = raw.split("#", 1)[0].split()
        if words:
            break
    else:
        raise ParseError("empty input: missing 'mdpx 1' header", 1, 1)

    if words[0] != "mdpx":
        raise _error(f"expected 'mdpx 1' header, found {words[0]!r}", ln, raw, 0)
    if len(words) != 2 or not _is_int(words[1]):
        raise _error("malformed header, expected 'mdpx 1'", ln, raw, 0)
    if int(words[1]) != FORMAT_VERSION:
        raise _error(f"unsupported format version {words[1]}", ln, raw, 1)

    # A state reference outside a branch is (token, line, word index).
    num_states: int | None = None
    initial_token: tuple[str, int, int] | None = None
    goal_tokens: list[tuple[str, int, int]] = []
    labels: dict[str, int] = {}
    # Each distinct number token by its role, as a probability and as a reward.
    probability_numbers: dict[str, tuple] = {}
    reward_numbers: dict[str, tuple] = {}
    # One entry per branch, in document order.
    probabilities: list[tuple] = []
    rewards: list[tuple] = []
    target_tokens: list[str] = []
    branch_lines: list[int] = []
    # The index of each transition's first branch and each state's first transition.
    transition_starts: list[int] = []
    transition_labels: list[str | None] = []
    state_starts: list[int] = []
    in_transition = False

    for ln, raw in lines:
        words = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not words:
            continue
        keyword = words[0]
        if keyword == "branch":
            if not in_transition:
                raise _error("'branch' outside a transition block", ln, raw, 0)
            if len(words) != 4:
                raise _error("'branch' expects <probability> <reward> <target>", ln, raw, 0)
            _, pt, rt, tt = words
            p = probability_numbers.get(pt)
            if p is None:
                p = probability_numbers[pt] = _parse_number(pt, ln, raw, 1)
            r = reward_numbers.get(rt)
            if r is None:
                r = reward_numbers[rt] = _parse_number(rt, ln, raw, 2)
            probabilities.append(p)
            rewards.append(r)
            target_tokens.append(tt)
            branch_lines.append(ln)
        elif keyword == "transition":
            if not state_starts:
                raise _error("'transition' outside a state block", ln, raw, 0)
            if len(words) > 2:
                raise _error("too many tokens on 'transition' line", ln, raw, 0)
            transition_starts.append(len(target_tokens))
            transition_labels.append(words[1] if len(words) == 2 else None)
            in_transition = True
        elif keyword == "state":
            if num_states is None:
                raise _error("'state' before 'states' count", ln, raw, 0)
            if len(words) < 2 or not _is_int(words[1]):
                raise _error("'state' expects an integer id", ln, raw, 0)
            sid = int(words[1])
            if sid != len(state_starts):
                raise _error(
                    f"state ids must appear in declaration order; expected {len(state_starts)}, found {sid}",
                    ln, raw, 1)
            if sid >= num_states:
                raise _error(f"state id {sid} exceeds declared count {num_states}", ln, raw, 1)
            if len(words) > 3:
                raise _error("too many tokens on 'state' line", ln, raw, 0)
            if len(words) == 3:
                label = words[2]
                if _is_int(label):
                    raise _error(f"state label {label!r} must not be an integer", ln, raw, 2)
                if label in labels:
                    raise _error(f"duplicate state label {label!r}", ln, raw, 2)
                labels[label] = sid
            state_starts.append(len(transition_starts))
            in_transition = False
        elif keyword == "states":
            if num_states is not None:
                raise _error("duplicate 'states' line", ln, raw, 0)
            if len(words) != 2 or not _is_int(words[1]) or int(words[1]) <= 0:
                raise _error("'states' expects one positive integer", ln, raw, 0)
            num_states = int(words[1])
        elif keyword == "initial":
            if initial_token is not None:
                raise _error("duplicate 'initial' line", ln, raw, 0)
            if len(words) != 2:
                raise _error("'initial' expects one id or label", ln, raw, 0)
            initial_token = (words[1], ln, 1)
        elif keyword == "goal":
            if len(words) < 2:
                raise _error("'goal' expects at least one id or label", ln, raw, 0)
            goal_tokens.extend((t, ln, i) for i, t in enumerate(words[1:], start=1))
        else:
            raise _error(f"unknown keyword {keyword!r}", ln, raw, 0)

    if num_states is None:
        raise ParseError("missing 'states' line")
    if len(state_starts) != num_states:
        raise ParseError(f"declared {num_states} states but found {len(state_starts)} state blocks")
    if initial_token is None:
        raise ParseError("missing 'initial' line")

    # Labels are never integers, so they cannot shadow a canonical id.
    targets = {str(s): s for s in range(num_states)}
    targets.update(labels)

    def resolve(token: str, ln: int, index: int) -> int:
        if token in targets:
            return targets[token]
        if not _is_int(token):
            message = f"dangling target: unknown state label {token!r}"
        elif not 0 <= int(token) < num_states:
            message = f"state id {int(token)} out of range"
        else:
            sid = targets[token] = int(token)
            return sid
        raise _error(message, ln, text.splitlines()[ln - 1], index)

    def checked() -> list[int]:
        """Every branch's target id, with every number checked and every
        target resolved, raising the first error in branch order."""
        out = []
        for ln, p, r, tt in zip(branch_lines, probabilities, rewards, target_tokens):
            for value, index in ((p, 1), (r, 2)):
                if len(value) == 1:
                    raise _error(f"number {value[0]!r} outside the binary64 range",
                                 ln, text.splitlines()[ln - 1], index)
            out.append(resolve(tt, ln, 3))
        return out

    # Records are built with tuple.__new__, which skips the named tuples'
    # Python-level constructors; an out-of-range number, (token,), has no
    # second item.  One stream makes the Branches in document order, each
    # transition takes its next `size` of them and each state its next
    # transitions.  No container of all branches or all transitions is built:
    # such blocks, freed after every parse, fragment the C heap of a
    # long-running process, whose resident size then grows with every parse.
    new = tuple.__new__
    first, second = itemgetter(0), itemgetter(1)
    transition_ends = transition_starts[1:]
    transition_ends.append(len(target_tokens))
    state_ends = state_starts[1:]
    state_ends.append(len(transition_starts))

    def build(target_ids: Iterable[int]) -> tuple[tuple[Transition, ...], ...]:
        branches = map(new, repeat(Branch), zip(
            map(first, probabilities), map(first, rewards), target_ids,
            map(second, probabilities), map(second, rewards)))
        sizes = map(sub, transition_ends, transition_starts)
        transitions = map(new, repeat(Transition), zip(
            map(tuple, map(islice, repeat(branches), sizes)), transition_labels))
        counts = map(sub, state_ends, state_starts)
        return tuple(map(tuple, map(islice, repeat(transitions), counts)))

    try:
        transitions = build(map(targets.__getitem__, target_tokens))
    except (KeyError, IndexError):
        transitions = build(checked())
    model = Mdp(num_states, resolve(*initial_token), transitions)

    # Every number is in range here, or the build would have raised.  Once
    # the first two tests hold, no state or transition is empty.
    probabilities_by_transition = map(map, repeat(first),
                                      map(first, chain.from_iterable(transitions)))
    well_formed = (all(map(lt, state_starts, state_ends))
                   and all(map(lt, transition_starts, transition_ends))
                   and all(0.0 < p <= 1.0 for p, _ in probability_numbers.values())
                   and all(r >= 0.0 for r, _ in reward_numbers.values())
                   and max(map(abs, map(sub, map(fsum, probabilities_by_transition), repeat(1.0))))
                   <= PROBABILITY_SUM_TOLERANCE)
    if not well_formed:
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
    # Denominators of the form 2^a * 5^b have a finite decimal expansion, of
    # k = max(a, b) places: each step divides out one 2 and one 5, where present.
    d, k = den, 0
    while d % 2 == 0 or d % 5 == 0:
        d //= gcd(d, 10)
        k += 1
    if d == 1:
        digits = str(abs(num) * 10 ** k // den)  # its last digit is not 0 when k > 0
        if len(digits.rstrip("0")) <= 17:
            body = digits.rjust(k + 1, "0")
            return ("-" if num < 0 else "") + (body[:-k] + "." + body[-k:] if k else body)
    return f"{num}/{den}"


def write_explicit(doc: ModelDocument) -> str:
    """Serialize a document so that parse_explicit(write_explicit(doc)) is structurally equal.

    Raises ModelError, naming the state (and transition), for a state's second
    label, a label that is not a string of one word free of `#`, an integer-like
    state label (`_is_int`), a label of no state, an initial state or a goal
    that is no int id of a state, or an empty goal declaration (read back as
    none).  Each number is formatted once, keyed by float and exact value, as
    one float can have two texts (1/3, 0.33333333333333331); a Fraction key
    would hash slowly."""
    model = doc.model
    name_of = {sid: name for name, sid in doc.named_states.items()}
    for name, sid in doc.named_states.items():
        if (type(name) is not str or name_of[sid] != name or name.split() != [name]
                or "#" in name or _is_int(name) or sid not in model.states):
            raise ModelError(f"state {sid}: cannot write label {name!r}")
    goals = doc.declared_goals
    if goals is not None and not goals:
        raise ModelError("cannot write an empty goal declaration")
    for role, sid in [("initial", model.initial), *(("goal", g) for g in goals or ())]:
        if type(sid) is not int or sid not in model.states:  # "1.0" would read as a label
            raise ModelError(f"cannot write {role} state {sid!r}: no such state")
    texts: dict[tuple[float, int, int], str] = {}
    out = [f"mdpx {FORMAT_VERSION}", f"states {model.num_states}",
           f"initial {name_of.get(model.initial, model.initial)}"]
    for s in model.states:
        out.append(f"state {s} {name_of[s]}" if s in name_of else f"state {s}")
        for i, t in enumerate(model.transitions[s]):
            if t.label is not None and (type(t.label) is not str or t.label.split() != [t.label]
                                        or "#" in t.label):
                raise ModelError(f"state {s}, transition {i}: cannot write label {t.label!r}")
            out.append("  transition" if t.label is None else f"  transition {t.label}")
            for p, r, target, p_exact, r_exact in t.branches:
                key = (p, p_exact.numerator, p_exact.denominator)
                p_text = texts.get(key) or texts.setdefault(key, _format_number(p_exact, p))
                key = (r, r_exact.numerator, r_exact.denominator)
                r_text = texts.get(key) or texts.setdefault(key, _format_number(r_exact, r))
                out.append(f"    branch {p_text} {r_text} {name_of.get(target, target)}")
    if goals:
        out.append("goal " + " ".join(str(name_of.get(g, g)) for g in sorted(goals)))
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
    zero-reward two-state cycle is injected instead.  Only `Random(seed).getrandbits`
    is read, and tests pin the output by digest.  The cyclic garbage collector
    is paused while the model is built.
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
        goals, draw, cycle = _random_draw(rng, n_states, max_transitions, max_branches,
                                          r_max > 0, goal_count, allow_end_components)
        if allow_end_components or _end_component_free(draw):
            doc = _random_model(goals, draw, cycle, r_max, r_min)
            assert not validate(doc.model)
            return doc
    raise GeneratorError("could not generate an end-component-free model with these bounds")


#: one drawn state: None for a goal, else per transition (weights, reward eighths, targets)
_Draw = list[tuple[list[int], list[int], list[int]]] | None


def _random_draw(rng: random.Random, n_states: int, max_transitions: int, max_branches: int,
                 rewarded: bool, goal_count: int, allow_ec: bool
                 ) -> tuple[list[int], list[_Draw], tuple[int, int] | None]:
    """The integers of one candidate model, drawn in a fixed order: the goals,
    then per state and transition the targets, their weights and, if
    `rewarded`, one reward eighth per branch; last, with `allow_ec`, the two
    states of the injected cycle (or None)."""
    bits = rng.getrandbits
    goals = sorted(_sample(bits, range(1, n_states), goal_count))
    goal_set = set(goals)
    draw: list[_Draw] = []
    for s in range(n_states):
        if s in goal_set:
            draw.append(None)
            continue
        ts = []
        for _ in range(1 + _below(bits, max_transitions)):
            targets = _sample(bits, range(n_states), 1 + _below(bits, min(max_branches, n_states)))
            weights = [1 + _below(bits, 9) for _ in targets]
            eighths = [_below(bits, 9) for _ in targets] if rewarded else [0] * len(targets)
            ts.append((weights, eighths, targets))
        draw.append(ts)
    cycle = None
    if allow_ec and n_states - goal_count >= 2:
        cycle = tuple(_sample(bits, [s for s in range(n_states) if s not in goal_set], 2))
    return goals, draw, cycle


def _below(getrandbits, n: int) -> int:
    """An int in [0, n), n > 0, drawn as `random.Random._randbelow_with_getrandbits` does."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample(getrandbits, population, k: int) -> list:
    """`random.Random.sample(population, k)` for 0 <= k <= len(population), drawing as it does."""
    n = len(population)
    result = []
    if n <= 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0):
        pool = list(population)
        for i in range(k):
            j = _below(getrandbits, n - i)
            result.append(pool[j])
            pool[j] = pool[n - i - 1]
        return result
    chosen: set[int] = set()
    for _ in range(k):
        j = _below(getrandbits, n)
        while j in chosen:
            j = _below(getrandbits, n)
        chosen.add(j)
        result.append(population[j])
    return result


def _random_model(goals: list[int], draw: list[_Draw], cycle: tuple[int, int] | None,
                  r_max: Fraction, r_min: Fraction) -> ModelDocument:
    """The exact model of one draw: weights normalised per transition, reward
    eighth k as r_min + (r_max - r_min) * k/8, goals absorbing, and the cycle's
    two states joined by zero-reward moves."""
    new = tuple.__new__
    rewards = [(float(r), r) for r in (r_min + (r_max - r_min) * k / 8 for k in range(9))]
    shares: dict[tuple[int, int], tuple[float, Fraction]] = {}  # w / total is correctly rounded
    transitions: list[tuple[Transition, ...]] = []
    for s, ts in enumerate(draw):
        if ts is None:
            transitions.append((transition([branch(1, 0, s)]),))
            continue
        choices = []
        for weights, eighths, targets in ts:
            total = sum(weights)
            branches = []
            for w, k, t in zip(weights, eighths, targets):
                p = shares.get((w, total)) or shares.setdefault(
                    (w, total), (w / total, Fraction(w, total)))
                branches.append(new(Branch, (p[0], rewards[k][0], t, p[1], rewards[k][1])))
            choices.append(new(Transition, (tuple(branches), None)))
        transitions.append(tuple(choices))
    if cycle is not None:
        a, b = cycle
        transitions[a] += (transition([branch(1, 0, b)]),)
        transitions[b] += (transition([branch(1, 0, a)]),)
    return _labelled(Mdp(len(draw), 0, tuple(transitions)), goals)


def _end_component_free(draw: list[_Draw]) -> bool:
    """True when every end component of the drawn structure is a fully
    absorbing single state (all of whose transitions are self-loops).

    Reward-stripped, only the targets matter, and the other states hold one
    exactly when some stay outside the every-choice attractor of the fully
    absorbing ones, from where a scheduler keeps away from those forever.
    """
    choices = [[[s]] if ts is None else [t[2] for t in ts] for s, ts in enumerate(draw)]
    pred: list[list[tuple[int, int]]] = [[] for _ in draw]
    for s, ts in enumerate(choices):
        for ti, targets in enumerate(ts):
            for t in targets:
                pred[t].append((s, ti))
    absorbing = [s for s, ts in enumerate(choices) if all(t == [s] for t in ts)]
    return len(attractor(choices, pred, absorbing, every_choice=True)) == len(draw)


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
