"""Reading and writing automata as plain text documents.

The format is line-oriented UTF-8 with ``#`` comments:

    states 0 1 2 3
    finals 3
    alphabet alpha:0 sigma:2
    alpha -> 0
    sigma(1,3) -> 3

Header lines declare the states, the final states, and the ranked alphabet,
in that order.  Each remaining line is one rule; nullary rules are written
without parentheses.  ``parse_fta(format_fta(M))`` reproduces M exactly, and
the formatter orders everything canonically so equal automata format to
byte-identical documents.
"""

from __future__ import annotations

import re

from .core import Fta, RankedAlphabet, Transition
from .errors import InputError, ParseError

_RULE_RE = re.compile(
    r"^(?P<sym>\w+)\s*(?:\((?P<args>[^)]*)\))?\s*->\s*(?P<target>-?\d+)$"
)
_SYMBOL_RE = re.compile(r"^(?P<name>\w+):(?P<rank>\d+)$")


def _strip(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", lineno) from None


def parse_fta(text: str) -> Fta:
    """Parse a document into an automaton, or raise a positioned ParseError."""
    content = [
        (lineno, stripped)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (stripped := _strip(raw))
    ]
    if len(content) < 3:
        raise ParseError("expected states, finals and alphabet header lines")

    (states_line, finals_line, alphabet_line), rules = content[:3], content[3:]

    lineno, line = states_line
    fields = line.split()
    if fields[0] != "states":
        raise ParseError("first line must declare states", lineno)
    states = [_parse_int(tok, lineno, "state") for tok in fields[1:]]
    if len(set(states)) != len(states):
        raise ParseError("duplicate state identifier", lineno)
    state_set = frozenset(states)

    lineno, line = finals_line
    fields = line.split()
    if fields[0] != "finals":
        raise ParseError("second line must declare finals", lineno)
    finals = []
    for tok in fields[1:]:
        q = _parse_int(tok, lineno, "final state")
        if q not in state_set:
            raise ParseError(f"final state {q} is not declared", lineno)
        finals.append(q)

    lineno, line = alphabet_line
    fields = line.split()
    if fields[0] != "alphabet":
        raise ParseError("third line must declare the alphabet", lineno)
    pairs = []
    for tok in fields[1:]:
        m = _SYMBOL_RE.match(tok)
        if not m:
            raise ParseError(
                f"alphabet entries look like name:rank, got {tok!r}", lineno
            )
        pairs.append((m.group("name"), int(m.group("rank"))))
    if len(set(pairs)) != len(pairs):
        raise ParseError("duplicate alphabet entry", lineno)
    try:
        alphabet = RankedAlphabet(frozenset(pairs))
    except Exception as err:
        raise ParseError(str(err), lineno) from None

    transitions: set[Transition] = set()
    for lineno, line in rules:
        m = _RULE_RE.match(line)
        if not m:
            raise ParseError(f"cannot parse rule {line!r}", lineno)
        sym = m.group("sym")
        if sym not in alphabet:
            raise ParseError(f"unknown symbol {sym!r}", lineno)
        raw_args = m.group("args")
        if raw_args is None:
            args: tuple[int, ...] = ()
        elif not raw_args.strip():
            args = ()
        else:
            args = tuple(
                _parse_int(tok.strip(), lineno, "argument state")
                for tok in raw_args.split(",")
            )
        rank = alphabet.rank(sym)
        if len(args) != rank:
            raise ParseError(
                f"{sym!r} has rank {rank} but the rule has {len(args)} arguments",
                lineno,
            )
        target = _parse_int(m.group("target"), lineno, "target state")
        for q in (*args, target):
            if q not in state_set:
                raise ParseError(f"state {q} is not declared", lineno)
        rule = Transition(sym, args, target)
        if rule in transitions:
            raise ParseError(f"duplicate rule {line!r}", lineno)
        transitions.add(rule)

    try:
        return Fta(states=state_set, alphabet=alphabet, finals=frozenset(finals),
                   transitions=frozenset(transitions))
    except InputError as err:
        # Every rule and final names a declared state, so only a state
        # identifier out of range is left to reject.
        raise ParseError(str(err), states_line[0]) from None


def format_fta(fta: Fta, *, comments: list[str] | None = None) -> str:
    """Render an automaton in canonical order (round-trips through parse_fta)."""
    for name in fta.alphabet.names():
        if not re.fullmatch(r"\w+", name):
            raise ParseError(f"symbol {name!r} cannot be written in the document grammar")
    lines = []
    for comment in comments or []:
        lines.append(f"# {comment}")
    lines.append("states " + " ".join(str(q) for q in sorted(fta.states)))
    lines.append("finals" + "".join(f" {q}" for q in sorted(fta.finals)))
    lines.append(
        "alphabet "
        + " ".join(f"{name}:{fta.alphabet.rank(name)}" for name in fta.alphabet.names())
    )
    for t in sorted(fta.transitions):
        if t.args:
            lines.append(f"{t.symbol}({','.join(str(q) for q in t.args)}) -> {t.target}")
        else:
            lines.append(f"{t.symbol} -> {t.target}")
    return "\n".join(lines) + "\n"
