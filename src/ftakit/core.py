"""Ranked alphabets, trees, and nondeterministic bottom-up tree automata.

An automaton runs bottom-up: a nullary symbol evaluates to the set of states
its transitions can produce, and an inner node combines the state sets of its
children through the lifted transition map (``sigma_bar``).  A tree is
accepted when its evaluation meets a final state.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Collection, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError

# The number of trees up to height h grows doubly exponentially; the guard
# refuses an enumeration whose tree count, worked out first, passes this bound.
MAX_ENUM_TREES = 1 << 21

# The library numbers states from 0 or 1 up to the state count, so an id
# past this bound is taken for a malformed input (a typo in a file) and
# rejected.
MAX_STATE_ID = 1 << 20


@dataclass(frozen=True)
class RankedAlphabet:
    """A finite symbol set where every symbol carries a fixed arity (rank)."""

    symbols: frozenset[tuple[str, int]]
    _ranks: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        symbols = frozenset(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        ranks: dict[str, int] = {}
        for name, rank in sorted(symbols):
            if not name:
                raise InputError("symbol names must be nonempty")
            if not isinstance(rank, int) or rank < 0:
                raise InputError(f"rank of {name!r} must be a nonnegative integer")
            if name in ranks:
                raise InputError(f"duplicate symbol name {name!r}")
            ranks[name] = rank
        if not any(rank == 0 for rank in ranks.values()):
            raise InputError("alphabet needs at least one nullary symbol")
        object.__setattr__(self, "_ranks", ranks)

    @classmethod
    def of(cls, **ranks: int) -> "RankedAlphabet":
        """Build an alphabet from keyword arguments, e.g. ``of(alpha=0, sigma=2)``."""
        return cls(frozenset(ranks.items()))

    def rank(self, name: str) -> int:
        try:
            return self._ranks[name]
        except KeyError:
            raise InputError(f"unknown symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._ranks

    def names(self) -> list[str]:
        """All symbol names, sorted."""
        return sorted(self._ranks)

    def by_rank(self, rank: int) -> list[str]:
        """Names of all symbols of the given rank, sorted."""
        return sorted(name for name, r in self._ranks.items() if r == rank)

    @property
    def nullary(self) -> list[str]:
        return self.by_rank(0)

    @property
    def binary(self) -> list[str]:
        return self.by_rank(2)

    @property
    def is_binary(self) -> bool:
        """True when every rank is 0 or 2."""
        return all(r in (0, 2) for r in self._ranks.values())


class Tree(NamedTuple):
    """A ground term: a symbol name over an ordered tuple of subtrees.

    Symbol arity is not known to the tree itself and is checked against an
    alphabet when the tree is evaluated.  A tree compares, orders and hashes
    as the plain tuple ``(label, children)``, like ``Transition``.
    """

    label: str
    children: tuple[Tree, ...] = ()

    @classmethod
    def of(cls, label: str, *children: Tree) -> Tree:
        return cls(label, children)

    def __str__(self) -> str:
        if not self.children:
            return self.label
        return f"{self.label}({','.join(str(c) for c in self.children)})"


class Transition(NamedTuple):
    """One rewrite rule ``symbol(args...) -> target``."""

    symbol: str
    args: tuple[int, ...]
    target: int


@dataclass(frozen=True)
class Fta:
    """A nondeterministic bottom-up tree automaton (states, alphabet, finals, rules).

    States are small nonnegative integers; the transition set never contains
    duplicates.  Instances are immutable and safe to share between workers.
    """

    states: frozenset[int]
    alphabet: RankedAlphabet
    finals: frozenset[int]
    transitions: frozenset[Transition]

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "transitions", frozenset(
            t if isinstance(t, Transition) else Transition(*t) for t in self.transitions
        ))
        for q in self.states:
            if not isinstance(q, int) or q < 0 or q > MAX_STATE_ID:
                raise InputError(f"state identifier {q!r} out of range")
        if not self.finals <= self.states:
            raise InputError("final states must be a subset of the states")
        for t in self.transitions:
            rank = self.alphabet.rank(t.symbol)
            if len(t.args) != rank:
                raise InputError(
                    f"transition {t.symbol}{t.args} has {len(t.args)} arguments, "
                    f"rank is {rank}"
                )
            for q in (*t.args, t.target):
                if q not in self.states:
                    raise InputError(f"transition mentions unknown state {q}")

    @property
    def n(self) -> int:
        return len(self.states)


def sigma_bar(fta: Fta, symbol: str, args: Sequence[Collection[int]]) -> frozenset[int]:
    """Lift the transition rules of ``symbol`` to sets of states.

    Returns the frozenset of the targets of the rules that fire when each
    argument position is filled with any member of its argument set.
    """
    rank = fta.alphabet.rank(symbol)
    if len(args) != rank:
        raise InputError(f"{symbol!r} has rank {rank}, got {len(args)} arguments")
    return frozenset(t.target for t in fta.transitions if t.symbol == symbol
                     and all(q in args[i] for i, q in enumerate(t.args)))


def evaluate(fta: Fta, tree: Tree) -> frozenset[int]:
    """Run the automaton bottom-up and return the set of states the tree reaches.

    Each node applies ``sigma_bar`` to its children's results; every node
    must be a ``Tree`` and its children a tuple, as ``Tree.of`` builds them.
    Pure function of its inputs.
    """
    if type(tree) is not Tree:
        raise InputError(f"node {tree!r} is a {type(tree).__name__}, not a Tree; "
                         "build it with Tree.of")
    rank = fta.alphabet.rank(tree.label)
    if type(tree.children) is not tuple:
        raise InputError(f"node {tree.label!r} has {type(tree.children).__name__} children, "
                         "not a tuple; build it with Tree.of")
    if len(tree.children) != rank:
        raise InputError(
            f"node {tree.label!r} has {len(tree.children)} children, rank is {rank}"
        )
    return sigma_bar(fta, tree.label, [evaluate(fta, child) for child in tree.children])


def accepts(fta: Fta, tree: Tree) -> bool:
    """True when the tree's evaluation meets a final state."""
    return not evaluate(fta, tree).isdisjoint(fta.finals)


# Rows of one group evaluated together are capped so that each boolean
# temporary, (rows, rules) or (rows, states), holds at most this many
# entries (or one row's worth).
_EVAL_CHUNK = 1 << 20


class _Enumeration(NamedTuple):
    """The trees of ``enumerate_trees`` with the positions that evaluate them.

    ``groups`` holds one ``(label, start, stop, kids)`` entry per height and
    symbol: the trees ``trees[start:stop]`` all carry ``label`` and have
    their children at ``kids[:, k]``, a read-only ``(rank, stop - start)``
    intp array of positions in ``trees``.
    """

    trees: tuple[Tree, ...]
    groups: tuple[tuple[str, int, int, np.ndarray], ...]


@functools.lru_cache(maxsize=1)
def _enumerate(alphabet: RankedAlphabet, max_height: int) -> _Enumeration:
    """The trees of ``enumerate_trees``, grouped by height and symbol.

    Only the last (alphabet, height) asked for is kept, so the cache holds
    one enumeration alive until another is asked for: up to ``MAX_ENUM_TREES``
    trees (about 1M for setting B at height 4).  The guards run before any
    tree is built, and what they raise is not cached.
    """
    if max_height < 0:
        raise InputError("max_height must be nonnegative")
    count = 0
    for _ in range(max_height + 1):
        count = sum(count**rank for _, rank in alphabet.symbols)
        if count > MAX_ENUM_TREES:
            raise ConfigError(f"enumerating trees up to height {max_height} needs at "
                              f"least {count} trees (guard {MAX_ENUM_TREES})")
    trees = [Tree(name) for name in alphabet.nullary]
    nullary_kids = np.empty((0, 1), dtype=np.intp)
    nullary_kids.flags.writeable = False
    groups = [(name, k, k + 1, nullary_kids) for k, name in enumerate(alphabet.nullary)]
    lo = 0  # position of the first tree of the level below
    for _ in range(max_height):
        hi = len(trees)
        below = tuple(trees)
        for name, rank in sorted(alphabet.symbols):
            if not rank:
                continue
            # Child positions in lexicographic order, keeping the combinations
            # with at least one child from the level below; the guard above
            # bounds the hi**rank combinations.
            combos = np.indices((hi,) * rank, dtype=np.intp).reshape(rank, -1)
            keep = combos.max(axis=0) >= lo
            kids = np.ascontiguousarray(combos[:, keep])
            kids.flags.writeable = False
            start = len(trees)
            trees.extend(map(Tree, itertools.repeat(name), itertools.compress(
                itertools.product(below, repeat=rank), keep.tolist())))
            groups.append((name, start, len(trees), kids))
        lo = hi
    return _Enumeration(tuple(trees), tuple(groups))


def enumerate_trees(alphabet: RankedAlphabet, max_height: int) -> list[Tree]:
    """All ground trees of height <= max_height, deterministically ordered.

    Trees are listed by height, then by symbol name, then by their children's
    positions in this list, in lexicographic order; children precede parents,
    and the output for height h is a prefix of the output for height h + 1.
    Heights whose tree count passes ``MAX_ENUM_TREES`` are refused.  The
    trees come from the one cached enumeration ``language_fingerprint`` reads;
    each call returns a fresh list, so changing it changes no later result.
    """
    return list(_enumerate(alphabet, max_height).trees)


def language_fingerprint(fta: Fta, max_height: int) -> frozenset[Tree]:
    """The accepted trees of height <= max_height (a finite language sample).

    The trees come from one cached enumeration (see ``enumerate_trees``) and
    are evaluated level by level into a boolean (trees, states) matrix, one
    height-and-symbol group at a time: a rule fires on a tree when every
    child reaches the rule's argument, and each target gathers its rules'
    hits.  A group is split into row chunks so that its (rows, rules) and
    (rows, states) temporaries hold at most ``_EVAL_CHUNK`` entries.  The result holds the
    cached ``Tree`` objects, so fingerprints at one height share them.
    """
    trees, groups = _enumerate(fta.alphabet, max_height)
    states = sorted(fta.states)
    pos = {q: k for k, q in enumerate(states)}
    by_symbol: dict[str, list[tuple[int, ...]]] = {}
    for t in fta.transitions:
        by_symbol.setdefault(t.symbol, []).append(
            (pos[t.target], *(pos[q] for q in t.args)))
    # Per symbol: argument positions (rank, rules) sorted by target, the
    # start of each target's run of rules, and the run's target position.
    rules = {}
    for symbol, rows in by_symbol.items():
        table = np.array(sorted(rows), dtype=np.intp)
        targets = table[:, 0]
        bounds = np.flatnonzero(np.r_[True, targets[1:] != targets[:-1]])
        rules[symbol] = (table[:, 1:].T, bounds, targets[bounds])
    reached = np.zeros((len(trees), len(states)), dtype=bool)
    for label, start, stop, kids in groups:
        if label not in rules:
            continue
        args, bounds, columns = rules[label]
        if not len(kids):
            reached[start:stop, columns] = True
            continue
        step = max(1, _EVAL_CHUNK // max(args.shape[1], len(states)))
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            sub = kids[:, lo - start:hi - start]
            hit = reached[sub[0]][:, args[0]]
            for i in range(1, len(kids)):
                hit &= reached[sub[i]][:, args[i]]
            reached[lo:hi, columns] = np.logical_or.reduceat(hit, bounds, axis=1)
    accepted = reached[:, [pos[q] for q in sorted(fta.finals)]].any(axis=1)
    return frozenset(itertools.compress(trees, accepted.tolist()))
