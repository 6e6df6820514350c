"""Exact language equality of a source automaton and a canonical one, kept
apart from the library as a test oracle.

Every ground tree evaluates to one pair (canonical state, source subset):
the canonical automaton is deterministic and complete, and the subset is the
tree's evaluation in the source under the lifted map ``core.sigma_bar``.
The pairs of the nullary symbols, closed under every binary symbol, are
exactly the pairs of all ground trees, so the two languages are equal iff
every pair is final on both sides or on neither.  This closes the pairs by a
worklist over Python sets and shares no code with the library's subset
construction.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from ftakit import Fta, sigma_bar
from ftakit.constructions import CanonicalFta


def _mask(states) -> int:
    """The int with bit q set for each state q in ``states``."""
    return reduce(or_, (1 << q for q in states), 0)


def _members(mask: int) -> tuple[int, ...]:
    """The states whose bits are set in ``mask``, ascending."""
    return tuple(q for q in range(mask.bit_length()) if mask >> q & 1)


def language_mismatch(fta: Fta, canonical: CanonicalFta) -> tuple[int, frozenset[int]] | None:
    """A pair (canonical state, source subset) of some ground tree that one
    automaton accepts and the other rejects, or None when the languages are
    equal."""
    binary = fta.alphabet.binary
    tables = {b: canonical.binary[b].tolist() for b in binary}
    # sigma_bar is a union over the members of its arguments: the image of
    # (S, T) joins the images of ({p}, T) over p in S, and each of those
    # joins the images of ({p}, {q}) over q in T.  Subsets are held as bits.
    single = {(b, p, q): _mask(sigma_bar(fta, b, ({p}, {q})))
              for b in binary for p in fta.states for q in fta.states}
    members: dict[int, tuple[int, ...]] = {}
    into: dict[int, dict[tuple[str, int], int]] = {}  # into[T][b, p]: image of ({p}, T)

    def image(b: str, s: int, t: int) -> int:
        return reduce(or_, (into[t][b, p] for p in members[s]), 0)

    finals = _mask(fta.finals)
    pairs: set[tuple[int, int]] = set()
    todo: list[tuple[int, int]] = []

    def add(c: int, s: int) -> bool:
        """Record a pair; False when it disagrees on acceptance."""
        if (c, s) in pairs:
            return True
        pairs.add((c, s))
        todo.append((c, s))
        if s not in members:
            members[s] = _members(s)
            into[s] = {(b, p): reduce(or_, (single[b, p, q] for q in members[s]), 0)
                       for b in binary for p in fta.states}
        return (c in canonical.finals) == bool(s & finals)

    # A wrong table can pair one subset with many canonical states, so the
    # first disagreeing pair ends the search before the pairs grow further.
    for a in fta.alphabet.nullary:
        new = (canonical.nullary[a], _mask(sigma_bar(fta, a, ())))
        if not add(*new):
            return new[0], frozenset(_members(new[1]))
    while todo:
        # Each pair meets every pair known when its turn comes, both ways
        # round; a pair found later meets it on its own turn.
        c, s = todo.pop()
        for d, t in list(pairs):
            for b in binary:
                for new in ((tables[b][c][d], image(b, s, t)),
                            (tables[b][d][c], image(b, t, s))):
                    if not add(*new):
                        return new[0], frozenset(_members(new[1]))
    return None
