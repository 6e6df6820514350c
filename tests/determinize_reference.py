"""Definitional subset construction, kept apart from the library as a test oracle.

The accessible subsets are the least set that holds the image of every
nullary symbol and is closed under the lifted map ``core.sigma_bar`` of every
binary symbol.  This computes that set by plain repetition over state sets,
with no masks, numbering or tables; the tests compare the library's
determinized automaton with it by membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from ftakit import Fta, sigma_bar


@dataclass(frozen=True)
class SubsetAutomaton:
    subsets: frozenset[frozenset[int]]
    nullary: dict[str, frozenset[int]]
    binary: dict[tuple[str, frozenset[int], frozenset[int]], frozenset[int]]
    finals: frozenset[frozenset[int]]


def determinize_ref(fta: Fta) -> SubsetAutomaton:
    nullary = {a: sigma_bar(fta, a, ()) for a in fta.alphabet.nullary}
    subsets = set(nullary.values())
    while True:
        binary = {(b, p, q): sigma_bar(fta, b, (p, q))
                  for b in fta.alphabet.binary for p in subsets for q in subsets}
        grown = subsets | set(binary.values())
        if grown == subsets:
            break
        subsets = grown
    return SubsetAutomaton(
        subsets=frozenset(subsets),
        nullary=nullary,
        binary=binary,
        finals=frozenset(s for s in subsets if s & fta.finals),
    )
