"""Definitional trimness, kept apart from the library as a test oracle.

These are the plain least-fixpoint loops over rule sets, for any ranks: a
state is reachable when some rule whose arguments are all reachable targets
it, and co-reachable when some rule with a co-reachable target mentions it
in an argument position while every sibling argument is reachable.  The
library computes the same fixpoints over index arrays; the tests compare the
two.
"""

from __future__ import annotations

from ftakit import Fta


def reachable_ref(fta: Fta) -> frozenset[int]:
    reach: set[int] = set()
    changed = True
    while changed:
        changed = False
        for t in fta.transitions:
            if t.target not in reach and all(a in reach for a in t.args):
                reach.add(t.target)
                changed = True
    return frozenset(reach)


def coreachable_ref(fta: Fta) -> frozenset[int]:
    reach = reachable_ref(fta)
    core: set[int] = set(fta.finals)
    changed = True
    while changed:
        changed = False
        for t in fta.transitions:
            if t.target not in core:
                continue
            for i, q in enumerate(t.args):
                if q in core:
                    continue
                if all(s in reach for j, s in enumerate(t.args) if j != i):
                    core.add(q)
                    changed = True
    return frozenset(core)


def is_trim_ref(fta: Fta) -> bool:
    return reachable_ref(fta) == fta.states and coreachable_ref(fta) == fta.states


def trim_ref(fta: Fta) -> Fta:
    keep = reachable_ref(fta) & coreachable_ref(fta)
    return Fta(
        states=keep,
        alphabet=fta.alphabet,
        finals=frozenset(q for q in fta.finals if q in keep),
        transitions=frozenset(
            t for t in fta.transitions
            if t.target in keep and all(a in keep for a in t.args)
        ),
    )
