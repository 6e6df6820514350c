"""Isomorphism of canonical automata, kept apart from the library as a test
oracle: two canonicalizations of one language must agree up to renaming.
"""

from __future__ import annotations

from ftakit.constructions import CanonicalFta


def isomorphic(a: CanonicalFta, b: CanonicalFta) -> bool:
    """Structural equality of two canonical automata up to state renaming.

    Deterministic accessible automata admit at most one candidate bijection,
    so a synchronized traversal from the nullary entries either builds it or
    proves none exists.
    """
    if a.alphabet != b.alphabet:
        return False
    if a.n_states != b.n_states or (a.sink is None) != (b.sink is None):
        return False
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []

    def match(p: int, q: int) -> bool:
        if p in fwd:
            return fwd[p] == q
        if q in bwd:
            return False
        if (p in a.finals) != (q in b.finals):
            return False
        fwd[p] = q
        bwd[q] = p
        pairs.append((p, q))
        return True

    for sym in a.alphabet.nullary:
        if not match(a.nullary[sym], b.nullary[sym]):
            return False
    k = 0
    while k < len(pairs):
        p, q = pairs[k]
        for sym in a.alphabet.binary:
            ta = a.binary[sym]
            tb = b.binary[sym]
            for r, s in pairs[: k + 1]:
                if not match(int(ta[p, r]), int(tb[q, s])):
                    return False
                if not match(int(ta[r, p]), int(tb[s, q])):
                    return False
        k += 1
    return len(fwd) == a.n_states
