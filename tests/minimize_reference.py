"""Myhill-Nerode table filling, kept apart from the library as a test oracle.

Two states of a deterministic automaton are distinguished when exactly one
of them is final, or when some binary symbol, argument position and
co-argument carries them to a distinguished pair.  This marks pairs by plain
repetition over Python lists until no new pair is marked, with no hashing,
blocks or passes; the states left unmarked together are the classes of the
minimal automaton.
"""

from __future__ import annotations

from ftakit.constructions import Dfta


def equivalence_classes(dfta: Dfta) -> set[frozenset[int]]:
    n = dfta.n_states
    tables = [table.tolist() for table in dfta.binary.values()]
    final = [i in dfta.finals for i in range(n)]
    dist = [[final[p] != final[q] for q in range(n)] for p in range(n)]
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(p):
                if dist[p][q]:
                    continue
                if any(dist[t[p][r]][t[q][r]] or dist[t[r][p]][t[r][q]]
                       for t in tables for r in range(n)):
                    dist[p][q] = dist[q][p] = True
                    changed = True
    return {frozenset(q for q in range(n) if not dist[p][q]) for p in range(n)}
