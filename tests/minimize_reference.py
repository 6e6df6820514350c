"""Myhill-Nerode table filling and dead states, kept apart from the library
as test oracles.

Two states of a deterministic automaton are distinguished when exactly one
of them is final, or when some binary symbol, argument position and
co-argument carries them to a distinguished pair.  This marks pairs by plain
repetition over Python lists until no new pair is marked, with no hashing,
blocks or passes; the states left unmarked together are the classes of the
minimal automaton.

A state is alive when it is final, or when some binary symbol carries it, as
either argument beside any co-argument, to an alive state; every state of a
determinized automaton is accessible, so any co-argument fills a context.
The dead states, those left when nothing more comes alive, are found from
the tables alone, not from the source automaton.
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


def dead_states(dfta: Dfta) -> frozenset[int]:
    n = dfta.n_states
    tables = [table.tolist() for table in dfta.binary.values()]
    alive = [i in dfta.finals for i in range(n)]
    changed = True
    while changed:
        changed = False
        for t in tables:
            for p in range(n):
                for q in range(n):
                    if alive[t[p][q]] and not (alive[p] and alive[q]):
                        alive[p] = alive[q] = True
                        changed = True
    return frozenset(p for p in range(n) if not alive[p])
