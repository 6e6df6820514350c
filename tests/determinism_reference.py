"""Determinism of a rule set, kept apart from the library as a test oracle:
the subset construction's output, re-expressed as rules, must pass it.
"""

from __future__ import annotations

from ftakit import Fta


def is_deterministic(fta: Fta) -> bool:
    """True iff no two rules share the same symbol and argument sequence."""
    seen: set[tuple[str, tuple[int, ...]]] = set()
    for t in fta.transitions:
        lhs = (t.symbol, t.args)
        if lhs in seen:
            return False
        seen.add(lhs)
    return True
