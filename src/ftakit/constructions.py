"""Subset-construction determinization, trimness, and minimization.

The determinized automaton keeps only accessible subset states: construction
starts from the images of the nullary symbols and closes under the lifted
transition map over every pair of already-discovered subsets.  The empty
subset becomes an explicit sink state exactly when some combination produces
it.  Reported sizes always exclude that sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import Fta, RankedAlphabet, StateSet, Transition
from .errors import BudgetError, InputError

# Above this many source states the vectorized uint64 bit masks no longer fit;
# a plain-Python fallback handles the (rare, small-density) larger inputs.
_VECTOR_MAX_STATES = 64


@dataclass(frozen=True, eq=False)
class Dfta:
    """A deterministic automaton whose states are subsets of a source automaton.

    ``subsets[i]`` is a bit mask over ``source_states`` (bit k stands for
    ``source_states[k]``), listed in discovery order.  ``binary[sym][i, j]``
    is the successor index for symbol ``sym`` applied to subsets i and j; the
    table is total over the discovered subsets, so determinism holds by
    construction.
    """

    source_states: tuple[int, ...]
    alphabet: RankedAlphabet
    subsets: tuple[int, ...]
    nullary: Mapping[str, int]
    binary: Mapping[str, np.ndarray]
    finals: frozenset[int]
    sink: int | None

    @property
    def n_states(self) -> int:
        return len(self.subsets)

    @property
    def size(self) -> int:
        """Number of subset states excluding the sink."""
        return self.n_states - (1 if self.sink is not None else 0)

    def subset_members(self, i: int) -> tuple[int, ...]:
        """Original state identifiers contained in subset state ``i``."""
        mask = self.subsets[i]
        return tuple(q for k, q in enumerate(self.source_states) if (mask >> k) & 1)

    def to_fta(self) -> Fta:
        """Re-express the table as a plain automaton over subset indices.

        Materializes all |binary| * n_states**2 rules; meant for small
        instances (oracle tests, document output).
        """
        return _table_to_fta(self.alphabet, self.n_states, self.nullary,
                             self.binary, self.finals)


@dataclass(frozen=True, eq=False)
class CanonicalFta:
    """The minimal deterministic automaton for a language, up to isomorphism.

    States are partition-block identifiers, numbered in order of first
    appearance in the minimized table.  ``sink`` names the dead block (the
    one no context carries into acceptance) when the language has one.
    """

    alphabet: RankedAlphabet
    n_states: int
    nullary: Mapping[str, int]
    binary: Mapping[str, np.ndarray]
    finals: frozenset[int]
    sink: int | None

    @property
    def size(self) -> int:
        """Number of canonical states excluding the sink."""
        return self.n_states - (1 if self.sink is not None else 0)

    def to_fta(self) -> Fta:
        return _table_to_fta(self.alphabet, self.n_states, self.nullary,
                             self.binary, self.finals)


def _table_to_fta(alphabet, n_states, nullary, binary, finals) -> Fta:
    transitions = []
    for sym, target in nullary.items():
        transitions.append(Transition(sym, (), int(target)))
    for sym, table in binary.items():
        for i in range(n_states):
            for j in range(n_states):
                transitions.append(Transition(sym, (i, j), int(table[i, j])))
    return Fta(
        states=frozenset(range(n_states)),
        alphabet=alphabet,
        finals=frozenset(finals),
        transitions=frozenset(transitions),
    )


def _require_binary_alphabet(fta: Fta, what: str) -> None:
    if not fta.alphabet.is_binary:
        raise InputError(f"{what} supports ranks 0 and 2 only")


def determinize(fta: Fta, *, max_subsets: int | None = None) -> Dfta:
    """Accessible subset construction.

    Starts from the nullary images, then repeatedly applies every binary
    symbol to every ordered pair of discovered subsets until no new subset
    appears.  The result accepts exactly the language of ``fta``.

    ``max_subsets`` bounds the number of discovered subsets (the worst case
    is 2**n); exceeding it raises BudgetError.
    """
    _require_binary_alphabet(fta, "determinize")
    src = tuple(sorted(fta.states))
    pos = {q: k for k, q in enumerate(src)}
    n = len(src)
    fmask = 0
    for q in fta.finals:
        fmask |= 1 << pos[q]

    nullary_syms = fta.alphabet.nullary
    binary_syms = fta.alphabet.binary
    null_imgs = {a: 0 for a in nullary_syms}
    tgt: dict[str, list[list[int]]] = {
        s: [[0] * n for _ in range(n)] for s in binary_syms
    }
    for t in fta.transitions:
        if not t.args:
            null_imgs[t.symbol] |= 1 << pos[t.target]
        else:
            tgt[t.symbol][pos[t.args[0]]][pos[t.args[1]]] |= 1 << pos[t.target]

    masks: list[int] = []
    index: dict[int, int] = {}

    def intern(mask: int) -> int:
        i = index.get(mask)
        if i is None:
            i = len(masks)
            index[mask] = i
            masks.append(mask)
        return i

    nullary_ids = {a: intern(null_imgs[a]) for a in nullary_syms}
    rows: dict[str, list[np.ndarray]] = {s: [] for s in binary_syms}
    cols: dict[str, list[np.ndarray]] = {s: [] for s in binary_syms}

    vectorized = 0 < n <= _VECTOR_MAX_STATES
    if vectorized:
        tgt_np = {s: np.array(tgt[s], dtype=np.uint64) for s in binary_syms}
        member = np.zeros((max(16, 2 * len(masks)), n), dtype=bool)
        filled = 0

    i = 0
    while i < len(masks):
        mask_i = masks[i]
        bits_i = [k for k in range(n) if (mask_i >> k) & 1]
        if vectorized:
            if len(masks) > member.shape[0]:
                grown = np.zeros((2 * len(masks), n), dtype=bool)
                grown[:filled] = member[:filled]
                member = grown
            while filled < len(masks):
                m = masks[filled]
                member[filled] = [(m >> k) & 1 for k in range(n)]
                filled += 1
        for sym in binary_syms:
            if vectorized:
                if bits_i:
                    rowvec = np.bitwise_or.reduce(tgt_np[sym][bits_i, :], axis=0)
                    colvec = np.bitwise_or.reduce(tgt_np[sym][:, bits_i], axis=1)
                else:
                    rowvec = np.zeros(n, dtype=np.uint64)
                    colvec = rowvec
                known = member[: i + 1]
                row_res = np.bitwise_or.reduce(
                    np.where(known, rowvec[None, :], 0), axis=1
                )
                col_res = np.bitwise_or.reduce(
                    np.where(known, colvec[None, :], 0), axis=1
                )
                both = np.concatenate([row_res, col_res])
            else:
                table = tgt[sym]
                row_list = []
                col_list = []
                for j in range(i + 1):
                    bits_j = [k for k in range(n) if (masks[j] >> k) & 1]
                    row = 0
                    col = 0
                    for b1 in bits_i:
                        for b2 in bits_j:
                            row |= table[b1][b2]
                            col |= table[b2][b1]
                    row_list.append(row)
                    col_list.append(col)
                both = np.array(row_list + col_list, dtype=object)
            # Intern newly seen subsets in ascending mask order so discovery
            # order is deterministic and independent of the execution path.
            uniq, inverse = np.unique(both, return_inverse=True)
            ids = np.empty(len(uniq), dtype=np.int32)
            for k, mask in enumerate(uniq.tolist()):
                ids[k] = intern(int(mask))
            mapped = ids[inverse]
            rows[sym].append(mapped[: i + 1].astype(np.int32))
            cols[sym].append(mapped[i + 1 :].astype(np.int32))
        if max_subsets is not None and len(masks) > max_subsets:
            raise BudgetError(
                f"subset construction exceeded {max_subsets} states "
                f"(source n={n})"
            )
        i += 1

    n_sub = len(masks)
    binary_tables: dict[str, np.ndarray] = {}
    for sym in binary_syms:
        table = np.empty((n_sub, n_sub), dtype=np.int32)
        for k in range(n_sub):
            table[k, : k + 1] = rows[sym][k]
            table[: k + 1, k] = cols[sym][k]
        binary_tables[sym] = table

    finals = frozenset(k for k, m in enumerate(masks) if m & fmask)
    return Dfta(
        source_states=src,
        alphabet=fta.alphabet,
        subsets=tuple(masks),
        nullary=nullary_ids,
        binary=binary_tables,
        finals=finals,
        sink=index.get(0),
    )


def det_size(dfta: Dfta) -> int:
    """Number of accessible subset states, sink excluded."""
    return dfta.size


def reachable_mask(start: np.ndarray, a1: np.ndarray, a2: np.ndarray,
                   tg: np.ndarray) -> np.ndarray:
    """Least fixpoint of accessibility over state indices.

    ``start`` marks the targets of nullary rules and binary rule k reads
    ``a1[k], a2[k] -> tg[k]``.  Neither fixpoint modifies its arguments.
    """
    reach = start.copy()
    while True:
        fired = tg[reach[a1] & reach[a2]]
        if reach[fired].all():
            return reach
        reach[fired] = True


def coreachable_mask(start: np.ndarray, reach: np.ndarray, a1: np.ndarray,
                     a2: np.ndarray, tg: np.ndarray) -> np.ndarray:
    """Least fixpoint of co-accessibility from ``start``, over state indices.

    An argument of a rule joins when the rule's target has joined and the
    sibling argument is in ``reach`` (a context can only be filled with
    trees that actually evaluate somewhere).
    """
    core = start.copy()
    while True:
        useful = core[tg]
        added = np.concatenate((a1[useful & reach[a2]], a2[useful & reach[a1]]))
        if core[added].all():
            return core
        core[added] = True


def _fixpoints(fta: Fta, what: str, from_: Iterable[int] | None = None):
    """Reachable states, and states co-reachable from ``from_`` (default: the finals)."""
    _require_binary_alphabet(fta, what)
    ids = np.array(sorted(fta.states), dtype=np.int64)
    index = {q: k for k, q in enumerate(ids.tolist())}
    nullary = np.zeros(len(ids), dtype=bool)
    binary = []
    for t in fta.transitions:
        if t.args:
            binary.append((index[t.args[0]], index[t.args[1]], index[t.target]))
        else:
            nullary[index[t.target]] = True
    a1, a2, tg = np.array(binary, dtype=np.intp).reshape(-1, 3).T
    start = np.zeros(len(ids), dtype=bool)
    for q in fta.finals if from_ is None else from_:
        if q not in index:
            raise InputError(f"{what}: {q} is not a state of the automaton")
        start[index[q]] = True
    reach = reachable_mask(nullary, a1, a2, tg)
    core = coreachable_mask(start, reach, a1, a2, tg)
    return StateSet.from_iter(ids[reach].tolist()), StateSet.from_iter(ids[core].tolist())


def reachable(fta: Fta) -> StateSet:
    """States some ground tree can evaluate into (least fixpoint)."""
    return _fixpoints(fta, "reachable")[0]


def coreachable(fta: Fta, from_: StateSet | Iterable[int] | None = None) -> StateSet:
    """States some context can carry into ``from_`` (default: the finals).

    A state joins the fixpoint when a rule mentions it in an argument
    position, the rule's target is already co-reachable, and every sibling
    argument is reachable.  Every state in ``from_`` must be a state of
    ``fta``.
    """
    return _fixpoints(fta, "coreachable", from_)[1]


def is_trim(fta: Fta) -> bool:
    """True iff every state is both reachable and co-reachable."""
    reach, core = _fixpoints(fta, "is_trim")
    return reach == core == StateSet.from_iter(fta.states)


def trim(fta: Fta) -> Fta:
    """Restrict the automaton to its useful (reachable and co-reachable) states."""
    reach, core = _fixpoints(fta, "trim")
    keep = reach & core
    return Fta(
        states=frozenset(keep),
        alphabet=fta.alphabet,
        finals=frozenset(q for q in fta.finals if q in keep),
        transitions=frozenset(
            t for t in fta.transitions
            if t.target in keep and all(a in keep for a in t.args)
        ),
    )


def _refinement_weights(size: int) -> tuple[np.ndarray, np.ndarray]:
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0xF1A75EED)))
    w = gen.integers(1, 1 << 63, size=2 * size, dtype=np.uint64) | np.uint64(1)
    return w[:size], w[size:]


def _refine(blk: np.ndarray, succ_tables: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """One refinement pass: group states by (block, successor-block profile).

    Profiles are compared through a fixed 64-bit mixing hash first and then
    verified entry by entry inside each hash group, so the resulting
    partition is exact; the hash only saves the lexicographic sort over the
    full profile matrix.
    """
    n_states = len(blk)
    w_row, w_col = _refinement_weights(n_states)
    acc = blk.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    profiles = []
    for table in succ_tables:
        succ = blk[table]
        profiles.append(succ)
        succ64 = succ.astype(np.uint64)
        row_hash = (succ64 * w_row[None, :]).sum(axis=1, dtype=np.uint64)
        col_hash = (succ64 * w_col[:, None]).sum(axis=0, dtype=np.uint64)
        acc = acc * np.uint64(0xBF58476D1CE4E5B9) + row_hash
        acc = acc * np.uint64(0x94D049BB133111EB) + col_hash
    order = np.argsort(acc, kind="stable")
    sorted_acc = acc[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_acc[1:] != sorted_acc[:-1]))
    )
    new_blk = np.full(n_states, -1, dtype=np.int32)
    next_id = 0
    for g, a in enumerate(starts):
        b = starts[g + 1] if g + 1 < len(starts) else n_states
        members = np.sort(order[a:b])
        while members.size:
            ref = members[0]
            same = blk[members] == blk[ref]
            for succ in profiles:
                same &= (succ[members] == succ[ref]).all(axis=1)
                same &= (succ[:, members] == succ[:, ref][:, None]).all(axis=0)
            new_blk[members[same]] = next_id
            next_id += 1
            members = members[~same]
    return new_blk, next_id


def minimize(dfta: Dfta) -> CanonicalFta:
    """Partition refinement to the coarsest congruence, then quotient.

    The table of ``dfta`` is total over its accessible states (the sink is a
    state like any other when present), so refinement can work directly on
    the successor matrices: the initial partition separates final from
    non-final states, and a block splits while two of its members disagree,
    under some symbol, argument position, and concrete co-argument, on the
    successor's block.  The loop exits only after a pass without any split,
    which re-checks the fixpoint.
    """
    n_states = dfta.n_states
    binary_syms = dfta.alphabet.binary
    succ_tables = [dfta.binary[sym] for sym in binary_syms]
    is_final = np.zeros(n_states, dtype=bool)
    is_final[list(dfta.finals)] = True
    blk = is_final.astype(np.int32)
    n_blocks = len(np.unique(blk))
    while n_blocks < n_states:
        new_blk, new_count = _refine(blk, succ_tables)
        # new_blk refines blk (the old block is part of the profile), so an
        # equal block count means the partition is stable.
        if new_count == n_blocks:
            blk = new_blk
            break
        blk, n_blocks = new_blk, new_count

    # Relabel blocks in order of first appearance and pick representatives.
    relabel = {}
    reps: list[int] = []
    for s in range(n_states):
        b = int(blk[s])
        if b not in relabel:
            relabel[b] = len(reps)
            reps.append(s)
    blk = np.array([relabel[int(b)] for b in blk], dtype=np.int32)
    n_min = len(reps)

    nullary = {sym: int(blk[i]) for sym, i in dfta.nullary.items()}
    binary = {
        sym: blk[dfta.binary[sym][np.ix_(reps, reps)]] for sym in binary_syms
    }
    finals = frozenset(int(blk[f]) for f in dfta.finals)

    # The dead block, if any, is the unique block no context carries into
    # acceptance; it plays the sink role in the canonical automaton.
    alive = np.zeros(n_min, dtype=bool)
    alive[list(finals)] = True
    while True:
        before = int(alive.sum())
        for sym in binary_syms:
            succ_alive = alive[binary[sym]]
            alive |= succ_alive.any(axis=1)
            alive |= succ_alive.any(axis=0)
        if int(alive.sum()) == before:
            break
    dead = np.flatnonzero(~alive)
    assert len(dead) <= 1, "distinct dead states survived refinement"
    sink = int(dead[0]) if len(dead) else None

    return CanonicalFta(
        alphabet=dfta.alphabet,
        n_states=n_min,
        nullary=nullary,
        binary=binary,
        finals=finals,
        sink=sink,
    )


def canonical_size(fta: Fta, *, max_subsets: int | None = None) -> int:
    """Determinize, minimize, and count the canonical states (sink excluded)."""
    return minimize(determinize(fta, max_subsets=max_subsets)).size


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
