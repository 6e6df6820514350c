"""Subset-construction determinization, trimness, and minimization.

The determinized automaton keeps only accessible subset states: construction
starts from the images of the nullary symbols and closes under the lifted
transition map over every pair of already-discovered subsets.  The empty
subset becomes an explicit sink state exactly when some combination produces
it.  Reported sizes always exclude that sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import Fta, RankedAlphabet, Transition
from .errors import BudgetError, InputError

# Table entries one block of subset construction, refinement or quotienting
# computes or reads at a time, so that no temporary grows with the square of
# the state count.
_BLOCK_ENTRIES = 1 << 16
# Source states per lookup chunk: the members a subset has in one chunk
# select one of 2**_CHUNK precomputed unions of images.
_CHUNK = 6
# Co-argument states that minimize's sampled hash passes read, spread evenly
# over the states.  Only tables of more than 4 * _SAMPLE states take them:
# on smaller ones a sampled pass is not much cheaper than a full one.
_SAMPLE = 64
# Low mask bits that index determinize's table of known subsets: at most
# 2**20 int32 slots (4 MB).  Up to this many source states a slot stands for
# exactly one subset.
_SLOT_BITS = 20


@dataclass(frozen=True, eq=False)
class CanonicalFta:
    """A complete deterministic automaton as tables over states 0..n_states-1.

    ``binary[sym][i, j]`` is the successor of states i and j; the tables are
    total and read-only.  ``sink`` names the dead state (the one no context
    carries into acceptance) when there is one.  ``minimize`` numbers the
    minimal automaton's states in order of first appearance in its table.
    """

    alphabet: RankedAlphabet
    n_states: int
    nullary: Mapping[str, int]
    binary: Mapping[str, np.ndarray]
    finals: frozenset[int]
    sink: int | None

    @property
    def size(self) -> int:
        """Number of states excluding the sink."""
        return self.n_states - (1 if self.sink is not None else 0)

    def to_fta(self) -> Fta:
        """Re-express the table as a plain automaton over state indices.

        Materializes all |binary| * n_states**2 rules; meant for small
        instances (oracle tests, document output).
        """
        states = range(self.n_states)
        transitions = [Transition(sym, (), int(q)) for sym, q in self.nullary.items()]
        transitions += [Transition(sym, (i, j), int(table[i, j]))
                        for sym, table in self.binary.items()
                        for i in states for j in states]
        return Fta(states=frozenset(states), alphabet=self.alphabet,
                   finals=frozenset(self.finals), transitions=frozenset(transitions))


@dataclass(frozen=True, eq=False)
class Dfta(CanonicalFta):
    """The table that ``determinize`` builds: state i is a subset of a source
    automaton's states, and ``n_states`` is the number of subsets.

    ``subsets[i]`` is a bit mask over ``source_states`` (bit k stands for
    ``source_states[k]``), listed in discovery order.  The tables are total
    over the discovered subsets, so determinism holds by construction, and
    read-only, so ``minimize`` may share them.

    ``dead`` holds the subsets that no context carries into acceptance.  A
    context run on a subset gives the union of the source's runs from each
    of its members, and the sibling subtrees of a context evaluate to
    accessible subsets, which hold only reachable source states.  So a
    subset is dead exactly when it holds no source state that is
    co-reachable from the finals.  For a trim source ``dead`` is
    ``{sink}``, or empty when there is no sink.
    """

    source_states: tuple[int, ...]
    subsets: tuple[int, ...]
    dead: frozenset[int]

    # An entry of its own: bench/spans.py times each class's vars()["to_fta"].
    to_fta = CanonicalFta.to_fta

    def subset_members(self, i: int) -> tuple[int, ...]:
        """Original state identifiers contained in subset state ``i``."""
        mask = self.subsets[i]
        return tuple(q for k, q in enumerate(self.source_states) if (mask >> k) & 1)


def _dense_ranks(*keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of the tuples that equal-length key columns spell, in
    lexicographic order with ``keys[0]`` the most significant: equal tuples
    share a rank.  Also the number of distinct tuples."""
    # lexsort sorts even one key with its stable sort, several times slower
    # than argsort's default; equal keys share a rank in any order.
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for key in keys:
        ordered = key[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = first.cumsum() - 1
    return rank, int(first.sum())


def _rules(fta: Fta, what: str):
    """The sorted states, each state's position among them, and the nullary
    rules (symbol, target) and binary rules (symbol, left, right, target) as
    transposed arrays of positions, symbols numbered in alphabet order."""
    if not fta.alphabet.is_binary:
        raise InputError(f"{what} supports ranks 0 and 2 only")
    states = tuple(sorted(fta.states))
    pos = {q: k for k, q in enumerate(states)}
    nullary_syms, binary_syms = fta.alphabet.nullary, fta.alphabet.binary
    nullary = np.array([(nullary_syms.index(t.symbol), pos[t.target])
                        for t in fta.transitions if not t.args],
                       dtype=np.intp).reshape(-1, 2).T
    binary = np.array([(binary_syms.index(t.symbol), pos[t.args[0]],
                        pos[t.args[1]], pos[t.target])
                       for t in fta.transitions if t.args],
                      dtype=np.intp).reshape(-1, 4).T
    return states, pos, nullary, binary


def determinize(fta: Fta, *, max_subsets: int | None = None) -> Dfta:
    """Accessible subset construction.

    Starts from the nullary images, then repeatedly applies every binary
    symbol to every ordered pair of discovered subsets until no new subset
    appears.  The result accepts exactly the language of ``fta``.

    Subsets are numbered as if one step ran at a time: step i pairs subset
    i with every subset j <= i under each binary symbol in turn, and the
    subsets a step finds first are numbered in ascending mask order.  The
    steps below the current subset count run in blocks, each interned at
    once, which gives the same numbers.

    Interning reads a dense table first: a subset's slot is the low
    ``_SLOT_BITS`` bits of its mask, and holds the first known subset with
    those bits.  Up to ``_SLOT_BITS`` source states a filled slot is a hit;
    past that, a hit must also equal the slot's subset word for word.  Only
    the rows that miss are sorted, looked up by key and numbered.

    Interning never reads the tables, so each block keeps its ids as one
    strip per binary symbol until no new subset appears; then each table
    is allocated once, at its final size, and filled from its symbol's
    strips, which are freed as they are written.

    A subset is dead exactly when it holds no source state co-reachable
    from the finals (see ``Dfta``), which two fixpoints on n states find.

    ``max_subsets`` bounds the number of discovered subsets (the worst case
    is 2**n); exceeding it raises BudgetError, and a negative bound raises
    InputError.
    """
    src, pos, (null_s, null_tg), (s, a1, a2, tg) = _rules(fta, "determinize")
    if max_subsets is not None and max_subsets < 0:
        raise InputError(f"max_subsets must be at least 0, got {max_subsets}")
    n = len(src)
    # A subset is a row of uint64 words, word 0 the most significant, so rows
    # sort like the masks they spell; bit k stands for source state k.
    n_words = max(1, -(-n // 64))
    word = n_words - 1 - np.arange(n) // 64
    bit = np.left_shift(np.uint64(1), (np.arange(n) % 64).astype(np.uint64))
    # Source states padded to whole lookup chunks; padding is in no subset.
    n_chunks = max(1, -(-n // _CHUNK))
    width = n_chunks * _CHUNK

    nullary_syms = fta.alphabet.nullary
    binary_syms = fta.alphabet.binary
    n_syms = len(binary_syms)
    null_imgs = np.zeros((len(nullary_syms), n_words), dtype=np.uint64)
    np.bitwise_or.at(null_imgs, (null_s, word[null_tg]), bit[null_tg])
    # tgt[s, 0, p, q] is the image of s(p, q) and tgt[s, 1, q, p] is it again,
    # so the images over either argument position reduce along one axis.
    tgt = np.zeros((n_syms, 2, width, width, n_words), dtype=np.uint64)
    np.bitwise_or.at(tgt, (s, 0, a1, a2, word[tg]), bit[tg])
    np.bitwise_or.at(tgt, (s, 1, a2, a1, word[tg]), bit[tg])

    # index maps each known subset's key to its id, in id order.  slots[h]
    # is the id of the first subset whose mask ends in the bits h; a free
    # slot holds `empty`, which every id is below.
    index: dict[bytes, int] = {}
    verify = n > _SLOT_BITS
    slot_mask = np.uint64((1 << min(n, _SLOT_BITS)) - 1)
    empty = np.iinfo(np.int32).max
    slots = np.full(1 << min(n, _SLOT_BITS), empty, dtype=np.int32)
    # found[j] is subset j's row; bits[j, k] says whether source state k is
    # in subset j; offs[j, c] is the lookup entry that subset j's members in
    # chunk c select.
    found = np.zeros((16, n_words), dtype=np.uint64)
    bits = np.zeros((16, width), dtype=bool)
    offs = np.zeros((16, n_chunks), dtype=np.intp)
    chunk_weights = 1 << np.arange(_CHUNK)
    chunk_base = np.arange(n_chunks) << _CHUNK

    def slot_of(rows: np.ndarray) -> np.ndarray:
        return (rows[:, -1] & slot_mask).view(np.int64)

    def number(rows: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Subset ids of ``rows``, made by ``steps``, through the key index.

        Unseen subsets join ordered by the first step that makes them, then
        by mask, and claim their slots where those are free.
        """
        nonlocal found, bits, offs
        rank, n_uniq = _dense_ranks(*rows.T)
        uniq = np.empty((n_uniq, n_words), dtype=np.uint64)
        uniq[rank] = rows
        ukeys = uniq.astype(">u8").view(f"V{8 * n_words}").ravel().tolist()
        ids = list(map(index.get, ukeys))
        if None in ids:
            unseen = np.array([got is None for got in ids])
            at = np.flatnonzero(unseen[rank])
            first = np.full(len(ids), np.iinfo(np.int64).max)
            np.minimum.at(first, rank[at], steps[at])
            new = np.flatnonzero(unseen)
            new = new[np.argsort(first[new], kind="stable")]
            start = len(index)
            for u in new.tolist():
                ids[u] = index[ukeys[u]] = len(index)
            count = len(index)
            if count > len(bits):
                spare = 2 * count
                found = np.concatenate((found, np.zeros((spare, n_words), dtype=np.uint64)))
                bits = np.concatenate((bits, np.zeros((spare, width), dtype=bool)))
                offs = np.concatenate((offs, np.zeros((spare, n_chunks), dtype=np.intp)))
            found[start:count] = uniq[new]
            members = bits[start:count]
            members[:, :n] = (found[start:count][:, word] & bit) != 0
            offs[start:count] = (members.reshape(-1, n_chunks, _CHUNK)
                                 @ chunk_weights + chunk_base)
            # Ids only grow, so of the new subsets that share a free slot
            # the first claims it, and a claimed slot keeps its subset.
            np.minimum.at(slots, slot_of(found[start:count]),
                          np.arange(start, count, dtype=np.int32))
        return np.array(ids, dtype=np.int32)[rank]

    def intern(rows: np.ndarray, step_of) -> np.ndarray:
        """Subset ids of ``rows``, an array of rows of words.

        A row whose slot names it is known.  The rest go through ``number``,
        with the steps that ``step_of`` gives for their flat positions.
        """
        shape = rows.shape[:-1]
        rows = rows.reshape(-1, n_words)
        ids = slots[slot_of(rows)]
        unknown = ids == empty
        if verify:
            # Past _SLOT_BITS states a slot is shared: check the whole row.
            unknown |= (found.take(ids, axis=0, mode="clip") != rows).any(axis=1)
        miss = np.flatnonzero(unknown)
        if len(miss):
            ids[miss] = number(rows[miss], step_of(miss))
        return ids.reshape(shape)

    # The nullary images come first, in symbol order.
    nullary_ids = dict(zip(nullary_syms, intern(null_imgs, lambda at: at).tolist()))
    # strips[k] holds symbol k's ids of each block [a, b), shape (b - a, 2, b).
    strips: list[list[np.ndarray]] = [[] for _ in binary_syms]
    a = 0
    while binary_syms and a < len(index):
        # Steps below hi pair only subsets below hi, which all exist already,
        # so they run before any of their images is interned.
        hi = len(index)
        while a < hi:
            b = min(hi, a + max(1, _BLOCK_ENTRIES // (2 * n_syms * hi)))
            # images[i, s, 0, q] is the image of s(S, q) for the block's
            # subset S = a + i, and images[i, s, 1, q] the image of s(q, S).
            images = np.bitwise_or.reduce(
                np.broadcast_to(tgt, (b - a, *tgt.shape)), axis=3,
                where=bits[a:b, None, None, :, None, None])
            # look[..., c, m, :] is the union of the images over the states
            # of chunk c that the bits of m select.
            look = np.zeros((b - a, n_syms, 2, n_chunks, 1 << _CHUNK, n_words),
                            dtype=np.uint64)
            parts = images.reshape(b - a, n_syms, 2, n_chunks, _CHUNK, 1, n_words)
            for k in range(_CHUNK):
                look[..., 1 << k : 2 << k, :] = (look[..., : 1 << k, :]
                                                 | parts[..., k, :, :])
            look = look.reshape(b - a, n_syms, 2, -1, n_words)
            # pair[i, s, 0, j] is the image of s(a + i, j), and pair[i, s, 1, j]
            # that of s(j, a + i), for every j < b: one lookup per chunk of j.
            pair = np.take(look, offs[:b, 0], axis=3)
            for c in range(1, n_chunks):
                pair |= np.take(look, offs[:b, c], axis=3)

            def step_of(at):
                # Pairs (i, j) and (j, i) belong to step max(i, j), symbol s.
                i, sym, _, j = np.unravel_index(at, pair.shape[:-1])
                return np.maximum(a + i, j) * n_syms + sym

            ids = intern(pair, step_of)
            for k, kept in enumerate(strips):
                kept.append(ids[:, k].copy())
            # The next block's temporaries then reuse this block's memory.
            del images, look, parts, pair, ids
            # The count only grows, so one check per block is enough.
            if max_subsets is not None and len(index) > max_subsets:
                raise BudgetError(f"subset construction exceeded {max_subsets} states "
                                  f"(source n={n})")
            a = b
    tables = []
    for kept in strips:
        table = np.empty((len(index), len(index)), dtype=np.int32)
        while kept:
            strip = kept.pop()
            a, b = strip.shape[2] - len(strip), strip.shape[2]
            table[a:b, :b] = strip[:, 0]
            table[:b, a:b] = strip[:, 1].T
        table.flags.writeable = False
        tables.append(table)

    masks = tuple(int.from_bytes(key, "big") for key in index)
    fmask = sum(1 << pos[q] for q in fta.finals)
    _, core = _trim_fixpoints(n, null_tg, a1, a2, tg, [pos[q] for q in fta.finals])
    live = sum(1 << k for k in np.flatnonzero(core).tolist())
    return Dfta(
        alphabet=fta.alphabet,
        n_states=len(masks),
        nullary=nullary_ids,
        binary=dict(zip(binary_syms, tables)),
        finals=frozenset(k for k, m in enumerate(masks) if m & fmask),
        sink=index.get(bytes(8 * n_words)),
        source_states=src,
        subsets=masks,
        dead=frozenset(k for k, m in enumerate(masks) if not m & live),
    )


def _trim_fixpoints(n: int, null_tg: np.ndarray, a1: np.ndarray, a2: np.ndarray,
                    tg: np.ndarray, finals) -> tuple[np.ndarray, np.ndarray]:
    """Reachable and co-reachable masks over n state positions, from a rule
    list as ``_rules`` gives it: nullary targets ``null_tg``, binary rule k
    reading ``a1[k], a2[k] -> tg[k]``, and the positions of the finals.

    An argument of a rule is co-reachable when the rule's target is and the
    sibling argument is reachable (a context can only be filled with trees
    that actually evaluate somewhere).
    """
    reach = np.zeros(n, dtype=bool)
    reach[null_tg] = True
    while True:
        fired = tg[reach[a1] & reach[a2]]
        if reach[fired].all():
            break
        reach[fired] = True
    core = np.zeros(n, dtype=bool)
    core[finals] = True
    while True:
        useful = core[tg]
        added = np.concatenate((a1[useful & reach[a2]], a2[useful & reach[a1]]))
        if core[added].all():
            return reach, core
        core[added] = True


def _fixpoints(fta: Fta, what: str):
    """Reachable states, and states co-reachable from the finals."""
    states, pos, (_, null_tg), (_, a1, a2, tg) = _rules(fta, what)
    finals = [pos[q] for q in fta.finals]
    reach, core = _trim_fixpoints(len(states), null_tg, a1, a2, tg, finals)
    ids = np.array(states, dtype=np.int64)
    return frozenset(ids[reach].tolist()), frozenset(ids[core].tolist())


def reachable(fta: Fta) -> frozenset[int]:
    """States some ground tree can evaluate into (least fixpoint)."""
    return _fixpoints(fta, "reachable")[0]


def coreachable(fta: Fta) -> frozenset[int]:
    """States some context can carry into a final state.

    A state joins the fixpoint when a rule mentions it in an argument
    position, the rule's target is already co-reachable, and every sibling
    argument is reachable.
    """
    return _fixpoints(fta, "coreachable")[1]


def is_trim(fta: Fta) -> bool:
    """True iff every state is both reachable and co-reachable."""
    reach, core = _fixpoints(fta, "is_trim")
    return reach == core == fta.states


def trim(fta: Fta) -> Fta:
    """Restrict the automaton to its useful (reachable and co-reachable) states."""
    reach, core = _fixpoints(fta, "trim")
    keep = reach & core
    return Fta(
        states=keep,
        alphabet=fta.alphabet,
        finals=fta.finals & keep,
        transitions=frozenset(t for t in fta.transitions
                              if keep.issuperset((*t.args, t.target))),
    )


_weights = np.empty((2, 0), dtype=np.uint64)


def _refinement_weights(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column weights of ``minimize``'s profile hash: read-only
    slices of one draw per process, redrawn only for a larger size.  They
    are the even and odd draws of one stream, the same at every size."""
    global _weights
    if size > _weights.shape[1]:
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0xF1A75EED)))
        w = gen.integers(1, 1 << 63, size=(max(size, 2 * _weights.shape[1]), 2),
                         dtype=np.uint64)
        _weights = (w | np.uint64(1)).T.copy()
        _weights.flags.writeable = False
    return _weights[0, :size], _weights[1, :size]


def _block_rows(n_states: int) -> int:
    return max(1, _BLOCK_ENTRIES // max(1, n_states))


def _same_profile(blk: np.ndarray, succ_tables: list[np.ndarray],
                  states: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Whether each state agrees with its reference state in its block on
    the block of every successor, as either argument, under every symbol."""
    same = np.ones(len(states), dtype=bool)
    step = _block_rows(len(blk))
    for table in succ_tables:
        # As first argument: whole rows, a block of states at a time.
        for a in range(0, len(states), step):
            s, r = states[a : a + step], refs[a : a + step]
            same[a : a + step] &= (blk[table[s]] == blk[table[r]]).all(axis=1)
        # As second argument: every state's column, a block of rows at a time
        # (one pass over the table instead of one per block of states).
        for a in range(0, len(blk), step):
            succ = np.take(blk, table[a : a + step])
            same &= (np.take(succ, states, axis=1)
                     == np.take(succ, refs, axis=1)).all(axis=0)
    return same


def _profile_hashes(blk: np.ndarray, succ_tables: list[np.ndarray],
                    w_row: np.ndarray, w_col: np.ndarray,
                    sample: np.ndarray | None = None) -> np.ndarray:
    """A 64-bit mixing hash of every state's successor-block profile, as
    either argument under every symbol, summed over blocks of table rows.
    Equal profiles give equal hashes.  With ``sample``, the profile only
    covers those co-argument states: the row part sums over their columns,
    the column part over their rows, with their weights."""
    n_states = len(blk)
    blk64 = blk.astype(np.uint64)
    acc = np.zeros(n_states, dtype=np.uint64)
    step = _block_rows(n_states)
    for table in succ_tables:
        row_hash = np.empty(n_states, dtype=np.uint64)
        col_hash = np.zeros(n_states, dtype=np.uint64)
        if sample is None:
            for a in range(0, n_states, step):
                succ = np.take(blk64, table[a : a + step])
                row_hash[a : a + step] = succ @ w_row
                col_hash += w_col[a : a + step] @ succ
        else:
            w_part, rows = w_row[sample], _block_rows(len(sample))
            for a in range(0, n_states, rows):
                succ = np.take(blk64, table[a : a + rows, sample])
                row_hash[a : a + rows] = succ @ w_part
            for a in range(0, len(sample), step):
                part = sample[a : a + step]
                col_hash += w_col[part] @ np.take(blk64, table[part])
        acc = acc * np.uint64(0xBF58476D1CE4E5B9) + row_hash
        acc = acc * np.uint64(0x94D049BB133111EB) + col_hash
    return acc


def _refine(blk: np.ndarray, acc: np.ndarray) -> tuple[np.ndarray, int]:
    """One hash pass: group states by the exact pair (block, profile hash).

    The new partition refines ``blk`` by construction.  Since equal profiles
    hash alike, states that are equivalent never separate; a hash collision
    can only leave a block too coarse, which ``minimize``'s exact check catches.
    """
    new_blk, count = _dense_ranks(blk, acc)
    return new_blk.astype(np.int32), count


def minimize(dfta: Dfta) -> CanonicalFta:
    """Partition refinement to the coarsest congruence, then quotient.

    The table of ``dfta`` is total over its accessible states (the sink is a
    state like any other when present), so refinement can work directly on
    the successor matrices: the initial partition separates final from
    non-final states, and a block splits while two of its members disagree,
    under some symbol, argument position, and concrete co-argument, on the
    successor's block.

    Refinement passes compare profiles through a 64-bit hash only.  On more
    than 4 * ``_SAMPLE`` states the first passes are sampled: a profile then
    covers only ``_SAMPLE`` co-argument states spread over the table, so a
    pass reads 2 * ``_SAMPLE`` rows' worth of each table.  Every partition
    met during refinement is coarser than the coarsest congruence, so
    equivalent states agree on every co-argument and no sampled pass
    separates them.  Once a sampled pass splits nothing, passes over whole
    tables follow.  Once one of those splits nothing, one exact check
    compares each block's members with its first state, the one the
    quotient keeps: if all agree, the partition is a congruence, and since
    no pass separates equivalent states it is the coarsest one.  A hash
    collision leaves a member that disagrees; its block splits off the
    members that disagree, and the passes go on.  A partition into
    singletons needs no check.  When nothing merges, the quotient is the
    input, and shares its read-only tables.

    Refinement and the quotient read the tables in blocks of rows, so they
    hold no array of |states|**2 entries besides the input and output tables.

    The sink is the block of ``dfta.dead``, the subsets that hold no
    co-reachable source state; no table is read after the quotient.
    """
    if not isinstance(dfta, Dfta):
        raise InputError("minimize takes the Dfta that determinize returns, "
                         f"not a {type(dfta).__name__}")
    n_states = dfta.n_states
    binary_syms = dfta.alphabet.binary
    succ_tables = [dfta.binary[sym] for sym in binary_syms]
    weights = _refinement_weights(n_states)
    is_final = np.zeros(n_states, dtype=bool)
    is_final[list(dfta.finals)] = True
    # Through _refine, so block ids are dense even if every state is final.
    blk, n_blocks = _refine(np.zeros(n_states, dtype=np.int32), is_final)
    states = np.arange(n_states)
    sample = (np.linspace(0, n_states - 1, _SAMPLE).astype(np.intp)
              if n_states > 4 * _SAMPLE else None)
    while True:
        # Each block's first state, the one the quotient keeps.
        first = np.full(n_blocks, n_states)
        np.minimum.at(first, blk, states)
        if n_blocks == n_states:
            break
        new_blk, new_count = _refine(blk, _profile_hashes(blk, succ_tables, *weights, sample))
        # The new partition refines blk, so an equal block count means the
        # partition did not change: pass over whole tables, then check exactly.
        if new_count == n_blocks:
            if sample is not None:
                sample = None
                continue
            ref = first[blk]
            rest = np.flatnonzero(ref != states)
            same = np.ones(n_states, dtype=bool)
            same[rest] = _same_profile(blk, succ_tables, rest, ref[rest])
            if same.all():
                break
            new_blk, new_count = _refine(blk, same)
        blk, n_blocks = new_blk, new_count

    # Number blocks in the order of their first states.
    relabel, _ = _dense_ranks(first)
    blk = relabel.astype(np.int32)[blk]
    reps = np.sort(first)
    n_min = len(reps)

    nullary = {sym: int(blk[i]) for sym, i in dfta.nullary.items()}
    binary = {}
    step = _block_rows(n_states)
    for sym, table in zip(binary_syms, succ_tables):
        if n_min == n_states:
            # blk and reps are the identity.
            binary[sym] = table
            continue
        out = np.empty((n_min, n_min), dtype=np.int32)
        for a in range(0, n_min, step):
            np.take(blk, np.take(table[reps[a : a + step]], reps, axis=1),
                    out=out[a : a + step])
        out.flags.writeable = False
        binary[sym] = out
    finals = frozenset(int(blk[f]) for f in dfta.finals)
    # Dead states all have the empty residual language, so a congruence
    # that separates two of them is not the coarsest one.
    dead = blk[list(dfta.dead)]
    if _dense_ranks(dead)[1] > 1:
        raise RuntimeError("distinct dead states survived refinement")
    sink = int(dead[0]) if len(dead) else None

    return CanonicalFta(
        alphabet=dfta.alphabet,
        n_states=n_min,
        nullary=nullary,
        binary=binary,
        finals=finals,
        sink=sink,
    )


def canonical_size(fta: Fta) -> int:
    """Determinize, minimize, and count the canonical states (sink excluded)."""
    return minimize(determinize(fta)).size
