"""Random generation of tree automata by transition densities.

Each candidate transition is an independent Bernoulli draw: the n nullary
candidates per nullary symbol are included with probability d0, the n**3
binary candidates per binary symbol with probability d2, and each state is
final with probability final_prob.  One generated automaton consumes a fixed
block of uniform draws in a fixed order:

    finals for states 1..n,
    then nullary candidates by (symbol, q),
    then binary candidates by (symbol, q1, q2, q), all lexicographic
    (symbols sorted by name).

A stream is keyed by (master seed, derivation path, trial); attempt k of the
regenerate-until-trim loop uses the k-th block of its trial's stream.  The
same (config, seed, trial) therefore reproduces the same automaton bit for
bit on any platform, worker count, or batch size.

Every stream is numpy's ``PCG64(SeedSequence(words))`` over the key's
32-bit words.  ``Seed.stream`` opens one through numpy; ``trim_ratio``,
which opens one stream per trial, derives the PCG64 states of many trials
in one vectorized pass of the same published algorithms (SeedSequence's
hash mixing, NEP 19, and PCG64's seeding) and loads each into one reused
generator.  Tests pin both paths to numpy bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import Fta, RankedAlphabet, Transition
from .errors import ExhaustionError, InputError

# Upper bound on the uniform doubles per vectorized batch: at most one 0.5 MB
# buffer per call, which keeps peak memory apart from how the allocator reuses
# freed arrays and keeps a batch in cache while it is thresholded.  A block
# holds at least n**3 doubles, so the float32 rule matrices of a batch's
# candidate rows (4 bytes * n**3 each) take at most 0.25 MB.
_BATCH_DOUBLES = 62_500
# Trials whose stream states one vectorized pass derives, which bounds the
# pass's Python ints to ~3 MB however many trials a cell has.
_STATE_BLOCK = 1 << 14

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx, after
# M. E. O'Neill's seed_seq_fe) and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE, _XSHIFT = 4, 16
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


@dataclass(frozen=True)
class Seed:
    """A 64-bit master seed plus a derivation path of nonnegative integers.

    ``child(*key)`` extends the path; ``stream(*key)`` opens an independent,
    platform-stable random stream for the extended path.
    """

    master: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not (0 <= self.master < 1 << 64):
            raise InputError("master seed must fit in 64 unsigned bits")
        if any(k < 0 for k in self.path):
            raise InputError("seed path entries must be nonnegative")

    def child(self, *key: int) -> "Seed":
        return Seed(self.master, self.path + tuple(int(k) for k in key))

    def stream(self, *key: int) -> np.random.Generator:
        """The stream of ``SeedSequence((master, *path, *key))``.

        numpy turns a tuple of ints into entropy words one int at a time,
        a small array each, which is over a third of the cost of opening a
        stream; passing the words as one uint32 array gives every stream
        bit for bit.
        """
        entropy = np.array(_entropy_words(self.master, *self.path, *key), dtype=np.uint32)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _entropy_words(*keys: int) -> list[int]:
    """The SeedSequence entropy of a tuple of ints: each int's little-endian
    32-bit words, at least one per int."""
    words = []
    for k in keys:
        k = int(k)
        if k < 0:
            raise InputError(f"stream key {k} is negative")
        words.append(k & _MASK32)
        while k > _MASK32:
            k >>= 32
            words.append(k & _MASK32)
    return words


def _pcg64_states(entropy: np.ndarray) -> Iterator[dict]:
    """``PCG64(SeedSequence(row)).state`` for every row of a (rows, words) uint32 matrix.

    SeedSequence hashes the words into a pool of 4 uint32 words and draws
    PCG64's seed, two 128-bit ints, from the pool.  Its hash constant
    advances the same way for every row, so it is a Python int and only the
    pool is an array; uint32 array arithmetic wraps as the C code does.
    PCG64 then seeds itself in 128-bit ints with ``inc = 2 * initseq + 1``
    and ``state = (inc + initstate) * MULT + inc``.  All rows are hashed
    at the first ``next``; each state dict is built only when it is taken,
    so a block holds 4 ints per row, not its dicts.
    """
    rows, width = entropy.shape
    words = list(np.ascontiguousarray(entropy.T))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        result ^= result >> _XSHIFT
        return result

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(words[i] if i < width else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[src]))
    # generate_state(4, uint64): 8 uint32 words cycled from the pool, paired
    # little-endian into (initstate high, low, initseq high, low).
    hash_const = _INIT_B
    seed_words = np.empty((rows, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        seed_words[:, i] = value
    seeds = seed_words.astype("<u4").view("<u8").T.tolist()
    for s_hi, s_lo, i_hi, i_lo in zip(*seeds):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _stream_states(seed: Seed, start: int, stop: int) -> Iterator[dict]:
    """The PCG64 states of ``seed.stream(k)`` for k = start, ..., stop - 1.

    Keys are derived in blocks of at most ``_STATE_BLOCK`` that never cross
    a multiple of 2**32, so every row of a block has the same number of
    words and differs from the others only in the key's lowest word.
    """
    prefix = _entropy_words(seed.master, *seed.path)
    lo = start
    while lo < stop:
        hi = min(stop, lo + _STATE_BLOCK, (lo | _MASK32) + 1)
        head = prefix + _entropy_words(lo)
        entropy = np.empty((hi - lo, len(head)), dtype=np.uint32)
        entropy[:] = head
        low = lo & _MASK32
        entropy[:, len(prefix)] = np.arange(low, low + hi - lo, dtype=np.uint32)
        yield from _pcg64_states(entropy)
        lo = hi


def as_seed(seed: "Seed | int") -> Seed:
    return seed if isinstance(seed, Seed) else Seed(int(seed))


def float_key(x: float) -> int:
    """Stable integer key for a float (its IEEE-754 bit pattern)."""
    return int(np.float64(x).view(np.uint64))


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the random model over a binary ranked alphabet."""

    n: int
    alphabet: RankedAlphabet
    d2: float
    d0: float
    final_prob: float = 0.5
    max_attempts: int = 10_000

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be at least 1")
        if not self.alphabet.is_binary:
            raise InputError("generation supports ranks 0 and 2 only")
        for name, p in (("d2", self.d2), ("d0", self.d0),
                        ("final_prob", self.final_prob)):
            if not 0.0 <= p <= 1.0:
                raise InputError(f"{name} must lie in [0, 1], got {p}")
        if self.max_attempts < 1:
            raise InputError("max_attempts must be positive")

    @property
    def block_size(self) -> int:
        """Uniform draws consumed by one generated automaton."""
        n = self.n
        return n + len(self.alphabet.nullary) * n + len(self.alphabet.binary) * n ** 3


def _split_block(config: GenConfig, u: np.ndarray):
    """Threshold one block of uniforms into inclusion booleans."""
    n = config.n
    s0 = len(config.alphabet.nullary)
    s2 = len(config.alphabet.binary)
    finals = u[..., :n] < config.final_prob
    nullary = u[..., n:n + s0 * n].reshape(*u.shape[:-1], s0, n) < config.d0
    binary = u[..., n + s0 * n:].reshape(*u.shape[:-1], s2, n, n, n) < config.d2
    return finals, nullary, binary


def _fta_from_bools(config: GenConfig, finals, nullary, binary) -> Fta:
    syms0 = config.alphabet.nullary
    syms2 = config.alphabet.binary
    # Plain ints from tolist(): converting numpy scalars rule by rule would
    # cost most of a dense generate_trim call.
    s0, t0 = np.nonzero(nullary)
    s2, q1, q2, t2 = np.nonzero(binary)
    rules = [(syms0[s], (), q) for s, q in zip(s0.tolist(), (t0 + 1).tolist())]
    rules += [(syms2[s], args, q) for s, args, q in zip(
        s2.tolist(), zip((q1 + 1).tolist(), (q2 + 1).tolist()), (t2 + 1).tolist())]
    return Fta(
        states=frozenset(range(1, config.n + 1)),
        alphabet=config.alphabet,
        finals=frozenset((np.flatnonzero(finals) + 1).tolist()),
        transitions=frozenset(map(Transition._make, rules)),
    )


def generate(config: GenConfig, stream: np.random.Generator) -> Fta:
    """Draw one automaton from the model, consuming exactly one block."""
    u = stream.random(config.block_size)
    return _fta_from_bools(config, *_split_block(config, u))


def _trim_masks(nullary: np.ndarray, finals: np.ndarray,
                t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reachable and co-reachable masks, (c, n) each, of c automata at once.

    ``t[i, q1 * n + q2, q]`` is 1 when automaton i has a binary rule
    ``q1, q2 -> q`` under some symbol and 0 otherwise; ``nullary`` marks
    the targets of nullary rules and ``finals`` the final states.  Each
    pass of either fixpoint runs batched matrix products over all c
    automata at once, and each loop ends when no automaton's mask changes.  Every
    product sums non-negative integers to at most n**2, which float32
    holds exactly below 2**24, so ``> 0`` is exact; a small integer type
    would wrap (16**2 = 256 is 0 in uint8).
    """
    c, n = nullary.shape
    # The masks only grow, so an unchanged count means an unchanged mask,
    # and a full one cannot change.
    reach, count = nullary, np.count_nonzero(nullary)
    while count < c * n:
        r = reach.astype(np.float32)
        pairs = (r[:, :, None] * r[:, None, :]).reshape(c, 1, n * n)
        fired = reach | ((pairs @ t).reshape(c, n) > 0)
        fired_count = np.count_nonzero(fired)
        if fired_count == count:
            break
        reach, count = fired, fired_count
    col = reach.astype(np.float32)[:, :, None]
    row = col.reshape(c, 1, n)
    core, count = finals, np.count_nonzero(finals)
    while count < c * n:
        # z[i, q1, q2] counts the rules q1, q2 -> q of automaton i with q
        # co-reachable; q1 joins through a reachable q2, and q2 through q1.
        z = (t @ core.astype(np.float32)[:, :, None]).reshape(c, n, n)
        joined = (core | ((z @ col).reshape(c, n) > 0)
                  | ((row @ z).reshape(c, n) > 0))
        joined_count = np.count_nonzero(joined)
        if joined_count == count:
            break
        core, count = joined, joined_count
    return reach, core


def _trim_rows(config: GenConfig, u: np.ndarray) -> np.ndarray:
    """Indices, in order, of the rows of a batch of blocks that draw trim automata.

    ``_split_block`` thresholds the batch.  Trimness ignores which symbol
    carries a rule, so the nullary cells are ORed over the symbol axis into
    one (rows, n) mask and the binary cells into one (rows, n**3) array; its
    rules are one sorted list of flat cells
    ``row * n**3 + (q1 * n + q2) * n + q``.  A trim automaton needs every
    state to have an incoming rule, every non-final state to occur on some
    binary left-hand side, and at least one final state; scattering the
    rules into two (rows, n) masks checks that for every row at once and
    rejects almost all sparse draws.  ``_trim_masks`` then decides the
    surviving rows together on their dense (n * n, n) rule matrices.
    """
    n = config.n
    rows = u.shape[0]
    finals, nullary, binary = _split_block(config, u)
    nullary = nullary.any(axis=1)
    # One binary symbol needs no OR, and any() over a length-1 axis would
    # cost more than the comparison.
    rules = binary.reshape(rows, -1)
    if binary.shape[1] > 1:
        rules = binary.reshape(rows, -1, n ** 3).any(axis=1)
    # A batch holds fewer than 2**31 doubles, so int32 positions cannot
    # overflow; int32 floor division by a scalar is much faster than %.
    cell = np.flatnonzero(rules).astype(np.int32)
    lhs = cell // n  # row * n**2 + q1 * n + q2
    tg = cell - lhs * n
    row_q1 = lhs // n  # row * n + q1, a flat index into (rows, n)
    a2 = lhs - row_q1 * n
    base = row_q1 // n * n  # row * n
    incoming, on_lhs = nullary.copy(), finals.copy()
    incoming.reshape(-1)[base + tg] = True
    on_lhs.reshape(-1)[row_q1] = True
    on_lhs.reshape(-1)[base + a2] = True
    ok = incoming.all(axis=1) & on_lhs.all(axis=1) & finals.any(axis=1)
    cands = np.flatnonzero(ok)
    # Without binary symbols the filter's conditions are trimness itself.
    if not (cands.size and rules.size):
        return cands
    t = rules[cands].astype(np.float32).reshape(cands.size, n * n, n)
    reach, core = _trim_masks(nullary[cands], finals[cands], t)
    return cands[(reach & core).all(axis=1)]


def generate_trim(config: GenConfig, seed: Seed | int, trial: int = 0) -> tuple[Fta, int]:
    """Regenerate until the automaton is trim; return it with the attempt count.

    Attempts are independent blocks of the trial's stream.  They are drawn in
    batches of at most ``_BATCH_DOUBLES`` doubles (at least one block);
    batches start at 4 rows, or the cap if lower, and grow x2 up to the cap.
    The buffer they are drawn into holds one batch and is reallocated only
    when the batch grows.  The stream is sequential, so the batch schedule
    changes no draw.  Raises ExhaustionError after ``config.max_attempts``
    failures, which signals a density where trim automata are vanishingly
    rare.
    """
    seed = as_seed(seed)
    stream = seed.stream(trial)
    block = config.block_size
    cap = max(1, _BATCH_DOUBLES // block)
    attempts = 0
    batch = min(4, cap)
    buf = np.empty((0, block))
    while attempts < config.max_attempts:
        take = min(batch, config.max_attempts - attempts)
        if take > len(buf):
            # Free the smaller buffer first, so that the two never coexist.
            buf = u = None
            buf = np.empty((take, block))
        u = stream.random(out=buf[:take])
        hits = _trim_rows(config, u)
        if hits.size:
            c = int(hits[0])
            return _fta_from_bools(config, *_split_block(config, u[c])), attempts + c + 1
        attempts += take
        # Doubling keeps the rows drawn past the accepted one to at most
        # about as many as the attempts before it.
        batch = min(batch * 2, cap)
    raise ExhaustionError(config.n, config.d2, attempts)


@dataclass(frozen=True)
class TrimCell:
    """The observed trim fraction at one (d2, n), with its binomial 95% half-width."""

    d2: float
    n: int
    trials: int
    hits: int
    ratio: float
    half_width: float


def trim_ratio(config: GenConfig, trials: int, seed: Seed | int) -> TrimCell:
    """Fraction of raw draws that are trim, over independent per-trial streams."""
    if trials < 1:
        raise InputError("trials must be at least 1")
    seed = as_seed(seed)
    block = config.block_size
    chunk = min(trials, max(1, _BATCH_DOUBLES // block))
    u = np.empty((chunk, block))
    # Trial t's draws are seed.stream(t)'s: its state, derived with the
    # other trials', is loaded into one reused generator.
    bitgen = np.random.PCG64(0)
    stream = np.random.Generator(bitgen)
    states = _stream_states(seed, 0, trials)
    hits = 0
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        for k in range(count):
            bitgen.state = next(states)
            stream.random(out=u[k])
        hits += _trim_rows(config, u[:count]).size
    ratio = hits / trials
    half = 1.96 * math.sqrt(ratio * (1.0 - ratio) / trials)
    return TrimCell(config.d2, config.n, trials, hits, ratio, half)
