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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Fta, RankedAlphabet, Transition
from .errors import ExhaustionError, InputError

# Upper bounds on the uniform doubles per vectorized batch.  trim_ratio's 0.5 MB
# batches keep its peak memory apart from how the allocator reuses freed ones.
# A block holds at least n**3 doubles, so the float32 rule matrices of a batch's
# candidate rows (4 bytes * n**3 each) take at most 16 MB at 4M doubles.
_BATCH_DOUBLES, _RATIO_BATCH_DOUBLES = 4_000_000, 62_500


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
        stream.  The words are each int's little-endian 32-bit words, at
        least one per int; building them here and passing one uint32 array
        gives every stream bit for bit.
        """
        words = []
        for k in (self.master, *self.path, *key):
            k = int(k)
            if k < 0:
                raise ValueError(f"stream key {k} is negative")
            words.append(k & 0xFFFFFFFF)
            while k > 0xFFFFFFFF:
                k >>= 32
                words.append(k & 0xFFFFFFFF)
        entropy = np.array(words, dtype=np.uint32)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


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
    transitions = []
    for si, q in np.argwhere(nullary):
        transitions.append(Transition(syms0[si], (), int(q) + 1))
    for si, q1, q2, q in np.argwhere(binary):
        transitions.append(Transition(syms2[si], (int(q1) + 1, int(q2) + 1), int(q) + 1))
    return Fta(
        states=frozenset(range(1, config.n + 1)),
        alphabet=config.alphabet,
        finals=frozenset((np.flatnonzero(finals) + 1).tolist()),
        transitions=frozenset(transitions),
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

    Trimness ignores which binary symbol carries a rule, so the binary
    cells are ORed over the symbol axis into one (rows, n**3) array; its
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
    s0 = len(config.alphabet.nullary)
    off = n + s0 * n
    finals = u[:, :n] < config.final_prob
    nullary = (u[:, n:off] < config.d0).reshape(rows, s0, n).any(axis=1)
    rules = u[:, off:] < config.d2
    # One binary symbol needs no OR, and any() over a length-1 axis would
    # cost more than the comparison.
    if rules.shape[1] > n ** 3:
        rules = rules.reshape(rows, -1, n ** 3).any(axis=1)
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

    Attempts are independent blocks of the trial's stream.  Raises
    ExhaustionError after ``config.max_attempts`` failures, which signals a
    density where trim automata are vanishingly rare.
    """
    seed = as_seed(seed)
    stream = seed.stream(trial)
    block = config.block_size
    attempts = 0
    batch = 4
    while attempts < config.max_attempts:
        take = min(batch, config.max_attempts - attempts)
        u = stream.random((take, block))
        hits = _trim_rows(config, u)
        if hits.size:
            c = int(hits[0])
            return _fta_from_bools(config, *_split_block(config, u[c])), attempts + c + 1
        attempts += take
        # Doubling keeps the rows drawn past the accepted one to at most
        # about as many as the attempts before it.
        batch = min(batch * 2, max(1, _BATCH_DOUBLES // block))
    raise ExhaustionError(config.n, config.d2, attempts)


class TrimEstimate(NamedTuple):
    """Observed trim fraction with its binomial 95% half-width."""

    ratio: float
    half_width: float
    trials: int
    hits: int


def trim_ratio(config: GenConfig, trials: int, seed: Seed | int) -> TrimEstimate:
    """Fraction of raw draws that are trim, over independent per-trial streams."""
    if trials < 1:
        raise InputError("trials must be at least 1")
    seed = as_seed(seed)
    block = config.block_size
    chunk = min(trials, max(1, _RATIO_BATCH_DOUBLES // block))
    u = np.empty((chunk, block))
    hits = 0
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        for k in range(count):
            seed.stream(start + k).random(out=u[k])
        hits += _trim_rows(config, u[:count]).size
    ratio = hits / trials
    half = 1.96 * math.sqrt(ratio * (1.0 - ratio) / trials)
    return TrimEstimate(ratio, half, trials, hits)
