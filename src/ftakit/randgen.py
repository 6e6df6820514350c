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

from .constructions import coreachable_mask, reachable_mask
from .core import Fta, RankedAlphabet, Transition
from .errors import ExhaustionError, InputError

# Upper bounds on the uniform doubles per vectorized batch.  trim_ratio's 0.5 MB
# batches keep its peak memory apart from how the allocator reuses freed ones.
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


def _trim_rows(config: GenConfig, u: np.ndarray) -> np.ndarray:
    """Indices, in order, of the rows of a batch of blocks that draw trim automata.

    The batch's binary rules are one sorted list of flat cells
    ``row * width + ((s * n + q1) * n + q2) * n + q``, decoded once into
    (row, q1, q2, q).  A trim automaton needs every state to have an incoming
    rule, every non-final state to occur on some binary left-hand side, and
    at least one final state; scattering the rules into two (rows, n) masks
    checks that for every row at once and rejects almost all sparse draws.
    The rules of the surviving rows then form one disjoint union, state q of
    the i-th candidate becoming ``i * n + q``, so a single run of each
    fixpoint decides every candidate.
    """
    n = config.n
    rows = u.shape[0]
    s0 = len(config.alphabet.nullary)
    off = n + s0 * n
    width = u.shape[1] - off
    finals = u[:, :n] < config.final_prob
    nullary = (u[:, n:off] < config.d0).reshape(rows, s0, n).any(axis=1)
    # A batch holds fewer than 2**31 doubles, so int32 positions cannot overflow.
    cell = np.flatnonzero(u[:, off:] < config.d2).astype(np.int32)
    row = cell // max(width, 1)
    cell -= row * width
    tg = cell % n
    cell //= n
    a2 = cell % n
    cell //= n
    a1 = cell % n
    base = row * n  # each rule's row, as a flat offset into (rows, n)
    incoming, on_lhs = nullary.copy(), finals.copy()
    incoming.reshape(-1)[base + tg] = True
    on_lhs.reshape(-1)[base + a1] = True
    on_lhs.reshape(-1)[base + a2] = True
    ok = incoming.all(axis=1) & on_lhs.all(axis=1) & finals.any(axis=1)
    cands = np.flatnonzero(ok)
    if not cands.size:
        return cands
    first = np.zeros(rows, dtype=np.int32)  # a candidate's first state in the union
    first[cands] = np.arange(0, cands.size * n, n, dtype=np.int32)
    keep = ok[row]
    shift = first[row[keep]]
    a1, a2, tg = a1[keep] + shift, a2[keep] + shift, tg[keep] + shift
    reach = reachable_mask(nullary[cands].reshape(-1), a1, a2, tg)
    core = coreachable_mask(finals[cands].reshape(-1), reach, a1, a2, tg)
    return cands[(reach & core).reshape(-1, n).all(axis=1)]


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
