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
from typing import Iterator, NamedTuple

import numpy as np

from .constructions import coreachable_mask, reachable_mask
from .core import Fta, RankedAlphabet, Transition
from .errors import ExhaustionError, InputError

# Upper bound on the number of uniform doubles drawn per vectorized batch.
_BATCH_DOUBLES = 4_000_000


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
        entropy = (self.master, *self.path, *(int(k) for k in key))
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


def _trim_candidates(finals, nullary, binary) -> np.ndarray:
    """Indices of batch rows passing the cheap necessary conditions for trimness.

    A trim automaton needs every state to have an incoming rule, every
    non-final state to occur on some binary left-hand side, and at least one
    final state.  These reject almost all sparse draws without running the
    fixpoints.
    """
    incoming = nullary.any(axis=1) | binary.any(axis=(1, 2, 3))
    on_lhs = binary.any(axis=(1, 3, 4)) | binary.any(axis=(1, 2, 4))
    ok = incoming.all(axis=1) & (finals | on_lhs).all(axis=1) & finals.any(axis=1)
    return np.flatnonzero(ok)


def _trim_rows(config: GenConfig, u: np.ndarray) -> Iterator[int]:
    """Indices, in order, of the rows of a batch of blocks that draw trim automata."""
    finals, nullary, binary = _split_block(config, u)
    for c in _trim_candidates(finals, nullary, binary).tolist():
        _, a1, a2, tg = np.argwhere(binary[c]).T
        reach = reachable_mask(nullary[c].any(axis=0), a1, a2, tg)
        if reach.all() and coreachable_mask(finals[c], reach, a1, a2, tg).all():
            yield c


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
        for c in _trim_rows(config, u):
            return _fta_from_bools(config, *_split_block(config, u[c])), attempts + c + 1
        attempts += take
        batch = min(batch * 8, max(1, _BATCH_DOUBLES // block))
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
    chunk = max(1, _BATCH_DOUBLES // block)
    hits = 0
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        u = np.empty((count, block))
        for k in range(count):
            u[k] = seed.stream(start + k).random(block)
        hits += sum(1 for _ in _trim_rows(config, u))
    ratio = hits / trials
    half = 1.96 * math.sqrt(ratio * (1.0 - ratio) / trials)
    return TrimEstimate(ratio, half, trials, hits)
