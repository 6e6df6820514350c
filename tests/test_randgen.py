"""Random generation model: draw order, reproducibility, trimness loop."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftakit import (
    ExhaustionError,
    GenConfig,
    InputError,
    RankedAlphabet,
    Seed,
    Setting,
    as_seed,
    generate,
    generate_trim,
    is_trim,
    trim_ratio,
)
from ftakit import randgen
from ftakit.density import density_grid
from ftakit.randgen import (
    _entropy_words,
    _fta_from_bools,
    _pcg64_states,
    _split_block,
    _stream_states,
    _trim_masks,
    _trim_rows,
    float_key,
)
from trim_reference import coreachable_ref, is_trim_ref, reachable_ref


def _config(**kw) -> GenConfig:
    base = dict(n=3, alphabet=Setting.A.alphabet, d2=0.3, d0=0.5)
    base.update(kw)
    return GenConfig(**base)


def test_config_validation():
    with pytest.raises(InputError):
        _config(n=0)
    with pytest.raises(InputError):
        _config(d2=1.5)
    with pytest.raises(InputError):
        _config(d0=-0.1)
    with pytest.raises(InputError):
        _config(max_attempts=0)
    with pytest.raises(InputError):
        _config(alphabet=RankedAlphabet.of(a=0, g=1))


def test_seed_validation_and_paths():
    with pytest.raises(InputError):
        Seed(-1)
    with pytest.raises(InputError):
        Seed(1 << 64)
    s = Seed(42).child(1, 2)
    assert s.path == (1, 2)
    assert s.child(3).path == (1, 2, 3)


@pytest.mark.parametrize("master", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("path, key", [
    ((), ()),
    ((), (5,)),
    ((0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 63, 2 ** 64 - 1, 3, 0, 9), (4,)),
    ((7,), (0, 2 ** 32, 2 ** 64 - 1, 2 ** 70 + 1)),
])
def test_stream_is_numpys_seed_sequence(master, path, key):
    # Seed.stream builds the entropy words itself; the stream must be the one
    # numpy derives from the same tuple of ints.
    reference = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((master, *path, *key))))
    got = Seed(master, path).stream(*key).random(8)
    assert got.tolist() == reference.random(8).tolist()


def test_stream_rejects_negative_keys():
    # Seed.child rejects a negative key through Seed's validation; Seed.stream
    # and the batched derivation must reject it the same way.
    with pytest.raises(InputError):
        Seed(1).child(-1)
    with pytest.raises(InputError):
        Seed(1).stream(-1)
    with pytest.raises(InputError):
        Seed(1, (2,)).stream(3, -4)
    with pytest.raises(InputError):
        next(_stream_states(Seed(1), -1, 2))


# Entropy words as streams see them: 32-bit ints with both extremes, and the
# two words of a float_key (0.0 gives one word, 0).
_WORD = st.one_of(st.sampled_from([0, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1))
_KEY_WORDS = st.one_of(
    _WORD.map(lambda w: [w]),
    st.floats(0.0, 1.0).map(lambda x: _entropy_words(float_key(x))),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(1, 9), rows=st.integers(1, 4))
def test_batched_states_are_numpys_seed_sequence(data, width, rows):
    # 1..9 words cover entropy shorter than, as long as and longer than
    # SeedSequence's 4-word pool; each row of one matrix is its own stream.
    entropy = []
    for _ in range(rows):
        keys = data.draw(st.lists(_KEY_WORDS, min_size=width, max_size=width))
        entropy.append([w for words in keys for w in words][:width])
    states = list(_pcg64_states(np.array(entropy, dtype=np.uint32)))
    assert len(states) == rows
    for words, state in zip(entropy, states):
        reference = np.random.PCG64(np.random.SeedSequence(words))
        assert state == reference.state
        loaded = np.random.PCG64(0)
        loaded.state = state
        assert (np.random.Generator(loaded).random(8).tolist()
                == np.random.Generator(reference).random(8).tolist())


@pytest.mark.parametrize("block", [1, 3, 1 << 14])
@pytest.mark.parametrize("seed", [Seed(0), Seed(7, (3, 2 ** 40 + 5)), Seed(2 ** 64 - 1, (2 ** 32 - 1,))])
@pytest.mark.parametrize("start, stop", [
    (0, 9), (2 ** 32 - 4, 2 ** 32 + 4), (2 ** 64 - 2, 2 ** 64 + 2), (2 ** 96 - 1, 2 ** 96 + 1),
])
def test_stream_states_match_seed_stream(monkeypatch, block, seed, start, stop):
    # Keys from 2**32 on need a second word (2**64 a third): the derivation
    # must split its blocks there instead of returning other streams.
    monkeypatch.setattr("ftakit.randgen._STATE_BLOCK", block)
    expected = [seed.stream(k).bit_generator.state for k in range(start, stop)]
    assert list(_stream_states(seed, start, stop)) == expected


def test_block_size():
    assert _config(n=3).block_size == 3 + 3 + 27
    cfg_b = GenConfig(n=2, alphabet=Setting.B.alphabet, d2=0.5, d0=0.5)
    assert cfg_b.block_size == 2 + 2 + 2 * 8


def test_forced_draws_complete():
    config = _config(n=2, d2=1.0, d0=1.0, final_prob=1.0)
    fta = generate(config, as_seed(0).stream())
    assert fta.finals == {1, 2}
    assert len(fta.transitions) == 2 + 8  # all nullary and binary candidates


def test_forced_draws_empty():
    config = _config(n=3, d2=0.0, d0=0.0)
    fta = generate(config, as_seed(0).stream())
    assert not fta.transitions


def test_generate_is_reproducible():
    config = _config(n=5, d2=0.4)
    a = generate(config, as_seed(123).stream(7))
    b = generate(config, as_seed(123).stream(7))
    assert a == b
    c = generate(config, as_seed(123).stream(8))
    assert a != c  # overwhelmingly likely for distinct streams


def test_generate_reference_values():
    # Frozen output of the documented stream derivation, cross-checked by
    # decoding the raw uniforms by hand; guards the draw order and stream
    # discipline against accidental change.
    config = _config(n=2, d2=0.5, d0=0.5)
    u = as_seed(2024).stream(0).random(config.block_size)
    manual_finals = {q + 1 for q in range(2) if u[q] < 0.5}
    manual_nullary = {q + 1 for q in range(2) if u[2 + q] < 0.5}
    fta = generate(config, as_seed(2024).stream(0))
    assert fta.finals == manual_finals == {2}
    assert {t.target for t in fta.transitions if not t.args} == manual_nullary == {1}
    rules = sorted((t.symbol, t.args, t.target) for t in fta.transitions)
    assert rules == [
        ("alpha", (), 1),
        ("sigma", (1, 1), 2),
        ("sigma", (1, 2), 1),
        ("sigma", (1, 2), 2),
        ("sigma", (2, 1), 1),
        ("sigma", (2, 1), 2),
    ]


def test_distributional_sanity():
    # Inclusion frequencies stay within 3 binomial standard errors.
    config = _config(n=5, d2=0.5, d0=0.4, final_prob=0.5)
    trials = 1000
    n_binary = trials * 125
    n_nullary = trials * 5
    n_finals = trials * 5
    binary = nullary = finals = 0
    seed = as_seed(31415)
    for t in range(trials):
        fta = generate(config, seed.stream(t))
        for rule in fta.transitions:
            if rule.args:
                binary += 1
            else:
                nullary += 1
        finals += len(fta.finals)
    for observed, total, p in [
        (binary, n_binary, 0.5),
        (nullary, n_nullary, 0.4),
        (finals, n_finals, 0.5),
    ]:
        se = math.sqrt(p * (1 - p) / total)
        assert abs(observed / total - p) < 3 * se


def test_generate_trim_postcondition():
    config = _config(n=4, d2=0.3, d0=0.6)
    for trial in range(10):
        fta, attempts = generate_trim(config, 99, trial)
        assert is_trim(fta)
        assert attempts >= 1


def test_generate_trim_reproducible_across_batching(monkeypatch):
    # Trial 2 first draws a trim automaton at attempt 164: inside the default's
    # sixth batch (attempts 125-252) and inside a 7-row batch (attempts 159-165).
    # With 150 attempts it exhausts, in a partial batch when batches hold 7 rows.
    # A 3-row cap is below the first batch's 4 rows, so the reused buffer must
    # not be asked for more rows than it holds.
    config = _config(n=4, d2=0.01, d0=0.5)
    exhausting = _config(n=4, d2=0.01, d0=0.5, max_attempts=150)
    expected = generate_trim(config, 5, 2)
    assert expected[1] == 164
    for blocks in (None, 1, 3, 7):
        if blocks:
            monkeypatch.setattr("ftakit.randgen._BATCH_DOUBLES", blocks * config.block_size)
        assert generate_trim(config, 5, 2) == expected
        with pytest.raises(ExhaustionError) as info:
            generate_trim(exhausting, 5, 2)
        assert info.value.attempts == 150


def test_generate_trim_memory_stays_at_one_batch():
    # Point x = 34 of the n = 12 setting-A grid is sparse: trial 6 at seed 3
    # is accepted at attempt 18,485, past hundreds of 35-row batches.  The
    # buffer grows to 0.5 MB once and is reused, so the peak stays near one
    # batch however many are drawn; each smaller buffer is freed before the
    # next is allocated (with both alive the peak reads ~0.94 MB, not ~0.61).
    config = GenConfig(n=12, alphabet=Setting.A.alphabet, d2=density_grid(12)[34].d2,
                       d0=0.5, max_attempts=100_000)
    attempts, peak = _generate_trim_peak(config, 3, 6)
    assert attempts == 18_485
    assert peak < 800_000


def test_generate_trim_buffer_holds_one_batch():
    # A dense n = 2 draw is trim in its first 4-row batch, so the buffer
    # needs 4 blocks, not the full 0.5 MB a batch may grow to.
    attempts, peak = _generate_trim_peak(_config(n=2, d2=0.9, d0=0.9), 1, 0)
    assert attempts <= 4
    assert peak < 50_000


def _generate_trim_peak(config, seed, trial):
    """Attempts and tracemalloc peak of one generate_trim call.  An untraced
    call first makes the imports a first call may trigger."""
    generate_trim(config, seed, trial)
    tracemalloc.start()
    try:
        _, attempts = generate_trim(config, seed, trial)
        return attempts, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _generate_trim_one_row_at_a_time(config, seed, trial):
    """generate_trim by its definition: one block of the stream per attempt,
    judged by the reference fixpoints."""
    stream = as_seed(seed).stream(trial)
    for attempt in range(1, config.max_attempts + 1):
        row = stream.random(config.block_size)
        fta = _fta_from_bools(config, *_split_block(config, row))
        if is_trim_ref(fta):
            return fta, attempt
    raise ExhaustionError(config.n, config.d2, config.max_attempts)


# Sparse configs whose trials take 19 to 355 attempts at seed 11, so batches
# of several sizes are crossed; three more trials run out of their budget.
@pytest.mark.parametrize("setting, n, d2, max_attempts", [
    (Setting.A, 4, 0.01, 1000), (Setting.A, 5, 0.004, 500), (Setting.B, 6, 0.002, 600),
])
def test_generate_trim_matches_one_row_at_a_time(setting, n, d2, max_attempts):
    config = GenConfig(n=n, alphabet=setting.alphabet, d2=d2, d0=0.5,
                       max_attempts=max_attempts)
    for trial in range(4):
        try:
            expected = _generate_trim_one_row_at_a_time(config, 11, trial)
        except ExhaustionError as err:
            with pytest.raises(ExhaustionError) as info:
                generate_trim(config, 11, trial)
            assert info.value.attempts == err.attempts == max_attempts
        else:
            assert generate_trim(config, 11, trial) == expected


def test_generate_trim_matches_rejection_over_generate():
    # The batched loop must agree with the definitional loop: regenerate
    # blocks through generate() until the reference trimness check holds.
    config = _config(n=3, d2=0.25, d0=0.5)
    for trial in range(6):
        fast, attempts = generate_trim(config, 321, trial)
        stream = as_seed(321).stream(trial)
        for k in range(1, attempts + 1):
            candidate = generate(config, stream)
            assert is_trim_ref(candidate) == (k == attempts)
        assert candidate == fast


def test_fast_trim_check_matches_public_is_trim():
    # The generator's batched check, the public is_trim and the reference
    # fixpoints agree draw by draw.
    seed = as_seed(777)
    for i, (n, d2, d0) in enumerate([(2, 0.5, 0.5), (3, 0.2, 0.3),
                                     (4, 0.1, 0.7), (5, 0.05, 0.5)]):
        config = _config(n=n, d2=d2, d0=d0)
        u = np.stack([seed.stream(i, t).random(config.block_size) for t in range(100)])
        expected = []
        for t, row in enumerate(u):
            fta = _fta_from_bools(config, *_split_block(config, row))
            trim = is_trim_ref(fta)
            assert is_trim(fta) == trim
            if trim:
                expected.append(t)
        assert list(_trim_rows(config, u)) == expected


_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _necessary_for_trim(fta) -> bool:
    """Every state has an incoming rule, every non-final state is on a binary
    left-hand side, and some state is final."""
    targets = {t.target for t in fta.transitions}
    on_lhs = {q for t in fta.transitions for q in t.args}
    return targets == fta.states and fta.states - fta.finals <= on_lhs and bool(fta.finals)


@settings(max_examples=150, deadline=None)
@given(setting=st.sampled_from([Setting.A, Setting.B]), n=st.integers(1, 9),
       rows=st.integers(1, 40),
       d2=st.one_of(_PROBABILITY, st.floats(0.0, 0.1)),
       d0=_PROBABILITY, final_prob=_PROBABILITY, seed=st.integers(0, 2 ** 32))
def test_trim_rows_match_reference(setting, n, rows, d2, d0, final_prob, seed):
    # The batched filter keeps exactly the rows whose automata the reference
    # calls trim.  The dense kernel runs once, on the rows that meet the
    # necessary conditions, and its reach and co-reach masks for each of them,
    # trim or not, are the reference fixpoints run on that row's own rules.
    config = GenConfig(n=n, alphabet=setting.alphabet, d2=d2, d0=d0,
                       final_prob=final_prob)
    u = as_seed(seed).stream().random((rows, config.block_size))
    ftas = [_fta_from_bools(config, *_split_block(config, row)) for row in u]
    seen = []

    def recording(nullary, finals, t):
        masks = _trim_masks(nullary, finals, t)
        seen.append(masks)
        return masks

    with mock.patch.object(randgen, "_trim_masks", recording):
        got = list(_trim_rows(config, u))
    assert got == [k for k, fta in enumerate(ftas) if is_trim_ref(fta)]
    candidates = [fta for fta in ftas if _necessary_for_trim(fta)]
    assert len(seen) == (1 if candidates else 0)
    reach, core = seen[0] if seen else (np.zeros((0, n), dtype=bool),) * 2
    assert reach.shape == core.shape == (len(candidates), n)
    for fta, got_reach, got_core in zip(candidates, reach, core):
        # Column k of a row stands for state k + 1.
        want_reach, want_core = reachable_ref(fta), coreachable_ref(fta)
        assert got_reach.tolist() == [q in want_reach for q in range(1, n + 1)]
        assert got_core.tolist() == [q in want_core for q in range(1, n + 1)]


@pytest.mark.parametrize("d2", [1.0, 0.5])
def test_trim_rows_with_triples_under_both_binary_symbols(d2):
    # Setting B's two binary symbols often carry the same (q1, q2, q) triple,
    # which the filter ORs into one rule before the kernel sees it.
    seed = as_seed(909)
    for n in (2, 3, 5):
        config = GenConfig(n=n, alphabet=Setting.B.alphabet, d2=d2, d0=0.5)
        u = seed.stream(n).random((60, config.block_size))
        ftas = [_fta_from_bools(config, *_split_block(config, row)) for row in u]
        triples = [[(t.args, t.target) for t in fta.transitions if t.args] for fta in ftas]
        assert any(len(set(rules)) < len(rules) for rules in triples)
        expected = [k for k, fta in enumerate(ftas) if is_trim_ref(fta)]
        assert 0 < len(expected) < len(ftas)
        assert [k for k, fta in enumerate(ftas) if is_trim(fta)] == expected
        assert list(_trim_rows(config, u)) == expected


def test_trim_rows_without_binary_symbols():
    # With no binary symbol a draw is trim exactly when every state is final
    # and a nullary target; the rows are decided by the filter alone.
    config = GenConfig(n=40, alphabet=RankedAlphabet.of(a=0, b=0), d2=0.5,
                       d0=0.97, final_prob=0.97)
    u = as_seed(4).stream().random((300, config.block_size))
    ftas = [_fta_from_bools(config, *_split_block(config, row)) for row in u]
    expected = [k for k, fta in enumerate(ftas) if is_trim_ref(fta)]
    assert 0 < len(expected) < len(ftas)
    assert list(_trim_rows(config, u)) == expected


def test_generate_trim_dense_sums_past_255():
    # At d2 = 1 every state is reached by the second pass, whose sums count
    # the reachable pairs: here 16 nullary targets give 16**2 = 256, which a
    # uint8 product would wrap to 0.
    config = GenConfig(n=20, alphabet=Setting.A.alphabet, d2=1.0, d0=0.8)
    fta, attempts = generate_trim(config, 0, 0)
    assert attempts == 1
    assert len({t.target for t in fta.transitions if not t.args}) == 16
    assert is_trim_ref(fta)
    assert (fta, attempts) == _generate_trim_one_row_at_a_time(config, 0, 0)


def test_generate_trim_exhausts():
    config = _config(n=3, d2=0.0, d0=0.0, max_attempts=40)
    with pytest.raises(ExhaustionError) as info:
        generate_trim(config, 1, 0)
    assert info.value.n == 3
    assert info.value.attempts == 40


@pytest.mark.parametrize("setting", [Setting.A, Setting.B])
@pytest.mark.parametrize("missing", [dict(final_prob=0.0), dict(d0=0.0)])
def test_every_binary_rule_but_never_trim(setting, missing):
    # d2 = 1 puts a rule in every binary cell, but without a final state or a
    # nullary rule no draw is trim.  300 attempts end in a partial batch.
    config = GenConfig(**{"n": 4, "alphabet": setting.alphabet, "d2": 1.0, "d0": 0.5,
                          "max_attempts": 300, **missing})
    with pytest.raises(ExhaustionError) as info:
        generate_trim(config, 3, 0)
    assert info.value.attempts == 300
    assert trim_ratio(config, 60, 3).hits == 0


def test_trim_ratio_extremes():
    sure = _config(n=2, d2=1.0, d0=1.0, final_prob=1.0)
    assert trim_ratio(sure, 50, 1).ratio == 1.0
    never = _config(n=3, d0=0.0)
    est = trim_ratio(never, 50, 1)
    assert est.ratio == 0.0 and est.hits == 0


def test_trim_ratio_reference_cell():
    # Two binary symbols reproduce the reference 47% at (n=2, d2=.5).
    config = GenConfig(n=2, alphabet=Setting.B.alphabet, d2=0.5, d0=0.5)
    est = trim_ratio(config, 2000, 8)
    assert abs(est.ratio - 0.47) < 0.05
    assert est.half_width < 0.03


def test_trim_ratio_monotone_in_d2():
    # Statistically non-decreasing in d2 at fixed n: flag only when the
    # confidence intervals actually separate in the wrong direction.
    seed = as_seed(600)
    estimates = []
    for d2 in (0.02, 0.05, 0.10, 0.25):
        config = GenConfig(n=8, alphabet=Setting.B.alphabet, d2=d2, d0=0.5)
        estimates.append(trim_ratio(config, 800, seed.child(int(d2 * 1000))))
    for lo, hi in zip(estimates, estimates[1:]):
        assert hi.ratio + hi.half_width >= lo.ratio - lo.half_width


@pytest.mark.parametrize("rows", [1, 7, 40])
def test_trim_ratio_counts_each_trial_once_at_any_batch_size(monkeypatch, rows):
    # trim_ratio refills one buffer per batch; with 7 rows the last batch of 30
    # trials holds 2, and the 5 rows left over from the batch before must not count.
    config = _config(d2=0.2)
    monkeypatch.setattr("ftakit.randgen._BATCH_DOUBLES", rows * config.block_size)
    seed = as_seed(31)
    expected = sum(is_trim_ref(generate(config, seed.stream(t))) for t in range(30))
    assert 0 < expected < 30
    assert trim_ratio(config, 30, seed).hits == expected


@pytest.mark.parametrize("rows, block", [(1, 1 << 14), (17, 1 << 14), (3, 5), (40, 7)])
def test_trim_ratio_matches_per_stream_definition_at_n12(monkeypatch, rows, block):
    # n = 12 over two binary symbols gives 17-row batches at the default size.
    # 40 trials fill no whole number of 17- or 3-row batches, and blocks of 5
    # or 7 derived states end inside a batch.  Every trial must still draw
    # exactly seed.stream(t).
    config = GenConfig(n=12, alphabet=Setting.B.alphabet, d2=0.01, d0=0.5)
    assert randgen._BATCH_DOUBLES // config.block_size == 17
    monkeypatch.setattr("ftakit.randgen._BATCH_DOUBLES", rows * config.block_size)
    monkeypatch.setattr("ftakit.randgen._STATE_BLOCK", block)
    seed = as_seed(5)
    expected = sum(is_trim_ref(generate(config, seed.stream(t))) for t in range(40))
    assert 0 < expected < 40
    assert trim_ratio(config, 40, seed).hits == expected


def test_trim_ratio_validates_trials():
    with pytest.raises(InputError):
        trim_ratio(_config(), 0, 1)
