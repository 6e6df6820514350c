"""Determinization, trimness, minimization, and isomorphism."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ftakit import (
    BudgetError,
    CanonicalFta,
    Dfta,
    Fta,
    GenConfig,
    InputError,
    RankedAlphabet,
    Setting,
    Transition,
    as_seed,
    canonical_size,
    coreachable,
    determinize,
    generate,
    generate_trim,
    is_trim,
    language_fingerprint,
    minimize,
    reachable,
    trim,
)
from ftakit import constructions
from ftakit.density import peak_density
from determinism_reference import is_deterministic
from determinize_reference import determinize_ref
from isomorphism_reference import isomorphic
from language_reference import language_mismatch
from minimize_reference import dead_states, equivalence_classes
from trim_reference import coreachable_ref, is_trim_ref, reachable_ref, trim_ref


def _fta(alphabet, states, finals, rules):
    return Fta(
        states=frozenset(states),
        alphabet=alphabet,
        finals=frozenset(finals),
        transitions=frozenset(Transition(s, tuple(a), t) for s, a, t in rules),
    )


def test_determinize_example_table(example_fta):
    dfta = determinize(example_fta)
    # One table type: the subset automaton adds its subsets to it.
    assert issubclass(Dfta, CanonicalFta) and type(dfta) is Dfta
    assert dfta.n_states == len(dfta.subsets) == 5
    members = {dfta.subset_members(i): i for i in range(dfta.n_states)}
    assert set(members) == {(0, 2), (1,), (1, 3), (3,), ()}
    s02, s1, s13, s3 = members[(0, 2)], members[(1,)], members[(1, 3)], members[(3,)]
    sink = members[()]
    assert dfta.sink == sink
    assert dfta.nullary == {"alpha": s02}
    table = dfta.binary["sigma"]
    expected = {
        (s02, s02): s1,
        (s1, s02): s13,
        (s13, s02): s13,
        (s1, s13): s3,
        (s1, s3): s3,
        # forced by the lifted map even though often left unlisted: a
        # {1,3} first argument still fires sigma(1,3)->3
        (s13, s13): s3,
        (s13, s3): s3,
    }
    for (i, j), target in expected.items():
        assert table[i, j] == target
    # every other combination falls into the sink
    for i in range(dfta.n_states):
        for j in range(dfta.n_states):
            if (i, j) not in expected:
                assert table[i, j] == sink
    assert dfta.finals == {s13, s3}
    assert dfta.size == 4


def test_determinize_output_is_deterministic_fta(example_fta):
    as_plain = determinize(example_fta).to_fta()
    assert is_deterministic(as_plain)


def test_determinize_deterministic_input_keeps_size(ab_alphabet):
    det = _fta(ab_alphabet, {1, 2}, {2},
               [("alpha", (), 1), ("sigma", (1, 1), 2), ("sigma", (2, 1), 1)])
    assert is_deterministic(det) and is_trim(det)
    dfta = determinize(det)
    non_sink = [m for m in dfta.subsets if m]
    assert len(non_sink) == dfta.size
    for i in range(dfta.n_states):
        assert len(dfta.subset_members(i)) <= 1
    assert dfta.size == 2


def test_determinize_no_nullary_rules(ab_alphabet):
    no_base = _fta(ab_alphabet, {1}, {1}, [("sigma", (1, 1), 1)])
    dfta = determinize(no_base)
    assert dfta.n_states == 1 and dfta.sink == 0
    assert dfta.size == 0
    assert language_fingerprint(no_base, 3) == frozenset()


def test_det_size_one_state_loop(ab_alphabet):
    loop = _fta(ab_alphabet, {1}, {1}, [("alpha", (), 1), ("sigma", (1, 1), 1)])
    dfta = determinize(loop)
    assert dfta.size == 1


def test_determinize_budget(example_fta):
    with pytest.raises(BudgetError):
        determinize(example_fta, max_subsets=2)


def test_determinize_rejects_negative_budget(example_fta):
    with pytest.raises(InputError, match="max_subsets"):
        determinize(example_fta, max_subsets=-1)
    assert determinize(example_fta, max_subsets=5).n_states == 5


def test_determinize_rejects_general_ranks():
    # Determinization and trimness analysis share the ranks-0-and-2 contract.
    alph = RankedAlphabet.of(a=0, g=1)
    unary = _fta(alph, {1}, {1}, [("a", (), 1), ("g", (1,), 1)])
    for construction in (determinize, reachable, coreachable, is_trim, trim):
        with pytest.raises(InputError):
            construction(unary)


@st.composite
def _binary_ftas(draw):
    """Small automata over one or two binary symbols with scattered state ids."""
    states = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    alphabet = (Setting.A if draw(st.booleans()) else Setting.B).alphabet
    # Nullary rules are drawn apart from the binary ones, which outnumber them
    # by up to 432 to 6 and would otherwise crowd them out.
    rules = [(sym, (p, q), r) for sym in alphabet.binary
             for p in states for q in states for r in states]
    chosen = draw(st.lists(st.sampled_from(rules), max_size=20, unique=True))
    chosen += [("alpha", (), q) for q in draw(st.sets(st.sampled_from(states)))]
    finals = draw(st.sets(st.sampled_from(states)))
    return _fta(alphabet, states, finals, chosen)


@settings(max_examples=300, deadline=None)
@given(_binary_ftas())
def test_trimness_matches_reference(fta):
    reach, core = reachable(fta), coreachable(fta)
    assert type(reach) is type(core) is frozenset
    assert reach == reachable_ref(fta)
    assert core == coreachable_ref(fta)
    assert is_trim(fta) == is_trim_ref(fta)
    assert trim(fta) == trim_ref(fta)


def _spread(fta, place, states):
    """``fta`` with state q renamed ``place[q]``, inside the state set ``states``."""
    return Fta(
        states=frozenset(states),
        alphabet=fta.alphabet,
        finals=frozenset(place[q] for q in fta.finals),
        transitions=frozenset(
            Transition(t.symbol, tuple(place[a] for a in t.args), place[t.target])
            for t in fta.transitions
        ),
    )


@st.composite
def _wide_ftas(draw):
    """``_binary_ftas`` relabeled into 65 to 160 states, the rest unreachable padding.

    The useful states land anywhere in 0..159, so they often sit on both
    sides of bit 63 and the subset masks span two or three 64-bit words.
    """
    fta = draw(_binary_ftas())
    ids = draw(st.lists(st.integers(0, 159), min_size=fta.n, max_size=fta.n,
                        unique=True))
    padding = range(draw(st.integers(65, 160)))
    return _spread(fta, dict(zip(sorted(fta.states), ids)), set(padding) | set(ids))


def _check_against_reference(fta):
    dfta = determinize(fta)
    ref = determinize_ref(fta)
    members = [frozenset(dfta.subset_members(i)) for i in range(dfta.n_states)]
    assert len(set(members)) == len(members)
    assert set(members) == ref.subsets
    assert {a: members[i] for a, i in dfta.nullary.items()} == ref.nullary
    for sym, table in dfta.binary.items():
        assert table.dtype == np.int32
        for i, p in enumerate(members):
            for j, q in enumerate(members):
                assert members[table[i, j]] == ref.binary[sym, p, q]
    assert {members[f] for f in dfta.finals} == ref.finals
    if frozenset() in ref.subsets:
        assert members[dfta.sink] == frozenset()
    else:
        assert dfta.sink is None


@settings(max_examples=200, deadline=None)
@given(_binary_ftas())
def test_determinize_matches_reference(fta):
    _check_against_reference(fta)


@settings(max_examples=100, deadline=None)
@given(_wide_ftas())
def test_determinize_wide_source_matches_reference(fta):
    _check_against_reference(fta)


@st.composite
def _chunked_ftas(draw):
    """Automata over 7 to 14 states, so that subsets span more than one lookup
    chunk of 6 states.  Every binary rule reads states that earlier rules or
    the nullary rules reach, so the rules fire and most subset automata have
    dozens of states."""
    states = draw(st.lists(st.integers(0, 60), min_size=7, max_size=14, unique=True))
    alphabet = (Setting.A if draw(st.booleans()) else Setting.B).alphabet
    reach = sorted(draw(st.sets(st.sampled_from(states), min_size=1, max_size=3)))
    chosen = [("alpha", (), q) for q in reach]
    for _ in range(draw(st.integers(len(states), 2 * len(states)))):
        rule = (draw(st.sampled_from(alphabet.binary)),
                (draw(st.sampled_from(reach)), draw(st.sampled_from(reach))),
                draw(st.sampled_from(states)))
        chosen.append(rule)
        if rule[2] not in reach:
            reach.append(rule[2])
    finals = draw(st.sets(st.sampled_from(states)))
    return _fta(alphabet, states, finals, set(chosen))


@settings(max_examples=100, deadline=None)
@given(_chunked_ftas())
def test_determinize_past_one_chunk_matches_reference(fta):
    # The reference recomputes every pair per round; keep it to small tables.
    assume(determinize(fta).n_states <= 40)
    _check_against_reference(fta)


def test_determinize_without_binary_symbols():
    alphabet = RankedAlphabet.of(alpha=0, beta=0)
    fta = _fta(alphabet, {1, 2}, {2},
               [("alpha", (), 1), ("beta", (), 1), ("beta", (), 2)])
    dfta = determinize(fta)
    assert dfta.subsets == (0b01, 0b11)
    assert dfta.nullary == {"alpha": 0, "beta": 1}
    assert dfta.binary == {} and dfta.finals == {1} and dfta.sink is None
    assert dfta.dead == {0}


def test_determinize_zero_state_source():
    # The nullary image is the empty subset: one sink, paired with itself.
    fta = _fta(Setting.A.alphabet, set(), set(), [])
    dfta = determinize(fta)
    assert dfta.subsets == (0,) and dfta.nullary == {"alpha": 0}
    assert dfta.sink == 0 and dfta.dead == {0} and dfta.finals == frozenset()
    table = dfta.binary["sigma"]
    assert table.shape == (1, 1) and table.dtype == np.int32 and table[0, 0] == 0
    assert not table.flags.writeable
    assert canonical_size(fta) == 0


def _same_dfta(a, b):
    return (a.subsets == b.subsets and _same_canonical(a, b)
            and all(table.dtype == np.int32 for table in a.binary.values()))


def _first_steps(dfta):
    """The step that first makes each subset state, read off the tables.

    Step i pairs subset i with every subset j <= i, both ways, under each
    binary symbol in turn, so pair (i, j) under symbol s has the key
    max(i, j) * |symbols| + s.  The image of the k-th nullary symbol has a
    negative key, in nullary symbol order.
    """
    nullary, binary = dfta.alphabet.nullary, dfta.alphabet.binary
    first = np.full(dfta.n_states, np.iinfo(np.int64).max)
    for k, a in enumerate(nullary):
        first[dfta.nullary[a]] = min(first[dfta.nullary[a]], k - len(nullary))
    ids = np.arange(dfta.n_states)
    step = np.maximum(ids[:, None], ids)
    for s, sym in enumerate(binary):
        np.minimum.at(first, dfta.binary[sym].ravel(), (step * len(binary) + s).ravel())
    return first


def _blocks(dfta, first, entries):
    """The blocks of steps [a, b) that determinize runs at ``entries`` pair
    images per block: each round runs the steps below the subset count at
    its start, in blocks of entries // (2 * |symbols| * count) steps."""
    n_syms = len(dfta.alphabet.binary)
    blocks = []
    a, hi = 0, int((first < 0).sum())
    while a < hi:
        size = max(1, entries // (2 * n_syms * hi))
        blocks += [(b, min(hi, b + size)) for b in range(a, hi, size)]
        a, hi = hi, int((first < hi * n_syms).sum())
    return blocks


def _peak_fta(setting, n, seed):
    config = GenConfig(n=n, alphabet=setting.alphabet, d2=peak_density(n), d0=0.5)
    return generate_trim(config, seed, 0)[0]


# Peak instances at n = 6..13 with 60 to 1624 subsets; 7, 11 and 13 states
# are not whole lookup chunks.
_PEAK_CASES = [
    (Setting.A, 6, 6), (Setting.A, 7, 4), (Setting.A, 10, 8), (Setting.A, 11, 9),
    (Setting.A, 13, 3), (Setting.B, 7, 2), (Setting.B, 9, 9), (Setting.B, 11, 9),
    (Setting.B, 13, 8),
]


@pytest.mark.parametrize("setting, n, seed", _PEAK_CASES)
def test_determinize_block_boundaries(monkeypatch, setting, n, seed):
    fta = _peak_fta(setting, n, seed)
    expected = determinize(fta)
    # Subsets are numbered by the step that first makes them, then by mask.
    first = _first_steps(expected)
    order = list(zip(first.tolist(), expected.subsets))
    assert order == sorted(order)
    # One step per block; then blocks of at least 5 steps, where some round
    # ends in a shorter, partial block.
    n_syms = len(setting.alphabet.binary)
    longer = 10 * n_syms * expected.n_states
    assert any(b - a < 5 for a, b in _blocks(expected, first, longer))
    for entries in (1, longer):
        with monkeypatch.context() as m:
            m.setattr(constructions, "_BLOCK_ENTRIES", entries)
            assert _same_dfta(determinize(fta), expected)


@pytest.mark.parametrize("setting, n, seed", _PEAK_CASES)
def test_determinize_slot_collisions(monkeypatch, setting, n, seed):
    fta = _peak_fta(setting, n, seed)
    expected = determinize(fta)
    # With 4 or 8 slots, many subsets share a slot: only the first of them
    # is found there, and the others are told apart word for word.
    for slot_bits in (2, 3):
        assert len({mask % (1 << slot_bits) for mask in expected.subsets}) < expected.n_states
        with monkeypatch.context() as m:
            m.setattr(constructions, "_SLOT_BITS", slot_bits)
            assert _same_dfta(determinize(fta), expected)


@pytest.mark.parametrize("setting, n, seed", [
    (Setting.A, 6, 6), (Setting.A, 7, 4), (Setting.B, 6, 3), (Setting.B, 9, 9),
])
def test_determinize_budget_boundary(setting, n, seed):
    fta = _peak_fta(setting, n, seed)
    full = determinize(fta)
    count = full.n_states  # the sink included
    with pytest.raises(BudgetError,
                       match=rf"^subset construction exceeded {count - 1} states "
                             rf"\(source n={n}\)$"):
        determinize(fta, max_subsets=count - 1)
    assert _same_dfta(determinize(fta, max_subsets=count), full)


@pytest.mark.parametrize("setting, n, seed", [(Setting.B, 13, 8), (Setting.B, 11, 9)])
def test_determinize_memory_shape(setting, n, seed):
    # The tables are allocated once, at their final size, and filled one
    # symbol at a time while that symbol's strips are freed; keeping every
    # symbol's strips until the end, or growing the tables each round,
    # peaks higher.
    fta = _peak_fta(setting, n, seed)
    tracemalloc.start()
    try:
        dfta = determinize(fta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = list(dfta.binary.values())
    assert peak <= 1.75 * sum(table.nbytes for table in tables)
    for table in tables:
        assert table.flags.c_contiguous and table.dtype == np.int32
        assert table.shape == (dfta.n_states, dfta.n_states)


def test_determinize_budget_crossed_inside_a_block(monkeypatch):
    fta = _peak_fta(Setting.B, 9, 9)
    full = determinize(fta)
    first = _first_steps(full)
    entries = 1 << 12
    # The last subset appears before the last step of its block, so the
    # budget is crossed inside the block and checked only at its end.
    last = int(first[-1]) // len(Setting.B.alphabet.binary)
    assert any(a <= last < b - 1 for a, b in _blocks(full, first, entries))
    monkeypatch.setattr(constructions, "_BLOCK_ENTRIES", entries)
    with pytest.raises(BudgetError, match=f"exceeded {full.n_states - 1} states"):
        determinize(fta, max_subsets=full.n_states - 1)
    assert _same_dfta(determinize(fta, max_subsets=full.n_states), full)


def _canonical_state_of(dfta, canonical):
    """The canonical state of each subset state, found by running both automata
    on the same trees: the nullary entries, then every pair of mapped states.
    Every tree that reaches a subset state must reach the same canonical state."""
    to: dict[int, int] = {}
    order: list[int] = []

    def visit(p, q):
        if p in to:
            assert to[p] == q
        else:
            to[p] = q
            order.append(p)

    for a in dfta.alphabet.nullary:
        visit(dfta.nullary[a], canonical.nullary[a])
    for k, p in enumerate(order):
        for sym in dfta.alphabet.binary:
            t, c = dfta.binary[sym], canonical.binary[sym]
            for r in order[: k + 1]:
                visit(int(t[p, r]), int(c[to[p], to[r]]))
                visit(int(t[r, p]), int(c[to[r], to[p]]))
    return to


def _check_classes(dfta, canonical):
    """``canonical`` has one state per Myhill-Nerode class of ``dfta``."""
    classes = equivalence_classes(dfta)
    assert canonical.n_states == len(classes)
    to = _canonical_state_of(dfta, canonical)
    assert len(to) == dfta.n_states
    assert {frozenset(p for p in to if to[p] == q) for q in to.values()} == classes
    assert all((to[p] in canonical.finals) == (p in dfta.finals) for p in to)


def _colliding_weights(size):
    return (np.zeros(size, dtype=np.uint64),) * 2


@settings(max_examples=200, deadline=None)
@given(_binary_ftas(), st.data())
def test_minimize_matches_reference(fta, data):
    dfta = determinize(fta)
    canonical = minimize(dfta)
    _check_classes(dfta, canonical)
    with pytest.MonkeyPatch.context() as m:
        # Every profile hashes alike, so the exact check makes every split.
        m.setattr(constructions, "_refinement_weights", _colliding_weights)
        assert _same_canonical(minimize(dfta), canonical)
    with pytest.MonkeyPatch.context() as m:
        # Past 4 states, sampled passes over state 0 come before the full ones.
        m.setattr(constructions, "_SAMPLE", 1)
        sampled = minimize(dfta)
        _check_classes(dfta, sampled)
        assert _same_canonical(sampled, canonical)
        # Sampled passes then split nothing; the exact check makes every split.
        m.setattr(constructions, "_refinement_weights", _colliding_weights)
        assert _same_canonical(minimize(dfta), canonical)
    ids = data.draw(st.lists(st.integers(0, 60), min_size=fta.n, max_size=fta.n,
                             unique=True))
    renamed = _spread(fta, dict(zip(sorted(fta.states), ids)), ids)
    assert isomorphic(minimize(determinize(renamed)), canonical)
    assert isomorphic(minimize(determinize(canonical.to_fta())), canonical)


def _same_canonical(a, b):
    return (a.n_states == b.n_states and a.nullary == b.nullary
            and a.finals == b.finals and a.sink == b.sink
            and all(np.array_equal(a.binary[sym], b.binary[sym]) for sym in a.binary))


# Peak instances at n = 6..9; the setting-A ones merge states (20 -> 19,
# 113 -> 103, 87 -> 61, 183 -> 165), and no subset count is a multiple of 7.
@pytest.mark.parametrize("setting, n, seed", [
    (Setting.A, 6, 4), (Setting.A, 7, 11), (Setting.A, 8, 23), (Setting.A, 9, 20),
    (Setting.B, 6, 0), (Setting.B, 7, 1), (Setting.B, 8, 2), (Setting.B, 9, 3),
])
def test_minimize_collision_and_block_paths(monkeypatch, setting, n, seed):
    config = GenConfig(n=n, alphabet=setting.alphabet, d2=peak_density(n), d0=0.5)
    dfta = determinize(generate_trim(config, seed, 0)[0])
    expected = minimize(dfta)
    with monkeypatch.context() as m:
        # All states of an old block hash alike, so verification makes every split.
        m.setattr(constructions, "_refinement_weights",
                  lambda size: (np.zeros(size, dtype=np.uint64),) * 2)
        assert _same_canonical(minimize(dfta), expected)
    with monkeypatch.context() as m:
        # Blocks of 7 rows, the last one partial.
        m.setattr(constructions, "_BLOCK_ENTRIES", 7 * dfta.n_states)
        assert _same_canonical(minimize(dfta), expected)


def test_refinement_weights_are_one_cached_draw():
    size = constructions._weights.shape[1] + 5
    rows, cols = constructions._refinement_weights(size)
    cached = constructions._weights
    # A smaller size slices the same draw; a state's weights never change.
    small_rows, small_cols = constructions._refinement_weights(3)
    assert constructions._weights is cached
    assert np.shares_memory(small_rows, cached) and np.shares_memory(small_cols, cached)
    assert (small_rows == rows[:3]).all() and (small_cols == cols[:3]).all()
    assert len(rows) == len(cols) == size and (rows & cols & 1).all()
    assert not rows.flags.writeable and not cols.flags.writeable
    bigger = constructions._refinement_weights(2 * size)
    assert (bigger[0][:size] == rows).all() and (bigger[1][:size] == cols).all()


def test_refine_keeps_old_blocks_apart():
    # States 1, 2 and 3 hash alike, but state 1 is in another block.
    blk = np.array([0, 0, 1, 1, 0], dtype=np.int32)
    acc = np.array([9, 5, 5, 5, 9], dtype=np.uint64)
    new_blk, count = constructions._refine(blk, acc)
    assert count == 3
    assert sorted(np.flatnonzero(new_blk == b).tolist() for b in range(count)) == [
        [0, 4], [1], [2, 3]]


def _keys(dtype):
    """Keys of ``dtype``, often 0, 1 or an extreme so that tuples repeat."""
    info = np.iinfo(dtype)
    return st.one_of(st.sampled_from([0, 1, int(info.min), int(info.max)]),
                     st.integers(int(info.min), int(info.max)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([np.int32, np.uint64]), min_size=1, max_size=3),
       st.integers(0, 30), st.data())
def test_dense_ranks_are_ranks_of_distinct_tuples(dtypes, size, data):
    keys = [np.array(data.draw(st.lists(_keys(dtype), min_size=size, max_size=size)),
                     dtype=dtype) for dtype in dtypes]
    rank, count = constructions._dense_ranks(*keys)
    tuples = list(zip(*(key.tolist() for key in keys)))
    distinct = sorted(set(tuples))
    assert count == len(distinct)
    assert rank.tolist() == [distinct.index(t) for t in tuples]


def test_dense_ranks_one_key_matches_lexsort_path():
    # One key is ordered by argsort, several by lexsort; a constant second
    # key sends the same tuples through the lexsort path.  Ties are the norm:
    # 5,000 keys take 40 distinct values, extremes included.
    values = np.array([0, 1, 2**63, 2**64 - 1, *range(7, 43)], dtype=np.uint64)
    keys = np.random.default_rng(3).choice(values, size=5_000)
    rank, count = constructions._dense_ranks(keys)
    lex_rank, lex_count = constructions._dense_ranks(keys, np.zeros_like(keys))
    assert count == lex_count == 40
    assert rank.tolist() == lex_rank.tolist()


# Golden peak instances.  Nothing merges in the first two, so refinement ends
# in singletons with no exact check; in the others one check compares every
# member of a block but the first with the block's first state.
@pytest.mark.parametrize("setting, n, seed, checked", [
    (Setting.A, 8, 3, []), (Setting.B, 7, 2, []),
    (Setting.A, 8, 23, [26]), (Setting.A, 9, 20, [18]), (Setting.A, 6, 4, [1]),
])
def test_minimize_exact_check_calls(monkeypatch, setting, n, seed, checked):
    dfta = determinize(_peak_fta(setting, n, seed))
    calls = []
    same_profile = constructions._same_profile

    def counted(blk, succ_tables, states, refs):
        calls.append(len(states))
        return same_profile(blk, succ_tables, states, refs)

    monkeypatch.setattr(constructions, "_same_profile", counted)
    minimize(dfta)
    assert calls == checked


def _count_passes(monkeypatch):
    """Record each hash pass as (sampled, blocks before it) and the number of
    states each exact check compares."""
    passes, checks = [], []
    profile_hashes, same_profile = constructions._profile_hashes, constructions._same_profile

    def hashes(blk, succ_tables, w_row, w_col, sample=None):
        passes.append((sample is not None, len(np.unique(blk))))
        return profile_hashes(blk, succ_tables, w_row, w_col, sample)

    def same(blk, succ_tables, states, refs):
        checks.append(len(states))
        return same_profile(blk, succ_tables, states, refs)

    monkeypatch.setattr(constructions, "_profile_hashes", hashes)
    monkeypatch.setattr(constructions, "_same_profile", same)
    return passes, checks


# Peak instances of 1624 and 867 states that merge nothing: sampled passes
# reach singletons, so no pass reads a whole table and nothing is checked.
@pytest.mark.parametrize("setting, n, seed", [(Setting.B, 13, 8), (Setting.B, 11, 9)])
def test_minimize_sampled_passes_reach_singletons(monkeypatch, setting, n, seed):
    dfta = determinize(_peak_fta(setting, n, seed))
    assert dfta.n_states > 4 * constructions._SAMPLE
    passes, checks = _count_passes(monkeypatch)
    assert minimize(dfta).n_states == dfta.n_states
    assert passes and all(sampled for sampled, _ in passes)
    assert checks == []


def test_minimize_sampled_stage_then_full_passes(monkeypatch):
    # 87 states merge into 61: the sampled stage stops short of that, the
    # full passes finish the refinement, and the exact check confirms it.
    dfta = determinize(_peak_fta(Setting.A, 8, 23))
    monkeypatch.setattr(constructions, "_SAMPLE", 8)
    passes, checks = _count_passes(monkeypatch)
    assert minimize(dfta).n_states == 61
    kinds = [sampled for sampled, _ in passes]
    n_sampled = kinds.index(False)
    assert n_sampled > 0 and not any(kinds[n_sampled:])
    # The last sampled pass split nothing, short of singletons.
    assert passes[n_sampled - 1][1] == passes[n_sampled][1] < dfta.n_states
    assert checks == [26]


@pytest.mark.parametrize("setting, n, seed", [(Setting.A, 10, 8), (Setting.B, 9, 9)])
def test_sampled_hash_over_every_state_is_the_full_hash(monkeypatch, setting, n, seed):
    dfta = determinize(_peak_fta(setting, n, seed))
    n_states = dfta.n_states
    tables = [dfta.binary[sym] for sym in dfta.alphabet.binary]
    weights = constructions._refinement_weights(n_states)
    everyone = np.arange(n_states)
    rng = np.random.default_rng(seed)
    # Default blocks, then blocks of 7 rows that split the sample.
    for entries in (constructions._BLOCK_ENTRIES, 7 * n_states):
        monkeypatch.setattr(constructions, "_BLOCK_ENTRIES", entries)
        for n_blocks in (1, 2, 5, n_states):
            blk = rng.integers(0, n_blocks, n_states).astype(np.int32)
            full = constructions._profile_hashes(blk, tables, *weights)
            sampled = constructions._profile_hashes(blk, tables, *weights, everyone)
            assert np.array_equal(full, sampled)
            new_blk, count = constructions._refine(blk, full)
            sampled_blk, sampled_count = constructions._refine(blk, sampled)
            assert count == sampled_count and np.array_equal(new_blk, sampled_blk)


# Golden peak instances: no two subset states merge in the first two (255
# and 124 states), and 87 merge into 61 in the third.
@pytest.mark.parametrize("setting, n, seed, n_canonical", [
    (Setting.A, 8, 3, 255), (Setting.B, 7, 2, 124), (Setting.A, 8, 23, 61),
])
def test_minimize_identity_and_general_quotient(setting, n, seed, n_canonical):
    dfta = determinize(_peak_fta(setting, n, seed))
    canonical = minimize(dfta)
    # No subset field leaks into the minimal table, not even on the identity path.
    assert type(canonical) is CanonicalFta
    assert canonical.n_states == n_canonical
    _check_classes(dfta, canonical)
    assert not any(t.flags.writeable for t in canonical.binary.values())
    if n_canonical < dfta.n_states:
        return
    assert (canonical.nullary, canonical.finals, canonical.sink) == (
        dfta.nullary, dfta.finals, dfta.sink)
    for sym, table in dfta.binary.items():
        assert canonical.binary[sym] is table


def test_determinize_tables_are_read_only(example_fta):
    # minimize may hand these same arrays back, so no caller can write into
    # an automaton it shares.
    dfta = determinize(example_fta)
    for table in dfta.binary.values():
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = dfta.sink


def test_reachable(example_fta, ab_alphabet):
    assert reachable(example_fta) == frozenset({0, 1, 2, 3})
    no_base = _fta(ab_alphabet, {1}, {1}, [("sigma", (1, 1), 1)])
    assert reachable(no_base) == frozenset()
    isolated = _fta(ab_alphabet, {1, 2}, {1}, [("alpha", (), 1)])
    assert reachable(isolated) == frozenset({1})


def test_coreachable(example_fta, ab_alphabet):
    assert coreachable(example_fta) == frozenset({0, 1, 2, 3})
    hollow = _fta(ab_alphabet, {1, 2}, set(), [("alpha", (), 1)])
    assert coreachable(hollow) == frozenset()
    # state 2 occurs in no rule's argument list, so no context reaches it
    partial = _fta(ab_alphabet, {1, 2, 3}, {3},
                   [("alpha", (), 1), ("alpha", (), 2), ("sigma", (1, 1), 3)])
    assert coreachable(partial) == frozenset({1, 3})


def test_coreachable_sibling_must_be_reachable(ab_alphabet):
    # sigma(1, 2) -> 3 cannot witness 1 (its sibling 2 is unreachable) but
    # does witness 2, whose sibling 1 is reachable.
    m = _fta(ab_alphabet, {1, 2, 3}, {3},
             [("alpha", (), 1), ("sigma", (1, 2), 3)])
    assert coreachable(m) == frozenset({2, 3})


def test_trim_fixpoints_on_rule_arrays():
    # Positions 0..3: alpha -> 0, sigma(0, 0) -> 1, sigma(1, 2) -> 3, final 3.
    # Position 2 is unreachable, so sigma(1, 2) witnesses 2 but not 1.
    null_tg = np.array([0], dtype=np.intp)
    a1, a2, tg = (np.array(col, dtype=np.intp) for col in ((0, 1), (0, 2), (1, 3)))
    reach, core = constructions._trim_fixpoints(4, null_tg, a1, a2, tg, [3])
    assert reach.tolist() == [True, True, False, False]
    assert core.tolist() == [False, False, True, True]
    # With no binary rules the fixpoints are the nullary targets and the finals.
    empty = np.zeros(0, dtype=np.intp)
    reach, core = constructions._trim_fixpoints(3, null_tg, empty, empty, empty, [2])
    assert reach.tolist() == [True, False, False]
    assert core.tolist() == [False, False, True]


def test_is_trim(example_fta, ab_alphabet):
    assert is_trim(example_fta)
    hollow = _fta(ab_alphabet, {1}, set(), [("alpha", (), 1)])
    assert not is_trim(hollow)
    dead_end = _fta(ab_alphabet, {1, 2}, {1},
                    [("alpha", (), 1), ("sigma", (1, 1), 2)])
    assert not is_trim(dead_end)  # 2 reachable but not co-reachable


def test_trim_restriction_preserves_language(ab_alphabet):
    messy = _fta(ab_alphabet, {1, 2, 3}, {1},
                 [("alpha", (), 1), ("sigma", (1, 1), 2)])
    cleaned = trim(messy)
    assert cleaned.states == {1}
    assert language_fingerprint(messy, 3) == language_fingerprint(cleaned, 3)


def test_minimize_example_already_minimal(example_fta):
    dfta = determinize(example_fta)
    canonical = minimize(dfta)
    assert canonical.size == 4
    assert canonical_size(example_fta) == 4


def test_minimize_idempotent(example_fta):
    canonical = minimize(determinize(example_fta))
    again = minimize(determinize(canonical.to_fta()))
    assert isomorphic(canonical, again)
    assert canonical.size == again.size


def test_minimize_merges_equivalent_finals():
    alph = RankedAlphabet.of(a=0, b=0, sigma=2)
    m = _fta(alph, {1, 2}, {1, 2}, [("a", (), 1), ("b", (), 2)])
    # Two distinct final states with identical (empty) outgoing behavior
    # collapse to a single canonical state.
    dfta = determinize(m)
    assert dfta.size == 2
    assert minimize(dfta).size == 1
    assert language_fingerprint(m, 2) == language_fingerprint(
        minimize(dfta).to_fta(), 2
    )
    # Every state final and no sink: refinement starts from a single block.
    total = _fta(alph, {1, 2}, {1, 2}, [("a", (), 1), ("b", (), 2)]
                 + [("sigma", (p, q), 1) for p in (1, 2) for q in (1, 2)])
    assert determinize(total).finals == {0, 1}
    assert minimize(determinize(total)).size == 1


def test_minimize_rejects_a_canonical_table(example_fta):
    # A minimal table has no dead subsets to find the sink by.
    canonical = minimize(determinize(example_fta))
    with pytest.raises(InputError, match="determinize"):
        minimize(canonical)


def test_minimize_rejects_distinct_dead_states(ab_alphabet, monkeypatch):
    # {2} and the empty subset both lead nowhere; refinement must merge them,
    # so a partition that keeps them apart is a bug even under python -O.
    m = _fta(ab_alphabet, {1, 2, 3}, {3},
             [("alpha", (), 1), ("sigma", (1, 1), 3), ("sigma", (3, 3), 2)])
    dfta = determinize(m)
    assert minimize(dfta).sink is not None
    monkeypatch.setattr(constructions, "_refine",
                        lambda blk, tables: (np.arange(len(blk), dtype=np.int32), len(blk)))
    with pytest.raises(RuntimeError, match="distinct dead states"):
        minimize(dfta)


# Probabilities on a grid of twentieths, 0 and 1 included.
_PROBABILITY = st.integers(0, 20).map(lambda k: k / 20)
_ALPHABETS = st.sampled_from([Setting.A.alphabet, Setting.B.alphabet])


def _near_peak(n):
    """Binary densities within a factor of 2 of the peak, where subset
    automata are largest."""
    peak = peak_density(max(n, 2))
    return st.integers(-4, 4).map(lambda e: min(1.0, peak * 2.0 ** (e / 4)))


@st.composite
def _generated_ftas(draw, max_n):
    """Sources that need not be trim, from any densities and final probability."""
    n = draw(st.integers(1, max_n))
    config = GenConfig(n=n, alphabet=draw(_ALPHABETS),
                       d2=draw(st.one_of(_PROBABILITY, _near_peak(n))),
                       d0=draw(_PROBABILITY), final_prob=draw(_PROBABILITY))
    return generate(config, as_seed(draw(st.integers(0, 2 ** 32))).stream())


@st.composite
def _trim_peak_ftas(draw, max_n):
    """Trim sources of 4 or more states near the peak density, drawn as the
    sweeps draw them."""
    n = draw(st.integers(4, max_n))
    config = GenConfig(n=n, alphabet=draw(_ALPHABETS), d2=draw(_near_peak(n)), d0=0.5)
    return generate_trim(config, draw(st.integers(0, 2 ** 32)))[0]


@settings(max_examples=200, deadline=None)
@given(_generated_ftas(6))
def test_dead_subsets_match_reference(fta):
    # Unreachable and useless source states make nonempty subsets dead, and
    # with no final state every subset is.
    dfta = determinize(fta)
    dead = dead_states(dfta)
    assert dfta.dead == dead
    canonical = minimize(dfta)
    to = _canonical_state_of(dfta, canonical)
    assert {to[p] for p in dead} == {canonical.sink} - {None}


@settings(max_examples=150, deadline=None)
@given(st.one_of(_trim_peak_ftas(7), _generated_ftas(7)))
def test_pipeline_language_is_exact(fta):
    assert language_mismatch(fta, determinize(fta)) is None
    assert language_mismatch(fta, minimize(determinize(fta))) is None


@pytest.mark.parametrize("setting, n, seed", [
    (Setting.A, 8, 23), (Setting.A, 9, 20), (Setting.B, 8, 2), (Setting.B, 9, 9),
])
def test_pipeline_language_is_exact_at_peak(setting, n, seed):
    fta = _peak_fta(setting, n, seed)
    assert language_mismatch(fta, determinize(fta)) is None
    assert language_mismatch(fta, minimize(determinize(fta))) is None


def test_canonical_size_empty_language(ab_alphabet):
    nothing = _fta(ab_alphabet, {1}, set(), [("alpha", (), 1)])
    assert canonical_size(nothing) == 0


def test_canonical_never_exceeds_det():
    for i in range(100):
        config = GenConfig(n=4, alphabet=Setting.A.alphabet, d2=0.25, d0=0.5)
        fta = generate(config, as_seed(5).stream(i))
        dfta = determinize(fta)
        assert minimize(dfta).size <= dfta.size <= 2 ** 4 - 1


def test_oracle_equivalence_small():
    # Language fingerprints agree across the whole pipeline (short version
    # of the acceptance run).
    seed = as_seed(97)
    done = 0
    case = 0
    while done < 25:
        rng = seed.stream(case)
        n = int(rng.integers(2, 5))
        d2 = float(rng.uniform(0.1, 0.9))
        case += 1
        config = GenConfig(n=n, alphabet=Setting.A.alphabet, d2=d2, d0=0.6,
                           max_attempts=2000)
        fta, _ = generate_trim(config, seed.child(case), 0)
        dfta = determinize(fta)
        canonical = minimize(dfta)
        fp = language_fingerprint(fta, 3)
        assert fp == language_fingerprint(dfta.to_fta(), 3)
        assert fp == language_fingerprint(canonical.to_fta(), 3)
        done += 1


def test_refinement_fixpoint_stability():
    # Re-minimizing the canonical automaton must not merge anything else.
    seed = as_seed(31)
    for case in range(20):
        config = GenConfig(n=4, alphabet=Setting.A.alphabet, d2=0.3, d0=0.5,
                           max_attempts=2000)
        fta, _ = generate_trim(config, seed.child(case), 0)
        canonical = minimize(determinize(fta))
        again = minimize(determinize(canonical.to_fta()))
        assert again.size == canonical.size


def test_isomorphic_reflexive_and_renaming(example_fta):
    canonical = minimize(determinize(example_fta))
    assert isomorphic(canonical, canonical)
    # Renaming the source states must not change the canonical form.
    mapping = {0: 7, 1: 3, 2: 11, 3: 0}
    renamed = Fta(
        states=frozenset(mapping.values()),
        alphabet=example_fta.alphabet,
        finals=frozenset(mapping[q] for q in example_fta.finals),
        transitions=frozenset(
            Transition(t.symbol, tuple(mapping[a] for a in t.args), mapping[t.target])
            for t in example_fta.transitions
        ),
    )
    assert isomorphic(canonical, minimize(determinize(renamed)))


def test_isomorphic_distinguishes_languages(example_fta, ab_alphabet):
    canonical = minimize(determinize(example_fta))
    nothing = _fta(ab_alphabet, {1}, set(), [("alpha", (), 1)])
    assert not isomorphic(canonical, minimize(determinize(nothing)))


def test_isomorphic_random_permutations():
    rng = np.random.Generator(np.random.PCG64(123))
    for case in range(20):
        config = GenConfig(n=4, alphabet=Setting.A.alphabet, d2=0.3, d0=0.5,
                           max_attempts=2000)
        fta, _ = generate_trim(config, as_seed(77).child(case), 0)
        perm = {q: int(p) + 1 for q, p in zip(sorted(fta.states),
                                              rng.permutation(len(fta.states)))}
        shuffled = Fta(
            states=frozenset(perm.values()),
            alphabet=fta.alphabet,
            finals=frozenset(perm[q] for q in fta.finals),
            transitions=frozenset(
                Transition(t.symbol, tuple(perm[a] for a in t.args), perm[t.target])
                for t in fta.transitions
            ),
        )
        assert isomorphic(minimize(determinize(fta)),
                          minimize(determinize(shuffled)))


def test_determinize_wide_padded_source():
    # Re-determinize a determinized automaton whose states are spread over
    # ids 40..100 among 130 states, so its subsets straddle bit 63.
    config = GenConfig(n=6, alphabet=Setting.A.alphabet, d2=0.2, d0=0.5,
                       max_attempts=2000)
    fta, _ = generate_trim(config, as_seed(13), 0)
    dfta = determinize(fta)
    plain = dfta.to_fta()
    place = {q: 40 + 60 * q // (plain.n - 1) for q in plain.states}
    assert len(set(place.values())) == plain.n
    assert min(place.values()) < 64 <= max(place.values())
    redet = determinize(_spread(plain, place, range(130)))
    assert max(redet.subsets).bit_length() > 64
    assert minimize(redet).size == minimize(dfta).size
    assert language_fingerprint(redet.to_fta(), 3) == language_fingerprint(fta, 3)
