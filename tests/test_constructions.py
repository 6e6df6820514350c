"""Determinization, trimness, minimization, and isomorphism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftakit import (
    BudgetError,
    Fta,
    GenConfig,
    InputError,
    RankedAlphabet,
    Setting,
    StateSet,
    Transition,
    as_seed,
    canonical_size,
    coreachable,
    det_size,
    determinize,
    generate,
    generate_trim,
    is_deterministic,
    is_trim,
    isomorphic,
    language_fingerprint,
    minimize,
    reachable,
    trim,
)
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
    assert det_size(dfta) == 4


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
    assert det_size(dfta) == 0
    assert language_fingerprint(no_base, 3) == frozenset()


def test_det_size_one_state_loop(ab_alphabet):
    loop = _fta(ab_alphabet, {1}, {1}, [("alpha", (), 1), ("sigma", (1, 1), 1)])
    assert det_size(determinize(loop)) == 1


def test_determinize_budget(example_fta):
    with pytest.raises(BudgetError):
        determinize(example_fta, max_subsets=2)


def test_determinize_rejects_general_ranks():
    # Determinization and trimness analysis share the ranks-0-and-2 contract.
    alph = RankedAlphabet.of(a=0, g=1)
    unary = _fta(alph, {1}, {1}, [("a", (), 1), ("g", (1,), 1)])
    for construction in (determinize, reachable, coreachable, is_trim, trim):
        with pytest.raises(InputError):
            construction(unary)


def test_coreachable_rejects_unknown_start_state(example_fta):
    with pytest.raises(InputError):
        coreachable(example_fta, StateSet.of(1, 9))


@st.composite
def _binary_ftas(draw):
    """Small automata over one or two binary symbols with scattered state ids."""
    states = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    alphabet = (Setting.A if draw(st.booleans()) else Setting.B).alphabet
    rules = [("alpha", (), q) for q in states]
    rules += [(sym, (p, q), r) for sym in alphabet.binary
              for p in states for q in states for r in states]
    chosen = draw(st.lists(st.sampled_from(rules), max_size=20, unique=True))
    finals = draw(st.sets(st.sampled_from(states)))
    from_ = draw(st.sets(st.sampled_from(states)))
    return _fta(alphabet, states, finals, chosen), from_


@settings(max_examples=300, deadline=None)
@given(_binary_ftas())
def test_trimness_matches_reference(case):
    fta, from_ = case
    assert reachable(fta) == reachable_ref(fta)
    assert coreachable(fta) == coreachable_ref(fta)
    assert coreachable(fta, from_) == coreachable_ref(fta, from_)
    assert is_trim(fta) == is_trim_ref(fta)
    assert trim(fta) == trim_ref(fta)


def test_reachable(example_fta, ab_alphabet):
    assert reachable(example_fta) == StateSet.of(0, 1, 2, 3)
    no_base = _fta(ab_alphabet, {1}, {1}, [("sigma", (1, 1), 1)])
    assert reachable(no_base) == StateSet()
    isolated = _fta(ab_alphabet, {1, 2}, {1}, [("alpha", (), 1)])
    assert reachable(isolated) == StateSet.of(1)


def test_coreachable(example_fta, ab_alphabet):
    assert coreachable(example_fta) == StateSet.of(0, 1, 2, 3)
    hollow = _fta(ab_alphabet, {1, 2}, set(), [("alpha", (), 1)])
    assert coreachable(hollow) == StateSet()
    # state 2 occurs in no rule's argument list, so no context reaches it
    partial = _fta(ab_alphabet, {1, 2, 3}, {3},
                   [("alpha", (), 1), ("alpha", (), 2), ("sigma", (1, 1), 3)])
    assert coreachable(partial) == StateSet.of(1, 3)


def test_coreachable_explicit_start(example_fta):
    assert coreachable(example_fta, StateSet.of(1)) == StateSet.of(0, 1)


def test_coreachable_sibling_must_be_reachable(ab_alphabet):
    # sigma(1, 2) -> 3 cannot witness 1 (its sibling 2 is unreachable) but
    # does witness 2, whose sibling 1 is reachable.
    m = _fta(ab_alphabet, {1, 2, 3}, {3},
             [("alpha", (), 1), ("sigma", (1, 2), 3)])
    assert coreachable(m) == StateSet.of(2, 3)


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
    assert det_size(dfta) == 2
    assert minimize(dfta).size == 1
    assert language_fingerprint(m, 2) == language_fingerprint(
        minimize(dfta).to_fta(), 2
    )


def test_canonical_size_empty_language(ab_alphabet):
    nothing = _fta(ab_alphabet, {1}, set(), [("alpha", (), 1)])
    assert canonical_size(nothing) == 0


def test_canonical_never_exceeds_det():
    for i in range(100):
        config = GenConfig(n=4, alphabet=Setting.A.alphabet, d2=0.25, d0=0.5)
        fta = generate(config, as_seed(5).stream(i))
        dfta = determinize(fta)
        assert minimize(dfta).size <= det_size(dfta) <= 2 ** 4 - 1


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


def test_general_path_matches_vectorized(ab_alphabet):
    # Force the >64-state fallback by re-determinizing a determinized
    # document-style automaton padded with many states.
    config = GenConfig(n=6, alphabet=Setting.A.alphabet, d2=0.2, d0=0.5,
                       max_attempts=2000)
    fta, _ = generate_trim(config, as_seed(13), 0)
    dfta = determinize(fta)
    plain = dfta.to_fta()
    # pad with unreachable states so the source exceeds the vector width
    padded = Fta(
        states=frozenset(range(70)) | plain.states,
        alphabet=plain.alphabet,
        finals=plain.finals,
        transitions=plain.transitions,
    )
    redet = determinize(padded)
    assert minimize(redet).size == minimize(dfta).size
    assert language_fingerprint(redet.to_fta(), 3) == language_fingerprint(fta, 3)
