"""Core data model and evaluation semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftakit import (
    ConfigError,
    Fta,
    GenConfig,
    InputError,
    RankedAlphabet,
    Setting,
    Transition,
    Tree,
    accepts,
    as_seed,
    enumerate_trees,
    evaluate,
    generate,
    language_fingerprint,
    sigma_bar,
)
from ftakit import core
from determinism_reference import is_deterministic

A = Tree.of("alpha")
SAA = Tree.of("sigma", A, A)


def test_alphabet_rejects_duplicates_and_missing_nullary():
    with pytest.raises(InputError):
        RankedAlphabet(frozenset([("f", 1), ("f", 2), ("a", 0)]))
    with pytest.raises(InputError):
        RankedAlphabet.of(sigma=2)


def test_alphabet_general_ranks_are_representable():
    alph = RankedAlphabet.of(a=0, f=3)
    assert alph.rank("f") == 3
    assert not alph.is_binary
    assert alph.nullary == ["a"]


def test_tree_shape_constraints():
    assert Tree("alpha") == ("alpha", ())
    assert SAA.children == (A, A) and type(SAA.children) is tuple
    assert SAA == ("sigma", (("alpha", ()), ("alpha", ())))
    assert hash(SAA) == hash(("sigma", (("alpha", ()), ("alpha", ()))))
    assert sorted([SAA, Tree.of("sigma", SAA, A), A]) == [A, SAA, Tree.of("sigma", SAA, A)]
    assert str(Tree.of("sigma", SAA, A)) == "sigma(sigma(alpha,alpha),alpha)"


def test_evaluate_rejects_tree_without_label(example_fta):
    with pytest.raises(InputError, match="unknown symbol None"):
        evaluate(example_fta, Tree(None))


def test_fta_wraps_plain_tuples_as_transitions(ab_alphabet, example_fta):
    plain = Fta(
        states=example_fta.states,
        alphabet=ab_alphabet,
        finals=example_fta.finals,
        transitions=[tuple(t) for t in example_fta.transitions],
    )
    assert all(type(t) is Transition for t in plain.transitions)
    assert plain == example_fta
    for bad in [("sigma", (0,), 1), ("alpha", (), 7), ("sigma", (0, 9), 1)]:
        with pytest.raises(InputError):
            Fta(states=example_fta.states, alphabet=ab_alphabet,
                finals=example_fta.finals, transitions=[bad])


def test_evaluate_example(example_fta):
    for tree, expected in [(A, {0, 2}), (SAA, {1})]:
        result = evaluate(example_fta, tree)
        assert type(result) is frozenset and result == expected


def test_evaluate_empty_transitions(ab_alphabet):
    empty = Fta(frozenset({1}), ab_alphabet, frozenset(), frozenset())
    assert evaluate(empty, A) == frozenset()


def test_evaluate_rejects_unknown_symbol(example_fta):
    with pytest.raises(InputError):
        evaluate(example_fta, Tree.of("beta"))


def test_evaluate_rejects_wrong_child_count(example_fta):
    count, not_tuple = "children, rank is", r"list children, not a tuple; build it with Tree\.of"
    not_tree = r"is a (str|tuple), not a Tree; build it with Tree\.of"
    # A list of children cannot be hashed and never equals the Tree.of tree;
    # a node that is a label or a plain tuple is not a Tree at all.
    for bad, message in [
        (Tree.of("sigma", A), count), (Tree.of("alpha", A), count),
        (Tree.of("sigma", A, Tree.of("sigma", A)), count),
        (Tree("sigma", [A, A]), not_tuple), (Tree.of("sigma", A, Tree("sigma", [A, A])), not_tuple),
        (Tree.of("sigma", "alpha", "alpha"), not_tree), (("alpha", ()), not_tree),
        (Tree.of("sigma", A, ("alpha", ())), not_tree),
    ]:
        with pytest.raises(InputError, match=message):
            evaluate(example_fta, bad)
        with pytest.raises(InputError, match=message):
            accepts(example_fta, bad)


def test_accepts_example(example_fta):
    witness = Tree.of("sigma", Tree.of("sigma", SAA, A), A)
    assert accepts(example_fta, witness)
    assert not accepts(example_fta, A)


def test_accepts_no_finals(ab_alphabet, example_fta):
    hollow = Fta(example_fta.states, ab_alphabet, frozenset(), example_fta.transitions)
    assert not accepts(hollow, SAA)
    assert not accepts(hollow, A)


def test_sigma_bar_examples(example_fta):
    for args, expected in [(({0, 2}, {0, 2}), {1}), (({1}, {0, 2}), {1, 3}),
                           ((set(), {0, 2}), set())]:
        result = sigma_bar(example_fta, "sigma", args)
        assert type(result) is frozenset and result == expected


def test_sigma_bar_arity_error(example_fta):
    with pytest.raises(InputError):
        sigma_bar(example_fta, "sigma", ({1},))
    with pytest.raises(InputError):
        sigma_bar(example_fta, "gamma", ())


def test_is_deterministic(example_fta, ab_alphabet):
    assert not is_deterministic(example_fta)  # alpha has two targets
    empty = Fta(frozenset({1}), ab_alphabet, frozenset(), frozenset())
    assert is_deterministic(empty)
    det = Fta(
        frozenset({1}),
        ab_alphabet,
        frozenset({1}),
        frozenset([Transition("alpha", (), 1), Transition("sigma", (1, 1), 1)]),
    )
    assert is_deterministic(det)


def test_enumerate_trees_small(ab_alphabet):
    assert [str(t) for t in enumerate_trees(ab_alphabet, 0)] == ["alpha"]
    assert [str(t) for t in enumerate_trees(ab_alphabet, 1)] == [
        "alpha",
        "sigma(alpha,alpha)",
    ]


def test_enumerate_trees_counts(ab_alphabet):
    # Independent oracle: with one nullary and one binary symbol the number
    # of trees of height <= h satisfies T(h) = T(h-1)**2 + 1, T(0) = 1.
    expected = [1]
    for _ in range(4):
        expected.append(expected[-1] ** 2 + 1)
    got = [len(enumerate_trees(ab_alphabet, h)) for h in range(5)]
    assert got == expected == [1, 2, 5, 26, 677]


def test_enumerate_trees_guard(ab_alphabet):
    with pytest.raises(ConfigError):
        enumerate_trees(ab_alphabet, 6)
    # The guard binds on the tree count, not on the height.
    with pytest.raises(ConfigError, match="2185969041363 trees"):
        enumerate_trees(Setting.B.alphabet, 5)
    with pytest.raises(ConfigError, match="467078547 trees"):
        enumerate_trees(RankedAlphabet.of(a=0, b=0, c=0, s=2), 4)
    assert len(enumerate_trees(RankedAlphabet.of(a=0, g=1), 8)) == 9
    with pytest.raises(InputError):
        enumerate_trees(ab_alphabet, -1)


def test_enumerate_trees_prefix_chain(ab_alphabet):
    per_height = [enumerate_trees(ab_alphabet, h) for h in range(4)]
    for lo, hi in zip(per_height, per_height[1:]):
        assert lo == hi[: len(lo)]
        assert set(lo) <= set(hi)


def test_enumerate_trees_no_duplicates(ab_alphabet):
    trees = enumerate_trees(ab_alphabet, 3)
    assert len(set(trees)) == len(trees)


def test_enumerate_trees_general_rank():
    alph = RankedAlphabet.of(a=0, b=0, g=1)
    names = [str(t) for t in enumerate_trees(alph, 2)]
    assert names == ["a", "b", "g(a)", "g(b)", "g(g(a))", "g(g(b))"]


@pytest.mark.parametrize("setting, height", [(Setting.B, 3), (Setting.A, 4)])
def test_enumerate_trees_order_contract(setting, height):
    # By height, then symbol name, then the children's positions in the list.
    trees = enumerate_trees(setting.alphabet, height)
    position = {t: i for i, t in enumerate(trees)}
    keys, heights = [], []
    for i, t in enumerate(trees):
        children = tuple(position[c] for c in t.children)
        assert all(c < i for c in children)
        heights.append(1 + max((heights[c] for c in children), default=-1))
        keys.append((heights[i], t.label, children))
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_fingerprint_examples(example_fta):
    assert language_fingerprint(example_fta, 1) == frozenset()
    witness = Tree.of("sigma", Tree.of("sigma", SAA, A), A)
    fp3 = language_fingerprint(example_fta, 3)
    assert witness in fp3 and fp3


def test_fingerprint_empty_finals(example_fta, ab_alphabet):
    hollow = Fta(example_fta.states, ab_alphabet, frozenset(), example_fta.transitions)
    assert language_fingerprint(hollow, 3) == frozenset()


def test_fingerprint_matches_accepts(example_fta):
    # The fingerprint takes a different route (boolean evaluation of whole
    # height-and-symbol groups) than accepts (definitional recursion); they
    # must agree tree by tree, for every rank.
    ranks_fta = Fta(
        frozenset({0, 1, 2}),
        RankedAlphabet.of(a=0, g=1, f=3),
        frozenset({2}),
        frozenset([
            Transition("a", (), 0), Transition("a", (), 1),
            Transition("g", (0,), 1), Transition("g", (1,), 2), Transition("g", (2,), 0),
            Transition("f", (1, 0, 2), 2), Transition("f", (2, 2, 2), 1),
            Transition("f", (0, 1, 1), 0),
        ]),
    )
    b_ftas = [
        generate(GenConfig(n=3, alphabet=Setting.B.alphabet, d2=d2, d0=0.6),
                 as_seed(seed).stream())
        for seed, d2 in ((1, 0.4), (3, 0.2), (6, 0.7))
    ]
    for fta, top in [(example_fta, 3), (ranks_fta, 2), *((b, 3) for b in b_ftas)]:
        for height in range(top + 1):
            fp = language_fingerprint(fta, height)
            trees = enumerate_trees(fta.alphabet, height)
            for t in trees:
                assert (t in fp) == accepts(fta, t)
        assert 0 < len(fp) < len(trees)


def _tree_count(alphabet: RankedAlphabet, height: int) -> int:
    count = 0
    for _ in range(height + 1):
        count = sum(count**rank for _, rank in alphabet.symbols)
    return count


@st.composite
def _automata(draw):
    """An automaton over ranks 0-3 with state ids up to 99, and a height whose
    enumeration stays small.  Any symbol may get no rules, finals may be empty
    and there may be no states at all."""
    ranks = {"a": 0}
    for name, top in (("b", 0), ("g", 1), ("s", 2), ("f", 3)):
        if draw(st.booleans()):
            ranks[name] = top
    alphabet = RankedAlphabet.of(**ranks)
    height = draw(st.integers(0, 3))
    while _tree_count(alphabet, height) > 400:
        height -= 1
    states = sorted(draw(st.sets(st.integers(0, 99), max_size=5)))
    finals = draw(st.sets(st.sampled_from(states))) if states else set()
    rules = set()
    if states:
        state = st.sampled_from(states)
        for name, rank in ranks.items():
            rules |= {Transition(name, args, target) for args, target in draw(st.lists(
                st.tuples(st.tuples(*[state] * rank), state), max_size=6))}
    return Fta(frozenset(states), alphabet, frozenset(finals), frozenset(rules)), height


_NO_STATES = Fta(frozenset(), RankedAlphabet.of(a=0, g=1, f=3), frozenset(), frozenset())


@settings(max_examples=150, deadline=None)
@given(_automata())
@example((_NO_STATES, 2))
def test_fingerprint_matches_accepts_on_random_automata(case):
    fta, height = case
    fp = language_fingerprint(fta, height)
    trees = enumerate_trees(fta.alphabet, height)
    assert fp <= set(trees)
    for t in trees:
        assert (t in fp) == accepts(fta, t)


def test_fingerprint_chunk_boundaries(monkeypatch, example_fta):
    # With 7-entry chunks every inner group is split into runs of one or two
    # rows (7 // max(rules, states)), so chunk boundaries fall inside groups.
    ranks_fta = Fta(
        frozenset({4, 9, 30}),
        RankedAlphabet.of(a=0, g=1, f=3),
        frozenset({30}),
        frozenset([
            Transition("a", (), 4), Transition("a", (), 9),
            Transition("g", (4,), 9), Transition("g", (9,), 30),
            Transition("f", (9, 4, 30), 30), Transition("f", (30, 30, 30), 9),
        ]),
    )
    cases = [(example_fta, 3), (ranks_fta, 2)]
    expected = [language_fingerprint(fta, height) for fta, height in cases]
    monkeypatch.setattr(core, "_EVAL_CHUNK", 7)
    for (fta, height), fp in zip(cases, expected):
        assert language_fingerprint(fta, height) == fp
        for t in enumerate_trees(fta.alphabet, height):
            assert (t in fp) == accepts(fta, t)
    assert 0 < len(expected[1]) < len(enumerate_trees(ranks_fta.alphabet, 2))


def test_enumeration_cache_survives_callers(example_fta, ab_alphabet):
    # The list is the caller's own: mutating it changes no later call.
    trees = enumerate_trees(ab_alphabet, 3)
    expected = list(trees)
    fp = language_fingerprint(example_fta, 3)
    trees.clear()
    assert enumerate_trees(ab_alphabet, 3) == expected
    assert language_fingerprint(example_fta, 3) == fp
    # Asking for h, then h + 1 (replacing the cached entry), then h again
    # gives what a fresh enumeration gives.
    asked = [language_fingerprint(example_fta, h) for h in (2, 3, 2)]
    fresh = []
    for h in (2, 3):
        core._enumerate.cache_clear()
        fresh.append(language_fingerprint(example_fta, h))
    assert asked == [fresh[0], fresh[1], fresh[0]]
    assert len(fresh[0]) < len(fresh[1])


def test_enumeration_guard_builds_and_caches_nothing(monkeypatch, ab_alphabet):
    core._enumerate.cache_clear()
    monkeypatch.setattr(core, "Tree", None)  # building a tree would raise
    for height, error in ((6, ConfigError), (-1, InputError)):
        with pytest.raises(error):
            enumerate_trees(ab_alphabet, height)
    assert core._enumerate.cache_info().currsize == 0


def _random_fta(seed: int, n: int = 4, d2: float = 0.3) -> Fta:
    config = GenConfig(n=n, alphabet=Setting.A.alphabet, d2=d2, d0=0.6)
    return generate(config, as_seed(seed).stream())


def test_evaluate_recursion_identity():
    # evaluate(sigma(t1, t2)) == sigma_bar(evaluate(t1), evaluate(t2))
    fta = _random_fta(11)
    trees = enumerate_trees(fta.alphabet, 2)
    for t1 in trees:
        for t2 in trees[:3]:
            combined = Tree.of("sigma", t1, t2)
            assert evaluate(fta, combined) == sigma_bar(
                fta, "sigma", (evaluate(fta, t1), evaluate(fta, t2))
            )


def test_deterministic_evaluate_is_singleton(ab_alphabet):
    det = Fta(
        frozenset({1, 2}),
        ab_alphabet,
        frozenset({2}),
        frozenset([Transition("alpha", (), 1), Transition("sigma", (1, 1), 2)]),
    )
    for t in enumerate_trees(ab_alphabet, 3):
        assert len(evaluate(det, t)) <= 1


def test_sigma_bar_monotone():
    rng = np.random.Generator(np.random.PCG64(7))
    fta = _random_fta(23)
    universe = sorted(fta.states)
    for _ in range(50):
        pick = lambda: frozenset(q for q in universe if rng.random() < 0.5)
        q1, q2 = pick(), pick()
        q1_big = q1 | pick()
        q2_big = q2 | pick()
        small = sigma_bar(fta, "sigma", (q1, q2))
        big = sigma_bar(fta, "sigma", (q1_big, q2_big))
        assert small | big == big
