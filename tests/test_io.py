"""Document format: parsing, formatting, round trips, positioned errors."""

from __future__ import annotations

import pytest

from ftakit import (
    Fta,
    GenConfig,
    ParseError,
    RankedAlphabet,
    Setting,
    Transition,
    as_seed,
    format_fta,
    generate,
    parse_fta,
)
from ftakit import core


def test_parse_example_document(example_doc, example_fta):
    parsed = parse_fta(example_doc)
    assert parsed == example_fta


def test_format_example_has_six_rules(example_fta):
    text = format_fta(example_fta)
    rule_lines = [l for l in text.strip().split("\n")[3:]]
    assert len(rule_lines) == 6
    assert text.startswith("states 0 1 2 3\nfinals 3\nalphabet alpha:0 sigma:2\n")
    assert text.endswith("\n")


def test_round_trip_canonicalizes(example_doc):
    text = format_fta(parse_fta(example_doc))
    assert parse_fta(text) == parse_fta(example_doc)
    assert format_fta(parse_fta(text)) == text


def test_comments_and_blank_lines():
    doc = (
        "# a comment\n"
        "\n"
        "states 1  # trailing comment\n"
        "finals 1\n"
        "alphabet alpha:0\n"
        "\n"
        "alpha -> 1\n"
    )
    fta = parse_fta(doc)
    assert fta.states == {1} and fta.finals == {1}
    assert len(fta.transitions) == 1


def test_empty_transition_section():
    fta = parse_fta("states 1 2\nfinals\nalphabet alpha:0 sigma:2\n")
    assert not fta.transitions
    assert not fta.finals


def test_header_comments_kwarg(example_fta):
    text = format_fta(example_fta, comments=["hello", "world"])
    assert text.startswith("# hello\n# world\n")
    assert parse_fta(text) == example_fta


def test_parse_arity_error_positions():
    doc = "states 1 2\nfinals 2\nalphabet alpha:0 sigma:2\nsigma(1) -> 2\n"
    with pytest.raises(ParseError) as info:
        parse_fta(doc)
    assert "rank" in str(info.value)
    assert info.value.line == 4


def test_parse_undeclared_state():
    doc = "states 1\nfinals 1\nalphabet alpha:0\nalpha -> 5\n"
    with pytest.raises(ParseError) as info:
        parse_fta(doc)
    assert "not declared" in str(info.value)


def test_parse_duplicate_rule():
    doc = "states 1\nfinals 1\nalphabet alpha:0\nalpha -> 1\nalpha -> 1\n"
    with pytest.raises(ParseError) as info:
        parse_fta(doc)
    assert "duplicate" in str(info.value)
    assert info.value.line == 5


def test_parse_unknown_symbol():
    doc = "states 1\nfinals 1\nalphabet alpha:0\nbeta -> 1\n"
    with pytest.raises(ParseError):
        parse_fta(doc)


def test_parse_bad_header_order():
    with pytest.raises(ParseError):
        parse_fta("finals 1\nstates 1\nalphabet alpha:0\n")
    with pytest.raises(ParseError):
        parse_fta("states 1\nfinals 1\n")


def test_parse_duplicate_state_declaration():
    with pytest.raises(ParseError):
        parse_fta("states 1 1\nfinals\nalphabet alpha:0\n")


def test_parse_duplicate_alphabet_entry():
    doc = "states 1\nfinals 1\nalphabet alpha:0 alpha:0 sigma:2\nalpha -> 1\n"
    with pytest.raises(ParseError, match="duplicate alphabet entry") as info:
        parse_fta(doc)
    assert info.value.line == 3
    # A repeated name with another rank is rejected on the same line.
    with pytest.raises(ParseError, match="duplicate symbol name 'alpha'") as info:
        parse_fta(doc.replace("alpha:0 alpha:0", "alpha:0 alpha:2"))
    assert info.value.line == 3


def test_parse_state_id_out_of_range():
    for states in ("-1 2", str(core.MAX_STATE_ID + 1)):
        doc = f"# ids\nstates {states}\nfinals\nalphabet alpha:0\n"
        with pytest.raises(ParseError, match="out of range") as info:
            parse_fta(doc)
        assert info.value.line == 2
    top = parse_fta(f"states 0 {core.MAX_STATE_ID}\nfinals\nalphabet alpha:0\n")
    assert top.states == {0, core.MAX_STATE_ID}


def test_parse_final_not_declared():
    with pytest.raises(ParseError):
        parse_fta("states 1\nfinals 2\nalphabet alpha:0\n")


def test_parse_garbage_rule_line():
    doc = "states 1\nfinals 1\nalphabet alpha:0\nalpha 1\n"
    with pytest.raises(ParseError) as info:
        parse_fta(doc)
    assert info.value.line == 4


def test_general_rank_round_trip():
    alph = RankedAlphabet.of(a=0, g=1, f=3)
    fta = Fta(
        states=frozenset({1, 2}),
        alphabet=alph,
        finals=frozenset({2}),
        transitions=frozenset([
            Transition("a", (), 1),
            Transition("g", (1,), 2),
            Transition("f", (1, 2, 1), 2),
        ]),
    )
    assert parse_fta(format_fta(fta)) == fta


def test_round_trip_random_automata():
    seed = as_seed(404)
    for case in range(1000):
        rng = seed.stream(case)
        n = int(rng.integers(1, 7))
        setting = Setting.A if case % 2 else Setting.B
        config = GenConfig(n=n, alphabet=setting.alphabet,
                           d2=float(rng.uniform(0, 1)),
                           d0=float(rng.uniform(0, 1)))
        fta = generate(config, rng)
        assert parse_fta(format_fta(fta)) == fta
