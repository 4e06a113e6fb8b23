"""Word grammar, canonical rendering, and the composition group law."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspoly.raysystem import (Word, compose_words, parse_letter, parse_word,
                              render_word)


def test_parse_compact_and_spaced_forms():
    assert parse_word("abegkri'") == parse_word("a b e g k r i'")
    assert parse_word("a1c1d1h1m1") == parse_word("a1 c1 d1 h1 m1")


def test_prime_index_normalisation():
    assert parse_word("e'_2") == parse_word("e'2")
    assert parse_word("e′2") == parse_word("e'2")


def test_render_is_canonical():
    assert render_word(parse_word("m1 a1 c1 h1 d1")) == "a1 c1 d1 h1 m1"
    # unprimed letters come before primed, regardless of alphabet position
    assert render_word(parse_word("i' a b e g k r")) == "a b e g k r i'"
    assert render_word(parse_word("d'1 b2 z3 b'1")) == "b2 z3 b'1 d'1"


def test_roundtrip_identity():
    for text in ("", "a", "a b e g k r i'", "a1 c1 d1 h1 m1", "b2 z3 b'1"):
        w = parse_word(text)
        assert parse_word(render_word(w)) == w


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("600cell", "120cell", "gosset")), st.data())
def test_roundtrip_property(polytopes, name, data):
    """Rendering then parsing gives back any subset of a polytope's
    generator letters."""
    _, gens, *_rest = polytopes[name]
    letters = data.draw(st.frozensets(st.sampled_from(
        [g.label for g in gens])))
    w = Word(letters)
    assert parse_word(render_word(w)) == w


def test_empty_word():
    assert parse_word("") == Word(frozenset())
    assert len(parse_word("   ")) == 0


def test_malformed_tokens_rejected():
    with pytest.raises(ValueError):
        parse_word("A")
    with pytest.raises(ValueError):
        parse_word("1a")
    with pytest.raises(ValueError):
        parse_word("a''")


def test_duplicate_letters_rejected():
    with pytest.raises(ValueError):
        parse_word("a a")
    with pytest.raises(ValueError):
        parse_word("aa")


def test_letter_order_key():
    order = sorted(["b", "a'", "a", "a2", "a10", "b'"], key=parse_letter)
    assert order == ["a", "a2", "a10", "b", "a'", "b'"]


def test_compose_symmetric_difference():
    u = parse_word("abdekr")
    v = parse_word("dgji'")
    w = compose_words(u, v)
    assert render_word(w) == "a b e g j k r i'"
    assert render_word(compose_words(w, parse_word("j"))) == "a b e g k r i'"


def test_compose_self_inverse_and_identity():
    w = parse_word("a1 c1 d1")
    empty = parse_word("")
    assert compose_words(w, w) == Word(frozenset())
    assert compose_words(w, empty) == w


def test_group_laws_random(polytopes):
    rng = random.Random(20240831)
    empty = Word(frozenset())
    for name, (_, gens, *_rest) in polytopes.items():
        labels = [g.label for g in gens]
        for _ in range(1000):
            u = Word(frozenset(rng.sample(labels, rng.randrange(len(labels)))))
            v = Word(frozenset(rng.sample(labels, rng.randrange(len(labels)))))
            t = Word(frozenset(rng.sample(labels, rng.randrange(len(labels)))))
            assert compose_words(u, v) == compose_words(v, u)
            assert (compose_words(compose_words(u, v), t)
                    == compose_words(u, compose_words(v, t)))
            assert compose_words(u, u) == empty
            assert compose_words(u, empty) == u
