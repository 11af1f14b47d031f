import pytest
from hypothesis import given, strategies as st

from surface_qp.words import (Word, free_reduce, generator_endpoints,
                              generator_symbols, invert, mu1_letters)

letters = st.lists(
    st.tuples(st.sampled_from(["C1", "D1"]), st.sampled_from([1, -1])),
    max_size=12).map(tuple)


@given(letters)
def test_free_reduce_idempotent(ls):
    once = free_reduce(ls)
    assert free_reduce(once) == tuple(once)


@given(letters)
def test_reduce_word_times_inverse_is_trivial(ls):
    assert free_reduce(tuple(ls) + tuple(invert(ls))) == ()


@given(letters)
def test_invert_is_involution(ls):
    assert tuple(invert(invert(ls))) == tuple(ls)


def test_generator_symbols():
    assert generator_symbols(0, 2) == ["A2", "B2"]
    assert generator_symbols(1, 1) == ["C1", "D1"]
    assert generator_symbols(1, 2) == ["A2", "B2", "C1", "D1"]


def test_generator_endpoints():
    assert generator_endpoints("A3") == (1, 3)
    assert generator_endpoints("B2") == (2, 2)
    assert generator_endpoints("C1") == (1, 1)


def test_word_endpoints_compose():
    w = Word.from_string("A2 B2", 0, 2)
    assert (w.source, w.target) == (1, 2)
    w2 = Word.from_string("B2' A2'", 0, 2)
    assert w.concat(w2).letters == ()


def test_non_composable_rejected():
    with pytest.raises(ValueError):
        Word.from_string("A2 A3", 0, 3)


@pytest.mark.parametrize("text", ["A5", "C3 D3", "A2 B3"])
def test_generator_off_surface_rejected(text):
    with pytest.raises(ValueError, match="not on the surface"):
        Word.from_string(text, 0, 2)


def test_b1_expands_to_mu1_inverse():
    w = Word.from_string("B1", 1, 2)
    mu1 = Word.make(mu1_letters(1, 2), 1, 2)
    assert w.concat(mu1).letters == ()
    assert (w.source, w.target) == (1, 1)


def test_inverse_string_forms_agree():
    assert (Word.from_string("C1^-1 D1", 1, 1).letters
            == Word.from_string("C1' D1", 1, 1).letters)


def test_word_inverse_swaps_endpoints():
    w = Word.from_string("A2 B2", 0, 2)
    wi = w.inverse()
    assert (wi.source, wi.target) == (2, 1)
    assert w.concat(wi).letters == ()
