"""Parse/format round trips for words, permutations and compositions (needs Hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from coxsph.typea import format_permutation, parse_composition, parse_permutation
from coxsph.words import format_word, parse_word

_SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@_SETTINGS
@given(st.lists(st.integers(1, 30), max_size=10).map(tuple))
def test_word_round_trip(word):
    # the empty word is written as <id>
    assert parse_word(format_word(word)) == word


def _f_string_word(letters):
    """The formatting `format_word` replaced, kept as its reference: one
    f-string per letter."""
    return " ".join(f"s{i}" for i in letters) if letters else "<id>"


@_SETTINGS
@given(
    st.lists(
        st.one_of(
            st.integers(0, 120),
            st.integers(-150, -1),
            st.sampled_from((-100, -1, 0, 99, 100, 101)),
            st.integers(),
        ),
        max_size=12,
    ).map(tuple)
)
def test_format_word_matches_the_f_string_reference(word):
    """The table of letter names gives the f-string's text for every integer
    letter: inside the table, past it and negative."""
    assert format_word(word) == _f_string_word(word)
    assert format_word(iter(word)) == _f_string_word(iter(word))


@_SETTINGS
@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_permutation_round_trip(perm):
    # digits up to n = 9, comma-separated from n = 10
    perm = tuple(perm)
    assert parse_permutation(format_permutation(perm)) == perm


@_SETTINGS
@given(st.lists(st.integers(0, 20), max_size=8).map(tuple))
def test_composition_round_trip(alpha):
    bare = ",".join(map(str, alpha))
    assert parse_composition(f"({bare})") == alpha
    assert parse_composition(bare) == alpha
