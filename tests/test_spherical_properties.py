"""Property tests for the witness search on larger groups (needs Hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from coxsph import coxeter_system, evaluate, verify_witness
from coxsph.spherical import WitnessSearcher

_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def monotone_queries(draw):
    """An element of B5, E6 or E7 from a random word, I inside J(w), j in J(w) - I."""
    system = coxeter_system(draw(st.sampled_from(("B5", "E6", "E7"))))
    word = draw(st.lists(st.integers(1, system.rank), max_size=24))
    w = evaluate(system, word)
    J = sorted(system.left_descents(w))
    assume(J)
    j = draw(st.sampled_from(J))
    I = draw(st.sets(st.sampled_from(J))) - {j}
    return system, w, frozenset(I), j


@_SETTINGS
@given(monotone_queries())
def test_search_is_monotone_in_I(query):
    system, w, I, j = query
    word = WitnessSearcher(system, I).search(w)
    if word is not None:
        assert verify_witness(system, w, I | {j}, word)
        assert WitnessSearcher(system, I | {j}).search(w) is not None
