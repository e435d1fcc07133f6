"""Property tests for the witness search on larger groups (needs Hypothesis)."""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from coxsph import coxeter_system, evaluate, find_witness, verify_witness
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


@st.composite
def recount_queries(draw):
    """A word of length n <= 20 of E6, B5, D5 or I2(m), 4 <= m <= 40, its
    element w and a subset I of J(w). Half the words are random letters;
    the other half are reduced, each letter drawn among the ascents so far
    (stopping early at w0)."""
    name = draw(
        st.one_of(
            st.sampled_from(("E6", "B5", "D5")),
            st.integers(4, 40).map(lambda m: f"I2({m})"),
        )
    )
    system = coxeter_system(name)
    n = draw(st.integers(0, 20))
    if draw(st.booleans()):
        word = draw(st.lists(st.integers(1, system.rank), min_size=n, max_size=n))
    else:
        w, word = system.identity, []
        for _ in range(n):
            down = system.right_descents(w)
            up = [i for i in range(1, system.rank + 1) if i not in down]
            if not up:
                break
            word.append(draw(st.sampled_from(up)))
            w = system.step(w, word[-1])
    w = evaluate(system, word)
    J = sorted(system.left_descents(w))
    I = draw(st.sets(st.sampled_from(J))) if J else set()
    return system, w, frozenset(I), tuple(word)


def _reference_recount(system, w, I, word):
    """(S.1) node by node, then (S.2) component by component."""
    if len(word) != w.length or evaluate(system, word) != w:
        return False
    for j in range(1, system.rank + 1):
        if j not in I and word.count(j) > 1:
            return False
    decomp = system.decompose_subset(I)
    return all(
        sum(word.count(j) for j in comp) <= budget
        for comp, budget in zip(decomp.components, decomp.budgets)
    )


@_SETTINGS
@given(recount_queries())
def test_verify_witness_matches_a_reference_recount(query):
    """The recount agrees for every K inside J(w) on the drawn word, on
    `w.word()` and on the witness; the certificate respects every budget."""
    system, w, I, word = query
    cert = find_witness(system, w, I)
    words = [word, w.word()] + ([] if cert is None else [cert.word])
    J = sorted(system.left_descents(w))
    for K in itertools.chain.from_iterable(
        itertools.combinations(J, r) for r in range(len(J) + 1)
    ):
        for letters in words:
            assert verify_witness(system, w, K, letters) == _reference_recount(
                system, w, frozenset(K), letters
            ), (K, letters)
    if cert is not None:
        assert _reference_recount(system, w, I, cert.word)
        assert cert.per_node_counts == {j: cert.word.count(j) for j in set(cert.word)}
        decomp = system.decompose_subset(I)
        assert list(cert.per_component_counts) == list(decomp.components)
        for comp, budget in zip(decomp.components, decomp.budgets):
            assert cert.per_component_counts[comp] == sum(
                cert.word.count(j) for j in comp
            )
            assert cert.per_component_counts[comp] <= budget
