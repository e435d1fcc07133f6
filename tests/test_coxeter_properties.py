"""Group axioms and the generator step on random words (needs Hypothesis).

B5, E6 and E7 store the images of the simple roots and I2(m) the dihedral
normal form, so every property runs on both element representations. Examples are
drawn as words, and each assertion reads only plain values: an Element's
repr spells a reduced word through `word()`, so reporting a failure must
not need a working `word()`.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from coxsph import CoxeterError, coxeter_system, evaluate

_SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)

NAMES = st.one_of(
    st.sampled_from(("B5", "E6", "E7")),
    st.integers(4, 40).map(lambda m: f"I2({m})"),
)


@st.composite
def word_triples(draw):
    """A Cartan type and three random words in its generators."""
    name = draw(NAMES)
    words = st.lists(st.integers(1, coxeter_system(name).rank), max_size=30)
    return name, draw(words), draw(words), draw(words)


@_SETTINGS
@given(word_triples())
def test_group_axioms(triple):
    name, *words = triple
    system = coxeter_system(name)
    u, v, w = (evaluate(system, word) for word in words)
    mul, inv = system.multiply, system.inverse
    assoc = mul(mul(u, v), w).rep, mul(u, mul(v, w)).rep
    assert assoc[0] == assoc[1]
    e = system.identity.rep
    right, left = mul(w, inv(w)).rep, mul(inv(w), w).rep
    assert right == e and left == e
    lengths = system.length(inv(w)), system.length(w)
    assert lengths[0] == lengths[1]


@_SETTINGS
@given(word_triples())
def test_step_is_the_generator_product_with_its_length(triple):
    name, word = triple[:2]
    system = coxeter_system(name)
    w = evaluate(system, word)
    lw, fresh = w.length, system.length(w)
    assert lw == fresh
    for i in range(1, system.rank + 1):
        s = system.generator(i)
        for left, product, descents in (
            (False, system.multiply(w, s), system.right_descents(w)),
            (True, system.multiply(s, w), system.left_descents(w)),
        ):
            v = system.step(w, i, left=left)
            got, want = v.rep, product.rep
            assert got == want, (i, left)
            recorded, fresh = v._length, system.length(product)
            assert recorded == fresh, (i, left)
            assert (recorded == lw - 1) == (i in descents), (i, left)
            assert abs(recorded - lw) == 1, (i, left)


@_SETTINGS
@given(
    st.sampled_from(("B5", "E7", "E8")).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.lists(st.integers(1, coxeter_system(name).rank), max_size=60),
        )
    )
)
def test_word_spells_the_element_in_length_letters(pair):
    name, word = pair
    system = coxeter_system(name)
    w = evaluate(system, word)
    reduced = w.word()
    assert len(reduced) == w.length
    assert evaluate(system, reduced).rep == w.rep


def _step_by_step(system, letters):
    """The evaluation `product` replaced, kept as its reference: one `step`,
    and one `Element`, per letter."""
    w = system.identity
    for i in letters:
        w = system.step(w, i)
    return w


def _outcome(evaluate_word, system, word):
    """(rep, carried length) of the word, or the error's message with the
    letters left unread after the letter that raised it."""
    letters = iter(word)
    try:
        w = evaluate_word(system, letters)
    except CoxeterError as exc:
        return str(exc), list(letters)
    return w.rep, w._length


EVALUATED = st.one_of(
    st.sampled_from(
        [f"A{n}" for n in range(1, 10)] + [f"B{n}" for n in range(2, 9)]
        + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"]
    ),
    st.integers(4, 40).map(lambda m: f"I2({m})"),
)


@st.composite
def words_to_evaluate(draw):
    """A Cartan type and a word; half the words may hold letters 0, -1 or
    rank + 1, which every evaluation must reject."""
    name = draw(EVALUATED)
    rank = coxeter_system(name).rank
    letter = st.integers(1, rank)
    if draw(st.booleans()):
        letter = st.one_of(letter, letter, letter, st.sampled_from((0, -1, rank + 1)))
    return name, draw(st.lists(letter, max_size=40))


@_SETTINGS
@given(words_to_evaluate())
@example(("E8", []))
@example(("I2(7)", []))
def test_product_matches_the_step_by_step_reference(pair):
    """`evaluate` gives the reference's rep and length on the word and on a
    reduced word of its element (the empty word included), and the same
    CoxeterError at the same letter on words with a letter out of range."""
    name, word = pair
    system = coxeter_system(name)
    got, want = _outcome(evaluate, system, word), _outcome(_step_by_step, system, word)
    assert got == want
    if isinstance(want[0], str):
        return
    reduced = _step_by_step(system, word).word()
    assert _outcome(evaluate, system, reduced) == _outcome(_step_by_step, system, reduced)
    assert len(reduced) == want[1]
