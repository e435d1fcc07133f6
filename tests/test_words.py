import itertools

import pytest

from coxsph import (
    CoxeterError,
    bruhat_leq,
    coxeter_system,
    evaluate,
    format_word,
    parse_word,
    reduced_word_count,
    reduced_words,
)
from coxsph.typea import element_to_perm, perm_to_element

from golden_data import E8_WORD_NOT_WITNESS


def test_parse_and_format():
    assert parse_word("s2 s3 s4") == (2, 3, 4)
    assert parse_word("2 3 4") == (2, 3, 4)
    assert parse_word(format_word(())) == ()
    assert parse_word("S2 s3 4") == (2, 3, 4)
    with pytest.raises(CoxeterError):
        parse_word("s2 xx")


@pytest.mark.parametrize(
    "text, named",
    [
        ("s1 s", "bad word letter '' in 's'"),
        ("ss1 S2", "bad word letter 's1' in 'ss1'"),
        ("s1 SS2", "bad word letter 'S2' in 'SS2'"),
        ("s1 s-2", "bad word letter '-2' in 's-2'"),
    ],
)
def test_parse_word_takes_one_leading_s_and_names_the_token(text, named):
    with pytest.raises(CoxeterError) as exc:
        parse_word(text)
    assert str(exc.value) == named


def test_evaluate_examples():
    a4 = coxeter_system("A4")
    assert evaluate(a4, ()) == a4.identity
    w = evaluate(a4, parse_word("s3 s1 s2 s3 s4 s3"))
    assert element_to_perm(a4, w) == (2, 4, 5, 3, 1)
    a3 = coxeter_system("A3")
    assert element_to_perm(a3, evaluate(a3, parse_word("s2 s1 s3 s2"))) == (3, 4, 1, 2)
    with pytest.raises(CoxeterError):
        evaluate(a3, (9,))


@pytest.mark.parametrize("name, rank", [("A3", 3), ("B3", 3), ("I2(5)", 2)])
@pytest.mark.parametrize("letter", [0, -1])
def test_evaluate_rejects_letters_below_one(name, rank, letter):
    system = coxeter_system(name)
    with pytest.raises(CoxeterError, match=f"generator index {letter} out of range 1..{rank}"):
        evaluate(system, (letter,))
    with pytest.raises(CoxeterError, match=f"generator index {letter} out of range"):
        system.step(system.identity, letter, left=True)


def test_is_reduced():
    """A word is reduced iff its product has the word's length."""
    a2 = coxeter_system("A2")
    assert evaluate(a2, (1, 1)).length != 2
    assert evaluate(a2, (1, 2, 1)).length == 3
    e8 = coxeter_system("E8")
    word = parse_word(E8_WORD_NOT_WITNESS)
    assert evaluate(e8, word).length == len(word)


def test_reduced_word_counts():
    a3 = coxeter_system("A3")
    w0 = a3.longest_element()
    assert reduced_word_count(a3, w0) == 16
    f4 = coxeter_system("F4")
    wp = evaluate(f4, parse_word("s1 s2 s3 s2 s4 s3 s2 s3 s4"))
    assert reduced_word_count(f4, wp) == 25
    assert reduced_word_count(a3, a3.identity) == 1
    assert list(reduced_words(a3, a3.identity)) == [()]


def test_reduced_words_of_a_long_dihedral_element():
    """l(w0) = 1500 levels: no recursion limit on either function."""
    i2 = coxeter_system("I2(1500)")
    w0 = i2.longest_element()
    assert reduced_word_count(i2, w0) == 2
    got = list(reduced_words(i2, w0))
    assert got == [(1, 2) * 750, (2, 1) * 750]


def test_reduced_words_complete_and_lexicographic():
    b3 = coxeter_system("B3")
    for w in b3.elements():
        if w.length > 6:
            continue
        got = list(reduced_words(b3, w))
        assert got == sorted(got)
        assert len(got) == len(set(got)) == reduced_word_count(b3, w)
        for word in got:
            assert len(word) == w.length
            assert evaluate(b3, word) == w


def test_total_reduced_words_match_brute_force():
    a3 = coxeter_system("A3")
    by_recursion = sum(reduced_word_count(a3, w) for w in a3.elements())
    brute = 0
    for length in range(0, 7):
        for word in itertools.product((1, 2, 3), repeat=length):
            if evaluate(a3, word).length == len(word):
                brute += 1
    assert by_recursion == brute


def _brute_subword_leq(system, u, v):
    """Some reduced word of v contains a reduced word of u as a subword."""
    fixed = next(reduced_words(system, v))

    def embed(target, idx):
        if target.length == 0:
            return True
        if len(fixed) - idx < target.length:
            return False
        j = fixed[idx]
        if j in system.left_descents(target):
            if embed(system.multiply(system.generator(j), target), idx + 1):
                return True
        return embed(target, idx + 1)

    return embed(u, 0)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_bruhat_matches_subword_property(name):
    system = coxeter_system(name)
    elements = system.elements()
    for u in elements:
        for v in elements:
            assert bruhat_leq(system, u, v) == _brute_subword_leq(system, u, v)


def test_bruhat_order_axioms():
    a3 = coxeter_system("A3")
    elements = a3.elements()
    w0 = a3.longest_element()
    leq = {(u.rep, v.rep): bruhat_leq(a3, u, v) for u in elements for v in elements}
    for u in elements:
        assert leq[(u.rep, u.rep)]
        assert bruhat_leq(a3, a3.identity, u)
        assert bruhat_leq(a3, u, w0)
        for v in elements:
            if leq[(u.rep, v.rep)]:
                assert u.length <= v.length
                if leq[(v.rep, u.rep)]:
                    assert u == v
                for t in elements:
                    if leq[(v.rep, t.rep)]:
                        assert leq[(u.rep, t.rep)]


def test_bruhat_3412_leq_4321():
    a3 = coxeter_system("A3")
    u = perm_to_element(a3, (3, 4, 1, 2))
    v = perm_to_element(a3, (4, 3, 2, 1))
    assert bruhat_leq(a3, u, v)
    assert not bruhat_leq(a3, v, u)


def test_bruhat_deep_dihedral_needs_no_recursion():
    """One loop step per length level: l(w0) = 1500 stays far from any limit."""
    big = coxeter_system("I2(1500)")
    w0 = big.longest_element()
    below = big.multiply(w0, big.generator(1))
    assert bruhat_leq(big, below, w0)
    assert not bruhat_leq(big, w0, below)


def test_evaluate_builds_one_element_per_word(monkeypatch):
    """A word is evaluated on the images of the simple roots, letter by
    letter: one `Element` for the whole word, not one per letter."""
    from coxsph.coxeter import Element

    system = coxeter_system("E8")
    letters = parse_word(E8_WORD_NOT_WITNESS)
    assert len(letters) == 19
    made = 0
    init = Element.__init__

    def counting(self, *args):
        nonlocal made
        made += 1
        init(self, *args)

    monkeypatch.setattr(Element, "__init__", counting)
    w = evaluate(system, letters)
    assert made == 1
    assert w._length == 19 == len(w.word())
