import itertools

import pytest

from coxsph import CoxeterError, coxeter_system, evaluate, is_I_spherical
from coxsph import typea as ta
from coxsph.spherical import WitnessSearcher

from golden_data import S5_NONSPHERICAL


def s_n(n):
    line = list(range(1, n + 1))
    out = []
    for perm in itertools.permutations(line):
        out.append(perm)
    return out


def test_parsing():
    assert ta.parse_permutation("24531") == (2, 4, 5, 3, 1)
    assert ta.parse_permutation("10,2,3,4,5,6,7,8,9,1")[0] == 10
    assert ta.parse_composition("(1,5,2,4,3)") == (1, 5, 2, 4, 3)
    assert ta.parse_composition("()") == ()
    assert ta.parse_composition("1,2") == (1, 2)
    for text in ("((1,2)", "(1,2))", "(1,2", "1,2)", "(1)(2)", "("):
        with pytest.raises(CoxeterError, match="mismatched parentheses"):
            ta.parse_composition(text)
    with pytest.raises(CoxeterError):
        ta.parse_permutation("1224")


def test_code_examples():
    assert ta.code((1, 2, 3, 4)) == (0, 0, 0, 0)
    assert ta.code((3, 4, 1, 2)) == (2, 2, 0, 0)
    assert ta.code((2, 4, 5, 3, 1)) == (1, 2, 2, 1, 0)


def test_perm_from_code_examples():
    assert ta.perm_from_code((0, 0, 0, 2, 1)) == (1, 2, 3, 6, 5, 4, 7)
    assert ta.perm_from_code(()) == ()
    assert ta.perm_from_code((2, 2, 0, 0)) == (3, 4, 1, 2, 5, 6)


def test_code_roundtrips_s6():
    for line in s_n(6):
        c = ta.code(line)
        assert sum(c) == ta.inversions(line) == len(ta.rothe_diagram(line))
        assert ta.perm_from_code(c)[: len(line)] == line


def test_code_roundtrip_from_compositions():
    for length in (4, 5):
        for alpha in itertools.product(range(5), repeat=length):
            w = ta.perm_from_code(alpha)
            assert ta.code(w)[: len(alpha)] == alpha


def test_rothe_diagram_examples():
    assert ta.rothe_diagram((1, 2, 3)) == set()
    assert ta.rothe_diagram((3, 4, 1, 2)) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    # single-row and rectangle families
    w = ta.perm_from_code((0, 0, 3, 0))
    cells = ta.rothe_diagram(w)
    assert {r for r, _ in cells} == {3} and len(cells) == 3
    w = ta.perm_from_code((0, 2, 2, 0))
    cells = ta.rothe_diagram(w)
    rows = {r for r, _ in cells}
    cols = {c for _, c in cells}
    assert cells == {(r, c) for r in rows for c in cols}  # full rectangle
    assert (len(rows), len(cols)) == (2, 2)


def test_canonical_word_examples():
    assert ta.canonical_word((3, 4, 2, 1)) == (2, 1, 3, 2, 3)
    # code (0^f, b, 0^g): the word runs s_(f+b) down to s_(f+1)
    w = ta.perm_from_code((0, 0, 3))
    assert ta.canonical_word(w) == (5, 4, 3)
    # code (0^f, 2^2, 0^g) with f = 1
    w = ta.perm_from_code((0, 2, 2))
    assert ta.canonical_word(w) == (3, 2, 4, 3)


def test_canonical_word_reduced_everywhere_s6():
    a5 = coxeter_system("A5")
    for line in s_n(6):
        word = ta.canonical_word(line)
        w = evaluate(a5, word)
        assert w.length == len(word) == ta.inversions(line)
        assert ta.element_to_perm(a5, w) == line


@pytest.mark.parametrize(
    "n", [2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)]
)
def test_element_to_perm_matches_reduced_word_replay(n):
    system = coxeter_system(f"A{n - 1}")
    for w in system.elements():
        assert ta.element_to_perm(system, w) == ta.apply_word(n, w.word())


def test_perm_patterns():
    assert not ta.contains_perm_pattern((2, 4, 5, 3, 1), (3, 4, 1, 2))
    assert not ta.contains_perm_pattern((2, 4, 5, 3, 1), (4, 2, 3, 1))
    assert ta.contains_perm_pattern((5, 3, 2, 4, 1), (3, 2, 1))
    assert ta.contains_perm_pattern((1,), (1,))
    assert not ta.contains_perm_pattern((1, 2), (2, 1))


def test_bigrassmannian_detection_and_rule():
    assert ta.is_bigrassmannian((3, 4, 1, 2))
    assert ta.bigrassmannian_spherical((3, 4, 1, 2))
    assert not ta.is_bigrassmannian((1, 4, 3, 2))
    rect23 = ta.perm_from_code((0, 3, 3, 0, 0))
    assert ta.is_bigrassmannian(rect23)
    assert not ta.bigrassmannian_spherical(rect23)
    with pytest.raises(CoxeterError):
        ta.bigrassmannian_spherical((1, 4, 3, 2))


def test_bigrassmannian_rule_matches_search_s7():
    a6 = coxeter_system("A6")
    searchers = {}
    count = 0
    for line in s_n(7):
        if not ta.is_bigrassmannian(line):
            continue
        count += 1
        w = ta.perm_to_element(a6, line)
        J = a6.left_descents(w)
        if J not in searchers:
            searchers[J] = WitnessSearcher(a6, J)
        assert (searchers[J].search(w) is not None) == ta.bigrassmannian_spherical(line)
    assert count > 30


def test_act_on_composition():
    assert ta.act_on_composition((2, 4, 5, 3, 1), (5, 4, 3, 2, 1)) == (1, 5, 2, 4, 3)
    assert ta.act_on_composition((1, 2, 3), (7, 5, 2)) == (7, 5, 2)
    assert ta.act_on_composition((3, 2, 1), (3, 1, 0)) == (0, 1, 3)


def test_composition_patterns():
    assert ta.contains_comp_pattern((3, 1, 4, 2, 2), (0, 1, 1))
    assert not ta.contains_comp_pattern((3, 1, 4, 2, 2), (0, 2, 2))
    alpha = (2, 0, 3, 1)
    assert ta.contains_comp_pattern(alpha, alpha)


def test_km_avoidance():
    assert ta.avoids_km((0, 0, 1, 1))
    assert not ta.avoids_km((0, 1, 2))
    assert not ta.avoids_km((1, 5, 2, 4, 3))
    assert ta.avoids_km(())
    assert ta.avoids_km((4, 4, 4))


def test_distinct_letter_words_match_pattern_avoidance_s6():
    """Avoiding 321 and 3412 matches having a distinct-letter reduced word."""
    a5 = coxeter_system("A5")
    for line in s_n(6):
        avoids = not ta.contains_perm_pattern(line, (3, 2, 1)) and not (
            ta.contains_perm_pattern(line, (3, 4, 1, 2))
        )
        w = ta.perm_to_element(a5, line)
        assert avoids == is_I_spherical(a5, w, ())


def test_smoothness_marker_for_24531():
    line = (2, 4, 5, 3, 1)
    assert not ta.contains_perm_pattern(line, (3, 4, 1, 2))
    assert not ta.contains_perm_pattern(line, (4, 2, 3, 1))


def test_nonspherical_s5_contain_321_or_3412():
    for text in S5_NONSPHERICAL:
        line = ta.parse_permutation(text)
        assert ta.contains_perm_pattern(line, (3, 2, 1)) or ta.contains_perm_pattern(
            line, (3, 4, 1, 2)
        )


def test_left_descents_one_line():
    assert ta.left_descents((3, 5, 2, 4, 6, 7, 8, 1)) == (1, 2, 4)
    assert ta.left_descents((2, 4, 5, 3, 1)) == (1, 3)
    a4 = coxeter_system("A4")
    for line in s_n(5):
        w = ta.perm_to_element(a4, line)
        assert frozenset(ta.left_descents(line)) == a4.left_descents(w)
