import random

import pytest

from coxsph import (
    CartanType,
    CoxeterError,
    coxeter_system,
    evaluate,
    parse_word,
    reduced_words,
)


@pytest.mark.parametrize(
    "name,nroots",
    [("A3", 6), ("B3", 9), ("D4", 12), ("E6", 36), ("E7", 63), ("E8", 120),
     ("F4", 24), ("G2", 6)],
)
def test_positive_root_counts(name, nroots):
    system = coxeter_system(name)
    assert len(system.positive_roots) == nroots
    assert system.longest_element().length == nroots


def test_cartan_type_parsing():
    assert str(CartanType.parse("I2(5)")) == "I2(5)"
    assert str(CartanType.parse("I2(3)")) == "A2"  # normalized
    assert CartanType.parse("E7").rank == 7
    for bad in ("A0", "E5", "F3", "I2(2)", "H3", "x9"):
        with pytest.raises(CoxeterError):
            CartanType.parse(bad)


def test_i2_coxeter_matrix():
    system = coxeter_system("I2(5)")
    assert system.coxeter_matrix == ((1, 5), (5, 1))


def test_generator_involution_and_braid():
    a2 = coxeter_system("A2")
    s1 = a2.generator(1)
    assert a2.multiply(s1, s1) == a2.identity
    assert evaluate(a2, (1, 2, 1)) == evaluate(a2, (2, 1, 2))
    d5 = coxeter_system("I2(5)")
    assert evaluate(d5, (1, 2) * 5) == d5.identity


def test_braid_relations_all_pairs():
    for name in ("A3", "B3", "D4", "F4", "G2", "I2(7)"):
        system = coxeter_system(name)
        for i in range(1, system.rank + 1):
            for j in range(i + 1, system.rank + 1):
                m = system.coxeter_matrix[i - 1][j - 1]
                left = [i, j] * m
                right = [j, i] * m
                assert evaluate(system, left[:m]) == evaluate(system, right[:m])


def test_lengths():
    assert coxeter_system("B3").identity.length == 0
    assert coxeter_system("B3").longest_element().length == 9
    assert coxeter_system("D4").longest_element().length == 12
    assert coxeter_system("G2").longest_element().length == 6
    a1 = coxeter_system("A1")
    assert a1.longest_element() == a1.generator(1)


def test_longest_element_one_line():
    from coxsph.typea import element_to_perm

    a3 = coxeter_system("A3")
    assert element_to_perm(a3, a3.longest_element()) == (4, 3, 2, 1)


def test_longest_element_is_involution():
    for name in ("A4", "B3", "D4", "F4", "I2(6)", "I2(9)"):
        system = coxeter_system(name)
        w0 = system.longest_element()
        assert system.multiply(w0, w0).length == 0


def test_left_descents_examples():
    e8 = coxeter_system("E8")
    assert e8.left_descents(e8.identity) == frozenset()
    w = evaluate(e8, parse_word("s2 s3 s4 s2 s3 s4 s5 s4 s2 s3 s1 s4 s5 s6 s7 s6 s8 s7 s6"))
    assert w.length == 19
    assert e8.left_descents(w) == frozenset({2, 3, 4, 5, 7, 8})
    f4 = coxeter_system("F4")
    wp = evaluate(f4, parse_word("s1 s2 s3 s2 s4 s3 s2 s3 s4"))
    assert f4.left_descents(wp) == frozenset({1, 4})


def test_group_orders_by_enumeration():
    expected = {"A2": 6, "A3": 24, "A4": 120, "B3": 48, "D4": 192,
                "F4": 1152, "I2(5)": 10, "I2(8)": 16}
    for name, order in expected.items():
        system = coxeter_system(name)
        elements = system.elements()
        assert len(elements) == order == system.order()
        assert len(set(elements)) == order


def _breadth_first(system):
    """Every element, level by level: all products w s_i of the last level
    not met before, each level sorted by rep."""
    level, seen, out = [system.identity], {system.identity.rep}, []
    while level:
        out.extend(level)
        nxt = {}
        for w in level:
            for i in range(1, system.rank + 1):
                wi = system.multiply(w, system.generator(i))
                if wi.rep not in seen:
                    seen.add(wi.rep)
                    nxt[wi.rep] = wi
        level = [nxt[k] for k in sorted(nxt)]
    return out


@pytest.mark.parametrize("name", ["A4", "B3", "D4", "F4", "G2", "I2(5)", "I2(8)"])
def test_elements_is_breadth_first_with_true_lengths(name):
    system = coxeter_system(name)
    elements = system.elements()
    assert [w.rep for w in elements] == [w.rep for w in _breadth_first(system)]
    for w in elements:
        if name.startswith("I2"):
            fresh = system.length(w)
        else:
            fresh = sum(1 for q in w.rep if q < 0)
        assert w._length == fresh, w


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("COXSPH_ENUM_CAP", "1000")
    with pytest.raises(CoxeterError):
        coxeter_system("E8").elements()


def test_length_changes_by_one_under_generators():
    rng = random.Random(7)
    for name in ("A4", "B3", "D4", "I2(7)"):
        system = coxeter_system(name)
        elements = system.elements()
        for _ in range(40):
            w = rng.choice(elements)
            i = rng.randint(1, system.rank)
            sw = system.multiply(system.generator(i), w)
            assert abs(sw.length - w.length) == 1


def test_element_word_roundtrip():
    rng = random.Random(3)
    for name in ("A4", "B3", "D4", "I2(6)"):
        system = coxeter_system(name)
        elements = system.elements()
        for _ in range(25):
            w = rng.choice(elements)
            word = w.word()
            assert len(word) == w.length
            assert evaluate(system, word) == w


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B3", "B4", "D4", "D5", "F4", "G2"]
    + [f"I2({m})" for m in range(4, 10)]
    + [pytest.param("E6", marks=pytest.mark.slow)],
)
def test_word_is_the_first_word_of_the_step_walk(name):
    """`word()` walks inversion sets (closed form in I2(m)); `reduced_words`
    steps the element itself. Both must give the lex-first reduced word."""
    system = coxeter_system(name)
    for w in system.elements():
        assert w.word() == next(reduced_words(system, w)), w.rep


@pytest.mark.parametrize("name", ["B3", "I2(7)"])
def test_word_stops_after_length_letters_under_a_faulty_step(name, monkeypatch):
    """Faulty left-step data must make `word()` and `repr` raise, not loop.

    B3 gets image tables in which no s_i moves any root, so the walk never
    shrinks past the simple roots; I2(7) gets a `left_descents` that finds
    nothing.
    """
    system = coxeter_system(name)
    w = system.longest_element()
    calls = []

    def count(value):
        calls.append(value)
        if len(calls) > 10 * w.length**2:
            raise RuntimeError("word() kept walking past l(w) letters")
        return value

    if name == "B3":

        class Stuck(tuple):
            def __getitem__(self, p):
                return count(p)

        monkeypatch.setattr(system, "_left_images", (Stuck(),) * system.rank)
    else:
        monkeypatch.setitem(
            vars(system), "left_descents", lambda v: count(frozenset())
        )
    with pytest.raises(CoxeterError):
        w.word()
    assert 0 < len(calls) <= w.length**2
    with pytest.raises(CoxeterError):
        repr(w)


def test_left_step_with_one_root_keeps_a_tuple():
    """A1 has one positive root, where an itemgetter would return a scalar."""
    system = coxeter_system("A1")
    s = system.generator(1)
    assert system.step(s, 1, left=True).rep == system.identity.rep == (1,)
    assert system.step(system.identity, 1, left=True).rep == s.rep == (-1,)


def test_word_rejects_a_walk_of_the_wrong_length(monkeypatch):
    """Image tables that send every root to alpha_1 empty the walk in two
    letters, short of l(w0) = 9 in B3."""
    system = coxeter_system("B3")
    n = len(system.positive_roots)
    monkeypatch.setattr(system, "_left_images", ((0,) + (1,) * 2 * n,) * system.rank)
    with pytest.raises(CoxeterError, match="spent 2 letters on an element of length 9"):
        system.longest_element().word()


def test_inverse():
    system = coxeter_system("B3")
    for w in system.elements():
        assert system.multiply(w, w.inverse()) == system.identity
        assert w.inverse().length == w.length


def test_decompose_subset_e8_example():
    e8 = coxeter_system("E8")
    decomp = e8.decompose_subset({2, 3, 4, 5, 7, 8})
    assert decomp.components == ((2, 3, 4, 5), (7, 8))
    assert decomp.budgets == (16, 5)  # 12 + 4 and 3 + 2


def test_decompose_subset_small():
    a5 = coxeter_system("A5")
    decomp = a5.decompose_subset({1, 2, 4})
    assert decomp.components == ((1, 2), (4,))
    assert decomp.budgets == (5, 2)
    assert coxeter_system("B3").decompose_subset(set()).components == ()


@pytest.mark.parametrize(
    "name,subset,budget",
    [
        ("A5", {1, 2, 3, 4, 5}, 15 + 5),        # chain of length m: m(m+1)/2
        ("B3", {1, 2, 3}, 9 + 3),               # m^2
        ("D4", {1, 2, 3, 4}, 12 + 4),           # m^2 - m
        ("E6", set(range(1, 7)), 36 + 6),
        ("E7", set(range(1, 8)), 63 + 7),
        ("E8", set(range(1, 9)), 120 + 8),
        ("F4", {1, 2, 3, 4}, 24 + 4),
        ("G2", {1, 2}, 6 + 2),
        ("I2(11)", {1, 2}, 11 + 2),
    ],
)
def test_full_subset_budget_matches_longest_element(name, subset, budget):
    system = coxeter_system(name)
    decomp = system.decompose_subset(subset)
    assert decomp.budgets == (budget,)


def test_nested_parabolic_budgets():
    b3 = coxeter_system("B3")
    assert b3.decompose_subset({2, 3}).budgets == (4 + 2,)  # B2 inside B3
    assert b3.decompose_subset({1, 2}).budgets == (3 + 2,)  # A2 inside B3
    e8 = coxeter_system("E8")
    assert e8.decompose_subset({2, 4, 5, 3}).budgets == (16,)


@pytest.mark.parametrize("name", ["D5", "I2(9)"])
def test_decompose_subset_is_worked_out_once_per_subset(name):
    system = coxeter_system(name)
    first = system.decompose_subset([2, 1])
    assert system.decompose_subset({1, 2}) is first
    assert system.decompose_subset(frozenset({1, 2})) is first
    for _ in range(2):  # an invalid subset is rejected every time, never kept
        with pytest.raises(CoxeterError):
            system.decompose_subset({1, 10})


def test_mismatched_system_multiplication():
    a2 = coxeter_system("A2")
    b3 = coxeter_system("B3")
    with pytest.raises(CoxeterError):
        a2.multiply(a2.identity, b3.identity)


def test_dihedral_normal_forms():
    system = coxeter_system("I2(7)")
    elements = system.elements()
    assert len(elements) == 14
    lengths = sorted(w.length for w in elements)
    assert lengths == sorted([0, 7] + [k for k in range(1, 7) for _ in (0, 1)])
    w0 = system.longest_element()
    assert system.left_descents(w0) == frozenset({1, 2})
    s1s2 = evaluate(system, (1, 2))
    assert system.left_descents(s1s2) == frozenset({1})
    assert system.right_descents(s1s2) == frozenset({2})


@pytest.mark.parametrize("dihedral,weyl", [("I2(4)", "B2"), ("I2(6)", "G2")])
def test_dihedral_arithmetic_matches_root_system(dihedral, weyl):
    # the (r, f) closed forms against the root permutations of the same group
    dih, root = coxeter_system(dihedral), coxeter_system(weyl)
    elements = dih.elements()
    image = {w: evaluate(root, w.word()) for w in elements}
    assert len(set(image.values())) == len(elements) == root.order()
    for w, x in image.items():
        assert w.length == x.length
        assert dih.left_descents(w) == root.left_descents(x)
        assert dih.right_descents(w) == root.right_descents(x)
        assert dih.support(w) == root.support(x)
        for v in elements:
            assert dih.multiply(w, v).length == root.multiply(x, image[v]).length


@pytest.mark.parametrize("m", range(4, 13))
def test_dihedral_left_descents_match_lengths(m):
    system = coxeter_system(f"I2({m})")
    for w in system.elements():
        by_length = {
            i for i in (1, 2)
            if system.multiply(system.generator(i), w).length < w.length
        }
        assert system.left_descents(w) == by_length


@pytest.mark.parametrize("name", ["B3", "D4", "F4"])
def test_left_descents_are_right_descents_of_inverse(name):
    system = coxeter_system(name)
    for w in system.elements():
        assert system.left_descents(w) == system.right_descents(system.inverse(w))


def _two_pass_roots_and_generators(system):
    """The closure and generator actions the one-pass build replaced, kept as
    its reference: the roots are reflected once to close them and again for
    each generator's root permutation."""
    A, r = system.cartan_matrix, system.rank

    def reflect(i, root):
        out = list(root)
        out[i] -= sum(A[i][j] * c for j, c in enumerate(root))
        return tuple(out)

    simple = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    roots, seen, frontier = list(simple), set(simple), list(simple)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(r):
                img = reflect(i, root)
                if img not in seen and all(c >= 0 for c in img):
                    seen.add(img)
                    nxt.append(img)
        roots.extend(nxt)
        frontier = nxt
    roots = tuple(simple + sorted(roots[r:], key=lambda v: (sum(v), v)))
    index = {root: k for k, root in enumerate(roots)}
    reps = []
    for i in range(r):
        rep = []
        for root in roots:
            img = reflect(i, root)
            if all(c >= 0 for c in img):
                rep.append(index[img] + 1)
            else:
                rep.append(-(index[tuple(-c for c in img)] + 1))
        reps.append(tuple(rep))
    return roots, reps


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A6", "B2", "B3", "B5", "D4", "D5", "E6", "E7", "E8", "F4", "G2"]
)
def test_one_pass_root_build_matches_the_two_pass_reference(name):
    system = coxeter_system(name)
    roots, reps = _two_pass_roots_and_generators(system)
    assert system.positive_roots == roots
    assert [s.rep for s in system._generators] == reps


def test_root_build_rejects_an_image_that_is_not_a_root(monkeypatch):
    # a one-sided bond, which no Cartan type has: s2 maps the root
    # alpha_1 + alpha_2 to alpha_1 - alpha_2, which has mixed signs
    from coxsph import coxeter

    monkeypatch.setattr(coxeter, "_cartan_matrix", lambda t: ((2, -1), (0, 2)))
    with pytest.raises(CoxeterError, match="not a root"):
        coxeter.CoxeterSystem(CartanType.parse("A2"))
