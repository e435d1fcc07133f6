import itertools
import random

import pytest

from coxsph import (
    CoxeterError,
    bruhat_leq,
    coxeter_system,
    dihedral_classification,
    evaluate,
    find_witness,
    is_I_spherical,
    is_maximally_spherical,
    nonspherical_census,
    parse_word,
    reduced_words,
    verify_witness,
    w0_sphericality_closed_form,
)
from coxsph import spherical as spherical_module
from coxsph.spherical import WitnessSearcher
from coxsph.typea import element_to_perm, format_permutation, perm_to_element

from golden_data import (
    B3_NONSPHERICAL,
    E8_WORD_NOT_WITNESS,
    E8_WORD_WITNESS,
    S5_NONSPHERICAL,
)


def _subsets(nodes):
    nodes = sorted(nodes)
    for r in range(len(nodes) + 1):
        yield from itertools.combinations(nodes, r)


def _brute_spherical(system, w, I):
    return any(
        verify_witness(system, w, I, word) for word in reduced_words(system, w)
    )


# -- witness verification -----------------------------------------------------


def test_verify_witness_e8_examples():
    e8 = coxeter_system("E8")
    bad = parse_word(E8_WORD_NOT_WITNESS)
    good = parse_word(E8_WORD_WITNESS)
    w = evaluate(e8, bad)
    J = e8.left_descents(w)
    assert evaluate(e8, good) == w
    assert not verify_witness(e8, w, J, bad)  # one letter appears three times
    assert verify_witness(e8, w, J, good)


def test_verify_witness_a7_example():
    a7 = coxeter_system("A7")
    w = perm_to_element(a7, (3, 5, 2, 4, 6, 7, 8, 1))
    word = parse_word("s1 s2 s1 s4 s3 s2 s4 s5 s6 s7")
    assert verify_witness(a7, w, {1, 2, 4}, word)
    failing = parse_word("s1 s2 s1 s3 s4 s3 s2 s5 s6 s7")
    assert evaluate(a7, failing) == w
    assert not verify_witness(a7, w, {1, 2, 4}, failing)


@pytest.mark.parametrize(
    "name, word, I, found",
    [
        ("E8", E8_WORD_WITNESS, None, True),
        ("A4", "s1 s2 s3 s2 s4 s3", (1, 3), False),  # 24531
    ],
    ids=["E8-witness", "A4-none"],
)
def test_find_witness_decomposes_I_once(name, word, I, found, monkeypatch):
    """The certificate's component counts come from the search's own table."""
    system = coxeter_system(name)
    w = evaluate(system, parse_word(word))
    calls = []
    decompose = system.decompose_subset

    def counting(subset):
        calls.append(subset)
        return decompose(subset)

    monkeypatch.setattr(system, "decompose_subset", counting)
    I = system.left_descents(w) if I is None else I
    assert (find_witness(system, w, I) is not None) == found
    assert len(calls) == 1


def test_verify_witness_rejects_bad_queries():
    a4 = coxeter_system("A4")
    w = perm_to_element(a4, (2, 4, 5, 3, 1))
    with pytest.raises(CoxeterError):
        verify_witness(a4, w, {2}, w.word())  # 2 is not a left descent
    # wrong element/word is a negative answer, not an error
    assert not verify_witness(a4, w, {1}, (1,))


# -- search vs brute force -----------------------------------------------------


@pytest.mark.parametrize("name", ["A3", "B3", "I2(5)", "I2(6)"])
def test_search_matches_brute_force_everywhere(name):
    system = coxeter_system(name)
    for w in system.elements():
        J = system.left_descents(w)
        for I in _subsets(J):
            cert = find_witness(system, w, I)
            assert (cert is not None) == _brute_spherical(system, w, I)
            if cert is not None:
                assert verify_witness(system, w, I, cert.word)


def test_search_matches_brute_force_s5_maximal():
    a4 = coxeter_system("A4")
    for w in a4.elements():
        J = a4.left_descents(w)
        assert is_I_spherical(a4, w, J) == _brute_spherical(a4, w, J)


# -- named examples ---------------------------------------------------------------


def test_24531_is_not_spherical():
    a4 = coxeter_system("A4")
    w = perm_to_element(a4, (2, 4, 5, 3, 1))
    assert a4.left_descents(w) == frozenset({1, 3})
    assert not is_I_spherical(a4, w, {1, 3})


def test_f4_example_is_spherical():
    f4 = coxeter_system("F4")
    w = evaluate(f4, parse_word("s2 s3 s2 s3 s4 s3 s2 s1 s3 s2 s4 s3"))
    assert f4.left_descents(w) == frozenset({2, 3, 4})
    assert is_maximally_spherical(f4, w)


def test_coxeter_elements_always_spherical():
    rng = random.Random(11)
    for name in ("A4", "B3", "D4", "F4"):
        system = coxeter_system(name)
        letters = list(range(1, system.rank + 1))
        for _ in range(6):
            rng.shuffle(letters)
            c = evaluate(system, tuple(letters))
            assert c.length == system.rank
            for I in _subsets(system.left_descents(c)):
                assert is_I_spherical(system, c, I)


def test_b3_first_nonexample():
    b3 = coxeter_system("B3")
    w = evaluate(b3, parse_word("s2 s3 s1 s2 s3"))
    assert not is_maximally_spherical(b3, w)


def test_s4_all_spherical_and_inverse_asymmetry():
    a3 = coxeter_system("A3")
    assert nonspherical_census(a3) == []
    a4 = coxeter_system("A4")
    w = perm_to_element(a4, (5, 1, 4, 2, 3))  # inverse of 24531
    assert is_maximally_spherical(a4, w)


def test_identity_and_longest_are_spherical():
    for name in ("A4", "B3", "F4", "I2(9)"):
        system = coxeter_system(name)
        assert is_maximally_spherical(system, system.identity)
        assert is_maximally_spherical(system, system.longest_element())


# -- censuses ------------------------------------------------------------------


def test_census_s5():
    a4 = coxeter_system("A4")
    got = sorted(
        format_permutation(element_to_perm(a4, w)) for w in nonspherical_census(a4)
    )
    assert got == sorted(S5_NONSPHERICAL)


def test_census_b3():
    b3 = coxeter_system("B3")
    expected = set()
    for text in B3_NONSPHERICAL:
        word = parse_word(text)
        w = evaluate(b3, word)
        assert w.length == len(word)
        expected.add(w)
    assert len(expected) == 18
    assert set(nonspherical_census(b3)) == expected


# -- closed forms ----------------------------------------------------------------


def test_w0_closed_form_examples():
    a4 = coxeter_system("A4")
    assert w0_sphericality_closed_form(a4, {2, 3, 4})
    assert w0_sphericality_closed_form(a4, {1, 2, 3})
    assert w0_sphericality_closed_form(a4, {1, 2, 3, 4})
    assert not w0_sphericality_closed_form(a4, {2, 3})
    b3 = coxeter_system("B3")
    assert not w0_sphericality_closed_form(b3, {1, 2})
    assert w0_sphericality_closed_form(b3, {1, 2, 3})


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "B3", "G2", "D4"])
def test_w0_closed_form_matches_search(name):
    system = coxeter_system(name)
    w0 = system.longest_element()
    for I in _subsets(range(1, system.rank + 1)):
        assert w0_sphericality_closed_form(system, I) == is_I_spherical(
            system, w0, I
        )


def test_dihedral_classification_examples():
    d5 = coxeter_system("I2(5)")
    w = evaluate(d5, (1, 2, 1, 2))
    assert w.length == 4 and w != d5.longest_element()
    assert not dihedral_classification(d5, w)
    d7 = coxeter_system("I2(7)")
    assert dihedral_classification(d7, d7.longest_element())
    d9 = coxeter_system("I2(9)")
    assert dihedral_classification(d9, evaluate(d9, (2, 1, 2)))


def test_dihedral_classification_agrees_with_search():
    for m in range(3, 13):
        system = coxeter_system(f"I2({m})")
        for w in system.elements():
            assert dihedral_classification(system, w) == is_maximally_spherical(
                system, w
            )


# -- structural properties ---------------------------------------------------------


def test_downward_closure():
    """If v is I-spherical and u <= v with I inside both descent sets, u is too."""
    for name in ("A4", "B3", "D4"):
        system = coxeter_system(name)
        elements = system.elements()
        searchers = {}

        def spherical(w, I):
            I = frozenset(I)
            if I not in searchers:
                searchers[I] = WitnessSearcher(system, I)
            return searchers[I].search(w) is not None

        for u in elements:
            Ju = system.left_descents(u)
            for v in elements:
                if u.length >= v.length or not bruhat_leq(system, u, v):
                    continue
                both = Ju & system.left_descents(v)
                for I in _subsets(both):
                    if spherical(v, I):
                        assert spherical(u, I)


def test_monotonicity_in_I():
    rng = random.Random(5)
    for name in ("A4", "B3"):
        system = coxeter_system(name)
        elements = system.elements()
        for _ in range(60):
            w = rng.choice(elements)
            J = sorted(system.left_descents(w))
            if len(J) < 2:
                continue
            I = set(rng.sample(J, rng.randint(1, len(J))))
            Iprime = set(rng.sample(sorted(I), rng.randint(0, len(I) - 1)))
            if is_I_spherical(system, w, Iprime):
                assert is_I_spherical(system, w, I)


def test_search_is_monotone_in_I_one_node_at_a_time():
    """An I-witness is an (I + j)-witness for every j in J(w) outside I.

    Letters of j occur at most once in an I-witness, and the components of I
    that j joins have disjoint positive roots inside the merged component,
    so their budgets only grow. Chains I < I' <= J(w) follow by transitivity.
    """
    pairs = 0
    for name in ("A4", "B4", "D4", "D5", "F4", "G2", "I2(7)"):
        system = coxeter_system(name)
        searchers = {}

        def search(w, I):
            if I not in searchers:
                searchers[I] = WitnessSearcher(system, I)
            return searchers[I].search(w)

        for w in system.elements():
            J = system.left_descents(w)
            for I in map(frozenset, _subsets(J)):
                word = search(w, I)
                if word is None:
                    continue
                for j in J - I:
                    assert verify_witness(system, w, I | {j}, word), (w, I, j)
                    assert search(w, I | {j}) is not None, (w, I, j)
                    pairs += 1
    assert pairs == 1310


def test_parabolic_product():
    """Commuting supports decide sphericality factor by factor (A1 x A2 in A4)."""
    a4 = coxeter_system("A4")
    X, Y = (1,), (3, 4)
    u_all = [evaluate(a4, word) for word in [(), (1,)]]
    v_words = [(), (3,), (4,), (3, 4), (4, 3), (3, 4, 3)]
    v_all = [evaluate(a4, word) for word in v_words]
    for u in u_all:
        for v in v_all:
            w = a4.multiply(u, v)
            J = a4.left_descents(w)
            for I in _subsets(J):
                I = set(I)
                expected = is_I_spherical(a4, u, I & set(X)) and is_I_spherical(
                    a4, v, I & set(Y)
                )
                assert is_I_spherical(a4, w, I) == expected


def test_diagram_shift_preserves_sphericality():
    """Shifting all letters by f inside a larger chain preserves the verdict."""
    for n, f in ((4, 1), (4, 2), (5, 1), (5, 2)):
        small = coxeter_system(f"A{n - 1}")
        big = coxeter_system(f"A{n - 1 + f}")
        for w in small.elements():
            word = w.word()
            shifted = evaluate(big, tuple(i + f for i in word))
            J = small.left_descents(w)
            for I in _subsets(J):
                assert is_I_spherical(small, w, I) == is_I_spherical(
                    big, shifted, {j + f for j in I}
                )


@pytest.mark.parametrize("name", ["A4", "B3", "I2(7)"])
def test_search_records_true_lengths_on_its_descent_steps(name, monkeypatch):
    system = coxeter_system(name)
    elements = system.elements()
    visited = []
    step = system.step

    def recording(w, i, left=False):
        v = step(w, i, left)
        visited.append((v, v._length))
        return v

    monkeypatch.setattr(system, "step", recording)
    for w in elements:
        WitnessSearcher(system, system.left_descents(w)).search(w)
    assert len(visited) > len(elements)
    for w, carried in visited:
        assert carried == system.length(w), w


@pytest.mark.parametrize(
    "name, searchers, seen, fail",
    [
        ("A5", 32, 1239, 367),
        ("D5", 32, 2603, 460),
        ("F4", 16, 1275, 69),
        ("I2(60)", 4, 178, 0),
        ("A6", 64, 8804, 4957),
        pytest.param("E6", 64, 56549, 6025, marks=pytest.mark.slow),
        pytest.param("A7", 128, 69653, 57984, marks=pytest.mark.slow),
    ],
)
def test_census_search_work_is_pinned(name, searchers, seen, fail, monkeypatch):
    """Golden work budget of the census search: elements visited (`_seen`)
    and failed states memoized (`_fail`), summed over the searchers that one
    `census` builds. Any later change to these numbers must be explained."""
    built = []

    class Kept(WitnessSearcher):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(spherical_module, "WitnessSearcher", Kept)
    system = coxeter_system(name)
    for _ in spherical_module.census(system):
        pass
    assert len(built) == searchers
    assert sum(len(s._seen) for s in built) == seen
    assert sum(len(s._fail) for s in built) == fail


@pytest.mark.parametrize(
    "name, steps",
    [
        ("A5", 1800),
        ("D5", 4800),
        ("F4", 2304),
        ("I2(60)", 120),
        ("A6", 15120),
        pytest.param("E6", 155520, marks=pytest.mark.slow),
        pytest.param("A7", 141120, marks=pytest.mark.slow),
    ],
)
def test_census_down_steps_are_pinned(name, steps, monkeypatch):
    """Golden count of the generator steps one `census` makes: one per edge
    of the right weak order, |W| * rank / 2, all of them in the walk that
    enumerates the group, and none in the search, which reads every
    down-step off the table that walk fills. Any later change to these
    numbers must be explained."""
    system = coxeter_system(name)
    calls = []
    step = type(system).step
    searching = []

    def counting(self, w, i, left=False):
        calls.append(bool(searching))
        return step(self, w, i, left)

    search = WitnessSearcher.search

    def marked(self, w):
        searching.append(w)
        try:
            return search(self, w)
        finally:
            searching.pop()

    monkeypatch.setattr(type(system), "step", counting)
    monkeypatch.setattr(WitnessSearcher, "search", marked)
    for _ in spherical_module.census(system):
        pass
    assert len(calls) == steps == system.order() * system.rank // 2
    assert not any(calls)


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "A5", "B4", "D5", "F4", "G2", "I2(7)"]
)
def test_weak_order_table_matches_lazy_route(name):
    """Each record of the table read off the weak order holds what a lazy
    table computes for the same element once it opens the record and steps
    every slot: the support, the right descents and the down-steps."""
    system = coxeter_system(name)
    table = spherical_module.NodeTable.weak_order(system)
    assert [node.element for node in table.records] == system.elements()
    for eid, node in enumerate(table.records):
        assert node.id == eid and node.length == node.element.length
        assert all(table.records[child.id] is child for child in node.down)
        lazy = spherical_module.NodeTable(system)
        fresh = lazy.node(node.element)
        assert fresh.descents is None and fresh.down is None
        lazy.open(fresh)
        assert fresh.down == [None] * len(fresh.descents)
        stepped = [lazy.step(fresh, k) for k in range(len(fresh.descents))]
        assert fresh.down == stepped
        assert fresh.support == node.support
        assert fresh.descents == node.descents
        assert [c.element for c in fresh.down] == [c.element for c in node.down]
    assert all(table.node(node.element) is node for node in table.records)


@pytest.mark.parametrize(
    "name, right, left, reads",
    [
        ("A4", 527, 0, 473),
        ("B4", 756, 0, 665),
        ("D5", 4703, 0, 3860),
        ("F4", 765, 0, 709),
        ("I2(60)", 72, 0, 72),
    ],
)
def test_lazy_route_work_is_pinned(name, right, left, reads, monkeypatch):
    """Golden work of a cold `find_witness(w, J(w))` on every element: the
    right and left steps its lazy tables make, and the right-descent reads.
    A lazy record reads its descents only when a search first admits it,
    and steps one down-edge only when a search first takes it. Any later
    change to these numbers must be explained."""
    system = coxeter_system(name)
    step, right_descents = system.step, system.right_descents
    steps, descent_reads = [], []

    def counting_descents(w):
        descent_reads.append(w)
        return right_descents(w)

    def counting_step(w, i, left=False):
        steps.append(left)
        return step(w, i, left)

    # on the instance: undoing an instance patch leaves the bound method
    # in its dict, which a class patch would not reach
    monkeypatch.setattr(system, "right_descents", counting_descents)
    elements = system.elements()
    monkeypatch.setattr(system, "step", counting_step)
    for w in elements:
        find_witness(system, w, system.left_descents(w))
    assert steps.count(False) == right
    assert steps.count(True) == left
    assert len(descent_reads) == reads


@pytest.mark.parametrize("name", ["A5", "B4", "D5", "F4", "G2", "I2(7)"])
def test_census_words_match_cold_searches(name):
    """Sharing searchers and their node table across a census changes no
    answer: each element gets the word a fresh `find_witness` finds."""
    system = coxeter_system(name)
    for node, J, word in spherical_module.census(system):
        w = node.element
        cold = find_witness(system, w, J)
        assert word == (None if cold is None else cold.word), w


def test_empty_I_means_distinct_letter_word():
    for name in ("A4", "B3"):
        system = coxeter_system(name)
        for w in system.elements():
            brute = any(
                len(set(word)) == len(word) for word in reduced_words(system, w)
            )
            assert is_I_spherical(system, w, ()) == brute


def test_bad_query_raises():
    a4 = coxeter_system("A4")
    w = perm_to_element(a4, (2, 4, 5, 3, 1))
    with pytest.raises(CoxeterError):
        is_I_spherical(a4, w, {2})
    with pytest.raises(CoxeterError):
        find_witness(a4, w, {1, 2, 3, 4})
