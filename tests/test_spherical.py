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
from coxsph.coxeter import Element
from coxsph.spherical import WitnessSearcher
from coxsph.typea import element_to_perm, format_permutation, perm_to_element

from coxeter_model import full_rep
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

    monkeypatch.setitem(vars(system), "decompose_subset", counting)
    I = system.left_descents(w) if I is None else I
    assert (find_witness(system, w, I) is not None) == found
    assert len(calls) == 1


@pytest.mark.parametrize("name, I", [("E8", (2, 3, 4, 5, 7, 8)), ("A5", (1, 2, 4)), ("I2(9)", ())])
def test_searchers_share_the_allowance_table_of_the_decomposition(name, I):
    """(S.1)/(S.2) as one table, built once per subset: a budget-1
    singleton per node outside I, then the components of I with their
    budgets, and the group of each node. Two searchers with one I read the
    same objects."""
    system = coxeter_system(name)
    decomp = system.decompose_subset(I)
    outside = [(j,) for j in range(1, system.rank + 1) if j not in I]
    assert decomp.groups == (*outside, *decomp.components)
    assert decomp.allowances == (1,) * len(outside) + decomp.budgets
    assert decomp.slot == {i: g for g, group in enumerate(decomp.groups) for i in group}
    assert sorted(decomp.slot) == list(range(1, system.rank + 1))
    first, second = WitnessSearcher(system, I), WitnessSearcher(system, set(I))
    for attr in ("groups", "budgets", "slot"):
        assert getattr(first, attr) is getattr(second, attr)
    assert first.slot is decomp.slot and first.budgets is decomp.allowances


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


def _model_length(system, images):
    """The length of the element with these images of the simple roots:
    the positive roots its full rep (`coxeter_model`) sends negative."""
    return sum(q < 0 for q in full_rep(system, Element(system, images)))


@pytest.mark.parametrize("name", ["A4", "B3", "I2(7)"])
def test_search_records_true_lengths_on_its_descent_steps(name, monkeypatch):
    """Each record a search steps to carries l(w) - 1 from its parent: the
    length of the element expanded from its images."""
    system = coxeter_system(name)
    elements = system.elements()
    visited = []
    step = WitnessSearcher._step

    def recording(self, node, k):
        child = step(self, node, k)
        visited.append((child.images, child.length))
        return child

    monkeypatch.setattr(WitnessSearcher, "_step", recording)
    for w in elements:
        WitnessSearcher(system, system.left_descents(w)).search(w)
    assert len(visited) > len(elements)
    for images, carried in visited:
        assert carried == _model_length(system, images), images


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
    """Golden count of the right steps one `census` makes: one code step
    (`_right_code`) per edge of the right weak order, |W| * rank / 2, all
    of them in the walk that enumerates the group, and none in the search,
    which reads every down-step off the table that walk fills. The census
    calls `step` not at all. Any later change to these numbers must be
    explained."""
    system = coxeter_system(name)
    calls, stepped = [], []
    right_code, step = type(system)._right_code, type(system).step
    searching = []

    def counting(self, rep, code, i):
        calls.append(bool(searching))
        return right_code(self, rep, code, i)

    def counting_step(self, w, i, left=False):
        stepped.append(i)
        return step(self, w, i, left)

    search = WitnessSearcher.search

    def marked(self, w):
        searching.append(w)
        try:
            return search(self, w)
        finally:
            searching.pop()

    monkeypatch.setattr(type(system), "_right_code", counting)
    monkeypatch.setattr(type(system), "step", counting_step)
    monkeypatch.setattr(WitnessSearcher, "search", marked)
    for _ in spherical_module.census(system):
        pass
    assert len(calls) == steps == system.order() * system.rank // 2
    assert not any(calls)
    assert stepped == []


@pytest.mark.parametrize(
    "name, built",
    [("A5", 719), ("D5", 1919), ("F4", 1151), ("I2(60)", 119), ("A6", 5039)],
)
def test_weak_order_makes_one_element_per_element(name, built, monkeypatch):
    """Golden count of the `Element`s one `weak_order()` walk constructs:
    one per element but the identity, |W| - 1, none per edge. Any later
    change to these numbers must be explained."""
    system = coxeter_system(name)
    made = 0
    init = Element.__init__

    def counting(self, *args):
        nonlocal made
        made += 1
        init(self, *args)

    monkeypatch.setattr(Element, "__init__", counting)
    records = system.weak_order()
    assert made == built == system.order() - 1 == len(records) - 1


@pytest.mark.parametrize(
    "name, full", [("A5", 719), ("D5", 1919), ("F4", 1151), ("I2(60)", 119)]
)
def test_weak_order_makes_one_full_right_step_per_element(name, full, monkeypatch):
    """Golden count of the reps one `weak_order()` walk computes: one
    `_right_images` per element but the identity, |W| - 1, from its first
    down-edge; each edge steps only a code. A level's reps are made before
    it is sorted, so the steps are compared level by level, not in call
    order. Any later change to these numbers must be explained."""
    system = coxeter_system(name)
    calls = []
    right_images = type(system)._right_images

    def counting(self, rep, i):
        calls.append((rep, i))
        return right_images(self, rep, i)

    monkeypatch.setattr(type(system), "_right_images", counting)
    records = system.weak_order()
    assert len(calls) == full == system.order() - 1
    length = {node.element.rep: node.length for node in records}
    levels = [length[rep] + 1 for rep, _ in calls]
    assert levels == sorted(levels)
    assert sorted((k, rep, i) for k, (rep, i) in zip(levels, calls)) == sorted(
        (node.length, node.down[0].element.rep, node.descents[0])
        for node in records[1:]
    )


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B4", "D5", "F4", "G2", "I2(7)",
     pytest.param("E6", marks=pytest.mark.slow)],
)
def test_rep_prefixes_fix_and_order_the_elements(name):
    """The reps, the images of the simple roots (the pair (r, f) in I2(m)),
    are pairwise distinct over the group; in a root system they are the
    first `rank` entries of the full rep (`coxeter_model`), so sorting by
    them sorts by the full rep: they decide the order of each level of the
    walk, and census labels are kept by them. The rep of w s_i is
    `_right_images(rep, i)` and that of s_i w `_left_prefix(rep, i)`: the
    full reps of w and s_i composed."""
    system = coxeter_system(name)
    rank = system.rank
    elements = system.elements()
    reps = [w.rep for w in elements]
    assert len(set(reps)) == len(reps) == system.order()
    full = {w: full_rep(system, w) for w in elements}
    if system.positive_roots is not None:
        assert all(full[w][:rank] == w.rep for w in elements)
        assert [w.rep for w in sorted(elements, key=full.get)] == sorted(reps)
    by_full = {f: w for w, f in full.items()}

    def compose(u, v):  # the full rep of uv, or its first len(v) entries
        return tuple(u[q - 1] if q > 0 else -u[-q - 1] for q in v)

    for w in elements:
        f = full[w]
        for i, s in enumerate(system._generators, start=1):
            s = full[s]
            if system.positive_roots is None:
                right, left = by_full[compose(f, s)].rep, by_full[compose(s, f)].rep
            else:
                right, left = compose(f, s[:rank]), compose(s, f[:rank])
            assert system._right_images(w.rep, i) == right
            assert system._left_prefix(w.rep, i) == left


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "A5", "B4", "D5", "F4", "G2", "I2(7)"]
)
def test_weak_order_table_matches_lazy_route(name):
    """Each record of the weak-order walk holds what a fresh searcher's own
    record of the same element holds once the searcher opens it and steps
    every slot: the support, the right descents and the down-steps."""
    system = coxeter_system(name)
    records = system.weak_order()
    assert [node.element for node in records] == system.elements()
    assert len({node.element.rep for node in records}) == len(records)
    walked = set(records)  # records hash and compare by identity
    for node in records:
        assert node.length == node.element.length
        assert all(child in walked for child in node.down)
        lazy = WitnessSearcher(system, ())
        fresh = lazy._record(node.element)
        assert fresh not in walked
        assert fresh.element is None and fresh.images == node.element.rep
        assert fresh.length == node.length
        assert fresh.descents is None and fresh.down is None
        assert lazy._record(node.element) is fresh
        lazy._open(fresh)
        assert fresh.down == [None] * len(fresh.descents)
        stepped = [lazy._step(fresh, k) for k in range(len(fresh.descents))]
        assert fresh.down == stepped
        assert not any(child in walked for child in stepped)
        assert fresh.support == node.support
        assert fresh.descents == node.descents
        assert [c.images for c in fresh.down] == [c.element.rep for c in node.down]
        for child in fresh.down:
            assert child.element is None
            assert child.length == _model_length(system, child.images)


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B3", "B4", "D4", "D5", "F4", "G2",
     "I2(3)", "I2(4)", "I2(5)", "I2(8)", "I2(60)"],
)
def test_weak_order_records_carry_their_left_descents(name):
    """The walk's J(w), read off the first parent's record, is the set
    `left_descents` computes; the even dihedral w0, whose first parent
    w0 s1 starts with s2, gains s1. Equal sets of one walk are one
    frozenset. A searcher's own record leaves J None."""
    system = coxeter_system(name)
    records = system.weak_order()
    for node in records:
        assert node.left_descents == system.left_descents(node.element)
    for field in ("left_descents", "support"):
        sets = [getattr(node, field) for node in records]
        assert len(set(map(id, sets))) == len(set(sets))  # equal sets are one
    searcher = WitnessSearcher(system, ())
    assert searcher._record(records[-1].element).left_descents is None


@pytest.mark.parametrize("name", ["A5", "D5", "F4", "I2(8)", "I2(60)"])
def test_census_makes_no_left_descent_query(name, monkeypatch):
    system = coxeter_system(name)
    calls = []
    left_descents = system.left_descents

    def counting(w):
        calls.append(w)
        return left_descents(w)

    monkeypatch.setitem(vars(system), "left_descents", counting)
    rows = list(spherical_module.census(system))
    assert len(rows) == system.order()
    assert calls == []
    assert all(J is node.left_descents for node, J, _ in rows)


def test_walk_records_and_bare_elements_share_a_searcher_without_aliasing():
    """One searcher per I handed both the walk's record of w and w itself,
    in either order, gives each the word a cold `find_witness` finds: its
    memos key on the record object, so the walk's record and the record the
    searcher makes of w are two keys, never one key for two elements."""
    system = coxeter_system("A5")
    pairs = [
        (node, I)
        for node in system.weak_order()
        for I in map(frozenset, _subsets(system.left_descents(node.element)))
    ]
    cold = {}
    for node, I in pairs:
        cert = find_witness(system, node.element, I)
        cold[node, I] = None if cert is None else cert.word
    for record_first in (True, False):
        searchers = {}
        for node, I in pairs:
            searcher = searchers.get(I)
            if searcher is None:
                searcher = searchers[I] = WitnessSearcher(system, I)
            order = (node, node.element) if record_first else (node.element, node)
            for w in order:
                assert searcher.search(w) == cold[node, I], (node.element, I)
    assert len(pairs) == 4683


@pytest.mark.parametrize("name", ["A5", "D5", "F4", "I2(60)"])
def test_census_searchers_make_no_records(name, monkeypatch):
    """A census hands every searcher the walk's records, so no searcher
    makes a record of its own."""
    made = []
    record = WitnessSearcher._record

    def counting(self, w):
        made.append(w)
        return record(self, w)

    monkeypatch.setattr(WitnessSearcher, "_record", counting)
    system = coxeter_system(name)
    assert sum(1 for _ in spherical_module.census(system)) == system.order()
    assert made == []


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
    A lazy record reads its descents off its images only when a search
    first admits it, and steps one down-edge by its images
    (`_right_images`) only when a search first takes it; no element is
    stepped and no element is expanded to all roots (`_images_length`).
    Any later change to these numbers must be explained."""
    system = coxeter_system(name)
    elements = system.elements()
    steps, descent_reads, full = [], [], []

    def counting(name, log, entry):
        method = getattr(system, name)

        def counted(*args, **kwargs):
            log.append(entry(*args, **kwargs))
            return method(*args, **kwargs)

        monkeypatch.setitem(vars(system), name, counted)

    counting("_right_images", steps, lambda images, i: False)
    counting("_left_prefix", steps, lambda prefix, j: True)
    counting("_image_descents", descent_reads, lambda images: images)
    counting("step", full, lambda w, i, left=False: "step")
    if system.positive_roots is not None:  # I2(m) reads it in closed form
        counting("_images_length", full, lambda images: "_images_length")
    for w in elements:
        find_witness(system, w, system.left_descents(w))
    assert steps.count(False) == right
    assert steps.count(True) == left
    assert len(descent_reads) == reads
    assert full == []


@pytest.mark.parametrize("name", ["D5", "E8", "I2(9)"])
def test_cold_searchers_of_one_subset_share_the_touched_table(name):
    """The groups each support meets are worked out once per subset, on the
    decomposition `decompose_subset` caches: a second cold `find_witness`
    with the same (system, I), on an element whose supports the first one
    saw, adds no entry, and every searcher of I reads the same table."""
    system = coxeter_system(name)
    w = system.longest_element()
    I = frozenset({1, 2})
    table = system.decompose_subset(I).touched
    first = find_witness(system, w, I)
    seen = dict(table)
    assert seen
    assert find_witness(system, w, I) == first
    assert table == seen
    assert WitnessSearcher(system, I)._touched is table
    assert system.decompose_subset({1}).touched is not table


@pytest.mark.parametrize(
    "name", ["A4", "A5", "B4", "D4", "D5", "F4", "G2", "I2(9)"]
)
def test_empty_I_verdicts_match_the_distinct_letter_test(name):
    """With I = {} the search finds a witness exactly when l(w) = |supp(w)|,
    the prune-free route `check --paranoid` compares it with."""
    system = coxeter_system(name)
    verdicts = []
    for w in system.elements():
        found = is_I_spherical(system, w, ())
        assert found == spherical_module.has_distinct_letter_word(system, w), w
        verdicts.append(found)
    assert any(verdicts) and not all(verdicts)


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
            assert spherical_module.has_distinct_letter_word(system, w) == brute


def test_bad_query_raises():
    a4 = coxeter_system("A4")
    w = perm_to_element(a4, (2, 4, 5, 3, 1))
    with pytest.raises(CoxeterError):
        is_I_spherical(a4, w, {2})
    with pytest.raises(CoxeterError):
        find_witness(a4, w, {1, 2, 3, 4})


@pytest.mark.parametrize("word", [E8_WORD_WITNESS, E8_WORD_NOT_WITNESS])
def test_e8_check_makes_one_full_rep_and_no_full_right_step(word, monkeypatch):
    """A positive E8 `run_check` on either 19-letter word expands no
    element to all roots (`_images_length`), where evaluating the word
    once made one full rep: the word is evaluated on the images, J(w) is
    read off w(2 rho), and the lazy search steps images."""
    from coxsph import harness

    system = coxeter_system("E8")
    calls = []

    def counting(name):
        method = getattr(system, name)

        def counted(*args):
            calls.append(name)
            return method(*args)

        monkeypatch.setitem(vars(system), name, counted)

    for name in ("_images_length", "_right_images"):
        counting(name)
    J = system.left_descents(evaluate(system, parse_word(word)))
    calls.clear()
    report = harness.run_check("E8", word, J)
    assert report.spherical
    assert calls.count("_images_length") == 0
    assert calls.count("_right_images") > 0
