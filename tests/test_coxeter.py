import random
from functools import lru_cache
from itertools import compress

import pytest

from coxsph import (
    CartanType,
    CoxeterError,
    coxeter_system,
    evaluate,
    parse_word,
    reduced_words,
)
from coxsph.coxeter import Element, WeakOrderNode
from coxsph.typea import element_to_perm
from coxeter_model import full_rep, weights
from golden_data import E8_WORD_NOT_WITNESS


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
        fresh = sum(1 for q in full_rep(system, w) if q < 0)
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


W0_ONLY = ("E7", "E8")  # groups too large to walk: their w0 alone


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B3", "B4", "D4", "D5", "F4", "G2"]
    + [f"I2({m})" for m in range(4, 10)]
    + [pytest.param("E6", marks=pytest.mark.slow), *W0_ONLY],
)
def test_word_is_the_first_word_of_the_step_walk(name):
    """`word()` walks w(2 rho) to the dominant chamber (closed form in
    I2(m)); `reduced_words` steps the element itself. Both must give the
    lex-first reduced word, on every element (on w0 alone in E7 and E8)."""
    system = coxeter_system(name)
    elements = [system.longest_element()] if name in W0_ONLY else system.elements()
    for w in elements:
        assert w.word() == next(reduced_words(system, w)), w.rep


@pytest.mark.parametrize("name", ["B3", "I2(7)"])
def test_word_stops_after_length_letters_under_a_faulty_step(name, monkeypatch):
    """Faulty reflection data must make `word()` and `repr` raise, not loop.

    B3 gets neighbour data under which s_k sends v_k to v_k, not -v_k, so
    the walk never leaves the first negative coordinate of w0(2 rho) =
    -2 rho; I2(7) gets a `left_descents` that finds nothing.
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
            def __getitem__(self, k):
                # v_k = -x, then v_k -= x * -2: v_k is x again
                return count(((k, -2),))

        system._start_code()  # build the tables, so the patch is not overwritten
        monkeypatch.setattr(system, "_neighbours", Stuck())
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
    """A1 has one positive root: a step keeps the rep a one-entry tuple."""
    system = coxeter_system("A1")
    s = system.generator(1)
    assert system.step(s, 1, left=True).rep == system.identity.rep == (1,)
    assert system.step(system.identity, 1, left=True).rep == s.rep == (-1,)


def test_word_rejects_a_walk_of_the_wrong_length(monkeypatch):
    """A code table that reads each entry of w0's rep as the entry of s1 s2
    in its place makes the walk spell s1 s2: two letters, short of l(w0) =
    9 in B3. The walk is on a fresh element of w0's rep, which decodes
    w(2 rho) through the planted table; the cached w0 may carry its
    coordinates already and read no table."""
    system = coxeter_system("B3")
    system._start_code()
    w0, u = system.longest_element(), evaluate(system, [1, 2])
    table = list(system._twice_codes)
    for q, p in zip(w0.rep, u.rep):
        table[q] = system._twice_codes[p]
    monkeypatch.setattr(system, "_twice_codes", tuple(table))
    with pytest.raises(CoxeterError, match="spent 2 letters on an element of length 9"):
        Element(system, w0.rep).word()


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
    assert [full_rep(system, s) for s in system._generators] == reps


def test_root_build_rejects_an_image_that_is_not_a_root(monkeypatch):
    # a one-sided bond, which no Cartan type has: s2 maps the root
    # alpha_1 + alpha_2 to alpha_1 - alpha_2, which has mixed signs
    from coxsph import coxeter

    monkeypatch.setattr(coxeter, "_cartan_matrix", lambda t: ((2, -1), (0, 2)))
    with pytest.raises(CoxeterError, match="not a root"):
        coxeter.CoxeterSystem(CartanType.parse("A2"))


@lru_cache(maxsize=None)
def _root_nodes(system):
    """The nodes each positive root involves, read off its coordinates."""
    return tuple(
        frozenset(j for j, c in enumerate(root, start=1) if c)
        for root in system.positive_roots
    )


def _inversion_set_support(system, w):
    """The support by its definition on the full rep: the union of the
    supports of the positive roots that w sends negative."""
    inverted = [q < 0 for q in full_rep(system, w)]
    return frozenset().union(*compress(_root_nodes(system), inverted))


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "D4", "D5", "E6",
     "F4", "G2", "I2(7)"],
)
def test_support_reads_the_simple_root_images_on_every_element(name):
    """On every element, `support` equals the walk record's support and the
    inversion-set reference (I2(m) has no roots: the letters of its reduced
    word instead)."""
    system = coxeter_system(name)
    dihedral = system.positive_roots is None
    for node in system.weak_order():
        w = node.element
        got = system.support(w)
        want = frozenset(w.word()) if dihedral else _inversion_set_support(system, w)
        assert got == want == node.support, w.rep


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_support_matches_the_inversion_set_on_random_words(name):
    system = coxeter_system(name)
    rng = random.Random(name)
    for _ in range(3000):
        word = [rng.randint(1, system.rank) for _ in range(rng.randint(0, 150))]
        w = evaluate(system, word)
        assert system.support(w) == _inversion_set_support(system, w), word


@pytest.mark.parametrize("name", ["A1", "B3", "E8"])
def test_support_table_holds_one_mask_per_node_and_signed_root(name):
    """rank tables of 2N + 1 ints, indexed like `_left_images`, and one
    frozenset per mask: equal supports are one object."""
    system = coxeter_system(name)
    n = len(system.positive_roots)
    assert [len(t) for t in system._image_supports] == [2 * n + 1] * system.rank
    # supp(alpha_j - alpha_j) is empty; supp(-alpha_j - alpha_j) is {j}
    for j, table in enumerate(system._image_supports):
        assert table[j + 1] == 0 and table[-(j + 1)] == 1 << j
    w0 = system.longest_element()
    everything = frozenset(range(1, system.rank + 1))
    assert system.support(w0) == everything
    assert system.support(w0) is system.support(system.inverse(w0))
    assert system.support(system.identity) == frozenset()


def test_invalid_cartan_type_names_only_what_is_wrong():
    for family, rank, text in [("E", 9, "E9"), ("B", 1, "B1"), ("A", 0, "A0")]:
        with pytest.raises(CoxeterError) as exc:
            CartanType(family, rank)
        assert str(exc.value) == f"invalid Cartan type {text}"
    with pytest.raises(CoxeterError) as exc:
        CartanType.parse("I2(2)")
    assert str(exc.value) == "invalid Cartan type I2 (gonality=2)"


def _prefix_keyed_walk(system):
    """The walk `weak_order` makes, by steps and the model: each edge w s_i
    stepped (`step`), each level deduped and sorted by rep, the images of
    the simple roots, which lead the model's full rep and fix the element;
    J(w) is read off the full rep, -i in it for each left descent i."""
    rank, empty = system.rank, frozenset()
    level = [WeakOrderNode(system.identity, empty, (), (), empty)]
    out = []
    while level:
        out.extend(level)
        nxt = {}
        for i in range(1, rank + 1):
            for node in level:
                if i not in node.descents:
                    v = system.step(node.element, i)
                    nxt.setdefault(v.rep, [v]).append((i, node))
        level = []
        for key in sorted(nxt):
            v, *edges = nxt[key]
            descents = tuple(i for i, _ in edges)
            down = tuple(node for _, node in edges)
            J = frozenset(-q for q in full_rep(system, v) if -rank <= q < 0)
            level.append(WeakOrderNode(v, down[0].support | {descents[0]}, descents, down, J))
    return out


WALK_GROUPS = [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "D4", "D5",
    "F4", "G2", "I2(7)", "I2(60)",
]


@pytest.mark.parametrize("name", [*WALK_GROUPS, pytest.param("E6", marks=pytest.mark.slow)])
def test_code_keyed_walk_matches_the_prefix_keyed_reference(name):
    """Record by record, the code-keyed walk gives what the prefix-keyed
    walk gave: rep, length, support, descents, the down-edges by position
    and the left descents, in the same order."""
    system = coxeter_system(name)
    got, want = system.weak_order(), _prefix_keyed_walk(system)
    assert len(got) == len(want) == system.order()
    at_got = {node: k for k, node in enumerate(got)}
    at_want = {node: k for k, node in enumerate(want)}
    for g, w in zip(got, want):
        assert g.element.rep == w.element.rep
        assert g.length == w.length == g.element.length
        assert g.support == w.support
        assert g.descents == w.descents
        assert [at_got[c] for c in g.down] == [at_want[c] for c in w.down]
        assert g.left_descents == w.left_descents


def _root_weight_codes(system):
    """Each positive root beta's weight coordinates <beta, alpha_k-check> =
    sum_j A[k][j] c_j, for beta = sum_j c_j alpha_j, read in base 2 B + 1,
    B = max_k sum_beta |<beta, alpha_k-check>|: built once per system from
    the Cartan matrix and the roots."""
    roots, rank, A = system.positive_roots, system.rank, system.cartan_matrix
    pairings = [
        [sum(A[k][j] * root[j] for j in range(rank)) for k in range(rank)]
        for root in roots
    ]
    base = 2 * max(sum(abs(p[k]) for p in pairings) for k in range(rank)) + 1
    return [sum(c * base**k for k, c in enumerate(p)) for p in pairings]


def _code_from_scratch(codes, full):
    """The code of w(2 rho) = sum over beta > 0 of w(beta), summed root by
    root over the full rep: the code is linear, so it is the signed sum of
    the codes of the roots w(beta)."""
    return sum(codes[q - 1] if q > 0 else -codes[-q - 1] for q in full)


@pytest.mark.parametrize("name", [*WALK_GROUPS, pytest.param("E6", marks=pytest.mark.slow)])
def test_walk_codes_are_distinct_and_step_by_the_table(name):
    """The codes of w(2 rho) are pairwise distinct over the group, the walk
    starts from the identity's, and on every edge, up or down, `_right_code`
    gives the code of w s_i computed from scratch; in I2(m) the code is
    the rep."""
    system = coxeter_system(name)
    elements = system.elements()
    if system.positive_roots is None:
        code = {w: w.rep for w in elements}
    else:
        codes = _root_weight_codes(system)
        code = {w: _code_from_scratch(codes, full_rep(system, w)) for w in elements}
    assert len(set(code.values())) == len(elements) == system.order()
    assert system._start_code() == code[system.identity]
    for w in elements:
        for i in range(1, system.rank + 1):
            got = system._right_code(w.rep, code[w], i)
            assert got == code[system.step(w, i)], (w.rep, i)


def _inversion_set_word(system, w):
    """The lex-first reduced word read off the inversion set N(w^-1) =
    {-q for q in the full rep if q < 0}, whose smallest root, when simple,
    is the smallest left descent i; then N((s_i w)^-1) = s_i(N(w^-1) minus
    alpha_i), mapped root by root through the full rep of s_i."""
    roots = {-q for q in full_rep(system, w) if q < 0}
    generators = _generator_reps(system)
    letters = []
    while roots:
        i = min(roots)
        if not 0 < i <= system.rank:
            pytest.fail(f"no simple root left after {len(letters)} letters")
        letters.append(i)
        roots.discard(i)
        images = generators[i - 1]
        roots = {images[p - 1] for p in roots}
    return tuple(letters)


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "D4", "D5", "F4",
     "G2", pytest.param("E6", marks=pytest.mark.slow)],
)
def test_word_matches_the_inversion_set_walk_on_every_element(name):
    system = coxeter_system(name)
    for w in system.elements():
        assert w.word() == _inversion_set_word(system, w), w.rep


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_word_matches_the_inversion_set_walk_on_random_words(name):
    """On w0, then 3000 seeded random words."""
    system = coxeter_system(name)
    w0 = system.longest_element()
    assert w0.word() == _inversion_set_word(system, w0)
    rng = random.Random(name)
    for _ in range(3000):
        word = [rng.randint(1, system.rank) for _ in range(rng.randint(0, 150))]
        w = evaluate(system, word)
        assert w.word() == _inversion_set_word(system, w), word


IMAGE_GROUPS = [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "D4", "D5",
    "F4", "G2",
]


def _compose(u, v):
    """The full rep of uv from those of u and v: uv(beta) = u(v(beta))."""
    return tuple(u[q - 1] if q > 0 else -u[-q - 1] for q in v)


@lru_cache(maxsize=None)
def _generator_reps(system):
    """The full reps of s_1, ..., s_rank."""
    return tuple(full_rep(system, s) for s in system._generators)


def _has_full_rep(system, v, full):
    """Whether v is the element with this full rep. In a root system its
    images lead the full rep and fix it; in I2(m) the pair (r, f) is
    compared through the model."""
    if system.positive_roots is None:
        return full_rep(system, v) == full
    return v.rep == full[: system.rank]


def _check_images(system, w):
    """The image step, descents and support at w against its full rep:
    w s_i is the composite of w's full rep and s_i's, whose first `rank`
    entries are the images; i is a right descent iff entry i is negative."""
    rank, images, full = system.rank, w.rep, full_rep(system, w)
    assert full[:rank] == images
    for i, s in enumerate(_generator_reps(system), start=1):
        assert system._right_images(images, i) == _compose(full, s)[:rank], (images, i)
    assert system._image_descents(images) == tuple(i for i in range(1, rank + 1) if full[i - 1] < 0)
    assert system._image_support(images) == _inversion_set_support(system, w)


@pytest.mark.parametrize("name", IMAGE_GROUPS)
def test_image_step_matches_the_full_right_step_on_every_element(name):
    """`_right_images(images, i)` is the first `rank` entries of the full
    rep of w s_i, and the descents and support read off the images are
    those of the full rep."""
    system = coxeter_system(name)
    for w in system.elements():
        _check_images(system, w)


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_image_step_matches_the_full_right_step_on_random_words(name):
    system = coxeter_system(name)
    rng = random.Random(name)
    for _ in range(3000):
        word = [rng.randint(1, system.rank) for _ in range(rng.randint(0, 150))]
        _check_images(system, evaluate(system, word))


def _check_weights(system, x, carried, full):
    """The weight coordinates of x(2 rho) that x carries (`carried`: from a
    left step) or decodes on first use (`carried` False: `product`, a right
    step, `multiply`, `inverse`) against the model's, from x's full rep
    `full`. I2(m) carries none."""
    if system.positive_roots is None:
        assert x._weights is None
        return
    assert (x._weights is not None) == carried, x.rep
    assert system._carried_weights(x) == weights(system, x, full), x.rep


def _check_public_bodies(system, w, v):
    """`length` of the bare images, `multiply` (by v), `inverse`,
    `left_descents`, `step` and, in type A, `element_to_perm` at w, each
    against a computation on the full rep; and the weight coordinates of
    x(2 rho) that each result x carries or decodes, against the model's
    (one right step per element, its letter cycling with l(w))."""
    rank, full = system.rank, full_rep(system, w)
    assert len(w.rep) == rank
    negatives = sum(q < 0 for q in full)
    assert system.length(Element(system, w.rep)) == negatives == w.length
    _check_weights(system, system.product(w.word()), False, full)
    product = _compose(full, full_rep(system, v))
    uv = system.multiply(w, v)
    assert _has_full_rep(system, uv, product)
    assert uv.length == sum(q < 0 for q in product)
    _check_weights(system, uv, False, product)
    inverse = [0] * len(full)
    for p, q in enumerate(full, start=1):
        inverse[abs(q) - 1] = p if q > 0 else -p
    assert _has_full_rep(system, system.inverse(w), tuple(inverse))
    assert system.inverse(w).length == negatives
    _check_weights(system, system.inverse(w), False, inverse)
    J = frozenset(-q for q in full if -rank <= q < 0)
    assert system.left_descents(w) == J
    generators = _generator_reps(system)
    for i, s in enumerate(generators, start=1):
        u = system.step(w, i, left=True)
        assert _has_full_rep(system, u, _compose(s, full)), i
        assert u._length == (negatives - 1 if i in J else negatives + 1), i
        _check_weights(system, u, True, _compose(s, full))
    i = negatives % rank + 1
    _check_weights(system, system.step(w, i), False, _compose(full, generators[i - 1]))
    if system.cartan_type.family == "A":
        # each inverted root e_a - e_b, a < b, adds 1 at a and takes 1 off at b
        line = list(range(1, rank + 2))
        for root, q in zip(system.positive_roots, full):
            if q < 0:
                nodes = [j for j, c in enumerate(root) if c]
                line[nodes[0]] += 1
                line[nodes[-1] + 1] -= 1
        assert element_to_perm(system, w) == tuple(line)


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "A5", "B4", "D4", "D5", "F4", "G2", "I2(7)"]
)
def test_public_bodies_match_the_full_rep_on_every_element(name):
    """Every element of the group, each multiplied by a seeded random one."""
    system = coxeter_system(name)
    elements = system.elements()
    rng = random.Random(name)
    for w in elements:
        _check_public_bodies(system, w, rng.choice(elements))


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_public_bodies_match_the_full_rep_on_random_words(name):
    """3000 seeded random words, each element multiplied by the next."""
    system = coxeter_system(name)
    rng = random.Random(name)
    words = [
        [rng.randint(1, system.rank) for _ in range(rng.randint(0, 150))]
        for _ in range(3001)
    ]
    elements = [evaluate(system, word) for word in words]
    for w, v in zip(elements, elements[1:]):
        _check_public_bodies(system, w, v)


@pytest.mark.parametrize("name", ["B4", "E8"])
def test_length_of_bare_images_makes_one_expansion(name, monkeypatch):
    """`length()` of an element that carries no length expands it once,
    through the plan (`_images_length`), and keeps the result; evaluating
    words, stepping, multiplying, inverting, spelling and reading descents
    expand nothing."""
    system = coxeter_system(name)
    calls = []
    expand = system._images_length

    def counted(images):
        calls.append(images)
        return expand(images)

    monkeypatch.setitem(vars(system), "_images_length", counted)
    w = evaluate(system, [1, 2, 3, 2, 1, 4, 3, 2, 1, 4])
    u = system.inverse(system.multiply(w, system.step(w, 2, left=True)))
    u.word(), system.left_descents(u), system.support(u), system.right_descents(u)
    assert calls == []
    bare = Element(system, w.rep)
    assert bare.length == w.length > 0
    assert bare.length == w.length
    assert calls == [w.rep]


def _counted_decodes(system, monkeypatch):
    """The images that each later decode of w(2 rho) (`_weights`) reads."""
    calls = []
    decode = system._weights

    def counted(images):
        calls.append(images)
        return decode(images)

    monkeypatch.setitem(vars(system), "_weights", counted)
    return calls


def test_w_2rho_is_decoded_at_most_once_per_element(monkeypatch):
    """An element decodes w(2 rho) on its first descent or word query and
    keeps it, and a left step hands s_i w its coordinates: one decode per
    E8 `run_check` (the README's word, I = {2, 3}), one per
    `reduced_word_count` of B4's w0, none for an I2(60) request, whose
    descents are closed forms, and none for the elements the walk of
    `weak_order` makes."""
    from coxsph import harness, reduced_word_count

    e8 = coxeter_system("E8")
    calls = _counted_decodes(e8, monkeypatch)
    for paranoid in (False, True):
        calls.clear()
        report = harness.run_check("E8", E8_WORD_NOT_WITNESS, {2, 3}, paranoid)
        assert report.left_descents and len(calls) == 1
    b4 = coxeter_system("B4")
    w0 = b4.longest_element()
    count = reduced_word_count(b4, w0)
    fresh = evaluate(b4, w0.word())
    calls = _counted_decodes(b4, monkeypatch)
    assert reduced_word_count(b4, fresh) == count
    assert calls == [w0.rep]
    walk = b4.weak_order()  # after the shared identity, |W| - 1 new elements
    assert all(node.element._weights is None for node in walk[1:])
    assert calls == [w0.rep]
    i2 = coxeter_system("I2(60)")
    calls = _counted_decodes(i2, monkeypatch)
    harness.run_check("I2(60)", "s1 s2 s1", {1}, paranoid=True)
    assert calls == []


@pytest.mark.parametrize("name", [*IMAGE_GROUPS, "E6", "E7", "E8"])
def test_expansion_plan_builds_each_root_from_an_earlier_one(name):
    """The plan has one entry per non-simple positive root, in root order:
    beta = beta' + k alpha_i with beta' earlier and k = -<beta',
    alpha_i-check>; k > 1 only across a multiple bond (B, F, G2). The
    pairings the closure kept are <beta, alpha_k-check> for every root."""
    system = coxeter_system(name)
    roots, rank, A = system.positive_roots, system.rank, system.cartan_matrix
    plan = system._plan
    assert len(plan) == len(roots) - rank
    for n, (p, i, k) in enumerate(plan, start=rank):
        assert p < n and 0 <= i < rank
        beta = list(roots[p])
        beta[i] += k
        assert tuple(beta) == roots[n]
        assert k == -system._pairings[p][i] > 0
    if name[0] not in "BFG":
        assert {k for _, _, k in plan} <= {1}
    else:
        assert max(k for _, _, k in plan) > 1
    assert system._pairings == tuple(
        tuple(sum(A[i][j] * root[j] for j in range(rank)) for i in range(rank))
        for root in roots
    )


def test_root_codes_keep_the_sign_and_read_back():
    """Each signed root's code is read back by `_code_roots`, and a code is
    negative exactly on a negative root."""
    for name in ("B5", "F4", "G2", "E8"):
        system = coxeter_system(name)
        n = len(system.positive_roots)
        for q in [*range(1, n + 1), *range(-n, 0)]:
            code = system._root_codes[q]
            assert system._code_roots[code] == q
            assert (code < 0) == (q < 0)
