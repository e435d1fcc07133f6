import hashlib
import itertools

import pytest

from coxsph import coxeter_system, polyring, reduced_words, splitrule
from coxsph.polyring import SplitSet, key_polynomial, split_expand
from coxsph.splitrule import (
    EMPTY_TABLEAU,
    IncreasingTableau,
    _RuleSearch,
    build_t_alpha,
    eg_column_insert,
    row_word,
    ry_expand,
    ry_tableau_sequences,
)
from coxsph.typea import (
    apply_word,
    descents,
    element_to_perm,
    inversions,
    perm_from_code,
)


def test_increasing_tableau_validation():
    IncreasingTableau(((1, 3), (2,)))
    with pytest.raises(ValueError):
        IncreasingTableau(((1, 1),))
    with pytest.raises(ValueError):
        IncreasingTableau(((2, 3), (2,)))
    with pytest.raises(ValueError):
        IncreasingTableau(((1,), (2, 3)))


def test_build_t_alpha_examples():
    assert build_t_alpha((0, 0, 0, 2, 1)).to_lists() == [[4, 5], [5]]
    assert build_t_alpha((0, 0)).to_lists() == []
    assert build_t_alpha(()).to_lists() == []
    t = build_t_alpha((2, 1, 0))
    assert t.to_lists() == [[1, 2], [2]]


def _reference_t_alpha(alpha):
    """`build_t_alpha` as first written: every descent rescanned per swap."""
    line = list(perm_from_code(tuple(alpha)))
    n = len(line)
    cols = []
    while True:
        desc = descents(line)
        if not desc:
            break
        col = []
        limit = n
        while True:
            pick = max((i for i in desc if i < limit), default=None)
            if pick is None:
                break
            line[pick - 1], line[pick] = line[pick], line[pick - 1]
            col.append(pick)
            limit = pick
            desc = descents(line[:limit])
        cols.append(tuple(reversed(col)))
    return IncreasingTableau.from_columns(cols)


def test_build_t_alpha_matches_the_rescanning_reference():
    count = 0
    for length in range(1, 7):
        for alpha in itertools.product(range(5), repeat=length):
            assert build_t_alpha(alpha).rows == _reference_t_alpha(alpha).rows
            count += 1
    assert count == 19530


def test_eg_column_insert_examples():
    assert eg_column_insert((4, 5, 4)).to_lists() == [[4, 5], [5]]
    assert eg_column_insert((5, 4, 5)).to_lists() == [[4, 5], [5]]
    assert eg_column_insert((7,)).to_lists() == [[7]]
    assert eg_column_insert(()).to_lists() == []
    with pytest.raises(ValueError):
        eg_column_insert((1, 1))
    with pytest.raises(ValueError):
        eg_column_insert((1, 3, 1))


def test_row_word_examples():
    assert row_word(IncreasingTableau(((4, 5), (5,)))) == (5, 4, 5)
    assert row_word(IncreasingTableau(((1, 3),))) == (3, 1)
    assert row_word(EMPTY_TABLEAU) == ()


def test_row_word_of_insertion_is_equivalent_word():
    """Insertion tableaux stay in the same class: the row word multiplies back."""
    a4 = coxeter_system("A4")
    for w in a4.elements():
        for word in reduced_words(a4, w):
            tab = eg_column_insert(word)
            assert tab.size() == w.length
            got = row_word(tab)
            recovered = a4.identity
            for i in got:
                recovered = a4.multiply(recovered, a4.generator(i))
            assert recovered == w
            assert element_to_perm(a4, recovered) == element_to_perm(a4, w)


def test_ry_coefficient_two_with_exact_sequences():
    split = SplitSet(6, (1, 2, 4, 5))
    expansion = ry_expand((0, 0, 0, 2, 1), split)
    key = ((1,), (1,), (1, 0), (0,), (0,))
    assert expansion.coefficients[key] == 2
    seqs = ry_tableau_sequences((0, 0, 0, 2, 1), split)[key]
    flat = sorted(tuple(t.to_lists() for t in seq) for seq in seqs)
    assert flat == [
        ([[4]], [[5]], [[4]], [], []),
        ([[5]], [[4]], [[5]], [], []),
    ]
    # the matching polynomial statement
    peeled = split_expand(key_polynomial((0, 0, 0, 2, 1, 0)), split)
    assert peeled.coefficients == expansion.coefficients


def test_ry_weakly_decreasing_single_term():
    split = SplitSet(3, (1, 2))
    expansion = ry_expand((2, 1, 0), split)
    assert expansion.coefficients == {((2,), (1,), (0,)): 1}
    split2 = SplitSet(4, (2,))
    expansion2 = ry_expand((3, 3, 1, 1), split2)
    assert expansion2.coefficients == {((3, 3), (1, 1)): 1}


def test_ry_identity_composition():
    split = SplitSet(3, (1,))
    expansion = ry_expand((0, 0, 0), split)
    assert expansion.coefficients == {((0,), (0, 0)): 1}


def test_ry_rejects_descents_outside_split():
    with pytest.raises(ValueError):
        ry_expand((2, 1, 0), SplitSet(3, (2,)))


def test_ry_matches_reference_expansion():
    split = SplitSet(5, (2, 4))
    expansion = ry_expand((1, 5, 2, 4, 3), split)
    peeled = split_expand(key_polynomial((1, 5, 2, 4, 3)), split)
    assert expansion.coefficients == peeled.coefficients


def test_scaling_prefix_of_full_rows():
    """Prepending f full rows of 3 and splitting them off as singleton blocks
    prefixes every shape tuple with f copies of (3)."""
    a = 3
    base_split = SplitSet(a + 3, (1, 2, a + 1, a + 2))
    base = ry_expand((0,) * a + (2, 1), base_split).coefficients
    for f in (1, 2):
        n = f + a + 3
        D = tuple(range(1, f + a)) + (f + a + 1, f + a + 2)
        split = SplitSet(n, D)
        alpha = (3,) * f + (0,) * a + (2, 1)
        got = ry_expand(alpha, split).coefficients
        expected = {((3,),) * f + lams: c for lams, c in base.items()}
        assert got == expected


def _splits(length, parts):
    """Every (alpha, SplitSet) with len(alpha) = length, parts < `parts`, and
    D holding alpha's descents."""
    for alpha in itertools.product(range(parts), repeat=length):
        desc = {i + 1 for i in range(length - 1) if alpha[i] > alpha[i + 1]}
        for r in range(length):
            for D in itertools.combinations(range(1, length), r):
                if desc <= set(D):
                    yield alpha, SplitSet(length, D)


def test_ry_equals_peel_quick_sweep():
    for length in range(1, 5):
        for alpha, split in _splits(length, 3):
            peeled = split_expand(key_polynomial(alpha), split)
            assert ry_expand(alpha, split).coefficients == peeled.coefficients


@pytest.mark.slow
def test_ry_equals_peel_n6():
    """Blocks of 4-6 variables, which the n <= 5 sweeps never reach."""
    cases = 0
    for alpha, split in _splits(6, 3):
        peeled = split_expand(key_polynomial(alpha), split)
        assert ry_expand(alpha, split).coefficients == peeled.coefficients
        cases += 1
    assert cases == 8318


def test_rule_search_states_are_pinned():
    """The walk's work as a golden value: distinct memoized states summed
    over every alpha with n <= 4, parts <= 3, and every D holding its
    descents. CHANGES.md explains any change to this number."""
    cases = states = 0
    for length in range(1, 5):
        for alpha, split in _splits(length, 4):
            search = _RuleSearch(alpha, split, len)
            search.run()
            cases += 1
            states += len(search.memo)
    assert (cases, states) == (1225, 28651)


def test_rule_search_insertions_are_pinned(monkeypatch):
    """Over the family of the states pin, the walk column-inserts each letter
    into each tableau at most once: 21627 insertions, the distinct
    (tableau, letter) pairs tried. It builds no Poly."""
    calls = 0
    real_insert = splitrule._eg_insert_columns

    def counted(*args):
        nonlocal calls
        calls += 1
        return real_insert(*args)

    def forbidden(*args):
        raise AssertionError("the tableau rule must not build a Poly")

    monkeypatch.setattr(splitrule, "_eg_insert_columns", counted)
    monkeypatch.setattr(polyring.Poly, "__init__", forbidden)
    for length in range(1, 5):
        for alpha, split in _splits(length, 4):
            _RuleSearch(alpha, split, len).run()
    assert calls == 21627


def test_tableau_sequences_walk_order_is_pinned():
    """Every listed sequence, in the order the walk lists it, as one sha256
    over every alpha with n <= 4, parts <= 3, and every D holding its
    descents. A prune may drop only branches that count nothing, and may not
    reorder the walk."""
    digest = hashlib.sha256()
    for length in range(1, 5):
        for alpha, split in _splits(length, 4):
            digest.update(repr((alpha, split.D)).encode())
            for key, seqs in ry_tableau_sequences(alpha, split).items():
                digest.update(repr(key).encode())
                for seq in seqs:
                    digest.update(repr([t.rows for t in seq]).encode())
    assert digest.hexdigest() == (
        "be7b0f7ab2a1565b29ecd3daae9ce9bdb48cdfdf2996c8018bcb5a749cbb4e20"
    )


def test_every_counted_sequence_obeys_the_rule():
    """Each sequence meets (a)-(d) of the rule, checked from scratch."""
    for length in range(1, 5):
        for alpha, split in _splits(length, 3):
            line = perm_from_code(alpha)
            target = build_t_alpha(alpha)
            cuts, sizes = (0,) + split.D, split.block_sizes()
            counts = ry_expand(alpha, split).coefficients
            found = ry_tableau_sequences(alpha, split)
            assert {k: len(v) for k, v in found.items()} == counts
            for key, seqs in found.items():
                assert len(set(seqs)) == len(seqs)
                for seq in seqs:
                    assert len(seq) == len(sizes)
                    word = ()
                    for t, lam, lo, size in zip(seq, key, cuts, sizes):
                        assert len(t.shape) <= size  # (a)
                        assert t.shape + (0,) * (size - len(t.shape)) == lam
                        assert all(x > lo for row in t.rows for x in row)  # (b)
                        word += row_word(t)
                    assert apply_word(len(line), word) == line  # (c)
                    assert inversions(line) == len(word)
                    assert eg_column_insert(word) == target  # (d)
