"""Property tests for the split-Schur expansion oracles (needs Hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from coxsph.polyring import (
    Poly,
    SplitSet,
    d_schur,
    demazure_pi,
    is_D_multiplicity_free,
    key_polynomial,
    split_expand,
    split_expand_via_solver,
)
from coxsph.splitrule import IncreasingTableau, _fits


def _block_partition(size):
    return st.lists(st.integers(0, 3), min_size=size, max_size=size).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )


@st.composite
def d_schur_combinations(draw):
    """A split of n <= 5 and nonzero integer coefficients on D-Schur products."""
    n = draw(st.integers(1, 5))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    split = SplitSet(n, tuple(j for j, cut in enumerate(cuts, start=1) if cut))
    lams = st.tuples(*(_block_partition(size) for size in split.block_sizes()))
    coeffs = draw(st.dictionaries(lams, st.integers(-3, 3).filter(bool), max_size=4))
    return split, coeffs


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(d_schur_combinations())
def test_oracles_recover_random_d_schur_combinations(case):
    split, coeffs = case
    f = Poly.zero(split.n)
    for lams, c in coeffs.items():
        f = f + d_schur(split, lams).scale(c)
    for expansion in (split_expand(f, split), split_expand_via_solver(f, split)):
        assert expansion.coefficients == coeffs
        assert expansion.reconstruct() == f


@st.composite
def keys_with_valid_splits(draw):
    """alpha with n <= 5 parts <= 3, and a split D that contains its descents."""
    n = draw(st.integers(1, 5))
    alpha = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    extra = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    D = tuple(
        j for j in range(1, n) if alpha[j - 1] > alpha[j] or extra[j - 1]
    )
    return alpha, SplitSet(n, D)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(keys_with_valid_splits())
def test_multiplicity_free_verdict_matches_the_full_expansion(case):
    alpha, split = case
    kappa = key_polynomial(alpha)
    assert is_D_multiplicity_free(kappa, split) == (
        split_expand(kappa, split).is_multiplicity_free()
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=5))
def test_key_is_symmetric_exactly_at_weak_ascents(parts):
    # Lascoux-Schutzenberger: kappa_alpha is symmetric in x_j, x_(j+1)
    # exactly when alpha_j <= alpha_(j+1). Reading that off alpha checks the
    # `is_symmetric_in` scan, which gates every consistency-sweep verdict.
    kappa = key_polynomial(parts)
    for j in range(1, len(parts)):
        assert kappa.is_symmetric_in(j) == (parts[j - 1] <= parts[j]), j


def _scan_by_swapping(terms, j):
    """The swap loop `Poly._scan_symmetric` replaced, kept as its reference."""
    for e, c in terms.items():
        if e[j - 1] != e[j]:
            le = list(e)
            le[j - 1], le[j] = le[j], le[j - 1]
            if terms.get(tuple(le), 0) != c:
                return False
    return True


@st.composite
def nearly_symmetric_polys(draw):
    """A signed sparse Poly in 2..5 variables, often symmetric in one x_j,
    x_(j+1) but for a term whose partner is dropped or negated."""
    n = draw(st.integers(2, 5))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    terms = draw(st.dictionaries(exps, st.integers(-2, 2).filter(bool), max_size=6))
    j = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        for e, c in list(terms.items()):
            terms.setdefault(e[: j - 1] + (e[j], e[j - 1]) + e[j + 1 :], c)
    moved = sorted(e for e in terms if e[j - 1] != e[j])
    if moved:
        e = draw(st.sampled_from(moved))
        flaw = draw(st.sampled_from(("none", "drop", "negate")))
        if flaw == "drop":
            del terms[e]
        elif flaw == "negate":
            terms[e] = -terms[e]
    return Poly(n, terms)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(nearly_symmetric_polys())
@example(Poly.zero(2))
@example(Poly.zero(5))
def test_one_pass_scan_matches_the_swap_loop(f):
    for j in range(1, f.nvars):
        assert f._scan_symmetric(j) == _scan_by_swapping(f.terms, j), (f, j)
        assert f.is_symmetric_in(j) == _scan_by_swapping(f.terms, j), (f, j)


@st.composite
def key_and_poly(draw):
    """A key with n <= 5 parts <= 2, a sparse Poly in n variables, a scalar."""
    n = draw(st.integers(2, 5))
    alpha = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    g = draw(st.dictionaries(exps, st.integers(-2, 2).filter(bool), max_size=5))
    return key_polynomial(alpha), Poly(n, g), draw(st.integers(-2, 2))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(key_and_poly())
def test_symmetry_answers_are_not_carried_to_derived_polys(case):
    f, g, c = case
    js = range(1, f.nvars)
    for h in (f, g):  # fill both memos before deriving anything from them
        for j in js:
            h.is_symmetric_in(j)
    derived = [f, g, f + g, f - g, g - f, f * g, f.scale(c), g.scale(c)]
    derived += [demazure_pi(j, p) for j in js for p in (f, g)]
    for h in derived:
        fresh = Poly(h.nvars, dict(h.terms))
        for j in js:
            assert h.is_symmetric_in(j) == fresh.is_symmetric_in(j), (h, j)


@st.composite
def rows_and_extension(draw):
    """Strictly increasing last and row, and a letter j < row[0]."""
    increasing = st.sets(st.integers(1, 9), min_size=1, max_size=5).map(
        lambda cells: tuple(sorted(cells))
    )
    last, row = draw(increasing), draw(increasing)
    return last, row, draw(st.integers(0, row[0] - 1))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(rows_and_extension())
def test_a_row_that_does_not_fit_never_fits_once_extended(case):
    # The tableau rule skips a letter whose row does not fit under the last
    # closed row; that is sound only because extending cannot make it fit.
    last, row, j = case
    if not _fits(row, last):
        assert not _fits((j,) + row, last)
    for r in (row, (j,) + row):
        try:
            IncreasingTableau((last, r))
        except ValueError:
            assert not _fits(r, last), (last, r)
        else:
            assert _fits(r, last), (last, r)
