"""Property tests for the split-Schur expansion oracles (needs Hypothesis)."""

from operator import add

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from coxsph import polyring
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


def _tuple_demazure_pi(j, terms):
    """The tuple-keyed `demazure_pi` that packed keys replaced, kept as its
    reference: {exponent tuple: coefficient} in and out."""
    out = {}
    for e, c in terms.items():
        p, q = e[j - 1], e[j]
        hi, lo, sign = (p, q, c) if p >= q else (q - 1, p + 1, -c)
        le = list(e)
        for t in range(hi - lo + 1):
            le[j - 1], le[j] = hi - t, lo + t
            k = tuple(le)
            out[k] = out.get(k, 0) + sign
            if not out[k]:
                del out[k]
    return out


def _tuple_key(alpha):
    j = next((i for i in range(len(alpha) - 1) if alpha[i] < alpha[i + 1]), None)
    if j is None:
        return {tuple(alpha): 1}
    hat = list(alpha)
    hat[j], hat[j + 1] = hat[j + 1], hat[j]
    return _tuple_demazure_pi(j + 1, _tuple_key(tuple(hat)))


def _tuple_read(terms, split):
    """The tuple-keyed `is_D_multiplicity_free` that packed keys replaced,
    kept as its reference: each shift is a tuple sum, and block dominance a
    loop over the split's pairs."""
    if not all(_scan_by_swapping(terms, j) for _, j in split.pairs):
        raise ValueError("polynomial is not split-symmetric for this D")
    plus, minus = polyring._alternant_shifts(split)
    for lam, c in terms.items():
        if any(lam[i] < lam[j] for i, j in split.pairs):
            continue
        c += sum(terms.get(tuple(map(add, lam, t)), 0) for t in plus)
        c -= sum(terms.get(tuple(map(add, lam, t)), 0) for t in minus)
        if c > 1:
            return False
        if c < 0:
            raise ValueError(f"D-Schur coefficient {c} < 0 at {lam}; use split_expand")
    return True


def _verdict(read, *args):
    try:
        return read(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def lifted_keys_and_splits(draw):
    """A key with n <= 5 parts <= 3, times (x_1...x_n)^r with r up to the
    largest lift that keeps every exponent in its field, and any split: the
    read's shifts then take entries below 0 and above the top exponent."""
    n = draw(st.integers(1, 5))
    alpha = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    top = polyring._TOP - max(alpha)
    r = draw(st.sampled_from((0, 1, top - 1, top)))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    split = SplitSet(n, tuple(j for j, cut in enumerate(cuts, start=1) if cut))
    return tuple(a + r for a in alpha), split


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(lifted_keys_and_splits())
def test_packed_key_and_read_match_the_tuple_references(case):
    alpha, split = case
    kappa = key_polynomial(alpha)
    terms = dict(kappa.items())
    assert terms == _tuple_key(alpha)
    assert _verdict(is_D_multiplicity_free, kappa, split) == _verdict(_tuple_read, terms, split)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(d_schur_combinations(), st.sampled_from((0, 1, polyring._TOP - 3)))
def test_packed_read_matches_the_tuple_reference_on_signed_combinations(case, r):
    # signed coefficients: the read may stop above 1 or raise below 0, and
    # must do so at the same monomial as the reference
    split, coeffs = case
    f = Poly.zero(split.n)
    for lams, c in coeffs.items():
        f = f + d_schur(split, lams).scale(c)
    f = f * Poly.monomial((r,) * split.n)
    assert _verdict(is_D_multiplicity_free, f, split) == (
        _verdict(_tuple_read, dict(f.items()), split)
    )
    expected = {
        tuple(tuple(p + r for p in lam) for lam in lams): c for lams, c in coeffs.items()
    }
    assert split_expand_via_solver(f, split).coefficients == expected


@st.composite
def sparse_polys_and_operator(draw):
    """A signed sparse Poly in 2..5 variables with exponents near 0 or at the
    top of the field, and an operator index j."""
    n = draw(st.integers(2, 5))
    top = polyring._TOP
    exps = st.tuples(*[st.sampled_from((0, 1, 2, top - 2, top - 1, top))] * n)
    terms = draw(st.dictionaries(exps, st.integers(-2, 2).filter(bool), max_size=6))
    return Poly(n, terms), draw(st.integers(1, n - 1))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(sparse_polys_and_operator())
def test_packed_demazure_matches_the_tuple_reference(case):
    f, j = case
    assert dict(demazure_pi(j, f).items()) == _tuple_demazure_pi(j, dict(f.items()))


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
        assert f._scan_symmetric(j) == _scan_by_swapping(dict(f.items()), j), (f, j)
        assert f.is_symmetric_in(j) == _scan_by_swapping(dict(f.items()), j), (f, j)


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
        fresh = Poly(h.nvars, dict(h.items()))
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
