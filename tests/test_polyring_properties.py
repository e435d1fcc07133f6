"""Property tests for the split-Schur expansion oracles (needs Hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from coxsph.polyring import (
    Poly,
    SplitSet,
    d_schur,
    split_expand,
    split_expand_via_solver,
)


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
