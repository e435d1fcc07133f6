import itertools
import random
from itertools import islice
from math import factorial, prod

import pytest

from coxsph import polyring
from coxsph.polyring import (
    Poly,
    SplitSet,
    d_schur,
    demazure_pi,
    expand_in_keys,
    is_D_multiplicity_free,
    is_split_symmetric,
    key_polynomial,
    key_via_kohnert,
    schur,
    split_expand,
    split_expand_via_solver,
    staircase_composition,
    staircase_test,
)
from coxsph import typea as ta

from golden_data import KEY_15243_D24_EXPANSION


def _worked_example_poly():
    return (
        Poly.monomial((1, 2, 0, 1))
        + Poly.monomial((2, 1, 0, 1))
        + Poly.monomial((1, 2, 1, 0))
        + Poly.monomial((2, 1, 1, 0))
        + Poly.monomial((2, 2, 0, 0))
    )


def _random_poly(rng, n, nterms=6, maxdeg=3):
    f = Poly.zero(n)
    for _ in range(nterms):
        exps = tuple(rng.randint(0, maxdeg) for _ in range(n))
        f = f + Poly.monomial(exps, rng.randint(-3, 3))
    return f


# -- Demazure operators ------------------------------------------------------


def test_demazure_basic_values():
    assert demazure_pi(1, Poly.variable(1, 2)) == Poly.monomial((1, 0)) + Poly.monomial((0, 1))
    got = demazure_pi(1, Poly.monomial((2, 0)))
    assert got == Poly.monomial((2, 0)) + Poly.monomial((1, 1)) + Poly.monomial((0, 2))
    assert demazure_pi(1, Poly.variable(2, 2)) == Poly.zero(2)


def test_demazure_idempotent_and_fixes_symmetric():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(2, 5)
        f = _random_poly(rng, n)
        j = rng.randint(1, n - 1)
        pf = demazure_pi(j, f)
        assert demazure_pi(j, pf) == pf
        assert pf.is_symmetric_in(j)
        if f.is_symmetric_in(j):
            assert pf == f


# -- key polynomials ---------------------------------------------------------


def test_key_of_weakly_decreasing_is_monomial():
    assert key_polynomial((3, 1, 0)) == Poly.monomial((3, 1, 0))
    assert key_via_kohnert((3, 1, 0)) == Poly.monomial((3, 1, 0))


def test_key_02_both_rules():
    expected = Poly.monomial((2, 0)) + Poly.monomial((1, 1)) + Poly.monomial((0, 2))
    assert key_polynomial((0, 2)) == expected
    assert key_via_kohnert((0, 2)) == expected


def test_key_worked_identity():
    g = _worked_example_poly()
    assert key_polynomial((1, 2, 0, 1)) + key_polynomial((2, 2, 0, 0)) == g


def test_key_leading_coefficient_is_one():
    for alpha in itertools.product(range(4), repeat=3):
        assert key_polynomial(alpha).coeff(alpha) == 1


def test_key_independent_of_sorting_order():
    def key_last_ascent(alpha):
        alpha = tuple(alpha)
        js = [i for i in range(len(alpha) - 1) if alpha[i] < alpha[i + 1]]
        if not js:
            return Poly.monomial(alpha)
        j = js[-1]
        hat = list(alpha)
        hat[j], hat[j + 1] = hat[j + 1], hat[j]
        return demazure_pi(j + 1, key_last_ascent(tuple(hat)))

    rng = random.Random(2)
    for _ in range(25):
        alpha = tuple(rng.randint(0, 4) for _ in range(rng.randint(2, 5)))
        assert key_polynomial(alpha) == key_last_ascent(alpha)


def test_antidominant_key_is_schur():
    assert key_polynomial((0, 1, 2)) == schur((2, 1), 3)
    assert key_polynomial((0, 0, 1, 1)) == schur((1, 1), 4)


def test_demazure_equals_kohnert_sweep():
    # every composition with at most 5 parts and weight at most 8
    for length in range(1, 6):
        for alpha in itertools.product(range(9), repeat=length):
            if sum(alpha) > 8:
                continue
            assert key_polynomial(alpha) == key_via_kohnert(alpha)


def test_kohnert_agrees_on_large_key():
    assert key_via_kohnert((1, 5, 2, 4, 3)) == key_polynomial((1, 5, 2, 4, 3))


def test_key_factorization_by_row_of_boxes():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randint(2, 4)
        alpha = tuple(rng.randint(0, 3) for _ in range(n))
        for r in range(1, 4):
            shifted = tuple(a + r for a in alpha)
            assert key_polynomial(shifted) == Poly.monomial((r,) * n) * key_polynomial(alpha)


# -- Schur polynomials ----------------------------------------------------------


def test_schur_basics():
    n = 4
    s1 = schur((1,), n)
    assert s1 == sum((Poly.variable(i, n) for i in range(2, n + 1)), Poly.variable(1, n))
    assert schur((2, 1), 3).coeff((1, 1, 1)) == 2
    assert schur((), 3) == Poly.one(3)
    with pytest.raises(ValueError):
        schur((1, 1, 1), 2)
    with pytest.raises(ValueError):
        schur((1, 2), 3)


def test_schur_rejects_a_zero_between_parts():
    # checked before trailing zeros go, as d_schur checks each block
    for lam in ((2, 0, 1), (0, 1), (1, -1), (2, 1, -1)):
        with pytest.raises(ValueError, match="is not a partition"):
            schur(lam, 3)
    assert schur((2, 1, 0), 3) == schur((2, 1), 3)
    assert schur((0, 0), 2) == schur((), 2) == Poly.one(2)


def test_variable_rejects_an_index_outside_1_to_nvars():
    for i in (0, 4, -2):
        with pytest.raises(ValueError, match=rf"variable index {i} out of range 1\.\.3"):
            Poly.variable(i, 3)
    assert Poly.variable(3, 3) == Poly.monomial((0, 0, 1))


def test_is_symmetric_in_rejects_an_index_outside_1_to_n_minus_1():
    f = Poly.monomial((2, 1, 0))  # x1^2 x2
    for p in (f, Poly.zero(3)):
        for j in (0, -1, 3, 4):
            with pytest.raises(ValueError, match=rf"operator index {j} out of range 1\.\.2"):
                p.is_symmetric_in(j)
        assert set(getattr(p, "_symmetric", {})) == set()  # nothing cached
    assert not f.is_symmetric_in(1) and not f.is_symmetric_in(2)
    assert Poly.monomial((1, 1, 0)).is_symmetric_in(1) and Poly.zero(3).is_symmetric_in(2)
    with pytest.raises(ValueError, match="out of range"):
        Poly.one(1).is_symmetric_in(1)


def test_schur_symmetric_and_padded():
    s = schur((3, 1), 3)
    for j in (1, 2):
        assert s.is_symmetric_in(j)
    # adding r to every part multiplies by (x1...xd)^r
    assert schur((4, 2), 2) == Poly.monomial((2, 2)) * schur((2,), 2)
    assert schur((3, 2, 1), 3) == Poly.monomial((1, 1, 1)) * schur((2, 1), 3)


def test_schur_dimension_staircase():
    # number of monomials counted with multiplicity for (2,1) in 3 variables
    assert sum(schur((2, 1), 3).terms.values()) == 8


# -- split sets and expansions -----------------------------------------------------


def test_split_set_blocks():
    split = SplitSet(5, (2, 4))
    assert split.blocks == ((1, 2), (3, 4), (5, 5))
    assert split.block_sizes() == (2, 2, 1)
    with pytest.raises(ValueError):
        SplitSet(3, (3,))
    # blocks are built once, outside the fields that ==, hash and repr see
    same = SplitSet(5, (4, 2, 2))
    assert same == split and hash(same) == hash(split)
    assert same.blocks == split.blocks and same.blocks is same.blocks
    assert repr(same) == "SplitSet(n=5, D=(2, 4))"


def test_split_symmetry_checks():
    g = _worked_example_poly()
    assert is_split_symmetric(g, SplitSet(4, (2,)))
    assert not is_split_symmetric(Poly.variable(1, 2), SplitSet(2, ()))
    s = schur((2, 1), 4)
    for D in ((), (1,), (2,), (1, 2, 3)):
        assert is_split_symmetric(s, SplitSet(4, D))
    kappa = key_polynomial((1, 5, 2, 4, 3))
    assert is_split_symmetric(kappa, SplitSet(5, (2, 4)))
    assert not is_split_symmetric(kappa, SplitSet(5, (2,)))


def test_split_expand_worked_example():
    g = _worked_example_poly()
    expansion = split_expand(g, SplitSet(4, (2,)))
    assert expansion.coefficients == {
        ((2, 1), (1, 0)): 1,
        ((2, 2), (0, 0)): 1,
    }
    assert expansion.reconstruct() == g
    assert expansion.is_multiplicity_free()


def test_worked_example_key_basis():
    g = _worked_example_poly()
    assert expand_in_keys(g) == {(1, 2, 0, 1): 1, (2, 2, 0, 0): 1}


def test_expand_in_keys_roundtrip_random():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(2, 4)
        picks = {}
        for _ in range(rng.randint(1, 4)):
            alpha = tuple(rng.randint(0, 3) for _ in range(n))
            picks[alpha] = picks.get(alpha, 0) + rng.choice((-2, -1, 1, 2, 3))
        f = Poly.zero(n)
        for alpha, c in picks.items():
            f = f + key_polynomial(alpha).scale(c)
        got = expand_in_keys(f)
        assert got == {a: c for a, c in picks.items() if c}


def test_reference_17_term_expansion():
    kappa = key_polynomial((1, 5, 2, 4, 3))
    expansion = split_expand(kappa, SplitSet(5, (2, 4)))
    assert expansion.coefficients == KEY_15243_D24_EXPANSION
    assert len(expansion.coefficients) == 17
    assert sorted(expansion.coefficients.values()).count(2) == 2
    assert expansion.reconstruct() == kappa
    assert not is_D_multiplicity_free(kappa, SplitSet(5, (2, 4)))


def test_schur_is_single_basis_element():
    s = schur((2, 1), 4)
    expansion = split_expand(s, SplitSet(4, ()))
    assert expansion.coefficients == {((2, 1, 0, 0),): 1}


def test_littlewood_richardson_split_nonnegative():
    for mu, m, a in (((2, 1), 4, 2), ((3, 1), 4, 1), ((2, 2), 4, 2), ((3, 2, 1), 5, 3)):
        s = schur(mu, m)
        expansion = split_expand(s, SplitSet(m, (a,)))
        assert all(c > 0 for c in expansion.coefficients.values())
        assert expansion.reconstruct() == s


def test_multiplicity_free_examples():
    assert is_D_multiplicity_free(key_polynomial((0, 0, 1, 1)), SplitSet(4, (1, 2, 3)))
    assert not is_D_multiplicity_free(key_polynomial((0, 1, 2)), SplitSet(3, (1, 2)))
    assert not is_D_multiplicity_free(key_polynomial((1, 5, 2, 4, 3)), SplitSet(5, (2, 4)))


def test_split_expand_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        split_expand(Poly.variable(1, 3), SplitSet(3, (2,)))
    with pytest.raises(ValueError):
        is_D_multiplicity_free(Poly.variable(1, 3), SplitSet(3, (2,)))


def _forbid_schur_products(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the bialternant read must not build Schur products")

    monkeypatch.setattr(polyring, "d_schur", forbidden)
    monkeypatch.setattr(polyring, "schur", forbidden)


def test_multiplicity_verdict_stops_at_the_first_coefficient_above_one(monkeypatch):
    kappa, split = key_polynomial((1, 5, 2, 4, 3)), SplitSet(5, (2, 4))
    _forbid_schur_products(monkeypatch)
    assert not is_D_multiplicity_free(kappa, split)
    # one variable per block: the coefficients are those of f
    assert not is_D_multiplicity_free(Poly.monomial((1, 0), 2), SplitSet(2, (1,)))
    assert is_D_multiplicity_free(key_polynomial((0, 1)), SplitSet(2, (1,)))
    # 2 s_(2) - s_(1,1) = 2 x1^2 + x1 x2 + 2 x2^2 reads 2 at (2, 0) and -1 at
    # (1, 1): the read stops at the first of them it meets, in f's term order
    split = SplitSet(2, ())
    terms = {(2, 0): 2, (1, 1): 1, (0, 2): 2}
    assert not is_D_multiplicity_free(Poly(2, terms), split)
    with pytest.raises(ValueError, match="coefficient -1"):
        is_D_multiplicity_free(Poly(2, dict(reversed(terms.items()))), split)


def test_multiplicity_verdict_on_one_pair_no_pair_and_one_variable():
    # the edge cases of the read tables: one pair, no pair, one variable
    s1 = schur((1,), 2)
    one_pair = SplitSet(2, ())
    assert [is_D_multiplicity_free(f, one_pair) for f in (
        key_polynomial((0, 2)), s1 * s1, s1 * s1 * s1,
        schur((2,), 2).scale(2) + schur((1, 1), 2), Poly.zero(2),
    )] == [True, True, False, False, True]
    with pytest.raises(ValueError, match=r"coefficient -1 < 0 at \(2, 0\)"):
        is_D_multiplicity_free(schur((1, 1), 2) - schur((2,), 2), one_pair)
    no_pair = SplitSet(3, (1, 2))  # one variable per block: f's coefficients
    assert [is_D_multiplicity_free(f, no_pair) for f in (
        Poly.monomial((1, 0, 2)), key_polynomial((0, 1, 2)),
        key_polynomial((2, 1, 0)).scale(2),
    )] == [True, False, False]
    with pytest.raises(ValueError, match=r"coefficient -1 < 0 at \(0, 1, 0\)"):
        is_D_multiplicity_free(
            Poly.monomial((1, 0, 2)) - Poly.monomial((0, 1, 0)), no_pair
        )
    n1 = SplitSet(1, ())
    assert [is_D_multiplicity_free(f, n1) for f in (
        Poly.monomial((3,)), Poly(1, {(0,): 1, (2,): 2}), Poly.zero(1),
    )] == [True, False, True]
    with pytest.raises(ValueError, match=r"coefficient -1 < 0 at \(2,\)"):
        is_D_multiplicity_free(Poly(1, {(0,): 1, (2,): -1}), n1)


def test_read_tables_hold_each_non_identity_shift_once_by_sign():
    for n in range(0, 6):
        for D in itertools.chain.from_iterable(
            itertools.combinations(range(1, n), r) for r in range(n)
        ):
            split = SplitSet(n, D)
            plus, minus = polyring._alternant_shifts(split)
            order = prod(factorial(k) for k in split.block_sizes())
            assert len(set(plus + minus)) == len(plus) + len(minus) == order - 1
            assert all(map(any, plus + minus))  # the identity's 0 is in neither
            # the sign character sums to 0 on any nontrivial group
            assert 1 + len(plus) - len(minus) == (order == 1)
            # delta - sigma delta sums to 0 within each block
            for t in plus + minus:
                assert all(sum(t[a - 1 : b]) == 0 for a, b in split.blocks), t


def test_multiplicity_verdict_rejects_a_negative_coefficient():
    # s_(1,1) - s_(2) = -x1^2 - x2^2: the coefficient at (2, 0) is -1
    f = schur((1, 1), 2) - schur((2,), 2)
    with pytest.raises(ValueError, match="use split_expand"):
        is_D_multiplicity_free(f, SplitSet(2, ()))
    assert split_expand(f, SplitSet(2, ())).coefficients == {
        ((1, 1),): 1, ((2, 0),): -1
    }


def test_staircase_verdicts_match_the_peeled_expansion():
    checked = 0
    for n in range(2, 6):
        for line in itertools.permutations(range(1, n + 1)):
            J = ta.left_descents(line)
            for r in range(len(J) + 1):
                for I in itertools.combinations(J, r):
                    key, split = polyring.staircase_key(line, I)
                    assert is_D_multiplicity_free(key, split) == (
                        split_expand(key, split).is_multiplicity_free()
                    ), (line, I)
                    checked += 1
    assert checked == 632


def test_poly_cancellation_leaves_no_zero_terms():
    f = key_polynomial((0, 2, 1))
    assert (f - f).terms == {}
    assert f - f == Poly.zero(3)
    assert (f + f.scale(-1)).terms == {}
    x1, x2 = Poly.variable(1, 2), Poly.variable(2, 2)
    assert (x1 + x2 - x1).items() == [((0, 1), 1)]
    assert dict(((x1 - x2) * (x1 + x2)).items()) == {(2, 0): 1, (0, 2): -1}


def _one_line_error(build, match):
    with pytest.raises(ValueError, match=match) as caught:
        build()
    assert "\n" not in str(caught.value)


def test_split_expansion_rejects_the_wrong_number_of_blocks():
    split = SplitSet(4, (2,))
    _one_line_error(
        lambda: polyring.SplitExpansion(split, {((2, 0),): 1}),
        "1 partitions for the 2 blocks",
    )


def test_split_expansion_rejects_a_block_not_padded_to_its_size():
    split = SplitSet(4, (2,))
    for lams in (((2,), (1, 0)), ((2, 0, 0), (1, 0))):
        _one_line_error(
            lambda: polyring.SplitExpansion(split, {lams: 1}),
            "not a partition padded to 2 parts",
        )


def test_split_expansion_rejects_a_part_that_is_not_a_partition():
    split = SplitSet(4, (2,))
    for lams in (((1, 2), (0, 0)), ((1, 0), (1, -1))):
        _one_line_error(
            lambda: polyring.SplitExpansion(split, {lams: 1}), "is not a partition"
        )


def test_split_expansion_rejects_a_part_above_127():
    split = SplitSet(4, (2,))
    _one_line_error(
        lambda: polyring.SplitExpansion(split, {((128, 0), (0, 0)): 1}), "127"
    )
    top = polyring.SplitExpansion(split, {((127, 0), (0, 0)): 1})
    assert top.coefficients == {((127, 0), (0, 0)): 1}


def test_split_expansion_packs_its_labels_and_unpacks_them_at_the_edges():
    kappa, split = key_polynomial((1, 5, 2, 4, 3)), SplitSet(5, (2, 4))
    built = polyring.SplitExpansion(split, KEY_15243_D24_EXPANSION)
    assert built == split_expand(kappa, split)
    assert built.coefficients == KEY_15243_D24_EXPANSION
    # the lead monomial of each product, the padded blocks side by side
    assert set(built.terms) == {
        int.from_bytes(bytes(sum(lams, ())), "big") for lams in KEY_15243_D24_EXPANSION
    }
    assert built.reconstruct() == kappa
    assert built != polyring.SplitExpansion(SplitSet(5, (2, 3)), {})


def test_peel_steps_are_pinned_and_build_no_poly(monkeypatch):
    """One step per term of the expansion, each reading the D-Schur product
    off the picked key; no public `d_schur` and no `Poly.__init__` while
    peeling, even with the Schur cache cold."""
    kappa, split = key_polynomial((1, 5, 2, 4, 3)), SplitSet(5, (2, 4))
    steps = []
    real_terms = polyring._d_schur_terms

    def counted(split, key):
        steps.append(key)
        return real_terms(split, key)

    def forbidden(*args):
        raise AssertionError("the peel must build no Poly and call no d_schur")

    polyring._schur_cached.cache_clear()
    monkeypatch.setattr(polyring, "_d_schur_terms", counted)
    monkeypatch.setattr(polyring, "d_schur", forbidden)
    monkeypatch.setattr(polyring.Poly, "__init__", forbidden)
    expansion = split_expand(kappa, split)
    assert steps == list(expansion.terms) and len(steps) == 17
    assert expansion.coefficients == KEY_15243_D24_EXPANSION


def test_reconstruct_when_terms_cancel():
    split = SplitSet(2, ())
    # s_(2) - s_(1,1) = x1^2 + x2^2: the x1 x2 terms cancel
    expansion = polyring.SplitExpansion(split, {((2, 0),): 1, ((1, 1),): -1})
    assert dict(expansion.reconstruct().items()) == {(2, 0): 1, (0, 2): 1}
    split = SplitSet(3, (1,))
    coeffs = {((1,), (1, 0)): 2, ((2,), (0, 0)): -1, ((0,), (2, 0)): 1,
              ((0,), (1, 1)): -1}
    f = polyring.SplitExpansion(split, coeffs).reconstruct()
    assert 0 not in f.terms.values()
    assert split_expand(f, split).coefficients == coeffs


def test_peel_matches_solver_on_random_instances():
    rng = random.Random(42)
    for trial in range(200):
        n = rng.randint(2, 5)
        nodes = list(range(1, n))
        rng.shuffle(nodes)
        D = tuple(sorted(nodes[: rng.randint(0, n - 1)]))
        split = SplitSet(n, D)
        sizes = split.block_sizes()
        f = Poly.zero(n)
        expected = {}
        for _ in range(rng.randint(1, 4)):
            lams = tuple(
                tuple(sorted((rng.randint(0, 3) for _ in range(size)), reverse=True))
                for size in sizes
            )
            c = rng.choice((1, 1, 2, 3, -1))
            expected[lams] = expected.get(lams, 0) + c
        expected = {k: v for k, v in expected.items() if v}
        for lams, c in expected.items():
            f = f + d_schur(split, lams).scale(c)
        peeled = split_expand(f, split)
        solved = split_expand_via_solver(f, split)
        assert peeled.coefficients == expected
        assert solved.coefficients == expected


# -- bialternant oracle and D-Schur products ---------------------------------------


def test_solver_rejects_input_outside_the_span():
    with pytest.raises(ValueError, match="not split-symmetric"):
        split_expand_via_solver(Poly.variable(1, 3), SplitSet(3, (2,)))


def test_solver_uses_neither_d_schur_nor_schur(monkeypatch):
    f, split = key_polynomial((1, 5, 2, 4, 3)), SplitSet(5, (2, 4))
    mf = key_polynomial((0, 0, 1, 1))
    _forbid_schur_products(monkeypatch)
    expansion = split_expand_via_solver(f, split)
    assert expansion.coefficients == KEY_15243_D24_EXPANSION
    # the verdict reads the same alternant table
    assert not is_D_multiplicity_free(f, split)
    assert is_D_multiplicity_free(mf, SplitSet(4, (2,)))
    assert split_expand_via_solver(mf, SplitSet(4, (2,))).is_multiplicity_free()


def test_solver_on_a_six_variable_block():
    f = key_polynomial((0, 1, 2, 3, 4, 5))
    split = SplitSet(6, ())
    expansion = split_expand_via_solver(f, split)
    assert expansion.coefficients == {((5, 4, 3, 2, 1, 0),): 1}
    assert expansion == split_expand(f, split)


def _embedded_schur_product(split, lams):
    out = Poly.one(split.n)
    for (a, b), lam in zip(split.blocks, lams):
        block = {}
        for e, c in schur(lam, b - a + 1).items():
            full = [0] * split.n
            full[a - 1 : b] = e
            block[tuple(full)] = c
        out = out * Poly(split.n, block)
    return out


def test_d_schur_equals_product_of_embedded_block_schurs():
    count = 0
    for n in range(1, 6):
        for r in range(n):
            for D in itertools.combinations(range(1, n), r):
                split = SplitSet(n, D)
                per_block = [
                    list(itertools.combinations_with_replacement((3, 2, 1, 0), size))
                    for size in split.block_sizes()
                ]
                for lams in itertools.product(*per_block):
                    assert d_schur(split, lams) == _embedded_schur_product(split, lams)
                    count += 1
    assert count > 1000


def test_d_schur_rejects_what_is_not_a_partition_per_block():
    split = SplitSet(4, (2,))
    for lams in (
        ((1, 2), (0, 0)),  # an increasing block
        ((1, 0), (1, -1)),  # a negative part
        ((1, 1, 1), (0, 0)),  # more parts than the block has variables
        ((1, 0),),  # the wrong number of blocks
    ):
        with pytest.raises(ValueError):
            d_schur(split, lams)
    assert d_schur(split, ((2, 0), (1, 1))) == d_schur(split, ((2,), (1, 1)))


def test_peel_raises_when_the_element_does_not_clear_its_lead():
    f = key_polynomial((0, 1, 2))
    peel = polyring._peel(f, max, lambda lead: ())  # an element with no terms
    with pytest.raises(ValueError, match=r"\(2, 1, 0\)"):
        list(islice(peel, 3))


def test_split_coefficients_of_staircase_keys_nonnegative():
    rng = random.Random(17)
    lines = list(itertools.permutations(range(1, 6)))
    for _ in range(25):
        line = rng.choice(lines)
        alpha = staircase_composition(line)
        J = ta.left_descents(line)
        Isub = tuple(j for j in J if rng.random() < 0.5)
        D = tuple(j for j in range(1, 5) if j not in Isub)
        expansion = split_expand(key_polynomial(alpha), SplitSet(5, D))
        assert all(c > 0 for c in expansion.coefficients.values())


# -- staircase test ---------------------------------------------------------------


def test_staircase_examples():
    assert not staircase_test((2, 4, 5, 3, 1), (1, 3))
    assert staircase_test((1, 2, 3, 4), ())
    for line in itertools.permutations((1, 2, 3, 4)):
        assert staircase_test(line, ta.left_descents(line))
    with pytest.raises(ValueError):
        staircase_test((2, 4, 5, 3, 1), (2,))


def test_staircase_composition():
    assert staircase_composition((2, 4, 5, 3, 1)) == (1, 5, 2, 4, 3)
    assert staircase_composition((1, 2, 3)) == (3, 2, 1)


# -- multiplicity-free classification --------------------------------------------


def test_km_avoidance_matches_full_split_small():
    for length in range(1, 5):
        full = SplitSet(length, tuple(range(1, length)))
        for alpha in itertools.product(range(4), repeat=length):
            mf = is_D_multiplicity_free(key_polynomial(alpha), full)
            assert mf == ta.avoids_km(alpha), alpha


def test_sufficient_conditions_for_descent_split():
    """KM-avoiding with distinct parts, or additionally (0,0,1,1)-avoiding,
    implies multiplicity-freeness at the descent split."""
    for length in range(2, 6):
        for alpha in itertools.product(range(5), repeat=length):
            if sum(alpha) > 12 or not ta.avoids_km(alpha):
                continue
            distinct = len(set(alpha)) == len(alpha)
            extra = not ta.contains_comp_pattern(alpha, (0, 0, 1, 1))
            if not (distinct or extra):
                continue
            D = tuple(ta.descents(alpha))
            split = SplitSet(length, D)
            assert is_D_multiplicity_free(key_polynomial(alpha), split), alpha


# -- the edges of the packed exponent keys ------------------------------------


def test_key_polynomial_rejects_a_negative_part():
    with pytest.raises(ValueError, match=r"exponents \(-1, 2\) must be 2 integers in 0\.\.127"):
        key_polynomial((-1, 2))


def test_monomial_rejects_a_negative_exponent():
    for coeff in (1, 0):
        with pytest.raises(ValueError, match=r"exponents \(-1, 2\)"):
            Poly.monomial((-1, 2), coeff)
    with pytest.raises(ValueError, match="exponents"):
        Poly(2, {(1, -1): 3})


def test_coeff_rejects_a_tuple_of_the_wrong_length():
    f = Poly.monomial((1, 2))
    for exps in ((1, 2, 0), (1,), ()):
        with pytest.raises(ValueError, match="must be 2 integers"):
            f.coeff(exps)
    assert f.coeff((1, 2)) == 1 and f.coeff([0, 0]) == 0


def test_exponents_above_the_field_are_rejected_at_every_edge():
    top = Poly.monomial((127, 0))
    assert top.coeff((127, 0)) == 1 and str(top) == "1 * x1^127"
    for build in (
        lambda: Poly.monomial((128, 0)),
        lambda: Poly(2, {(0, 128): 1}),
        lambda: top.coeff((0, 128)),
        lambda: key_polynomial((0, 128)),
        lambda: top * Poly.variable(1, 2),
        lambda: schur((128,), 2),
        lambda: d_schur(SplitSet(2, (1,)), ((128,), (0,))),
    ):
        with pytest.raises(ValueError, match="127"):
            build()
    assert top * Poly.variable(2, 2) == Poly.monomial((127, 1))
    assert key_polynomial((0, 127)).coeff((0, 127)) == 1


def test_cli_rejects_an_exponent_above_the_field(capsys):
    from coxsph import cli

    assert cli.main(["key-expand", "(0,128)", "--D", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "0..127" in err[0]


@pytest.mark.slow
def test_memory_peak_of_a_seven_variable_key_stays_packed():
    # tracemalloc peak while building the 36 961-term key kappa_(0,1,...,6):
    # 4.9 MB with packed keys, 9.4 MB with exponent-tuple keys (Python
    # 3.11). pytest.fail, not assert, so the pin holds under python -O too.
    import tracemalloc

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        kappa = key_polynomial(range(7))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    if len(kappa.terms) != 36961 or peak > 7_000_000:
        pytest.fail(f"{len(kappa.terms)} terms, peak {peak / 1e6:.2f} MB > 7 MB")
