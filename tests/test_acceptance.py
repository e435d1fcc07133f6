"""Acceptance suite: every fixed criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line on the real stdout so a
summary survives pytest capture. Criteria marked slow (the S7 census and the
full n=6 consistency sweep) run with --run-slow.
"""

import itertools
import sys
import time

import pytest

from coxsph import (
    coxeter_system,
    dihedral_classification,
    evaluate,
    is_I_spherical,
    is_maximally_spherical,
    nonspherical_census,
    parse_word,
    reduced_word_count,
    w0_sphericality_closed_form,
)
from coxsph import harness, typea
from coxsph.polyring import (
    Poly,
    SplitSet,
    is_D_multiplicity_free,
    key_polynomial,
    key_via_kohnert,
    split_expand,
    split_expand_via_solver,
    d_schur,
    expand_in_keys,
)
from coxsph.spherical import WitnessSearcher
from coxsph.splitrule import ry_expand, ry_tableau_sequences
from coxsph.typea import element_to_perm, format_permutation, left_descents

from golden_data import (
    B3_NONSPHERICAL,
    D4_NONSPHERICAL,
    F4_ORDER,
    F4_SPHERICAL,
    KEY_15243_D24_EXPANSION,
    NONSPHERICAL_COUNTS,
    S5_NONSPHERICAL,
)


def _report(criterion: str, passed: bool, detail: str = ""):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert passed, f"criterion {criterion}: {detail}"


def _one_lines(system, elements):
    return sorted(format_permutation(element_to_perm(system, w)) for w in elements)


def test_criterion_01_s5_census_exact_list():
    start = time.time()
    a4 = coxeter_system("A4")
    got = _one_lines(a4, nonspherical_census(a4))
    elapsed = time.time() - start
    ok = got == sorted(S5_NONSPHERICAL) and elapsed < 5
    _report("01 S5 census", ok, f"{len(got)} elements, {elapsed:.2f}s")


def test_criterion_02a_s6_census_count():
    start = time.time()
    a5 = coxeter_system("A5")
    got = len(nonspherical_census(a5))
    elapsed = time.time() - start
    ok = got == NONSPHERICAL_COUNTS["A5"] and elapsed < 60
    _report("02a S6 census", ok, f"{got} non-spherical, {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_02b_s7_census_count():
    start = time.time()
    a6 = coxeter_system("A6")
    got = len(nonspherical_census(a6))
    elapsed = time.time() - start
    ok = got == NONSPHERICAL_COUNTS["A6"] and elapsed < 1800
    _report("02b S7 census (slow)", ok, f"{got} non-spherical, {elapsed:.2f}s")


def test_criterion_03_b3_census_exact_elements():
    start = time.time()
    b3 = coxeter_system("B3")
    expected = {evaluate(b3, parse_word(t)) for t in B3_NONSPHERICAL}
    got = set(nonspherical_census(b3))
    elapsed = time.time() - start
    ok = got == expected and len(expected) == 18 and elapsed < 1
    _report("03 B3 census", ok, f"{len(got)} elements, {elapsed:.2f}s")


def test_criterion_04_d4_census_exact_elements():
    start = time.time()
    d4 = coxeter_system("D4")
    expected = set()
    for text in D4_NONSPHERICAL:
        word = parse_word(text)
        w = evaluate(d4, word)
        assert w.length == len(word), f"table word not reduced: {text}"
        expected.add(w)
    got = set(nonspherical_census(d4))
    elapsed = time.time() - start
    ok = got == expected and len(expected) == 70 and elapsed < 10
    _report("04 D4 census", ok, f"{len(got)} elements, {elapsed:.2f}s")


def test_criterion_05_f4_census_count():
    start = time.time()
    f4 = coxeter_system("F4")
    nonspherical = len(nonspherical_census(f4))
    elapsed = time.time() - start
    ok = (
        F4_ORDER - nonspherical == F4_SPHERICAL
        and f4.order() == F4_ORDER
        and elapsed < 300
    )
    _report(
        "05 F4 census", ok,
        f"{F4_ORDER - nonspherical} spherical of {F4_ORDER}, {elapsed:.2f}s",
    )


def test_criterion_06_dihedral_closed_form():
    start = time.time()
    ok = True
    for m in range(3, 13):
        system = coxeter_system(f"I2({m})")
        for w in system.elements():
            if dihedral_classification(system, w) != is_maximally_spherical(system, w):
                ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 1
    _report("06 dihedral closed form", ok, f"orders 3..12, {elapsed:.2f}s")


def test_criterion_07_w0_classification():
    start = time.time()
    ok = True
    for n in (4, 5, 6):
        system = coxeter_system(f"A{n - 1}")
        w0 = system.longest_element()
        allowed = (
            frozenset(range(1, n)),
            frozenset(range(2, n)),
            frozenset(range(1, n - 1)),
        )
        for r in range(n):
            for I in itertools.combinations(range(1, n), r):
                got = is_I_spherical(system, w0, I)
                if got != (frozenset(I) in allowed):
                    ok = False
                if got != w0_sphericality_closed_form(system, I):
                    ok = False
    for name in ("B3", "G2", "D4"):
        system = coxeter_system(name)
        w0 = system.longest_element()
        full = frozenset(range(1, system.rank + 1))
        for r in range(system.rank + 1):
            for I in itertools.combinations(sorted(full), r):
                if is_I_spherical(system, w0, I) != (frozenset(I) == full):
                    ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 120
    _report("07 w0 classification", ok, f"{elapsed:.2f}s")


def test_criterion_08_key_expansion_reference():
    start = time.time()
    expansion = split_expand(key_polynomial((1, 5, 2, 4, 3)), SplitSet(5, (2, 4)))
    elapsed = time.time() - start
    values = sorted(expansion.coefficients.values())
    ok = (
        expansion.coefficients == KEY_15243_D24_EXPANSION
        and len(expansion.coefficients) == 17
        and values == [1] * 15 + [2, 2]
        and elapsed < 1
    )
    _report("08 17-term key expansion", ok, f"{elapsed:.2f}s")


def test_criterion_09_basis_example():
    start = time.time()
    g = (
        Poly.monomial((1, 2, 0, 1))
        + Poly.monomial((2, 1, 0, 1))
        + Poly.monomial((1, 2, 1, 0))
        + Poly.monomial((2, 1, 1, 0))
        + Poly.monomial((2, 2, 0, 0))
    )
    split = SplitSet(4, (2,))
    schur_side = split_expand(g, split).coefficients == {
        ((2, 1), (1, 0)): 1,
        ((2, 2), (0, 0)): 1,
    }
    key_side = expand_in_keys(g) == {(1, 2, 0, 1): 1, (2, 2, 0, 0): 1}
    elapsed = time.time() - start
    ok = schur_side and key_side and elapsed < 1
    _report("09 basis example", ok, f"{elapsed:.2f}s")


def test_criterion_10_oracle_equivalences():
    start = time.time()
    ok = True
    # Demazure rule == diagram-move rule, len <= 5, |alpha| <= 8
    for length in range(1, 6):
        for alpha in itertools.product(range(9), repeat=length):
            if sum(alpha) > 8:
                continue
            if key_polynomial(alpha) != key_via_kohnert(alpha):
                ok = False
    # tableau rule == peeling, len <= 5, parts <= 3, every valid D
    for length in range(1, 6):
        for alpha in itertools.product(range(4), repeat=length):
            desc = {i + 1 for i in range(length - 1) if alpha[i] > alpha[i + 1]}
            kappa = None
            for r in range(length):
                for D in itertools.combinations(range(1, length), r):
                    if not desc <= set(D):
                        continue
                    split = SplitSet(length, D)
                    if kappa is None:
                        kappa = key_polynomial(alpha)
                    if (
                        ry_expand(alpha, split).coefficients
                        != split_expand(kappa, split).coefficients
                    ):
                        ok = False
    # peeling == exact linear solve on 200 random instances
    import random

    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(2, 5)
        nodes = list(range(1, n))
        rng.shuffle(nodes)
        D = tuple(sorted(nodes[: rng.randint(0, n - 1)]))
        split = SplitSet(n, D)
        f = Poly.zero(n)
        expected = {}
        for _ in range(rng.randint(1, 4)):
            lams = tuple(
                tuple(sorted((rng.randint(0, 3) for _ in range(size)), reverse=True))
                for size in split.block_sizes()
            )
            c = rng.choice((1, 2, 3, -1))
            expected[lams] = expected.get(lams, 0) + c
        expected = {k: v for k, v in expected.items() if v}
        for lams, c in expected.items():
            f = f + d_schur(split, lams).scale(c)
        if split_expand(f, split).coefficients != expected:
            ok = False
        if split_expand_via_solver(f, split).coefficients != expected:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 600
    _report("10 oracle equivalences", ok, f"{elapsed:.1f}s")


def test_criterion_11_km_classification():
    start = time.time()
    ok = True
    for length in range(1, 6):
        full = SplitSet(length, tuple(range(1, length)))
        for alpha in itertools.product(range(5), repeat=length):
            mf = is_D_multiplicity_free(key_polynomial(alpha), full)
            if mf != typea.avoids_km(alpha):
                ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 600
    _report("11 finest-split classification", ok, f"{elapsed:.1f}s")


def _consistency_ok(n: int) -> tuple[bool, int]:
    report = harness.run_consistency(n)
    return not report.disagreements, report.pairs_checked


def test_criterion_12a_consistency_upto_5():
    start = time.time()
    ok = True
    pairs = 0
    for n in (2, 3, 4, 5):
        good, count = _consistency_ok(n)
        ok = ok and good
        pairs += count
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    _report("12a consistency n<=5", ok, f"{pairs} pairs, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_12b_consistency_n6():
    start = time.time()
    good, count = _consistency_ok(6)
    elapsed = time.time() - start
    ok = good and elapsed < 7200
    _report("12b consistency n=6 (slow)", ok, f"{count} pairs, {elapsed:.1f}s")


def test_criterion_13_bigrassmannian_rule():
    start = time.time()
    a6 = coxeter_system("A6")
    searchers = {}
    ok = True
    checked = 0
    for line in itertools.permutations(range(1, 8)):
        if not typea.is_bigrassmannian(line):
            continue
        checked += 1
        w = typea.perm_to_element(a6, line)
        J = a6.left_descents(w)
        if J not in searchers:
            searchers[J] = WitnessSearcher(a6, J)
        spherical = searchers[J].search(w) is not None
        if spherical != typea.bigrassmannian_spherical(line):
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _report("13 bigrassmannian rule", ok, f"{checked} elements, {elapsed:.1f}s")


def test_criterion_14_reduced_word_counts():
    start = time.time()
    a3 = coxeter_system("A3")
    c1 = reduced_word_count(a3, a3.longest_element())
    f4 = coxeter_system("F4")
    wp = evaluate(f4, parse_word("s1 s2 s3 s2 s4 s3 s2 s3 s4"))
    c2 = reduced_word_count(f4, wp)
    elapsed = time.time() - start
    ok = c1 == 16 and c2 == 25 and elapsed < 1
    _report("14 reduced word counts", ok, f"16={c1}, 25={c2}, {elapsed:.2f}s")


def test_criterion_15_tableau_rule_multiplicity_two():
    start = time.time()
    split = SplitSet(6, (1, 2, 4, 5))
    expansion = ry_expand((0, 0, 0, 2, 1), split)
    key = ((1,), (1,), (1, 0), (0,), (0,))
    seqs = ry_tableau_sequences((0, 0, 0, 2, 1), split).get(key, [])
    flat = sorted(tuple(t.to_lists() for t in seq) for seq in seqs)
    elapsed = time.time() - start
    ok = (
        expansion.coefficients.get(key) == 2
        and flat == [([[4]], [[5]], [[4]], [], []), ([[5]], [[4]], [[5]], [], [])]
        and elapsed < 1
    )
    _report("15 tableau-rule multiplicity", ok, f"{elapsed:.2f}s")
