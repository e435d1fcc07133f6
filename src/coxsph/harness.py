"""Censuses, cross-checks, and experiment drivers behind the CLI.

Each runner returns a small report object that formats itself as a table and
serializes to the documented JSON shape. Censuses run `spherical.census`,
which shares witness-search state across elements with the same descent set;
the census experiments read its verdicts directly, not a report's labels.
Self-check reuses the comparisons of `key-expand --cross-check` and
`check --paranoid` rather than writing its own.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field

from .coxeter import CoxeterError, CoxeterSystem, coxeter_system
from . import polyring, spherical, splitrule, typea, words


# -- census ---------------------------------------------------------------


@dataclass
class CensusEntry:
    element: str
    left_descents: tuple[int, ...]
    spherical: bool
    witness: str | None

    def to_json_dict(self) -> dict:
        return {
            "element": self.element,
            "J": list(self.left_descents),
            "spherical": self.spherical,
            "witness": self.witness,
        }


@dataclass
class CensusReport:
    cartan_type: str
    total: int
    entries: list[CensusEntry]
    elapsed: float

    @property
    def nonspherical(self) -> list[str]:
        return [e.element for e in self.entries if not e.spherical]

    @property
    def spherical_count(self) -> int:
        return self.total - len(self.nonspherical)

    def to_json_dict(self) -> dict:
        return {
            "cartan_type": self.cartan_type,
            "total": self.total,
            "spherical": self.spherical_count,
            "nonspherical": len(self.nonspherical),
            "elapsed_seconds": round(self.elapsed, 3),
            "entries": [e.to_json_dict() for e in self.entries],
        }

    def summary(self) -> str:
        lines = [
            f"type {self.cartan_type}: {self.total} elements, "
            f"{self.spherical_count} spherical, "
            f"{len(self.nonspherical)} not spherical "
            f"({self.elapsed:.2f}s)"
        ]
        for e in self.entries:
            if not e.spherical:
                lines.append(f"  {e.element}")
        return "\n".join(lines)


def _element_label(system: CoxeterSystem, w) -> str:
    """One-line notation in type A, elsewhere the lex-first reduced word
    `w.word()`, which `CoxeterSystem.word` spells by walking w(2 rho) to
    the dominant chamber, O(rank) per letter (a closed form in I2(m))."""
    if system.cartan_type.family == "A":
        return typea.format_permutation(typea.element_to_perm(system, w))
    return words.format_word(w.word())


def _from_parents(system: CoxeterSystem, rows, root, step):
    """Pair each row (record of w, J(w), ...) with a value built from w's
    left parent s_j w, j = min J(w).

    The record is a `WeakOrderNode` of `CoxeterSystem.weak_order`. Its
    down-edges are the right steps w s_i, so values are kept by rep, the
    images of the simple roots, and the left parent's is `_left_prefix` of
    w's: no element is stepped. The identity gets `root`; any other w gets
    step(j, value of s_j w). The rows must come
    in enumeration order, which is breadth-first by length, so the parent
    s_j w of every w lies in the previous length level: values of two
    levels are all that is kept.
    """
    left = system._left_prefix
    before, now, level = {}, {}, 0
    for row in rows:
        node, J = row[0], row[1]
        if node.length > level:
            level, before, now = node.length, now, {}
        rep = node.element.rep
        if J:
            j = min(J)
            value = step(j, before[left(rep, j)])
        else:
            value = root
        now[rep] = value
        yield value, row


def _one_line_labels(system: CoxeterSystem, rows):
    """Pair each row (record of w, ...) of a type-A census with the
    one-line label of w: that of its weak-order parent w s_i, i the least
    right descent of w, with entries i and i + 1 swapped. The labels made
    so far are kept by record, the parent's being `labels[node.down[0]]`."""
    root = _element_label(system, system.identity)
    labels = {}
    for row in rows:
        node = row[0]
        if node.down:
            line = labels[node.down[0]]
            i = node.descents[0]
            if "," in line:  # S_n with n > 9
                parts = line.split(",")
                parts[i - 1], parts[i] = parts[i], parts[i - 1]
                label = ",".join(parts)
            else:
                label = line[:i - 1] + line[i] + line[i - 1] + line[i + 1:]
        else:
            label = root
        labels[node] = label
        yield label, row


def _prefix_letter(j: int, word: str) -> str:
    """The label s_j + `word` of s_j w, given the label of w."""
    return f"s{j}" if word == "<id>" else f"s{j} {word}"


def run_census(type_string: str, progress=None) -> CensusReport:
    """Maximal-sphericality census of a whole group, in enumeration order.

    The rows come from `spherical.census`, one (record, J(w), word) per
    element of the weak-order walk. Labels are those of `_element_label`,
    each read off a parent's label, with no word spelt and no permutation
    read per element: in type A the one-line form of w is that of its
    weak-order parent w s_i, the record's first down-edge, with two entries
    swapped (`_one_line_labels`); elsewhere the word of w is s_j + the word
    of s_j w with j = min J(w) (`_from_parents`, which steps no element),
    the recursion `Element.word()` follows. `progress(done, total)`, if
    given, is called after every 500 elements.

    CPython's cyclic collector is paused while the report is built and
    restored to the caller's state afterwards, even on an error, so a
    caller that had it off keeps it off. Its passes would walk every
    record the census keeps alive, and those hold no reference cycle (the
    records are a DAG of down-edges), so reference counting alone frees
    them: on the A7 census the collector made 515/47/4 passes per
    generation, and with the pause one young-generation pass, on return.
    """
    start = time.perf_counter()
    collecting = gc.isenabled()
    gc.disable()
    try:
        system = coxeter_system(type_string)
        rows = spherical.census(system)
        if system.cartan_type.family == "A":
            labelled = _one_line_labels(system, rows)
        else:
            labelled = _from_parents(system, rows, "<id>", _prefix_letter)
        entries = []
        total = system.order()
        ascending: dict[frozenset, tuple[int, ...]] = {}  # J -> sorted J
        for i, (label, (_, J, word)) in enumerate(labelled):
            J_sorted = ascending.get(J)
            if J_sorted is None:
                J_sorted = ascending[J] = tuple(sorted(J))
            entries.append(
                CensusEntry(
                    label,
                    J_sorted,
                    word is not None,
                    None if word is None else words.format_word(word),
                )
            )
            if progress and (i + 1) % 500 == 0:
                progress(i + 1, total)
    finally:
        if collecting:
            gc.enable()
    return CensusReport(type_string, total, entries, time.perf_counter() - start)


# -- single-element check ----------------------------------------------------


class CrossCheckFailure(CoxeterError):
    """Routes that must agree do not (the CLI exits with 2)."""


@dataclass
class CheckReport:
    cartan_type: str
    element: str
    left_descents: tuple[int, ...]
    subset: tuple[int, ...]
    spherical: bool
    witness: str | None
    staircase: bool | None  # type A only

    def to_json_dict(self) -> dict:
        return {
            "cartan_type": self.cartan_type,
            "element": self.element,
            "J": list(self.left_descents),
            "I": list(self.subset),
            "spherical": self.spherical,
            "witness": self.witness,
            "staircase_multiplicity_free": self.staircase,
        }

    def summary(self) -> str:
        lines = [
            f"type {self.cartan_type}, element {self.element}",
            f"J(w) = {set(self.left_descents) or '{}'}",
            f"I = {set(self.subset) or '{}'}",
            f"I-spherical: {self.spherical}",
        ]
        if self.witness:
            lines.append(f"witness: {self.witness}")
        if self.staircase is not None:
            lines.append(f"staircase key multiplicity-free: {self.staircase}")
        return "\n".join(lines)


def parse_element(system: CoxeterSystem, text: str):
    """One-line notation for type A; generator words (or '<id>') everywhere."""
    text = text.strip()
    if not text:
        raise CoxeterError("empty element; write <id> for the identity")
    if (
        system.cartan_type.family == "A"
        and "s" not in text.lower()
        and text != "<id>"
    ):
        line = typea.parse_permutation(text)
        return typea.perm_to_element(system, line)
    return words.evaluate(system, words.parse_word(text))


def run_check(
    type_string: str, element_text: str, subset, paranoid: bool = False
) -> CheckReport:
    """Witness search for (w, I), plus the staircase verdict in type A.
    `paranoid` recounts the witness (`verify_witness`), peels the staircase
    key and, for I = {}, re-decides the verdict as l(w) = |supp(w)|
    (`has_distinct_letter_word`); `CrossCheckFailure` if any disagrees."""
    system = coxeter_system(type_string)
    w = parse_element(system, element_text)
    I = frozenset(subset)
    cert = spherical.find_witness(system, w, I)
    stair = None
    if system.cartan_type.family == "A":
        key, split = polyring.staircase_key(typea.element_to_perm(system, w), I)
        verdict = _peeled_verdict if paranoid else polyring.is_D_multiplicity_free
        stair = verdict(key, split)
    if paranoid and cert is not None:
        if not spherical.verify_witness(system, w, I, cert.word):
            raise CrossCheckFailure("witness failed independent recount")
    if paranoid and not I:
        if (cert is not None) != spherical.has_distinct_letter_word(system, w):
            raise CrossCheckFailure("search verdict disagrees with l(w) = |supp(w)|")
    return CheckReport(
        type_string,
        _element_label(system, w),
        tuple(sorted(system.left_descents(w))),
        tuple(sorted(I)),
        cert is not None,
        None if cert is None else words.format_word(cert.word),
        stair,
    )


def _peeled_verdict(key, split) -> bool:
    """`is_D_multiplicity_free(key, split)`, rechecked by peeling the key;
    `CrossCheckFailure` unless `split_expand` gives the same verdict."""
    free = polyring.is_D_multiplicity_free(key, split)
    if polyring.split_expand(key, split).is_multiplicity_free() != free:
        raise CrossCheckFailure("staircase verdict disagrees with peeling")
    return free


# -- key expansion -------------------------------------------------------------


def run_key_expand(
    alpha,
    D,
    n: int | None = None,
    oracle: str = "peel",
    cross_check: bool = False,
):
    """Expand a key polynomial on the block-Schur basis.

    oracle 'peel' subtracts lead terms of the polynomial; 'ry' counts tableau
    sequences. `cross_check` runs peeling, the tableau rule and the
    bialternant oracle (named 'solver') once each and raises
    `CrossCheckFailure`, naming the oracles that disagree, unless all three
    agree.
    """
    alpha = tuple(alpha)
    if n is None:
        n = max(len(alpha), (max(D) + 1) if D else len(alpha))
    split = polyring.SplitSet(n, tuple(D))
    padded = split.pad_composition(alpha)
    if oracle not in ("peel", "ry"):
        raise CoxeterError(f"unknown oracle {oracle!r} (use 'peel' or 'ry')")
    kappa = polyring.key_polynomial(padded) if cross_check or oracle == "peel" else None
    runs = {
        "peel": lambda: polyring.split_expand(kappa, split),
        "ry": lambda: splitrule.ry_expand(padded, split),
        "solver": lambda: polyring.split_expand_via_solver(kappa, split),
    }
    found = {name: runs[name]() for name in (runs if cross_check else (oracle,))}
    if cross_check:
        coeffs = {name: e.coefficients for name, e in found.items()}
        odd = [a for a in coeffs if sum(coeffs[a] == c for c in coeffs.values()) < 2]
        if odd:
            raise CrossCheckFailure(
                "expansion cross-check failed: "
                f"{', '.join(odd)} {'disagrees' if len(odd) == 1 else 'disagree'} "
                "with the other oracles"
            )
    return found[oracle]


def format_expansion(expansion) -> str:
    bits = []
    for lams, c in sorted(expansion.coefficients.items(), reverse=True):
        name = ",".join("(" + ",".join(map(str, lam)) + ")" for lam in lams)
        bits.append(f"{c} * s[{name}]" if c != 1 else f"s[{name}]")
    return "\n".join(bits) if bits else "0"


# -- conjecture consistency ------------------------------------------------------


@dataclass
class ConsistencyReport:
    n: int
    pairs_checked: int
    disagreements: list = field(default_factory=list)
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pairs_checked": self.pairs_checked,
            "disagreements": [
                {
                    "w": typea.format_permutation(line),
                    "I": sorted(I),
                    "witness_search": comb,
                    "staircase": stair,
                }
                for line, I, comb, stair in self.disagreements
            ],
            "elapsed_seconds": round(self.elapsed, 3),
        }

    def summary(self) -> str:
        head = (
            f"n={self.n}: {self.pairs_checked} (w, I) pairs checked, "
            f"{len(self.disagreements)} disagreements ({self.elapsed:.1f}s)"
        )
        if not self.disagreements:
            return head
        rows = [head] + [
            f"  w={typea.format_permutation(line)} I={sorted(I)} "
            f"search={comb} staircase={stair}"
            for line, I, comb, stair in self.disagreements
        ]
        return "\n".join(rows)


def run_consistency(n: int) -> ConsistencyReport:
    """Compare the witness search with the staircase-key test on all of S_n.

    For every w and every I inside the left descent set, the two verdicts
    must agree; any disagreement is reported, never silently dropped.

    The staircase key pi_w x^(n, ..., 1) of w is one Demazure step pi_j,
    j = min J(w), applied to the key of its left-descent parent s_j w.

    The staircase verdicts of each w must also form an up-set in I (adding a
    node to I keeps a multiplicity-free key multiplicity-free, by
    Littlewood-Richardson positivity); otherwise `CrossCheckFailure`.

    Each search verdict for I = {} is re-decided without the search, as
    l(w) = |supp(w)| (`spherical.has_distinct_letter_word`); a mismatch
    raises `CrossCheckFailure`.

    Each I gets one searcher and one split set D = [n-1] - I. The sweep
    iterates the records of `system.weak_order()`, reads J(w) off each
    record as `spherical.census` does, and hands each record to its
    searchers, so it steps one code per weak-order edge and one rep per
    element, all in the walk, and its searches none. Each verdict reads
    D-Schur coefficients off the key by `polyring.is_D_multiplicity_free`,
    which builds no D-Schur product; each key scans its symmetry in x_j,
    x_(j+1) once per j (`Poly.is_symmetric_in`).
    """
    _check_size("consistency check", n, 2)
    start = time.perf_counter()
    system = coxeter_system(f"A{n - 1}")
    per_I: dict = {}
    pairs = 0
    disagreements = []
    rows = ((node, sorted(node.left_descents)) for node in system.weak_order())
    for key, (node, J) in _from_parents(
        system, rows, polyring.Poly.monomial(range(n, 0, -1)), polyring.demazure_pi
    ):
        w = node.element
        verdicts = {}
        for r in range(len(J) + 1):
            for I in itertools.combinations(J, r):
                pairs += 1
                Iset = frozenset(I)
                got = per_I.get(Iset)
                if got is None:
                    D = tuple(j for j in range(1, n) if j not in Iset)
                    got = per_I[Iset] = (
                        spherical.WitnessSearcher(system, Iset),
                        polyring.SplitSet(n, D),
                    )
                searcher, split = got
                comb = searcher.search(node) is not None
                if not I and comb != spherical.has_distinct_letter_word(system, w):
                    raise CrossCheckFailure(
                        "search verdict disagrees with l(w) = |supp(w)|: "
                        f"w={typea.format_permutation(typea.element_to_perm(system, w))}"
                    )
                stair = verdicts[Iset] = polyring.is_D_multiplicity_free(key, split)
                if comb != stair:
                    line = typea.element_to_perm(system, w)
                    disagreements.append((line, Iset, comb, stair))
        _check_up_set(system, w, J, verdicts)
    return ConsistencyReport(n, pairs, disagreements, time.perf_counter() - start)


def _check_up_set(system, w, J, verdicts: dict) -> None:
    """Raise unless I -> verdicts[I] is monotone on the subsets of J."""
    for I, free in verdicts.items():
        for j in J:
            if free and j not in I and not verdicts[I | {j}]:
                raise CrossCheckFailure(
                    "staircase verdicts not monotone in I: "
                    f"w={typea.format_permutation(typea.element_to_perm(system, w))} "
                    f"is multiplicity-free for I={sorted(I)} "
                    f"but not for I={sorted(I | {j})}"
                )


def _check_size(what: str, n: int, least: int) -> None:
    """One-line error for a size below the smallest one `what` can run."""
    if n < least:
        raise CoxeterError(f"{what} size n must be at least {least}, not {n}")


# -- experiments -----------------------------------------------------------------


EXPERIMENTS = ("pattern-avoidance", "vanishing-density", "upone", "distinct-lambda")


def run_experiment(name: str, n: int | None = None, seed: int = 0) -> dict:
    """Empirical conjecture probes; results are data, not assertions.

    n defaults to 6 for the census experiments and to 5 for the others.
    """
    if name not in EXPERIMENTS:
        raise CoxeterError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    if n is None:
        n = 6 if name in ("pattern-avoidance", "vanishing-density") else 5
    _check_size("experiment", n, 1)
    if name == "pattern-avoidance":
        return _experiment_pattern_avoidance(n)
    if name == "vanishing-density":
        return _experiment_vanishing_density(n)
    if name == "upone":
        return _experiment_upone(n, seed)
    return _experiment_distinct_lambda(n, seed)


def _nonspherical_lines(m: int) -> list[tuple[int, ...]]:
    """One-line forms of the non-spherical elements of S_m, in census order."""
    system = coxeter_system(f"A{m - 1}")
    return [
        typea.element_to_perm(system, w)
        for w in spherical.nonspherical_census(system)
    ]


def _experiment_pattern_avoidance(n: int) -> dict:
    """Does every non-spherical element contain a bad rank-5 pattern?"""
    _check_size("experiment pattern-avoidance", n, 5)
    patterns = _nonspherical_lines(5)
    checked = patterns + [
        line for m in range(6, n + 1) for line in _nonspherical_lines(m)
    ]
    unexplained = [
        typea.format_permutation(line)
        for line in checked
        if not any(typea.contains_perm_pattern(line, p) for p in patterns)
    ]
    return {
        "experiment": "pattern-avoidance",
        "range": f"5..{n}",
        "nonspherical_checked": len(checked),
        "unexplained": unexplained,
        "consistent": not unexplained,
    }


def _experiment_vanishing_density(n: int) -> dict:
    _check_size("experiment vanishing-density", n, 2)
    counts = {}
    for m in range(2, n + 1):
        total, bad = math.factorial(m), len(_nonspherical_lines(m))
        counts[m] = {
            "total": total,
            "nonspherical": bad,
            "nonspherical_fraction": round(bad / total, 6),
        }
    return {"experiment": "vanishing-density", "counts": counts}


UPONE_DRAWS_PER_TRIAL = 100


def _random_composition(rng, n: int, maxpart: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, maxpart) for _ in range(n))


def _experiment_upone(n: int, seed: int, trials: int = 200) -> dict:
    """Raising one part (to a value no other part holds) should preserve
    having multiplicity.

    Stops after `UPONE_DRAWS_PER_TRIAL * trials` random draws, because for
    small n a draw with multiplicity may be rare or impossible.
    """
    _check_size("experiment upone", n, 2)
    rng = random.Random(seed)
    tested = draws = 0
    counterexamples = []
    while tested < trials and draws < UPONE_DRAWS_PER_TRIAL * trials:
        draws += 1
        alpha = _random_composition(rng, n, 4)
        j = rng.randrange(n)
        up = list(alpha)
        up[j] += 1
        if any(up[i] == up[j] for i in range(n) if i != j):
            continue
        alpha_up = tuple(up)
        desc = set(typea.descents(alpha)) | set(typea.descents(alpha_up))
        D = tuple(sorted(desc))
        split = polyring.SplitSet(n, D)
        base_mf = polyring.is_D_multiplicity_free(
            polyring.key_polynomial(alpha), split
        )
        if base_mf:
            continue
        tested += 1
        up_mf = polyring.is_D_multiplicity_free(
            polyring.key_polynomial(alpha_up), split
        )
        if up_mf:
            counterexamples.append({"alpha": alpha, "alpha_up": alpha_up, "D": D})
    return {
        "experiment": "upone",
        "n": n,
        "draws": draws,
        "pairs_with_multiplicity_tested": tested,
        "counterexamples": counterexamples,
        "consistent": not counterexamples,
    }


def _experiment_distinct_lambda(n: int, seed: int, tries: int = 40) -> dict:
    """For non-spherical (w, I), hunt a strictly decreasing lambda whose key
    also has split multiplicity."""
    _check_size("experiment distinct-lambda", n, 2)
    rng = random.Random(seed)
    lines = _nonspherical_lines(n)
    found = 0
    misses = []
    for line in lines:
        J = typea.left_descents(line)
        D = tuple(j for j in range(1, n) if j not in J)
        split = polyring.SplitSet(n, D)
        hit = None
        for t in range(tries):
            if t == 0:
                lam = tuple(range(n, 0, -1))
            else:
                steps = sorted(
                    (rng.randint(1, 3) for _ in range(n)), reverse=True
                )
                lam = tuple(
                    sum(steps[i:]) for i in range(n)
                )
            alpha = typea.act_on_composition(line, lam)
            if not polyring.is_D_multiplicity_free(
                polyring.key_polynomial(alpha), split
            ):
                hit = lam
                break
        if hit is None:
            misses.append(typea.format_permutation(line))
        else:
            found += 1
    return {
        "experiment": "distinct-lambda",
        "n": n,
        "nonspherical_examined": len(lines),
        "distinct_lambda_found": found,
        "unresolved": misses,
        "consistent": not misses,
    }


# -- paranoid cross-checks ---------------------------------------------------------


def paranoid_self_check(n_max: int = 5, seed: int = 0) -> dict:
    """Redundant-route validation across the stack.

    Runs closed forms against the search and both key rules against each
    other on small ranges. Random (alpha, D) draws then go through the
    comparisons the commands make: `run_key_expand(cross_check=True)` (peeling
    vs the bialternant oracle vs the tableau rule) and the verdict recheck of
    `run_check(paranoid=True)`. Returns per-check booleans.
    """
    _check_size("self-check", n_max, 2)
    rng = random.Random(seed)
    results = {}

    sys_a = coxeter_system(f"A{n_max - 1}")
    w0 = sys_a.longest_element()
    ok = True
    nodes = list(range(1, n_max))
    for r in range(len(nodes) + 1):
        for I in itertools.combinations(nodes, r):
            if spherical.w0_sphericality_closed_form(
                sys_a, I
            ) != spherical.is_I_spherical(sys_a, w0, I):
                ok = False
    results["w0_closed_form_vs_search"] = ok

    dih = coxeter_system("I2(7)")
    results["dihedral_closed_form_vs_search"] = all(
        spherical.dihedral_classification(dih, w)
        == spherical.is_maximally_spherical(dih, w)
        for w in dih.elements()
    )

    ok = True
    for _ in range(30):
        alpha = _random_composition(rng, rng.randint(2, n_max), 3)
        if polyring.key_polynomial(alpha) != polyring.key_via_kohnert(alpha):
            ok = False
    results["demazure_vs_kohnert"] = ok

    ok = verdict_ok = True
    for _ in range(20):
        nn = rng.randint(2, n_max)
        alpha = _random_composition(rng, nn, 3)
        desc = set(typea.descents(alpha))
        extra = [j for j in range(1, nn) if j not in desc]
        rng.shuffle(extra)
        D = tuple(sorted(desc | set(extra[: rng.randint(0, len(extra))])))
        try:
            run_key_expand(alpha, D, n=nn, cross_check=True)
        except CrossCheckFailure:
            ok = False
        try:
            _peeled_verdict(polyring.key_polynomial(alpha), polyring.SplitSet(nn, D))
        except CrossCheckFailure:
            verdict_ok = False
    results["peel_vs_solver_vs_tableau_rule"] = ok
    results["multiplicity_verdict_vs_peel"] = verdict_ok

    results["all"] = all(results.values())
    return results


def write_json(path: str, payload: dict):
    """Write payload with sorted keys, one top-level key per line and one
    item of a top-level list per line (a census entry, an expansion term),
    each item on one line. Every piece goes through the C encoder: with
    `indent`, `json` falls back to its pure-Python one, which took 0.27 s
    for the A7 census payload against 0.11 s for this layout. Items are
    written one at a time, so no copy of the whole text is held."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as fh:
        sep = "{\n"
        for key in sorted(payload):
            value = payload[key]
            fh.write(f"{sep}  {encode(key)}: ")
            sep = ",\n"
            if isinstance(value, list) and value:
                fh.write("[\n    " + encode(value[0]))
                for item in itertools.islice(value, 1, None):
                    fh.write(",\n    " + encode(item))
                fh.write("\n  ]")
            else:
                fh.write(encode(value))
        fh.write("\n}\n")
