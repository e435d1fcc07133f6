"""The four workloads: seeded request generators, program calls and checks.

Every workload is a closed loop with one client: a job is a fixed list of
requests, sent one after another, and the next request starts when the
previous one returns. The generators use only the seed and the benchmark's
own data; the program sees nothing but the generated requests. The checks
run after the timed region. They recount witnesses and multiply expansions
back out, instead of repeating the search or the peeling.

- census: `harness.run_census("A6")`, all of S7 in one request.
- consistency: `harness.run_consistency(5)`, all 541 (w, I) pairs of S5.
- checks: 1050 `harness.run_check` requests on E6/E7/E8, B5, D5, F4 and
  I2(60), drawn from `checks_pool.json`, whose verdicts are pinned.
- crosscheck: 724 `harness.run_key_expand(alpha, D, cross_check=True)`
  requests with n <= 5, parts <= 3 and blocks of at most two variables,
  drawn from `crosscheck_pool.json`.

`make_pools.py` made both pools and says how they are ordered.

README.md says why each exists and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

# Pinned from the seed commit of the benchmark. The A6 count is also golden
# in tests/golden_data.py (NONSPHERICAL_COUNTS).
CENSUS_TYPE = "A6"
CENSUS_NONSPHERICAL = 3450
CENSUS_DIGEST = "d1468d52686502c4bddb65a0f3faf4278d2b2538139d6e330736841a89df3ce7"
CONSISTENCY_N = 5
CONSISTENCY_PAIRS = 541

# Pool entries per request: one request is drawn from each run of this many.
CHECKS_WINDOW = 2
CROSSCHECK_WINDOW = 8


def stratified(items, window, rng):
    """One item from each run of `window` consecutive items, shuffled.

    `items` are ordered by expected cost, so every seed draws the same number
    of requests from each cost band and a job's total work barely depends on
    the seed.
    """
    picks = [rng.choice(items[i:i + window]) for i in range(0, len(items), window)]
    rng.shuffle(picks)
    return picks


def digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def label_digest(label: str) -> str:
    return hashlib.sha256(label.encode()).hexdigest()[:10]


def load_pool(name):
    with open(HERE / f"{name}_pool.json") as fh:
        return json.load(fh)["entries"]


def witness_letters(cx, text):
    # words.format_word writes the empty word as "<id>", which parse_word rejects.
    return () if text == "<id>" else cx.words.parse_word(text)


# -- census -------------------------------------------------------------------


def census_requests(seed):
    return [CENSUS_TYPE]  # the whole group: nothing to draw


def census_call(cx, type_string):
    return cx.harness.run_census(type_string)


def census_record(report):
    return tuple((e.element, e.left_descents, e.spherical, e.witness) for e in report.entries)


def census_verify(cx, type_string, report) -> bool:
    system = cx.coxeter.coxeter_system(type_string)
    rows = census_record(report)
    if report.total != system.order() or len(rows) != report.total:
        return False
    if len({label for label, _, _, _ in rows}) != report.total:
        return False
    if sum(1 for row in rows if not row[2]) != CENSUS_NONSPHERICAL:
        return False
    if digest((label, sph) for label, _, sph, _ in rows) != CENSUS_DIGEST:
        return False
    typea, spherical = cx.typea, cx.spherical
    for label, J, sph, witness in rows:
        w = typea.perm_to_element(system, typea.parse_permutation(label))
        if tuple(sorted(system.left_descents(w))) != J:
            return False
        if sph != (witness is not None):
            return False
        if sph and not spherical.verify_witness(system, w, J, witness_letters(cx, witness)):
            return False
    return True


# -- consistency ----------------------------------------------------------------


def consistency_requests(seed):
    return [CONSISTENCY_N]


def consistency_call(cx, n):
    return cx.harness.run_consistency(n)


def consistency_record(report):
    return (report.pairs_checked, tuple(map(repr, report.disagreements)))


def consistency_verify(cx, n, report) -> bool:
    return report.pairs_checked == CONSISTENCY_PAIRS and not report.disagreements


# -- checks ---------------------------------------------------------------------


def checks_requests(seed):
    """(type, word text, I, pinned label digest, pinned verdict) per request."""
    rng = random.Random(seed)
    return [
        (t, " ".join(f"s{c}" for c in word), tuple(I), label, sph)
        for t, word, I, label, sph in stratified(load_pool("checks"), CHECKS_WINDOW, rng)
    ]


def checks_call(cx, request):
    type_string, word, I = request[:3]
    return cx.harness.run_check(type_string, word, I)


def checks_record(report):
    return (report.element, report.spherical, report.witness)


def checks_verify(cx, request, report) -> bool:
    type_string, word, I, label, sph = request
    if label_digest(report.element) != label or report.spherical != sph:
        return False
    if report.subset != tuple(sorted(I)):
        return False
    if report.witness is None:
        return True
    system = cx.coxeter.coxeter_system(type_string)
    w = cx.words.evaluate(system, cx.words.parse_word(word))
    return cx.spherical.verify_witness(system, w, I, witness_letters(cx, report.witness))


# -- crosscheck -----------------------------------------------------------------


def crosscheck_requests(seed):
    """(alpha, D) per request."""
    return [
        (tuple(map(int, alpha)), tuple(map(int, D)))
        for alpha, D in (e.split(":") for e in stratified(
            load_pool("crosscheck"), CROSSCHECK_WINDOW, random.Random(seed)))
    ]


def crosscheck_call(cx, request):
    alpha, D = request
    return cx.harness.run_key_expand(alpha, D, cross_check=True)


def crosscheck_record(expansion):
    return tuple(sorted(expansion.coefficients.items()))


def crosscheck_verify(cx, request, expansion) -> bool:
    alpha, _ = request
    return expansion.reconstruct() == cx.polyring.key_polynomial(alpha)


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload: how to draw a job's requests, send them and check them.

    `record` reduces an output to plain data, so that repeated jobs can be
    compared with the first one instead of being checked again.
    """

    name: str
    systems: tuple[str, ...]  # Cartan types built during set-up
    requests: Callable
    call: Callable
    record: Callable
    verify: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("census", (CENSUS_TYPE,), census_requests, census_call,
                 census_record, census_verify),
        Workload("consistency", (f"A{CONSISTENCY_N - 1}",), consistency_requests,
                 consistency_call, consistency_record, consistency_verify),
        Workload("checks", ("E6", "E7", "E8", "B5", "D5", "F4", "I2(60)"),
                 checks_requests, checks_call, checks_record, checks_verify),
        Workload("crosscheck", (), crosscheck_requests, crosscheck_call,
                 crosscheck_record, crosscheck_verify),
    )
}
