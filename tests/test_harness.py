import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxsph import cli, coxeter_system, harness, nonspherical_census
from coxsph.coxeter import CoxeterError

from golden_data import (
    CENSUS_JSON_SHA256,
    E8_WORD_NOT_WITNESS,
    KEY_15243_D24_EXPANSION,
    S5_NONSPHERICAL,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_census_report_shape():
    report = harness.run_census("A4")
    assert report.total == 120
    assert sorted(report.nonspherical) == sorted(S5_NONSPHERICAL)
    assert report.spherical_count == 99
    payload = report.to_json_dict()
    again = json.loads(json.dumps(payload))
    assert again["nonspherical"] == 21
    assert len(again["entries"]) == 120
    spherical_entries = [e for e in again["entries"] if e["spherical"]]
    assert all(e["witness"] for e in spherical_entries)
    assert all(e["witness"] is None for e in again["entries"] if not e["spherical"])


def test_census_is_deterministic():
    a = harness.run_census("B3")
    b = harness.run_census("B3")
    assert [e.element for e in a.entries] == [e.element for e in b.entries]
    assert a.nonspherical == b.nonspherical


def test_census_report_matches_nonspherical_census():
    for t in ("A4", "B3", "I2(7)"):
        system = coxeter_system(t)
        assert harness.run_census(t).nonspherical == [
            harness._element_label(system, w)
            for w in nonspherical_census(system)
        ]


@pytest.mark.parametrize("t", ["A4", "B3", "D4", "F4", "G2", "I2(7)", "I2(60)"])
def test_census_labels_match_reduced_word_labels(t):
    system = coxeter_system(t)
    labels = [e.element for e in harness.run_census(t).entries]
    assert labels == [harness._element_label(system, w) for w in system.elements()]


@pytest.mark.parametrize(
    "t",
    ["A1", "A2", "A3", "A4", "A5", "B3", "B4", "D4", "D5", "F4", "G2",
     "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(60)",
     pytest.param("A6", marks=pytest.mark.slow),
     pytest.param("E6", marks=pytest.mark.slow)],
)
def test_census_json_matches_golden_digest(t):
    payload = harness.run_census(t).to_json_dict()
    del payload["elapsed_seconds"]
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_JSON_SHA256[t]


@pytest.mark.parametrize("t", ["A5", "D5", "F4"])
def test_census_labels_spell_nothing_per_element(t, monkeypatch):
    """Census labels are read off parents' labels: at most the identity's
    one-line form is computed, no reduced word is spelt, and outside type
    A each parent is found by its prefix, with no `step` call."""
    from coxsph import coxeter, typea

    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kw):
            calls.append(name)
            return real(*args, **kw)

        monkeypatch.setattr(module, name, wrapper)

    counted(typea, "element_to_perm")
    counted(typea, "format_permutation")
    counted(coxeter.Element, "word")
    counted(coxeter.CoxeterSystem, "word")
    counted(coxeter.CoxeterSystem, "step")
    report = harness.run_census(t)
    assert report.total == coxeter_system(t).order()
    if t == "A5":
        assert sorted(calls) == ["element_to_perm", "format_permutation"]
    else:
        assert calls == []


def test_one_line_labels_swap_entries_past_nine():
    """Labels of S_n with n > 9 are comma-separated; a chain of weak-order
    parents still swaps whole entries."""
    from types import SimpleNamespace

    from coxsph import typea

    class Record(SimpleNamespace):
        __hash__ = object.__hash__  # SimpleNamespace defines __eq__ only

    system = coxeter_system("A9")
    letters = (9, 8, 9, 1, 5, 9)
    nodes = [Record(down=(), descents=())]
    for i in letters:
        nodes.append(Record(down=(nodes[-1],), descents=(i,)))
    rows = [(node,) for node in nodes]
    labels = [label for label, _ in harness._one_line_labels(system, rows)]
    assert labels == [
        typea.format_permutation(typea.apply_word(10, letters[:k]))
        for k in range(len(nodes))
    ]
    assert labels[3] == "1,2,3,4,5,6,7,10,9,8"


def test_census_pauses_the_collector_while_it_builds(monkeypatch):
    from coxsph import spherical

    census, seen = spherical.census, []

    def watched(system):
        for row in census(system):
            seen.append(gc.isenabled())
            yield row

    monkeypatch.setattr(spherical, "census", watched)
    assert gc.isenabled()
    assert harness.run_census("B3").total == 48
    assert gc.isenabled()
    assert len(seen) == 48 and not any(seen)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("cap", [None, "10"])
def test_census_restores_the_callers_collector_state(enabled, cap, monkeypatch):
    """After a normal return and after the enumeration cap's error, the
    collector is on exactly when the caller had it on."""
    if cap is not None:
        monkeypatch.setenv("COXSPH_ENUM_CAP", cap)
    if not enabled:
        gc.disable()
    try:
        if cap is None:
            assert harness.run_census("A3").total == 24
        else:
            with pytest.raises(CoxeterError, match="enumeration cap"):
                harness.run_census("A3")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("t", ["A5", "B4", "F4", "I2(60)"])
def test_census_leaves_no_reference_cycle(t):
    """The census's records form a DAG, so with the collector paused
    reference counting frees all of them: the collector finds nothing."""
    coxeter_system(t)
    gc.collect()
    harness.run_census(t)
    assert gc.collect() == 0


def test_check_reports():
    report = harness.run_check("A4", "24531", (1, 3))
    assert not report.spherical and report.staircase is False
    assert report.left_descents == (1, 3)

    report = harness.run_check("A7", "35246781", (1, 2, 4), paranoid=True)
    assert report.spherical and report.witness
    assert report.staircase is True

    report = harness.run_check("A3", "3412", (2,))
    assert report.spherical

    report = harness.run_check("F4", "s2 s3 s2 s3 s4 s3 s2 s1 s3 s2 s4 s3", (2, 3, 4))
    assert report.spherical and report.staircase is None


def test_cli_check_paranoid_exits_2_when_the_recount_rejects_the_witness(
    monkeypatch, capsys
):
    from coxsph import spherical

    argv = ["check", "A7", "35246781", "--I", "1,2,4", "--paranoid"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(spherical, "verify_witness", lambda *args: False)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "verification failure: witness failed independent recount\n"
    )


def test_cli_check_paranoid_exits_2_when_peeling_disagrees(monkeypatch, capsys):
    from coxsph import polyring

    argv = ["check", "A4", "24531", "--I", "1,3", "--paranoid"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    flipped = polyring.is_D_multiplicity_free
    monkeypatch.setattr(
        polyring, "is_D_multiplicity_free", lambda f, split: not flipped(f, split)
    )
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "verification failure: staircase verdict disagrees with peeling\n"
    )
    # without --paranoid nothing checks the verdict
    assert cli.main(argv[:-1]) == 0


def test_cli_check_paranoid_exits_2_when_the_empty_I_verdict_is_wrong(
    monkeypatch, capsys
):
    from coxsph import spherical

    argv = ["check", "A3", "2143", "--paranoid"]  # s1 s3: distinct letters
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(spherical.WitnessSearcher, "search", lambda self, w: None)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "verification failure: search verdict disagrees with l(w) = |supp(w)|\n"
    )
    # without --paranoid nothing re-decides the verdict
    assert cli.main(argv[:-1]) == 0


def test_cli_check_rejects_out_of_range_nodes_of_I(capsys):
    for I in ("0", "5"):
        assert cli.main(["check", "A3", "4321", "--I", I]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: node {I} out of range 1..3\n"


def test_key_expand_runner():
    expansion = harness.run_key_expand((1, 5, 2, 4, 3), (2, 4), cross_check=True)
    assert expansion.coefficients == KEY_15243_D24_EXPANSION
    single = harness.run_key_expand((2, 2, 0, 0), (2,))
    assert single.coefficients == {((2, 2), (0, 0)): 1}
    mf = harness.run_key_expand((0, 0, 1, 1), (1, 2, 3))
    assert mf.is_multiplicity_free()
    ry = harness.run_key_expand((1, 5, 2, 4, 3), (2, 4), oracle="ry")
    assert ry.coefficients == expansion.coefficients
    with pytest.raises(CoxeterError):
        harness.run_key_expand((1, 5, 2, 4, 3), (2, 4), oracle="nope")
    with pytest.raises(ValueError):
        harness.run_key_expand((2, 1), (), n=2)  # descent outside D
    with pytest.raises(ValueError):
        harness.run_key_expand((1, 0, 0), (1,), n=2)  # more parts than variables


def test_key_expand_cross_check_runs_each_oracle_once(monkeypatch):
    from coxsph import polyring, splitrule

    calls = {}
    for module, name in ((polyring, "key_polynomial"), (polyring, "split_expand"),
                         (splitrule, "ry_expand"),
                         (polyring, "split_expand_via_solver")):
        def counted(*args, _inner=getattr(module, name), _name=name, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    for oracle in ("peel", "ry"):
        calls.clear()
        expansion = harness.run_key_expand(
            (1, 5, 2, 4, 3), (2, 4), oracle=oracle, cross_check=True
        )
        assert expansion.coefficients == KEY_15243_D24_EXPANSION
        assert calls == {"key_polynomial": 1, "split_expand": 1, "ry_expand": 1,
                         "split_expand_via_solver": 1}


def test_key_expand_cross_check_names_the_disagreeing_oracle(monkeypatch):
    from coxsph import polyring

    def wrong(f, split):
        right = polyring.split_expand(f, split)
        lams = max(right.coefficients)
        return polyring.SplitExpansion(
            split, {**right.coefficients, lams: right.coefficients[lams] + 1}
        )

    monkeypatch.setattr(polyring, "split_expand_via_solver", wrong)
    with pytest.raises(harness.CrossCheckFailure, match="solver disagrees"):
        harness.run_key_expand((1, 5, 2, 4, 3), (2, 4), cross_check=True)
    # without the cross-check the solver does not run
    assert harness.run_key_expand((1, 5, 2, 4, 3), (2, 4)).coefficients == (
        KEY_15243_D24_EXPANSION
    )


def test_consistency_runner():
    for n in (3, 4):
        report = harness.run_consistency(n)
        assert report.disagreements == []
    report5 = harness.run_consistency(5)
    assert report5.disagreements == []
    assert report5.pairs_checked == 541


def test_consistency_sweep_takes_staircase_keys_in_element_order(monkeypatch):
    import itertools
    from coxsph import polyring, spherical, typea

    seen = []
    true_verdict = polyring.is_D_multiplicity_free
    true_search = spherical.WitnessSearcher.search

    def recorded(f, split):
        seen.append((f, split.D, true_verdict(f, split)))
        return seen[-1][2]

    def flipped(searcher, w):
        # flip the search side: every pair disagrees, and the staircase
        # verdicts stay monotone in I, which the sweep also checks
        return None if true_search(searcher, w) is not None else ()

    true_distinct = spherical.has_distinct_letter_word

    def flipped_distinct(system, w):
        # flip the I = {} re-decision with the search, so the sweep's
        # l(w) = |supp(w)| check passes and the pairs reach the report
        return not true_distinct(system, w)

    monkeypatch.setattr(polyring, "is_D_multiplicity_free", recorded)
    monkeypatch.setattr(spherical.WitnessSearcher, "search", flipped)
    monkeypatch.setattr(spherical, "has_distinct_letter_word", flipped_distinct)
    for n in range(2, 6):
        seen.clear()
        system = coxeter_system(f"A{n - 1}")
        lines = [typea.element_to_perm(system, w) for w in system.elements()]
        expected = [
            (line, frozenset(I))
            for line in lines
            for r in range(len(typea.left_descents(line)) + 1)
            for I in itertools.combinations(typea.left_descents(line), r)
        ]
        report = harness.run_consistency(n)
        assert report.pairs_checked == len(expected) == len(seen)
        # every pair disagrees, so the report lists them all, in element order
        got = [(line, I) for line, I, _, _ in report.disagreements]
        assert got == expected
        assert [d[3] for d in report.disagreements] == [v for _, _, v in seen]
        keys = {
            line: polyring.key_polynomial(polyring.staircase_composition(line))
            for line in lines
        }
        for (line, I), (kappa, D, _) in zip(expected, seen):
            assert kappa == keys[line], (line, I)
            assert set(D) == set(range(1, n)) - I


def test_consistency_sweep_raises_on_non_monotone_staircase_verdicts(monkeypatch):
    from coxsph import polyring

    def non_monotone(f, split):
        return len(split.D) == split.n - 1  # multiplicity-free for I = {} only

    monkeypatch.setattr(polyring, "is_D_multiplicity_free", non_monotone)
    with pytest.raises(harness.CrossCheckFailure) as raised:
        harness.run_consistency(4)
    assert str(raised.value) == (
        "staircase verdicts not monotone in I: w=2134 "
        "is multiplicity-free for I=[] but not for I=[1]"
    )
    assert cli.main(["verify-consistency", "--n", "4"]) == 2


def test_consistency_sweep_re_decides_empty_I_without_the_search(monkeypatch):
    from coxsph import spherical

    true_distinct = spherical.has_distinct_letter_word
    checked = []

    def counted(system, w):
        checked.append(w)
        return true_distinct(system, w)

    monkeypatch.setattr(spherical, "has_distinct_letter_word", counted)
    assert harness.run_consistency(5).disagreements == []
    assert len(checked) == len(set(checked)) == 120  # one per w of S5
    monkeypatch.setattr(
        spherical, "has_distinct_letter_word", lambda system, w: not true_distinct(system, w)
    )
    with pytest.raises(harness.CrossCheckFailure) as raised:
        harness.run_consistency(4)
    assert str(raised.value) == (
        "search verdict disagrees with l(w) = |supp(w)|: w=1234"
    )
    assert cli.main(["verify-consistency", "--n", "4"]) == 2


def test_consistency_sweep_searchers_make_no_records(monkeypatch):
    # the sweep hands every searcher the walk's records, and reads J(w)
    # off them as the census does
    from coxsph import spherical

    made, queried = [], []
    record = spherical.WitnessSearcher._record
    system = coxeter_system("A3")
    left_descents = system.left_descents

    def counting(self, w):
        made.append(w)
        return record(self, w)

    def counting_descents(w):
        queried.append(w)
        return left_descents(w)

    monkeypatch.setattr(spherical.WitnessSearcher, "_record", counting)
    monkeypatch.setitem(vars(system), "left_descents", counting_descents)
    assert harness.run_consistency(4).disagreements == []
    assert made == [] and queried == []


@pytest.mark.parametrize(
    "n, products, scans",
    [(5, 0, 240), pytest.param(6, 0, 1800, marks=pytest.mark.slow)],
)
def test_consistency_sweep_work_budget(monkeypatch, n, products, scans):
    # golden work counts: the verdicts read coefficients off the keys and
    # build no D-Schur product, and each key scans its symmetry once per j;
    # explain any change in CHANGES.md
    from coxsph import polyring

    built, scanned = [], []
    real_d_schur, real_scan = polyring.d_schur, polyring.Poly._scan_symmetric

    def counted_d_schur(split, lams):
        built.append((split, lams))
        return real_d_schur(split, lams)

    def counted_scan(f, j):
        scanned.append((frozenset(f.terms.items()), j))
        return real_scan(f, j)

    monkeypatch.setattr(polyring, "d_schur", counted_d_schur)
    monkeypatch.setattr(polyring.Poly, "_scan_symmetric", counted_scan)
    assert harness.run_consistency(n).disagreements == []
    assert len(built) == len(set(built)) == products
    assert len(scanned) == len(set(scanned)) == scans


def test_staircase_side_matches_reference_list():
    import itertools
    from coxsph.polyring import staircase_test
    from coxsph.typea import format_permutation, left_descents

    bad = sorted(
        format_permutation(line)
        for line in itertools.permutations(range(1, 6))
        if not staircase_test(line, left_descents(line))
    )
    assert bad == sorted(S5_NONSPHERICAL)


def test_experiment_pattern_avoidance(monkeypatch):
    from coxsph import spherical

    ran = []
    real = spherical.nonspherical_census

    def counted(system):
        ran.append(str(system.cartan_type))
        return real(system)

    monkeypatch.setattr(spherical, "nonspherical_census", counted)
    result = harness.run_experiment("pattern-avoidance", n=6)
    assert ran == ["A4", "A5"]  # the S5 census once, for patterns and m = 5
    assert result["consistent"]
    assert result["unexplained"] == []
    assert result["nonspherical_checked"] == 21 + 320


def test_experiment_vanishing_density():
    result = harness.run_experiment("vanishing-density", n=6)
    got = [result["counts"][m]["nonspherical"] for m in (2, 3, 4, 5, 6)]
    assert got == [0, 0, 0, 21, 320]


def test_experiment_upone():
    result = harness.run_experiment("upone", n=5, seed=1)
    assert result["consistent"]
    assert result["pairs_with_multiplicity_tested"] >= 100


def test_experiment_upone_stops_when_multiplicity_is_rare():
    # with seed 0 no draw at n = 4 has multiplicity; the draw bound ends it
    result = harness.run_experiment("upone", n=4)
    assert result["pairs_with_multiplicity_tested"] < 200
    assert result["draws"] == harness.UPONE_DRAWS_PER_TRIAL * 200


def test_experiment_distinct_lambda():
    result = harness.run_experiment("distinct-lambda", n=5, seed=0)
    assert result["consistent"]
    assert result["nonspherical_examined"] == 21
    with pytest.raises(CoxeterError):
        harness.run_experiment("nothing")


def test_experiment_rejects_sizes_below_one():
    for name in harness.EXPERIMENTS:
        with pytest.raises(CoxeterError, match="at least 1"):
            harness.run_experiment(name, n=0)


def test_paranoid_self_check():
    results = harness.paranoid_self_check(n_max=4, seed=0)
    assert results["all"]
    assert results["multiplicity_verdict_vs_peel"]


def test_self_check_flags_a_wrong_multiplicity_verdict(monkeypatch):
    from coxsph import polyring

    monkeypatch.setattr(polyring, "is_D_multiplicity_free", lambda f, split: None)
    results = harness.paranoid_self_check(n_max=4, seed=0)
    assert not results["multiplicity_verdict_vs_peel"] and not results["all"]
    assert results["peel_vs_solver_vs_tableau_rule"]


def test_self_check_flags_a_wrong_tableau_rule(monkeypatch, capsys):
    from coxsph import polyring, splitrule

    def wrong(alpha, split):
        right = polyring.split_expand(polyring.key_polynomial(alpha), split)
        lams = max(right.coefficients)
        return polyring.SplitExpansion(
            split, {**right.coefficients, lams: right.coefficients[lams] + 1}
        )

    monkeypatch.setattr(splitrule, "ry_expand", wrong)
    results = harness.paranoid_self_check(n_max=4, seed=0)
    assert not results["peel_vs_solver_vs_tableau_rule"] and not results["all"]
    assert results["multiplicity_verdict_vs_peel"]
    assert cli.main(["self-check"]) == 2
    assert "peel_vs_solver_vs_tableau_rule: FAILED" in capsys.readouterr().out


def test_census_experiments_build_no_report_and_parse_no_label(monkeypatch):
    from coxsph import typea

    def forbidden(*args, **kw):
        raise AssertionError("census experiments read verdicts, not labels")

    monkeypatch.setattr(harness, "run_census", forbidden)
    monkeypatch.setattr(typea, "parse_permutation", forbidden)
    result = harness.run_experiment("pattern-avoidance", n=6)
    assert result["nonspherical_checked"] == 341 and result["consistent"]
    result = harness.run_experiment("vanishing-density", n=6)
    got = [result["counts"][m]["nonspherical"] for m in (2, 3, 4, 5, 6)]
    assert got == [0, 0, 0, 21, 320]
    result = harness.run_experiment("distinct-lambda", n=5)
    assert result["nonspherical_examined"] == 21 and result["consistent"]


# -- CLI ------------------------------------------------------------------------


def test_cli_census_and_expectations(capsys, tmp_path):
    out = tmp_path / "census.json"
    code = cli.main(["census", "B3", "--json", str(out),
                     "--expect-nonspherical", "18"])
    assert code == 0
    captured = capsys.readouterr()
    assert "48 elements" in captured.out
    payload = json.loads(out.read_text())
    assert payload["nonspherical"] == 18
    # wrong expectation -> verification failure
    assert cli.main(["census", "B3", "--expect-nonspherical", "3"]) == 2


def test_json_output_holds_one_census_entry_per_line(tmp_path):
    """`--json` writes one line per top-level key and per item of a
    top-level list, each item compact; what it writes reads back as the
    payload, empty lists and nested values included."""
    out = tmp_path / "census.json"
    assert cli.main(["census", "B3", "--json", str(out)]) == 0
    lines = out.read_text().splitlines()
    payload = json.loads(out.read_text())
    entries = payload["entries"]
    assert len(lines) == 1 + len(payload) + len(entries) + 2
    start = lines.index('  "entries": [')
    items = lines[start + 1:start + 1 + len(entries)]
    assert [json.loads(line.strip().rstrip(",")) for line in items] == entries
    payload = {"b": [], "a": [1, {"x": [2, "y"]}], "c": {"d": None}, "e": 0.5}
    harness.write_json(str(out), payload)
    assert json.loads(out.read_text()) == payload
    assert out.read_text().splitlines()[:4] == ["{", '  "a": [', "    1,", '    {"x": [2, "y"]}']


def _run_id(value):
    """`census F4-exit` pins the exit code alone, `check E7-label` the label too."""
    if isinstance(value, list):
        return " ".join([arg for arg in value if not arg.startswith("--")][:2])
    return "label" if value else "exit"


@pytest.mark.parametrize(
    "argv, pinned",
    [
        (["census", "F4", "--expect-nonspherical", "1033"], None),
        pytest.param(["census", "A7", "--slow", "--expect-nonspherical", "34043"],
                     None, marks=pytest.mark.slow),
        (["census", "D5", "--expect-nonspherical", "1413"], None),
        (["census", "I2(60)", "--expect-nonspherical", "112"], None),
        (["census", "I2(2000)", "--slow", "--expect-nonspherical", "3992"], None),
        (["check", "E8", E8_WORD_NOT_WITNESS, "--I", "2,3,4,5,7,8",
          "--paranoid"], None),
        (["check", "I2(60)", "s1 s2 s1", "--I", "1", "--paranoid"], None),
        (["check", "E7", "s7 s6 s5 s4 s3 s2 s4 s5 s6 s7 s1 s3 s4", "--I", "7"],
         {"element": "s7 s6 s5 s4 s2 s3 s1 s4 s3 s5 s4 s6 s7"}),
        (["check", "E8", "s5 s3 s6 s5 s7 s2 s1 s4 s5 s3 s8", "--I", "5", "--paranoid"],
         {"element": "s2 s3 s1 s5 s4 s6 s5 s4 s3 s7 s8", "spherical": False}),
        (["check", "B5", "s5 s4 s5 s3 s4 s5 s2 s1 s2 s3", "--I", "5"],
         {"element": "s1 s5 s4 s3 s2 s1 s5 s4 s3 s5"}),
        (["check", "I2(7)", "s2 s1 s2 s1 s2 s1 s2", "--I", "1,2"],
         {"element": "s1 s2 s1 s2 s1 s2 s1"}),
        (["key-expand", "(1,5,2,4,3)", "--D", "2,4", "--oracle", "ry",
          "--cross-check"], None),
        (["key-expand", "(0,0,0,2,1)", "--D", "1,2,4,5", "--n", "6",
          "--oracle", "ry", "--cross-check"], None),
        (["key-expand", "(0,0,2,0,3,1)", "--D", "3,5", "--oracle", "ry",
          "--cross-check"], None),
        (["key-expand", "(3,0,2,3,3)", "--D", "1,2", "--oracle", "ry",
          "--cross-check"], None),
        (["verify-consistency", "--n", "5"], None),
    ],
    ids=_run_id,
)
def test_cli_pinned_runs(tmp_path, argv, pinned):
    """Each run exits 0: 2 would mean a census count other than the one
    expected, a witness the recount rejects, a type-A verdict that peeling
    contradicts, or oracles that disagree. A `check` row also pins fields
    of its `--json` output: the element's label, and the verdict where it
    is negative."""
    if pinned is None:
        assert cli.main(argv) == 0
        return
    out = tmp_path / "check.json"
    assert cli.main([*argv, "--json", str(out)]) == 0
    got = json.loads(out.read_text())
    assert {field: got[field] for field in pinned} == pinned


def test_cli_json_to_unwritable_path_is_one_error_line(capsys, tmp_path):
    out = tmp_path / "missing" / "out.json"
    assert cli.main(["census", "A3", "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_census_requires_slow_for_large_groups(capsys):
    assert cli.main(["census", "A6"]) == 1
    assert "--slow" in capsys.readouterr().err


def test_cli_census_slow_reports_progress_every_500_elements(capsys):
    assert cli.main(["census", "F4", "--slow"]) == 0
    assert capsys.readouterr().err == (
        "  ...500/1152 elements\n  ...1000/1152 elements\n"
    )


def test_cli_check(capsys):
    code = cli.main(["check", "A4", "24531", "--I", "1,3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "I-spherical: False" in out
    assert "multiplicity-free: False" in out
    # a census writes the identity's witness as <id>; it parses back
    assert cli.main(["check", "A3", "<id>"]) == 0
    out = capsys.readouterr().out
    assert "element 1234" in out
    assert "I-spherical: True" in out
    assert "witness: <id>" in out


@pytest.mark.parametrize("cartan", ["A3", "B3", "I2(5)"])
def test_cli_check_empty_element_is_one_error_line(capsys, cartan):
    for text in ("", "  "):
        assert cli.main(["check", cartan, text]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "<id>" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["check", "E9", "s1"], "E9"),
        (["census", "B1"], "B1"),
        (["check", "A0", "s1"], "A0"),
        (["check", "I2(2)", "s1"], "I2 (gonality=2)"),
    ],
)
def test_cli_invalid_cartan_type_is_one_error_line(capsys, argv, named):
    """Only a dihedral type names its bond order."""
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: invalid Cartan type {named}\n"


def test_cli_check_generator_zero_is_one_error_line(capsys):
    assert cli.main(["check", "B3", "s0"]) == 1
    assert capsys.readouterr().err == "error: generator index 0 out of range 1..3\n"


def test_cli_check_usage_errors(capsys):
    assert cli.main(["check", "A4", "24531", "--I", "2"]) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["key-expand", "(a)"], "composition '(a)'"),
        (["check", "A3", " 2 1 3 4"], "'2 1 3 4' is not a one-line permutation"),
        (["check", "A3", "2134", "--I", "1,,2"], "'1,,2'"),
        (["check", "A3", "21"], "A3 permutes 4 letters, not 2"),
        (["check", "B3", "s²"], "bad word letter '²'"),
        (["key-expand", "((1,2)"], "composition '((1,2)'"),
        (["key-expand", "(1,2))"], "composition '(1,2))'"),
        (["key-expand", "(1,2"], "composition '(1,2'"),
        (["check", "B3", "s1 s"], "bad word letter '' in 's'"),
        (["check", "B3", "ss1 S2"], "bad word letter 's1' in 'ss1'"),
    ],
)
def test_cli_parse_error_names_the_input(capsys, argv, named):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects --I itself
        code = exc.code
    assert code == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: ") and named in last
    assert "invalid" not in last


def test_cli_key_expand(capsys, tmp_path):
    out = tmp_path / "exp.json"
    code = cli.main(["key-expand", "(1,5,2,4,3)", "--D", "2,4",
                     "--cross-check", "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "2 * s[(5,3),(3,2),(2)]" in text
    payload = json.loads(out.read_text())
    assert payload["D"] == [2, 4]
    assert len(payload["terms"]) == 17
    twos = [t for t in payload["terms"] if t["coeff"] == 2]
    assert sorted(t["lambdas"] for t in twos) == [
        [[5, 2], [4, 2], [2]],
        [[5, 3], [3, 2], [2]],
    ]
    assert cli.main(["key-expand", "(1,-1)", "--D", "1"]) == 1
    assert "negative part" in capsys.readouterr().err


def test_cli_key_expand_rejects_negative_variable_count(capsys):
    for n in ("-1", "-2"):
        assert cli.main(["key-expand", "()", "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: variable count n must be at least 0, not {n}\n"
    assert cli.main(["key-expand", "()", "--n", "0"]) == 0
    assert capsys.readouterr().out == "s[()]\n"


def test_cli_cross_check_failure_exits_2(capsys, monkeypatch):
    from coxsph import polyring, splitrule

    monkeypatch.setattr(
        splitrule, "ry_expand",
        lambda alpha, split: polyring.SplitExpansion(split, {}),
    )
    code = cli.main(["key-expand", "(1,5,2,4,3)", "--D", "2,4", "--cross-check"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failure: ")
    assert "ry disagrees" in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_cli_resource_limit_is_reported_without_traceback():
    word = " ".join(["s1 s2"] * 750)  # the longest element of I2(1500)
    done = subprocess.run(
        [sys.executable, "-m", "coxsph.cli", "check", "I2(1500)", word,
         "--I", "1,2"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode in (0, 1, 2, 3)
    assert "Traceback" not in done.stderr


def test_cli_key_expand_too_deep_to_sort_exits_3():
    # 1225 sorting swaps: past the recursion limit, so a resource limit
    alpha = "(" + ",".join(str(i) for i in range(1, 51)) + ")"
    done = subprocess.run(
        [sys.executable, "-m", "coxsph.cli", "key-expand", alpha, "--D", ""],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 3
    assert done.stderr.startswith("resource limit: ")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_cli_verify_consistency(capsys):
    assert cli.main(["verify-consistency", "--n", "4"]) == 0
    assert "0 disagreements" in capsys.readouterr().out
    assert cli.main(["verify-consistency", "--n", "6"]) == 1  # needs --slow
    assert cli.main(["verify-consistency", "--n", "7", "--slow"]) == 1


def test_cli_experiment(capsys, tmp_path):
    out = tmp_path / "exp.json"
    assert cli.main(["experiment", "vanishing-density", "--n", "5",
                     "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["counts"]["5"]["nonspherical"] == 21
    capsys.readouterr()
    assert cli.main(["experiment", "upone", "--n", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: experiment size n must be at least 1, not 0\n"


def test_cli_self_check(capsys):
    assert cli.main(["self-check"]) == 0
    assert "ok" in capsys.readouterr().out


def _rejects_size_in_one_line(capsys, argv, n, least=2):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.endswith(f"size n must be at least {least}, not {n}\n")
    assert captured.err.count("\n") == 1


def test_cli_experiment_distinct_lambda_rejects_n_below_two(capsys):
    _rejects_size_in_one_line(capsys, ["experiment", "distinct-lambda", "--n", "1"], 1)
    assert cli.main(["experiment", "distinct-lambda", "--n", "2"]) == 0


def test_cli_experiment_pattern_avoidance_rejects_n_below_five(capsys):
    # the patterns are the non-spherical elements of S5, so n < 5 checks nothing
    _rejects_size_in_one_line(
        capsys, ["experiment", "pattern-avoidance", "--n", "4"], 4, least=5
    )
    assert cli.main(["experiment", "pattern-avoidance", "--n", "5"]) == 0


@pytest.mark.parametrize("name", ["vanishing-density", "upone"])
def test_cli_experiment_rejects_n_below_two(capsys, name):
    # at n = 1 vanishing-density would report no counts at all, and upone
    # would test no pair, since S_1 has no split with multiplicity
    _rejects_size_in_one_line(capsys, ["experiment", name, "--n", "1"], 1)
    assert cli.main(["experiment", name, "--n", "2"]) == 0


def test_cli_verify_consistency_rejects_n_below_two(capsys):
    for n in (1, 0, -1):
        _rejects_size_in_one_line(
            capsys, ["verify-consistency", "--n", str(n)], n
        )
    assert cli.main(["verify-consistency", "--n", "2"]) == 0


def test_cli_self_check_rejects_n_below_two(capsys):
    for n in (1, 0):
        _rejects_size_in_one_line(capsys, ["self-check", "--n", str(n)], n)
    assert cli.main(["self-check", "--n", "2"]) == 0


def test_enum_cap_env(monkeypatch):
    monkeypatch.setenv("COXSPH_ENUM_CAP", "10")
    from coxsph.coxeter import CoxeterSystem

    system = CoxeterSystem.from_string("A4")
    with pytest.raises(CoxeterError):
        system.elements()
    monkeypatch.delenv("COXSPH_ENUM_CAP")
    assert len(system.elements()) == 120


@pytest.mark.parametrize("raw", ["", "abc", "1e3"])
def test_cli_enum_cap_that_is_not_an_integer_is_one_error_line(
    raw, monkeypatch, capsys
):
    monkeypatch.setenv("COXSPH_ENUM_CAP", raw)
    assert cli.main(["census", "A3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: COXSPH_ENUM_CAP must be an integer, not {raw!r}\n"
    )
