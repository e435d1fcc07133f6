"""Bounded argv fuzzing of every subcommand (needs Hypothesis).

Every input must end in a documented exit code (0, 1, 2 or 3) without a
traceback, and a usage error (exit 1) must end with one `error:` line.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from coxsph import cli, harness

_SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)

TYPES = ("A1", "A2", "A3", "A4", "B3", "D4", "G2", "I2(5)")
# Texts that name no Cartan type; the generated ones hold no nonzero digit,
# so they never name a group large enough to make a census slow.
NOT_TYPES = st.one_of(
    st.sampled_from(["A0", "E9", "I2(2)", "X3", ""]), st.text("ABDEGIX()0 ", max_size=5)
)


def _csv(ints):
    return st.lists(ints, max_size=4).map(lambda xs: ",".join(map(str, xs)))


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def check_argv(draw):
    words = st.lists(st.integers(1, 4), max_size=8).map(
        lambda w: " ".join(f"s{i}" for i in w) or "<id>"
    )
    element = draw(st.one_of(st.text("0123456789s ,<>id²()", max_size=12), words))
    argv = ["check", draw(st.sampled_from(TYPES)), element]
    argv += draw(_option("--I", st.one_of(
        _csv(st.integers(-1, 5)), st.text("0123456789,", max_size=5)
    )))
    return argv + draw(st.sampled_from([[], ["--paranoid"]]))


@st.composite
def key_expand_argv(draw):
    alpha = draw(st.lists(st.integers(0, 3), max_size=4))
    text = "(" + ",".join(map(str, alpha)) + ")"
    # Insert stray characters only: deleting a comma could glue parts into
    # one huge part.
    for at, char in draw(st.lists(st.tuples(st.integers(0, 12), st.sampled_from("()²")),
                                  max_size=2)):
        text = text[:at] + char + text[at:]
    argv = ["key-expand", text]
    argv += draw(_option("--D", _csv(st.integers(-1, 5))))
    argv += draw(_option("--n", st.integers(-1, 4).map(str)))
    argv += draw(_option("--oracle", st.sampled_from(["peel", "ry"])))
    argv += draw(st.sampled_from([[], ["--cross-check"]]))
    return argv


@st.composite
def census_argv(draw):
    argv = ["census", draw(st.one_of(st.sampled_from(TYPES), NOT_TYPES))]
    argv += draw(st.sampled_from([[], ["--slow"]]))  # every TYPES group is small
    return argv + draw(_option("--expect-nonspherical", st.integers(-1, 40).map(str)))


def _sized(command, low, high):
    return st.integers(low, high).map(lambda n: [command, "--n", str(n)])


@st.composite
def experiment_argv(draw):
    name = draw(st.sampled_from(harness.EXPERIMENTS + ("no-such-experiment",)))
    top = 2 if name == "upone" else 4  # upone is the slow one; n <= 2 keeps this quick
    return ["experiment", name, "--n", str(draw(st.integers(-1, top)))]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def _assert_clean_exit(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 1:
        assert err.splitlines()[-1].startswith("error:"), (argv, err)


@_SETTINGS
@given(st.one_of(check_argv(), key_expand_argv()))
def test_cli_fuzz_exits_cleanly(argv):
    _assert_clean_exit(argv)


@_SETTINGS
@given(st.one_of(
    census_argv(),
    _sized("verify-consistency", -2, 4),
    experiment_argv(),
    _sized("self-check", -1, 4),
))
def test_cli_fuzz_other_subcommands_exit_cleanly(argv):
    _assert_clean_exit(argv)
