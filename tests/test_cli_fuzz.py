"""Bounded argv fuzzing of `check` and `key-expand` (needs Hypothesis).

Every input must end in a documented exit code (0, 1, 2 or 3) without a
traceback, and a usage error (exit 1) must end with one `error:` line.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from coxsph import cli

_SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)

TYPES = ("A1", "A2", "A3", "A4", "B3", "D4", "G2", "I2(5)")


def _csv(ints):
    return st.lists(ints, max_size=4).map(lambda xs: ",".join(map(str, xs)))


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def check_argv(draw):
    words = st.lists(st.integers(1, 4), max_size=8).map(
        lambda w: " ".join(f"s{i}" for i in w) or "<id>"
    )
    element = draw(st.one_of(st.text("0123456789s ,<>id", max_size=12), words))
    argv = ["check", draw(st.sampled_from(TYPES)), element]
    argv += draw(_option("--I", st.one_of(
        _csv(st.integers(-1, 5)), st.text("0123456789,", max_size=5)
    )))
    return argv + draw(st.sampled_from([[], ["--paranoid"]]))


@st.composite
def key_expand_argv(draw):
    alpha = draw(st.lists(st.integers(0, 3), max_size=4))
    argv = ["key-expand", "(" + ",".join(map(str, alpha)) + ")"]
    argv += draw(_option("--D", _csv(st.integers(-1, 5))))
    argv += draw(_option("--n", st.integers(-1, 4).map(str)))
    argv += draw(_option("--oracle", st.sampled_from(["peel", "ry"])))
    argv += draw(st.sampled_from([[], ["--cross-check"]]))
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@_SETTINGS
@given(st.one_of(check_argv(), key_expand_argv()))
def test_cli_fuzz_exits_cleanly(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 1:
        assert err.splitlines()[-1].startswith("error:"), (argv, err)
