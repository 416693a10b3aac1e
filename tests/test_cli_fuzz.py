"""Random command lines through the CLI: argparse refuses one with ``SystemExit(2)``,
or it runs (exit 0), or it exits 2 with one ``error:`` line; none ends in a traceback.

Subcommands, options and choices are drawn from the parser's own actions, scenario
names from ``scenarios.SCENARIOS``, so a new name is fuzzed as soon as it is declared.
Each option's values come from ``VALUES`` (keyed by its ``dest``); an option missing
there fails the test until it gets its edge values.
"""

import argparse
import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tisim as t
from netgen import qle_with_mirror
from tisim import cli, rng
from tisim.scenarios import SCENARIOS

PARSER = cli._build_parser()
SUBCOMMANDS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices
MAX_RUN_TRIALS = 10**4
STREAM = 2**66  # trial indices per stream
COUNTABLE = 2**63 - 1  # trials one run counts on a stream: a run of up to this many really runs
NETWORK_FILES = ("valid.json", "invalid.json", "missing.json")  # resolved in the test's directory


def mostly(usual: list, unusual: list) -> st.SearchStrategy[str]:
    """A value of ``usual`` three times in four, else one of ``unusual``; as text."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(usual if k else unusual)).map(str)


VALUES = {
    "scenario": mostly(list(SCENARIOS), ["nope", "", "qlé"]),
    "expression": mostly(
        ["|L-S1-B-S2-D>", "|L-_S1_-A-_S2_-D> + |L-S1-B-S2-D>", "|Laser-S1-BoxA-S2-Dark>"], ["|X>", "|_>", "", "|L>|+>", "|L−S1>", "|Ł>"]
    ),
    "seed": mostly([0, 2**64 - 1], [-1, 2**64, "nan", "x"]),
    # counts in (10**4, COUNTABLE] are never drawn: they would run
    "trials": st.one_of(st.integers(1, MAX_RUN_TRIALS), st.sampled_from([-1, 0, STREAM + 1, 10**23, "inf"])).map(str),
    # threads are capped by the CPU and block counts, so a billion workers start no more than a few
    "workers": mostly([1, 2, 10**9], [-1, 0]),
    "atom_basis": mostly(["z", "y", "bloch:30,40"], ["bloch:nan,0", "bloch:inf,0", "bloch:1", "w", "", "ý"]),
    "network": mostly(["valid.json"], ["invalid.json", "missing.json"]),
    "alias": mostly(["Laser=L", "BoxA=A", "Dark=D"], ["nope", "=", "L="]),
}
JUNK = st.sampled_from(["--nope", "nope", "-x", "--"])


def options(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]


@st.composite
def command_lines(draw) -> list[str]:
    name = draw(st.sampled_from([*SUBCOMMANDS, "nope", None]))
    if name not in SUBCOMMANDS:
        return [] if name is None else [name, *draw(st.lists(JUNK, max_size=2))]
    sub = SUBCOMMANDS[name]
    argv = [name]
    for action in sub._actions:
        if not action.option_strings and draw(st.integers(0, 9)):  # a positional, left out one time in ten
            argv.append(draw(VALUES[action.dest]))
    for action in draw(st.lists(st.sampled_from(options(sub)), max_size=5)) if options(sub) else ():  # repeats too
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:  # not a flag
            argv.append(draw(mostly(list(action.choices), ["nope"]) if action.choices else VALUES[action.dest]))
    return argv + ([draw(JUNK)] if draw(st.integers(0, 9)) == 0 else [])  # a stray token one time in ten


@pytest.fixture(scope="module")
def network_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("networks")
    t.save_network(t.qle_network(), directory / "valid.json")
    (directory / "invalid.json").write_text(json.dumps(qle_with_mirror(2.0)))
    return directory


def outcome(argv: list[str]) -> tuple[str, int, str]:
    """How ``cli.main(argv)`` ended: ("argparse" or "main", exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return "main", cli.main(argv), err.getvalue()
        except SystemExit as exit:
            return "argparse", exit.code, err.getvalue()


def check(argv: list[str]) -> None:
    uniforms = rng.uniforms

    def bounded_uniforms(seed, lane, start, count):
        assert start + count <= MAX_RUN_TRIALS, (argv, start, count)  # stops a long run at its first draw
        return uniforms(seed, lane, start, count)

    with mock.patch.object(rng, "uniforms", bounded_uniforms):
        how, code, err = outcome(argv)
    if how == "argparse":
        assert code == 2, (argv, err)  # usage text is allowed here
    elif code == 0:
        assert err == "", (argv, err)
    else:
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (argv, code, err)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)  # the same command lines every run
@given(argv=command_lines())
@example(argv=["run", "qle", "--trials", str(MAX_RUN_TRIALS), "--workers", str(10**9), "--seed", str(2**64 - 1)])
@example(argv=["run", "qle", "--trials", "10", "--seed", str(2**64)])
@example(argv=["run", "qle-chsh", "--trials", str(4 * STREAM + 1)])  # one pair past the fourth stream
@example(argv=["run", "qle-chsh", "--trials", str(4 * COUNTABLE + 1)])  # one pair more than the first setting counts
@example(argv=["run", "qle", "--trials", str(COUNTABLE + 1)])
@example(argv=["run", "qle", "--trials", str(STREAM + 1)])
@example(argv=["run", "qle", "--trials", "0"])
@example(argv=["run", "qle", "--trials", "-1"])
def test_every_command_line_runs_or_exits_two(network_dir, argv):
    check([str(network_dir / a) if a in NETWORK_FILES else a for a in argv])

