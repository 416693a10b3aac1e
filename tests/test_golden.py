"""Exact CLI reports pinned byte for byte.

``golden_exact.json`` maps each command line to its output: the JSON reports
of ``tisim run ... --exact`` with ``wall_time_s`` removed, and the text of
``tisim verify`` and ``tisim path``.  Regenerate it (only when a change
of output is intended) from the repository root with::

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_exact.json
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from tisim import cli

GOLDEN = Path(__file__).with_name("golden_exact.json")


def golden_commands() -> list[list[str]]:
    commands = []
    for name in ("ev-bomb", "hardy-ifm", "qle", "qle-two-laser"):
        # ev-bomb's one-symbol bomb state has no basis to rotate
        for basis in ("z",) if name == "ev-bomb" else ("z", "y", "bloch:30,40"):
            for post in ("none", "d"):
                commands.append(["run", name, "--exact", "--atom-basis", basis, "--post-select", post])
    commands.append(["run", "qle-chsh", "--exact"])
    commands.append(["verify"])
    commands.append(["path", "|L-_S1_-A-_S2_-D> + |L-S1-B-S2-D>"])
    return commands


def report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    if argv[0] != "run":
        return out.getvalue()
    text, n = re.subn(r', "wall_time_s": [^,}]+', "", out.getvalue())
    assert n == 1
    return text


@pytest.mark.parametrize("argv", golden_commands(), ids=" ".join)
def test_exact_report_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert report(argv) == golden[" ".join(argv)]


def test_golden_file_covers_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(a) for a in golden_commands())


if __name__ == "__main__":
    json.dump({" ".join(argv): report(argv) for argv in golden_commands()}, sys.stdout, indent=1, sort_keys=True)
    print()
