"""The demos' standard output pinned byte for byte.

``golden_demos.json`` maps each script under ``demos/`` to what it prints.
Each demo runs in-process, as ``__main__``, with its stdout captured; all six
are deterministic (fixed seeds, exact arithmetic).  Regenerate the file (only
when a change of output is intended) from the repository root with::

    PYTHONPATH=src python3 tests/test_demos.py > tests/golden_demos.json
"""

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.simd
DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = Path(__file__).with_name("golden_demos.json")


def demo_output(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return out.getvalue()


def demo_names() -> list[str]:
    return sorted(path.name for path in DEMOS.glob("*.py"))


def test_every_demo_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == demo_names()


@pytest.mark.parametrize("name", demo_names())
def test_demo_output_is_unchanged(name):
    assert demo_output(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    json.dump({name: demo_output(name) for name in demo_names()}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
