"""Description files pinned byte for byte.

``golden_networks.json`` maps each network's name to the text ``save_network``
writes for it: the five builtin networks and ``cascade(3, 0)``.  Regenerate it
(only when a change of the file format is intended) from the repository root with::

    PYTHONPATH=src python3 tests/test_golden_networks.py > tests/golden_networks.json
"""

import json
import sys
from pathlib import Path

import pytest

import tisim as t

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from cascade import cascade  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_networks.json")
NETWORKS = {
    "ev-bomb present": lambda: t.ev_bomb_network(present=True),
    "ev-bomb absent": lambda: t.ev_bomb_network(present=False),
    "hardy-ifm": t.hardy_network,
    "qle": t.qle_network,
    "qle-two-laser": lambda: t.two_laser_variant(t.qle_network()),
    "cascade(3, 0)": lambda: cascade(3, 0),
}


def description(name: str, directory: Path) -> str:
    path = directory / "net.json"
    t.save_network(NETWORKS[name](), path)
    return path.read_text()


@pytest.mark.parametrize("name", NETWORKS)
def test_saved_description_matches_golden(name, tmp_path):
    assert description(name, tmp_path) == json.loads(GOLDEN.read_text())[name]


def test_golden_file_covers_every_network():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(NETWORKS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump({name: description(name, Path(tmp)) for name in NETWORKS}, sys.stdout, indent=1, sort_keys=True)
    print()
