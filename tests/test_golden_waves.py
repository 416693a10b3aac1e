"""Confirmation waves pinned bit for bit.

``golden_waves.json`` maps each network and terminal to what
``confirmation_wave`` returns for it: the atom the terminal leaves excited,
the shape of W and the SHA-256 of W's bytes.  The networks are the builtins,
``cascade(3..8, 0)`` and 30 seeded ``netgen.random_network`` networks.
Regenerate it (only when a change of the waves' values is intended) from the
repository root with::

    PYTHONPATH=src python3 tests/test_golden_waves.py > tests/golden_waves.json
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import tisim as t
from netgen import random_network
from tisim.network import confirmation_wave

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from cascade import cascade  # noqa: E402

pytestmark = pytest.mark.simd
GOLDEN = Path(__file__).with_name("golden_waves.json")
NETWORKS = {
    "ev-bomb present": lambda: t.ev_bomb_network(present=True),
    "ev-bomb absent": lambda: t.ev_bomb_network(present=False),
    "hardy-ifm": t.hardy_network,
    "qle": t.qle_network,
    "qle-two-laser": lambda: t.two_laser_variant(t.qle_network()),
    **{f"cascade({k}, 0)": (lambda k=k: cascade(k, 0)) for k in range(3, 9)},
    **{f"random({i})": (lambda i=i: random_network(np.random.default_rng(700 + i), i)) for i in range(30)},
}


def waves(name: str) -> dict:
    """Per terminal id of the network, its wave's excited atom, shape and digest."""
    net = NETWORKS[name]()
    out = {}
    for terminal in sorted(net.terminal_symbols().values()):
        excited, wave = confirmation_wave(net, terminal)
        out[terminal] = [excited, list(wave.shape), hashlib.sha256(wave.tobytes()).hexdigest()]
    return out


@pytest.mark.parametrize("name", NETWORKS)
def test_confirmation_waves_match_golden(name):
    assert waves(name) == json.loads(GOLDEN.read_text())[name]


def test_golden_file_covers_every_network():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(NETWORKS)


if __name__ == "__main__":
    json.dump({name: waves(name) for name in NETWORKS}, sys.stdout, indent=1, sort_keys=True)
    print()
