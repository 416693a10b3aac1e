"""Offer and confirmation waves pinned bit for bit.

``golden_waves.json`` maps each network and terminal to what
``confirmation_wave`` returns for it: the atom the terminal leaves excited,
the shape of W and the SHA-256 of W's bytes.  ``golden_offer_waves.json`` maps
each network to its forward walk (``forward_propagate``): the SHA-256 of the
continuing ket's codes, re and im, each absorbed ket's box id and SHA-256, and
the box fractions as ``float.hex`` strings, which every hierarchical draw reads.
The networks are the builtins, ``cascade(3..8, 0)`` and 30 seeded
``netgen.random_network`` networks.  Regenerate them (only when a change of the
waves' values is intended) from the repository root with::

    PYTHONPATH=src python3 tests/test_golden_waves.py > tests/golden_waves.json
    PYTHONPATH=src python3 tests/test_golden_waves.py offer > tests/golden_offer_waves.json
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import tisim as t
from netgen import random_network
from tisim.network import confirmation_wave, forward_propagate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from cascade import cascade  # noqa: E402

pytestmark = pytest.mark.simd
GOLDEN = Path(__file__).with_name("golden_waves.json")
GOLDEN_OFFER = Path(__file__).with_name("golden_offer_waves.json")
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


def digest(ket) -> str:
    return hashlib.sha256(ket._codes.tobytes() + ket._re.tobytes() + ket._im.tobytes()).hexdigest()


def offer_wave(name: str) -> dict:
    """The network's forward walk: the continuing ket's digest, each absorbed ket's box and digest, the box fractions."""
    trace = forward_propagate(NETWORKS[name]())
    return {
        "continuing": digest(trace.continuing),
        "absorbed": [[box, digest(ket)] for box, ket in trace.absorbed],
        "box_fractions": [float.hex(p) for p in trace.box_fractions],
    }


@pytest.mark.parametrize("name", NETWORKS)
def test_confirmation_waves_match_golden(name):
    assert waves(name) == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("name", NETWORKS)
def test_offer_waves_match_golden(name):
    assert offer_wave(name) == json.loads(GOLDEN_OFFER.read_text())[name]


def test_golden_file_covers_every_network():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(NETWORKS)


def test_offer_golden_file_covers_every_network():
    assert sorted(json.loads(GOLDEN_OFFER.read_text())) == sorted(NETWORKS)


if __name__ == "__main__":
    pin = offer_wave if sys.argv[1:] == ["offer"] else waves
    json.dump({name: pin(name) for name in NETWORKS}, sys.stdout, indent=1, sort_keys=True)
    print()
