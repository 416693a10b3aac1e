"""Seeded K-stage interaction-free-measurement cascade.

``cascade(K, seed)`` chains K balanced Mach-Zehnder stages in the spirit of
Kwiat et al., PRL 74, 4763 (1995).  Stage k splits its input into arms
``u<k>`` and ``v<k>``, boxes atom k on the lower arm ``v<k>``, recombines the
arms into a dark port ``d<k>`` (watched by detector ``D<k>``) and a bright port
``c<k>``, and feeds the bright port to stage k+1.  The last bright port is
watched by detector ``C``.  Each atom's preparation (a Bloch direction kept
away from the poles, so no spin component is negligible) and the spin its box
blocks are drawn from ``seed``; the structure depends on K alone.
"""

from __future__ import annotations

import math

import numpy as np

from tisim.amplitudes import Ket, SubsystemSpec, tensor, unit
from tisim.engine import enumerate_transactions, z_context
from tisim.network import AtomBox, BeamSplitter, Detector, Emitter, Network, validate

TOL = 1e-12


def cascade(k_stages: int, seed: int) -> Network:
    """A validated K-stage cascade whose z-context total weight is 1."""
    if k_stages < 1:
        raise ValueError("a cascade needs at least one stage")
    draw = np.random.default_rng([seed, k_stages])
    stages = range(1, k_stages + 1)
    photon = SubsystemSpec(
        "photon",
        "photon-path",
        ("s", *(f"{arm}{k}" for k in stages for arm in "uvdc"), *(f"box{k}" for k in stages)),
    )
    specs: list[SubsystemSpec] = []
    elements: list = [Emitter("L", 0, unit((photon,), ("s",)))]
    source = "s"
    for k in stages:
        u, v, d, c = f"u{k}", f"v{k}", f"d{k}", f"c{k}"
        base = 3 * (k - 1)
        elements += [
            BeamSplitter(f"S{k}a", base + 1, (source,), (u, v)),
            AtomBox(f"box{k}", base + 2, f"atom{k}", str(draw.choice(("+", "-"))), v, f"atom{k}-level"),
            BeamSplitter(f"S{k}b", base + 3, (u, v), (d, c)),
            Detector(f"D{k}", base + 4, d),
        ]
        spin = SubsystemSpec(f"atom{k}", "atom-spin", ("+", "-"))
        level = SubsystemSpec(f"atom{k}-level", "atom-level", ("0", "1"))
        theta = math.radians(draw.uniform(30.0, 150.0))
        phi = draw.uniform(0.0, 2.0 * math.pi)
        prep = Ket(
            (spin,),
            {("+",): math.cos(theta / 2), ("-",): complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)},
        )
        elements.append(Emitter(f"atom{k}-source", 0, tensor(prep, unit((level,), ("0",)))))
        specs += [spin, level]
        source = c
    elements.append(Detector("C", 3 * k_stages + 1, source))
    network = Network(f"cascade-{k_stages}", (photon, *specs), tuple(elements))

    diags = validate(network)
    assert not diags, f"cascade({k_stages}) is invalid: " + "; ".join(map(str, diags))
    total = enumerate_transactions(network, z_context(network)).total_weight()
    assert abs(total - 1.0) <= TOL, f"cascade({k_stages}) z-context total weight {total!r} != 1"
    return network
