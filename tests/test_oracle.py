"""The engine against the dense reference model in ``oracle.py``.

Born weights (flat and hierarchical), echo weights and path sums are each
checked to 1e-12 on seeded random networks and on the benchmark's K-stage
cascade, in the z, y and one Bloch measurement context.
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import tisim as t
from tisim.amplitudes import unit
from tisim.engine import AtomBasis, MeasurementContext, Outcome
from tisim.pathnotation import PathExpression, surviving_detector_paths

import oracle
from netgen import hardy_entangled_laser, qle_two_atom_source, random_network, reshaped_networks
from test_network import assert_echo_identity

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from cascade import cascade  # noqa: E402

TOL = 1e-12


def contexts(network):
    bloch = MeasurementContext({a.id: AtomBasis.bloch(0.7, 1.3) for a in network.atoms()})
    return (t.z_context(network), t.y_context(network), bloch)


def by_outcome(dist) -> dict[tuple, float]:
    out: dict[tuple, float] = {}
    for c in dist.candidates:
        key = (c.outcome.photon, c.outcome.atoms, c.outcome.excited)
        out[key] = out.get(key, 0.0) + c.weight
    return out


def assert_close_tables(got: dict, want: dict, what: str) -> None:
    worst = max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in got.keys() | want.keys())
    assert worst <= TOL, f"{what}: differs from the oracle by {worst:.3e}"


def assert_matches_oracle(network, ctxs=None) -> None:
    for ctx in ctxs or contexts(network):
        want = oracle.distribution(network, ctx)
        assert abs(sum(want.values()) - 1.0) <= TOL
        flat = t.enumerate_transactions(network, ctx)
        assert_close_tables(by_outcome(flat), want, f"{network.name} flat")
        assert_close_tables(by_outcome(t.hierarchical_distribution(network, ctx)), want, f"{network.name} hierarchical")
        for (photon, atoms, excited), weight in want.items():
            if weight > TOL:
                echo = t.echo_weight(network, Outcome(photon, atoms, excited), ctx)
                assert abs(echo - weight) <= TOL, f"{network.name}: echo of {photon} {atoms}"


def assert_path_sums_match_oracle(network) -> None:
    """Per detector and z assignment of the atoms, the coherent sum over the
    open routes times the emitted amplitude is the oracle's amplitude."""
    initial, final = oracle.initial_state(network), oracle.final_state(network)
    source = np.unravel_index(np.abs(initial).argmax(), initial.shape)[0]
    atoms = network.atoms()
    for det in network.detectors():
        open_sums = {
            combo: t.sum_amplitudes(PathExpression(routes), network)
            for combo, routes, _ in surviving_detector_paths(network, det.id)
        }
        for combo in itertools.product(*(a.basis for a in atoms)):
            index = [source] + [0] * (initial.ndim - 1)
            for a, sym in zip(atoms, combo):
                axis = next(i for i, s in enumerate(network.subsystems) if s.id == a.id)
                index[axis] = a.basis.index(sym)
            want = oracle.detector_amplitude(network, final, det.id, combo)
            got = open_sums.get(combo, 0.0) * initial[tuple(index)]
            assert abs(got - want) <= TOL, f"{network.name}: path sum at {det.id} for {combo}"


@pytest.mark.simd
@pytest.mark.parametrize("shape", ["one-source", "entangled-laser"])
def test_engine_matches_oracle_on_both_emitter_shapes(shape):
    for net in reshaped_networks(shape, 20261021, 50):
        assert t.validate(net) == []
        assert_echo_identity(net)
        assert_matches_oracle(net)
        assert_path_sums_match_oracle(net)


@pytest.mark.simd
def test_atom_source_shares_match_the_oracle(hardy, qle, bomb_present):
    """Each atom source's ``sector_amplitudes`` entry, for every terminal and z bras,
    is its dense emitted array read at the bras' symbols, levels at ground."""
    nets = [hardy, qle, bomb_present, t.two_laser_variant(qle), qle_two_atom_source(), hardy_entangled_laser()]
    nets += reshaped_networks("one-source", 20261021, 50) + reshaped_networks("entangled-laser", 20261021, 50)
    for net in nets:
        atoms, sources = net.atoms(), [e for e in net.emitters() if e not in net.photon_emitters()]
        for symbol in net.terminal_symbols():
            confirmation = unit((net.photon,), (symbol,), bra=True)
            for combo in itertools.product(*(a.basis for a in atoms)):
                bras = {a.id: unit((a,), (sym,), bra=True) for a, sym in zip(atoms, combo)}
                sectors = t.backward_propagate(net, confirmation, bras).sector_amplitudes
                z = {a.id: a.basis.index(sym) for a, sym in zip(atoms, combo)}
                for e in sources:
                    want = oracle.emitter_array(e)[tuple(z[s.id] if s.kind == "atom-spin" else 0 for s in e.state.space)]
                    assert abs(sectors[e.id] - want) <= TOL, f"{net.name}: {e.id} at {symbol} for {combo}"


def netgen_networks():
    rng = np.random.default_rng(20261018)
    return [random_network(rng, index) for index in range(120)]


def test_engine_matches_oracle_on_random_networks():
    nets = netgen_networks()
    # the sample covers splitter merges, mirrors and atoms with two boxes
    assert any(len(e.inputs) == 2 for net in nets for e in net.elements if isinstance(e, t.BeamSplitter))
    assert any(isinstance(e, t.Mirror) for net in nets for e in net.elements)
    assert any(len({b.atom for b in net.boxes()}) < len(net.boxes()) for net in nets)
    for net in nets:
        assert_matches_oracle(net)


def test_path_sums_match_oracle_on_random_networks():
    for net in netgen_networks():
        assert_path_sums_match_oracle(net)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_engine_matches_oracle_on_cascade(k):
    net = cascade(k, 0)
    assert oracle.final_state(net).size < 6000
    assert_matches_oracle(net)
    assert_path_sums_match_oracle(net)


def test_oracle_matches_builtins(hardy, qle, bomb_present):
    for net in (hardy, qle, t.two_laser_variant(qle)):
        assert_matches_oracle(net)
    # the bomb's one-symbol state has no basis to rotate
    assert_matches_oracle(bomb_present, [t.z_context(bomb_present)])
