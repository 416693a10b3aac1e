"""The confirmation-wave echo: one backward walk per network and terminal,
read against each outcome's atom bras, and never against the offer wave."""

import dataclasses
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tisim as t
import tisim.amplitudes as amplitudes_module
import tisim.network as network_module
from netgen import qle_with_mirror, random_network
from tisim.engine import AtomBasis, MeasurementContext, Outcome, _bras
from tisim.errors import ContractError, StructuralError
from tisim.network import BeamSplitter, Mirror, confirmation_wave

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from cascade import cascade  # noqa: E402

TOL = 1e-12


def contexts(network):
    bloch = MeasurementContext({a.id: AtomBasis.bloch(0.7, 1.3) for a in network.atoms()})
    return (t.z_context(network), t.y_context(network), bloch)


def fresh(network):
    """An identical network that has walked nothing yet."""
    return dataclasses.replace(network)


def born_tables(network):
    """Per context, the Born candidates of ``network``."""
    return [(ctx, t.enumerate_transactions(network, ctx).candidates) for ctx in contexts(network)]


def test_echo_rejects_malformed_outcomes(qle):
    z, both = t.z_context(qle), (("atom1", "+"), ("atom2", "+"))
    malformed = [
        Outcome("D", (("atom1", "+"), ("atom3", "+"))),  # an unknown atom
        Outcome("D", (("atom1", "y+"), ("atom2", "+"))),  # a symbol outside the context's basis
        Outcome("D", (("atom1", "+"), ("atom2", "+"), ("atom1", "-"))),  # an atom read twice
        Outcome("D", (("atom1", "+"),)),  # an atom left out
        Outcome("D", both, excited="atom1"),  # a detection leaves no atom excited
        Outcome("A", both),  # box A's absorption excites atom1
        Outcome("S1", both),  # not a terminal
    ]
    for outcome in malformed:
        with pytest.raises(ContractError) as err:
            t.echo_weight(qle, outcome, z)
        assert "\n" not in str(err.value), outcome
    assert abs(t.echo_weight(qle, Outcome("D", both), z) - 1.0 / 16.0) < TOL


def test_echo_rejects_contexts_naming_unknown_atoms(qle):
    outcome, context = Outcome("D", (("atom1", "+"), ("atom2", "+"))), MeasurementContext({"nope": AtomBasis.y()})
    for ask in (t.enumerate_transactions, lambda net, ctx: t.echo_weight(net, outcome, ctx)):
        with pytest.raises(StructuralError, match="unknown atoms"):
            ask(qle, context)


def test_backward_propagate_rejects_malformed_bras(qle):
    photon, atom1 = qle.photon, qle.atoms()[0]
    d = t.unit((photon,), ("d",), bra=True)
    bras = {a.id: t.unit((a,), ("+",), bra=True) for a in qle.atoms()}
    ghost = t.unit((t.SubsystemSpec("ghost", "atom-spin", ("+", "-")),), ("+",), bra=True)
    for confirmation, atom_bras, error, match in (
        (d, {**bras, "ghost": ghost}, StructuralError, "unknown atoms \\['ghost'\\]"),
        (t.unit((photon, atom1), ("d", "+"), bra=True), bras, ContractError, "photon subsystem alone"),
        (t.Bra((photon,), {("d",): 0.6, ("c",): 0.8}), bras, ContractError, "exactly one symbol"),
        (d, {"atom1": bras["atom1"]}, ContractError, "no confirmation bra supplied for atom 'atom2'"),
        (d, {**bras, "atom2": bras["atom1"]}, StructuralError, "for 'atom2' is on the wrong space"),
    ):
        with pytest.raises(error, match=match):
            t.backward_propagate(qle, confirmation, atom_bras)
    assert abs(t.backward_propagate(qle, d, bras).weight - 1.0 / 16.0) < TOL


def test_echo_reads_no_offer_wave(monkeypatch, hardy, qle):
    nets = (hardy, qle, t.two_laser_variant(qle), cascade(4, 0))
    tables = [born_tables(net) for net in nets]

    def refuse(network):
        raise AssertionError("the echo walked the offer wave")

    monkeypatch.setattr(network_module, "forward_propagate", refuse)
    for net, table in zip(nets, tables):
        echoed = fresh(net)
        for ctx, candidates in table:
            for c in candidates:
                assert abs(t.echo_weight(echoed, c.outcome, ctx) - c.weight) <= TOL, (net.name, c.outcome)
        assert "_offer_wave" not in vars(echoed)


def test_each_terminal_walks_back_once(monkeypatch, qle):
    tables = born_tables(qle)
    walks = []
    real = network_module._walk_back
    monkeypatch.setattr(network_module, "_walk_back", lambda net, symbol: walks.append((net, symbol)) or real(net, symbol))
    echoed = fresh(qle)
    for ctx, candidates in tables:
        for c in candidates:
            t.echo_weight(echoed, c.outcome, ctx)
    terminals = {c.outcome.photon for _, candidates in tables for c in candidates}
    assert len(walks) == len(terminals) == 4
    assert sorted(symbol for _, symbol in walks) == sorted(sym for sym, eid in qle.terminal_symbols().items() if eid in terminals)
    spins = {a.id: t.unit((a,), ("+",), bra=True) for a in qle.atoms()}
    report = t.backward_propagate(echoed, t.unit((qle.photon,), ("d",), bra=True), spins)
    assert len(walks) == 4
    assert abs(report.weight - t.echo_weight(echoed, Outcome("D", (("atom1", "+"), ("atom2", "+"))), t.z_context(qle))) < TOL


def test_a_confirmation_wave_encodes_no_label(monkeypatch):
    net = cascade(6, 0)
    assert net._plan.steps

    def refuse(*args):
        raise AssertionError("a confirmation wave walked coded labels")

    monkeypatch.setattr(amplitudes_module._Codec, "encode", refuse)
    monkeypatch.setattr(network_module, "_apply_symbol_map", refuse)
    for terminal in net.terminal_symbols().values():
        assert confirmation_wave(net, terminal)[1].shape == (1, 2**6)


def test_each_element_map_is_built_once(monkeypatch):
    net = t.network_from_dict(qle_with_mirror(0.0, 1.0))
    calls = []
    for cls in (BeamSplitter, Mirror):
        monkeypatch.setattr(cls, "forward_map", lambda self, real=cls.forward_map: calls.append(self.id) or real(self))
    assert net._offer_wave.absorbed
    for terminal in net.terminal_symbols().values():
        confirmation_wave(net, terminal)
    spins = {a.id: t.unit((a,), ("-",), bra=True) for a in net.atoms()}
    for symbol in ("A", "B", "c", "d"):
        t.backward_propagate(net, t.unit((net.photon,), (symbol,), bra=True), spins)
    assert sorted(calls) == ["M", "S1", "S2"]


def atom_bra(spec, basis, symbol):
    """The bra of an atom read as ``symbol`` in ``basis``: the row ``echo_weight`` reads."""
    row = _bras(basis, len(spec.basis))[basis.symbols(spec).index(symbol)]
    return t.Bra((spec,), {(z,): b for z, b in zip(spec.basis, row)})


@pytest.mark.simd
def test_backward_propagate_reads_superposed_bras_and_scaled_anchors(hardy, qle, bomb_present):
    rng = np.random.default_rng(31)
    nets = [hardy, qle, bomb_present, t.two_laser_variant(qle)] + [random_network(rng, i) for i in range(20)]
    bloch = AtomBasis.bloch(math.radians(30), math.radians(40))  # the CLI's bloch:30,40
    for net in nets:
        terminals = {eid: sym for sym, eid in net.terminal_symbols().items()}
        if all(len(a.basis) == 2 for a in net.atoms()):
            ctxs = (t.y_context(net), MeasurementContext({a.id: bloch for a in net.atoms()}))
        else:  # a one-symbol atom has no basis to rotate
            ctxs = (t.z_context(net),)
        for ctx in ctxs:
            for c in t.enumerate_transactions(net, ctx).candidates:
                readings = dict(c.outcome.atoms)
                bases = {a.id: AtomBasis.z() if a.id == c.outcome.excited else ctx.basis_for(a.id) for a in net.atoms()}
                bras = {a.id: atom_bra(a, bases[a.id], readings[a.id]) for a in net.atoms()}
                echo = t.echo_weight(net, c.outcome, ctx)
                symbol = terminals[c.outcome.photon]
                first = t.backward_propagate(net, t.unit((net.photon,), (symbol,), bra=True), bras)
                for coeff in (1.0, 2.0, 0.3 - 1.1j):
                    report = t.backward_propagate(net, t.unit((net.photon,), (symbol,), coeff, bra=True), bras)
                    assert abs(report.weight - abs(coeff) ** 2 * echo) <= TOL, (net.name, c.outcome, coeff)
                    assert abs(report.amplitude - coeff * first.amplitude) <= TOL, (net.name, c.outcome, coeff)


def test_echoes_on_two_threads_match_serial(qle):
    tables = born_tables(qle)
    serial_net = fresh(qle)
    serial = [t.echo_weight(serial_net, c.outcome, ctx) for ctx, cands in tables for c in cands]
    shared = fresh(qle)
    results = [None, None]

    def echo_all(slot):
        results[slot] = [t.echo_weight(shared, c.outcome, ctx) for ctx, cands in tables for c in cands]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so both race to fill each wave
    try:
        threads = [threading.Thread(target=echo_all, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial, serial]


@pytest.mark.simd
@pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
def test_born_equals_echo_on_every_cascade_candidate(k):
    net = cascade(k, 0)
    for ctx, candidates in born_tables(net):
        worst = max(abs(t.echo_weight(net, c.outcome, ctx) - c.weight) for c in candidates)
        assert worst <= TOL, f"cascade({k}): |Born - echo| reaches {worst:.3e}"
