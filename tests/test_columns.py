"""An ``OutcomeDistribution`` holds its candidates as columns; rows are built when read."""

import math

import pytest

import tisim as t
from tisim.engine import AtomBasis, MeasurementContext, Outcome, TransactionCandidate
from tisim.scenarios import build_scenario, run_exact, run_mc, scenario_names

pytestmark = pytest.mark.simd


def builtin_networks():
    qle = t.qle_network()
    return [qle, t.hardy_network(), t.ev_bomb_network(True), t.ev_bomb_network(False), t.two_laser_variant(qle)]


def contexts(net):
    if not all(len(a.basis) == 2 for a in net.atoms()):
        return [t.z_context(net)]
    bloch = MeasurementContext({a.id: AtomBasis.bloch(0.7, 1.3) for a in net.atoms()})
    return [t.z_context(net), t.y_context(net), bloch]


def check_rows(dist):
    rows = dist.candidates
    assert rows is dist.candidates  # built once, on the first read
    assert rows == tuple(TransactionCandidate(*c) for c in zip(dist.outcomes, dist.weights, dist.amplitudes))
    for c in rows:
        assert (type(c), type(c.outcome), type(c.weight), type(c.amplitude)) == (
            TransactionCandidate, Outcome, float, complex
        )
    return rows


def test_enumeration_returns_the_distribution_the_network_keeps():
    for net in builtin_networks():
        for ctx in contexts(net):
            dist = t.enumerate_transactions(net, ctx)
            assert t.enumerate_transactions(net, ctx) is dist
            assert t.enumerate_transactions(net, MeasurementContext(dict(ctx.atom_bases))) is dist


def bases(name):
    if name == "qle-chsh":
        return [{}]  # its settings fix each atom's basis
    return [{"atom_basis": basis} for basis in (("z",) if name == "ev-bomb" else ("z", "y"))]


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("post", [{}, {"post_select": "D"}])
def test_runs_build_no_rows(name, post):
    for basis in bases(name):
        scenario = build_scenario(name, **basis, **post)
        run_exact(scenario)
        run_mc(scenario, 1_000, 3)
        tables = scenario.network._stage_tables
        assert len(tables) == (4 if name == "qle-chsh" else 1)
        for table in tables.values():
            assert "candidates" not in vars(table.flat)


def test_rows_are_the_columns_of_every_distribution():
    for net in builtin_networks():
        for ctx in contexts(net):
            flat = t.enumerate_transactions(net, ctx)
            rows = check_rows(flat)
            assert all(c.weight == abs(c.amplitude) ** 2 for c in rows)
            check_rows(t.hierarchical_distribution(net, ctx))
            sampled = t.sample_hierarchical(net, ctx, 100, 7)
            assert check_rows(sampled) == rows and sum(sampled.counts) == 100
            for photon in {c.outcome.photon for c in rows if c.weight > 0.0}:
                conditional, _ = t.post_select(sampled, photon)
                # the renormalised rows, in Python float and complex arithmetic
                selected = [c for c in rows if c.outcome.photon == photon]
                total = sum(c.weight for c in selected)
                expected = tuple(
                    c._replace(weight=c.weight / total, amplitude=c.amplitude / math.sqrt(total)) for c in selected
                )
                assert check_rows(conditional) == expected
                assert conditional.counts is None and conditional.provenance == "hierarchical"
