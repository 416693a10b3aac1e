"""The stage table each network keeps, and the draw loop that reads it."""

import dataclasses
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tisim as t
from tisim import engine
from tisim import network as network_module
from tisim.amplitudes import SubsystemSpec, scale
from tisim.engine import AtomBasis, ChshSettings, MeasurementContext
from tisim.errors import ContractError, StructuralError
from tisim.network import AtomBox, Detector, Emitter, Network, PropagationTrace
from tisim.rng import uniform
from netgen import random_network
from test_engine import hardy_with_second_box, stage_lists

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from cascade import cascade  # noqa: E402

TRIALS = (*range(200), 2**40 + 3)


def bloch(net, theta, phi):
    return MeasurementContext({a.id: AtomBasis.bloch(theta, phi) for a in net.atoms()})


def reference_resolver(net, ctx, seed):
    """Resolve trials without the engine's draw loop: boxes in rank order, each
    drawing ``uniform(seed, 1 + k, trial)`` and firing when it is below the
    box's absorption probability; survivors draw on lane 0."""
    stages, final = stage_lists(net, ctx)

    def pick(cands, u):
        cum = np.cumsum([c.weight for c in cands])
        return cands[int(np.searchsorted(cum / cum[-1], u, side="right"))].outcome

    def resolve(trial):
        for k, (p_here, cands) in enumerate(stages):
            u = uniform(seed, 1 + k, trial)
            if u < p_here:
                return pick(cands, u / p_here)
        return pick(final, uniform(seed, 0, trial))

    return resolve


def test_resolve_hierarchical_matches_reference_trial_by_trial():
    rng = np.random.default_rng(1618)
    nets = [t.qle_network(), t.hardy_network(), hardy_with_second_box()]
    nets += [random_network(rng, index) for index in range(20)]
    assert sum(len(net.boxes()) for net in nets) > 20
    for net in nets:
        for ctx in (t.z_context(net), t.y_context(net), bloch(net, 0.7, 1.3)):
            for seed in (5, 2**64 - 1):
                reference = reference_resolver(net, ctx, seed)
                for trial in TRIALS:
                    assert t.resolve_hierarchical(net, ctx, seed, trial) == reference(trial), (net.name, trial)


def results(net, ctx):
    dist = t.enumerate_transactions(net, ctx)
    return repr(
        (
            dist,
            t.hierarchical_distribution(net, ctx),
            [t.resolve_hierarchical(net, ctx, 9, trial) for trial in range(50)],
            [t.resolve_flat(dist, 9, trial) for trial in range(50)],
            t.sample_hierarchical(net, ctx, 3001, 9),
        )
    )


def test_shared_network_answers_as_fresh_ones(monkeypatch):
    walks = []  # every network walks its offer wave once, whatever it is asked about
    walk = network_module.forward_propagate
    monkeypatch.setattr(network_module, "forward_propagate", lambda net: walks.append(net) or walk(net))
    makers = [t.qle_network, t.hardy_network, lambda: random_network(np.random.default_rng(31), 0)]
    for make in makers:
        shared = make()
        for context in (t.z_context, t.y_context, lambda net: bloch(net, 0.7, 1.3), t.z_context, t.y_context):
            fresh = make()
            assert results(shared, context(shared)) == results(fresh, context(fresh))
            assert [net for net in walks if net is shared or net is fresh] == [shared, fresh]


def test_network_keeps_at_most_stage_tables():
    net = t.qle_network()
    for i in range(50):
        t.enumerate_transactions(net, bloch(net, 0.05 * i, 0.1 * i))
    assert len(net._stage_tables) == engine.STAGE_TABLES
    t.resolve_hierarchical(net, t.y_context(net), 1, 0)
    assert len(net._stage_tables) == engine.STAGE_TABLES


def settings_contexts(net):
    """The four contexts of one CHSH run, in ``pair_contexts`` order."""
    settings = ChshSettings(a=(0.3, 0.0), a_prime=(1.1, 0.0), b=(0.7, 0.4), b_prime=(1.9, 0.0))
    return [ctx for _, ctx in engine.pair_contexts(net, settings)]


def key(net, ctx):
    return tuple(ctx.basis_for(a.id) for a in net.atoms())


class CountingTables(dict):
    """A network's stage tables that record the key of every table inserted."""

    def __init__(self):
        super().__init__()
        self.inserted = []

    def __setitem__(self, key, table):
        self.inserted.append(key)
        super().__setitem__(key, table)


def counting_builds(monkeypatch, net):
    """The keys of every stage table ``net`` builds, in build order."""
    tables = CountingTables()
    monkeypatch.setitem(net.__dict__, "_stage_tables", tables)
    return tables.inserted


def test_each_atom_is_rebased_once_per_table(monkeypatch):
    """Each atom read outside z takes one 2x2 step on its register axis (axis 0 is the terminal)."""
    rebased = []
    real = engine._turn
    monkeypatch.setattr(engine, "_turn", lambda re, im, axis, bras: rebased.append(atoms[axis - 1]) or real(re, im, axis, bras))
    for net in (t.qle_network(), t.hardy_network(), *(cascade(k, 0) for k in (1, 4, 9))):
        atoms = [a.id for a in net.atoms()]
        for ctx, expected in ((t.z_context(net), []), (t.y_context(net), atoms), (bloch(net, 0.7, 1.3), atoms)):
            rebased.clear()
            t.enumerate_transactions(net, ctx)
            assert rebased == expected, net.name
    assert len(cascade(9, 0).atoms()) == 9


def test_only_two_symbol_atoms_change_basis():
    data = t.network_to_dict(t.qle_network())
    next(spec for spec in data["subsystems"] if spec["id"] == "atom1")["basis"].append("x")
    net = t.network_from_dict(data)
    assert t.enumerate_transactions(net, t.z_context(net)).total_weight() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(StructuralError, match="^subsystem 'atom1' is not two-dimensional$"):
        t.enumerate_transactions(net, t.y_context(net))


def test_switching_contexts_builds_each_table_once(monkeypatch):
    net = t.qle_network()
    builds = counting_builds(monkeypatch, net)
    z, y = t.z_context(net), t.y_context(net)
    for ctx in (z, y, z, y):
        t.resolve_hierarchical(net, ctx, 3, 0)
        t.enumerate_transactions(net, ctx)
    assert builds == [key(net, z), key(net, y)]

    net = t.qle_network()
    builds = counting_builds(monkeypatch, net)
    chsh, z = settings_contexts(net), t.z_context(net)
    assert len({key(net, ctx) for ctx in chsh}) == engine.STAGE_TABLES
    for ctx in (*chsh, *reversed(chsh), *chsh, z):  # one CHSH run asks each setting more than once
        t.hierarchical_distribution(net, ctx)
    assert builds == [key(net, ctx) for ctx in (*chsh, z)]
    before = list(net._stage_tables.items())
    for ctx in (*chsh[1:], z):  # a hit leaves the tables and their order alone
        t.enumerate_transactions(net, ctx)
    assert list(net._stage_tables.items()) == before


def test_a_fifth_context_evicts_the_oldest_inserted_table(monkeypatch):
    net = t.qle_network()
    builds = counting_builds(monkeypatch, net)
    chsh = settings_contexts(net)
    for ctx in (*chsh, chsh[0]):  # asking the oldest again does not make it the newest
        t.enumerate_transactions(net, ctx)
    z = t.z_context(net)
    t.enumerate_transactions(net, z)
    assert list(net._stage_tables) == [key(net, ctx) for ctx in (*chsh[1:], z)]
    for ctx in (*chsh[1:], z):
        t.enumerate_transactions(net, ctx)
    assert builds == [key(net, ctx) for ctx in (*chsh, z)]
    t.enumerate_transactions(net, chsh[0])
    assert builds[-1] == key(net, chsh[0])
    assert list(net._stage_tables) == [key(net, ctx) for ctx in (*chsh[2:], z, chsh[0])]


def test_threads_sharing_a_network_see_their_own_contexts():
    def calls(net, first):
        contexts = (t.z_context(net), t.y_context(net))
        return [repr(t.resolve_hierarchical(net, contexts[(first + i) % 2], 7, i)) for i in range(200)]

    starts = (0, 1, 0, 1)  # half the threads start in z, half in y
    expected = [calls(t.qle_network(), first) for first in starts]
    shared = t.qle_network()
    got = [None] * len(starts)
    start = threading.Barrier(len(starts))

    def worker(i):
        start.wait()
        got[i] = calls(shared, starts[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so they replace each other's tables mid-call
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(starts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
    assert 1 <= len(shared._stage_tables) <= 2


def test_threads_over_more_contexts_than_tables_see_their_own():
    def contexts(net):
        return [t.z_context(net), t.y_context(net), *settings_contexts(net)]

    def calls(net, order):
        contexts_here = contexts(net)
        out = []
        for i in range(30 * len(order)):
            ctx = contexts_here[order[i % len(order)]]
            out.append(repr((t.resolve_hierarchical(net, ctx, 11, i), t.enumerate_transactions(net, ctx))))
        return out

    orders = ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0), (1, 3, 5, 0, 2, 4), (4, 0, 5, 1, 3, 2))
    assert len(contexts(t.qle_network())) > engine.STAGE_TABLES
    expected = [calls(t.qle_network(), order) for order in orders]
    shared = t.qle_network()
    got, errors = [None] * len(orders), []
    start = threading.Barrier(len(orders))

    def worker(i):
        start.wait()
        try:
            got[i] = calls(shared, orders[i])
        except BaseException as err:  # noqa: BLE001 - reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so inserts and evictions interleave
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(orders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert got == expected
    assert 1 <= len(shared._stage_tables) <= engine.STAGE_TABLES


# -- the flat table the distributions read ---------------------------------------------


def loop_hierarchical(net, ctx):
    """The chain rule candidate by candidate over the stage lists,
    merged by a stable sort on the photon name: the reference for the flat path."""
    stages, final = stage_lists(net, ctx)
    survival, candidates = 1.0, []
    for p_here, inner in stages:
        if p_here <= 0.0:
            continue
        mass = 0.0  # added in order from +0.0, uncompensated
        for c in inner:
            mass += c.weight
        for c in inner:
            candidates.append((c.outcome, survival * p_here * (c.weight / mass), c.amplitude))
        survival *= 1.0 - p_here
    final_mass = 0.0
    for c in final:
        final_mass += c.weight
    if final_mass > 0.0:
        for c in final:
            candidates.append((c.outcome, survival * (c.weight / final_mass), c.amplitude))
    return [(o, w.hex(), a) for o, w, a in sorted(candidates, key=lambda c: c[0].photon)]


def single_spin(net, atom, symbol):
    """``net`` with ``atom`` emitted in its spin ``symbol`` alone, ground level."""
    elements = []
    for e in net.elements:
        if isinstance(e, Emitter) and e.state.space[0].id == atom:
            e = Emitter(e.id, e.rank, t.unit(e.state.space, (symbol, e.state.space[1].basis[0])))
        elements.append(e)
    return dataclasses.replace(net, name=f"{net.name}-{atom}-{symbol}", elements=tuple(elements))


def absorbing_everything():
    """A photon on ``s`` meets a box whose atom always blocks it: the final wave has no mass."""
    photon = SubsystemSpec("photon", "photon-path", ("s", "box"))
    spin, level = SubsystemSpec("atom", "atom-spin", ("+", "-")), SubsystemSpec("atom-level", "atom-level", ("0", "1"))
    return Network(
        "absorbing-everything",
        (photon, spin, level),
        (
            Emitter("L", 0, t.unit((photon,), ("s",))),
            Emitter("atom-source", 0, t.unit((spin, level), ("+", "0"))),
            AtomBox("box", 1, "atom", "+", "s", "atom-level"),
            Detector("D", 2, "s"),
        ),
    )


@pytest.mark.simd
def test_hierarchical_weights_match_the_per_candidate_loop_bit_for_bit():
    qle = t.qle_network()
    never, dark = single_spin(qle, "atom1", "-"), absorbing_everything()  # box A blocks "+": it never absorbs
    nets = [qle, t.hardy_network(), t.ev_bomb_network(True), t.ev_bomb_network(False), t.two_laser_variant(qle)]
    nets += [never, dark, *(cascade(k, 3) for k in range(1, 10))]
    rng = np.random.default_rng(4142)
    nets += [random_network(rng, index) for index in range(60)]
    assert stage_lists(never, t.z_context(never))[0][0][0] == 0.0
    assert engine._hierarchy_stages(dark, t.z_context(dark)).masses[-1] == 0.0
    for net in nets:
        two_level = all(len(a.basis) == 2 for a in net.atoms())
        contexts = [t.z_context(net)]
        contexts += [t.y_context(net), bloch(net, 0.7, 1.3), bloch(net, 2.2, -0.4)] if two_level else []
        for ctx in contexts:
            hier = t.hierarchical_distribution(net, ctx).candidates
            assert [(c.outcome, c.weight.hex(), c.amplitude) for c in hier] == loop_hierarchical(net, ctx), net.name
            flat = t.enumerate_transactions(net, ctx)
            assert t.enumerate_transactions(net, ctx).candidates is flat.candidates


def test_a_table_whose_weights_do_not_total_one_is_refused(monkeypatch):
    net = t.qle_network()
    wave = net._offer_wave
    louder = PropagationTrace(
        scale(1.01, wave.continuing), tuple((b, scale(1.01, k)) for b, k in wave.absorbed), wave.box_fractions
    )
    monkeypatch.setitem(net.__dict__, "_offer_wave", louder)
    for call in (
        lambda ctx: t.enumerate_transactions(net, ctx),
        lambda ctx: t.hierarchical_distribution(net, ctx),
        lambda ctx: t.resolve_hierarchical(net, ctx, 1, 0),
        lambda ctx: t.sample_hierarchical(net, ctx, 10, 1),
    ):
        for ctx in (t.z_context(net), t.y_context(net)):
            with pytest.raises(ContractError, match=r"network 'qle'.* drifts from 1 by 0\.020"):
                call(ctx)
    assert net._stage_tables == {}


# -- one draw loop under every resolver and sampler ------------------------------------


def test_samplers_count_what_the_resolvers_resolve_trial_by_trial():
    qle = t.qle_network()
    nets = [qle, t.hardy_network(), t.ev_bomb_network(True), t.ev_bomb_network(False), t.two_laser_variant(qle)]
    nets += [absorbing_everything(), single_spin(qle, "atom1", "-")]  # survivors of no mass; a box that never absorbs
    rng = np.random.default_rng(5772)
    nets += [random_network(rng, index) for index in range(10)]
    seed, start, n = 2**64 - 5, 2**40 + 1, 3_000
    for net in nets:
        two_level = all(len(a.basis) == 2 for a in net.atoms())
        for ctx in (t.z_context(net), t.y_context(net)) if two_level else (t.z_context(net),):
            dist = t.enumerate_transactions(net, ctx)
            index_of = {c.outcome: i for i, c in enumerate(dist.candidates)}

            def counts(outcomes):
                return np.bincount([index_of[o] for o in outcomes], minlength=len(index_of)).tolist()

            hier = [t.resolve_hierarchical(net, ctx, seed, k) for k in range(n)]
            assert list(t.sample_hierarchical(net, ctx, n, seed).counts) == counts(hier), net.name
            flat = [t.resolve_flat(dist, seed, start + k) for k in range(n)]
            assert t.sample_flat(dist, n, seed, start).tolist() == counts(flat), net.name


def test_a_stage_that_fires_without_mass_is_refused(monkeypatch):
    net = t.qle_network()
    ctx = t.z_context(net)
    table = engine._hierarchy_stages(net, ctx)
    born = table.born.copy()
    born[table.where[0]] = 0.0  # box A can still fire, but its candidates weigh nothing
    monkeypatch.setitem(net._stage_tables, engine._atom_bases(net, ctx), table._replace(born=born))
    fires = next(trial for trial in range(100) if uniform(1, 1, trial) < table.fractions[0])
    empty = t.OutcomeDistribution(table.flat.outcomes, (0.0,) * len(table.flat.outcomes), table.flat.amplitudes, "test")
    for call in (
        lambda: t.resolve_hierarchical(net, ctx, 1, fires),
        lambda: t.sample_hierarchical(net, ctx, 100, 1),
        lambda: t.resolve_flat(empty, 1, 0),
        lambda: t.sample_flat(empty, 100, 1),
    ):
        with pytest.raises(ContractError, match="cannot sample from an empty distribution"):
            call()
