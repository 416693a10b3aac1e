"""The stage table each network keeps, and the draw loop that reads it."""

import sys
import threading

import numpy as np

import tisim as t
from tisim import engine
from tisim import network as network_module
from tisim.engine import AtomBasis, ChshSettings, MeasurementContext
from tisim.rng import uniform
from netgen import random_network
from test_engine import hardy_with_second_box

TRIALS = (*range(200), 2**40 + 3)


def bloch(net, theta, phi):
    return MeasurementContext({a.id: AtomBasis.bloch(theta, phi) for a in net.atoms()})


def reference_resolver(net, ctx, seed):
    """Resolve trials without the engine's draw loop: boxes in rank order, each
    drawing ``uniform(seed, 1 + k, trial)`` and firing when it is below the
    box's absorption probability; survivors draw on lane 0."""
    flat = t.enumerate_transactions(net, ctx).candidates
    trace = t.forward_propagate(net)
    detectors = {d.id for d in net.detectors()}
    stages = [
        (p_here, [c for c in flat if c.outcome.photon == box_id])
        for (box_id, _), p_here in zip(trace.absorbed, trace.box_fractions)
    ]
    final = [c for c in flat if c.outcome.photon in detectors]

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


def counting_builds(monkeypatch, net):
    """The keys of every stage table ``net`` builds, in build order."""
    builds = []
    real = engine._stage_candidates

    def count(network, context, box, ket):
        if network is net and box is None:  # one final stage per table
            builds.append(key(network, context))
        return real(network, context, box, ket)

    monkeypatch.setattr(engine, "_stage_candidates", count)
    return builds


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
