"""The stage table each network keeps, and the draw loop that reads it."""

import sys
import threading

import numpy as np

import tisim as t
from tisim import network as network_module
from tisim.engine import AtomBasis, MeasurementContext
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
        for context in (t.z_context, t.y_context, lambda net: bloch(net, 0.7, 1.3), t.z_context):
            fresh = make()
            assert results(shared, context(shared)) == results(fresh, context(fresh))
            assert [net for net in walks if net is shared or net is fresh] == [shared, fresh]


def test_network_holds_one_stage_table():
    net = t.qle_network()
    for i in range(50):
        t.enumerate_transactions(net, bloch(net, 0.05 * i, 0.1 * i))
    assert len(net._stage_tables) == 1
    t.resolve_hierarchical(net, t.y_context(net), 1, 0)
    assert len(net._stage_tables) == 1


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
