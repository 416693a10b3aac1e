import dataclasses
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, Philox

import tisim as t
from tisim.engine import (
    CHUNK,
    COMPARE_MAX,
    AtomBasis,
    ChshSettings,
    MeasurementContext,
    Outcome,
    OutcomeDistribution,
    TransactionCandidate,
    _count,
)
from tisim.errors import ContractError, UsageError, ValidationError
from tisim.rng import _generator, uniform, uniforms
from netgen import qle_with_spin_symbols, random_network

RT2 = math.sqrt(2.0)


def table(dist):
    return {c.outcome.label: c.weight for c in dist.candidates}


def atom_table(dist):
    return {tuple(sym for _, sym in c.outcome.atoms): c.weight for c in dist.candidates}


# -- flat enumeration ----------------------------------------------------------


def test_single_atom_z_table(hardy):
    dist = t.enumerate_transactions(hardy, t.z_context(hardy))
    got = table(dist)
    assert got == pytest.approx(
        {"D|+": 0.125, "C|+": 0.125, "C|-": 0.5, "box-v|+*": 0.25}, abs=1e-12
    )
    assert abs(dist.total_weight() - 1.0) < 1e-12


def test_two_atom_z_table(qle):
    dist = t.enumerate_transactions(qle, t.z_context(qle))
    marginal = dist.photon_marginal()
    assert abs(marginal["D"] - 0.125) < 1e-12
    assert abs(marginal["C"] - 0.375) < 1e-12
    assert abs(dist.absorbed_probability() - 0.5) < 1e-12
    got = table(dist)
    assert abs(got["D|+;+"] - 1.0 / 16.0) < 1e-12
    assert abs(got["D|-;-"] - 1.0 / 16.0) < 1e-12
    assert "D|+;-" not in got and "D|-;+" not in got  # mixed terms cancel exactly


def y_oracle_probabilities():
    """Independent 4x4 basis-change oracle for the dark-port-selected pair."""
    y = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / RT2
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / RT2
    rotated = np.kron(y, y).conj() @ psi
    return np.abs(rotated) ** 2  # order: ++, +-, -+, --


def test_two_atom_y_table_after_dark_port_selection(qle):
    oracle = y_oracle_probabilities()
    assert oracle == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-15)
    dist = t.enumerate_transactions(qle, t.y_context(qle))
    conditional, _ = t.post_select(dist, "D")
    got = atom_table(conditional)
    assert got.get(("y+", "y-"), 0.0) == pytest.approx(0.5, abs=1e-12)
    assert got.get(("y-", "y+"), 0.0) == pytest.approx(0.5, abs=1e-12)
    assert got.get(("y+", "y+"), 0.0) == pytest.approx(0.0, abs=1e-12)
    assert got.get(("y-", "y-"), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_completeness_across_contexts(hardy, qle, bomb_present):
    contexts = [
        lambda n: t.z_context(n),
        lambda n: t.y_context(n) if n.atoms() and len(n.atoms()[0].basis) == 2 else t.z_context(n),
        lambda n: MeasurementContext(
            {a.id: AtomBasis.bloch(1.1, 0.7) for a in n.atoms() if len(a.basis) == 2}
        ),
    ]
    for net in (hardy, qle, bomb_present):
        for make in contexts:
            dist = t.enumerate_transactions(net, make(net))
            assert abs(dist.total_weight() - 1.0) < 1e-12


# -- echo weights -----------------------------------------------------------------


def test_echo_weight_dark_port(hardy):
    ctx = t.z_context(hardy)
    outcome = Outcome(photon="D", atoms=(("atom1", "+"),))
    assert abs(t.echo_weight(hardy, outcome, ctx) - 0.125) < 1e-12


def test_echo_weight_zero_amplitude_outcome(hardy):
    ctx = t.z_context(hardy)
    outcome = Outcome(photon="D", atoms=(("atom1", "-"),))
    assert t.echo_weight(hardy, outcome, ctx) < 1e-12


def test_echo_weight_matched_pair(qle):
    ctx = t.z_context(qle)
    outcome = Outcome(photon="D", atoms=(("atom1", "+"), ("atom2", "+")))
    assert abs(t.echo_weight(qle, outcome, ctx) - 1.0 / 16.0) < 1e-12


def test_born_echo_equivalence_everywhere(hardy, qle, bomb_present):
    networks = [hardy, qle, bomb_present, t.two_laser_variant(qle)]
    for net in networks:
        contexts = [t.z_context(net)]
        if net.atoms() and all(len(a.basis) == 2 for a in net.atoms()):
            contexts.append(t.y_context(net))
            contexts.append(
                MeasurementContext({a.id: AtomBasis.bloch(0.9, 2.1) for a in net.atoms()})
            )
        for ctx in contexts:
            dist = t.enumerate_transactions(net, ctx)
            for c in dist.candidates:
                assert abs(t.echo_weight(net, c.outcome, ctx) - c.weight) < 1e-12


# -- flat resolution -----------------------------------------------------------------


def test_resolve_flat_certain_outcome(bomb_absent):
    dist = t.enumerate_transactions(bomb_absent, MeasurementContext())
    assert len(dist.candidates) == 1
    for trial in range(25):
        assert t.resolve_flat(dist, seed=9, trial=trial).photon == "C"


def test_resolve_flat_binomial_tolerance(hardy):
    dist = t.enumerate_transactions(hardy, t.z_context(hardy))
    trials, seed = 1_000_000, 42
    counts = t.sample_flat(dist, trials, seed)
    d_hat = sum(
        int(n) for c, n in zip(dist.candidates, counts) if c.outcome.photon == "D"
    ) / trials
    p = 0.125
    assert abs(d_hat - p) < 4.0 * math.sqrt(p * (1 - p) / trials)


def test_resolve_flat_is_deterministic(hardy):
    dist = t.enumerate_transactions(hardy, t.z_context(hardy))
    first = [t.resolve_flat(dist, seed=5, trial=i) for i in range(100)]
    second = [t.resolve_flat(dist, seed=5, trial=i) for i in range(100)]
    assert first == second
    assert len({o.label for o in first}) > 1  # actually random across trials


def test_sample_flat_chunking_is_invariant(qle):
    dist = t.enumerate_transactions(qle, t.z_context(qle))
    whole = t.sample_flat(dist, 10_000, seed=3)
    parts = (
        t.sample_flat(dist, 3_333, seed=3, start=0)
        + t.sample_flat(dist, 3_333, seed=3, start=3_333)
        + t.sample_flat(dist, 3_334, seed=3, start=6_666)
    )
    assert np.array_equal(whole, parts)


def test_sample_flat_memory_does_not_grow_with_trials(monkeypatch, qle):
    import tracemalloc

    import tisim.engine as engine

    dist = t.enumerate_transactions(qle, t.z_context(qle))
    calls = []

    class CutOff(Exception):
        pass

    def first_chunk_only(seed, lane, lo, n):
        calls.append((lo, n))
        if len(calls) > 1:
            raise CutOff
        return np.full(8, 0.5)  # stands in for the chunk's CHUNK uniforms, which are not what is measured

    monkeypatch.setattr(engine.rng, "uniforms", first_chunk_only)
    for workers in (1, 2):
        calls.clear()
        tracemalloc.start()
        try:
            with pytest.raises(CutOff):
                t.sample_flat(dist, 10**12, seed=3, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls[0] in ((0, CHUNK), (CHUNK, CHUNK))
        assert peak < 2**20, f"{workers} worker(s): peak {peak} B before the second chunk"


def test_sampling_works_in_cache_sized_blocks(qle):
    import tracemalloc

    z = t.z_context(qle)
    dist = t.enumerate_transactions(qle, z)  # builds the stage table before the trace starts
    runs = {
        "sample_hierarchical 10^6": lambda: t.sample_hierarchical(qle, z, 10**6, seed=3),
        "sample_flat 10^7, 2 workers": lambda: t.sample_flat(dist, 10**7, seed=3, workers=2),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"{name}: peak {peak / 2**20:.2f} MiB"


def reference_counts(candidates, u):
    """One-shot inverse-CDF counts over all of ``u``: the mapping every sampler keeps."""
    cum = np.cumsum([c.weight for c in candidates])
    picks = np.searchsorted(cum / cum[-1], u, side="right")
    return np.bincount(picks, minlength=len(candidates))


def stage_lists(net, ctx):
    """The hierarchy's stages, rebuilt without the stage table's own membership:
    per box in rank order, its absorption probability from ``forward_propagate``
    and the flat candidates whose photon is the box; then the detectors' candidates."""
    flat = t.enumerate_transactions(net, ctx).candidates
    trace = t.forward_propagate(net)
    detectors = {d.id for d in net.detectors()}
    stages = [
        (p_here, [c for c in flat if c.outcome.photon == box_id])
        for (box_id, _), p_here in zip(trace.absorbed, trace.box_fractions)
    ]
    return stages, [c for c in flat if c.outcome.photon in detectors]


def weighted_candidates(weights):
    return tuple(
        TransactionCandidate(Outcome(f"o{i}"), float(w), 0j) for i, w in enumerate(weights)
    )


def test_streamed_counts_equal_one_shot_reference():
    draw = np.random.default_rng(5)
    lists = []
    for k in (2, 9, COMPARE_MAX, COMPARE_MAX + 1, 300):
        weights = draw.random(k)
        weights[draw.choice(k, size=k // 3, replace=False)] = 0.0  # zero-weight candidates
        weights[-1] = 0.0
        weights[0] = 0.25
        lists.append(weighted_candidates(weights))
    seed, start, trials = 2**64 - 3, 4 * CHUNK + 6, 2 * CHUNK + 1_001  # three chunks, start % 4 == 2
    u = uniforms(seed, 0, start, trials)
    for cands in lists:
        dist = OutcomeDistribution(*zip(*cands), provenance="test")
        assert np.array_equal(t.sample_flat(dist, trials, seed, start), reference_counts(cands, u))
        # uniforms exactly on, just below and just above every cut point resolve as searchsorted does
        cum = np.cumsum([c.weight for c in cands])
        cut = cum / cum[-1]
        edges = np.concatenate([cut, np.nextafter(cut, 0.0), np.nextafter(cut, 1.0), [0.0]])
        edges = edges[edges < 1.0]
        assert np.array_equal(_count(cut, edges), reference_counts(cands, edges))


def test_sample_hierarchical_streams_in_chunks(qle):
    trials, seed = 2 * CHUNK + 7, 41
    for ctx in (t.z_context(qle), t.y_context(qle)):
        stages, final = stage_lists(qle, ctx)
        flat = t.enumerate_transactions(qle, ctx)
        index_of = {c.outcome: i for i, c in enumerate(flat.candidates)}
        expected = np.zeros(len(flat.candidates), dtype=np.int64)

        def add(cands, u):
            np.add.at(expected, [index_of[c.outcome] for c in cands], reference_counts(cands, u))

        alive = np.arange(trials)
        for k, (p_here, inner) in enumerate(stages):
            u = uniforms(seed, 1 + k, 0, trials)[alive]
            fired = u < p_here
            add(inner, u[fired] / p_here)
            alive = alive[~fired]
        add(final, uniforms(seed, 0, 0, trials)[alive])
        assert t.sample_hierarchical(qle, ctx, trials, seed).counts == tuple(expected.tolist())


@pytest.mark.simd
def test_counts_do_not_depend_on_the_block_size(monkeypatch, qle):
    import tisim.engine as engine

    monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)  # so three threads run on any machine
    ctx, seed = t.y_context(qle), 2**64 - 5
    settings = ChshSettings(
        a=(0.0, 0.0), a_prime=(math.pi / 2, 0.0), b=(math.pi / 4, 0.0), b_prime=(3 * math.pi / 4, 0.0)
    )
    dist, hierarchy = t.enumerate_transactions(qle, ctx), engine._hierarchy_stages(qle, ctx)
    trials, start = 2**20 + 2**16 + 7, 4 * 2**20 + 3  # more than one block at every size; start % 4 == 3

    def counts(workers):
        return (
            t.sample_flat(dist, trials, seed, start, workers).tolist(),
            engine._tally(hierarchy, seed, engine.LANE_OUTCOME, start, trials, workers).tolist(),
            t.chsh_monte_carlo(qle, settings, trials, seed, workers=workers).counts,
            t.sample_hierarchical(qle, ctx, trials, seed).counts,
        )

    monkeypatch.setattr(engine, "CHUNK", 2**21)  # every trial in one block
    whole = counts(1)
    for chunk in (2**12, 2**16 + 4, 2**20):
        monkeypatch.setattr(engine, "CHUNK", chunk)
        for workers in (1, 3):
            assert counts(workers) == whole, f"CHUNK {chunk}, {workers} worker(s)"


# -- hierarchical resolution ------------------------------------------------------------


def test_hierarchy_stage_probabilities(hardy):
    ctx = t.z_context(hardy)
    stages, final = stage_lists(hardy, ctx)
    assert len(stages) == 1
    p_absorb, _ = stages[0]
    assert abs(p_absorb - 0.25) < 1e-12
    # conditional dark-port probability after surviving the box: (1/8)/(3/4)
    total = sum(c.weight for c in final)
    d_weight = sum(c.weight for c in final if c.outcome.photon == "D")
    assert abs(d_weight / total - Fraction(1, 6)) < 1e-12
    # chain rule recovers the net 1/8
    assert abs((1 - p_absorb) * d_weight / total - 0.125) < 1e-12


def test_hierarchical_equals_flat_exactly(hardy, qle, bomb_present, bomb_absent):
    nets = [hardy, qle, bomb_present, bomb_absent, t.two_laser_variant(qle)]
    rng = np.random.default_rng(2718)
    nets += [random_network(rng, index) for index in range(30)]
    for net in nets:
        for ctx in (t.z_context(net), t.y_context(net) if all(
            len(a.basis) == 2 for a in net.atoms()
        ) else t.z_context(net)):
            flat = t.enumerate_transactions(net, ctx)
            hier = t.hierarchical_distribution(net, ctx)
            assert [c.outcome for c in flat.candidates] == [c.outcome for c in hier.candidates]
            for a, b in zip(flat.candidates, hier.candidates):
                assert abs(a.weight - b.weight) < 1e-12


def test_resolve_hierarchical_refuses_invalid_network(qle):
    # S2 moved to rank 1: it now runs before the boxes and consumes u, v before S1 makes them
    bad = dataclasses.replace(
        qle,
        elements=tuple(
            dataclasses.replace(e, rank=1) if e.id == "S2" else e for e in qle.elements
        ),
    )
    assert [d.rule for d in t.validate(bad)].count("rank-order") == 4
    ctx = t.z_context(bad)
    for resolve in (
        lambda: t.resolve_hierarchical(bad, ctx, seed=1, trial=0),
        lambda: t.sample_hierarchical(bad, ctx, 100, seed=1),
        lambda: t.hierarchical_distribution(bad, ctx),
        lambda: t.enumerate_transactions(bad, ctx),
    ):
        with pytest.raises(ValidationError):
            resolve()


def test_each_network_is_validated_once(monkeypatch):
    import tisim.network as network_module

    calls = []
    real = network_module.validate
    monkeypatch.setattr(network_module, "validate", lambda net: calls.append(net) or real(net))
    net = t.qle_network()
    for ctx in (t.z_context(net), t.y_context(net)):
        dist = t.enumerate_transactions(net, ctx)
        for c in dist.candidates:
            t.echo_weight(net, c.outcome, ctx)
        t.hierarchical_distribution(net, ctx)
        for trial in range(5):
            t.resolve_hierarchical(net, ctx, seed=3, trial=trial)
        t.sample_hierarchical(net, ctx, 100, seed=3)
    assert len(calls) == 1
    # the public call still validates afresh and hands back a list the caller owns
    fresh = t.validate(net)
    fresh.append("scribble")
    assert t.validate(net) == []


def test_hierarchical_matches_flat_without_absorbers(bomb_absent):
    ctx = MeasurementContext()
    dist = t.enumerate_transactions(bomb_absent, ctx)
    for trial in range(200):
        assert t.resolve_hierarchical(bomb_absent, ctx, seed=17, trial=trial) == t.resolve_flat(
            dist, seed=17, trial=trial
        )


def test_hierarchical_sampling_agrees_with_flat_weights(qle):
    ctx = t.z_context(qle)
    trials, seed = 1_000_000, 23
    sampled = t.sample_hierarchical(qle, ctx, trials, seed)
    flat = t.enumerate_transactions(qle, ctx)
    assert sum(sampled.counts) == trials
    for c, n in zip(flat.candidates, sampled.counts):
        p = c.weight
        assert abs(n / trials - p) < 4.0 * math.sqrt(p * (1 - p) / trials)


def test_resolve_hierarchical_is_deterministic(qle):
    ctx = t.z_context(qle)
    a = [t.resolve_hierarchical(qle, ctx, seed=1, trial=i) for i in range(60)]
    b = [t.resolve_hierarchical(qle, ctx, seed=1, trial=i) for i in range(60)]
    assert a == b


# -- post-selection -----------------------------------------------------------------------


def test_post_select_dark_port_entangles_the_pair(qle):
    dist = t.enumerate_transactions(qle, t.z_context(qle))
    conditional, pair = t.post_select(dist, "D")
    assert abs(conditional.total_weight() - 1.0) < 1e-12
    assert pair is not None and len(pair) == 2
    assert abs(pair.amplitude(("+", "+")) - 1 / RT2) < 1e-12
    assert abs(pair.amplitude(("-", "-")) - 1 / RT2) < 1e-12


def test_post_select_everything_is_identity(qle):
    dist = t.enumerate_transactions(qle, t.z_context(qle))
    conditional, ket = t.post_select(dist, lambda photon: True)
    assert table(conditional) == pytest.approx(table(dist), abs=1e-15)
    assert ket is None  # spans several photon outcomes


def test_post_select_bright_port_table(qle):
    dist = t.enumerate_transactions(qle, t.z_context(qle))
    conditional, _ = t.post_select(dist, "C")
    got = atom_table(conditional)
    expected = {
        ("+", "+"): float(Fraction(1, 6)),
        ("-", "-"): float(Fraction(1, 6)),
        ("-", "+"): float(Fraction(4, 6)),
    }
    assert got == pytest.approx(expected, abs=1e-12)


def test_post_select_impossible_outcome_raises(qle):
    dist = t.enumerate_transactions(qle, t.z_context(qle))
    with pytest.raises(ContractError):
        t.post_select(dist, "nonexistent-port")


# -- CHSH -------------------------------------------------------------------------------------


def test_chsh_aligned_settings_give_classical_two(qle):
    z = (0.0, 0.0)
    result = t.chsh(qle, ChshSettings(a=z, a_prime=z, b=z, b_prime=z))
    for e in result.correlations.values():
        assert abs(e - 1.0) < 1e-12
    assert abs(result.s - 2.0) < 1e-12


def test_chsh_textbook_settings(qle):
    settings = ChshSettings(
        a=(0.0, 0.0),
        a_prime=(math.pi / 2, 0.0),
        b=(math.pi / 4, 0.0),
        b_prime=(3 * math.pi / 4, 0.0),
    )
    result = t.chsh(qle, settings)
    assert abs(result.s - 2.0 * RT2) < 1e-12


def test_chsh_grid_search_recovers_tsirelson(qle):
    settings, s_grid = t.chsh_optimal_settings(qle, resolution_deg=1.0)
    assert abs(s_grid - 2.0 * RT2) < 0.01
    assert abs(t.chsh(qle, settings).s - s_grid) < 1e-9


def test_chsh_product_state_stays_classical():
    """A separable pair correlates as E(a)E(b), so S never beats 2."""
    thetas = np.deg2rad(np.arange(0.0, 360.0, 1.0))
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    ops = np.cos(thetas)[:, None, None] * sz + np.sin(thetas)[:, None, None] * sx
    psi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = 1.0  # |++>, unentangled
    corr = np.einsum("ab,iac,jbd,cd->ij", psi.conj(), ops, ops, psi).real
    a, ap, b, bp = 0, 90, 45, 135
    s = abs(corr[a, b] - corr[a, bp] + corr[ap, b] + corr[ap, bp])
    assert s <= 2.0 + 1e-9
    best = 0.0
    for jp in range(0, 360, 15):
        t1 = corr - corr[:, [jp]]
        t2 = corr + corr[:, [jp]]
        best = max(best, float((t1.max(axis=0) + t2.max(axis=0)).max()))
    assert best <= 2.0 + 1e-9


def test_chsh_tsirelson_bound_for_random_settings(qle):
    rng = np.random.default_rng(55)
    for _ in range(25):
        angles = rng.uniform(0.0, 2 * math.pi, size=8)
        settings = ChshSettings(
            a=(angles[0], angles[1]),
            a_prime=(angles[2], angles[3]),
            b=(angles[4], angles[5]),
            b_prime=(angles[6], angles[7]),
        )
        assert t.chsh(qle, settings).s <= 2.0 * RT2 + 1e-9


def test_chsh_monte_carlo_estimate(qle):
    settings = ChshSettings(
        a=(0.0, 0.0),
        a_prime=(math.pi / 2, 0.0),
        b=(math.pi / 4, 0.0),
        b_prime=(3 * math.pi / 4, 0.0),
    )
    result = t.chsh_monte_carlo(qle, settings, pairs=1_000_000, seed=12)
    assert abs(result.s - 2.0 * RT2) < 0.02
    assert sum(sum(v) for v in result.counts.values()) == 1_000_000


def test_chsh_counts_are_exact_past_float_precision(monkeypatch, qle):
    """Same and different are counted as integers: a split of 2**62 pairs that a float
    sum would round to (2**61, 2**61) is read exactly."""
    import tisim.engine as engine

    settings = ChshSettings(
        a=(0.0, 0.0), a_prime=(math.pi / 2, 0.0), b=(math.pi / 4, 0.0), b_prime=(3 * math.pi / 4, 0.0)
    )
    labels = [o.label for o in t.chsh(qle, settings).distributions["ab"].outcomes]

    def tally(table, seed, lane, start, trials, workers=1):
        counts = np.zeros(table.born.size, dtype=np.int64)
        if lane == 100:  # ab
            counts[labels.index("D|n+;n+")], counts[labels.index("D|n+;n-")] = 2**61 + 1, 2**61 - 1
        else:
            counts[0] = trials
        return counts

    monkeypatch.setattr(engine, "_tally", tally)
    result = t.chsh_monte_carlo(qle, settings, pairs=4 * 2**62, seed=12)
    assert result.counts["ab"] == (2**61 + 1, 2**61 - 1)
    assert result.correlations["ab"] == 2 / 2**62


def test_chsh_requires_two_atoms(hardy):
    z = (0.0, 0.0)
    with pytest.raises(ContractError):
        t.chsh(hardy, ChshSettings(a=z, a_prime=z, b=z, b_prime=z))


# -- contextuality over deterministic assignments -------------------------------------------


def test_eight_assignments_and_no_joint_reproduction(qle):
    verdicts = t.contextuality_verdicts(qle)
    assert len(verdicts) == 8
    assert all(not (v.matches_z and v.matches_y) for v in verdicts)
    assert all(not (v.compatible_z and v.compatible_y) for v in verdicts)
    assert t.no_assignment_reproduces_both(qle)


def test_some_assignments_are_z_compatible(qle):
    # the search is not vacuous: single-occupancy assignments land in the z support
    verdicts = t.contextuality_verdicts(qle)
    assert any(v.compatible_z for v in verdicts)
    assert all(not v.compatible_y for v in verdicts)


# -- deterministic streams --------------------------------------------------------------------


def test_stream_slices_are_chunk_invariant():
    whole = uniforms(99, 2, 0, 501)
    parts = np.concatenate(
        [uniforms(99, 2, 0, 100), uniforms(99, 2, 100, 7), uniforms(99, 2, 107, 394)]
    )
    assert np.array_equal(whole, parts)
    assert uniform(99, 2, 500) == whole[500]


def test_streams_differ_by_seed_and_lane():
    base = uniforms(1, 0, 0, 64)
    assert not np.array_equal(base, uniforms(2, 0, 0, 64))
    assert not np.array_equal(base, uniforms(1, 1, 0, 64))


def test_empty_stream_slices_are_empty_at_both_ends_of_the_stream():
    # at 2**66 the general path would start the block counter at 2**64, past its one 64-bit word
    for start in (0, 2**66):
        empty = uniforms(1, 0, start, 0)
        assert empty.dtype == np.float64 and empty.shape == (0,)
    with pytest.raises(OverflowError):
        _generator(1, 0, 2**64)


def fresh_stream(seed: int, lane: int, start: int, count: int) -> np.ndarray:
    """``uniforms(seed, lane, start, count)`` from a Philox built for the call."""
    block, offset = divmod(start, 4)
    counter = np.array([block, 0, 0, 0], dtype=np.uint64)
    key = np.array([seed, lane], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key)).random(offset + count)[offset:]


def test_rekeyed_generator_matches_a_fresh_philox():
    for lane in (0, 1, 100):
        for seed in (0, 2**64 - 1):
            for start in (0, 1, 3, 4, 5, 2**64, 2**66 - 1):
                count = min(9, 2**66 - start)
                assert uniforms(seed, lane, start, count).tobytes() == fresh_stream(seed, lane, start, count).tobytes()

    # each thread keys its own generator: a key set by the other thread between this one's
    # keying and drawing leaves its stream as it was
    barrier, drawn = threading.Barrier(2, timeout=10), {}

    def draw(lane: int) -> None:
        parts = []
        for block in range(8):
            generator = _generator(7, lane, block)
            barrier.wait()  # the other thread keys its generator here
            parts.append(generator.random(4))
            barrier.wait()
            parts.append(uniforms(7, lane, 4 * block + 4, 3))
        drawn[lane] = parts

    threads = [threading.Thread(target=draw, args=(lane,)) for lane in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert sorted(drawn) == [0, 1]  # neither thread raised
    for lane in (0, 1):
        expected = [fresh_stream(7, lane, 4 * block + k, n) for block in range(8) for k, n in ((0, 4), (4, 3))]
        assert [p.tobytes() for p in drawn[lane]] == [e.tobytes() for e in expected]

    with pytest.raises(OverflowError):
        _generator(1, 0, 2**64)
    assert uniforms(1, 0, 5, 6).tobytes() == fresh_stream(1, 0, 5, 6).tobytes()  # the refused key left nothing behind


def hardy_with_second_box():
    """hardy with a second box on atom1 (blocking -, on arm u) sharing its level."""
    hardy = t.hardy_network()
    photon = t.SubsystemSpec("photon", "photon-path", hardy.photon.basis + ("box-u",))
    elements = tuple(
        t.Emitter("L", 0, t.unit((photon,), ("s",))) if e.id == "L" else e for e in hardy.elements
    )
    elements += (t.AtomBox("box-u", 2, "atom1", "-", "u", "atom1-level"),)
    return dataclasses.replace(hardy, subsystems=(photon, *hardy.subsystems[1:]), elements=elements)


def test_born_echo_and_hierarchy_agree_on_random_networks_in_every_basis():
    rng = np.random.default_rng(4711)
    nets = [random_network(rng, index) for index in range(40)] + [hardy_with_second_box()]
    # the sample covers splitter merges and atoms with two boxes
    assert any(len(e.inputs) == 2 for net in nets for e in net.elements if isinstance(e, t.BeamSplitter))
    assert any(len({b.atom for b in net.boxes()}) < len(net.boxes()) for net in nets)
    for net in nets:
        bloch = MeasurementContext({a.id: AtomBasis.bloch(0.7, 1.3) for a in net.atoms()})
        for ctx in (t.z_context(net), t.y_context(net), bloch):
            flat = t.enumerate_transactions(net, ctx)
            hier = t.hierarchical_distribution(net, ctx)
            assert abs(flat.total_weight() - 1.0) < 1e-12
            assert [c.outcome for c in flat.candidates] == [c.outcome for c in hier.candidates]
            for a, b in zip(flat.candidates, hier.candidates):
                assert abs(a.weight - b.weight) < 1e-12
                assert abs(a.weight - t.echo_weight(net, a.outcome, ctx)) < 1e-12


def test_sample_hierarchical_needs_a_positive_trial_count(qle):
    for trials in (-5, 0):
        with pytest.raises(UsageError, match="trials must be >= 1"):
            t.sample_hierarchical(qle, t.z_context(qle), trials, seed=1)


def reference_candidates(state, network, excited_box=None):
    """The per-term loop of the dict representation: terms in label order,
    then a stable sort on the photon name and the atom symbols."""
    photon_i = [s.id for s in state.space].index(network.photon.id)
    atom_is = [[s.id for s in state.space].index(a.id) for a in network.atoms()]
    terminals = network.terminal_symbols()
    out = []
    for label, amp in state.items():
        atoms = tuple((state.space[i].id, label[i]) for i in atom_is)
        outcome = Outcome(terminals.get(label[photon_i], label[photon_i]), atoms, excited_box and excited_box.atom)
        out.append(TransactionCandidate(outcome, abs(amp) ** 2, amp))
    return sorted(out, key=lambda c: (c.outcome.photon, tuple(sym for _, sym in c.outcome.atoms)))


@pytest.mark.simd
def test_candidates_match_the_per_term_reference_on_large_states():
    """The whole table against a per-stage reference: each stage's ket rebased
    atom by atom with ``amplitudes.rebase`` (skipping the atom its box leaves
    excited), read term by term, and the stages merged by a stable sort on the
    photon name."""
    import sys
    from pathlib import Path

    from tisim.amplitudes import rebase

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from cascade import cascade

    # cascade(7) has 1,024 continuing terms; the renamed spins' z symbols are out of string order ("up" > "down")
    rng = np.random.default_rng(2718)
    nets = [cascade(7, 0), t.qle_network(), hardy_with_second_box()] + [random_network(rng, i) for i in range(10)]
    nets += [qle_with_spin_symbols("up", "down"), qle_with_spin_symbols("b", "a")]
    for net in nets:
        assert t.validate(net) == []
        trace = t.forward_propagate(net)
        kets = [(None, trace.continuing)] + [(net.element(b), k) for b, k in trace.absorbed]
        bloch = MeasurementContext({a.id: AtomBasis.bloch(0.7, 1.3) for a in net.atoms()})
        for ctx in (t.z_context(net), t.y_context(net), bloch):
            want = []
            for box, ket in kets:
                for atom in net.atoms():
                    basis = ctx.basis_for(atom.id)
                    if basis.matrix() is not None and (box is None or box.atom != atom.id):
                        ket = rebase(ket, atom.id, basis.matrix(), basis.symbols(atom))
                want += reference_candidates(ket, net, box)
            want.sort(key=lambda c: c.outcome.photon)
            got = t.enumerate_transactions(net, ctx).candidates
            assert [(c.outcome, repr(c.weight), repr(c.amplitude)) for c in got] == [
                (c.outcome, repr(c.weight), repr(c.amplitude)) for c in want
            ], net.name
    assert len(t.forward_propagate(cascade(7, 0)).continuing) > 256


def test_library_calls_outside_their_contract_raise_one_named_error(hardy):
    with pytest.raises(ValidationError, match="unknown atom basis 'w'"):
        AtomBasis("w").matrix()
    for nan_basis in (AtomBasis.bloch(math.nan, 0.0), AtomBasis.bloch(0.5, math.inf)):
        with pytest.raises(ValidationError, match=r"atom basis angles \(.*\) are not finite"):
            t.enumerate_transactions(hardy, MeasurementContext({"atom1": nan_basis}))
    with pytest.raises(ContractError, match="CHSH grid search needs a two-atom post-selected state"):
        t.chsh_optimal_settings(hardy)
    for resolution in (0, -1, math.nan, 1e-9):  # at 1e-9 the grid would ask for terabytes
        with pytest.raises(ContractError, match="CHSH grid resolution must be a finite step of at least 0.5 degrees"):
            t.chsh_optimal_settings(t.qle_network(), resolution_deg=resolution)
    with pytest.raises(ContractError, match="contextuality check needs a two-box network"):
        t.contextuality_verdicts(hardy)
