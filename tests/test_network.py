import cmath
import dataclasses
import json
import math

import numpy as np
import pytest

import tisim as t
from tisim.amplitudes import SubsystemSpec, _apply_symbol_map, scale, unit
from tisim.errors import ContractError, ValidationError
from tisim.network import AtomBox, BeamSplitter, Detector, Emitter, Network, _ket_to_json, _parse_network, emitted_state
from netgen import (
    hardy_emitting_excited_levels,
    hardy_two_source_unequal_photon_spaces,
    qle_emitting_level_first,
    qle_emitting_undeclared_spin,
    qle_with_mirror,
    qle_with_three_outputs,
    random_network,
)

RT2 = math.sqrt(2.0)
R = 1.0 / (2.0 * RT2)


def strip_boxes(network):
    elements = tuple(e for e in network.elements if not isinstance(e, AtomBox))
    return dataclasses.replace(network, elements=elements)


# -- validation ----------------------------------------------------------------


def test_builtin_networks_validate_clean(hardy, qle, bomb_present, bomb_absent):
    for net in (hardy, qle, bomb_present, bomb_absent):
        assert t.validate(net) == []


def test_cycle_yields_one_acyclicity_diagnostic():
    photon = SubsystemSpec("photon", "photon-path", ("s", "a", "b", "x", "y"))
    net = Network(
        "loop",
        (photon,),
        (
            Emitter("L", 0, unit((photon,), ("s",))),
            BeamSplitter("S1", 1, ("s", "a"), ("b", "x")),
            BeamSplitter("S2", 2, ("b",), ("a", "y")),
            Detector("DX", 3, "x"),
            Detector("DY", 3, "y"),
        ),
    )
    diags = t.validate(net)
    cyclic = [d for d in diags if d.rule == "acyclic"]
    assert len(cyclic) == 1
    assert "cycle" in cyclic[0].message


def test_double_box_on_one_path_is_flagged(qle):
    # move the second box onto path v as well
    elements = []
    for e in qle.elements:
        if isinstance(e, AtomBox) and e.id == "B":
            e = dataclasses.replace(e, path="v")
        elements.append(e)
    bad = dataclasses.replace(qle, elements=tuple(elements))
    diags = t.validate(bad)
    assert any(d.rule == "consumed-twice" and "consumed twice" in d.message for d in diags)


def test_unconsumed_symbol_is_flagged(qle):
    # without detector D the dark-port symbol d is produced and never consumed
    open_port = dataclasses.replace(
        qle, elements=tuple(e for e in qle.elements if e.id != "D")
    )
    diags = t.validate(open_port)
    assert [(d.rule, d.element) for d in diags] == [("unconsumed-symbol", "S2")]
    assert "'d'" in diags[0].message
    with pytest.raises(ValidationError):
        t.enumerate_transactions(open_port, t.z_context(open_port))


def test_propagation_refuses_invalid_network(qle):
    bad = dataclasses.replace(
        qle,
        elements=tuple(
            dataclasses.replace(e, path="v") if isinstance(e, AtomBox) and e.id == "B" else e
            for e in qle.elements
        ),
    )
    with pytest.raises(ValidationError):
        t.forward_propagate(bad)


# -- forward propagation --------------------------------------------------------


def test_hardy_forward_amplitudes(hardy):
    trace = t.forward_propagate(hardy)
    got = trace.continuing
    assert len(got) == 3
    assert abs(got.amplitude(("d", "+", "0")) - (-R)) < 1e-12
    assert abs(got.amplitude(("c", "+", "0")) - 1j * R) < 1e-12
    assert abs(got.amplitude(("c", "-", "0")) - 1j / RT2) < 1e-12
    absorbed = trace.absorbed_ket("box-v")
    assert len(absorbed) == 1
    assert abs(absorbed.amplitude(("box-v", "+", "1")) - 0.5) < 1e-12


def brute_force_post_splitter_terms():
    """Oracle: expand (1/2sqrt2)[i|u>+|v>] x [i|+>+|->] x [i|+>+|->]."""
    photon = {"u": 1j, "v": 1.0}
    atom = {"+": 1j, "-": 1.0}
    out = {}
    for p, fp in photon.items():
        for s1, f1 in atom.items():
            for s2, f2 in atom.items():
                out[(p, s1, s2)] = fp * f1 * f2 / (2.0 * RT2)
    return out


def test_qle_forward_amplitudes_and_absorbed_masses(qle):
    trace = t.forward_propagate(qle)
    got = trace.continuing
    assert len(got) == 5
    expected = {
        ("d", "+", "0", "+", "0"): 0.25,
        ("d", "-", "0", "-", "0"): 0.25,
        ("c", "-", "0", "-", "0"): 0.25j,
        ("c", "+", "0", "+", "0"): -0.25j,
        ("c", "-", "0", "+", "0"): -0.5,
    }
    for label, amp in expected.items():
        assert abs(got.amplitude(label) - amp) < 1e-12

    # oracle: absorbed components are (v,+,.) at box A and (u,.,-) at box B
    oracle = brute_force_post_splitter_terms()
    absorbed_expected = {
        ("A", ("A", "+", "1", "+", "0")): oracle[("v", "+", "+")],
        ("A", ("A", "+", "1", "-", "0")): oracle[("v", "+", "-")],
        ("B", ("B", "+", "0", "-", "1")): oracle[("u", "+", "-")],
        ("B", ("B", "-", "0", "-", "1")): oracle[("u", "-", "-")],
    }
    for (box, label), amp in absorbed_expected.items():
        ket = trace.absorbed_ket(box)
        assert abs(ket.amplitude(label) - amp) < 1e-12
        assert abs(abs(amp) ** 2 - 0.125) < 1e-12  # each component carries 1/8
    assert abs(trace.absorbed_total() - 0.5) < 1e-12


def test_hardy_state_after_first_splitter(hardy):
    # joint state right after the first splitter: (1/2)[i|u> + |v>][|+> + |->]
    s1 = hardy.element("S1").forward_map()
    state = _apply_symbol_map(emitted_state(hardy), 0, s1)  # a valid network declares the photon first
    assert abs(state.amplitude(("u", "+", "0")) - 0.5j) < 1e-12
    assert abs(state.amplitude(("v", "+", "0")) - 0.5) < 1e-12
    assert abs(state.amplitude(("u", "-", "0")) - 0.5j) < 1e-12
    assert abs(state.amplitude(("v", "-", "0")) - 0.5) < 1e-12


def test_forward_conserves_mass_box_by_box(hardy, qle):
    nets = [hardy, qle] + [random_network(np.random.default_rng(900 + i), i) for i in range(30)]
    for net in nets:
        trace = t.forward_propagate(net)
        entering = 1.0
        for fraction, (_, taken) in zip(trace.box_fractions, trace.absorbed, strict=True):
            assert abs(t.norm_sq(taken) - fraction * entering) < 1e-12
            entering -= t.norm_sq(taken)
        assert abs(t.norm_sq(trace.continuing) + trace.absorbed_total() - 1.0) < 1e-12
        assert len(trace.absorbed) == len(net.boxes())


# -- backward propagation ---------------------------------------------------------


def test_echo_bookkeeping_product_is_one_eighth(hardy):
    conf = unit((hardy.photon,), ("d",), bra=True)
    spin = hardy.atoms()[0]
    report = t.backward_propagate(
        hardy,
        conf,
        {"atom1": unit((spin,), ("+",), bra=True)},
        ow_amplitudes={"L": 0.5, "atom1-source": 1.0 / RT2},
    )
    assert abs(report.emitter_amplitudes["L"] - 0.25) < 1e-12
    assert abs(report.emitter_amplitudes["atom1-source"] - 0.5) < 1e-12
    assert abs(report.product() - 0.125) < 1e-12
    # backward joint amplitude equals the forward coefficient
    assert abs(report.amplitude - (-R)) < 1e-12


def test_echo_zero_forward_amplitude_vanishes_at_emitter(hardy):
    conf = unit((hardy.photon,), ("d",), bra=True)
    spin = hardy.atoms()[0]
    report = t.backward_propagate(hardy, conf, {"atom1": unit((spin,), ("-",), bra=True)})
    assert abs(report.amplitude) < 1e-12
    assert abs(report.sector_amplitudes["L"]) < 1e-12
    assert report.product() < 1e-12


def test_echo_default_bookkeeping_squares_to_born_weight(qle):
    conf = unit((qle.photon,), ("d",), bra=True)
    bras = {
        "atom1": unit((qle.atoms()[0],), ("+",), bra=True),
        "atom2": unit((qle.atoms()[1],), ("+",), bra=True),
    }
    report = t.backward_propagate(qle, conf, bras)
    assert abs(report.product() - 1.0 / 16.0) < 1e-12
    assert abs(report.weight - 1.0 / 16.0) < 1e-12


def test_echo_anchored_at_box_marker(hardy):
    conf = unit((hardy.photon,), ("box-v",), bra=True)
    report = t.backward_propagate(hardy, conf)  # absorbing atom bra defaults to blocking
    assert abs(report.weight - 0.25) < 1e-12


def test_echo_rejects_non_terminal_anchor(hardy):
    with pytest.raises(ContractError):
        t.backward_propagate(hardy, unit((hardy.photon,), ("u",), bra=True))


# -- echo identity and unitarity across many networks -------------------------------


def outcome_bra_label(net, candidate):
    """Joint label of a z-basis outcome, for the forward-side inner product."""
    terminals = {eid: sym for sym, eid in net.terminal_symbols().items()}
    label = [terminals[candidate.outcome.photon]]
    for spec in net.subsystems[1:]:
        if spec.kind == "atom-spin":
            label.append(dict(candidate.outcome.atoms)[spec.id])
        else:
            box = next((b for b in net.boxes() if b.level == spec.id and b.id == candidate.outcome.photon), None)
            excited = box is not None and candidate.outcome.excited == box.atom and \
                candidate.outcome.photon == box.id
            label.append(spec.basis[1] if excited else spec.basis[0])
    return tuple(label)


def assert_echo_identity(net):
    """Backward emitter-amplitude product == |forward component|^2, per outcome."""
    ctx = t.z_context(net)
    trace = t.forward_propagate(net)
    absorbed = dict(trace.absorbed)
    for candidate in t.enumerate_transactions(net, ctx).candidates:
        label = outcome_bra_label(net, candidate)
        source = absorbed.get(candidate.outcome.photon, trace.continuing)
        forward_amp = source.amplitude(label)
        report = t.backward_propagate(
            net,
            unit((net.photon,), (label[0],), bra=True),
            {
                aid: unit((next(s for s in net.atoms() if s.id == aid),), (sym,), bra=True)
                for aid, sym in candidate.outcome.atoms
            },
        )
        assert abs(report.product() - abs(forward_amp) ** 2) < 1e-12
        assert abs(report.weight - abs(forward_amp) ** 2) < 1e-12
        assert abs(report.amplitude - forward_amp) < 1e-12


def test_echo_identity_on_builtins(hardy, qle, bomb_present):
    for net in (hardy, qle, bomb_present, t.two_laser_variant(qle)):
        assert_echo_identity(net)


def test_random_networks_conserve_mass_and_satisfy_echo_identity():
    rng = np.random.default_rng(90125)
    for index in range(100):
        net = random_network(rng, index)
        assert t.validate(net) == []
        trace = t.forward_propagate(net)
        total = t.norm_sq(trace.continuing) + trace.absorbed_total()
        assert abs(total - 1.0) < 1e-12
        assert_echo_identity(net)


def test_dark_port_without_boxes(hardy, qle):
    for net in (hardy, qle):
        open_net = strip_boxes(net)
        assert t.validate(open_net) == []
        marginal = {}
        continuing = t.forward_propagate(open_net).continuing
        for label, amp in continuing.items():
            marginal[label[0]] = marginal.get(label[0], 0.0) + abs(amp) ** 2
        assert abs(marginal.get("c", 0.0) - 1.0) < 1e-12
        assert marginal.get("d", 0.0) < 1e-12


# -- two-source variant --------------------------------------------------------------


def test_two_laser_variant_validates_and_matches(qle):
    twin = t.two_laser_variant(qle)
    assert t.validate(twin) == []
    assert twin.two_source
    a = t.forward_propagate(qle).continuing
    b = t.forward_propagate(twin).continuing
    assert t.approx_equal(a, b, tol=1e-12)


def test_two_laser_emitters_feed_paths_directly(qle):
    twin = t.two_laser_variant(qle)
    emitters = twin.photon_emitters()
    assert len(emitters) == 2
    amps = {}
    for e in emitters:
        ((label, amp),) = list(e.state.items())
        amps[label[0]] = amp
    assert abs(amps["u"] - 1j / RT2) < 1e-12
    assert abs(amps["v"] - 1.0 / RT2) < 1e-12


def test_two_laser_post_selected_statistics_match(qle):
    twin = t.two_laser_variant(qle)
    trials, seed = 1_000_000, 313
    counts = {}
    for name, net in (("one", qle), ("two", twin)):
        dist = t.enumerate_transactions(net, t.z_context(net))
        sampled = t.sample_flat(dist, trials, seed)
        d_count = sum(
            int(n)
            for c, n in zip(dist.candidates, sampled)
            if c.outcome.photon == "D"
        )
        counts[name] = d_count
    p = 0.125
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(counts["one"] / trials - p) < 4 * sigma
    assert abs(counts["two"] / trials - p) < 4 * sigma
    assert counts["one"] == counts["two"]  # same seed, same exact weights

def test_two_laser_requires_single_source_pattern(qle):
    twin = t.two_laser_variant(qle)
    with pytest.raises(ContractError):
        t.two_laser_variant(twin)


def test_two_laser_requires_one_photon_symbol_feeding_one_splitter(bomb_absent):
    photon = bomb_absent.photon

    def with_source(state):
        elements = tuple(Emitter("L", 0, state) if e.id == "L" else e for e in bomb_absent.elements)
        return dataclasses.replace(bomb_absent, elements=elements)

    with pytest.raises(ContractError, match="photon emitter must emit a single symbol"):
        t.two_laser_variant(with_source(t.Ket((photon,), {("s",): 0.6, ("u",): 0.8})))
    with pytest.raises(ContractError, match="no beam splitter fed exclusively by the photon emitter"):
        t.two_laser_variant(with_source(unit((photon,), ("u",))))  # S2 is fed by u and v


# -- description files ----------------------------------------------------------------


def test_network_json_roundtrip(tmp_path, qle):
    path = tmp_path / "qle.json"
    t.save_network(qle, path)
    loaded = t.load_network(path)
    assert t.network_to_dict(loaded) == t.network_to_dict(qle)
    a = t.forward_propagate(qle).continuing
    b = t.forward_propagate(loaded).continuing
    assert t.approx_equal(a, b, tol=1e-15)


def test_loader_rejects_invalid_description(tmp_path, qle):
    data = t.network_to_dict(qle)
    for item in data["elements"]:
        if item["id"] == "B":
            item["params"]["path"] = "v"
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError):
        t.load_network(path)


def test_emitter_norm_is_checked(tmp_path, qle):
    def scaled(net, emitter_id, factor):
        return dataclasses.replace(
            net,
            elements=tuple(
                dataclasses.replace(e, state=scale(factor, e.state)) if e.id == emitter_id else e
                for e in net.elements
            ),
        )

    loud = scaled(qle, "L", 2.0)
    assert [(d.element, d.rule) for d in t.validate(loud)] == [("L", "emitter-norm")]
    with pytest.raises(ValidationError):
        t.enumerate_transactions(loud, t.z_context(loud))
    path = tmp_path / "loud.json"
    t.save_network(loud, path)
    with pytest.raises(ValidationError, match="emitter-norm"):
        t.load_network(path)
    faint_atom = scaled(qle, "atom2-source", 0.5)
    assert [(d.element, d.rule) for d in t.validate(faint_atom)] == [("atom2-source", "emitter-norm")]
    # two photon emitters are checked as one coherent sum, not one by one
    twin = t.two_laser_variant(qle)
    assert t.validate(twin) == []
    loud_twin = scaled(twin, twin.photon_emitters()[1].id, 2.0)
    assert [(d.element, d.rule) for d in t.validate(loud_twin)] == [(None, "emitter-norm")]
    # a norm^2 past the float range is reported, not raised as OverflowError
    huge = scaled(qle, "L", 1e200)
    assert [(d.element, d.rule, "norm^2 inf" in d.message) for d in t.validate(huge)] == [("L", "emitter-norm", True)]
    with pytest.raises(ValidationError, match="emitter-norm"):
        t.enumerate_transactions(huge, t.z_context(huge))


def test_atom_levels_are_emitted_in_their_ground_symbol():
    excited = hardy_emitting_excited_levels()
    assert [(d.element, d.rule) for d in t.validate(excited)] == [("atom1-source", "emitter-level")]


def test_emitters_list_their_subsystems_in_declared_order(qle):
    swapped = qle_emitting_level_first()
    assert [(d.element, d.rule) for d in t.validate(swapped)] == [("atom1-source", "emitter-order")]
    # the walks refuse it as invalid, rather than failing on the product's order or answering
    outcome = t.enumerate_transactions(qle, t.z_context(qle)).candidates[0].outcome
    for call in (
        lambda: t.enumerate_transactions(swapped, t.z_context(swapped)),
        lambda: t.echo_weight(swapped, outcome, t.z_context(swapped)),
        lambda: t.backward_propagate(swapped, t.unit((swapped.photon,), ("d",), bra=True)),
    ):
        with pytest.raises(ValidationError, match=r"emitter-order \[atom1-source\]"):
            call()


def test_emitters_emit_the_declared_subsystems(hardy):
    wide = qle_emitting_undeclared_spin()  # declared ids, but a basis other than the declared one
    assert [(d.element, d.rule) for d in t.validate(wide)] == [("atom1-source", "emitter-order")]
    nothing = dataclasses.replace(hardy, elements=(*hardy.elements, Emitter("E", 0, unit((), ()))))
    assert [(d.element, d.rule) for d in t.validate(nothing)] == [("E", "emitter-order")]
    for net in (wide, nothing):
        with pytest.raises(ValidationError, match="emitter-order"):
            t.enumerate_transactions(net, t.z_context(net))


def test_photon_emitters_emit_on_one_subsystem_set():
    """Two photon emitters over different subsystems have no coherent sum."""
    net = hardy_two_source_unequal_photon_spaces()
    assert [(d.element, d.rule) for d in t.validate(net)] == [(None, "photon-source-space")]
    with pytest.raises(ValidationError, match="photon-source-space"):
        t.enumerate_transactions(net, t.z_context(net))



# -- boundaries: element arity, mirror phases, finite amplitudes, filters --------------


def with_mirror_phase(net, phase):
    return dataclasses.replace(
        net,
        elements=tuple(dataclasses.replace(e, phase=phase) if e.id == "M" else e for e in net.elements),
    )


def test_mirror_phase_must_have_unit_modulus():
    net = _parse_network(qle_with_mirror(0.6, 0.8))
    assert t.validate(net) == []
    assert t.validate(with_mirror_phase(net, cmath.exp(0.3j) * (1.0 + 1e-13))) == []
    # modulus 2 would make the photon probabilities sum to 1.75, and NaN terms would be pruned
    for phase in (2.0, 0.5j, 1.0 + 1e-9, complex(math.nan, 0.0), complex(0.0, math.inf)):
        bad = with_mirror_phase(net, phase)
        assert [(d.element, d.rule) for d in t.validate(bad)] == [("M", "mirror-unitary")]
        with pytest.raises(ValidationError, match="mirror-unitary"):
            t.enumerate_transactions(bad, t.z_context(bad))
    with pytest.raises(ValidationError, match=r"mirror-unitary \[M\]"):
        t.network_from_dict(qle_with_mirror(2.0))


def test_splitter_takes_one_or_two_inputs_and_gives_two_outputs():
    wide = _parse_network(qle_with_three_outputs())
    assert [(d.element, d.rule) for d in t.validate(wide)] == [("S2", "splitter-arity")]
    with pytest.raises(ValidationError, match="splitter-arity"):
        t.enumerate_transactions(wide, t.z_context(wide))
    with pytest.raises(ValidationError, match=r"splitter-arity \[S2\]"):
        t.network_from_dict(qle_with_three_outputs())


@pytest.mark.parametrize(
    "element, field, value",
    [("L", "re", math.nan), ("atom2-source", "im", math.inf), ("M", "re", -math.inf), ("M", "im", math.nan)],
)
def test_loader_rejects_non_finite_amplitudes(element, field, value):
    data = qle_with_mirror(0.6, 0.8)
    item = next(item for item in data["elements"] if item["id"] == element)
    if item["variant"] == "mirror":
        item["params"]["phase"][field] = value
    else:
        item["params"]["state"][-1][field] = value
    with pytest.raises(ValidationError, match=f"element '{element}' has a non-finite amplitude"):
        t.network_from_dict(json.loads(json.dumps(data)))


@pytest.mark.parametrize("value, message", [(1e200, "an amplitude .* too large to square"), (10**400, "a non-finite")])
def test_loader_rejects_amplitudes_whose_square_overflows(value, message):
    data = t.network_to_dict(t.qle_network())
    next(item for item in data["elements"] if item["id"] == "L")["params"]["state"][0]["re"] = value
    with pytest.raises(ValidationError, match=f"element 'L' has {message}"):
        t.network_from_dict(json.loads(json.dumps(data)))


def two_laser_with_filters(qle):
    """The two-laser description in the older format, which also wrote each
    photon emitter's confirmation filter: the dual of its emitted state."""
    twin = t.two_laser_variant(qle)
    data = t.network_to_dict(twin)
    for e in twin.photon_emitters():
        item = next(item for item in data["elements"] if item["id"] == e.id)
        item["params"]["filter"] = _ket_to_json(t.dual(e.state))
    return data


def test_two_laser_file_with_filters_still_loads(tmp_path, qle):
    twin = t.two_laser_variant(qle)
    assert "filter" not in json.dumps(t.network_to_dict(twin))
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(two_laser_with_filters(qle)))
    loaded = t.load_network(path)
    assert t.network_to_dict(loaded) == t.network_to_dict(twin)
    for ctx in (t.z_context(twin), t.y_context(twin)):
        a, b = t.enumerate_transactions(loaded, ctx), t.enumerate_transactions(twin, ctx)
        assert a == b
        assert [t.echo_weight(loaded, c.outcome, ctx) for c in a.candidates] == [
            t.echo_weight(twin, c.outcome, ctx) for c in b.candidates
        ]


def test_filter_other_than_the_dual_is_rejected(qle):
    data = two_laser_with_filters(qle)
    filtered = [item for item in data["elements"] if "filter" in item.get("params", {})]
    assert len(filtered) == 2
    filtered[1]["params"]["filter"][0]["re"] += 1e-9
    with pytest.raises(ValidationError, match="emitter 'L-v': a filter must be the dual"):
        t.network_from_dict(data)


def test_every_written_description_loads_back():
    rng = np.random.default_rng(99)
    nets = [t.qle_network(), t.hardy_network(), t.ev_bomb_network(True), t.ev_bomb_network(False)]
    nets += [t.two_laser_variant(t.qle_network())] + [random_network(rng, index) for index in range(40)]
    for net in nets:
        data = json.loads(json.dumps(t.network_to_dict(net)))
        assert t.network_to_dict(t.network_from_dict(data)) == data
