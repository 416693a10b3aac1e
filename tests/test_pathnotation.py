import math

import pytest
from hypothesis import given, settings, strategies as st

import tisim as t
from tisim.amplitudes import SubsystemSpec, unit
from tisim.errors import PathSyntaxError, ResolutionError, StructuralError
from tisim.network import BeamSplitter, Mirror
from tisim.pathnotation import PathExpression, PathKet, PathSegment, format_term

RT2 = math.sqrt(2.0)


# -- parsing ------------------------------------------------------------------


def test_parse_reflected_route():
    expr = t.parse("|L-_S1_-A-_S2_-D>")
    (term,) = expr.terms
    assert [s.label for s in term.segments] == ["L", "S1", "A", "S2", "D"]
    assert [s.label for s in term.segments if s.reflected] == ["S1", "S2"]
    assert term.coefficient == 1.0 + 0j
    assert term.atoms is None


def test_parse_bare_emitter():
    expr = t.parse("|L>")
    (term,) = expr.terms
    assert term.segments == (PathSegment("L"),)


def test_parse_with_atom_tag():
    expr = t.parse("|L-S1-B-S2-D> |++>")
    (term,) = expr.terms
    assert term.atoms == "++"
    assert all(not s.reflected for s in term.segments)


def test_parse_coefficients_and_signs():
    expr = t.parse("i|L> + 0.5|M> - i0.25|N>")
    coeffs = [term.coefficient for term in expr.terms]
    assert coeffs == [1j, 0.5 + 0j, -0.25j]


def test_parse_is_whitespace_insensitive():
    a = t.parse("|L-_S1_-A-_S2_-D>+|L-S1-B-S2-D>")
    b = t.parse("  | L - _S1_ - A - _S2_ - D >   +  | L-S1-B-S2-D > ")
    assert a == b


@pytest.mark.parametrize(
    "text, position",
    [
        ("|L-", 3),        # dangling separator
        ("L>", 0),         # missing opening bar
        ("|L-_S1-D>", 6),  # unclosed reflection marker
        ("|L-S1-D> |+>", 11),  # short atom ket
        ("|L> ? |M>", 4),  # bad separator
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(PathSyntaxError) as err:
        t.parse(text)
    assert err.value.position == position


def test_reflection_marker_needs_a_label():
    with pytest.raises(PathSyntaxError, match="expected a label after '_'") as err:
        t.parse("|_>")
    assert err.value.position == 2


@pytest.mark.parametrize("minus", ["-", "\N{MINUS SIGN}"])
def test_leading_minus_negates_the_first_term(minus):
    (term,) = t.parse(f"{minus}|L-S1-B-S2-D>").terms
    assert term.coefficient == -1


def test_coefficients_off_the_axes_are_not_printed():
    (term,) = t.parse("|L-S1-D>").terms
    with pytest.raises(StructuralError, match="not representable in the grammar"):
        format_term(PathKet(term.segments, 1 + 1j))


# -- canonical printing ---------------------------------------------------------


GOLDEN = [
    ("|L-_S1_-A-_S2_-D> + |L-S1-B-S2-D>", "|L-_S1_-A-_S2_-D> + |L-S1-B-S2-D>"),
    ("  i |L>   -  0.50 | M >", "i|L> - 0.5|M>"),
    ("|L-S1-B-S2-D>|++>", "|L-S1-B-S2-D>|++>"),
    ("2.0|X> + i1.0|Y>", "2|X> + i|Y>"),
]


@pytest.mark.parametrize("text, canonical", GOLDEN)
def test_golden_round_trips(text, canonical):
    assert t.format_expression(t.parse(text)) == canonical
    # printing is idempotent
    assert t.format_expression(t.parse(canonical)) == canonical


idents = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,3}", fullmatch=True)
segments = st.builds(PathSegment, label=idents, reflected=st.booleans())
coefficients = st.sampled_from([1.0 + 0j, 1j, 2.0 + 0j, 0.5 + 0j, 0.25j, 3.25 + 0j])
atom_tags = st.sampled_from([None, "++", "--", "+-", "-+"])
terms = st.builds(
    PathKet,
    segments=st.lists(segments, min_size=1, max_size=4).map(tuple),
    coefficient=coefficients,
    atoms=atom_tags,
)
expressions = st.builds(
    PathExpression, terms=st.lists(terms, min_size=1, max_size=3).map(tuple)
)


@settings(max_examples=1000, deadline=None)
@given(expressions)
def test_fuzzed_round_trips(expr):
    printed = t.format_expression(expr)
    reparsed = t.parse(printed)
    assert reparsed == expr
    assert t.format_expression(reparsed) == printed


# -- evaluation -------------------------------------------------------------------


def restricted_amplitude(network, path):
    """Oracle: walk the route through the real element maps, projecting onto
    the chosen branch after every splitter."""
    from tisim.network import _apply_symbol_map

    photon = network.photon
    emitter = network.element(path.segments[0].label)
    sym = next(label[0] for label, _ in emitter.state.items())
    ket = unit((photon,), (sym,))
    for seg in path.segments[1:]:
        element = network.element(seg.label)
        if isinstance(element, BeamSplitter):
            ket = _apply_symbol_map(ket, 0, element.forward_map())
            side = element.inputs.index(sym)
            sym = element.outputs[side] if seg.reflected else element.outputs[1 - side]
            ket = t.project(ket, photon.id, sym)
        elif isinstance(element, Mirror):
            ket = _apply_symbol_map(ket, 0, element.forward_map())
            sym = element.output
    assert len(ket) == 1
    return ket.amplitude((sym,))


def test_reflected_route_amplitude(qle):
    (term,) = t.parse("|L-_S1_-B-_S2_-D>").terms
    oracle = restricted_amplitude(qle, term)
    assert abs(oracle - (-0.5)) < 1e-12  # two reflections: i*i/2
    assert abs(t.amplitude(term, qle) - oracle) < 1e-12


def test_transmitted_route_amplitude(qle):
    (term,) = t.parse("|L-S1-A-S2-D>").terms
    oracle = restricted_amplitude(qle, term)
    assert abs(oracle - 0.5) < 1e-12
    assert abs(t.amplitude(term, qle) - oracle) < 1e-12


def test_bare_emitter_keeps_prefactor(qle):
    (term,) = t.parse("0.5|L>").terms
    assert t.amplitude(term, qle) == 0.5 + 0j


def test_dark_port_cancellation(qle):
    expr = t.parse("|L-_S1_-A-_S2_-D> + |L-S1-B-S2-D>")
    assert abs(t.sum_amplitudes(expr, qle)) < 1e-12


def test_single_survivor_modulus(qle):
    expr = t.parse("|L-_S1_-B-_S2_-D>|++>")
    assert abs(abs(t.sum_amplitudes(expr, qle)) - 0.5) < 1e-12


def test_expression_plus_negation_cancels(qle):
    expr = t.parse("|L-S1-B-S2-D> - |L-S1-B-S2-D>")
    assert abs(t.sum_amplitudes(expr, qle)) < 1e-12


def test_unknown_label_is_resolution_error(qle):
    (term,) = t.parse("|L-S1-NOPE-S2-D>").terms
    with pytest.raises(ResolutionError):
        t.amplitude(term, qle)


def test_alias_table_resolves_diagram_labels(qle):
    (term,) = t.parse("|Laser-S1-BoxA-S2-Dark>").terms
    aliases = {"Laser": "L", "BoxA": "A", "Dark": "D"}
    assert abs(t.amplitude(term, qle, aliases) - 0.5) < 1e-12


def test_structure_violations_are_rejected(qle):
    with pytest.raises(StructuralError):  # reflection marker on a non-splitter
        t.amplitude(t.parse("|L-_A_-S2-D>").terms[0], qle)
    with pytest.raises(StructuralError):  # does not start at an emitter
        t.amplitude(t.parse("|S1-D>").terms[0], qle)
    with pytest.raises(StructuralError):  # does not end at a detector
        t.amplitude(t.parse("|L-S1>").terms[0], qle)


# -- consistency with forward propagation ----------------------------------------------


def test_every_route_matches_restricted_propagation(hardy, qle, bomb_present, bomb_absent):
    networks = [hardy, qle, bomb_present, bomb_absent, t.two_laser_variant(qle)]
    checked = 0
    for net in networks:
        for path in t.enumerate_paths(net):
            assert abs(t.amplitude(path, net) - restricted_amplitude(net, path)) < 1e-12
            checked += 1
    assert checked >= 16


def test_single_route_components_match_full_propagation(hardy, qle):
    # where exactly one route feeds an outcome, the joint coefficient is
    # (route amplitude) x (atom source amplitude)
    final = t.forward_propagate(hardy).continuing
    (route,) = [
        p for p in t.enumerate_paths(hardy)
        if p.segments[-1].label == "D" and p.segments[1].reflected
    ]
    assert abs(t.amplitude(route, hardy) * (1 / RT2) - final.amplitude(("d", "+", "0"))) < 1e-12

    final = t.forward_propagate(qle).continuing
    (route_u,) = [
        p for p in t.enumerate_paths(qle)
        if p.segments[-1].label == "D" and p.segments[1].reflected
    ]
    atom_factor = (1j / RT2) * (1j / RT2)  # both atoms up
    assert abs(
        t.amplitude(route_u, qle) * atom_factor - final.amplitude(("d", "+", "0", "+", "0"))
    ) < 1e-12


def test_survivor_set_is_exactly_the_matched_pairs(qle):
    survivors = t.surviving_detector_paths(qle, "D")
    by_assignment = {assignment: (routes, total) for assignment, routes, total in survivors}
    assert set(by_assignment) == {("+", "+"), ("-", "-")}
    routes_pp, total_pp = by_assignment[("+", "+")]
    assert len(routes_pp) == 1 and routes_pp[0].segments[1].reflected  # via the upper arm
    assert abs(total_pp - (-0.5)) < 1e-12
    routes_mm, total_mm = by_assignment[("-", "-")]
    assert len(routes_mm) == 1 and not routes_mm[0].segments[1].reflected
    assert abs(total_mm - 0.5) < 1e-12


def test_mirror_phase_enters_route_amplitude():
    photon = SubsystemSpec("photon", "photon-path", ("s", "u", "v", "w", "c", "d"))
    from tisim.network import Detector, Emitter, Network

    net = Network(
        "mirrored",
        (photon,),
        (
            Emitter("L", 0, unit((photon,), ("s",))),
            BeamSplitter("S1", 1, ("s",), ("u", "v")),
            Mirror("M", 2, "u", "w", 1j),
            BeamSplitter("S2", 3, ("w", "v"), ("d", "c")),
            Detector("C", 4, "c"),
            Detector("D", 4, "d"),
        ),
    )
    assert t.validate(net) == []
    for path in t.enumerate_paths(net):
        assert abs(t.amplitude(path, net) - restricted_amplitude(net, path)) < 1e-12
    (term,) = t.parse("|L-_S1_-M-_S2_-D>").terms
    assert abs(t.amplitude(term, net) - (1j * 1j * 1j) / 2.0) < 1e-12
