"""Optical networks: a DAG of elements with pseudotime ranks.

A network declares its subsystems (one photon-path subsystem plus spin/level
pairs for any boxed atoms) and a rank-ordered set of elements.  Offer waves
propagate forward through the elements in rank order; confirmation waves
propagate backward through the conjugate-transposed maps in reverse rank
order.  Atom boxes split off the absorbed component (photon on their path,
atom in the blocking spin state) into a separate bucket, flipping the atom's
level marker from ground to excited, so total probability is conserved
between the continuing and absorbed sectors.

Conventions, fixed once for the whole package:

* beam splitters are balanced: reflection carries a factor ``i/sqrt(2)``,
  transmission ``1/sqrt(2)``; the first input reflects into the first output,
  the second input reflects into the second output;
* mirrors default to phase ``1``;
* absorption re-labels the photon slot with the absorbing box's id (the
  "marker" symbol) rather than deleting the term, which keeps the full
  element sequence unitary and lets confirmation waves anchored at a box
  propagate back out of it.
"""

from __future__ import annotations

import graphlib
import itertools
import json
import math
from dataclasses import dataclass, fields
from functools import cached_property, reduce
from pathlib import Path
from typing import Mapping

import numpy as np

from .amplitudes import (
    TOL,
    Bra,
    Ket,
    Label,
    Space,
    SubsystemSpec,
    _Codec,
    _apply_symbol_map,
    _codec_for,
    _term_products,
    add,
    approx_equal,
    dual,
    norm_sq,
    subsystem_index,
    tensor,
    unit,
)
from .errors import ContractError, StructuralError, ValidationError

_R = 1j / math.sqrt(2.0)  # reflection
_T = 1.0 / math.sqrt(2.0)  # transmission


@dataclass(frozen=True)
class Emitter:
    """A source.  ``state`` is the emitted ket over this emitter's subsystems;
    the backward pass filters a returning confirmation wave against it."""

    id: str
    rank: int
    state: Ket


@dataclass(frozen=True)
class BeamSplitter:
    """Balanced splitter; ``inputs`` has one entry (vacuum second port) or two."""

    id: str
    rank: int
    inputs: tuple[str, ...]
    outputs: tuple[str, str]

    def forward_map(self) -> dict[str, list[tuple[str, complex]]]:
        out0, out1 = self.outputs
        mapping = {self.inputs[0]: [(out0, _R), (out1, _T)]}
        if len(self.inputs) == 2:
            mapping[self.inputs[1]] = [(out0, _T), (out1, _R)]
        return mapping


@dataclass(frozen=True)
class Mirror:
    id: str
    rank: int
    input: str
    output: str
    phase: complex = 1.0

    def forward_map(self) -> dict[str, list[tuple[str, complex]]]:
        return {self.input: [(self.output, complex(self.phase))]}


@dataclass(frozen=True)
class AtomBox:
    """A box intersecting one photon path, holding one spin component of an atom.

    If the photon is on ``path`` and the atom's spin is ``blocking``, the
    component is absorbed: the photon slot becomes this box's marker symbol
    and the atom's level flips ground -> excited.  Re-emission is not modeled.
    """

    id: str
    rank: int
    atom: str
    blocking: str
    path: str
    level: str

    @property
    def marker(self) -> str:
        return self.id


@dataclass(frozen=True)
class Detector:
    id: str
    rank: int
    input: str


Element = Emitter | BeamSplitter | Mirror | AtomBox | Detector


@dataclass(frozen=True)
class Diagnostic:
    element: str | None
    rule: str
    message: str

    def __str__(self) -> str:
        where = f" [{self.element}]" if self.element else ""
        return f"{self.rule}{where}: {self.message}"


@dataclass(frozen=True)
class Network:
    """Immutable experiment description; validate before propagating."""

    name: str
    subsystems: Space
    elements: tuple[Element, ...]
    two_source: bool = False

    # -- structural accessors -------------------------------------------------

    @property
    def photon(self) -> SubsystemSpec:
        for spec in self.subsystems:
            if spec.kind == "photon-path":
                return spec
        raise StructuralError("network declares no photon-path subsystem")

    def atoms(self) -> tuple[SubsystemSpec, ...]:
        return tuple(s for s in self.subsystems if s.kind == "atom-spin")

    def emitters(self) -> tuple[Emitter, ...]:
        return tuple(e for e in self.elements if isinstance(e, Emitter))

    def photon_emitters(self) -> tuple[Emitter, ...]:
        pid = self.photon.id
        return tuple(e for e in self.emitters() if any(s.id == pid for s in e.state.space))

    def boxes(self) -> tuple[AtomBox, ...]:
        return tuple(e for e in self.elements if isinstance(e, AtomBox))

    def detectors(self) -> tuple[Detector, ...]:
        return tuple(e for e in self.elements if isinstance(e, Detector))

    def element(self, element_id: str) -> Element:
        for e in self.elements:
            if e.id == element_id:
                return e
        raise StructuralError(f"no element with id {element_id!r}")

    def ordered(self) -> tuple[Element, ...]:
        return tuple(sorted(self.elements, key=lambda e: (e.rank, e.id)))

    def terminal_symbols(self) -> dict[str, str]:
        """Map terminal photon symbol -> element id (detectors and box markers)."""
        out = {d.input: d.id for d in self.detectors()}
        out.update({b.marker: b.id for b in self.boxes()})
        return out

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        """``validate(self)``, computed once per network: networks are immutable."""
        return tuple(validate(self))

    @cached_property
    def _plan(self) -> _Plan:
        """The network compiled once for its walks; an invalid network has none."""
        if self._diagnostics:
            raise ValidationError("invalid network: " + "; ".join(map(str, self._diagnostics)))
        codec, steps = _codec_for(self.subsystems), []
        for e in self.ordered():
            if isinstance(e, AtomBox):
                relabel = _box_relabel(codec, e)
                steps.append((e, relabel, relabel))
            elif isinstance(e, (BeamSplitter, Mirror)):
                forward, back = e.forward_map(), {}
                for in_sym, branches in forward.items():
                    for out_sym, factor in branches:
                        back.setdefault(out_sym, []).append((in_sym, factor))
                steps.append((None, forward, back))
        photon_sources = self.photon_emitters()
        atom_sources = sorted(
            (e for e in self.emitters() if e not in photon_sources),
            key=lambda e: subsystem_index(self.subsystems, e.state.space[0].id),
        )
        boxes = {b.id: b for b in self.boxes()}
        atoms = {s.id: i for i, s in enumerate(self.subsystems) if s.kind == "atom-spin"}
        return _Plan(tuple(steps), photon_sources, tuple(atom_sources), self.terminal_symbols(), boxes, atoms)

    @cached_property
    def _offer_wave(self) -> PropagationTrace:
        """``forward_propagate(self)``, walked once per network: every context
        reads the same offer wave and only rebases it at the absorbers."""
        return forward_propagate(self)

    @cached_property
    def _stage_tables(self) -> dict:
        """The stage tables of the last few contexts asked about (at most
        ``engine.STAGE_TABLES``, oldest-inserted first), keyed by the atoms' bases
        (``engine._hierarchy_stages``); they live as long as the network."""
        return {}

    @cached_property
    def _confirmation_waves(self) -> dict:
        """Per terminal id, its confirmation wave read at the sources
        (``confirmation_wave``), filled on first use; it lives as long as the network."""
        return {}


@dataclass(frozen=True)
class _Plan:
    """What the walks read of a valid network (``Network._plan``), built once.

    ``steps`` are the splitters, mirrors and boxes in rank order, each
    ``(box, forward, back)``: a splitter or mirror has box ``None``, its
    forward symbol map and the transposed one; a box has its relabel
    (``_box_relabel``, an involution) both ways.  A valid network declares the
    photon first (the ``subsystem-order`` rule), so its slot is always 0."""

    steps: tuple[tuple, ...]
    photon_sources: tuple[Emitter, ...]
    atom_sources: tuple[Emitter, ...]  # in subsystem order
    terminals: dict[str, str]  # terminal photon symbol -> detector or box id
    boxes: dict[str, AtomBox]  # by id
    atoms: dict[str, int]  # atom-spin subsystem id -> its slot, in declaration order


@dataclass(frozen=True)
class PropagationTrace:
    """Result of the forward pass of the emitted offer wave: the ket that
    passes every box, and the component each box absorbed (excited level set),
    in rank order.

    ``box_fractions`` gives, per absorbed component, the share of the mass
    entering its box that the box took: the conditional absorption
    probability the hierarchical resolvers draw against."""

    continuing: Ket
    absorbed: tuple[tuple[str, Ket], ...]
    box_fractions: tuple[float, ...] = ()

    def absorbed_total(self) -> float:
        return float(sum(norm_sq(k) for _, k in self.absorbed))

    def absorbed_ket(self, box_id: str) -> Ket:
        for bid, k in self.absorbed:
            if bid == box_id:
                return k
        raise StructuralError(f"no absorption recorded for box {box_id!r}")


@dataclass(frozen=True)
class EchoReport:
    """Result of a backward (confirmation-wave) pass.

    ``amplitude`` is the joint amplitude surviving at the sources, computed
    entirely through the reverse-order conjugate maps; ``weight`` is its
    squared modulus, the Born weight of the anchoring outcome.

    ``sector_amplitudes`` splits the same amplitude per emitter (photon path
    factor at the photon source, spin overlap at each atom source); the split
    is exact whenever the atom confirmation waves are basis states of the box
    orientation.  ``emitter_amplitudes`` is the source-matching bookkeeping
    view: each emitter reports (offer-wave amplitude seen by its absorber) x
    (modulus of the returning confirmation amplitude).

    In a two-source network the photon sources have no separate identity:
    their confirmation amplitudes add coherently as one source group
    (``photon_group``), and ``product`` multiplies the group's bookkeeping
    value with the atom emitters', reproducing the Born weight.
    """

    emitter_amplitudes: dict[str, float]
    sector_amplitudes: dict[str, complex]
    photon_group: tuple[str, ...]
    photon_group_ow: float
    amplitude: complex
    weight: float

    @property
    def photon_group_amplitude(self) -> complex:
        return sum(self.sector_amplitudes[eid] for eid in self.photon_group)

    def product(self) -> float:
        group = self.photon_group_ow * abs(self.photon_group_amplitude)
        atoms = math.prod(
            v for eid, v in self.emitter_amplitudes.items() if eid not in self.photon_group
        )
        return float(group * atoms)


# -- validation ---------------------------------------------------------------


def validate(network: Network) -> list[Diagnostic]:
    """Return a list of invariant violations; empty means well-formed."""
    diags: list[Diagnostic] = []
    add_diag = lambda element, rule, message: diags.append(Diagnostic(element, rule, message))

    photon_specs = [s for s in network.subsystems if s.kind == "photon-path"]
    if len(photon_specs) != 1:
        add_diag(None, "photon-subsystem", f"expected exactly one photon-path subsystem, found {len(photon_specs)}")
        return diags
    photon = photon_specs[0]
    if network.subsystems[0].id != photon.id:
        add_diag(None, "subsystem-order", "photon-path subsystem must be declared first")

    ids = [e.id for e in network.elements]
    if len(set(ids)) != len(ids):
        add_diag(None, "element-ids", "element ids are not unique")

    # level subsystems must be two-symbol (ground, excited)
    for spec in network.subsystems:
        if spec.kind == "atom-level" and len(spec.basis) != 2:
            add_diag(None, "level-basis", f"level subsystem {spec.id!r} must have exactly two symbols")

    # emitters: coverage of subsystems, one photon source (two for two-source nets)
    covered: dict[str, str] = {}
    for e in network.emitters():
        for spec in e.state.space:
            if spec.id in covered and spec.kind != "photon-path":
                add_diag(e.id, "emitter-coverage", f"subsystem {spec.id!r} emitted twice")
            covered[spec.id] = e.id
    for spec in network.subsystems:
        if spec.id not in covered:
            add_diag(None, "emitter-coverage", f"subsystem {spec.id!r} has no emitter")
    # each emitter emits declared subsystems (their specs, not only their ids) side by side in
    # declared order, and the photon emitters one space: so the sources' product is the declared space
    declared = list(network.subsystems)
    named = lambda specs: ", ".join(f"{spec.id}({'|'.join(spec.basis)})" for spec in specs) or "nothing"
    for e in network.emitters():
        space = list(e.state.space)
        start = declared.index(space[0]) if space and space[0] in declared else -1
        if not space or declared[start : start + len(space)] != space:
            add_diag(e.id, "emitter-order", f"emits {named(space)}: not declared subsystems side by side in order {named(declared)}")
    photon_src = network.photon_emitters()
    allowed = 2 if network.two_source else 1
    if len(photon_src) != allowed:
        add_diag(None, "photon-sources", f"expected {allowed} photon emitter(s), found {len(photon_src)}")
    photon_spaces = {e.state.space for e in photon_src}
    if len(photon_spaces) > 1:
        emits = "; ".join(f"{e.id} emits {[spec.id for spec in e.state.space]}" for e in photon_src)
        add_diag(None, "photon-source-space", f"photon emitters emit on different subsystems: {emits}")

    # emitted states carry unit mass; the photon emitters add coherently, as in emitted_state
    sources = [([e.id], e.state) for e in network.emitters() if e not in photon_src]
    if len(photon_spaces) == 1:
        sources.append(([e.id for e in photon_src], reduce(add, [e.state for e in photon_src])))
    for ids, state in sources:
        try:
            mass = norm_sq(state)
        except OverflowError:  # a squared modulus past the float range
            mass = math.inf
        if abs(mass - 1.0) > TOL:
            add_diag(
                ids[0] if len(ids) == 1 else None,
                "emitter-norm",
                f"state emitted by {' + '.join(ids)} has norm^2 {mass!r}, expected 1 within {TOL}",
            )

    # atoms start in their ground level, the first symbol: the boxes and the echo's source filter assume it
    for e in network.emitters():
        for i, spec in enumerate(e.state.space):
            if spec.kind == "atom-level" and any(label[i] != spec.basis[0] for label in e.state.terms):
                add_diag(e.id, "emitter-level", f"level {spec.id!r} emitted outside its ground {spec.basis[0]!r}")

    produced, consumed, intersected = _symbol_table(network)
    basis = set(photon.basis)
    for table in (produced, consumed, intersected):
        for sym, els in table.items():
            if sym not in basis:
                add_diag(els[0].id, "unknown-symbol", f"photon symbol {sym!r} not declared in the photon basis")

    for table, verb, who in ((consumed, "consumed", ""), (intersected, "intersected", "boxes ")):
        for sym, els in table.items():
            if len(els) > 1:
                ids = ", ".join(e.id for e in els)
                add_diag(els[1].id, "consumed-twice", f"photon-path symbol {sym!r} consumed twice ({who}{ids})")
            if sym not in produced:
                add_diag(els[0].id, "unproduced-symbol", f"photon symbol {sym!r} {verb} but never produced")
    for sym, els in produced.items():
        dupes = [e for e in els if not isinstance(e, Emitter)]
        if len(dupes) > 1 or (len(els) > 1 and dupes and len(dupes) != len(els)):
            add_diag(els[1].id, "produced-twice", f"photon symbol {sym!r} produced by more than one element")
        if sym not in consumed:
            add_diag(els[0].id, "unconsumed-symbol", f"photon symbol {sym!r} produced but never consumed")

    # splitters are 2x2 (one input port may be vacuum); mirrors only shift the phase
    for e in network.elements:
        if isinstance(e, BeamSplitter) and not (1 <= len(e.inputs) <= 2 and len(e.outputs) == 2):
            n_in, n_out = len(e.inputs), len(e.outputs)
            add_diag(e.id, "splitter-arity", f"{n_in} inputs and {n_out} outputs, expected 1 or 2 and 2")
        elif isinstance(e, Mirror) and not abs(abs(e.phase) - 1.0) <= TOL:  # a NaN phase fails too
            add_diag(e.id, "mirror-unitary", f"phase {e.phase!r} has modulus {abs(e.phase)!r}, expected 1 within {TOL}")

    # detectors consume distinct symbols
    det_syms = [d.input for d in network.detectors()]
    if len(set(det_syms)) != len(det_syms):
        add_diag(None, "detector-symbols", "two detectors consume the same photon symbol")

    # boxes reference real subsystems and carry unique markers
    sub_by_id = {s.id: s for s in network.subsystems}
    for b in network.boxes():
        atom = sub_by_id.get(b.atom)
        level = sub_by_id.get(b.level)
        if atom is None or atom.kind != "atom-spin":
            add_diag(b.id, "box-atom", f"box references unknown atom-spin subsystem {b.atom!r}")
        elif b.blocking not in atom.basis:
            add_diag(b.id, "box-blocking", f"blocking symbol {b.blocking!r} not in atom basis")
        if level is None or level.kind != "atom-level":
            add_diag(b.id, "box-level", f"box references unknown atom-level subsystem {b.level!r}")
        if b.marker not in basis:
            add_diag(b.id, "box-marker", f"marker symbol {b.marker!r} not declared in the photon basis")
        elif b.marker in produced or b.marker in consumed:
            add_diag(b.id, "box-marker", f"marker symbol {b.marker!r} collides with a routed photon symbol")

    # rank monotonicity along every edge, boxes strictly between producer and consumer
    for earlier, later, flag_later, rule in (
        (produced, consumed, True, "consumer rank must exceed producer rank"),
        (produced, intersected, True, "box rank must exceed producer rank"),
        (intersected, consumed, False, "box rank must precede consumer rank"),
    ):
        for sym, lates in later.items():
            for a in earlier.get(sym, ()):
                for b in lates:
                    if a.rank >= b.rank:
                        add_diag((b if flag_later else a).id, "rank-order", f"symbol {sym!r}: {rule}")

    # acyclicity, independent of ranks
    graph: dict[str, set[str]] = {e.id: set() for e in network.elements}
    for sym, cons in consumed.items():
        chain = intersected.get(sym, []) + cons
        for p in produced.get(sym, []):
            graph[chain[0].id].add(p.id)
        for a, b in zip(chain, chain[1:]):
            graph[b.id].add(a.id)
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        cycle = err.args[1]
        add_diag(None, "acyclic", f"element cycle detected: {' -> '.join(cycle)}")

    return diags


def _ports(e: Element) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Photon symbols an element takes in (for a box, the path it sits on) and puts out."""
    if isinstance(e, BeamSplitter):
        return e.inputs, e.outputs
    if isinstance(e, Mirror):
        return (e.input,), (e.output,)
    if isinstance(e, Detector):
        return (e.input,), ()
    if isinstance(e, AtomBox):
        return (e.path,), ()
    if any(s.kind == "photon-path" for s in e.state.space):
        return (), tuple(label[0] for label, _ in e.state.items())
    return (), ()


def _symbol_table(network: Network) -> tuple[dict[str, list[Element]], ...]:
    """Photon symbol -> the elements that produce, consume and box-intersect it.

    Splitters, mirrors and detectors consume; boxes only intersect the path
    they sit on.  Every list is in rank order.
    """
    produced: dict[str, list[Element]] = {}
    consumed: dict[str, list[Element]] = {}
    intersected: dict[str, list[Element]] = {}
    for e in network.ordered():
        ins, outs = _ports(e)
        for sym in ins:
            (intersected if isinstance(e, AtomBox) else consumed).setdefault(sym, []).append(e)
        for sym in outs:
            produced.setdefault(sym, []).append(e)
    return produced, consumed, intersected


# -- forward propagation ------------------------------------------------------


def emitted_state(network: Network) -> Ket:
    """Tensor product of all emitted states of a valid network (photon
    emitters add coherently), the non-photon sources in subsystem order."""
    plan = network._plan
    state = reduce(add, [e.state for e in plan.photon_sources])
    for e in plan.atom_sources:
        state = tensor(state, e.state)
    return state


def _box_relabel(codec: _Codec, box: AtomBox):
    """The box as an involution on the label codes of ``codec``'s space:
    ``(path, blocking, ground) <-> (marker, blocking, excited)`` on the
    (photon, spin, level) digits, the photon in slot 0.

    Returns ``relabel(codes) -> (new codes, moved mask)``: each code's shift
    of the photon and level digits, looked up on its three digits."""
    space = codec.space
    atom_i, level_i = subsystem_index(space, box.atom), subsystem_index(space, box.level)
    path, marker = space[0].basis.index(box.path), space[0].basis.index(box.marker)
    blocking = space[atom_i].basis.index(box.blocking)
    shift = (marker - path) * codec.strides[0] + codec.strides[level_i]  # ground is level digit 0
    step = np.zeros(tuple(codec.radices[i] for i in (0, atom_i, level_i)), dtype=np.int64)
    step[path, blocking, 0], step[marker, blocking, 1] = shift, -shift
    step.setflags(write=False)  # shared by every walk of the network

    def relabel(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        moves = step[codec.digit(codes, 0), codec.digit(codes, atom_i), codec.digit(codes, level_i)]
        return codes + moves, moves != 0

    return relabel


def forward_propagate(network: Network) -> PropagationTrace:
    """Propagate the emitted offer wave source -> detectors in rank order;
    the engine reads each network's one walk (``Network._offer_wave``)."""
    state = emitted_state(network)
    absorbed: list[tuple[str, Ket]] = []
    fractions: list[float] = []
    for box, forward, _ in network._plan.steps:
        if box is None:
            state = _apply_symbol_map(state, 0, forward)
            continue
        before = norm_sq(state)
        # no term carries the marker before its box, so a moved label is an absorbed term
        codes, moved = forward(state._codes)
        kept = ~moved
        taken = Ket._coded(state._codec, codes[moved], state._re[moved], state._im[moved], prune=False)
        state = Ket._coded(state._codec, codes[kept], state._re[kept], state._im[kept], prune=False)
        absorbed.append((box.id, taken))
        fractions.append(norm_sq(taken) / before if before > 0 else 0.0)
    return PropagationTrace(continuing=state, absorbed=tuple(absorbed), box_fractions=tuple(fractions))


# -- backward propagation -----------------------------------------------------


def _walk_back(network: Network, joint: Bra) -> Bra:
    """A confirmation wave carried terminal -> sources: the transposed maps in reverse rank order."""
    for box, _, back in reversed(network._plan.steps):
        if box is None:
            joint = _apply_symbol_map(joint, 0, back)
        else:
            codes, _ = back(joint._codes)  # a bijection: no two terms merge
            joint = Bra._coded(joint._codec, codes, joint._re, joint._im, prune=False)
    return joint


def confirmation_wave(network: Network, terminal: str) -> tuple[str | None, np.ndarray]:
    """The confirmation wave of a terminal (a detector or box id) read at the
    sources: its amplitude W(s) for each spin configuration s of the atoms.

    No element map changes a spin digit, so one walk carries every spin basis
    state as its own term; atom bras b then give sum_s prod_atom b_atom(s_atom) W(s).
    Returns the atom the terminal leaves excited (``None`` for a detector) and
    W, one row per photon source (in a two-source network the rows add
    coherently), mixed radix over the atoms in declaration order.  Walked once
    per network and terminal, reading no forward result.
    """
    wave = network._confirmation_waves.get(terminal)
    if wave is None:  # built in a local first, so a racing thread stores an equal wave
        plan = network._plan
        symbol = next((sym for sym, eid in plan.terminals.items() if eid == terminal), None)
        if symbol is None:
            raise ContractError(f"{terminal!r} is not a detector or box of network {network.name!r}")
        box = plan.boxes.get(terminal)
        level = box.level if box is not None else None  # excited there, ground elsewhere
        choices = [s.basis if s.kind == "atom-spin" else (s.basis[s.id == level],) for s in network.subsystems[1:]]
        anchor = dict.fromkeys(itertools.product((symbol,), *choices), 1.0)  # a term per spin configuration
        joint = _walk_back(network, Bra(network.subsystems, anchor))
        codec, config = joint._codec, np.zeros_like(joint._codes)
        for i in plan.atoms.values():
            config = config * codec.radices[i] + codec.digit(joint._codes, i)
        size = math.prod(codec.radices[i] for i in plan.atoms.values())
        atom_states = [e.state for e in plan.atom_sources]
        parts = [_term_products(joint, [e.state, *atom_states]) for e in plan.photon_sources]
        rows = [np.bincount(config, re, size) + 1j * np.bincount(config, im, size) for re, im in parts]
        network._confirmation_waves[terminal] = wave = (box.atom if box is not None else None, np.array(rows))
    return wave


def _source_couplings(wave: np.ndarray, bras: list[np.ndarray]) -> list[complex]:
    """Each photon source's coupling: its row of a ``confirmation_wave`` read against the
    tensor product of the atoms' bras (vectors over their spin bases), first atom outermost, as W is laid out."""
    return (wave @ reduce(np.multiply.outer, bras, np.ones(())).ravel()).tolist()


def backward_propagate(
    network: Network,
    confirmation: Bra,
    atom_bras: Mapping[str, Bra] | None = None,
    ow_amplitudes: Mapping[str, float] | None = None,
) -> EchoReport:
    """Read a terminal's confirmation wave against the caller's bras and filter at each emitter.

    ``confirmation`` must be a photon-sector bra supported on exactly one
    terminal symbol (a detector's input or a box marker); its coefficient
    scales the terminal's kept wave (``confirmation_wave``), so no walk runs
    here.  ``atom_bras`` maps each atom-spin subsystem to the spin component
    of the confirmation wave (defaults to the blocking spin for the atom of
    an anchoring box); each photon source's row of the wave is contracted
    with their tensor product.  Level coefficients are implied: excited for
    the anchoring box's atom, ground otherwise.

    ``ow_amplitudes`` optionally overrides, per emitter id, the offer-wave
    amplitude the anchoring absorber saw, used only for the bookkeeping view
    in ``emitter_amplitudes``; it defaults to the modulus of the backward
    sector amplitude, which equals the arriving offer-wave modulus.
    """
    plan = network._plan
    atom_bras = dict(atom_bras or {})
    ow_amplitudes = dict(ow_amplitudes or {})

    if confirmation.space != network.subsystems[:1]:
        raise ContractError("confirmation bra must live on the photon subsystem alone")
    if len(confirmation) != 1:
        raise ContractError("confirmation bra must be anchored at exactly one symbol")
    ((anchor_symbol,), coefficient), = confirmation.terms.items()
    terminal = plan.terminals.get(anchor_symbol)
    if terminal is None:
        raise ContractError(f"confirmation anchored at non-terminal symbol {anchor_symbol!r}")
    anchor_box = plan.boxes.get(terminal)
    unknown = atom_bras.keys() - plan.atoms.keys()
    if unknown:
        raise StructuralError(f"confirmation bras for unknown atoms {sorted(unknown)}")

    # each atom's bra as a vector over its spin basis
    vectors = []
    for spec in (network.subsystems[i] for i in plan.atoms.values()):
        spin = atom_bras.get(spec.id)
        if spin is None:
            if anchor_box is not None and anchor_box.atom == spec.id:
                spin = unit((spec,), (anchor_box.blocking,), bra=True)
            else:
                raise ContractError(f"no confirmation bra supplied for atom {spec.id!r}")
        if spin.space != (spec,):
            raise StructuralError(f"confirmation bra for {spec.id!r} is on the wrong space")
        atom_bras[spec.id] = spin
        vectors.append(np.zeros(len(spec.basis), dtype=complex))
        vectors[-1][spin._codes] = spin._amps

    # per-sector amplitudes at the sources
    sector: dict[str, complex] = {}
    atom_product = 1.0 + 0j
    for e in plan.atom_sources:
        spin_spec, *level = e.state.space
        ground = tuple(spec.basis[0] for spec in level)  # the box relabel restores it before the source
        a_k = sum(b * e.state.amplitude((s, *ground)) for (s,), b in atom_bras[spin_spec.id].terms.items())
        sector[e.id] = a_k
        atom_product *= a_k

    # the photon sources add coherently: the joint amplitude is the sum of their couplings
    _, wave = confirmation_wave(network, terminal)
    couplings = [coefficient * z for z in _source_couplings(wave, vectors)]
    a_total = sum(couplings)
    for e, s_e in zip(plan.photon_sources, couplings):
        sector[e.id] = s_e / atom_product if abs(atom_product) > 0 else 0j

    emitter_amplitudes = {eid: ow_amplitudes.get(eid, abs(a)) * abs(a) for eid, a in sector.items()}
    group = tuple(e.id for e in plan.photon_sources)
    if len(group) == 1 and group[0] in ow_amplitudes:
        group_ow = float(ow_amplitudes[group[0]])
    else:
        group_ow = abs(sum(sector[eid] for eid in group))
    return EchoReport(
        emitter_amplitudes=emitter_amplitudes, sector_amplitudes=sector, photon_group=group,
        photon_group_ow=group_ow, amplitude=a_total, weight=abs(a_total) ** 2,
    )


# -- the two-source (Hanbury-Twiss style) variant -----------------------------


def two_laser_variant(network: Network) -> Network:
    """Replace (photon emitter + first beam splitter) by two sources feeding
    the splitter's outputs directly with the same amplitudes.

    The photon subsystem is shared: the transferred quantum has no identity
    beyond the boundary conditions it satisfies, so the two sources emit into
    one path space and the backward pass filters at each source against its
    own component.
    """
    emitters = network.photon_emitters()
    if len(emitters) != 1:
        raise ContractError("two-source variant needs a single-photon-emitter network")
    emitter = emitters[0]
    support = [(label[0], amp) for label, amp in emitter.state.items()]
    if len(support) != 1:
        raise ContractError("photon emitter must emit a single symbol")
    src_symbol, src_amp = support[0]
    splitter = next(
        (
            e
            for e in network.elements
            if isinstance(e, BeamSplitter) and e.inputs == (src_symbol,)
        ),
        None,
    )
    if splitter is None:
        raise ContractError("no beam splitter fed exclusively by the photon emitter")

    photon = network.photon
    out0, out1 = splitter.outputs
    new_emitters = []
    for sym, factor in ((out0, _R), (out1, _T)):
        state = unit((photon,), (sym,), src_amp * factor)
        new_emitters.append(Emitter(id=f"{emitter.id}-{sym}", rank=emitter.rank, state=state))
    elements = tuple(
        e for e in network.elements if e.id not in (emitter.id, splitter.id)
    ) + tuple(new_emitters)
    return Network(
        name=f"{network.name}-two-laser",
        subsystems=network.subsystems,
        elements=elements,
        two_source=True,
    )


# -- description-file (de)serialization ---------------------------------------

_SCHEMA = 1


def _ket_to_json(state: Ket | Bra) -> list[dict]:
    out = []
    for label, amp in state.items():
        out.append(
            {
                "label": {spec.id: sym for spec, sym in zip(state.space, label)},
                "re": amp.real,
                "im": amp.imag,
            }
        )
    return out


_REQUIRED = object()
_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a boolean": lambda v: isinstance(v, bool),
    "an object": lambda v: isinstance(v, Mapping),
    "a list": lambda v: isinstance(v, list),
}
_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean", int: "an integer",
               float: "a number", type(None): "null"}


def _typed(where: str, name: str, value, kind: str):
    """``value`` if it is of the JSON ``kind``; else a one-line ``ValidationError``."""
    if not _KINDS[kind](value):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise ValidationError(f"{where}: field {name} must be {kind}, not {got}")
    return value


def _field(where: str, data: Mapping, key: str, kind: str, default=_REQUIRED):
    """``data[key]`` of the JSON ``kind``; ``default`` when given and the key is absent."""
    if key not in data:
        if default is _REQUIRED:
            raise ValidationError(f"{where}: field {key!r} is missing")
        return default
    return _typed(where, repr(key), data[key], kind)


def _items(where: str, data: Mapping, key: str, kind: str) -> list:
    """The list ``data[key]``, each item of the JSON ``kind``."""
    return [_typed(where, f"{key!r} item {i}", v, kind) for i, v in enumerate(_field(where, data, key, "a list"))]


_MAX_MODULUS = 1e150  # its square stays finite, even after two sources add coherently


def _finite(eid: str, re, im) -> complex:
    try:
        z = complex(re, im)
    except OverflowError:  # an integer past the float range
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"element {eid!r} has a non-finite amplitude {z!r}")
    if math.hypot(z.real, z.imag) > _MAX_MODULUS:
        raise ValidationError(f"element {eid!r} has an amplitude {z!r} too large to square")
    return z


def _ket_from_json(eid: str, space: Space, params: Mapping, key: str, bra: bool = False) -> Ket | Bra:
    """The ket (or bra) in field ``key`` of element ``eid``: each label names a
    basis symbol of every subsystem in ``space``."""
    terms: dict[Label, complex] = {}
    for i, entry in enumerate(_items(f"element {eid!r}", params, key, "an object")):
        where = f"element {eid!r}: field {key!r} item {i}"
        symbols = _field(where, entry, "label", "an object")
        label = tuple(_field(f"{where} label", symbols, spec.id, "a string") for spec in space)
        terms[label] = _finite(eid, _field(where, entry, "re", "a number"), _field(where, entry, "im", "a number", 0.0))
    try:
        return (Bra if bra else Ket)(space, terms)
    except StructuralError as err:  # a symbol outside its basis, a subsystem named twice
        raise ValidationError(f"element {eid!r}: field {key!r}: {err}") from err


# each element variant a description file names, and the class it builds
_VARIANTS = {
    "emitter": Emitter, "beam-splitter": BeamSplitter, "mirror": Mirror, "atom-box": AtomBox, "detector": Detector
}


def network_to_dict(network: Network) -> dict:
    """The description of ``network``: a non-emitter's ``params`` are its fields after ``id`` and ``rank``."""
    variant_of = {cls: name for name, cls in _VARIANTS.items()}
    elements = []
    for e in network.ordered():
        if isinstance(e, Emitter):
            params = {"subsystems": [s.id for s in e.state.space], "state": _ket_to_json(e.state)}
        else:
            params = {}
            for f in fields(e)[2:]:
                value = getattr(e, f.name)
                if f.name == "phase":
                    value = {"re": complex(value).real, "im": complex(value).imag}
                params[f.name] = list(value) if isinstance(value, tuple) else value
        elements.append({"id": e.id, "rank": e.rank, "variant": variant_of[type(e)], "params": params})

    produced = _symbol_table(network)[0]
    edges = [
        {"symbol": sym, "from": produced[sym][-1].id, "to": e.id}
        for e in network.ordered()
        for sym in _ports(e)[0]
        if sym in produced
    ]

    return {
        "schema": _SCHEMA,
        "name": network.name,
        "two_source": network.two_source,
        "subsystems": [
            {"id": s.id, "kind": s.kind, "basis": list(s.basis)} for s in network.subsystems
        ],
        "elements": elements,
        "edges": edges,
    }


def network_from_dict(data: Mapping) -> Network:
    """Build and validate a network; a malformed description is a ``ValidationError``."""
    if not isinstance(data, Mapping):
        raise ValidationError("network description must be a JSON object")
    try:
        network = _parse_network(data)
    except (TypeError, ValueError, AttributeError) as err:
        raise ValidationError(f"malformed network description: {err}") from err
    if network._diagnostics:
        raise ValidationError(
            "network description failed validation: " + "; ".join(map(str, network._diagnostics))
        )
    return network


def _param(eid: str, where: str, params: Mapping, name: str):
    """Field ``name`` of a non-emitter element, read from its ``params``."""
    if name in ("inputs", "outputs"):
        return tuple(_items(where, params, name, "a string"))
    if name == "phase":
        phase = _field(where, params, "phase", "an object", {"re": 1.0, "im": 0.0})
        return _finite(eid, *(_field(f"{where} phase", phase, key, "a number") for key in ("re", "im")))
    return _field(where, params, name, "a string")


def _parse_network(data: Mapping) -> Network:
    """The network a description holds; every field is type-checked as it is read."""
    if data.get("schema", _SCHEMA) != _SCHEMA:
        raise ValidationError(f"unsupported network schema {data.get('schema')!r}")
    top = "network description"
    subsystems = []
    for i, s in enumerate(_items(top, data, "subsystems", "an object")):
        sid = _field(f"subsystem #{i}", s, "id", "a string")
        where = f"subsystem {sid!r}"
        kind, basis = _field(where, s, "kind", "a string"), _items(where, s, "basis", "a string")
        subsystems.append(SubsystemSpec(sid, kind, tuple(basis)))
    by_id = {s.id: s for s in subsystems}
    elements: list[Element] = []
    for i, item in enumerate(_items(top, data, "elements", "an object")):
        eid = _field(f"element #{i}", item, "id", "a string")
        where = f"element {eid!r}"
        variant = _field(where, item, "variant", "a string")
        params = _field(where, item, "params", "an object", {})
        rank = _field(where, item, "rank", "an integer")
        cls = _VARIANTS.get(variant)
        if cls is Emitter:
            sids = _items(where, params, "subsystems", "a string")
            for i, sid in enumerate(sids):
                if sid not in by_id:
                    raise ValidationError(f"{where}: field 'subsystems' item {i} {sid!r} is not a declared subsystem")
            space = tuple(by_id[sid] for sid in sids)
            state = _ket_from_json(eid, space, params, "state")
            # older files carry a confirmation filter; the backward pass uses the dual of the state
            if "filter" in params:
                cw = _ket_from_json(eid, space, params, "filter", bra=True)
                if not approx_equal(cw, dual(state)):
                    raise ValidationError(f"emitter {eid!r}: a filter must be the dual of the emitted state")
            elements.append(Emitter(eid, rank, state))
        elif cls is not None:
            elements.append(cls(eid, rank, *(_param(eid, where, params, f.name) for f in fields(cls)[2:])))
        else:
            raise ValidationError(f"unknown element variant {variant!r}")
    return Network(
        name=_field(top, data, "name", "a string", "unnamed"),
        subsystems=tuple(subsystems),
        elements=tuple(elements),
        two_source=_field(top, data, "two_source", "a boolean", False),
    )


def save_network(network: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(network), indent=2, sort_keys=True))


def load_network(path: str | Path) -> Network:
    """Read a description file; any failure to read or parse it is a ``ValidationError``."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:  # ValueError covers JSON and UTF-8 decoding
        raise ValidationError(f"cannot read network file {str(path)!r}: {err}") from err
    return network_from_dict(data)
