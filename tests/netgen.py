"""Seeded random networks for property tests, and edited builtin
descriptions for the validator's boundary tests."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from tisim.amplitudes import Ket, SubsystemSpec, tensor, unit
from tisim.network import (
    AtomBox,
    BeamSplitter,
    Detector,
    Emitter,
    Mirror,
    Network,
    network_from_dict,
    network_to_dict,
    two_laser_variant,
)
from tisim.scenarios import ev_bomb_network, hardy_network, qle_network


def random_network(rng: np.random.Generator, index: int) -> Network:
    """A random layered interferometer with 1-3 splitters and 0-2 boxed atoms.

    A splitter may merge two open paths.  Boxes sit between the splitters or
    after the last one; an atom that already has a box may get a second one,
    which shares its level subsystem.
    """
    n_bs = int(rng.integers(1, 4))
    n_atoms = int(rng.integers(0, 3))
    n_boxes = n_atoms + int(n_atoms > 0 and rng.random() < 0.5)

    counter = 0

    def new_sym() -> str:
        nonlocal counter
        counter += 1
        return f"p{counter}"

    frontier = ["p0"]
    symbols = ["p0"]
    elements: list = []
    rank = 1
    specs: list[SubsystemSpec] = []
    emitters: list[Emitter] = []
    atoms: list[tuple[str, str]] = []  # (spin id, level id) of each atom
    markers: list[str] = []
    box_paths: set[str] = set()

    def add_box() -> None:
        nonlocal rank
        open_paths = [s for s in frontier if s not in box_paths]
        if not open_paths:
            return
        path = open_paths[int(rng.integers(len(open_paths)))]
        box_paths.add(path)
        if len(atoms) < n_atoms:
            a = len(atoms)
            spin = SubsystemSpec(f"spin{a}", "atom-spin", ("+", "-"))
            level = SubsystemSpec(f"level{a}", "atom-level", ("0", "1"))
            raw = rng.normal(size=4)
            up, down = complex(raw[0], raw[1]), complex(raw[2], raw[3])
            nrm = math.sqrt(abs(up) ** 2 + abs(down) ** 2)
            state = tensor(
                Ket((spin,), {("+",): up / nrm, ("-",): down / nrm}),
                unit((level,), ("0",)),
            )
            emitters.append(Emitter(f"src{a}", 0, state))
            atoms.append((spin.id, level.id))
            specs.extend((spin, level))
            spin_id, level_id = atoms[-1]
        else:
            spin_id, level_id = atoms[int(rng.integers(len(atoms)))]
        blocking = "+" if rng.random() < 0.5 else "-"
        marker = f"box{len(markers)}"
        elements.append(AtomBox(marker, rank, spin_id, blocking, path, level_id))
        rank += 1
        markers.append(marker)

    for k in range(n_bs):
        while len(markers) < n_boxes and rng.random() < 0.3:
            add_box()
        ins = [frontier.pop(int(rng.integers(len(frontier))))]
        if frontier and rng.random() < 0.35:
            ins.append(frontier.pop(int(rng.integers(len(frontier)))))
        o1, o2 = new_sym(), new_sym()
        symbols += [o1, o2]
        elements.append(BeamSplitter(f"bs{k}", rank, tuple(ins), (o1, o2)))
        rank += 1
        frontier += [o1, o2]
        if rng.random() < 0.4:
            sym2 = frontier.pop(int(rng.integers(len(frontier))))
            o3 = new_sym()
            symbols.append(o3)
            phase = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            elements.append(Mirror(f"m{k}", rank, sym2, o3, phase))
            rank += 1
            frontier.append(o3)
    for _ in range(n_boxes - len(markers)):
        add_box()

    for i, sym in enumerate(sorted(frontier)):
        elements.append(Detector(f"det{i}", rank, sym))

    photon = SubsystemSpec("photon", "photon-path", tuple(symbols + markers))
    elements.append(Emitter("L", 0, unit((photon,), ("p0",))))
    elements.extend(emitters)
    return Network(f"random-{index}", (photon, *specs), tuple(elements))


def _random_ket(rng: np.random.Generator, space, photon_symbols=()) -> Ket:
    """A random normalised ket over ``space``: Gaussian amplitudes on a random
    subset of the labels whose photon symbol is in ``photon_symbols`` and whose
    levels are at ground, so some spin configurations are never emitted."""
    slots = [photon_symbols if s.kind == "photon-path" else s.basis[:1] if s.kind == "atom-level" else s.basis for s in space]
    labels = list(itertools.product(*slots))
    labels = [label for label, kept in zip(labels, rng.random(len(labels)) < 0.6) if kept] or labels[:1]
    raw = [complex(*rng.normal(size=2)) for _ in labels]
    nrm = math.sqrt(sum(abs(z) ** 2 for z in raw))
    return Ket(tuple(space), {label: z / nrm for label, z in zip(labels, raw)})


def reshaped_networks(shape: str, seed: int, count: int) -> list[Network]:
    """``count`` ``random_network`` outputs with their atoms emitted in another shape.

    ``"one-source"``: every atom of a network with two comes from one source
    ``atoms``, emitting a random normalised state over all their spins.
    ``"entangled-laser"``: the laser ``L`` emits its photon symbol together with
    the first atom (declared next to the photon) in a random normalised state,
    in place of that atom's source.  Levels are at ground.  ``random_network``
    draws from a generator of its own, so its draws are what they would be
    without the reshaping.
    """
    nets_rng, states_rng = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])
    out: list[Network] = []
    index = 0
    while len(out) < count:
        net = random_network(nets_rng, index)
        index += 1
        atoms = [e for e in net.emitters() if e.id != "L"]
        if shape == "one-source" and len(atoms) == 2:
            source = Emitter("atoms", 0, _random_ket(states_rng, net.subsystems[1:]))
            elements = tuple(e for e in net.elements if e not in atoms) + (source,)
        elif shape == "entangled-laser" and atoms:
            laser = net.element("L")
            space = (net.photon, *atoms[0].state.space)
            state = _random_ket(states_rng, space, tuple(label[0] for label in laser.state.terms))
            elements = tuple(Emitter("L", 0, state) if e is laser else e for e in net.elements if e is not atoms[0])
        else:
            continue
        out.append(dataclasses.replace(net, name=f"{net.name}-{shape}", elements=elements))
    return out


def qle_with_mirror(re, im=0.0) -> dict:
    """The qle description with a mirror ``M``: v -> w, phase ``re + i im``, in front of S2."""
    data = network_to_dict(qle_network())
    data["subsystems"][0]["basis"].append("w")
    for item in data["elements"]:
        if item["id"] == "S2":
            item["rank"] = 4
            item["params"]["inputs"] = ["u", "w"]
        elif item["variant"] == "detector":
            item["rank"] = 5
    params = {"input": "v", "output": "w", "phase": {"re": re, "im": im}}
    data["elements"].append({"id": "M", "rank": 3, "variant": "mirror", "params": params})
    return data


def qle_with_three_outputs() -> dict:
    """The qle description with S2 putting out ``[d, c, x]``, ``x`` watched by detector ``X``."""
    data = network_to_dict(qle_network())
    data["subsystems"][0]["basis"].append("x")
    for item in data["elements"]:
        if item["id"] == "S2":
            item["params"]["outputs"] = ["d", "c", "x"]
    data["elements"].append({"id": "X", "rank": 4, "variant": "detector", "params": {"input": "x"}})
    return data


def hardy_emitting_excited_levels() -> Network:
    """hardy whose atom source also emits the excited level, so terms that
    differ only in a level would read alike (same photon, same atoms)."""
    hardy = hardy_network()
    photon, spin, _ = hardy.subsystems
    level = SubsystemSpec("atom1-level", "atom-level", ("g", "e"))
    state = Ket((spin, level), {("+", "g"): 0.5, ("-", "g"): 0.5, ("+", "e"): 0.5j, ("-", "e"): -0.5})
    elements = tuple(Emitter(e.id, e.rank, state) if e.id == "atom1-source" else e for e in hardy.elements)
    return dataclasses.replace(hardy, subsystems=(photon, spin, level), elements=elements)


def qle_emitting_level_first() -> Network:
    """qle whose ``atom1-source`` lists its subsystems as ``(atom1-level, atom1)``,
    against their declared order ``(atom1, atom1-level)``."""
    qle = qle_network()
    source = qle.element("atom1-source")
    spin, level = source.state.space
    state = Ket((level, spin), {(g, s): amp for (s, g), amp in source.state.items()})
    elements = tuple(Emitter(e.id, e.rank, state) if e is source else e for e in qle.elements)
    return dataclasses.replace(qle, elements=elements)


def hardy_two_source_unequal_photon_spaces() -> Network:
    """hardy fed by two photon emitters, ``L-u`` over ``(photon,)`` and ``L-v`` over
    ``(photon, atom1, atom1-level)``: ``L-v`` takes over the atom source's emission."""
    twin = two_laser_variant(hardy_network())
    atom_source = twin.element("atom1-source")
    elements = tuple(
        Emitter(e.id, e.rank, tensor(e.state, atom_source.state)) if e.id == "L-v" else e
        for e in twin.elements
        if e is not atom_source
    )
    return dataclasses.replace(twin, elements=elements)


def qle_emitting_undeclared_spin() -> Network:
    """qle whose ``atom1-source`` emits an ``atom1`` over ``("+", "-", "x")``, not its declared ``("+", "-")``."""
    qle = qle_network()
    source = qle.element("atom1-source")
    spin, level = source.state.space
    wide = SubsystemSpec(spin.id, spin.kind, (*spin.basis, "x"))
    state = Ket((wide, level), dict(source.state.items()))
    elements = tuple(Emitter(e.id, e.rank, state) if e is source else e for e in qle.elements)
    return dataclasses.replace(qle, elements=elements)


def qle_with_spin_symbols(up: str, down: str) -> Network:
    """qle with each atom's spin symbols ``+`` and ``-`` renamed ``up`` and ``down``."""
    data = network_to_dict(qle_network())
    rename = {"+": up, "-": down}
    spins = {s["id"] for s in data["subsystems"] if s["kind"] == "atom-spin"}
    for spec in data["subsystems"]:
        if spec["id"] in spins:
            spec["basis"] = [rename[sym] for sym in spec["basis"]]
    for item in data["elements"]:
        params = item["params"]
        if item["variant"] == "atom-box":
            params["blocking"] = rename[params["blocking"]]
        for term in params.get("state", ()):
            term["label"] = {k: rename[v] if k in spins else v for k, v in term["label"].items()}
    return network_from_dict(data)


def definite_spins(n: int) -> Network:
    """A laser on one detector beside ``n`` atoms, each emitted in spin ``+``: one
    term, but a register of 2**n spin configurations."""
    photon = SubsystemSpec("photon", "photon-path", ("s",))
    spins = [SubsystemSpec(f"atom{k}", "atom-spin", ("+", "-")) for k in range(n)]
    elements = [Emitter("L", 0, unit((photon,), ("s",))), Detector("D", 1, "s")]
    elements += [Emitter(f"atom{k}-source", 0, unit((spin,), ("+",))) for k, spin in enumerate(spins)]
    return Network(f"definite-spins-{n}", (photon, *spins), tuple(elements))


def qle_two_atom_source() -> Network:
    """qle whose two atoms come from one source ``atoms-source`` emitting
    (|+0+0> + |-0-0>)/sqrt(2) over ``(atom1, atom1-level, atom2, atom2-level)``."""
    qle = qle_network()
    space = qle.subsystems[1:]
    state = Ket(space, {("+", "0", "+", "0"): 1 / math.sqrt(2.0), ("-", "0", "-", "0"): 1 / math.sqrt(2.0)})
    elements = tuple(e for e in qle.elements if not e.id.startswith("atom")) + (Emitter("atoms-source", 0, state),)
    return dataclasses.replace(qle, elements=elements)


def hardy_entangled_laser() -> Network:
    """hardy whose laser ``L`` emits (|s,+,0> + i|s,-,0>)/sqrt(2) over
    ``(photon, atom1, atom1-level)``, with no separate atom source: two terms
    carry the one photon symbol ``s``."""
    hardy = hardy_network()
    state = Ket(hardy.subsystems, {("s", "+", "0"): 1 / math.sqrt(2.0), ("s", "-", "0"): 1j / math.sqrt(2.0)})
    elements = tuple(Emitter("L", 0, state) if e.id == "L" else e for e in hardy.elements if e.id != "atom1-source")
    return dataclasses.replace(hardy, elements=elements)


def loop_network() -> Network:
    """A laser into a splitter ``S1`` whose second input ``a`` is put out by a later
    splitter ``S2``, fed from ``S1``: the element cycle S1 -> S2 -> S1.  Its ranks
    cannot rise along both edges, so ``S1`` consuming ``a`` before ``S2`` produces it
    is the one invariant it breaks."""
    photon = SubsystemSpec("photon", "photon-path", ("s", "a", "b", "x", "y"))
    return Network(
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


def rewired_networks(seed: int, count: int) -> list[Network]:
    """``count`` builtin and ``random_network`` networks with their wiring redrawn.

    Each splitter, mirror, detector and box is rewired with probability 0.3: every
    port (a splitter's inputs and outputs, a mirror's input and output, a detector's
    input, a box's path) is redrawn from the photon basis and two symbols outside it
    (``q0``, ``q1``) with probability 0.5.  Each such element also draws a new rank
    (0 to one past the highest) with probability 0.3, and takes another element's id
    with probability 0.02.  So many results have element cycles, and some take or
    put out symbols outside the basis.
    """
    rng = np.random.default_rng([seed, 2])
    builtins = [hardy_network(), qle_network(), ev_bomb_network(True), ev_bomb_network(False)]
    builtins.append(two_laser_variant(builtins[1]))
    out: list[Network] = []
    for index in range(count):
        net = builtins[index] if index < len(builtins) else random_network(rng, index)
        pool = (*net.photon.basis, "q0", "q1")
        top = max(e.rank for e in net.elements) + 1
        redraw = lambda sym: str(rng.choice(pool)) if rng.random() < 0.5 else sym
        elements = []
        for e in net.elements:
            if not isinstance(e, Emitter) and rng.random() < 0.3:
                if isinstance(e, BeamSplitter):
                    e = dataclasses.replace(e, inputs=tuple(map(redraw, e.inputs)), outputs=tuple(map(redraw, e.outputs)))
                elif isinstance(e, Mirror):
                    e = dataclasses.replace(e, input=redraw(e.input), output=redraw(e.output))
                elif isinstance(e, Detector):
                    e = dataclasses.replace(e, input=redraw(e.input))
                else:
                    e = dataclasses.replace(e, path=redraw(e.path))
                if rng.random() < 0.3:
                    e = dataclasses.replace(e, rank=int(rng.integers(0, top + 1)))
                if rng.random() < 0.02:
                    e = dataclasses.replace(e, id=net.elements[int(rng.integers(len(net.elements)))].id)
            elements.append(e)
        out.append(dataclasses.replace(net, name=f"{net.name}-rewired-{index}", elements=tuple(elements)))
    return out
