"""A dense reference model of a network, for checking the engine against.

The state is one complex numpy array with an axis per declared subsystem
(photon, then each atom's spin and level), indexed by basis position.  Each
element acts on its own axes only: a splitter or mirror is a small matrix on
the photon axis, a box swaps two slices of its (photon, spin, level) axes, and
a measurement basis is a 2x2 matrix on a spin axis.  The model reads element
parameters and emitted amplitudes; it uses no tisim state operation and no
tisim propagation, so a fault in the shared element maps cannot cancel out.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from tisim.network import AtomBox, BeamSplitter, Detector, Emitter, Mirror, Network

R = 1j / math.sqrt(2.0)  # reflection
T = 1.0 / math.sqrt(2.0)  # transmission


def _axis(network: Network, subsystem: str) -> int:
    return next(i for i, s in enumerate(network.subsystems) if s.id == subsystem)


def _pos(network: Network, subsystem: str, symbol: str) -> int:
    return network.subsystems[_axis(network, subsystem)].basis.index(symbol)


def emitter_array(e: Emitter) -> np.ndarray:
    """An emitter's amplitudes, with an axis per subsystem it emits, in its order."""
    local = np.zeros([len(s.basis) for s in e.state.space], dtype=complex)
    for label, amp in e.state.items():
        local[tuple(s.basis.index(sym) for s, sym in zip(e.state.space, label))] += amp
    return local


def initial_state(network: Network) -> np.ndarray:
    """Every emitter's amplitudes as one array; photon emitters add coherently.

    A photon emitter may emit atoms beside the photon; the photon emitters of
    a valid network all emit on one space, so their arrays add."""
    photon = network.subsystems[0]
    photon_amps, factors, order = 0.0, [], []
    for e in network.emitters():
        local = emitter_array(e)
        if any(s.id == photon.id for s in e.state.space):
            photon_amps, photon_space = photon_amps + local, [s.id for s in e.state.space]
        else:
            factors.append(local)
            order += [s.id for s in e.state.space]
    state, order = photon_amps, photon_space + order
    for local in factors:
        state = np.multiply.outer(state, local)
    return np.transpose(state, [order.index(s.id) for s in network.subsystems])


def _on_axis(matrix: np.ndarray, state: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(matrix, state, axes=([1], [axis])), 0, axis)


def _photon_matrix(network: Network, routes) -> np.ndarray:
    """Identity on the photon axis except the columns of the routed inputs."""
    basis = network.subsystems[0].basis
    u = np.eye(len(basis), dtype=complex)
    for sym_in, branches in routes.items():
        u[:, basis.index(sym_in)] = 0.0
        for sym_out, factor in branches:
            u[basis.index(sym_out), basis.index(sym_in)] += factor
    return u


def _box(network: Network, state: np.ndarray, box: AtomBox) -> np.ndarray:
    """Swap (path, blocking, ground) with (marker, blocking, excited)."""
    axes = (0, _axis(network, box.atom), _axis(network, box.level))
    blocking = _pos(network, box.atom, box.blocking)

    def at(photon_sym: str, level_pos: int):
        index = [slice(None)] * state.ndim
        for axis, pos in zip(axes, (network.subsystems[0].basis.index(photon_sym), blocking, level_pos)):
            index[axis] = pos
        return tuple(index)

    out = state.copy()
    out[at(box.marker, 1)] = state[at(box.path, 0)]
    out[at(box.path, 0)] = state[at(box.marker, 1)]
    return out


def final_state(network: Network) -> np.ndarray:
    """The emitted state after every element, in rank order (absorbed photons sit on markers)."""
    state = initial_state(network)
    for e in sorted(network.elements, key=lambda e: (e.rank, e.id)):
        if isinstance(e, BeamSplitter):
            routes = {e.inputs[0]: [(e.outputs[0], R), (e.outputs[1], T)]}
            if len(e.inputs) == 2:
                routes[e.inputs[1]] = [(e.outputs[0], T), (e.outputs[1], R)]
            state = _on_axis(_photon_matrix(network, routes), state, 0)
        elif isinstance(e, Mirror):
            state = _on_axis(_photon_matrix(network, {e.input: [(e.output, complex(e.phase))]}), state, 0)
        elif isinstance(e, AtomBox):
            state = _box(network, state, e)
    return state


def basis_rows(kind: str, theta: float, phi: float) -> np.ndarray | None:
    """Measurement eigenstates in the z basis, one per row (None for z)."""
    if kind == "z":
        return None
    if kind == "y":
        theta, phi = math.pi / 2, math.pi / 2
    c, s, e = math.cos(theta / 2), math.sin(theta / 2), complex(math.cos(phi), math.sin(phi))
    return np.array([[c, e * s], [s, -e * c]], dtype=complex)


def distribution(network: Network, context) -> dict[tuple, float]:
    """Born weight per ``(photon terminal, ((atom, symbol), ...), excited atom)``.

    The atom of an absorbing box keeps its z symbol; every other atom is
    measured in the context's basis.  Level axes are summed over.
    """
    final = final_state(network)
    photon = network.subsystems[0]
    terminal = {d.input: (d.id, None) for d in network.elements if isinstance(d, Detector)}
    terminal.update({b.marker: (b.id, b.atom) for b in network.elements if isinstance(b, AtomBox)})
    atoms = [(i, s) for i, s in enumerate(network.subsystems) if s.kind == "atom-spin"]
    levels = tuple(i for i, s in enumerate(network.subsystems) if s.kind == "atom-level")
    out: dict[tuple, float] = {}
    for p, sym in enumerate(photon.basis):
        amps = final[p]
        if sym not in terminal:
            assert np.abs(amps).max() <= 1e-12, f"photon mass left on non-terminal symbol {sym!r}"
            continue
        name, excited = terminal[sym]
        symbols = []
        for axis, spec in atoms:
            basis = context.basis_for(spec.id)
            rows = None if spec.id == excited else basis_rows(basis.kind, basis.theta, basis.phi)
            if rows is None:
                symbols.append(spec.basis)
            else:
                amps = _on_axis(rows.conj(), amps, axis - 1)
                symbols.append(("y+", "y-") if basis.kind == "y" else ("n+", "n-"))
        weights = (np.abs(amps) ** 2).sum(axis=tuple(a - 1 for a in levels))
        for index in itertools.product(*(range(len(s)) for s in symbols)):
            measured = tuple((spec.id, syms[j]) for (_, spec), syms, j in zip(atoms, symbols, index))
            out[(name, measured, excited)] = float(weights[index])
    return out


def detector_amplitude(network: Network, final: np.ndarray, detector: str, z_symbols: tuple[str, ...]) -> complex:
    """Amplitude in ``final`` of the photon at ``detector`` with the atoms in
    the given z spins and every level at ground."""
    index = [0] * final.ndim
    sym = next(d.input for d in network.elements if isinstance(d, Detector) and d.id == detector)
    index[0] = network.subsystems[0].basis.index(sym)
    spins = [i for i, s in enumerate(network.subsystems) if s.kind == "atom-spin"]
    for axis, z in zip(spins, z_symbols):
        index[axis] = network.subsystems[axis].basis.index(z)
    return complex(final[tuple(index)])
