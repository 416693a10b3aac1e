"""Sparse bra/ket linear algebra over labeled tensor-product bases.

States are sparse maps from basis labels to complex amplitudes.  A label
assigns one symbol to every declared subsystem, in declaration order, so a
photon-and-spin space stores the component on path ``v`` with spin ``+`` under
the key ``("v", "+")``.  Offer waves live in :class:`Ket`; confirmation waves
live in :class:`Bra`, whose stored coefficients follow the dual (conjugated)
convention, so ``inner(dual(k), k)`` is the squared norm of ``k``.

Amplitudes are plain Python complex numbers.  Every amplitude that occurs in
the supported experiments is a product of ``{±1, ±i}`` and powers of
``1/sqrt(2)``, which floating point carries to machine precision at these
circuit depths; equality checks are therefore tolerance-based (``TOL``) and
terms whose modulus falls below ``PRUNE`` are dropped so that exact
destructive interference leaves a literally empty component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import StructuralError, ValidationError

TOL = 1e-12
PRUNE = 1e-14

SUBSYSTEM_KINDS = ("photon-path", "atom-spin", "atom-level")


@dataclass(frozen=True)
class SubsystemSpec:
    """A named subsystem with an ordered basis of opaque symbols.

    The symbols carry no physics here; their meaning (paths, spins, level
    markers) is assigned by the network layer.
    """

    id: str
    kind: str
    basis: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if self.kind not in SUBSYSTEM_KINDS:
            raise ValidationError(f"unknown subsystem kind {self.kind!r}")
        if not self.basis:
            raise ValidationError(f"subsystem {self.id!r} needs at least one basis symbol")
        if len(set(self.basis)) != len(self.basis):
            raise ValidationError(f"subsystem {self.id!r} repeats a basis symbol")


Space = tuple[SubsystemSpec, ...]
Label = tuple[str, ...]


def subsystem_index(space: Space, subsystem: str) -> int:
    for i, spec in enumerate(space):
        if spec.id == subsystem:
            return i
    raise StructuralError(f"unknown subsystem {subsystem!r}")


class _State:
    """Shared sparse-vector behaviour of kets and bras.

    Instances are immutable by convention: no operation mutates its inputs,
    so states are safe to share across concurrent workers.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: Space, terms: Mapping[Label, complex] | None = None):
        space = tuple(space)
        ids = [s.id for s in space]
        if len(set(ids)) != len(ids):
            raise StructuralError(f"duplicate subsystem ids in space: {ids}")
        object.__setattr__(self, "space", space)
        clean: dict[Label, complex] = {}
        if terms:
            for label, amp in terms.items():
                label = tuple(label)
                _check_label(space, label)
                amp = complex(amp)
                if abs(amp) >= PRUNE:
                    clean[label] = amp
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError(f"{type(self).__name__} is immutable")

    def amplitude(self, label: Label) -> complex:
        return self.terms.get(tuple(label), 0j)

    def items(self) -> Iterator[tuple[Label, complex]]:
        return iter(sorted(self.terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"{type(self).__name__}(0)"
        bits = []
        for label, amp in sorted(self.terms.items()):
            bits.append(f"({_fmt_complex(amp)})|{','.join(label)}⟩")
        body = " + ".join(bits)
        if isinstance(self, Bra):
            body = body.replace("|", "⟨").replace("⟩", "|")
        return f"{type(self).__name__}({body})"


class Ket(_State):
    """Sparse offer-wave vector."""


class Bra(_State):
    """Sparse confirmation-wave vector (dual-side coefficients)."""


def _check_label(space: Space, label: Label) -> None:
    if len(label) != len(space):
        raise StructuralError(f"label {label} does not cover the {len(space)}-subsystem space")
    for sym, spec in zip(label, space):
        if sym not in spec.basis:
            raise StructuralError(f"symbol {sym!r} is not in the basis of subsystem {spec.id!r}")


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) < PRUNE:
        return f"{z.real:g}"
    if abs(z.real) < PRUNE:
        return f"{z.imag:g}i"
    return f"{z.real:g}{z.imag:+g}i"


def _require_same_space(a: _State, b: _State) -> None:
    if a.space != b.space:
        raise StructuralError("operands are defined over different subsystem spaces")


def unit(space: Space, label: Label, amplitude: complex = 1.0, *, bra: bool = False) -> Ket | Bra:
    """A single-term state with the given amplitude."""
    cls = Bra if bra else Ket
    return cls(space, {tuple(label): amplitude})


def tensor(a, b):
    """Tensor product of two states over disjoint subsystem sets."""
    if type(a) is not type(b):
        raise StructuralError("cannot tensor a ket with a bra")
    overlap = {s.id for s in a.space} & {s.id for s in b.space}
    if overlap:
        raise StructuralError(f"overlapping subsystem ids: {sorted(overlap)}")
    terms: dict[Label, complex] = {}
    for la, va in a.terms.items():
        for lb, vb in b.terms.items():
            terms[la + lb] = va * vb
    return type(a)(a.space + b.space, terms)


def add(a, b):
    """Term-wise sum; exact cancellations are pruned to nothing."""
    if type(a) is not type(b):
        raise StructuralError("cannot add a ket and a bra")
    _require_same_space(a, b)
    terms = dict(a.terms)
    for label, amp in b.terms.items():
        terms[label] = terms.get(label, 0j) + amp
    return type(a)(a.space, terms)


def scale(c: complex, a):
    return type(a)(a.space, {label: c * amp for label, amp in a.terms.items()})


def norm_sq(a) -> float:
    return float(sum(abs(amp) ** 2 for amp in a.terms.values()))


def dual(a):
    """Conjugate transpose: offer wave <-> confirmation wave."""
    cls = Bra if isinstance(a, Ket) else Ket
    return cls(a.space, {label: amp.conjugate() for label, amp in a.terms.items()})


def inner(bra: Bra, ket: Ket) -> complex:
    """Contraction ⟨bra|ket⟩.

    The bra already stores dual-side coefficients, so the contraction is a
    plain sum of products over shared labels; ``inner(dual(k), k)`` is real
    and non-negative.
    """
    if not isinstance(bra, Bra) or not isinstance(ket, Ket):
        raise StructuralError("inner expects (Bra, Ket)")
    _require_same_space(bra, ket)
    if len(bra.terms) > len(ket.terms):
        bra, ket = ket, bra  # iterate the smaller one
    return sum(amp * ket.terms.get(label, 0j) for label, amp in bra.terms.items())


def project(a, subsystem: str, symbol: str):
    """Keep only the terms whose ``subsystem`` slot equals ``symbol``.

    Amplitudes are untouched; the result is unnormalized.
    """
    i = subsystem_index(a.space, subsystem)
    if symbol not in a.space[i].basis:
        raise StructuralError(f"symbol {symbol!r} is not in the basis of {subsystem!r}")
    return type(a)(a.space, {l: v for l, v in a.terms.items() if l[i] == symbol})


def rebase(a, subsystem: str, matrix, new_symbols: tuple[str, str]):
    """Re-express a two-symbol subsystem in a rotated basis.

    ``matrix`` rows give the new basis states in terms of the old ones:
    ``|new_j> = sum_k matrix[j, k] |old_k>``.  Ket amplitudes pick up the
    conjugated rows, bra coefficients the rows themselves, so norms are
    preserved for any unitary matrix.
    """
    i = subsystem_index(a.space, subsystem)
    spec = a.space[i]
    if len(spec.basis) != 2:
        raise StructuralError(f"subsystem {subsystem!r} is not two-dimensional")
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValidationError("basis-change matrix must be 2x2")
    if not np.allclose(m @ m.conj().T, np.eye(2), atol=TOL, rtol=0.0):
        raise ValidationError("basis-change matrix is not unitary within 1e-12")
    new_symbols = tuple(new_symbols)
    if len(new_symbols) != 2:
        raise ValidationError("exactly two new basis symbols required")
    coeff = m.conj() if isinstance(a, Ket) else m
    mapping = {
        old: [(new, coeff[j, k]) for j, new in enumerate(new_symbols) if abs(coeff[j, k]) >= PRUNE]
        for k, old in enumerate(spec.basis)
    }
    return _apply_symbol_map(a, i, mapping, SubsystemSpec(spec.id, spec.kind, new_symbols))


def _apply_symbol_map(state, i: int, mapping, spec: SubsystemSpec | None = None):
    """Linear map on slot ``i``: each symbol in ``mapping`` becomes its
    ``(new_symbol, factor)`` branches, summed; other symbols pass unchanged.
    ``spec`` replaces the slot's subsystem when the map changes its basis."""
    space = state.space if spec is None else state.space[:i] + (spec,) + state.space[i + 1 :]
    terms: dict[Label, complex] = {}
    for label, amp in state.terms.items():
        branches = mapping.get(label[i])
        if branches is None:
            terms[label] = terms.get(label, 0j) + amp
            continue
        for sym, factor in branches:
            new_label = label[:i] + (sym,) + label[i + 1 :]
            terms[new_label] = terms.get(new_label, 0j) + factor * amp
    return type(state)(space, terms)


def approx_equal(a, b, tol: float = TOL) -> bool:
    """Term-wise comparison within ``tol`` (spaces must match exactly)."""
    if type(a) is not type(b) or a.space != b.space:
        return False
    for label in set(a.terms) | set(b.terms):
        if abs(a.terms.get(label, 0j) - b.terms.get(label, 0j)) > tol:
            return False
    return True
