"""Sparse bra/ket linear algebra over labeled tensor-product bases.

A label assigns one symbol to every declared subsystem, in declaration order,
so a photon-and-spin space names the component on path ``v`` with spin ``+``
``("v", "+")``.  Offer waves live in :class:`Ket`; confirmation waves live in
:class:`Bra`, whose stored coefficients follow the dual (conjugated)
convention, so ``inner(dual(k), k)`` is the squared norm of ``k``.

States are coded: an int64 array of label codes (the label's mixed-radix
number, one digit per subsystem, the first most significant) and the
amplitudes' real and imaginary float64 parts, in the order the terms arose.
Maps run on the arrays; ``terms`` is a label -> complex dict built on demand.
Only the internal ``_coded`` constructor skips the label checks.

Amplitudes are products of ``{±1, ±i}``, powers of ``1/sqrt(2)`` and emitted
amplitudes; equality checks are tolerance-based (``TOL``) and terms below
``PRUNE`` in modulus are dropped, so exact destructive interference leaves a
literally empty component.  Results are bit-identical to Python complex
arithmetic on any CPU: products are split float64 (``ar*br - ai*bi``,
``ar*bi + ai*br``; numpy's complex multiply and matmul may fuse multiply-adds),
sums go through ``_total``, which starts at +0.0 and adds in order without the
compensation CPython 3.12+ gives the builtin ``sum``, squared moduli are Python's
``abs(z) ** 2`` (``hypot``, then the C library's ``pow``), and the array order
is the order a dict would have received the terms in, so ``norm_sq`` adds in
the same order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
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
    """Shared sparse-vector behaviour of kets and bras (see the module notes).

    Instances are immutable by convention: no operation mutates its inputs,
    so states are safe to share across concurrent workers.
    """

    __slots__ = ("space", "_codec", "_codes", "_re", "_im", "_terms")

    def __init__(self, space: Space, terms: Mapping[Label, complex] | None = None):
        codec = _codec_for(tuple(space))
        clean: dict[int, complex] = {}
        for label, amp in (terms or {}).items():
            code = codec.encode(tuple(label))
            amp = complex(amp)
            if abs(amp) >= PRUNE:
                clean[code] = amp
        amps = np.array(list(clean.values()), dtype=complex)
        self._fill(codec, np.array(list(clean), dtype=np.int64), amps.real, amps.imag)

    def _fill(self, codec: _Codec, codes, re, im) -> None:
        for name, value in zip(_State.__slots__, (codec.space, codec, codes, re, im, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _coded(cls, codec: _Codec, codes: np.ndarray, re: np.ndarray, im: np.ndarray, prune: bool = True):
        """Trusted constructor: ``codes`` must be distinct codes of ``codec``'s
        space.  ``prune=False`` skips the PRUNE check for amplitudes taken
        unchanged from a state."""
        if prune:
            keep = np.hypot(re, im) >= PRUNE  # the hypot of Python's abs(z)
            if np.count_nonzero(keep) < len(keep):
                codes, re, im = codes[keep], re[keep], im[keep]
        state = object.__new__(cls)
        state._fill(codec, codes, re, im)
        return state

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def _amps(self) -> np.ndarray:
        out = np.empty(len(self._codes), dtype=complex)
        out.real, out.imag = self._re, self._im
        return out

    @property
    def terms(self) -> dict[Label, complex]:
        """Label -> amplitude, in array order (built on first use)."""
        if self._terms is None:
            codec = self._codec
            symbols = [table[codec.digit(self._codes, i)].tolist() for i, table in enumerate(codec.symbols)]
            labels = zip(*symbols) if symbols else [()] * len(self)
            object.__setattr__(self, "_terms", dict(zip(labels, self._amps.tolist())))
        return self._terms

    def amplitude(self, label: Label) -> complex:
        return self.terms.get(tuple(label), 0j)

    def items(self) -> Iterator[tuple[Label, complex]]:
        return iter(sorted(self.terms.items()))

    @property
    def is_zero(self) -> bool:
        return not len(self._codes)

    def __len__(self) -> int:
        return len(self._codes)

    def __repr__(self) -> str:
        if not len(self):
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


class _Codec:
    """The mixed-radix label codes of one space."""

    def __init__(self, space: Space):
        ids = [s.id for s in space]
        if len(set(ids)) != len(ids):
            raise StructuralError(f"duplicate subsystem ids in space: {ids}")
        self.space, self.radices = space, tuple(len(s.basis) for s in space)
        self.size = math.prod(self.radices)
        if self.size > np.iinfo(np.int64).max:
            raise StructuralError(f"a space of {self.size} labels does not fit 64-bit label codes")
        self.strides = tuple(math.prod(self.radices[i + 1 :]) for i in range(len(space)))
        self.digit_of = tuple({sym: d for d, sym in enumerate(s.basis)} for s in space)
        self.symbols = tuple(np.array(s.basis, dtype=object) for s in space)

    def encode(self, label: Label) -> int:
        if len(label) != len(self.space):
            raise StructuralError(f"label {label} does not cover the {len(self.space)}-subsystem space")
        code = 0
        for sym, digits, spec, stride in zip(label, self.digit_of, self.space, self.strides):
            if sym not in digits:
                raise StructuralError(f"symbol {sym!r} is not in the basis of subsystem {spec.id!r}")
            code += digits[sym] * stride
        return code

    def digit(self, codes: np.ndarray, i: int) -> np.ndarray:
        return codes // self.strides[i] % self.radices[i]


@lru_cache(maxsize=256)
def _codec_for(space: Space) -> _Codec:
    return _Codec(space)


def _mul(ar, ai, br, bi):
    """Complex product in split float64, rounded as Python's complex multiply."""
    return ar * br - ai * bi, ar * bi + ai * br


def _total(values, start=0.0):
    """``start`` plus each value, left to right (``0j`` for complex sums), uncompensated."""
    for value in values:
        start += value
    return start


def _turn(re: np.ndarray, im: np.ndarray, axis: int, bras: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A linear map along ``axis`` of a dense register, row n of the bras ``f`` giving entry n:
    ``0.0 + f[n,0]·a₀ + f[n,1]·a₁ + …`` in split float64 (``_mul``).  As in ``rebase`` and the
    symbol maps, factors below ``PRUNE`` are skipped and results below it zeroed; as IEEE
    addition of two terms commutes, a row of at most two factors sums as their merge, bit for bit."""
    at = lambda n: (slice(None),) * axis + (n,)
    shape = (*re.shape[:axis], len(bras), *re.shape[axis + 1 :])
    out_re, out_im = np.zeros(shape), np.zeros(shape)
    for n, row in enumerate(bras.tolist()):
        for k, f in enumerate(row):
            if abs(f) >= PRUNE:
                p_re, p_im = _mul(f.real, f.imag, re[at(k)], im[at(k)])
                out_re[at(n)] += p_re
                out_im[at(n)] += p_im
    small = (np.abs(out_re) < PRUNE) & (np.abs(out_im) < PRUNE)  # no other entry's hypot is below PRUNE
    small[small] = np.hypot(out_re[small], out_im[small]) < PRUNE  # the hypot of Python's abs(z)
    out_re[small] = out_im[small] = 0.0
    return out_re, out_im


def _merge(cls, codec: _Codec, codes: np.ndarray, re: np.ndarray, im: np.ndarray):
    """Sum the values of equal codes, from +0.0 in array order; each code
    stays where it first occurred."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)  # first: where each occurs first
    n = len(first)
    if n == len(codes):
        return cls._coded(codec, codes, 0.0 + re, 0.0 + im)
    rank = np.argsort(first)  # the distinct codes in order of first occurrence
    slot = np.empty(n, dtype=np.int64)
    slot[rank] = np.arange(n)
    slot = slot[inverse]
    return cls._coded(codec, codes[first[rank]], np.bincount(slot, re, n), np.bincount(slot, im, n))


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) < PRUNE:
        return f"{z.real:g}"
    if abs(z.real) < PRUNE:
        return f"{z.imag:g}i"
    return f"{z.real:g}{z.imag:+g}i"


def _require_same_space(a: _State, b: _State) -> None:
    if a._codec is not b._codec and a.space != b.space:
        raise StructuralError("operands are defined over different subsystem spaces")


def unit(space: Space, label: Label, amplitude: complex = 1.0, *, bra: bool = False) -> Ket | Bra:
    """A single-term state with the given amplitude."""
    cls = Bra if bra else Ket
    return cls(space, {tuple(label): amplitude})


def tensor(first, *rest):
    """Tensor product of states of one type over disjoint subsystem sets,
    pruned once at the end."""
    if any(type(b) is not type(first) for b in rest):
        raise StructuralError("cannot tensor a ket with a bra")
    codec = _codec_for(sum((b.space for b in rest), first.space))  # a subsystem named twice is refused here
    codes, re, im = first._codes, first._re, first._im
    for b in rest:
        codes = (codes[:, None] * b._codec.size + b._codes).ravel()  # earlier factors outermost
        re, im = (x.ravel() for x in _mul(re[:, None], im[:, None], b._re, b._im))
    return type(first)._coded(codec, codes, re, im)


def add(a, b):
    """Term-wise sum; exact cancellations are pruned to nothing."""
    if type(a) is not type(b):
        raise StructuralError("cannot add a ket and a bra")
    _require_same_space(a, b)
    cat = np.concatenate
    return _merge(type(a), a._codec, cat([a._codes, b._codes]), cat([a._re, b._re]), cat([a._im, b._im]))


def scale(c: complex, a):
    c = complex(c)
    return type(a)._coded(a._codec, a._codes, *_mul(c.real, c.imag, a._re, a._im))


def norm_sq(a) -> float:
    return _total(_squared_moduli(a._re, a._im))


def _squared_moduli(re: np.ndarray, im: np.ndarray) -> list[float]:
    """Python's ``abs(z) ** 2`` per amplitude, bit for bit."""
    return list(map(math.pow, np.hypot(re, im).tolist(), itertools.repeat(2.0)))


def dual(a):
    """Conjugate transpose: offer wave <-> confirmation wave."""
    cls = Bra if isinstance(a, Ket) else Ket
    return cls._coded(a._codec, a._codes, a._re, -a._im, prune=False)


def inner(bra: Bra, ket: Ket) -> complex:
    """Contraction ⟨bra|ket⟩.

    The bra already stores dual-side coefficients, so the contraction is a
    plain sum of products over shared labels; ``inner(dual(k), k)`` is real
    and non-negative.
    """
    if not isinstance(bra, Bra) or not isinstance(ket, Ket):
        raise StructuralError("inner expects (Bra, Ket)")
    _require_same_space(bra, ket)
    if len(bra) > len(ket):
        bra, ket = ket, bra  # walk the smaller one
    if not len(bra):
        return 0j
    order = np.argsort(ket._codes)
    at = order[np.minimum(np.searchsorted(ket._codes, bra._codes, sorter=order), len(order) - 1)]
    hit = ket._codes[at] == bra._codes
    re, im = _mul(bra._re[hit], bra._im[hit], ket._re[at[hit]], ket._im[at[hit]])
    return complex(_total(re.tolist()), _total(im.tolist()))  # added in array order


def project(a, subsystem: str, symbol: str):
    """Keep only the terms whose ``subsystem`` slot equals ``symbol``.

    Amplitudes are untouched; the result is unnormalized.
    """
    i = subsystem_index(a.space, subsystem)
    if symbol not in a.space[i].basis:
        raise StructuralError(f"symbol {symbol!r} is not in the basis of {subsystem!r}")
    keep = a._codec.digit(a._codes, i) == a.space[i].basis.index(symbol)
    return type(a)._coded(a._codec, a._codes[keep], a._re[keep], a._im[keep], prune=False)


def rebase(a, subsystem: str, matrix, new_symbols: tuple[str, str]):
    """Re-express a two-symbol subsystem in a rotated basis.

    ``matrix`` rows give the new basis states in terms of the old ones:
    ``|new_j> = sum_k matrix[j, k] |old_k>``.  Ket amplitudes pick up the
    conjugated rows, bra coefficients the rows themselves, so norms are
    preserved for any unitary matrix.  A symbol map on the old digits, then a
    relabel to the new symbols, so terms keep the order they arose in.
    """
    i = subsystem_index(a.space, subsystem)
    spec = a.space[i]
    if len(spec.basis) != 2:
        raise StructuralError(f"subsystem {subsystem!r} is not two-dimensional")
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValidationError("basis-change matrix must be 2x2")
    if not np.abs(m @ m.conj().T - np.eye(2)).max() <= TOL:  # a NaN fails too
        raise ValidationError("basis-change matrix is not unitary within 1e-12")
    new_symbols = tuple(new_symbols)
    if len(new_symbols) != 2:
        raise ValidationError("exactly two new basis symbols required")
    cols = (m.conj() if isinstance(a, Ket) else m).T.tolist()  # cols[k][j]: old symbol k's factor onto old j
    mapping = {s: [(to, c) for to, c in zip(spec.basis, col) if abs(c) >= PRUNE] for s, col in zip(spec.basis, cols)}
    out = _apply_symbol_map(a, i, mapping)
    codec = _codec_for(a.space[:i] + (SubsystemSpec(spec.id, spec.kind, new_symbols),) + a.space[i + 1 :])
    return type(a)._coded(codec, out._codes, out._re, out._im, prune=False)


def _apply_symbol_map(state, i: int, mapping):
    """Linear map on slot ``i``: each symbol in ``mapping`` becomes its
    ``(new_symbol, factor)`` branches, summed; other symbols pass unchanged.

    A gather (each term once per branch, its digit replaced, its amplitude
    multiplied) and a segment sum, which only terms on clashing symbols need."""
    codec = state._codec
    key = tuple((sym, tuple(branches)) for sym, branches in mapping.items())
    shift, f_re, f_im, valid, clash = _map_table(state.space[i].basis, codec.strides[i], key)
    d = codec.digit(state._codes, i)
    rows, k = valid[d].nonzero()
    dk = d[rows], k
    re, im = _mul(f_re[dk], f_im[dk], state._re[rows], state._im[rows])
    codes = state._codes[rows] + shift[dk]
    if np.count_nonzero(clash[d]):
        return _merge(type(state), codec, codes, re, im)
    return type(state)._coded(codec, codes, 0.0 + re, 0.0 + im)


@lru_cache(maxsize=1024)
def _map_table(basis: tuple[str, ...], stride: int, mapping: tuple) -> tuple[np.ndarray, ...]:
    """Per digit and branch: the code shift, the factor's parts and whether
    the branch exists (a symbol not in ``mapping`` passes unchanged, factor 1);
    and per digit whether its terms may land on another digit's: a mapped
    symbol sharing a branch target, or a passed symbol that is a target."""
    rows = [dict(mapping).get(sym, ((sym, 1.0),)) for sym in basis]
    shape = (len(basis), max(len(r) for r in rows))
    to, factor, valid = (np.zeros(shape, dtype=t) for t in (np.int64, complex, bool))
    for d, row in enumerate(rows):
        for k, (sym, f) in enumerate(row):
            if sym not in basis:
                raise StructuralError(f"symbol {sym!r} is not in the basis {basis}")
            to[d, k], factor[d, k], valid[d, k] = basis.index(sym), f, True
    mapped = np.array([sym in dict(mapping) for sym in basis])
    hits = np.bincount(to[valid & mapped[:, None]], minlength=len(basis))  # branches into each digit
    clash = np.where(mapped, np.where(valid, hits[to] > 1, False).any(axis=1), hits[to[:, 0]] > 0)
    tables = ((to - np.arange(len(basis))[:, None]) * stride, factor.real.copy(), factor.imag.copy(), valid, clash)
    for table in tables:
        table.setflags(write=False)  # cached and shared by every caller
    return tables


def approx_equal(a, b, tol: float = TOL) -> bool:
    """Term-wise comparison within ``tol`` (spaces must match exactly)."""
    if type(a) is not type(b) or a.space != b.space:
        return False
    for label in set(a.terms) | set(b.terms):
        if abs(a.terms.get(label, 0j) - b.terms.get(label, 0j)) > tol:
            return False
    return True
