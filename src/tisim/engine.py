"""Transaction enumeration, weighing, resolution, and post-selection.

A measurement context fixes one spin basis per atom (open the box for z;
recombine and rotate for y or an arbitrary Bloch direction); photon
absorption inside a box is always a terminal outcome.  The engine then

* enumerates every candidate transaction with its Born weight, flat over the
  joint outcome space (``enumerate_transactions``),
* independently recomputes any candidate's weight through the backward
  confirmation-wave route (``echo_weight``),
* resolves one actualized transaction per trial, either flat or walking the
  absorption hierarchy rank by rank with renormalization on failure,
* and conditions distributions on a photon outcome (``post_select``),
  returning the surviving normalized state for further basis changes.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import rng
from .amplitudes import (
    TOL,
    Ket,
    Space,
    SubsystemSpec,
    _squared_moduli,
    rebase,
)
from .errors import ContractError, StructuralError, UsageError, ValidationError
from .network import Network, _source_couplings, confirmation_wave

LANE_OUTCOME = 0  # final outcome draw; hierarchy stage k draws on lane 1 + k
CHUNK = 2**16  # trials drawn at a time: a block's uniforms (512 KiB) and masks stay in L2, and memory stays flat
COMPARE_MAX = 256  # up to this many candidates, counting comparisons beats searchsorted on a block
STAGE_TABLES = 4  # stage tables a network keeps, one per recent context: the four CHSH settings


# -- measurement contexts -----------------------------------------------------


@dataclass(frozen=True)
class AtomBasis:
    """Spin measurement basis for one atom: z, y, or a Bloch direction."""

    kind: str
    theta: float = 0.0
    phi: float = 0.0

    @classmethod
    def z(cls) -> "AtomBasis":
        return cls("z")

    @classmethod
    def y(cls) -> "AtomBasis":
        return cls("y")

    @classmethod
    def bloch(cls, theta: float, phi: float = 0.0) -> "AtomBasis":
        return cls("bloch", float(theta), float(phi))

    def matrix(self) -> np.ndarray | None:
        """Rows express the measurement eigenstates in the z basis."""
        if self.kind == "z":
            return None
        if self.kind == "y":
            theta, phi = math.pi / 2, math.pi / 2
        elif self.kind == "bloch":
            theta, phi = self.theta, self.phi
        else:
            raise ValidationError(f"unknown atom basis {self.kind!r}")
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        e = complex(math.cos(phi), math.sin(phi))
        return np.array([[c, e * s], [s, -e * c]], dtype=complex)

    def symbols(self, spec: SubsystemSpec) -> tuple[str, ...]:
        if self.kind == "z":
            return spec.basis
        if self.kind == "y":
            return ("y+", "y-")
        return ("n+", "n-")


_Z = AtomBasis.z()


@dataclass
class MeasurementContext:
    """One basis per atom; atoms not named are measured in z."""

    atom_bases: dict[str, AtomBasis] = field(default_factory=dict)

    def basis_for(self, atom_id: str) -> AtomBasis:
        return self.atom_bases.get(atom_id, _Z)


@lru_cache(maxsize=256)
def _bras(basis: AtomBasis, levels: int) -> np.ndarray:
    """Row i: the bra of the basis's i-th symbol in the z basis, read-only and shared."""
    m = basis.matrix()
    bras = np.eye(levels) if m is None else m.conj()
    bras.setflags(write=False)
    return bras


def z_context(network: Network) -> MeasurementContext:
    return MeasurementContext({a.id: AtomBasis.z() for a in network.atoms()})


def y_context(network: Network) -> MeasurementContext:
    return MeasurementContext({a.id: AtomBasis.y() for a in network.atoms()})


# -- outcomes and distributions -----------------------------------------------


class Outcome(NamedTuple):
    """A terminal transaction label.

    ``photon`` names the detector (for detections) or the box (for
    absorptions); ``atoms`` lists one measured symbol per atom in network
    declaration order; ``excited`` names the atom left in its excited level
    when the photon was absorbed.
    """

    photon: str
    atoms: tuple[tuple[str, str], ...] = ()
    excited: str | None = None

    @property
    def label(self) -> str:
        # semicolon-joined so labels stay comma-free for the CSV report
        if not self.atoms:
            return self.photon
        syms = ";".join(
            sym + ("*" if atom == self.excited else "") for atom, sym in self.atoms
        )
        return f"{self.photon}|{syms}"


class TransactionCandidate(NamedTuple):
    outcome: Outcome
    weight: float
    amplitude: complex


@dataclass(frozen=True)
class OutcomeDistribution:
    """Candidates in canonical order, held as columns (one entry per candidate:
    its outcome, its weight as a Python float, its amplitude as a Python complex),
    with optional sampled counts.

    ``atom_space`` records the (possibly rebased) atom-spin specs the outcome
    symbols refer to, so post-selected states can be rebuilt.
    """

    outcomes: tuple[Outcome, ...]
    weights: tuple[float, ...]
    amplitudes: tuple[complex, ...]
    provenance: str
    atom_space: Space = ()
    seed: int | None = None
    trials: int | None = None
    counts: tuple[int, ...] | None = None

    @cached_property
    def candidates(self) -> tuple[TransactionCandidate, ...]:
        """The columns as ``TransactionCandidate`` rows, built on the first read."""
        return _rows(TransactionCandidate, self.outcomes, self.weights, self.amplitudes)

    def total_weight(self) -> float:
        return float(sum(self.weights))

    def weight_of(self, label: str) -> float:
        return sum(w for o, w in zip(self.outcomes, self.weights) if o.label == label)

    def photon_marginal(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for o, w in zip(self.outcomes, self.weights):
            out[o.photon] = out.get(o.photon, 0.0) + w
        return out

    def absorbed_probability(self) -> float:
        return float(sum(w for o, w in zip(self.outcomes, self.weights) if o.excited is not None))

    def _select(self, keep: Sequence[bool]) -> "OutcomeDistribution":
        """The candidates where ``keep`` is true, in their order, without sampled counts."""
        columns = (tuple(itertools.compress(column, keep)) for column in (self.outcomes, self.weights, self.amplitudes))
        return OutcomeDistribution(*columns, self.provenance, self.atom_space)


def _rows(cls, *columns) -> tuple:
    """``cls`` tuples (``Outcome``, ``TransactionCandidate``) built from columns; ``tuple.__new__``
    skips the class's Python-level ``__new__``, which took twice as long on 7,424 candidates."""
    return tuple(map(tuple.__new__, itertools.repeat(cls), zip(*columns)))


# from this many terms on, candidates share atom tuples: in a timing loop over
# 6-atom states both ways took equal time at 256 terms, sharing was 1.7x faster
# at 512 and 2.8x at 1024, building per term 2.7x faster at 64
_SHARE_FROM = 256


def _atom_readings(symbols, digits) -> list:
    """Each term's ``Outcome.atoms`` tuple, from its reading digits and their
    tables (``_outcome_tables``; the photon's first).  On large states, terms
    that read the atoms alike share one tuple, which saves building tens of thousands."""
    if len(symbols) == 1:
        return [()] * len(digits[0])
    if len(digits[0]) <= _SHARE_FROM:
        return list(zip(*(table[d].tolist() for table, d in zip(symbols[1:], digits[1:]))))
    reading = 0  # fits, as the codes do: an atom read in two bases has a box, whose level the codes carry
    for table, d in zip(symbols[1:], digits[1:]):
        reading = reading * len(table) + d
    shared, which = np.unique(reading, return_inverse=True)
    pairs = []
    for table in reversed(symbols[1:]):
        pairs.append(table[shared % len(table)])
        shared = shared // len(table)
    return np.fromiter(zip(*reversed(pairs)), dtype=object, count=len(pairs[0]))[which].tolist()


@lru_cache(maxsize=256)
def _outcome_tables(names: tuple[str, ...], readings: tuple[tuple[SubsystemSpec, ...], ...]):
    """Per outcome slot (photon, then atoms): what each reading digit reads as in an
    ``Outcome`` (the photon's name, an atom's ``(id, symbol)`` pair) and its rank.  An
    atom's reading digits run over the symbols of its specs in turn, each spec's ranked
    among themselves: a sort compares only readings of one spec."""
    values = [names] + [[(s.id, sym) for s in specs for sym in s.basis] for specs in readings]
    symbols = [np.empty(len(items), dtype=object) for items in values]
    for table, items in zip(symbols, values):
        for k, item in enumerate(items):
            table[k] = item  # one by one, so numpy keeps the pairs as tuples
    ranks = [_ranks(names)] + [np.concatenate([_ranks(s.basis) for s in specs]) for specs in readings]
    for table in symbols + ranks:
        table.setflags(write=False)  # cached and shared by every caller
    return symbols, ranks


def _ranks(strings: Sequence[str]) -> np.ndarray:
    """Each string's position among the distinct strings in sorted order."""
    position = {s: r for r, s in enumerate(sorted(set(strings)))}
    return np.array([position[s] for s in strings], dtype=np.int64)


def _atom_bases(network: Network, context: MeasurementContext) -> tuple[AtomBasis, ...]:
    """The context's basis for each atom of the network, in declaration order;
    a context that names an atom the network lacks is a ``StructuralError``."""
    atoms = network._plan.atoms
    extra = context.atom_bases.keys() - atoms.keys()
    if extra:
        raise StructuralError(f"context assigns bases to unknown atoms {sorted(extra)}")
    return tuple(context.basis_for(atom) for atom in atoms)


class _StageTable(NamedTuple):
    """What a network keeps per context (see ``_hierarchy_stages``).  A flat distribution is a
    table with no boxes and one stage at every position (``_flat_table``), in the first three fields."""

    fractions: tuple[float, ...]  # per box in rank order: the probability that it absorbs a photon reaching it
    where: tuple[np.ndarray | slice, ...]  # per box, then the survivors: its candidates' positions in ``flat``
    born: np.ndarray  # per flat candidate: its weight
    flat: OutcomeDistribution | None = None  # every candidate, in canonical order, in the context's atom bases
    masses: tuple[float, ...] = ()  # per box, then the survivors: its weights' ``sum``


def _hierarchy_stages(network: Network, context: MeasurementContext) -> _StageTable:
    """The stage table every enumeration, resolver and sampler works from
    (``_stage_table``).  The network keeps up to ``STAGE_TABLES`` tables, keyed
    by the atoms' bases: a miss inserts one and evicts the oldest-inserted
    beyond the bound, a hit changes nothing."""
    key = _atom_bases(network, context)
    table = network._stage_tables.get(key)
    if table is None:  # built in a local, so a thread racing an eviction still returns its own
        table = _stage_table(network, key)
        tables = network._stage_tables
        tables[key] = table
        # list() copies the keys in one step, so a racing insert cannot break the walk; each
        # insert trims after itself, so once the threads are done at most STAGE_TABLES remain
        for old in list(tables)[:-STAGE_TABLES]:
            tables.pop(old, None)
    return table


def _stage_table(network: Network, bases: tuple[AtomBasis, ...]) -> _StageTable:
    """The network's one offer wave (``Network._offer_wave``), split at the boxes
    and read in the atoms' ``bases``: per box in rank order, the probability that
    it absorbs a photon reaching it and its candidates, then the candidates of
    the wave that passes every box, with unconditioned Born weights.

    The stages run as one coded ket (no photon digit spans two, so no rebase
    merges terms across them), and each atom is rebased once, on the terms that
    do not leave it excited: those keep its z symbols, read through digits past
    its context's.  One stable sort by rank on (photon name, atom symbols) puts
    every candidate in canonical order (validated emitters leave no ties), so
    each stage's positions rise in its own order.  Weights that do not total 1
    within ``TOL`` are a ``ContractError``."""
    plan, trace = network._plan, network._offer_wave
    kets = (*(ket for _, ket in trace.absorbed), trace.continuing)
    codec = trace.continuing._codec
    codes, re, im = (np.concatenate([getattr(ket, part) for ket in kets]) for part in ("_codes", "_re", "_im"))
    # per photon digit: the stage its terms are in, and the atom they leave excited (-1: none)
    photon, atom_index = codec.space[0].basis, {atom: j for j, atom in enumerate(plan.atoms)}
    stage_of, excites = np.full(len(photon), len(trace.absorbed)), np.full(len(photon), -1)
    for k, box in enumerate(plan.boxes[box_id] for box_id, _ in trace.absorbed):
        d = photon.index(box.marker)
        stage_of[d], excites[d] = k, atom_index[box.atom]
    atom_space = tuple(SubsystemSpec(a.id, a.kind, b.symbols(a)) for a, b in zip(network.atoms(), bases))
    readings = []  # per atom, the specs its reading digits run over
    for j, (atom, basis, spec) in enumerate(zip(network.atoms(), bases, atom_space)):
        m = basis.matrix()
        if m is None:
            readings.append((atom,))
            continue
        stays = excites[codec.digit(codes, 0)] == j
        moved = rebase(Ket._coded(codec, codes[~stays], re[~stays], im[~stays], prune=False), atom.id, m, spec.basis)
        codec, parts = moved._codec, (moved._codes, moved._re, moved._im)
        codes, re, im = (np.concatenate([new, old[stays]]) for new, old in zip(parts, (codes, re, im)))
        readings.append((spec, atom) if j in excites else (spec,))
    photons = codec.digit(codes, 0)
    symbols, ranks = _outcome_tables(tuple(plan.terminals.get(sym, sym) for sym in photon), tuple(readings))
    digits, by_outcome = [photons], ranks[0][photons]
    for j, (slot, rank) in enumerate(zip(plan.atoms.values(), ranks[1:])):
        d = codec.digit(codes, slot)
        if len(readings[j]) == 2:
            d = d + codec.radices[slot] * (excites[photons] == j)
        digits.append(d)
        by_outcome = by_outcome * codec.radices[slot] + rank[d]  # mixed radix over the ranks: fits, as the codes do
    order = np.argsort(by_outcome, kind="stable")
    digits, re, im = [d[order] for d in digits], re[order], im[order]
    weights = _squared_moduli(re, im)
    drift = math.fsum(weights) - 1.0
    if not abs(drift) <= TOL:
        raise ContractError(f"network {network.name!r}: total weight drifts from 1 by {drift!r}")
    amps = np.empty(len(order), dtype=complex)
    amps.real, amps.imag = re, im
    excited = np.array([*plan.atoms, None], dtype=object)[excites[digits[0]]].tolist()  # -1 reads the last: None
    outcomes = _rows(Outcome, symbols[0][digits[0]].tolist(), _atom_readings(symbols, digits), excited)
    stage, born = stage_of[digits[0]], np.array(weights)
    where = tuple(np.flatnonzero(stage == k) for k in range(len(kets)))
    masses = tuple(sum(born[pos].tolist()) for pos in where)
    flat = OutcomeDistribution(outcomes, tuple(weights), tuple(amps.tolist()), "flat", atom_space)
    return _StageTable(trace.box_fractions, where, born, flat, masses)


def enumerate_transactions(network: Network, context: MeasurementContext) -> OutcomeDistribution:
    """Flat enumeration over the joint outcome space with Born weights: the
    distribution the network keeps for the context, the same object on every call."""
    return _hierarchy_stages(network, context).flat


def hierarchical_distribution(network: Network, context: MeasurementContext) -> OutcomeDistribution:
    """Chain-rule enumeration: earlier absorbers get first refusal.

    At each box the local absorption probability is the absorbed mass over
    the remaining mass; a component's weight is the probability of reaching
    its box, times the box's probability, times the component's share of the
    absorbed mass.  The resulting distribution matches the flat one.  A box
    that never absorbs, and a final wave of no mass, contribute no candidates.
    """
    table = _hierarchy_stages(network, context)
    survival, factors, masses, keeps = 1.0, [], [], []
    at = np.empty(table.born.size, dtype=np.intp)  # each flat candidate's stage
    for k, (pos, p_here, mass) in enumerate(zip(table.where, (*table.fractions, 1.0), table.masses)):
        at[pos] = k
        keeps.append(p_here > 0.0 and mass > 0.0)
        factors.append(survival * p_here)  # the survivors' p_here is 1, so their factor is survival
        masses.append(mass if keeps[-1] else 1.0)  # a dropped stage divides by 1
        survival *= 1.0 - p_here
    # survival * p_here * (weight / mass) per candidate, as in Python floats
    weights = (np.array(factors)[at] * (table.born / np.array(masses)[at])).tolist()
    dist = replace(table.flat, weights=tuple(weights), provenance="hierarchical")
    return dist if all(keeps) else dist._select(np.array(keeps)[at].tolist())


# -- confirmation-wave (echo) weights ------------------------------------------


def echo_weight(network: Network, outcome: Outcome, context: MeasurementContext) -> float:
    """Born weight of an outcome computed through the backward CW route only.

    The terminal's confirmation wave, walked source-ward through the conjugate
    element maps and filtered at every emitter once per network
    (``confirmation_wave``), is read against each atom's bra: the conjugated
    row of the context's basis matrix, or a unit column for z and for the atom
    the photon left excited.  The squared modulus of the sum is the weight.
    """
    excited, wave = confirmation_wave(network, outcome.photon)
    bases, readings, atoms = _atom_bases(network, context), dict(outcome.atoms), network.atoms()
    if outcome.excited != excited:
        raise ContractError(f"outcome {outcome.label!r}: its photon leaves {excited or 'no atom'!r} excited")
    if len(readings) != len(outcome.atoms) or readings.keys() != {a.id for a in atoms}:
        raise ContractError(f"outcome {outcome.label!r} does not read each atom {[a.id for a in atoms]} once")
    bras = []
    for spec, basis in zip(atoms, bases):
        basis = _Z if spec.id == excited else basis
        symbols, rows, symbol = basis.symbols(spec), _bras(basis, len(spec.basis)), readings[spec.id]
        if symbol not in symbols or len(rows) != len(spec.basis):
            raise ContractError(f"outcome {outcome.label!r}: atom {spec.id!r} cannot read {symbol!r} in {basis.kind}")
        bras.append(rows[symbols.index(symbol)])
    return abs(sum(_source_couplings(wave, bras))) ** 2


# -- resolution (sampling) -----------------------------------------------------


def _cut(weights: np.ndarray) -> np.ndarray:
    """Normalised cumulative weights: a uniform u selects the first i with u < cut[i]."""
    cum = np.cumsum(weights)
    if cum.size == 0 or cum[-1] <= 0:
        raise ContractError("cannot sample from an empty distribution")
    return cum / cum[-1]


def _count(cut: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Counts per candidate over the uniforms ``u``, under the mapping of ``_resolve``.

    For few candidates, counting the uniforms at or above each cut point is
    cheaper than a binary search per uniform.  Candidate i gets those at or
    above cut[i-1] but below cut[i], which is searchsorted's side="right", so
    ties and zero-weight candidates land where ``_resolve`` puts them.
    """
    if cut.size > COMPARE_MAX:
        return np.bincount(np.searchsorted(cut, u, side="right"), minlength=cut.size)
    at_or_above = np.array([u.size] + [np.count_nonzero(u >= c) for c in cut], dtype=np.int64)
    return at_or_above[:-1] - at_or_above[1:]


def _flat_table(dist: OutcomeDistribution) -> _StageTable:
    """The distribution as a table with no boxes: every candidate in one stage."""
    return _StageTable((), (slice(None),), np.array(dist.weights, dtype=float))


def _draws(fractions: Sequence[float], seed: int, lane: int, lo: int, n: int):
    """The draw loop of every resolver and sampler, over trials ``lo .. lo+n-1``.

    Box k (absorption probability ``fractions[k]``) draws on lane 1 + k for
    the trials still alive and fires where ``u < p_here``; the survivors draw
    on ``lane``.  Yields ``(k, uniforms)`` per box k that fires (uniforms
    rescaled to ``u / p_here``) and then for the survivors, as stage
    ``len(fractions)``.  A flat table (no boxes) draws once, with no index.
    """
    alive = slice(None)  # every trial, until a box draws
    for k, p_here in enumerate(fractions):
        if p_here <= 0.0:
            continue
        u = rng.uniforms(seed, 1 + k, lo, n)[alive]
        fired = u < p_here
        alive = np.flatnonzero(~fired) if isinstance(alive, slice) else alive[~fired]
        u = u[fired] / p_here
        if u.size:
            yield k, u
        if alive.size == 0:
            return
    yield len(fractions), rng.uniforms(seed, lane, lo, n)[alive]


def _resolve(table: _StageTable, seed: int, lane: int, trial: int) -> tuple[int, int]:
    """The stage trial ``trial`` resolves in, and its candidate's index among that stage's."""
    k, u = next(_draws(table.fractions, seed, lane, trial, 1))  # one trial: one draw
    return k, int(np.searchsorted(_cut(table.born[table.where[k]]), u[0], side="right"))


def _tally(table: _StageTable, seed: int, lane: int, start: int, trials: int, workers: int = 1) -> np.ndarray:
    """Counts per flat candidate over trials ``start .. start+trials-1``; the survivors draw on ``lane``.

    The trials are drawn in blocks of CHUNK, small enough that a block's uniforms,
    masks and indices stay in L2 and memory does not grow with the trials.  The
    blocks are counted on at most ``min(workers, os.cpu_count(), blocks)`` threads,
    inline when that is one (runs of up to one block); the counts do not depend on it.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1")
    if workers < 1:
        raise UsageError("workers must be >= 1")
    rng.check_stream(seed, start, trials)  # before the first block, not at the one that leaves the stream
    blocks, stop = range(start, start + trials, CHUNK), start + trials  # slicing a range takes no memory
    threads = min(workers, os.cpu_count() or 1, len(blocks))
    reach = (*(p > 0.0 for p in table.fractions), all(p < 1.0 for p in table.fractions))  # the stages a trial reaches
    cuts = [_cut(table.born[pos]) if can else None for pos, can in zip(table.where, reach)]

    def count(part: range) -> np.ndarray:
        counts = np.zeros(table.born.size, dtype=np.int64)
        for lo in part:
            for k, u in _draws(table.fractions, seed, lane, lo, min(CHUNK, stop - lo)):
                counts[table.where[k]] += _count(cuts[k], u)
                del u  # else this block's uniforms stay live while the next block draws, doubling the peak
        return counts

    if threads == 1:
        return count(blocks)
    # numpy's Philox fill and comparisons release the GIL, so threads overlap; thread j
    # takes every threads-th block from j, so the pending work does not grow with the trials
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(count, [blocks[j::threads] for j in range(threads)]))


def resolve_flat(dist: OutcomeDistribution, seed: int, trial: int) -> Outcome:
    """Sample one outcome; deterministic in (seed, trial index)."""
    _, i = _resolve(_flat_table(dist), seed, LANE_OUTCOME, trial)
    return dist.outcomes[i]


def sample_flat(
    dist: OutcomeDistribution, trials: int, seed: int, start: int = 0, workers: int = 1
) -> np.ndarray:
    """Counts per candidate for trial indices ``start .. start+trials-1``, on up to
    ``workers`` threads; the counts do not depend on ``workers``."""
    return _tally(_flat_table(dist), seed, LANE_OUTCOME, start, trials, workers)


def resolve_hierarchical(
    network: Network, context: MeasurementContext, seed: int, trial: int
) -> Outcome:
    """Walk boxes in rank order; each may fire with its conditional probability.

    A trial that survives every box draws its detector outcome from lane 0,
    the same stream the flat resolver uses, so absorber-free networks resolve
    identically to ``resolve_flat`` trial by trial.
    """
    table = _hierarchy_stages(network, context)
    k, i = _resolve(table, seed, LANE_OUTCOME, trial)
    return table.flat.outcomes[table.where[k][i]]


def sample_hierarchical(
    network: Network, context: MeasurementContext, trials: int, seed: int
) -> OutcomeDistribution:
    """Vectorized hierarchical sampling in blocks of CHUNK trials, on one thread;
    counts align with the flat candidates."""
    table = _hierarchy_stages(network, context)
    counts = _tally(table, seed, LANE_OUTCOME, 0, trials)
    return replace(table.flat, provenance="hierarchical", seed=seed, trials=trials, counts=tuple(counts.tolist()))


# -- post-selection -------------------------------------------------------------


def post_select(
    dist: OutcomeDistribution, predicate: str | Callable[[str], bool]
) -> tuple[OutcomeDistribution, Ket | None]:
    """Condition on a photon outcome.

    Returns the renormalized conditional distribution plus, when the selected
    candidates share a single un-absorbed photon outcome, the normalized
    post-selected atom state (in the context's measurement basis) for
    downstream basis changes.
    """
    if isinstance(predicate, str):
        wanted = predicate
        pred = lambda photon: photon == wanted
    else:
        pred = predicate
    selected = dist._select([pred(o.photon) for o in dist.outcomes])
    total = sum(selected.weights)
    if not selected.outcomes or total <= 0.0:
        raise ContractError("post-selection matched no outcome with nonzero weight")
    scale = math.sqrt(total)
    conditional = replace(
        selected,
        weights=tuple(w / total for w in selected.weights),
        amplitudes=tuple(a / scale for a in selected.amplitudes),
    )
    outcomes = conditional.outcomes
    ket: Ket | None = None
    if len({o.photon for o in outcomes}) == 1 and all(o.excited is None for o in outcomes) and dist.atom_space:
        terms = {tuple(sym for _, sym in o.atoms): a for o, a in zip(outcomes, conditional.amplitudes)}
        ket = Ket(dist.atom_space, terms)
    return conditional, ket


# -- CHSH ------------------------------------------------------------------------


@dataclass(frozen=True)
class ChshSettings:
    """Two Bloch directions per atom, as (theta, phi) in radians."""

    a: tuple[float, float]
    a_prime: tuple[float, float]
    b: tuple[float, float]
    b_prime: tuple[float, float]


@dataclass(frozen=True)
class ChshResult:
    """Per setting pair (``ab``, ``ab'``, ``a'b``, ``a'b'``): the post-selected conditional
    distribution the run read, its pair correlation (``pair_correlation``), and for a
    Monte Carlo run its (same, different) counts."""

    correlations: dict[str, float]
    settings: ChshSettings
    distributions: dict[str, OutcomeDistribution]
    counts: dict[str, tuple[int, int]] | None = None

    @property
    def s(self) -> float:
        e = self.correlations
        return abs(e["ab"] - e["ab'"] + e["a'b"] + e["a'b'"])


def pair_contexts(network: Network, settings: ChshSettings):
    atoms = network.atoms()
    if len(atoms) != 2:
        raise ContractError("CHSH needs a network with exactly two atoms")
    first, second = atoms[0].id, atoms[1].id
    pairs = {
        "ab": (settings.a, settings.b),
        "ab'": (settings.a, settings.b_prime),
        "a'b": (settings.a_prime, settings.b),
        "a'b'": (settings.a_prime, settings.b_prime),
    }
    for key, (s1, s2) in pairs.items():
        ctx = MeasurementContext(
            {first: AtomBasis.bloch(*s1), second: AtomBasis.bloch(*s2)}
        )
        yield key, ctx


def pair_correlation(network: Network, dist: OutcomeDistribution) -> float | None:
    """The sum of the candidates' weights, each signed + where the two
    atoms read alike and - where not.  An atom reads +1 on the first symbol of the basis it
    was measured in and -1 on the second: the context's basis (``dist.atom_space``), or z
    for the atom the photon left excited.  None unless the network has exactly two atoms,
    of two symbols each."""
    atoms = network.atoms()
    if len(atoms) != 2 or any(len(a.basis) != 2 for a in atoms):
        return None
    z, measured = {a.id: a.basis[0] for a in atoms}, {a.id: a.basis[0] for a in dist.atom_space}
    e = 0.0
    for o, w in zip(dist.outcomes, dist.weights):
        first = [sym == (z if atom == o.excited else measured)[atom] for atom, sym in o.atoms]
        e += w if first[0] == first[1] else -w
    return e


def chsh(network: Network, settings: ChshSettings, post: str = "D") -> ChshResult:
    """Exact CHSH statistic from the four post-selected conditional distributions."""
    distributions = {
        key: post_select(enumerate_transactions(network, ctx), post)[0]
        for key, ctx in pair_contexts(network, settings)
    }
    correlations = {key: pair_correlation(network, d) for key, d in distributions.items()}
    return ChshResult(correlations, settings, distributions)


def chsh_monte_carlo(
    network: Network, settings: ChshSettings, pairs: int, seed: int, post: str = "D", workers: int = 1
) -> ChshResult:
    """CHSH estimate from sampled post-selected pairs, split evenly over settings.

    Each setting pair samples the conditional distribution ``chsh`` reads on
    its own deterministic stream (lane 100 + k for the k-th), so estimates merge
    reproducibly.  Each setting's pairs are counted on up to ``workers`` threads,
    as in ``sample_flat``.
    """
    if pairs < 4:
        raise UsageError("need at least one pair per setting")
    distributions = chsh(network, settings, post).distributions
    correlations: dict[str, float] = {}
    counts: dict[str, tuple[int, int]] = {}
    for lane, (key, conditional) in enumerate(distributions.items()):
        n = pairs // 4 + (1 if lane < pairs % 4 else 0)
        tally = _tally(_flat_table(conditional), seed, 100 + lane, 0, n, workers)
        sampled = replace(conditional, weights=tuple(tally.tolist()))
        balance = int(pair_correlation(network, sampled))  # same - different, exact
        counts[key] = ((n + balance) // 2, (n - balance) // 2)
        correlations[key] = balance / n
    return ChshResult(correlations, settings, distributions, counts)


def chsh_optimal_settings(
    network: Network, resolution_deg: float = 1.0, post: str = "D"
) -> tuple[ChshSettings, float]:
    """Grid search for the settings maximizing S, at the given angular step.

    The search runs over polar angles in the x-z plane (the plane containing
    this family's optimal settings); for each (b, b') column the best a and
    a' are independent, so the search is cubic, not quartic, in grid size.
    """
    dist = enumerate_transactions(network, z_context(network))
    _, ket = post_select(dist, post)
    if ket is None or len(ket.space) != 2:
        raise ContractError("CHSH grid search needs a two-atom post-selected state")
    psi = np.zeros((2, 2), dtype=complex)
    for label, amp in ket.items():
        i = ket.space[0].basis.index(label[0])
        j = ket.space[1].basis.index(label[1])
        psi[i, j] = amp
    thetas = np.deg2rad(np.arange(0.0, 360.0, resolution_deg))
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    ops = np.cos(thetas)[:, None, None] * sz + np.sin(thetas)[:, None, None] * sx
    corr = np.einsum("ab,iac,jbd,cd->ij", psi.conj(), ops, ops, psi).real
    best = (-1.0, 0, 0, 0, 0)
    for jp in range(len(thetas)):
        t1 = corr - corr[:, [jp]]  # E(a, b) - E(a, b') over (a, b)
        t2 = corr + corr[:, [jp]]  # E(a', b) + E(a', b') over (a', b)
        hi = t1.max(axis=0) + t2.max(axis=0)
        lo = -(t1.min(axis=0) + t2.min(axis=0))
        j = int(np.argmax(np.maximum(hi, lo)))
        if hi[j] >= lo[j]:
            s_val, i, ip = hi[j], int(t1[:, j].argmax()), int(t2[:, j].argmax())
        else:
            s_val, i, ip = lo[j], int(t1[:, j].argmin()), int(t2[:, j].argmin())
        if s_val > best[0]:
            best = (float(s_val), i, ip, j, jp)
    s_val, i, ip, j, jp = best
    settings = ChshSettings(
        a=(float(thetas[i]), 0.0),
        a_prime=(float(thetas[ip]), 0.0),
        b=(float(thetas[j]), 0.0),
        b_prime=(float(thetas[jp]), 0.0),
    )
    return settings, s_val


# -- contextuality over deterministic assignments --------------------------------


@dataclass(frozen=True)
class AssignmentVerdict:
    occupied: tuple[bool, ...]
    path: str
    z_prediction: dict
    y_prediction: dict
    matches_z: bool
    matches_y: bool
    compatible_z: bool
    compatible_y: bool


def _tables_equal(a: Mapping, b: Mapping, tol: float = 1e-9) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)


def _support(table: Mapping, tol: float = 1e-9):
    return {k for k, v in table.items() if v > tol}


def contextuality_verdicts(network: Network, post: str = "D") -> list[AssignmentVerdict]:
    """Test every deterministic (box occupancies, photon path) assignment.

    Each assignment fixes both atoms' z spins through box occupancy and the
    photon's path.  Its predicted open-the-boxes table is a point mass; its
    predicted y table is uniform, since a z-definite spin gives unbiased,
    independent y outcomes.  A verdict records whether the assignment
    reproduces (equals) or is even support-compatible with the post-selected
    quantum tables in each context.
    """
    boxes = sorted(network.boxes(), key=lambda b: b.id)
    if len(boxes) != 2:
        raise ContractError("contextuality check needs a two-box network")
    atoms = network.atoms()

    def atom_table(dist: OutcomeDistribution) -> dict:
        return {tuple(sym for _, sym in o.atoms): w for o, w in zip(dist.outcomes, dist.weights)}

    z_cond, _ = post_select(enumerate_transactions(network, z_context(network)), post)
    y_cond, _ = post_select(enumerate_transactions(network, y_context(network)), post)
    z_table, y_table = atom_table(z_cond), atom_table(y_cond)

    paths = tuple(b.path for b in boxes)
    verdicts = []
    for occupied in itertools.product((True, False), repeat=len(boxes)):
        for path in paths:
            syms = []
            for box, occ in zip(boxes, occupied):
                spec = next(a for a in atoms if a.id == box.atom)
                other = next(s for s in spec.basis if s != box.blocking)
                syms.append(box.blocking if occ else other)
            z_pred = {tuple(syms): 1.0}
            y_pred = {pair: 0.25 for pair in itertools.product(*(spec.basis for spec in y_cond.atom_space))}
            verdicts.append(
                AssignmentVerdict(
                    occupied=occupied,
                    path=path,
                    z_prediction=z_pred,
                    y_prediction=y_pred,
                    matches_z=_tables_equal(z_pred, z_table),
                    matches_y=_tables_equal(y_pred, y_table),
                    compatible_z=_support(z_pred) <= _support(z_table),
                    compatible_y=_support(y_pred) <= _support(y_table),
                )
            )
    return verdicts


def no_assignment_reproduces_both(network: Network, post: str = "D") -> bool:
    """True when no deterministic assignment reproduces both conditional tables."""
    return all(
        not (v.matches_z and v.matches_y) and not (v.compatible_z and v.compatible_y)
        for v in contextuality_verdicts(network, post)
    )
