"""Path-ket notation: single-photon amplitude accounting along named routes.

A path ket traces an offer-wave component from a source label to a detector
label through the elements it meets, e.g. ``|L-S1-B-S2-D>``.  A beam-splitter
label wrapped in underscores marks a reflection there, factor ``network._R``
(i/sqrt(2)); plain labels transmit, factor ``network._T`` (1/sqrt(2)).  Mirrors
contribute their phase, all other labels are inert.  A
trailing two-symbol ket such as ``|++>`` tags the expression with an atomic
state; the tag is inert for amplitude evaluation.

Grammar (whitespace between tokens is insignificant)::

    EXPR    := TERM (('+' | '-') TERM)*
    TERM    := [COEFF] '|' SEG ('-' SEG)* '>' [ATOMKET]
    SEG     := IDENT | '_' IDENT '_'
    ATOMKET := '|' ('+' | '-'){2} '>'
    COEFF   := 'i' | DECIMAL | 'i' DECIMAL

A Unicode minus sign is accepted wherever ``'-'`` combines terms or appears
inside an atom ket.  Labels are resolved against a network through an alias
table (label -> element id, defaulting to the identity), because diagram
labels and element ids need not coincide.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Mapping

from .amplitudes import TOL, _total
from .errors import PathSyntaxError, ResolutionError, StructuralError
from .network import BeamSplitter, Detector, Emitter, Mirror, Network, _R, _T, _emitted_symbols, _symbol_table

_MINUS = ("-", "−")  # tuples: the "" that peek() reads at the end of the text is in every string
_SIGNS = ("+", *_MINUS)
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_DECIMAL = re.compile(r"\d+(?:\.\d+)?")


@dataclass(frozen=True)
class PathSegment:
    label: str
    reflected: bool = False


@dataclass(frozen=True)
class PathKet:
    segments: tuple[PathSegment, ...]
    coefficient: complex = 1.0 + 0j
    atoms: str | None = None


@dataclass(frozen=True)
class PathExpression:
    terms: tuple[PathKet, ...]


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise PathSyntaxError(f"expected {char!r}", self.pos)
        self.pos += 1

    def match(self, pattern: re.Pattern) -> str | None:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return m.group(0)
        return None

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse(text: str) -> PathExpression:
    """Parse path-notation text; raises :class:`PathSyntaxError` with position."""
    sc = _Scanner(text)
    terms: list[PathKet] = []
    sign = 1.0
    if sc.peek() in _SIGNS:  # tolerated leading sign
        sign = -1.0 if sc.peek() in _MINUS else 1.0
        sc.pos += 1
    terms.append(_parse_term(sc, sign))
    while not sc.done():
        op = sc.peek()
        if op not in _SIGNS:
            raise PathSyntaxError(f"expected '+' or '-', found {op!r}", sc.pos)
        sc.pos += 1
        terms.append(_parse_term(sc, -1.0 if op in _MINUS else 1.0))
    return PathExpression(terms=tuple(terms))


def _parse_term(sc: _Scanner, sign: float) -> PathKet:
    coeff = complex(sign)
    ch = sc.peek()
    if ch == "i":
        sc.pos += 1
        dec = _DECIMAL.match(sc.text, sc.pos)
        if dec:
            sc.pos = dec.end()
            coeff *= 1j * float(dec.group(0))
        else:
            coeff *= 1j
    elif ch.isdigit():
        coeff *= float(sc.match(_DECIMAL))
    sc.expect("|")
    segments = [_parse_segment(sc)]
    while sc.peek() == "-":
        sc.pos += 1
        segments.append(_parse_segment(sc))
    sc.expect(">")
    atoms = None
    if sc.peek() == "|":
        sc.pos += 1
        syms = []
        for _ in range(2):
            c = sc.peek()
            if c not in _SIGNS:
                raise PathSyntaxError("atom ket must contain two spin symbols", sc.pos)
            syms.append("+" if c == "+" else "-")
            sc.pos += 1
        sc.expect(">")
        atoms = "".join(syms)
    return PathKet(segments=tuple(segments), coefficient=coeff, atoms=atoms)


def _parse_segment(sc: _Scanner) -> PathSegment:
    if sc.peek() == "_":
        sc.pos += 1
        label = sc.match(_IDENT)
        if label is None:
            raise PathSyntaxError("expected a label after '_'", sc.pos)
        sc.expect("_")
        return PathSegment(label, reflected=True)
    label = sc.match(_IDENT)
    if label is None:
        raise PathSyntaxError("expected a segment label", sc.pos)
    return PathSegment(label)


# -- canonical printing --------------------------------------------------------


def _split_sign(c: complex) -> tuple[bool, complex]:
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        return True, -c
    return False, c


def _format_coefficient(c: complex) -> str:
    if abs(c.imag) < TOL:
        r = c.real
        return "" if abs(r - 1.0) < TOL else format(r, "g")
    if abs(c.real) < TOL:
        r = c.imag
        return "i" if abs(r - 1.0) < TOL else "i" + format(r, "g")
    raise StructuralError(f"coefficient {c} is not representable in the grammar")


def format_term(term: PathKet, *, magnitude_only: bool = False) -> str:
    c = term.coefficient
    if magnitude_only:
        _, c = _split_sign(c)
    body = "-".join(
        f"_{s.label}_" if s.reflected else s.label for s in term.segments
    )
    out = f"{_format_coefficient(c)}|{body}>"
    if term.atoms:
        out += f"|{term.atoms}>"
    return out


def format_expression(expr: PathExpression) -> str:
    parts = []
    for i, term in enumerate(expr.terms):
        negative, _ = _split_sign(term.coefficient)
        if i == 0:
            parts.append(("-" if negative else "") + format_term(term, magnitude_only=True))
        else:
            parts.append(("- " if negative else "+ ") + format_term(term, magnitude_only=True))
    return " ".join(parts)


# -- evaluation against a network ------------------------------------------------


def _resolve(network: Network, label: str, aliases: Mapping[str, str] | None):
    target = (aliases or {}).get(label, label)
    try:
        return network.element(target)
    except StructuralError as err:
        raise ResolutionError(f"label {label!r} does not resolve to a network element") from err


def amplitude(
    term: PathKet, network: Network, aliases: Mapping[str, str] | None = None
) -> complex:
    """Product of the term's element factors times its coefficient."""
    elements = [_resolve(network, s.label, aliases) for s in term.segments]
    if not isinstance(elements[0], Emitter):
        raise StructuralError(f"path must start at an emitter, got {term.segments[0].label!r}")
    if not isinstance(elements[-1], (Detector, Emitter)) or (
        len(elements) > 1 and not isinstance(elements[-1], Detector)
    ):
        raise StructuralError(f"path must end at a detector, got {term.segments[-1].label!r}")
    value = term.coefficient
    for seg, element in zip(term.segments, elements):
        if isinstance(element, BeamSplitter):
            value *= _R if seg.reflected else _T
        elif seg.reflected:
            raise StructuralError(f"reflection marker on non-beam-splitter label {seg.label!r}")
        elif isinstance(element, Mirror):
            value *= complex(element.phase)
    return value


def sum_amplitudes(
    expr: PathExpression, network: Network, aliases: Mapping[str, str] | None = None
) -> complex:
    """Coherent sum over the expression's terms; |sum| < 1e-12 is cancellation."""
    return _total((amplitude(t, network, aliases) for t in expr.terms), 0j)


# -- route enumeration -------------------------------------------------------------


def enumerate_paths(network: Network) -> list[PathKet]:
    """All source-to-detector routes, as path kets over element ids.

    Boxes and mirrors met along a route appear as inert segments; reflection
    flags are set on beam-splitter segments according to which output the
    route takes.
    """
    _, consumed, boxes_on = _symbol_table(network)
    consumers = {sym: els[-1] for sym, els in consumed.items()}

    paths: list[PathKet] = []

    def walk(symbol: str, segments: tuple[PathSegment, ...]):
        segments = segments + tuple(PathSegment(b.id) for b in boxes_on.get(symbol, []))
        consumer = consumers.get(symbol)
        if consumer is None:
            return
        if isinstance(consumer, Detector):
            paths.append(PathKet(segments=segments + (PathSegment(consumer.id),)))
        elif isinstance(consumer, Mirror):
            walk(consumer.output, segments + (PathSegment(consumer.id),))
        elif isinstance(consumer, BeamSplitter):
            for out_sym, factor in consumer.forward_map()[symbol]:
                walk(out_sym, segments + (PathSegment(consumer.id, reflected=factor == _R),))

    for emitter in network.photon_emitters():
        for symbol in _emitted_symbols(emitter):
            walk(symbol, (PathSegment(emitter.id),))
    return paths


def surviving_detector_paths(
    network: Network, detector_id: str
) -> list[tuple[tuple[str, ...], tuple[PathKet, ...], complex]]:
    """Which joint atom z-assignments admit a transaction at a detector.

    For each assignment of one z symbol per atom, a route is open when no box
    along it holds its atom (assignment equals the blocking symbol).  Returns
    ``(assignment, open routes, coherent amplitude)`` for assignments whose
    open routes interfere to a nonzero total.
    """
    atoms = network.atoms()
    boxes = {b.id: b for b in network.boxes()}
    detector_paths = [
        p for p in enumerate_paths(network) if p.segments[-1].label == detector_id
    ]
    out = []
    for combo in itertools.product(*(a.basis for a in atoms)):
        assignment = dict(zip((a.id for a in atoms), combo))
        open_routes = []
        for path in detector_paths:
            blocked = any(
                seg.label in boxes and assignment[boxes[seg.label].atom] == boxes[seg.label].blocking
                for seg in path.segments
            )
            if not blocked:
                open_routes.append(path)
        total = _total((amplitude(p, network) for p in open_routes), 0j)
        if open_routes and abs(total) > TOL:
            out.append((tuple(combo), tuple(open_routes), total))
    return out
