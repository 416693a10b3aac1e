import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tisim as t
from tisim.amplitudes import SubsystemSpec, _total, unit
from tisim.errors import StructuralError, ValidationError

RT2 = math.sqrt(2.0)
R = 1.0 / (2.0 * RT2)

PHOTON = SubsystemSpec("photon", "photon-path", ("s", "u", "v", "c", "d"))
SPIN1 = SubsystemSpec("atom1", "atom-spin", ("+", "-"))
SPIN2 = SubsystemSpec("atom2", "atom-spin", ("+", "-"))

Y_MATRIX = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / RT2  # rows: y+, y-


def spin_ket(spec, up, down):
    return t.Ket((spec,), {("+",): up, ("-",): down})


def hardy_detector_state():
    # single-atom interferometer state in the detector region
    return t.Ket(
        (PHOTON, SPIN1),
        {("d", "+"): -R, ("c", "+"): 1j * R, ("c", "-"): 1j / RT2},
    )


def qle_detector_state():
    return t.Ket(
        (PHOTON, SPIN1, SPIN2),
        {
            ("d", "+", "+"): 0.25,
            ("d", "-", "-"): 0.25,
            ("c", "-", "-"): 0.25j,
            ("c", "+", "+"): -0.25j,
            ("c", "-", "+"): -0.5,
        },
    )


# -- tensor ---------------------------------------------------------------------


def test_tensor_source_times_x_up_atom():
    photon = unit((PHOTON,), ("s",))
    atom = spin_ket(SPIN1, 1 / RT2, 1 / RT2)
    product = t.tensor(photon, atom)
    assert abs(product.amplitude(("s", "+")) - 1 / RT2) < 1e-12
    assert abs(product.amplitude(("s", "-")) - 1 / RT2) < 1e-12
    assert len(product) == 2


def test_tensor_identity_amplitudes():
    product = t.tensor(unit((PHOTON,), ("u",)), unit((SPIN1,), ("+",)))
    assert product.amplitude(("u", "+")) == 1.0 + 0j
    assert len(product) == 1


def brute_force_triple_product():
    """Oracle: expand |s> x (i|+>+|->)/sqrt2 x (i|+>+|->)/sqrt2 by enumeration."""
    atom = {"+": 1j / RT2, "-": 1.0 / RT2}
    out = {}
    for s1, a1 in atom.items():
        for s2, a2 in atom.items():
            out[("s", s1, s2)] = a1 * a2
    return out


def test_tensor_triple_product_matches_enumeration():
    expected = brute_force_triple_product()
    # frozen values from the oracle: i*i/2, i/2, i/2, 1/2
    assert abs(expected[("s", "+", "+")] - (-0.5)) < 1e-15
    assert abs(expected[("s", "+", "-")] - 0.5j) < 1e-15
    assert abs(expected[("s", "-", "+")] - 0.5j) < 1e-15
    assert abs(expected[("s", "-", "-")] - 0.5) < 1e-15
    product = t.tensor(
        t.tensor(unit((PHOTON,), ("s",)), spin_ket(SPIN1, 1j / RT2, 1 / RT2)),
        spin_ket(SPIN2, 1j / RT2, 1 / RT2),
    )
    assert len(product) == 4
    for label, amp in expected.items():
        assert abs(product.amplitude(label) - amp) < 1e-12


def test_tensor_rejects_overlapping_subsystems():
    a = unit((PHOTON,), ("s",))
    with pytest.raises(StructuralError, match="duplicate subsystem ids"):
        t.tensor(a, a)


# -- inner ----------------------------------------------------------------------


def test_inner_dark_port_component():
    bra = unit((PHOTON, SPIN1), ("d", "+"), bra=True)
    assert abs(t.inner(bra, hardy_detector_state()) - (-R)) < 1e-12


def test_inner_norm_of_normalized_state():
    k = spin_ket(SPIN1, 1j / RT2, 1 / RT2)
    assert abs(t.inner(t.dual(k), k) - 1.0) < 1e-12


def test_inner_matched_pair_component_of_final_state():
    bra = unit((PHOTON, SPIN1, SPIN2), ("d", "+", "+"), bra=True)
    assert abs(t.inner(bra, qle_detector_state()) - 0.25) < 1e-12


def test_inner_rejects_mismatched_spaces():
    with pytest.raises(StructuralError):
        t.inner(unit((SPIN1,), ("+",), bra=True), unit((SPIN2,), ("+",)))
    with pytest.raises(StructuralError):
        t.inner(unit((SPIN1,), ("+",)), unit((SPIN1,), ("+",)))  # two kets


# -- add / scale / norm_sq --------------------------------------------------------


def test_add_exact_cancellation_is_empty():
    u = unit((PHOTON,), ("u",))
    out = t.add(u, t.scale(-1.0, u))
    assert out.is_zero
    assert len(out) == 0


def test_zero_pruning_threshold():
    u = unit((PHOTON,), ("u",))
    nearly = t.add(u, t.scale(-(1.0 - 1e-15), u))
    assert nearly.is_zero  # residual below the pruning threshold drops out


def test_norm_sq_detector_region_single_atom():
    # 1/8 + 1/8 + 1/2; the missing 1/4 is the absorbed component
    assert abs(t.norm_sq(hardy_detector_state()) - 0.75) < 1e-12


def test_norm_sq_detector_region_two_atoms():
    # 4 x 1/16 + 4/16; the absorbed complement is 1/2
    assert abs(t.norm_sq(qle_detector_state()) - 0.5) < 1e-12


# -- project ----------------------------------------------------------------------


def test_project_dark_port_sector():
    sector = t.project(qle_detector_state(), "photon", "d")
    assert len(sector) == 2
    assert abs(sector.amplitude(("d", "+", "+")) - 0.25) < 1e-12
    assert abs(sector.amplitude(("d", "-", "-")) - 0.25) < 1e-12


def test_project_empty_ket():
    empty = t.Ket((PHOTON,), {})
    assert t.project(empty, "photon", "c").is_zero


def test_project_bright_port_mass():
    sector = t.project(hardy_detector_state(), "photon", "c")
    assert abs(t.norm_sq(sector) - 0.625) < 1e-12  # 1/8 + 1/2


def test_project_unknown_symbol_or_subsystem():
    k = hardy_detector_state()
    with pytest.raises(StructuralError):
        t.project(k, "photon", "nope")
    with pytest.raises(StructuralError):
        t.project(k, "widget", "c")


# -- rebase -----------------------------------------------------------------------


def test_rebase_z_up_into_y_basis():
    out = t.rebase(unit((SPIN1,), ("+",)), "atom1", Y_MATRIX, ("y+", "y-"))
    assert abs(out.amplitude(("y+",)) - 1 / RT2) < 1e-12
    assert abs(out.amplitude(("y-",)) - 1 / RT2) < 1e-12


def test_rebase_then_inverse_roundtrips():
    k = spin_ket(SPIN1, 0.6, 0.8j)
    there = t.rebase(k, "atom1", Y_MATRIX, ("y+", "y-"))
    back = t.rebase(there, "atom1", Y_MATRIX.conj().T, ("+", "-"))
    assert t.approx_equal(k, back, tol=1e-12)


def bell_pair_y_oracle():
    """Brute-force 4x4 basis change of (|++> + |-->)/sqrt2 into y x y."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / RT2  # ++ and --
    u4 = np.kron(Y_MATRIX, Y_MATRIX)
    return u4.conj() @ psi  # order: (y+,y+), (y+,y-), (y-,y+), (y-,y-)


def test_rebase_bell_pair_to_y_matches_oracle():
    oracle = bell_pair_y_oracle()
    # frozen oracle values: equal-y amplitudes vanish, opposite-y carry 1/sqrt2
    assert abs(oracle[0]) < 1e-15 and abs(oracle[3]) < 1e-15
    assert abs(abs(oracle[1]) - 1 / RT2) < 1e-15
    assert abs(abs(oracle[2]) - 1 / RT2) < 1e-15

    pair = t.Ket((SPIN1, SPIN2), {("+", "+"): 1 / RT2, ("-", "-"): 1 / RT2})
    rotated = t.rebase(
        t.rebase(pair, "atom1", Y_MATRIX, ("y+", "y-")), "atom2", Y_MATRIX, ("y+", "y-")
    )
    labels = [("y+", "y+"), ("y+", "y-"), ("y-", "y+"), ("y-", "y-")]
    for label, expected in zip(labels, oracle):
        assert abs(rotated.amplitude(label) - expected) < 1e-12
    assert abs(rotated.amplitude(("y+", "y+"))) < 1e-12  # perfect y anti-correlation


def test_rebase_rejects_non_unitary():
    """Also a matrix that is not 2x2, and new symbols that are not two."""
    for matrix, symbols, match in (
        (np.array([[1, 1], [0, 1]]), ("a", "b"), "not unitary"),
        (np.eye(3), ("a", "b"), "must be 2x2"),
        (np.eye(2), ("a", "b", "c"), "exactly two"),
        (np.eye(2), ("a",), "exactly two"),
    ):
        with pytest.raises(ValidationError, match=match):
            t.rebase(unit((SPIN1,), ("+",)), "atom1", matrix, symbols)


def test_rebase_rejects_wide_subsystem():
    with pytest.raises(StructuralError):
        t.rebase(unit((PHOTON,), ("s",)), "photon", np.eye(2), ("a", "b"))


def test_rebase_preserves_norm_for_random_unitaries():
    rng = np.random.default_rng(2024)
    k = t.Ket((SPIN1, SPIN2), {
        ("+", "+"): 0.3 + 0.1j, ("+", "-"): -0.4j, ("-", "+"): 0.5, ("-", "-"): 0.2 - 0.6j,
    })
    base = t.norm_sq(k)
    for trial in range(100):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(m)
        out = t.rebase(k, "atom1", q, ("a", "b"))
        assert abs(t.norm_sq(out) - base) < 1e-12


# -- property tests ----------------------------------------------------------------

amplitudes = st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
labels = st.tuples(st.sampled_from(PHOTON.basis), st.sampled_from(SPIN1.basis))
kets = st.dictionaries(labels, amplitudes, max_size=8).map(
    lambda d: t.Ket((PHOTON, SPIN1), d)
)


@given(kets)
def test_inner_with_own_dual_is_norm_sq(k):
    assert abs(t.inner(t.dual(k), k) - t.norm_sq(k)) < 1e-12


@given(kets)
def test_projections_partition_norm(k):
    total = sum(t.norm_sq(t.project(k, "photon", sym)) for sym in PHOTON.basis)
    assert abs(total - t.norm_sq(k)) < 1e-12


@given(kets, kets)
def test_add_commutes(a, b):
    assert t.approx_equal(t.add(a, b), t.add(b, a), tol=1e-12)


# -- exact arithmetic oracle ---------------------------------------------------------


class ExactC:
    """Exact complex numbers of the form (a + b*sqrt2) + i(c + d*sqrt2), Fractions."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a, self.b, self.c, self.d = (Fraction(x) for x in (a, b, c, d))

    def __add__(self, o):
        return ExactC(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __mul__(self, o):
        # (a+b r)(a'+b' r) = aa'+2bb' + (ab'+a'b) r with r = sqrt2
        ra, rb = self.a, self.b
        ia, ib = self.c, self.d
        oa, ob = o.a, o.b
        oc, od = o.c, o.d
        real_a = ra * oa + 2 * rb * ob - (ia * oc + 2 * ib * od)
        real_b = ra * ob + rb * oa - (ia * od + ib * oc)
        imag_a = ra * oc + 2 * rb * od + ia * oa + 2 * ib * ob
        imag_b = ra * od + rb * oc + ia * ob + ib * oa
        return ExactC(real_a, real_b, imag_a, imag_b)

    def to_complex(self) -> complex:
        return complex(
            float(self.a) + float(self.b) * RT2, float(self.c) + float(self.d) * RT2
        )


EXACT_POOL = [
    ExactC(1), ExactC(-1), ExactC(0, 0, 1), ExactC(0, 0, -1),
    ExactC(0, Fraction(1, 2)), ExactC(0, 0, 0, Fraction(1, 2)),  # 1/sqrt2, i/sqrt2
    ExactC(Fraction(1, 2)), ExactC(Fraction(-3, 4)), ExactC(0, 0, Fraction(1, 4)),
]


def test_exactness_over_hundred_operations():
    """Dyadic x {1, i, sqrt2-power} amplitudes drift < 1e-12 over 100 ops."""
    rng = np.random.default_rng(7)
    space = (SPIN1, SPIN2)
    keys = [(s1, s2) for s1 in SPIN1.basis for s2 in SPIN2.basis]

    exact = {k: ExactC(0) for k in keys}
    for k in keys:
        exact[k] = EXACT_POOL[int(rng.integers(len(EXACT_POOL)))]
    state = t.Ket(space, {k: v.to_complex() for k, v in exact.items()})

    for _ in range(100):
        op = rng.integers(3)
        if op == 0:  # scale by a pool element
            factor = EXACT_POOL[int(rng.integers(len(EXACT_POOL)))]
            exact = {k: factor * v for k, v in exact.items()}
            state = t.scale(factor.to_complex(), state)
        elif op == 1:  # add a pool-valued ket
            other = {k: EXACT_POOL[int(rng.integers(len(EXACT_POOL)))] for k in keys}
            exact = {k: exact[k] + other[k] for k in keys}
            state = t.add(state, t.Ket(space, {k: v.to_complex() for k, v in other.items()}))
        else:  # add the negation of a random single term (partial cancellation)
            k = keys[int(rng.integers(len(keys)))]
            delta = ExactC(-1) * exact[k]
            exact = {**exact, k: exact[k] + delta}
            state = t.add(state, t.Ket(space, {k: delta.to_complex()}))
    for k in keys:
        assert abs(state.amplitude(k) - exact[k].to_complex()) < 1e-12


# -- coded states against plain Python complex arithmetic ---------------------------
#
# The references below are the dict-of-labels algorithms: Python complex
# products, sums from 0j in insertion order.  The coded states must give the
# same amplitudes to the last bit (signed zeros included, compared by repr) and,
# for the maps that feed ordered sums, the same term order.


def dict_symbol_map(terms, i, mapping):
    out = {}
    for label, amp in terms.items():
        for sym, factor in mapping.get(label[i], [(label[i], None)]):
            new = label[:i] + (sym,) + label[i + 1 :]
            out[new] = out.get(new, 0j) + (amp if factor is None else factor * amp)
    return {k: v for k, v in out.items() if abs(v) >= 1e-14}


def exact_items(terms):
    return [(label, repr(complex(amp))) for label, amp in terms.items()]


def random_ket(rng, space, n):
    """Amplitudes with zero, negative-zero and general parts, so signed zeros arise."""
    labels = {tuple(spec.basis[int(rng.integers(len(spec.basis)))] for spec in space) for _ in range(n)}
    parts = lambda: rng.choice([0.0, -0.0, rng.normal(), rng.normal()])
    return t.Ket(space, {label: complex(parts(), parts()) for label in labels})


def test_symbol_maps_match_dict_reference_in_values_and_order():
    from tisim.amplitudes import _apply_symbol_map

    rng = np.random.default_rng(11)
    r, s = 1j / RT2, 1 / RT2
    maps = [
        {"s": [("u", r), ("v", s)]},  # one input: no two terms meet
        {"u": [("c", r), ("d", s)], "v": [("c", s), ("d", r)]},  # two inputs merge
        {"c": [("u", s), ("v", r)], "d": [("u", r), ("v", s)]},
        {"v": [("d", complex(np.exp(0.7j)))]},  # a mirror onto an occupied symbol merges too
    ]
    for _ in range(50):
        k = random_ket(rng, (PHOTON, SPIN1, SPIN2), int(rng.integers(1, 30)))
        for mapping in maps:
            got = _apply_symbol_map(k, 0, mapping)
            assert exact_items(got.terms) == exact_items(dict_symbol_map(k.terms, 0, mapping))


def test_total_adds_in_order_from_positive_zero_without_compensation():
    assert _total([0.1] * 10) == 0.9999999999999999  # a compensated sum gives 1.0
    assert _total([1e100, 1.0, -1e100]) == 0.0 and _total(iter([0.5, 0.25])) == 0.75
    assert math.copysign(1.0, _total([-0.0])) == 1.0 and _total([]) == 0.0
    assert _total([], 0j) == 0j and _total([1j, 0.5], 0j) == 0.5 + 1j


def test_products_sums_and_norms_match_python_complex_arithmetic():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = random_ket(rng, (PHOTON,), 4)
        b = random_ket(rng, (SPIN1, SPIN2), 3)
        c = complex(*rng.normal(size=2))
        product = {la + lb: va * vb for la, va in a.terms.items() for lb, vb in b.terms.items()}
        assert exact_items(t.tensor(a, b).terms) == exact_items(product)
        assert exact_items(t.scale(c, a).terms) == exact_items({l: c * v for l, v in a.terms.items()})
        norm = 0.0  # every sum adds in order from +0.0, uncompensated
        for v in b.terms.values():
            norm += abs(v) ** 2
        assert t.norm_sq(b) == norm
        other = random_ket(rng, (PHOTON,), 4)
        total = {label: 0j + amp for label, amp in a.terms.items()}  # sums start at +0.0
        for label, amp in other.terms.items():
            total[label] = total.get(label, 0j) + amp
        assert exact_items(t.add(a, other).terms) == exact_items({l: v for l, v in total.items() if abs(v) >= 1e-14})
        bra = t.dual(other)
        overlap = 0j
        for l, v in bra.terms.items():
            overlap += v * a.terms.get(l, 0j)
        assert t.inner(bra, a) == overlap


def test_rebase_matches_dict_reference_values():
    rng = np.random.default_rng(13)
    for _ in range(50):
        k = random_ket(rng, (PHOTON, SPIN1, SPIN2), int(rng.integers(1, 20)))
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        # diagonal and anti-diagonal bases leave each new symbol a single branch
        for m in (q, np.diag([1.0, -1.0]), np.array([[0.0, 1j], [1.0, 0.0]])):
            coeff = m.conj()
            mapping = {
                old: [(new, coeff[j, c]) for j, new in enumerate(("a", "b")) if abs(coeff[j, c]) >= 1e-14]
                for c, old in enumerate(SPIN2.basis)
            }
            got = t.rebase(k, "atom2", m, ("a", "b"))
            assert exact_items(got.terms) == exact_items(dict_symbol_map(k.terms, 2, mapping))


def test_approx_equal_is_false_across_types_or_spaces():
    ket = unit((PHOTON,), ("s",))
    assert t.approx_equal(ket, unit((PHOTON,), ("s",)))
    assert not t.approx_equal(ket, t.dual(ket))
    assert not t.approx_equal(ket, unit((SubsystemSpec("photon", "photon-path", ("s",)),), ("s",)))


def test_coded_states_keep_the_public_checks():
    with pytest.raises(StructuralError, match="not in the basis"):
        t.Ket((PHOTON,), {("x",): 1.0})
    with pytest.raises(StructuralError, match="does not cover"):
        t.Ket((PHOTON, SPIN1), {("s",): 1.0})
    wide = tuple(SubsystemSpec(f"a{i}", "atom-spin", ("+", "-")) for i in range(64))
    with pytest.raises(StructuralError, match="64-bit"):
        t.Ket(wide, {})


def test_tensor_of_several_states_nests_term_by_term():
    level = SubsystemSpec("level", "atom-level", ("0", "1"))
    photon = t.Ket((PHOTON,), {("u",): 0.6, ("v",): 0.8j})
    atom = spin_ket(SPIN1, 1j / RT2, 1 / RT2)
    excited = t.Ket((level,), {("0",): 0.28 - 0.96j, ("1",): 1e-3})
    terms = lambda state: repr(list(state.items()))
    for a, b, c in ((photon, atom, excited), (excited, photon, atom)):
        assert terms(t.tensor(a, b, c)) == terms(t.tensor(t.tensor(a, b), c))
        bras = [t.dual(a), t.dual(b), t.dual(c)]
        assert terms(t.tensor(*bras)) == terms(t.tensor(t.tensor(*bras[:2]), bras[2]))
    with pytest.raises(StructuralError):
        t.tensor(photon, atom, t.dual(excited))


def test_a_map_branch_outside_the_basis_is_refused():
    from tisim.amplitudes import _apply_symbol_map

    state = unit((PHOTON,), ("s",))
    for mapping in ({"s": (("x", 1.0),)}, {"s": (("u", 0.6), ("nowhere", 0.8))}):
        with pytest.raises(StructuralError, match=r"symbol '(x|nowhere)' is not in the basis"):
            _apply_symbol_map(state, 0, mapping)
