"""Builtin experiments, exact/Monte-Carlo run harness, and verification checks.

The builtin family:

* ``ev-bomb``      -- balanced interferometer tuned so one port (D) is dark;
                      an obstruction on one arm makes D fire.
* ``hardy-ifm``    -- the obstruction is one spin component of an atom held
                      in a box on the lower arm.
* ``qle``          -- two boxed atoms, one component of each straddling the
                      two arms; detections at the dark port entangle them.
* ``qle-two-laser``-- same statistics from two mutually coherent sources
                      feeding the arms directly, no first splitter.
* ``qle-chsh``     -- the two-atom experiment run at four Bloch-angle setting
                      pairs, reported as a CHSH trial.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, replace

from .amplitudes import Ket, SubsystemSpec, _apply_symbol_map, approx_equal, tensor, unit
from .engine import (
    AtomBasis,
    ChshSettings,
    MeasurementContext,
    chsh,
    chsh_monte_carlo,
    enumerate_transactions,
    pair_correlation,
    post_select,
    sample_flat,
    z_context,
)
from .errors import UsageError
from .network import (
    AtomBox,
    BeamSplitter,
    Detector,
    Emitter,
    Network,
    backward_propagate,
    two_laser_variant,
)
from .pathnotation import parse, sum_amplitudes, surviving_detector_paths

_SQ2 = math.sqrt(2.0)


# -- network builders -----------------------------------------------------------


def _atom_pair(idx: int, amp_up: complex) -> tuple[SubsystemSpec, SubsystemSpec, Emitter]:
    """A spin-1/2 atom subsystem pair plus its source.

    The source emits ``amp_up |+> + (1/sqrt(2)) |->`` tensored with the ground
    level; the backward pass filters against that state, so a returning z
    eigenstate is attenuated by its overlap with the prepared state.
    """
    spin = SubsystemSpec(f"atom{idx}", "atom-spin", ("+", "-"))
    level = SubsystemSpec(f"atom{idx}-level", "atom-level", ("0", "1"))
    state = tensor(
        Ket((spin,), {("+",): amp_up, ("-",): 1.0 / _SQ2}),
        unit((level,), ("0",)),
    )
    return spin, level, Emitter(f"atom{idx}-source", 0, state)


def _mzi_elements(photon: SubsystemSpec) -> list:
    return [
        Emitter("L", 0, unit((photon,), ("s",))),
        BeamSplitter("S1", 1, ("s",), ("u", "v")),
        BeamSplitter("S2", 3, ("u", "v"), ("d", "c")),
        Detector("C", 4, "c"),
        Detector("D", 4, "d"),
    ]


def ev_bomb_network(present: bool = True) -> Network:
    """Dark-port interferometer, optionally obstructed on the lower arm."""
    if not present:
        photon = SubsystemSpec("photon", "photon-path", ("s", "u", "v", "c", "d"))
        return Network("ev-bomb", (photon,), tuple(_mzi_elements(photon)))
    photon = SubsystemSpec("photon", "photon-path", ("s", "u", "v", "c", "d", "bomb"))
    arm = SubsystemSpec("bomb-state", "atom-spin", ("armed",))
    level = SubsystemSpec("bomb-level", "atom-level", ("0", "1"))
    source = Emitter("bomb-source", 0, tensor(unit((arm,), ("armed",)), unit((level,), ("0",))))
    elements = _mzi_elements(photon) + [
        source,
        AtomBox("bomb", 2, "bomb-state", "armed", "v", "bomb-level"),
    ]
    return Network("ev-bomb", (photon, arm, level), tuple(elements))


def hardy_network() -> Network:
    """One atom prepared along +x, its up-along-z box intersecting arm v."""
    photon = SubsystemSpec("photon", "photon-path", ("s", "u", "v", "c", "d", "box-v"))
    spin, level, source = _atom_pair(1, amp_up=1.0 / _SQ2)
    elements = _mzi_elements(photon) + [
        source,
        AtomBox("box-v", 2, "atom1", "+", "v", "atom1-level"),
    ]
    return Network("hardy-ifm", (photon, spin, level), tuple(elements))


def qle_network() -> Network:
    """Two boxed atoms: atom 1's |+> box on arm v, atom 2's |-> box on arm u.

    The sources put a phase ``i`` on the up components, which makes the
    post-selected pair come out in the (|++> + |-->)/sqrt(2) form.
    """
    photon = SubsystemSpec("photon", "photon-path", ("s", "u", "v", "c", "d", "A", "B"))
    spin1, level1, source1 = _atom_pair(1, amp_up=1j / _SQ2)
    spin2, level2, source2 = _atom_pair(2, amp_up=1j / _SQ2)
    elements = _mzi_elements(photon) + [
        source1,
        source2,
        AtomBox("A", 2, "atom1", "+", "v", "atom1-level"),
        AtomBox("B", 2, "atom2", "-", "u", "atom2-level"),
    ]
    return Network("qle", (photon, spin1, level1, spin2, level2), tuple(elements))


DEFAULT_CHSH_ANGLES_DEG = (0.0, 90.0, 45.0, 135.0)


def chsh_settings_from_degrees(angles: tuple[float, float, float, float]) -> ChshSettings:
    a, ap, b, bp = (math.radians(x) for x in angles)
    return ChshSettings(a=(a, 0.0), a_prime=(ap, 0.0), b=(b, 0.0), b_prime=(bp, 0.0))


# -- scenarios --------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    network: Network
    context: MeasurementContext
    post_selection: str | None = None
    params: dict = field(default_factory=dict)


def _parse_atom_basis(spec: str) -> AtomBasis:
    if spec == "z":
        return AtomBasis.z()
    if spec == "y":
        return AtomBasis.y()
    if spec.startswith("bloch:"):
        try:
            theta, phi = (float(x) for x in spec.split(":", 1)[1].split(","))
        except ValueError as err:
            raise UsageError(f"bad bloch angles in {spec!r}; use bloch:theta,phi in degrees") from err
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise UsageError(f"bloch angles in {spec!r} must be finite")
        return AtomBasis.bloch(math.radians(theta), math.radians(phi))
    raise UsageError(f"unknown atom basis {spec!r} (expected z, y, or bloch:theta,phi)")


# each builtin scenario and the line ``tisim list`` prints for it
SCENARIOS = {
    "ev-bomb": "dark-port interferometer with an optional obstruction (bomb=present|absent)",
    "hardy-ifm": "interaction-free measurement with a boxed atom on one arm",
    "qle": "two boxed atoms straddling the arms; dark-port detections entangle them",
    "qle-two-laser": "the two-atom experiment fed by two coherent sources, no first splitter",
    "qle-chsh": "two-atom experiment at four Bloch settings, reported as a CHSH trial",
}


def scenario_names() -> tuple[str, ...]:
    return tuple(SCENARIOS)


def build_scenario(name: str, network: Network | None = None, **params) -> Scenario:
    """Construct a builtin scenario, on ``network`` in place of its builtin one if given.

    Common params: ``atom_basis`` ("z" | "y" | "bloch:theta,phi" in degrees; every
    atom is measured in it), ``post_select`` ("D" | "C" | None).  ``ev-bomb`` takes
    ``bomb`` ("present" | "absent"); ``qle-chsh`` takes ``angles`` (four polar angles
    in degrees, x-z plane), and no ``atom_basis``: its settings fix each atom's basis.
    """
    atom_basis = params.pop("atom_basis", None)
    post = params.pop("post_select", None)
    extra: dict = {}
    if name == "ev-bomb":
        bomb = params.pop("bomb", "present")
        if bomb not in ("present", "absent"):
            raise UsageError(f"bomb must be 'present' or 'absent', got {bomb!r}")
        builtin, extra = lambda: ev_bomb_network(present=bomb == "present"), {"bomb": bomb}
    elif name == "hardy-ifm":
        builtin = hardy_network
    elif name == "qle":
        builtin = qle_network
    elif name == "qle-two-laser":
        builtin = lambda: two_laser_variant(qle_network())
    elif name == "qle-chsh":
        angles = tuple(params.pop("angles", DEFAULT_CHSH_ANGLES_DEG))
        if len(angles) != 4:
            raise UsageError("qle-chsh needs exactly four angles (a, a', b, b') in degrees")
        if atom_basis is not None:
            raise UsageError("qle-chsh measures each atom at its angles; it takes no atom basis")
        builtin, post = qle_network, post or "D"
        extra = {"angles": angles, "settings": chsh_settings_from_degrees(angles)}
    else:
        raise UsageError(f"unknown scenario {name!r}; choose from {', '.join(scenario_names())}")
    if params:
        raise UsageError(f"unknown scenario parameters: {sorted(params)}")
    network = builtin() if network is None else network
    basis = _parse_atom_basis("z" if atom_basis is None else atom_basis)
    return Scenario(name, network, MeasurementContext({a.id: basis for a in network.atoms()}), post, extra)


# -- reports ----------------------------------------------------------------------


@dataclass
class RunReport:
    schema: int
    scenario: str
    mode: str
    seed: int | None
    trials: int | None
    outcomes: list[dict]
    photon_probabilities: dict[str, float]
    absorbed_probability: float
    derived: dict
    wall_time_s: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        return cls(**{f.name: data[f.name] for f in fields(cls)})

    def to_csv(self) -> str:
        lines = ["outcome,count,probability"]
        for row in self.outcomes:
            count = "" if row.get("count") is None else str(row["count"])
            lines.append(f"{row['outcome']},{count},{row['probability']!r}")
        return "\n".join(lines) + "\n"

    def payload_equal(self, other: "RunReport") -> bool:
        """Equality of everything except wall time."""
        a, b = self.to_dict(), other.to_dict()
        a.pop("wall_time_s"), b.pop("wall_time_s")
        return a == b


def run_exact(scenario: Scenario) -> RunReport:
    """Analytic distribution (and derived statistics) for a scenario."""
    return _run(scenario)


def run_mc(scenario: Scenario, trials: int, seed: int, workers: int = 1) -> RunReport:
    """Monte Carlo run; counts are bit-identical for any worker count.

    The engine counts the trials in blocks of 2**16 on up to ``workers`` threads,
    so runs of up to one block use one thread.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1")
    return _run(scenario, trials, seed, workers)


def _run(scenario: Scenario, trials: int | None = None, seed: int | None = None, workers: int = 1) -> RunReport:
    """The report of an exact run (``trials`` None) or a Monte Carlo one."""
    t0 = time.perf_counter()
    is_chsh = scenario.name == "qle-chsh"
    post = scenario.post_selection or ("D" if is_chsh else None)
    derived: dict = {"post_selected_on": post} if post else {}
    if is_chsh:
        settings = scenario.params["settings"]
        if trials is None:
            result = chsh(scenario.network, settings, post)
            outcomes = [
                {"outcome": f"{key}:{o.label}", "count": None, "probability": w / len(result.distributions)}
                for key, conditional in result.distributions.items()
                for o, w in zip(conditional.outcomes, conditional.weights)
            ]
        else:
            result = chsh_monte_carlo(scenario.network, settings, trials, seed, post, workers)
            outcomes = [
                {"outcome": f"{key}:{kind}", "count": k, "probability": k / trials}
                for key, pair in result.counts.items()
                for kind, k in zip(("same", "different"), pair)
            ]
        derived.update(
            chsh_s=result.s,
            correlations=dict(result.correlations),
            angles_deg=list(scenario.params["angles"]),
        )
        photon_probabilities, absorbed_probability = {post: 1.0}, 0.0
    else:
        dist = enumerate_transactions(scenario.network, scenario.context)
        reported = post_select(dist, post)[0] if post else dist
        if trials is None:
            if post:
                derived["selection_probability"] = dist.photon_marginal().get(post, 0.0)
            if (correlation := pair_correlation(scenario.network, reported)) is not None:
                derived["correlation"] = correlation
            counts = [None] * len(reported.outcomes)
        else:
            counts = sample_flat(reported, trials, seed, workers=workers).tolist()
            # observed frequencies stand in for the weights, so the marginals are sampled ones
            reported = replace(reported, weights=tuple(k / trials for k in counts))
        outcomes = [
            {"outcome": o.label, "count": k, "probability": w}
            for o, w, k in zip(reported.outcomes, reported.weights, counts)
        ]
        photon_probabilities = reported.photon_marginal()
        absorbed_probability = reported.absorbed_probability()
    return RunReport(
        schema=1,
        scenario=scenario.name,
        mode="exact" if trials is None else "monte-carlo",
        seed=seed,
        trials=trials,
        outcomes=outcomes,
        photon_probabilities=photon_probabilities,
        absorbed_probability=absorbed_probability,
        derived=derived,
        wall_time_s=time.perf_counter() - t0,
    )


# -- verification checklist ---------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    observed: str
    expected: str


def _close(a: complex, b: complex, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def verification_checks() -> list[Check]:
    """Run the amplitude, cancellation, and echo identities as assertions."""
    checks: list[Check] = []

    def check(name: str, passed: bool, observed, expected):
        checks.append(Check(name, bool(passed), str(observed), str(expected)))

    r = 1.0 / (2.0 * _SQ2)

    # splitter conventions: s -> (i u + v)/sqrt2 ; u -> (c + i d)/sqrt2 ; v -> (d + i c)/sqrt2
    photon = SubsystemSpec("photon", "photon-path", ("s", "u", "v", "c", "d"))
    s1 = BeamSplitter("S1", 1, ("s",), ("u", "v")).forward_map()
    out1 = _apply_symbol_map(unit((photon,), ("s",)), 0, s1)
    ok1 = _close(out1.amplitude(("u",)), 1j / _SQ2) and _close(out1.amplitude(("v",)), 1.0 / _SQ2)
    check("first-splitter-rule", ok1, repr(out1), "(i|u> + |v>)/sqrt2")

    s2 = BeamSplitter("S2", 1, ("u", "v"), ("d", "c")).forward_map()
    from_u, from_v = (_apply_symbol_map(unit((photon,), (sym,)), 0, s2) for sym in ("u", "v"))
    ok2 = (
        _close(from_u.amplitude(("c",)), 1.0 / _SQ2)
        and _close(from_u.amplitude(("d",)), 1j / _SQ2)
        and _close(from_v.amplitude(("d",)), 1.0 / _SQ2)
        and _close(from_v.amplitude(("c",)), 1j / _SQ2)
    )
    check(
        "second-splitter-rule",
        ok2,
        f"u -> {from_u!r}, v -> {from_v!r}",
        "u -> (|c> + i|d>)/sqrt2, v -> (|d> + i|c>)/sqrt2",
    )

    # single-atom interferometer: detector-region amplitudes and absorbed mass
    hardy = hardy_network()
    trace = hardy._offer_wave
    got = trace.continuing
    expectations = {
        ("d", "+", "0"): -r,
        ("c", "+", "0"): 1j * r,
        ("c", "-", "0"): 1j / _SQ2,
    }
    ok = all(_close(got.amplitude(k), v) for k, v in expectations.items()) and len(got) == 3
    check(
        "hardy-detector-amplitudes",
        ok,
        repr(got),
        "-(1/2sqrt2)|d,+> + (i/2sqrt2)|c,+> + (i/sqrt2)|c,->",
    )
    absorbed = trace.absorbed_ket("box-v")
    check(
        "hardy-absorbed-amplitude",
        _close(absorbed.amplitude(("box-v", "+", "1")), 0.5),
        repr(absorbed),
        "(1/2)|absorbed,+,excited>",
    )

    # confirmation-wave echo at the dark port: 1/4 x 1/2 = 1/8
    conf = unit((hardy.photon,), ("d",), bra=True)
    spin_spec = hardy.atoms()[0]
    echo = backward_propagate(
        hardy,
        conf,
        {"atom1": unit((spin_spec,), ("+",), bra=True)},
        ow_amplitudes={"L": 0.5, "atom1-source": 1.0 / _SQ2},
    )
    ok = (
        _close(echo.emitter_amplitudes["L"], 0.25)
        and _close(echo.emitter_amplitudes["atom1-source"], 0.5)
        and _close(echo.product(), 0.125)
    )
    check("cw-echo-one-eighth", ok, f"{echo.emitter_amplitudes} product={echo.product()}", "[1/4][1/2] = 1/8")

    # two-atom experiment: final coefficients and the post-selected pair
    qle = qle_network()
    final = qle._offer_wave.continuing
    expectations = {
        ("d", "+", "0", "+", "0"): 0.25,
        ("d", "-", "0", "-", "0"): 0.25,
        ("c", "-", "0", "-", "0"): 0.25j,
        ("c", "+", "0", "+", "0"): -0.25j,
        ("c", "-", "0", "+", "0"): -0.5,
    }
    ok = all(_close(final.amplitude(k), v) for k, v in expectations.items()) and len(final) == 5
    check(
        "qle-final-coefficients",
        ok,
        repr(final),
        "(1/4)(|d,++> + |d,--> + i|c,--> - i|c,++> - 2|c,-+>)",
    )

    dist = enumerate_transactions(qle, z_context(qle))
    cond, pair = post_select(dist, "D")
    ok = (
        pair is not None
        and _close(pair.amplitude(("+", "+")), 1.0 / _SQ2)
        and _close(pair.amplitude(("-", "-")), 1.0 / _SQ2)
        and len(pair) == 2
    )
    check("qle-post-selected-pair", ok, repr(pair), "(|++> + |-->)/sqrt2")

    marg = dist.photon_marginal()
    ok = (
        _close(marg.get("D", 0.0), 0.125)
        and _close(marg.get("C", 0.0), 0.375)
        and _close(dist.absorbed_probability(), 0.5)
    )
    check(
        "qle-distribution",
        ok,
        f"D={marg.get('D')}, C={marg.get('C')}, absorbed={dist.absorbed_probability()}",
        "D=1/8, C=3/8, absorbed=1/2",
    )

    # dark-port cancellation, in path notation and in the propagated state
    cancel = sum_amplitudes(parse("|L-_S1_-A-_S2_-D> + |L-S1-B-S2-D>"), qle)
    prop_mixed = final.amplitude(("d", "-", "0", "+", "0"))
    ok = abs(cancel) < 1e-12 and abs(prop_mixed) < 1e-12
    check("path-cancellation", ok, f"path sum {cancel}, propagated {prop_mixed}", "both 0")

    survivors = surviving_detector_paths(qle, "D")
    labels = {assignment for assignment, _, _ in survivors}
    amps_ok = all(_close(abs(total), 0.5) for _, _, total in survivors)
    check(
        "path-survivors",
        labels == {("+", "+"), ("-", "-")} and amps_ok,
        str(sorted(labels)),
        "matched-spin components only, each of modulus 1/2",
    )

    # two coherent sources reproduce the single-source statistics
    twin = two_laser_variant(qle)
    final_twin = twin._offer_wave.continuing
    ok = approx_equal(final, final_twin, tol=1e-12)
    cond_twin, pair_twin = post_select(enumerate_transactions(twin, z_context(twin)), "D")
    ok = ok and pair_twin is not None and approx_equal(pair, pair_twin, tol=1e-12)
    check("two-laser-equivalence", ok, repr(final_twin), "identical detector-region state")

    return checks
