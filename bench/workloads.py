"""The benchmark's workloads: seeded inputs, one cycle of ops, and output checks.

Every op calls tisim through module attributes (``cli.main``, ``engine.*``) at
call time, so the tracer's wrappers see the calls.  An op raises on a failed
check; the loop counts that as a failed op and carries on.

Workloads (why each exists is in README.md):

* ``exact-builtins`` -- the CLI in exact mode over every builtin, basis and
  post-selection, plus ``qle-chsh``, ``verify`` and ``path``, plus library ops
  on one shared qle and one shared hardy network object;
* ``mc-bulk`` -- Monte Carlo through the CLI at 10^5, 10^6 and 10^7 trials with
  1 and 2 workers, ``qle-chsh`` at 10^7 pairs and library hierarchical sampling;
* ``cascade`` -- enumeration, hierarchical distribution and echo weights on
  seeded K-stage cascades for K = 3..9.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cascade import cascade
from tisim import cli, engine, scenarios

TOL = 1e-12
SQ2 = math.sqrt(2.0)
BUILTINS = ("ev-bomb", "hardy-ifm", "qle", "qle-two-laser")
CANCELLATION = "|L-_S1_-A-_S2_-D> + |L-S1-B-S2-D>"
MC_SIZES = (10**5, 10**6, 10**7)
CHSH_PAIRS = 10**7
HIER_TRIALS = 10**6
DIGEST_TRIALS = 10**5
CASCADE_KS = tuple(range(3, 10))
ECHO_TOP = 8
RESOLVE_BLOCK = 8
DIGESTS = Path(__file__).with_name("digests.json")
WORKLOADS = ("exact-builtins", "mc-bulk", "cascade")


class CheckFailed(Exception):
    """An op returned output that fails its check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], None]
    trials: int = 0  # Monte Carlo trials (CHSH pairs) the op samples


@dataclass
class Workload:
    cycle: list[Op]  # the closed loop repeats this list in order
    warmup: list[Op]  # run once, untimed, still checked
    # The tail percentile is fixed per workload, not derived from each run's op
    # count, so a faster program is not charged with a higher percentile.  It is
    # the highest of p90, p99, p99.9 with at least ten ops beyond it at half the
    # op rate of a 30 s run at the commit that defined the benchmark.
    tail_percentile: float


# -- helpers -------------------------------------------------------------------


def run_cli(argv: list[str]) -> str:
    """``cli.main`` in-process with stdout captured; a nonzero exit fails."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    check(code == 0, f"{' '.join(argv)!r} exited {code}")
    return buf.getvalue()


def check_weights(weights: list[float], what: str) -> None:
    total = math.fsum(weights)
    check(abs(total - 1.0) <= TOL, f"{what}: total weight {total!r} != 1")


def check_same_distribution(a, b, what: str) -> None:
    check(
        [c.outcome for c in a.candidates] == [c.outcome for c in b.candidates],
        f"{what}: outcome sets differ",
    )
    worst = max((abs(x.weight - y.weight) for x, y in zip(a.candidates, b.candidates)), default=0.0)
    check(worst <= TOL, f"{what}: weights differ by {worst:.3e}")


def check_echo(network, outcomes, context, what: str) -> None:
    for c in outcomes:
        echo = engine.echo_weight(network, c.outcome, context)
        check(abs(echo - c.weight) <= TOL, f"{what}: echo {echo!r} != Born {c.weight!r} for {c.outcome.label}")


def counts_of(report: dict) -> list[int]:
    return [row["count"] for row in report["outcomes"]]


def digest(counts) -> str:
    return hashlib.sha256(json.dumps([int(c) for c in counts]).encode()).hexdigest()


# -- exact-builtins --------------------------------------------------------------


def _cli_exact_op(name: str, basis: str, post: str) -> Op:
    argv = ["run", name, "--exact", "--atom-basis", basis, "--post-select", post]

    def op() -> None:
        report = json.loads(run_cli(argv))
        check_weights([row["probability"] for row in report["outcomes"]], " ".join(argv))
        if name == "qle" and basis == "z" and post == "d":
            probs = {row["outcome"]: row["probability"] for row in report["outcomes"]}
            d = report["derived"]["selection_probability"]
            check(abs(d - 0.125) <= TOL, f"qle: P(D) = {d!r}, expected 1/8")
            check(
                probs.keys() == {"D|+;+", "D|-;-"}
                and all(abs(p - 0.5) <= TOL for p in probs.values()),
                f"qle: post-selected pair {probs} is not (|++> + |-->)/sqrt2",
            )

    return Op(f"cli run {name} --exact {basis} {post}", op)


def _cli_misc_ops() -> list[Op]:
    def chsh_exact() -> None:
        report = json.loads(run_cli(["run", "qle-chsh", "--exact"]))
        check_weights([row["probability"] for row in report["outcomes"]], "qle-chsh --exact")
        s = report["derived"]["chsh_s"]
        check(abs(s - 2.0 * SQ2) <= TOL, f"qle-chsh: S = {s!r}, expected 2 sqrt2")

    def verify() -> None:
        last = run_cli(["verify", "--quiet"]).strip().splitlines()[-1]
        passed, total = last.split()[0].split("/")
        check(passed == total, f"verify: {last}")

    def path() -> None:
        out = run_cli(["path", CANCELLATION])
        check("exact cancellation" in out, f"path: no cancellation in {out!r}")

    return [
        Op("cli run qle-chsh --exact", chsh_exact),
        Op("cli verify --quiet", verify),
        Op("cli path cancellation", path),
    ]


def _library_ops(label: str, network, context, trials: list[int], seed: int) -> list[Op]:
    """echo-all, hierarchical and a per-trial resolve block on one shared object.

    The echo op enumerates and keeps the flat distribution; the other two ops
    compare against or sample from the latest one (warm-up and every cycle run
    echo first).
    """
    flat: dict = {}

    def echo_all() -> None:
        dist = flat["dist"] = engine.enumerate_transactions(network, context)
        check_weights([c.weight for c in dist.candidates], f"{label} flat")
        check_echo(network, dist.candidates, context, label)
        if label == "qle z":
            conditional, pair = engine.post_select(dist, "D")
            d = dist.photon_marginal()["D"]
            check(abs(d - 0.125) <= TOL, f"qle z: P(D) = {d!r}, expected 1/8")
            check(
                pair is not None
                and len(pair) == 2
                and abs(pair.amplitude(("+", "+")) - 1 / SQ2) <= TOL
                and abs(pair.amplitude(("-", "-")) - 1 / SQ2) <= TOL,
                f"qle z: post-selected pair {pair!r} is not (|++> + |-->)/sqrt2",
            )

    def hierarchical() -> None:
        hier = engine.hierarchical_distribution(network, context)
        check_same_distribution(flat["dist"], hier, f"{label} hierarchical vs flat")

    def resolve() -> None:
        dist = flat["dist"]
        outcomes = {c.outcome for c in dist.candidates if c.weight > 0.0}
        for t in trials:
            a = engine.resolve_flat(dist, seed, t)
            b = engine.resolve_hierarchical(network, context, seed, t)
            check(a in outcomes and b in outcomes, f"{label}: trial {t} resolved outside the support")

    return [
        Op(f"lib echo-all {label}", echo_all),
        Op(f"lib hierarchical {label}", hierarchical),
        Op(f"lib resolve x{len(trials)} {label}", resolve),
    ]


def exact_builtins(seed: int) -> Workload:
    draw = np.random.default_rng([seed, 1])
    theta, phi = draw.uniform(10.0, 170.0), draw.uniform(0.0, 360.0)
    bloch = f"bloch:{theta!r},{phi!r}"
    cycle = []
    for name in BUILTINS:
        # ev-bomb's one-symbol bomb state has no basis to rotate
        for basis in ("z",) if name == "ev-bomb" else ("z", "y", bloch):
            for post in ("none", "d"):
                cycle.append(_cli_exact_op(name, basis, post))
    cycle += _cli_misc_ops()
    resolve_seed = int(draw.integers(0, 2**63))
    for network in (scenarios.qle_network(), scenarios.hardy_network()):
        for ctx_name, context in (("z", engine.z_context(network)), ("y", engine.y_context(network))):
            trials = sorted(int(t) for t in draw.integers(0, 2**40, RESOLVE_BLOCK))
            short = "qle" if network.name == "qle" else "hardy"
            cycle += _library_ops(f"{short} {ctx_name}", network, context, trials, resolve_seed)
    return Workload(cycle, warmup=list(cycle), tail_percentile=99.0)


# -- mc-bulk ---------------------------------------------------------------------


def _mc_pair(name: str, trials: int, seed: int) -> list[Op]:
    """The same run with 1 and then 2 workers; the counts must agree bit for bit."""
    seen: dict = {}

    def make(workers: int) -> Callable[[], None]:
        argv = ["run", name, "--trials", str(trials), "--seed", str(seed), "--workers", str(workers)]

        def op() -> None:
            counts = counts_of(json.loads(run_cli(argv)))
            check(sum(counts) == trials, f"{name} x{trials}: counts sum to {sum(counts)}")
            if workers == 1:
                seen["counts"] = counts
            else:
                check(counts == seen.get("counts"), f"{name} x{trials}: 1- and 2-worker counts differ")

        return op

    return [
        Op(f"cli run {name} --trials {trials} --workers {w}", make(w), trials=trials)
        for w in (1, 2)
    ]


def _chsh_mc_op(pairs: int, seed: int) -> Op:
    argv = ["run", "qle-chsh", "--trials", str(pairs), "--seed", str(seed)]

    def op() -> None:
        report = json.loads(run_cli(argv))
        counts = counts_of(report)
        check(sum(counts) == pairs, f"qle-chsh x{pairs}: counts sum to {sum(counts)}")
        s = report["derived"]["chsh_s"]
        # each correlation has standard error below 1/sqrt(pairs/4)
        check(abs(s - 2.0 * SQ2) <= 4 * 6.0 / math.sqrt(pairs / 4), f"qle-chsh: S = {s!r}")

    return Op(f"cli run qle-chsh --trials {pairs}", op, trials=pairs)


def _sample_hierarchical_op(network, context, trials: int, seed: int) -> Op:
    def op() -> None:
        dist = engine.sample_hierarchical(network, context, trials, seed)
        check(sum(dist.counts) == trials, f"sample_hierarchical: counts sum to {sum(dist.counts)}")

    return Op(f"lib sample_hierarchical qle z x{trials}", op, trials=trials)


def mc_digests(trials: int = DIGEST_TRIALS) -> dict[str, str]:
    """SHA-256 of the counts of every Monte Carlo op kind at the default seed 0."""
    out = {}
    for name in BUILTINS + ("qle-chsh",):
        for workers in (1, 2):
            argv = ["run", name, "--trials", str(trials), "--workers", str(workers)]
            out[" ".join(argv)] = digest(counts_of(json.loads(run_cli(argv))))
    qle = scenarios.qle_network()
    dist = engine.sample_hierarchical(qle, engine.z_context(qle), trials, 0)
    out[f"sample_hierarchical qle z {trials} 0"] = digest(dist.counts)
    return out


def _digest_op() -> Op:
    def op() -> None:
        expected = json.loads(DIGESTS.read_text())
        got = mc_digests()
        bad = sorted(k for k in expected if got.get(k) != expected[k])
        check(got.keys() == expected.keys() and not bad, f"counts differ from committed digests: {bad}")

    return Op("digests at seed 0", op)


def mc_bulk(seed: int) -> Workload:
    draw = np.random.default_rng([seed, 2])
    cycle = []
    for name in BUILTINS:
        for trials in MC_SIZES:
            cycle += _mc_pair(name, trials, int(draw.integers(0, 2**63)))
    cycle.append(_chsh_mc_op(CHSH_PAIRS, int(draw.integers(0, 2**63))))
    qle = scenarios.qle_network()
    cycle.append(_sample_hierarchical_op(qle, engine.z_context(qle), HIER_TRIALS, int(draw.integers(0, 2**63))))
    return Workload(cycle, warmup=[_digest_op()], tail_percentile=90.0)


# -- cascade -----------------------------------------------------------------------


def _cascade_ops(k: int, ctx_name: str, network, context) -> list[Op]:
    label = f"cascade K={k} {ctx_name}"
    flat: dict = {}

    def enumerate_op() -> None:
        dist = flat["dist"] = engine.enumerate_transactions(network, context)
        check_weights([c.weight for c in dist.candidates], label)

    def hierarchical_op() -> None:
        hier = engine.hierarchical_distribution(network, context)
        check_same_distribution(flat["dist"], hier, f"{label} hierarchical vs flat")

    def echo_op() -> None:
        heaviest = sorted(flat["dist"].candidates, key=lambda c: -c.weight)[:ECHO_TOP]
        check_echo(network, heaviest, context, label)

    return [
        Op(f"enumerate {label}", enumerate_op),
        Op(f"hierarchical {label}", hierarchical_op),
        Op(f"echo top{ECHO_TOP} {label}", echo_op),
    ]


def cascade_workload(seed: int) -> Workload:
    cycle = []
    for k in CASCADE_KS:
        network = cascade(k, seed)
        for ctx_name, context in (("z", engine.z_context(network)), ("y", engine.y_context(network))):
            cycle += _cascade_ops(k, ctx_name, network, context)
    # the smallest cascade warms every op kind; later ops need their enumerate first
    return Workload(cycle, warmup=cycle[:6], tail_percentile=90.0)


def build(name: str, seed: int) -> Workload:
    if name == "exact-builtins":
        return exact_builtins(seed)
    if name == "mc-bulk":
        return mc_bulk(seed)
    if name == "cascade":
        return cascade_workload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


if __name__ == "__main__":
    # Regenerate digests.json (run from the repository root with src on the path):
    #   PYTHONPATH=src python3 bench/workloads.py > bench/digests.json
    json.dump(mc_digests(), sys.stdout, indent=2, sort_keys=True)
    print()
