"""tisim benchmark: each workload in fresh processes, outputs checked, metrics by name.

  python3 bench/run.py --workload exact-builtins --seed 1 --seconds 20 --trace 0
  python3 bench/run.py                       # every workload, default seed

With ``--trace 0`` the end-to-end metrics are printed: ``setup_s`` is the
median over several fresh interpreters, the rest come from one closed loop
with one client.  With ``--trace 1`` the loop runs twice for half the time
each, untraced and traced;
the traced run gives the per-layer metrics and the pair gives the tracing
overhead.  The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, with an environment
block, and the spans of the latest traced run go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("exact-builtins", "mc-bulk", "cascade")
SETUP_SAMPLES = 7  # fresh interpreters per run whose set-up time is the median
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
HASH_SEED = "0"

# (name, unit, source key in the child's result); setup_s is added separately
END_TO_END = (
    ("ops_per_s", "1/s", "ops_per_s"),
    ("op_p50_ms", "ms", "op_p50_ms"),
    ("op_tail_ms", "ms", "op_tail_ms"),
    ("peak_rss_mib", "MiB", "peak_rss_mib"),
)

# per-layer counters from spans: (metric, span name, "calls" | "self_s")
SPAN_METRICS = (
    ("amplitudes.rebase.calls", "amplitudes.rebase", "calls"),
    ("amplitudes.rebase.self_s", "amplitudes.rebase", "self_s"),
    ("amplitudes.tensor.self_s", "amplitudes.tensor", "self_s"),
    ("amplitudes.inner.self_s", "amplitudes.inner", "self_s"),
    ("amplitudes.norm_sq.self_s", "amplitudes.norm_sq", "self_s"),
    ("network.validate.calls", "network.validate", "calls"),
    ("network.validate.self_s", "network.validate", "self_s"),
    ("network.forward_propagate.calls", "network.forward_propagate", "calls"),
    ("network.forward_propagate.self_s", "network.forward_propagate", "self_s"),
    ("network.backward_propagate.calls", "network.backward_propagate", "calls"),
    ("network.backward_propagate.self_s", "network.backward_propagate", "self_s"),
    ("network.emitted_state.self_s", "network.emitted_state", "self_s"),
    ("engine.enumerate_transactions.calls", "engine.enumerate_transactions", "calls"),
    ("engine.enumerate_transactions.self_s", "engine.enumerate_transactions", "self_s"),
    ("engine.hierarchical_distribution.self_s", "engine.hierarchical_distribution", "self_s"),
    ("engine.echo_weight.calls", "engine.echo_weight", "calls"),
    ("engine.echo_weight.self_s", "engine.echo_weight", "self_s"),
    ("engine.post_select.self_s", "engine.post_select", "self_s"),
    ("engine.resolve_hierarchical.calls", "engine.resolve_hierarchical", "calls"),
    ("engine.resolve_hierarchical.self_s", "engine.resolve_hierarchical", "self_s"),
    ("engine.resolve_flat.self_s", "engine.resolve_flat", "self_s"),
    ("engine.sample_flat.calls", "engine.sample_flat", "calls"),
    ("engine.sample_flat.self_s", "engine.sample_flat", "self_s"),
    ("engine.sample_hierarchical.self_s", "engine.sample_hierarchical", "self_s"),
    ("engine.chsh_monte_carlo.self_s", "engine.chsh_monte_carlo", "self_s"),
    ("rng.uniform.calls", "rng.uniform", "calls"),
    ("rng.uniform.self_s", "rng.uniform", "self_s"),
    ("rng.uniforms.calls", "rng.uniforms", "calls"),
    ("rng.uniforms.self_s", "rng.uniforms", "self_s"),
    ("scenarios.run_mc.self_s", "scenarios.run_mc", "self_s"),
    ("scenarios.build_scenario.self_s", "scenarios.build_scenario", "self_s"),
    ("scenarios.run_exact.self_s", "scenarios.run_exact", "self_s"),
    ("scenarios.verification_checks.self_s", "scenarios.verification_checks", "self_s"),
    ("scenarios.RunReport.to_json.self_s", "scenarios.RunReport.to_json", "self_s"),
    ("pathnotation.parse.self_s", "pathnotation.parse", "self_s"),
    ("pathnotation.sum_amplitudes.self_s", "pathnotation.sum_amplitudes", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
)
# per-layer counters the tracer's hooks keep
COUNT_METRICS = (
    "amplitudes.rebase.terms_out",
    "amplitudes.states_built",
    "amplitudes.terms_built",
    "network.forward_propagate.terms_out",
    "engine.enumerate_transactions.candidates_out",
    "rng.uniforms.values",
)


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    cap = nproc()
    for var in THREAD_VARS:
        try:
            env[var] = str(min(int(env.get(var, cap)), cap))
        except ValueError:
            env[var] = str(cap)
    return env


def run_child(argv: list[str], deadline: float) -> dict:
    """Run bench/child.py to completion (or kill its process group) and parse its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(argv))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {' '.join(argv)} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(argv)} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"child {' '.join(argv)} printed no result")
    return json.loads(lines[-1])


def environment(loop_result: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        if got.returncode == 0:
            commit = got.stdout.strip()
    env = child_env()
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": loop_result.get("python"),
        "numpy": loop_result.get("numpy"),
        "git_commit": commit,
        "PYTHONHASHSEED": env["PYTHONHASHSEED"],
        **{var: env[var] for var in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", str(seed)]

    def setup() -> float:
        return run_child(base + ["--mode", "setup"], deadline)["setup_s"]

    # set-up samples before and after the loop, so a slow spell of the machine weighs less
    setups = [setup() for _ in range(SETUP_SAMPLES // 2)]
    loop = run_child(base + ["--mode", "loop", "--seconds", str(seconds)], deadline)
    setups.append(loop["setup_s"])
    setups += [setup() for _ in range(SETUP_SAMPLES - len(setups))]
    metrics = {"setup_s": metric(statistics.median(setups), "s")}
    for name, unit, key in END_TO_END:
        metrics[name] = metric(loop[key], unit)
    return metrics, {**loop, "setup_samples_s": setups}


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    # the untraced and traced loops share the run's time, so a traced run lasts as long as an untraced one
    base = ["--workload", workload, "--seed", str(seed), "--mode", "loop", "--seconds", str(seconds / 2)]
    plain = run_child(base, deadline)
    traced = run_child(base + ["--spans", str(OUT / f"spans-{workload}.npz")], deadline)
    layers, counts = traced["layers"], traced["counts"]
    metrics = {}
    for name, span, field in SPAN_METRICS:
        unit = "count" if field == "calls" else "s"
        metrics[name] = metric(layers[span][field], unit)
    for name in COUNT_METRICS:
        metrics[name] = metric(counts.get(name, 0), "count")
    validate_calls = layers["network.validate"]["calls"]
    redundant = counts.get("network.validate.redundant", 0)
    metrics["network.validate.redundant_ratio"] = metric(
        redundant / validate_calls if validate_calls else 0.0, "ratio"
    )
    metrics["engine.enumerate_transactions.calls_per_op"] = metric(
        layers["engine.enumerate_transactions"]["calls"] / traced["ops"], "count"
    )
    self_total = sum(v["self_s"] for v in layers.values())
    metrics["trace.loop_s"] = metric(traced["loop_s"], "s")
    metrics["trace.unattributed_s"] = metric(traced["loop_s"] - self_total, "s")
    metrics["trace.ops"] = metric(traced["ops"], "count")
    metrics["trace.untraced_ops_per_s"] = metric(plain["ops_per_s"], "1/s")
    metrics["trace.traced_ops_per_s"] = metric(traced["ops_per_s"], "1/s")
    metrics["trace.overhead_ratio"] = metric(plain["ops_per_s"] / traced["ops_per_s"], "ratio")
    return metrics, {
        **traced,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "untraced": plain,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "tisim" / "__init__.py").is_file():
        print(f"error: no tisim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    OUT.mkdir(exist_ok=True)

    attempted = failed = 0
    all_metrics: dict = {}
    try:
        for name in names:
            metrics, info = measure(name, args.seed, args.seconds, deadline)
            env = environment(info)
            attempted += info["attempted"]
            failed += info["failed"]
            info["error_rate"] = info["failed"] / info["attempted"]
            print(f"# env {json.dumps(env, sort_keys=True)}")
            print(
                f"# {name} seed {args.seed}: {info['ops']} ops in {info['loop_s']:.2f} s "
                f"({info['cycles']} cycles), tail = p{info['tail_percentile']:g}"
            )
            # error_rate and trials_per_s can be 0, which BENCHMARK.json metrics must not be
            print(f"# {name} error_rate {info['error_rate']!r} ratio")
            if info["trials"] and not args.trace:
                print(f"# {name} trials_per_s {info['trials_per_s']!r} 1/s")
            for key, m in metrics.items():
                print(f"{name} {key} {m['value']!r} {m['unit']}")
            (OUT / f"result-{name}-trace{args.trace}.json").write_text(
                json.dumps({"seed": args.seed, "env": env, "metrics": metrics, "run": info}, indent=2)
            )
            if args.workload == "all":
                metrics = {f"{name}.{k}": v for k, v in metrics.items()}
            all_metrics.update(metrics)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
