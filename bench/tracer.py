"""Span tracing of tisim's public functions, installed from outside the package.

The tracer replaces each traced function in every ``tisim`` module namespace
that holds it (``engine``, ``scenarios`` and ``cli`` import by name, sometimes
under an alias), so calls between modules are seen as well as calls from the
benchmark.  A span is ``(name, start, end, parent span, op id)``; spans stay in
memory until ``save`` writes them out.  A few functions also feed counters
(terms produced, values drawn, redundant validations), and state construction
is counted without a span because it happens thousands of times per op.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable

import numpy as np

# A hook gets (tracer, args, result) after the call returns and adds to ``tracer.counts``.
Hook = Callable[["Tracer", tuple, object], None]


def _rebase_terms(tr: "Tracer", args: tuple, result) -> None:
    tr.counts["amplitudes.rebase.terms_out"] += len(result)


def _validate_redundant(tr: "Tracer", args: tuple, result) -> None:
    network = args[0]
    if id(network) in tr.validated:
        tr.counts["network.validate.redundant"] += 1
    else:
        # the strong reference keeps the id from being reused by a new network
        tr.validated[id(network)] = network


def _forward_terms(tr: "Tracer", args: tuple, result) -> None:
    tr.counts["network.forward_propagate.terms_out"] += len(result.continuing) + sum(
        len(k) for _, k in result.absorbed
    )


def _candidates_out(tr: "Tracer", args: tuple, result) -> None:
    tr.counts["engine.enumerate_transactions.candidates_out"] += len(result.candidates)


def _uniforms_values(tr: "Tracer", args: tuple, result) -> None:
    tr.counts["rng.uniforms.values"] += len(result)


# (module, attribute, span name, counter hook)
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("amplitudes", "rebase", "amplitudes.rebase", _rebase_terms),
    ("amplitudes", "tensor", "amplitudes.tensor", None),
    ("amplitudes", "inner", "amplitudes.inner", None),
    ("amplitudes", "norm_sq", "amplitudes.norm_sq", None),
    ("network", "validate", "network.validate", _validate_redundant),
    ("network", "forward_propagate", "network.forward_propagate", _forward_terms),
    ("network", "backward_propagate", "network.backward_propagate", None),
    ("network", "emitted_state", "network.emitted_state", None),
    ("engine", "enumerate_transactions", "engine.enumerate_transactions", _candidates_out),
    ("engine", "hierarchical_distribution", "engine.hierarchical_distribution", None),
    ("engine", "echo_weight", "engine.echo_weight", None),
    ("engine", "post_select", "engine.post_select", None),
    ("engine", "resolve_hierarchical", "engine.resolve_hierarchical", None),
    ("engine", "resolve_flat", "engine.resolve_flat", None),
    ("engine", "sample_flat", "engine.sample_flat", None),
    ("engine", "sample_hierarchical", "engine.sample_hierarchical", None),
    ("engine", "chsh_monte_carlo", "engine.chsh_monte_carlo", None),
    ("rng", "uniform", "rng.uniform", None),
    ("rng", "uniforms", "rng.uniforms", _uniforms_values),
    ("scenarios", "run_mc", "scenarios.run_mc", None),
    ("scenarios", "build_scenario", "scenarios.build_scenario", None),
    ("scenarios", "run_exact", "scenarios.run_exact", None),
    ("scenarios", "verification_checks", "scenarios.verification_checks", None),
    ("scenarios", "RunReport.to_json", "scenarios.RunReport.to_json", None),
    ("pathnotation", "parse", "pathnotation.parse", None),
    ("pathnotation", "sum_amplitudes", "pathnotation.sum_amplitudes", None),
    ("cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    child = np.zeros(duration.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.validated: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _span(self, name_i: int, fn: Callable, hook: Hook | None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (name_i, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target wherever a ``tisim`` module namespace holds it."""
        import tisim.amplitudes

        modules = [m for n, m in sys.modules.items() if n == "tisim" or n.startswith("tisim.")]
        for name_i, (mod_name, attr, _, hook) in enumerate(TARGETS):
            owner = sys.modules[f"tisim.{mod_name}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, meth, self._span(name_i, getattr(cls, meth), hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self._span(name_i, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapped)

        state_cls = tisim.amplitudes._State
        init = state_cls.__init__
        counts = self.counts

        def counted_init(obj, space, terms=None):
            counts["amplitudes.states_built"] += 1
            if terms:
                counts["amplitudes.terms_built"] += len(terms)
            init(obj, space, terms)

        self._replace(state_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        self.validated.clear()

    # -- reduction -----------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name."""
        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        names = spans[:, 0].astype(np.int64)
        self_s = self_times(spans[:, 2] - spans[:, 1], spans[:, 3].astype(np.int64))
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        self_sum = np.bincount(names, weights=self_s, minlength=len(SPAN_NAMES))
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_sum[i])}
            for i, name in enumerate(SPAN_NAMES)
        }

    def save(self, path, op_names: list[str]) -> None:
        """Write the spans; op id i ran ``op_names[i % len(op_names)]``."""
        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            op_names=np.array(op_names),
            name=spans[:, 0].astype(np.int32),
            start=spans[:, 1],
            end=spans[:, 2],
            parent=spans[:, 3].astype(np.int64),
            op=spans[:, 4].astype(np.int64),
        )
