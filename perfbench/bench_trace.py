"""Opt-in tracer for the traced benchmark run.

The tracer wraps public functions of each ``hamlearn`` layer and the
``numpy.linalg`` kernels they call. A wrapper is installed under every name
a caller looks up: module globals that hold the function (including names
imported with ``from .x import f``), class attributes for methods, and the
``numpy.linalg`` module attributes the library reaches through ``np.linalg``.

Three kinds of probe exist:

* ``span``: a span ``(name, start_ns, end_ns, parent, job)`` is kept in
  memory, plus the per-name aggregates below;
* ``timed``: calls, busy and self time only (hot call sites);
* ``count``: a call counter only (the hottest call sites).

Self time is busy time minus the part covered by child probes. Post hooks
compute harness-side ratios from arguments and results; they never feed
anything back into the program.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Probe table: (layer metric prefix, owner, attribute, kind).
# ``owner`` is a dotted module path, or "module:Class" for methods.
PROBES = (
    ("pauli.random_uniform", "hamlearn.pauli", "random_uniform", "timed"),
    ("pauli.random_commuting", "hamlearn.pauli", "random_commuting", "timed"),
    ("pauli.symplectic_product", "hamlearn.pauli", "symplectic_product", "count"),
    ("pauli.multiply", "hamlearn.pauli", "multiply", "count"),
    ("hamiltonian.restrict", "hamlearn.hamiltonian:SparseHamiltonian", "restrict", "timed"),
    ("hamiltonian.dense_matrix", "hamlearn.hamiltonian:SparseHamiltonian", "dense_matrix", "timed"),
    ("hamiltonian.op_norm", "hamlearn.hamiltonian:SparseHamiltonian", "op_norm", "span"),
    ("oracle.sample_restricted", "hamlearn.oracle:EvolutionOracle", "sample_restricted", "timed"),
    (
        "oracle.estimate_pauli_coeff_magnitude",
        "hamlearn.oracle:EvolutionOracle",
        "estimate_pauli_coeff_magnitude",
        "span",
    ),
    ("oracle.pauli_transform", "hamlearn.oracle", "pauli_transform", "span"),
    (
        "isolation.draw_isolation_for_target",
        "hamlearn.isolation",
        "draw_isolation_for_target",
        "span",
    ),
    ("learner.learn_hamiltonian", "hamlearn.learner", "learn_hamiltonian", "span"),
    ("learner.learn_support", "hamlearn.learner", "learn_support", "span"),
    ("learner.learn_single_coeff_sparse", "hamlearn.learner", "learn_single_coeff_sparse", "span"),
    ("distances.d_T", "hamlearn.distances", "d_T", "span"),
    ("distances.d_B", "hamlearn.distances", "d_B", "span"),
    ("bench.sweep", "hamlearn.bench", "sweep", "span"),
    ("bench.run_learning_trial", "hamlearn.bench", "run_learning_trial", "span"),
    ("kernel.eigh", "numpy.linalg", "eigh", "span"),
    ("kernel.eigvals", "numpy.linalg", "eigvals", "timed"),
    ("kernel.eigvalsh", "numpy.linalg", "eigvalsh", "timed"),
)


@dataclass
class _Frame:
    name: str
    span_index: int
    child_ns: int = 0


class Tracer:
    """In-memory spans, per-name aggregates and harness-side counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.job: int | None = None
        self._stack: list[_Frame] = []

    def in_layer(self, name: str) -> bool:
        return any(frame.name == name for frame in self._stack)

    def parent_name(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def wrap(self, name: str, fn: Callable, kind: str, post: Callable | None) -> Callable:
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        record = kind == "span"
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            parent = stack[-1].span_index if stack else -1
            frame = _Frame(name, len(self.spans) if record else parent)
            if record:
                self.spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.busy_ns[name] += dur
                self.self_ns[name] += dur - frame.child_ns
                if stack:
                    stack[-1].child_ns += dur
                if record:
                    self.spans[frame.span_index] = (name, start, end, parent, self.job)
            if post is not None:
                post(self, out, args)
            return out

        return probed


# ---------------------------------------------------------------------------
# harness-side post hooks
# ---------------------------------------------------------------------------


def _after_draw(tracer, draw, args):
    p0 = args[1]
    tracer.counters["isolation.targeted_draws"] += 1
    if draw.survivors == frozenset((p0,)):
        tracer.counters["isolation.target_alone"] += 1


def _after_sample(tracer, outcome, args):
    if tracer.parent_name() == "learner.learn_support":
        tracer.counters["learner.support_samples"] += 1
        if not outcome.is_identity:
            tracer.counters["learner.support_useful"] += 1


def _after_support(tracer, candidates, args):
    truth = args[0].hamiltonian.support
    tracer.counters["learner.candidates"] += len(candidates)
    tracer.counters["learner.true_candidates"] += len(candidates & truth)


def _after_eigh(tracer, out, args):
    tracer.counters["kernel.eigh.dim3_sum"] += int(np.shape(args[0])[-1]) ** 3


def _after_point(tracer, out, args):
    if tracer.in_layer("distances.d_T") or tracer.in_layer("distances.d_B"):
        tracer.counters["distances.points"] += 1


POST_HOOKS = {
    "isolation.draw_isolation_for_target": _after_draw,
    "oracle.sample_restricted": _after_sample,
    "learner.learn_support": _after_support,
    "kernel.eigh": _after_eigh,
    "kernel.eigvals": _after_point,
    "kernel.eigvalsh": _after_point,
}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


def _hamlearn_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == "hamlearn"]


@contextmanager
def installed(tracer: Tracer):
    """Install every probe for the duration of the block, then restore.

    For a module-level function, every ``hamlearn`` module attribute bound
    to the original object is replaced, so callers that imported the name
    directly are probed as well as callers that go through the module.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for name, owner, attr, kind in PROBES:
            home = _resolve(owner)
            original = getattr(home, attr)
            wrapper = tracer.wrap(name, original, kind, POST_HOOKS.get(name))
            targets = [home] if ":" in owner else [home, *_hamlearn_modules()]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        undo.append((target, key, value))
                        setattr(target, key, wrapper)
        yield tracer
    finally:
        for target, key, value in reversed(undo):
            setattr(target, key, value)


# Figures derived from several probes or computed on the harness side,
# and workload summaries reported under the layer that owns them.
DERIVED = (
    ("oracle.dense_share", "ratio", "lower"),
    ("kernel.eigh.dim3_sum", "count", "lower"),
    ("distances.points_per_call", "count", "lower"),
    ("isolation.target_alone_rate", "ratio", "higher"),
    ("learner.support_useful_rate", "ratio", "higher"),
    ("learner.candidate_precision", "ratio", "higher"),
    ("bench.truth_check_s", "s", "lower"),
    ("oracle.ledger_experiments", "count", "lower"),
    ("oracle.ledger_queries", "count", "lower"),
    ("oracle.ledger_evolution_time", "sim_time", "lower"),
    ("learner.success_rate", "ratio", "higher"),
    ("learner.linf_err_max", "coeff", "lower"),
    ("distances.cert_width", "dist", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, as in BENCHMARK.json."""
    spec = []
    for name, _, _, kind in PROBES:
        spec.append((f"{name}.calls", "count", "lower"))
        if kind != "count":
            spec += [(f"{name}.busy_s", "s", "lower"), (f"{name}.self_s", "s", "lower")]
    return spec + list(DERIVED)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures named as in BENCHMARK.json (without units)."""
    calls, busy, own, ctr = tracer.calls, tracer.busy_ns, tracer.self_ns, tracer.counters
    out: dict[str, float] = {}
    for name, _, _, kind in PROBES:
        out[f"{name}.calls"] = calls[name]
        if kind != "count":
            out[f"{name}.busy_s"] = busy[name] / 1e9
            out[f"{name}.self_s"] = own[name] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    out["oracle.dense_share"] = ratio(
        calls["oracle.pauli_transform"], calls["oracle.sample_restricted"]
    )
    out["kernel.eigh.dim3_sum"] = ctr["kernel.eigh.dim3_sum"]
    out["distances.points_per_call"] = ratio(
        ctr["distances.points"], calls["distances.d_T"] + calls["distances.d_B"]
    )
    out["isolation.target_alone_rate"] = ratio(
        ctr["isolation.target_alone"], ctr["isolation.targeted_draws"]
    )
    out["learner.support_useful_rate"] = ratio(
        ctr["learner.support_useful"], ctr["learner.support_samples"]
    )
    out["learner.candidate_precision"] = ratio(
        ctr["learner.true_candidates"], ctr["learner.candidates"]
    )
    truth_check_ns = busy["bench.run_learning_trial"] - busy["learner.learn_hamiltonian"]
    out["bench.truth_check_s"] = truth_check_ns / 1e9
    return out
