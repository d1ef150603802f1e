"""Seeded benchmark trials and resource-scaling sweeps over (s, eps)."""

from __future__ import annotations

import dataclasses
import math
from typing import ClassVar, Sequence

import numpy as np

from ._stats import loglog_slope
from .errors import CapacityError
from .hamiltonian import SparseHamiltonian, l1_distance, linf_distance, op_distance, random_instance
from .learner import LearnerParams, LearnResult, learn_hamiltonian
from .oracle import EvolutionOracle, OracleConfig


def csv_row(*values) -> str:
    """One CSV line: booleans as 1/0, floats as ``.12g``, anything else by ``str``."""
    return ",".join(
        str(int(v)) if isinstance(v, bool) else f"{v:.12g}" if isinstance(v, float) else str(v)
        for v in values
    )


@dataclasses.dataclass(frozen=True)
class TrialRecord:
    """One learning run: instance parameters, errors, full ledger.

    ``op_error`` is ``||truth - learned||`` computed exactly when the
    difference's image fits ``pauli.DENSE_LIMIT`` qubits, else its certified
    upper bound ``sum_P |Delta_P|`` (``l1_error``; every ``||P|| = 1``).
    """

    s: int
    eps: float
    seed: int
    success: bool
    linf_error: float
    l1_error: float
    op_error: float
    experiments: int
    total_time: float
    queries: int
    min_resolution: float
    ancilla: int

    # Every field, in declaration order; set below the class.
    CSV_FIELDS: ClassVar[tuple[str, ...]]

    def csv_row(self, fields: Sequence[str] | None = None) -> str:
        """The given fields (default all of them) as one :func:`csv_row` line."""
        return csv_row(*(getattr(self, f) for f in fields or self.CSV_FIELDS))


TrialRecord.CSV_FIELDS = tuple(f.name for f in dataclasses.fields(TrialRecord))


# Shot multiplier c1 of every benchmark trial; LearnerParams defaults to 32,
# calibrated for SPAM robustness.
SHOTS_C1 = 1.0


def detectability_floor(eps: float) -> float:
    """Instance coefficient floor keeping every term above the target eps."""
    return min(0.9, max(0.1, 2.0 * eps))


def _trial_params(s: int, eps: float, delta: float, support_rounds_c0: float) -> LearnerParams:
    """Learner targets and constants of one benchmark trial."""
    return LearnerParams(
        s_bound=s, eps=eps, delta=delta, support_rounds_c0=support_rounds_c0, shots_c1=SHOTS_C1
    )


def run_learning_trial(
    n: int,
    s: int,
    eps: float,
    delta: float,
    seed: int,
    spam_lambda: float = 0.0,
    support_rounds_c0: float = 64.0,
) -> TrialRecord:
    """One seeded end-to-end learning run against a random instance."""
    seq = np.random.SeedSequence(seed)
    inst_rng, oracle_rng, learner_rng = (np.random.default_rng(c) for c in seq.spawn(3))
    hamiltonian = random_instance(n, s, inst_rng, coeff_floor=detectability_floor(eps))
    oracle = EvolutionOracle(hamiltonian, OracleConfig(spam_lambda=spam_lambda), rng=oracle_rng)
    params = _trial_params(s, eps, delta, support_rounds_c0)
    result = learn_hamiltonian(oracle, params, learner_rng)
    return trial_record(hamiltonian, result, s=s, eps=eps, seed=seed)


def trial_record(
    truth: SparseHamiltonian, result: LearnResult, s: int, eps: float, seed: int
) -> TrialRecord:
    """Compare a learner's output with the true Hamiltonian.

    Success is the learner's guarantee: every coefficient within ``eps``
    and no learned term outside the true support.
    """
    learned = result.hamiltonian
    linf, l1 = linf_distance(truth, learned), l1_distance(truth, learned)
    try:
        op = op_distance(truth, learned)
    except CapacityError:
        op = l1
    led = result.ledger
    return TrialRecord(
        s=s,
        eps=eps,
        seed=seed,
        success=linf <= eps and learned.support <= truth.support,
        linf_error=linf,
        l1_error=l1,
        op_error=op,
        experiments=led.experiments,
        total_time=led.total_evolution_time,
        queries=led.queries,
        min_resolution=led.min_time_resolution,
        ancilla=led.ancilla_qubits,
    )


def sweep(
    s_grid: list[int],
    eps_grid: list[float],
    trials: int,
    base_seed: int,
    n: int = 8,
    delta: float = 0.1,
    spam_lambda: float = 0.0,
    support_rounds_c0: float = 64.0,
) -> list[TrialRecord]:
    """Run the (s, eps) product grid; rows come back in grid order.

    Every trial derives its own seeds from ``base_seed`` and its position
    in the grid. Every cell is validated before the first trial runs.
    """
    if not s_grid or not eps_grid or trials < 1:
        raise ValueError("sweep needs nonempty grids and at least one trial")
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    for s in s_grid:
        if not 1 <= s <= 4**n - 1:
            raise ValueError(f"sparsity must be in [1, 4^n - 1], got {s}")
        for eps in eps_grid:
            _trial_params(s, eps, delta, support_rounds_c0)
    cells = [(s, eps) for s in s_grid for eps in eps_grid for _ in range(trials)]
    return [
        run_learning_trial(
            n=n,
            s=s,
            eps=eps,
            delta=delta,
            seed=base_seed + i,
            spam_lambda=spam_lambda,
            support_rounds_c0=support_rounds_c0,
        )
        for i, (s, eps) in enumerate(cells)
    ]


def _means_by(rows: list[TrialRecord], key: str, value: str) -> tuple[list, list[float]]:
    """Sorted distinct values of field ``key`` and the mean of ``value`` at each."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(getattr(row, key), []).append(getattr(row, value))
    keys = sorted(groups)
    return keys, [float(np.mean(groups[k])) for k in keys]


def experiments_slope(rows: list[TrialRecord]) -> float:
    """Log-log slope of mean experiments against s ln s."""
    ss, ys = _means_by(rows, "s", "experiments")
    if len(ss) < 2:
        raise ValueError("need at least two sparsity values")
    if ss[0] < 2:
        raise ValueError(f"s ln s vanishes at s = {ss[0]}; every s must be at least 2")
    return loglog_slope([s * math.log(s) for s in ss], ys)


def evolution_time_slope(rows: list[TrialRecord]) -> float:
    """Log-log slope of mean total evolution time against 1/eps."""
    es, ys = _means_by(rows, "eps", "total_time")
    if len(es) < 2:
        raise ValueError("need at least two accuracy values")
    return loglog_slope([1.0 / e for e in es], ys)
