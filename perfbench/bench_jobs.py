"""Workload definitions: one job each, and output checks.

Both workloads run the same pipeline a user of ``hamlearn`` runs: learn
seeded random instances with ``bench.sweep`` (one trial per sparsity of the
grid), then certify the learner's output for the last cell against the
instance it learned with the two constrained distances ``d_T`` and ``d_B``.
The workloads differ in where the time goes: ``learn-n8`` learns at n=8 and
certifies on a coarse grid, ``distance`` learns at n=5 and certifies on fine
grids. A job's input is its seed; instances are generated inside the job.

A check compares the output with the benchmark's own truth comparison and
returns the job's determinism record (what must repeat exactly for the same
seed) and a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable

import numpy as np
from scipy import linalg as sla

from hamlearn import bench, distances
from hamlearn.hamiltonian import SparseHamiltonian

_LINF_TOL = 1e-12
_OBJECTIVE_TOL = 1e-9
_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    fixed_jobs: int
    run: Callable[[int], Any]
    check: Callable[[Any], tuple[list, list[str]]]


def job_seed(seed: int, index: int) -> int:
    """Seed of job ``index`` in the stream of workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# learning workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearnTrial:
    truth: SparseHamiltonian
    learned: SparseHamiltonian
    eps: float


def _capturing(call: Callable[[], Any]) -> tuple[Any, dict]:
    """Run ``call`` while recording each learner's truth and output.

    ``run_learning_trial`` reports only summary errors, so the learned
    Hamiltonian is captured at the name ``bench`` looks up, keyed by the
    ledger the trial record reports.
    """
    captured: dict[tuple, LearnTrial] = {}
    inner = bench.learn_hamiltonian

    def capture(oracle, params, rng):
        result = inner(oracle, params, rng)
        led = result.ledger
        key = (led.experiments, led.queries, led.total_evolution_time)
        captured[key] = LearnTrial(oracle.hamiltonian, result.hamiltonian, params.eps)
        return result

    bench.learn_hamiltonian = capture
    try:
        return call(), captured
    finally:
        bench.learn_hamiltonian = inner


def _ledger_key(rec) -> tuple:
    return (rec.experiments, rec.queries, rec.total_time)


def _linf(h1: SparseHamiltonian, h2: SparseHamiltonian) -> float:
    t1, t2 = h1.terms, h2.terms
    return max((abs(t1.get(p, 0.0) - t2.get(p, 0.0)) for p in t1.keys() | t2.keys()), default=0.0)


def _check_trials(records, captured: dict) -> tuple[list, list[str]]:
    """Compare each trial record with the truth.

    A miss of the paper's guarantee (linf > eps, or a learned term outside
    the true support) is allowed with probability delta and only lowers
    ``learner.success_rate``. A problem is what shows a fault: a ledger that
    is not finite and positive, no learner output behind a record, or a
    record whose linf error or success flag disagrees with the truth.
    """
    det, problems = [], []
    for rec in records:
        key = _ledger_key(rec)
        det.append([rec.experiments, rec.queries, rec.total_time, rec.success])
        if not (rec.experiments > 0 and rec.queries > 0 and 0.0 < rec.total_time < math.inf):
            problems.append(f"seed {rec.seed}: ledger not finite and positive: {key}")
        trial = captured.get(key)
        if trial is None:
            problems.append(f"seed {rec.seed}: no learner output matches the reported ledger")
            continue
        linf = _linf(trial.truth, trial.learned)
        contained = trial.learned.terms.keys() <= trial.truth.terms.keys()
        agrees = rec.success == (linf <= trial.eps and contained)
        if abs(linf - rec.linf_error) > _LINF_TOL or not agrees:
            problems.append(f"seed {rec.seed}: reported linf/success disagree with the truth")
    return det, problems


# ---------------------------------------------------------------------------
# distances and their independent dense path
# ---------------------------------------------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_dense(h: SparseHamiltonian) -> np.ndarray:
    """Dense matrix by explicit Kronecker products of the term labels."""
    dim = 1 << h.n
    m = np.zeros((dim, dim), dtype=complex)
    for p, c in h.terms.items():
        m += c * reduce(np.kron, [_PAULI[ch] for ch in p.label])
    return m


def _arc_value(phases: np.ndarray) -> float:
    angles = np.sort(phases)
    gaps = np.append(np.diff(angles), 2.0 * np.pi - (angles[-1] - angles[0]))
    spread = 2.0 * np.pi - gaps.max()
    return 1.0 if spread >= np.pi else math.sin(spread / 2.0)


def dense_dT_objective(m1: np.ndarray, m2: np.ndarray, t: float) -> float:
    x = sla.expm(-1j * t * m1).conj().T @ sla.expm(-1j * t * m2)
    return _arc_value(np.angle(sla.eigvals(x)))


def dense_dB_objective(m1: np.ndarray, m2: np.ndarray, beta: float) -> float:
    rho1 = sla.expm(-beta * m1)
    rho2 = sla.expm(-beta * m2)
    diff = rho1 / np.trace(rho1).real - rho2 / np.trace(rho2).real
    return 0.5 * float(np.abs(sla.eigvalsh(diff)).sum())


def _check_distances(trial: LearnTrial, dt, db, T: float, B: float) -> list[str]:
    """Bounds of d_T and d_B, and their objectives re-evaluated densely at argmax."""
    m1, m2 = kron_dense(trial.truth), kron_dense(trial.learned)
    gap = float(np.abs(sla.eigvalsh(m1 - m2)).max())
    problems = []
    for res in (dt, db):
        if not 0.0 <= res.value <= 1.0:
            problems.append(f"{res.kind}: value {res.value} outside [0, 1]")
    if dt.value > math.sin(min(math.pi / 2, T * gap)) + _BOUND_TOL:
        problems.append(f"d_T {dt.value} above sin(min(pi/2, T gap))")
    quarter = 1.0 / (4.0 * math.pi)
    if dt.value < gap * min(T, quarter) * quarter - dt.grid_error - _BOUND_TOL:
        problems.append(f"d_T {dt.value} below its lower bound")
    if db.value > 0.5 * B * gap + db.grid_error + _BOUND_TOL:
        problems.append(f"d_B {db.value} above (B/2) gap")
    recomputed = (dense_dT_objective(m1, m2, dt.argmax), dense_dB_objective(m1, m2, db.argmax))
    for res, ref in zip((dt, db), recomputed):
        if abs(res.value - ref) > _OBJECTIVE_TOL:
            problems.append(f"{res.kind}: value {res.value} != dense objective {ref} at argmax")
    return problems


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def pipeline_workload(
    name: str, n: int, s_grid: list[int], eps: float,
    T: float, grid_T: int, B: float, grid_B: int, refine: bool, fixed_jobs: int,
) -> Workload:
    """Learn with one ``bench.sweep`` over ``s_grid``, then certify the last cell.

    The output of a job is (trial records, captured learner outputs,
    certificate), where the certificate is (trial, d_T, d_B) for the last
    cell, or None when no learner output matches its record.
    """

    def run(base_seed: int):
        records, captured = _capturing(
            lambda: bench.sweep(
                s_grid=s_grid, eps_grid=[eps], trials=1, base_seed=base_seed, n=n, delta=0.1
            )
        )
        trial = captured.get(_ledger_key(records[-1])) if records else None
        if trial is None:
            return records, captured, None
        dt = distances.d_T(trial.truth, trial.learned, T=T, grid=grid_T, refine=refine)
        db = distances.d_B(trial.truth, trial.learned, B=B, grid=grid_B, refine=refine)
        return records, captured, (trial, dt, db)

    def check(out):
        records, captured, cert = out
        det, problems = _check_trials(records, captured)
        if len(records) != len(s_grid):
            problems.append(f"sweep returned {len(records)} rows for {len(s_grid)} cells")
        if cert is None:
            problems.append("no learner output to certify for the last cell")
        else:
            trial, dt, db = cert
            det.append([dt.value, dt.argmax, db.value, db.argmax])
            problems += _check_distances(trial, dt, db, T, B)
        return det, problems

    return Workload(name, fixed_jobs, run, check)


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """Full-size workloads, or tiny ones exercising the same layers."""
    if smoke:
        table = [
            pipeline_workload("learn-n8", 5, [4, 8], 0.1, 2.0, 3, 2.0, 3, False, 1),
            pipeline_workload("distance", 4, [8], 0.1, 2.0, 128, 2.0, 64, True, 1),
        ]
    else:
        table = [
            pipeline_workload("learn-n8", 8, [4, 8], 0.05, 2.0, 3, 2.0, 3, False, 16),
            pipeline_workload("distance", 5, [8], 0.05, 2.0, 2048, 2.0, 512, True, 22),
        ]
    return {w.name: w for w in table}


def summarize(outputs: list) -> dict[str, float]:
    """Ledger totals, guarantee statistics and certified grid error of jobs."""
    recs = [r for records, _, _ in outputs for r in records]
    widths = [res.grid_error for _, _, cert in outputs if cert for res in cert[1:]]
    return {
        "learner.success_rate": sum(r.success for r in recs) / len(recs),
        "learner.linf_err_max": max(r.linf_error for r in recs),
        "oracle.ledger_experiments": sum(r.experiments for r in recs),
        "oracle.ledger_queries": sum(r.queries for r in recs),
        "oracle.ledger_evolution_time": sum(r.total_time for r in recs),
        "distances.cert_width": sum(widths) / len(widths) if widths else 0.0,
    }
