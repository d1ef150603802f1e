"""Learning algorithms: support recovery and coefficient estimation.

The pipeline learns an s-sparse Hamiltonian from the oracle's evolution
queries alone. Support learning repeatedly isolates random terms and
Bell-samples the restricted evolution; single-coefficient learning targets
one Pauli string with a commuting isolation, then refines its coefficient
through geometrically sharpening stages, each of which estimates a
magnitude from Pauli-sampling statistics and fixes the sign with a known
drift pulse. The full learner composes the two and rounds small estimates
to zero so the output support never exceeds the true one (with the
advertised probability).

All explicit constants the asymptotic statements leave open are collected
in :class:`LearnerParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .hamiltonian import SparseHamiltonian
from .isolation import draw_isolation_for_target, isolation_rounds
from .oracle import EvolutionOracle, ResourceLedger
from .pauli import PauliString

# Estimates are clamped slightly above the per-stage promise |h| <= 10 eps;
# the clamp never binds when the isolation assumption holds and keeps drift
# pulses bounded when it fails.
_STAGE_CLAMP_FACTOR = 11.0

# Default per-estimate shot multiplier; see LearnerParams.
DEFAULT_SHOTS_C1 = 32.0


@dataclass(frozen=True)
class LearnerParams:
    """Accuracy targets and the explicit constants behind the Theta(.)s.

    ``support_rounds_c0`` multiplies the support-learning iteration count
    T = ceil(c0 s ln(s/delta)); ``shots_c1`` multiplies the per-estimate
    shot count derived from the Hoeffding margin 1/(6400 C). The
    first-order Taylor remainder constant is fixed at C = 1, so the stage
    time 1/(800 C eps) and the margin 1/(6400 C) are 1/(800 eps) and
    1/6400.

    The shots_c1 default is calibrated for SPAM robustness: with a
    depolarizing floor, square-rooting the bias-corrected frequency
    amplifies binomial noise near zero, and the sign stage needs the extra
    constant factor of samples to keep its threshold decision reliable.
    """

    s_bound: int
    eps: float
    delta: float
    support_rounds_c0: float = 64.0
    shots_c1: float = DEFAULT_SHOTS_C1

    def __post_init__(self):
        if self.s_bound < 1:
            raise ValueError("sparsity bound must be >= 1")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not (1.0 <= self.support_rounds_c0 < math.inf and 1.0 <= self.shots_c1 < math.inf):
            raise ValueError("constant multipliers must be finite and >= 1")


@dataclass
class LearnResult:
    """Learned Hamiltonian and the resources it cost.

    Comparing it with the truth is the caller's business
    (:func:`hamlearn.bench.trial_record`).
    """

    hamiltonian: SparseHamiltonian
    ledger: ResourceLedger


# ---------------------------------------------------------------------------
# shot/time arithmetic shared by the stages
# ---------------------------------------------------------------------------


def stage_evolution_time(eps: float) -> float:
    """Fixed evolution time t = 1/(800 C eps) of one estimation stage, C = 1."""
    return 1.0 / (800.0 * eps)


def magnitude_shots(delta: float, shots_c1: float) -> int:
    """Shots so the magnitude estimate meets the 1/(6400 C) margin, C = 1.

    Inverting the Hoeffding-style tail exp(-2 m tau^2) at tau = 1/(6400 C)
    with failure budget delta/2 per estimate gives
    m = ceil(c1 (6400 C)^2 ln(4/delta) / 2).
    """
    margin = 1.0 / 6400.0
    return math.ceil(shots_c1 * math.log(4.0 / delta) / (2.0 * margin**2))


def refinement_stages(eps: float) -> int:
    """Number of tenfold refinement stages L = ceil(log10(1/eps))."""
    return max(1, math.ceil(math.log10(1.0 / eps) - 1e-12))


def support_rounds(params: LearnerParams) -> int:
    """Support-learning iteration count T = ceil(c0 s ln(s/delta))."""
    return math.ceil(
        params.support_rounds_c0 * params.s_bound * math.log(params.s_bound / params.delta)
    )


# ---------------------------------------------------------------------------
# support learning
# ---------------------------------------------------------------------------


def learn_support(
    oracle: EvolutionOracle,
    params: LearnerParams,
    rng: np.random.Generator,
) -> set[PauliString]:
    """Collect a set covering the eps-effective support w.h.p.

    Each of the T iterations draws a fresh isolation, evolves the
    restricted Hamiltonian for a uniform time in [pi/4, 1/eps] and
    Bell-samples the outcome; identity outcomes are discarded. The returned
    set has at most T elements and contains every term with
    |h_P| >= eps with probability >= 1 - delta.

    All T rounds' strings are drawn by one ``rng.integers`` call as a
    (T, r, 2, n) bit array and their times by one ``rng.uniform`` call
    (every time is pi/4, with no draw, when 1/eps <= pi/4). The whole stage
    is one :meth:`EvolutionOracle.sample_support_stage` call, which settles
    every round whose surviving terms commute pairwise in closed form, a
    class of rounds at a time, and charges the settled rounds to the ledger
    a run at a time, in round order.
    """
    r, rounds = isolation_rounds(params.s_bound), support_rounds(params)
    bits = rng.integers(0, 2, size=(rounds, r, 2, oracle.n), dtype=np.uint8)
    t_lo, t_hi = math.pi / 4.0, 1.0 / params.eps
    times = rng.uniform(t_lo, t_hi, rounds).tolist() if t_hi > t_lo else [t_lo] * rounds
    return {p for p in oracle.sample_support_stage(bits, times) if not p.is_identity}


# ---------------------------------------------------------------------------
# single-coefficient learning
# ---------------------------------------------------------------------------


def learn_small_coeff(
    oracle: EvolutionOracle,
    qs: Iterable[PauliString],
    p0: PauliString,
    eps: float,
    delta: float,
    shots_c1: float = DEFAULT_SHOTS_C1,
    base_drift: float = 0.0,
) -> float:
    """Estimate an isolated coefficient under the promise |h| <= 10 eps.

    Stage one reads the magnitude off the target's Pauli-sampling
    frequency at time t = 1/(800 C eps) with C = 1; stage two repeats with
    a known pulse of the estimated magnitude added and keeps the positive
    branch iff the drifted magnitude stays >= eps/2. Returns a value within eps
    of the true coefficient with probability >= 1 - delta, provided the
    restriction really is the single term ``h p0`` (plus ``base_drift``).
    """
    qs = list(qs)
    t = stage_evolution_time(eps)
    shots = magnitude_shots(delta, shots_c1)

    drift = None if base_drift == 0.0 else (p0, base_drift)
    raw = oracle.estimate_pauli_coeff_magnitude(qs, drift, p0, t, shots)
    magnitude = min(raw / t, _STAGE_CLAMP_FACTOR * eps)

    drifted = (p0, base_drift + magnitude)
    raw_tilde = oracle.estimate_pauli_coeff_magnitude(qs, drifted, p0, t, shots)
    return magnitude if raw_tilde / t >= eps / 2.0 else -magnitude


def learn_coeff(
    oracle: EvolutionOracle,
    qs: Iterable[PauliString],
    p0: PauliString,
    eps: float,
    delta: float,
    shots_c1: float = DEFAULT_SHOTS_C1,
) -> float:
    """Full-range isolated coefficient (promise |h| <= 1) via refinement.

    Runs L = ceil(log10(1/eps)) stages at accuracies 10^-l, each with
    failure budget delta/L, subtracting the running estimate through a
    drift pulse so stage l+1 sees a residual within its 10 eps promise.
    """
    total = 0.0
    stages = refinement_stages(eps)
    for level in range(1, stages + 1):
        estimate = learn_small_coeff(
            oracle,
            qs,
            p0,
            eps=10.0**-level,
            delta=delta / stages,
            shots_c1=shots_c1,
            base_drift=-total,
        )
        total += estimate
    return total


def learn_single_coeff_sparse(
    oracle: EvolutionOracle,
    p0: PauliString,
    params: LearnerParams,
    rng: np.random.Generator,
) -> float:
    """Coefficient of ``p0`` in an unknown sparse Hamiltonian.

    Draws a targeted isolation (strings commuting with ``p0``) so that
    with probability >= 1 - delta/2 the restriction is exactly the target
    term, then refines the coefficient with failure budget delta/2.
    """
    if p0.is_identity:
        raise ValueError("cannot learn the identity coefficient (traceless convention)")
    draw = draw_isolation_for_target(oracle.hamiltonian, p0, params.s_bound, params.delta, rng)
    return learn_coeff(
        oracle,
        draw.qs,
        p0,
        eps=params.eps,
        delta=params.delta / 2.0,
        shots_c1=params.shots_c1,
    )


# ---------------------------------------------------------------------------
# the composed learner
# ---------------------------------------------------------------------------


def learn_hamiltonian(
    oracle: EvolutionOracle,
    params: LearnerParams,
    rng: np.random.Generator,
) -> LearnResult:
    """Learn every Pauli coefficient to accuracy eps, in three stages.

    Support learning runs with budget delta/2; every collected string is
    then estimated to eps/2 with budget delta/(2|P|); finally estimates
    with magnitude <= eps/2 round to zero, which confines the output
    support to the true one on successful runs.
    """
    candidates = learn_support(oracle, replace(params, delta=params.delta / 2.0), rng)
    ordered = sorted(candidates, key=lambda p: p.sort_key())

    delta_each = params.delta / (2.0 * max(1, len(ordered)))
    per_element = replace(params, eps=params.eps / 2.0, delta=delta_each)
    estimates = {p: learn_single_coeff_sparse(oracle, p, per_element, rng) for p in ordered}

    rounded = {p: c for p, c in estimates.items() if abs(c) > params.eps / 2.0}
    if len(rounded) > params.s_bound:
        keep = sorted(rounded.items(), key=lambda kv: (-abs(kv[1]), kv[0].sort_key()))
        rounded = dict(keep[: params.s_bound])
    return LearnResult(hamiltonian=SparseHamiltonian(oracle.n, rounded), ledger=oracle.ledger)


def learn_hamiltonian_opnorm(
    oracle: EvolutionOracle,
    params: LearnerParams,
    rng: np.random.Generator,
) -> LearnResult:
    """Learn to operator-norm accuracy eps by tightening to eps/s per term.

    The summed coefficient error is then at most eps, which bounds the
    operator norm of the difference by the triangle inequality (and hence
    the time- and temperature-constrained distances via their operator-norm
    bounds).
    """
    tightened = replace(params, eps=params.eps / params.s_bound)
    return learn_hamiltonian(oracle, tightened, rng)
