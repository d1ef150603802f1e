"""Acceptance suite: every headline guarantee at its stated tolerance.

Each test is one acceptance criterion with its tolerance and runtime cap
pinned; the terminal summary (see conftest) prints one PASS/FAIL line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_bounded_instance, wilson_lower
from hamlearn import pauli as pl
from hamlearn.bench import evolution_time_slope, experiments_slope, sweep
from hamlearn.distances import (
    circle_q,
    counterexample_family,
    counterexample_trace_distance,
    d_B,
    d_T,
    eigenphase_lower_bound,
    gibbs_trace_bound_check,
    half_diamond_unitary,
    minmax_closed,
)
from hamlearn.hamiltonian import SparseHamiltonian, random_instance
from hamlearn.isolation import (
    isolation_probability_empirical,
    predicted_vv_mean,
    predicted_vv_variance,
    vv_statistics,
)
from hamlearn.learner import LearnerParams, learn_hamiltonian, learn_single_coeff_sparse
from hamlearn.oracle import EvolutionOracle, OracleConfig
from hamlearn.pauli import PauliString

P = PauliString.from_label


class Stopwatch:
    def __init__(self, budget_s: float):
        self.budget = budget_s
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, f"criterion exceeded its runtime cap: {elapsed:.1f}s"


def split_rngs(seed, k=3):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(k)]


# ---------------------------------------------------------------------------


def test_criterion_01_pauli_algebra_dense_equivalence():
    """Exhaustive n<=3: symplectic commutation and phase-exact products."""
    watch = Stopwatch(5.0)
    for n in (1, 2, 3):
        strings = [PauliString.from_index(n, i) for i in range(4**n)]
        mats = [pl.dense(p) for p in strings]
        for i, p in enumerate(strings):
            for j, q in enumerate(strings):
                pq = mats[i] @ mats[j]
                qp = mats[j] @ mats[i]
                assert (pl.symplectic_product(p, q) == 0) == np.array_equal(pq, qp)
                r, phase = pl.multiply(p, q)
                assert np.array_equal(pq, phase * mats[r.index])
    watch.check()


def test_criterion_02_restriction_matches_dense_symmetrization():
    """500 random (h, qs) at n<=3 agree with iterated (H+QHQ)/2 to 1e-12."""
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(2026)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        s = int(rng.integers(1, min(6, 4**n - 1) + 1))
        h = random_instance(n, s, rng)
        qs = [pl.random_uniform(n, rng) for _ in range(int(rng.integers(0, 5)))]
        dense = h.dense_matrix()
        for q in qs:
            dq = pl.dense(q)
            dense = (dense + dq @ dense @ dq) / 2
        assert np.abs(h.restrict(qs).dense_matrix() - dense).max() <= 1e-12
    watch.check()


def test_criterion_03_bell_sampling_distribution():
    """Single-survivor rotations sample (cos^2, sin^2) within 3 sigma at 1e4 shots."""
    watch = Stopwatch(10.0)
    shots = 10_000

    def check_freqs(counts, expected):
        for outcome, prob in expected.items():
            sigma = math.sqrt(prob * (1 - prob) / shots)
            assert abs(counts.get(outcome, 0) / shots - prob) <= 3 * sigma + 1e-12

    for theta in (0.3, np.pi / 4, 1.1):
        oracle = EvolutionOracle(
            SparseHamiltonian(1, {P("Z"): 1.0}),
            OracleConfig(),
            rng=np.random.default_rng(int(theta * 1000)),
        )
        u = oracle.evolve(theta)
        counts = {}
        for _ in range(shots):
            out = oracle.pauli_sample(u)
            counts[out] = counts.get(out, 0) + 1
        check_freqs(
            counts,
            {P("I"): math.cos(theta) ** 2, P("Z"): math.sin(theta) ** 2},
        )

    # Same law for an isolated survivor of a 2-qubit Hamiltonian.
    h = SparseHamiltonian(2, {P("XX"): 0.5, P("ZI"): 0.3})
    oracle = EvolutionOracle(h, OracleConfig(), rng=np.random.default_rng(99))
    theta = 0.5 * 1.3
    u = oracle.evolve_restricted([P("XI")], 1.3)
    counts = {}
    for _ in range(shots):
        out = oracle.pauli_sample(u)
        counts[out] = counts.get(out, 0) + 1
    check_freqs(counts, {P("II"): math.cos(theta) ** 2, P("XX"): math.sin(theta) ** 2})
    watch.check()


def test_criterion_04_valiant_vazirani_statistics():
    """Mean and variance of |S| within 5 sigma of 2^-r |X| formulas at 1e5 trials."""
    watch = Stopwatch(30.0)
    rng = np.random.default_rng(4)
    trials = 100_000
    for set_size, r in ((2, 1), (4, 2), (8, 3), (4, 4), (16, 6)):
        stats = vv_statistics(set_size, r, trials, rng)
        mean_th = predicted_vv_mean(set_size, r)
        var_th = predicted_vv_variance(set_size, r)
        mean_sigma = math.sqrt(var_th / trials)
        assert abs(stats.mean - mean_th) <= 5 * mean_sigma
        counts = stats.counts.astype(float)
        m4 = ((counts - counts.mean()) ** 4).mean()
        var_sigma = math.sqrt(max(m4 - stats.variance**2, 1e-12) / trials)
        assert abs(stats.variance - var_th) <= 5 * var_sigma
    # Pr[|S| = 0] >= 1/2 whenever 2^r = 4 |X|.
    for set_size, r in ((1, 2), (4, 4), (8, 5), (16, 6)):
        stats = vv_statistics(set_size, r, trials, rng)
        assert stats.p_empty >= 0.5
    watch.check()


def test_criterion_05_isolation_probability_floor():
    """Pr[single-survivor isolation of a fixed term] >= 1/(8s), 99% Wilson."""
    watch = Stopwatch(60.0)
    trials = 100_000
    for s, seed in ((2, 50), (4, 51), (8, 52)):
        inst_rng, mc_rng = split_rngs(seed, 2)
        h = random_instance(6, s, inst_rng)
        p0 = sorted(h.support, key=lambda p: p.sort_key())[0]
        hits = round(isolation_probability_empirical(h, p0, trials, mc_rng) * trials)
        assert wilson_lower(hits, trials) >= 1.0 / (8 * s)
    watch.check()


def test_criterion_06_trotter_budget_met_after_calibration():
    """Executed product formulas meet their diamond budgets at n=3, r<=3, t=1.

    The step count uses the fixed constant 1 of ``oracle.trotter_steps``.
    """
    watch = Stopwatch(60.0)
    for epsilon in (0.1, 0.01):
        rng = np.random.default_rng(60)
        for r in (1, 2, 3):
            for _ in range(3):
                h = random_instance(3, 4, rng)
                qs = [pl.random_uniform(3, rng) for _ in range(r)]
                exact = EvolutionOracle(h, OracleConfig(mode="exact"))
                trot = EvolutionOracle(h, OracleConfig(mode="trotter", trotter_epsilon=epsilon))
                diamond = 2.0 * half_diamond_unitary(
                    exact.evolve_restricted(qs, 1.0), trot.evolve_restricted(qs, 1.0)
                )
                assert diamond <= epsilon
    watch.check()


@pytest.mark.parametrize("spam", [0.0, 0.05])
def test_criterion_07_single_coefficient_learning(spam):
    """|h' - h_P| <= eps in >= 90% of 200 runs at n=6, s=4, eps=0.01."""
    watch = Stopwatch(600.0)
    eps, delta = 0.01, 0.1
    runs = 200
    ok = 0
    for seed in range(runs):
        inst_rng, oracle_rng, learner_rng = split_rngs(7000 + seed)
        h = random_instance(6, 4, inst_rng, coeff_floor=0.1)
        p0 = sorted(h.support, key=lambda p: p.sort_key())[seed % 4]
        oracle = EvolutionOracle(h, OracleConfig(spam_lambda=spam), rng=oracle_rng)
        params = LearnerParams(s_bound=4, eps=eps, delta=delta)
        estimate = learn_single_coeff_sparse(oracle, p0, params, learner_rng)
        ok += abs(estimate - h.coeff(p0)) <= eps
    assert ok >= 0.9 * runs
    watch.check()


@pytest.mark.parametrize("spam", [0.0, 0.05])
def test_criterion_08_full_learner_linf_guarantee(spam):
    """Exhaustive 4^n linf error <= eps and support containment, >= 90% of 100 runs."""
    watch = Stopwatch(900.0)
    n, s, eps, delta = 5, 3, 0.05, 0.1
    runs = 100
    ok = 0
    for seed in range(runs):
        inst_rng, oracle_rng, learner_rng = split_rngs(8000 + seed)
        truth = random_instance(n, s, inst_rng, coeff_floor=0.1)
        oracle = EvolutionOracle(truth, OracleConfig(spam_lambda=spam), rng=oracle_rng)
        params = LearnerParams(s_bound=s, eps=eps, delta=delta)
        learned = learn_hamiltonian(oracle, params, learner_rng).hamiltonian
        linf = max(
            abs(truth.coeff(q) - learned.coeff(q))
            for q in (PauliString.from_index(n, i) for i in range(4**n))
        )
        ok += linf <= eps and learned.support <= truth.support
    assert ok >= 0.9 * runs
    watch.check()


def test_criterion_09_resource_scaling_fits():
    """Log-log slopes: experiments vs s ln s and time vs 1/eps, both in [0.7, 1.3]."""
    watch = Stopwatch(1200.0)
    rows_s = sweep([2, 4, 8, 16], [0.05], trials=3, base_seed=900, n=8, delta=0.1)
    slope_s = experiments_slope(rows_s)
    assert 0.7 <= slope_s <= 1.3
    rows_e = sweep([4], [0.2, 0.1, 0.05, 0.025], trials=3, base_seed=950, n=8, delta=0.1)
    slope_e = evolution_time_slope(rows_e)
    assert 0.7 <= slope_e <= 1.3
    watch.check()


def test_criterion_10_distance_sandwich_suite():
    """d_T within its lower/upper bounds, d_B under its bound, Gibbs bound chain."""
    watch = Stopwatch(600.0)
    rng = np.random.default_rng(10)
    quarter_pi_inv = 1.0 / (4.0 * math.pi)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        h1 = random_bounded_instance(n, 3, rng)
        h2 = random_bounded_instance(n, 3, rng)
        gap = (h1 - h2).op_norm()
        for T in (0.1, 1.0, 10.0):
            res = d_T(h1, h2, T=T, grid=2048)
            upper = math.sin(min(math.pi / 2, T * gap))
            lower = quarter_pi_inv * min(T, quarter_pi_inv) * gap
            assert res.value <= upper + 1e-9
            assert res.value >= lower - res.grid_error
        for B in (0.5, 2.0):
            res = d_B(h1, h2, B=B, grid=512)
            assert res.value <= 0.5 * B * gap + res.grid_error
    for _ in range(500):
        n = int(rng.integers(1, 5))
        g1 = random_instance(n, 3, rng)
        g2 = random_instance(n, 3, rng)
        lhs, rhs_new, rhs_old = gibbs_trace_bound_check(g1, g2)
        assert lhs <= rhs_new + 1e-9
        assert rhs_new <= rhs_old + 1e-9
    watch.check()


def test_criterion_11_counterexample_exactness():
    """Closed-form Gibbs gap matches dense to 1e-10; vanishing d_B at fixed gap 2."""
    watch = Stopwatch(30.0)
    for n in range(1, 9):
        pair = counterexample_family(n)
        w1, a = np.linalg.eigh(pair.dense_1)
        w2, b = np.linalg.eigh(pair.dense_2)
        for beta in (0.1, 1.0, 3.0):
            g1 = np.exp(-beta * w1)
            g2 = np.exp(-beta * w2)
            rho1 = (a * (g1 / g1.sum())) @ a.conj().T
            rho2 = (b * (g2 / g2.sum())) @ b.conj().T
            dense_gap = float(np.abs(np.linalg.eigvalsh(rho1 - rho2)).sum())
            assert abs(dense_gap - counterexample_trace_distance(n, beta)) <= 1e-10
    pair = counterexample_family(10)
    assert (pair.sparse_1 - pair.sparse_2).op_norm() == pytest.approx(2.0)
    res = d_B(pair.sparse_1, pair.sparse_2, B=1.0, grid=64)
    assert res.value <= 0.005
    watch.check()


def test_criterion_12_minmax_closed_form():
    """Closed form equals the 1e5-point brute-force minimum for 1e3 random pairs."""
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(12)
    points = 100_000
    xs = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    tol = 2 * np.pi / points + 1e-12
    for _ in range(1000):
        a, b = rng.uniform(-10.0, 10.0, size=2)
        brute = float(np.maximum(np.abs(circle_q(a - xs)), np.abs(circle_q(b - xs))).min())
        assert abs(minmax_closed(a, b) - brute) <= tol
    watch.check()


def test_criterion_13_eigenphase_lower_bound_chain():
    """half-diamond(e^{-iH}, Id) >= spectral bound >= ||H||_op/(2 pi), 200 cases."""
    watch = Stopwatch(60.0)
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        h = random_bounded_instance(n, 3, rng, op_cap=math.pi / 2)
        evals, evecs = np.linalg.eigh(h.dense_matrix())
        u = (evecs * np.exp(-1j * evals)) @ evecs.conj().T
        half = half_diamond_unitary(u, np.eye(2**n, dtype=complex))
        bound = eigenphase_lower_bound(h)
        assert half >= bound - 1e-9
        assert bound >= h.op_norm() / (2 * math.pi) - 1e-9
    watch.check()
