"""Isolation draws and Valiant-Vazirani survivor statistics."""

import numpy as np
import pytest

from hamlearn import pauli as pl
from hamlearn.hamiltonian import SparseHamiltonian, random_instance
from hamlearn.isolation import (
    IsolationDraw,
    draw_isolation_for_target,
    isolation_probability_empirical,
    isolation_rounds,
    predicted_vv_mean,
    predicted_vv_variance,
    targeted_isolation_rounds,
    vv_statistics,
)
from hamlearn.pauli import PauliString

P = PauliString.from_label


def H(n, labelled):
    return SparseHamiltonian(n, {P(k): v for k, v in labelled.items()})


def draw_isolation(h, s_bound, rng):
    """Per-draw reference: r = ceil(log2 s)+2 uniform strings, survivors by restriction."""
    r = isolation_rounds(s_bound)
    qs = pl.random_uniforms(h.n, r, rng)
    return IsolationDraw(qs=qs, r=r, survivors=frozenset(h.restrict(qs).support))


# -- round counts ---------------------------------------------------------------


def test_round_formulas():
    assert isolation_rounds(1) == 2
    assert isolation_rounds(4) == 4
    assert isolation_rounds(5) == 5  # ceil(log2 5) + 2
    assert targeted_isolation_rounds(2, 0.5) == 5  # ceil(log2 8) + 2
    assert targeted_isolation_rounds(4, 0.1) == 9


def test_round_validation():
    with pytest.raises(ValueError):
        isolation_rounds(0)
    with pytest.raises(ValueError):
        targeted_isolation_rounds(2, 1.5)


# -- draws ------------------------------------------------------------------------


def test_draw_survivors_subset_of_support(rng):
    h = random_instance(4, 5, rng)
    for _ in range(50):
        draw = draw_isolation(h, s_bound=5, rng=rng)
        assert draw.r == isolation_rounds(5)
        assert draw.survivors <= h.support
        assert draw.survivors == frozenset(h.restrict(draw.qs).support)


def test_targeted_draw_keeps_target(rng):
    h = random_instance(4, 5, rng)
    p0 = sorted(h.support, key=lambda p: p.sort_key())[0]
    for _ in range(50):
        draw = draw_isolation_for_target(h, p0, s_bound=5, delta=0.25, rng=rng)
        assert p0 in draw.survivors
        assert all(pl.symplectic_product(p0, q) == 0 for q in draw.qs)


def test_targeted_draw_rejects_identity(rng):
    h = H(2, {"XX": 0.5})
    with pytest.raises(ValueError):
        draw_isolation_for_target(h, PauliString.identity(2), 1, 0.1, rng)


def test_targeted_failure_rate_bounded(rng):
    # Empirical Pr[survivors != {p0}] <= delta plus sampling slack.
    delta = 0.25
    h = random_instance(6, 4, rng)
    p0 = sorted(h.support, key=lambda p: p.sort_key())[0]
    trials = 10_000
    failures = sum(
        draw_isolation_for_target(h, p0, 4, delta, rng).survivors != frozenset({p0})
        for _ in range(trials)
    )
    rate = failures / trials
    sd = np.sqrt(delta * (1 - delta) / trials)
    assert rate <= delta + 3 * sd


# -- empirical isolation probability ----------------------------------------------


def test_isolation_probability_single_term(rng):
    # s = 1: isolation succeeds iff all r=2 strings commute with p0,
    # which happens with probability 2^-2 = 1/4.
    h = H(3, {"XZY": 0.7})
    prob = isolation_probability_empirical(h, P("XZY"), trials=10_000, rng=rng)
    assert abs(prob - 0.25) < 0.02


def test_isolation_probability_beyond_64_qubits(rng):
    # The same s = 1 case at n = 70, wider than one 64-bit mask.
    label = "XZY" + "I" * 60 + "ZYXIXYZ"
    h = H(70, {label: 0.7})
    prob = isolation_probability_empirical(h, P(label), trials=10_000, rng=rng)
    assert abs(prob - 0.25) < 0.02


def test_isolation_probability_range_and_vectorization_agreement(rng):
    h = random_instance(4, 4, rng)
    p0 = sorted(h.support, key=lambda p: p.sort_key())[0]
    prob = isolation_probability_empirical(h, p0, trials=5_000, rng=rng)
    assert 0.0 <= prob <= 1.0
    # Cross-check the batched path against per-draw computation.
    hits = sum(
        draw_isolation(h, h.sparsity, rng).survivors == frozenset({p0}) for _ in range(5_000)
    )
    assert abs(prob - hits / 5_000) < 0.05


def test_isolation_probability_requires_support_membership(rng):
    h = H(2, {"XX": 0.5})
    with pytest.raises(ValueError):
        isolation_probability_empirical(h, P("ZZ"), 100, rng)


def test_isolation_probability_meets_survival_floor(rng):
    # Lemma-level floor: Pr[isolate fixed P] >= 1/(8s) for s-sparse H.
    for s in (2, 4):
        h = random_instance(6, s, rng)
        p0 = sorted(h.support, key=lambda p: p.sort_key())[0]
        prob = isolation_probability_empirical(h, p0, trials=20_000, rng=rng)
        assert prob >= 1.0 / (8 * s)


# -- synthetic VV statistics --------------------------------------------------------


def test_vv_small_case_formulas(rng):
    stats = vv_statistics(set_size=4, r=2, trials=100_000, rng=rng)
    assert abs(stats.mean - predicted_vv_mean(4, 2)) < 0.05  # 1.0
    assert abs(stats.variance - predicted_vv_variance(4, 2)) < 0.1  # 0.75
    assert predicted_vv_mean(4, 2) == 1.0
    assert predicted_vv_variance(4, 2) == 0.75


def test_vv_empty_probability_at_four_x(rng):
    # 2^r = 4 |X| gives Pr[empty] >= 1/2.
    for size, r in ((1, 2), (4, 4), (8, 5)):
        stats = vv_statistics(size, r, trials=50_000, rng=rng)
        assert stats.p_empty >= 0.5


def test_vv_no_filtering(rng):
    stats = vv_statistics(set_size=1, r=0, trials=1000, rng=rng)
    assert stats.mean == 1.0
    assert stats.variance == 0.0


def test_vv_set_size_capacity(rng):
    with pytest.raises(ValueError):
        vv_statistics(set_size=16, r=1, trials=10, rng=rng, m=4)
    vv_statistics(set_size=15, r=1, trials=10, rng=rng, m=4)
    # Strings are drawn as uint64, so m is capped at 63 with a clear message.
    for m in (0, 64):
        with pytest.raises(ValueError, match=r"outside \[1, 63\]"):
            vv_statistics(set_size=4, r=1, trials=10, rng=rng, m=m)
    assert vv_statistics(set_size=4, r=1, trials=10, rng=rng, m=63).counts.shape == (10,)


def test_vv_counts_match_moments(rng):
    stats = vv_statistics(set_size=6, r=3, trials=20_000, rng=rng)
    assert stats.counts.shape == (20_000,)
    assert stats.mean == pytest.approx(stats.counts.mean())
    assert stats.p_empty == pytest.approx((stats.counts == 0).mean())
