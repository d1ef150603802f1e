"""Constrained distances: closed forms, bound chains, counterexamples."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import kron_hamiltonian, kron_pauli, random_bounded_instance
from hamlearn.distances import (
    circle_p,
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
from hamlearn.errors import DimensionMismatchError
from hamlearn.hamiltonian import SparseHamiltonian
from hamlearn.pauli import PauliString

P = PauliString.from_label


def H(n, labelled):
    return SparseHamiltonian(n, {P(k): v for k, v in labelled.items()})


# -- circle arithmetic ---------------------------------------------------------


def test_circle_examples():
    assert circle_q(0.0) == 0.0
    assert circle_p(0.0) == 0.0
    assert circle_q(3 * np.pi) == pytest.approx(-np.pi)
    assert circle_p(-np.pi / 2) == pytest.approx(3 * np.pi / 2)


@given(st.floats(-100, 100))
def test_circle_ranges(x):
    assert 0.0 <= circle_p(x) < 2 * np.pi
    assert -np.pi <= circle_q(x) < np.pi


def _minmax_grid_oracle(a, b, points=100_000):
    xs = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    return float(np.maximum(np.abs(circle_q(a - xs)), np.abs(circle_q(b - xs))).min())


def test_minmax_closed_examples():
    assert minmax_closed(1.3, 1.3) == 0.0
    assert minmax_closed(0.0, np.pi) == pytest.approx(np.pi / 2)
    # Brute-force grid oracle confirms the half-pi value.
    assert _minmax_grid_oracle(0.0, np.pi) == pytest.approx(np.pi / 2, abs=1e-4)


def test_minmax_closed_matches_grid_oracle():
    rng = np.random.default_rng(13)
    points = 100_000
    tol = 2 * np.pi / points + 1e-9
    for _ in range(200):
        a, b = rng.uniform(-10, 10, size=2)
        assert abs(minmax_closed(a, b) - _minmax_grid_oracle(a, b, points)) <= tol


# -- half diamond distance -------------------------------------------------------


def test_half_diamond_equal_inputs():
    u = expm(-1j * 0.7 * kron_pauli("XZ"))
    assert half_diamond_unitary(u, u) == 0.0


def test_half_diamond_global_phase_invariance():
    u = expm(-1j * 0.4 * kron_pauli("XY"))
    assert half_diamond_unitary(u, np.exp(1j * 1.234) * u) < 1e-7
    assert half_diamond_unitary(np.exp(-1j * 0.5) * u, u) < 1e-7


def test_half_diamond_opposite_rotations_closed_form():
    # V = e^{-i theta Z}, W = e^{+i theta Z}: phases of V^dag W are +-2 theta,
    # so the value is sin(2 theta) while 2 theta <= pi/2, then saturates at 1.
    for theta in (0.1, 0.3, np.pi / 4):
        v = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
        w = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        expected = 1.0 if 2 * theta > np.pi / 2 else math.sin(2 * theta)
        assert half_diamond_unitary(v, w) == pytest.approx(expected, abs=1e-12)


def test_half_diamond_symmetry_and_range(rng):
    for _ in range(25):
        h1 = random_bounded_instance(2, 3, rng)
        h2 = random_bounded_instance(2, 3, rng)
        v = expm(-1j * h1.dense_matrix())
        w = expm(-1j * h2.dense_matrix())
        d1 = half_diamond_unitary(v, w)
        d2 = half_diamond_unitary(w, v)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert 0.0 <= d1 <= 1.0


def test_half_diamond_dominates_random_state_overlaps(rng):
    # sqrt(1 - |<psi|V^dag W|psi>|^2) is a lower bound for every state.
    h1 = random_bounded_instance(3, 4, rng)
    h2 = random_bounded_instance(3, 4, rng)
    v = expm(-1j * h1.dense_matrix())
    w = expm(-1j * h2.dense_matrix())
    value = half_diamond_unitary(v, w)
    m = v.conj().T @ w
    dim = 8
    psi = rng.normal(size=(10_000, dim)) + 1j * rng.normal(size=(10_000, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    overlaps = np.abs(np.einsum("ij,jk,ik->i", psi.conj(), m, psi))
    lower = np.sqrt(np.maximum(0.0, 1.0 - overlaps**2))
    assert lower.max() <= value + 1e-9


def _hull_half_diamond(v, w):
    # Independent oracle: sqrt(1 - dist(0, conv(eigenvalues))^2) computed
    # with planar geometry instead of arc bookkeeping.
    lams = np.linalg.eigvals(v.conj().T @ w)
    pts = np.column_stack([lams.real, lams.imag])
    # Distance from the origin to the convex hull of the points.
    best = min(np.hypot(*p) for p in pts)
    for i in range(len(pts)):
        for j in range(len(pts)):
            a, b = pts[i], pts[j]
            ab = b - a
            denom = ab @ ab
            if denom < 1e-30:
                continue
            t = np.clip(-(a @ ab) / denom, 0.0, 1.0)
            best = min(best, float(np.hypot(*(a + t * ab))))
    # Origin inside the hull: some halfplane test; fall back to scipy.
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(pts)
        eqs = hull.equations
        if np.all(eqs[:, :2] @ np.zeros(2) + eqs[:, 2] <= 1e-12):
            best = 0.0
    except QhullError:
        pass  # degenerate (collinear) point sets: segment scan already exact
    return math.sqrt(max(0.0, 1.0 - best**2))


def test_half_diamond_matches_convex_hull_oracle(rng):
    scipy_spatial = pytest.importorskip("scipy.spatial")
    del scipy_spatial
    for scale in (0.2, 1.0, 2.5):  # small arcs through hull-spanning spectra
        for _ in range(25):
            n = int(rng.integers(1, 4))
            h1 = random_bounded_instance(n, 3, rng, op_cap=scale)
            h2 = random_bounded_instance(n, 3, rng, op_cap=scale)
            v = expm(-1j * h1.dense_matrix())
            w = expm(-1j * h2.dense_matrix())
            assert half_diamond_unitary(v, w) == pytest.approx(
                _hull_half_diamond(v, w), abs=1e-9
            )


def test_half_diamond_input_validation():
    with pytest.raises(DimensionMismatchError):
        half_diamond_unitary(np.eye(2, dtype=complex), np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        half_diamond_unitary(np.eye(2, dtype=complex) * 1.2, np.eye(2, dtype=complex))


# -- time-constrained distance ------------------------------------------------------


def test_dt_identical_hamiltonians():
    h = H(2, {"XX": 0.5, "ZI": 0.3})
    result = d_T(h, h, T=1.0, grid=64)
    assert result.value == 0.0
    assert result.kind == "time_constrained"


def test_dt_opposite_z_reaches_one():
    got = d_T(H(1, {"Z": 0.5}), H(1, {"Z": -0.5}), T=np.pi / 2, grid=512)
    assert got.value == pytest.approx(1.0, abs=1e-6)
    assert got.argmax == pytest.approx(np.pi / 2, rel=1e-3)


def test_dt_monotone_in_budget():
    h1 = H(2, {"XX": 0.4})
    h2 = H(2, {"ZZ": 0.3})
    values = [d_T(h1, h2, T=t, grid=256).value for t in (0.1, 0.5, 1.0, 3.0)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9


def test_dt_sandwich_small_sweep(rng):
    for _ in range(15):
        n = int(rng.integers(1, 4))
        h1 = random_bounded_instance(n, 3, rng)
        h2 = random_bounded_instance(n, 3, rng)
        gap = (h1 - h2).op_norm()
        for T in (0.1, 1.0):
            res = d_T(h1, h2, T=T, grid=512)
            upper = math.sin(min(math.pi / 2, T * gap))
            lower = gap * min(T, 1 / (4 * math.pi)) / (4 * math.pi)
            assert res.value <= upper + 1e-9
            assert res.value >= lower - res.grid_error - 1e-9


def test_small_norm_direct_lower_bound(rng):
    # For ||H_i||_op <= 1/(4 pi), the half diamond distance at t=1 already
    # dominates ||H1 - H2||_op / (4 pi).
    cap = 1.0 / (4 * np.pi)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        h1 = random_bounded_instance(n, 3, rng, op_cap=cap)
        h2 = random_bounded_instance(n, 3, rng, op_cap=cap)
        v = expm(-1j * h1.dense_matrix())
        w = expm(-1j * h2.dense_matrix())
        gap = (h1 - h2).op_norm()
        assert half_diamond_unitary(v, w) >= gap / (4 * np.pi) - 1e-9


def test_distance_result_invariants(rng):
    h1 = random_bounded_instance(2, 3, rng)
    h2 = random_bounded_instance(2, 3, rng)
    norms = h1.op_norm() + h2.op_norm()
    for res, budget in (
        (d_T(h1, h2, T=2.5, grid=128), 2.5),
        (d_B(h1, h2, B=1.5, grid=128), 1.5),
    ):
        assert 0.0 <= res.value <= 1.0
        assert 0.0 <= res.argmax <= budget
        assert res.grid_error >= 0.0
        # Never looser than the uniform grid's certificate with slope ||H1|| + ||H2||.
        assert res.grid_error <= norms * budget / 128


def test_dt_validation():
    h = H(1, {"Z": 0.5})
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            d_T(h, h, T=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            d_B(h, h, B=bad)
    with pytest.raises(DimensionMismatchError):
        d_T(h, H(2, {"ZZ": 0.5}), T=1.0)


# -- temperature-constrained distance --------------------------------------------------


def test_db_z_pair_tanh():
    # Half trace distance of the +-Z Gibbs pair at beta is tanh(beta).
    for budget in (0.5, 1.0, 2.0):
        res = d_B(H(1, {"Z": 1.0}), H(1, {"Z": -1.0}), B=budget, grid=512)
        assert res.value == pytest.approx(math.tanh(budget), abs=1e-6)
        assert res.argmax == pytest.approx(budget, rel=1e-3)


def test_db_zero_at_infinite_temperature():
    h1 = H(2, {"XX": 0.9})
    h2 = H(2, {"ZZ": -0.7})
    res = d_B(h1, h2, B=2.0, grid=256)
    assert res.value > 0.0
    # At beta = 0 both states are maximally mixed.
    assert d_B(h1, h2, B=1e-12, grid=2).value <= 1e-9


def test_db_monotone_and_bounded(rng):
    for _ in range(10):
        h1 = random_bounded_instance(2, 3, rng)
        h2 = random_bounded_instance(2, 3, rng)
        gap = (h1 - h2).op_norm()
        prev = 0.0
        for budget in (0.5, 1.0, 2.0):
            res = d_B(h1, h2, B=budget, grid=256)
            assert res.value >= prev - 1e-9
            assert res.value <= 0.5 * budget * gap + res.grid_error + 1e-9
            prev = res.value


def test_gibbs_trace_bounds(rng):
    lhs, rhs_new, rhs_old = gibbs_trace_bound_check(H(1, {"Z": 1.0}), H(1, {"Z": 1.0}))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        h1 = random_bounded_instance(n, 3, rng, op_cap=2.0)
        h2 = random_bounded_instance(n, 3, rng, op_cap=2.0)
        lhs, rhs_new, rhs_old = gibbs_trace_bound_check(h1, h2)
        assert lhs <= rhs_new + 1e-9
        assert rhs_new <= rhs_old + 1e-9


def test_gibbs_trace_z_pair():
    lhs, rhs_new, _ = gibbs_trace_bound_check(H(1, {"Z": 1.0}), H(1, {"Z": -1.0}))
    assert lhs == pytest.approx(2 * math.tanh(1.0), abs=1e-10)
    assert rhs_new == pytest.approx(2.0)


# -- the no-lower-bound counterexample ---------------------------------------------------


def test_counterexample_structure():
    pair = counterexample_family(1)
    assert np.allclose(pair.dense_1, np.diag([1.0, -1.0]))
    assert pair.sparse_1 == H(1, {"Z": 1.0})
    assert pair.sparse_2 == H(1, {"Z": -1.0})


def test_counterexample_dense_matches_pauli_decomposition():
    for n in (1, 2, 3, 5):
        pair = counterexample_family(n)
        assert np.allclose(pair.sparse_1.dense_matrix(), pair.dense_1, atol=1e-12)
        assert np.allclose(pair.sparse_2.dense_matrix(), pair.dense_2, atol=1e-12)
        assert pair.sparse_1.sparsity == 2 ** (n - 1)
        assert (pair.sparse_1 - pair.sparse_2).op_norm() == pytest.approx(2.0)


def test_counterexample_capacity():
    from hamlearn.errors import CapacityError

    with pytest.raises(CapacityError):
        counterexample_family(13)
    with pytest.raises(ValueError):
        counterexample_family(0)


def test_counterexample_closed_form_small():
    # n=2, beta=1 evaluates to 2(e - 1/e)/(2 + e + 1/e).
    expected = 2 * (math.e - 1 / math.e) / (2 + math.e + 1 / math.e)
    assert counterexample_trace_distance(2, 1.0) == pytest.approx(expected)
    assert expected == pytest.approx(0.9242, abs=1e-4)


def test_counterexample_closed_form_matches_dense():
    for n in (1, 2, 4, 6):
        pair = counterexample_family(n)
        for beta in (0.1, 1.0, 3.0):
            w1, a = np.linalg.eigh(pair.dense_1)
            w2, b = np.linalg.eigh(pair.dense_2)
            g1 = np.exp(-beta * w1)
            g2 = np.exp(-beta * w2)
            rho1 = (a * (g1 / g1.sum())) @ a.conj().T
            rho2 = (b * (g2 / g2.sum())) @ b.conj().T
            lhs = np.abs(np.linalg.eigvalsh(rho1 - rho2)).sum()
            assert lhs == pytest.approx(counterexample_trace_distance(n, beta), abs=1e-10)


# -- eigenphase lower bound chain ----------------------------------------------------


def test_eigenphase_lower_bound_examples():
    assert eigenphase_lower_bound(SparseHamiltonian(1)) == 0.0
    # H = (pi/4) Z: eigenvalues +-pi/4, separation pi/2, value 1/4.
    h = H(1, {"Z": np.pi / 4})
    assert eigenphase_lower_bound(h) == pytest.approx(0.25)
    half = half_diamond_unitary(expm(-1j * h.dense_matrix()), np.eye(2, dtype=complex))
    assert half == pytest.approx(math.sin(np.pi / 4), abs=1e-9)
    assert half >= 0.25


def test_eigenphase_chain_random(rng):
    for _ in range(40):
        n = int(rng.integers(1, 4))
        h = random_bounded_instance(n, 3, rng, op_cap=np.pi / 2)
        bound = eigenphase_lower_bound(h)
        half = half_diamond_unitary(expm(-1j * h.dense_matrix()), np.eye(2**n, dtype=complex))
        assert half >= bound - 1e-9
        assert bound >= h.op_norm() / (2 * np.pi) - 1e-9


# -- certified branch-and-bound ------------------------------------------------------


def _arc_values(phases):
    """sin(spread/2) of the minimal arc covering each row of phases, capped at 1."""
    angles = np.sort(phases, axis=-1)
    wrap = 2 * np.pi - (angles[..., -1] - angles[..., 0])
    gaps = np.concatenate([np.diff(angles, axis=-1), wrap[..., None]], axis=-1)
    spread = 2 * np.pi - gaps.max(axis=-1)
    return np.where(spread >= np.pi, 1.0, np.sin(np.minimum(spread, np.pi) / 2))


def _dense_objectives(h1, h2, ts):
    """d_T and d_B objectives at each point of ``ts`` from kron-built matrices."""
    mats = (kron_hamiltonian({p.label: c for p, c in h.terms.items()}) for h in (h1, h2))
    (w1, a), (w2, b) = (np.linalg.eigh(m) for m in mats)
    ts = np.asarray(ts)[:, None]

    def unitary(w, v):
        return (v * np.exp(-1j * ts * w)[:, None, :]) @ v.conj().T

    def gibbs(w, v):
        g = np.exp(-ts * (w - w.min()))
        return (v * (g / g.sum(axis=1, keepdims=True))[:, None, :]) @ v.conj().T

    x = unitary(w1, a).conj().transpose(0, 2, 1) @ unitary(w2, b)
    dt = _arc_values(np.angle(np.linalg.eigvals(x)))
    db = 0.5 * np.abs(np.linalg.eigvalsh(gibbs(w1, a) - gibbs(w2, b))).sum(axis=1)
    return dt, db, np.ptp(w1), np.ptp(w2)


def test_objective_slopes_within_certified_constants(rng):
    ts = np.linspace(0.0, 4.0, 401)
    pairs = []
    for _ in range(30):
        n = int(rng.integers(1, 4))
        pairs.append((random_bounded_instance(n, 3, rng, op_cap=2.0),
                      random_bounded_instance(n, 3, rng, op_cap=2.0)))
    # Close pairs, like learned against true: one coefficient moved by about 1e-2.
    pairs += [(h1, h1.add_term(next(iter(h1.terms)), float(rng.normal(0, 0.01))))
              for h1, _ in pairs]
    for h1, h2 in pairs:
        dt, db, spread1, spread2 = _dense_objectives(h1, h2, ts)
        step = np.diff(ts)
        gap = (h1 - h2).op_norm()
        db_slopes = np.abs(np.diff(db) / step)
        assert np.abs(np.diff(dt) / step).max() <= gap + 1e-9
        assert db_slopes.max() <= (spread1 + spread2) / 4 + 1e-9
        # The gap-scaled slope at each step's right end.
        assert np.all(db_slopes <= 0.5 * gap * (2 + 3 * ts[1:] * max(spread1, spread2)) + 1e-9)


def test_certificate_covers_fine_grid_maximum(rng):
    pairs = [
        (H(2, {"XX": 0.5, "ZI": 0.3}), H(2, {"XX": 0.5, "ZI": 0.3})),  # identical
        (H(2, {"ZZ": 0.8, "IZ": -0.3}), H(2, {"ZI": 0.6, "ZZ": 0.2})),  # diagonal d_B path
        (H(1, {"Z": 0.5}), H(1, {"Z": -0.5})),  # d_T saturates at 1 before T = 4
    ]
    for _ in range(6):
        n = int(rng.integers(1, 4))
        pairs.append((random_bounded_instance(n, 3, rng), random_bounded_instance(n, 3, rng)))
    for h1, h2 in pairs:
        for budget in (0.3, 4.0):
            dt_fine, db_fine, _, _ = _dense_objectives(h1, h2, np.linspace(0.0, budget, 8192))
            for refine in (False, True):
                for res, fine in (
                    (d_T(h1, h2, T=budget, grid=512, refine=refine), dt_fine),
                    (d_B(h1, h2, B=budget, grid=512, refine=refine), db_fine),
                ):
                    assert fine.max() <= res.value + res.grid_error + 1e-9
    saturated = d_T(H(1, {"Z": 0.5}), H(1, {"Z": -0.5}), T=4.0, grid=512)
    assert saturated.value == 1.0
    assert saturated.grid_error == 0.0


def test_dt_close_pair_needs_few_evaluations(monkeypatch):
    h1 = H(3, {"XXI": 0.5, "ZIZ": -0.3, "IYY": 0.4})
    h2 = H(3, {"XXI": 0.5, "ZIZ": -0.29, "IYY": 0.4})
    calls = []
    eigvals = np.linalg.eigvals

    def counted(x):
        calls.append(1)
        return eigvals(x)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    res = d_T(h1, h2, T=2.0, grid=2048, refine=False)
    assert len(calls) <= 64
    assert res.value > 0.0


def _close_pair():
    return (H(3, {"XXI": 0.5, "ZIZ": -0.3, "IYY": 0.4}),
            H(3, {"XXI": 0.5, "ZIZ": -0.29, "IYY": 0.4}))


def _counting(monkeypatch, name):
    """Count calls to ``np.linalg.<name>`` from now on."""
    calls = []
    kernel = getattr(np.linalg, name)

    def counted(x):
        calls.append(1)
        return kernel(x)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_dt_touch_up_stops_within_certificate(monkeypatch):
    h1, h2 = _close_pair()
    plain = d_T(h1, h2, T=2.0, grid=2048, refine=False)
    calls = _counting(monkeypatch, "eigvals")
    res = d_T(h1, h2, T=2.0, grid=2048, refine=True)
    assert len(calls) <= 24
    assert plain.value <= res.value <= plain.value + plain.grid_error


def test_db_close_pair_uses_gap_scaled_slope(monkeypatch):
    calls = _counting(monkeypatch, "eigvalsh")
    res = d_B(*_close_pair(), B=2.0, grid=512, refine=False)
    assert len(calls) <= 100
    assert 0.0 < res.value
    assert res.grid_error <= 5e-4


# -- joint compression against the dense n-qubit objectives ------------------------


def _expm_objectives(m1, m2, t, beta):
    """d_T objective at t, d_B objective at beta and the Gibbs gap at beta = -1."""
    x = expm(1j * t * m1) @ expm(-1j * t * m2)
    dt = _arc_values(np.angle(np.linalg.eigvals(x)))

    def gap(b):
        r1, r2 = expm(-b * m1), expm(-b * m2)
        diff = r1 / np.trace(r1).real - r2 / np.trace(r2).real
        return float(np.abs(np.linalg.eigvalsh(diff)).sum())

    return float(dt), 0.5 * gap(beta), gap(-1.0)


def _pair_cases(rng):
    """About 200 pairs on n <= 6 qubits, special cases first."""
    yield H(3, {"XZI": 0.4, "IYI": -0.3}), H(3, {"IIZ": 0.7})  # disjoint supports
    same = H(4, {"XXII": 0.5, "ZIYI": -0.2, "IIIX": 0.3})
    yield same, same  # identical
    yield SparseHamiltonian(2), H(2, {"XY": 0.6, "ZZ": -0.4})  # empty Hamiltonian
    yield H(1, {"X": 0.8}), H(1, {"Z": -0.5})  # anticommuting pair
    yield H(3, {"XXI": 0.6, "IXX": -0.3}), H(3, {"XIX": 0.9, "XXX": 0.2})  # X-type, commuting
    yield H(2, {"ZZ": 0.8, "IZ": -0.3}), H(2, {"ZI": 0.6, "ZZ": 0.2})  # Z-type, commuting
    for _ in range(194):
        n = int(rng.integers(1, 7))
        s = int(rng.integers(1, min(8, 4**n - 1) + 1))
        h1 = random_bounded_instance(n, s, rng, op_cap=2.0)
        if rng.random() < 0.3:  # a close pair, like learned against true
            yield h1, h1.add_term(next(iter(h1.terms)), float(rng.normal(0, 0.01)))
        else:
            yield h1, random_bounded_instance(n, s, rng, op_cap=2.0)


def test_compressed_objectives_match_dense_expm():
    # On grid=2 without refinement each distance evaluates only 0 and the
    # budget, where both objectives vanish at 0 and are non-negative.
    rng = np.random.default_rng(90)
    for h1, h2 in _pair_cases(rng):
        m1, m2 = (kron_hamiltonian({p.label: c for p, c in h.terms.items()} or {"I" * h.n: 0.0})
                  for h in (h1, h2))
        for t, beta in ((0.3, 0.5), (1.7, 2.0), (4.0, 6.0)):
            dt, db, gibbs = _expm_objectives(m1, m2, t, beta)
            assert abs(d_T(h1, h2, T=t, grid=2, refine=False).value - dt) <= 1e-10
            assert abs(d_B(h1, h2, B=beta, grid=2, refine=False).value - db) <= 1e-10
        assert abs(gibbs_trace_bound_check(h1, h2)[0] - gibbs) <= 1e-10


# -- serialization -------------------------------------------------------------------


def test_distance_result_schema():
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    schema = json.loads(res.files("hamlearn").joinpath("schemas/distance.schema.json").read_text())
    result = d_T(H(1, {"Z": 0.5}), H(1, {"Z": -0.5}), T=1.0, grid=64)
    jsonschema.validate(result.to_json_dict(), schema)
