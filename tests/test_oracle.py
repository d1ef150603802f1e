"""Oracle: evolution queries, Pauli sampling, Trotter execution, ledger."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import hamlearn
from conftest import kron_hamiltonian, kron_pauli
from hamlearn import oracle as oracle_module
from hamlearn import pauli as pl
from hamlearn.distances import half_diamond_unitary
from hamlearn.errors import CapacityError, DimensionMismatchError
from hamlearn.hamiltonian import SparseHamiltonian, compress, eigh, random_instance
from hamlearn.isolation import isolation_rounds
from hamlearn.oracle import (
    EvolutionOracle,
    OracleConfig,
    ResourceLedger,
    pauli_transform,
    trotter_steps,
)
from hamlearn.pauli import PauliString

P = PauliString.from_label


def H(n, labelled):
    return SparseHamiltonian(n, {P(k): v for k, v in labelled.items()})


def make_oracle(h, seed=0, **cfg):
    return EvolutionOracle(h, OracleConfig(**cfg), rng=np.random.default_rng(seed))


# -- ledger ------------------------------------------------------------------


def test_ledger_charges_and_merge():
    a = ResourceLedger()
    a.charge_evolution(2.0, queries=3, resolution=0.5)
    a.charge_experiment(2, ancilla=4)
    b = ResourceLedger()
    b.charge_evolution(1.0, queries=1, resolution=0.25)
    b.charge_experiment(1, ancilla=2)
    m = a.merge(b)
    assert m.experiments == 3
    assert m.total_evolution_time == pytest.approx(3.0)
    assert m.queries == 4
    assert m.min_time_resolution == 0.25
    assert m.ancilla_qubits == 4
    # Associativity.
    c = ResourceLedger(experiments=5)
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


def test_ledger_json_keys():
    led = ResourceLedger()
    doc = led.to_json_dict()
    assert doc == {
        "experiments": 0,
        "total_time": 0.0,
        "queries": 0,
        "min_resolution": None,
        "ancilla": 0,
    }


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(mode="approx")
    with pytest.raises(ValueError):
        OracleConfig(spam_lambda=1.0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            OracleConfig(trotter_epsilon=bad)


def test_trotter_plan_arithmetic():
    assert trotter_steps(2.0, 2.0, 0.01) == math.ceil(math.sqrt((2.0 * 2.0) ** 3 / 0.01))
    assert trotter_steps(0.0, 0.0, 1.0) == 1
    # (norm t)^3 overflowing, an infinite norm and a NaN all raise, not OverflowError.
    for norm in (1e307, math.inf, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            trotter_steps(norm, 10.0, 0.01)


def test_trotter_steps_array_matches_scalar_rule():
    # A seeded grid, t = 0, and times whose counts fall within rounding of an
    # integer, where numpy's SIMD power alone could move the ceiling.
    rng = np.random.default_rng(21)
    for norm in (0.0, 0.37, 1.0, 5.5):
        for epsilon in (1e-3, 0.05, 1.0):
            k = np.arange(1.0, 2000.0)
            near = np.cbrt(k * k * epsilon) / norm if norm else k
            ts = np.concatenate(([0.0], rng.uniform(0.0, 40.0, 300), near))
            got = trotter_steps(norm, ts, epsilon)
            assert got.tolist() == [trotter_steps(norm, t, epsilon) for t in ts.tolist()]
    # Counts beyond 2**63 stay exact integers.
    big = trotter_steps(1e15, np.array([1e15, 2e15]), 0.01)
    assert big.tolist() == [trotter_steps(1e15, t, 0.01) for t in (1e15, 2e15)]
    assert big[0] > 2**63
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"not finite for norm=1e\+307, t=10.0"):
            trotter_steps(1e307, np.array([0.0, 10.0, math.nan]), 0.01)


# -- evolve --------------------------------------------------------------------


def test_evolve_diagonal_case():
    oracle = make_oracle(H(1, {"Z": 0.5}))
    u = oracle.evolve(np.pi)
    assert np.allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]))
    assert oracle.ledger.queries == 1
    assert oracle.ledger.total_evolution_time == pytest.approx(np.pi)
    assert oracle.ledger.min_time_resolution == pytest.approx(np.pi)


def test_evolve_t_zero():
    oracle = make_oracle(H(1, {"Z": 0.5}))
    u = oracle.evolve(0.0)
    assert np.allclose(u, np.eye(2))
    assert oracle.ledger.queries == 1
    assert oracle.ledger.total_evolution_time == 0.0
    assert math.isinf(oracle.ledger.min_time_resolution)


def test_evolve_rejects_negative_time():
    with pytest.raises(ValueError):
        make_oracle(H(1, {"Z": 0.5})).evolve(-1.0)


def test_evolve_matches_scipy_expm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = random_instance(3, 4, rng)
        t = float(rng.uniform(0.1, 3.0))
        u = make_oracle(h).evolve(t)
        assert np.allclose(u, expm(-1j * t * kron_hamiltonian({p.label: c for p, c in h})), atol=1e-10)


_EIGH_FAILURE_SCRIPT = """
import sys
import numpy as np
from hamlearn.distances import d_T
from hamlearn.hamiltonian import SparseHamiltonian
from hamlearn.oracle import EvolutionOracle

h = SparseHamiltonian.from_json_dict({"n": 8, "terms": %r})
np.save(sys.argv[1], EvolutionOracle(h).evolve(1.0))
EvolutionOracle(h, rng=np.random.default_rng(0)).sample_restricted([], 1.0)
d_T(h, h.scaled(0.9), 1.0, grid=8)
"""


def test_evolve_survives_lapack_eigh_failure(tmp_path):
    # On single-threaded OpenBLAS, zheevd fails to converge on this
    # degenerate 256x256 matrix when reading its lower triangle.
    terms = [
        {"pauli": "IIIZIZYZ", "coeff": -0.20038000720409554},
        {"pauli": "YZXIIIZI", "coeff": -0.18395841367198112},
    ]
    src = os.path.dirname(os.path.dirname(hamlearn.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "u.npy"
    proc = subprocess.run(
        [sys.executable, "-c", _EIGH_FAILURE_SCRIPT % terms, str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = expm(-1j * kron_hamiltonian({t["pauli"]: t["coeff"] for t in terms}))
    assert np.abs(np.load(out) - expected).max() < 1e-10


def test_evolve_unitary_and_reversible():
    rng = np.random.default_rng(4)
    h = random_instance(3, 5, rng)
    oracle = make_oracle(h)
    u = oracle.evolve(1.7)
    defect = np.abs(u.conj().T @ u - np.eye(8)).max()
    assert defect < 1e-10
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12


def test_evolve_capacity():
    h = SparseHamiltonian(13, {PauliString(13, 1, 0): 0.5})
    with pytest.raises(CapacityError):
        make_oracle(h).evolve(1.0)


# -- evolve_restricted --------------------------------------------------------


def test_restricted_empty_equals_evolve():
    h = H(2, {"XX": 0.5, "ZI": 0.3})
    u1 = make_oracle(h).evolve(0.8)
    u2 = make_oracle(h).evolve_restricted([], 0.8)
    assert np.allclose(u1, u2)


def test_restricted_single_survivor_closed_form():
    h = H(2, {"XX": 0.5, "ZI": 0.3})
    u = make_oracle(h).evolve_restricted([P("XI")], 1.0)
    expected = math.cos(0.5) * np.eye(4) - 1j * math.sin(0.5) * kron_pauli("XX")
    assert np.allclose(u, expected, atol=1e-12)
    # Oracle route: dense exponential of the restricted assembly.
    assert np.allclose(u, expm(-1j * kron_hamiltonian({"XX": 0.5})), atol=1e-10)


def test_restricted_with_drift():
    h = H(2, {"XX": 0.5, "ZI": 0.3})
    u = make_oracle(h).evolve_restricted([P("XI")], 1.0, drift=(P("XX"), -0.5))
    assert np.allclose(u, np.eye(4), atol=1e-12)  # drift cancels the survivor
    with pytest.raises(ValueError):
        make_oracle(h).evolve_restricted([P("XI")], 1.0, drift=(P("XX"), 5.0))


def test_restricted_ledger_accounting():
    h = H(2, {"XX": 0.5, "ZI": 0.3})
    oracle = make_oracle(h, trotter_epsilon=0.01)
    r, t = 2, 1.5
    qs = [P("XI"), P("IZ")]
    oracle.evolve_restricted(qs, t)
    # Steps are sized from the l1 norm; each of the 2 R l queries lasts t / (2 R l).
    l = trotter_steps(0.5 + 0.3, t, 0.01)
    assert oracle.ledger.total_evolution_time == pytest.approx(t)
    assert oracle.ledger.queries == 2 * (1 << r) * l
    assert oracle.ledger.min_time_resolution == pytest.approx(t / ((1 << (r + 1)) * l))
    # Total time adds up across calls regardless of the Trotter overhead.
    oracle.evolve_restricted(qs, 0.5)
    assert oracle.ledger.total_evolution_time == pytest.approx(2.0)


def test_trotter_mode_matches_exact_within_budget():
    rng = np.random.default_rng(6)
    for epsilon in (0.1, 0.01):
        h = random_instance(3, 3, rng)
        qs = [pl.random_uniform(3, rng) for _ in range(2)]
        exact = make_oracle(h, mode="exact").evolve_restricted(qs, 1.0)
        trot = make_oracle(h, mode="trotter", trotter_epsilon=epsilon).evolve_restricted(qs, 1.0)
        # Operator-norm distance bounds the channel diamond distance by 2x.
        gap = np.linalg.norm(exact - trot, 2)
        assert 2 * gap <= 2 * epsilon


def test_trotter_mode_drift_included():
    h = H(2, {"XX": 0.5, "ZI": 0.3})
    qs = [P("XI")]
    exact = make_oracle(h).evolve_restricted(qs, 1.0, drift=(P("XX"), 0.25))
    trot = make_oracle(h, mode="trotter", trotter_epsilon=0.01).evolve_restricted(
        qs, 1.0, drift=(P("XX"), 0.25)
    )
    assert np.linalg.norm(exact - trot, 2) < 0.01


def test_trotter_error_decreases_with_step_count():
    # ZZ survives conjugation by ZI while XI and YZ are killed; the two
    # halves do not commute, so the product formula is genuinely approximate.
    h = H(2, {"ZZ": 0.6, "XI": 0.5, "YZ": 0.4})
    qs = [P("ZI")]
    exact = make_oracle(h).evolve_restricted(qs, 2.0)
    errors = []
    for epsilon in (0.5, 0.05, 0.005):
        trot = make_oracle(h, mode="trotter", trotter_epsilon=epsilon).evolve_restricted(qs, 2.0)
        errors.append(np.linalg.norm(exact - trot, 2))
    assert errors[0] >= errors[1] >= errors[2]


def test_trotter_budget_met_beyond_unit_time():
    # Step constant 1 across n, r and t, at a tight budget.
    epsilon = 1e-3
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for r in (1, 2, 3):
            for t in (0.5, 2.0):
                h = random_instance(n, 3, rng)
                qs = [pl.random_uniform(n, rng) for _ in range(r)]
                exact = make_oracle(h, mode="exact").evolve_restricted(qs, t)
                trot = make_oracle(h, mode="trotter", trotter_epsilon=epsilon).evolve_restricted(
                    qs, t
                )
                assert 2.0 * half_diamond_unitary(exact, trot) <= epsilon


def _kron_trotter(h, qs, t, drift, epsilon):
    """Independent build of the executed product formula.

    Kron-built C_S H C_S and scipy expm per factor, expm(-i theta P_0) for
    the drift, one block F_R ... F_1 F_1 ... F_R raised to the l-th power.
    """
    dense_h = kron_hamiltonian({p.label: c for p, c in h})
    R = 1 << len(qs)
    l = trotter_steps(sum(abs(c) for _, c in h), t, epsilon)
    factors = []
    for subset in range(R):
        c = np.eye(2**h.n, dtype=complex)
        for i, q in enumerate(qs):
            if subset >> i & 1:
                c = kron_pauli(q.label) @ c
        factors.append(expm(-1j * t / (2 * R * l) * (c @ dense_h @ c.conj().T)))
    if drift is not None:
        factors.append(expm(-1j * drift[1] * t / (2 * l) * kron_pauli(drift[0].label)))
    block = np.eye(2**h.n, dtype=complex)
    for f in reversed(factors):
        block = f @ block
    for f in factors:
        block = f @ block
    return np.linalg.matrix_power(block, l)


def test_trotter_amplitudes_match_independent_product():
    rng = np.random.default_rng(41)
    for n in range(1, 6):
        for r in (1, 2, 3):
            for with_drift in (False, True):
                h = random_instance(n, int(rng.integers(1, min(6, 4**n - 1) + 1)), rng)
                qs = [pl.random_uniform(n, rng) for _ in range(r)]
                drift = None
                if with_drift:
                    drift = (pl.random_uniform(n, rng), float(rng.uniform(-1, 1)))
                t = float(rng.uniform(0.2, 2.0))
                oracle = make_oracle(h, mode="trotter", trotter_epsilon=0.01)
                amps = _amplitudes(oracle._simulate(qs, t, drift))
                expected = pauli_transform(_kron_trotter(h, qs, t, drift, 0.01))
                assert np.abs(_amplitude_vector(amps, n) - expected).max() <= 1e-10


def test_trotter_query_diagonalizes_once(monkeypatch):
    # Every factor of the product is a Pauli conjugate of one image
    # exponential: an r = 3 query (8 factors) runs eigh on the terms' image,
    # and with a drift once more on the pulse's.
    calls = []

    def counted(m):
        calls.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(oracle_module, "eigh", counted)
    h = random_instance(4, 6, np.random.default_rng(8))
    qs = [P("XIZI"), P("IZZY"), P("YIIX")]
    oracle = make_oracle(h, mode="trotter")
    oracle.sample_restricted(qs, 0.8, drift=(next(iter(h.terms)), 0.2))
    assert len(calls) == 2
    oracle.sample_restricted(qs, 0.8)
    assert len(calls) == 3


def test_trotter_sampling_beyond_dense_cap():
    # The Hamiltonian of test_exact_sampling_beyond_dense_cap: 40 qubits,
    # a 3-qubit image. Restricting by Z on qubit 0 keeps Z_0 and the ZZ term.
    h = H(40, {"X" + "I" * 39: 0.5, "Z" + "I" * 39: -0.3, "Y" + "I" * 38 + "Z": 0.2,
               "I" * 20 + "ZZ" + "I" * 18: 0.7})
    qs, p0, t = [P("Z" + "I" * 39)], P("Z" + "I" * 39), 0.8
    oracle = make_oracle(h, seed=3, mode="trotter", trotter_epsilon=1e-4)
    amps = _amplitudes(oracle._simulate(qs, t, (p0, 0.25)))
    assert abs(sum(abs(a) ** 2 for a in amps.values()) - 1.0) < 1e-12
    assert all(p.n == 40 for p in amps)
    exact = _amplitudes(make_oracle(h)._simulate(qs, t, (p0, 0.25)))
    assert max(abs(amps.get(p, 0.0) - exact.get(p, 0.0)) for p in {*amps, *exact}) < 1e-4
    assert oracle.sample_restricted(qs, t, drift=(p0, 0.25)).n == 40
    estimates = [
        make_oracle(h, seed=5, mode=mode, trotter_epsilon=1e-4).estimate_pauli_coeff_magnitude(
            qs, None, p0, t, shots=200_000
        )
        for mode in ("trotter", "exact")
    ]
    assert abs(estimates[0] - estimates[1]) < 0.01
    assert abs(estimates[1] - abs(math.sin(0.3 * t) * math.cos(0.7 * t))) < 0.01
    charged = oracle.ledger.to_json_dict()
    with pytest.raises(CapacityError):
        oracle.evolve_restricted(qs, t)
    assert oracle.ledger.to_json_dict() == charged


# -- Pauli transform -----------------------------------------------------------


def test_pauli_transform_matches_direct_traces():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        coeffs = pauli_transform(m)
        for idx in range(4**n):
            p = PauliString.from_index(n, idx)
            direct = np.trace(kron_pauli(p.label) @ m) / 2**n
            assert np.isclose(coeffs[idx], direct, atol=1e-12)


def test_pauli_transform_recovers_basis_vectors():
    for idx in range(16):
        p = PauliString.from_index(2, idx)
        coeffs = pauli_transform(pl.dense(p))
        expected = np.zeros(16)
        expected[idx] = 1.0
        assert np.allclose(coeffs, expected, atol=1e-12)


def test_parseval_for_unitaries():
    rng = np.random.default_rng(21)
    for n in (2, 4, 6):
        h = random_instance(n, 5, rng)
        u = make_oracle(h).evolve(1.3)
        probs = np.abs(pauli_transform(u)) ** 2
        assert abs(probs.sum() - 1.0) < 1e-10


# -- Pauli sampling -------------------------------------------------------------


def test_pauli_sample_pure_rotation_extremes():
    oracle = make_oracle(H(1, {"Z": 1.0}), seed=2)
    u = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])  # theta = pi/2
    for _ in range(20):
        assert oracle.pauli_sample(u) == P("Z")
    assert oracle.ledger.experiments == 20
    assert oracle.ledger.ancilla_qubits == 1
    for _ in range(5):
        assert oracle.pauli_sample(np.eye(2, dtype=complex)).is_identity


def test_pauli_sample_rotation_half_probability():
    # theta = pi/4: P(Z) = sin^2 = 1/2.
    oracle = make_oracle(H(1, {"Z": 1.0}), seed=3)
    theta = np.pi / 4
    u = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
    hits = sum(oracle.pauli_sample(u) == P("Z") for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_pauli_sample_rejects_non_unitary():
    oracle = make_oracle(H(1, {"Z": 1.0}))
    with pytest.raises(ValueError):
        oracle.pauli_sample(np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex))


def test_pauli_sample_spam_mixture():
    # Empirical distribution must match (1-lam)|u_P|^2 + lam/4^n.
    lam = 0.3
    theta = np.pi / 3
    oracle = make_oracle(H(1, {"Z": 1.0}), seed=5, spam_lambda=lam)
    u = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
    shots = 40_000
    counts = {"I": 0, "X": 0, "Y": 0, "Z": 0}
    for _ in range(shots):
        counts[oracle.pauli_sample(u).label] += 1
    expected = {
        "I": (1 - lam) * np.cos(theta) ** 2 + lam / 4,
        "Z": (1 - lam) * np.sin(theta) ** 2 + lam / 4,
        "X": lam / 4,
        "Y": lam / 4,
    }
    for label, prob in expected.items():
        sd = math.sqrt(prob * (1 - prob) / shots)
        assert abs(counts[label] / shots - prob) < 4 * sd + 1e-9


def test_sample_restricted_structured_matches_dense_distribution():
    # The closed-form amplitude expansion must agree exactly with the
    # dense transform for commuting survivor sets, collisions included.
    rng = np.random.default_rng(30)
    cases = [
        H(2, {"XX": 0.5}),
        H(2, {"XX": 0.5, "ZZ": -0.4}),
        H(3, {"XXI": 0.5, "ZZI": -0.4, "YYI": 0.7}),  # product collides with members
    ]
    for h in cases:
        oracle = make_oracle(h)
        amps = oracle._structured_amplitudes(list(h.terms.items()), 0.9)
        assert amps is not None
        dense_u = expm(-1j * 0.9 * kron_hamiltonian({p.label: c for p, c in h}))
        coeffs = pauli_transform(dense_u)
        for idx in range(4**h.n):
            p = PauliString.from_index(h.n, idx)
            assert np.isclose(amps.get(p, 0.0), coeffs[idx], atol=1e-12)


def test_sample_restricted_charges_like_evolve_plus_sample():
    h = H(2, {"XX": 0.5, "ZI": 0.3})
    qs = [P("XI"), P("IZ")]
    a = make_oracle(h, seed=1)
    a.sample_restricted(qs, 1.2)
    b = make_oracle(h, seed=1)
    b.pauli_sample(b.evolve_restricted(qs, 1.2))
    assert a.ledger == b.ledger


def test_closed_form_groups_match_dense_expm():
    # Independent dense oracle: kron-built matrix, scipy expm, Pauli transform.
    # The closed form must accept exactly the sets whose anticommutation graph
    # is a disjoint union of cliques (no a ~ b ~ c with a, c commuting), and
    # match expm at a scalar time and at every entry of an array of times.
    def check(labelled, t):
        h = H(len(next(iter(labelled))), labelled)
        amps = make_oracle(h)._structured_amplitudes(list(h.terms.items()), t)
        if amps is None:
            return None
        for k, tk in enumerate(np.atleast_1d(t).tolist()):
            want = pauli_transform(expm(-1j * tk * kron_hamiltonian(labelled)))
            got = _amplitude_vector({p: np.atleast_1d(a)[k] for p, a in amps.items()}, h.n)
            assert np.abs(got - want).max() < 1e-12
        return amps

    pair = check({"X": 0.4, "Z": -0.3}, 1.7)
    assert set(pair) == {P("I"), P("X"), P("Z")}
    assert check({"X": 0.4, "Y": 0.7, "Z": -0.3}, np.array([0.0, 0.6, 2.5])) is not None
    assert len(check({"XI": 0.4, "ZI": 0.3, "IZ": 0.9}, np.array([0.3, 1.1]))) == 6
    assert check({"XI": 0.4, "ZI": 0.3, "ZZ": 0.2}, 1.0) is None

    rng = np.random.default_rng(25)
    shapes = set()
    for _ in range(1500):
        n = int(rng.integers(1, 5))
        size = int(rng.integers(1, min(6, 4**n - 1) + 1))
        indices = rng.choice(np.arange(1, 4**n), size=size, replace=False).tolist()
        labelled = {PauliString.from_index(n, i).label: rng.uniform(-1, 1) for i in indices}
        strings = [P(label) for label in labelled]
        anti = [[pl.symplectic_product(a, b) for b in strings] for a in strings]
        path = any(
            anti[a][b] and anti[b][c] and not anti[a][c] and a != c
            for a in range(size)
            for b in range(size)
            for c in range(size)
        )
        t = rng.uniform(0.0, 3.0, size=3) if rng.random() < 0.5 else float(rng.uniform(0.0, 3.0))
        accepted = check(labelled, t) is not None
        assert accepted != path
        if accepted:
            shapes.add(max(map(sum, anti)) + 1)
    assert {1, 2, 3} <= shapes


def test_sample_restricted_noncommuting_runs_compressed():
    # XI anticommutes with ZI and ZZ, which commute with each other, so the
    # terms form no anticommuting groups and the query runs on the 2-qubit
    # image (one pair, one central string). On qubit 2's Z eigenvalue z the
    # Hamiltonian is 0.4 X + (0.3 + 0.2 z) Z, exponentiated in closed form.
    h = H(2, {"XI": 0.4, "ZI": 0.3, "ZZ": 0.2})
    oracle = make_oracle(h, seed=7)
    assert oracle._structured_amplitudes(list(h.terms.items()), 1.0) is None
    coeffs, basis = oracle._simulate([], 1.0, None)
    assert basis.qubits == 2 and coeffs.shape == (16,)
    amps = _amplitudes((coeffs, basis))
    assert set(amps) == {P(a + b) for a in "IXYZ" for b in "IZ"}
    expected = {}
    for z in (1, -1):
        w = math.hypot(0.4, 0.3 + 0.2 * z)
        rotation = {"I": math.cos(w), "X": -0.4j * math.sin(w) / w}
        rotation["Z"] = -1j * (0.3 + 0.2 * z) * math.sin(w) / w
        for a, amp in rotation.items():
            expected[P(a + "I")] = expected.get(P(a + "I"), 0.0) + amp / 2
            expected[P(a + "Z")] = expected.get(P(a + "Z"), 0.0) + z * amp / 2
    for p, amp in amps.items():
        assert abs(amp - expected.get(p, 0.0)) < 1e-15
    outcome = oracle.sample_restricted([], 1.0)
    assert outcome.n == 2


def _amplitudes(simulated):
    """n-qubit amplitudes of a ``_simulate`` result: the closed-form dict as it
    is, else every image coefficient of the algebra decoded, sign included."""
    if isinstance(simulated, dict):
        return simulated
    coeffs, basis = simulated
    amps = {}
    for index in np.flatnonzero(basis.in_algebra()).tolist():
        p, sign = basis.decode(index)
        amps[p] = sign * coeffs[index]
    return amps


def _amplitude_vector(amps, n):
    vec = np.zeros(4**n, dtype=complex)
    for p, a in amps.items():
        vec[p.index] = a
    return vec


def test_compressed_amplitudes_match_dense_expm(monkeypatch):
    # Independent dense oracle: kron-built matrix, scipy expm, then the
    # Pauli transform; phases are compared, not just probabilities. The
    # closed form is switched off, so commuting sets run on the image too.
    monkeypatch.setattr(EvolutionOracle, "_structured_amplitudes", lambda *args: None)
    rng = np.random.default_rng(91)
    for trial in range(300):
        n = int(rng.integers(1, 6))
        s = int(rng.integers(1, min(10, 4**n - 1) + 1))
        if trial % 3 == 0:
            zs = rng.choice(np.arange(1, 2**n), size=min(s, 2**n - 1), replace=False)
            h = SparseHamiltonian(n, {PauliString(n, 0, int(z)): rng.uniform(-1, 1) for z in zs})
        else:
            h = random_instance(n, s, rng)
        t = float(rng.uniform(0.0, 4.0))
        assert compress(h)[0][0].n <= n
        coeffs, basis = make_oracle(h)._simulate([], t, None)
        # Off the image algebra the transform holds only rounding noise.
        assert np.abs(coeffs[~basis.in_algebra()]).max(initial=0.0) < 1e-14
        amps = _amplitudes((coeffs, basis))
        labelled = {p.label: c for p, c in h.terms.items()}
        expected = pauli_transform(expm(-1j * t * kron_hamiltonian(labelled)))
        assert np.abs(_amplitude_vector(amps, n) - expected).max() < 1e-12


def test_exact_sampling_beyond_dense_cap():
    # Three pairwise anticommuting terms and one central term on a 40-qubit
    # register: one pair and two central strings (Z on qubit 39, ZZ).
    h = H(40, {"X" + "I" * 39: 0.5, "Z" + "I" * 39: -0.3, "Y" + "I" * 38 + "Z": 0.2,
               "I" * 20 + "ZZ" + "I" * 18: 0.7})
    assert compress(h)[0][0].n == 3
    oracle = make_oracle(h, seed=3)
    amps = _amplitudes(oracle._simulate([], 0.8, None))
    assert abs(sum(abs(a) ** 2 for a in amps.values()) - 1.0) < 1e-12
    assert all(p.n == 40 for p in amps)
    outcome = oracle.sample_restricted([P("I" * 20 + "XX" + "I" * 18)], 0.8)
    assert outcome.n == 40
    assert oracle.estimate_pauli_coeff_magnitude([], None, P("X" + "I" * 39), 0.8, 100) >= 0.0
    assert oracle.ledger.experiments == 101
    with pytest.raises(CapacityError):
        oracle.evolve(0.8)


def test_wide_image_draws_match_the_dense_distribution():
    # Thirty terms span all 8 qubits: the image is 8 qubits wide. Decoding
    # every image index gives the dense n-qubit distribution, and a draw is
    # the decoded image index the oracle's next uniform selects.
    h = random_instance(8, 30, np.random.default_rng(1))
    oracle = make_oracle(h, seed=5)
    coeffs, basis = oracle._simulate([], 0.7, None)
    assert basis.qubits == 8
    dense = np.abs(pauli_transform(oracle.evolve(0.7))) ** 2
    decoded = np.zeros(4**8)
    for p, a in _amplitudes((coeffs, basis)).items():
        decoded[p.index] = abs(a) ** 2
    assert np.abs(decoded - dense).max() < 1e-12
    twin = make_oracle(h, seed=5).rng
    for _ in range(5):
        outcome = oracle.sample_restricted([], 0.7)
        cdf = np.cumsum(np.where(basis.in_algebra(), np.abs(coeffs) ** 2, 0.0))
        index = int(cdf.searchsorted(twin.random() * cdf[-1], side="right"))
        assert outcome == basis.decode(index)[0] and dense[outcome.index] > 0


def test_rejected_sample_restricted_charges_nothing():
    h = H(2, {"XX": 0.5, "ZI": 0.3})
    oracle = make_oracle(h)
    qs, drift = [P("XI")], (P("XX"), 5.0)
    with pytest.raises(ValueError, match="drift"):
        oracle.sample_restricted(qs, 1.0, drift=drift)
    with pytest.raises(ValueError, match="drift"):
        oracle.evolve_restricted(qs, 1.0, drift=drift)
    with pytest.raises(ValueError, match="drift"):
        oracle.estimate_pauli_coeff_magnitude(qs, drift, P("XX"), 1.0, shots=10)
    assert oracle.ledger == ResourceLedger()
    # A target on the wrong number of qubits, a non-finite time or a NaN
    # drift, in either mode.
    for mode in ("exact", "trotter"):
        oracle = make_oracle(h, mode=mode)
        with pytest.raises(DimensionMismatchError):
            oracle.estimate_pauli_coeff_magnitude(qs, None, P("XXX"), 1.0, shots=10)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="evolution time"):
                oracle.evolve(t)
            for restriction in ([], qs):
                with pytest.raises(ValueError, match="evolution time"):
                    oracle.sample_restricted(restriction, t)
                with pytest.raises(ValueError, match="evolution time"):
                    oracle.estimate_pauli_coeff_magnitude(restriction, None, P("XX"), t, 5)
        with pytest.raises(ValueError, match="drift"):
            oracle.sample_restricted(qs, 1.0, drift=(P("XX"), math.nan))
        assert oracle.ledger == ResourceLedger()


_IDENTITY_DRIFT_QUERIES = {
    "sample": lambda oracle, drift: oracle.sample_restricted([P("XI")], 1.0, drift),
    "estimate": lambda oracle, drift: oracle.estimate_pauli_coeff_magnitude(
        [P("XI")], drift, P("XX"), 1.0, shots=10
    ),
    "evolve": lambda oracle, drift: oracle.evolve_restricted([P("XI")], 1.0, drift),
}


@pytest.mark.parametrize("query", list(_IDENTITY_DRIFT_QUERIES))
@pytest.mark.parametrize("mode", ["exact", "trotter"])
def test_identity_drift_is_rejected_untouched(mode, query):
    # A drift on the identity string is a multiple of I, which the traceless
    # convention excludes: both modes refuse it alike, before any charge or draw.
    oracle = make_oracle(H(2, {"XX": 0.5, "ZI": 0.3}), mode=mode)
    state = oracle.rng.bit_generator.state
    with pytest.raises(ValueError, match=r"identity term not allowed \(traceless convention\)"):
        _IDENTITY_DRIFT_QUERIES[query](oracle, (P("II"), 0.3))
    assert oracle.ledger == ResourceLedger()
    np.testing.assert_equal(oracle.rng.bit_generator.state, state)


@pytest.mark.parametrize("labelled", [{"X": 1e300}, {"X": 1e300, "Z": 0.3}])
def test_overflowing_evolution_is_rejected_untouched(labelled):
    # |h_P| t overflows: the closed form and the compressed exponential would
    # both give NaN amplitudes, so the query is refused before it runs.
    oracle = make_oracle(H(1, labelled))
    state = oracle.rng.bit_generator.state
    with pytest.raises(ValueError, match="evolution time"):
        oracle.estimate_pauli_coeff_magnitude([], None, P("X"), 1e10, shots=100)
    with pytest.raises(ValueError, match="evolution time"):
        oracle.sample_restricted([], 1e10)
    assert oracle.ledger == ResourceLedger()
    np.testing.assert_equal(oracle.rng.bit_generator.state, state)


# -- support stages --------------------------------------------------------------


def _round_strings(n, rows):
    """A round's (r, 2, n) bit rows decoded independently of the oracle."""
    return [
        PauliString(n, int("".join(map(str, x)), 2), int("".join(map(str, z)), 2)) for x, z in rows
    ]


def _exact_ledger(ledger):
    return {k: v.hex() if isinstance(v, float) else v for k, v in vars(ledger).items()}


# Stages below whose survivors form no anticommuting groups in some rounds
# (queried), which fall between rounds settled in closed form.
_MIXED_STAGES = {(4, 15), (6, 9)}


@pytest.mark.parametrize(
    "n, s, cfg",
    [
        (1, 1, {}),
        (5, 8, {}),
        (8, 8, {}),
        (40, 8, {}),
        (70, 4, {}),
        (3, 0, {}),
        (5, 8, {"spam_lambda": 0.05}),
        (3, 0, {"spam_lambda": 0.05}),
        (5, 8, {"mode": "trotter"}),
        (40, 8, {"mode": "trotter"}),
        (3, 2, {}),
        (7, 4, {}),
        (3, 2, {"spam_lambda": 0.05}),
        (7, 4, {"spam_lambda": 0.05}),
        (4, 15, {}),
        (6, 9, {}),
        (4, 15, {"spam_lambda": 0.05}),
        (6, 9, {"spam_lambda": 0.05}),
    ],
)
def test_support_stage_matches_per_round_sampling(n, s, cfg, monkeypatch):
    # One stage call and a loop of sample_restricted over the same strings
    # and times give equal outcomes, ledgers (to the last bit) and oracle
    # generator states; only rounds with survivors are simulated.
    truth = random_instance(n, s, np.random.default_rng(s)) if s else SparseHamiltonian(n)
    r = isolation_rounds(max(s, 1))
    draw = np.random.default_rng(100 * n + s)
    bits = draw.integers(0, 2, size=(40, r, 2, n), dtype=np.uint8)
    times = draw.uniform(0.0, 2.0, size=40).tolist()
    staged, looped = make_oracle(truth, seed=9, **cfg), make_oracle(truth, seed=9, **cfg)

    calls = []
    original = EvolutionOracle.sample_restricted

    def counted(self, qs, t):
        calls.append(t)
        return original(self, qs, t)

    monkeypatch.setattr(EvolutionOracle, "sample_restricted", counted)
    got = staged.sample_support_stage(bits, times)
    monkeypatch.undo()
    rounds = [_round_strings(n, rows.tolist()) for rows in bits]
    want = [looped.sample_restricted(qs, t) for qs, t in zip(rounds, times)]

    assert got == want
    assert _exact_ledger(staged.ledger) == _exact_ledger(looped.ledger)
    assert staged.ledger.experiments == 40
    np.testing.assert_equal(staged.rng.bit_generator.state, looped.rng.bit_generator.state)
    busy = [t for qs, t in zip(rounds, times) if truth.restrict(qs)]
    assert calls == [
        t
        for qs, t in zip(rounds, times)
        if cfg.get("mode") == "trotter"
        or looped._structured_amplitudes(list(truth.restrict(qs).terms.items()), t) is None
    ]
    if not cfg and s:
        assert 0 < len(busy) < 40
    if (n, s) in _MIXED_STAGES:
        assert 0 < len(calls) < len(busy)


def test_empty_support_stage_touches_nothing():
    oracle = make_oracle(H(2, {"XX": 0.5, "ZI": 0.3}))
    state = oracle.rng.bit_generator.state
    assert oracle.sample_support_stage(np.zeros((0, 2, 2, 2), dtype=np.uint8), []) == []
    assert oracle.ledger == ResourceLedger()
    np.testing.assert_equal(oracle.rng.bit_generator.state, state)


@pytest.mark.parametrize("mode", ["exact", "trotter"])
def test_support_stage_rejects_infinite_step_count_untouched(mode):
    # sum |h_P| t overflows the step count: the stage raises before it
    # simulates, charges or draws anything, and numpy warns of nothing.
    oracle = make_oracle(H(2, {"XX": 1e200, "ZZ": 0.5, "XI": -1e200}), mode=mode)
    state = oracle.rng.bit_generator.state
    bits = np.random.default_rng(4).integers(0, 2, size=(12, 2, 2, 2), dtype=np.uint8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Trotter step count is not finite"):
            oracle.sample_support_stage(bits, [0.0, *[1.5] * 11])
    assert oracle.ledger == ResourceLedger()
    np.testing.assert_equal(oracle.rng.bit_generator.state, state)


@pytest.mark.parametrize("mode", ["exact", "trotter"])
def test_support_stage_rejects_overflowing_time_untouched(mode):
    # sum |h_P| t overflows with r = 0, where no step count is computed: the
    # stage raises _simulate's error before it simulates, charges or draws.
    oracle = make_oracle(H(1, {"Z": 1e300}), mode=mode)
    state = oracle.rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"makes sum \|h_P\| t non-finite"):
            oracle.sample_support_stage(np.zeros((3, 0, 2, 1), np.uint8), [1e10] * 3)
    assert oracle.ledger == ResourceLedger()
    np.testing.assert_equal(oracle.rng.bit_generator.state, state)


@pytest.mark.parametrize("mode", ["exact", "trotter"])
def test_support_stage_raises_what_the_loop_raises(mode):
    # r = 2 and round 0 overflows sum |h_P| t, so its step count is not finite
    # either: the time rule comes first, for the stage as for its own query.
    truth = H(2, {"XX": 1e300, "ZZ": 0.5})
    bits = np.random.default_rng(6).integers(0, 2, size=(4, 2, 2, 2), dtype=np.uint8)
    times = [1e10, 1.0, 1.0, 1.0]
    staged, looped = make_oracle(truth, mode=mode), make_oracle(truth, mode=mode)
    state = staged.rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as stage_error:
            staged.sample_support_stage(bits, times)
        with pytest.raises(ValueError) as loop_error:
            looped.sample_restricted(_round_strings(2, bits[0].tolist()), times[0])
    assert str(stage_error.value) == str(loop_error.value)
    assert "makes sum |h_P| t non-finite" in str(stage_error.value)
    assert staged.ledger == ResourceLedger()
    np.testing.assert_equal(staged.rng.bit_generator.state, state)


def _staged_and_looped(truth, bits, times):
    """Oracles after one stage call and after a loop of sample_restricted."""
    staged, looped = make_oracle(truth, seed=3), make_oracle(truth, seed=3)
    got = staged.sample_support_stage(bits, times)
    n = truth.n
    want = [looped.sample_restricted(_round_strings(n, q.tolist()), t) for q, t in zip(bits, times)]
    assert got == want
    np.testing.assert_equal(staged.rng.bit_generator.state, looped.rng.bit_generator.state)
    return staged.ledger, looped.ledger


def test_support_stage_adds_times_in_round_order():
    # Adding 1e-16 to 1.0 changes nothing, so the in-order total differs
    # from a pairwise (np.sum) or correctly rounded (math.fsum) one.
    times = [1.0] + [1e-16] * 50
    in_order = 0.0
    for t in times:
        in_order += t
    assert in_order != np.sum(times) and in_order != math.fsum(times)
    truth = H(2, {"ZZ": 0.5, "ZI": -0.3})  # every survivor set commutes: all settled
    bits = np.random.default_rng(5).integers(0, 2, size=(51, 1, 2, 2), dtype=np.uint8)
    staged, looped = _staged_and_looped(truth, bits, times)
    assert staged.total_evolution_time.hex() == looped.total_evolution_time.hex() == in_order.hex()
    assert _exact_ledger(staged) == _exact_ledger(looped)


def test_support_stage_charges_exact_queries_beyond_int64():
    # norm t = 1e30: each settled round's step count exceeds 2**63 and
    # 2**53, and the stage charges the exact Python-int sum.
    truth = H(1, {"Z": 1e15})
    bits = np.zeros((3, 1, 2, 1), dtype=np.uint8)
    bits[:, 0, 0, 0] = 1  # X anticommutes with Z: nothing survives
    times = [1e15, 2e15, 3e15]
    staged, looped = _staged_and_looped(truth, bits, times)
    want = sum(2 * 2 * trotter_steps(1e15, t, 0.01) for t in times)
    assert staged.queries == looped.queries == want > 2**63
    assert _exact_ledger(staged) == _exact_ledger(looped)


def test_support_stage_rejects_bad_input():
    oracle = make_oracle(H(2, {"XX": 0.5, "ZI": 0.3}))
    state = oracle.rng.bit_generator.state
    good = np.zeros((3, 2, 2, 2), dtype=np.uint8)
    for bits, times in (
        (np.zeros((3, 2, 2, 3), dtype=np.uint8), [1.0] * 3),
        (np.zeros((3, 2, 3, 2), dtype=np.uint8), [1.0] * 3),
        (np.zeros((3, 2, 4), dtype=np.uint8), [1.0] * 3),
        (good, [1.0] * 2),
    ):
        with pytest.raises(DimensionMismatchError):
            oracle.sample_support_stage(bits, times)
    for bits, times in (
        (good + 2, [1.0] * 3),
        (good.astype(int), [1.0] * 3),
        (good, [1.0, -1.0, 1.0]),
        (good, [1.0, math.nan, 1.0]),
    ):
        with pytest.raises(ValueError):
            oracle.sample_support_stage(bits, times)
    assert oracle.ledger == ResourceLedger()
    np.testing.assert_equal(oracle.rng.bit_generator.state, state)


# Restrictions by XX keep the commuting pair {XX, ZZ} (closed form); XI and
# ZI anticommute (compressed exponential, drawn in image index order);
# trotter mode executes the product.
_CLOSED = H(2, {"XX": 0.5, "ZZ": -0.4, "ZI": 0.3})
_DENSE = H(2, {"XI": 0.4, "ZI": 0.3, "XX": 0.5})


def test_seeded_draws_are_pinned():
    # Recorded labels: a change to how queries are simulated or drawn must
    # not move a seeded outcome.
    cases = [
        (_CLOSED, [P("XX")], 0.9, {}, "II II II XX YY II II II II II II II"),
        (_DENSE, [], 0.9, {}, "IX II II XI XX II II II II II II II"),
        (
            H(2, {"ZZ": 0.6, "XI": 0.5, "YZ": 0.4}),
            [P("ZI")],
            1.3,
            {"mode": "trotter", "trotter_epsilon": 0.1},
            "ZZ II II ZZ ZZ II II II II II ZZ ZZ",
        ),
        (
            _CLOSED,
            [P("XX")],
            0.9,
            {"spam_lambda": 0.2},
            "II XX II ZI ZY ZX ZZ II II II II XX II YI II II",
        ),
    ]
    for h, qs, t, cfg, expected in cases:
        oracle = make_oracle(h, seed=2024, **cfg)
        labels = [oracle.sample_restricted(qs, t).label for _ in expected.split()]
        assert " ".join(labels) == expected
    oracle = make_oracle(_CLOSED)
    assert oracle._structured_amplitudes(list(_CLOSED.restrict([P("XX")]).terms.items()), 0.9)
    assert oracle._structured_amplitudes(list(_DENSE.terms.items()), 0.9) is None


def test_seeded_estimates_are_pinned():
    cases = [
        (_CLOSED, [P("XX")], P("XX"), (0.408656334834051, 0.5735852159879995)),
        (_DENSE, [], P("XI"), (0.322490309931942, 0.47958315233127197)),
    ]
    for h, qs, p0, expected in cases:
        oracle = make_oracle(h, seed=7)
        got = (
            oracle.estimate_pauli_coeff_magnitude(qs, None, p0, 0.9, shots=1000),
            oracle.estimate_pauli_coeff_magnitude(qs, (p0, 0.25), p0, 0.9, shots=1000),
        )
        assert got == expected


# -- coefficient estimation -----------------------------------------------------


def test_estimate_single_survivor_small_angle():
    # h_P = 0.001, t = 1/(800 C eps) with eps = 0.001: |u_P| = sin(h t).
    h_p = 0.001
    t = 1.0 / (800.0 * 1.0 * 0.001)
    h = H(2, {"XX": h_p})
    oracle = make_oracle(h, seed=11)
    est = oracle.estimate_pauli_coeff_magnitude([], None, P("XX"), t, shots=10_000)
    assert abs(est - abs(math.sin(h_p * t))) < 0.02


def test_estimate_zero_coefficient():
    h = H(2, {"XX": 0.5})
    oracle = make_oracle(h, seed=12)
    est = oracle.estimate_pauli_coeff_magnitude([], None, P("ZZ"), 0.5, shots=10_000)
    assert est < 0.02


def test_trotter_query_on_an_empty_span_samples_the_identity():
    # No terms and no drift: the product runs on the padding qubit of an empty span.
    oracle = make_oracle(SparseHamiltonian(2), mode="trotter")
    assert [oracle.sample_restricted([P("XI")], 1.0) for _ in range(5)] == [P("II")] * 5
    assert oracle.estimate_pauli_coeff_magnitude([P("XI")], None, P("II"), 1.0, 100) == 1.0


def test_estimate_outside_the_span_reads_zero():
    # XI anticommutes with ZI and ZZ, which commute, so the query runs on
    # their 2-qubit image; IX is not in their span, so its amplitude is
    # exactly 0 in either mode.
    h = H(2, {"XI": 0.4, "ZI": 0.3, "ZZ": 0.2})
    for mode, qs in (("exact", []), ("trotter", [P("IZ")])):
        oracle = make_oracle(h, seed=15, mode=mode)
        _, basis = oracle._simulate(qs, 0.9, (P("XI"), 0.25))
        with pytest.raises(ValueError, match="span"):
            basis.encode(P("IX"))
        assert oracle.estimate_pauli_coeff_magnitude(qs, (P("XI"), 0.25), P("IX"), 0.9, 500) == 0.0
        assert oracle.estimate_pauli_coeff_magnitude(qs, None, P("XI"), 0.9, 500) > 0.0
        assert oracle.ledger.experiments == 1000


def test_estimate_spam_bias_correction():
    h = H(2, {"XX": 0.5})
    oracle = make_oracle(h, seed=13, spam_lambda=0.1)
    ident = PauliString.identity(2)
    est = oracle.estimate_pauli_coeff_magnitude([], None, ident, 0.0, shots=50_000)
    assert abs(est - 1.0) < 0.01


def test_estimate_in_trotter_mode_uses_executed_unitary():
    # The estimator reads the coefficient off whatever the backend actually
    # produces; at a tight budget it agrees with the exact single-survivor law.
    h = H(2, {"XX": 0.05, "ZI": 0.3})
    qs = [P("XI")]
    t = 1.0
    oracle = make_oracle(h, seed=21, mode="trotter", trotter_epsilon=1e-4)
    est = oracle.estimate_pauli_coeff_magnitude(qs, None, P("XX"), t, shots=200_000)
    assert abs(est - abs(math.sin(0.05 * t))) < 0.01


def test_estimate_charges_all_shots():
    h = H(2, {"XX": 0.5, "ZI": 0.3})
    oracle = make_oracle(h, seed=14)
    qs = [P("XI")]
    oracle.estimate_pauli_coeff_magnitude(qs, None, P("XX"), 1.0, shots=500)
    led = oracle.ledger
    assert led.experiments == 500
    assert led.total_evolution_time == pytest.approx(500 * 1.0)
    assert led.queries == 500 * 2 * 2 * trotter_steps(0.5 + 0.3, 1.0, 0.01)
    assert led.ancilla_qubits == 2


def test_ledger_serialization_schema():
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    schema = json.loads(res.files("hamlearn").joinpath("schemas/ledger.schema.json").read_text())
    oracle = make_oracle(H(1, {"Z": 0.5}))
    oracle.evolve(1.0)
    jsonschema.validate(oracle.ledger.to_json_dict(), schema)
