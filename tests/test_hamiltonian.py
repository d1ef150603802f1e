"""Sparse Hamiltonian model: restriction, norms, spectra, serialization."""

import json
import math

import numpy as np
import pytest

from conftest import kron_hamiltonian, kron_pauli
from hamlearn import pauli as pl
from hamlearn.errors import CapacityError, DimensionMismatchError
from hamlearn.hamiltonian import (
    SparseHamiltonian,
    compress,
    l1_distance,
    linf_distance,
    random_instance,
)
from hamlearn.pauli import PauliString

P = PauliString.from_label


def H(n, labelled):
    return SparseHamiltonian(n, {P(k): v for k, v in labelled.items()})


# -- construction -----------------------------------------------------------


def test_identity_term_rejected():
    with pytest.raises(ValueError):
        H(2, {"II": 0.5})


def test_tiny_coefficients_dropped():
    h = H(2, {"XX": 0.5, "ZZ": 1e-16})
    assert h.support == {P("XX")}


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        SparseHamiltonian(2, {P("X"): 1.0})


def test_immutable():
    h = H(1, {"X": 0.5})
    with pytest.raises(AttributeError):
        h.n = 3


# -- effective support ---------------------------------------------------------


def test_effective_support_definition():
    h = H(2, {"XX": 0.5, "ZI": 0.05})
    assert h.effective_support(0.1) == {P("XX")}
    assert h.effective_support(0.6) == set()
    assert h.effective_support(0.05) == {P("XX"), P("ZI")}


# -- restriction ---------------------------------------------------------------


def test_restrict_kills_anticommuting_term():
    h = H(2, {"XX": 0.5, "ZI": 0.3})
    restricted = h.restrict([P("XI")])
    assert restricted == H(2, {"XX": 0.5})
    # Oracle: dense symmetrization (H + Q H Q)/2.
    dense_h = kron_hamiltonian({"XX": 0.5, "ZI": 0.3})
    q = kron_pauli("XI")
    assert np.allclose(restricted.dense_matrix(), (dense_h + q @ dense_h @ q) / 2)


def test_restrict_empty_and_identity_are_neutral():
    h = H(2, {"XX": 0.5, "ZI": 0.3})
    assert h.restrict([]) == h
    assert h.restrict([PauliString.identity(2)]) == h


def test_restrict_matches_iterated_dense_symmetrization():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        s = int(rng.integers(1, min(6, 4**n - 1) + 1))
        h = random_instance(n, s, rng)
        r = int(rng.integers(0, 4))
        qs = [pl.random_uniform(n, rng) for _ in range(r)]
        dense = h.dense_matrix()
        for q in qs:
            dq = pl.dense(q)
            dense = (dense + dq @ dense @ dq) / 2
        assert np.allclose(h.restrict(qs).dense_matrix(), dense, atol=1e-12)
        # Order independence.
        assert h.restrict(qs[::-1]) == h.restrict(qs)


def test_restrict_idempotent_per_string():
    rng = np.random.default_rng(5)
    h = random_instance(3, 5, rng)
    q = pl.random_uniform(3, rng)
    once = h.restrict([q])
    assert once.restrict([q]) == once


def test_restrict_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        H(2, {"XX": 1.0}).restrict([P("X")])


# -- dense assembly and spectra ---------------------------------------------


def test_dense_matrix_examples():
    assert np.allclose(H(1, {"Z": 0.7}).dense_matrix(), np.diag([0.7, -0.7]))
    assert np.array_equal(SparseHamiltonian(1).dense_matrix(), np.zeros((2, 2)))


def test_dense_matrix_hermitian_traceless():
    rng = np.random.default_rng(8)
    for _ in range(20):
        h = random_instance(3, 4, rng)
        m = h.dense_matrix()
        assert np.allclose(m, m.conj().T)
        assert abs(np.trace(m)) < 1e-12
        assert np.allclose(m, kron_hamiltonian({p.label: c for p, c in h}))


def test_dense_eigenvalues_anticommuting_pair():
    # XX and ZI anticommute, so 0.5 XX + 0.3 ZI has doubly degenerate
    # eigenvalues +-sqrt(0.34) (oracle: dense eigensolver on the kron build).
    expected = np.sqrt(0.34)
    oracle_evals = np.sort(np.linalg.eigvalsh(kron_hamiltonian({"XX": 0.5, "ZI": 0.3})))
    assert np.allclose(oracle_evals, [-expected, -expected, expected, expected])
    got = H(2, {"XX": 0.5, "ZI": 0.3}).spectral_data()
    assert np.allclose(got.eigenvalues, oracle_evals)
    assert np.isclose(got.spread, 2 * expected)


def test_dense_capacity():
    with pytest.raises(CapacityError):
        SparseHamiltonian(13, {PauliString(13, 1, 0): 0.5}).dense_matrix()


def test_spectral_examples():
    data = H(1, {"Z": 1.0}).spectral_data()
    assert np.allclose(data.eigenvalues, [-1.0, 1.0])
    assert data.spread == 2.0
    assert SparseHamiltonian(2).spectral_data().spread == 0.0


def test_spread_at_least_op_norm_for_traceless():
    rng = np.random.default_rng(12)
    for _ in range(30):
        h = random_instance(3, 3, rng)
        assert h.spectral_data().spread >= h.op_norm() - 1e-12


# -- norms ----------------------------------------------------------------------


def test_norms_single_term():
    l1, l2, linf, op = H(1, {"Z": 0.7}).norms()
    assert l1 == l2 == linf == pytest.approx(0.7)
    assert op == pytest.approx(0.7)


def test_norms_op_example():
    # 0.3 X + 0.4 Z has eigenvalues +-sqrt(0.09 + 0.16) = +-0.5.
    _, _, _, op = H(2, {"XI": 0.3, "ZI": 0.4}).norms()
    assert op == pytest.approx(0.5)


def test_norm_sandwich_inequalities():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        s = int(rng.integers(1, min(8, 4**n - 1) + 1))
        h = random_instance(n, s, rng)
        l1, l2, linf, op = h.norms()
        assert s * linf + 1e-12 >= op >= linf - 1e-12
        assert l1 + 1e-12 >= op >= l2 - 1e-12


def _labels(h):
    return {p.label: c for p, c in h.terms.items()}


def _commuting_instance(n, s, rng):
    """s distinct Z-type strings (all commute) with random coefficients."""
    zs = rng.choice(np.arange(1, 2**n), size=s, replace=False)
    return SparseHamiltonian(n, {PauliString(n, 0, int(z)): float(rng.uniform(-1, 1)) for z in zs})


def test_compressed_op_norm_matches_dense_spectrum():
    # Dense reference: eigvalsh of the kron-built n-qubit matrix.
    rng = np.random.default_rng(78)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        s = int(rng.integers(1, min(10, 4**n - 1) + 1))
        h1, h2 = random_instance(n, s, rng), random_instance(n, s, rng)
        commuting = _commuting_instance(n, min(s, 2**n - 1), rng)
        for h in (h1, h1 - h2, commuting):
            small = compress(h)[0][0]
            assert small.n <= n
            assert small.sparsity == h.sparsity
            dense = np.abs(np.linalg.eigvalsh(kron_hamiltonian(_labels(h)))).max()
            assert abs(h.op_norm() - dense) < 1e-12
        # ||H1 - H2|| read off the difference of the joint images.
        (g1, g2), _ = compress(h1, h2)
        gap = np.abs(np.linalg.eigvalsh(kron_hamiltonian(_labels(h1 - h2)))).max()
        assert abs((g1 - g2).op_norm() - gap) < 1e-12


def test_op_norm_beyond_dense_cap():
    # Two anticommuting pairs on disjoint qubits of a 40-qubit register.
    h = H(40, {"X" + "I" * 39: 0.3, "Z" + "I" * 39: 0.4, "I" * 38 + "YY": 0.6, "I" * 39 + "X": 0.8})
    assert compress(h)[0][0].n == 2
    assert h.op_norm() == pytest.approx(0.5 + 1.0, abs=1e-12)
    with pytest.raises(CapacityError):
        h.dense_matrix()


# -- random instances --------------------------------------------------------


def test_random_instance_contract():
    rng = np.random.default_rng(42)
    for n, s in ((4, 3), (3, 63)):
        h = random_instance(n, s, rng)
        assert h.sparsity == s
        assert all(not p.is_identity for p in h.support)
    # At the upper edge s = 4^n - 1 every non-identity string is drawn.
    assert h.support == {PauliString.from_index(3, i) for i in range(1, 64)}


def test_random_instance_reproducible():
    a = random_instance(4, 3, np.random.default_rng(9))
    b = random_instance(4, 3, np.random.default_rng(9))
    assert a == b


def test_random_instance_coefficient_window():
    rng = np.random.default_rng(1)
    h = random_instance(3, 6, rng, coeff_range=1.0, coeff_floor=0.1)
    for _, c in h:
        assert 0.1 <= abs(c) <= 1.0
    for floor, top in ((0.1, math.inf), (math.inf, math.inf), (math.nan, 1.0), (0.1, math.nan)):
        with pytest.raises(ValueError):
            random_instance(3, 6, rng, coeff_range=top, coeff_floor=floor)


def test_random_instance_bad_sparsity():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_instance(1, 4, rng)
    with pytest.raises(ValueError):
        random_instance(2, 0, rng)


def test_random_instance_checks_qubit_count_first():
    # n = 0 would otherwise be reported as a sparsity outside [1, 0].
    for n in (0, -2):
        with pytest.raises(ValueError, match="qubit count must be positive"):
            random_instance(n, 1, np.random.default_rng(0))


# -- serialization ---------------------------------------------------------------


def test_json_roundtrip(tmp_path):
    h = H(2, {"XY": -0.25, "ZZ": 0.75})
    path = tmp_path / "h.json"
    h.save(path)
    assert SparseHamiltonian.load(path) == h


def test_json_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    schema = json.loads(
        res.files("hamlearn").joinpath("schemas/hamiltonian.schema.json").read_text()
    )
    doc = H(3, {"XYZ": 0.5}).to_json_dict()
    jsonschema.validate(doc, schema)


def test_loader_rejects_identity_and_duplicates():
    with pytest.raises(ValueError):
        SparseHamiltonian.from_json_dict(
            {"n": 2, "terms": [{"pauli": "II", "coeff": 0.5}]}
        )
    with pytest.raises(ValueError):
        SparseHamiltonian.from_json_dict(
            {
                "n": 2,
                "terms": [
                    {"pauli": "XX", "coeff": 0.5},
                    {"pauli": "XX", "coeff": 0.25},
                ],
            }
        )
    # Non-finite coefficients, which Python's json parses, name their term.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="coefficient of term XZ is not finite"):
            SparseHamiltonian.from_json_dict({"n": 2, "terms": [{"pauli": "XZ", "coeff": bad}]})


MALFORMED_DOCUMENTS = [
    {"n": 2, "terms": {"XX": 1}},
    [1, 2],
    {"n": 2, "terms": None},
    {"n": 2, "terms": [{"pauli": "XX", "coeff": [1]}]},
    {"n": 2.7, "terms": [{"pauli": "XX", "coeff": 0.5}]},
    {"n": True, "terms": []},
    {"n": 2, "terms": ["XX"]},
    {"n": 2, "terms": [{"pauli": 3, "coeff": 0.5}]},
    {"n": 2, "terms": [{"pauli": "XX", "coeff": False}]},
    {"n": 2, "terms": [{"pauli": "XX", "coeff": "0.5"}]},
]


@pytest.mark.parametrize("doc", MALFORMED_DOCUMENTS)
def test_loader_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        SparseHamiltonian.from_json_dict(doc)


def test_loader_takes_integer_coefficients_that_fit_a_float():
    with pytest.raises(ValueError, match="coefficient of term XX is not finite"):
        SparseHamiltonian.from_json_dict({"n": 2, "terms": [{"pauli": "XX", "coeff": 10**400}]})
    h = SparseHamiltonian.from_json_dict({"n": 2, "terms": [{"pauli": "XX", "coeff": 1}]})
    assert h.terms == {P("XX"): 1.0}


# -- distances between coefficient vectors ------------------------------------


def test_coefficient_distances():
    a = H(2, {"XX": 0.5, "ZI": 0.3})
    b = H(2, {"XX": 0.4, "YY": 0.1})
    assert linf_distance(a, b) == pytest.approx(0.3)
    assert l1_distance(a, b) == pytest.approx(0.1 + 0.3 + 0.1)
    assert linf_distance(a, a) == 0.0
