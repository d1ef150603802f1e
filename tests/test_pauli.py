"""Pauli algebra: symplectic products, phases, dense agreement, sampling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import kron_hamiltonian, kron_pauli
from hamlearn import pauli as pl
from hamlearn.errors import CapacityError, DimensionMismatchError
from hamlearn.hamiltonian import random_instance
from hamlearn.pauli import PauliString


P = PauliString.from_label


# -- representation ----------------------------------------------------------


@given(st.text(alphabet="IXYZ", min_size=1, max_size=12))
def test_label_roundtrip(label):
    assert P(label).label == label


def test_identity_has_zero_bits():
    ident = PauliString.identity(3)
    assert ident.x_bits == 0 and ident.z_bits == 0
    assert ident.is_identity and ident.label == "III"


def test_index_roundtrip():
    for idx in range(4**3):
        assert PauliString.from_index(3, idx).index == idx
    # The roundtrip alone does not pin the order; compare with labels built
    # from base-4 digits, qubit 0 most significant, digits (I, X, Y, Z).
    for n in (1, 2, 3):
        for idx in range(4**n):
            label = "".join("IXYZ"[(idx >> (2 * (n - 1 - k))) & 3] for k in range(n))
            assert PauliString.from_index(n, idx).label == label
            assert P(label).index == idx


def test_invalid_labels_rejected():
    with pytest.raises(ValueError):
        P("XA")
    with pytest.raises(ValueError):
        P("")


def test_bitmask_must_fit():
    with pytest.raises(ValueError):
        PauliString(1, 2, 0)


# -- symplectic product -------------------------------------------------------


def test_symplectic_x_z_anticommute():
    assert pl.symplectic_product(P("X"), P("Z")) == 1


def test_symplectic_self_is_zero():
    for label in ("X", "Y", "Z", "XYZI", "ZZ"):
        p = P(label)
        assert pl.symplectic_product(p, p) == 0


def test_symplectic_xx_zz_commute_dense():
    # Oracle: direct dense commutator on the kron build.
    a, b = kron_pauli("XX"), kron_pauli("ZZ")
    assert np.allclose(a @ b, b @ a)
    assert pl.symplectic_product(P("XX"), P("ZZ")) == 0


def test_symplectic_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pl.symplectic_product(P("X"), P("XX"))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_matches_dense_commutation_exhaustive(n):
    mats = {idx: kron_pauli(PauliString.from_index(n, idx).label) for idx in range(4**n)}
    for i in range(4**n):
        for j in range(4**n):
            p, q = PauliString.from_index(n, i), PauliString.from_index(n, j)
            commute_dense = np.allclose(mats[i] @ mats[j], mats[j] @ mats[i])
            assert (pl.symplectic_product(p, q) == 0) == commute_dense


# -- multiplication -----------------------------------------------------------


def test_multiply_x_z_gives_minus_i_y():
    r, phase = pl.multiply(P("X"), P("Z"))
    assert r == P("Y") and phase == -1j


def test_multiply_identity_neutral():
    for label in ("X", "ZZ", "XYZ"):
        p = P(label)
        r, phase = pl.multiply(p, PauliString.identity(p.n))
        assert r == p and phase == 1


def test_multiply_involution():
    r, phase = pl.multiply(P("Y"), P("Y"))
    assert r.is_identity and phase == 1


@pytest.mark.parametrize("n", [1, 2])
def test_multiply_matches_dense_exhaustive(n):
    for i in range(4**n):
        for j in range(4**n):
            p, q = PauliString.from_index(n, i), PauliString.from_index(n, j)
            r, phase = pl.multiply(p, q)
            lhs = kron_pauli(p.label) @ kron_pauli(q.label)
            assert np.allclose(lhs, phase * kron_pauli(r.label), atol=1e-14)


def test_multiply_associative_via_dense():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, q, r = (pl.random_uniform(2, rng) for _ in range(3))
        ab, ph1 = pl.multiply(p, q)
        abc1, ph2 = pl.multiply(ab, r)
        bc, ph3 = pl.multiply(q, r)
        abc2, ph4 = pl.multiply(p, bc)
        assert abc1 == abc2
        assert np.isclose(ph1 * ph2, ph3 * ph4)


# -- dense -----------------------------------------------------------------


def test_dense_single_qubit_matrices():
    assert np.array_equal(pl.dense(P("Z")), np.diag([1.0 + 0j, -1.0]))
    assert np.array_equal(pl.dense(P("I")), np.eye(2, dtype=complex))
    assert np.allclose(pl.dense(P("Y")), np.array([[0, -1j], [1j, 0]]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dense_properties(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        p = pl.random_uniform(n, rng)
        m = pl.dense(p)
        assert np.allclose(m, m.conj().T)  # Hermitian
        assert np.allclose(m @ m, np.eye(2**n))  # involution / unitary
        if not p.is_identity:
            assert abs(np.trace(m)) < 1e-12
        assert np.array_equal(m, kron_pauli(p.label))
    # The one dense builder behind dense and dense_matrix: a complex sum with
    # the identity, and a Hamiltonian summed in the kron build's term order.
    coeffs = {PauliString.identity(n): complex(*rng.normal(size=2))}
    coeffs.update({pl.random_uniform(n, rng): complex(*rng.normal(size=2)) for _ in range(6)})
    expected = sum(c * kron_pauli(q.label) for q, c in coeffs.items())
    assert np.array_equal(pl.dense_sum(n, coeffs), expected)
    h = random_instance(n, min(5, 4**n - 1), rng)
    assert np.array_equal(h.dense_matrix(), kron_hamiltonian({q.label: c for q, c in h}))


def test_dense_capacity_error():
    with pytest.raises(CapacityError):
        pl.dense(PauliString.identity(13))


# -- random sampling ----------------------------------------------------------


def test_random_uniform_reproducible():
    a = pl.random_uniform(5, np.random.default_rng(42))
    b = pl.random_uniform(5, np.random.default_rng(42))
    assert a == b


def test_random_uniform_single_qubit_frequencies():
    rng = np.random.default_rng(123)
    draws = [pl.random_uniform(1, rng).label for _ in range(100_000)]
    freq_x = draws.count("X") / len(draws)
    assert abs(freq_x - 0.25) < 0.01


def test_random_uniform_anticommutes_half_the_time():
    rng = np.random.default_rng(5)
    fixed = P("XZY")
    hits = sum(
        pl.symplectic_product(fixed, pl.random_uniform(3, rng)) for _ in range(100_000)
    )
    assert abs(hits / 100_000 - 0.5) < 0.01


def test_random_commuting_postcondition():
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        p = pl.random_uniform(n, rng)
        while p.is_identity:
            p = pl.random_uniform(n, rng)
        for _ in range(200):
            q = pl.random_commuting(p, rng)
            assert pl.symplectic_product(p, q) == 0


def test_random_commuting_single_qubit_commutant_of_z():
    rng = np.random.default_rng(17)
    counts = {"I": 0, "Z": 0}
    for _ in range(100_000):
        q = pl.random_commuting(P("Z"), rng)
        counts[q.label] += 1
    assert set(counts) == {"I", "Z"}
    assert abs(counts["I"] / 100_000 - 0.5) < 0.01


def test_random_commuting_commutant_size_two_qubits():
    # |commutant of ZZ| = 4^2/2 = 8 distinct strings.
    rng = np.random.default_rng(23)
    seen = {pl.random_commuting(P("ZZ"), rng) for _ in range(100_000)}
    assert len(seen) == 8


def test_random_commuting_identity_falls_back_to_uniform():
    rng = np.random.default_rng(3)
    seen = {pl.random_commuting(PauliString.identity(1), rng).label for _ in range(2000)}
    assert seen == {"I", "X", "Y", "Z"}


def _one_string(n, rng):
    """Independent reference draw: 2n bits, x bits first, qubit 0 most significant."""
    bits = [int(b) for b in rng.integers(0, 2, size=2 * n)]
    x = int("".join(map(str, bits[:n])), 2)
    z = int("".join(map(str, bits[n:])), 2)
    return PauliString(n, x, z)


@pytest.mark.parametrize("n", [1, 3, 8, 12, 40])
def test_random_uniforms_match_consecutive_draws(n):
    # Support rounds batch their r strings, then draw a time; the seeded
    # stream must equal r single-string draws followed by the same time.
    for r in (1, 4, 5, 7):
        batched, single = np.random.default_rng(n * 10 + r), np.random.default_rng(n * 10 + r)
        for _ in range(2000):
            assert pl.random_uniforms(n, r, batched) == [_one_string(n, single) for _ in range(r)]
            assert batched.uniform(0.5, 20.0) == single.uniform(0.5, 20.0)
    a, b = np.random.default_rng(n), np.random.default_rng(n)
    assert [pl.random_uniform(n, a) for _ in range(5)] == pl.random_uniforms(n, 5, b)


@pytest.mark.parametrize("n", [1, 5, 64, 70])
def test_bit_rows_and_anticommuting_match_scalar_algebra(n):
    rng = np.random.default_rng(n)
    strings, terms = _random_strings(rng, n, 12), _random_strings(rng, n, 5)
    bits = pl.bit_rows(strings, n)
    assert bits.dtype == np.uint8 and bits.shape == (12, 2, n)
    assert [tuple(row) for row in pl._pack_bits(bits).tolist()] == [
        (p.x_bits, p.z_bits) for p in strings
    ]
    anti = pl.anticommuting(bits.reshape(3, 4, 2, n), pl.bit_rows(terms, n))
    assert anti.shape == (3, 4, 5)
    want = [[pl.symplectic_product(q, p) for p in terms] for q in strings]
    assert anti.reshape(12, 5).tolist() == np.array(want, dtype=bool).tolist()
    assert pl.bit_rows([], n).shape == (0, 2, n)
    assert pl.anticommuting(bits, pl.bit_rows([], n)).shape == (12, 0)
    with pytest.raises(DimensionMismatchError):
        pl.bit_rows([PauliString.identity(n + 1)], n)


# -- symplectic basis -----------------------------------------------------------


def _gf2_rank(strings):
    return len(pl._reduced_echelon(pl._key(p) for p in strings))


def _random_strings(rng, n, count):
    return [pl.random_uniform(n, rng) for _ in range(count)]


def test_symplectic_basis_normal_form():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        strings = _random_strings(rng, n, int(rng.integers(0, 11)))
        basis = pl.symplectic_basis(n, strings)
        a, b = len(basis.pairs), len(basis.central)
        assert 2 * a + b == _gf2_rank(strings)
        assert basis.qubits == max(1, a + b) <= n
        gens = [g for g, _ in basis._generators]
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                partners = i // 2 == j // 2 and i != j and max(i, j) < 2 * a
                assert pl.symplectic_product(g, h) == partners
        # Every input is in the span and keeps its commutation relations.
        images = [basis.encode(p) for p in strings]
        for p, (q, sign) in zip(strings, images):
            assert sign in (1, -1)
            for p2, (q2, _) in zip(strings, images):
                assert pl.symplectic_product(p, p2) == pl.symplectic_product(q, q2)


def _decoded(basis):
    """``(string, image, sign)`` for every index of the image algebra, by decode."""
    out = []
    for index in np.flatnonzero(basis.in_algebra()).tolist():
        p, sign = basis.decode(index)
        out.append((p, PauliString.from_index(basis.qubits, index), sign))
    return out


def test_symplectic_basis_elements_form_the_span():
    rng = np.random.default_rng(32)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        strings = _random_strings(rng, n, int(rng.integers(1, 7)))
        basis = pl.symplectic_basis(n, strings)
        elements = _decoded(basis)
        assert len(elements) == 2 ** _gf2_rank(strings)
        assert len({p for p, _, _ in elements}) == len({q for _, q, _ in elements}) == len(elements)
        for p, q, sign in elements:
            assert basis.encode(p) == (q, sign)
        assert set(strings) <= {p for p, _, _ in elements}
        # Every other index lies outside the algebra, and decode refuses it.
        for index in np.flatnonzero(~basis.in_algebra()).tolist():
            with pytest.raises(ValueError, match="image algebra"):
                basis.decode(index)


def test_symplectic_basis_map_is_multiplicative():
    # P -> sign * image preserves products, phases included.
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        basis = pl.symplectic_basis(n, _random_strings(rng, n, int(rng.integers(1, 7))))
        table = {p: (q, sign) for p, q, sign in _decoded(basis)}
        for p1, (q1, s1) in table.items():
            for p2, (q2, s2) in table.items():
                p3, phase_p = pl.multiply(p1, p2)
                q3, phase_q = pl.multiply(q1, q2)
                assert table[p3][0] == q3
                assert s1 * s2 * phase_q == phase_p * table[p3][1]


def test_encode_rejects_strings_outside_the_span():
    basis = pl.symplectic_basis(2, [P("XI"), P("ZI")])
    assert basis.qubits == 1
    with pytest.raises(ValueError, match="span"):
        basis.encode(P("IX"))


def test_empty_span_image_holds_only_the_identity():
    # No strings: the image is one padding qubit, and only its I is in the algebra.
    basis = pl.symplectic_basis(2, [])
    assert basis.qubits == 1
    assert basis.in_algebra().tolist() == [True, False, False, False]
    assert basis.decode(0) == (PauliString.identity(2), 1)
    for index in (1, 2, 3):
        with pytest.raises(ValueError, match="image algebra"):
            basis.decode(index)


def test_identity_basis_maps_every_string_to_itself():
    for n in (1, 2, 3):
        basis = pl.SymplecticBasis.identity(n)
        assert basis.in_algebra().all()
        for index in range(4**n):
            p = PauliString.from_index(n, index)
            assert basis.encode(p) == (p, 1)
            assert basis.decode(index) == (p, 1)


def test_conjugator_anticommutes_with_the_images_q_anticommutes_with():
    # X^x Z^z acts on the image as conjugation by q acts on the span: it
    # anticommutes with the image of each span string exactly when q does.
    rng = np.random.default_rng(34)
    bases = [pl.symplectic_basis(2, []), *(pl.SymplecticBasis.identity(n) for n in (1, 2, 3))]
    for _ in range(60):
        n = int(rng.integers(1, 5))
        bases.append(pl.symplectic_basis(n, _random_strings(rng, n, int(rng.integers(1, 6)))))
    kinds = {"identity": 0, "in span": 0, "outside": 0}
    for basis in bases:
        n = basis.n
        span = _decoded(basis)
        members = {p for p, _, _ in span}
        picks = [span[int(k)][0] for k in rng.integers(0, len(span), size=3)]
        for q in [PauliString.identity(n), *picks, *_random_strings(rng, n, 4)]:
            kinds["identity" if q.is_identity else "in span" if q in members else "outside"] += 1
            x, z = basis.conjugator(q)
            d = PauliString(basis.qubits, x, z)
            for p, image, _ in span:
                assert pl.symplectic_product(d, image) == pl.symplectic_product(q, p)
    assert min(kinds.values()) > 0


def test_conjugator_of_the_identity_basis_is_the_string_itself():
    for n in (1, 2, 3):
        basis = pl.SymplecticBasis.identity(n)
        for index in range(4**n):
            q = PauliString.from_index(n, index)
            assert basis.conjugator(q) == (q.x_bits, q.z_bits)
    # An empty span has nothing for q to negate.
    assert pl.symplectic_basis(2, []).conjugator(P("XY")) == (0, 0)
