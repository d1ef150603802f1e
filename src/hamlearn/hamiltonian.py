"""Sparse Hamiltonian data model: coefficients, supports, norms, restriction.

A :class:`SparseHamiltonian` is an immutable map from non-identity Pauli
strings to real coefficients, representing ``H = sum_P h_P P``. Identity
terms are rejected (traceless convention: a multiple of the identity changes
neither time evolutions nor thermal states), and coefficients below
``ZERO_TOLERANCE`` are dropped on construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import pauli as pl
from .errors import DimensionMismatchError
from .pauli import PauliString

# Coefficients produced by arithmetic below this magnitude are treated as
# exact zeros (about 100x double-precision epsilon at unit scale).
ZERO_TOLERANCE = 1e-15


@dataclass(frozen=True)
class SpectralData:
    """Sorted eigenvalues and their spread max|lambda_j - lambda_k|."""

    eigenvalues: np.ndarray
    spread: float


class SparseHamiltonian:
    """Traceless Hamiltonian with sparse Pauli-basis support.

    Parameters
    ----------
    n : int
        Qubit count.
    terms : mapping PauliString -> float
        Pauli coefficients. Identity keys and non-finite coefficients are
        rejected; entries with ``|coeff| < ZERO_TOLERANCE`` are dropped.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[PauliString, float] | None = None):
        if n < 1:
            raise ValueError("qubit count must be positive")
        clean: dict[PauliString, float] = {}
        for p, c in (terms or {}).items():
            if p.n != n:
                raise DimensionMismatchError(f"term {p} acts on {p.n} qubits, expected {n}")
            if p.is_identity:
                raise ValueError("identity term not allowed (traceless convention)")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of term {p} is not finite: {c}")
            if abs(c) < ZERO_TOLERANCE:
                continue
            clean[p] = c
        object.__setattr__(self, "n", n)
        # Deterministic term order for iteration and serialization.
        object.__setattr__(
            self, "_terms", dict(sorted(clean.items(), key=lambda kv: kv[0].sort_key()))
        )

    def __setattr__(self, *_):
        raise AttributeError("SparseHamiltonian is immutable")

    # -- basic views ----------------------------------------------------

    @property
    def terms(self) -> dict[PauliString, float]:
        return dict(self._terms)

    @property
    def sparsity(self) -> int:
        return len(self._terms)

    @property
    def support(self) -> set[PauliString]:
        return set(self._terms)

    def coeff(self, p: PauliString) -> float:
        return self._terms.get(p, 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseHamiltonian)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{p.label}: {c:+.6g}" for p, c in self._terms.items())
        return f"SparseHamiltonian(n={self.n}, {{{inner}}})"

    # -- algebra ----------------------------------------------------------

    def effective_support(self, eps: float) -> set[PauliString]:
        """Terms with ``|h_P| >= eps``."""
        if eps <= 0:
            raise ValueError("threshold must be positive")
        return {p for p, c in self._terms.items() if abs(c) >= eps}

    def restrict(self, qs: Iterable[PauliString]) -> "SparseHamiltonian":
        """Keep exactly the terms commuting with every string in ``qs``.

        Equals the iterated dense symmetrization ``(H' + Q H' Q)/2`` over
        the list, in any order.
        """
        masks = []
        for q in qs:
            if q.n != self.n:
                raise DimensionMismatchError("restriction string has wrong qubit count")
            masks.append((q.x_bits, q.z_bits))
        kept = {}
        for p, c in self._terms.items():
            px, pz = p.x_bits, p.z_bits
            for qx, qz in masks:
                # Parity of the symplectic product: odd means p and q anticommute.
                if ((px & qz) ^ (pz & qx)).bit_count() & 1:
                    break
            else:
                kept[p] = c
        # A subset of clean, sorted terms is itself clean and sorted.
        h = object.__new__(SparseHamiltonian)
        object.__setattr__(h, "n", self.n)
        object.__setattr__(h, "_terms", kept)
        return h

    def add_term(self, p: PauliString, delta: float) -> "SparseHamiltonian":
        """New Hamiltonian with ``delta`` added to the coefficient of ``p``."""
        if p.n != self.n:
            raise DimensionMismatchError("term has wrong qubit count")
        terms = dict(self._terms)
        terms[p] = terms.get(p, 0.0) + delta
        return SparseHamiltonian(self.n, terms)

    def scaled(self, factor: float) -> "SparseHamiltonian":
        return SparseHamiltonian(self.n, {p: c * factor for p, c in self._terms.items()})

    def __sub__(self, other: "SparseHamiltonian") -> "SparseHamiltonian":
        if other.n != self.n:
            raise DimensionMismatchError("qubit counts differ")
        terms = dict(self._terms)
        for p, c in other._terms.items():
            terms[p] = terms.get(p, 0.0) - c
        return SparseHamiltonian(self.n, terms)

    # -- dense / spectral -------------------------------------------------

    def dense_matrix(self) -> np.ndarray:
        """Hermitian matrix ``sum_P h_P dense(P)``."""
        return pl.dense_sum(self.n, self._terms)

    def norms(self) -> tuple[float, float, float, float]:
        """Return ``(l1, l2, linf, op)`` norms of the coefficient vector.

        The operator norm obeys ``s*linf >= op >= linf`` and ``l1 >= op >= l2``.
        """
        coeffs = np.array(list(self._terms.values())) if self._terms else np.zeros(0)
        l1 = float(np.abs(coeffs).sum())
        l2 = float(np.sqrt((coeffs**2).sum()))
        linf = float(np.abs(coeffs).max()) if coeffs.size else 0.0
        return l1, l2, linf, self.op_norm()

    def op_norm(self) -> float:
        """Largest |eigenvalue|, from the spectrum of the image under :func:`compress`.

        The spectrum as a set is the same in every faithful representation,
        so only multiplicities differ from the n-qubit matrix.
        """
        if not self._terms:
            return 0.0
        (image,), _ = compress(self)
        evals = np.linalg.eigvalsh(image.dense_matrix())
        return float(np.abs(evals).max())

    def spectral_data(self) -> SpectralData:
        """Sorted eigenvalues; spread is ``lambda_max - lambda_min``."""
        evals = np.sort(np.linalg.eigvalsh(self.dense_matrix()))
        return SpectralData(evals, float(evals[-1] - evals[0]))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"pauli": p.label, "coeff": c} for p, c in self._terms.items()],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "SparseHamiltonian":
        """Parse a ``hamiltonian.schema.json`` document; ValueError if it is malformed."""
        # Exact JSON types: an integer n, a list of terms, a real coeff (bool excluded).
        if type(data) is not dict or type(data["n"]) is not int:
            raise ValueError("a Hamiltonian document is an object with an integer n")
        if type(data["terms"]) is not list:
            raise ValueError("terms must be a list")
        terms: dict[PauliString, float] = {}
        for entry in data["terms"]:
            if type(entry) is not dict or type(entry["pauli"]) is not str:
                raise ValueError(f"term {entry!r} is not an object with a string pauli")
            p = PauliString.from_label(entry["pauli"])
            if p.is_identity:
                raise ValueError("identity term in Hamiltonian file")
            if p in terms:
                raise ValueError(f"duplicate term {p.label} in Hamiltonian file")
            if type(entry["coeff"]) not in (int, float):
                raise ValueError(f"coefficient of term {p.label} is not a real number")
            try:
                terms[p] = float(entry["coeff"])
            except OverflowError:
                raise ValueError(f"coefficient of term {p.label} is not finite") from None
        return SparseHamiltonian(data["n"], terms)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "SparseHamiltonian":
        with open(path) as fh:
            return SparseHamiltonian.from_json_dict(json.load(fh))


def random_instance(
    n: int,
    s: int,
    rng: np.random.Generator,
    coeff_range: float = 1.0,
    coeff_floor: float = 0.1,
) -> SparseHamiltonian:
    """Random s-sparse Hamiltonian for benchmarks.

    Supports are ``s`` distinct non-identity Pauli strings drawn uniformly
    without replacement; coefficient magnitudes are uniform in
    ``[coeff_floor, coeff_range]`` with fair random signs, so instances stay
    inside the learning promise ``|h_P| <= coeff_range`` while keeping
    every term detectable above the floor.
    """
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    if not 1 <= s <= 4**n - 1:
        raise ValueError(f"sparsity must be in [1, 4^n - 1], got {s}")
    if not 0 < coeff_floor <= coeff_range < math.inf:
        raise ValueError("need 0 < coeff_floor <= coeff_range, both finite")
    chosen: set[PauliString] = set()
    while len(chosen) < s:
        p = pl.random_uniform(n, rng)
        if p.is_identity or p in chosen:
            continue
        chosen.add(p)
    ordered = sorted(chosen, key=lambda p: p.sort_key())
    mags = rng.uniform(coeff_floor, coeff_range, size=s)
    signs = rng.choice([-1.0, 1.0], size=s)
    return SparseHamiltonian(n, {p: float(m * sg) for p, m, sg in zip(ordered, mags, signs)})


def compress(
    *hamiltonians: SparseHamiltonian,
) -> tuple[list[SparseHamiltonian], pl.SymplecticBasis]:
    """Carry Hamiltonians on n qubits onto the a + b <= n qubits of their joint span.

    Symplectic Gram-Schmidt on all their terms (:func:`pauli.symplectic_basis`)
    gives a anticommuting pairs and b central strings; each image is the
    same sum of terms with every string replaced by its image under the
    basis' *-isomorphism, with real coefficients +-h_P. Sums, products and
    functions of the Hamiltonians carry over, so spectra agree as sets.
    :meth:`pauli.SymplecticBasis.decode` maps an image string back.
    """
    n = hamiltonians[0].n
    if any(h.n != n for h in hamiltonians):
        raise DimensionMismatchError("Hamiltonians act on different qubit counts")
    strings = dict.fromkeys(p for h in hamiltonians for p in h._terms)
    basis = pl.symplectic_basis(n, strings)
    images = []
    for h in hamiltonians:
        image = {}
        for p, c in h._terms.items():
            q, sign = basis.encode(p)
            image[q] = sign * c
        images.append(SparseHamiltonian(basis.qubits, image))
    return images, basis


def linf_distance(h1: SparseHamiltonian, h2: SparseHamiltonian) -> float:
    """Largest coefficient difference over the union of supports."""
    if h1.n != h2.n:
        raise DimensionMismatchError("qubit counts differ")
    keys = h1.support | h2.support
    if not keys:
        return 0.0
    return max(abs(h1.coeff(p) - h2.coeff(p)) for p in keys)


def l1_distance(h1: SparseHamiltonian, h2: SparseHamiltonian) -> float:
    if h1.n != h2.n:
        raise DimensionMismatchError("qubit counts differ")
    return sum(abs(h1.coeff(p) - h2.coeff(p)) for p in h1.support | h2.support)


def op_distance(h1: SparseHamiltonian, h2: SparseHamiltonian) -> float:
    return (h1 - h2).op_norm()


# Largest entry of |U^dagger U - I| accepted as unitary.
_UNITARITY_TOL = 1e-10


def _unitarity_defect(u: np.ndarray) -> float:
    gram = u.conj().T @ u
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.abs(gram).max())


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, retried once on LAPACK failure.

    ``numpy.linalg.eigh`` (zheevd) occasionally reports "Eigenvalues did not
    converge" on exactly Hermitian, highly degenerate inputs; the retry
    reads the upper triangle instead, which runs a different reduction.
    """
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError:
        return np.linalg.eigh(m, UPLO="U")
