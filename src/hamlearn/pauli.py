"""Exact algebra of n-qubit Pauli strings in the 2n-bit symplectic picture.

A Pauli string is stored as a pair of n-bit integers ``(x_bits, z_bits)``.
Qubit ``i`` carries the single-qubit operator determined by bit ``n-1-i`` of
each mask (qubit 0 is the leftmost letter of the label and the most
significant tensor factor):

    (0, 0) -> I,   (1, 0) -> X,   (0, 1) -> Z,   (1, 1) -> Y.

The represented operator is the Hermitian combination

    P = i^{|x & z|} X^{x_1}Z^{z_1} (x) ... (x) X^{x_n}Z^{z_n},

so every ``PauliString`` satisfies ``P == P.dagger`` and ``P @ P == Id``.
Commutation is decided by the GF(2) symplectic product of the bit masks;
two strings commute iff ``x_p.z_q + z_p.x_q = 0 (mod 2)``. A symplectic
basis of a span of strings (:func:`symplectic_basis`) carries the algebra
they generate onto as few qubits as it needs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, DimensionMismatchError

# Largest qubit count for which dense 2^n x 2^n materialization is allowed.
DENSE_LIMIT = 12

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}


@dataclass(frozen=True)
class PauliString:
    """Hermitian n-qubit Pauli operator in symplectic bit representation.

    Parameters
    ----------
    n : int
        Number of qubits (positive).
    x_bits, z_bits : int
        n-bit masks for the X-part and Z-part. Bit ``n-1-i`` belongs to
        qubit ``i``.
    """

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bit mask exceeds qubit count")

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PauliString":
        return PauliString(n, 0, 0)

    @staticmethod
    def from_label(label: str) -> "PauliString":
        """Parse a letter string over {I, X, Y, Z}, qubit 0 leftmost."""
        if not label:
            raise ValueError("empty Pauli label")
        x = z = 0
        for ch in label:
            try:
                xb, zb = _LETTER_TO_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r}") from None
            x = (x << 1) | xb
            z = (z << 1) | zb
        return PauliString(len(label), x, z)

    @staticmethod
    def from_index(n: int, index: int) -> "PauliString":
        """Inverse of :attr:`index`."""
        if not 0 <= index < 4**n:
            raise ValueError("Pauli index out of range")
        # Odd bits of the index hold z, even bits x ^ z (most significant first).
        bits = f"{index:0{2 * n}b}"
        z = int(bits[0::2], 2)
        return PauliString(n, int(bits[1::2], 2) ^ z, z)

    # -- views ---------------------------------------------------------

    @property
    def label(self) -> str:
        letters = []
        for i in range(self.n - 1, -1, -1):
            letters.append(_BITS_TO_LETTER[(self.x_bits >> i) & 1, (self.z_bits >> i) & 1])
        return "".join(letters)

    @property
    def index(self) -> int:
        """Position of this string in the flat 4^n coefficient order.

        Qubit 0 is the most significant base-4 digit d = 2z + (x ^ z), so
        the single-qubit order is (I, X, Y, Z).
        """
        # A mask's binary digits, read in base 4, land on the even bits.
        return 2 * int(f"{self.z_bits:b}", 4) + int(f"{self.x_bits ^ self.z_bits:b}", 4)

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def sort_key(self) -> tuple[int, int]:
        return (self.x_bits, self.z_bits)

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"


def _check_same_n(p: PauliString, q: PauliString):
    if p.n != q.n:
        raise DimensionMismatchError(f"qubit counts differ: {p.n} vs {q.n}")


def symplectic_product(p: PauliString, q: PauliString) -> int:
    """GF(2) symplectic product; 0 iff the dense matrices commute.

    Returns ``x_p.z_q + z_p.x_q mod 2``, which is 1 exactly when the two
    strings anticommute.
    """
    _check_same_n(p, q)
    return ((p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()) & 1


def multiply(p: PauliString, q: PauliString) -> tuple[PauliString, complex]:
    """Product of two Pauli strings.

    Returns ``(r, phase)`` with ``dense(p) @ dense(q) == phase * dense(r)``
    and ``phase`` in ``{1, 1j, -1, -1j}``.
    """
    _check_same_n(p, q)
    x = p.x_bits ^ q.x_bits
    z = p.z_bits ^ q.z_bits
    r = _unchecked(p.n, x, z)
    # Hermitizing phases i^{|x&z|} of each factor, the (-1)^{z_p.x_q} from
    # commuting Z^{z_p} past X^{x_q}, minus the result's own phase.
    k = (
        (p.x_bits & p.z_bits).bit_count()
        + (q.x_bits & q.z_bits).bit_count()
        - (x & z).bit_count()
        + 2 * (p.z_bits & q.x_bits).bit_count()
    ) % 4
    return r, 1j**k


def check_dense(n: int) -> None:
    """Raise :class:`CapacityError` if 2^n x 2^n matrices exceed ``DENSE_LIMIT``."""
    if n > DENSE_LIMIT:
        raise CapacityError(f"dense simulation requested at n={n} > limit {DENSE_LIMIT}")


def dense_sum(n: int, coeffs: Mapping[PauliString, complex]) -> np.ndarray:
    """Dense 2^n x 2^n complex matrix of ``sum_P c_P dense(P)``.

    Column ``c`` of ``dense(P)`` holds ``i^{|x&z|} (-1)^{|c&z|}`` in row
    ``c ^ x``; every value lies in ``{1, i, -1, -i}``, so scaling by it is exact.
    """
    check_dense(n)
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    cols = np.arange(1 << n)
    for p, c in coeffs.items():
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & p.z_bits) & 1)
        phase = 1j ** ((p.x_bits & p.z_bits).bit_count() % 4)
        m[cols ^ p.x_bits, cols] += c * (phase * signs)
    return m


def dense(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n complex matrix of the Hermitian Pauli string."""
    return dense_sum(p.n, {p: 1})


def _unchecked(n: int, x_bits: int, z_bits: int) -> PauliString:
    """A string from masks already known to fit in n bits, not validated.

    For hot internal paths only: the XOR of two valid masks, or a mask
    packed from n bits. Public construction keeps validating.
    """
    p = object.__new__(PauliString)
    fields = p.__dict__
    fields["n"] = n
    fields["x_bits"] = x_bits
    fields["z_bits"] = z_bits
    return p


# 2^63, ..., 2, 1: the place values of the bits of a 64-bit mask.
_PLACE_VALUES = 1 << np.arange(63, -1, -1, dtype=np.uint64)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """The last axis of a 0/1 array read as binary numbers, first bit highest.

    Up to 64 bits, a dot against powers of two in the narrowest unsigned
    dtype that holds the result, so packing copies little; beyond, an
    object array of Python ints from ``np.packbits``. ``tolist()`` gives
    Python ints either way.
    """
    n = bits.shape[-1]
    if n <= 64:
        dtype = np.min_scalar_type((1 << n) - 1)
        return bits.astype(dtype, copy=False) @ _PLACE_VALUES[64 - n :].astype(dtype)
    packed = np.packbits(bits, axis=-1)
    pad = 8 * packed.shape[-1] - n
    ints = np.empty(packed.shape[:-1], dtype=object)
    rows = packed.reshape(-1, packed.shape[-1])
    ints.flat = [int.from_bytes(row.tobytes(), "big") >> pad for row in rows]
    return ints


def bit_rows(strings: Iterable[PauliString], n: int) -> np.ndarray:
    """The (count, 2, n) 0/1 ``uint8`` bits of n-qubit strings.

    Row k holds string k's X bits, then its Z bits, qubit 0 first: the
    layout :func:`random_uniforms` draws and :func:`_pack_bits` reads back.
    """
    digits = []
    for p in strings:
        if p.n != n:
            raise DimensionMismatchError(f"{p} acts on {p.n} qubits, expected {n}")
        digits.append(f"{p.x_bits:0{n}b}{p.z_bits:0{n}b}")
    text = "".join(digits).encode()
    return (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(-1, 2, n)


def anticommuting(string_bits: np.ndarray, term_bits: np.ndarray) -> np.ndarray:
    """Which strings anticommute with which terms, from their bit rows.

    ``string_bits`` is any (..., 2, n) and ``term_bits`` a (k, 2, n) 0/1
    ``uint8`` array in the :func:`bit_rows` layout; entry ``[..., j]`` of the
    boolean result is True iff the string anticommutes with term j. One BLAS
    product counts x_Q.z_P + z_Q.x_P per pair (a term's rows swapped to Z,
    then X); the counts, at most 2n, are exact in ``float32`` while 2n < 2^24.
    """
    n = term_bits.shape[-1]
    swapped = term_bits[:, ::-1].reshape(-1, 2 * n).astype(np.float32)
    odd = (string_bits.reshape(-1, 2 * n).astype(np.float32) @ swapped.T).astype(np.int32)
    odd &= 1
    return odd.reshape(string_bits.shape[:-2] + (len(term_bits),)).astype(bool)


def random_uniforms(n: int, count: int, rng: np.random.Generator) -> list[PauliString]:
    """``count`` independent uniform samples over all 4^n strings, from one draw.

    Row k of one ``(count, 2n)`` bit array gives string k (x bits, then z
    bits), so the result equals ``count`` consecutive :func:`random_uniform`
    calls on the same generator.
    """
    if n < 1:
        raise ValueError("qubit count must be positive")
    bits = rng.integers(0, 2, size=(count, 2, n))
    return [_unchecked(n, x, z) for x, z in _pack_bits(bits).tolist()]


def random_uniform(n: int, rng: np.random.Generator) -> PauliString:
    """Uniform sample over all 4^n Pauli strings (identity included)."""
    return random_uniforms(n, 1, rng)[0]


def random_commuting(p: PauliString, rng: np.random.Generator) -> PauliString:
    """Uniform sample over the 4^n/2 strings commuting with ``p``.

    The commutant of a non-identity ``p`` is the kernel of the linear form
    ``y -> [p, y]``, a (2n-1)-dimensional GF(2) subspace. A uniform draw
    over all of GF(2)^{2n} is projected onto it along a fixed pivot
    coordinate where the form is non-zero, which maps the two cosets onto
    the kernel bijectively. For the identity every string qualifies and the
    draw falls back to :func:`random_uniform`.
    """
    q = random_uniform(p.n, rng)
    if p.is_identity:
        return q
    if symplectic_product(p, q) == 0:
        return q
    # Dual vector of the form [p, .] is (z_p | x_p); flip q at its lowest
    # set bit to move to the commuting coset.
    if p.z_bits:
        pivot = p.z_bits & -p.z_bits
        return PauliString(p.n, q.x_bits ^ pivot, q.z_bits)
    pivot = p.x_bits & -p.x_bits
    return PauliString(p.n, q.x_bits, q.z_bits ^ pivot)


# ---------------------------------------------------------------------------
# symplectic basis of a span
# ---------------------------------------------------------------------------


def _key(p: PauliString) -> int:
    """The 2n-bit vector ``x || z`` of a string."""
    return (p.x_bits << p.n) | p.z_bits


def _xor(p: PauliString, q: PauliString) -> PauliString:
    """The string whose bit vector is the sum of those of ``p`` and ``q``."""
    return _unchecked(p.n, p.x_bits ^ q.x_bits, p.z_bits ^ q.z_bits)


def _reduced_echelon(vectors: Iterable[int]) -> list[int]:
    """Basis of the GF(2) span of ``vectors`` in reduced echelon form.

    Leading bits are distinct and each appears in its own vector only, so
    the coordinate of a basis vector in any vector of the span is the
    span vector's bit at that leading position.
    """
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted([min(b, b ^ v) for b in basis] + [v], reverse=True)
    return basis


@dataclass(frozen=True)
class SymplecticBasis:
    """Basis of the GF(2) span of some n-qubit strings, in symplectic form.

    ``pairs`` holds a anticommuting pairs (e_i, f_i) and ``central`` b
    strings commuting with the whole span; strings of different pairs
    commute. The map e_i -> X_i, f_i -> Z_i, c_j -> Z_{a+j} onto
    :attr:`qubits` = a + b qubits extends to a *-isomorphism between the
    operator algebras the two sets of strings span. It sends each string
    of the span to ``sign * image`` with ``sign`` = +-1, so spectra (as
    sets) and functions such as e^{-itH} carry over; :meth:`encode` and
    :meth:`decode` map one string each way. ``central`` is in reduced
    echelon form on the vectors ``x || z``.
    """

    n: int
    pairs: tuple[tuple[PauliString, PauliString], ...]
    central: tuple[PauliString, ...]

    @staticmethod
    def identity(n: int) -> "SymplecticBasis":
        """The pairs (X_k, Z_k) of qubits k = 0..n-1, a basis whose map is the identity."""
        xz = [(PauliString(n, 1 << k, 0), PauliString(n, 0, 1 << k)) for k in reversed(range(n))]
        return SymplecticBasis(n, tuple(xz), ())

    @property
    def qubits(self) -> int:
        return max(1, len(self.pairs) + len(self.central))

    @functools.cached_property
    def _generators(self) -> list[tuple[PauliString, PauliString]]:
        """(string, image) of e_1, f_1, ..., e_a, f_a, c_1, ..., c_b in order."""
        xz = SymplecticBasis.identity(self.qubits).pairs  # (X_k, Z_k) on each image qubit k
        gens = [g for (e, f), (x, z) in zip(self.pairs, xz) for g in ((e, x), (f, z))]
        return gens + [(c, z) for c, (_, z) in zip(self.central, xz[len(self.pairs) :])]

    def _product(self, used: list[int]) -> tuple[PauliString, PauliString, int]:
        """``(string, image, sign)`` of the product of the generators ``used`` selects."""
        p, q, sign = PauliString.identity(self.n), PauliString.identity(self.qubits), 1
        for (g, img), bit in zip(self._generators, used):
            if bit:
                (p, phase_p), (q, phase_q) = multiply(p, g), multiply(q, img)
                sign *= round((phase_q * phase_p.conjugate()).real)
        return p, q, sign

    def encode(self, p: PauliString) -> tuple[PauliString, int]:
        """``(image, sign)`` of a string of the span."""
        used = []
        residual = _key(p)
        for e, f in self.pairs:
            # Coordinates in a symplectic basis are products with the partner.
            ce, cf = symplectic_product(p, f), symplectic_product(p, e)
            used += [ce, cf]
            residual ^= ce * _key(e) ^ cf * _key(f)
        # What is left lies in the central span; read it off the leading bits.
        used += [residual >> (_key(c).bit_length() - 1) & 1 for c in self.central]
        string, image, sign = self._product(used)
        if string != p:
            raise ValueError(f"{p} is not in the span of the basis")
        return image, sign

    def decode(self, index: int) -> tuple[PauliString, int]:
        """``(string, sign)`` whose image has flat index ``index``; inverse of :meth:`encode`.

        Raises ValueError for an index outside the image algebra (:meth:`in_algebra`).
        """
        q = PauliString.from_index(self.qubits, index)
        # Each generator's image is one letter X_i, Z_i or Z_{a+j}; q selects those it holds.
        used = [img.x_bits & q.x_bits or img.z_bits & q.z_bits for _, img in self._generators]
        string, image, sign = self._product(used)
        if image != q:
            raise ValueError(f"image index {index} is outside the image algebra")
        return string, sign

    def conjugator(self, q: PauliString) -> tuple[int, int]:
        """Masks ``(x, z)`` of an image string D = X^x Z^z with D img(p) D^dag = img(q p q).

        D holds the letter anticommuting with the image of each generator ``q`` anticommutes with.
        """
        flips = [img for g, img in self._generators if symplectic_product(q, g)]
        return sum(img.z_bits for img in flips), sum(img.x_bits for img in flips)

    def in_algebra(self) -> np.ndarray:
        """Mask of the flat image indices whose strings lie in the image algebra.

        A pair qubit holds any letter, a central one I or Z, the padding qubit only I.
        """
        letters = [[1, 1, 1, 1]] * len(self.pairs) + [[1, 0, 0, 1]] * len(self.central)
        mask = functools.reduce(lambda u, v: np.outer(u, v).ravel(), letters or [[1, 0, 0, 0]], 1)
        return mask == 1


def symplectic_basis(n: int, strings: Iterable[PauliString]) -> SymplecticBasis:
    """Symplectic Gram-Schmidt on the span of ``strings``.

    Each step takes a string, pairs it with the first remaining string it
    anticommutes with, and projects every other remaining string onto the
    part commuting with both; a string that anticommutes with none of the
    remaining ones commutes with the whole span. See Gottesman,
    arXiv:quant-ph/9705052, and Aaronson and Gottesman,
    arXiv:quant-ph/0406196.
    """
    pool = list(strings)
    pairs, commuting = [], []
    while pool:
        e = pool.pop(0)
        j = next((j for j, w in enumerate(pool) if symplectic_product(e, w)), None)
        if j is None:
            commuting.append(_key(e))
            continue
        f = pool.pop(j)
        projected = []
        for w in pool:
            # w + [w, f] e + [w, e] f commutes with e and with f.
            sf, se = symplectic_product(w, f), symplectic_product(w, e)
            if sf:
                w = _xor(w, e)
            if se:
                w = _xor(w, f)
            projected.append(w)
        pool = projected
        pairs.append((e, f))
    mask = (1 << n) - 1
    central = tuple(PauliString(n, v >> n, v & mask) for v in _reduced_echelon(commuting))
    return SymplecticBasis(n, tuple(pairs), central)
