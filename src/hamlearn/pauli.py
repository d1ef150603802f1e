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
two strings commute iff ``x_p.z_q + z_p.x_q = 0 (mod 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return (self.x_bits | self.z_bits).bit_count()

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


def commutes(p: PauliString, q: PauliString) -> bool:
    return symplectic_product(p, q) == 0


def multiply(p: PauliString, q: PauliString) -> tuple[PauliString, complex]:
    """Product of two Pauli strings.

    Returns ``(r, phase)`` with ``dense(p) @ dense(q) == phase * dense(r)``
    and ``phase`` in ``{1, 1j, -1, -1j}``.
    """
    _check_same_n(p, q)
    x = p.x_bits ^ q.x_bits
    z = p.z_bits ^ q.z_bits
    r = PauliString(p.n, x, z)
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


def nonzeros(p: PauliString) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2^n nonzero entries of ``dense(p)`` as ``(rows, cols, values)``.

    Column ``c`` holds ``i^{|x&z|} (-1)^{|c&z|}`` in row ``c ^ x``; every
    value lies in ``{1, i, -1, -i}``, so scaling by it is exact.
    """
    cols = np.arange(1 << p.n)
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & p.z_bits) & 1)
    phase = 1j ** ((p.x_bits & p.z_bits).bit_count() % 4)
    return cols ^ p.x_bits, cols, phase * signs


def dense(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n complex matrix of the Hermitian Pauli string."""
    check_dense(p.n)
    rows, cols, values = nonzeros(p)
    m = np.zeros((cols.size, cols.size), dtype=complex)
    m[rows, cols] = values
    return m


def random_uniform(n: int, rng: np.random.Generator) -> PauliString:
    """Uniform sample over all 4^n Pauli strings (identity included)."""
    if n < 1:
        raise ValueError("qubit count must be positive")
    bits = rng.integers(0, 2, size=2 * n)
    x = z = 0
    for xb, zb in zip(bits[:n], bits[n:]):
        x = (x << 1) | int(xb)
        z = (z << 1) | int(zb)
    return PauliString(n, x, z)


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
