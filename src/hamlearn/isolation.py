"""Isolation by random conjugation strings, and its survival statistics.

Restricting a sparse Hamiltonian by r random Pauli strings keeps each term
only if it commutes with all of them. Because distinct non-identity terms
anticommute with a uniform string independently with probability 1/2, the
survivor count behaves exactly like the solution-set size in the
Valiant-Vazirani isolation argument: with r about log2(s)+2 the chance
that one designated term survives alone is of order 1/s. This module draws
such isolations and measures the statistics empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pauli as pl
from .hamiltonian import SparseHamiltonian
from .pauli import PauliString


@dataclass(frozen=True)
class IsolationDraw:
    """One draw of conjugation strings and the terms that survive them."""

    qs: list[PauliString]
    r: int
    survivors: frozenset[PauliString]


@dataclass(frozen=True)
class VVStats:
    """Empirical survivor-count statistics over synthetic random subsets."""

    mean: float
    variance: float
    p_empty: float
    trials: int
    counts: np.ndarray


def isolation_rounds(s_bound: int) -> int:
    """r = ceil(log2(s)) + 2 conjugation strings for sparsity bound s."""
    if s_bound < 1:
        raise ValueError("sparsity bound must be >= 1")
    return math.ceil(math.log2(s_bound)) + 2


def targeted_isolation_rounds(s_bound: int, delta: float) -> int:
    """r = ceil(log2(2 s / delta) + 2) strings for a 1-delta guarantee."""
    if s_bound < 1:
        raise ValueError("sparsity bound must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return math.ceil(math.log2(2.0 * s_bound / delta) + 2.0)


def draw_isolation_for_target(
    h: SparseHamiltonian,
    p0: PauliString,
    s_bound: int,
    delta: float,
    rng: np.random.Generator,
) -> IsolationDraw:
    """Isolation aimed at ``p0``: every string commutes with it.

    ``p0`` survives by construction whenever it lies in the support; with
    probability >= 1-delta it is the only survivor.
    """
    if p0.is_identity:
        raise ValueError("cannot target the identity string")
    r = targeted_isolation_rounds(s_bound, delta)
    qs = [pl.random_commuting(p0, rng) for _ in range(r)]
    survivors = frozenset(h.restrict(qs).support)
    return IsolationDraw(qs=qs, r=r, survivors=survivors)


# ---------------------------------------------------------------------------
# vectorized Monte-Carlo measurements
# ---------------------------------------------------------------------------


def isolation_probability_empirical(
    h: SparseHamiltonian,
    p0: PauliString,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of plain isolation draws whose only survivor is ``p0``.

    A plain draw is r = ceil(log2 s)+2 uniform strings (:func:`isolation_rounds`
    with s the true sparsity). Every trial's strings are drawn as one
    (trials, r, 2, n) bit array and all survivors found with
    :func:`pauli.anticommuting`.
    """
    if p0 not in h.support:
        raise ValueError("target is not in the support")
    if trials < 1:
        raise ValueError("need at least one trial")
    supp = sorted(h.support, key=lambda p: p.sort_key())
    r = isolation_rounds(len(supp))
    qs = rng.integers(0, 2, size=(trials, r, 2, h.n), dtype=np.uint8)
    survives = ~pl.anticommuting(qs, pl.bit_rows(supp, h.n)).any(axis=1)  # (trials, s)
    isolated = survives[:, supp.index(p0)] & (survives.sum(axis=1) == 1)
    return float(isolated.mean())


def vv_statistics(
    set_size: int,
    r: int,
    trials: int,
    rng: np.random.Generator,
    m: int = 16,
) -> VVStats:
    """Survivor-count statistics of random GF(2) filtering.

    Per trial a set X of ``set_size`` distinct nonzero m-bit strings and r
    uniform strings y_1..y_r are drawn; the survivor count is the number
    of x in X with all dot products x.y_j = 0. The expected count is
    ``2^-r |X|`` with variance ``2^-r (1 - 2^-r) |X|``.
    """
    if not 1 <= m <= 63:
        raise ValueError(f"string length m={m} outside [1, 63] (uint64 draws)")
    if set_size < 1:
        raise ValueError("set size must be >= 1")
    if set_size > 2**m - 1:
        raise ValueError(f"set size {set_size} exceeds 2^{m} - 1 nonzero strings")
    if r < 0:
        raise ValueError("r must be >= 0")
    if trials < 1:
        raise ValueError("need at least one trial")

    high = np.uint64(1) << np.uint64(m)
    xs = rng.integers(1, high, size=(trials, set_size), dtype=np.uint64)
    # A row without a repeat is uniform over distinct tuples; redraw each
    # row with a repeat once, without replacement, so every row is.
    srt = np.sort(xs, axis=1)
    for i in np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1)):
        xs[i] = rng.choice(2**m - 1, set_size, replace=False) + 1

    if r == 0:
        counts = np.full(trials, set_size)
    else:
        ys = rng.integers(0, high, size=(trials, r), dtype=np.uint64)
        dots = np.bitwise_count(xs[:, :, None] & ys[:, None, :]) & 1
        in_s = ~(dots.astype(bool).any(axis=2))
        counts = in_s.sum(axis=1)

    mean = float(counts.mean())
    variance = float(counts.var(ddof=1)) if trials > 1 else 0.0
    p_empty = float((counts == 0).mean())
    return VVStats(mean=mean, variance=variance, p_empty=p_empty, trials=trials, counts=counts)


def predicted_vv_mean(set_size: int, r: int) -> float:
    return 2.0 ** (-r) * set_size


def predicted_vv_variance(set_size: int, r: int) -> float:
    q = 2.0 ** (-r)
    return q * (1.0 - q) * set_size
