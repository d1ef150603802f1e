"""Physically motivated distances between Hamiltonians and their bounds.

Two distances are computed. The time-constrained distance is half the
largest diamond-norm difference between the two evolution channels over
times up to a budget T; for unitary channels it evaluates in closed form
from the eigenphases of V^dagger W, because the numerical range of a
normal operator is the convex hull of its eigenvalues: with all phases
inside an arc of length ``spread <= pi`` the hull point closest to the
origin lies on the extreme chord, at distance cos(spread/2), giving
``sqrt(1 - cos^2) = sin(spread/2)``; an arc beyond pi puts the origin
inside the hull and the distance saturates at 1. The
temperature-constrained distance is half the largest trace-norm difference
between the two Gibbs states over inverse temperatures up to B.

Both distances, and :func:`gibbs_trace_bound_check`, run on the joint
image of the two Hamiltonians (:func:`hamiltonian.compress`): symplectic
Gram-Schmidt on all terms of both gives a anticommuting pairs and b central
strings, and e_i -> X_i, f_i -> Z_i, c_j -> Z_{a+j} carries the algebra the
span generates onto m = a + b qubits. The result is exact at every n. The
central strings' joint eigenspaces all have dimension 2^{n-b}, and on each
of them the pairs act as a faithful copy of the a-qubit Pauli algebra, so
in a suitable basis every element of the algebra is its m-qubit image
tensored with the identity on 2^{n-m} dimensions. Hence the eigenphases of
e^{itH1} e^{-itH2}, a product inside the algebra, are as a set those of
the images, each with its multiplicity times 2^{n-m}, and the arc spread
d_T reads off is unchanged. A Gibbs state is
rho = e^{-beta H}/Tr e^{-beta H} = rho_m (x) I/2^{n-m}, so
||rho1 - rho2||_1 = ||rho1_m - rho2_m||_1 ||I/2^{n-m}||_1 is the image's
value too. Work and memory depend on m only; ``pauli.DENSE_LIMIT`` caps m,
not n. Spectral spreads and norms, and hence the Lipschitz slopes below,
do not depend on multiplicity, so they are read off the images too.

Suprema are found by Piyavskii-Shubert branch-and-bound on [0, budget]
(Piyavskii 1972; Shubert, SIAM J. Numer. Anal. 9(3), 1972): only
intervals whose Lipschitz upper envelope can still beat the best value
are bisected, and ``grid_error`` is the certified gap between the largest
envelope and the reported value. The slopes are:

- d_T: ``K = ||H1 - H2||_op``. X(t) = e^{itH1} e^{-itH2} obeys
  X' = iG(t)X with G = e^{itH1}(H1 - H2)e^{-itH1}, so every eigenphase
  moves at speed |<v|G|v>| <= ||H1 - H2||_op, the arc spread at most
  twice as fast, and sin(spread/2) is K-Lipschitz.
- d_B on [beta_l, beta_r]: the smaller of ``(spread_1 + spread_2)/4`` and
  ``K(beta_r) = ||Delta||_op (2 + 3 beta_r S)/2``, with spread =
  lambda_max - lambda_min, Delta = H1 - H2 and S = max(spread_1, spread_2).
  Both bound |d'| through d rho/d beta = -(H - <H>) rho. The first: its
  trace norm is E|E - <E>| <= sigma <= spread/2 (Popoviciu's inequality),
  and d_B is half a trace norm. The second scales with the gap. Along
  H_lam = H2 + lam Delta, lam in [0, 1], Duhamel's formula
  d e^{-beta H}/d lam = -int_0^beta e^{-sH} Delta e^{-(beta-s)H} ds and
  Hoelder's inequality with exponents beta/s, beta/(beta-s) bound its
  trace norm by beta ||Delta|| Z, so ||d rho/d lam||_1 <= 2 beta ||Delta||
  (the second half from d Z/d lam). Differentiating,
  d/d lam [(H - <H>) rho] = Delta rho + (H - <H>) d rho/d lam
  - (d<H>/d lam) rho, where d<H>/d lam = Tr(Delta rho) + Tr((H - mid)
  d rho/d lam), because d rho/d lam is traceless, and mid is the middle of
  the spectrum, so ||H - mid|| = S/2; also ||H - <H>|| <= S. The three
  terms have trace norms at most ||Delta||, 2 beta S ||Delta|| and
  ||Delta|| (1 + beta S), so ||d/d lam d rho/d beta||_1 <= ||Delta||
  (2 + 3 beta S); integrating over lam bounds the difference of the two
  states' beta-derivatives. The spread is convex in H (lambda_max is
  convex, lambda_min concave), so S bounds it at every lam. Halve the
  bound for d_B. It grows with beta, so its value at beta_r holds on the
  whole interval.

``refine`` adds a golden-section touch-up around the best grid point. It
stops once the bracket's slope times its width is at most the
certificate's upper bound minus the best value: every point of the bracket
lies within its width of the best point found, so no further evaluation
could lift the value past the certified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pauli as pl
from .errors import DimensionMismatchError
from .hamiltonian import _UNITARITY_TOL, SparseHamiltonian, _unitarity_defect, compress, eigh
from .pauli import PauliString

DEFAULT_GRID = 2048


@dataclass(frozen=True)
class DistanceResult:
    """Value of a constrained distance with its maximizer and certificate.

    The true supremum lies in ``[value, value + grid_error]``.
    """

    value: float
    argmax: float
    grid_error: float
    kind: str

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "argmax": self.argmax,
            "grid_error": self.grid_error,
            "kind": self.kind,
        }


# ---------------------------------------------------------------------------
# circle arithmetic (used by the eigenphase lower bounds)
# ---------------------------------------------------------------------------


_TWO_PI = 2.0 * np.pi


def _wrap_two_pi(x):
    # np.mod of a tiny negative value can round to exactly 2 pi; fold it back.
    r = np.mod(x, _TWO_PI)
    r = np.where(r < _TWO_PI, r, 0.0)
    return float(r) if np.ndim(x) == 0 else r


def circle_p(x):
    """Projection onto [0, 2 pi) with nonnegative remainder."""
    return _wrap_two_pi(x)


def circle_q(x):
    """Projection onto [-pi, pi)."""
    return _wrap_two_pi(np.asarray(x) + np.pi) - np.pi


def minmax_closed(a: float, b: float) -> float:
    """min over x of max(|q(a-x)|, |q(b-x)|), in closed form.

    Equals half the smaller of the two phase separations
    |q(a) - q(b)| and |p(a) - p(b)|.
    """
    qa, qb = float(circle_q(a)), float(circle_q(b))
    pa, pb = float(circle_p(a)), float(circle_p(b))
    return 0.5 * min(abs(qa - qb), abs(pa - pb))


# ---------------------------------------------------------------------------
# unitary-channel diamond distance
# ---------------------------------------------------------------------------


def _arc_half_diamond(phases: np.ndarray) -> float:
    """Half diamond distance to the identity from eigenphases on the circle."""
    if phases.size == 1:
        return 0.0
    angles = np.sort(phases)
    gaps = np.diff(angles)
    wrap = 2.0 * np.pi - (angles[-1] - angles[0])
    spread = 2.0 * np.pi - max(gaps.max(initial=0.0), wrap)
    if spread >= np.pi:
        return 1.0
    return math.sin(spread / 2.0)


def half_diamond_unitary(v: np.ndarray, w: np.ndarray) -> float:
    """Half the diamond distance between the channels of two unitaries.

    Computed as sqrt(1 - dist(0, conv(eigenvalues of V^dagger W))^2) via
    the minimal covering arc of the eigenphases.
    """
    if v.shape != w.shape or v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise DimensionMismatchError("unitaries must share a square shape")
    if _unitarity_defect(v) > _UNITARITY_TOL or _unitarity_defect(w) > _UNITARITY_TOL:
        raise ValueError("inputs are not unitary within tolerance")
    phases = np.angle(np.linalg.eigvals(v.conj().T @ w))
    return _arc_half_diamond(phases)


def _golden_max(f, lo: float, hi: float, lipschitz: float, upper: float) -> tuple[float, float]:
    """Golden-section refinement of a maximum on [lo, hi], at most 52 evaluations.

    ``f`` is ``lipschitz``-Lipschitz on [lo, hi] and bounded by ``upper``.
    Every point dropped from the bracket [a, b] is no better than one kept,
    so the best value so far is attained inside it, and no point of the
    bracket can beat it by more than ``lipschitz * (b - a)``. The search
    stops once that is at most ``upper`` minus the best value: later
    evaluations could not lift it past ``upper``.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_v = (c, fc) if fc >= fd else (d, fd)
    for _ in range(50):
        if lipschitz * (b - a) <= upper - best_v:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        if fc >= best_v:
            best_x, best_v = c, fc
        if fd >= best_v:
            best_x, best_v = d, fd
    return best_x, best_v


def _check_budget(budget: float, grid: int) -> None:
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget}")
    if grid < 2:
        raise ValueError("grid must have at least two points")


def _supremum(f, budget: float, grid: int, refine: bool, slope, kind: str) -> DistanceResult:
    """Maximize ``f``, valued in [0, 1], over [0, budget].

    ``slope`` maps an array of right ends r to Lipschitz constants of ``f``
    on [0, r], nondecreasing in r (a constant is one); an interval's slope
    is its right end's. Branch-and-bound from the endpoints: on an interval
    of width w with end values f_l, f_r and slope K,
    ``f <= (f_l + f_r + K w)/2``. Each round evaluates the midpoint of every
    interval whose envelope exceeds ``best + K(budget) budget/grid`` and
    whose halves stay wider than ``budget/grid``, so at most ``grid`` points
    are evaluated, all of them dyadic fractions of the budget.
    ``grid_error`` is the largest envelope minus the value: it never exceeds
    ``K(budget) budget/grid`` plus 1e-12 of slack for rounding in ``f``.
    ``refine`` adds a golden-section search between the best point's
    evaluated neighbours (:func:`_golden_max`), which stops once it can no
    longer lift the value past the certificate.
    """
    xs = np.array([0.0, budget])
    fs = np.array([f(0.0), f(budget)])
    depths = np.zeros(1, dtype=np.int64)
    target = float(slope(budget)) * budget / grid
    while True:
        envelope = np.minimum(1.0, (fs[:-1] + fs[1:] + slope(xs[1:]) * np.diff(xs)) / 2)
        split = (envelope > fs.max() + target) & (2 ** (depths + 1) < grid)
        if not split.any():
            break
        at = np.flatnonzero(split)
        mids = (xs[at] + xs[at + 1]) / 2
        xs = np.insert(xs, at + 1, mids)
        fs = np.insert(fs, at + 1, [f(x) for x in mids])
        depths = np.repeat(depths + split, 1 + split)
    # 1e-12 is slack for rounding in f.
    upper = min(1.0, float(envelope.max()) + 1e-12)
    i = int(fs.argmax())
    argmax, value = float(xs[i]), float(fs[i])
    if refine:
        hi = xs[min(xs.size - 1, i + 1)]
        x, v = _golden_max(f, xs[max(0, i - 1)], hi, float(slope(hi)), upper)
        if v > value:
            argmax, value = float(x), float(v)
    return DistanceResult(value, argmax, max(0.0, upper - value), kind)


def d_T(
    h1: SparseHamiltonian,
    h2: SparseHamiltonian,
    T: float,
    grid: int = DEFAULT_GRID,
    refine: bool = True,
) -> DistanceResult:
    """Time-constrained diamond distance over evolution times in [0, T].

    The half diamond distance at each time comes from the eigenphase arc of
    V(t)^dagger W(t) on the joint (a+b)-qubit image of both Hamiltonians,
    evaluated without re-exponentiating: the eigenphases equal those of
    e^{i t L1} M e^{-i t L2} M^dagger with M the fixed eigenbasis overlap.
    """
    _check_budget(T, grid)
    (g1, g2), _ = compress(h1, h2)
    w1, a = eigh(g1.dense_matrix())
    w2, b = eigh(g2.dense_matrix())
    m = a.conj().T @ b
    m_dag = m.conj().T

    def f(t: float) -> float:
        x = (np.exp(1j * t * w1)[:, None] * m * np.exp(-1j * t * w2)[None, :]) @ m_dag
        return _arc_half_diamond(np.angle(np.linalg.eigvals(x)))

    gap = (g1 - g2).op_norm()
    return _supremum(f, T, grid, refine, lambda right: gap, "time_constrained")


# ---------------------------------------------------------------------------
# temperature-constrained trace distance
# ---------------------------------------------------------------------------


def _gibbs_weights(evals: np.ndarray, beta: float) -> np.ndarray:
    # Shift by the smallest eigenvalue before exponentiating so large beta
    # cannot overflow.
    w = np.exp(-beta * (evals - evals.min()))
    return w / w.sum()


def _gibbs_trace_gap(w1, a, w2, b, beta: float) -> float:
    """Trace norm of the difference of two Gibbs states given by eigensystems."""
    rho1 = (a * _gibbs_weights(w1, beta)) @ a.conj().T
    rho2 = (b * _gibbs_weights(w2, beta)) @ b.conj().T
    return float(np.abs(np.linalg.eigvalsh(rho1 - rho2)).sum())


def d_B(
    h1: SparseHamiltonian,
    h2: SparseHamiltonian,
    B: float,
    grid: int = DEFAULT_GRID,
    refine: bool = True,
) -> DistanceResult:
    """Temperature-constrained trace distance over beta in [0, B].

    Gibbs states are formed in each image Hamiltonian's eigenbasis on the
    joint (a+b)-qubit image; the value is half the trace norm of their
    difference, maximized by branch-and-bound. It never exceeds
    (B/2) ||H1 - H2||_op. When all terms of both Hamiltonians commute
    pairwise (a = 0) both images are diagonal, and the per-point
    diagonalization is skipped.
    """
    _check_budget(B, grid)
    (g1, g2), basis = compress(h1, h2)
    m1, m2 = g1.dense_matrix(), g2.dense_matrix()

    # With no anticommuting pair every image string is Z-type.
    if not basis.pairs:
        w1 = np.real(np.diag(m1))
        w2 = np.real(np.diag(m2))

        def f(beta: float) -> float:
            return 0.5 * float(np.abs(_gibbs_weights(w1, beta) - _gibbs_weights(w2, beta)).sum())

    else:
        w1, a = eigh(m1)
        w2, b = eigh(m2)

        def f(beta: float) -> float:
            return 0.5 * _gibbs_trace_gap(w1, a, w2, b, beta)

    spreads = (float(np.ptp(w1)), float(np.ptp(w2)))
    gap = (g1 - g2).op_norm()

    def slope(right):
        return np.minimum(sum(spreads) / 4, 0.5 * gap * (2.0 + 3.0 * right * max(spreads)))

    return _supremum(f, B, grid, refine, slope, "temperature_constrained")


def gibbs_trace_bound_check(
    h1: SparseHamiltonian, h2: SparseHamiltonian
) -> tuple[float, float, float]:
    """Trace-norm gap of e^{H}/Tr e^{H} states against both known bounds.

    Returns ``(lhs, rhs_new, rhs_old)`` where ``lhs <= rhs_new <= rhs_old``:
    the new bound is ||H1 - H2||_op itself, the older one the exponential
    2 (e^{||H1 - H2||_op} - 1).
    """
    (g1, g2), _ = compress(h1, h2)
    lhs = _gibbs_trace_gap(*eigh(g1.dense_matrix()), *eigh(g2.dense_matrix()), -1.0)
    gap = (g1 - g2).op_norm()
    return lhs, gap, 2.0 * (math.exp(gap) - 1.0)


# ---------------------------------------------------------------------------
# tightness counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexamplePair:
    """Projector pair whose Gibbs states converge while the gap stays 2."""

    dense_1: np.ndarray
    dense_2: np.ndarray
    sparse_1: SparseHamiltonian
    sparse_2: SparseHamiltonian


def counterexample_family(n: int) -> CounterexamplePair:
    """The pair +-(|0..0><0..0| - |1..1><1..1|) on n qubits.

    Its operator-norm gap is 2 for every n, yet for any fixed inverse
    temperature budget the Gibbs states approach each other at rate 2^-n:
    no lower bound on the temperature-constrained distance in terms of the
    operator norm can exist. The Pauli decomposition consists of the
    2^{n-1} odd-weight Z-type strings with coefficients 2^{1-n}.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    pl.check_dense(n)
    dim = 1 << n
    d1 = np.zeros((dim, dim), dtype=complex)
    d1[0, 0] = 1.0
    d1[dim - 1, dim - 1] = -1.0
    coeff = 2.0 ** (1 - n)
    terms = {
        PauliString(n, 0, z): coeff for z in range(1, dim) if z.bit_count() % 2 == 1
    }
    sparse_1 = SparseHamiltonian(n, terms)
    return CounterexamplePair(
        dense_1=d1,
        dense_2=-d1,
        sparse_1=sparse_1,
        sparse_2=sparse_1.scaled(-1.0),
    )


def counterexample_trace_distance(n: int, beta: float) -> float:
    """Closed-form trace norm ||rho_1(beta) - rho_2(beta)||_tr of the pair."""
    return 2.0 * (math.exp(beta) - math.exp(-beta)) / (2.0**n - 2.0 + math.exp(beta) + math.exp(-beta))


# ---------------------------------------------------------------------------
# eigenphase lower bounds
# ---------------------------------------------------------------------------


def eigenphase_lower_bound(h: SparseHamiltonian) -> float:
    """Spectral lower bound on the half diamond distance of e^{-iH} to Id.

    Evaluates (1/2 pi) max over eigenvalue pairs of the smaller circular
    separation min(|p(l_j) - p(l_k)|, |q(l_j) - q(l_k)|); for traceless H
    with ||H||_op <= pi/2 this is itself at least ||H||_op / (2 pi).
    """
    evals = np.linalg.eigvalsh(h.dense_matrix())
    p = circle_p(evals)
    q = circle_q(evals)
    dp = np.abs(p[:, None] - p[None, :])
    dq = np.abs(q[:, None] - q[None, :])
    return float(np.minimum(dp, dq).max() / (2.0 * np.pi))
