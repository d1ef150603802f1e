"""Simulated time-evolution access model with full resource accounting.

An :class:`EvolutionOracle` wraps a true :class:`SparseHamiltonian` and
answers the queries a learning protocol is allowed to make: forward
evolution ``e^{-iHt}``, conjugation-restricted evolution
``e^{-it H_{Q_1..Q_r}}`` (optionally with a known drift pulse added to one
coefficient), and Bell-basis Pauli sampling of a unitary's Choi state.
Every answered query charges a :class:`ResourceLedger` with the figures of
merit tracked throughout: experiments, total evolution time, query count,
minimum time resolution and ancilla qubits.

Every query is simulated by ``EvolutionOracle._simulate``, the one place
that picks a representation. In ``exact`` mode, restricted terms in
commuting groups of anticommuting strings (each group squares to a scalar)
are expanded in closed form. Otherwise symplectic Gram-Schmidt carries the
strings involved onto a + b <= n qubits (a anticommuting pairs, b central
strings; :func:`hamiltonian.compress`) and one ``eigh`` exponentiates the
image of the restricted Hamiltonian, or in ``trotter`` mode of all of H:
every factor of the product over the ``2^r`` conjugated summands is that
exponential conjugated by an image Pauli string. Outcomes are drawn on the
image and only the drawn string is mapped back
(:meth:`pauli.SymplecticBasis.decode`); an estimate reads the one
coefficient its target encodes to, so the cost does not grow with n.
``evolve`` and ``evolve_restricted`` run the same evaluator on the identity
basis, whose image is the dense n-qubit unitary. In both modes the ledger
charges the queries the product formula executes, which sum to the charged
time ``t``.

A support stage is one ``sample_support_stage`` call, which groups its
rounds by the terms that survive the restriction. In exact mode each class
whose survivors have the closed form (the empty one included) is settled
at all of its times at once, its outcomes drawn by one batched inverse CDF;
the other rounds, and every round in trotter mode, are ordinary
``sample_restricted`` queries. Each run of settled rounds between two
queries is charged at once, in round order.

The product formula takes ``l = ceil(sqrt((L t)^3 / eps))`` steps
(:func:`trotter_steps`) for ``L = sum_P |h_P|``. Every ``||P|| = 1``, so
``L >= ||H||``: the bound costs O(s), not a spectrum, and can only add
steps, so every diamond budget holds. (Commutator scaling would save
steps at the cost of nested-commutator code.) The step constant is 1: a
doubling search for a larger one returned 1 for every budget eps in
{0.1, 0.01, 0.001} at several seeds, and sized from ``||H||`` the
executed product used under 10% of its diamond budget over 255 random
cases (n <= 4, r <= 3, t <= 2), in line with the second-order commutator
bounds of Childs et al., "Theory of Trotter error with commutator scaling"
(arXiv:1912.08854).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import pauli as pl
from .errors import DimensionMismatchError
from .hamiltonian import _UNITARITY_TOL, SparseHamiltonian, _unitarity_defect, compress, eigh
from .pauli import PauliString, SymplecticBasis

# Restricted term sets up to this size that split into anticommuting groups
# are expanded in closed form instead of exponentiated on their image.
_STRUCTURED_TERM_CAP = 10


# ---------------------------------------------------------------------------
# resource ledger
# ---------------------------------------------------------------------------


@dataclass
class ResourceLedger:
    """Monotone counters for the cost of a simulated protocol run."""

    experiments: int = 0
    total_evolution_time: float = 0.0
    queries: int = 0
    min_time_resolution: float = math.inf
    ancilla_qubits: int = 0

    def charge_evolution(self, t: float | np.ndarray, queries: int, resolution):
        """Charge evolution time, queries and a time resolution.

        For a run of evolutions ``t`` and ``resolution`` are arrays: the times
        are added one at a time in order, as separate charges add them, and
        the smallest positive resolution counts.
        """
        if isinstance(t, np.ndarray):
            running = np.add.accumulate(np.append(self.total_evolution_time, t))
            self.total_evolution_time = float(running[-1])
            resolution = float(np.min(resolution, initial=math.inf, where=resolution > 0))
        else:
            self.total_evolution_time += t
        self.queries += queries
        if resolution > 0:
            self.min_time_resolution = min(self.min_time_resolution, resolution)

    def charge_experiment(self, count: int = 1, ancilla: int = 0):
        self.experiments += count
        self.ancilla_qubits = max(self.ancilla_qubits, ancilla)

    def merge(self, other: "ResourceLedger") -> "ResourceLedger":
        """Associative combination of ledgers from independent runs."""
        return ResourceLedger(
            experiments=self.experiments + other.experiments,
            total_evolution_time=self.total_evolution_time + other.total_evolution_time,
            queries=self.queries + other.queries,
            min_time_resolution=min(self.min_time_resolution, other.min_time_resolution),
            ancilla_qubits=max(self.ancilla_qubits, other.ancilla_qubits),
        )

    def to_json_dict(self) -> dict:
        res = self.min_time_resolution
        return {
            "experiments": self.experiments,
            "total_time": self.total_evolution_time,
            "queries": self.queries,
            "min_resolution": None if math.isinf(res) else res,
            "ancilla": self.ancilla_qubits,
        }


@dataclass(frozen=True)
class OracleConfig:
    """Knobs of the simulated access model.

    ``mode`` selects the backend, ``"exact"`` or ``"trotter"``.
    ``spam_lambda`` is the strength of the depolarizing mixture applied to
    the Choi-state outcome distribution, modeling a combined
    state-preparation and measurement error of the same diamond-norm size.
    ``trotter_epsilon`` is the diamond-norm budget granted to product
    formulas; their step count :func:`trotter_steps` has constant 1 and is
    sized from the l1 norm of the hidden coefficients, an upper bound on
    ``||H||``.
    Dense n-qubit unitaries (``evolve``, ``evolve_restricted``,
    ``pauli_sample``) are capped at ``pauli.DENSE_LIMIT`` qubits; sampling
    and estimation, in either mode, only need the image they run on to fit.
    The RNG is passed to :class:`EvolutionOracle`, not configured here.
    The learner's Taylor remainder constant is fixed at C = 1, so a stage
    of accuracy eps evolves for t = 1/(800 eps).
    """

    mode: str = "exact"
    spam_lambda: float = 0.0
    trotter_epsilon: float = 0.01

    def __post_init__(self):
        if self.mode not in ("exact", "trotter"):
            raise ValueError(f"unknown oracle mode {self.mode!r}")
        if not 0.0 <= self.spam_lambda < 1.0:
            raise ValueError("spam_lambda must lie in [0, 1)")
        if not 0 < self.trotter_epsilon < math.inf:
            raise ValueError("trotter_epsilon must be positive and finite")


def trotter_steps(norm: float, t: float | np.ndarray, epsilon: float) -> int | np.ndarray:
    """Step count ``l = ceil(sqrt((norm t)^3 / epsilon))`` of the product formula.

    ``norm`` bounds the summed operator norms of the formula's summands; the
    step constant is 1 (see the module docstring). One rule, ``sqrt(x * x *
    x / epsilon)`` with ``x = norm t``, serves scalars and arrays: IEEE
    products, quotients and roots round alike in numpy and libm. An array of
    times gives a float array of exact integers. Raises ValueError at the
    first time whose count is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = norm * t
        counts = np.maximum(1.0, np.ceil(np.sqrt(x * x * x / epsilon)))
    finite = np.isfinite(counts)
    if not finite.all():
        first = float(np.ravel(t)[finite.argmin()])
        raise ValueError(f"Trotter step count is not finite for norm={norm}, t={first}")
    return counts if isinstance(t, np.ndarray) else int(counts)


# ---------------------------------------------------------------------------
# Pauli-coefficient transform
# ---------------------------------------------------------------------------

# Map from single-qubit matrix entries (i*2+j) to Pauli coefficients, row
# order (I, X, Y, Z): a_P = Tr[P A] / 2.
_SINGLE_QUBIT_TRANSFORM = 0.5 * np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1j, -1j, 0],
        [1, 0, 0, -1],
    ],
    dtype=complex,
)


def pauli_transform(u: np.ndarray) -> np.ndarray:
    """All 4^n Pauli coefficients of a 2^n x 2^n matrix.

    Returns the flat array ``c`` with ``u = sum_P c[P.index] * dense(P)``,
    computed by n successive single-qubit 4-point transforms in O(n 4^n).
    """
    dim = u.shape[0]
    n = dim.bit_length() - 1
    if u.shape != (dim, dim) or 1 << n != dim:
        raise ValueError("matrix dimension is not a power of two")
    tensor = u.reshape((2,) * (2 * n))
    for k in range(n):
        # Row axis of qubit k sits at position k, column axis at position n
        # (earlier qubits have already collapsed into single axes).
        moved = np.moveaxis(tensor, (k, n), (0, 1))
        out = _SINGLE_QUBIT_TRANSFORM @ moved.reshape(4, -1)
        tensor = np.moveaxis(out.reshape((4,) + moved.shape[2:]), 0, k)
    return tensor.reshape(-1)


def _evolution(evals: np.ndarray, evecs: np.ndarray, t: float) -> np.ndarray:
    """``e^{-itH}`` from the eigendecomposition ``H = evecs diag(evals) evecs^dag``."""
    return (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Row-wise CDF of squared Pauli amplitudes, after the Parseval check.

    ``Generator.choice(p=probs / total)`` inverts the same CDF, so seeded
    outcomes match it bit for bit.
    """
    total = probs.sum(axis=-1, keepdims=True)
    if not (abs(total - 1.0) <= 1e-8).all():
        raise ValueError("Pauli coefficients of input violate Parseval identity")
    cdf = np.cumsum(probs / total, axis=-1)
    return cdf / cdf[..., -1:]


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


class EvolutionOracle:
    """Simulated access to the time evolution of a hidden Hamiltonian.

    The oracle owns a fresh ledger and an RNG (unseeded when ``rng`` is
    None); independent trials should use independent oracle instances with
    seeds derived from a master seed.
    """

    def __init__(
        self,
        hamiltonian: SparseHamiltonian,
        config: OracleConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.hamiltonian = hamiltonian
        self.config = config or OracleConfig()
        self.ledger = ResourceLedger()
        self.rng = np.random.default_rng(rng)

    @property
    def n(self) -> int:
        return self.hamiltonian.n

    # -- internals ------------------------------------------------------

    @functools.cached_property
    def _norm_bound(self) -> float:
        """``sum_P |h_P|``, an upper bound on ``||H||`` since every ``||P|| = 1``."""
        return sum(map(abs, self.hamiltonian.terms.values()))

    def _trotter_schedule(self, r: int, t: float | np.ndarray) -> tuple:
        """``(R, l, tau)`` of the product formula for an r-string restriction.

        R = 2^r conjugated summands, ``l = trotter_steps(norm bound, t,
        trotter_epsilon)`` steps, and each of the ``2 R l`` queries of the
        product evolves for ``tau = t / (2 R l)``. For an array of times
        ``l`` and ``tau`` are arrays.
        """
        R = 1 << r
        l = trotter_steps(self._norm_bound, t, self.config.trotter_epsilon)
        return R, l, t / (2 * R * l)

    def _charge_restricted(self, r: int, t, executions: int = 1, schedule=None) -> None:
        """Ledger charges of `executions` runs of a restricted evolution.

        With ``r == 0`` each run is one query of duration ``t``. Otherwise,
        with ``(R, l, tau)`` = ``schedule`` or :meth:`_trotter_schedule`, each
        run charges the ``2 R l`` queries of duration ``tau`` that the product
        formula (:meth:`_execute_trotter`) applies, in exact and trotter mode
        alike; they sum to the charged evolution time ``t``. An array ``t`` is
        a run of single evolutions, charged at once; its queries are summed
        as exact Python integers.
        """
        if r == 0:
            queries, resolution = executions * np.size(t), t
        else:
            R, l, resolution = schedule or self._trotter_schedule(r, t)
            if isinstance(l, np.ndarray):
                l = sum(map(int, l.tolist()))
            queries = executions * 2 * R * l
        self.ledger.charge_evolution(executions * t, queries, resolution)

    def _check_time(self, t: float) -> None:
        """Reject a time that is negative, or makes ``sum_P |h_P| t`` (so an angle) overflow."""
        if not 0 <= t < math.inf or math.isinf(self._norm_bound * t):
            raise ValueError(f"evolution time {t} is negative or makes sum |h_P| t non-finite")

    def _simulate(
        self,
        qs: list[PauliString],
        t: float,
        drift: tuple[PauliString, float] | None,
        dense: bool = False,
    ):
        """Simulate ``e^{-it(H_{Q_1..Q_r} + d P_0)}``; the only representation choice.

        Checks the query and charges nothing. In exact mode, restricted terms
        that :meth:`_structured_amplitudes` accepts give the dict of their Pauli
        amplitudes in closed form. Otherwise returns the flat Pauli coefficients
        of the evolution on a :class:`pauli.SymplecticBasis`' image, and the
        basis: the exponential of the compressed restricted Hamiltonian, or in
        trotter mode with ``qs`` the product :meth:`_execute_trotter` builds
        from the images of H and of a unit pulse on P_0 (kept in the span if d
        rounds to 0). With ``dense`` the basis is the identity and the n-qubit
        unitary is returned, capped at ``pauli.DENSE_LIMIT`` qubits.
        """
        self._check_time(t)
        if drift is not None and not abs(drift[1]) <= 4.0:
            raise ValueError(f"drift coefficient {drift[1]} outside supported range")
        if drift is not None and drift[0].is_identity:
            raise ValueError("identity term not allowed (traceless convention)")
        if trotter := self.config.mode == "trotter" and qs:
            hs = [self.hamiltonian] + ([SparseHamiltonian(self.n, {drift[0]: 1})] if drift else [])
        else:
            h = self.hamiltonian.restrict(qs) if qs else self.hamiltonian
            if drift is not None:
                h = h.add_term(*drift)
            if not dense and (amps := self._structured_amplitudes(list(h.terms.items()), t)):
                return amps
            hs = [h]
        # The identity basis carries every Hamiltonian onto itself.
        images, basis = (hs, SymplecticBasis.identity(self.n)) if dense else compress(*hs)
        evolve = functools.partial(_evolution, *eigh(images[0].dense_matrix()))
        u = self._execute_trotter(qs, t, drift, evolve, images, basis) if trotter else evolve(t)
        return u if dense else (pauli_transform(u), basis)

    # -- evolution queries -------------------------------------------------

    def evolve(self, t: float) -> np.ndarray:
        """Return ``e^{-iHt}``; charges one query of duration ``t``."""
        return self.evolve_restricted([], t)

    def evolve_restricted(
        self,
        qs: Sequence[PauliString],
        t: float,
        drift: tuple[PauliString, float] | None = None,
    ) -> np.ndarray:
        """Return ``e^{-it(H_{Q_1..Q_r} + d P_0)}`` and charge the ledger.

        In exact mode the restricted Hamiltonian is exponentiated densely;
        in trotter mode the symmetric product over all ``2^r`` conjugated
        summands, each a Pauli conjugate of one dense exponential of H, is
        within the configured diamond budget of the exact evolution. Capped
        at ``pauli.DENSE_LIMIT`` qubits. Drift pulses charge nothing.
        """
        qs = list(qs)
        u = self._simulate(qs, t, drift, dense=True)
        self._charge_restricted(len(qs), t)
        return u

    def _execute_trotter(self, qs, t, drift, evolve, images, basis: SymplecticBasis):
        """Multiply out the second-order product formula for H_{Q_1..Q_r}.

        Its factors are e^{-i tau C_S H C_S} over subsets S of the Q_i (C_S their
        product), each one query to the true evolution for tau = t/(2^{r+1}l)
        (:meth:`_trotter_schedule`). On the image of ``basis`` C_S acts as X^x Z^z
        (:meth:`pauli.SymplecticBasis.conjugator`), so factor S reads
        ``evolve(tau)`` = e^{-i tau H} at rows and columns j ^ x, signed by
        (-1)^{|j & z|}. With a drift, ``images[1]`` is the unit pulse's image.
        """
        R, l, tau = self._trotter_schedule(len(qs), t)
        # Factors in subset order (bit i selects Q_i): conjugating S by Q_i gives S + {i}.
        factors = [evolve(tau)]
        rows = np.arange(len(factors[0]))[:, None]
        for q in qs:
            x, z = basis.conjugator(q)
            # (-1)^{|j & z|} (-1)^{|k & z|} = (-1)^{|(j ^ k) & z|} on entry (j, k).
            perm, signs = rows ^ x, 1.0 - 2.0 * (np.bitwise_count((rows ^ rows.T) & z) & 1)
            factors += [signs * f[perm, perm.T] for f in factors]
        factors += [_evolution(*eigh(p.dense_matrix()), drift[1] * R * tau) for p in images[1:]]
        # One block is F_R ... F_1 F_1 ... F_R with F_i applied innermost-first.
        block = functools.reduce(np.matmul, [*reversed(factors), *factors])
        return np.linalg.matrix_power(block, l)

    # -- Pauli (Bell-basis) sampling ----------------------------------------

    def _measure(self, probs: np.ndarray, outcome: Callable[[int], PauliString]) -> PauliString:
        """Bell-basis sample of a simulated evolution; charges one experiment.

        ``probs`` are the squared Pauli amplitudes and ``outcome`` maps an
        index of ``probs`` to its string; outcomes are drawn in that order.
        """
        self.ledger.charge_experiment(1, ancilla=self.n)
        lam = self.config.spam_lambda
        if lam > 0.0 and self.rng.random() < lam:
            return pl.random_uniform(self.n, self.rng)
        cdf = _cdf(probs)
        return outcome(int(cdf.searchsorted(self.rng.random(), side="right")))

    def pauli_sample(self, u: np.ndarray) -> PauliString:
        """Sample P with probability ``(1-lam)|u_P|^2 + lam 4^{-n}``.

        This simulates preparing the Choi state of ``u`` with ``n`` ancilla
        qubits and measuring in the Bell basis, with the configured SPAM
        depolarization mixed in. Charges one experiment.
        """
        pl.check_dense(self.n)
        dim = 1 << self.n
        if u.shape != (dim, dim):
            raise ValueError("unitary has wrong dimension for this oracle")
        if _unitarity_defect(u) > _UNITARITY_TOL:
            raise ValueError("input matrix is not unitary within tolerance")
        # from_index builds only the drawn string, never all 4^n of them.
        return self._measure(
            np.abs(pauli_transform(u)) ** 2, functools.partial(PauliString.from_index, self.n)
        )

    def sample_restricted(
        self,
        qs: Sequence[PauliString],
        t: float,
        drift: tuple[PauliString, float] | None = None,
    ) -> PauliString:
        """One full experiment: restricted evolution then Pauli sampling.

        Ledger charges equal ``evolve_restricted`` plus ``pauli_sample``, and
        nothing is charged for a rejected query. A closed-form outcome is
        drawn in the order of ``_simulate``'s dict; otherwise an image index
        in the algebra is drawn (outside it the transform holds rounding
        noise) and only that index is decoded to its n-qubit string.
        """
        qs = list(qs)
        u = self._simulate(qs, t, drift)
        self._charge_restricted(len(qs), t)
        if isinstance(u, dict):
            return self._measure(np.array([abs(a) ** 2 for a in u.values()]), list(u).__getitem__)
        coeffs, basis = u
        probs = np.where(basis.in_algebra(), np.abs(coeffs) ** 2, 0.0)
        return self._measure(probs, lambda index: basis.decode(index)[0])

    def sample_support_stage(self, bits: np.ndarray, times: Sequence[float]) -> list[PauliString]:
        """The outcomes of :meth:`sample_restricted` on every round of a support stage.

        ``bits`` is the (T, r, 2, n) 0/1 ``uint8`` array of each round's r
        conjugation strings (:func:`pauli.bit_rows` layout); round k evolves
        for ``times[k]``. Returns the T outcomes, ledger charges and RNG
        draws of ``sample_restricted`` on the rounds in turn; a rejected
        stage charges nothing.

        A term survives a round iff it commutes with all r strings (the rule of
        :meth:`SparseHamiltonian.restrict`), decided for all rounds by
        :func:`pauli.anticommuting`; rounds with the same survivors form a
        class. In exact mode a class whose survivors are commuting groups of
        anticommuting strings (the empty class included) is settled in closed
        form: one :meth:`_structured_amplitudes` call gives its amplitudes at
        all of its times, and every row passes the Parseval check before
        anything is charged. Each run of settled rounds between two queries is
        charged at once, in round order, and without SPAM draws its uniforms in
        one call; a class then inverts its CDFs and picks its outcomes from an
        array of its strings at once. The other rounds, and every round in
        trotter mode (where not even an empty restriction is exactly I), stay
        ordinary ``sample_restricted`` queries.
        """
        bits = np.asarray(bits)
        rounds = len(times)
        if bits.ndim != 4 or bits.shape[0] != rounds or bits.shape[2:] != (2, self.n):
            raise DimensionMismatchError(
                f"support bits of shape {bits.shape} are not {rounds} rounds of (r, 2, {self.n})"
            )
        if bits.dtype != np.uint8 or bits.max(initial=0) > 1:
            raise ValueError("support bits must be a 0/1 uint8 array")
        at = np.asarray(times, dtype=float)
        if not ((0.0 <= at) & (at < math.inf)).all():
            raise ValueError("evolution times must be finite and non-negative")
        r = bits.shape[1]
        # Round by round the time rule, then the step rule: the first bad round
        # raises what its query would, before anything runs.
        with np.errstate(over="ignore"):
            overflow = np.flatnonzero(np.isinf(self._norm_bound * at))
        good = int(overflow[0]) if overflow.size else rounds
        R, steps, taus = self._trotter_schedule(r, at[:good]) if r else (1, None, None)
        if good < rounds:
            self._check_time(times[good])

        queried, settled = np.ones(rounds, dtype=bool), []
        if self.config.mode == "exact" and rounds:
            terms = list(self.hamiltonian.terms.items())
            survive = ~pl.anticommuting(bits, pl.bit_rows(self.hamiltonian.terms, self.n)).any(1)
            # One integer label per survivor row, so a 1-D unique finds the classes.
            labels = pl._pack_bits(survive.view(np.uint8))
            _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
            for rows in np.split(inverse.argsort(kind="stable"), counts.cumsum()[:-1]):
                kept = [terms[j] for j in np.flatnonzero(survive[rows[0]])]
                amps = self._structured_amplitudes(kept, at[rows])
                if amps is not None:
                    strings = np.array(list(amps), dtype=object)
                    probs = np.abs(np.stack(list(amps.values()), axis=1)) ** 2
                    settled.append((rows, strings, probs, _cdf(probs)))
                    queried[rows] = False

        lam = self.config.spam_lambda
        # A SPAM draw may take more than one value, so such rounds are measured one by one.
        alone = {
            i: (p, strings.__getitem__)
            for rows, strings, ps, _ in settled
            if lam
            for i, p in zip(rows.tolist(), ps)
        }
        masks = iter(pl._pack_bits(bits[queried]).tolist())
        outcomes, x, start = np.empty(rounds, dtype=object), np.empty(rounds), 0
        # Each run of settled rounds up to the next query is charged at once.
        for i in [*np.flatnonzero(queried).tolist(), rounds]:
            if start < i:
                run = slice(start, i)
                schedule = (R, steps[run], taus[run]) if r else None
                self._charge_restricted(r, at[run], schedule=schedule)
                if lam:
                    for k in range(start, i):
                        outcomes[k] = self._measure(*alone[k])
                else:
                    self.ledger.charge_experiment(i - start, ancilla=self.n)
                    x[run] = self.rng.random(i - start)
            if i < rounds:
                qs = [pl._unchecked(self.n, a, b) for a, b in next(masks)]
                outcomes[i] = self.sample_restricted(qs, times[i])
            start = i + 1
        if not lam:
            for rows, strings, _, cdf in settled:
                # The searchsorted of _measure, for a whole class at once.
                outcomes[rows] = strings[(cdf <= x[rows, None]).sum(axis=1)]
        return outcomes.tolist()

    def _structured_amplitudes(
        self, terms: list[tuple[PauliString, float]], t: float | np.ndarray
    ) -> dict[PauliString, complex] | None:
        """Pauli amplitudes of ``e^{-itH}`` for groups of anticommuting terms.

        The terms must split into mutually commuting groups of pairwise
        anticommuting strings. A group H_g squares to ``w^2 I`` (``w`` the norm
        of its coefficients), so ``e^{-itH}`` is the product over groups of
        ``cos(w t) I - i sin(w t)/w H_g``, expanded with exact phase tracking;
        for an array of times each amplitude is the array of its values at
        those times. Returns None for a term set too large or not so split.
        """
        if len(terms) > _STRUCTURED_TERM_CAP:
            return None
        groups = []
        for p, c in terms:
            # p joins the one group it wholly anticommutes with, or starts one if none.
            anti = [sum(pl.symplectic_product(p, q) for q, _ in g) for g in groups]
            if not any(anti):
                groups.append([(p, c)])
            elif sum(anti) == max(anti) == len(g := groups[anti.index(max(anti))]):
                g.append((p, c))
            else:
                return None
        amps = {PauliString.identity(self.n): np.ones(np.shape(t), dtype=complex)}
        for group in groups:
            # A one-term group keeps cos(h t), sin(h t): the commuting case to the bit.
            many = len(group) > 1
            w = math.hypot(*(c for _, c in group)) if many else group[0][1]
            cos_a, sin_a = np.cos(w * t), -1j * np.sin(w * t)
            factor = [(p, sin_a * (c / w) if many else sin_a) for p, c in group]
            nxt = {}
            for q, amp in amps.items():
                nxt[q] = nxt.get(q, 0.0) + amp * cos_a
                for p, f in factor:
                    rq, phase = pl.multiply(p, q)
                    nxt[rq] = nxt.get(rq, 0.0) + amp * phase * f
            amps = nxt
        return amps

    # -- single-coefficient estimation ---------------------------------------

    def estimate_pauli_coeff_magnitude(
        self,
        qs: Sequence[PauliString],
        drift: tuple[PauliString, float] | None,
        p0: PauliString,
        t: float,
        shots: int,
    ) -> float:
        """Empirical estimate of ``|u_{p0}|`` from ``shots`` Pauli samples.

        The outcome count is binomial with success probability
        ``(1-lam)|u_{p0}|^2 + lam 4^{-n}``; the returned value is the
        square root of the bias-corrected empirical frequency. Charges
        ``shots`` experiments, each with one restricted evolution of
        duration ``t``. Off the closed form, ``u_{p0}`` is read from the
        image coefficient ``basis.encode(p0)`` names; a target outside the
        span has amplitude 0.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        if p0.n != self.n:
            raise DimensionMismatchError(f"target {p0} acts on {p0.n} qubits, expected {self.n}")
        qs = list(qs)
        u = self._simulate(qs, t, drift)
        if isinstance(u, dict):
            amp = u.get(p0, 0.0)
        else:
            coeffs, basis = u
            try:
                q, sign = basis.encode(p0)
            except ValueError:  # p0 lies outside the span
                q, sign = PauliString.identity(basis.qubits), 0
            amp = sign * coeffs[q.index]
        self._charge_restricted(len(qs), t, executions=shots)
        self.ledger.charge_experiment(shots, ancilla=self.n)

        lam = self.config.spam_lambda
        uniform = 4.0 ** (-self.n)
        prob = (1.0 - lam) * min(1.0, abs(amp) ** 2) + lam * uniform
        freq = self.rng.binomial(shots, prob) / shots
        corrected = (freq - lam * uniform) / (1.0 - lam)
        return math.sqrt(max(0.0, corrected))
