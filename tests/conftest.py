"""Shared test helpers: independent dense constructions, instance factories
and Wilson score intervals."""

import math

import numpy as np
import pytest

from hamlearn.hamiltonian import random_instance

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)

_SINGLE = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def kron_pauli(label: str) -> np.ndarray:
    """Independent dense Pauli build: explicit kron chain of 2x2 matrices."""
    m = np.array([[1.0 + 0j]])
    for ch in label:
        m = np.kron(m, _SINGLE[ch])
    return m


def kron_hamiltonian(terms: dict) -> np.ndarray:
    """Independent dense assembly from {label: coeff}."""
    n = len(next(iter(terms)))
    m = np.zeros((2**n, 2**n), dtype=complex)
    for label, coeff in terms.items():
        m += coeff * kron_pauli(label)
    return m


# Two-sided 99% normal quantile, used for Wilson score intervals.
Z_99 = 2.5758293035489004


def wilson_interval(successes: int, trials: int, z: float = Z_99) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
    return max(0.0, center - half), min(1.0, center + half)


def wilson_lower(successes: int, trials: int, z: float = Z_99) -> float:
    return wilson_interval(successes, trials, z)[0]


def random_bounded_instance(n, s, rng, op_cap=1.0):
    """Random traceless instance rescaled so the operator norm is <= op_cap."""
    h = random_instance(n, s, rng, coeff_floor=0.05)
    op = h.op_norm()
    if op > op_cap:
        h = h.scaled(op_cap / op * float(rng.uniform(0.5, 1.0)))
    return h


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion."""
    rows = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if getattr(report, "when", "call") != "call" or "test_criterion_" not in nodeid:
                continue
            rows.append((nodeid.split("::")[-1], status == "passed"))
    if not rows:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, ok in sorted(rows):
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")
