"""Sparse-Hamiltonian learning from simulated time evolution.

The package splits into the Pauli/Hamiltonian algebra (``pauli``,
``hamiltonian``), the simulated access model with resource accounting
(``oracle``), the randomized isolation machinery (``isolation``), the
learning algorithms (``learner``), the constrained Hamiltonian distances
(``distances``) and benchmark plumbing (``bench``, ``cli``).
"""

from .distances import (
    DistanceResult,
    counterexample_family,
    d_B,
    d_T,
    eigenphase_lower_bound,
    half_diamond_unitary,
)
from .errors import CapacityError, DimensionMismatchError
from .hamiltonian import SparseHamiltonian, random_instance
from .isolation import IsolationDraw, draw_isolation_for_target, vv_statistics
from .learner import (
    LearnerParams,
    LearnResult,
    learn_coeff,
    learn_hamiltonian,
    learn_hamiltonian_opnorm,
    learn_single_coeff_sparse,
    learn_small_coeff,
    learn_support,
)
from .oracle import EvolutionOracle, OracleConfig, ResourceLedger
from .pauli import PauliString

__all__ = [
    "CapacityError",
    "DimensionMismatchError",
    "DistanceResult",
    "EvolutionOracle",
    "IsolationDraw",
    "LearnResult",
    "LearnerParams",
    "OracleConfig",
    "PauliString",
    "ResourceLedger",
    "SparseHamiltonian",
    "counterexample_family",
    "d_B",
    "d_T",
    "draw_isolation_for_target",
    "eigenphase_lower_bound",
    "half_diamond_unitary",
    "learn_coeff",
    "learn_hamiltonian",
    "learn_hamiltonian_opnorm",
    "learn_single_coeff_sparse",
    "learn_small_coeff",
    "learn_support",
    "random_instance",
    "vv_statistics",
]

__version__ = "0.1.0"
