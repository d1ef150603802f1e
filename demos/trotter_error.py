"""Product-formula execution of conjugation-restricted evolutions.

The restricted Hamiltonian H_{Q_1..Q_r} is a sum of 2^r conjugated copies
of H, each reachable with one query to the true evolution, so the
second-order symmetric product formula implements e^{-it H_{Q_1..Q_r}}
without spending any extra total evolution time. This demo shows the
executed product converging to the exact evolution, the planned step
count meeting its diamond budget, and what the ledger records. The step
count is sized from the l1 norm of the coefficients, an upper bound on
the operator norm.
"""

import numpy as np

from hamlearn import pauli as pl
from hamlearn.distances import half_diamond_unitary
from hamlearn.hamiltonian import random_instance
from hamlearn.oracle import EvolutionOracle, OracleConfig, trotter_steps

rng = np.random.default_rng(11)
h = random_instance(3, 4, rng)
qs = [pl.random_uniform(3, rng) for _ in range(2)]
t = 1.0

l1 = sum(abs(c) for _, c in h)
print("instance:", h)
print(f"l1 norm {l1:.4f} >= operator norm {h.op_norm():.4f}")
print("conjugations:", [q.label for q in qs])
print("surviving terms:", sorted(p.label for p in h.restrict(qs).support))
print()

exact = EvolutionOracle(h, OracleConfig(mode="exact")).evolve_restricted(qs, t)

print("=== diamond error of the executed product vs its budget ===")
print(f"{'budget':>8} {'steps l':>8} {'measured':>10}")
for epsilon in (0.5, 0.1, 0.02, 0.005):
    oracle = EvolutionOracle(h, OracleConfig(mode="trotter", trotter_epsilon=epsilon))
    u = oracle.evolve_restricted(qs, t)
    steps = trotter_steps(l1, t, epsilon)
    measured = 2.0 * half_diamond_unitary(exact, u)
    print(f"{epsilon:>8} {steps:>8} {measured:>10.2e}")

print()
print("=== what one restricted query charges ===")
oracle = EvolutionOracle(h, OracleConfig(mode="trotter", trotter_epsilon=0.01))
oracle.evolve_restricted(qs, t)
led = oracle.ledger
print(f"total evolution time {led.total_evolution_time} (the plain t: Trotter preserves it)")
steps = trotter_steps(l1, t, 0.01)
print(f"queries              {led.queries} (2 R l = 2 * 4 * {steps}, each of duration t / (2 R l))")
print(f"min time resolution  {led.min_time_resolution:.3g}")
