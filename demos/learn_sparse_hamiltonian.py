"""End-to-end sparse Hamiltonian learning with resource accounting.

Draws a random 3-sparse Hamiltonian on five qubits, learns it through the
simulated evolution oracle (support recovery, per-term coefficient
refinement, rounding), and prints the recovered coefficients next to the
truth together with everything the run cost. A second pass turns on a 5%
depolarizing SPAM error to show the guarantees survive it.
"""

import numpy as np

from hamlearn.bench import trial_record
from hamlearn.hamiltonian import random_instance
from hamlearn.learner import LearnerParams, learn_hamiltonian
from hamlearn.oracle import EvolutionOracle, OracleConfig

EPS, DELTA, SEED = 0.05, 0.1, 20260809

for spam in (0.0, 0.05):
    seq = np.random.SeedSequence(SEED)
    inst_rng, oracle_rng, learner_rng = (np.random.default_rng(c) for c in seq.spawn(3))
    truth = random_instance(5, 3, inst_rng, coeff_floor=0.15)
    oracle = EvolutionOracle(truth, OracleConfig(spam_lambda=spam), rng=oracle_rng)
    params = LearnerParams(s_bound=3, eps=EPS, delta=DELTA)
    result = learn_hamiltonian(oracle, params, learner_rng)
    learned = result.hamiltonian

    print(f"=== SPAM lambda = {spam} ===")
    print(f"{'term':>8} {'true':>9} {'learned':>9}")
    for p in sorted(truth.support | learned.support, key=lambda q: q.sort_key()):
        print(f"{p.label:>8} {truth.coeff(p):>9.4f} {learned.coeff(p):>9.4f}")
    # The truth comparison lives outside the learner, in bench.trial_record.
    rec = trial_record(truth, result, s=3, eps=EPS, seed=SEED)
    print(f"linf error: {rec.linf_error:.5f}  (target {EPS})")
    print(f"l1 error: {rec.l1_error:.5f}  operator-norm error: {rec.op_error:.5f}")
    print(f"success (linf <= eps, support within the truth's): {rec.success}")

    led = result.ledger
    print("resources charged:")
    print(f"  experiments          {led.experiments:,}")
    print(f"  total evolution time {led.total_evolution_time:,.1f}")
    print(f"  queries              {led.queries:,}")
    print(f"  min time resolution  {led.min_time_resolution:.3g}")
    print(f"  ancilla qubits       {led.ancilla_qubits}")
    print()

print("Counters are large because every Bell-sampling shot is an experiment;")
print("what matters is how they scale, which the bench sweep measures:")
print("  hamlearn bench --s-grid 2,4,8,16 --eps-grid 0.05 --trials 3 --n 8")
