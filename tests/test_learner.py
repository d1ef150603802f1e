"""Learning algorithms: stage arithmetic, Monte-Carlo guarantees, ledgers."""

import dataclasses
import math

import numpy as np
import pytest

from hamlearn.hamiltonian import SparseHamiltonian, linf_distance, random_instance
from hamlearn.isolation import isolation_rounds
from hamlearn.learner import (
    LearnerParams,
    learn_coeff,
    learn_hamiltonian,
    learn_hamiltonian_opnorm,
    learn_single_coeff_sparse,
    learn_small_coeff,
    learn_support,
    magnitude_shots,
    refinement_stages,
    stage_evolution_time,
    support_rounds,
)
from hamlearn.oracle import EvolutionOracle, OracleConfig
from hamlearn.pauli import PauliString

P = PauliString.from_label


def H(n, labelled):
    return SparseHamiltonian(n, {P(k): v for k, v in labelled.items()})


def make_oracle(h, seed=0, **cfg):
    return EvolutionOracle(h, OracleConfig(**cfg), rng=np.random.default_rng(seed))


def split_rngs(seed, k=3):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(k)]


# -- parameter arithmetic ------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        LearnerParams(s_bound=0, eps=0.1, delta=0.1)
    with pytest.raises(ValueError):
        LearnerParams(s_bound=1, eps=0.1, delta=1.5)
    with pytest.raises(ValueError):
        LearnerParams(s_bound=1, eps=0.1, delta=0.1, shots_c1=0.5)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            LearnerParams(s_bound=1, eps=bad, delta=0.1)


def test_stage_arithmetic():
    assert stage_evolution_time(0.01) == pytest.approx(1.0 / 8.0)
    assert refinement_stages(0.1) == 1
    assert refinement_stages(0.05) == 2
    assert refinement_stages(0.001) == 3
    assert magnitude_shots(0.1, 1.0) == math.ceil(6400**2 * math.log(40) / 2)
    params = LearnerParams(s_bound=4, eps=0.05, delta=0.1)
    assert support_rounds(params) == math.ceil(64 * 4 * math.log(40))


# -- small-coefficient stage ------------------------------------------------------


@pytest.mark.parametrize("factor", [0.0, 5.0, -5.0])
def test_small_coeff_monte_carlo(factor):
    eps = 0.01
    true = factor * eps
    ok = 0
    runs = 100
    for seed in range(runs):
        h = H(2, {"XX": true}) if true else SparseHamiltonian(2)
        oracle = make_oracle(h, seed=seed)
        est = learn_small_coeff(oracle, [], P("XX"), eps=eps, delta=0.1)
        ok += abs(est - true) <= eps
    assert ok >= 0.9 * runs
    if factor:
        # The returned value also lands in the right sign band.
        h = H(2, {"XX": true})
        est = learn_small_coeff(make_oracle(h, seed=1), [], P("XX"), eps=eps, delta=0.1)
        assert 4 * eps <= abs(est) <= 6 * eps
        assert math.copysign(1, est) == math.copysign(1, true)


def test_small_coeff_spam_robust():
    # SPAM's uniform floor is lambda/4^n; the shot calibration targets the
    # acceptance sizes, so probe at n=5.
    eps = 0.01
    ok = 0
    for seed in range(100):
        h = H(5, {"XXIII": -5 * eps})
        oracle = make_oracle(h, seed=seed, spam_lambda=0.05)
        est = learn_small_coeff(oracle, [], P("XXIII"), eps=eps, delta=0.1)
        ok += abs(est + 5 * eps) <= eps
    assert ok >= 90


# -- full-range refinement ---------------------------------------------------------


def test_learn_coeff_full_range():
    ok = 0
    for seed in range(50):
        oracle = make_oracle(H(2, {"XX": 1.0}), seed=seed)
        est = learn_coeff(oracle, [], P("XX"), eps=0.001, delta=0.1)
        ok += abs(est - 1.0) <= 0.001
    assert ok >= 45


def test_learn_coeff_single_stage_for_coarse_eps():
    oracle = make_oracle(H(2, {"XX": 0.37}), seed=3)
    est = learn_coeff(oracle, [], P("XX"), eps=0.1, delta=0.1)
    assert abs(est - 0.37) <= 0.1
    # One stage, two estimates: experiments = 2 * shots(delta).
    assert oracle.ledger.experiments == 2 * magnitude_shots(0.1, 32.0)


def test_learn_coeff_stage_residual_contract():
    # Conditioned on earlier stages succeeding, the residual entering stage
    # l satisfies the |h| <= 10 eps_l promise; the simulator knows the true
    # residual and can assert it directly.
    for seed in range(20):
        true = float(np.random.default_rng(seed).uniform(-1.0, 1.0))
        h = H(2, {"XX": true}) if abs(true) > 1e-12 else SparseHamiltonian(2)
        oracle = make_oracle(h, seed=seed)
        eps, delta = 0.001, 0.1
        stages = refinement_stages(eps)
        acc = 0.0
        fine = True
        for level in range(1, stages + 1):
            eps_l = 10.0**-level
            if not abs(true - acc) <= 10 * eps_l:
                fine = False
                break
            est = learn_small_coeff(
                oracle, [], P("XX"), eps=eps_l, delta=delta / stages, base_drift=-acc
            )
            if abs((true - acc) - est) > eps_l:
                fine = False
                break
            acc += est
        assert fine, f"stage contract broke at seed {seed}"


def test_learn_coeff_stage_times_follow_geometric_sum():
    oracle = make_oracle(H(2, {"XX": 0.9}), seed=4)
    eps, delta = 0.001, 0.1
    learn_coeff(oracle, [], P("XX"), eps=eps, delta=delta)
    stages = refinement_stages(eps)
    shots = magnitude_shots(delta / stages, 32.0)
    last_stage_time = 2 * shots * stage_evolution_time(10.0**-stages)
    total = oracle.ledger.total_evolution_time
    # Geometric series: total within 2x of (10/9) of the final stage's time.
    assert last_stage_time <= total <= 2 * (10.0 / 9.0) * last_stage_time


# -- single coefficient of a sparse Hamiltonian --------------------------------------


def test_single_coeff_sparse_one_term():
    ok = 0
    for seed in range(50):
        r1, r2, r3 = split_rngs(seed)
        h = H(3, {"XYZ": 0.37})
        oracle = EvolutionOracle(h, OracleConfig(), rng=r2)
        params = LearnerParams(s_bound=1, eps=0.01, delta=0.1)
        est = learn_single_coeff_sparse(oracle, P("XYZ"), params, r3)
        ok += abs(est - 0.37) <= 0.01
    assert ok >= 45


def test_single_coeff_sparse_absent_target():
    # Target not in the support: the isolated channel is (w.h.p.) zero.
    ok = 0
    for seed in range(30):
        r1, r2, r3 = split_rngs(seed)
        h = H(3, {"XYZ": 0.8, "ZZI": -0.5})
        oracle = EvolutionOracle(h, OracleConfig(), rng=r2)
        params = LearnerParams(s_bound=3, eps=0.01, delta=0.1)
        est = learn_single_coeff_sparse(oracle, P("XXX"), params, r3)
        ok += abs(est) <= 0.01
    assert ok >= 27


def test_single_coeff_sparse_rejects_identity():
    oracle = make_oracle(H(2, {"XX": 0.5}))
    params = LearnerParams(s_bound=1, eps=0.1, delta=0.1)
    with pytest.raises(ValueError):
        learn_single_coeff_sparse(oracle, PauliString.identity(2), params, np.random.default_rng(0))


def test_single_coeff_sparse_experiment_count_formula():
    # Deterministic shot arithmetic: experiments equal the stage sum exactly.
    r1, r2, r3 = split_rngs(9)
    h = random_instance(4, 3, r1)
    oracle = EvolutionOracle(h, OracleConfig(), rng=r2)
    eps, delta = 1e-3, 0.1
    params = LearnerParams(s_bound=3, eps=eps, delta=delta)
    p0 = sorted(h.support, key=lambda p: p.sort_key())[0]
    learn_single_coeff_sparse(oracle, p0, params, r3)
    stages = refinement_stages(eps)
    expected = stages * 2 * magnitude_shots((delta / 2) / stages, 32.0)
    assert oracle.ledger.experiments == expected


# -- support learning ------------------------------------------------------------


def test_support_learning_finds_single_term():
    hits = 0
    for seed in range(20):
        r1, r2 = split_rngs(seed, 2)
        h = H(4, {"ZIII": 0.5})
        oracle = EvolutionOracle(h, OracleConfig(), rng=r1)
        params = LearnerParams(s_bound=1, eps=0.1, delta=0.1)
        found = learn_support(oracle, params, r2)
        hits += P("ZIII") in found
    assert hits >= 18


def test_support_learning_zero_hamiltonian():
    r1, r2 = split_rngs(1, 2)
    oracle = EvolutionOracle(SparseHamiltonian(3), OracleConfig(), rng=r1)
    params = LearnerParams(s_bound=2, eps=0.1, delta=0.1)
    found = learn_support(oracle, params, r2)
    assert found == set()
    assert oracle.ledger.experiments == support_rounds(params)
    assert oracle.ledger.total_evolution_time <= support_rounds(params) / params.eps


def test_support_learning_clamps_degenerate_time_interval():
    # For eps >= 4/pi the sampling window [pi/4, 1/eps] is degenerate and
    # every draw runs at t = pi/4.
    r1, r2 = split_rngs(3, 2)
    h = H(2, {"XX": 0.9})
    oracle = EvolutionOracle(h, OracleConfig(), rng=r1)
    params = LearnerParams(s_bound=1, eps=2.0, delta=0.5)
    learn_support(oracle, params, r2)
    rounds = support_rounds(params)
    assert oracle.ledger.total_evolution_time == pytest.approx(rounds * math.pi / 4)


def test_support_learning_ledger_contract():
    r1, r2 = split_rngs(2, 2)
    h = random_instance(4, 3, r1)
    oracle = EvolutionOracle(h, OracleConfig(), rng=r1)
    params = LearnerParams(s_bound=3, eps=0.05, delta=0.1)
    found = learn_support(oracle, params, r2)
    assert len(found) <= support_rounds(params)
    assert oracle.ledger.experiments == support_rounds(params)
    assert not any(p.is_identity for p in found)


def test_learn_support_seeded_output_is_pinned():
    # Pins the support stage's own stream, so a change to how its rounds
    # are drawn fails here and not only in the CLI's golden output.
    inst, orc, lrn = split_rngs(2024, 3)
    h = random_instance(8, 8, inst)
    oracle = EvolutionOracle(h, OracleConfig(), rng=orc)
    found = learn_support(oracle, LearnerParams(s_bound=8, eps=0.05, delta=0.1), lrn)
    assert sorted(p.label for p in found) == [
        "IXYZZZZZ", "IYZZIIZZ", "IZYYXZIZ", "XXIXZIIY", "XXYXXXXY", "YIZIZIIX",
        "YXXZXIIZ", "YYXIIZZY", "YYYZXXYY", "ZIXYYIIX", "ZXXXYXXZ", "ZZXXZZZI",
        "ZZYYYXYI",
    ]  # fmt: skip
    assert oracle.ledger.experiments == 2244
    assert oracle.ledger.queries == 343128768
    assert oracle.ledger.total_evolution_time.hex() == "0x1.6a571e893b6f6p+14"


def test_learn_support_empty_window_draws_no_time():
    # With 1/eps <= pi/4 every round runs at pi/4, and only the bits are drawn.
    r1, r2 = split_rngs(4, 2)
    oracle = EvolutionOracle(H(3, {"XYZ": 0.6, "ZZI": -0.4}), OracleConfig(), rng=r1)
    params = LearnerParams(s_bound=2, eps=1.5, delta=0.2)
    _, twin = split_rngs(4, 2)
    learn_support(oracle, params, r2)
    rounds = support_rounds(params)
    assert oracle.ledger.total_evolution_time == sum([math.pi / 4] * rounds)
    twin.integers(0, 2, size=(rounds, isolation_rounds(2), 2, 3), dtype=np.uint8)
    assert r2.bit_generator.state == twin.bit_generator.state


def test_learn_support_accepts_any_bit_generator():
    oracle = make_oracle(H(4, {"XXIZ": 0.7, "IYZI": 0.3}), seed=6)
    params = LearnerParams(s_bound=2, eps=0.1, delta=0.1)
    found = learn_support(oracle, params, np.random.Generator(np.random.MT19937(3)))
    assert oracle.ledger.experiments == support_rounds(params)
    assert not any(p.is_identity for p in found)


# -- composed learner ---------------------------------------------------------------


def test_learn_hamiltonian_three_terms():
    truth = H(4, {"XXII": 0.9, "ZIII": -0.4, "YZII": 0.15})
    ok = 0
    runs = 25
    for seed in range(runs):
        r1, r2, r3 = split_rngs(seed)
        oracle = EvolutionOracle(truth, OracleConfig(), rng=r2)
        params = LearnerParams(s_bound=3, eps=0.05, delta=0.1)
        result = learn_hamiltonian(oracle, params, r3)
        good = (
            linf_distance(truth, result.hamiltonian) <= 0.05
            and result.hamiltonian.support <= truth.support
        )
        ok += good
    assert ok >= 0.9 * runs


def test_learner_never_takes_the_whole_spectrum(monkeypatch):
    # Product formulas are sized from the l1 norm of the coefficients, so no
    # query diagonalises all s terms at once; the image of 32 terms at
    # n = 40 is far wider than any dense computation could take.
    import importlib.resources as res
    import json

    jsonschema = pytest.importorskip("jsonschema")

    def no_spectrum(self):
        raise AssertionError("op_norm called during learning")

    truth = random_instance(40, 32, np.random.default_rng(1))
    monkeypatch.setattr(SparseHamiltonian, "op_norm", no_spectrum)
    oracle = EvolutionOracle(truth, OracleConfig(), rng=np.random.default_rng(2))
    params = LearnerParams(s_bound=32, eps=0.05, delta=0.1)
    result = learn_hamiltonian(oracle, params, np.random.default_rng(3))
    assert linf_distance(truth, result.hamiltonian) <= 0.05
    assert result.hamiltonian.support <= truth.support
    doc = result.ledger.to_json_dict()
    assert doc["queries"] > 2**63
    schema = json.loads(res.files("hamlearn").joinpath("schemas/ledger.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert json.loads(json.dumps(doc))["queries"] == result.ledger.queries


def test_learn_hamiltonian_zero():
    r1, r2, r3 = split_rngs(5)
    oracle = EvolutionOracle(SparseHamiltonian(3), OracleConfig(), rng=r2)
    params = LearnerParams(s_bound=2, eps=0.1, delta=0.1)
    result = learn_hamiltonian(oracle, params, r3)
    assert result.hamiltonian.sparsity == 0


def test_learn_result_contract():
    r1, r2, r3 = split_rngs(6)
    truth = random_instance(4, 3, r1, coeff_floor=0.2)
    oracle = EvolutionOracle(truth, OracleConfig(), rng=r2)
    params = LearnerParams(s_bound=3, eps=0.05, delta=0.1)
    result = learn_hamiltonian(oracle, params, r3)
    assert result.hamiltonian.sparsity <= params.s_bound
    assert not any(p.is_identity for p in result.hamiltonian.support)
    # The result carries no comparison with the truth.
    assert {f.name for f in dataclasses.fields(result)} == {"hamiltonian", "ledger"}
    assert result.ledger is oracle.ledger


def test_learn_hamiltonian_opnorm_bound():
    from hamlearn.distances import d_T

    ok = 0
    runs = 10
    eps = 0.15
    for seed in range(runs):
        r1, r2, r3 = split_rngs(seed + 50)
        truth = random_instance(4, 3, r1, coeff_floor=0.2)
        oracle = EvolutionOracle(truth, OracleConfig(), rng=r2)
        params = LearnerParams(s_bound=3, eps=eps, delta=0.1)
        result = learn_hamiltonian_opnorm(oracle, params, r3)
        good = (truth - result.hamiltonian).op_norm() <= eps
        ok += good
        if good:
            # Operator-norm closeness caps the time-constrained distance.
            res = d_T(truth, result.hamiltonian, T=1.0, grid=256)
            assert res.value <= math.sin(min(math.pi / 2, 1.0 * eps)) + 1e-9
    assert ok >= 9


def test_learn_hamiltonian_opnorm_reduces_to_linf_for_s_one():
    # s_bound = 1 leaves eps unchanged, so with identical seeds both
    # entry points produce the same output.
    truth = H(3, {"XYZ": 0.6})
    params = LearnerParams(s_bound=1, eps=0.1, delta=0.1)
    runs = []
    for entry in (learn_hamiltonian, learn_hamiltonian_opnorm):
        r1, r2, r3 = split_rngs(77)
        oracle = EvolutionOracle(truth, OracleConfig(), rng=r2)
        runs.append(entry(oracle, params, r3).hamiltonian)
    assert runs[0] == runs[1]


def test_learner_spam_robustness():
    ok = 0
    runs = 25
    for seed in range(runs):
        r1, r2, r3 = split_rngs(seed + 100)
        truth = random_instance(5, 3, r1, coeff_floor=0.1)
        oracle = EvolutionOracle(truth, OracleConfig(spam_lambda=0.05), rng=r2)
        params = LearnerParams(s_bound=3, eps=0.05, delta=0.1)
        result = learn_hamiltonian(oracle, params, r3)
        ok += (
            linf_distance(truth, result.hamiltonian) <= 0.05
            and result.hamiltonian.support <= truth.support
        )
    assert ok >= 0.9 * runs
