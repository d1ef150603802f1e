"""Benchmark sweeps: determinism, row order, slope fits."""

import dataclasses
import math

import pytest

from hamlearn.bench import (
    TrialRecord,
    csv_row,
    evolution_time_slope,
    experiments_slope,
    run_learning_trial,
    sweep,
)


def test_trial_record_csv_shape():
    row = run_learning_trial(n=4, s=2, eps=0.1, delta=0.2, seed=3)
    text = row.csv_row()
    assert len(text.split(",")) == len(TrialRecord.CSV_FIELDS)
    assert csv_row(True, 3, 0.1, "x", math.inf) == "1,3,0.1,x,inf"
    assert row.ancilla == 4
    assert row.experiments > 0


def test_trial_determinism():
    a = run_learning_trial(n=4, s=2, eps=0.1, delta=0.2, seed=11)
    b = run_learning_trial(n=4, s=2, eps=0.1, delta=0.2, seed=11)
    assert a == b


def test_learning_trial_at_forty_qubits():
    # Exact sampling runs on the compressed Hamiltonian, so no 2^40 matrix.
    row = run_learning_trial(n=40, s=4, eps=0.1, delta=0.1, seed=0)
    assert row.success and row.linf_error <= 0.1
    assert row.ancilla == 40


def test_sweep_row_order_and_count():
    rows = sweep([2, 4], [0.1], trials=2, base_seed=40, n=4, support_rounds_c0=8)
    assert [r.s for r in rows] == [2, 2, 4, 4]
    assert len(rows) == 4


def test_slope_functions_need_two_cells():
    rows = sweep([2], [0.1], trials=1, base_seed=1, n=4, support_rounds_c0=8)
    with pytest.raises(ValueError):
        experiments_slope(rows)
    with pytest.raises(ValueError):
        evolution_time_slope(rows)
    # s ln s vanishes at s = 1, so no log-log slope exists there.
    with pytest.raises(ValueError, match="s = 1"):
        experiments_slope(rows + [dataclasses.replace(rows[0], s=1)])


def test_time_slope_tracks_inverse_eps():
    # The full four-point grid averages out the tenfold-stage staircase.
    rows = sweep([2], [0.2, 0.1, 0.05, 0.025], trials=2, base_seed=5, n=4,
                 support_rounds_c0=16)
    slope = evolution_time_slope(rows)
    assert 0.7 <= slope <= 1.3


def test_sweep_validation(monkeypatch):
    # Every cell is checked before the first trial runs.
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the grid was validated")

    monkeypatch.setattr("hamlearn.bench.run_learning_trial", no_trial)
    with pytest.raises(ValueError):
        sweep([], [0.1], trials=1, base_seed=0)
    with pytest.raises(ValueError):
        sweep([2], [0.1], trials=0, base_seed=0)
    with pytest.raises(ValueError, match="eps must be positive"):
        sweep([8, 16], [0.05, 0.0], trials=3, base_seed=0)
    with pytest.raises(ValueError, match="got 300"):
        sweep([4, 300], [0.1], trials=1, base_seed=0, n=4)
    with pytest.raises(ValueError, match="qubit count must be positive, got 0"):
        sweep([2], [0.1], trials=1, base_seed=0, n=0)
