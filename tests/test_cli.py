"""CLI contracts: determinism, schemas, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from hamlearn import cli
from hamlearn.errors import CapacityError
from hamlearn.hamiltonian import SparseHamiltonian, random_instance


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hamlearn.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_gen_valid_json(tmp_path):
    out = tmp_path / "h.json"
    proc = run_cli("gen", "--n", "4", "--s", "3", "--seed", "7", "--out", str(out))
    assert proc.returncode == 0
    h = SparseHamiltonian.load(out)
    assert h.n == 4 and h.sparsity == 3


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen", "--n", "3", "--s", "2", "--seed", "5", "--out", str(a))
    run_cli("gen", "--n", "3", "--s", "2", "--seed", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_learn_round_trip(tmp_path):
    h_path = tmp_path / "true.json"
    run_cli("gen", "--n", "3", "--s", "2", "--seed", "3", "--out", str(h_path))
    learned = tmp_path / "learned.json"
    ledger = tmp_path / "ledger.json"
    proc = run_cli(
        "learn",
        "--hamiltonian", str(h_path),
        "--eps", "0.1",
        "--delta", "0.2",
        "--seed", "1",
        "--out", str(learned),
        "--ledger-out", str(ledger),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "seed,success,linf_error,op_error,experiments,total_time,queries,min_resolution"
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[1] in {"0", "1"}
    got = SparseHamiltonian.load(learned)
    assert got.n == 3
    led = json.loads(ledger.read_text())
    assert set(led) == {"experiments", "total_time", "queries", "min_resolution", "ancilla"}


def test_learn_deterministic_replay(tmp_path):
    h_path = tmp_path / "true.json"
    run_cli("gen", "--n", "3", "--s", "2", "--seed", "8", "--out", str(h_path))
    args = ["learn", "--hamiltonian", str(h_path), "--eps", "0.1", "--delta", "0.2", "--seed", "4"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout


def test_learn_usage_error(tmp_path):
    proc = run_cli("learn")
    assert proc.returncode == 2
    proc = run_cli("learn", "--hamiltonian", "x.json", "--random", "2,1,0")
    assert proc.returncode == 2
    for bad in ("nan", "inf"):
        proc = run_cli("learn", "--random", "2,1,0", "--eps", bad)
        assert proc.returncode == 2
        assert "eps must be positive and finite" in proc.stderr
    # Non-finite or overflowing coefficients end in a message, not a traceback.
    proc = run_cli("gen", "--n", "2", "--s", "2", "--coeff-range", "inf")
    assert proc.returncode == 2
    assert "finite" in proc.stderr and "Traceback" not in proc.stderr
    huge = tmp_path / "huge.json"
    proc = run_cli(
        "gen", "--n", "2", "--s", "2", "--coeff-range", "1e308", "--coeff-floor", "1e307",
        "--out", str(huge),
    )
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("learn", "--hamiltonian", str(huge))
    assert proc.returncode == 2
    assert "makes sum |h_P| t non-finite" in proc.stderr
    nan = tmp_path / "nan.json"
    nan.write_text('{"n": 2, "terms": [{"pauli": "XX", "coeff": NaN}]}')
    for argv in (
        ("learn", "--hamiltonian", str(nan)),
        ("distance", "--kind", "time", "--budget", "1", "--h1", str(nan), "--h2", str(nan)),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "coefficient of term XX is not finite" in proc.stderr


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": 2, "terms": {"XX": 1}}',
        "[1, 2]",
        '{"n": 2, "terms": null}',
        '{"n": 2, "terms": [{"pauli": "XX", "coeff": [1]}]}',
        '{"n": 2.7, "terms": [{"pauli": "XX", "coeff": 0.5}]}',
    ],
)
def test_malformed_hamiltonian_file_is_usage_error(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    proc = run_cli(
        "distance", "--kind", "time", "--budget", "1", "--h1", str(path), "--h2", str(path)
    )
    assert proc.returncode == 2
    assert str(path) in proc.stderr and "Traceback" not in proc.stderr


def test_distance_command(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen", "--n", "3", "--s", "2", "--seed", "1", "--out", str(a))
    run_cli("gen", "--n", "3", "--s", "2", "--seed", "2", "--out", str(b))
    proc = run_cli(
        "distance", "--kind", "temperature", "--budget", "1.0",
        "--h1", str(a), "--h2", str(b), "--grid", "128",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "temperature_constrained"
    h1 = SparseHamiltonian.load(a)
    h2 = SparseHamiltonian.load(b)
    gap = (h1 - h2).op_norm()
    assert doc["value"] <= 0.5 * 1.0 * gap + doc["grid_error"] + 1e-9


def test_distance_capacity_exit_code(tmp_path):
    # 13 commuting single-qubit Z terms: 13 central strings, a 13-qubit joint image.
    big = tmp_path / "big.json"
    labels = ["I" * k + "Z" + "I" * (12 - k) for k in range(13)]
    big.write_text(json.dumps({"n": 13, "terms": [{"pauli": s, "coeff": 0.5} for s in labels]}))
    for kind in ("time", "temperature"):
        proc = run_cli(
            "distance", "--kind", kind, "--budget", "1.0", "--h1", str(big), "--h2", str(big)
        )
        assert proc.returncode == 3


def test_distance_beyond_dense_cap(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen", "--n", "40", "--s", "4", "--seed", "1", "--out", str(a))
    run_cli("gen", "--n", "40", "--s", "4", "--seed", "2", "--out", str(b))
    gap = (SparseHamiltonian.load(a) - SparseHamiltonian.load(b)).op_norm()
    assert gap > 0
    for kind, budget in (("time", 0.5), ("temperature", 1.0)):
        proc = run_cli(
            "distance", "--kind", kind, "--budget", str(budget),
            "--h1", str(a), "--h2", str(b), "--grid", "128",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert 0.0 < doc["value"] <= 1.0
        if kind == "time":
            assert doc["value"] <= math.sin(min(math.pi / 2, budget * gap)) + 1e-9
            quarter = 1 / (4 * math.pi)
            assert doc["value"] >= gap * min(budget, quarter) * quarter - doc["grid_error"] - 1e-9
        else:
            assert doc["value"] <= 0.5 * budget * gap + doc["grid_error"] + 1e-9


def test_learn_beyond_dense_cap_reports_certified_op_error(tmp_path):
    # truth - learned spans 13 image qubits here, past the dense cap, so
    # op_error is the certified bound sum_P |Delta_P| instead of an exit 3.
    learned = tmp_path / "learned.json"
    proc = run_cli("learn", "--random", "40,24,1", "--seed", "1", "--out", str(learned))
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.strip().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert rec["success"] == "1"
    truth = random_instance(40, 24, np.random.default_rng(1))
    delta = truth - SparseHamiltonian.load(learned)
    with pytest.raises(CapacityError):
        delta.op_norm()
    assert float(rec["op_error"]) == pytest.approx(sum(map(abs, delta.terms.values())), rel=1e-11)
    assert float(rec["op_error"]) >= float(rec["linf_error"])


def test_vv_stats_csv():
    proc = run_cli("vv-stats", "--set-size", "4", "--r", "2", "--trials", "20000", "--seed", "9")
    assert proc.returncode == 0
    header, row = proc.stdout.strip().splitlines()
    assert header == "set_size,r,mean,variance,p_empty,trials"
    size, r, mean, var, p_empty, trials = row.split(",")
    assert (size, r, trials) == ("4", "2", "20000")
    assert abs(float(mean) - 1.0) < 0.05


def test_empty_or_out_of_range_flags_are_usage_errors(capsys):
    for argv, flag in (
        (["bounds-sweep", "--max-n", "0"], "--max-n"),
        (["vv-stats", "--set-size", "", "--r", "2"], "--set-size"),
        (["vv-stats", "--set-size", "4", "--r", ","], "--r"),
        (["bounds-sweep", "--trials", "-1"], "--trials"),
        (["bounds-sweep", "--trials", "0"], "--trials"),
        (["gen", "--n", "0", "--s", "1"], "qubit count must be positive"),
    ):
        assert exit_code(argv) == 2
        assert flag in capsys.readouterr().err
    # A bad list entry is named together with its flag.
    for argv, flag, token in (
        (["vv-stats", "--set-size", "a", "--r", "2"], "--set-size", "'a'"),
        (["vv-stats", "--set-size", "4", "--r", "2,x"], "--r", "'x'"),
        (["bench", "--s-grid", "a"], "--s-grid", "'a'"),
        (["bench", "--eps-grid", "0.1,zz"], "--eps-grid", "'zz'"),
        (["learn", "--random", "a,3,1"], "--random", "'a'"),
    ):
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and token in err


def test_bounds_sweep_rows():
    proc = run_cli("bounds-sweep", "--trials", "5", "--seed", "2", "--grid", "128")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "trial,check,lhs,rhs,margin"
    assert len(lines) == 1 + 5 * 5  # five checks per trial
    for line in lines[1:]:
        margin = float(line.split(",")[-1])
        assert margin >= -1e-9


def test_bench_contract(tmp_path):
    out1 = tmp_path / "b1.csv"
    out2 = tmp_path / "b2.csv"
    args = [
        "bench", "--s-grid", "2,4", "--eps-grid", "0.1", "--trials", "2",
        "--n", "5", "--seed", "11", "--c0", "8",
    ]
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0].startswith("s,eps,seed,")
    assert len(data) == 1 + 4  # 2 sparsities x 1 eps x 2 trials
    assert any(ln.startswith("# slope_experiments_vs_s_ln_s") for ln in lines)


def test_bench_default_sweep_slopes_in_range():
    # The no-flag sweep must report both scaling slopes inside [0.7, 1.3].
    proc = run_cli("bench", "--trials", "2", "--seed", "31")
    assert proc.returncode == 0, proc.stderr
    slopes = {}
    for line in proc.stdout.splitlines():
        if line.startswith("# slope_"):
            key, value = line[2:].split(",")
            slopes[key] = float(value)
    assert set(slopes) == {"slope_experiments_vs_s_ln_s", "slope_total_time_vs_inverse_eps"}
    for value in slopes.values():
        assert 0.7 <= value <= 1.3


def exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_bench_usage_error(monkeypatch, capsys):
    # Bad grids are rejected before any trial runs.
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran on an invalid grid")

    monkeypatch.setattr(cli.bench_mod, "sweep", no_sweep)
    for s_grid, eps_grid, message in (
        ("", "0.1", "empty"),
        ("1,2", "0.1", "s = 1"),
        ("2,2", "0.1", "distinct"),
        ("2,4", "0.2,0.2", "distinct"),
    ):
        assert exit_code(["bench", "--s-grid", s_grid, "--eps-grid", eps_grid]) == 2
        assert message in capsys.readouterr().err


# Seeded CLI output and ledger, recorded once. A change to them is a change
# to the simulated protocol or its accounting, and must be made on purpose.
PINNED_LEARN_HEADER = (
    "seed,success,linf_error,op_error,experiments,total_time,queries,min_resolution\n"
)
PINNED_LEDGER = """{
  "experiments": 87616543494,
  "total_time": 6023640947.018407,
  "queries": 358877364343584,
  "min_resolution": 3.0517578125e-06,
  "ancilla": 4
}
"""
PINNED = [
    (
        ["learn", "--random", "4,3,7", "--eps", "0.1", "--delta", "0.2", "--seed", "1"],
        PINNED_LEARN_HEADER
        + "1,1,0.000246346758089,0.000362878637522,87616543494,6023640947.02,"
        "358877364343584,3.0517578125e-06\n",
        PINNED_LEDGER,
    ),
    (
        ["learn", "--random", "3,3,5", "--spam", "0.05", "--seed", "2"],
        PINNED_LEARN_HEADER
        + "2,1,0.00443783368404,0.00759343960204,536838799883,36907675591.7,"
        "26386700679415872,3.81469726563e-07\n",
        None,
    ),
    (
        ["learn", "--random", "3,2,9", "--eps", "0.2", "--mode", "trotter", "--seed", "3"],
        PINNED_LEARN_HEADER
        + "3,1,0.000909688499157,0.00106144572505,15121307865,189017717.902,"
        "30968438510592,6.103515625e-06\n",
        None,
    ),
    (
        ["bench", "--s-grid", "2,4", "--eps-grid", "0.1", "--trials", "2",
         "--n", "5", "--seed", "11", "--c0", "8"],
        "s,eps,seed,success,linf_error,l1_error,op_error,experiments,total_time,queries,"
        "min_resolution,ancilla\n"
        "2,0.1,11,1,0.000393747029509,0.000472060021761,0.000401459397701,1058647012,"
        "72782321.6703,2168109281792,6.103515625e-06,5\n"
        "2,0.1,12,1,0.00416563376339,0.0067086538905,0.0067086538905,1058647012,"
        "72782311.0705,2168109021632,6.103515625e-06,5\n"
        "4,0.1,13,1,0.00320530838631,0.00903412889743,0.00685285547805,3021930201,"
        "207758451.592,37133479206208,1.52587890625e-06,5\n"
        "4,0.1,14,1,0.000468589081372,0.00079614569235,0.000704635826618,3715930893,"
        "255471006.501,45661359860576,1.52587890625e-06,5\n"
        "# slope_experiments_vs_s_ln_s,0.835035\n",
        None,
    ),
]


@pytest.mark.parametrize(
    "argv, stdout, ledger", PINNED, ids=["learn", "learn-spam", "learn-trotter", "bench"]
)
def test_seeded_output_is_pinned(tmp_path, capsys, argv, stdout, ledger):
    path = tmp_path / "ledger.json"
    assert cli.main(argv + (["--ledger-out", str(path)] if ledger else [])) == 0
    assert capsys.readouterr().out == stdout
    if ledger:
        assert path.read_text() == ledger


@pytest.mark.parametrize("cmd", [[], ["frobnicate"]])
def test_unknown_command_usage(cmd):
    proc = run_cli(*cmd)
    assert proc.returncode == 2
