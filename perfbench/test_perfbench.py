"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench_jobs  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the command of BENCHMARK.json with ``args`` in ``cwd``."""
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert set(WORKLOADS) == set(bench_jobs.workloads()) == set(bench_jobs.workloads(smoke=True))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert per_layer == bench_trace.per_layer_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", str(trace),
                "--smoke", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    assert all(type(v["value"]) is float and v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_records_calls_on_every_workload(workload, tmp_path):
    proc = _run("--workload", workload, "--seed", "6", "--seconds", "0.5", "--trace", "1",
                "--smoke", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    metrics = _result(proc)["metrics"]
    for layer, *_ in bench_trace.PROBES:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer


def _shift_distance(monkeypatch):
    import hamlearn.distances

    original = hamlearn.distances.d_T

    def wrong(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, value=res.value + 1e-3)

    monkeypatch.setattr(hamlearn.distances, "d_T", wrong)


def _misreport_learner(monkeypatch):
    import hamlearn.bench

    monkeypatch.setattr(hamlearn.bench, "linf_distance", lambda h1, h2: 0.0)


def _smoke_main(workload: str, out_dir: Path, capsys) -> tuple[int, dict]:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--smoke"]
    code = run.main([*argv, "--out-dir", str(out_dir)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, fault", [("distance", _shift_distance), ("learn-n8", _misreport_learner)]
)
def test_failing_output_check_exits_nonzero(workload, fault, monkeypatch, capsys, tmp_path):
    fault(monkeypatch)
    code, result = _smoke_main(workload, tmp_path, capsys)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_missed_guarantee_lowers_success_rate_without_failing(monkeypatch, capsys, tmp_path):
    import hamlearn.bench

    original = hamlearn.bench.learn_hamiltonian

    def off_by_one(oracle, params, rng):
        res = original(oracle, params, rng)
        p = next(iter(oracle.hamiltonian.terms))
        return dataclasses.replace(res, hamiltonian=res.hamiltonian.add_term(p, 1.0))

    monkeypatch.setattr(hamlearn.bench, "learn_hamiltonian", off_by_one)
    code, result = _smoke_main("learn-n8", tmp_path, capsys)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    report = json.loads((tmp_path / "learn-n8-smoke-seed7-trace0.json").read_text())
    assert report["summary"]["learner.success_rate"] == 0.0


def test_job_that_raises_counts_as_failed_without_failing_the_checks(
    monkeypatch, capsys, tmp_path
):
    import hamlearn.distances

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(hamlearn.distances, "d_B", broken)
    code, result = _smoke_main("distance", tmp_path, capsys)
    assert code == 0
    assert result["correct"] is True and result["failed"] == result["attempted"]
    assert not list(tmp_path.glob("determinism-*"))


def test_determinism_records_skip_jobs_that_raised():
    assert not run.records_differ([[1, 2.5], None], [[1, 2.5], [3, 4.0]])
    assert run.records_differ([[1, 2.5], None], [[1, 2.0], [3, 4.0]])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
