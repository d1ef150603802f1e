"""Command-line front end: gen, learn, distance, bounds-sweep, vv-stats, bench.

Every run is fully determined by its flags and seed; re-running reproduces
byte-identical output. Exit codes: 0 success, 2 usage error, 3 capacity
error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench as bench_mod
from . import distances as dist_mod
from .errors import CapacityError
from .hamiltonian import SparseHamiltonian, random_instance
from .isolation import vv_statistics
from .learner import LearnerParams, learn_hamiltonian
from .oracle import EvolutionOracle, OracleConfig


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_hamiltonian(path: str) -> SparseHamiltonian:
    try:
        return SparseHamiltonian.load(path)
    except (OSError, ValueError, KeyError) as exc:
        _usage_error(f"cannot load Hamiltonian from {path}: {exc}")


def _number_list(text: str, flag: str, kind: type) -> list:
    """Comma-separated numbers of ``flag``; a bad entry is a usage error naming both."""
    try:
        return [kind(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        _usage_error(f"{flag} takes comma-separated numbers: {exc}")


# -- subcommands -----------------------------------------------------------


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    h = random_instance(
        args.n, args.s, rng, coeff_range=args.coeff_range, coeff_floor=args.coeff_floor
    )
    _write(args.out, json.dumps(h.to_json_dict(), indent=2) + "\n")
    return 0


def _cmd_learn(args) -> int:
    if (args.hamiltonian is None) == (args.random is None):
        _usage_error("provide exactly one of --hamiltonian or --random")
    if args.random is not None:
        try:
            n, s, gen_seed = _number_list(args.random, "--random", int)
        except ValueError:
            _usage_error("--random expects n,s,seed")
        h = random_instance(n, s, np.random.default_rng(gen_seed))
    else:
        h = _load_hamiltonian(args.hamiltonian)

    s_bound = args.s_bound if args.s_bound is not None else max(1, h.sparsity)
    seq = np.random.SeedSequence(args.seed)
    oracle_rng, learner_rng = (np.random.default_rng(c) for c in seq.spawn(2))
    oracle = EvolutionOracle(
        h, OracleConfig(mode=args.mode, spam_lambda=args.spam), rng=oracle_rng
    )
    params = LearnerParams(s_bound=s_bound, eps=args.eps, delta=args.delta)
    result = learn_hamiltonian(oracle, params, learner_rng)

    if args.out is not None:
        _write(args.out, json.dumps(result.hamiltonian.to_json_dict(), indent=2) + "\n")
    if args.ledger_out is not None:
        _write(args.ledger_out, json.dumps(result.ledger.to_json_dict(), indent=2) + "\n")

    rec = bench_mod.trial_record(h, result, s=h.sparsity, eps=args.eps, seed=args.seed)
    header = "seed,success,linf_error,op_error,experiments,total_time,queries,min_resolution"
    print(header)
    print(rec.csv_row(header.split(",")))
    return 0


def _cmd_distance(args) -> int:
    h1 = _load_hamiltonian(args.h1)
    h2 = _load_hamiltonian(args.h2)
    if args.kind == "time":
        result = dist_mod.d_T(h1, h2, args.budget, grid=args.grid)
    else:
        result = dist_mod.d_B(h1, h2, args.budget, grid=args.grid)
    _write(args.out, json.dumps(result.to_json_dict(), indent=2) + "\n")
    return 0


def _cmd_bounds_sweep(args) -> int:
    for flag, value in (("--max-n", args.max_n), ("--trials", args.trials)):
        if value < 1:
            _usage_error(f"{flag} must be >= 1, got {value}")
    rng = np.random.default_rng(args.seed)
    lines = ["trial,check,lhs,rhs,margin"]
    for trial in range(args.trials):
        n = int(rng.integers(1, args.max_n + 1))
        s = int(rng.integers(1, min(6, 4**n - 1) + 1))
        h1 = random_instance(n, s, rng, coeff_floor=0.05)
        h2 = random_instance(n, s, rng, coeff_floor=0.05)
        scale1 = max(1.0, h1.op_norm())
        scale2 = max(1.0, h2.op_norm())
        h1 = h1.scaled(1.0 / scale1)
        h2 = h2.scaled(1.0 / scale2)
        gap = (h1 - h2).op_norm()

        dt = dist_mod.d_T(h1, h2, args.time_budget, grid=args.grid)
        upper = np.sin(min(np.pi / 2, args.time_budget * gap))
        lower = gap * min(args.time_budget, 1 / (4 * np.pi)) / (4 * np.pi) - dt.grid_error
        db = dist_mod.d_B(h1, h2, args.temp_budget, grid=args.grid)
        db_upper = 0.5 * args.temp_budget * gap + db.grid_error
        lhs_g, rhs_new, rhs_old = dist_mod.gibbs_trace_bound_check(h1, h2)

        for check, lhs, rhs in (
            ("dT_upper", dt.value, float(upper)),
            ("dT_lower", float(lower), dt.value),
            ("dB_upper", db.value, float(db_upper)),
            ("gibbs_new", lhs_g, rhs_new),
            ("gibbs_old", rhs_new, rhs_old),
        ):
            lines.append(bench_mod.csv_row(trial, check, lhs, rhs, rhs - lhs))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_vv_stats(args) -> int:
    sizes, rs = _number_list(args.set_size, "--set-size", int), _number_list(args.r, "--r", int)
    for flag, values in (("--set-size", sizes), ("--r", rs)):
        if not values:
            _usage_error(f"{flag} needs at least one value")
    rng = np.random.default_rng(args.seed)
    lines = ["set_size,r,mean,variance,p_empty,trials"]
    for size in sizes:
        for r in rs:
            st = vv_statistics(size, r, args.trials, rng, m=args.m)
            lines.append(bench_mod.csv_row(size, r, st.mean, st.variance, st.p_empty, st.trials))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_bench(args) -> int:
    s_grid = _number_list(args.s_grid, "--s-grid", int)
    eps_grid = _number_list(args.eps_grid, "--eps-grid", float)
    if not s_grid or not eps_grid:
        _usage_error("empty sweep grid")
    # A slope is fitted over any grid with two or more values; check it
    # before the sweep runs.
    for flag, grid in (("--s-grid", s_grid), ("--eps-grid", eps_grid)):
        if len(grid) >= 2 and len(set(grid)) < len(grid):
            _usage_error(f"{flag} values must be distinct to fit a slope")
    if len(s_grid) >= 2 and min(s_grid) < 2:
        _usage_error(f"a slope over --s-grid needs every s >= 2, got s = {min(s_grid)}")
    rows = bench_mod.sweep(
        s_grid,
        eps_grid,
        trials=args.trials,
        base_seed=args.seed,
        n=args.n,
        delta=args.delta,
        spam_lambda=args.spam,
        support_rounds_c0=args.c0,
    )
    lines = [",".join(bench_mod.TrialRecord.CSV_FIELDS)]
    lines.extend(row.csv_row() for row in rows)
    if len(s_grid) >= 2:
        lines.append(f"# slope_experiments_vs_s_ln_s,{bench_mod.experiments_slope(rows):.6g}")
    if len(eps_grid) >= 2:
        lines.append(f"# slope_total_time_vs_inverse_eps,{bench_mod.evolution_time_slope(rows):.6g}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamlearn",
        description="Sparse-Hamiltonian learning simulator and distance toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random sparse Hamiltonian JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coeff-range", type=float, default=1.0)
    p.add_argument("--coeff-floor", type=float, default=0.1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("learn", help="run the full learner against a Hamiltonian")
    p.add_argument("--hamiltonian", default=None, help="JSON file with the true Hamiltonian")
    p.add_argument("--random", default=None, metavar="N,S,SEED", help="random instance instead")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--spam", type=float, default=0.0)
    p.add_argument("--mode", choices=("exact", "trotter"), default="exact")
    p.add_argument("--s-bound", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="learned Hamiltonian JSON path")
    p.add_argument("--ledger-out", default=None, help="ledger JSON path")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("distance", help="constrained distance between two Hamiltonians")
    p.add_argument("--kind", choices=("time", "temperature"), required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument(
        "--grid",
        type=int,
        default=dist_mod.DEFAULT_GRID,
        help="resolution of the supremum search: at most GRID objective evaluations, "
        "certified error at most K*budget/GRID for the distance's Lipschitz slope K",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("bounds-sweep", help="randomized sweep of all distance bounds")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument(
        "--grid", type=int, default=512, help="resolution of both distance searches"
    )
    p.add_argument("--time-budget", type=float, default=1.0)
    p.add_argument("--temp-budget", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds_sweep)

    p = sub.add_parser("vv-stats", help="survivor statistics of random GF(2) filtering")
    p.add_argument("--set-size", required=True, help="comma-separated sizes")
    p.add_argument("--r", required=True, help="comma-separated filter counts")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_vv_stats)

    p = sub.add_parser("bench", help="resource-scaling sweep over sparsity and accuracy")
    # The eps grid spans a near-decade so the tenfold-refinement staircase
    # averages into the expected 1/eps time scaling.
    p.add_argument("--s-grid", default="2,4,8")
    p.add_argument("--eps-grid", default="0.2,0.1,0.05,0.025")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--spam", type=float, default=0.0)
    p.add_argument("--c0", type=float, default=64.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SystemExit:
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
