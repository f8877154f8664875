"""Command-line harness for the benchmark sweeps and certificate re-checks.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 partial
completion (some selected algorithms were skipped).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench, diagnostics
from .bench import ALGORITHMS, ExperimentConfig, GeneratedInstance
from .linalg import MatrixMarketError, read_matrix_market
from .problem import SaddleProblem
from .proxfuns import L1Norm, NonnegIndicator, ShiftedQuadratic, ZeroSmooth


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="instance seed")
    p.add_argument("--iters", type=int, default=2000, help="iteration budget per solver")
    p.add_argument("--algos", default=",".join(ALGORITHMS),
                   help="comma-separated subset of " + ",".join(ALGORITHMS))
    p.add_argument("--out", default="bench-out", help="output directory")
    p.add_argument("--stride", type=int, default=1, help="observer stride for trace rows")
    p.add_argument("--t1", type=float, default=None, help="override initial extrapolation scalar")
    p.add_argument("--alpha", type=float, default=None, help="override primal step")
    p.add_argument("--beta", type=float, default=None, help="override dual step")


def _parse_algos(parser: argparse.ArgumentParser, spec: str) -> tuple[str, ...]:
    names = tuple(s for s in (tok.strip() for tok in spec.split(",")) if s)
    for name in names:
        if name not in ALGORITHMS:
            parser.error(f"unknown algorithm {name!r}; choose from {','.join(ALGORITHMS)}")
    if not names:
        parser.error("empty algorithm set")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iapd",
        description="Saddle-point solver benchmarks and convergence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run a synthetic benchmark sweep")
    p_bench.add_argument("experiment", choices=["l1ls", "nnls"])
    p_bench.add_argument("--m", type=int, default=None, help="rows (default 200 l1ls, 400 nnls)")
    p_bench.add_argument("--n", type=int, default=None, help="cols (default 400 l1ls, 200 nnls)")
    p_bench.add_argument("--lambda", dest="lam", type=float, default=0.1, help="l1 weight (l1ls)")
    p_bench.add_argument("--density", type=float, default=0.1, help="sparsity density (nnls)")
    _add_common_flags(p_bench)

    p_solve = sub.add_parser("solve", help="solve a user instance from Matrix Market files")
    p_solve.add_argument("--matrix", required=True, help="Matrix Market file for K")
    p_solve.add_argument("--rhs", required=True, help="Matrix Market file for b (m-by-1)")
    p_solve.add_argument("--problem", choices=["l1ls", "nnls"], default="l1ls")
    p_solve.add_argument("--lambda", dest="lam", type=float, default=0.1)
    _add_common_flags(p_solve)

    p_cert = sub.add_parser("certify", help="re-check certificates from a trace CSV")
    p_cert.add_argument("--csv", required=True, help="per-algorithm trace CSV")
    p_cert.add_argument("--meta", required=True, help="run_meta.json from the same run")
    p_cert.add_argument("--tol", type=float, default=1e-6)
    return parser


def _report(result: bench.BenchResult) -> None:
    for name, res in result.results.items():
        if res.skipped:
            print(f"{name}: skipped: {res.skipped}")
        else:
            print(f"{name}: final objective gap {res.final_gap:.6g} ({len(res.rows)} rows)")
    print(f"outputs in {result.out_dir}")


def _cmd_bench(parser, args) -> int:
    algos = _parse_algos(parser, args.algos)
    m = args.m if args.m is not None else (200 if args.experiment == "l1ls" else 400)
    n = args.n if args.n is not None else (400 if args.experiment == "l1ls" else 200)
    cfg = ExperimentConfig(
        experiment=args.experiment, m=m, n=n, seed=args.seed, iters=args.iters,
        lam=args.lam, density=args.density, algorithms=algos, out_dir=args.out,
        t1=args.t1, alpha=args.alpha, beta=args.beta, observer_stride=args.stride,
    )
    result = bench.run_benchmark(cfg)
    _report(result)
    return result.status


def _cmd_solve(parser, args) -> int:
    algos = _parse_algos(parser, args.algos)
    K = read_matrix_market(args.matrix)
    rhs_map = read_matrix_market(args.rhs)
    if rhs_map.cols != 1:
        print(f"error: rhs must be a column vector, got shape {rhs_map.shape}", file=sys.stderr)
        return 1
    b = rhs_map.to_dense()[:, 0]
    if b.shape[0] != K.rows:
        print(f"error: rhs length {b.shape[0]} does not match {K.rows} matrix rows",
              file=sys.stderr)
        return 1

    f1 = L1Norm(args.lam) if args.problem == "l1ls" else NonnegIndicator()
    problem = SaddleProblem(f1=f1, f2=ZeroSmooth(), g1=ShiftedQuadratic(b),
                            g2=ZeroSmooth(), K=K)
    instance = GeneratedInstance(problem, b, planted=b * 0.0, name=f"user-{args.problem}")
    cfg = ExperimentConfig(
        experiment=args.problem, m=K.rows, n=K.cols, seed=args.seed, iters=args.iters,
        lam=args.lam, algorithms=algos, out_dir=args.out,
        t1=args.t1, alpha=args.alpha, beta=args.beta, observer_stride=args.stride,
    )
    result = bench.run_benchmark(cfg, instance=instance)
    _report(result)
    return result.status


def _cmd_certify(args) -> int:
    rows = bench.read_csv(args.csv)
    if not rows:
        print(f"error: {args.csv} has no rows", file=sys.stderr)
        return 1
    meta = json.loads(Path(args.meta).read_text(encoding="utf-8"))
    algo = rows[0].algorithm
    entry = meta.get("algorithms", {}).get(algo)
    if not entry or "E1" not in entry.get("params", {}):
        print(f"error: {args.meta} has no energy metadata for algorithm {algo!r}",
              file=sys.stderr)
        return 1
    params = entry["params"]
    inflation = diagnostics._reference_inflation(meta["reference_accuracy"],
                                                 meta["reference_objective"])
    cert = diagnostics.certify(diagnostics._trace_reports(rows, params["E1"]), params["t1"],
                               params["mu_g"] * params["beta"], tol=args.tol, inflation=inflation)
    print(f"{algo}: {len(rows)} rows, gap-bound violations {cert.gap_violations}, "
          f"t-lower-bound violations {cert.t_lower_violations}")
    print("dual-distance and v-distance bounds: not checked (the trace CSV has no columns for them)")
    return 0 if cert.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(parser, args)
        if args.command == "solve":
            return _cmd_solve(parser, args)
        if args.command == "certify":
            return _cmd_certify(args)
    except (MatrixMarketError, OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
