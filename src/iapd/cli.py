"""Command-line harness for the benchmark sweeps and certificate re-checks.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 partial
completion (some selected algorithms were skipped).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import bench, diagnostics
from .bench import ALGORITHMS, ExperimentConfig, GeneratedInstance
from .linalg import MatrixMarketError, read_matrix_market
from .proxfuns import L1Norm


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


def _config(parser: argparse.ArgumentParser, args, **fields) -> ExperimentConfig:
    """The run's config from the flags; a value the config rejects is a usage error."""
    algos = tuple(s for s in (tok.strip() for tok in args.algos.split(",")) if s)
    try:
        return ExperimentConfig(
            seed=args.seed, iters=args.iters, lam=args.lam, algorithms=algos, out_dir=args.out,
            t1=args.t1, alpha=args.alpha, beta=args.beta, observer_stride=args.stride, **fields,
        )
    except ValueError as err:
        parser.error(str(err))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iapd",
        description="Saddle-point solver benchmarks and convergence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = list(bench._FAMILIES)

    p_bench = sub.add_parser("bench", help="run a synthetic benchmark sweep")
    p_bench.set_defaults(run=_cmd_bench)
    p_bench.add_argument("experiment", choices=families)
    for flag, axis, what in (("--m", 0, "rows"), ("--n", 1, "cols")):
        shapes = ", ".join(f"{f.shape[axis]} {name}" for name, f in bench._FAMILIES.items())
        p_bench.add_argument(flag, type=int, default=None, help=f"{what} (default {shapes})")
    p_bench.add_argument("--lambda", dest="lam", type=float, default=0.1, help="l1 weight (l1ls)")
    p_bench.add_argument("--density", type=float, default=0.1, help="sparsity density (nnls)")
    _add_common_flags(p_bench)

    p_solve = sub.add_parser("solve", help="solve a user instance from Matrix Market files")
    p_solve.set_defaults(run=_cmd_solve)
    p_solve.add_argument("--matrix", required=True, help="Matrix Market file for K")
    p_solve.add_argument("--rhs", required=True, help="Matrix Market file for b (m-by-1)")
    p_solve.add_argument("--problem", choices=families, default=families[0])
    p_solve.add_argument("--lambda", dest="lam", type=float, default=0.1)
    _add_common_flags(p_solve)

    p_cert = sub.add_parser("certify", help="re-check certificates from a trace CSV")
    p_cert.set_defaults(run=_cmd_certify)
    p_cert.add_argument("--csv", required=True, help="per-algorithm trace CSV")
    p_cert.add_argument("--meta", required=True, help="run_meta.json from the same run")
    p_cert.add_argument("--tol", type=float, default=1e-6,
                        help="relative slack of each bound, in [0, inf)")
    return parser


def _run(cfg: ExperimentConfig, instance: GeneratedInstance | None = None) -> int:
    """Run the sweep, print each algorithm's outcome and return the run's exit status."""
    result = bench.run_benchmark(cfg, instance)
    for name, res in result.results.items():
        if res.skipped:
            print(f"{name}: skipped: {res.skipped}")
        else:
            print(f"{name}: final objective gap {res.final_gap:.6g} ({len(res.rows)} rows)")
    print(f"outputs in {result.out_dir}")
    return result.status


def _cmd_bench(parser, args) -> int:
    m, n = bench._FAMILIES[args.experiment].shape
    m, n = (m if args.m is None else args.m), (n if args.n is None else args.n)
    return _run(_config(parser, args, experiment=args.experiment, m=m, n=n, density=args.density))


def _cmd_solve(parser, args) -> int:
    # Check the flags before reading any file; the shape comes from the matrix.
    cfg = _config(parser, args, experiment=args.problem, m=1, n=1)
    K = read_matrix_market(args.matrix)
    cfg = replace(cfg, m=K.rows, n=K.cols)
    rhs_map = read_matrix_market(args.rhs)
    if rhs_map.cols != 1:
        print(f"error: rhs must be a column vector, got shape {rhs_map.shape}", file=sys.stderr)
        return 1
    b = rhs_map.to_dense()[:, 0]
    if b.shape[0] != K.rows:
        print(f"error: rhs length {b.shape[0]} does not match {K.rows} matrix rows",
              file=sys.stderr)
        return 1

    f1 = bench._FAMILIES[args.problem].f1(args.lam)
    # Of the generators' settings, files leave only the l1 weight that f1 reads.
    settings = {"lambda": args.lam} if isinstance(f1, L1Norm) else {}
    return _run(cfg, GeneratedInstance(bench._saddle_form(f1, K, b), b, name=f"user-{args.problem}",
                                       settings=settings))


def _meta_number(obj: dict, key: str, where: str):
    """A numeric field of run_meta.json; a missing, non-numeric or non-finite one raises ValueError."""
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        what = "a non-numeric field" if key in obj else "no field"
        raise ValueError(f"{where} has {what} {key!r}")
    if not math.isfinite(value):
        raise ValueError(f"{where} has a non-finite field {key!r} ({value})")
    return value


def _cmd_certify(parser, args) -> int:
    if not 0 <= args.tol < math.inf:
        parser.error(f"--tol must be finite and >= 0, got {args.tol}")
    rows = bench.read_csv(args.csv)
    if not rows:
        raise ValueError(f"{args.csv} has no rows")
    try:
        meta = json.loads(Path(args.meta).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"{args.meta} is not JSON: {err}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{args.meta} holds a JSON {type(meta).__name__}, not an object")
    algo = rows.algorithm
    algos = meta.get("algorithms")
    entry = algos.get(algo) if isinstance(algos, dict) else None
    params = entry.get("params") if isinstance(entry, dict) else None
    if not isinstance(params, dict) or "E1" not in params:
        raise ValueError(f"{args.meta} has no energy metadata for algorithm {algo!r}")
    where = f"{args.meta} params of {algo!r}"
    e1, t1, mu_g, beta = (_meta_number(params, k, where) for k in ("E1", "t1", "mu_g", "beta"))
    accuracy, objective = (_meta_number(meta, k, args.meta)
                           for k in ("reference_accuracy", "reference_objective"))
    inflation = diagnostics._reference_inflation(accuracy, objective)
    cert = diagnostics.certify(rows, e1, t1, mu_g, beta, tol=args.tol, inflation=inflation)
    print(f"{algo}: {len(rows)} rows, gap-bound violations {cert.gap_violations}, "
          f"t-lower-bound violations {cert.t_lower_violations}")
    print(f"first violating k: gap bound {cert.first_k.get('gap', 'none')}, "
          f"t-lower bound {cert.first_k.get('t_lower', 'none')}")
    print("dual-distance and v-distance bounds: not checked (the trace CSV has no columns for them)")
    return 0 if cert.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(parser, args)
    except (MatrixMarketError, OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
