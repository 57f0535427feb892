"""Command-line interface: gen, solve, bench and profile subcommands."""

from __future__ import annotations

import argparse
import sys

from .bench import performance_profile, read_matrix_csv, run_benchmark, write_profile_csv
from .problems import ProblemSpec, generate_problem_set, load_problem_set, save_problem_set
from .solvers import SOLVER_KEYS, IterationConfig, SolverSpec, iterate, make_solver

_MEASURES = {"iters": "iterations", "time": "runtime"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circumsolve",
        description="Best-approximation solvers on subspace intersections and their benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem-set file")
    gen.add_argument("--n", type=int, required=True, help="ambient dimension")
    gen.add_argument("--cf-lo", type=float, required=True, help="Friedrichs cosine range start")
    gen.add_argument("--cf-hi", type=float, required=True, help="Friedrichs cosine range end (exclusive)")
    gen.add_argument("--pairs", type=int, required=True, help="number of subspace pairs")
    gen.add_argument("--points", type=int, required=True, help="initial points per pair")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output problem-set path")
    gen.add_argument("--p", type=int, default=None, help="dimension of U1 (default n/4)")
    gen.add_argument("--q", type=int, default=None, help="dimension of U2 (default n/4)")
    gen.add_argument("--r", type=int, default=None, help="intersection dimension (default n/20)")

    solve = sub.add_parser("solve", help="run one solver on one problem")
    solve.add_argument("--problem-set", required=True)
    solve.add_argument("--problem-id", required=True)
    solve.add_argument("--solver", required=True, choices=sorted(SOLVER_KEYS))
    solve.add_argument("--tol", type=float, default=1e-6)
    solve.add_argument("--max-iter", type=int, default=10**6)
    solve.add_argument("--trace", default=None, help="write per-iteration errors to this CSV")

    bench = sub.add_parser("bench", help="run a solver x problem grid")
    bench.add_argument("--problem-set", required=True)
    bench.add_argument("--solvers", required=True, help="comma-separated solver keys")
    bench.add_argument("--measure", choices=sorted(_MEASURES), default="iters")
    bench.add_argument("--tol", type=float, default=1e-6)
    bench.add_argument("--max-iter", type=int, default=10**6)
    bench.add_argument("--out", required=True, help="performance matrix CSV path")

    profile = sub.add_parser("profile", help="performance profile from a matrix CSV")
    profile.add_argument("--matrix", required=True)
    profile.add_argument("--out", required=True)
    return parser


def _cmd_gen(args) -> int:
    spec = ProblemSpec(
        n=args.n,
        p=args.p,
        q=args.q,
        r=args.r,
        cf_range=(args.cf_lo, args.cf_hi),
        pairs=args.pairs,
        points_per_pair=args.points,
        seed=args.seed,
    )
    save_problem_set(generate_problem_set(spec), args.out)
    print(f"wrote {args.pairs * args.points} problems to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    problems = {p.id: p for p in load_problem_set(args.problem_set).problems()}
    if args.problem_id not in problems:
        raise ValueError(f"problem {args.problem_id!r} not in {args.problem_set}")
    problem = problems[args.problem_id]
    spec = SolverSpec.from_key(args.solver)
    solver = make_solver(spec, problem.subspaces)
    cfg = IterationConfig(tol=args.tol, max_iter=args.max_iter)
    trace = iterate(solver.step, solver.init(problem.x0), cfg, problem.reference, monitor=solver.monitor)
    status = "solved" if trace.solved else "unsolved"
    print(
        f"{args.problem_id} {spec.key}: {status} after {trace.iterations} iterations "
        f"(final error {trace.errors[-1]:.3e}, {trace.wall_time * 1e3:.2f} ms)"
    )
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("iteration,error\n")
            for k, err in enumerate(trace.errors):
                fh.write(f"{k},{float(err)!r}\n")
        print(f"wrote trace to {args.trace}")
    return 0 if trace.solved else 2


def _cmd_bench(args) -> int:
    keys = [k.strip() for k in args.solvers.split(",") if k.strip()]
    if not keys:
        raise ValueError(f"--solvers names no solver: {args.solvers!r}")
    cfg = IterationConfig(tol=args.tol, max_iter=args.max_iter)
    matrix_path, profile_path = run_benchmark(
        args.problem_set, keys, cfg, _MEASURES[args.measure], args.out
    )
    print(f"wrote matrix to {matrix_path} and profile to {profile_path}")
    return 0


def _cmd_profile(args) -> int:
    cells = read_matrix_csv(args.matrix)
    has_runtime = any(c.runtime_ns is not None for c in cells)
    curves = performance_profile(cells, measure_kind="runtime" if has_runtime else "iterations")
    write_profile_csv(curves, args.out)
    print(f"wrote profile to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"gen": _cmd_gen, "solve": _cmd_solve, "bench": _cmd_bench, "profile": _cmd_profile}
    try:
        return handlers[args.command](args)
    except Exception as exc:  # CLI contract: nonzero exit with a message
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
