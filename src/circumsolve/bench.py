"""Benchmark harness: solver x problem grids and Dolan-More profiles.

Two performance measures are supported: the iteration count of the first
monitored iterate within tolerance of the reference, and the wall-clock time
of the solve loop (minimum of three repetitions, to damp scheduler noise).
Iteration-based results are bit-deterministic for a fixed problem file; the
worker count is taken from the CIRCUMSOLVE_WORKERS environment variable and
timing runs are always executed one at a time.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .problems import Problem, load_problem_set
from .solvers import DivergenceError, IterationConfig, SolverSpec, iterate, make_solver

MEASURE_KINDS = ("iterations", "runtime")

MATRIX_COLUMNS = ("problem_id", "solver", "solved", "iterations", "runtime_ns")

# A runtime cell is the fastest of this many solves.
RUNTIME_REPEATS = 3


@dataclass(frozen=True)
class PerformanceCell:
    """One (problem, solver) measurement; unsolved cells carry ``None``."""

    problem_id: str
    solver_key: str
    solved: bool
    iterations: int | None
    runtime_ns: int | None


@dataclass(frozen=True)
class ProfileCurve:
    solver_key: str
    breakpoints: tuple[tuple[float, float], ...]


def measure(
    problem: Problem,
    spec: SolverSpec,
    cfg: IterationConfig,
    measure_kind: str = "iterations",
) -> PerformanceCell:
    """Run one solver on one problem and record the chosen measure.

    Divergence and iteration-budget exhaustion both yield an unsolved cell;
    runtimes are only recorded for solved runs and under the runtime
    measure.
    """
    if measure_kind not in MEASURE_KINDS:
        raise ValueError(f"unknown measure {measure_kind!r}")
    solver = make_solver(spec, problem.subspaces)
    x0 = solver.init(problem.x0)
    try:
        trace = iterate(solver.step, x0, cfg, problem.reference, monitor=solver.monitor)
    except DivergenceError as exc:
        warnings.warn(f"{spec.key} diverged on {problem.id}: {exc}")
        return PerformanceCell(problem.id, spec.key, False, None, None)
    if not trace.solved:
        return PerformanceCell(problem.id, spec.key, False, None, None)
    runtime_ns = None
    if measure_kind == "runtime":
        walls = [trace.wall_time]
        for _ in range(RUNTIME_REPEATS - 1):
            walls.append(iterate(solver.step, x0, cfg, problem.reference, monitor=solver.monitor).wall_time)
        runtime_ns = int(min(walls) * 1e9)
    return PerformanceCell(problem.id, spec.key, True, trace.iterations, runtime_ns)


def _worker_count() -> int:
    raw = os.environ.get("CIRCUMSOLVE_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"CIRCUMSOLVE_WORKERS must be an integer of at least 1, got {raw!r}")
    return workers


def run_grid(
    problems: list[Problem],
    solver_keys: list[str],
    cfg: IterationConfig,
    measure_kind: str = "iterations",
) -> list[PerformanceCell]:
    """Measure every solver on every problem, in problem-major order.

    Cells are computed independently; with CIRCUMSOLVE_WORKERS > 1 and the
    iteration measure they are dispatched to a thread pool (results are
    reassembled in order, so the output never depends on scheduling).  A
    CIRCUMSOLVE_WORKERS value that is not an integer of at least 1 raises
    ``ValueError``.
    """
    workers = _worker_count()
    specs = [SolverSpec.from_key(k) for k in solver_keys]
    jobs = [(p, s) for p in problems for s in specs]
    if workers > 1 and measure_kind == "iterations":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(lambda job: measure(job[0], job[1], cfg, measure_kind), jobs))
    else:
        # timing fidelity: keep a single active measurement at a time
        cells = [measure(p, s, cfg, measure_kind) for p, s in jobs]
    return cells


def performance_profile(
    cells: list[PerformanceCell],
    solver_keys: list[str] | None = None,
    measure_kind: str = "iterations",
) -> list[ProfileCurve]:
    """Dolan-More performance profiles from a grid of cells.

    For each problem the ratio of a solver's measure to the best solver's
    measure is formed (unsolved cells get ratio infinity); rho_s(tau) is the
    fraction of problems with ratio at most tau.  Curves share a breakpoint
    grid containing every finite ratio.  Problems unsolved by every solver
    are excluded with a warning since their best measure is undefined.
    """
    if measure_kind not in MEASURE_KINDS:
        raise ValueError(f"unknown measure {measure_kind!r}")
    if solver_keys is None:
        solver_keys = list(dict.fromkeys(c.solver_key for c in cells))
    problem_ids = list(dict.fromkeys(c.problem_id for c in cells))
    value = {}
    for c in cells:
        t = c.iterations if measure_kind == "iterations" else c.runtime_ns
        value[(c.problem_id, c.solver_key)] = t if c.solved else None

    ratios: dict[str, list[float]] = {s: [] for s in solver_keys}
    kept = 0
    for pid in problem_ids:
        ts = [value.get((pid, s)) for s in solver_keys]
        finite = [t for t in ts if t is not None]
        if not finite:
            warnings.warn(f"problem {pid} unsolved by every solver; excluded from profile")
            continue
        kept += 1
        best = min(finite)
        for s, t in zip(solver_keys, ts):
            if t is None:
                ratios[s].append(math.inf)
            elif best == 0:
                ratios[s].append(1.0 if t == 0 else math.inf)
            else:
                ratios[s].append(t / best)
    if kept == 0:
        raise ValueError("no problem was solved by any solver")

    taus = sorted({r for rs in ratios.values() for r in rs if math.isfinite(r)})
    curves = []
    for s in solver_keys:
        rs = ratios[s]
        points = tuple((tau, sum(r <= tau for r in rs) / kept) for tau in taus)
        curves.append(ProfileCurve(s, points))
    return curves


def write_matrix_csv(cells: list[PerformanceCell], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MATRIX_COLUMNS)
        for c in cells:
            writer.writerow(
                [
                    c.problem_id,
                    c.solver_key,
                    "true" if c.solved else "false",
                    "" if c.iterations is None else c.iterations,
                    "" if c.runtime_ns is None else c.runtime_ns,
                ]
            )


def read_matrix_csv(path) -> list[PerformanceCell]:
    cells = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != MATRIX_COLUMNS:
            raise ValueError(f"unexpected matrix CSV columns: {reader.fieldnames}")
        for row in reader:
            cells.append(
                PerformanceCell(
                    row["problem_id"],
                    row["solver"],
                    row["solved"] == "true",
                    int(row["iterations"]) if row["iterations"] else None,
                    int(row["runtime_ns"]) if row["runtime_ns"] else None,
                )
            )
    return cells


def write_profile_csv(curves: list[ProfileCurve], path) -> None:
    taus = curves[0].breakpoints if curves else ()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "log2_tau"] + [f"rho_{c.solver_key}" for c in curves])
        for i, (tau, _) in enumerate(taus):
            writer.writerow(
                [repr(tau), repr(math.log2(tau))] + [repr(c.breakpoints[i][1]) for c in curves]
            )


def run_benchmark(
    problems_path,
    solver_keys: list[str],
    cfg: IterationConfig,
    measure_kind: str = "iterations",
    out_path="bench.csv",
) -> tuple[Path, Path]:
    """Full benchmark: load problems, run the grid, write both CSVs.

    The performance matrix goes to ``out_path`` and the derived profile to
    ``out_path`` with a ``.profile.csv`` suffix; both paths are returned.
    """
    problems = load_problem_set(problems_path).problems()
    cells = run_grid(problems, solver_keys, cfg, measure_kind)
    out_path = Path(out_path)
    write_matrix_csv(cells, out_path)
    keys = [SolverSpec.from_key(k).key for k in solver_keys]
    curves = performance_profile(cells, keys, measure_kind)
    profile_path = out_path.with_suffix(".profile.csv")
    write_profile_csv(curves, profile_path)
    return out_path, profile_path
