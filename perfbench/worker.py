"""One workload process: set-up, the verified grid, the timed window and the layer probes.

run.py starts this with a cleaned environment and reads the JSON object on
its last output line.  ``--mode setup`` stops after set-up, so run.py can take
several cold set-up samples; ``--mode run`` goes on to the grid.

A cell is one (problem, solver) solve to tolerance TOL with true-error
stopping.  The verification pass solves every cell once through
``make_solver`` and ``iterate`` and checks it from outside; it also warms
caches.  The timed window then repeats cells through ``bench.measure`` in a
seeded order, pass after pass, until its time is up, and checks each count
against the verification pass.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"

PROBE_PROBLEMS = 2  # problems every solver is probed on in a traced run
PROBE_POINTS = 200  # recorded iterates timed per probe, at most
PROBE_REPEATS = 3  # repeats of each one-shot layer call in a traced run


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def import_circumsolve() -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import circumsolve

    elapsed = time.perf_counter() - start
    where = Path(circumsolve.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"circumsolve was imported from {where}, not from {ROOT / 'src'}")
    return elapsed


def setup(w, size, seed: int, tr, tag: str):
    """Generation, the JSON round trip and the references; returns problems, parts and failures."""
    from circumsolve import load_problem_set, reference_solution, save_problem_set
    from checks import same_problem_set
    import workloads as wl

    parts, failures = {}, []
    path = OUT / f"problems-{tag}.json"
    t = time.perf_counter()
    if w.pairs:
        with tr.span("problems.generate_problem_set"):
            generated = wl.generate_pairs(w, size, seed)
        parts["generate_s"] = time.perf_counter() - t
    else:
        with tr.span("linalg.AffineSubspace"):
            groups = wl.generate_many(size, seed)
            starts = wl.many_start_points(size, seed)
        parts["generate_s"] = time.perf_counter() - t
        t = time.perf_counter()
        with tr.span("problems.reference_solution"):
            refs = [[reference_solution(subs, x0) for x0 in pts] for subs, pts in zip(groups, starts)]
        parts["references_s"] = time.perf_counter() - t
        generated = wl.pair_projection(groups, starts, refs)
    t = time.perf_counter()
    with tr.span("problems.save_problem_set"):
        save_problem_set(generated, path)
    parts["save_s"] = time.perf_counter() - t
    t = time.perf_counter()
    with tr.span("problems.load_problem_set"):
        loaded = load_problem_set(path)
    parts["load_s"] = time.perf_counter() - t
    parts["file_mb"] = path.stat().st_size / 1e6
    path.unlink()
    if not same_problem_set(generated, loaded):
        failures.append("problem set changed in the JSON round trip")
    problems = loaded.problems() if w.pairs else wl.many_problems(groups, starts, refs)
    return problems, parts, failures


def solve_cell(problem, key, tr, record=False, subspaces=None, reference=None):
    """make_solver + iterate with a span around each call and each step.

    Returns the trace and the final monitored iterate's distance to the reference.
    """
    import numpy as np
    from circumsolve import IterationConfig, SolverSpec, iterate, make_solver
    from workloads import TOL

    subspaces = problem.subspaces if subspaces is None else subspaces
    reference = problem.reference if reference is None else reference
    tr.new_group()
    with tr.span("solvers.make_solver", solver=key):
        solver = make_solver(SolverSpec.from_key(key), subspaces)
    last = [solver.init(problem.x0)]

    def step(x):
        with tr.span("solvers.step", solver=key):
            last[0] = solver.step(x)
        return last[0]

    with tr.span("solvers.iterate", solver=key) as rec:
        trace = iterate(step, last[0], IterationConfig(tol=TOL, record_trace=record), reference,
                        monitor=solver.monitor)
    rec["attrs"]["iterations"] = trace.iterations
    rec["attrs"]["wall_ns"] = int(trace.wall_time * 1e9)
    err = float(np.linalg.norm(solver.monitor(last[0]) - reference))
    return trace, err


def cell_failure(trace, err) -> str | None:
    from workloads import TOL

    if not trace.solved:
        return f"unsolved after {trace.iterations} iterations"
    if not err <= TOL:
        return f"final error {err:.3e} above tolerance"
    return None


def verify_grid(problems, solvers):
    """Solve every cell once; returns the iteration matrix and {failed cell: reason}."""
    from tracing import Tracer

    matrix, failed = {}, {}
    for p in problems:
        for key in solvers:
            try:
                trace, err = solve_cell(p, key, Tracer())
            except Exception as exc:  # a raising cell is a failed cell, reported with its reason
                matrix[(p.id, key)] = None
                failed[(p.id, key)] = f"{type(exc).__name__}: {exc}"
                continue
            matrix[(p.id, key)] = trace.iterations
            msg = cell_failure(trace, err)
            if msg:
                failed[(p.id, key)] = msg
    return matrix, failed


def timed_window(problems, solvers, matrix, seconds, seed, tr=None):
    """Cells in seeded passes until ``seconds`` have elapsed, and at least one whole pass.

    Untraced, each cell is one ``bench.measure`` call; traced, it is the same
    make_solver + iterate work with a span around each call and each step.
    """
    from circumsolve import IterationConfig, SolverSpec, measure
    from workloads import TOL

    cfg = IterationConfig(tol=TOL)
    jobs = [(p, key) for p in problems for key in solvers]
    order = random.Random(seed)
    samples, keys, failures = [], [], []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        passes += 1
        order.shuffle(jobs)
        for p, key in jobs:
            keys.append(key)
            t = time.perf_counter_ns()
            try:
                if tr is None:
                    cell = measure(p, SolverSpec.from_key(key), cfg)
                    solved, iters = cell.solved, cell.iterations
                else:
                    trace, _ = solve_cell(p, key, tr)
                    solved, iters = trace.solved, trace.iterations
            except Exception as exc:
                failures.append(f"{key} on {p.id}: {type(exc).__name__}: {exc}")
                continue
            finally:
                samples.append(time.perf_counter_ns() - t)
            if not solved or iters != matrix[(p.id, key)]:
                failures.append(f"{key} on {p.id}: timed run gave {iters} iterations, "
                                f"verification pass {matrix[(p.id, key)]}")
            if passes > 1 and time.perf_counter() >= deadline:
                break
    wall = time.perf_counter() - start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return {"cells": len(samples), "wall_s": wall, "cpu_s": cpu,
            "samples_ms": [s * 1e-6 for s in samples], "keys": keys, "failures": failures}


def probe_layers(w, problems, matrix, tr, tag):
    """Per-layer timings on the first problems, for every solver; returns failure messages."""
    import numpy as np
    from circumsolve import (
        Compose,
        Identity,
        OperatorSet,
        PerformanceCell,
        ProblemSpec,
        Reflector,
        circumcenter_points,
        dr_operator,
        friedrichs_cosine,
        IterationConfig,
        gen_subspace_pair,
        intersect,
        lift_to_product,
        performance_profile,
        reference_solution,
        reflection_set,
        run_grid,
    )
    from circumsolve.bench import write_matrix_csv, write_profile_csv
    import workloads as wl

    failures = []

    def close(a, b):
        return float(np.linalg.norm(a - b)) <= 1e-9 * (1.0 + float(np.linalg.norm(b)))

    # many-subspaces has no pair generator of its own; time the generator at its n
    spec = ProblemSpec(n=w.n, cf_range=w.cf_range or (0.01, 0.5), pairs=1, points_per_pair=0)
    for i in range(PROBE_REPEATS):
        with tr.span("problems.gen_subspace_pair"):
            gen_subspace_pair(spec, i)

    for p in problems[:PROBE_PROBLEMS]:
        u1, u2 = p.subspaces[:2]
        for _ in range(PROBE_REPEATS):
            with tr.span("linalg.intersect", lifted=False):
                intersect(u1, u2)
            with tr.span("linalg.friedrichs_cosine"):
                friedrichs_cosine(u1.direction, u2.direction)
            with tr.span("operators.reflection_set"):
                reflection_set("s1", p.subspaces)
        for key in wl.ALL_SOLVERS:
            subs, ref = p.subspaces, p.reference
            if key in wl.PAIR_ONLY and len(subs) > 2:
                subs = subs[:2]
                with tr.span("problems.reference_solution"):
                    ref = reference_solution(subs, p.x0)
            try:
                trace, err = solve_cell(p, key, tr, record=True, subspaces=subs, reference=ref)
            except Exception as exc:
                failures.append(f"probe {key} on {p.id}: {type(exc).__name__}: {exc}")
                continue
            msg = cell_failure(trace, err)
            if msg:
                failures.append(f"probe {key} on {p.id}: {msg}")
            xs = trace.iterates
            pick = np.unique(np.linspace(0, len(xs) - 2, min(PROBE_POINTS, len(xs) - 1)).astype(int))
            if key in wl.CRM_SOLVERS:
                if key == "product-crm":
                    C, D = lift_to_product(subs)
                    with tr.span("linalg.intersect", lifted=True):
                        fix = intersect(C, D)
                    S = OperatorSet((Identity(), Compose((Reflector(C), Reflector(D)))), fixed=fix)
                else:
                    with tr.span("operators.reflection_set"):
                        S = reflection_set(key[-2:], subs)
                for k in pick:
                    with tr.span("operators.points", solver=key):
                        P = S.points(xs[k])
                    with tr.span("circumcenter.points", solver=key) as rec:
                        res = circumcenter_points(P)
                    rec["attrs"]["residual"] = res.residual
                    if res.value is None or not close(res.value, xs[k + 1]):
                        failures.append(f"probe {key} on {p.id}: circumcenter of step {k} "
                                        "does not reproduce the solver's next iterate")
                        break
            elif key == "drm":
                T = dr_operator(*subs)
                for k in pick:
                    with tr.span("operators.dr"):
                        y = T(xs[k])
                    if not close(y, xs[k + 1]):
                        failures.append(f"probe drm on {p.id}: DR step {k} differs from the solver's")
                        break
            else:
                for k in pick:
                    for s in subs:
                        with tr.span("linalg.project"):
                            s.project(xs[k])

    cells = [PerformanceCell(pid, key, it is not None, it, None) for (pid, key), it in matrix.items()]
    for _ in range(PROBE_REPEATS):
        with tr.span("bench.profile"):
            with tr.span("bench.performance_profile"):
                curves = performance_profile(cells, list(w.solvers))
            with tr.span("bench.write_matrix_csv"):
                write_matrix_csv(cells, OUT / f"matrix-{tag}.csv")
            with tr.span("bench.write_profile_csv"):
                write_profile_csv(curves, OUT / f"profile-{tag}.csv")
    (OUT / f"matrix-{tag}.csv").unlink()
    (OUT / f"profile-{tag}.csv").unlink()

    grid_slice = problems[:PROBE_PROBLEMS]
    for workers in ("1", "2"):
        os.environ["CIRCUMSOLVE_WORKERS"] = workers
        try:
            with tr.span("bench.run_grid", workers=workers):
                got = run_grid(grid_slice, list(w.solvers), IterationConfig(tol=wl.TOL))
        finally:
            del os.environ["CIRCUMSOLVE_WORKERS"]
        for c in got:
            if c.iterations != matrix[(c.problem_id, c.solver_key)]:
                failures.append(f"run_grid with {workers} workers: {c.solver_key} on "
                                f"{c.problem_id} took {c.iterations} iterations")
    return failures


def layer_metrics(w, tr, matrix, parts, probe_iters, untraced, traced) -> dict:
    """The per-layer metrics; one whose calls all failed is left out, and run.py reports it."""
    import workloads as wl

    dur = {}
    for s in tr.spans:
        key = (s["name"], s["attrs"].get("solver"), s["attrs"].get("lifted"), s["attrs"].get("workers"))
        dur.setdefault(key, []).append(s["end"] - s["start"])

    def p50_of(name, solver=None, lifted=None, workers=None, scale=1e-6):
        xs = dur.get((name, solver, lifted, workers))
        return p50(xs) * scale if xs else None

    covered = tr.children_ns()
    driver = {}
    for s in tr.spans:
        if s["name"] == "solvers.iterate" and s["attrs"]["iterations"]:
            a = s["attrs"]
            driver.setdefault(a["solver"], []).append(
                (a["wall_ns"] - covered[s["id"]]) * 1e-3 / a["iterations"])

    m = {
        "problems.gen_pair_ms": p50_of("problems.gen_subspace_pair"),
        "problems.save_s": parts["save_s"],
        "problems.load_s": parts["load_s"],
        "problems.file_mb": parts["file_mb"],
        "linalg.intersect_ms": p50_of("linalg.intersect", lifted=False),
        "linalg.intersect_ms.lifted": p50_of("linalg.intersect", lifted=True),
        "linalg.friedrichs_ms": p50_of("linalg.friedrichs_cosine"),
        "linalg.project_us": p50_of("linalg.project", scale=1e-3),
        "operators.reflection_set_ms": p50_of("operators.reflection_set"),
        "operators.dr_us": p50_of("operators.dr", scale=1e-3),
        "circumcenter.residual_max": max((s["attrs"]["residual"] for s in tr.spans
                                          if s["name"] == "circumcenter.points"), default=None),
        "bench.profile_ms": p50_of("bench.profile"),
        "bench.run_grid_s.workers1": p50_of("bench.run_grid", workers="1", scale=1e-9),
        "bench.run_grid_s.workers2": p50_of("bench.run_grid", workers="2", scale=1e-9),
    }
    for key in wl.CRM_SOLVERS:
        m[f"operators.points_us.{key}"] = p50_of("operators.points", key, scale=1e-3)
        m[f"circumcenter.points_us.{key}"] = p50_of("circumcenter.points", key, scale=1e-3)
    for key in wl.ALL_SOLVERS:
        m[f"solvers.make_solver_ms.{key}"] = p50_of("solvers.make_solver", key)
        m[f"solvers.step_us.{key}"] = p50_of("solvers.step", key, scale=1e-3)
        m[f"solvers.driver_us_per_iter.{key}"] = p50(driver[key]) if key in driver else None
        if key in w.solvers:
            m[f"solvers.iters.{key}"] = sum(it for (_, k), it in matrix.items() if k == key)
        else:
            m[f"solvers.iters.{key}"] = probe_iters[key]
    for layer, secs in tr.self_seconds().items():
        m[f"{layer}.self_s"] = secs
    cps_u = untraced["cells"] / untraced["wall_s"]
    cps_t = traced["cells"] / traced["wall_s"]
    m["trace.cells_per_s.untraced"] = cps_u
    m["trace.cells_per_s.traced"] = cps_t
    m["trace.overhead_frac"] = cps_u / cps_t - 1.0
    return {k: v for k, v in m.items() if v is not None}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args()

    import_s = import_circumsolve()
    import checks
    import envinfo
    import workloads as wl
    from tracing import Tracer

    w = wl.WORKLOADS[args.workload]
    size = w.sizes[args.size]
    if args.seed is None:
        args.seed = w.default_seed
    OUT.mkdir(parents=True, exist_ok=True)
    tr = Tracer()
    start = time.perf_counter()
    problems, parts, failures = setup(w, size, args.seed, tr, args.tag)
    setup_s = import_s + (time.perf_counter() - start)
    result = {"seed": args.seed, "setup_s": setup_s, "setup_parts": dict(parts, import_s=import_s)}
    if args.mode == "setup":
        result["failures"] = failures
        print(json.dumps(result))
        return 0

    matrix, failed_cells = verify_grid(problems, w.solvers)
    for p in problems:
        bad = checks.reference_failures(p, checks.common_directions(p.subspaces), w.intersection_dim)
        if bad:
            failed_cells.update({(p.id, key): "; ".join(bad) for key in w.solvers})
    failures += [f"{key} on {pid}: {msg}" for (pid, key), msg in failed_cells.items()]
    ids = [p.id for p in problems]
    result.update(
        env=envinfo.environment(ROOT),
        digest=checks.digest(matrix),
        iters_total=sum(it or 0 for it in matrix.values()),
        iters_by_solver={k: sum(it or 0 for (_, s), it in matrix.items() if s == k) for k in w.solvers},
        share=checks.ranking_share(matrix, ids, w.solvers, w.name),
    )

    window = args.seconds / 2 if args.trace else args.seconds
    untraced = timed_window(problems, w.solvers, matrix, window, args.seed)
    samples = untraced.pop("samples_ms")
    windows = [untraced]
    if args.trace:
        tr.phase = "grid"
        traced = timed_window(problems, w.solvers, matrix, window, args.seed, tr)
        traced.pop("samples_ms")
        windows.append(traced)
        tr.phase = "probe"
        failures += probe_layers(w, problems, matrix, tr, args.tag)
        probe_iters = dict.fromkeys(wl.ALL_SOLVERS, 0)
        for s in tr.spans:
            if s["phase"] == "probe" and s["name"] == "solvers.iterate":
                probe_iters[s["attrs"]["solver"]] += s["attrs"]["iterations"]
        result["metrics"] = layer_metrics(w, tr, matrix, parts, probe_iters, untraced, traced)
        spans_path = OUT / f"spans-{args.tag}.jsonl"
        tr.write(spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))
    else:
        result["metrics"] = {
            "cells_per_s": untraced["cells"] / untraced["wall_s"],
            "cell_ms.p50": p50(samples),
            "cell_ms.p90": p90(samples),
            "cpu_ms_per_cell": untraced["cpu_s"] * 1e3 / untraced["cells"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "iters_total": result["iters_total"],
        }
    for win in windows:
        failures += win["failures"]
    result["cell_samples"] = len(samples)
    result["cell_samples_ms"] = samples
    result["cell_keys"] = untraced["keys"]
    result["windows"] = [{k: v for k, v in win.items() if k not in ("failures", "keys")} for win in windows]
    result["attempted"] = len(matrix) + sum(win["cells"] for win in windows)
    result["failed"] = len(failed_cells) + sum(len(win["failures"]) for win in windows)
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
