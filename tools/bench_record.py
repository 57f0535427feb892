"""Record a parent/change benchmark comparison as one JSON file.

    python3 tools/bench_record.py --parent ../parent-checkout --out BENCH_N.json

Run it from the repository root; ``--parent`` is a second checkout of the
commit to compare against (a ``git clone`` at that commit).  For each side it
records:

- the environment block of ``perfbench/envinfo.py`` (numpy/scipy versions,
  BLAS threads, CPU count, commit, line count of ``src/``), with the line
  count of each ``src/`` module next to the total;
- the untraced and traced ``perfbench/run.py`` result of every workload in
  BENCHMARK.json, at the workloads' own seeds, whose iteration digests are
  checked against ``perfbench/expected.json``;
- a runtime profile, for the report only: ``run_grid`` with the runtime
  measure on 20 high-cF problems in R^100 (10 pairs x 2 points, seed 1012)
  with the six pair solvers, and each solver's Dolan-More share at tau = 1
  and tau = 2 (the fraction of problems it solves within tau times the
  fastest solver's time) with its total time;
- the circumcenter's accuracy, for the report only: ``circumcenter_points``
  against ``circumcenter_oracle`` on 3,600 rank-2 sets of 3 or 4 points in
  R^3..R^60 (a fourth point duplicates one of the three), 225 for each
  decade of sin^2 of the angle at p_1 from 1 down to 1e-16.  Per decade it
  records the median and largest error in units of eps / sin, relative to
  max|p| + radius, and how many centres the oracle found and the solve did
  not;
- the cost of problem generation, for the report only: the median of 3
  ``gen_subspace_pair`` calls (pairs 0..2, seed 1012, cF in [0.9, 0.95)) at
  n = 100, 400 and 1000, with the median of 3 ``friedrichs_cosine`` calls on
  the last of those pairs, the part of generation that labels the pair.

It then times the acceptance grid: both experiments (100 problems in R^100
each, seeds 1012 and 1013) through ``run_grid`` with the six grid solvers, in
GRID_RUNS alternating parent/change pairs of runs.  It records every wall
time with the median and quartiles, the iteration total and the sha256 of the
sorted ``problem,solver,iterations`` lines; every run of one side must give
the same total and sha256.

Last, it runs PAIRS alternating parent/change pairs of untraced runs of every
workload at SEED (the first side alternates from pair to pair)
and reports, per end-to-end metric, each side's values, median and quartiles
and how many pairs the change won.  Each side runs its own checkout's
``perfbench/run.py`` against its own ``src/``.  The commit in an environment
block is the checkout's HEAD, so record the change from a committed tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import envinfo  # noqa: E402

# Ten pairs at one fixed seed, so that every BENCH file is comparable with the
# others and has the ten pairs needed to show a gain.
PAIRS = 10
SEED = 7
# One grid run per side cannot tell two commits apart: re-runs of the same
# grid work spread by about a fifth on a 2-vCPU box.
GRID_RUNS = 10

GRID = r"""
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
from circumsolve import IterationConfig, ProblemSpec, generate_problem_set, run_grid
out = {}
for name, lo, hi, seed in (("high", 0.90, 0.95, 1012), ("low", 0.01, 0.50, 1013)):
    spec = ProblemSpec(n=100, cf_range=(lo, hi), pairs=10, points_per_pair=10, seed=seed)
    problems = generate_problem_set(spec).problems()
    start = time.perf_counter()
    cells = run_grid(problems, ["crm-s1", "crm-s2", "crm-s3", "crm-s4", "drm", "map"],
                     IterationConfig(tol=1e-6))
    wall = time.perf_counter() - start
    rows = sorted((c.problem_id, c.solver_key, c.iterations) for c in cells)
    text = "".join(f"{p},{k},{it}\n" for p, k, it in rows)
    out[name] = {"run_grid_s": wall, "iters_total": sum(it or 0 for _, _, it in rows),
                 "sha256": hashlib.sha256(text.encode()).hexdigest()}
print(json.dumps(out))
"""


PROFILE = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from circumsolve import IterationConfig, ProblemSpec, generate_problem_set, performance_profile, run_grid
keys = ["crm-s1", "crm-s2", "crm-s3", "crm-s4", "drm", "map"]
spec = ProblemSpec(n=100, cf_range=(0.90, 0.95), pairs=10, points_per_pair=2, seed=1012)
problems = generate_problem_set(spec).problems()
cells = run_grid(problems, keys, IterationConfig(tol=1e-6), measure_kind="runtime")
out = {"problems": len(problems), "solvers": {}}
for curve in performance_profile(cells, keys, "runtime"):
    mine = [c for c in cells if c.solver_key == curve.solver_key]
    share = lambda tau: max((rho for t, rho in curve.breakpoints if t <= tau), default=0.0)
    out["solvers"][curve.solver_key] = {
        "rho_tau1": share(1.0), "rho_tau2": share(2.0), "solved": sum(c.solved for c in mine),
        "runtime_ms_total": sum(c.runtime_ns or 0 for c in mine) / 1e6,
    }
print(json.dumps(out))
"""


ACCURACY = r"""
import json, math, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from circumsolve.circumcenter import circumcenter_oracle, circumcenter_points
eps = float(np.finfo(float).eps)
rng = np.random.default_rng(2024)
out = {}
for decade in range(16):
    errors, missing = [], 0
    for _ in range(225):
        n, m = int(rng.integers(3, 61)), int(rng.integers(3, 5))
        sin2 = 10.0 ** -(decade + rng.random())
        u, w = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
        a, b = rng.uniform(0.5, 2.0, 2)
        side = u if rng.random() < 0.5 else -u
        p0 = rng.standard_normal(n) * rng.uniform(0.0, 10.0)
        P = np.array([p0, p0 + a * u, p0 + b * (math.sqrt(1.0 - sin2) * side + math.sqrt(sin2) * w)])
        P = P[[0, 1, 2, int(rng.integers(0, 3))][:m]]
        r, o = circumcenter_points(P), circumcenter_oracle(P)
        if o.value is None:
            continue
        if r.value is None:
            missing += 1
            continue
        scale = (np.abs(P).max() + o.radius) * eps / math.sqrt(sin2)
        errors.append(float(np.linalg.norm(r.value - o.value) / scale))
    top = "1" if decade == 0 else f"1e-{decade}"
    out[f"sin2 1e-{decade + 1}..{top}"] = {
        "error_eps_per_sin_median": float(np.median(errors)) if errors else None,
        "error_eps_per_sin_max": max(errors, default=None), "missing": missing,
        "sets": 225}
print(json.dumps(out))
"""


GENERATION = r"""
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from circumsolve.linalg import friedrichs_cosine
from circumsolve.problems import ProblemSpec, gen_subspace_pair
def median_ms(call):
    times = []
    for i in range(3):
        start = time.perf_counter()
        out = call(i)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3, out
out = {}
for n in (100, 400, 1000):
    spec = ProblemSpec(n=n, cf_range=(0.90, 0.95), pairs=3, points_per_pair=0, seed=1012)
    gen_ms, (L1, L2, _) = median_ms(lambda i: gen_subspace_pair(spec, i))
    cf_ms, _ = median_ms(lambda i: friedrichs_cosine(L1, L2))
    out[f"n={n}"] = {"gen_pair_ms": gen_ms, "friedrichs_ms": cf_ms}
print(json.dumps(out))
"""


def last_json(cmd, cwd: Path) -> dict:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def perfbench(root: Path, workload: str, trace: int, seed: int | None = None) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    return last_json(cmd, root)


def module_lines(root: Path) -> dict[str, int]:
    """Line count of each module under ``src/``, keyed by its path there."""
    src = root / "src"
    return {p.relative_to(src).as_posix(): len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))}


def record(root: Path, workloads: list[str]) -> dict:
    runs = {w: {"untraced": perfbench(root, w, 0), "traced": perfbench(root, w, 1)} for w in workloads}
    env = envinfo.environment(root)
    env["src_module_lines"] = module_lines(root)
    profile = last_json([sys.executable, "-c", PROFILE, str(root / "src")], root)
    accuracy = last_json([sys.executable, "-c", ACCURACY, str(root / "src")], root)
    generation = last_json([sys.executable, "-c", GENERATION, str(root / "src")], root)
    return {"env": env, "perfbench": runs, "runtime_profile": profile, "circumcenter_accuracy": accuracy,
            "generation": generation}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare_grid(parent: Path) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(GRID_RUNS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = parent if side == "parent" else ROOT
            runs[side].append(last_json([sys.executable, "-c", GRID, str(root / "src")], root))
    out = {}
    for name in runs["parent"][0]:
        entry = {}
        for side, rs in runs.items():
            counts = {(r[name]["sha256"], r[name]["iters_total"]) for r in rs}
            if len(counts) != 1:
                raise RuntimeError(f"{side} runs of the {name} grid disagree on the counts: {sorted(counts)}")
            ((sha, total),) = counts
            walls = [r[name]["run_grid_s"] for r in rs]
            entry[side] = {"sha256": sha, "iters_total": total, "run_grid_s": walls,
                           "run_grid_s_summary": summary(walls)}
        p, c = entry["parent"], entry["change"]
        entry["same_counts"] = (p["sha256"], p["iters_total"]) == (c["sha256"], c["iters_total"])
        entry["change_wins"] = sum(b < a for a, b in zip(p["run_grid_s"], c["run_grid_s"]))
        out[name] = entry
    return {"runs": GRID_RUNS, "experiments": out}


def compare(parent: Path, workloads: list[str], metrics: list[dict]) -> dict:
    out = {}
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(perfbench(parent if side == "parent" else ROOT, w, 0, SEED))
        per_metric = {}
        for m in metrics:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in runs["parent"]]
            c = [r["metrics"][name]["value"] for r in runs["change"]]
            sign = 1.0 if m["better"] == "higher" else -1.0
            per_metric[name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": p, "change": c,
                "parent_summary": summary(p), "change_summary": summary(c),
                "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
                "ties": sum(a == b for a, b in zip(p, c)),
            }
        out[w] = {
            "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
            "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
            "metrics": per_metric,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the commit to compare against")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        ap.error(f"no perfbench/run.py under {parent}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    doc = {
        "command": f"python3 tools/bench_record.py --parent <parent checkout> --out {args.out.name}",
        "run_seconds": spec["run_seconds"],
        "parent": record(parent, workloads),
        "change": record(ROOT, workloads),
        "acceptance_grid": compare_grid(parent),
        "pairs": {"seed": SEED, "count": PAIRS,
                  "workloads": compare(parent, workloads, spec["end_to_end"])},
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
