"""Benchmark entry point: python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload runs in a child process
(perfbench/worker.py) whose environment has the BLAS and worker-count
variables removed, so circumsolve runs under its default threading.  With
``--trace 0`` the last output line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  Metric names
and units come from BENCHMARK.json at the repository root.

The lines before the result give the environment, the set-up samples, the
iteration-count digest and ranking share, every metric with its unit and
any failed check; the full record goes to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"

# circumsolve's default threading is what users get; pinning BLAS to one
# thread would hide its threaded set-up cost, so these are removed, not set
STRIPPED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CIRCUMSOLVE_WORKERS")

SETUP_SAMPLES = 5  # cold set-ups per untraced run: SETUP_SAMPLES - 1 set-up-only children + the run's own
TIME_LIMIT = 170.0  # seconds for the whole run, children included


def child(mode, args, seed, tag, env, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--tag", tag]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=None, help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="length of the timed window (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few cells, for the smoke run")
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "circumsolve" / "__init__.py").is_file():
        print(f"error: no circumsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED}
    tag = f"{args.workload}-{args.seed if args.seed is not None else 'default'}-{args.trace}-{os.getpid()}"
    samples, faults = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            r = child("setup", args, args.seed, tag, env, deadline)
            samples.append(r["setup_s"])
            faults += r["failures"]
    res = child("run", args, args.seed, tag, env, deadline)
    samples.append(res["setup_s"])
    faults += res["failures"]

    listed = spec["per_layer" if args.trace else "end_to_end"]
    values = dict(res["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(samples)
    missing = sorted({m["name"] for m in listed} ^ set(values))
    if missing:
        faults.append(f"metrics not matching BENCHMARK.json: {missing}")

    rec = expected.get(args.workload, {})
    digest_note = "no recorded digest for this seed and size"
    if args.size == "full" and res["seed"] == rec.get("seed"):
        if res["digest"] == rec["digest"]:
            digest_note = f"matches the one recorded for seed {rec['seed']}"
        else:
            digest_note = f"DIFFERS from {rec['digest']} recorded for seed {rec['seed']}"
            faults.append(f"iteration digest {res['digest']} differs from the recorded {rec['digest']}")

    env_block = dict(res["env"], stripped={k: os.environ.get(k) for k in STRIPPED},
                     CIRCUMSOLVE_WORKERS=os.environ.get("CIRCUMSOLVE_WORKERS"))
    print(f"workload {args.workload}, seed {res['seed']}, size {args.size}, "
          f"{'traced' if args.trace else 'untraced'}, window {args.seconds:g} s")
    print("environment: " + json.dumps(env_block, sort_keys=True))
    print("removed from the workload environment: " + ", ".join(
        f"{k}={os.environ.get(k, '(unset)')}" for k in STRIPPED))
    print("set-up samples (s): " + " ".join(f"{s:.4f}" for s in samples))
    print(f"iteration digest {res['digest']} over {len(res['iters_by_solver'])} solvers, "
          f"iters_total {res['iters_total']}: {digest_note}")
    print("iterations by solver: " + json.dumps(res["iters_by_solver"]))
    share = res["share"]
    if share:
        frac = share["wins"] / share["problems"]
        need = share["threshold"]
        verdict = "meets" if frac >= need else "BELOW"
        print(f"ranking: {share['predicate']} on {share['wins']}/{share['problems']} problems "
              f"({frac:.3f}); {verdict} the criterion-12 share {need}")
        if frac < need:
            faults.append(f"ranking share {frac:.3f} below {need}")

    units = {m["name"]: m["unit"] for m in listed}
    for name in sorted(values):
        print(f"  {name:40s} {fmt(values[name]):>14s} {units.get(name, '?')}")
    if not args.trace:
        print(f"  {'(cell samples)':40s} {res['cell_samples']:>14d} count")
    print(f"  {'failed_frac':40s} {fmt(res['failed'] / res['attempted']):>14s} ratio "
          f"({res['failed']} of {res['attempted']} cells)")
    for msg in faults[:20]:
        print("FAILED: " + msg)

    out = HERE / "_out" / f"result-{tag}.json"
    record = dict(res, env=env_block, setup_samples=samples, faults=faults, metrics=values)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"record: {out.relative_to(ROOT)}" + (f", spans: {res['spans']}" if args.trace else ""))
    print(json.dumps({
        "correct": not faults and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
