"""Cold start: importing circumsolve does not import scipy.

scipy's LAPACK routines are bound on their first call, or by a CRM solver's
set-up, so generation, the JSON round trip, references and the map/drm
solves never load scipy.linalg.  Each check runs in a fresh interpreter,
where nothing has loaded it yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import circumsolve

SRC = str(Path(circumsolve.__file__).resolve().parent.parent)


def _fresh(script, *args, **env):
    environ = dict(os.environ, PYTHONPATH=SRC, **env)
    proc = subprocess.run([sys.executable, "-c", script, *args], env=environ, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


COLD_PATH = r"""
import json, os, sys
import numpy as np
from circumsolve import (
    IterationConfig, ProblemSpec, SolverSpec, generate_problem_set, iterate, load_problem_set,
    make_solver, orthonormal_basis, reference_solution, save_problem_set,
)
from circumsolve import circumcenter, linalg

spec = ProblemSpec(n=20, cf_range=(0.5, 0.9), pairs=1, points_per_pair=2, seed=3)
path = os.path.join(sys.argv[1], "ps.json")
save_problem_set(generate_problem_set(spec), path)
solved = []
for p in load_problem_set(path).problems():
    ref = reference_solution(p.subspaces, p.x0)
    for key in ("map", "drm"):
        s = make_solver(SolverSpec.from_key(key), p.subspaces)
        solved.append(iterate(s.step, s.init(p.x0), IterationConfig(tol=1e-6), ref, monitor=s.monitor).solved)
cold = "scipy.linalg" not in sys.modules

# four points in R^5 take the QR route, and a spanning set orgqr's basis
P = np.random.default_rng(5).standard_normal((4, 5))
V = np.random.default_rng(6).standard_normal((3, 5))
lazy = circumcenter.circumcenter_points(P).value, orthonormal_basis(V).basis
loaded = "scipy.linalg" in sys.modules

import scipy.linalg
linalg._geqp3, linalg._orgqr, circumcenter._trtrs = scipy.linalg.get_lapack_funcs(
    ("geqp3", "orgqr", "trtrs"), dtype=np.float64)
direct = circumcenter.circumcenter_points(P).value, orthonormal_basis(V).basis
print(json.dumps({"solved": solved, "cold": cold, "loaded": loaded,
                  "same_bits": all(np.array_equal(a, b) for a, b in zip(lazy, direct))}))
"""


def test_the_solve_path_runs_without_scipy_until_a_qr_is_needed(tmp_path):
    out = _fresh(COLD_PATH, str(tmp_path))
    assert out["solved"] == [True] * 4
    assert out["cold"], "scipy.linalg was imported before any QR route ran"
    assert out["loaded"]
    assert out["same_bits"]


THREADED_FIRST_CALL = r"""
import json, os, sys
import numpy as np
from circumsolve import AffineSubspace, IterationConfig, LinearSubspace, intersect_all, run_grid
from circumsolve.problems import Problem

# four anchored subspaces of R^20 through a shared point, as in the pinned
# t = 4 grid, but with bases from numpy's QR: no scipy routine runs before
# the grid, so two pool threads make the first binding together
n = 20
problems = []
for g, dims in enumerate([(6, 6, 6, 6), (8, 8, 8, 8), (5, 6, 7, 8)]):
    rng = np.random.default_rng([1414, g])
    z = 3.0 * rng.standard_normal(n)
    shared = rng.standard_normal((2, n))
    subs = tuple(
        AffineSubspace(z, LinearSubspace(n, np.linalg.qr(np.vstack([shared, rng.standard_normal((d - 2, n))]).T)[0].T))
        for d in dims
    )
    inter = intersect_all(subs)
    for j, v in enumerate(rng.standard_normal((2, n))):
        x0 = 10.0 * v / np.linalg.norm(v)
        problems.append(Problem(f"t{g}:{j}", subs, x0, inter.project(x0), 0.0))
cold = "scipy.linalg" not in sys.modules
keys = ["crm-s1", "crm-s2"]
sys.setswitchinterval(1e-6)  # switch threads often while they bind
threaded = [c.iterations for c in run_grid(problems, keys, IterationConfig(tol=1e-6))]
os.environ["CIRCUMSOLVE_WORKERS"] = "1"
serial = [c.iterations for c in run_grid(problems, keys, IterationConfig(tol=1e-6))]
print(json.dumps({"cold": cold, "threaded": threaded, "serial": serial}))
"""


def test_two_pool_threads_bind_lapack_on_first_use_with_serial_counts():
    # crm-s1 and crm-s2 on t = 4 take the QR route every step
    out = _fresh(THREADED_FIRST_CALL, CIRCUMSOLVE_WORKERS="2")
    assert out["cold"]
    assert None not in out["threaded"]
    assert out["threaded"] == out["serial"]


CRM_SET_UP = r"""
import json, sys
from circumsolve import ProblemSpec, SolverSpec, generate_problem_set, make_solver

p = generate_problem_set(ProblemSpec(n=20, cf_range=(0.5, 0.9), pairs=1, points_per_pair=1, seed=3)).problems()[0]
before = "scipy.linalg" in sys.modules
make_solver(SolverSpec.from_key("crm-s3"), p.subspaces)
print(json.dumps({"before": before, "after": "scipy.linalg" in sys.modules}))
"""


def test_a_crm_solver_binds_lapack_at_set_up_not_in_its_timed_steps():
    assert _fresh(CRM_SET_UP) == {"before": False, "after": True}


ANCHORED_GRID = r"""
import json, os, sys
import numpy as np
from circumsolve import AffineSubspace, IterationConfig, LinearSubspace, linalg, reference_solution, run_grid
from circumsolve.problems import Problem

# three tuples of four anchored subspaces of R^12 through a shared point; the
# references fold equal copies, which die at once, so the pool threads make
# each tuple's first fold, and the tuples live until interpreter exit
n = 12
problems = []
for g in range(3):
    rng = np.random.default_rng([2828, g])
    z = rng.standard_normal(n)
    shared = rng.standard_normal((2, n))
    subs = tuple(AffineSubspace(z, LinearSubspace.span(np.vstack([shared, rng.standard_normal((3, n))])))
                 for _ in range(4))
    for j, v in enumerate(rng.standard_normal((2, n))):
        ref = reference_solution([AffineSubspace(s.anchor, s.direction) for s in subs], v)
        problems.append(Problem(f"t{g}:{j}", subs, v, ref, 0.0))
keys = ["crm-s1", "crm-s2", "product-crm", "avg-proj"]
before = len(linalg._FOLDS)
sys.setswitchinterval(1e-6)  # switch threads often while they fold and look up
threaded = [c.iterations for c in run_grid(problems, keys, IterationConfig(tol=1e-8))]
os.environ["CIRCUMSOLVE_WORKERS"] = "1"
serial = [c.iterations for c in run_grid(problems, keys, IterationConfig(tol=1e-8))]
print(json.dumps({"before": before, "threaded": threaded, "serial": serial, "folds": len(linalg._FOLDS)}))
"""


def test_an_anchored_grid_on_two_workers_keeps_serial_counts_and_exits_quietly():
    environ = dict(os.environ, PYTHONPATH=SRC, CIRCUMSOLVE_WORKERS="2")
    proc = subprocess.run(
        [sys.executable, "-c", ANCHORED_GRID], env=environ, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    # the kept folds die with their subspaces at exit, and say nothing then
    assert proc.stderr == ""
    out = json.loads(proc.stdout)
    assert None not in out["threaded"]
    assert out["threaded"] == out["serial"]
    assert out["before"] == 0 and out["folds"] == 3
