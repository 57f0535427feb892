"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s``).  The two
benchmark experiments are generated and solved once per session; their
iterates feed both the per-iterate safety checks and the solver-ranking
checks.  Runs whose theoretical bound is checked per iterate use the
standard stopping rule (tolerance 1e-6), which keeps every checked quantity
far above floating-point rounding while capping the iteration budget.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from circumsolve.circumcenter import circumcenter_oracle, circumcenter_points
from circumsolve.linalg import (
    LinearSubspace,
    friedrichs_cosine,
    intersect,
    intersect_all,
    orthonormal_basis,
)
from circumsolve.problems import (
    ProblemSpec,
    gen_subspace_pair,
    generate_problem_set,
    save_problem_set,
)
from circumsolve.solvers import IterationConfig, SolverSpec, iterate, make_solver
from circumsolve.theory import (
    Compose,
    Identity,
    OperatorSet,
    Reflector,
    circumcenter_map,
    dr_operator,
    fixed_subspace,
    lift_to_product,
    rate_bound,
    reflection_set,
    surrogate_ts,
)

GRID_SOLVERS = ("crm-s1", "crm-s2", "crm-s3", "crm-s4", "drm", "map")


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {description}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


def _random_point_sets(count, seed):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 7))
        pts = rng.standard_normal((m, n)) * rng.uniform(0.5, 4.0)
        if m > 1 and rng.random() < 0.3:
            pts[int(rng.integers(1, m))] = pts[0]  # forced duplicate
        if m > 2 and rng.random() < 0.25:
            pts[2] = pts[0] + rng.uniform(0.5, 2.0) * (pts[1] - pts[0])  # forced collinear
        sets.append(pts)
    return sets


def test_criterion_01_circumcenter_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    worst = 0.0
    for pts in _random_point_sets(1000, seed=1001):
        a = circumcenter_points(pts)
        b = circumcenter_oracle(pts)
        if (a.value is None) != (b.value is None):
            mismatches += 1
        elif a.value is not None:
            worst = max(worst, float(np.linalg.norm(a.value - b.value)))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and worst < 1e-8 and elapsed < 10.0
    _report(1, "circumcenter formula matches the equidistance oracle on 1000 sets", ok,
            f"mismatches={mismatches}, worst gap={worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_firmly_quasinonexpansive_equality():
    spec = ProblemSpec(n=12, p=4, q=4, r=2, cf_range=(0.2, 0.95), pairs=8, points_per_pair=0, seed=1002)
    rng = np.random.default_rng(1003)
    kinds = ("s1", "s2", "s3", "s4")
    worst = 0.0
    checked = 0
    for trial in range(500):
        L1, L2, _ = gen_subspace_pair(spec, trial % spec.pairs)
        S = reflection_set(kinds[trial % 4], [L1.as_affine(), L2.as_affine()])
        x = rng.standard_normal(12) * 3
        y = S.fixed.project(rng.standard_normal(12) * 3)
        cc = circumcenter_map(S, x)
        lhs = np.linalg.norm(cc - y) ** 2 + np.linalg.norm(cc - x) ** 2
        rhs = np.linalg.norm(x - y) ** 2
        worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
        checked += 1
    ok = checked == 500 and worst <= 1e-9
    _report(2, "firm quasinonexpansiveness holds with equality on 500 triples", ok,
            f"worst relative gap={worst:.2e}")


@pytest.fixture(scope="session")
def benchmark_grids():
    """Both desk-scale experiments, solved once with full iterate traces."""
    experiments = {}
    total_solve_time = 0.0
    wall_start = time.perf_counter()
    for name, (lo, hi, seed) in {
        "high": (0.90, 0.95, 1012),
        "low": (0.01, 0.50, 1013),
    }.items():
        spec = ProblemSpec(n=100, cf_range=(lo, hi), pairs=10, points_per_pair=10, seed=seed)
        ps = generate_problem_set(spec)
        intersections = {pair.id: intersect(pair.u1, pair.u2) for pair in ps.pairs}
        iterations = {}
        fejer_violations = 0
        pw_violations = 0
        cfg = IterationConfig(tol=1e-6, max_iter=10**6, record_trace=True)
        for prob in ps.problems():
            inter = intersections[prob.id.split(":")[0]]
            B = inter.direction.basis
            anchor = inter.anchor
            for key in GRID_SOLVERS:
                solver = make_solver(SolverSpec.from_key(key), prob.subspaces)
                trace = iterate(solver.step, solver.init(prob.x0), cfg, prob.reference,
                                monitor=solver.monitor)
                total_solve_time += trace.wall_time
                X = np.asarray(trace.iterates)
                dists = np.linalg.norm(X - prob.reference, axis=1)
                fejer_violations += int(np.sum(np.diff(dists) > 1e-12))
                proj = (X - anchor) @ B.T @ B + anchor
                drift = np.linalg.norm(proj - proj[0], axis=1)
                pw_violations += int(np.sum(drift > 1e-9 * (1.0 + np.linalg.norm(prob.x0))))
                iterations[(prob.id, key)] = trace.iterations if trace.solved else None
        experiments[name] = {
            "iterations": iterations,
            "problem_ids": [p.id for p in ps.problems()],
            "fejer_violations": fejer_violations,
            "pw_violations": pw_violations,
        }
    experiments["solve_time"] = total_solve_time
    experiments["wall_time"] = time.perf_counter() - wall_start
    return experiments


def test_criterion_03_fejer_and_projection_invariance(benchmark_grids):
    fejer = sum(benchmark_grids[k]["fejer_violations"] for k in ("high", "low"))
    pw = sum(benchmark_grids[k]["pw_violations"] for k in ("high", "low"))
    ok = fejer == 0 and pw == 0
    _report(3, "Fejer monotonicity and projection invariance on every grid iterate", ok,
            f"fejer violations={fejer}, invariance violations={pw}")


# Iteration-count matrices of the two experiments: totals and the sha256 of the
# sorted "problem,solver,iterations" lines.  A change that moves a count must
# list the moved cells and explain them before these are updated.
PINNED_GRIDS = {
    "high": (50869, "bf0762dd68a8a88212eb83f5b85ab1ae5d6d7b3bcac04469690cd404b2da03b8"),
    "low": (5349, "c75845447bae1a097bafeec075cd140c593e8daad7f0cad9e75d952a72661568"),
}


@pytest.mark.parametrize("name", sorted(PINNED_GRIDS))
def test_iteration_matrix_is_pinned(benchmark_grids, name):
    rows = sorted((pid, key, it) for (pid, key), it in benchmark_grids[name]["iterations"].items())
    total = sum(it for _, _, it in rows if it is not None)
    digest = hashlib.sha256("".join(f"{p},{k},{it}\n" for p, k, it in rows).encode()).hexdigest()
    assert (total, digest) == PINNED_GRIDS[name]


def _rate_pairs(count, seed, cf_lo, cf_hi):
    spec = ProblemSpec(n=16, p=4, q=4, r=1, cf_range=(cf_lo, cf_hi),
                       pairs=count, points_per_pair=0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for i in range(count):
        L1, L2, cf = gen_subspace_pair(spec, i)
        x0 = rng.standard_normal(16)
        x0 *= 10.0 / np.linalg.norm(x0)
        yield L1.as_affine(), L2.as_affine(), cf, x0


def test_criterion_04_accelerated_dr_rate_bounds():
    ok = True
    detail = ""
    for U1, U2, cf, x0 in _rate_pairs(50, 1004, 0.1, 0.99):
        inter = intersect(U1, U2)
        xbar = inter.project(x0)
        solver = make_solver(SolverSpec("crm_s2"), [U1, U2])
        start = solver.init(U1.project(x0))
        trace = iterate(solver.step, start, IterationConfig(tol=1e-6, max_iter=200), xbar)
        e0 = trace.errors[0]
        for k, err in enumerate(trace.errors):
            if err > cf**k * e0 * (1 + 1e-8):
                ok, detail = False, f"single-step bound broken at k={k} (cf={cf:.3f})"
        # squared-rate branch: the set contains the doubled reflection chain
        r1, r2 = Reflector(U1), Reflector(U2)
        S = OperatorSet((Identity(), Compose((r2, r1)), Compose((r2, r1, r2, r1))), fixed=inter)
        trace2 = iterate(lambda x: circumcenter_map(S, x), start,
                         IterationConfig(tol=1e-6, max_iter=200), xbar)
        f0 = trace2.errors[0]
        for k, err in enumerate(trace2.errors):
            if err > cf ** (2 * k) * f0 * (1 + 1e-8):
                ok, detail = False, f"squared bound broken at k={k} (cf={cf:.3f})"
    _report(4, "projected-start CRM obeys the cf^k and cf^(2k) bounds on 50 pairs", ok, detail)


def test_criterion_05_dr_contraction_bound():
    ok = True
    detail = ""
    for U1, U2, cf, x0 in _rate_pairs(50, 1005, 0.1, 0.99):
        T = dr_operator(U1, U2)
        target = fixed_subspace(T, dim=16).project(x0)
        trace = iterate(T, x0, IterationConfig(tol=1e-6, max_iter=200), target)
        e0 = trace.errors[0]
        for k, err in enumerate(trace.errors):
            if err > cf**k * e0 * (1 + 1e-8):
                ok, detail = False, f"broken at k={k} (cf={cf:.3f})"
    _report(5, "governed DR sequence contracts at rate cf on 50 pairs", ok, detail)


def test_criterion_06_mean_projection_rate_bound():
    rng = np.random.default_rng(1006)
    # 5 pairs and 5 triples of linear subspaces
    families = []
    for i in range(5):
        spec = ProblemSpec(n=14, p=4, q=4, r=1, cf_range=(0.2, 0.9), pairs=1, points_per_pair=0,
                           seed=1200 + i)
        L1, L2, _ = gen_subspace_pair(spec, 0)
        families.append([L1, L2])
    for i in range(5):
        shared = rng.standard_normal(14)
        families.append([
            orthonormal_basis(np.vstack([shared, rng.standard_normal((2, 14))]))
            for _ in range(3)
        ])
    ok = True
    detail = ""
    for subs in families:
        inter_dir = intersect_all([s.as_affine() for s in subs]).direction
        gamma = rate_bound(surrogate_ts("mean_proj", subs), inter_dir)
        if not gamma < 1.0:
            ok, detail = False, f"rate bound {gamma} not below 1"
            continue
        x0 = rng.standard_normal(14)
        x0 *= 10.0 / np.linalg.norm(x0)
        xbar = intersect_all([s.as_affine() for s in subs]).project(x0)
        solver = make_solver(SolverSpec("crm_s1"), [s.as_affine() for s in subs])
        trace = iterate(solver.step, solver.init(x0), IterationConfig(tol=1e-6, max_iter=5000), xbar)
        e0 = trace.errors[0]
        for k, err in enumerate(trace.errors):
            if err > gamma**k * e0 * (1 + 1e-6):
                ok, detail = False, f"bound broken at k={k} (gamma={gamma:.3f}, t={len(subs)})"
    _report(6, "CRM with plain reflections obeys the averaged-projection rate", ok, detail)


def test_criterion_07_map_asymptotic_rate():
    ok = True
    detail = ""
    for U1, U2, cf, x0 in _rate_pairs(20, 1007, 0.3, 0.95):
        xbar = intersect(U1, U2).project(x0)
        solver = make_solver(SolverSpec("map"), [U1, U2])
        trace = iterate(solver.step, solver.init(x0), IterationConfig(tol=1e-6, max_iter=10**6), xbar)
        errs = trace.errors
        for k in range(5, len(errs) - 1):
            if errs[k + 1] / errs[k] > cf**2 + 1e-6:
                ok, detail = False, f"ratio {errs[k+1]/errs[k]:.6f} vs cf^2={cf**2:.6f} at k={k}"
    _report(7, "alternating projections contract per step at cf^2 after warmup", ok, detail)


def test_criterion_08_three_line_fixed_set_anomaly():
    U1 = LinearSubspace.span([(1, 0)]).as_affine()
    U2 = LinearSubspace.span([(1, 1)]).as_affine()
    U3 = LinearSubspace.span([(0, 1)]).as_affine()
    chain = Compose((Reflector(U3), Reflector(U2), Reflector(U1)))
    S = OperatorSet((Identity(), chain), fixed=intersect_all([U1, U2, U3]))
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(2) * 4
        worst = max(worst, float(np.linalg.norm(circumcenter_map(S, x) - U2.project(x))))
    # the fixed set of the induced mapping is all of U2, strictly larger
    # than the single point shared by the three lines
    v = np.array([2.0, 2.0])
    fixed_off_intersection = np.linalg.norm(circumcenter_map(S, v) - v) < 1e-12
    intersection_is_origin = intersect_all([U1, U2, U3]).direction.dim == 0
    ok = worst <= 1e-12 and fixed_off_intersection and intersection_is_origin
    _report(8, "chain-only operator set collapses to the middle projector", ok,
            f"max gap={worst:.2e}")


def test_criterion_09_dr_limit_misses_the_intersection():
    theta = np.pi / 3
    U1 = LinearSubspace.span([(1, 0, 0)]).as_affine()
    U2 = LinearSubspace.span([(np.cos(theta), np.sin(theta), 0)]).as_affine()
    x0 = np.array([2.0, 1.0, 3.0])  # third component leaves U1 + U2
    T = dr_operator(U1, U2)
    target = fixed_subspace(T, dim=3).project(x0)
    trace = iterate(T, x0, IterationConfig(tol=1e-10, max_iter=10**5), target)
    gap = float(np.linalg.norm(target - intersect(U1, U2).project(x0)))
    ok = trace.solved and gap > 1e-3
    _report(9, "DR limit from outside the span misses the best approximation", ok,
            f"solved={trace.solved}, gap={gap:.3e}")


def _four_subspace_family(seed):
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal((2, 20))
    return [
        orthonormal_basis(np.vstack([shared, rng.standard_normal((6, 20))])).as_affine()
        for _ in range(4)
    ], rng


def test_criterion_10_product_space_crm():
    subs, rng = _four_subspace_family(1010)
    x0 = rng.standard_normal(20)
    x0 *= 10.0 / np.linalg.norm(x0)
    reference = intersect_all(subs).project(x0)
    C, D = lift_to_product(subs)
    cf_lift = friedrichs_cosine(C.direction, D.direction)
    solver = make_solver(SolverSpec("product_crm"), subs)
    cfg = IterationConfig(tol=1e-6, max_iter=10**4, record_trace=True)
    trace = iterate(solver.step, solver.init(x0), cfg, reference, monitor=solver.monitor)
    X = np.asarray(trace.iterates)
    lifted_ref = np.tile(reference, len(subs))
    lifted_errors = np.linalg.norm(X - lifted_ref, axis=1)
    geometric = all(
        err <= cf_lift**k * lifted_errors[0] * (1 + 1e-8) for k, err in enumerate(lifted_errors)
    )
    monitored_gap = float(np.linalg.norm(X[-1][:20] - reference))
    all_block_gap = float(np.max(np.linalg.norm(X[-1].reshape(len(subs), 20) - reference, axis=1)))
    ok = trace.solved and trace.iterations <= 10**4 and geometric and monitored_gap <= 1e-6
    _report(10, "product-space CRM converges geometrically to the diagonal solution", ok,
            f"iterations={trace.iterations}, lifted rate cf={cf_lift:.3f}, "
            f"monitored gap={monitored_gap:.2e}, all blocks within {all_block_gap:.2e}")


def test_criterion_11_averaged_projections_reach_the_reference():
    subs, rng = _four_subspace_family(1011)
    ok = True
    detail = ""
    for trial in range(3):
        x0 = rng.standard_normal(20)
        x0 *= 10.0 / np.linalg.norm(x0)
        reference = intersect_all(subs).project(x0)
        solver = make_solver(SolverSpec("avg_proj"), subs)
        trace = iterate(solver.step, solver.init(x0), IterationConfig(tol=1e-6, max_iter=10**6), reference)
        if not trace.solved:
            ok, detail = False, f"unsolved on trial {trial}"
    # also on a pair family
    spec = ProblemSpec(n=16, p=4, q=4, r=1, cf_range=(0.3, 0.9), pairs=2, points_per_pair=1, seed=1014)
    for prob in generate_problem_set(spec).problems():
        solver = make_solver(SolverSpec("avg_proj"), prob.subspaces)
        trace = iterate(solver.step, solver.init(prob.x0), IterationConfig(tol=1e-6, max_iter=10**6), prob.reference)
        if not trace.solved:
            ok, detail = False, f"unsolved on {prob.id}"
    _report(11, "averaged projections solve every family within the budget", ok, detail)


def test_criterion_12_desk_scale_profile_reproduction(benchmark_grids):
    high = benchmark_grids["high"]
    low = benchmark_grids["low"]

    def count(table, ids, predicate):
        return sum(1 for pid in ids if predicate({k: table[(pid, k)] for k in GRID_SOLVERS}))

    def value(t):
        return math.inf if t is None else t

    ids_high = high["problem_ids"]
    s3_wins = count(
        high["iterations"], ids_high,
        lambda row: value(row["crm-s3"]) <= min(value(row["drm"]), value(row["map"])),
    )
    ids_low = low["problem_ids"]
    s4_wins = count(
        low["iterations"], ids_low,
        lambda row: value(row["crm-s4"]) <= min(value(row[k]) for k in GRID_SOLVERS if k != "crm-s4"),
    )
    elapsed = benchmark_grids["wall_time"]
    ok = s3_wins >= 95 and s4_wins >= 80 and elapsed < 300.0
    _report(12, "desk-scale experiments reproduce the solver rankings", ok,
            f"s3<=min(drm,map) on {s3_wins}/100 high-cf problems, "
            f"s4 smallest on {s4_wins}/100 low-cf problems, grids took {elapsed:.0f}s")


def test_criterion_13_generator_round_trip(tmp_path):
    rng = np.random.default_rng(1015)
    worst = 0.0
    for i in range(200):
        requested = float(rng.uniform(0.05, 0.99))
        theta1 = math.acos(requested)
        rest = rng.uniform(theta1, math.pi / 2, size=3)
        spec = ProblemSpec(n=24, p=6, q=6, r=2, angles=(theta1, *rest), pairs=1,
                           points_per_pair=0, seed=2000 + i)
        _, _, achieved = gen_subspace_pair(spec, 0)
        worst = max(worst, abs(achieved - requested))
    spec = ProblemSpec(n=30, cf_range=(0.4, 0.9), pairs=6, points_per_pair=2, seed=1016)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_problem_set(generate_problem_set(spec), a)
    save_problem_set(generate_problem_set(spec), b)
    identical = a.read_bytes() == b.read_bytes()
    ok = worst < 1e-10 and identical
    _report(13, "generated pairs hit the requested cosine and regenerate identically", ok,
            f"worst |achieved-requested|={worst:.2e}, byte-identical={identical}")
