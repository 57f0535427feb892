import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumsolve import bench
from circumsolve.bench import (
    PerformanceCell,
    measure,
    performance_profile,
    read_matrix_csv,
    run_benchmark,
    run_grid,
    write_matrix_csv,
)
from circumsolve.linalg import LinearSubspace
from circumsolve.problems import Problem, ProblemSpec, generate_problem_set, save_problem_set
from circumsolve.solvers import SOLVER_KEYS, DivergenceError, IterationConfig, SolverSpec, Trace, iterate, make_solver

XAXIS = LinearSubspace.span([(1, 0)]).as_affine()
YAXIS = LinearSubspace.span([(0, 1)]).as_affine()


def _perpendicular_problem():
    x0 = np.array([3.0, 4.0])
    return Problem("perp", (XAXIS, YAXIS), x0, np.zeros(2), 0.0)


def test_measure_crm_s3_on_perpendicular_lines_is_fast():
    cell = measure(_perpendicular_problem(), SolverSpec("crm_s3"), IterationConfig())
    assert cell.solved and cell.iterations <= 2


def test_measure_map_identical_subspaces_single_iteration():
    prob = Problem("same", (XAXIS, XAXIS), np.array([3.0, 4.0]), np.array([3.0, 0.0]), 0.0)
    cell = measure(prob, SolverSpec("map"), IterationConfig())
    assert cell.solved and cell.iterations == 1


def test_measure_flags_unsolved_under_hopeless_budget():
    # lines at 60 degrees: alternating projections only converge in the limit
    tilted = LinearSubspace.span([(np.cos(np.pi / 3), np.sin(np.pi / 3))]).as_affine()
    prob = Problem("tilted", (XAXIS, tilted), np.array([3.0, 4.0]), np.zeros(2), 0.5)
    cfg = IterationConfig(tol=5e-324, max_iter=1)
    cell = measure(prob, SolverSpec("map"), cfg)
    assert not cell.solved
    assert cell.iterations is None and cell.runtime_ns is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_product_crm_run_that_overflows_diverges_and_its_cell_is_unsolved():
    # the blocks' mean of a start of norm 1.5e308 overflows on the first
    # step; the step solves no circumcenter, so the driver raises, and measure
    # reports the cell unsolved as it does a diverged drm run
    diag = LinearSubspace.span([(1, 1)]).as_affine()
    prob = Problem("huge", (XAXIS, YAXIS, diag), np.full(2, 1.5e308 / np.sqrt(2.0)), np.zeros(2), 0.0)
    spec = SolverSpec("product_crm")
    s = make_solver(spec, prob.subspaces)
    with pytest.raises(DivergenceError, match="iterate 1 is not finite"):
        iterate(s.step, s.init(prob.x0), IterationConfig(), prob.reference, monitor=s.monitor)
    with pytest.warns(UserWarning, match="product-crm diverged on huge"):
        cell = measure(prob, spec, IterationConfig())
    assert not cell.solved and cell.iterations is None


def _overflowing_problem():
    # the reflections of a start this large overflow on the first step
    diag = LinearSubspace.span([(1, 1)]).as_affine()
    return Problem("overflow", (XAXIS, diag), np.full(2, 1.06e308), np.zeros(2), 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key", SOLVER_KEYS)
def test_measure_reports_a_run_whose_reflections_overflow_and_does_not_raise(key):
    # the CRM kinds find no circumcenter there, drm, avg-proj and product-crm
    # diverge, and map, whose projections stay finite, solves
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cell = measure(_overflowing_problem(), SolverSpec.from_key(key), IterationConfig())
    reported = [str(w.message) for w in caught if w.category is UserWarning]
    if key == "map":
        assert cell.solved and reported == []
    else:
        assert not cell.solved and cell.iterations is None
        assert len(reported) == 1 and reported[0].startswith(f"{key} ") and " on overflow: " in reported[0]
    if key.startswith("crm-"):
        assert "no equidistant point found" in reported[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_grid_with_an_overflowing_start_runs_to_the_end():
    keys = list(SOLVER_KEYS)
    cells = run_grid([_overflowing_problem(), _perpendicular_problem()], keys, IterationConfig())
    assert [c.solver_key for c in cells] == keys * 2
    assert [c.solved for c in cells[: len(keys)]] == [k == "map" for k in keys]
    assert all(c.solved for c in cells[len(keys) :])


def test_measure_runtime_keeps_the_least_of_its_repeats(monkeypatch):
    walls = iter([3e-3, 1e-3, 2e-3])

    def timed(step, x0, cfg, reference, monitor=None):
        return Trace(np.zeros(2), 1, True, next(walls))

    monkeypatch.setattr(bench, "iterate", timed)
    cell = measure(_perpendicular_problem(), SolverSpec("map"), IterationConfig(), "runtime")
    assert cell.runtime_ns == 1_000_000
    assert next(walls, None) is None


def test_measure_runtime_records_nanoseconds():
    cell = measure(_perpendicular_problem(), SolverSpec("map"), IterationConfig(), "runtime")
    assert cell.solved and cell.runtime_ns is not None and cell.runtime_ns > 0


def test_profile_single_solver_all_solved():
    # degenerate single-solver case: every ratio is 1, so rho(1) = 1
    cells = [PerformanceCell(f"p{i}", "map", True, 3 + i, None) for i in range(4)]
    (curve,) = performance_profile(cells)
    assert curve.breakpoints == ((1.0, 1.0),)


def test_profile_hand_computed_two_by_two():
    cells = [
        PerformanceCell("p1", "a", True, 1, None),
        PerformanceCell("p1", "b", True, 2, None),
        PerformanceCell("p2", "a", True, 2, None),
        PerformanceCell("p2", "b", True, 2, None),
    ]
    ca, cb = performance_profile(cells, ["a", "b"])
    ratios = dict(ca.breakpoints)
    assert ratios[1.0] == 1.0
    ratios_b = dict(cb.breakpoints)
    assert ratios_b[1.0] == 0.5 and ratios_b[2.0] == 1.0


def test_profile_unsolved_cell_plateaus_below_one():
    cells = [
        PerformanceCell("p1", "a", True, 1, None),
        PerformanceCell("p1", "b", False, None, None),
        PerformanceCell("p2", "a", True, 4, None),
        PerformanceCell("p2", "b", True, 2, None),
    ]
    ca, cb = performance_profile(cells, ["a", "b"])
    assert cb.breakpoints[-1][1] == 0.5
    assert ca.breakpoints[-1][1] == 1.0


def test_profile_ratio_against_a_best_of_zero_is_infinite_unless_zero():
    cells = [
        PerformanceCell("p1", "a", True, 0, None),
        PerformanceCell("p1", "b", True, 3, None),
        PerformanceCell("p1", "c", True, 0, None),
    ]
    ca, cb, cc = performance_profile(cells, ["a", "b", "c"])
    assert ca.breakpoints == cc.breakpoints == ((1.0, 1.0),)
    assert cb.breakpoints == ((1.0, 0.0),)


def test_profile_warns_and_drops_all_unsolved_problems():
    cells = [
        PerformanceCell("p1", "a", False, None, None),
        PerformanceCell("p1", "b", False, None, None),
        PerformanceCell("p2", "a", True, 1, None),
        PerformanceCell("p2", "b", True, 3, None),
    ]
    with pytest.warns(UserWarning, match="p1"):
        ca, _ = performance_profile(cells, ["a", "b"])
    assert ca.breakpoints[-1][1] == 1.0


def test_profile_invariant_under_solver_reordering():
    rng = np.random.default_rng(0)
    cells = []
    for p in range(6):
        for s in ("a", "b", "c"):
            cells.append(PerformanceCell(f"p{p}", s, True, int(rng.integers(1, 30)), None))
    fwd = {c.solver_key: c.breakpoints for c in performance_profile(cells, ["a", "b", "c"])}
    rev = {c.solver_key: c.breakpoints for c in performance_profile(cells, ["c", "a", "b"])}
    assert fwd == rev


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(1, 100), st.integers(1, 100)),
        min_size=2,
        max_size=20,
    )
)
def test_profile_curves_are_monotone_and_bounded(rows):
    cells = []
    for i, (ok_b, ta, tb) in enumerate(rows):
        cells.append(PerformanceCell(f"p{i}", "a", True, ta, None))
        cells.append(PerformanceCell(f"p{i}", "b", ok_b, tb if ok_b else None, None))
    curves = performance_profile(cells, ["a", "b"])
    for curve in curves:
        rhos = [r for _, r in curve.breakpoints]
        assert all(0.0 <= r <= 1.0 for r in rhos)
        assert all(r2 >= r1 for r1, r2 in zip(rhos, rhos[1:]))
        taus = [t for t, _ in curve.breakpoints]
        assert all(t >= 1.0 for t in taus)
        assert taus == sorted(taus)


def _tiny_problem_file(tmp_path, seed=12):
    spec = ProblemSpec(n=8, p=2, q=2, r=0, cf_range=(0.2, 0.7), pairs=2, points_per_pair=2, seed=seed)
    path = tmp_path / "probs.json"
    save_problem_set(generate_problem_set(spec), path)
    return path


def test_run_benchmark_writes_expected_shapes(tmp_path):
    path = _tiny_problem_file(tmp_path)
    out = tmp_path / "matrix.csv"
    matrix_path, profile_path = run_benchmark(path, ["crm-s2", "drm", "map"], IterationConfig(), "iterations", out)
    lines = matrix_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 3  # header + problems x solvers
    header = profile_path.read_text().splitlines()[0]
    assert header == "tau,log2_tau,rho_crm-s2,rho_drm,rho_map"


def test_run_benchmark_iteration_measure_is_deterministic(tmp_path):
    path = _tiny_problem_file(tmp_path)
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    run_benchmark(path, ["crm-s3", "map"], IterationConfig(), "iterations", out1)
    run_benchmark(path, ["crm-s3", "map"], IterationConfig(), "iterations", out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_run_benchmark_runtime_measure_keeps_iteration_columns(tmp_path):
    path = _tiny_problem_file(tmp_path)
    out_i, out_t = tmp_path / "mi.csv", tmp_path / "mt.csv"
    run_benchmark(path, ["map"], IterationConfig(), "iterations", out_i)
    run_benchmark(path, ["map"], IterationConfig(), "runtime", out_t)
    rows_i = [line.split(",") for line in out_i.read_text().strip().splitlines()[1:]]
    rows_t = [line.split(",") for line in out_t.read_text().strip().splitlines()[1:]]
    for a, b in zip(rows_i, rows_t):
        assert a[:4] == b[:4]  # id, solver, solved, iterations agree
        assert a[4] == "" and b[4] != ""


@pytest.mark.parametrize("keys", [["map", "map", "crm-s3"], ["crm_s3", "crm-s3"]])
def test_run_benchmark_rejects_a_solver_named_twice(tmp_path, keys):
    out = tmp_path / "matrix.csv"
    with pytest.raises(ValueError, match="named twice"):
        run_benchmark(_tiny_problem_file(tmp_path), keys, IterationConfig(), "iterations", out)
    assert not out.exists()


def test_profile_rejects_a_solver_named_twice():
    cells = [PerformanceCell("p1", "a", True, 1, None), PerformanceCell("p1", "b", True, 2, None)]
    with pytest.raises(ValueError, match="'a' is named twice"):
        performance_profile(cells, ["a", "b", "a"])


def test_matrix_csv_round_trip(tmp_path):
    cells = [
        PerformanceCell("p1", "map", True, 7, 12345),
        PerformanceCell("p2", "drm", False, None, None),
    ]
    path = tmp_path / "m.csv"
    write_matrix_csv(cells, path)
    assert read_matrix_csv(path) == cells


def test_worker_pool_matches_sequential(tmp_path, monkeypatch):
    path = _tiny_problem_file(tmp_path, seed=13)
    from circumsolve.problems import load_problem_set

    problems = load_problem_set(path).problems()
    seq = run_grid(problems, ["crm-s2", "map"], IterationConfig())
    monkeypatch.setenv("CIRCUMSOLVE_WORKERS", "4")
    par = run_grid(problems, ["crm-s2", "map"], IterationConfig())
    assert seq == par


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_run_grid_rejects_a_bad_worker_count(tmp_path, monkeypatch, value):
    path = _tiny_problem_file(tmp_path, seed=13)
    from circumsolve.problems import load_problem_set

    problems = load_problem_set(path).problems()
    monkeypatch.setenv("CIRCUMSOLVE_WORKERS", value)
    with pytest.raises(ValueError, match="CIRCUMSOLVE_WORKERS"):
        run_grid(problems, ["map"], IterationConfig())
