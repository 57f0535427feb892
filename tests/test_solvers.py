import numpy as np
import pytest

from circumsolve.linalg import (
    AffineSubspace,
    LinearSubspace,
    intersect,
    intersect_all,
    orthonormal_basis,
)
from circumsolve import linalg, solvers
from circumsolve.solvers import (
    SOLVER_KINDS,
    DivergenceError,
    IterationConfig,
    SolverSpec,
    iterate,
    make_solver,
)
from circumsolve.theory import (
    OperatorSet,
    circumcenter_map,
    dr_operator,
    fixed_subspace,
    lift_to_product,
    parallelize,
    reflection_set,
)
from circumsolve.problems import ProblemSpec, gen_subspace_pair

XAXIS = LinearSubspace.span([(1, 0)]).as_affine()
YAXIS = LinearSubspace.span([(0, 1)]).as_affine()
DIAG = LinearSubspace.span([(1, 1)]).as_affine()


def test_iterate_already_converged():
    ref = np.array([1.0, 2.0])
    tr = iterate(lambda x: x, ref.copy(), IterationConfig(), ref)
    assert tr.solved and tr.iterations == 0
    assert len(tr.errors) == 1


def test_iterate_halving_counts_iterations():
    tr = iterate(lambda x: x / 2, np.array([1.0, 0.0]), IterationConfig(tol=0.3), np.zeros(2))
    assert tr.solved and tr.iterations == 2
    np.testing.assert_allclose(tr.errors, [1.0, 0.5, 0.25])


def test_iterate_dr_on_perpendicular_lines_solves_in_one_step():
    T = dr_operator(XAXIS, YAXIS)
    x0 = np.array([2.0, -1.0])  # already in U1 + U2 = R^2
    tr = iterate(T, x0, IterationConfig(tol=1e-12), np.zeros(2))
    assert tr.solved and tr.iterations == 1


def test_iterate_flags_unsolved_at_max_iter():
    tr = iterate(lambda x: x, np.ones(2), IterationConfig(tol=1e-9, max_iter=5), np.zeros(2))
    assert not tr.solved
    assert tr.iterations == 5
    assert len(tr.errors) == 6


@pytest.mark.filterwarnings("ignore:overflow")
def test_iterate_raises_on_divergence():
    def blowup(x):
        return x * 1e200

    with pytest.raises(DivergenceError):
        iterate(blowup, np.ones(2), IterationConfig(tol=1e-9, max_iter=50), np.zeros(2))
    # the last finite iterate is attached whether or not a trace is recorded
    for record in (False, True):
        cfg = IterationConfig(tol=1e-9, max_iter=50, record_trace=record)
        with pytest.raises(DivergenceError) as info:
            iterate(blowup, np.ones(2), cfg, np.zeros(2))
        last = info.value.last_iterate
        assert last is not None and np.all(np.isfinite(last))
        np.testing.assert_array_equal(last, np.full(2, 1e200))


def test_config_validation():
    with pytest.raises(ValueError):
        IterationConfig(tol=0.0)
    with pytest.raises(ValueError):
        IterationConfig(max_iter=0)


def test_map_solver_first_iterate():
    s = make_solver(SolverSpec("map"), [XAXIS, DIAG])
    np.testing.assert_allclose(s.step(np.array([1.0, 2.0])), [0.5, 0.5], atol=1e-12)


def test_drm_solver_governed_step_and_shadow():
    s = make_solver(SolverSpec("drm"), [XAXIS, DIAG])
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(s.step(x), [(1 - 2) / 2, (1 + 2) / 2], atol=1e-12)
    np.testing.assert_allclose(s.monitor(x), [1.0, 0.0], atol=1e-12)


def test_crm_s2_with_projected_start_reaches_the_intersection():
    s = make_solver(SolverSpec("crm_s2"), [XAXIS, DIAG])
    x0 = s.init(XAXIS.project(np.array([1.0, 2.0])))
    np.testing.assert_allclose(x0, [1.0, 0.0], atol=1e-14)
    x1 = s.step(x0)
    np.testing.assert_allclose(x1, [0.5, 0.5], atol=1e-12)
    x2 = s.step(x1)
    np.testing.assert_allclose(x2, [0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("kind", SOLVER_KINDS)
@pytest.mark.parametrize(
    "x0",
    [np.array([1.0]), np.array([1.0, np.nan, 0.0]), np.ones((1, 3))],
    ids=["wrong-length", "non-finite", "2-d"],
)
def test_init_rejects_a_bad_starting_point(kind, x0):
    # the steps do not re-check their iterates, so init is where a bad x0 must stop
    planes = [LinearSubspace.span([(1, 0, 0), (0, 1, 0)]), LinearSubspace.span([(0, 1, 0), (0, 0, 1)])]
    s = make_solver(SolverSpec(kind), planes)
    with pytest.raises(ValueError):
        s.init(x0)


def test_unknown_kind_and_wrong_subspace_count():
    with pytest.raises(ValueError):
        SolverSpec("newton")
    with pytest.raises(ValueError):
        make_solver(SolverSpec("drm"), [XAXIS, DIAG, YAXIS])
    with pytest.raises(ValueError):
        make_solver(SolverSpec("map"), [XAXIS])


def test_solver_key_round_trip():
    spec = SolverSpec.from_key("crm-s4")
    assert spec.kind == "crm_s4"
    assert spec.key == "crm-s4"


def test_parallelize_subtracts_the_anchor():
    A1 = AffineSubspace((0, 1), LinearSubspace.span([(1, 0)]))
    A2 = AffineSubspace((0, 1), LinearSubspace.span([(1, 1)]))
    L1, L2 = parallelize([A1, A2], (0, 1))
    assert L1.same_span(LinearSubspace.span([(1, 0)]))
    assert L2.same_span(LinearSubspace.span([(1, 1)]))


def test_parallelize_keeps_linear_subspaces():
    L1, L2 = parallelize([XAXIS, DIAG], (0, 0))
    assert L1.same_span(XAXIS.direction)
    assert L2.same_span(DIAG.direction)


def test_parallelize_rejects_points_off_the_intersection():
    with pytest.raises(ValueError):
        parallelize([XAXIS, DIAG], (1.0, 0.0))


def test_affine_run_is_conjugate_to_the_linear_run():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(50):
        z = rng.standard_normal(4)
        d1 = orthonormal_basis(rng.standard_normal((2, 4)))
        d2 = orthonormal_basis(rng.standard_normal((2, 4)))
        U1, U2 = AffineSubspace(z, d1), AffineSubspace(z, d2)
        S_aff = reflection_set("s2", [U1, U2])
        S_lin = reflection_set("s2", parallelize([U1, U2], z))
        x = rng.standard_normal(4) * 2
        xa, xl = x.copy(), x - z
        for _ in range(20):
            xa = circumcenter_map(S_aff, xa)
            xl = circumcenter_map(S_lin, xl)
            worst = max(worst, float(np.linalg.norm(xa - (z + xl))))
    assert worst < 1e-9


def _controlled_pair(seed, cf_lo=0.3, cf_hi=0.9, n=10, p=3, q=3, r=1):
    spec = ProblemSpec(n=n, p=p, q=q, r=r, cf_range=(cf_lo, cf_hi), pairs=1, points_per_pair=0, seed=seed)
    L1, L2, cf = gen_subspace_pair(spec, 0)
    return L1.as_affine(), L2.as_affine(), cf


@pytest.mark.parametrize("key", ["crm-s1", "crm-s2", "crm-s3", "crm-s4", "drm", "map"])
def test_fejer_monotone_and_projection_invariant_iterates(key):
    U1, U2, _ = _controlled_pair(31)
    inter = intersect(U1, U2)
    rng = np.random.default_rng(32)
    x0 = rng.standard_normal(10) * 5
    ref = inter.project(x0)
    s = make_solver(SolverSpec.from_key(key), [U1, U2])
    cfg = IterationConfig(tol=1e-9, max_iter=3000, record_trace=True)
    tr = iterate(s.step, s.init(x0), cfg, ref, monitor=s.monitor)
    X = np.array(tr.iterates)
    dists = np.linalg.norm(X - ref, axis=1)
    assert np.all(np.diff(dists) <= 1e-12)
    projections = (X - inter.anchor) @ inter.direction.basis.T @ inter.direction.basis + inter.anchor
    drift = np.linalg.norm(projections - projections[0], axis=1)
    assert np.max(drift, initial=0.0) <= 1e-9 * (1 + np.linalg.norm(x0))


@pytest.mark.parametrize("key", ["crm-s1", "crm-s2", "crm-s3", "crm-s4", "drm"])
def test_squared_consecutive_gaps_are_summable(key):
    # holds whenever the identity lies in the affine hull of the operator set
    U1, U2, _ = _controlled_pair(33)
    inter = intersect(U1, U2)
    rng = np.random.default_rng(34)
    x0 = rng.standard_normal(10) * 5
    z = inter.project(x0)
    s = make_solver(SolverSpec.from_key(key), [U1, U2])
    cfg = IterationConfig(tol=1e-10, max_iter=3000, record_trace=True)
    tr = iterate(s.step, s.init(x0), cfg, z, monitor=s.monitor)
    X = np.array(tr.iterates)
    gaps_sq = np.sum(np.diff(X, axis=0) ** 2, axis=1)
    assert gaps_sq.sum() <= np.linalg.norm(x0 - z) ** 2 + 1e-8


@pytest.mark.parametrize("key", ["crm-s1", "crm-s2", "crm-s3", "crm-s4"])
def test_crm_steps_are_orthogonal_to_the_intersection_directions(key):
    U1, U2, _ = _controlled_pair(35)
    inter = intersect(U1, U2)
    rng = np.random.default_rng(36)
    x0 = rng.standard_normal(10) * 5
    s = make_solver(SolverSpec.from_key(key), [U1, U2])
    cfg = IterationConfig(tol=1e-9, max_iter=3000, record_trace=True)
    tr = iterate(s.step, s.init(x0), cfg, inter.project(x0), monitor=s.monitor)
    X = np.array(tr.iterates)
    inner = (X - x0) @ inter.direction.basis.T
    assert np.abs(inner).max(initial=0.0) <= 1e-9 * (1 + np.linalg.norm(x0))


@pytest.mark.parametrize("key", ["crm-s1", "crm-s2", "crm-s3", "crm-s4"])
def test_crm_converges_to_the_best_approximation(key):
    U1, U2, _ = _controlled_pair(37)
    rng = np.random.default_rng(38)
    x0 = rng.standard_normal(10) * 5
    ref = intersect(U1, U2).project(x0)
    s = make_solver(SolverSpec.from_key(key), [U1, U2])
    tr = iterate(s.step, s.init(x0), IterationConfig(tol=1e-9, max_iter=5000), ref, monitor=s.monitor)
    assert tr.solved


def test_drm_limit_misses_the_intersection_from_bad_starts():
    # two lines spanning only a plane in R^3; start with a component off the plane
    U1 = LinearSubspace.span([(1, 0, 0)]).as_affine()
    U2 = LinearSubspace.span([(np.cos(1.0), np.sin(1.0), 0)]).as_affine()
    x0 = np.array([1.0, 2.0, 3.0])
    T = dr_operator(U1, U2)
    target = fixed_subspace(T, dim=3).project(x0)
    tr = iterate(T, x0, IterationConfig(tol=1e-10, max_iter=10000), target)
    assert tr.solved
    p_inter = intersect(U1, U2).project(x0)
    assert np.linalg.norm(target - p_inter) > 1e-3


def test_three_line_chain_set_collapses_to_the_middle_reflector():
    U1, U2, U3 = XAXIS, DIAG, YAXIS
    S = reflection_set("s2", [U1, U2, U3])
    # keep only {Id, R3 R2 R1} as in the anomaly construction
    S2 = OperatorSet((S.ops[0], S.ops[3]), fixed=S.fixed)
    rng = np.random.default_rng(39)
    for _ in range(50):
        x = rng.standard_normal(2) * 3
        np.testing.assert_allclose(circumcenter_map(S2, x), U2.project(x), atol=1e-12)


def test_product_lift_shapes_and_projections():
    rng = np.random.default_rng(40)
    subs = [LinearSubspace.span(rng.standard_normal((2, 4))).as_affine() for _ in range(3)]
    C, D = lift_to_product(subs)
    assert C.ambient_dim == 12 and D.ambient_dim == 12
    x = rng.standard_normal(12)
    blockwise = np.concatenate([s.project(x[4 * i : 4 * (i + 1)]) for i, s in enumerate(subs)])
    np.testing.assert_allclose(C.project(x), blockwise, atol=1e-12)
    mean = x.reshape(3, 4).mean(axis=0)
    np.testing.assert_allclose(D.project(x), np.tile(mean, 3), atol=1e-12)


def test_product_crm_converges_blockwise():
    rng = np.random.default_rng(41)
    shared = rng.standard_normal(6)
    subs = [
        LinearSubspace.span(np.vstack([shared, rng.standard_normal(6)])).as_affine()
        for _ in range(3)
    ]
    x0 = rng.standard_normal(6) * 3
    ref = intersect_all(subs).project(x0)
    s = make_solver(SolverSpec("product_crm"), subs)
    tr = iterate(s.step, s.init(x0), IterationConfig(tol=1e-8, max_iter=10**4), ref, monitor=s.monitor)
    assert tr.solved


Y_IS_ONE = AffineSubspace((0.0, 1.0), XAXIS.direction)
PAIR_ONLY_KINDS = ("crm_s3", "crm_s4", "drm", "map")


@pytest.mark.parametrize("kind", ["crm_s1", "crm_s2", "product_crm", "crm_s3", "crm_s4", "drm"])
def test_crm_solvers_reject_subspaces_with_no_common_point(kind):
    # the x-axis and the line y = 1 are parallel, so no point lies on all the sets
    subs = [XAXIS, Y_IS_ONE] if kind in PAIR_ONLY_KINDS else [XAXIS, Y_IS_ONE, YAXIS]
    with pytest.raises(ValueError, match="common fixed set is empty"):
        make_solver(SolverSpec(kind), subs)


def _linear_tuple(t, n=12, seed=50):
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(n)
    return [LinearSubspace.span(np.vstack([shared, rng.standard_normal((2, n))])).as_affine() for _ in range(t)]


def _anchored(subs, seed=51):
    z = np.random.default_rng(seed).standard_normal(subs[0].ambient_dim)
    return [AffineSubspace(z, s.direction) for s in subs]


@pytest.mark.parametrize("kind", SOLVER_KINDS)
def test_make_solver_needs_no_intersection_through_the_origin(monkeypatch, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("the emptiness check ran on subspaces through the origin")

    monkeypatch.setattr(solvers, "intersect_all", refuse)
    pair = _linear_tuple(2)
    assert all(s.through_origin for s in pair)
    make_solver(SolverSpec(kind), pair)
    if kind not in PAIR_ONLY_KINDS:
        make_solver(SolverSpec(kind), _linear_tuple(4))


@pytest.mark.parametrize("kind", SOLVER_KINDS)
def test_make_solver_checks_anchored_subspaces_for_a_common_point(monkeypatch, kind):
    calls = []

    def spy(real):
        def wrapped(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(solvers, "intersect_all", spy(intersect_all))
    t = 2 if kind in PAIR_ONLY_KINDS else 4
    subs = _anchored(_linear_tuple(t))
    assert not any(s.through_origin for s in subs)
    make_solver(SolverSpec(kind), subs)
    expected = {"map": [], "avg_proj": []}.get(kind, ["intersect_all"])
    assert calls == expected


@pytest.mark.parametrize("kind", ["crm_s1", "crm_s2", "product_crm", "crm_s3", "crm_s4", "drm"])
def test_make_solver_rejects_a_disjoint_tuple_on_every_call(monkeypatch, kind):
    # the empty fold is kept as well, so the second call raises with no new intersect
    subs = [AffineSubspace((0.0, 2.0), XAXIS.direction), AffineSubspace((0.0, -1.0), XAXIS.direction)]
    if kind not in PAIR_ONLY_KINDS:
        subs.append(YAXIS)
    with pytest.raises(ValueError, match="common fixed set is empty"):
        make_solver(SolverSpec(kind), subs)
    calls = []
    monkeypatch.setattr(linalg, "intersect", lambda a, b: calls.append((a, b)))
    with pytest.raises(ValueError, match="common fixed set is empty"):
        make_solver(SolverSpec(kind), subs)
    assert calls == []


def test_make_solver_rejects_mixed_ambient_dimensions():
    with pytest.raises(ValueError, match="different ambient dimensions"):
        make_solver(SolverSpec("map"), [XAXIS, LinearSubspace.span([(1, 0, 0)])])


def test_avg_proj_converges():
    rng = np.random.default_rng(42)
    subs = [LinearSubspace.span(rng.standard_normal((2, 6))).as_affine() for _ in range(3)]
    x0 = rng.standard_normal(6) * 3
    ref = intersect_all(subs).project(x0)
    s = make_solver(SolverSpec("avg_proj"), subs)
    tr = iterate(s.step, s.init(x0), IterationConfig(tol=1e-8, max_iter=10**6), ref)
    assert tr.solved


# The batched projection of crm-s1, avg-proj and product-crm against the
# per-subspace AffineSubspace._project it replaces.
def _subspaces_of_dims(rng, dims, n, anchored, order):
    subs = []
    for d in dims:
        B = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :d].T
        anchor = 3.0 * rng.standard_normal(n) if anchored else np.zeros(n)
        subs.append(AffineSubspace(anchor, LinearSubspace(n, np.array(B, order=order))))
    return subs


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("anchored", [False, True], ids=["linear", "anchored"])
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_batched_projection_has_the_bits_of_each_projection(t, anchored, order):
    # bases of one dimension; F-ordered input is stored C-contiguous, so each
    # slice of the stack runs the kernel of the subspace's own projection
    rng = np.random.default_rng([53, t])
    n = 30
    for d in (1, 7, 15):
        subs = _subspaces_of_dims(rng, [d] * t, n, anchored, order)
        project = solvers._project_rows(subs)
        for _ in range(5):
            x = 10.0 * rng.standard_normal(n)
            assert np.array_equal(project(x), np.array([s._project(x) for s in subs]))
            X = 10.0 * rng.standard_normal((t, n))
            assert np.array_equal(project(X), np.array([s._project(r) for s, r in zip(subs, X)]))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("anchored", [False, True], ids=["linear", "anchored"])
@pytest.mark.parametrize("dims", [(0, 4), (3, 0, 9), (1, 5, 2, 12), (0, 0, 6, 6, 11)])
def test_batched_projection_of_unequal_dimensions_is_within_rounding(dims, anchored, order):
    # padding with zero rows changes how the BLAS kernel sums, not what it sums
    rng = np.random.default_rng(54)
    n = 30
    subs = _subspaces_of_dims(rng, dims, n, anchored, order)
    project = solvers._project_rows(subs)
    eps = np.finfo(float).eps
    for _ in range(5):
        x = 10.0 * rng.standard_normal(n)
        X = 10.0 * rng.standard_normal((len(dims), n))
        for rows, points in ((project(x), [x] * len(dims)), (project(X), X)):
            for row, s, p in zip(rows, subs, points):
                bound = 10 * n * eps * (np.linalg.norm(p) + np.linalg.norm(s.anchor))
                assert np.linalg.norm(row - s._project(p)) <= bound
    for s, row in zip(subs, project(np.zeros(n))):
        if s.direction.dim == 0:
            assert np.array_equal(row, s.anchor)


@pytest.mark.parametrize("anchored", [False, True], ids=["linear", "anchored"])
def test_avg_proj_step_adds_the_projections_in_order(anchored):
    rng = np.random.default_rng(55)
    n = 30
    for t in (2, 3, 4, 5):
        subs = _subspaces_of_dims(rng, [8] * t, n, anchored, "C")
        step = make_solver(SolverSpec("avg_proj"), subs).step
        for _ in range(5):
            x = 10.0 * rng.standard_normal(n)
            acc = subs[0]._project(x)
            for s in subs[1:]:
                acc = acc + s._project(x)
            assert np.array_equal(step(x), acc / t)


def _t4_grid():
    # three tuples of four affine subspaces of R^20 through a shared point,
    # each spanned by a shared plane and directions of its own; the second
    # hands its bases over in F order, the third has unequal dimensions
    grid = []
    for g, (dims, order) in enumerate([((6, 6, 6, 6), "C"), ((8, 8, 8, 8), "F"), ((5, 6, 7, 8), "C")]):
        rng = np.random.default_rng([1414, g])
        n = 20
        z = 3.0 * rng.standard_normal(n)
        shared = rng.standard_normal((2, n))
        subs = []
        for d in dims:
            B = orthonormal_basis(np.vstack([shared, rng.standard_normal((d - 2, n))])).basis
            subs.append(AffineSubspace(z, LinearSubspace(n, np.array(B, order=order))))
        starts = [10.0 * v / np.linalg.norm(v) for v in rng.standard_normal((2, n))]
        grid.append((subs, starts))
    return grid


# Iteration counts on _t4_grid, tuple by tuple and start by start; a change
# that moves one must name the cell and explain it before this is updated.
PINNED_T4_COUNTS = {
    "crm-s1": [18, 18, 30, 27, 22, 24],
    "crm-s2": [11, 11, 13, 13, 14, 13],
    "avg-proj": [34, 33, 54, 52, 38, 40],
    "product-crm": [67, 66, 108, 103, 76, 80],
}


@pytest.mark.parametrize("key", sorted(PINNED_T4_COUNTS))
def test_iteration_counts_on_four_anchored_subspaces_are_pinned(key):
    counts = []
    for subs, starts in _t4_grid():
        inter = intersect_all(subs)
        for x0 in starts:
            s = make_solver(SolverSpec.from_key(key), subs)
            tr = iterate(s.step, s.init(x0), IterationConfig(tol=1e-6), inter.project(x0), monitor=s.monitor)
            counts.append(tr.iterations if tr.solved else None)
    assert counts == PINNED_T4_COUNTS[key]


# Reflection-closed reduction: from the first step on, a crm-s3 iterate lies
# in U_2 and a crm-s4 iterate in U_1, where the step is the three-point C-DRM
# step of crm-s2 (on (U_1, U_2) for s3, on (U_2, U_1) for s4), solved in
# closed form without the rank-revealing QR of larger sets.
def _refuse_qr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a reduced step ran the rank-revealing QR")

    monkeypatch.setattr(linalg, "_geqp3", refuse)


def _reduction_pair(anchored, seed=52, n=30, cf_range=(0.6, 0.95)):
    spec = ProblemSpec(n=n, cf_range=cf_range, pairs=1, points_per_pair=0, seed=seed)
    L1, L2, _ = gen_subspace_pair(spec, 0)
    rng = np.random.default_rng(seed)
    z = 3.0 * rng.standard_normal(n) if anchored else np.zeros(n)
    return AffineSubspace(z, L1), AffineSubspace(z, L2), 10.0 * rng.standard_normal(n)


@pytest.mark.parametrize("anchored", [False, True], ids=["linear", "anchored"])
def test_crm_s3_steps_in_u2_are_crm_s2_steps(monkeypatch, anchored):
    U1, U2, x = _reduction_pair(anchored)
    s3 = make_solver(SolverSpec("crm_s3"), [U1, U2]).step
    s2 = make_solver(SolverSpec("crm_s2"), [U1, U2]).step
    x = s3(x)
    _refuse_qr(monkeypatch)
    for _ in range(20):
        nxt = s3(x)
        assert np.array_equal(nxt, s2(x))
        x = nxt


@pytest.mark.parametrize("anchored", [False, True], ids=["linear", "anchored"])
@pytest.mark.parametrize("start", ["one-step", "projected"])
def test_crm_s4_steps_in_u1_are_reversed_crm_s2_steps(monkeypatch, anchored, start):
    U1, U2, x = _reduction_pair(anchored)
    s4 = make_solver(SolverSpec("crm_s4"), [U1, U2]).step
    s2 = make_solver(SolverSpec("crm_s2"), [U2, U1]).step
    x = s4(x) if start == "one-step" else U1.project(x)
    _refuse_qr(monkeypatch)
    for _ in range(20):
        nxt = s4(x)
        assert np.array_equal(nxt, s2(x))
        x = nxt


@pytest.mark.parametrize("anchored", [False, True], ids=["linear", "anchored"])
@pytest.mark.parametrize("kind, generic", [("crm_s3", 3), ("crm_s4", 5)])
def test_a_step_in_the_closing_subspace_makes_three_reflections(monkeypatch, anchored, kind, generic):
    # a point of the closing subspace that the step did not make takes the
    # test reflection; the step's own last output is known to lie there and
    # takes the two of the C-DRM set
    calls = []
    reflect = AffineSubspace._reflect

    def counting(self, x):
        calls.append(1)
        return reflect(self, x)

    monkeypatch.setattr(AffineSubspace, "_reflect", counting)
    U1, U2, x0 = _reduction_pair(anchored)
    closing = U2 if kind == "crm_s3" else U1
    s = make_solver(SolverSpec(kind), [U1, U2])
    x1 = s.step(x0)
    for x, made in [(x1, 2), (x1.copy(), 3), (closing.project(x0), 3), (x0, generic)]:
        calls.clear()
        s.step(x)
        assert len(calls) == made


@pytest.mark.parametrize("anchored", [False, True], ids=["linear", "anchored"])
@pytest.mark.parametrize("kind", ["crm_s3", "crm_s4"])
@pytest.mark.parametrize("cf_range", [(0.5, 0.9), (0.99, 0.999), (0.999, 0.9999)])
def test_steady_steps_stay_in_the_closing_subspace(anchored, kind, cf_range):
    # the lemma behind the two-reflection step: over a long run every iterate
    # is its own reflection through U_2 (U_1 for s4) within the noise floor
    # the full set tests, and each step has the bits of that full step
    U1, U2, x = _reduction_pair(anchored, cf_range=cf_range)
    closing = U2 if kind == "crm_s3" else U1
    s = make_solver(SolverSpec(kind), [U1, U2])
    x = s.step(x)
    for _ in range(200):
        y = closing.reflect(x)
        floor = linalg.noise_floor(x.size, max(x.dot(x), y.dot(y)))
        assert np.linalg.norm(y - x) <= floor
        nxt = s.step(x)
        assert np.array_equal(nxt, make_solver(SolverSpec(kind), [U1, U2]).step(x.copy()))
        x = nxt


@pytest.mark.parametrize("kind", ["crm_s3", "crm_s4"])
def test_a_reused_solver_restarts_with_the_full_set(kind):
    U1, U2, x0 = _reduction_pair(True, cf_range=(0.9, 0.95))
    s = make_solver(SolverSpec(kind), [U1, U2])
    inter = intersect(U1, U2)
    cfg = IterationConfig(tol=1e-9, record_trace=True)
    runs = [iterate(s.step, s.init(x0), cfg, inter.project(x0), monitor=s.monitor) for _ in range(2)]
    assert runs[0].solved and runs[0].iterations == runs[1].iterations
    for a, b in zip(runs[0].iterates, runs[1].iterates):
        assert np.array_equal(a, b)
    fresh = make_solver(SolverSpec(kind), [U1, U2])
    assert np.array_equal(runs[1].iterates[1], fresh.step(x0))


@pytest.mark.parametrize("kind", ["crm_s3", "crm_s4"])
def test_a_reduced_step_output_is_read_only(kind):
    U1, U2, x0 = _reduction_pair(False)
    y = make_solver(SolverSpec(kind), [U1, U2]).step(x0)
    with pytest.raises(ValueError):
        y[0] = 1.0


# numpy still warns of overflow on the step path for points this large (the
# circumcenter solve squares them), though the step is right; the step's
# closing test must not overflow, or a generic start takes the C-DRM set
@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("norm", [1e155, 1e160, 1e300])
@pytest.mark.parametrize("anchored", [False, True], ids=["linear", "anchored"])
@pytest.mark.parametrize("kind", ["crm_s3", "crm_s4"])
def test_a_first_step_from_a_huge_start_is_the_circumcenter_map(kind, anchored, norm):
    U1, U2, x = _reduction_pair(anchored)
    x0 = x * (norm / np.linalg.norm(x))
    step = make_solver(SolverSpec(kind), [U1, U2]).step
    assert np.array_equal(step(x0), circumcenter_map(reflection_set(kind[-2:], [U1, U2]), x0))


# the twin of the huge start: below about 1e-154 the squares of x, R x and
# their difference underflow to zero, and a zero floor once passed every point
@pytest.mark.parametrize("norm", [1e-170, 1e-200, 1e-300])
@pytest.mark.parametrize("anchored", [False, True], ids=["linear", "anchored"])
@pytest.mark.parametrize("kind", ["crm_s3", "crm_s4"])
def test_a_first_step_from_a_tiny_start_is_the_circumcenter_map(kind, anchored, norm):
    U1, U2, x = _reduction_pair(anchored)
    x0 = x * (norm / np.linalg.norm(x))
    step = make_solver(SolverSpec(kind), [U1, U2]).step
    assert np.array_equal(step(x0), circumcenter_map(reflection_set(kind[-2:], [U1, U2]), x0))


@pytest.mark.parametrize("kind", ["map", "drm", "product_crm"])
def test_iterate_rejects_a_reference_of_another_shape(kind):
    # a length-1 reference once broadcast against the iterate, and a run could
    # report itself solved at k = 0
    U1, U2, x0 = _reduction_pair(False, n=5)
    s = make_solver(SolverSpec(kind), [U1, U2])
    for reference in (np.zeros(1), np.zeros(10), np.zeros((1, 5)), 0.0):
        with pytest.raises(ValueError, match="reference has shape"):
            iterate(s.step, s.init(x0), IterationConfig(), reference, monitor=s.monitor)
    iterate(s.step, s.init(x0), IterationConfig(max_iter=3), np.zeros(5), monitor=s.monitor)
