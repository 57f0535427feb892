import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumsolve.linalg import (
    FEAS_TOL,
    AffineSubspace,
    LinearSubspace,
    friedrichs_cosine,
    intersect,
    intersect_all,
    orthogonal_complement,
    orthonormal_basis,
)
from circumsolve import linalg
from circumsolve.problems import ProblemSpec, gen_subspace_pair, generate_problem_set
from circumsolve.theory import lift_to_product, reflection_set


def test_orthonormal_basis_drops_duplicate_direction():
    L = orthonormal_basis([(1, 0), (2, 0)])
    assert L.dim == 1
    np.testing.assert_allclose(np.abs(L.basis), [[1, 0]], atol=1e-14)


def test_orthonormal_basis_empty_input_is_zero_subspace():
    L = orthonormal_basis([], dim=3)
    assert L.dim == 0
    assert L.ambient_dim == 3


def test_orthonormal_basis_rank_matches_svd():
    vecs = np.array([[1, 1, 0], [1, 0, 1], [0, 1, -1]], dtype=float)
    # independent rank oracle: singular values of the stacked matrix
    svd_rank = int(np.sum(np.linalg.svd(vecs, compute_uv=False) > 1e-10))
    L = orthonormal_basis(vecs)
    assert L.dim == svd_rank == 2


def test_orthonormal_basis_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        orthonormal_basis([np.ones(2), np.ones(3)])


def test_project_coordinate_axis():
    S = LinearSubspace.span([(1, 0)])
    np.testing.assert_allclose(S.project((3, 4)), [3, 0])


def test_project_affine_line():
    S = AffineSubspace((0, 1), LinearSubspace.span([(1, 0)]))
    np.testing.assert_allclose(S.project((3, 4)), [3, 1])


def test_project_full_space_is_identity():
    S = LinearSubspace.full(4)
    x = np.arange(4.0)
    np.testing.assert_allclose(S.project(x), x)


def test_project_idempotent_and_orthogonal_residual():
    rng = np.random.default_rng(11)
    S = AffineSubspace(rng.standard_normal(5), LinearSubspace.span(rng.standard_normal((2, 5))))
    x = rng.standard_normal(5)
    p = S.project(x)
    np.testing.assert_allclose(S.project(p), p, atol=1e-12)
    assert np.abs(S.direction.basis @ (x - p)).max() < 1e-12


def test_reflect_axis_and_affine_line():
    axis = LinearSubspace.span([(1, 0)])
    np.testing.assert_allclose(axis.reflect((1, 2)), [1, -2])
    line = AffineSubspace((0, 1), LinearSubspace.span([(1, 0)]))
    np.testing.assert_allclose(line.reflect((3, 4)), [3, -2])


def test_reflect_fixes_points_on_the_subspace_and_is_involutive():
    rng = np.random.default_rng(3)
    S = AffineSubspace(rng.standard_normal(4), LinearSubspace.span(rng.standard_normal((2, 4))))
    on = S.project(rng.standard_normal(4))
    np.testing.assert_allclose(S.reflect(on), on, atol=1e-12)
    x = rng.standard_normal(4)
    np.testing.assert_allclose(S.reflect(S.reflect(x)), x, atol=1e-12)


def test_intersect_shared_axis():
    A = LinearSubspace.span([(1, 0, 0), (0, 1, 0)])
    B = LinearSubspace.span([(0, 1, 0), (0, 0, 1)])
    I = intersect(A, B)
    assert I.direction.same_span(LinearSubspace.span([(0, 1, 0)]))


def _parallel_lines():
    A = AffineSubspace((0, 0), LinearSubspace.span([(1, 0)]))
    B = AffineSubspace((0, 1), LinearSubspace.span([(1, 0)]))
    return A, B


def _planes_r6(second_direction):
    # two planes of R^6 sharing the direction q0, offset along q3, which lies
    # outside the sum of their spans
    rng = np.random.default_rng(21)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = AffineSubspace(Q[:, 4], LinearSubspace(6, Q[:, :2].T))
    B = AffineSubspace(Q[:, 4] + 0.5 * Q[:, 3], LinearSubspace.span([Q[:, 0], second_direction(Q)]))
    return A, B


@pytest.mark.parametrize(
    "make",
    [
        _parallel_lines,
        lambda: _planes_r6(lambda Q: Q[:, 1]),
        lambda: _planes_r6(lambda Q: Q[:, 1] + Q[:, 2]),
    ],
    ids=["lines-R2", "parallel-planes-R6", "skew-planes-R6"],
)
def test_intersect_parallel_sets_are_empty(make):
    A, B = make()
    assert intersect(A, B) is None
    assert intersect(B, A) is None


def test_intersect_idempotent():
    rng = np.random.default_rng(4)
    A = AffineSubspace(rng.standard_normal(5), LinearSubspace.span(rng.standard_normal((2, 5))))
    I = intersect(A, A)
    assert I.same_set(A)


def test_intersect_point_intersection():
    # two transversal lines in the plane meet at a single point
    A = AffineSubspace((0, 1), LinearSubspace.span([(1, 0)]))
    B = AffineSubspace((0, 0), LinearSubspace.span([(1, 1)]))
    I = intersect(A, B)
    assert I.direction.dim == 0
    np.testing.assert_allclose(I.anchor, [1, 1], atol=1e-12)


def _oracle_directions(B1, B2):
    # common directions: left singular vectors of B1 B2^T with cosine 1
    if B1.shape[0] == 0 or B2.shape[0] == 0:
        return np.zeros((0, B1.shape[1]))
    U, cos, _ = np.linalg.svd(B1 @ B2.T)
    return U[:, : cos.size][:, cos >= 1 - 1e-12].T @ B1


def _near_parallel_pair(i):
    spec = ProblemSpec(n=100, cf_range=(0.9999, 0.999999), pairs=4, points_per_pair=0, seed=31)
    L1, L2, _ = gen_subspace_pair(spec, i)
    return L1, L2, spec.r


def _nested_pair():
    rng = np.random.default_rng(22)
    big = LinearSubspace.span(rng.standard_normal((4, 9)))
    small = LinearSubspace.span(rng.standard_normal((2, 4)) @ big.basis)
    return small, big, 2


def _complementary_pair():
    rng = np.random.default_rng(23)
    L = LinearSubspace.span(rng.standard_normal((3, 7)))
    return L, orthogonal_complement(L), 0


def _generic_pair():
    rng = np.random.default_rng(24)
    return LinearSubspace.span(rng.standard_normal((2, 8))), LinearSubspace.span(rng.standard_normal((5, 8))), 0


def _full_and_subspace():
    rng = np.random.default_rng(25)
    return LinearSubspace.full(6), LinearSubspace.span(rng.standard_normal((2, 6))), 2


def _full_and_full():
    return LinearSubspace.full(5), LinearSubspace.full(5), 5


def _zero_and_subspace():
    rng = np.random.default_rng(26)
    return LinearSubspace.zero(6), LinearSubspace.span(rng.standard_normal((3, 6))), 0


def _zero_and_zero():
    return LinearSubspace.zero(4), LinearSubspace.zero(4), 0


LINEAR_PAIRS = {
    "cF-near-1-a": lambda: _near_parallel_pair(0),
    "cF-near-1-b": lambda: _near_parallel_pair(1),
    "cF-near-1-c": lambda: _near_parallel_pair(2),
    "cF-near-1-d": lambda: _near_parallel_pair(3),
    "nested": _nested_pair,
    "complementary": _complementary_pair,
    "generic-transversal": _generic_pair,
    "full-and-subspace": _full_and_subspace,
    "full-and-full": _full_and_full,
    "zero-and-subspace": _zero_and_subspace,
    "zero-and-zero": _zero_and_zero,
}


@pytest.mark.parametrize("name", list(LINEAR_PAIRS))
def test_intersect_matches_principal_vector_oracle(name):
    L1, L2, r = LINEAR_PAIRS[name]()
    oracle = LinearSubspace(L1.ambient_dim, _oracle_directions(L1.basis, L2.basis))
    assert oracle.dim == r
    for I in (intersect(L1, L2), intersect(L2, L1)):
        assert I.direction.dim == r
        assert I.direction.same_span(oracle)
        np.testing.assert_allclose(I.anchor, 0.0, atol=1e-12)
    assert intersect(L1, L2).same_set(intersect(L2, L1))


@pytest.mark.parametrize("seed", [41, 42, 43])
@pytest.mark.parametrize("dims", [(3, 3, 1), (2, 5, 2), (4, 6, 0)], ids=["p3q3r1", "p2q5r2", "p4q6r0"])
def test_intersect_anchored_pair_gives_min_norm_common_point(seed, dims):
    p, q, r = dims
    n = 10
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    shared, own1, own2 = Q[:, :r], Q[:, r:p], Q[:, p : p + q - r]
    z = 3.0 * rng.standard_normal(n)  # a common point, far from the origin
    L1 = LinearSubspace.span(np.hstack([shared, own1 + 0.3 * own2[:, : p - r]]).T)
    L2 = LinearSubspace.span(np.hstack([shared, own2]).T)
    A, B = AffineSubspace(z, L1), AffineSubspace(z, L2)
    I = intersect(A, B)
    assert I is not None and I.direction.dim == r
    assert np.linalg.norm(I.anchor) > 1.0
    assert A.contains(I.anchor) and B.contains(I.anchor)
    assert np.linalg.norm(A.project(I.anchor) - I.anchor) <= FEAS_TOL
    assert np.linalg.norm(B.project(I.anchor) - I.anchor) <= FEAS_TOL
    # oracle: minimum-norm solution of the stacked complement system
    Pa, Pb = np.eye(n) - L1.basis.T @ L1.basis, np.eye(n) - L2.basis.T @ L2.basis
    M = np.vstack([Pa, Pb])
    x, *_ = np.linalg.lstsq(M, np.concatenate([Pa @ A.anchor, Pb @ B.anchor]), rcond=1e-10)
    np.testing.assert_allclose(I.anchor, x, atol=1e-9)
    assert I.same_set(intersect(B, A))


def test_intersect_point_and_subspace():
    line = AffineSubspace((0, 1, 0), LinearSubspace.span([(1, 0, 0)]))
    on = AffineSubspace((2, 1, 0), LinearSubspace.zero(3))
    off = AffineSubspace((2, 1, 1e-3), LinearSubspace.zero(3))
    for a, b in ((on, line), (line, on)):
        I = intersect(a, b)
        assert I.direction.dim == 0
        np.testing.assert_allclose(I.anchor, [2, 1, 0], atol=1e-14)
    assert intersect(off, line) is None and intersect(line, off) is None
    assert intersect(on, AffineSubspace((0, 0, 0), LinearSubspace.full(3))).same_set(on)


def test_orthogonal_complement_basic():
    C = orthogonal_complement(LinearSubspace.span([(1, 0)]))
    assert C.same_span(LinearSubspace.span([(0, 1)]))
    full = orthogonal_complement(LinearSubspace.zero(3))
    assert full.dim == 3


def test_orthogonal_complement_dimension_and_involution():
    rng = np.random.default_rng(5)
    L = LinearSubspace.span(rng.standard_normal((3, 7)))
    C = orthogonal_complement(L)
    assert L.dim + C.dim == 7
    assert np.abs(L.basis @ C.basis.T).max() < 1e-12
    assert orthogonal_complement(C).same_span(L)


def test_friedrichs_planar_angle():
    U = LinearSubspace.span([(1, 0)])
    V = LinearSubspace.span([(np.cos(np.pi / 3), np.sin(np.pi / 3))])
    assert friedrichs_cosine(U, V) == pytest.approx(0.5, abs=1e-12)


def test_friedrichs_orthogonal_pair_is_zero():
    U = LinearSubspace.span([(1, 0, 0)])
    V = LinearSubspace.span([(0, 1, 0)])
    assert friedrichs_cosine(U, V) == pytest.approx(0.0, abs=1e-12)


def test_friedrichs_deflates_the_intersection():
    theta = np.pi / 4
    U = LinearSubspace.span([(1, 0, 0), (0, 1, 0)])
    V = LinearSubspace.span([(0, 1, 0), (np.cos(theta), 0, np.sin(theta))])
    # oracle: remove e2 by hand, then take the SVD of the cross-Gram matrix
    Ud = np.array([[1.0, 0.0, 0.0]])
    Vd = np.array([[np.cos(theta), 0.0, np.sin(theta)]])
    expected = np.linalg.svd(Ud @ Vd.T, compute_uv=False)[0]
    assert friedrichs_cosine(U, V) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(np.cos(theta), abs=1e-12)


def test_friedrichs_nested_subspaces_use_zero_convention():
    U = LinearSubspace.span([(1, 0, 0)])
    V = LinearSubspace.span([(1, 0, 0), (0, 1, 0)])
    assert friedrichs_cosine(U, V) == 0.0
    # a generic nested pair and a subspace against itself, whose bases agree
    # only to rounding: deflating the rounding left a noise direction behind
    rng = np.random.default_rng(12)
    V = LinearSubspace.span(rng.standard_normal((4, 7)))
    U = LinearSubspace.span(rng.standard_normal((2, 4)) @ V.basis)
    assert friedrichs_cosine(U, V) == 0.0
    assert friedrichs_cosine(V, U) == 0.0
    assert friedrichs_cosine(V, V) == 0.0


def test_friedrichs_symmetry_and_orthogonal_invariance():
    rng = np.random.default_rng(6)
    U = LinearSubspace.span(rng.standard_normal((2, 6)))
    V = LinearSubspace.span(rng.standard_normal((3, 6)))
    c = friedrichs_cosine(U, V)
    assert friedrichs_cosine(V, U) == pytest.approx(c, abs=1e-12)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    UQ = LinearSubspace(6, U.basis @ Q.T)
    VQ = LinearSubspace(6, V.basis @ Q.T)
    assert friedrichs_cosine(UQ, VQ) == pytest.approx(c, abs=1e-10)


def _deflated_friedrichs(U, V):
    # the definition, in numpy alone: project both bases off the intersection
    # W, orthonormalise what is left (dim - dim W rows each) and take the
    # largest cosine between the two remainders
    W = intersect(U, V).direction.basis
    rests = []
    for B in (U.basis, V.basis):
        resid = B - (B @ W.T) @ W
        rests.append(np.linalg.svd(resid, full_matrices=False)[2][: B.shape[0] - W.shape[0]])
    if min(r.shape[0] for r in rests) == 0:
        return 0.0
    return float(np.linalg.svd(rests[0] @ rests[1].T, compute_uv=False)[0])


@st.composite
def _subspace_pairs(draw):
    # U = shared + a_i and V = shared + (cos t_i a_i + sin t_i b_i) + c_axes in
    # a canonical frame, turned by a random orthogonal map: p != q, nested
    # pairs (r = min(p, q)), r = 0, U = {0} and V = R^n all occur
    n = draw(st.integers(1, 10))
    p = draw(st.integers(0, n))
    q = draw(st.integers(p, n))
    r = draw(st.integers(max(0, p + q - n), p))
    cosines = draw(st.lists(st.floats(0.0, 0.9999), min_size=p - r, max_size=p - r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    E = np.eye(n)
    shared, a = E[:r], E[r:p]
    b, c = E[p : 2 * p - r], E[2 * p - r : p + q - r]
    thetas = np.arccos(cosines)
    rotated = np.cos(thetas)[:, None] * a + np.sin(thetas)[:, None] * b
    U = LinearSubspace(n, np.vstack([shared, a]) @ Q.T)
    V = LinearSubspace(n, np.vstack([shared, rotated, c]) @ Q.T)
    if draw(st.booleans()):
        U, V = V, U
    return U, V, r


def _cosine_after(U, V, k):
    # the (k+1)-th largest cosine between the two bases, 0 past the last
    A, B = (U.basis, V.basis) if U.dim <= V.dim else (V.basis, U.basis)
    if k >= A.shape[0]:
        return 0.0
    return float(np.linalg.svd(A @ B.T, compute_uv=False)[k])


@settings(max_examples=300, deadline=None)
@given(_subspace_pairs())
def test_friedrichs_matches_the_deflation_definition(pair):
    U, V, r = pair
    got = friedrichs_cosine(U, V)
    assert abs(got - _deflated_friedrichs(U, V)) <= 1e-12
    # the angles deflated are intersect's: the value is the cosine right after
    # the first dim W of them
    k = intersect(U, V).direction.dim
    assert k == r
    assert abs(got - _cosine_after(U, V, k)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_friedrichs_matches_the_deflation_definition_on_lifted_sets(t, shared_dims, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    shared = rng.standard_normal((shared_dims, n))
    subs = [
        LinearSubspace.span(np.vstack([shared, rng.standard_normal((int(rng.integers(1, 3)), n))]))
        for _ in range(t)
    ]
    C, D = lift_to_product(subs)
    got = friedrichs_cosine(C.direction, D.direction)
    assert abs(got - _deflated_friedrichs(C.direction, D.direction)) <= 1e-12
    k = intersect(C.direction, D.direction).direction.dim
    assert abs(got - _cosine_after(C.direction, D.direction, k)) <= 1e-14


@pytest.mark.parametrize("cosine", [0.6, 0.0])
def test_friedrichs_counts_a_sine_below_the_angle_tolerance_as_zero(cosine):
    # sin = 1.5e-10 lies between RANK_TOL and ANGLE_SINE_TOL: intersect takes
    # that direction into the intersection, so the value is the next cosine.
    # Deflating with RANK_TOL instead keeps the 1.5e-10 residual as a
    # direction, whose rounding (eps / 1.5e-10) moves the value by up to 1e-6
    assert linalg.RANK_TOL < 1.5e-10 < linalg.ANGLE_SINE_TOL
    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    E = np.eye(6)
    U = LinearSubspace(6, E[:2] @ Q.T)
    second = cosine * E[1] + np.sqrt(1.0 - cosine**2) * E[3]
    V = LinearSubspace(6, np.vstack([E[0] + 1.5e-10 * E[2], second]) @ Q.T)
    assert intersect(U, V).direction.dim == 1
    assert friedrichs_cosine(U, V) == pytest.approx(cosine, abs=1e-14)
    assert friedrichs_cosine(V, U) == pytest.approx(cosine, abs=1e-14)


def _forbidden(*args, **kwargs):
    raise AssertionError("friedrichs_cosine must not call this")


def test_friedrichs_needs_neither_intersect_nor_orthonormal_basis(monkeypatch):
    monkeypatch.setattr(linalg, "intersect", _forbidden)
    monkeypatch.setattr(linalg, "orthonormal_basis", _forbidden)
    rng = np.random.default_rng(9)
    U = LinearSubspace(7, np.linalg.qr(rng.standard_normal((7, 3)))[0].T)
    V = LinearSubspace(7, np.linalg.qr(rng.standard_normal((7, 4)))[0].T)
    assert 0.0 <= friedrichs_cosine(U, V) <= 1.0
    spec = ProblemSpec(n=20, cf_range=(0.9, 0.95), pairs=2, points_per_pair=1, seed=3)
    assert len(generate_problem_set(spec).pairs) == 2


def test_pythagoras_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        S = AffineSubspace(rng.standard_normal(6), LinearSubspace.span(rng.standard_normal((3, 6))))
        x = rng.standard_normal(6)
        v = S.project(rng.standard_normal(6))
        p = S.project(x)
        lhs = np.linalg.norm(x - p) ** 2 + np.linalg.norm(p - v) ** 2
        rhs = np.linalg.norm(x - v) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_reflector_is_an_isometry():
    rng = np.random.default_rng(8)
    S = AffineSubspace(rng.standard_normal(5), LinearSubspace.span(rng.standard_normal((2, 5))))
    for _ in range(20):
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        d = np.linalg.norm(x - y)
        assert abs(np.linalg.norm(S.reflect(x) - S.reflect(y)) - d) <= 1e-10 * max(1.0, d)


def test_projector_complement_decomposition():
    rng = np.random.default_rng(9)
    L = LinearSubspace.span(rng.standard_normal((3, 8)))
    C = orthogonal_complement(L)
    for _ in range(10):
        x = rng.standard_normal(8)
        gap = np.linalg.norm(x - L.project(x) - C.project(x))
        assert gap <= 1e-10 * np.linalg.norm(x)


def test_anchor_is_canonicalized_to_minimum_norm_point():
    S = AffineSubspace((5, 1), LinearSubspace.span([(1, 0)]))
    np.testing.assert_allclose(S.anchor, [0, 1], atol=1e-14)
    # anchor is orthogonal to the direction after canonicalization
    assert np.abs(S.direction.basis @ S.anchor).max() < 1e-14


def test_intersect_all_three_subspaces():
    rng = np.random.default_rng(10)
    w = rng.standard_normal(6)
    subs = [
        LinearSubspace.span(np.vstack([w, rng.standard_normal(6)])).as_affine() for _ in range(3)
    ]
    inter = intersect_all(subs)
    assert inter.direction.dim == 1
    assert inter.direction.same_span(LinearSubspace.span([w]))


def _anchored_triple(seed):
    # three planes of R^6 through a shared point, meeting in a line
    rng = np.random.default_rng(seed)
    z, w = rng.standard_normal((2, 6))
    return [AffineSubspace(z, LinearSubspace.span(np.vstack([w, rng.standard_normal(6)]))) for _ in range(3)]


def _counting_intersect(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return intersect(a, b)

    monkeypatch.setattr(linalg, "intersect", counted)
    return calls


def test_intersect_all_folds_a_live_tuple_once(monkeypatch):
    subs = _anchored_triple(11)
    first = intersect_all(subs)
    calls = _counting_intersect(monkeypatch)
    assert intersect_all(subs) is first
    assert intersect_all(tuple(subs)) is first
    assert calls == []


def test_intersect_all_folds_equal_but_distinct_subspaces_again(monkeypatch):
    subs = _anchored_triple(12)
    first = intersect_all(subs)
    twins = [AffineSubspace(s.anchor, LinearSubspace(6, s.direction.basis)) for s in subs]
    calls = _counting_intersect(monkeypatch)
    again = intersect_all(twins)
    assert len(calls) == 2
    assert again is not first
    assert np.array_equal(again.anchor, first.anchor)
    assert np.array_equal(again.direction.basis, first.direction.basis)


def test_intersect_all_forgets_a_tuple_when_its_subspaces_die():
    subs = _anchored_triple(13)
    key = tuple(map(id, subs))
    fold = weakref.ref(intersect_all(subs))
    assert key in linalg._FOLDS and fold() is not None
    del subs
    gc.collect()
    assert key not in linalg._FOLDS
    assert fold() is None


def test_non_orthonormal_basis_rejected():
    with pytest.raises(ValueError):
        LinearSubspace(2, np.array([[1.0, 1.0]]))


def test_orthonormal_basis_normalises_a_vector_whose_squares_underflow():
    B = orthonormal_basis([(0.0, 0.0, 2.6298583924242025e-162)])
    assert np.array_equal(B.basis, [[0.0, 0.0, 1.0]])


def test_a_basis_must_have_one_row_of_the_ambient_dimension_per_vector():
    # [[1, 0, 0, 1]] once reshaped silently into the identity of R^2
    for basis in ([[1.0, 0.0, 0.0, 1.0]], [1.0, 0.0], np.zeros((1, 1, 2)), np.zeros((0, 3))):
        with pytest.raises(ValueError, match="k x 2"):
            LinearSubspace(2, np.asarray(basis))
    assert LinearSubspace(2, np.asarray([])).dim == 0  # how a zero subspace is saved


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    m=st.integers(1, 8),
    rank=st.integers(0, 8),
    exponent=st.integers(-160, 160),
)
def test_orthonormal_basis_has_the_rank_of_its_input_at_every_scale(seed, n, m, rank, exponent):
    # at 1e-160 the squares of the entries underflow, at 1e160 those of the
    # norms overflow; a rank-r product of Gaussian factors keeps rank r
    rank = min(rank, m, n)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)) * 10.0**exponent
    L = orthonormal_basis(A, dim=n)
    assert L.dim == rank
    assert np.abs(L.basis @ L.basis.T - np.eye(rank)).max(initial=0.0) <= 1e-12
    resid = A - (A @ L.basis.T) @ L.basis
    assert np.abs(resid).max(initial=0.0) <= 1e-12 * np.abs(A).max(initial=0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_images_of_a_fixed_point_span_a_zero_dimensional_hull(seed):
    # two 3-dimensional subspaces of R^6 sharing a line: S_3(x) of a point of
    # the line is four copies of x up to rounding, which once spanned R^3
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(6)
    U1, U2 = (orthonormal_basis(np.vstack([shared, rng.standard_normal((2, 6))])) for _ in range(2))
    S = reflection_set("s3", [U1, U2])
    x = S.fixed.project(rng.standard_normal(6))
    pts = S.points(x)
    assert np.ptp(pts, axis=0).max() > 0.0
    assert AffineSubspace.from_points(pts).direction.dim == 0


def test_zero_anchor_projection_equals_the_full_formula():
    rng = np.random.default_rng(70)
    for dim in (0, 3, 8):
        L = LinearSubspace.span(rng.standard_normal((dim, 8)), dim=8)
        A = L.as_affine()
        assert A.through_origin
        for _ in range(5):
            x = rng.standard_normal(8) * 10.0 ** rng.integers(-3, 4)
            full = A.anchor + L._project(x - A.anchor)
            assert np.array_equal(A._project(x), full)
            assert np.array_equal(A.reflect(x), 2.0 * full - x)


def test_a_tiny_nonzero_anchor_takes_the_full_projection():
    # the projection onto the first two axes is exact, so the 1e-300 offset of
    # the anchor along the third axis survives only on the full path
    L = LinearSubspace.span([(1, 0, 0, 0), (0, 1, 0, 0)])
    A = AffineSubspace((0.0, 0.0, 1e-300, 0.0), L)
    assert not A.through_origin
    x = np.array([1.5, -2.0, 3.0, 4.0])
    assert np.array_equal(A._project(x), A.anchor + L._project(x - A.anchor))
    assert np.array_equal(A._project(x), [1.5, -2.0, 1e-300, 0.0])


@pytest.mark.parametrize("exponent", [150, 155, 160, 200, 250, 300])
def test_a_two_point_hull_keeps_its_line_when_the_squares_overflow(exponent):
    # from about 1e154 the points' largest squared norm is inf, and an
    # infinite noise floor once dropped the one difference
    s = 10.0**exponent
    H = AffineSubspace.from_points([[0.0, 0.0], [s, 0.0]])
    assert H.direction.dim == 1
    np.testing.assert_array_equal(np.abs(H.direction.basis), [[1.0, 0.0]])


def test_the_points_floor_scales_with_the_points():
    P = np.random.default_rng(5).standard_normal((4, 7))
    assert linalg.points_floor(P) == linalg.noise_floor(7, (P * P).sum(axis=1).max())
    with np.errstate(over="ignore"):
        big = linalg.points_floor(P * 1e200)
    assert np.isfinite(big)
    assert abs(big / 1e200 - linalg.points_floor(P)) <= 1e-14 * linalg.points_floor(P)


@pytest.mark.parametrize("scale", [1e-150, 1e-200, 1e-250])
def test_the_points_floor_scales_with_tiny_points(scale):
    # below about 1e-139 the squares lose their precision or underflow to
    # zero, which once gave tiny points a floor of zero
    P = np.random.default_rng(5).standard_normal((4, 7))
    small = linalg.points_floor(P * scale)
    assert abs(small / scale - linalg.points_floor(P)) <= 1e-14 * linalg.points_floor(P)
    assert linalg.row_squares(np.zeros((2, 3))) == ([0.0, 0.0], 1.0)
