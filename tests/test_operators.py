import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circumsolve.linalg import RANK_TOL, AffineSubspace, LinearSubspace, intersect
from circumsolve.theory import (
    AffineCombo,
    Compose,
    Identity,
    OperatorSet,
    OrthogonalLinear,
    Reflector,
    Translation,
    apply,
    circumcenter_map,
    dr_operator,
    fixed_subspace,
    rate_bound,
    reflection_set,
    surrogate_ts,
)
from circumsolve.problems import ProblemSpec, gen_subspace_pair

XAXIS = LinearSubspace.span([(1, 0)]).as_affine()
YAXIS = LinearSubspace.span([(0, 1)]).as_affine()
DIAG = LinearSubspace.span([(1, 1)]).as_affine()


def _random_ops(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sub = AffineSubspace(rng.standard_normal(n), LinearSubspace.span(rng.standard_normal((2, n))))
    return [
        Identity(),
        Reflector(sub),
        Translation(rng.standard_normal(n)),
        OrthogonalLinear(Q),
        Compose((Reflector(sub), OrthogonalLinear(Q), Translation(rng.standard_normal(n)))),
    ]


def test_apply_identity_translation():
    x = np.array([2.0, -1.0])
    np.testing.assert_allclose(apply(Identity(), x), x)
    np.testing.assert_allclose(apply(Translation((1, 1)), x), [3, 0])


def test_two_reflections_compose_to_rotation():
    rot = Compose((Reflector(DIAG), Reflector(XAXIS)))
    for x, y in [(1.0, 0.0), (0.3, -2.0), (5.0, 4.0)]:
        np.testing.assert_allclose(apply(rot, (x, y)), [-y, x], atol=1e-12)


def test_every_variant_is_isometric_on_sampled_pairs():
    rng = np.random.default_rng(0)
    for op in _random_ops(rng, 5):
        for _ in range(100):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            d = np.linalg.norm(x - y)
            assert abs(np.linalg.norm(op(x) - op(y)) - d) <= 1e-9 * max(1.0, d)


def test_orthogonal_linear_rejects_non_orthogonal_matrix():
    with pytest.raises(ValueError):
        OrthogonalLinear(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_affine_combo_requires_unit_coefficient_sum():
    with pytest.raises(ValueError):
        AffineCombo(((0.5, Identity()), (0.4, Identity())))


def test_dr_operator_on_crossing_lines():
    T = dr_operator(XAXIS, DIAG)
    np.testing.assert_allclose(apply(T, (1.0, 0.0)), [0.5, 0.5], atol=1e-12)


def test_dr_operator_fixes_points_of_equal_subspaces():
    T = dr_operator(XAXIS, XAXIS)
    np.testing.assert_allclose(apply(T, (3.0, 0.0)), [3.0, 0.0], atol=1e-12)


def test_dr_operator_orthogonal_pair():
    T = dr_operator(LinearSubspace.span([(1, 0)]), LinearSubspace.span([(0, 1)]))
    # oracle: evaluate (x + R_V R_U x)/2 step by step
    x = np.array([1.0, 1.0])
    ru = 2 * np.array([1.0, 0.0]) - x
    rv = 2 * np.array([0.0, -1.0]) - ru
    np.testing.assert_allclose(apply(T, x), 0.5 * (x + rv), atol=1e-14)
    np.testing.assert_allclose(apply(T, x), [0.0, 0.0], atol=1e-14)


def test_dr_operator_matches_projector_form():
    rng = np.random.default_rng(1)
    U = AffineSubspace(rng.standard_normal(5), LinearSubspace.span(rng.standard_normal((2, 5))))
    shared = U.project(rng.standard_normal(5))
    V = AffineSubspace(shared, LinearSubspace.span(rng.standard_normal((3, 5))))
    T = dr_operator(U, V)
    for _ in range(10):
        x = rng.standard_normal(5)
        expected = V.project(2 * U.project(x) - x) + x - U.project(x)
        assert np.linalg.norm(apply(T, x) - expected) <= 1e-10


def test_dr_operator_rejects_disjoint_subspaces():
    A = AffineSubspace((0, 0), LinearSubspace.span([(1, 0)]))
    B = AffineSubspace((0, 1), LinearSubspace.span([(1, 0)]))
    with pytest.raises(ValueError):
        dr_operator(A, B)


def test_fixed_subspace_of_reflector_is_the_subspace():
    assert fixed_subspace(Reflector(DIAG)) is DIAG


def test_fixed_subspace_of_translation_is_empty():
    assert fixed_subspace(Translation((1.0, 0.0))) is None
    full = fixed_subspace(Translation((0.0, 0.0)))
    assert full.direction.dim == 2


def test_fixed_subspace_of_three_reflector_chain():
    # R_{y-axis} R_{y=x} R_{x-axis} fixes exactly the line y = x
    chain = Compose((Reflector(YAXIS), Reflector(DIAG), Reflector(XAXIS)))
    F = fixed_subspace(chain)
    assert F.direction.same_span(LinearSubspace.span([(1, 1)]))
    np.testing.assert_allclose(F.anchor, [0, 0], atol=1e-12)


def test_fixed_subspace_identity_needs_dimension():
    with pytest.raises(ValueError):
        fixed_subspace(Identity())
    assert fixed_subspace(Identity(), dim=3).direction.dim == 3


def test_surrogate_mean_proj_single_subspace_is_projection():
    L = LinearSubspace.span([(1, 0)])
    T = surrogate_ts("mean_proj", [L])
    np.testing.assert_allclose(apply(T, (3.0, 4.0)), [3.0, 0.0], atol=1e-14)


def test_surrogate_mean_proj_eigenvalues_two_lines():
    theta = 0.9
    L1 = LinearSubspace.span([(1, 0)])
    L2 = LinearSubspace.span([(np.cos(theta), np.sin(theta))])
    M, b = surrogate_ts("mean_proj", [L1, L2]).as_matrix(2)
    assert np.linalg.norm(b) < 1e-14
    eigs = np.sort(np.linalg.eigvalsh((M + M.T) / 2))
    np.testing.assert_allclose(eigs, [(1 - np.cos(theta)) / 2, (1 + np.cos(theta)) / 2], atol=1e-12)


def test_surrogate_half_id_proj_on_full_space_is_identity():
    T = surrogate_ts("half_id_proj", [LinearSubspace.full(3)])
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(apply(T, x), x, atol=1e-14)


@pytest.mark.parametrize("kind", ["mean_proj", "half_id_proj", "bcs_chain"])
def test_surrogate_fixed_set_is_the_intersection(kind):
    rng = np.random.default_rng(2)
    w = rng.standard_normal(5)
    subs = [LinearSubspace.span(np.vstack([w, rng.standard_normal(5)])) for _ in range(3)]
    T = surrogate_ts(kind, subs)
    assert sum(c for c, _ in T.terms) == pytest.approx(1.0, abs=1e-12)
    F = fixed_subspace(T, dim=5)
    assert F.direction.same_span(LinearSubspace.span([w]))


@pytest.mark.parametrize("kind", ["mean_proj", "half_id_proj", "bcs_chain"])
def test_surrogate_matches_projector_formula(kind):
    rng = np.random.default_rng(12)
    subs = [LinearSubspace.span(rng.standard_normal((2, 5))) for _ in range(3)]
    T = surrogate_ts(kind, subs)
    projs = [s.project for s in subs]
    refl = [s.reflect for s in subs]
    for _ in range(5):
        x = rng.standard_normal(5)
        if kind == "mean_proj":
            expected = sum(p(x) for p in projs) / 3
        elif kind == "half_id_proj":
            expected = sum(0.5 * (x + p(x)) for p in projs) / 3
        else:
            terms = [0.5 * (x + projs[0](x))]
            terms.append(0.5 * (x + projs[1](refl[0](x))))
            terms.append(0.5 * (x + projs[2](refl[1](refl[0](x)))))
            expected = sum(terms) / 3
        assert np.linalg.norm(apply(T, x) - expected) <= 1e-12


def test_surrogate_rejects_empty_list():
    with pytest.raises(ValueError):
        surrogate_ts("mean_proj", [])


def test_rate_bound_projection_onto_its_own_fix_is_zero():
    L = LinearSubspace.span([(1, 0, 0)])
    T = surrogate_ts("mean_proj", [L])
    assert rate_bound(T, L) == pytest.approx(0.0, abs=1e-12)


def test_rate_bound_two_lines_half_one_plus_cos():
    theta = 1.2
    L1 = LinearSubspace.span([(1, 0)])
    L2 = LinearSubspace.span([(np.cos(theta), np.sin(theta))])
    T = surrogate_ts("mean_proj", [L1, L2])
    # oracle: largest singular value of the dense 2x2 matrix
    M, _ = T.as_matrix(2)
    sv = np.linalg.svd(M, compute_uv=False)[0]
    got = rate_bound(T, LinearSubspace.zero(2))
    assert got == pytest.approx(sv, abs=1e-12)
    assert got == pytest.approx((1 + np.cos(theta)) / 2, abs=1e-12)


def test_rate_bound_identity_on_full_fix_is_zero():
    combo = AffineCombo(((1.0, Identity()),))
    assert rate_bound(combo, LinearSubspace.full(3)) == pytest.approx(0.0, abs=1e-14)


def test_rate_bound_rejects_nonlinear_operator():
    combo = AffineCombo(((1.0, Translation((1.0, 0.0))),))
    with pytest.raises(ValueError):
        rate_bound(combo, LinearSubspace.zero(2))


def test_dr_fixed_set_projection_agrees_on_the_sum():
    rng = np.random.default_rng(3)
    for trial in range(5):
        U = LinearSubspace.span(rng.standard_normal((2, 6)))
        V = LinearSubspace.span(rng.standard_normal((3, 6)))
        T = dr_operator(U, V)
        F = fixed_subspace(T, dim=6)
        inter = intersect(U, V)
        span_uv = LinearSubspace.span(np.vstack([U.basis, V.basis]))
        x = span_uv.project(rng.standard_normal(6))
        gap = np.linalg.norm(F.project(x) - inter.project(x))
        assert gap <= 1e-9 * (1 + np.linalg.norm(x))


def test_dr_contraction_bound_along_the_whole_run():
    # pairs with a controlled, fairly large Friedrichs angle cosine keep the
    # theoretical bound well above rounding noise for all 200 powers
    spec = ProblemSpec(n=12, p=3, q=3, r=1, cf_range=(0.93, 0.99), pairs=4, points_per_pair=0, seed=9)
    rng = np.random.default_rng(10)
    for i in range(spec.pairs):
        L1, L2, cf = gen_subspace_pair(spec, i)
        T = dr_operator(L1, L2)
        F = fixed_subspace(T, dim=spec.n)
        x = rng.standard_normal(spec.n)
        target = F.project(x)
        e0 = np.linalg.norm(x - target)
        for k in range(1, 201):
            x = apply(T, x)
            assert np.linalg.norm(x - target) <= cf**k * e0 * (1 + 1e-8)


def test_averaged_characterization_with_alpha_half():
    rng = np.random.default_rng(4)
    subs = [LinearSubspace.span(rng.standard_normal((2, 5))) for _ in range(2)]
    for kind in ("mean_proj", "half_id_proj", "bcs_chain"):
        T = surrogate_ts(kind, subs)
        for _ in range(25):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            tx, ty = apply(T, x), apply(T, y)
            slack = (
                np.linalg.norm(x - y) ** 2
                - np.linalg.norm(tx - ty) ** 2
                - np.linalg.norm((x - tx) - (y - ty)) ** 2
            )
            assert slack >= -1e-9


def test_non_identity_averaged_operator_is_not_an_isometry():
    rng = np.random.default_rng(5)
    T = surrogate_ts("mean_proj", [LinearSubspace.span([(1.0, 0.0)])])
    strict = False
    for _ in range(20):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        if np.linalg.norm(apply(T, x) - apply(T, y)) < np.linalg.norm(x - y) - 1e-9:
            strict = True
            break
    assert strict


def test_reflection_set_families():
    s1 = reflection_set("s1", [XAXIS, DIAG])
    s2 = reflection_set("s2", [XAXIS, DIAG])
    s3 = reflection_set("s3", [XAXIS, DIAG])
    s4 = reflection_set("s4", [XAXIS, DIAG])
    assert [len(s) for s in (s1, s2, s3, s4)] == [3, 3, 4, 6]
    assert isinstance(s1.ops[0], Identity)
    assert s3.fixed.direction.dim == 0  # lines cross only at the origin


def test_reflection_set_rejects_empty_intersection():
    A = AffineSubspace((0, 0), LinearSubspace.span([(1, 0)]))
    B = AffineSubspace((0, 1), LinearSubspace.span([(1, 0)]))
    with pytest.raises(ValueError):
        reflection_set("s1", [A, B])


def test_affine_combo_terms_may_nest():
    inner = AffineCombo(((0.5, Identity()), (0.5, Reflector(XAXIS))))  # P_{U1}
    outer = AffineCombo(((0.25, Identity()), (0.75, inner)))
    x = np.array([2.0, 4.0])
    np.testing.assert_allclose(apply(outer, x), 0.25 * x + 0.75 * np.array([2.0, 0.0]), atol=1e-14)
    M, b = outer.as_matrix(2)
    np.testing.assert_allclose(M @ x + b, apply(outer, x), atol=1e-14)


def test_compose_as_matrix_applies_right_to_left():
    shift = Translation((1.0, 0.0))
    refl = Reflector(YAXIS)
    op = Compose((refl, shift))  # shift first, then reflect
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(apply(op, x), [-2.0, 2.0])
    M, b = op.as_matrix(2)
    np.testing.assert_allclose(M @ x + b, apply(op, x), atol=1e-14)


def test_known_dim_skips_plain_callables():
    # a plain callable knows no dimension; the reflector after it does
    plain = lambda x: -x
    assert Compose((plain, Reflector(XAXIS))).known_dim() == 2
    assert AffineCombo(((0.5, plain), (0.5, Reflector(XAXIS)))).known_dim() == 2
    S = OperatorSet((Identity(), Compose((plain, Reflector(XAXIS)))))
    np.testing.assert_array_equal(S.points([1.0, 2.0]), [[1.0, 2.0], [-1.0, 2.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        S.points([1.0, 2.0, 3.0])


# Reflection-closed lemma: if R_U S = S for a subspace U, the circumcenter c
# of S(x) is equidistant from p and R_U p for every p in S(x), which puts c
# in U.  R_2 S_3 = S_3 and R_1 S_4 = S_4, so one step of the S_3 mapping lands
# in U_2 and one step of the S_4 mapping in U_1.
def _lemma_pair(n, cf, seed, anchored):
    spec = ProblemSpec(n=n, cf_range=(cf, min(cf + 1e-4, 1.0)), pairs=1, points_per_pair=0, seed=seed)
    L1, L2, _ = gen_subspace_pair(spec, 0)
    rng = np.random.default_rng(seed)
    z = 3.0 * rng.standard_normal(n) if anchored else np.zeros(n)
    return [AffineSubspace(z, L1), AffineSubspace(z, L2)], 10.0 * rng.standard_normal(n)


def _relative_distance(kind, subs, x, U):
    # distance of one circumcenter step to U, relative to |R_1 x - x| + |R_2 x - x|
    c = circumcenter_map(reflection_set(kind, subs), x)
    scale = sum(np.linalg.norm(s.reflect(x) - x) for s in subs)
    return np.linalg.norm(c - U.project(c)) / scale


def _smallest_kept_singular_value(kind, subs, x):
    # of the differences p_i - p_0 of S(x) on the scale of _relative_distance
    P = reflection_set(kind, subs).points(x)
    scale = sum(np.linalg.norm(s.reflect(x) - x) for s in subs)
    sv = np.linalg.svd((P[1:] - P[0]) / scale, compute_uv=False)
    return sv[sv > RANK_TOL * sv[0]].min()


@pytest.mark.parametrize("anchored", [False, True], ids=["linear", "anchored"])
@pytest.mark.parametrize("kind, closed_under", [("s3", 1), ("s4", 0)])
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(6, 100),
    cf=st.floats(0.0, 0.9999),
    seed=st.integers(0, 2**32 - 1),
)
# near cF = 0 the two reflections nearly commute, and S_4(x) keeps two
# directions 1e-8 times its size, which no solve resolves better than eps / 1e-8
@example(n=9, cf=0.0, seed=1519)
def test_a_reflection_closed_set_maps_into_the_subspace(kind, closed_under, anchored, n, cf, seed):
    subs, x = _lemma_pair(n, cf, seed, anchored)
    # rounding the points moves the centre by about eps / sigma; the largest
    # ratio seen on 6,000 random cases was 0.6, so C = 10 keeps the bound at
    # 1e-10 for every set with sigma above 2.2e-5
    sigma = _smallest_kept_singular_value(kind, subs, x)
    bound = max(1e-10, 10 * np.finfo(float).eps / sigma)
    assert _relative_distance(kind, subs, x, subs[closed_under]) <= bound


@pytest.mark.parametrize("kind", ["s1", "s2"])
def test_sets_that_are_not_reflection_closed_leave_both_subspaces(kind):
    subs, x = _lemma_pair(10, 0.5, 2, anchored=True)
    for U in subs:
        assert _relative_distance(kind, subs, x, U) > 1e-3
