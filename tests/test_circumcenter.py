import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circumsolve.circumcenter import CircumcenterError, circumcenter_oracle, circumcenter_points
from circumsolve.linalg import AffineSubspace, LinearSubspace, intersect
from circumsolve import solvers
from circumsolve.solvers import SolverSpec, make_solver
from circumsolve.theory import (
    Compose,
    Identity,
    OperatorSet,
    Reflector,
    circumcenter_map,
    circumcenter_via_fixpoint,
    lift_to_product,
    reflection_set,
)

EPS = float(np.finfo(float).eps)
XAXIS = LinearSubspace.span([(1, 0)]).as_affine()
DIAG = LinearSubspace.span([(1, 1)]).as_affine()


def test_singleton_set():
    r = circumcenter_points([(2.0, 3.0)])
    np.testing.assert_allclose(r.value, [2, 3])
    assert r.radius == 0.0 and r.residual == 0.0


def test_right_triangle_hypotenuse_midpoint():
    r = circumcenter_points([(0, 0), (2, 0), (0, 2)])
    np.testing.assert_allclose(r.value, [1, 1], atol=1e-12)
    assert r.radius == pytest.approx(np.sqrt(2), abs=1e-12)


def test_collinear_points_have_no_circumcenter():
    r = circumcenter_points([(0, 0), (1, 0), (2, 0)])
    assert r.value is None
    assert r.residual > 0


def test_two_points_give_the_midpoint():
    r = circumcenter_points([(0, 0), (2, 0)])
    np.testing.assert_allclose(r.value, [1, 0], atol=1e-14)


def test_oracle_agrees_on_the_triangle():
    r = circumcenter_oracle([(0, 0), (2, 0), (0, 2)])
    np.testing.assert_allclose(r.value, [1, 1], atol=1e-12)


def test_oracle_regular_simplex_centroid():
    r = circumcenter_oracle(np.eye(3))
    np.testing.assert_allclose(r.value, np.full(3, 1 / 3), atol=1e-12)


def test_oracle_rejects_collinear_points():
    assert circumcenter_oracle([(0, 0), (1, 0), (2, 0)]).value is None


def _random_point_set(rng):
    n = rng.integers(1, 9)
    m = rng.integers(1, 7)
    pts = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0)
    if m > 1 and rng.random() < 0.25:  # force a duplicate point
        pts[rng.integers(1, m)] = pts[0]
    if m > 2 and rng.random() < 0.2:  # force a collinear triple
        pts[2] = pts[0] + 2.0 * (pts[1] - pts[0])
    return pts


def test_gram_route_and_oracle_agree_on_random_sets():
    rng = np.random.default_rng(20)
    for _ in range(300):
        pts = _random_point_set(rng)
        a = circumcenter_points(pts)
        b = circumcenter_oracle(pts)
        assert (a.value is None) == (b.value is None)
        if a.value is not None:
            assert np.linalg.norm(a.value - b.value) < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_hypothesis_value_lies_in_affine_hull_and_is_equidistant(points):
    pts = np.array(points, dtype=float)
    r = circumcenter_points(pts)
    if r.value is None:
        return
    hull = AffineSubspace.from_points(pts)
    assert np.linalg.norm(r.value - hull.project(r.value)) <= 1e-9 * (1 + np.linalg.norm(r.value))
    dists = np.linalg.norm(pts - r.value, axis=1)
    assert np.max(np.abs(dists - r.radius)) <= 1e-8 * (1 + r.radius)


@st.composite
def _sets_sharing_a_coordinate(draw):
    # m points of R^n whose coordinate j is the same value c; m = 2 is the
    # midpoint, m = 3 a triangle (Cramer's rule or, when flat, the QR path)
    # and m >= 4 the QR path
    m = draw(st.integers(2, 6))
    n = draw(st.integers(max(m - 1, 2), 7))
    coords = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    pts = np.array(draw(st.lists(st.lists(coords, min_size=n, max_size=n), min_size=m, max_size=m)))
    j = draw(st.integers(0, n - 1))
    pts[:, j] = draw(coords)
    return pts, j


@settings(max_examples=300, deadline=None)
@given(_sets_sharing_a_coordinate())
@example((np.array([[0, 2.202635371344358, 0], [0, -0.65625, 1e-9], [0, 0, 0]]), 0))
@example((np.array([[0.1, 0, 0], [0.1, 1, 0], [0.1, 2, 1e-8]]), 0))
@example((np.array([[3.0, 0, 0, 0], [3.0, 1, 0, 0], [3.0, 0, 1, 0], [3.0, 0, 0, 1]]), 0))
def test_a_coordinate_every_point_shares_is_kept_exactly(case):
    # every difference d_j is zero in that coordinate, so each route's
    # candidate p_1 + sum_i a_i d_i keeps it to the bit
    pts, j = case
    r = circumcenter_points(pts)
    if r.value is not None:
        assert r.value[j] == pts[0, j]


def test_map_of_two_element_set_is_the_midpoint():
    S = OperatorSet((Identity(), Reflector(XAXIS)))
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(circumcenter_map(S, x), 0.5 * (x + XAXIS.reflect(x)), atol=1e-12)


def test_map_four_points_on_the_unit_circle():
    S = OperatorSet(
        (Identity(), Reflector(XAXIS), Reflector(DIAG), Compose((Reflector(DIAG), Reflector(XAXIS))))
    )
    np.testing.assert_allclose(circumcenter_map(S, (0.0, 1.0)), [0, 0], atol=1e-12)


def test_map_fixes_common_fixed_points():
    S = reflection_set("s3", [XAXIS, DIAG])
    z = np.zeros(2)
    np.testing.assert_allclose(circumcenter_map(S, z), z, atol=1e-12)


class _Proj:
    # a genuine projection is not an isometry
    def __call__(self, x):
        return XAXIS.project(x)


def test_map_raises_on_non_isometric_sets():
    # from a generic point the image points are collinear with inconsistent distances
    S = OperatorSet((Identity(), _Proj(), Reflector(XAXIS)))
    with pytest.raises(CircumcenterError):
        circumcenter_map(S, np.array([0.7, 1.3]))


def test_via_fixpoint_projects_the_known_fixed_point():
    S = reflection_set("s3", [XAXIS, DIAG])
    W = intersect(XAXIS, DIAG)
    x = np.array([0.3, 1.8])
    got = circumcenter_via_fixpoint(S, x, W)
    np.testing.assert_allclose(got, circumcenter_map(S, x), atol=1e-9)


def test_via_fixpoint_cross_checks_circumcenter_map():
    rng = np.random.default_rng(21)
    shared = rng.standard_normal(5)
    U1 = LinearSubspace.span(np.vstack([shared, rng.standard_normal(5)])).as_affine()
    U2 = LinearSubspace.span(np.vstack([shared, rng.standard_normal((2, 5))])).as_affine()
    S = reflection_set("s2", [U1, U2])
    W = intersect(U1, U2)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(5) * 3
        gap = np.linalg.norm(circumcenter_via_fixpoint(S, x, W) - circumcenter_map(S, x))
        worst = max(worst, gap)
    assert worst < 1e-9


def test_via_fixpoint_fixed_points_stay_put():
    S = reflection_set("s1", [XAXIS, DIAG])
    W = intersect(XAXIS, DIAG)
    np.testing.assert_allclose(circumcenter_via_fixpoint(S, np.zeros(2), W), np.zeros(2), atol=1e-12)


def test_via_fixpoint_rejects_wrong_w():
    S = reflection_set("s1", [XAXIS, DIAG])
    with pytest.raises(ValueError):
        circumcenter_via_fixpoint(S, np.array([1.0, 0.5]), DIAG)


def _random_reflector_pair(rng, n=5, shared_dims=1):
    shared = rng.standard_normal((shared_dims, n))
    U1 = LinearSubspace.span(np.vstack([shared, rng.standard_normal(n)])).as_affine()
    U2 = LinearSubspace.span(np.vstack([shared, rng.standard_normal((2, n))])).as_affine()
    return U1, U2


@pytest.mark.parametrize("kind", ["s1", "s2", "s3", "s4"])
def test_firmly_quasinonexpansive_equality(kind, rng_seed=22):
    rng = np.random.default_rng(rng_seed)
    U1, U2 = _random_reflector_pair(rng)
    S = reflection_set(kind, [U1, U2])
    inter = S.fixed
    for _ in range(25):
        x = rng.standard_normal(5) * 2
        y = inter.project(rng.standard_normal(5) * 2)
        cc = circumcenter_map(S, x)
        lhs = np.linalg.norm(cc - y) ** 2 + np.linalg.norm(cc - x) ** 2
        rhs = np.linalg.norm(x - y) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_pythagorean_equations_for_each_operator():
    rng = np.random.default_rng(23)
    U1, U2 = _random_reflector_pair(rng)
    S = reflection_set("s4", [U1, U2])
    inter = S.fixed
    for _ in range(10):
        x = rng.standard_normal(5)
        z = inter.project(rng.standard_normal(5))
        cc = circumcenter_map(S, x)
        rhs = np.linalg.norm(z - x) ** 2
        for T in S.ops:
            lhs = np.linalg.norm(z - cc) ** 2 + np.linalg.norm(cc - T(x)) ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_membership_in_the_affine_hull_of_the_images():
    rng = np.random.default_rng(24)
    U1, U2 = _random_reflector_pair(rng)
    S = reflection_set("s3", [U1, U2])
    for _ in range(20):
        x = rng.standard_normal(5)
        cc = circumcenter_map(S, x)
        hull = AffineSubspace.from_points(S.points(x))
        assert np.linalg.norm(cc - hull.project(cc)) <= 1e-9 * (1 + np.linalg.norm(cc))


def test_homogeneity_and_quasitranslation_for_linear_sets():
    rng = np.random.default_rng(25)
    shared = rng.standard_normal(5)
    L1 = LinearSubspace.span(np.vstack([shared, rng.standard_normal(5)]))
    L2 = LinearSubspace.span(np.vstack([shared, rng.standard_normal(5)]))
    S = reflection_set("s2", [L1, L2])
    inter = S.fixed
    for _ in range(20):
        x = rng.standard_normal(5)
        lam = rng.uniform(-3, 3)
        cc = circumcenter_map(S, x)
        scaled = circumcenter_map(S, lam * x)
        assert np.linalg.norm(scaled - lam * cc) <= 1e-9 * (1 + np.linalg.norm(cc))
        z = inter.project(rng.standard_normal(5) * 2)
        shifted = circumcenter_map(S, x + z)
        assert np.linalg.norm(shifted - (cc + z)) <= 1e-9 * (1 + np.linalg.norm(cc))


def test_duplicate_operator_does_not_move_the_circumcenter():
    rng = np.random.default_rng(26)
    U1, U2 = _random_reflector_pair(rng)
    S = reflection_set("s3", [U1, U2])
    S_dup = OperatorSet(S.ops + (S.ops[1],), fixed=S.fixed)
    for _ in range(20):
        x = rng.standard_normal(5)
        gap = np.linalg.norm(circumcenter_map(S, x) - circumcenter_map(S_dup, x))
        assert gap <= 1e-10


def test_rejects_empty_point_set():
    with pytest.raises(ValueError):
        circumcenter_points(np.zeros((0, 3)))


@pytest.mark.parametrize(
    "x",
    [np.array([1.0]), np.array([1.0, np.inf]), np.ones((1, 2))],
    ids=["wrong-length", "non-finite", "2-d"],
)
@pytest.mark.parametrize(
    "S",
    [reflection_set("s3", [XAXIS, DIAG]), OperatorSet((Reflector(XAXIS), Reflector(DIAG)))],
    ids=["s3", "no-identity"],
)
def test_points_and_map_reject_a_bad_vector(S, x):
    # a length-1 vector would otherwise broadcast through the reflections
    with pytest.raises(ValueError):
        S.points(x)
    with pytest.raises(ValueError):
        circumcenter_map(S, x)


def _affine_subspaces(rng, t, n=6, shared_dims=1):
    # t affine subspaces of R^n through a common nonzero point
    z = rng.standard_normal(n)
    shared = rng.standard_normal((shared_dims, n))
    return [
        AffineSubspace(z, LinearSubspace.span(np.vstack([shared, rng.standard_normal((2, n))])))
        for _ in range(t)
    ]


def _operator_set(name, rng):
    """An operator set and the dimension of its space."""
    if name in ("s1", "s2", "s3", "s4"):
        return reflection_set(name, _affine_subspaces(rng, 2)), 6
    if name == "s2-t4":
        return reflection_set("s2", _affine_subspaces(rng, 4)), 6
    if name in ("product-minimal", "product-full"):
        C, D = lift_to_product(_affine_subspaces(rng, 3))
        rc, rd = Reflector(C), Reflector(D)
        if name == "product-minimal":
            return OperatorSet((Identity(), Compose((rc, rd)))), 18
        return OperatorSet((Identity(), rd, rc, Compose((rc, rd)))), 18
    if name == "duplicated":
        S = reflection_set("s3", _affine_subspaces(rng, 2))
        return OperatorSet(S.ops + (S.ops[1],), fixed=S.fixed), 6
    if name == "proj":
        return OperatorSet((Identity(), _Proj(), Reflector(XAXIS))), 2
    raise ValueError(name)


@pytest.mark.parametrize(
    "name", ["s1", "s2", "s3", "s4", "s2-t4", "product-minimal", "product-full", "duplicated", "proj"]
)
def test_points_equal_each_operator_applied_on_its_own(name):
    # checking x once and calling each operator must not change a single bit
    rng = np.random.default_rng(27)
    S, n = _operator_set(name, rng)
    for _ in range(10):
        x = rng.standard_normal(n) * 3
        assert np.array_equal(S.points(x), np.array([op(x) for op in S.ops]))


@pytest.mark.parametrize(
    "kind, t, reflections",
    [("crm_s1", 4, 4), ("crm_s2", 4, 4), ("crm_s3", 2, 3), ("crm_s4", 2, 5), ("product_crm", 4, 4)],
)
def test_step_applies_each_reflection_once(monkeypatch, kind, t, reflections):
    # crm-s1 and product-crm take their t reflections from one batched
    # projection of t rows; the chains call AffineSubspace._reflect for each
    rng = np.random.default_rng(28)
    calls, batches = [], []
    reflect = AffineSubspace._reflect
    project_rows = solvers._project_rows

    def counting(self, x):
        calls.append(1)
        return reflect(self, x)

    def counting_rows(subs):
        project = project_rows(subs)

        def counted(x):
            rows = project(x)
            batches.append(len(rows))
            return rows

        return counted

    monkeypatch.setattr(AffineSubspace, "_reflect", counting)
    monkeypatch.setattr(solvers, "_project_rows", counting_rows)
    s = make_solver(SolverSpec(kind), _affine_subspaces(rng, t))
    x = s.init(rng.standard_normal(6))
    calls.clear()
    s.step(x)
    if kind in ("crm_s1", "product_crm"):
        assert calls == [] and batches == [reflections]
    else:
        assert len(calls) == reflections and batches == []


@pytest.mark.parametrize(
    "kind, t",
    [("crm_s1", 2), ("crm_s2", 2), ("crm_s3", 2), ("crm_s4", 2), ("crm_s1", 4), ("crm_s2", 4)],
)
def test_crm_step_is_the_circumcenter_map_of_its_reflection_set(kind, t):
    rng = np.random.default_rng(29)
    subs = _affine_subspaces(rng, t)
    S = reflection_set(kind[-2:], subs)
    step = make_solver(SolverSpec(kind), subs).step
    for _ in range(10):
        x = rng.standard_normal(6) * 3
        assert np.array_equal(step(x), circumcenter_map(S, x))


def test_product_crm_step_matches_the_lifted_operator_set():
    # t = 3, so the dense diagonal basis has the inexact entries 1/sqrt(3)
    rng = np.random.default_rng(30)
    subs = _affine_subspaces(rng, 3)
    C, D = lift_to_product(subs)
    S = OperatorSet((Identity(), Compose((Reflector(C), Reflector(D)))))
    step = make_solver(SolverSpec("product_crm"), subs).step
    for _ in range(10):
        v = rng.standard_normal(18) * 3
        expected = circumcenter_map(S, v)
        assert np.linalg.norm(step(v) - expected) <= 1e-12 * np.linalg.norm(expected)


_C = np.array([1e6, -2e6, 5e5])
_NOISE = 0.9 * 64 * 3 * np.finfo(float).eps * np.linalg.norm(_C + (1.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "points, center",
    [
        ([(0, 0), (2, 0), (0, 2), (2, 0), (0, 0)], (1, 1)),
        ([(3 + 2 * np.cos(a), -1 + 2 * np.sin(a)) for a in np.linspace(0.3, 5.5, 6)], (3, -1)),
        ([(-1, 0, 0), (1, 0, 0), (1, 1e-12, 0), (0, 1, 0)], (0, 0, 0)),
        ([_C + (-1, 0, 0), _C + (1, 0, 0), _C + (0, 1, 0), _C + (1, 0, _NOISE)], _C),
        # affinely independent only below RANK_TOL: both routes drop the
        # 1e-12 direction, so the points are collinear and have no centre
        ([(0, 0), (1, 0), (2, 1e-12)], None),
    ],
    ids=[
        "duplicated-points",
        "six-points-in-R2",
        "collinear-to-1e-12",
        "noise-row-below-floor",
        "independent-below-rank-tol",
    ],
)
def test_gram_route_matches_the_oracle_on_degenerate_sets(points, center):
    P = np.array(points, dtype=float)
    a, b = circumcenter_points(P), circumcenter_oracle(P)
    scale = 1.0 + np.abs(P).max()
    if center is None:
        assert a.value is None and b.value is None
        return
    assert a.value is not None and b.value is not None
    assert np.linalg.norm(a.value - b.value) <= 1e-8 * scale
    assert np.linalg.norm(a.value - np.asarray(center, dtype=float)) <= 1e-8 * scale


def test_a_singular_gram_matrix_needs_no_least_squares(monkeypatch):
    # both differences pass the rank filter, but 1 + 1e-18 rounds to 1, so the
    # Gram matrix is singular in floating point; the solve on R never forms it
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    P = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-9)])
    r = circumcenter_points(P)
    assert not calls
    assert r.value is not None
    np.testing.assert_allclose(r.value, [0.5, 5e-10], atol=1e-9)


@pytest.mark.parametrize(
    "entry", [circumcenter_points, circumcenter_oracle, AffineSubspace.from_points],
    ids=["points", "oracle", "from_points"],
)
def test_every_point_set_entry_rejects_an_array_of_more_than_two_dimensions(entry):
    with pytest.raises(ValueError, match="one point a row"):
        entry(np.zeros((2, 2, 2)))


def _no_factorisation(*args, **kwargs):
    raise AssertionError("a closed-form circumcenter ran a factorisation")


@pytest.mark.parametrize("seed", [60, 61, 62])
def test_two_point_circumcenter_is_the_midpoint_without_a_factorisation(monkeypatch, seed):
    from circumsolve import circumcenter, linalg

    monkeypatch.setattr(linalg, "_geqp3", _no_factorisation)
    monkeypatch.setattr(circumcenter, "_trtrs", _no_factorisation)
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((2, 40)) * 10.0 ** rng.integers(-6, 7)
    r = circumcenter_points(P)
    assert np.array_equal(r.value, P[0] + 0.5 * (P[1] - P[0]))
    oracle = circumcenter_oracle(P)
    assert np.linalg.norm(r.value - oracle.value) <= 1e-12 * np.abs(P).max()
    assert r.radius == pytest.approx(np.linalg.norm(P[1] - P[0]) / 2, rel=1e-12)


def test_two_points_closer_than_the_noise_floor_give_their_midpoint():
    # the points differ, but by less than the rounding noise of their size
    # (64 * 3 * eps * |p|, about 1e-13 here), which two points do not consult
    c = _C / 1e6
    P = np.array([c, c + (1e-14, 0.0, 0.0)])
    assert not np.array_equal(P[0], P[1])
    r = circumcenter_points(P)
    assert np.array_equal(r.value, P[0] + 0.5 * (P[1] - P[0]))


def test_both_routes_give_two_large_close_points_their_midpoint():
    # |d| = 4.4e-8 lies below the noise floor of points of norm 2.3e6 (9.8e-8);
    # taking the first point there left a residual of 2.2e-8 against tol 1e-8
    P = np.array([_C, _C + (4.4e-8, 0.0, 0.0)])
    midpoint = P[0] + 0.5 * (P[1] - P[0])
    a, b = circumcenter_points(P), circumcenter_oracle(P)
    assert np.array_equal(a.value, midpoint)
    assert b.value is not None
    assert np.linalg.norm(b.value - midpoint) <= 1e-15 * np.linalg.norm(_C)


def test_two_tiny_points_have_a_circumcenter():
    # the squares of the difference underflow; the midpoint is still exact
    P = np.array([(0.0, 0.0, 0.0), (0.0, 0.0, 2.6298583924242025e-162)])
    r = circumcenter_points(P)
    assert np.array_equal(r.value, 0.5 * P[1])


@pytest.mark.parametrize("seed", [63, 64, 65])
def test_triangle_circumcenter_is_solved_without_a_factorisation(monkeypatch, seed):
    from circumsolve import circumcenter, linalg

    monkeypatch.setattr(linalg, "_geqp3", _no_factorisation)
    monkeypatch.setattr(circumcenter, "_trtrs", _no_factorisation)
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((3, 100)) * 10.0 ** rng.integers(-6, 7)
    r = circumcenter_points(P)
    oracle = circumcenter_oracle(P)
    assert np.linalg.norm(r.value - oracle.value) <= 1e-12 * (np.abs(P).max() + oracle.radius)
    dists = np.linalg.norm(P - r.value, axis=1)
    assert np.ptp(dists) <= 1e-12 * r.radius


def _triangle(n, sin2, apex, seed):
    # the angle at p_0 has the given sin^2 and the sides lengths in [0.5, 2],
    # so det / max|d|^4 >= sin^2 / 16; p_0 is the apex of a sliver or lies
    # between the other two points, whose circumcenter is then far away
    rng = np.random.default_rng(seed)
    u, w = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
    a, b = rng.uniform(0.5, 2.0, 2)
    direction = math.sqrt(1.0 - sin2) * (u if apex else -u) + math.sqrt(sin2) * w
    p0 = rng.standard_normal(n) * rng.uniform(0.0, 10.0)
    return np.array([p0, p0 + a * u, p0 + b * direction])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 100),
    exponent=st.integers(-100, 100),
    flatness=st.floats(-12.0, 0.0),
    apex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_triangles_agree_with_the_oracle(n, exponent, flatness, apex, seed):
    # det / max|d|^4 runs from 1 down past TRIANGLE_MARGIN into the QR path
    sin2 = 10.0**flatness
    P = _triangle(n, sin2, apex, seed) * 10.0**exponent
    r, o = circumcenter_points(P), circumcenter_oracle(P)
    # Cramer's rule errs by at most 2.4e-15 / sin^2 relative (60,000 random
    # triangles); it runs only where det / max|d|^4 > 1e-6, so sin^2 >= 1e-6.
    # Flatter triangles take the solve on R, which errs by at most 6.4 eps / sin
    assert (r.value is None) == (o.value is None)
    if r.value is None:
        return
    law = 1e-14 / sin2 if sin2 >= 1e-6 else 100 * EPS / math.sqrt(sin2)
    bound = max(1e-10, law) * (np.abs(P).max() + o.radius)
    assert np.linalg.norm(r.value - o.value) <= bound


@pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
def test_a_near_collinear_triangle_has_its_centre(h):
    # the centre of (0,0,0), (1,0,0), (2,h,0) is (1/2, (2 + h^2) / (2h), 0);
    # the Gram system squares the condition 1 / sin of the angle at p_0, and
    # solving it lost the centre from h = 1e-8 on
    P = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, h, 0.0)])
    center = np.array([0.5, (2.0 + h * h) / (2.0 * h), 0.0])
    r = circumcenter_points(P)
    assert r.value is not None
    sin = h / math.hypot(2.0, h)
    bound = 100 * EPS / sin * (np.abs(P).max() + np.linalg.norm(center))
    assert np.linalg.norm(r.value - center) <= bound


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 60),
    flatness=st.floats(-16.0, 0.0),
    apex=st.booleans(),
    duplicate=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_two_sets_agree_with_the_oracle_to_eps_over_sin(n, flatness, apex, duplicate, seed):
    # a duplicated fourth point sends the set through the QR path at every
    # flatness
    sin2 = 10.0**flatness
    P = _triangle(n, sin2, apex, seed)
    P = np.vstack([P, P[duplicate]])
    r, o = circumcenter_points(P), circumcenter_oracle(P)
    if o.value is None:
        return
    assert r.value is not None
    bound = 100 * EPS / math.sqrt(sin2) * (np.abs(P).max() + o.radius)
    assert np.linalg.norm(r.value - o.value) <= bound


@pytest.mark.parametrize(
    "points, center",
    [
        # R_22 / R_11 = 1e-4: sin^2 = 1e-8 is inside TRIANGLE_MARGIN
        ([(0, 0, 0), (1, 0, 0), (1, 1e-4, 0)], (0.5, 5e-5, 0)),
        # R_22 / R_11 = 1e-7: rank 2 for geqp3, far inside the margin
        ([(0, 0, 0), (1, 0, 0), (1, 1e-7, 0)], (0.5, 5e-8, 0)),
        # R_22 / R_11 = 1e-11 is below RANK_TOL: rank 1, collinear, no centre
        ([(0, 0, 0), (1, 0, 0), (2, 1e-11, 0)], None),
        # sides of 1e-9 below the noise floor of points of norm 2.3e6: rank 0,
        # and the first point passes the equidistance test
        ([_C, _C + (1e-9, 0, 0), _C + (0, 1e-9, 0)], _C),
    ],
    ids=["inside-margin", "far-inside-margin", "below-rank-tol", "below-noise-floor"],
)
def test_a_triangle_inside_the_margin_takes_the_qr_path(monkeypatch, points, center):
    from circumsolve import linalg

    calls = []
    geqp3 = linalg._geqp3

    def counting(*args, **kwargs):
        calls.append(1)
        return geqp3(*args, **kwargs)

    monkeypatch.setattr(linalg, "_geqp3", counting)
    r = circumcenter_points(np.array(points, dtype=float))
    assert calls
    if center is None:
        assert r.value is None
    else:
        assert np.linalg.norm(r.value - np.asarray(center, dtype=float)) <= 1e-8


def test_a_triangle_whose_squares_overflow_never_gives_a_wrong_centre():
    s = 1e160
    P = np.array([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)]) * s
    with np.errstate(over="ignore", invalid="ignore"):
        r = circumcenter_points(P)
    assert r.value is None or np.linalg.norm(r.value / s - (1.0, 1.0, 0.0)) <= 1e-12


def test_a_tiny_triangle_has_its_centre():
    s = 1e-160
    P = np.array([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)]) * s
    r = circumcenter_points(P)
    assert np.linalg.norm(r.value / s - (1.0, 1.0, 0.0)) <= 1e-12


@pytest.mark.parametrize(
    "points",
    [
        [(0.0, 0.0), (2.0, 0.0), (np.nan, 0.0)],
        [(0.0, 0.0), (1e200, 0.0), (np.nan, 0.0)],
        # distances 0, inf, inf: the residual max(inf, nan, nan) is inf, which
        # an inf tolerance would pass
        [(0.0, 0.0), (1e200, 0.0), (1e200, 0.0)],
    ],
    ids=["nan-row", "inf-then-nan", "overflowed-rows"],
)
def test_a_non_finite_distance_rejects_the_candidate(points):
    from circumsolve.circumcenter import _accept

    with np.errstate(over="ignore", invalid="ignore"):
        r = _accept(np.zeros(2), np.array(points))
    assert r.value is None
