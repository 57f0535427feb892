import json

import numpy as np
import pytest

from circumsolve.linalg import LinearSubspace, friedrichs_cosine, intersect_all, orthonormal_basis
from circumsolve.problems import (
    FORMAT_VERSION,
    ProblemSetFormatError,
    ProblemSpec,
    X0_NORM,
    gen_subspace_pair,
    generate_problem_set,
    load_problem_set,
    reference_solution,
    save_problem_set,
)


def test_orthogonal_lines_have_zero_cosine():
    spec = ProblemSpec(n=2, p=1, q=1, r=0, angles=(np.pi / 2,), pairs=1, points_per_pair=0, seed=1)
    L1, L2, cf = gen_subspace_pair(spec, 0)
    assert cf == pytest.approx(0.0, abs=1e-10)
    assert L1.dim == L2.dim == 1


def test_prescribed_sixty_degree_pair():
    spec = ProblemSpec(n=4, p=2, q=2, r=1, angles=(np.pi / 3,), pairs=1, points_per_pair=0, seed=2)
    L1, L2, cf = gen_subspace_pair(spec, 0)
    assert abs(cf - 0.5) < 1e-10
    # round trip through the generic Friedrichs computation
    assert abs(friedrichs_cosine(L1, L2) - 0.5) < 1e-12


def test_sampled_cosines_land_in_the_requested_range():
    spec = ProblemSpec(n=20, p=5, q=5, r=1, cf_range=(0.9, 0.95), pairs=100, points_per_pair=0, seed=3)
    for i in range(100):
        _, _, cf = gen_subspace_pair(spec, i)
        assert 0.9 - 1e-10 <= cf < 0.95 + 1e-10


def test_generated_cosine_stays_below_one():
    spec = ProblemSpec(n=12, p=3, q=4, r=2, cf_range=(0.5, 0.999), pairs=20, points_per_pair=0, seed=4)
    for i in range(20):
        _, _, cf = gen_subspace_pair(spec, i)
        assert cf < 1.0 - 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(n=10, p=6, q=6, r=1, cf_range=(0.1, 0.5))  # p + q - r > n
    with pytest.raises(ValueError):
        ProblemSpec(n=10, p=2, q=2, r=3, cf_range=(0.1, 0.5))  # r > min(p, q)
    with pytest.raises(ValueError):
        ProblemSpec(n=10, p=2, q=2, r=1, angles=(0.0,))  # angle must be positive
    with pytest.raises(ValueError):
        ProblemSpec(n=10, p=2, q=2, r=1)  # no prescription at all
    with pytest.raises(ValueError):
        ProblemSpec(n=10, p=2, q=2, r=1, angles=(0.5,), cf_range=(0.1, 0.2))


def test_reference_solution_two_lines_through_origin():
    L1 = LinearSubspace.span([(1, 0)])
    L2 = LinearSubspace.span([(1, 1)])
    np.testing.assert_allclose(reference_solution([L1, L2], (3.0, 4.0)), [0, 0], atol=1e-12)


def test_reference_solution_identical_subspaces():
    L = LinearSubspace.span([(1, 0)])
    np.testing.assert_allclose(reference_solution([L, L], (3.0, 4.0)), [3, 0], atol=1e-12)


def test_reference_solution_rejects_empty_intersection():
    from circumsolve.linalg import AffineSubspace

    A = AffineSubspace((0, 0), LinearSubspace.span([(1, 0)]))
    B = AffineSubspace((0, 1), LinearSubspace.span([(1, 0)]))
    with pytest.raises(ValueError):
        reference_solution([A, B], (0.0, 0.0))


def test_reference_solution_matches_long_cyclic_projection_run():
    rng = np.random.default_rng(5)
    w = rng.standard_normal(6)
    subs = [
        orthonormal_basis(np.vstack([w, rng.standard_normal(6)])).as_affine() for _ in range(3)
    ]
    x0 = rng.standard_normal(6) * 4
    ref = reference_solution(subs, x0)
    # oracle: von-Neumann-style cyclic projections run to stagnation
    x = x0.copy()
    for _ in range(5000):
        for s in subs:
            x = s.project(x)
    assert np.linalg.norm(x - ref) < 1e-10


def test_problem_set_round_trip_is_bit_exact(tmp_path):
    spec = ProblemSpec(n=12, p=3, q=3, r=1, cf_range=(0.3, 0.8), pairs=5, points_per_pair=3, seed=6)
    ps = generate_problem_set(spec)
    path = tmp_path / "ps.json"
    save_problem_set(ps, path)
    ps2 = load_problem_set(path)
    assert ps2.version == ps.version and ps2.seed == ps.seed and ps2.n == ps.n
    for a, b in zip(ps.pairs, ps2.pairs):
        assert a.id == b.id and a.cF == b.cF
        assert np.array_equal(a.u1.direction.basis, b.u1.direction.basis)
        assert np.array_equal(a.u2.direction.basis, b.u2.direction.basis)
        assert np.array_equal(a.u1.anchor, b.u1.anchor)
        assert np.array_equal(a.u2.anchor, b.u2.anchor)
        for (x0, r0), (x1, r1) in zip(a.points, b.points):
            assert np.array_equal(x0, x1) and np.array_equal(r0, r1)


def test_regeneration_is_byte_identical(tmp_path):
    spec = ProblemSpec(n=10, p=2, q=2, r=0, cf_range=(0.2, 0.9), pairs=4, points_per_pair=2, seed=7)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_problem_set(generate_problem_set(spec), p1)
    save_problem_set(generate_problem_set(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_initial_points_have_fixed_norm_and_consistent_references():
    spec = ProblemSpec(n=15, p=4, q=4, r=1, cf_range=(0.4, 0.9), pairs=3, points_per_pair=4, seed=8)
    ps = generate_problem_set(spec)
    for prob in ps.problems():
        assert np.linalg.norm(prob.x0) == pytest.approx(X0_NORM, abs=1e-9)
        recomputed = reference_solution(prob.subspaces, prob.x0)
        assert np.linalg.norm(recomputed - prob.reference) <= 1e-10
        assert abs(friedrichs_cosine(prob.subspaces[0].direction, prob.subspaces[1].direction) - prob.cF) <= 1e-10


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99, "seed": 0, "n": 2, "pairs": []}))
    with pytest.raises(ProblemSetFormatError, match="version"):
        load_problem_set(path)


def test_load_rejects_non_orthonormal_basis(tmp_path):
    spec = ProblemSpec(n=4, p=1, q=1, r=0, cf_range=(0.3, 0.8), pairs=1, points_per_pair=1, seed=9)
    ps = generate_problem_set(spec)
    path = tmp_path / "tampered.json"
    save_problem_set(ps, path)
    doc = json.loads(path.read_text())
    doc["pairs"][0]["U2_basis"][0][0] += 0.5  # hand-edit one entry
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemSetFormatError, match="pair000 U2"):
        load_problem_set(path)


def test_load_rejects_a_basis_row_of_the_wrong_length(tmp_path):
    pair = {"id": "p0", "cF": 0.0, "U1_basis": [[1, 0, 0, 1]], "U2_basis": [],
            "anchors": [[0, 0], [0, 0]], "points": []}
    doc = {"version": FORMAT_VERSION, "seed": 0, "n": 2, "pairs": [pair]}
    path = tmp_path / "reshaped.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemSetFormatError, match="p0 U1"):
        load_problem_set(path)
    pair["U1_basis"] = [[1, 0], [0, 1]]
    path.write_text(json.dumps(doc))
    loaded = load_problem_set(path).pairs[0]
    assert (loaded.u1.direction.dim, loaded.u2.direction.dim) == (2, 0)


def test_load_rejects_corrupt_numbers(tmp_path):
    spec = ProblemSpec(n=4, p=1, q=1, r=0, cf_range=(0.3, 0.8), pairs=1, points_per_pair=1, seed=10)
    path = tmp_path / "nan.json"
    save_problem_set(generate_problem_set(spec), path)
    doc = json.loads(path.read_text())
    doc["pairs"][0]["points"][0]["x0"][0] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_problem_set(path)


def test_generated_pair_intersection_has_the_requested_dimension():
    spec = ProblemSpec(n=16, p=5, q=4, r=2, cf_range=(0.3, 0.95), pairs=5, points_per_pair=0, seed=11)
    for i in range(5):
        L1, L2, _ = gen_subspace_pair(spec, i)
        inter = intersect_all([L1, L2])
        assert inter.direction.dim == 2


def _saved_doc(tmp_path):
    spec = ProblemSpec(n=4, p=1, q=1, r=0, cf_range=(0.3, 0.8), pairs=1, points_per_pair=1, seed=12)
    path = tmp_path / "ps.json"
    save_problem_set(generate_problem_set(spec), path)
    return path, json.loads(path.read_text())


def _drop(keys):
    def edit(doc):
        *outer, last = keys
        for k in outer:
            doc = doc[k]
        del doc[last]
    return edit


def _set(keys, value):
    def edit(doc):
        *outer, last = keys
        for k in outer:
            doc = doc[k]
        doc[last] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _drop(["n"]),
        _drop(["seed"]),
        _drop(["pairs"]),
        _drop(["pairs", 0, "id"]),
        _drop(["pairs", 0, "cF"]),
        _drop(["pairs", 0, "U1_basis"]),
        _drop(["pairs", 0, "anchors"]),
        _drop(["pairs", 0, "points"]),
        _drop(["pairs", 0, "points", 0, "reference"]),
    ],
    ids=["n", "seed", "pairs", "id", "cF", "U1_basis", "anchors", "points", "reference"],
)
def test_load_reports_a_missing_field_as_a_format_error(tmp_path, edit):
    path, doc = _saved_doc(tmp_path)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemSetFormatError, match="missing field"):
        load_problem_set(path)


@pytest.mark.parametrize(
    "edit",
    [
        _set(["n"], "four"),
        _set(["n"], None),
        _set(["seed"], [1]),
        _set(["pairs"], 5),
        _set(["pairs", 0], ["pair000"]),
        _set(["pairs", 0, "cF"], "high"),
        _set(["pairs", 0, "anchors"], []),
        _set(["pairs", 0, "points", 0], 3.0),
        _set(["pairs", 0, "points", 0, "x0"], [1.0, 2.0]),
    ],
    ids=["n-str", "n-null", "seed-list", "pairs-int", "pair-list", "cF-str", "anchors-empty",
         "point-number", "x0-short"],
)
def test_load_reports_a_malformed_field_as_a_format_error(tmp_path, edit):
    path, doc = _saved_doc(tmp_path)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemSetFormatError):
        load_problem_set(path)


def test_load_rejects_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ProblemSetFormatError):
        load_problem_set(path)
