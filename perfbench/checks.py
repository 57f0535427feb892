"""Correctness checks computed by the benchmark itself, with plain numpy.

None of these calls into circumsolve's numerics: the intersection's
direction comes from principal vectors (an SVD of basis products), not from
``intersect``, and distances are formed here from the stored bases.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from circumsolve.linalg import FEAS_TOL

# singular values of basis products at least this close to 1 mark shared directions;
# every non-shared principal cosine in the workloads is below 0.96
_SHARED = 1e-8


def common_directions(subspaces) -> np.ndarray:
    """Orthonormal rows spanning the intersection of the subspaces' directions."""
    W = subspaces[0].direction.basis
    for s in subspaces[1:]:
        if W.shape[0] == 0:
            break
        U, sv, _ = np.linalg.svd(W @ s.direction.basis.T)
        W = U[:, : len(sv)][:, sv >= 1.0 - _SHARED].T @ W
    return W


def reference_failures(problem, W: np.ndarray, expected_dim: int) -> list[str]:
    """The reference lies on every subspace and x0 - reference is orthogonal to W."""
    out = []
    ref, x0 = problem.reference, problem.x0
    if W.shape[0] != expected_dim:
        out.append(f"{problem.id}: intersection has dimension {W.shape[0]}, expected {expected_dim}")
    for i, s in enumerate(problem.subspaces):
        d = ref - s.anchor
        off = float(np.linalg.norm(d - s.direction.basis.T @ (s.direction.basis @ d)))
        if not off <= FEAS_TOL * (1.0 + np.linalg.norm(ref)):
            out.append(f"{problem.id}: reference is {off:.2e} off subspace {i}")
    tilt = float(np.linalg.norm(W @ (x0 - ref)))
    if not tilt <= FEAS_TOL * (1.0 + np.linalg.norm(x0)):
        out.append(f"{problem.id}: x0 - reference has component {tilt:.2e} along the intersection")
    return out


def same_problem_set(a, b) -> bool:
    """Bit-exact equality of two problem sets (the JSON round trip)."""
    if (a.n, len(a.pairs)) != (b.n, len(b.pairs)):
        return False
    for p, q in zip(a.pairs, b.pairs):
        if p.id != q.id or p.cF != q.cF or len(p.points) != len(q.points):
            return False
        for s, t in ((p.u1, q.u1), (p.u2, q.u2)):
            if not (np.array_equal(s.anchor, t.anchor)
                    and np.array_equal(s.direction.basis, t.direction.basis)):
                return False
        for (x, r), (y, u) in zip(p.points, q.points):
            if not (np.array_equal(x, y) and np.array_equal(r, u)):
                return False
    return True


def digest(matrix: dict) -> str:
    """Short hash of the iteration-count matrix {(problem_id, solver): count}."""
    lines = "".join(f"{pid} {key} {it}\n" for (pid, key), it in sorted(matrix.items()))
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def ranking_share(matrix: dict, problem_ids, solvers, workload: str):
    """The criterion-12 predicate share and its required minimum, or None for other workloads.

    hard-pairs: crm-s3 needs no more iterations than both drm and map, on 95%.
    easy-pairs: crm-s4 needs no more iterations than every other solver, on 80%.
    """
    def value(pid, key):
        t = matrix[(pid, key)]
        return math.inf if t is None else t

    if workload == "hard-pairs":
        wins = sum(value(p, "crm-s3") <= min(value(p, "drm"), value(p, "map")) for p in problem_ids)
        label, threshold = "crm-s3 <= min(drm, map)", 0.95
    elif workload == "easy-pairs":
        wins = sum(value(p, "crm-s4") <= min(value(p, k) for k in solvers if k != "crm-s4")
                   for p in problem_ids)
        label, threshold = "crm-s4 smallest", 0.80
    else:
        return None
    return {"predicate": label, "wins": int(wins), "problems": len(problem_ids), "threshold": threshold}
