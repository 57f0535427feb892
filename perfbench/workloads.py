"""The benchmark's workloads: seeded problem sets built through circumsolve's public API.

Every workload draws its inputs from ``--seed`` alone.  Pair workloads split
their Friedrichs-cosine interval into one stratum per pair (the acceptance
experiment draws every pair from the whole interval), so that two seeds give
problem sets of about the same difficulty and the end-to-end figures stay
comparable across seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from circumsolve import AffineSubspace, LinearSubspace, ProblemSpec, generate_problem_set
from circumsolve.problems import FORMAT_VERSION, X0_NORM, Problem, ProblemPair, ProblemSet

PAIR_SOLVERS = ("crm-s1", "crm-s2", "crm-s3", "crm-s4", "drm", "map")
MANY_SOLVERS = ("crm-s1", "crm-s2", "avg-proj", "product-crm")
ALL_SOLVERS = ("crm-s1", "crm-s2", "crm-s3", "crm-s4", "drm", "map", "avg-proj", "product-crm")
PAIR_ONLY = {"crm-s3", "crm-s4", "drm", "map"}
CRM_SOLVERS = ("crm-s1", "crm-s2", "crm-s3", "crm-s4", "product-crm")

TOL = 1e-6

# many-subspaces geometry: t subspaces of dimension DIM in R^N through a shared
# point, meeting in a CORE-dimensional intersection.  Each adds DIM - CORE
# directions cos(a_k) e_k + sin(a_k) f_ik, with a frame e shared by all and
# directions f of its own, so every pair has principal cosines cos^2(a_k) and
# Friedrichs cosine cos^2(a_1).  Tuple g takes that cosine at the midpoint of
# the g-th stratum of CF; with drawn frames instead, iteration counts, and so
# the grid's total, varied by a fifth between seeds.
MANY_N, MANY_T, MANY_DIM, MANY_CORE = 60, 4, 12, 3
MANY_CF = (0.60, 0.95)


@dataclass(frozen=True)
class Size:
    groups: int  # subspace pairs, or t-tuples on many-subspaces
    points: int  # initial points per group


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    solvers: tuple[str, ...]
    sizes: dict  # "full" / "tiny" -> Size
    cf_range: tuple[float, float] | None = None  # pair workloads only
    n: int = 100
    intersection_dim: int = 5

    @property
    def pairs(self) -> bool:
        return self.cf_range is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hard-pairs", 1012, PAIR_SOLVERS,
                 {"full": Size(6, 3), "tiny": Size(2, 1)}, cf_range=(0.90, 0.95)),
        Workload("easy-pairs", 1013, PAIR_SOLVERS,
                 {"full": Size(8, 3), "tiny": Size(2, 1)}, cf_range=(0.01, 0.50)),
        Workload("many-subspaces", 1014, MANY_SOLVERS,
                 {"full": Size(12, 1), "tiny": Size(1, 1)}, n=MANY_N,
                 intersection_dim=MANY_CORE),
    )
}


def generate_pairs(w: Workload, size: Size, seed: int) -> ProblemSet:
    """``size.groups`` pairs, pair i with cF drawn from the i-th stratum of the range."""
    lo, hi = w.cf_range
    width = (hi - lo) / size.groups
    pairs = []
    for i in range(size.groups):
        top = hi if i == size.groups - 1 else lo + (i + 1) * width
        spec = ProblemSpec(n=w.n, cf_range=(lo + i * width, top), pairs=1,
                           points_per_pair=size.points, seed=seed * size.groups + i)
        (pair,) = generate_problem_set(spec).pairs
        pairs.append(replace(pair, id=f"pair{i:03d}"))
    return ProblemSet(FORMAT_VERSION, seed, w.n, tuple(pairs))


def generate_many(size: Size, seed: int) -> list[tuple[AffineSubspace, ...]]:
    """``size.groups`` tuples of MANY_T affine subspaces through a shared point."""
    k = MANY_DIM - MANY_CORE
    lo, hi = MANY_CF
    groups = []
    for g in range(size.groups):
        rng = np.random.default_rng([seed, g, 7])
        E = np.linalg.qr(rng.standard_normal((MANY_N, MANY_N)))[0].T
        core, frame = E[:MANY_CORE], E[MANY_CORE : MANY_CORE + k]
        a1 = math.acos(math.sqrt(lo + (hi - lo) * (g + 0.5) / size.groups))
        angles = a1 + (math.pi / 2 - a1) * np.arange(k) / k
        z = 3.0 * rng.standard_normal(MANY_N)
        subs = []
        for i in range(MANY_T):
            own = E[MANY_CORE + (i + 1) * k : MANY_CORE + (i + 2) * k]
            free = np.cos(angles)[:, None] * frame + np.sin(angles)[:, None] * own
            subs.append(AffineSubspace(z, LinearSubspace(MANY_N, np.vstack([core, free]))))
        groups.append(tuple(subs))
    return groups


def many_start_points(size: Size, seed: int) -> list[list[np.ndarray]]:
    out = []
    for g in range(size.groups):
        pts = []
        for j in range(size.points):
            v = np.random.default_rng([seed, g, j, 9]).standard_normal(MANY_N)
            pts.append(X0_NORM * v / np.linalg.norm(v))
        out.append(pts)
    return out


def pair_projection(groups, starts, references) -> ProblemSet:
    """The (U_1, U_2) part of each t-tuple as a pair problem set, for the JSON round trip.

    The format stores pairs only; these pairs carry nonzero anchors, which the
    generated pair workloads never do.  Every pair of a tuple meets in the
    tuple's core, so the tuple's references are the pair's references too.
    """
    pairs = []
    for g, (subs, pts, refs) in enumerate(zip(groups, starts, references)):
        pairs.append(ProblemPair(f"group{g:03d}", 0.0, subs[0], subs[1], tuple(zip(pts, refs))))
    return ProblemSet(FORMAT_VERSION, 0, MANY_N, tuple(pairs))


def many_problems(groups, starts, references) -> list[Problem]:
    return [
        Problem(f"group{g:03d}:{j:02d}", subs, x0, ref, 0.0)
        for g, (subs, pts, refs) in enumerate(zip(groups, starts, references))
        for j, (x0, ref) in enumerate(zip(pts, refs))
    ]
