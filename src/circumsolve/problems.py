"""Benchmark problem generation and serialization.

A problem is a pair of subspaces with a prescribed Friedrichs angle, an
initial point of fixed norm, and the reference best approximation onto the
intersection.  Generation is deterministic per (seed, pair_index,
point_index), so problem sets can be regenerated byte-for-byte and pairs may
be produced in parallel with identical results.

Problem-set files are JSON::

    {"version": 1, "seed": ..., "n": ...,
     "pairs": [{"id": ..., "cF": ..., "U1_basis": [[...]], "U2_basis": [[...]],
                "anchors": [[...], [...]],
                "points": [{"x0": [...], "reference": [...]}]}]}

Floats are serialized with Python's shortest round-trip representation, so a
reload reproduces every entry bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    AffineSubspace,
    LinearSubspace,
    as_affine,
    as_vector,
    friedrichs_cosine,
    intersect,
    intersect_all,
)

FORMAT_VERSION = 1

# All initial points are drawn on the sphere of this radius.
X0_NORM = 10.0


class ProblemSetFormatError(ValueError):
    """Raised for unreadable, mis-versioned or invalid problem-set files."""


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for a family of subspace pairs.

    Exactly one of ``angles`` (explicit principal angles, radians, in
    (0, pi/2]) or ``cf_range`` (half-open interval to sample the Friedrichs
    cosine from) must be given.  Dimension defaults follow p = q = n/4 and
    r = n/20; the smallest prescribed angle controls the Friedrichs angle
    and the remaining principal angles are drawn from [theta_1, pi/2].
    """

    n: int
    p: int | None = None
    q: int | None = None
    r: int | None = None
    angles: tuple[float, ...] | None = None
    cf_range: tuple[float, float] | None = None
    pairs: int = 10
    points_per_pair: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("ambient dimension must be at least 2")
        object.__setattr__(self, "p", self.p if self.p is not None else max(self.n // 4, 1))
        object.__setattr__(self, "q", self.q if self.q is not None else max(self.n // 4, 1))
        object.__setattr__(self, "r", self.r if self.r is not None else self.n // 20)
        if self.r > min(self.p, self.q):
            raise ValueError("intersection dimension exceeds a subspace dimension")
        if self.p + self.q - self.r > self.n:
            raise ValueError("subspace dimensions do not fit the ambient space")
        if (self.angles is None) == (self.cf_range is None):
            raise ValueError("exactly one of angles and cf_range must be given")
        if min(self.p, self.q) - self.r < 1:
            raise ValueError("at least one principal-angle slot is required")
        if self.angles is not None:
            angles = tuple(float(a) for a in self.angles)
            if len(angles) != min(self.p, self.q) - self.r:
                raise ValueError("need one angle per non-shared principal direction")
            if not all(0.0 < a <= math.pi / 2 for a in angles):
                raise ValueError("prescribed angles must lie in (0, pi/2]")
            object.__setattr__(self, "angles", angles)
        else:
            lo, hi = self.cf_range
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError("cf_range must satisfy 0 <= lo < hi <= 1")
            object.__setattr__(self, "cf_range", (float(lo), float(hi)))
        if self.pairs < 1 or self.points_per_pair < 0:
            raise ValueError("pairs must be >= 1 and points_per_pair >= 0")


@dataclass(frozen=True)
class Problem:
    id: str
    subspaces: tuple[AffineSubspace, ...]
    x0: np.ndarray
    reference: np.ndarray
    cF: float


@dataclass(frozen=True)
class ProblemPair:
    id: str
    cF: float
    u1: AffineSubspace
    u2: AffineSubspace
    points: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class ProblemSet:
    version: int
    seed: int
    n: int
    pairs: tuple[ProblemPair, ...]

    def problems(self) -> list[Problem]:
        out = []
        for pair in self.pairs:
            for j, (x0, ref) in enumerate(pair.points):
                out.append(Problem(f"{pair.id}:{j:02d}", (pair.u1, pair.u2), x0, ref, pair.cF))
        return out


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    # QR of a Gaussian matrix, sign-fixed so the factorization is unique
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def gen_subspace_pair(spec: ProblemSpec, pair_index: int) -> tuple[LinearSubspace, LinearSubspace, float]:
    """One subspace pair with the prescribed Friedrichs angle.

    The pair is first assembled in a canonical coordinate frame (shared axes,
    then rotated axis pairs) and then conjugated by a seeded random
    orthogonal map.  The returned cosine is recomputed from the output
    bases, not taken from the prescription.
    """
    n, p, q, r = spec.n, spec.p, spec.q, spec.r
    s = min(p, q) - r
    rng = np.random.default_rng([spec.seed, pair_index])
    if spec.angles is not None:
        thetas = np.sort(np.asarray(spec.angles, dtype=float))
    else:
        lo, hi = spec.cf_range
        theta1 = math.acos(rng.uniform(lo, hi))
        rest = rng.uniform(theta1, math.pi / 2, size=s - 1)
        thetas = np.sort(np.concatenate([[theta1], rest]))

    shared = np.eye(n)[:r]
    a_axes = np.eye(n)[r : r + (p - r)]
    b_axes = np.eye(n)[r + (p - r) : r + (p - r) + s]
    c_axes = np.eye(n)[r + (p - r) + s : r + (p - r) + s + (q - r - s)]

    B1 = np.vstack([shared, a_axes])
    rotated = np.cos(thetas)[:, None] * a_axes[:s] + np.sin(thetas)[:, None] * b_axes
    B2 = np.vstack([shared, rotated, c_axes])

    Q = _random_orthogonal(rng, n)
    L1 = LinearSubspace(n, B1 @ Q.T)
    L2 = LinearSubspace(n, B2 @ Q.T)
    return L1, L2, friedrichs_cosine(L1, L2)


def reference_solution(subspaces, x0) -> np.ndarray:
    """Best approximation of x0 onto the intersection of the subspaces."""
    inter = intersect_all(subspaces)
    if inter is None:
        raise ValueError("subspaces have empty intersection")
    return inter.project(as_vector(x0, as_affine(subspaces[0]).ambient_dim))


def generate_problem_set(spec: ProblemSpec) -> ProblemSet:
    pairs = []
    for pi in range(spec.pairs):
        L1, L2, cf = gen_subspace_pair(spec, pi)
        U1, U2 = L1.as_affine(), L2.as_affine()
        inter = intersect(U1, U2)
        points = []
        for qi in range(spec.points_per_pair):
            rng = np.random.default_rng([spec.seed, pi, qi, 1])
            v = rng.standard_normal(spec.n)
            x0 = X0_NORM * v / np.linalg.norm(v)
            points.append((x0, inter.project(x0)))
        pairs.append(ProblemPair(f"pair{pi:03d}", cf, U1, U2, tuple(points)))
    return ProblemSet(FORMAT_VERSION, spec.seed, spec.n, tuple(pairs))


def _pair_doc(pair: ProblemPair) -> dict:
    return {
        "id": pair.id,
        "cF": pair.cF,
        "U1_basis": pair.u1.direction.basis.tolist(),
        "U2_basis": pair.u2.direction.basis.tolist(),
        "anchors": [pair.u1.anchor.tolist(), pair.u2.anchor.tolist()],
        "points": [{"x0": x0.tolist(), "reference": ref.tolist()} for x0, ref in pair.points],
    }


def save_problem_set(ps: ProblemSet, path) -> None:
    """Write ``ps`` as one JSON line, the bytes of ``json.dumps(doc) + "\n"``.

    The head is written first and then each pair as its own ``json.dumps``:
    that takes the C encoder (``json.dump`` takes the pure-Python one) and
    holds one pair's text at a time, not the whole file's.
    """
    head = json.dumps({"version": ps.version, "seed": ps.seed, "n": ps.n, "pairs": []})
    with open(path, "w") as fh:
        fh.write(head[:-2])  # up to and including the "pairs" list's "["
        for i, pair in enumerate(ps.pairs):
            if i:
                fh.write(", ")
            fh.write(json.dumps(_pair_doc(pair)))
        fh.write("]}\n")


def _load_subspace(n: int, basis_rows, anchor, label: str) -> AffineSubspace:
    try:
        direction = LinearSubspace(n, np.asarray(basis_rows, dtype=float))
        return AffineSubspace(np.asarray(anchor, dtype=float), direction)
    except (TypeError, ValueError) as exc:
        raise ProblemSetFormatError(f"invalid subspace {label}: {exc}") from exc


def load_problem_set(path) -> ProblemSet:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemSetFormatError(f"not a valid problem-set file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemSetFormatError("a problem-set file holds one JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ProblemSetFormatError(
            f"unsupported problem-set version {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        n = int(doc["n"])
        pairs = []
        for pd in doc["pairs"]:
            pid = pd["id"]
            u1 = _load_subspace(n, pd["U1_basis"], pd["anchors"][0], f"{pid} U1")
            u2 = _load_subspace(n, pd["U2_basis"], pd["anchors"][1], f"{pid} U2")
            points = []
            for pt in pd["points"]:
                x0 = as_vector(pt["x0"], n)
                ref = as_vector(pt["reference"], n)
                points.append((x0, ref))
            pairs.append(ProblemPair(pid, float(pd["cF"]), u1, u2, tuple(points)))
        seed = int(doc["seed"])
    except ProblemSetFormatError:
        raise
    except KeyError as exc:
        raise ProblemSetFormatError(f"missing field {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise ProblemSetFormatError(f"malformed problem-set file: {exc}") from exc
    return ProblemSet(version, seed, n, tuple(pairs))
