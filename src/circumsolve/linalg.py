"""Dense real vectors and linear/affine subspaces of R^n.

Subspaces are stored as orthonormal bases (one basis vector per row).
Every type is immutable after construction and every operation is pure,
so values may be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

# Rank decisions are made relative to the largest vector norm involved.
RANK_TOL = 1e-10

# Feasibility / consistency decisions (e.g. "is this point on the subspace").
FEAS_TOL = 1e-9

_ORTHONORMALITY_TOL = 1e-12

# Below this norm a vector's squared entries fall under the smallest normal
# float, so np.linalg.norm (the root of their sum) loses relative accuracy.
_TINY_NORM = float(np.sqrt(np.finfo(float).tiny))


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a 1-D float array with finite entries.

    ``dim``, when given, is enforced; a mismatch raises ``ValueError``.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("vectors must have positive dimension")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


@dataclass(frozen=True)
class LinearSubspace:
    """A linear subspace of R^n spanned by orthonormal basis rows.

    ``basis`` has shape ``(k, ambient_dim)`` with ``0 <= k <= ambient_dim``;
    ``k = 0`` is the zero subspace.  Use :func:`orthonormal_basis` (or the
    ``span`` classmethod) to build one from arbitrary spanning vectors.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        # stored C-contiguous, so a basis projects through the same BLAS kernel
        # on its own and as one slice of the solvers' stacked bases
        B = np.ascontiguousarray(self.basis, dtype=float).reshape(-1, self.ambient_dim)
        if B.shape[0] > self.ambient_dim:
            raise ValueError("more basis vectors than ambient dimensions")
        if not np.all(np.isfinite(B)):
            raise ValueError("basis entries must be finite")
        if B.shape[0]:
            gram = B @ B.T
            if np.max(np.abs(gram - np.eye(B.shape[0]))) > _ORTHONORMALITY_TOL:
                raise ValueError("basis rows are not orthonormal")
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)

    @classmethod
    def span(cls, vectors, *, dim: int | None = None):
        return orthonormal_basis(vectors, dim=dim)

    @classmethod
    def zero(cls, n: int):
        return cls(n, np.zeros((0, n)))

    @classmethod
    def full(cls, n: int):
        return cls(n, np.eye(n))

    @property
    def dim(self) -> int:
        """Dimension of the subspace itself (number of basis vectors)."""
        return self.basis.shape[0]

    def _project(self, x: np.ndarray) -> np.ndarray:
        # the projection of a vector already checked to lie in R^n
        if self.dim == 0:
            return np.zeros(self.ambient_dim)
        return self.basis.T @ (self.basis @ x)

    def project(self, x) -> np.ndarray:
        return self._project(as_vector(x, self.ambient_dim))

    def reflect(self, x) -> np.ndarray:
        x = as_vector(x, self.ambient_dim)
        return 2.0 * self._project(x) - x

    def contains(self, x) -> bool:
        x = as_vector(x, self.ambient_dim)
        return float(np.linalg.norm(x - self._project(x))) <= FEAS_TOL * (1.0 + np.linalg.norm(x))

    def same_span(self, other: "LinearSubspace") -> bool:
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        resid = self.basis - (self.basis @ other.basis.T) @ other.basis
        return float(np.abs(resid).max(initial=0.0)) <= FEAS_TOL

    def as_affine(self) -> "AffineSubspace":
        return AffineSubspace(np.zeros(self.ambient_dim), self)


def orthonormal_basis(vectors, *, dim: int | None = None) -> LinearSubspace:
    """Orthonormalize ``vectors`` into a :class:`LinearSubspace`.

    Modified Gram-Schmidt with one re-orthogonalization pass; a vector whose
    residual norm is at most ``RANK_TOL`` times the largest input norm is
    treated as dependent and dropped.  ``dim`` is required when ``vectors``
    is empty (the zero subspace carries no dimension information).
    """
    rows = [as_vector(v) for v in list(vectors)]
    if rows:
        n = rows[0].shape[0]
        for v in rows[1:]:
            if v.shape[0] != n:
                raise ValueError("input vectors do not share a dimension")
    else:
        if dim is None:
            raise ValueError("ambient dimension required for empty input")
        n = dim

    scale = max((float(np.linalg.norm(v)) for v in rows), default=0.0)
    basis: list[np.ndarray] = []
    for v in rows:
        w = v.copy()
        for _ in range(2):
            for e in basis:
                w -= (e @ w) * e
        norm_w = float(np.linalg.norm(w))
        if norm_w > RANK_TOL * scale and norm_w > 0.0:
            e = w / norm_w
            if norm_w < _TINY_NORM:  # the norm underflowed; normalise again
                e = e / np.linalg.norm(e)
            basis.append(e)
    B = np.array(basis, dtype=float).reshape(len(basis), n)
    return LinearSubspace(n, B)


@dataclass(frozen=True)
class AffineSubspace:
    """An affine subspace ``anchor + direction`` of R^n.

    The anchor is canonicalized to the minimum-norm point of the set, so two
    representations of the same set compare equal entrywise.  When that
    anchor is exactly zero the set is linear, and ``through_origin`` is true.
    """

    anchor: np.ndarray
    direction: LinearSubspace
    through_origin: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = as_vector(self.anchor, self.direction.ambient_dim)
        correction = self.direction.project(a)
        # skip the subtraction for an already-canonical anchor so that
        # construction from serialized data is bit-exact
        if np.linalg.norm(correction) > 1e-14 * (1.0 + np.linalg.norm(a)):
            a = a - correction
        else:
            a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "through_origin", not a.any())

    @classmethod
    def from_points(cls, points):
        """Affine hull of a nonempty collection of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            raise ValueError("at least one point required")
        direction = orthonormal_basis(pts[1:] - pts[0], dim=pts.shape[1])
        return cls(pts[0], direction)

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    # ``_project`` and ``_reflect`` are the arithmetic of ``project`` and
    # ``reflect`` for a vector already checked to lie in R^n; the solvers'
    # steps and the operator-set chains apply them to their iterates; with a
    # zero anchor, x - anchor and anchor + y are x and y up to the sign of a zero
    def _project(self, x: np.ndarray) -> np.ndarray:
        if self.through_origin:
            return self.direction._project(x)
        return self.anchor + self.direction._project(x - self.anchor)

    def _reflect(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self._project(x) - x

    def project(self, x) -> np.ndarray:
        return self._project(as_vector(x, self.ambient_dim))

    def reflect(self, x) -> np.ndarray:
        return self._reflect(as_vector(x, self.ambient_dim))

    def contains(self, x) -> bool:
        x = as_vector(x, self.ambient_dim)
        return float(np.linalg.norm(x - self._project(x))) <= FEAS_TOL * (1.0 + np.linalg.norm(x))

    def same_set(self, other: "AffineSubspace") -> bool:
        return (
            self.direction.same_span(other.direction)
            and float(np.linalg.norm(self.anchor - other.anchor)) <= FEAS_TOL * (1.0 + np.linalg.norm(self.anchor))
        )


def as_affine(s) -> AffineSubspace:
    """Coerce a ``LinearSubspace`` or ``AffineSubspace`` to affine form."""
    if isinstance(s, AffineSubspace):
        return s
    if isinstance(s, LinearSubspace):
        return s.as_affine()
    raise TypeError(f"expected a subspace, got {type(s).__name__}")


def orthogonal_complement(L: LinearSubspace) -> LinearSubspace:
    """The orthogonal complement, with dim(L) + dim(L^perp) = n."""
    n = L.ambient_dim
    if L.dim == 0:
        return LinearSubspace.full(n)
    if L.dim == n:
        return LinearSubspace.zero(n)
    C = scipy.linalg.null_space(L.basis)
    return LinearSubspace(n, C.T)


# A principal angle theta counts as zero when sin(theta) <= ANGLE_SINE_TOL.
# This matches the rank decision null_space(M, rcond=RANK_TOL) on the stacked
# complement system M = [A^perp; B^perp]: the angle contributes the singular
# value sqrt(1 - cos theta) = sqrt(2) sin(theta/2) to M, whose largest singular
# value is sqrt(2) whenever A + B != R^n, so the direction is kept iff
# sin(theta/2) <= RANK_TOL, i.e. sin(theta) ~ 2 sin(theta/2) <= 2 RANK_TOL.
ANGLE_SINE_TOL = 2.0 * RANK_TOL


def intersect(a, b):
    """Intersection of two affine (or linear) subspaces.

    Returns an :class:`AffineSubspace`, or ``None`` when the sets are
    disjoint (e.g. parallel lines).  Works in the coordinates of the smaller
    basis BA (p x n): the singular values of R = BA (I - P_B) are the sines of
    the principal angles between the two directions (Bjorck & Golub 1973), the
    left singular vectors with zero sine give the common directions, and the
    anchor solves R^T c = (I - P_B)(a_B - a_A) on the nonzero sines.  No n x n
    factorisation is made, and the sines stay accurate at small angles.
    """
    A, B = as_affine(a), as_affine(b)
    if A.ambient_dim != B.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    if A.direction.dim > B.direction.dim:
        A, B = B, A
    n = A.ambient_dim
    BA, BB = A.direction.basis, B.direction.basis
    R = BA - (BA @ BB.T) @ BB
    gap = B.anchor - A.anchor
    gap = gap - BB.T @ (BB @ gap)
    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    keep = s > ANGLE_SINE_TOL
    c = U[:, keep] @ ((Vt[keep] @ gap) / s[keep])
    x = A.anchor + BA.T @ c
    scale = 1.0 + max(np.linalg.norm(A.anchor), np.linalg.norm(B.anchor))
    if float(np.linalg.norm(R.T @ c - gap)) > FEAS_TOL * scale:
        return None
    return AffineSubspace(x, LinearSubspace(n, U[:, ~keep].T @ BA))


def intersect_all(subspaces):
    """Fold :func:`intersect` over a nonempty list; ``None`` if empty overall."""
    subs = [as_affine(s) for s in subspaces]
    if not subs:
        raise ValueError("at least one subspace required")
    acc = subs[0]
    for s in subs[1:]:
        acc = intersect(acc, s)
        if acc is None:
            return None
    return acc


def friedrichs_cosine(U: LinearSubspace, V: LinearSubspace) -> float:
    """Cosine of the Friedrichs angle between two linear subspaces.

    The largest cosine of the principal angles that are not zero.  With BA
    the smaller basis, as in :func:`intersect`, R = BA (I - P_B) has the
    sines and BA BB^T the cosines; the value is the (r+1)-th cosine, r the
    number of sines at most ``ANGLE_SINE_TOL``, or 0 by convention when
    every angle is zero (nested subspaces) or a subspace is {0}.
    """
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    if U.dim > V.dim:
        U, V = V, U
    BA, BB = U.basis, V.basis
    C = BA @ BB.T
    # the SVD call of intersect on the same R, so r is its dimension bit for bit
    _, sines, _ = np.linalg.svd(BA - C @ BB, full_matrices=False)
    r = int(np.count_nonzero(sines <= ANGLE_SINE_TOL))
    if r == U.dim:
        return 0.0
    cosines = np.linalg.svd(C, compute_uv=False)
    return float(np.clip(cosines[r], 0.0, 1.0))
