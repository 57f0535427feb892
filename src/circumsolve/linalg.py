"""Dense real vectors and linear/affine subspaces of R^n.

Subspaces are stored as orthonormal bases (one basis vector per row).
Every type is immutable after construction and every operation is pure,
so values may be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

# Rank decisions are made relative to the largest vector norm involved.
RANK_TOL = 1e-10

# Feasibility / consistency decisions (e.g. "is this point on the subspace").
FEAS_TOL = 1e-9

_ORTHONORMALITY_TOL = 1e-12

_EPS = float(np.finfo(float).eps)
_geqp3, _orgqr = scipy.linalg.get_lapack_funcs(("geqp3", "orgqr"), dtype=np.float64)


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


def as_points(points) -> np.ndarray:
    """Coerce ``points`` (one finite point a row; one 1-D point) to a 2-D array."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.ndim != 2:
        raise ValueError(f"expected one point a row, got shape {P.shape}")
    if P.shape[0] == 0 or P.shape[1] == 0:
        raise ValueError("point set must be nonempty")
    if not np.all(np.isfinite(P)):
        raise ValueError("point entries must be finite")
    return P


def noise_floor(n: int, sq_norm: float) -> float:
    """Rounding noise of a difference of points of R^n with |p|^2 <= sq_norm.

    Points produced by chains of reflections carry about n * eps * |p| of
    rounding, so differences below this floor are treated as zero.
    """
    return 64.0 * n * _EPS * math.sqrt(sq_norm)


def points_floor(P: np.ndarray) -> float:
    """The :func:`noise_floor` of the rows of a checked, finite ``P``.

    It is taken from the largest squared row norm.  When that sum overflows
    (entries of about 1e154 and up; numpy warns of the overflow) it is taken
    from the rows divided by their largest entry and scaled back, so the
    floor stays finite and drops no difference that is not noise.
    """
    n = P.shape[1]
    sq = (P * P).sum(axis=1).max()
    if math.isfinite(sq):
        return noise_floor(n, sq)
    scale = float(np.abs(P).max())
    Q = P / scale
    return noise_floor(n, (Q * Q).sum(axis=1).max()) * scale


def rank_revealing_qr(D: np.ndarray, floor: float):
    """The one rank rule: ``geqp3``'s factor, 1-based pivots and tau, and the rank.

    LAPACK ``geqp3`` (Businger & Golub 1965) factors D^T P = Q R, pivot k the
    row of ``D`` (at least one) with the largest residual |R_kk| once the
    previous pivots are projected out.  The rank counts the leading pivots
    with |R_kk| > max(RANK_TOL * |R_11|, floor): ``floor`` is 0 for vectors,
    the :func:`noise_floor` of the points for their differences.
    """
    qr, jpvt, tau, _, _ = _geqp3(D.T)
    residuals = np.abs(qr.diagonal()).tolist()
    threshold = max(RANK_TOL * residuals[0], floor)
    k = next((i for i, r in enumerate(residuals) if not r > threshold), len(residuals))
    return qr, jpvt, tau, k


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
        B = np.ascontiguousarray(self.basis, dtype=float)
        if B.shape == (0,):  # an empty list, as a zero subspace is saved
            B = B.reshape(0, self.ambient_dim)
        if B.ndim != 2 or B.shape[1] != self.ambient_dim:
            raise ValueError(f"basis must be k x {self.ambient_dim}, got shape {B.shape}")
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

    The rank is :func:`rank_revealing_qr`'s with floor 0, and the basis its
    Q (LAPACK ``orgqr``).  ``dim`` is required when ``vectors`` is empty
    (the zero subspace carries no dimension information).
    """
    rows = [as_vector(v) for v in vectors]
    if not rows and dim is None:
        raise ValueError("ambient dimension required for empty input")
    if len({v.shape[0] for v in rows}) > 1:
        raise ValueError("input vectors do not share a dimension")
    return _row_span(np.array(rows) if rows else np.zeros((0, dim)), 0.0)


def _row_span(D: np.ndarray, floor: float) -> LinearSubspace:
    # the first k columns of Q, each with the sign of its R_kk, so row j is
    # pivot j's direction once the previous pivots are projected out
    n = D.shape[1]
    if D.shape[0] == 0:
        return LinearSubspace.zero(n)
    qr, _, tau, k = rank_revealing_qr(D, floor)
    if k == 0:
        return LinearSubspace.zero(n)
    Q, _, _ = _orgqr(qr[:, :k], tau[:k])
    return LinearSubspace(n, Q.T * np.sign(qr.diagonal()[:k, None]))


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
        """Affine hull of a nonempty collection of points.

        The circumcenter's rank rule: :func:`rank_revealing_qr` of p_j - p_1
        with the points' :func:`points_floor`, so rounding spans no direction.
        """
        P = as_points(points)
        with np.errstate(over="ignore"):
            floor = points_floor(P)
        return cls(P[0], _row_span(P[1:] - P[0], floor))

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    # ``_project`` and ``_reflect`` are the arithmetic of ``project`` and
    # ``reflect`` for a vector already checked to lie in R^n; the solvers'
    # steps and the operator-set chains apply them to their iterates.  They
    # inline LinearSubspace._project, whose zero subspace gives the zeros that
    # B^T (B x) gives for an empty B; with a zero anchor, x - anchor and
    # anchor + y are x and y up to the sign of a zero
    def _project(self, x: np.ndarray) -> np.ndarray:
        B = self.direction.basis
        if self.through_origin:
            return B.T @ (B @ x)
        a = self.anchor
        return a + B.T @ (B @ (x - a))

    def _reflect(self, x: np.ndarray) -> np.ndarray:
        # 2 P x - x, doubled and subtracted in place on the fresh P x
        y = self._project(x)
        y *= 2.0
        y -= x
        return y

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
