"""Theorem-checking algebra, which the solvers never import.

Isometries and their affine combinations, the reflection families S_1..S_4,
the Douglas-Rachford operator, fixed sets, rate bounds, the circumcenter
mapping of an operator set and Pierra's product-space lift.  Operators are
callables; ``op.as_matrix(n)`` gives the dense affine decomposition
``(M, b)`` with ``op(x) = M x + b`` used for fixed sets and norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .circumcenter import proper_circumcenter
from .linalg import (
    FEAS_TOL,
    RANK_TOL,
    AffineSubspace,
    LinearSubspace,
    as_affine,
    as_vector,
    intersect,
    intersect_all,
)

_ORTHOGONALITY_TOL = 1e-10


class IsometryOp:
    """Base class for distance-preserving affine maps on R^n."""

    def __call__(self, x) -> np.ndarray:
        raise NotImplementedError

    def as_matrix(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def known_dim(self) -> int | None:
        return None


def _first_known_dim(ops) -> int | None:
    """The first ambient dimension an operator knows; plain callables know none."""
    dims = (op.known_dim() for op in ops if hasattr(op, "known_dim"))
    return next((d for d in dims if d is not None), None)


@dataclass(frozen=True)
class Identity(IsometryOp):
    def __call__(self, x):
        return as_vector(x)

    def as_matrix(self, dim):
        return np.eye(dim), np.zeros(dim)


@dataclass(frozen=True)
class Reflector(IsometryOp):
    """Reflection through a closed affine subspace, 2 P_S - Id."""

    subspace: AffineSubspace

    def __post_init__(self):
        object.__setattr__(self, "subspace", as_affine(self.subspace))

    def __call__(self, x):
        return self.subspace.reflect(x)

    def as_matrix(self, dim):
        if dim != self.subspace.ambient_dim:
            raise ValueError("dimension mismatch")
        B = self.subspace.direction.basis
        M = 2.0 * (B.T @ B) - np.eye(dim)
        # canonical anchor is orthogonal to the direction, so offset = 2*anchor
        return M, 2.0 * self.subspace.anchor

    def known_dim(self):
        return self.subspace.ambient_dim


@dataclass(frozen=True)
class Translation(IsometryOp):
    offset: np.ndarray

    def __post_init__(self):
        a = as_vector(self.offset)
        a.setflags(write=False)
        object.__setattr__(self, "offset", a)

    def __call__(self, x):
        return as_vector(x, self.offset.shape[0]) + self.offset

    def as_matrix(self, dim):
        if dim != self.offset.shape[0]:
            raise ValueError("dimension mismatch")
        return np.eye(dim), self.offset.copy()

    def known_dim(self):
        return self.offset.shape[0]


@dataclass(frozen=True)
class OrthogonalLinear(IsometryOp):
    matrix: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.matrix, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("orthogonal map requires a square matrix")
        if np.max(np.abs(Q.T @ Q - np.eye(Q.shape[0]))) > _ORTHOGONALITY_TOL:
            raise ValueError("matrix is not orthogonal")
        Q.setflags(write=False)
        object.__setattr__(self, "matrix", Q)

    def __call__(self, x):
        return self.matrix @ as_vector(x, self.matrix.shape[0])

    def as_matrix(self, dim):
        if dim != self.matrix.shape[0]:
            raise ValueError("dimension mismatch")
        return self.matrix.copy(), np.zeros(dim)

    def known_dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Compose(IsometryOp):
    """Composition of isometries, applied right-to-left (last op first)."""

    ops: tuple[IsometryOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if not self.ops:
            raise ValueError("composition of zero operators; use Identity")

    def __call__(self, x):
        for op in reversed(self.ops):
            x = op(x)
        return x

    def as_matrix(self, dim):
        M, b = np.eye(dim), np.zeros(dim)
        for op in reversed(self.ops):
            Mi, bi = op.as_matrix(dim)
            M, b = Mi @ M, Mi @ b + bi
        return M, b

    def known_dim(self):
        return _first_known_dim(self.ops)


@dataclass(frozen=True)
class AffineCombo:
    """Affine combination sum_i c_i T_i with coefficients summing to one."""

    terms: tuple[tuple[float, object], ...]

    def __post_init__(self):
        terms = tuple((float(c), op) for c, op in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("affine combination needs at least one term")
        total = sum(c for c, _ in terms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"coefficients sum to {total}, not 1")

    def __call__(self, x):
        x = as_vector(x)
        out = np.zeros_like(x)
        for c, op in self.terms:
            out += c * op(x)
        return out

    def as_matrix(self, dim):
        M, b = np.zeros((dim, dim)), np.zeros(dim)
        for c, op in self.terms:
            Mi, bi = op.as_matrix(dim)
            M += c * Mi
            b += c * bi
        return M, b

    def known_dim(self):
        return _first_known_dim(op for _, op in self.terms)


@dataclass(frozen=True)
class OperatorSet:
    """Ordered finite set of isometries with a nonempty common fixed set.

    ``fixed`` carries the common fixed set when it is known by construction
    (reflection sets store the intersection of their subspaces here).
    """

    ops: tuple
    fixed: AffineSubspace | None = None

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if not self.ops:
            raise ValueError("operator set must be nonempty")

    def __len__(self):
        return len(self.ops)

    def points(self, x) -> np.ndarray:
        """Evaluate every operator at the vector ``x``, one result per row.

        ``x`` is checked once: finite, 1-D and of the set's ambient dimension
        when the fixed set or an operator knows it.
        """
        dim = self.fixed.ambient_dim if self.fixed is not None else _first_known_dim(self.ops)
        x = as_vector(x, dim)
        return np.array([op(x) for op in self.ops])


def apply(op, x) -> np.ndarray:
    """Evaluate an operator (IsometryOp or AffineCombo) at ``x``."""
    return op(as_vector(x))


def dr_operator(u, v) -> AffineCombo:
    """Douglas-Rachford splitting operator (Id + R_v R_u) / 2.

    Requires the two subspaces to intersect; agrees with the projector form
    P_v (2 P_u - Id) + Id - P_u.
    """
    U, V = as_affine(u), as_affine(v)
    if intersect(U, V) is None:
        raise ValueError("subspaces do not intersect")
    return AffineCombo(((0.5, Identity()), (0.5, Compose((Reflector(V), Reflector(U))))))


def fixed_subspace(op, dim: int | None = None):
    """Fixed-point set of an affine operator, or ``None`` when empty.

    Solves ``(M - I) x = -b`` for the affine decomposition of ``op``; an
    inconsistent system (e.g. a nonzero translation) has no fixed point.
    ``dim`` is needed only when it cannot be inferred (a pure ``Identity``).
    """
    if isinstance(op, Reflector):
        return op.subspace
    n = op.known_dim() or dim
    if n is None:
        raise ValueError("ambient dimension required for this operator")
    M, b = op.as_matrix(n)
    A = M - np.eye(n)
    x, *_ = np.linalg.lstsq(A, -b, rcond=None)
    if float(np.linalg.norm(A @ x + b)) > FEAS_TOL * (1.0 + np.linalg.norm(b)):
        return None
    null = scipy.linalg.null_space(A, rcond=RANK_TOL)
    return AffineSubspace(x, LinearSubspace(n, null.T))


def surrogate_ts(kind: str, subspaces) -> AffineCombo:
    """Averaged companion operators expressed over {Id, reflectors}.

    kind = "mean_proj":    (1/t) sum_i P_i
    kind = "half_id_proj": (1/t) sum_i (Id + P_i) / 2
    kind = "bcs_chain":    (1/t) sum_i T_i with T_1 = (Id + P_1)/2 and
                           T_i = (Id + P_i R_{i-1} ... R_1)/2 for i >= 2

    The expansion keeps every term an isometry, so membership of the result
    in the affine hull of the reflection set is visible from the
    coefficients alone.  Fix(result) equals the intersection of the inputs.
    """
    subs = [as_affine(s) for s in subspaces]
    if not subs:
        raise ValueError("at least one subspace required")
    t = len(subs)
    refl = [Reflector(s) for s in subs]
    if kind == "mean_proj":
        terms = [(0.5, Identity())] + [(0.5 / t, r) for r in refl]
    elif kind == "half_id_proj":
        terms = [(0.75, Identity())] + [(0.25 / t, r) for r in refl]
    elif kind == "bcs_chain":
        chains = [Compose(tuple(reversed(refl[: j + 1]))) for j in range(t)]
        if t == 1:
            terms = [(0.75, Identity()), (0.25, chains[0])]
        else:
            terms = [((0.75 + 0.5 * (t - 1)) / t, Identity())]
            terms += [(0.5 / t, chains[j]) for j in range(t - 1)]
            terms += [(0.25 / t, chains[t - 1])]
    else:
        raise ValueError(f"unknown surrogate kind {kind!r}")
    return AffineCombo(tuple(terms))


def rate_bound(op, fix: LinearSubspace) -> float:
    """Operator norm of ``op`` composed with the projector onto Fix^perp.

    ``op`` must be linear (zero offset); for an averaged linear operator
    with fixed set ``fix`` the result is the linear convergence rate and
    lies strictly below 1.
    """
    n = fix.ambient_dim
    M, b = op.as_matrix(n)
    if float(np.linalg.norm(b)) > FEAS_TOL:
        raise ValueError("operator must be linear (zero offset)")
    P_perp = np.eye(n) - fix.basis.T @ fix.basis
    return float(np.linalg.norm(M @ P_perp, 2))


def reflection_set(kind: str, subspaces) -> OperatorSet:
    """The reflection-generated operator families of the CRM solvers.

    For subspaces U_1 .. U_t:

    - ``s1``: {Id, R_1, ..., R_t}
    - ``s2``: {Id, R_1, R_2 R_1, ..., R_t ... R_1}
    - ``s3`` (pairs only): {Id, R_1, R_2, R_2 R_1}
    - ``s4`` (pairs only): {Id, R_1, R_2, R_2 R_1, R_1 R_2, R_1 R_2 R_1}

    Raises when the subspaces have empty intersection (the induced
    circumcenter mapping needs a common fixed point).
    """
    subs = [as_affine(s) for s in subspaces]
    if not subs:
        raise ValueError("at least one subspace required")
    fix = intersect_all(subs)
    if fix is None:
        raise ValueError("common fixed set is empty")
    R = [Reflector(s) for s in subs]

    def chain(indices):
        indices = list(indices)
        if len(indices) == 1:
            return R[indices[0]]
        return Compose(tuple(R[i] for i in reversed(indices)))

    if kind == "s1":
        ops = [Identity(), *R]
    elif kind == "s2":
        ops = [Identity()] + [chain(range(j + 1)) for j in range(len(R))]
    elif kind in ("s3", "s4"):
        if len(R) != 2:
            raise ValueError(f"operator family {kind!r} is defined for exactly two subspaces")
        r1, r2 = R
        ops = [Identity(), r1, r2, Compose((r2, r1))]
        if kind == "s4":
            ops += [Compose((r1, r2)), Compose((r1, r2, r1))]
    else:
        raise ValueError(f"unknown reflection family {kind!r}")
    return OperatorSet(tuple(ops), fixed=fix)


def circumcenter_map(S: OperatorSet, x) -> np.ndarray:
    """Apply the circumcenter mapping induced by the operator set S.

    For a set of isometries with a common fixed point the mapping is proper
    (always point-valued), so an empty circumcenter here signals a numerical
    failure and raises :class:`~circumsolve.circumcenter.CircumcenterError`
    with the residual attached.
    """
    return proper_circumcenter(S.points(x))


def circumcenter_via_fixpoint(S: OperatorSet, x, W: AffineSubspace) -> np.ndarray:
    """Circumcenter through a known subset W of the common fixed set.

    Computes P_W x and projects it onto the affine hull of S(x), as
    :meth:`AffineSubspace.from_points` builds it; agrees with
    :func:`circumcenter_map` whenever W really lies inside the common fixed
    set, which is verified here by sampling points of W.
    """
    x = as_vector(x, W.ambient_dim)
    samples = [W.anchor] + [W.anchor + b for b in W.direction.basis]
    for op in S.ops:
        for w in samples:
            if np.linalg.norm(op(w) - w) > FEAS_TOL * (1.0 + np.linalg.norm(w)):
                raise ValueError("W is not contained in the common fixed set")
    return AffineSubspace.from_points(S.points(x)).project(W.project(x))


def lift_to_product(subspaces) -> tuple[AffineSubspace, AffineSubspace]:
    """Product-space lift: C = U_1 x ... x U_t and the diagonal D in R^{tn}.

    C's basis is block diagonal in the blocks' own bases; D is spanned by the
    normalized all-blocks-equal coordinate directions.
    """
    subs = [as_affine(s) for s in subspaces]
    n = subs[0].ambient_dim
    t = len(subs)
    if any(s.ambient_dim != n for s in subs):
        raise ValueError("subspaces live in different ambient dimensions")
    rows = []
    for i, s in enumerate(subs):
        for b in s.direction.basis:
            row = np.zeros(t * n)
            row[i * n : (i + 1) * n] = b
            rows.append(row)
    C_dir = LinearSubspace(t * n, np.array(rows).reshape(len(rows), t * n))
    C = AffineSubspace(np.concatenate([s.anchor for s in subs]), C_dir)
    diag_rows = np.zeros((n, t * n))
    for j in range(n):
        diag_rows[j, j::n] = 1.0 / np.sqrt(t)
    D = AffineSubspace(np.zeros(t * n), LinearSubspace(t * n, diag_rows))
    return C, D


def parallelize(subspaces, z) -> list[LinearSubspace]:
    """Directions par U_i of affine subspaces sharing the common point z.

    Running a circumcentered reflection method on the returned linear
    subspaces from ``x - z`` and adding ``z`` back reproduces the affine run
    from ``x`` exactly.
    """
    subs = [as_affine(s) for s in subspaces]
    z = as_vector(z, subs[0].ambient_dim)
    for i, s in enumerate(subs):
        if np.linalg.norm(s.project(z) - z) > FEAS_TOL * (1.0 + np.linalg.norm(z)):
            raise ValueError(f"z is not on subspace {i}")
    return [s.direction for s in subs]
