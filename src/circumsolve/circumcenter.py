"""Circumcenters of finite point sets.

The circumcenter of a finite set K, when it exists, is the unique point of
the affine hull of K equidistant from every point of K.  Two independent
computations are provided: :func:`circumcenter_points` (Gram-system route,
which the solvers reach through :func:`proper_circumcenter`) and
:func:`circumcenter_oracle` (least-squares solve of the equidistance
conditions, used for verification).  They share no numerical code path.
The circumcenter mapping of an operator set is in :mod:`circumsolve.theory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_TOL, _trtrs, as_points, noise_floor, points_floor, rank_revealing_qr, row_squares

CC_TOL = 1e-8


class CircumcenterError(RuntimeError):
    """Raised when a circumcenter that must exist cannot be computed."""


@dataclass(frozen=True)
class CircumcenterResult:
    """Outcome of a circumcenter computation.

    ``value`` is ``None`` when no equidistant point exists in the affine
    hull (the set is affinely degenerate with inconsistent distances).
    ``radius`` is the mean distance from the candidate to the points and
    ``residual`` the largest deviation from that mean; acceptance requires
    ``residual <= CC_TOL * (1 + radius)``.
    """

    value: np.ndarray | None
    radius: float
    residual: float

    @property
    def exists(self) -> bool:
        return self.value is not None


def _misfit(candidate: np.ndarray, P: np.ndarray) -> tuple[float, float]:
    """The mean distance from ``candidate`` to the rows of ``P`` and the largest deviation from it."""
    # the distances of np.linalg.norm(P - candidate, axis=1), scaled when
    # their squares overflow; the mean and the largest deviation are taken
    # on the few row values in Python
    sq, scale = row_squares(P - candidate)
    dists = [math.sqrt(s) * scale for s in sq]
    radius = sum(dists) / len(dists)
    return radius, max(max(dists) - radius, radius - min(dists))


def _fits(radius: float, residual: float) -> bool:
    # a distance that overflowed or is NaN poisons the radius, which must be
    # finite; a NaN residual fails the comparison
    return math.isfinite(radius) and residual <= CC_TOL * (1.0 + radius)


def _accept(candidate: np.ndarray, P: np.ndarray) -> CircumcenterResult:
    radius, residual = _misfit(candidate, P)
    return CircumcenterResult(candidate if _fits(radius, residual) else None, radius, residual)


_TINY = float(np.finfo(float).tiny)


# A triangle is solved in closed form only when its Gram determinant exceeds
# TRIANGLE_MARGIN * max(|d_1|^2, |d_2|^2)^2, which needs sin^2 of its angle
# at p_1 above 1e-6.  Cramer's rule errs by about eps / sin^2 and the solve
# on R by about eps / sin, so flatter triangles take the QR path.
TRIANGLE_MARGIN = 1e-6


def _candidate(P: np.ndarray) -> np.ndarray:
    """The Gram-system candidate centre of the rows of a checked, finite ``P``.

    One point is its own centre, two give their midpoint, a clearly non-flat
    triangle (see ``TRIANGLE_MARGIN``) Cramer's rule; everything else is
    solved on the R factor of the rank-revealing QR.  Every candidate then
    takes the same equidistance test.
    """
    p0 = P[0]
    D = P[1:] - p0
    m = D.shape[0]
    if m == 0:
        return p0.copy()
    if m == 1:
        return p0 + 0.5 * D[0]
    if m == 2:
        # D @ D.T, the same BLAS call with less dispatch
        (g11, g12), (_, g22) = D.dot(D.T).tolist()
        big = max(g11, g22)
        det = g11 * g22 - g12 * g12
        limit = TRIANGLE_MARGIN * (big * big)
        # |p_i| <= |p_0| + |d_i|, so this bounds the noise floor of the QR
        # path from above with one dot product
        floor = noise_floor(P.shape[1], 1.0) * (math.sqrt(p0.dot(p0)) + math.sqrt(big))
        # R_22 = sqrt(det / big) must clear twice the floor.  A limit below
        # the normal range (differences of 1e-74 or less), an infinite one
        # (differences of 1e77 or more), NaN entries and big = 0 all fail
        # these comparisons and fall through to the QR path
        if limit >= _TINY and det > limit and det > 4.0 * floor * floor * big:
            a1 = 0.5 * g22 * (g11 - g12) / det
            a2 = 0.5 * g11 * (g22 - g12) / det
            # p0 + a1 * D[0] + a2 * D[1] in place, with the same roundings
            c = D[0] * a1
            c += p0
            D[1] *= a2
            c += D[1]
            return c

    # differences below the rounding noise of the points themselves are
    # treated as zero, otherwise a noise row can poison the Gram system
    qr, jpvt, _, k = rank_revealing_qr(D, points_floor(P))
    if k == 0:
        return p0.copy()
    # G = Dc Dc^T = R^T R on the kept k x k block of the factor, so two
    # triangular solves give the coefficients.  Dividing both by
    # s = |R_11| keeps every square in range; the right-hand side is
    # |d_j|^2 / s^2, so beta = 2 alpha and the candidate undoes 1/2 and s
    s = abs(float(qr[0, 0]))
    Dc = D.take(jpvt[:k] - 1, axis=0) / s
    R = qr[:k, :k] / s
    y, _ = _trtrs(R, np.einsum("ij,ij->i", Dc, Dc), trans=1)
    beta, _ = _trtrs(R, y)
    return p0 + (beta @ Dc) * (0.5 * s)


def circumcenter_points(points) -> CircumcenterResult:
    """Circumcenter of a finite point set via the Gram-matrix formula.

    The differences ``d_j = p_j - p_1`` take the rank rule of
    :meth:`AffineSubspace.from_points`, :func:`linalg.rank_revealing_qr`
    with the points' noise floor.  The Gram system
    ``G alpha = (1/2) [ ||d_j||^2 ]`` of the kept pivots is solved as
    ``R^T R alpha`` on the factor, scaled by ``|R_11|``, and the candidate
    is ``p_1 + sum_j alpha_j d_j``.  Two
    points give their midpoint and a clearly non-flat triangle Cramer's
    rule, with no factorisation.  A candidate that is not equidistant from
    all the points, a non-finite distance included, gives an empty result.
    Points whose squares overflow are rescaled where that matters, so
    numpy's overflow warnings are not raised.
    """
    P = as_points(points)
    with np.errstate(over="ignore"):
        return _accept(_candidate(P), P)


def circumcenter_oracle(points) -> CircumcenterResult:
    """Independent circumcenter computation from the equidistance conditions.

    Parameterizes the candidate as ``p_1 + B^T c`` over an SVD-derived
    orthonormal basis B of span{p_i - p_1}, cut at the relative ``RANK_TOL``
    of the Gram route, and solves the full system
    ``||p - p_i||^2 = ||p - p_1||^2`` (one equation per point) by least
    squares.  Deliberately shares no code with :func:`circumcenter_points`.
    On a near-flat set the candidate can leave the hull by about
    eps * sigma_1 / sigma_k (the extreme kept singular values of the d_j): on
    [[0, 2.202635371344358, 0], [0, -0.65625, 1e-9], [0, 0, 0]] its x is 838
    at radius 9.4e8, 8.9e-7 off x = 0 relative; the Gram route keeps x = 0.
    """
    P = as_points(points)
    p0 = P[0]
    D = P[1:] - p0
    if D.shape[0] == 0:
        return CircumcenterResult(p0.copy(), 0.0, 0.0)
    import scipy.linalg

    B = scipy.linalg.orth(D.T, rcond=RANK_TOL).T
    if B.shape[0] == 0:
        candidate = p0.copy()
    else:
        A = D @ B.T
        rhs = 0.5 * np.einsum("ij,ij->i", D, D)
        c, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        candidate = p0 + c @ B
    return _accept(candidate, P)


def proper_circumcenter(P: np.ndarray) -> np.ndarray:
    """The circumcenter of the rows of ``P``, which must exist.

    ``P`` is not checked: it is the image of a checked vector under an
    operator set, as in the solvers' steps and
    :func:`circumsolve.theory.circumcenter_map`.  Raises
    :class:`CircumcenterError` when no equidistant point is found.
    """
    candidate = _candidate(P)
    radius, residual = _misfit(candidate, P)
    if _fits(radius, residual):
        return candidate
    raise CircumcenterError(
        "properness violated numerically: no equidistant point found "
        f"(residual {residual:.3e}, radius {radius:.3e}); "
        "the operator set may not consist of isometries"
    )
