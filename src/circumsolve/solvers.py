"""Fixed-point iteration driver and the solver family.

Solvers are triples ``(init, step, monitor)``: ``init`` maps the user's
starting point into the solver's internal state space, ``step`` advances the
state by one iteration, and ``monitor`` maps the state to the point in the
original space that is compared against the reference solution.  For most
solvers the monitor is the identity; the Douglas-Rachford method iterates
its governed sequence and monitors its projection onto the first subspace,
and the product-space method iterates in the t-fold product and monitors the
first block.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .circumcenter import proper_circumcenter
from .linalg import as_affine, as_vector, bind_lapack, intersect_all, noise_floor, row_squares

SOLVER_KINDS = (
    "crm_s1",
    "crm_s2",
    "crm_s3",
    "crm_s4",
    "drm",
    "map",
    "avg_proj",
    "product_crm",
)

# CLI / CSV spelling of each solver kind.
SOLVER_KEYS = {kind.replace("_", "-"): kind for kind in SOLVER_KINDS}


class DivergenceError(RuntimeError):
    """An iterate left the finite floats; carries the last finite iterate.

    ``last_iterate`` is ``None`` only when the starting point itself is not
    finite.
    """

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class IterationConfig:
    tol: float = 1e-6
    max_iter: int = 10**6
    record_trace: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class Trace:
    """Error history of one solver run.

    ``errors[k]`` is the distance of the k-th monitored iterate to the
    reference; the list always has ``iterations + 1`` entries.  ``iterates``
    holds the raw (governed) states when tracing was requested.
    """

    errors: np.ndarray
    iterations: int
    solved: bool
    wall_time: float
    iterates: list | None = None


@dataclass(frozen=True)
class SolverSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}")

    @classmethod
    def from_key(cls, key: str) -> "SolverSpec":
        """Build a spec from the CLI/CSV solver key (e.g. ``crm-s3``)."""
        return cls(SOLVER_KEYS.get(key, key))

    @property
    def key(self) -> str:
        return self.kind.replace("_", "-")


class Solver(NamedTuple):
    init: Callable
    step: Callable
    monitor: Callable


def _identity(x):
    return x


def iterate(step, x0, cfg: IterationConfig, reference, monitor=None) -> Trace:
    """Run ``x_{k+1} = step(x_k)`` until the monitored error reaches tol.

    Stops at the smallest k with ``||monitor(x_k) - reference|| <= cfg.tol``
    (k = 0 included), or flags the run unsolved once ``cfg.max_iter``
    iterations have been taken.  A non-finite iterate raises
    :class:`DivergenceError` with the last finite iterate attached.  The
    iterates are vectors; the driver checks only that they are finite, as
    ``Solver.init`` has checked the starting point.  A reference whose shape
    is not that of ``x0`` (of ``monitor(x0)`` under a monitor) raises
    ``ValueError`` rather than broadcasting.
    """
    x = np.asarray(x0, dtype=float)
    reference = np.asarray(reference, dtype=float)
    # with no monitor, or the solvers' identity one, the error is x's own
    plain = monitor is None or monitor is _identity
    shape = x.shape if plain else np.shape(monitor(x))
    if reference.shape != shape:
        raise ValueError(f"reference has shape {reference.shape}, the monitored iterate {shape}")
    errors: list[float] = []
    iterates: list[np.ndarray] | None = [] if cfg.record_trace else None
    last_finite = None
    k = 0
    start = time.perf_counter()
    while True:
        err = math.inf
        if plain:
            gap = x - reference
            err = math.sqrt(gap.dot(gap))  # np.linalg.norm(gap), without its argument handling
        # a finite plain error proves x finite, and so does a finite sum of
        # squares; one that is not may have only overflowed, so the entries decide
        if not err < math.inf and not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
            raise DivergenceError(f"iterate {k} is not finite", last_finite)
        last_finite = x
        if iterates is not None:
            iterates.append(x)
        if not plain:
            gap = monitor(x) - reference
            err = math.sqrt(gap.dot(gap))
        errors.append(err)
        if err <= cfg.tol:
            solved = True
            break
        if k >= cfg.max_iter:
            solved = False
            break
        x = step(x)
        k += 1
    wall = time.perf_counter() - start
    return Trace(np.array(errors), k, solved, wall, iterates)


def _project_rows(subs):
    """The projections onto all t subspaces at once, as one function.

    It maps a point x to the t x n array of P_i x, and a t x n array X to
    the array of P_i X[i].  The bases are stacked into a t x k x n array,
    padded with zero rows to the largest dimension k, and the anchors into
    a t x n array, so a call is two batched matrix products: the arithmetic
    of ``AffineSubspace._project``, a_i + B_i^T (B_i (x - a_i)), with the
    anchor steps skipped when every anchor is zero.  Each slice runs the
    BLAS kernel of ``_project``, so when the t bases share a dimension every
    row has its bits; a padded slice sums its zero rows too and may round
    differently.
    """
    t, n = len(subs), subs[0].ambient_dim
    k = max(s.direction.dim for s in subs)
    Bs = np.zeros((t, k, n))
    for B, s in zip(Bs, subs):
        B[: s.direction.dim] = s.direction.basis
    if all(s.through_origin for s in subs):
        def project(x):
            Y = Bs @ x[..., None]
            return (Y.transpose(0, 2, 1) @ Bs)[:, 0]

        return project

    A = np.array([s.anchor for s in subs])

    def project(x):
        Y = Bs @ (x - A)[..., None]
        return A + (Y.transpose(0, 2, 1) @ Bs)[:, 0]

    return project


def make_solver(spec: SolverSpec, subspaces) -> Solver:
    """Instantiate a solver for the given affine subspaces.

    Two subspaces are required for drm/map/crm-s3/crm-s4; crm-s1, crm-s2,
    avg-proj and product-crm accept two or more.  A CRM step takes the
    circumcenter of the rows of :func:`~circumsolve.theory.reflection_set`
    at x, made from the subspaces' reflections: t for s1 and s2, 3 for s3
    and 5 for s4.  The s2 step is the chain x, R_1 x, R_2 R_1 x, ...  An s3
    step's output lies in U_2 and an s4 step's in U_1, as these sets are
    closed under R_2 and R_1, and there the set reduces to the C-DRM chain
    on (U_1, U_2) (s3) or (U_2, U_1) (s4), which they take from s2's code:
    for their last output, kept read-only, with 2 reflections, and with 3
    for any other x with R_2 x = x (s3) or R_1 x = x (s4) within the
    circumcenter noise floor of the two points: the full set's rank filter
    drops the rows the chain leaves out.  Other points take the full set, so a
    projected start or a reused solver behaves as a fresh one.
    ``product-crm`` is the two-set CRM {Id, R_C R_D} on Pierra's lift
    (:func:`~circumsolve.theory.lift_to_product`).  The circumcenter of two
    points is their midpoint, so its step is the Douglas-Rachford step
    (v + R_C R_D v) / 2 = v - P_D v + P_C R_D v, taken in closed form with
    no circumcenter solve: P_D averages the t blocks and P_C projects block
    i onto the i-th subspace.  crm-s1, avg-proj and product-crm take the t
    projections of a step from one batched product (:func:`_project_rows`).

    drm and the CRM kinds need the subspaces to share a point: one
    :func:`intersect_all` check raises ``ValueError("common fixed set is
    empty")`` when they do not.  It folds each live tuple once:
    :func:`intersect_all` keeps the fold, or its ``None``, keyed by the
    subspaces' identity until the first of them dies, so every solver and
    start built on the same objects shares it, and a tuple with no common
    point raises on every call.  When every anchor is exactly zero the
    origin is such a point, so the check is skipped.
    """
    subs = [as_affine(s) for s in subspaces]
    t = len(subs)
    if spec.kind in ("drm", "map", "crm_s3", "crm_s4") and t != 2:
        raise ValueError(f"solver {spec.kind!r} requires exactly two subspaces")
    if t < 2:
        raise ValueError("at least two subspaces required")
    n = subs[0].ambient_dim
    if any(s.ambient_dim != n for s in subs):
        raise ValueError("subspaces live in different ambient dimensions")

    # input is checked here, once: init checks the starting point and the
    # steps and monitors below work on the iterates without re-checking them
    U1 = subs[0]
    init = lambda x0: as_vector(x0, n)

    if spec.kind == "map":
        p1, p2 = U1._project, subs[1]._project

        def step(x):
            return p2(p1(x))

        return Solver(init, step, _identity)

    if spec.kind == "avg_proj":
        project = _project_rows(subs)

        def step(x):
            # the sum over axis 0 adds the rows in order, as a loop would
            return project(x).sum(axis=0) / t

        return Solver(init, step, _identity)

    if not all(s.through_origin for s in subs) and intersect_all(subs) is None:
        raise ValueError("common fixed set is empty")
    reflect = [s._reflect for s in subs]

    if spec.kind == "drm":
        # the arithmetic of dr_operator's AffineCombo, which accumulates
        # 0.5 Id + 0.5 R_2 R_1 from zeros
        r1, r2 = reflect

        def step(x):
            return 0.5 * x + 0.5 * r2(r1(x))

        return Solver(init, step, U1._project)

    if spec.kind == "product_crm":
        project = _project_rows(subs)

        def step(v):
            # (v + R_C R_D v) / 2 block by block: with m = P_D v, the blocks'
            # mean, block i is v_i - m + P_i(2m - v_i)
            blocks = v.reshape(t, n)
            m = blocks.sum(axis=0) / t
            out = project(2.0 * m - blocks)
            out -= m
            out += blocks
            return out.ravel()

        return Solver(lambda x: np.tile(init(x), t), step, lambda v: v[:n])

    # a step on three or more points can take the circumcenter's QR route;
    # its routines are bound here, so no timed step imports scipy.linalg
    bind_lapack()

    if spec.kind == "crm_s1":
        project = _project_rows(subs)

        def step(x):
            # rows x and R_i x = 2 P_i x - x, the reflections made in place
            P = np.empty((t + 1, n))
            P[0] = x
            R = P[1:]
            np.multiply(project(x), 2.0, out=R)
            R -= x
            return proper_circumcenter(P)

        return Solver(init, step, _identity)

    if spec.kind == "crm_s4":
        reflect.reverse()

    def chain(x):
        rows = [x]
        for r in reflect:
            rows.append(r(rows[-1]))
        return proper_circumcenter(np.array(rows))

    if spec.kind == "crm_s2":
        return Solver(init, chain, _identity)

    first, second = reflect
    last = None

    def step(x):
        # the last output is read-only, so x is last only while it still
        # holds the bits the lemma puts in the closing subspace
        nonlocal last
        rows = None
        if x is not last:
            y = second(x)
            # |y - x| against the noise floor of x and y, on the three rows
            # scaled where their squares overflow or underflow
            sq, _ = row_squares(np.array([x, y, y - x]))
            if not math.sqrt(sq[2]) <= noise_floor(n, max(sq[0], sq[1])):
                # reflection_set's rows, each reflection made once
                b = first(x)
                if spec.kind == "crm_s3":
                    rows = [x, b, y, second(b)]
                else:
                    c = first(y)
                    rows = [x, y, b, c, second(b), second(c)]
        last = chain(x) if rows is None else proper_circumcenter(np.array(rows))
        last.setflags(write=False)
        return last

    return Solver(init, step, _identity)
