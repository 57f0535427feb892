"""Circumcentered reflection methods and classical projection solvers.

Best-approximation problems onto intersections of affine subspaces, solved
by circumcentered reflection methods (CRM), the Douglas-Rachford method
(DRM), the method of alternating projections (MAP), averaged projections,
and a product-space CRM for three or more subspaces; plus a deterministic
problem generator with prescribed Friedrichs angles and a Dolan-More
performance-profile benchmark harness.  The theorem-checking algebra lives
in :mod:`circumsolve.theory`, which the solver path never imports.
"""

from .linalg import (
    AffineSubspace,
    LinearSubspace,
    as_vector,
    friedrichs_cosine,
    intersect,
    intersect_all,
    orthogonal_complement,
    orthonormal_basis,
)
from .circumcenter import (
    CircumcenterError,
    CircumcenterResult,
    circumcenter_oracle,
    circumcenter_points,
)
from .solvers import (
    DivergenceError,
    IterationConfig,
    Solver,
    SolverSpec,
    Trace,
    iterate,
    make_solver,
)
from .problems import (
    Problem,
    ProblemSet,
    ProblemSetFormatError,
    ProblemSpec,
    gen_subspace_pair,
    generate_problem_set,
    load_problem_set,
    reference_solution,
    save_problem_set,
)
from .bench import (
    PerformanceCell,
    ProfileCurve,
    measure,
    performance_profile,
    run_benchmark,
    run_grid,
)
from .theory import (
    AffineCombo,
    Compose,
    Identity,
    IsometryOp,
    OperatorSet,
    OrthogonalLinear,
    Reflector,
    Translation,
    apply,
    circumcenter_map,
    circumcenter_via_fixpoint,
    dr_operator,
    fixed_subspace,
    lift_to_product,
    parallelize,
    rate_bound,
    reflection_set,
    surrogate_ts,
)

__version__ = "0.1.0"
