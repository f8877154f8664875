"""First-order convex-concave saddle-point solvers with non-ergodic rate certificates.

The library solves min_x max_y f1(x) + f2(x) + <Kx, y> - g1(y) - g2(y)
with a strongly convex g1, via an inertial accelerated primal-dual scheme
whose last-iterate gap decays at a certified O(1/k^2) rate, alongside
fixed-step and adaptive primal-dual baselines and accelerated proximal
gradient methods. A benchmark harness generates seeded l1-regularized and
nonnegative least-squares instances and emits CSV traces.
"""

from .diagnostics import EnergyReport, certify, energy_at, slope
from .linalg import (
    DimensionMismatchError,
    LinearMap,
    MatrixMarketError,
    read_matrix_market,
    write_matrix_market,
)
from .problem import (
    ReferencePoint,
    SaddleProblem,
    StepParams,
    compute_reference,
    default_step_params,
    validate_params,
)
from .proxfuns import (
    L1Norm,
    LeastSquares,
    NonnegIndicator,
    ProxFunction,
    ShiftedQuadratic,
    SmoothFunction,
    ZeroSmooth,
)
from .solvers import (
    DivergenceError,
    IapdState,
    SolverOptions,
    Trace,
    TraceRow,
    UnsupportedStructureError,
    iapd_step,
    init_iapd_state,
    next_t,
    solve_apda,
    solve_fista,
    solve_iapd,
    solve_pda,
    solve_tseng,
)

__version__ = "0.1.0"
