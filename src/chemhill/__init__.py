"""Implicit Cahn-Hilliard regularization of a parabolic-elliptic chemotaxis system.

The package discretizes the regularized system in time with an implicit
scheme whose every step is one strongly monotone elliptic solve, marches it
on cell-centered Neumann grids of the unit box, and provides the
diagnostics and refinement studies that exhibit the scheme's uniform
bounds and its limit behavior as the step size and the two regularization
parameters shrink.
"""

from .diagnostics import (
    DiagnosticsLedger,
    build_ledger,
    check_growth_bound,
    check_pt_inequality,
    identity_report,
)
from .elliptic import (
    CompatibilityError,
    SolverFailure,
    SolverOptions,
    StepFailure,
    helmholtz_solve,
    neumann_poisson_solve,
    step_solve,
    v0star_norm,
    vstar_norm,
)
from .grid import (
    Grid,
    advective_divergence,
    inner_h,
    laplacian_apply,
    make_grid,
    mean,
    norm_h,
    norm_l4,
    norm_v,
    seminorm_v,
)
from .limits import StudyReport, estimate_order, study
from .nonlinearity import (
    BetaSpec,
    OutOfDomainError,
    PiSpec,
    ValidationReport,
    beta_eval,
    beta_hat_eval,
    beta_prime,
    pi_eval,
    resolvent,
    validate_assumptions,
    yosida,
)
from .scheme import (
    Scenario,
    SimParams,
    Trajectory,
    average_sources,
    run,
    step,
)

__version__ = "0.1.0"
