"""Numerical laboratory for singular stationary profiles of semilinear
heat equations and the threshold behaviour around them."""

from .nonlinearity import (
    NonlinearitySpec,
    check_admissibility,
    cutoff_exp,
    eval_F,
    power_exp,
    pure_power,
    sobolev_exponent,
)
from .singular_ode import (
    SingularSolutionTable,
    asymptotic_ratio,
    build_singular,
    trace_pohozaev,
    verify_flux_identity,
)
from .evolution import (
    RadialField,
    RadialGrid,
    field_from_table,
    make_grid,
    ul_norm,
)
from .iteration import (
    LadderSeed,
    fixed_point_residual,
    run_ladder,
)
from .threshold import (
    RadialBump,
    threshold_scan,
)

__version__ = "0.1.0"
