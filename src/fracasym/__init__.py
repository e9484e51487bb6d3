"""Asymptotic integration toolkit for (1+alpha)-order fractional equations.

The pipeline: describe a decaying coefficient (coeffexpr), put it on a
graded mesh (meshfun), evaluate the contraction constants that decide
whether the integral reformulation is a contraction (hypotheses), iterate
it to the fixed point (solver), and certify the result against the
equation and its claimed asymptotics (verify). The cli module wires the
same steps into the fracasym command.
"""

from .coeffexpr import (
    Coefficient,
    coefficient_from_json_dict,
    coefficient_to_json_dict,
    load_coefficient,
    save_coefficient,
)
from .fracops import (
    apply_operator,
    as_alpha,
    frac_integral,
    grid_gradient,
    rl_derivative,
    trusted_slice,
)
from .hypotheses import (
    Lemma1Profile,
    f_l1_divergence,
    lemma1_profile,
    lemma2_constants,
    thm1_constants,
    thm2_constants,
    thm3_constants,
)
from .meshfun import (
    GradedGrid,
    GridFunction,
    TailModel,
    WeightedMetric,
    integrate,
    make_graded_grid,
    metric_distance,
)
from .solver import (
    SOLVE_CASES,
    SolveResult,
    SolveSpec,
    reconstruct_prop1,
    reconstruct_thm3,
    solve,
    step_lemma2,
    step_thm1,
    step_thm2,
    step_thm3,
    x_to_y,
)
from .specialfn import beta, gamma
from .verify import (
    AsymptoticReport,
    BoundaryLimits,
    ResidualReport,
    asymptotic_fit,
    boundary_limits,
    prop1_certify,
    residual,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "BoundaryLimits",
    "Coefficient",
    "GradedGrid",
    "GridFunction",
    "Lemma1Profile",
    "ResidualReport",
    "SOLVE_CASES",
    "SolveResult",
    "SolveSpec",
    "TailModel",
    "WeightedMetric",
    "apply_operator",
    "as_alpha",
    "asymptotic_fit",
    "beta",
    "boundary_limits",
    "coefficient_from_json_dict",
    "coefficient_to_json_dict",
    "f_l1_divergence",
    "frac_integral",
    "gamma",
    "grid_gradient",
    "integrate",
    "lemma1_profile",
    "lemma2_constants",
    "load_coefficient",
    "make_graded_grid",
    "metric_distance",
    "prop1_certify",
    "reconstruct_prop1",
    "reconstruct_thm3",
    "residual",
    "rl_derivative",
    "save_coefficient",
    "solve",
    "step_lemma2",
    "step_thm1",
    "step_thm2",
    "step_thm3",
    "thm1_constants",
    "thm2_constants",
    "thm3_constants",
    "trusted_slice",
    "x_to_y",
    "__version__",
]
