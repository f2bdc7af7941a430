"""Multistep integrators for Hamiltonian systems with structure checks.

Exact-rational order analysis, one stepping relation for plain multistep,
one-leg and generalized schemes plus predictor-corrector and partitioned
pairs, long-run energy experiments on the harmonic oscillator, and
numerical certificates for symplecticity-type properties of the window
transfer map.
"""

from .methods import (
    AnalysisReport,
    MethodError,
    MethodSpec,
    REGISTRY_NAMES,
    analyze,
    builtin_methods,
    defect_horizon,
    format_method,
    format_report,
    is_irreducible,
    is_symmetric,
    lambda_matrix,
    order_analysis,
    parse_method,
    report_to_dict,
    root_condition,
)
from .systems import (
    GradientField,
    LinearHamiltonian,
    load_linear_system,
    sho,
    sho_exact,
    structure_matrix,
)
from .integrators import (
    ConvergenceError,
    PCPair,
    PartitionedPair,
    STARTERS,
    SingularStepError,
    StepFailure,
    Trajectory,
    exact_start,
    integrate,
    pad_method,
    rk4_start,
    step,
    step_residual,
    window_matrix,
)
from .geometry import (
    StepTransitionMatrix,
    StructureDefectReport,
    area_defect,
    g_symplecticity_defect,
    reversibility_residual,
    step_transition,
    transfer_matrix,
)
from .experiments import (
    Scenario,
    ScenarioResult,
    builtin_pairs,
    builtin_scenarios,
    figure_scenarios,
    format_scenario,
    parse_scenario,
    resolve_scheme,
    run_scenario,
)

__version__ = "0.1.0"
