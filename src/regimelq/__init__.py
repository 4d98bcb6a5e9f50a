"""regimelq: finite-horizon stochastic LQ control with regime switching.

Solves the coupled matrix Riccati backward system driven by a
continuous-time regime chain, synthesizes the optimal linear feedback,
and verifies optimality by simulation.  See the README for the model and
the demos directory for worked examples.
"""

from .errors import (
    AssumptionViolation,
    AsymmetryExceeded,
    BlowUp,
    ConfigError,
    DimensionMismatch,
    IoError,
    NearSingular,
    NegativeOffDiagonal,
    NoConvergence,
    OutOfRange,
    ParseError,
    PsdViolation,
    RangeError,
    RegimeLQError,
    RowSumNonzero,
    SingularState,
    StepFailure,
    StructuralError,
    TooFewRegimes,
    UnknownKey,
)
from .matcore import (
    make_symmetric,
    min_eigenvalue,
    project_psd,
    sym_inverse,
    symmetrize,
)
from .regime_chain import (
    Generator,
    RegimePath,
    path_substream,
    sample_chain_path,
    transition_matrix,
    validate_generator,
)
from .model import (
    CoefficientField,
    ProblemSpec,
    ValidationReport,
    check_smallness,
    validate_assumptions,
)
from .esre import (
    BinomialTree,
    Diagnostics,
    EsreSolution,
    GridIterate,
    PicardCertificate,
    SolverOptions,
    TreeIterate,
    direct_coupled_oracle,
    growth_constant,
    picard_certificate,
    picard_step,
    solve_esre,
    solve_p0,
)
from .control import (
    CostEstimate,
    GapEstimate,
    PathRecord,
    Perturbation,
    Policy,
    feedback_gain,
    mc_cost,
    optimality_gap,
    predicted_gap,
    simulate_closed_loop,
    value_at,
)
from .fbsde import (
    FbsdeTriple,
    ResidualStats,
    tree_fbsde_oracle,
    xinv_product_check,
    ypx_residual,
)
from .config import RunConfig, parse_config
from .cli import read_solution_csv, run_command, write_solution_csv

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation", "AsymmetryExceeded", "BlowUp", "ConfigError",
    "DimensionMismatch", "IoError", "NearSingular", "NegativeOffDiagonal",
    "NoConvergence", "OutOfRange", "ParseError", "PsdViolation", "RangeError",
    "RegimeLQError", "RowSumNonzero", "SingularState", "StepFailure",
    "StructuralError", "TooFewRegimes", "UnknownKey",
    "make_symmetric", "min_eigenvalue", "project_psd", "sym_inverse",
    "symmetrize",
    "Generator", "RegimePath", "path_substream", "sample_chain_path",
    "transition_matrix", "validate_generator",
    "CoefficientField", "ProblemSpec", "ValidationReport",
    "check_smallness", "validate_assumptions",
    "BinomialTree", "Diagnostics", "EsreSolution", "GridIterate",
    "PicardCertificate", "SolverOptions", "TreeIterate",
    "direct_coupled_oracle", "growth_constant", "picard_certificate",
    "picard_step", "solve_esre", "solve_p0",
    "CostEstimate", "GapEstimate", "PathRecord", "Perturbation", "Policy",
    "feedback_gain", "mc_cost", "optimality_gap", "predicted_gap",
    "simulate_closed_loop", "value_at",
    "FbsdeTriple", "ResidualStats", "tree_fbsde_oracle", "xinv_product_check",
    "ypx_residual",
    "RunConfig", "parse_config",
    "read_solution_csv", "run_command", "write_solution_csv",
]
