"""The package's public surface, pinned: adding, removing or renaming a
name in ``regimelq.__all__`` is an edit of this list."""

import inspect

import regimelq

PUBLIC_NAMES = [
    "AssumptionViolation", "AsymmetryExceeded", "BinomialTree", "BlowUp",
    "CoefficientField", "ConfigError", "CostEstimate", "Diagnostics",
    "DimensionMismatch", "EsreSolution", "FbsdeTriple", "GapEstimate",
    "Generator", "GridIterate", "IoError", "NearSingular",
    "NegativeOffDiagonal", "NoConvergence", "OutOfRange", "ParseError",
    "PathRecord", "Perturbation", "PicardCertificate", "Policy", "ProblemSpec",
    "PsdViolation", "RangeError", "RegimeLQError", "RegimePath",
    "ResidualStats", "RowSumNonzero", "RunConfig", "SingularState",
    "SolverOptions", "StepFailure", "StructuralError", "TooFewRegimes",
    "TreeIterate", "UnknownKey", "ValidationReport", "check_smallness",
    "direct_coupled_oracle", "feedback_gain", "growth_constant",
    "make_symmetric", "mc_cost", "min_eigenvalue", "optimality_gap",
    "parse_config", "path_substream", "picard_certificate", "picard_step",
    "predicted_gap", "project_psd", "read_solution_csv", "run_command",
    "sample_chain_path", "simulate_closed_loop", "solve_esre", "solve_p0",
    "sym_inverse", "symmetrize", "transition_matrix", "tree_fbsde_oracle",
    "validate_assumptions", "validate_generator", "value_at",
    "write_solution_csv", "xinv_product_check", "ypx_residual",
]


def test_all_is_the_pinned_list():
    assert len(regimelq.__all__) == len(set(regimelq.__all__))
    assert sorted(regimelq.__all__) == PUBLIC_NAMES


def test_every_name_resolves():
    for name in regimelq.__all__:
        assert getattr(regimelq, name) is not None, name


def test_solver_entry_points_take_options_one_way():
    # solver settings travel in a SolverOptions, never as keywords
    for fn in (regimelq.solve_esre, regimelq.picard_certificate,
               regimelq.direct_coupled_oracle):
        assert list(inspect.signature(fn).parameters) == ["spec", "options"], fn.__name__
