"""Multi-trial harness, tail analysis, the exact lower-bound law,
trajectory verifiers, and CSV/SVG emission."""

from .harness import TrialFailure, TrialMatrix, run_trials
from .io import CSV_HEADER, export_csv, import_csv, render_svg
from .lowerbound import (
    LbMatchResult,
    iterate_identity_error,
    kolmogorov_gap,
    lb_exact_distribution,
    lb_exact_distribution_rational,
    lb_exceedance_probability,
    lb_problem,
    lb_run_config,
    lb_simulate_and_match,
)
from .tails import TailReport, TailRow, empirical_quantile, tail_fit
from .verify import (
    CheckResult,
    chicken_and_egg_coefficients,
    fleet_trajectories,
    literal_telescoping_product,
    product_identity_sweep,
    run_verification_fleet,
    telescoping_product_coeff,
    verify_chicken_and_egg,
    verify_diameter_bound,
    verify_recursive_bound,
)

__all__ = [
    "TrialFailure",
    "TrialMatrix",
    "run_trials",
    "CSV_HEADER",
    "export_csv",
    "import_csv",
    "render_svg",
    "LbMatchResult",
    "iterate_identity_error",
    "kolmogorov_gap",
    "lb_exact_distribution",
    "lb_exact_distribution_rational",
    "lb_exceedance_probability",
    "lb_problem",
    "lb_run_config",
    "lb_simulate_and_match",
    "TailReport",
    "TailRow",
    "empirical_quantile",
    "tail_fit",
    "CheckResult",
    "chicken_and_egg_coefficients",
    "fleet_trajectories",
    "literal_telescoping_product",
    "product_identity_sweep",
    "run_verification_fleet",
    "telescoping_product_coeff",
    "verify_chicken_and_egg",
    "verify_diameter_bound",
    "verify_recursive_bound",
]
