"""Multi-trial harness, tail analysis, the exact lower-bound law,
trajectory verifiers, and CSV/SVG emission.

As in the top-level package, every name in ``__all__`` is imported from the
submodule listed for it on first access, so ``sgdavg verify`` never loads
the CSV writer or the lower-bound law, and ``sgdavg lb`` never loads the
verifiers.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "harness": "TrialFailure TrialMatrix run_trials",
    "io": "CSV_HEADER export_csv import_csv render_svg",
    "lowerbound": """LbMatchResult iterate_identity_error kolmogorov_gap lb_exact_distribution
                     lb_exact_distribution_rational lb_exceedance_probability lb_problem
                     lb_run_config lb_simulate_and_match""",
    "tails": "TailReport TailRow empirical_quantile tail_fit",
    "verify": """CheckResult chicken_and_egg_coefficients fleet_trajectories
                 literal_telescoping_product product_identity_sweep run_verification_fleet
                 telescoping_product_coeff verify_chicken_and_egg verify_diameter_bound
                 verify_recursive_bound""",
})
