"""Projected stochastic subgradient descent for strongly convex non-smooth
objectives, with four iterate-reporting schemes, pluggable stochastic
oracles, a reproducible multi-trial harness, and numeric verifiers for the
trajectory inequalities behind the convergence analysis."""

from .core import (
    DEFAULT_SCHEDULE,
    LOWER_BOUND_SCHEDULE,
    FeasibleSet,
    InputError,
    Interval,
    L2Ball,
    Problem,
    SparseVec,
    StepSchedule,
    Unconstrained,
    UsageError,
    gamma_weight,
    norm,
    project,
    step_size,
)
from .averaging import (
    SCHEME_NAMES,
    Averager,
    FinalIterate,
    NonUniformAverage,
    SuffixAverage,
    UniformAverage,
    WindowNotStarted,
    make_averager,
)
from .data import Dataset, ParseError, load_libsvm, parse_libsvm, scale_features, serialize_libsvm
from .oracles import (
    BoundedUniformBall,
    GaussianNoise,
    GradientSample,
    LowerBoundOracle,
    LowerBoundOracleFactory,
    NoNoise,
    NoiseModel,
    Oracle,
    QuadraticOracle,
    QuadraticOracleFactory,
    RngStream,
    SvmOracleFactory,
    empirical_mgf_check,
    full_svm_objective,
    gaussian_mgf_exact,
    quadratic_problem,
    svm_problem,
)
from .sgd import RunAborted, RunConfig, RunRecord, run_sgd

__version__ = "0.1.0"
