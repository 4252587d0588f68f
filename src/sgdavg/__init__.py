"""Projected stochastic subgradient descent for strongly convex non-smooth
objectives, with four iterate-reporting schemes, pluggable stochastic
oracles, a reproducible multi-trial harness, and numeric verifiers for the
trajectory inequalities behind the convergence analysis.

Every public name is listed in ``__all__`` and loaded from its defining
module on first access (PEP 562), so importing the package, or one of its
modules, loads nothing else: each command of ``sgdavg.cli`` loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """``__all__``, ``__getattr__`` and ``__dir__`` for the package whose
    globals are ``namespace``: ``exports`` maps each public name to the
    submodule that defines it. A name is imported on first access and then
    kept in the package's globals."""
    package = namespace["__name__"]
    modules = {}
    for module, names in exports.items():
        for name in names.split():
            modules[name] = module

    def __getattr__(name: str):
        module = modules.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{package}.{module}"), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | modules.keys())

    return list(modules), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "core": """DEFAULT_SCHEDULE LOWER_BOUND_SCHEDULE FeasibleSet InputError Interval L2Ball
               ParseError Problem SparseVec StepSchedule Unconstrained UsageError
               norm project step_size""",
    "averaging": """SCHEME_NAMES Averager FinalIterate NonUniformAverage SuffixAverage
                    UniformAverage WindowNotStarted make_averager""",
    "data": "Dataset load_libsvm parse_libsvm scale_features serialize_libsvm",
    "oracles": """BoundedUniformBall GaussianNoise GradientSample LowerBoundOracle
                  LowerBoundOracleFactory NoNoise NoiseModel Oracle QuadraticOracle
                  QuadraticOracleFactory RngStream SvmOracleFactory empirical_mgf_check
                  full_svm_objective gaussian_mgf_exact quadratic_problem svm_problem""",
    "sgd": "RunAborted RunConfig RunRecord run_sgd",
})
