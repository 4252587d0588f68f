"""Lockstep execution of many trials for the built-in oracle laws: the
one entry point behind ``run_trials``, the verifier fleet and the
lower-bound simulation.

Quadratic and lower-bound trials run through ``run_sgd`` itself, on the
stacked (trials, dim) starts: one ``Oracle`` serves every trial, drawing
each trial's noise (or lower-bound signs) from its own RngStream in blocks
of steps, and the averagers, the projection and the objective act on each
row alone, so every trial's results are bitwise those of ``run_sgd`` on its
stream. A recorded run holds every trial's trajectory as (T, trials, dim)
arrays, with the noise drawn straight into the recorded zhat; the verifier
fleet and the lower-bound simulation run this way.

SVM problems run in ``batched_svm``, which only SVM runs import: its
scaled-weight engine does O(nnz) work per trial and step, where a dense
step would do O(n). It fills its own index block through the same
trial-major layout but keeps its tables at their own sizes (an 8 MB index
block, 2 MB sub-blocks, 1 MB checkpoint chunks): ``Generator.integers`` has
no ``out=``, so a smaller index block would only add calls.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..averaging import make_averager
from ..core import InputError, Interval, L2Ball, Problem, Unconstrained
from ..oracles import LowerBoundOracleFactory, Oracle, RngStream, SvmOracleFactory, _NoisyGradient
from ..sgd import RunAborted, RunConfig, RunRecord, run_sgd, trial_failure

__all__ = ["run_all"]


def run_all(
    problem: Problem,
    oracle_factory,
    config: RunConfig,
    scheme_names,
    trials: int,
    base_seed: int,
    suffix_alpha: float,
) -> RunRecord:
    """Trials 0..trials-1 of ``run_sgd``, in lockstep; trial i draws from
    RngStream(base_seed, i). Raises InputError for a setting the engine
    cannot run: an oracle factory or feasible set that is not built in, a
    lower-bound oracle off the run's horizon or off one dimension, or a
    recorded SVM run; and for a start outside the feasible set. A failing
    trial raises the TrialFailure that names it."""
    feasible = problem.feasible
    if not isinstance(feasible, (Unconstrained, Interval, L2Ball)):
        raise InputError(f"unsupported feasible set {type(feasible).__name__}")
    svm = isinstance(oracle_factory, SvmOracleFactory)
    if svm:
        if config.record_iterates:
            raise InputError("a scaled SVM iterate has no recorded trajectory")
    elif isinstance(oracle_factory, LowerBoundOracleFactory):
        if config.x1.shape[0] != 1:
            raise InputError("the lower-bound oracle is one-dimensional")
        if config.T != oracle_factory.T:
            raise InputError("the lower-bound oracle's horizon differs from the run's")
    elif not isinstance(oracle_factory, _NoisyGradient):
        raise InputError(f"unsupported oracle factory {type(oracle_factory).__name__}")
    if not feasible.contains(config.x1):
        raise InputError("x1 must be feasible for the problem's set")
    try:
        if svm:
            from .batched_svm import _run_svm

            return _run_svm(problem, oracle_factory, config, scheme_names, trials, base_seed,
                            suffix_alpha)
        oracle = Oracle(oracle_factory, RngStream(base_seed), trials)
        schemes = [make_averager(nm, T=config.T, suffix_alpha=suffix_alpha)
                   for nm in scheme_names]
        stacked = replace(config, x1=np.broadcast_to(config.x1, (trials, config.x1.shape[0])))
        return run_sgd(problem, oracle, stacked, schemes)
    except RunAborted as exc:
        raise trial_failure(exc.row, base_seed, exc) from exc
