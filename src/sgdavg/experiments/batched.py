"""Lockstep execution of many trials for the built-in oracle laws: the
one entry point behind ``run_trials``, the verifier fleet and the
lower-bound simulation.

Trials run through ``run_sgd`` itself, on the stacked (trials, dim) starts:
one ``Oracle`` serves every trial, drawing each trial's noise, lower-bound
signs or SVM sample indices from its own RngStream in blocks of steps, and
the oracle's reply, the averagers, the projection and the objective act on
each row alone, so every trial's results are bitwise those of ``run_sgd``
on its stream. A recorded run holds every trial's trajectory as (T, trials,
dim) arrays, with the noise drawn straight into the recorded zhat; the
verifier fleet and the lower-bound simulation run this way.

An unrecorded SVM run on no set or on an L2 ball about the origin runs
instead in ``batched_svm`` (imported only then), whose scaled-weight steps
do O(nnz) work where a dense step does O(n); under any other set it would
project densely at every step, and ``run_sgd`` is as fast.
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
    RngStream(base_seed, i). An unrecorded SVM run on no set or on an L2
    ball about the origin goes to the scaled-weight engine, any other run
    to ``run_sgd`` on the stacked starts. Raises InputError for an oracle
    factory or feasible set that is not built in, a lower-bound oracle off
    the run's horizon or off one dimension, and a start outside the
    feasible set. A failing trial raises the TrialFailure that names it."""
    feasible = problem.feasible
    if not isinstance(feasible, (Unconstrained, Interval, L2Ball)):
        raise InputError(f"unsupported feasible set {type(feasible).__name__}")
    if isinstance(oracle_factory, LowerBoundOracleFactory):
        if config.x1.shape[0] != 1:
            raise InputError("the lower-bound oracle is one-dimensional")
        if config.T != oracle_factory.T:
            raise InputError("the lower-bound oracle's horizon differs from the run's")
    elif not isinstance(oracle_factory, (_NoisyGradient, SvmOracleFactory)):
        raise InputError(f"unsupported oracle factory {type(oracle_factory).__name__}")
    if not feasible.contains(config.x1):
        raise InputError("x1 must be feasible for the problem's set")
    centred = isinstance(feasible, Unconstrained) or (
        isinstance(feasible, L2Ball) and not feasible.center.any())
    try:
        if isinstance(oracle_factory, SvmOracleFactory) and centred and not config.record_iterates:
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
