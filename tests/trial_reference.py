"""The per-trial reference for run_trials: one run_sgd per trial, on
RngStream(base_seed, i), with the gaps gathered into a (trials, checkpoints,
schemes) array as run_trials lays them out. The lockstep engine is checked
against it: bitwise on quadratic and lower-bound problems, up to rounding on
SVMs."""

from dataclasses import replace

import numpy as np

from sgdavg.averaging import make_averager
from sgdavg.oracles import RngStream
from sgdavg.sgd import checkpoint_iterations, run_sgd, trial_failure


def per_trial_gaps(problem, oracle_factory, config, schemes, trials, base_seed,
                   suffix_alpha=0.5):
    """Gaps of ``trials`` run_sgd runs; NaN where a scheme's report is not
    yet defined. A failing run raises the TrialFailure run_trials raises;
    an oracle or averager that cannot be built raises its own error."""
    config = replace(config, record_iterates=False)
    cps = checkpoint_iterations(config)
    fstar = problem.fstar if problem.optimum is not None else 0.0
    gaps = np.full((trials, len(cps), len(schemes)), np.nan)
    for i in range(trials):
        oracle = oracle_factory(RngStream(base_seed, i))
        avs = [make_averager(nm, T=config.T, suffix_alpha=suffix_alpha) for nm in schemes]
        try:
            record = run_sgd(problem, oracle, config, avs)
        except Exception as exc:
            raise trial_failure(i, base_seed, exc) from exc
        assert [t for t, _ in record.checkpoints] == cps
        for ci, (_, vals) in enumerate(record.checkpoints):
            for si, nm in enumerate(schemes):
                if nm in vals:
                    gaps[i, ci, si] = vals[nm] - fstar
    return gaps
