"""Multi-trial experiment execution with one deterministic RNG stream per
trial, all trials advancing in lockstep (``batched.run_all``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..averaging import SCHEME_NAMES
from ..core import InputError, Problem
from ..sgd import RunConfig, TrialFailure, checkpoint_iterations
from . import batched

__all__ = ["TrialFailure", "TrialMatrix", "run_trials"]


@dataclass(eq=False)
class TrialMatrix:
    """Objective gaps indexed [trial][checkpoint][scheme].

    Entries are f(report) - fstar, or the raw objective when the optimum is
    unknown; ``meta["fstar"]`` records which (None for raw objectives). NaN
    marks a checkpoint where a scheme's report was not yet defined (a suffix
    window that has not opened); all defined entries are finite.
    """

    gaps: np.ndarray
    checkpoints: list[int]
    scheme_names: list[str]
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        trials, n_cp, n_sch = self.gaps.shape
        if n_cp != len(self.checkpoints) or n_sch != len(self.scheme_names):
            raise InputError("gap array shape disagrees with checkpoint/scheme lists")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise InputError("checkpoint iterations must be strictly increasing")
        # NaN marks undefined entries, so a defined one is non-finite only as +-inf
        if np.isinf(self.gaps).any():
            raise InputError("defined gap entries must be finite")

    @property
    def trials(self) -> int:
        return int(self.gaps.shape[0])

    def scheme_index(self, scheme: str) -> int:
        try:
            return self.scheme_names.index(scheme)
        except ValueError:
            raise InputError(
                f"unknown scheme {scheme!r}; have {self.scheme_names}"
            ) from None

    def final_gaps(self, scheme: str) -> np.ndarray:
        """Across-trial gaps at the last checkpoint."""
        col = self.gaps[:, -1, self.scheme_index(scheme)]
        if np.isnan(col).any():
            raise InputError(f"scheme {scheme!r} is undefined at the final checkpoint")
        return col.copy()


def run_trials(
    problem: Problem,
    oracle_factory: Callable,
    config: RunConfig,
    schemes: Sequence[str],
    trials: int,
    base_seed: int,
    suffix_alpha: float = 0.5,
) -> TrialMatrix:
    """Run ``trials`` independent SGD runs in lockstep and collect checkpoint
    gaps. Trial i draws from RngStream(base_seed, i) and gives the gaps of
    ``run_sgd`` on that stream. The oracle factory must be a built-in one;
    any other is refused with InputError.
    """
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    scheme_names = list(schemes)
    if not scheme_names:
        raise InputError("at least one scheme is required")
    for nm in scheme_names:
        if nm not in SCHEME_NAMES:
            raise InputError(f"unknown scheme {nm!r}; expected one of {SCHEME_NAMES}")

    # a TrialMatrix holds no trajectory, so nothing is recorded
    config = replace(config, record_iterates=False)
    run = batched.run_all(problem, oracle_factory, config, scheme_names, trials,
                          base_seed, suffix_alpha)
    cps = checkpoint_iterations(config)
    fstar = problem.fstar
    # allocated only now, after the engine has freed its draw buffers
    gaps = np.full((trials, len(cps), len(scheme_names)), np.nan)
    for ci, (_, vals) in enumerate(run.checkpoints):
        for si, nm in enumerate(scheme_names):
            if nm in vals:
                gaps[:, ci, si] = vals[nm] - (fstar or 0.0)

    meta = {
        "problem": problem.name,
        "T": config.T,
        "eval_every": config.eval_every,
        "trials": trials,
        "base_seed": base_seed,
        "schedule": [config.schedule.c, config.schedule.shift, config.schedule.mu_scaled],
        "schemes": scheme_names,
        "suffix_alpha": suffix_alpha,
        # the optimum subtracted from every entry; None: the entries are raw objectives
        "fstar": fstar,
        "predraw_bytes": run.predraw_bytes,
        "budget_bytes": batched._BUDGET_BYTES,
    }
    matrix = TrialMatrix(gaps=gaps, checkpoints=cps, scheme_names=scheme_names, meta=meta)
    matrix.validate()
    return matrix
