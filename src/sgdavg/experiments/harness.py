"""Multi-trial experiment execution with one deterministic RNG stream per
trial. Results are slot-addressed by trial index, so they are independent of
execution order and worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..averaging import SCHEME_NAMES, make_averager
from ..core import InputError, Problem
from ..oracles import RngStream
from ..sgd import RunConfig, checkpoint_iterations, run_sgd
from . import batched

__all__ = ["TrialFailure", "TrialMatrix", "run_trials"]


class TrialFailure(RuntimeError):
    """One trial of a batch aborted; carries the trial index and seed."""


def trial_failure(index: int, base_seed: int, exc: Exception) -> TrialFailure:
    """The failure of trial ``index``, in the same words on both engines."""
    return TrialFailure(
        f"trial {index} (base seed {base_seed}, stream index {index}) failed: {exc}"
    )


@dataclass(eq=False)
class TrialMatrix:
    """Objective gaps indexed [trial][checkpoint][scheme].

    Entries are f(report) - fstar, or the raw objective when the optimum is
    unknown. NaN marks a checkpoint where a scheme's report was not yet
    defined (a suffix window that has not opened); all defined entries are
    finite.
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
        defined = ~np.isnan(self.gaps)
        if not np.isfinite(self.gaps[defined]).all():
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

    def gaps_at(self, checkpoint: int, scheme: str) -> np.ndarray:
        try:
            ci = self.checkpoints.index(checkpoint)
        except ValueError:
            raise InputError(f"no checkpoint at iteration {checkpoint}") from None
        return self.gaps[:, ci, self.scheme_index(scheme)].copy()


def _one_trial(args) -> list[tuple[int, dict[str, float]]]:
    (problem, oracle_factory, config, scheme_names, suffix_alpha, base_seed, index) = args
    stream = RngStream(base_seed, index)
    oracle = oracle_factory(stream)
    avs = [make_averager(nm, T=config.T, suffix_alpha=suffix_alpha) for nm in scheme_names]
    try:
        record = run_sgd(problem, oracle, config, avs)
    except Exception as exc:
        raise trial_failure(index, base_seed, exc) from exc
    return record.checkpoints


def run_trials(
    problem: Problem,
    oracle_factory: Callable,
    config: RunConfig,
    schemes: Sequence[str],
    trials: int,
    base_seed: int,
    workers: int = 1,
    suffix_alpha: float = 0.5,
    engine: str = "auto",
) -> TrialMatrix:
    """Run ``trials`` independent SGD runs and collect checkpoint gaps.

    Trial i draws from RngStream(base_seed, i). ``engine`` selects the
    execution strategy: "sequential" runs each trial through run_sgd,
    "batched" advances all trials in lockstep with vectorized updates
    (available for the built-in oracle factories; same per-trial streams,
    same results), "auto" picks batched when supported. ``meta`` names the
    engine that ran and, when "auto" fell back, the reason.
    """
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    scheme_names = list(schemes)
    if not scheme_names:
        raise InputError("at least one scheme is required")
    for nm in scheme_names:
        if nm not in SCHEME_NAMES:
            raise InputError(f"unknown scheme {nm!r}; expected one of {SCHEME_NAMES}")
    if engine not in ("auto", "sequential", "batched"):
        raise InputError(f"unknown engine {engine!r}")

    # a TrialMatrix holds no trajectory, so neither engine records one; the
    # lockstep engine records only for callers that read it (batched.run_all)
    config = replace(config, record_iterates=False)
    reason = None
    if engine != "sequential":
        reason = batched.unsupported_reason(problem, oracle_factory, config)
        if reason and engine == "batched":
            raise InputError(f"batched engine unavailable: {reason}")
    use_batched = engine != "sequential" and reason is None

    if use_batched:
        run = batched.run_all(problem, oracle_factory, config, scheme_names, trials,
                              base_seed, suffix_alpha)
        # one entry for all trials, holding a (trials,) array per scheme and checkpoint
        results = [(slice(None), run.checkpoints)]
    else:
        arglist = [
            (problem, oracle_factory, config, scheme_names, suffix_alpha, base_seed, i)
            for i in range(trials)
        ]
        if workers > 1:
            chunk = max(1, trials // (workers * 8))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_one_trial, arglist, chunksize=chunk))
        else:
            rows = [_one_trial(a) for a in arglist]
        results = enumerate(rows)

    cps = checkpoint_iterations(config)
    fstar = problem.fstar if problem.optimum is not None else 0.0
    # allocated only now, after the batched engine has freed its pre-drawn tables
    gaps = np.full((trials, len(cps), len(scheme_names)), np.nan)
    for i, row in results:
        if [t for t, _ in row] != cps:
            raise TrialFailure(f"trial {i} produced unexpected checkpoints")
        for ci, (_, vals) in enumerate(row):
            for si, nm in enumerate(scheme_names):
                if nm in vals:
                    gaps[i, ci, si] = vals[nm] - fstar

    meta = {
        "problem": problem.name,
        "T": config.T,
        "eval_every": config.eval_every,
        "trials": trials,
        "base_seed": base_seed,
        "schedule": [config.schedule.c, config.schedule.shift, config.schedule.mu_scaled],
        "schemes": scheme_names,
        "suffix_alpha": suffix_alpha,
        "engine": "batched" if use_batched else "sequential",
        "engine_reason": reason,
        "predraw_bytes": run.predraw_bytes if use_batched else 0,
        "budget_bytes": batched._BUDGET_BYTES,
    }
    matrix = TrialMatrix(gaps=gaps, checkpoints=cps, scheme_names=scheme_names, meta=meta)
    matrix.validate()
    return matrix
