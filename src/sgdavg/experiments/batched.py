"""Lockstep execution of many trials for the built-in oracle laws: the
one engine behind ``run_trials``, the verifier fleet and the lower-bound
simulation.

All trials advance together with one vectorized update per iteration over a
stacked (trials, dim) state. Per-trial randomness is drawn in blocks of
steps: each trial keeps one persistent ``Generator`` (its RngStream), and at
the start of a block the law's ``fill`` draws that block's noise (or
lower-bound signs) into a trial-major (trials, block, dim) buffer, the same
fill through which ``Oracle.query`` draws a single step for ``run_sgd``.
Row i holds trial i's draws, which its generator writes in place, and the
law's elementwise map (the one-dimensional ball's -b + 2b*u, the Gaussian's
scale, the lower bound's signed window scales) is applied once to the whole
block; step k is column k. A law's fill consumes each generator step by
step, so the block length never changes a result; the tests pin this for
every law by splitting the steps into blocks of one to three. A block holds
at most ``_BLOCK_BYTES`` (4 MB, and never less than one step), so memory is
O(trials * block * dim) whatever the horizon.

Quadratic and lower-bound problems form ghat with the law's own ``ghat``
on the stacked iterates, and apply the same averagers (``make_averager``'s,
fed (trials, dim) arrays) and the same row-wise projection (``project_rows``
of the feasible set) as ``run_sgd``, so their results match ``run_sgd``
trial by trial bitwise. When the config sets ``record_iterates``, they also
record every trial's trajectory: x_t, zhat_t and ghat_t as (T, trials, dim)
arrays in one ``Trajectory``, bitwise equal to what ``run_sgd`` records
trial by trial; the noise is then filled block by block straight into the
recorded zhat, seen trial-major, with no draw buffer of its own. The
verifier fleet and the lower-bound simulation run this way.

SVM problems run in ``batched_svm``, which only SVM runs import. It fills
its own index block through the same trial-major layout but keeps its
tables at their own sizes (an 8 MB index block, 2 MB sub-blocks, 1 MB
checkpoint chunks): ``Generator.integers`` has no ``out=``, so a smaller
index block would only add calls. It reads the budget here at call time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..averaging import WindowNotStarted, make_averager
from ..core import InputError, Interval, L2Ball, Problem, Unconstrained, _BUDGET_BYTES, step_size
from .. import core
from ..oracles import LowerBoundOracleFactory, NoNoise, RngStream, SvmOracleFactory, _NoisyGradient
from ..sgd import (RunAborted, RunConfig, RunRecord, Trajectory, checkpoint_iterations,
                   trial_failure)

__all__ = ["LockstepRun", "run_all"]

# Bytes of one block's draw buffer. At 1000 one-dimensional trials a block is
# 500 steps, so each trial's generator fills 500 steps in place per call.
_BLOCK_BYTES = 4_000_000

_NON_FINITE = "non-finite iterate (NaN/Inf)"


def _block_steps(table_bytes: int, step_bytes: int, T: int, held_step_bytes: int = 0) -> int:
    """Steps per block of a table of ``step_bytes`` per step: as many as fit
    in ``table_bytes`` and, at ``held_step_bytes`` per step for all the
    tables held with it (by default just this one), in the budget; at least
    one and at most T."""
    return max(1, min(T, table_bytes // step_bytes,
                      _BUDGET_BYTES // (held_step_bytes or step_bytes)))


def _generators(trials: int, base_seed: int, block: int, T: int):
    """Each trial's generator, in trial order: a list kept across blocks, or,
    when one block covers the run, made one at a time as the draw reaches
    it (thousands of live generators take megabytes)."""
    gens = (RngStream(base_seed, i).generator() for i in range(trials))
    return gens if block >= T else list(gens)


def _reserve(nbytes: int, what: str) -> int:
    """Refuse, before allocating, buffers over the byte budget; returns
    ``nbytes``. The draw buffer of one block and the recorded trajectories
    count against it together."""
    return core._reserve(nbytes, what, _BUDGET_BYTES)


@dataclass(eq=False)
class LockstepRun:
    """The results of all trials of one lockstep run.

    ``checkpoints`` holds one (t, {scheme: (trials,) array}) pair per
    checkpoint (a scheme is absent where its report is not yet defined),
    ``reported`` the final (trials, dim) report per scheme (empty for an SVM
    run, whose reports are evaluated at each checkpoint and not kept), and
    ``trajectory`` the recorded (T, trials, dim) arrays when the config asks
    for them, and ``predraw_bytes`` the bytes reserved against the budget for
    one block's draw buffer and the recording.
    """

    checkpoints: list[tuple[int, dict[str, np.ndarray]]]
    reported: dict[str, np.ndarray]
    predraw_bytes: int
    trajectory: Optional[Trajectory] = None

    def record(self, b: int) -> RunRecord:
        """Trial b's results, as ``run_sgd`` returns them."""
        return RunRecord(
            reported={nm: z[b] for nm, z in self.reported.items()},
            checkpoints=[(t, {nm: float(v[b]) for nm, v in vals.items()})
                         for t, vals in self.checkpoints],
            trajectory=self.trajectory.trial(b) if self.trajectory is not None else None,
        )


def _failure(trial: int, base_seed: int, t: int, reason: str):
    return trial_failure(trial, base_seed, RunAborted(t, reason))


def _finite(v: np.ndarray, nm: str, t: int, base_seed: int) -> np.ndarray:
    """The objectives ``v`` of scheme ``nm``'s reports, one per trial, when
    all are finite; else the failure of the first trial whose value is not,
    at this checkpoint."""
    bad = ~np.isfinite(v)
    if bad.any():
        raise _failure(int(np.argmax(bad)), base_seed, t,
                       f"non-finite {nm} objective at checkpoint")
    return v


def _evaluate(problem: Problem, reports: dict[str, np.ndarray], t: int, base_seed: int):
    """Objective of every trial's report per scheme; a non-finite value
    fails the trial at this checkpoint."""
    return {nm: _finite(problem.objective_rows(rows), nm, t, base_seed)
            for nm, rows in reports.items()}


def _reports(avs) -> dict[str, np.ndarray]:
    """Each averager's report, leaving out a suffix window not yet open."""
    out = {}
    for av in avs:
        try:
            out[av.name] = av.report()
        except WindowNotStarted:
            pass
    return out


def _run_quadratic(problem, factory, config, scheme_names, trials, base_seed, suffix_alpha):
    """Quadratic and lower-bound trials: the law's ghat = mu*x - zhat, with
    the noise drawn per block."""
    T, dim = config.T, config.x1.shape[0]
    record = config.record_iterates
    noiseless = isinstance(factory.noise, NoNoise)
    step_bytes = trials * dim * 8
    block = T if noiseless else _block_steps(_BLOCK_BYTES, step_bytes, T)
    if record:
        # the recorded iterates, ghat and zhat; each block's noise is filled into zhat
        reserved = _reserve(3 * T * step_bytes, "recorded trajectories")
        Xs, Gs = np.empty((T, trials, dim)), np.empty((T, trials, dim))
        Zs = np.zeros((T, trials, dim))
    else:
        reserved = 0 if noiseless else _reserve(block * step_bytes, "one block of noise draws")
        buf = None if noiseless else factory.draw_buffer(trials, block, dim)
    gens = None if noiseless else _generators(trials, base_seed, block, T)
    X = np.tile(np.asarray(config.x1, dtype=np.float64), (trials, 1))
    avs = [make_averager(nm, T=T, suffix_alpha=suffix_alpha) for nm in scheme_names]
    sched = config.schedule
    cp_set = set(checkpoint_iterations(config))
    feasible = problem.feasible

    cp_values: list[tuple[int, dict[str, np.ndarray]]] = []
    Z = None  # the block's draws, trial-major: step k is Z[:, k]
    for t in range(1, T + 1):
        k = (t - 1) % block
        if k == 0 and not noiseless:
            t0, steps = t - 1, min(block, T - t + 1)
            Z = Zs[t0:t0 + steps].transpose(1, 0, 2) if record else buf[:, :steps]
            factory.fill(gens, Z, t0)
        for av in avs:
            av.observe(X, t)
        Ghat = factory.ghat(X, t, 0.0 if Z is None else Z[:, k])
        if record:
            Xs[t - 1] = X
            Gs[t - 1] = Ghat
        if t in cp_set:
            cp_values.append((t, _evaluate(problem, _reports(avs), t, base_seed)))
        Y = X - step_size(sched, problem.mu, t) * Ghat
        if not np.isfinite(Y).all():
            bad = int(np.nonzero(~np.isfinite(Y).all(axis=1))[0][0])
            raise _failure(bad, base_seed, t, _NON_FINITE)
        X = feasible.project_rows(Y)
    trajectory = Trajectory(Xs, Gs, Zs) if record else None
    return LockstepRun(cp_values, _reports(avs), reserved, trajectory)


def run_all(
    problem: Problem,
    oracle_factory,
    config: RunConfig,
    scheme_names,
    trials: int,
    base_seed: int,
    suffix_alpha: float,
) -> LockstepRun:
    """Trials 0..trials-1 of ``run_sgd``, in lockstep; trial i draws from
    RngStream(base_seed, i). Raises InputError for a setting the engine
    cannot run: an oracle factory or feasible set that is not built in, a
    lower-bound oracle off the run's horizon or off one dimension, or a
    recorded SVM run."""
    feasible = problem.feasible
    if not isinstance(feasible, (Unconstrained, Interval, L2Ball)):
        raise InputError(f"unsupported feasible set {type(feasible).__name__}")
    run = _run_quadratic
    if isinstance(oracle_factory, SvmOracleFactory):
        if config.record_iterates:
            raise InputError("a scaled SVM iterate has no recorded trajectory")
        from .batched_svm import _run_svm as run
    elif isinstance(oracle_factory, LowerBoundOracleFactory):
        if config.x1.shape[0] != 1:
            raise InputError("the lower-bound oracle is one-dimensional")
        if config.T != oracle_factory.T:
            raise InputError("the lower-bound oracle's horizon differs from the run's")
    elif not isinstance(oracle_factory, _NoisyGradient):
        raise InputError(f"unsupported oracle factory {type(oracle_factory).__name__}")
    return run(problem, oracle_factory, config, scheme_names, trials, base_seed,
               suffix_alpha)
