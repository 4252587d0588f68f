"""The projected stochastic subgradient descent loop.

Each step queries the oracle at the current iterate x_t, takes the step
y_{t+1} = x_t - eta_t * ghat_t, and projects back onto the feasible set.
Averaging schemes observe x_t (the pre-update iterate) for t = 1..T, so the
reported averages cover exactly x_1..x_T.

The iterate is one (dim,) point or, for trials run in lockstep
(``batched.run_all``), a stacked (trials, dim) array: every operation of a
step acts on each row alone, so a row's results are bitwise its trial's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .averaging import Averager, WindowNotStarted
from .core import InputError, Problem, StepSchedule, _reserve, step_size
from .oracles import GradientSample

__all__ = [
    "RunAborted",
    "TrialFailure",
    "RunConfig",
    "RunRecord",
    "Trajectory",
    "run_sgd",
    "checkpoint_iterations",
]


class RunAborted(RuntimeError):
    """A run hit a non-finite iterate or objective, or a failing oracle;
    names the iteration. ``row`` is the first failing trial of a lockstep
    run (0 for a run of one trial, and for an oracle failure, which fails
    every trial)."""

    def __init__(self, iteration: int, reason: str, row: int = 0):
        self.iteration = iteration
        self.row = row
        super().__init__(f"run aborted at iteration {iteration}: {reason}")


_NON_FINITE = "non-finite iterate (NaN/Inf)"


def _first_bad(bad: np.ndarray) -> int:
    """The first row of a (..., n) mask with any entry set."""
    return int(np.argmax(bad.reshape(-1, bad.shape[-1]).any(axis=1)))


def _finite_objectives(v: np.ndarray, name: str, t: int) -> np.ndarray:
    """The checkpoint objectives ``v`` of scheme ``name``'s reports, one per
    trial, when all are finite; else abort at the first trial whose value is not."""
    bad = ~np.isfinite(v)
    if bad.any():
        raise RunAborted(t, f"non-finite {name} objective at checkpoint", int(np.argmax(bad)))
    return v


class TrialFailure(RuntimeError):
    """One trial of a batch aborted; carries the trial index and seed."""


def trial_failure(index: int, base_seed: int, exc: Exception) -> TrialFailure:
    """The failure of trial ``index``, naming its seed and stream."""
    return TrialFailure(
        f"trial {index} (base seed {base_seed}, stream index {index}) failed: {exc}"
    )


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Horizon, step schedule, start point, and recording options for one run.

    ``eval_every`` is the checkpoint period in iterations (for dataset
    problems one "effective pass" is m iterations); the final iteration is
    always a checkpoint. ``record_iterates`` stores the full trajectory for
    the verifiers, which is O(T * n) memory and meant for small T.
    """

    T: int
    schedule: StepSchedule
    x1: np.ndarray
    eval_every: Optional[int] = None
    record_iterates: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise InputError(f"horizon must be >= 1, got {self.T}")
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=np.float64))
        ev = self.eval_every if self.eval_every is not None else self.T
        if ev < 1:
            raise InputError(f"eval_every must be >= 1, got {ev}")
        object.__setattr__(self, "eval_every", int(ev))


def checkpoint_iterations(config: RunConfig) -> list[int]:
    """Multiples of eval_every within [1, T], always including T."""
    pts = list(range(config.eval_every, config.T + 1, config.eval_every))
    if not pts or pts[-1] != config.T:
        pts.append(config.T)
    return pts


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A recorded run: the iterates x_t and the oracle's replies stacked
    along a leading step axis, so ``X[t-1]`` is x_t. ``zhat`` is None when
    the oracle does not report its noise. A lockstep run stores (T, trials,
    n) arrays and ``trial(b)`` is one trial's (T, n) view.

    Item ``t-1`` is the pair (x_t, GradientSample) that the oracle replied
    at step t; its true subgradient is ghat + zhat, as the oracles that
    know their noise compute it.
    """

    X: np.ndarray
    ghat: np.ndarray
    zhat: Optional[np.ndarray] = None

    @classmethod
    def from_pairs(cls, pairs) -> "Trajectory":
        """Stack (x_t, GradientSample) pairs; the noise is kept only when
        every sample carries it."""
        pairs = list(pairs)
        if not pairs:
            raise InputError("a recorded trajectory is required")
        decomposed = all(s.zhat is not None for _, s in pairs)
        return cls(
            X=np.stack([x for x, _ in pairs]),
            ghat=np.stack([s.ghat for _, s in pairs]),
            zhat=np.stack([s.zhat for _, s in pairs]) if decomposed else None,
        )

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, k: int) -> tuple[np.ndarray, GradientSample]:
        z = None if self.zhat is None else self.zhat[k]
        return self.X[k], GradientSample(self.ghat[k], zhat=z)

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def trial(self, b: int) -> "Trajectory":
        return Trajectory(self.X[:, b], self.ghat[:, b],
                          None if self.zhat is None else self.zhat[:, b])


@dataclass(eq=False)
class RunRecord:
    """Per-run artifacts: final report per scheme, checkpoint objective
    values (schemes whose report is not yet defined are absent from a
    checkpoint's map), optionally the stored trajectory, and the bytes
    reserved against the budget for the oracle's draws and the recording.
    A lockstep run holds a trial axis after any step axis, and ``trial(b)``
    is trial b's record alone; an SVM engine's run keeps no reports."""

    reported: dict[str, np.ndarray]
    checkpoints: list[tuple[int, dict]]
    trajectory: Optional[Trajectory] = None
    predraw_bytes: int = 0

    def trial(self, b: int) -> "RunRecord":
        return RunRecord(
            reported={nm: z[b] for nm, z in self.reported.items()},
            checkpoints=[(t, {nm: float(v[b]) for nm, v in vals.items()})
                         for t, vals in self.checkpoints],
            trajectory=self.trajectory.trial(b) if self.trajectory is not None else None,
        )


def _checkpoint(problem: Problem, schemes: list[Averager], t: int) -> dict:
    """Each scheme's report's objective, from one ``objective_rows`` call:
    a float, or per trial of stacked iterates. An unopened suffix is left out."""
    vals = {}
    for av in schemes:
        try:
            report = av.report()
        except WindowNotStarted:
            continue
        v = problem.objective_rows(report.reshape(-1, report.shape[-1]))
        v = _finite_objectives(v, av.name, t)
        vals[av.name] = v if report.ndim > 1 else float(v[0])
    return vals


def run_sgd(
    problem: Problem,
    oracle,
    config: RunConfig,
    schemes: list[Averager],
) -> RunRecord:
    """Execute exactly T oracle queries of projected subgradient descent
    from ``config.x1``, a (dim,) point or stacked (trials, dim) starts.

    Aborts with RunAborted on a failing oracle, a non-finite iterate or a
    non-finite checkpoint objective, naming the iteration and the first
    failing row. Checkpoint values use the full deterministic objective of
    each scheme's current report. A recorded run fills (T, *x.shape) arrays,
    reserved against the budget; an oracle with ``begin`` (``Oracle``) is
    readied with them and reserves its own draws.
    """
    if not schemes:
        raise InputError("at least one averaging scheme is required")
    names = [a.name for a in schemes]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate scheme names: {names}")

    # never written in place, so stacked starts may be a read-only broadcast
    x = config.x1
    T = config.T
    record = config.record_iterates
    reserved = 0
    # the buffers are reserved, and refused, before anything of their size is made
    if record:
        reserved = _reserve(3 * T * x.nbytes, "recorded trajectories")
        Xs, Gs, Zs = np.empty((T, *x.shape)), np.empty((T, *x.shape)), np.zeros((T, *x.shape))
        decomposed = True  # every reply so far carried its noise
    begin = getattr(oracle, "begin", None)
    if begin is not None:
        reserved += begin(x, T, Zs if record else None)

    feasible = problem.feasible
    if not feasible.contains(x):
        raise InputError("x1 must be feasible for the problem's set")
    sched = config.schedule
    if sched.mu_scaled and not problem.mu > 0:
        raise InputError("mu-scaled schedule requires mu > 0")

    cp_set = set(checkpoint_iterations(config))
    checkpoints: list[tuple[int, dict]] = []
    query = oracle.query
    proj = feasible.project

    for t in range(1, T + 1):
        for av in schemes:
            av.observe(x, t)
        try:
            sample = query(x, t)
        except Exception as exc:
            raise RunAborted(t, f"oracle failure: {exc}") from exc
        if record:
            Xs[t - 1] = x
            Gs[t - 1] = sample.ghat
            decomposed = decomposed and sample.zhat is not None
            if decomposed:
                Zs[t - 1] = sample.zhat
        if t in cp_set:
            checkpoints.append((t, _checkpoint(problem, schemes, t)))
        y = x - step_size(sched, problem.mu, t) * sample.ghat
        # the sum is a quick screen; finite entries can still overflow it
        if not math.isfinite(float(y.sum())) and not np.isfinite(y).all():
            raise RunAborted(t, _NON_FINITE, _first_bad(~np.isfinite(y)))
        x = proj(y)

    reported = {av.name: av.report() for av in schemes}
    trajectory = Trajectory(Xs, Gs, Zs if decomposed else None) if record else None
    return RunRecord(reported, checkpoints, trajectory, reserved)
