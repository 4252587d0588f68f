"""The projected stochastic subgradient descent loop.

Each step queries the oracle at the current iterate x_t, takes the step
y_{t+1} = x_t - eta_t * ghat_t, and projects back onto the feasible set.
Averaging schemes observe x_t (the pre-update iterate) for t = 1..T, so the
reported averages cover exactly x_1..x_T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .averaging import Averager, WindowNotStarted
from .core import InputError, Problem, StepSchedule, step_size
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
    names the iteration."""

    def __init__(self, iteration: int, reason: str):
        self.iteration = iteration
        super().__init__(f"run aborted at iteration {iteration}: {reason}")


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
    the oracle does not report its noise. A lockstep run stores (T, B, n)
    arrays and ``trial(b)`` is one trial's (T, n) view.

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
        every sample carries the full decomposition."""
        pairs = list(pairs)
        if not pairs:
            raise InputError("a recorded trajectory is required")
        decomposed = all(s.zhat is not None and s.g is not None for _, s in pairs)
        return cls(
            X=np.stack([x for x, _ in pairs]),
            ghat=np.stack([s.ghat for _, s in pairs]),
            zhat=np.stack([s.zhat for _, s in pairs]) if decomposed else None,
        )

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, k: int) -> tuple[np.ndarray, GradientSample]:
        ghat = self.ghat[k]
        if self.zhat is None:
            return self.X[k], GradientSample(ghat)
        z = self.zhat[k]
        return self.X[k], GradientSample(ghat, ghat + z, z)

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def trial(self, b: int) -> "Trajectory":
        return Trajectory(self.X[:, b], self.ghat[:, b],
                          None if self.zhat is None else self.zhat[:, b])


@dataclass(eq=False)
class RunRecord:
    """Per-run artifacts: final report per scheme, checkpoint objective
    values (schemes whose report is not yet defined are absent from a
    checkpoint's map), and optionally the stored trajectory."""

    reported: dict[str, np.ndarray]
    checkpoints: list[tuple[int, dict[str, float]]]
    trajectory: Optional[Trajectory] = None


def run_sgd(
    problem: Problem,
    oracle,
    config: RunConfig,
    schemes: list[Averager],
) -> RunRecord:
    """Execute exactly T oracle queries of projected subgradient descent.

    Aborts with RunAborted on a failing oracle, a non-finite iterate or a
    non-finite checkpoint objective, naming the iteration. Checkpoint values
    use the full deterministic objective of each scheme's current report.
    """
    if not schemes:
        raise InputError("at least one averaging scheme is required")
    names = [a.name for a in schemes]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate scheme names: {names}")

    x = np.array(config.x1, dtype=np.float64)
    feasible = problem.feasible
    if feasible.distance(x) > 1e-12 * max(1.0, float(np.linalg.norm(x))):
        raise InputError("x1 must be feasible for the problem's set")

    sched = config.schedule
    if sched.mu_scaled and not problem.mu > 0:
        raise InputError("mu-scaled schedule requires mu > 0")

    cp_set = set(checkpoint_iterations(config))
    checkpoints: list[tuple[int, dict[str, float]]] = []
    recorded: Optional[list] = [] if config.record_iterates else None
    objective = problem.objective
    query = oracle.query
    proj = feasible.project

    for t in range(1, config.T + 1):
        for av in schemes:
            av.observe(x, t)
        try:
            sample = query(x, t)
        except Exception as exc:
            raise RunAborted(t, f"oracle failure: {exc}") from exc
        if recorded is not None:
            recorded.append((x, sample))
        if t in cp_set:
            vals: dict[str, float] = {}
            for av in schemes:
                try:
                    value = float(objective(av.report()))
                except WindowNotStarted:
                    continue
                if not math.isfinite(value):
                    raise RunAborted(t, f"non-finite {av.name} objective at checkpoint")
                vals[av.name] = value
            checkpoints.append((t, vals))
        y = x - step_size(sched, problem.mu, t) * sample.ghat
        # the sum is a quick screen; finite entries can still overflow it
        if not math.isfinite(float(y.sum())) and not np.isfinite(y).all():
            raise RunAborted(t, "non-finite iterate (NaN/Inf)")
        x = proj(y)

    reported = {av.name: av.report() for av in schemes}
    trajectory = Trajectory.from_pairs(recorded) if recorded is not None else None
    return RunRecord(reported=reported, checkpoints=checkpoints, trajectory=trajectory)
