"""Lockstep execution of many trials for the built-in oracle factories.

All trials advance together with one vectorized update per iteration over a
stacked (trials, dim) state. Per-trial randomness is drawn in blocks of
steps: each trial keeps one persistent ``Generator`` (its RngStream), and at
the start of a block every generator draws that block's noise (or sample
indices, or lower-bound signs) into a shared (block, trials, dim) buffer, in
exactly the order the scalar oracle consumes its stream. numpy's
``uniform``, ``random``, ``standard_normal`` and int64 ``integers`` draws
are the same values whether drawn in one call or in consecutive chunks, so
the block length never changes a result. A block holds at most
``_BLOCK_BYTES`` (and never less than one step), so memory is
O(trials * block * dim) whatever the horizon.

Quadratic and lower-bound problems apply the same elementwise arithmetic
and the same row-wise projection (``project_rows`` of the feasible set) as
the sequential loop, so their results match the sequential runner bitwise.
When the config sets ``record_iterates``, they also record every trial's
trajectory: x_t, zhat_t and ghat_t as (T, trials, dim) arrays in one
``Trajectory``, bitwise equal to what ``run_sgd`` records trial by trial;
the noise is then drawn block by block straight into the recorded zhat.
The verifier fleet and the lower-bound simulation run this way.

SVM problems cost O(nnz) per trial and step. Each trial's iterate is held as
w = s*v with a scalar s, so the shrink by (1 - eta*lam) touches only s and
the hinge step touches only the sampled row's columns of v (the scaled-weight
trick of Pegasos). Each running sum sum_i a_i w_i behind the uniform, suffix
and t-weighted averages is held as A*v - U with a scalar A, and U changes only
where v does (the lazily updated average of ASGD). Dense vectors are built
only at checkpoints and at folds, which write the pending scale into v. The
results agree with the sequential runner up to rounding, not bitwise, and no
trajectory is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..averaging import suffix_window_start
from ..core import InputError, Interval, L2Ball, Problem, Unconstrained, _BALL_SLACK
from ..oracles import (
    BoundedUniformBall,
    GaussianNoise,
    LowerBoundOracleFactory,
    NoNoise,
    QuadraticOracleFactory,
    RngStream,
    SvmOracleFactory,
)
from ..sgd import RunAborted, RunConfig, RunRecord, Trajectory, checkpoint_iterations

__all__ = ["LockstepRun", "unsupported_reason", "run_all"]

# The draw buffer of one block and the recorded trajectories together stay
# within this many bytes.
_BUDGET_BYTES = 1_600_000_000

# Bytes of one block's draw buffer. At 1000 one-dimensional trials a block is
# 1000 steps, so each trial's generator is called once per 1000 steps.
_BLOCK_BYTES = 8_000_000

# An SVM trial folds its scale into v before a step takes |s| below this, or
# above 1 (a step size with eta*lam > 2). The rounding error of A*v - U grows
# like 1/_MIN_SCALE (v is up to 1/_MIN_SCALE times w): at 1e-6 the objectives
# drifted 1.9e-12 from the sequential engine's under an L2 ball, at 1e-2 they
# agree to a few ulps. Folds stay rare (about log10(T) of them under the
# default schedule), and the check catches the exact zero of 1 - eta*lam at
# t = 1.
_MIN_SCALE = 1e-2

_NON_FINITE = "non-finite iterate (NaN/Inf)"


def unsupported_reason(problem: Problem, oracle_factory, config: RunConfig) -> str | None:
    """None when the batched engine can reproduce the sequential run."""
    feasible = problem.feasible
    if not isinstance(feasible, (Unconstrained, Interval, L2Ball)):
        return f"unsupported feasible set {type(feasible).__name__}"
    if isinstance(oracle_factory, QuadraticOracleFactory):
        noise = oracle_factory.noise
        if isinstance(noise, (NoNoise, GaussianNoise)):
            return None
        if isinstance(noise, BoundedUniformBall):
            if config.x1.shape[0] == 1:
                return None
            return "ball noise draws interleave per query above one dimension"
        return f"unsupported noise model {type(noise).__name__}"
    if isinstance(oracle_factory, LowerBoundOracleFactory):
        if config.x1.shape[0] != 1:
            return "the lower-bound oracle is one-dimensional"
        if oracle_factory.T % 4 != 0:
            return "the lower-bound oracle's horizon is not divisible by 4"
        if config.T != oracle_factory.T:
            return "the lower-bound oracle's horizon differs from the run's"
        return None
    if isinstance(oracle_factory, SvmOracleFactory):
        if config.record_iterates:
            return "a scaled SVM iterate has no recorded trajectory"
        if isinstance(feasible, Interval):
            return "the interval box has no O(nnz) projection of a scaled SVM iterate"
        if isinstance(feasible, L2Ball) and np.any(feasible.center != 0.0):
            return "a ball off the origin has no O(nnz) projection of a scaled SVM iterate"
        return None
    return f"unsupported oracle factory {type(oracle_factory).__name__}"


def _block_steps(step_bytes: int, T: int) -> int:
    """Steps per draw block: as many as fit in _BLOCK_BYTES and in the
    budget, at least one and at most T."""
    return max(1, min(T, min(_BLOCK_BYTES, _BUDGET_BYTES) // step_bytes))


def _generators(trials: int, base_seed: int, block: int, T: int):
    """Each trial's generator, in trial order: a list kept across blocks, or,
    when one block covers the run, made one at a time as the draw reaches
    it (thousands of live generators take megabytes)."""
    gens = (RngStream(base_seed, i).generator() for i in range(trials))
    return gens if block >= T else list(gens)


def _reserve(nbytes: int, what: str) -> int:
    """Refuse, before allocating, buffers over the byte budget; returns ``nbytes``."""
    if nbytes > _BUDGET_BYTES:
        raise MemoryError(
            f"{what} need {nbytes} bytes, above the batched engine's budget of "
            f"{_BUDGET_BYTES} bytes"
        )
    return nbytes


@dataclass(eq=False)
class LockstepRun:
    """The results of all trials of one lockstep run.

    ``checkpoints`` holds one (t, {scheme: (trials,) array}) pair per
    checkpoint (a scheme is absent where its report is not yet defined),
    ``reported`` the final (trials, dim) report per scheme, and
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
    from .harness import trial_failure

    return trial_failure(trial, base_seed, RunAborted(t, reason))


def _evaluate(problem: Problem, reports: dict[str, np.ndarray], t: int, base_seed: int):
    """Objective of every trial's report per scheme; a non-finite value
    fails the trial at this checkpoint."""
    vals: dict[str, np.ndarray] = {}
    for nm, rows in reports.items():
        v = problem.objective_rows(rows)
        bad = ~np.isfinite(v)
        if bad.any():
            raise _failure(int(np.argmax(bad)), base_seed, t,
                           f"non-finite {nm} objective at checkpoint")
        vals[nm] = v
    return vals


def _draw_noise(factory, gens, out: np.ndarray, t0: int) -> None:
    """Write zhat of steps t0+1 .. t0+len(out) of every trial into the
    (steps, trials, dim) array ``out``, drawn from each trial's generator in
    the order its oracle draws it."""
    steps = out.shape[0]
    if isinstance(factory, LowerBoundOracleFactory):
        # one uniform sign per step t in (T/2, 3T/4], scaled as lb_oracle_query scales it
        T = factory.T
        lo, hi = max(t0, T // 2), min(t0 + steps, (3 * T) // 4)  # 0-based steps [lo, hi)
        out.fill(0.0)
        if lo < hi:
            coeff = (T + 1.0) / (T - np.arange(lo + 1, hi + 1))
            for i, gen in enumerate(gens):
                r = gen.random(hi - lo)
                out[lo - t0:hi - t0, i, 0] = coeff * np.where(r < 0.5, 1.0, -1.0)
        return
    noise = factory.noise
    for i, gen in enumerate(gens):
        if isinstance(noise, BoundedUniformBall):
            out[:, i, 0] = gen.uniform(-noise.bound, noise.bound, size=steps)
        else:
            out[:, i] = noise.sample_batch(steps, out.shape[2], gen)


def _draw_indices(gens, m: int, out: np.ndarray) -> None:
    """Write the sample index of the next len(out) steps of every trial into
    the (steps, trials) array ``out``, as svm_oracle_query draws them."""
    for i, gen in enumerate(gens):
        out[:, i] = gen.integers(m, size=out.shape[0])


class _StackedAveragers:
    """The four schemes updated over a stacked (trials, dim) state, with the
    same arithmetic as the per-run averagers."""

    def __init__(self, scheme_names, T, suffix_alpha, trials, dim):
        self.names = list(scheme_names)
        self.T = T
        self.suffix_start = suffix_window_start(T, suffix_alpha)
        self.state: dict[str, np.ndarray | None] = {nm: None for nm in self.names}
        self.suffix_count = 0

    def observe(self, X, t):
        for nm in self.names:
            z = self.state[nm]
            if nm == "final":
                self.state[nm] = X
            elif nm == "uniform":
                if t == 1:
                    self.state[nm] = X.copy()
                else:
                    z += (X - z) / t
            elif nm == "nonuniform":
                if t == 1:
                    self.state[nm] = X.copy()
                else:
                    rho = 2.0 / (t + 1.0)
                    self.state[nm] = rho * X + (1.0 - rho) * z
            else:  # suffix
                if t < self.suffix_start:
                    continue
                self.suffix_count += 1
                if self.suffix_count == 1:
                    self.state[nm] = X.copy()
                else:
                    z += (X - z) / self.suffix_count

    def reports(self) -> dict[str, np.ndarray]:
        return {nm: z for nm, z in self.state.items() if z is not None}


def _run_quadratic(problem, factory, config, scheme_names, trials, base_seed, suffix_alpha):
    """Quadratic and lower-bound trials: ghat = mu*x - zhat, with the noise
    drawn per block (the lower-bound oracle's mu is 1)."""
    T, dim = config.T, config.x1.shape[0]
    record = config.record_iterates
    mu = factory.mu if isinstance(factory, QuadraticOracleFactory) else 1.0
    noiseless = isinstance(getattr(factory, "noise", None), NoNoise)
    step_bytes = trials * dim * 8
    block = T if noiseless else _block_steps(step_bytes, T)
    if record:
        # the recorded iterates, ghat and zhat; each block's noise is drawn into zhat
        reserved = _reserve(3 * T * step_bytes, "recorded trajectories")
        Xs, Gs = np.empty((T, trials, dim)), np.empty((T, trials, dim))
        Zs = np.zeros((T, trials, dim))
    else:
        reserved = 0 if noiseless else _reserve(block * step_bytes, "one block of noise draws")
        buf = None if noiseless else np.empty((block, trials, dim))
    gens = None if noiseless else _generators(trials, base_seed, block, T)
    X = np.tile(np.asarray(config.x1, dtype=np.float64), (trials, 1))
    avs = _StackedAveragers(scheme_names, T, suffix_alpha, trials, dim)
    sched = config.schedule
    denom_scale = problem.mu if sched.mu_scaled else 1.0
    cp_set = set(checkpoint_iterations(config))
    feasible = problem.feasible

    cp_values: list[tuple[int, dict[str, np.ndarray]]] = []
    Z = None
    for t in range(1, T + 1):
        k = (t - 1) % block
        if k == 0 and not noiseless:
            t0, steps = t - 1, min(block, T - t + 1)
            Z = Zs[t0:t0 + steps] if record else buf[:steps]
            _draw_noise(factory, gens, Z, t0)
        avs.observe(X, t)
        G = X if mu == 1.0 else mu * X
        Ghat = G if Z is None else G - Z[k]
        if record:
            Xs[t - 1] = X
            Gs[t - 1] = Ghat
        if t in cp_set:
            cp_values.append((t, _evaluate(problem, avs.reports(), t, base_seed)))
        eta = sched.c / (denom_scale * (t + sched.shift))
        Y = X - eta * Ghat
        if not np.isfinite(Y).all():
            bad = int(np.nonzero(~np.isfinite(Y).all(axis=1))[0][0])
            raise _failure(bad, base_seed, t, _NON_FINITE)
        X = feasible.project_rows(Y)
    trajectory = Trajectory(Xs, Gs, Zs) if record else None
    return LockstepRun(cp_values, avs.reports(), reserved, trajectory)


class _ScaledSvm:
    """Stacked SVM trials with iterates w = s*v and, per averaged scheme k,
    sums A[k]*v - U[k]; see the module docstring. ``radius`` is set for an
    L2 ball about the origin, whose projection rescales s using the running
    ||v||^2 in ``vv``."""

    def __init__(self, problem, factory: SvmOracleFactory, config, scheme_names,
                 trials, base_seed, suffix_alpha):
        d = factory.dataset
        self.T = config.T
        self.block = _block_steps(trials * 8, config.T)
        self.reserved = _reserve(self.block * trials * 8, "one block of sample indices")
        # (block, trials): step t reads one contiguous row
        self.idx = np.empty((self.block, trials), dtype=np.int64)
        self.gens = _generators(trials, base_seed, self.block, config.T)
        self.m = d.m
        self.starts, self.indices, self.data = d.indptr[:-1], d.indices, d.data
        self.lens = np.diff(d.indptr)
        self.labels = d.labels
        self.lam = factory.lam
        self.base_seed = base_seed
        self.names = list(scheme_names)
        self.averaged = [nm for nm in self.names if nm != "final"]
        self.suffix_start = suffix_window_start(config.T, suffix_alpha)
        self.s = np.ones(trials)
        self.v = np.tile(np.asarray(config.x1, dtype=np.float64), (trials, 1))
        self.A = np.zeros((len(self.averaged), trials))
        self.U = np.zeros((len(self.averaged), trials, d.n))
        feasible = problem.feasible
        self.radius = feasible.radius if isinstance(feasible, L2Ball) else None
        self.vv = np.einsum("ij,ij->i", self.v, self.v) if self.radius is not None else None
        # flat views for the scatter updates; v and U are only written in place
        self.v_flat = self.v.reshape(-1)
        self.U_flat = [U.reshape(-1) for U in self.U]
        self.row_base = np.arange(trials) * d.n
        self.trial_ids = np.arange(trials)

    def _weight(self, nm, t) -> float:
        """a_t of the sum behind scheme ``nm``."""
        if nm == "nonuniform":
            return float(t)
        if nm == "suffix" and t < self.suffix_start:
            return 0.0
        return 1.0

    def _total(self, nm, t) -> float:
        """The sum of a_i over i <= t, which divides the sum into the average."""
        if nm == "uniform":
            return float(t)
        if nm == "nonuniform":
            return t * (t + 1) / 2.0
        return float(max(0, t - self.suffix_start + 1))

    def observe(self, t):
        if self.averaged:
            a = np.array([self._weight(nm, t) for nm in self.averaged])
            self.A += a[:, None] * self.s

    def reports(self, t) -> dict[str, np.ndarray]:
        out = {}
        for nm in self.names:
            if nm == "final":
                out[nm] = self.s[:, None] * self.v
                continue
            k = self.averaged.index(nm)
            total = self._total(nm, t)
            if total:
                out[nm] = (self.A[k][:, None] * self.v - self.U[k]) / total
        return out

    def fold(self, rows, scale, t):
        """Write the sums densely into U, then v <- scale*v, s <- 1 and A <- 0
        for the given trials."""
        v = self.v[rows]
        self.U[:, rows] -= self.A[:, rows, None] * v
        self.A[:, rows] = 0.0
        v *= scale[:, None]
        if not np.isfinite(v).all():
            bad = int(rows[np.nonzero(~np.isfinite(v).all(axis=1))[0][0]])
            raise _failure(bad, self.base_seed, t, _NON_FINITE)
        self.v[rows] = v
        self.s[rows] = 1.0
        if self.vv is not None:
            self.vv[rows] = np.einsum("ij,ij->i", v, v)

    def step(self, t, eta):
        k = (t - 1) % self.block
        if k == 0:
            _draw_indices(self.gens, self.m, self.idx[:min(self.block, self.T - t + 1)])
        sel = self.idx[k]
        starts = self.starts[sel]
        lens = self.lens[sel]
        ends = lens.cumsum()
        # positions of the sampled rows' entries in the CSR arrays, trial-major
        pos = np.arange(ends[-1]) + (starts - ends + lens).repeat(lens)
        owner = self.trial_ids.repeat(lens)
        flat = self.row_base.repeat(lens) + self.indices[pos]
        vals = self.data[pos]
        vflat = self.v_flat
        y = self.labels[sel]
        margins = self.s * np.bincount(owner, weights=vflat[flat] * vals,
                                       minlength=len(sel)) * y

        s = self.s * (1.0 - eta * self.lam)
        self.s = s
        # keeping _MIN_SCALE <= |s| <= 1 makes every entry of w finite
        # exactly when the same entry of v is
        out = ~((abs(s) >= _MIN_SCALE) & (abs(s) <= 1.0))
        if out.any():
            rows = np.nonzero(out)[0]
            self.fold(rows, s[rows], t)

        active = margins < 1.0
        if active.any():
            if not active.all():
                keep = active[owner]
                owner, flat, vals = owner[keep], flat[keep], vals[keep]
            delta = (eta * y / s)[owner] * vals
            old = vflat[flat]
            new = old + delta
            vflat[flat] = new
            for A, U in zip(self.A, self.U_flat):
                U[flat] += A[owner] * delta
            if self.vv is not None:
                self.vv += np.bincount(owner, weights=new * new - old * old,
                                       minlength=len(sel))
            bad = ~np.isfinite(new)
            if bad.any():
                raise _failure(int(owner[np.argmax(bad)]), self.base_seed, t, _NON_FINITE)
        if self.radius is not None:
            # the running sum's rounding can leave vv just below 0 near v = 0
            nrm = abs(s) * np.sqrt(np.maximum(self.vv, 0.0))
            over = nrm > self.radius * (1.0 + _BALL_SLACK)
            if over.any():
                s[over] *= self.radius / nrm[over]


def _run_svm(problem, factory, config, scheme_names, trials, base_seed, suffix_alpha):
    plan = _ScaledSvm(problem, factory, config, scheme_names, trials, base_seed, suffix_alpha)
    sched = config.schedule
    denom_scale = problem.mu if sched.mu_scaled else 1.0
    cp_set = set(checkpoint_iterations(config))
    cp_values: list[tuple[int, dict[str, np.ndarray]]] = []
    for t in range(1, config.T + 1):
        plan.observe(t)
        if t in cp_set:
            reports = plan.reports(t)
            cp_values.append((t, _evaluate(problem, reports, t, base_seed)))
        plan.step(t, sched.c / (denom_scale * (t + sched.shift)))
    # T is always a checkpoint, so these are the final reports
    return LockstepRun(cp_values, reports, plan.reserved)


def run_all(
    problem: Problem,
    oracle_factory,
    config: RunConfig,
    scheme_names,
    trials: int,
    base_seed: int,
    suffix_alpha: float,
) -> LockstepRun:
    """Trials 0..trials-1 of the sequential trial runner, in lockstep; trial
    i draws from RngStream(base_seed, i)."""
    reason = unsupported_reason(problem, oracle_factory, config)
    if reason:
        raise InputError(f"batched engine unavailable: {reason}")
    run = _run_svm if isinstance(oracle_factory, SvmOracleFactory) else _run_quadratic
    return run(problem, oracle_factory, config, scheme_names, trials, base_seed,
               suffix_alpha)
