"""Stochastic subgradient oracles.

Every oracle replies with ghat = g - zhat where g is a true subgradient at
the query point and zhat is conditionally mean-zero noise. Oracles that know
the exact decomposition populate g and zhat so that downstream verifiers can
replay the analysis along the trajectory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core import (
    InputError,
    Interval,
    L2Ball,
    Problem,
    Unconstrained,
    FeasibleSet,
    project,
)

if TYPE_CHECKING:  # only SVM runs load the data layer
    from .data import Dataset

__all__ = [
    "RngStream",
    "Oracle",
    "GradientSample",
    "NoiseModel",
    "NoNoise",
    "BoundedUniformBall",
    "GaussianNoise",
    "full_svm_objective",
    "empirical_mgf_check",
    "gaussian_mgf_exact",
    "QuadraticOracle",
    "LowerBoundOracle",
    "SvmOracleFactory",
    "QuadraticOracleFactory",
    "LowerBoundOracleFactory",
    "quadratic_problem",
    "svm_problem",
]


@dataclass(frozen=True)
class RngStream:
    """One reproducible random stream out of a splittable family.

    Identical (seed, index) pairs yield identical draw sequences; distinct
    indices yield statistically independent streams (one per trial).
    """

    seed: int
    index: int = 0

    def generator(self, *child: int) -> np.random.Generator:
        """The stream's generator, or with ``child`` that of an independent
        child stream (spawn key (index, *child))."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.index, *child))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass
class GradientSample:
    """Oracle reply: the noisy subgradient, plus the true subgradient and the
    noise term when the oracle knows them (ghat = g - zhat)."""

    ghat: np.ndarray
    g: Optional[np.ndarray] = None
    zhat: Optional[np.ndarray] = None


# Draws per sub-batch of empirical_mgf_check (1 MB of float64).
_MGF_SUB_ELEMENTS = 1 << 17


class NoiseModel:
    """Mean-zero noise law for the gradient oracle."""

    def fill(self, gens, out: np.ndarray) -> None:
        """Fill the (rows, count, n) array ``out``: row i with ``count``
        draws of the i-th generator of ``gens``. A row's generator is
        consumed draw by draw, so splitting the draws into blocks leaves
        every draw unchanged."""
        raise NotImplementedError


def _fill_rows(method, gens, rows: np.ndarray) -> None:
    """rows[i] = method(gens[i]) for the Generator ``method`` (``random`` or
    ``standard_normal``), which writes a C-contiguous row in place; any
    other row goes through one row-sized array."""
    for row, gen in zip(rows, gens):
        if row.flags.c_contiguous:
            method(gen, out=row)
        else:
            row[...] = method(gen, row.shape)


@dataclass(frozen=True)
class NoNoise(NoiseModel):
    def fill(self, gens, out):
        out[...] = 0.0


@dataclass(frozen=True)
class BoundedUniformBall(NoiseModel):
    """Uniform density on the ball of the given radius. In one dimension
    this is uniform on [-bound, bound], drawn as ``Generator.uniform``
    draws it, -bound + 2*bound*u. Above one dimension a draw takes n + 2
    standard normals: the first n give the direction, and the last two, a
    and b, the radius bound * exp(-(a^2 + b^2) / (2n)). That is
    bound * U^(1/n), the radius law of the uniform ball, because
    U = exp(-(a^2 + b^2) / 2) is uniform on (0, 1)."""

    bound: float = 1.0

    def __post_init__(self):
        # the one-dimensional draw scales by 2*bound, which must be finite too
        if not (self.bound > 0 and math.isfinite(2.0 * self.bound)):
            raise InputError(f"noise bound must be positive with 2*bound finite, "
                             f"got {self.bound}")

    def fill(self, gens, out):
        n = out.shape[2]
        if n == 1:
            _fill_rows(np.random.Generator.random, gens, out)
            out *= 2.0 * self.bound
            out += -self.bound
            return
        for row, gen in zip(out, gens):
            row[...] = self._ball(row.shape[0], n, gen)

    def _ball(self, count, n, rng):
        g = rng.standard_normal((count, n + 2))
        d = g[:, :n].copy()
        r = np.square(g[:, n])
        r += np.square(g[:, n + 1])  # a^2 + b^2
        del g  # the normals are not held while the draws are scaled
        nrm = np.sqrt(np.einsum("ij,ij->i", d, d))
        nrm[nrm == 0.0] = 1.0  # essentially impossible; the draw is then 0
        r *= -0.5 / n
        np.exp(r, out=r)
        r *= self.bound
        r /= nrm
        d *= r[:, None]
        return d


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    """Isotropic normal with per-coordinate variance scale^2/n, so the
    expected squared norm is scale^2 in any dimension."""

    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise InputError(f"noise scale must be positive and finite, got {self.scale}")

    def fill(self, gens, out):
        _fill_rows(np.random.Generator.standard_normal, gens, out)
        out *= self.scale / math.sqrt(out.shape[2])


def full_svm_objective(w: np.ndarray, dataset: Dataset, lam: float) -> float:
    """(lam/2)*||w||^2 + mean hinge loss over the whole dataset."""
    return float(_svm_objective_rows(np.asarray(w)[None, :], dataset, lam)[0])


def _svm_objective_rows(W: np.ndarray, dataset: Dataset, lam: float) -> np.ndarray:
    """full_svm_objective of each row of a (B, n) array, with one sparse
    product for all the hinge terms, computed in place."""
    if not lam > 0:
        raise InputError(f"regularization parameter must be positive, got {lam}")
    W = np.asarray(W, dtype=np.float64)
    # (B, m) in C order: each row's hinge mean is then summed exactly as a
    # lone row's is, whatever B
    hinge = dataset.dot_rows(W)
    hinge *= dataset.labels
    np.subtract(1.0, hinge, out=hinge)
    np.maximum(0.0, hinge, out=hinge)
    return 0.5 * lam * _squared_norms(W) + hinge.mean(axis=1)


def _squared_norms(W: np.ndarray) -> np.ndarray:
    """||w||^2 of each row of a (B, n) array, summed as einsum sums the rows
    of a many-row array. einsum takes a lone row of more than 8192 entries
    through its buffered loop, whose pieces round differently, so a lone row
    goes through as two broadcast copies: a row's value does not depend on
    how many rows come with it."""
    if W.shape[0] == 1:
        pair = np.broadcast_to(W, (2, W.shape[1]))
        return np.einsum("ij,ij->i", pair, pair)[:1]
    return np.einsum("ij,ij->i", W, W)


def _mgf_pool_size(batches: int) -> int:
    """Threads for the MGF check: one per usable core, at most one per batch."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # no affinity mask on this platform
        cores = os.cpu_count() or 1
    return min(batches, cores)


def _mgf_batch_sums(noise: NoiseModel, n: int, count: int, inv_k2: float,
                    sub: int, rng: np.random.Generator) -> tuple[float, float]:
    """Sums of e and e^2, e = exp(||z||^2 / kappa^2), over ``count`` draws of
    one batch, drawn in sub-batches of ``sub`` rows, each filled into the
    same buffer, and summed into one (count,) array."""
    e = np.empty(count)
    buf = np.empty((1, min(sub, count), n))
    for lo in range(0, count, sub):
        hi = min(count, lo + sub)
        z = buf[:, :hi - lo]
        noise.fill((rng,), z)
        z *= z
        z[0].sum(axis=1, out=e[lo:hi])
    e *= inv_k2
    np.exp(e, out=e)
    total = float(e.sum())
    e *= e
    return total, float(e.sum())


def empirical_mgf_check(
    noise: NoiseModel,
    kappa: float,
    n: int,
    samples: int,
    stream: RngStream,
) -> tuple[float, float]:
    """Monte-Carlo estimate of E[exp(||zhat||^2 / kappa^2)] and its standard
    error sqrt((mean(e^2) - mean(e)^2) / samples), inf when e^2 overflows.

    Samples are taken in batches of 32768; batch b draws from its own
    stream, ``stream.generator(b)`` (spawn key (stream.index, b)). The
    batches run on a thread pool of at most one thread per usable core;
    numpy releases the interpreter lock while it draws, squares, sums and
    exponentiates. The per-batch sums are added with math.fsum in batch
    order, so the result depends only on the arguments, not on the pool
    size or scheduling. Each batch is drawn in sub-batches, so that the
    threads together hold at most one batch of rows and at most
    _MGF_SUB_ELEMENTS draws, whatever the pool size and n; the estimate does
    not depend on the sub-batch size.
    """
    if not kappa > 0:
        raise InputError(f"kappa must be positive, got {kappa}")
    if samples < 10**4:
        raise InputError(f"need at least 1e4 samples, got {samples}")
    if not isinstance(stream, RngStream):
        # a Generator cannot be split into per-batch streams reproducibly
        raise InputError(f"expected an RngStream, got {type(stream)!r}")
    # imported here, so that commands without the MGF check do not load it
    from concurrent.futures import ThreadPoolExecutor

    inv_k2 = 1.0 / (kappa * kappa)
    batch = 1 << 15
    counts = [min(batch, samples - lo) for lo in range(0, samples, batch)]
    workers = _mgf_pool_size(len(counts))
    # the threads together hold as many rows as one thread drawing alone
    sub = max(1, min(batch, _MGF_SUB_ELEMENTS // n) // workers)

    def run(b: int) -> tuple[float, float]:
        return _mgf_batch_sums(noise, n, counts[b], inv_k2, sub, stream.generator(b))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(run, range(len(counts))))
    mean = math.fsum(p[0] for p in parts) / samples
    mean_sq = math.fsum(p[1] for p in parts) / samples
    if not math.isfinite(mean_sq):
        return mean, math.inf
    return mean, math.sqrt(max(0.0, mean_sq - mean * mean) / samples)


def gaussian_mgf_exact(scale: float, kappa: float, n: int) -> float:
    """Closed form of E[exp(||z||^2/kappa^2)] for the isotropic normal noise:
    (1 - 2*scale^2/(n*kappa^2))^(-n/2), infinite when the argument hits 0."""
    a = 2.0 * scale * scale / (n * kappa * kappa)
    if a >= 1.0:
        return math.inf
    return (1.0 - a) ** (-n / 2.0)


class Oracle:
    """One trial's oracle: a law (an oracle factory) bound to the trial's
    RngStream. query(x, t) draws step t's randomness with the law's
    ``fill``, the same fill that fills the lockstep engine's blocks, and
    replies with the law's ``ghat``."""

    def __init__(self, law, stream: RngStream):
        if not isinstance(stream, RngStream):
            raise InputError(f"an oracle draws from an RngStream, got {type(stream)!r}")
        self.law = law
        self.rng = stream.generator()

    def query(self, x: np.ndarray, t: int) -> GradientSample:
        law = self.law
        out = law.draw_buffer(1, 1, x.shape[0])
        law.fill((self.rng,), out, t - 1)
        draw = out[0, 0]
        ghat = law.ghat(x, t, draw)
        if law.draws_zhat:
            # g stored as ghat + zhat, keeping the decomposition exactly consistent
            return GradientSample(ghat, ghat + draw, draw)
        return GradientSample(ghat)


class _Law:
    """An oracle's law. ``fill(gens, out, t0)`` fills the trial-major block
    ``out`` of ``draw_buffer(trials, steps, dim)``'s shape: row i with the
    randomness of steps t0+1 .. t0+steps drawn from the i-th generator of
    ``gens``, which it consumes step by step, so that any split of the steps
    into blocks draws the same values. ``ghat(x, t, draw)`` forms the reply
    at x from step t's draw, ``out[:, t - 1 - t0]``. Called with a trial's
    RngStream, a law gives that trial's Oracle."""

    draws_zhat = False  # whether a draw is the noise zhat itself

    def __call__(self, stream: RngStream) -> Oracle:
        return Oracle(self, stream)

    def draw_buffer(self, trials: int, steps: int, dim: int) -> np.ndarray:
        return np.empty((trials, steps, dim))


class _NoisyGradient(_Law):
    """ghat = mu*x - zhat: the gradient of (mu/2)||x||^2 minus a drawn
    noise row. x and zhat may be stacked (trials, dim) arrays."""

    draws_zhat = True
    mu = 1.0
    noise: Optional[NoiseModel] = None

    def ghat(self, x: np.ndarray, t: int, z) -> np.ndarray:
        return (x if self.mu == 1.0 else self.mu * x) - z


@dataclass(frozen=True)
class QuadraticOracleFactory(_NoisyGradient):
    """Exact gradient of (mu/2)||x||^2 minus a draw of ``noise``."""

    noise: NoiseModel = field(default_factory=NoNoise)
    mu: float = 1.0

    def fill(self, gens, out, t0) -> None:
        self.noise.fill(gens, out)


@dataclass(frozen=True)
class LowerBoundOracleFactory(_NoisyGradient):
    """Adversarial one-dimensional oracle for f(x) = x^2/2 at horizon T.

    Noise is zero for t <= T/2 and t > 3T/4; in between it is
    ((T+1)/(T-t)) * X_t with X_t a uniform sign, +1 when the step's uniform
    draw is below 1/2, so |zhat| <= 6 always.
    """

    T: int

    def __post_init__(self):
        if self.T % 4 != 0:
            raise InputError(f"the lower-bound oracle's horizon {self.T} is not divisible by 4")

    def fill(self, gens, out, t0) -> None:
        T, steps = self.T, out.shape[1]
        if out.shape[2] != 1:
            raise InputError("this oracle is one-dimensional")
        if not 0 <= t0 <= T - steps:
            raise InputError(f"t must lie in [1, {T}], got steps {t0 + 1} to {t0 + steps}")
        out[...] = 0.0
        lo, hi = max(t0, T // 2), min(t0 + steps, (3 * T) // 4)  # 0-based steps [lo, hi)
        if lo < hi:
            u = out[:, lo - t0:hi - t0, 0]
            _fill_rows(np.random.Generator.random, gens, u)
            # in place: u - 1/2 is negative exactly where u < 1/2, so the
            # signed scale is -copysign(scale, u - 1/2). The sign is flipped
            # by multiplying: numpy 2.4's in-place np.negative misreads an
            # operand whose elements lie 64 bytes apart (a one-step window
            # in rows of 8 steps)
            u -= 0.5
            np.copysign(self._scales[lo - T // 2:hi - T // 2], u, out=u)
            u *= -1.0

    @cached_property
    def _scales(self) -> np.ndarray:
        """(T+1)/(T-t) for t in (T/2, 3T/4], computed once per law."""
        T = self.T
        return (T + 1.0) / (T - np.arange(T // 2 + 1, (3 * T) // 4 + 1))


@dataclass(frozen=True)
class SvmOracleFactory(_Law):
    """Stochastic subgradient of the mean-form regularized hinge objective
    from one uniformly sampled data point.

    The reply lam*w - y_i*x_i*[y_i <w, x_i> < 1] is unbiased for the full
    objective (lam/2)||w||^2 + mean_i hinge_i(w). The true subgradient needs
    a full pass, so g and zhat stay unpopulated.
    """

    dataset: Dataset
    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise InputError(f"regularization parameter must be positive, got {self.lam}")

    def draw_buffer(self, trials, steps, dim) -> np.ndarray:
        """(trials, steps) sample indices; the SVM engine keeps its own, in
        ``Dataset``'s index dtype."""
        return np.empty((trials, steps), dtype=np.intp)

    def fill(self, gens, out, t0) -> None:
        # Generator.integers has no out=: each row is drawn, then copied
        for row, gen in zip(out, gens):
            row[:] = gen.integers(self.dataset.m, size=row.shape[0])

    def ghat(self, w: np.ndarray, t: int, i) -> np.ndarray:
        d = self.dataset
        if w.shape != (d.n,):
            raise InputError(f"dimension mismatch: iterate has shape {w.shape}, "
                             f"dataset dimension is {d.n}")
        lo, hi = d.indptr[i], d.indptr[i + 1]
        idx, vals = d.indices[lo:hi], d.data[lo:hi]
        y_i = d.labels[i]
        ghat = self.lam * w
        if y_i * np.dot(w[idx], vals) < 1.0:
            ghat[idx] += -y_i * vals
        return ghat


# one trial's quadratic and lower-bound oracles, by their laws' arguments
def QuadraticOracle(noise: NoiseModel, rng: RngStream, mu: float = 1.0) -> Oracle:
    return Oracle(QuadraticOracleFactory(noise, mu), rng)


def LowerBoundOracle(T: int, rng: RngStream) -> Oracle:
    return Oracle(LowerBoundOracleFactory(T), rng)


@dataclass(frozen=True)
class QuadraticObjective:
    mu: float = 1.0

    def __call__(self, x: np.ndarray) -> float:
        return float(self.rows(np.asarray(x)[None, :])[0])

    def rows(self, X: np.ndarray) -> np.ndarray:
        """The objective of each row of a (B, dim) array."""
        X = np.asarray(X, dtype=np.float64)
        return 0.5 * self.mu * np.einsum("ij,ij->i", X, X)


@dataclass(frozen=True)
class QuadraticGradient:
    mu: float = 1.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.mu * x


def _quadratic_lipschitz(feasible: FeasibleSet, mu: float, dim: int) -> float:
    if isinstance(feasible, Interval):
        return mu * math.sqrt(dim) * max(abs(feasible.lo), abs(feasible.hi))
    if isinstance(feasible, L2Ball):
        return mu * (float(np.linalg.norm(feasible.center)) + feasible.radius)
    return math.inf


def quadratic_problem(
    dim: int,
    mu: float = 1.0,
    feasible: Optional[FeasibleSet] = None,
    lipschitz: Optional[float] = None,
) -> Problem:
    """The mu-strongly-convex bowl (mu/2)||x||^2 with its optimum at 0."""
    if dim < 1:
        raise InputError(f"dimension must be >= 1, got {dim}")
    feasible = feasible if feasible is not None else Unconstrained()
    origin = np.zeros(dim)
    if float(np.linalg.norm(project(feasible, origin))) > 0.0:
        raise InputError("the feasible set must contain the origin")
    if lipschitz is None:
        lipschitz = _quadratic_lipschitz(feasible, mu, dim)
    return Problem(
        objective=QuadraticObjective(mu),
        subgradient=QuadraticGradient(mu),
        feasible=feasible,
        mu=mu,
        lipschitz=lipschitz,
        optimum=(origin, 0.0),
        name=f"quadratic-{dim}d-mu{mu:g}",
    )


@dataclass(frozen=True, eq=False)
class SvmObjective:
    dataset: Dataset
    lam: float

    def __call__(self, w: np.ndarray) -> float:
        return full_svm_objective(w, self.dataset, self.lam)

    def rows(self, W: np.ndarray) -> np.ndarray:
        """The objective of each row of a (B, n) array."""
        return _svm_objective_rows(W, self.dataset, self.lam)


@dataclass(frozen=True, eq=False)
class SvmSubgradient:
    """Deterministic full subgradient: lam*w + mean over margin-violating
    points of -y_i x_i (the hinge's one-sided derivative at ties)."""

    dataset: Dataset
    lam: float

    def __call__(self, w: np.ndarray) -> np.ndarray:
        d = self.dataset
        margins = d.labels * d.dot_all(w)
        active = (margins < 1.0).astype(np.float64)
        weights = -(d.labels * active) / d.m
        return self.lam * w + d.dot_t(weights)


def svm_problem(
    dataset: Dataset, lam: float, feasible: Optional[FeasibleSet] = None
) -> Problem:
    """Mean-form regularized hinge objective; mu equals the regularization
    weight. Subgradient norms are unbounded without an iterate-norm cap, so
    lipschitz is finite only under a ball constraint."""
    if not lam > 0:
        raise InputError(f"regularization parameter must be positive, got {lam}")
    feasible = feasible if feasible is not None else Unconstrained()
    if isinstance(feasible, L2Ball):
        rows = np.repeat(np.arange(dataset.m), np.diff(dataset.indptr))
        max_row = math.sqrt(np.bincount(rows, weights=dataset.data ** 2,
                                        minlength=dataset.m).max())
        cap = float(np.linalg.norm(feasible.center)) + feasible.radius
        lipschitz = lam * cap + max_row
    else:
        lipschitz = math.inf
    return Problem(
        objective=SvmObjective(dataset, lam),
        subgradient=SvmSubgradient(dataset, lam),
        feasible=feasible,
        mu=lam,
        lipschitz=lipschitz,
        optimum=None,
        name=f"svm-m{dataset.m}-n{dataset.n}",
    )
