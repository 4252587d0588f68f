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
from typing import Optional, Union

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
from .data import Dataset

__all__ = [
    "RngStream",
    "as_generator",
    "GradientSample",
    "NoiseModel",
    "NoNoise",
    "BoundedUniformBall",
    "GaussianNoise",
    "svm_oracle_query",
    "full_svm_objective",
    "quadratic_oracle_query",
    "lb_oracle_query",
    "empirical_mgf_check",
    "gaussian_mgf_exact",
    "SvmOracle",
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


def as_generator(rng: Union[RngStream, np.random.Generator]) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InputError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


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

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample_batch(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """(count, n) draws. Consumes the stream exactly like ``count``
        successive sample() calls for NoNoise, Gaussian, and 1-D ball noise;
        for higher-dimensional ball noise only the law matches."""
        return np.stack([self.sample(n, rng) for _ in range(count)])

    def batch_by_rows(self, n: int) -> bool:
        """Whether sample_batch draws its rows one after another from the
        stream, so that splitting a batch leaves every draw unchanged."""
        return True


@dataclass(frozen=True)
class NoNoise(NoiseModel):
    def sample(self, n, rng):
        return np.zeros(n)

    def sample_batch(self, count, n, rng):
        return np.zeros((count, n))


@dataclass(frozen=True)
class BoundedUniformBall(NoiseModel):
    """Uniform density on the ball of the given radius: spherical direction
    times radius bound * U^(1/n). In one dimension this is uniform on
    [-bound, bound]."""

    bound: float = 1.0

    def __post_init__(self):
        if not self.bound > 0:
            raise InputError(f"noise bound must be positive, got {self.bound}")

    def sample(self, n, rng):
        if n == 1:
            return rng.uniform(-self.bound, self.bound, size=1)
        g = rng.standard_normal(n)
        nrm = float(np.linalg.norm(g))
        while nrm == 0.0:  # essentially impossible, but keeps the math total
            g = rng.standard_normal(n)
            nrm = float(np.linalg.norm(g))
        r = self.bound * rng.random() ** (1.0 / n)
        return g * (r / nrm)

    def sample_batch(self, count, n, rng):
        if n == 1:
            return rng.uniform(-self.bound, self.bound, size=(count, 1))
        g = rng.standard_normal((count, n))
        nrm = np.linalg.norm(g, axis=1, keepdims=True)
        nrm[nrm == 0.0] = 1.0
        r = self.bound * rng.random(count) ** (1.0 / n)
        return g * (r[:, None] / nrm)

    def batch_by_rows(self, n):
        # above one dimension, all the normals come before all the radii
        return n == 1


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    """Isotropic normal with per-coordinate variance scale^2/n, so the
    expected squared norm is scale^2 in any dimension."""

    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise InputError(f"noise scale must be positive, got {self.scale}")

    def sample(self, n, rng):
        return rng.standard_normal(n) * (self.scale / math.sqrt(n))

    def sample_batch(self, count, n, rng):
        return rng.standard_normal((count, n)) * (self.scale / math.sqrt(n))


def svm_oracle_query(
    w: np.ndarray,
    dataset: Dataset,
    lam: float,
    rng: Union[RngStream, np.random.Generator],
) -> GradientSample:
    """Stochastic subgradient of the mean-form regularized hinge objective.

    Samples one data point uniformly and returns
    lam*w - y_i*x_i*[y_i <w, x_i> < 1], which is unbiased for the full
    objective (lam/2)||w||^2 + mean_i hinge_i(w). The true subgradient needs
    a full pass, so g and zhat stay unpopulated.
    """
    if not lam > 0:
        raise InputError(f"regularization parameter must be positive, got {lam}")
    if w.shape != (dataset.n,):
        raise InputError(f"dimension mismatch: iterate has shape {w.shape}, "
                         f"dataset dimension is {dataset.n}")
    rng = as_generator(rng)
    i = int(rng.integers(dataset.m))
    lo, hi = dataset.indptr[i], dataset.indptr[i + 1]
    idx, vals = dataset.indices[lo:hi], dataset.data[lo:hi]
    y_i = dataset.labels[i]
    ghat = lam * w
    if y_i * np.dot(w[idx], vals) < 1.0:
        ghat[idx] += -y_i * vals
    return GradientSample(ghat)


def full_svm_objective(w: np.ndarray, dataset: Dataset, lam: float) -> float:
    """(lam/2)*||w||^2 + mean hinge loss over the whole dataset."""
    return float(_svm_objective_rows(np.asarray(w)[None, :], dataset, lam)[0])


def _svm_objective_rows(W: np.ndarray, dataset: Dataset, lam: float) -> np.ndarray:
    """full_svm_objective of each row of a (B, n) array, with one sparse
    product for all the hinge terms."""
    if not lam > 0:
        raise InputError(f"regularization parameter must be positive, got {lam}")
    W = np.asarray(W, dtype=np.float64)
    # (B, m) in C order: each row's hinge mean is then summed exactly as a
    # lone row's is, whatever B
    margins = dataset.labels * np.ascontiguousarray(dataset.matrix().dot(W.T).T)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * lam * np.einsum("ij,ij->i", W, W) + hinge.mean(axis=1)


def quadratic_oracle_query(
    x: np.ndarray,
    noise: NoiseModel,
    rng: Union[RngStream, np.random.Generator],
    mu: float = 1.0,
) -> GradientSample:
    """Exact gradient of (mu/2)||x||^2 minus an injectable noise draw.

    The g field is stored as ghat + zhat (within one ulp of mu*x) so the
    returned decomposition is exactly self-consistent.
    """
    rng = as_generator(rng)
    g = x if mu == 1.0 else mu * x
    z = noise.sample(x.shape[0], rng)
    ghat = g - z
    return GradientSample(ghat, ghat + z, z)


def lb_oracle_query(
    x_t: np.ndarray,
    t: int,
    T: int,
    rng: Union[RngStream, np.random.Generator],
) -> GradientSample:
    """Adversarial one-dimensional oracle for f(x) = x^2/2.

    Noise is zero for t <= T/2 and t > 3T/4; in between it is
    ((T+1)/(T-t)) * X_t with X_t a uniform sign, so |zhat| <= 6 always.
    """
    if T % 4 != 0:
        raise InputError(f"horizon must be divisible by 4, got {T}")
    if not 1 <= t <= T:
        raise InputError(f"t must lie in [1, {T}], got {t}")
    if x_t.shape[0] != 1:
        raise InputError("this oracle is one-dimensional")
    rng = as_generator(rng)
    if t <= T // 2 or t > (3 * T) // 4:
        z = 0.0
    else:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        z = (T + 1.0) / (T - t) * sign
    zv = np.array([z])
    ghat = x_t - zv
    # g stored as ghat + zhat, keeping the decomposition exactly consistent
    return GradientSample(ghat, ghat + zv, zv)


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
    one batch, drawn in sub-batches of ``sub`` rows into one (count,) buffer."""
    e = np.empty(count)
    for lo in range(0, count, sub):
        hi = min(count, lo + sub)
        z = noise.sample_batch(hi - lo, n, rng)
        z *= z
        z.sum(axis=1, out=e[lo:hi])
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
    size or scheduling. When the noise draws a batch row by row
    (``batch_by_rows``), each batch is drawn in sub-batches, so that the
    threads together hold at most _MGF_SUB_ELEMENTS draws and memory stays
    bounded in n; the estimate does not depend on the sub-batch size. Other
    noise is drawn one whole batch at a time, on only as many threads as
    keep the batches in flight within _MGF_SUB_ELEMENTS draws (at least one).
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
    if noise.batch_by_rows(n):
        sub = max(1, _MGF_SUB_ELEMENTS // (n * workers))
    else:
        sub = batch
        workers = min(workers, max(1, _MGF_SUB_ELEMENTS // (batch * n)))

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


class SvmOracle:
    """Per-query uniform sampling over the dataset; one stream per trial."""

    def __init__(self, dataset: Dataset, lam: float, rng: Union[RngStream, np.random.Generator]):
        if not lam > 0:
            raise InputError(f"regularization parameter must be positive, got {lam}")
        self.dataset = dataset
        self.lam = float(lam)
        self.rng = as_generator(rng)

    def query(self, w: np.ndarray, t: int) -> GradientSample:
        return svm_oracle_query(w, self.dataset, self.lam, self.rng)


class QuadraticOracle:
    def __init__(
        self,
        noise: NoiseModel,
        rng: Union[RngStream, np.random.Generator],
        mu: float = 1.0,
    ):
        self.noise = noise
        self.mu = float(mu)
        self.rng = as_generator(rng)

    def query(self, x: np.ndarray, t: int) -> GradientSample:
        return quadratic_oracle_query(x, self.noise, self.rng, mu=self.mu)


class LowerBoundOracle:
    def __init__(self, T: int, rng: Union[RngStream, np.random.Generator]):
        if T % 4 != 0:
            raise InputError(f"horizon must be divisible by 4, got {T}")
        self.T = int(T)
        self.rng = as_generator(rng)

    def query(self, x: np.ndarray, t: int) -> GradientSample:
        return lb_oracle_query(x, t, self.T, self.rng)


@dataclass(frozen=True)
class SvmOracleFactory:
    dataset: Dataset
    lam: float

    def __call__(self, rng: Union[RngStream, np.random.Generator]) -> SvmOracle:
        return SvmOracle(self.dataset, self.lam, rng)


@dataclass(frozen=True)
class QuadraticOracleFactory:
    noise: NoiseModel = field(default_factory=NoNoise)
    mu: float = 1.0

    def __call__(self, rng: Union[RngStream, np.random.Generator]) -> QuadraticOracle:
        return QuadraticOracle(self.noise, rng, mu=self.mu)


@dataclass(frozen=True)
class LowerBoundOracleFactory:
    T: int

    def __call__(self, rng: Union[RngStream, np.random.Generator]) -> LowerBoundOracle:
        return LowerBoundOracle(self.T, rng)


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
        return self.lam * w + d.matrix().T.dot(weights)


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
