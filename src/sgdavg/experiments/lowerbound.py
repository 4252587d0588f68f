"""Exact law of the weighted report under the adversarial oracle, and the
simulation-versus-enumeration comparison.

With the 1/(t+1) step sizes, start 0, and the adversarial noise, the
weighted report collapses to (1/2) * (mean of the T/4 realized signs), so
its objective value has an exact binomial distribution. The simulator
runs the full SGD pipeline for all trials in lockstep (``run_sgd`` on the
stacked trials, bitwise equal to it trial by trial) and measures the Kolmogorov
distance to that law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..core import InputError, Interval, LOWER_BOUND_SCHEDULE
from ..oracles import LowerBoundOracleFactory, quadratic_problem
from ..sgd import RunConfig, RunRecord
from . import batched

__all__ = [
    "lb_exact_distribution_rational",
    "lb_exact_distribution",
    "lb_problem",
    "lb_run_config",
    "iterate_identity_error",
    "kolmogorov_gap",
    "LbMatchResult",
    "lb_simulate_and_match",
    "lb_exceedance_probability",
]

def lb_exact_distribution_rational(T: int) -> list[tuple[Fraction, Fraction]]:
    """Exact pmf of the reported objective value. The sum of the T/4 signs
    is 2j - T/4 with j ~ Binomial(T/4, 1/2), so the pmf has O(T) terms;
    values and probabilities are exact rationals."""
    if T % 4 != 0 or T < 4:
        raise InputError(f"horizon must be a positive multiple of 4, got {T}")
    m = T // 4
    pmf: dict[Fraction, Fraction] = {}
    for j in range(m + 1):
        value = Fraction(1, 2) * Fraction(2 * j - m, T // 2) ** 2
        pmf[value] = pmf.get(value, Fraction(0)) + Fraction(math.comb(m, j), 2**m)
    return sorted(pmf.items())


def lb_exact_distribution(T: int) -> list[tuple[float, Fraction]]:
    """Same pmf with float values (probabilities stay rational)."""
    return [(float(v), p) for v, p in lb_exact_distribution_rational(T)]


def lb_problem():
    """f(x) = x^2/2 on [-6, 6]; the adversarial construction's setting."""
    return quadratic_problem(1, mu=1.0, feasible=Interval(-6.0, 6.0))


def lb_run_config(T: int, record: bool = True) -> RunConfig:
    return RunConfig(
        T=T,
        schedule=LOWER_BOUND_SCHEDULE,
        x1=np.zeros(1),
        eval_every=T,
        record_iterates=record,
    )


def _identity_error(X: np.ndarray, Z: np.ndarray) -> float:
    """max_t |x_t - (1/t) * sum_{i<t} zhat_i| over (T, ...) arrays of
    iterates and noise, for every trial and coordinate at once, in one
    array of their shape."""
    T = X.shape[0]
    err = np.empty_like(Z)
    err[0] = 0.0
    np.cumsum(Z[:-1], axis=0, out=err[1:])
    err /= np.arange(1, T + 1).reshape((T,) + (1,) * (Z.ndim - 1))
    np.subtract(X, err, out=err)
    return float(np.abs(err, out=err).max())


def iterate_identity_error(record: RunRecord) -> float:
    """max_t |x_t - (1/t) * sum_{i<t} zhat_i| over the stored trajectory."""
    traj = record.trajectory
    if traj is None or traj.zhat is None:
        raise InputError("trajectory recording is required for the identity check")
    return _identity_error(traj.X, traj.zhat)


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.union1d(a, b) by a sort and a neighbour mask, as np.unique finds
    it, without loading numpy.ma (np.unique's import of it costs a command
    11-16 ms and 1.6 MB)."""
    points = np.concatenate((a, b), axis=None)
    points.sort()
    keep = np.empty(points.size, dtype=bool)
    keep[:1] = True
    np.not_equal(points[1:], points[:-1], out=keep[1:])
    return points[keep]


def kolmogorov_gap(samples, pmf: list[tuple[float, Fraction]]) -> float:
    """Maximum absolute CDF difference between an empirical sample and an
    exact discrete pmf. Sample values within 1e-9 of a support point are
    snapped onto it."""
    samples = np.asarray(samples, dtype=np.float64)
    support = np.array([v for v, _ in pmf])
    probs = np.array([float(p) for _, p in pmf])
    snapped = samples.copy()
    if support.size:
        pos = np.clip(np.searchsorted(support, samples), 0, support.size - 1)
        left = np.clip(pos - 1, 0, support.size - 1)
        for cand in (pos, left):
            close = np.abs(support[cand] - snapped) <= 1e-9
            snapped = np.where(close, support[cand], snapped)
    points = _sorted_union(support, snapped)
    emp = np.searchsorted(np.sort(snapped), points, side="right") / snapped.size
    cdf = np.concatenate(([0.0], np.cumsum(probs)))
    exact = cdf[np.searchsorted(support, points, side="right")]
    return float(np.max(np.abs(emp - exact)))


@dataclass(eq=False)
class LbMatchResult:
    kolmogorov_gap: float
    max_identity_error: float
    objective_values: np.ndarray


def lb_simulate_and_match(T: int, trials: int, base_seed: int) -> LbMatchResult:
    """Run the full pipeline (quadratic problem on [-6,6], adversarial
    oracle, 1/(t+1) steps, x1 = 0) for ``trials`` streams in lockstep and
    compare the reported objective's empirical law against the exact
    enumeration. Trial i draws from RngStream(base_seed, i)."""
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    exact = lb_exact_distribution(T)
    run = batched.run_all(lb_problem(), LowerBoundOracleFactory(T), lb_run_config(T),
                          ["nonuniform"], trials, base_seed, suffix_alpha=0.5)
    (_, final), = run.checkpoints  # eval_every = T: the final report's objective
    values = final["nonuniform"]
    worst_identity = _identity_error(run.trajectory.X, run.trajectory.zhat)
    gap = kolmogorov_gap(values, exact)
    return LbMatchResult(
        kolmogorov_gap=gap, max_identity_error=worst_identity, objective_values=values
    )


def lb_exceedance_probability(T: int, delta: float) -> tuple[float, Fraction]:
    """P[f(report) >= log(1/delta)/(9T)] under the exact law; returns the
    threshold and the exact probability."""
    if not 0.0 < delta < 1.0:
        raise InputError(f"delta must lie in (0, 1), got {delta}")
    threshold = math.log(1.0 / delta) / (9.0 * T)
    prob = Fraction(0)
    for v, p in lb_exact_distribution(T):
        if v >= threshold:
            prob += p
    return threshold, prob
