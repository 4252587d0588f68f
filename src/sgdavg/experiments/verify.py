"""Numeric checks of the trajectory inequalities behind the convergence
analysis. Each verifier consumes a recorded trajectory with the oracle's
exact noise decomposition and checks an inequality that holds surely
(probability one), so any violation beyond float tolerance is a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import DEFAULT_SCHEDULE, InputError, Interval
from ..oracles import (
    BoundedUniformBall,
    GaussianNoise,
    QuadraticOracleFactory,
    RngStream,
    empirical_mgf_check,
    gaussian_mgf_exact,
    quadratic_problem,
)
from ..sgd import RunConfig, Trajectory
from . import batched

__all__ = [
    "CheckResult",
    "telescoping_product_coeff",
    "literal_telescoping_product",
    "product_identity_sweep",
    "verify_diameter_bound",
    "verify_recursive_bound",
    "chicken_and_egg_coefficients",
    "verify_chicken_and_egg",
    "fleet_trajectories",
    "run_verification_fleet",
]


@dataclass(eq=False)
class CheckResult:
    """Outcome of one verifier: the headline scalar, its pass boundary, and
    auxiliary measurements."""

    name: str
    value: float
    threshold: float
    passed: bool
    detail: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: value={self.value:.6e} threshold={self.threshold:.6e}"


def telescoping_product_coeff(i: int, t: int) -> float:
    """Closed form of prod_{j=i+1..t} (1 - 4/(j+1)) for 3 <= i <= t:
    (i-2)(i-1)i(i+1) / ((t-2)(t-1)t(t+1)). Equals 1 at i = t."""
    if i < 3:
        raise InputError(f"i must be >= 3 (the formula hits zero factors), got {i}")
    if t < i:
        raise InputError(f"need i <= t, got i={i}, t={t}")
    num = (i - 2.0) * (i - 1.0) * i * (i + 1.0)
    den = (t - 2.0) * (t - 1.0) * t * (t + 1.0)
    return num / den


def literal_telescoping_product(i: int, t: int) -> float:
    """Brute-force factor-by-factor product; the oracle the closed form is
    checked against."""
    if i < 3 or t < i:
        raise InputError(f"need 3 <= i <= t, got i={i}, t={t}")
    p = 1.0
    for j in range(i + 1, t + 1):
        p *= 1.0 - 4.0 / (j + 1.0)
    return p


def product_identity_sweep(max_t: int = 200) -> CheckResult:
    """Closed form versus the literal product over all 3 <= i < t <= max_t.

    For each i, one cumulative product of the factors 1 - 4/(j+1) gives the
    literal product at every t > i, multiplied in the order
    ``literal_telescoping_product`` uses. The worst pair is the first
    maximum in t-major, then i, order.
    """
    worst = 0.0
    worst_pair = (3, 4)
    j = np.arange(4, max_t + 1, dtype=np.float64)
    factors = 1.0 - 4.0 / (j + 1.0)
    den = (j - 2.0) * (j - 1.0) * j * (j + 1.0)  # closed-form denominator at t = j
    for i in range(3, max_t):
        lit = np.cumprod(factors[i - 3:])  # t = i+1 .. max_t
        closed = (i - 2.0) * (i - 1.0) * i * (i + 1.0) / den[i - 3:]
        err = np.abs(closed - lit) / np.maximum(np.abs(lit), 1e-300)
        k = int(np.argmax(err))
        t = i + 1 + k
        if err[k] > worst or (err[k] == worst and worst > 0.0 and t < worst_pair[1]):
            worst = float(err[k])
            worst_pair = (i, t)
    return CheckResult(
        name="product-identity",
        value=worst,
        threshold=1e-12,
        passed=worst <= 1e-12,
        detail={"max_t": max_t, "worst_pair": list(worst_pair)},
    )


def _trajectory_arrays(trajectory, xstar, need_decomposition=True):
    """(X, D, Z, Ghat) of a Trajectory or a sequence of (x_t, sample)
    pairs, with D = X - xstar."""
    if trajectory is None or len(trajectory) == 0:
        raise InputError("a recorded trajectory is required")
    if xstar is None:
        raise InputError("the problem optimum is required")
    if not isinstance(trajectory, Trajectory):
        trajectory = Trajectory.from_pairs(trajectory)
    X = trajectory.X
    D = X - np.asarray(xstar, dtype=np.float64)
    if not need_decomposition:
        return X, D, None, None
    if trajectory.zhat is None:
        raise InputError("trajectory lacks the oracle's noise decomposition")
    return X, D, trajectory.zhat, trajectory.ghat


def verify_diameter_bound(trajectory, L: float, mu: float, xstar) -> CheckResult:
    """Worst ratio of iterate-to-optimum distance against 2L/mu."""
    if not math.isfinite(L):
        raise InputError("a finite Lipschitz bound is required")
    _, D, _, _ = _trajectory_arrays(trajectory, xstar, need_decomposition=False)
    dists = np.linalg.norm(D, axis=1)
    bound = 2.0 * L / mu
    ratio = float(dists.max() / bound)
    return CheckResult(
        name="diameter-bound",
        value=ratio,
        threshold=1.0 + 1e-9,
        passed=ratio <= 1.0 + 1e-9,
        detail={"worst_distance": float(dists.max()), "bound": bound},
    )


def _compensated_cumsum(terms: np.ndarray) -> np.ndarray:
    """Running sums along axis 0: entry k is terms[0] + ... + terms[k],
    accumulated with Neumaier's compensation (the scalar algorithm's
    arithmetic, applied elementwise to the trailing axes)."""
    s = np.zeros(terms.shape[1:])  # running sum
    c = np.zeros(terms.shape[1:])  # compensation
    out = np.empty_like(terms)
    for k, x in enumerate(terms):
        new = s + x
        c += np.where(np.abs(s) >= np.abs(x), (s - new) + x, (x - new) + s)
        s = new
        out[k] = s + c
    return out


def verify_recursive_bound(trajectory, mu: float, xstar) -> CheckResult:
    """Checks, for every t in [4, T-1], that the squared distance to the
    optimum at step t+1 is dominated by the telescoped weighted sums of
    noise inner products and exact squared gradient norms:

        ||x_{t+1} - x*||^2 <= (4/mu) sum_{i=3..t} a_i(t) <zhat_i, x_i - x*>
                            + (4/mu^2) sum_{i=3..t} b_i(t) ||ghat_i||^2

    with a_i(t) = coeff(i,t)/(i+1) and b_i(t) = coeff(i,t)/(i+1)^2. Returns
    the minimum slack (RHS - LHS); passes when every slack clears
    -1e-9 times the local term magnitude.
    """
    _, D, Z, Ghat = _trajectory_arrays(trajectory, xstar)
    return _recursive_bound_runs(D[:, None], Z[:, None], Ghat[:, None], mu)[0]


def _recursive_bound_runs(D, Z, Ghat, mu: float) -> list[CheckResult]:
    """verify_recursive_bound of every run of (T, runs, dim) arrays of
    x_t - x*, zhat_t and ghat_t; one scan over t serves all runs, with the
    same per-run arithmetic as a scan of each run alone."""
    T = D.shape[0]
    if T < 5:
        raise InputError(f"need at least 5 recorded steps, got {T}")
    u = np.einsum("tbj,tbj->tb", Z, D)  # <zhat_t, x_t - x*>, index t-1
    h = np.einsum("tbj,tbj->tb", Ghat, Ghat)
    dist2 = np.einsum("tbj,tbj->tb", D, D)

    # Both sums share the factor 1/N(t) with N(t) = (t-2)(t-1)t(t+1);
    # accumulate the numerators N(i) * u_i/(i+1) and N(i) * h_i/(i+1)^2 over
    # the inner-sum terms i = 3..T-1 once, with compensation (they span
    # several orders of magnitude in i).
    i = np.arange(3, T, dtype=np.float64)[:, None]
    n = (i - 2.0) * (i - 1.0) * i * (i + 1.0)
    term_a = n * u[2:T - 1] / (i + 1.0)
    term_b = n * h[2:T - 1] / ((i + 1.0) * (i + 1.0))
    sums = _compensated_cumsum(np.stack([term_a, np.abs(term_a), term_b], axis=1))
    # the check at t = 4..T-1 reads the sums through i = t
    tot_a, tot_abs, tot_b = sums[1:, 0], sums[1:, 1], sums[1:, 2]
    den = n[1:]
    four_over_mu = 4.0 / mu
    four_over_mu2 = 4.0 / (mu * mu)
    rhs = four_over_mu * tot_a / den + four_over_mu2 * tot_b / den
    lhs = dist2[4:T]  # ||x_{t+1} - x*||^2 at array index t
    scale = four_over_mu * tot_abs / den + four_over_mu2 * tot_b / den + lhs
    slack = rhs - lhs
    positive = scale > 0
    norm_slack = np.where(positive, slack / np.where(positive, scale, 1.0), slack)
    worst = np.argmin(slack, axis=0)  # the first t of the minimum slack
    runs = D.shape[1]
    min_slack = slack[worst, np.arange(runs)]
    min_norm_slack = norm_slack.min(axis=0)
    passed = ~(slack < -1e-9 * scale).any(axis=0)
    return [
        CheckResult(
            name="recursive-bound",
            value=float(min_slack[b]),
            threshold=-1e-9,
            passed=bool(passed[b]),
            detail={"min_normalized_slack": float(min_norm_slack[b]),
                    "worst_t": 4 + int(worst[b]), "T": T},
        )
        for b in range(runs)
    ]


def chicken_and_egg_coefficients(T: int, mu: float, L: float) -> tuple[np.ndarray, float]:
    """Constructive weights alpha_i and constant beta of the self-bounding
    inequality  V_T <= sum_i alpha_i * d_i + beta,  where
    V_T = sum_t t^2 ||x_t - x*||^2 and d_i = i * <zhat_i, x_i - x*>:

        alpha_i = (4/mu) sum_{t=i+1..T} t^2 a_i(t-1) / i        (3 <= i <= T-1)
        beta    = (4(L+1)^2/mu^2) sum_{t=4..T} t^2 sum_{i=3..t-1} b_i(t-1)
                  + 56 L^2 / mu^2

    with alpha_1 = alpha_2 = alpha_T = 0. Sums are compensated; they span
    several orders of magnitude in t.
    """
    if T < 5:
        raise InputError(f"need T >= 5, got {T}")
    alpha = np.zeros(T + 1)

    def den(t):  # (t-2)(t-1)t(t+1), the shared denominator at horizon t
        return (t - 2.0) * (t - 1.0) * t * (t + 1.0)

    # alpha: backward suffix sums of t^2 / den(t-1), i = T-1 down to 3;
    # beta: prefix sums of N(i)/(i+1)^2 feed the inner sum at each t = i+1
    i = np.arange(3, T, dtype=np.float64)
    n = (i - 2.0) * (i - 1.0) * i * (i + 1.0)
    desc = i[::-1]
    sums = _compensated_cumsum(np.stack([(desc + 1.0) * (desc + 1.0) / den(desc),
                                         n / ((i + 1.0) * (i + 1.0))], axis=1))
    alpha[T - 1:2:-1] = (4.0 / mu) * n[::-1] / (desc * (desc + 1.0)) * sums[:, 0]
    t = i + 1.0
    beta_terms = (t * t * sums[:, 1] / den(t - 1.0)).tolist()
    beta = (4.0 * (L + 1.0) ** 2 / (mu * mu)) * math.fsum(beta_terms)
    beta += 56.0 * L * L / (mu * mu)
    return alpha, beta


def verify_chicken_and_egg(
    trajectory, mu: float, L: float, xstar, beta_scale: float = 1.0,
    coefficients: Optional[tuple[np.ndarray, float]] = None,
) -> CheckResult:
    """Checks the self-bounding inequality V_T <= sum_i alpha_i d_i + beta
    on a bounded-noise trajectory (requires ||zhat_t|| <= 1). Returns the
    slack (bound - V_T); passes when it clears -1e-9 * beta.

    ``beta_scale`` rescales beta and exists as a negative-control hook.
    ``coefficients`` passes ``chicken_and_egg_coefficients(T, mu, L)`` in,
    for callers that check many trajectories of one horizon.
    """
    if not math.isfinite(L):
        raise InputError("a finite Lipschitz bound is required")
    X, D, Z, Ghat = _trajectory_arrays(trajectory, xstar)
    T = X.shape[0]
    if T < 5:
        raise InputError(f"need at least 5 recorded steps, got {T}")
    znorms = np.linalg.norm(Z, axis=1)
    if znorms.max() > 1.0 + 1e-12:
        raise InputError(
            f"bounded noise (||zhat|| <= 1) required, saw {znorms.max():.6g}"
        )
    u = np.einsum("ij,ij->i", Z, D)
    dist2 = np.einsum("ij,ij->i", D, D)
    ts = np.arange(1, T + 1, dtype=np.float64)
    v_total = math.fsum((ts * ts * dist2).tolist())

    if coefficients is None:
        coefficients = chicken_and_egg_coefficients(T, mu, L)
    alpha, beta = coefficients
    if alpha.shape != (T + 1,):
        raise InputError(f"coefficients of {alpha.shape[0] - 1} steps for a {T}-step trajectory")
    beta *= beta_scale
    d = ts * u  # d_i = i * <zhat_i, x_i - x*>
    bound = math.fsum((alpha[1 : T + 1] * d).tolist()) + beta
    slack = bound - v_total
    threshold = -1e-9 * beta
    return CheckResult(
        name="chicken-and-egg",
        value=slack,
        threshold=threshold,
        passed=slack >= threshold,
        detail={
            "v_total": v_total,
            "beta": beta,
            "max_alpha": float(alpha.max()),
            "T": T,
        },
    )


def _fleet_run(runs: int, T: int, base_seed: int, noise_bound: float, x1: float = 6.0):
    """The fleet's problem and its recorded lockstep run; see fleet_trajectories."""
    problem = quadratic_problem(1, mu=1.0, feasible=Interval(-6.0, 6.0))
    config = RunConfig(
        T=T,
        schedule=DEFAULT_SCHEDULE,
        x1=np.array([x1]),
        eval_every=T,
        record_iterates=True,
    )
    factory = QuadraticOracleFactory(BoundedUniformBall(noise_bound))
    run = batched.run_all(problem, factory, config, ["nonuniform"], runs, base_seed,
                          suffix_alpha=0.5)
    return problem, run


def fleet_trajectories(
    runs: int = 20,
    T: int = 2000,
    base_seed: int = 20260810,
    noise_bound: float = 1.0,
    x1: float = 6.0,
):
    """Seeded bounded-noise quadratic runs on [-6, 6] with trajectories
    recorded: the standard fixture the inequality verifiers are checked on.
    Run i draws from RngStream(base_seed, i). All runs advance in one
    lockstep call; yields (problem, record) pairs, each record a view of one
    run, bitwise equal to its ``run_sgd`` record."""
    problem, run = _fleet_run(runs, T, base_seed, noise_bound, x1)
    for i in range(runs):
        yield problem, run.record(i)


_FLEET_CHECKS = ("diameter", "recursive", "chicken-and-egg", "product-identity", "mgf")


def run_verification_fleet(
    runs: int = 20,
    T: int = 2000,
    base_seed: int = 20260810,
    noise_bound: float = 1.0,
    only: Optional[list[str]] = None,
    beta_scale: float = 1.0,
    mgf_samples: int = 10**6,
    product_max_t: int = 200,
) -> list[CheckResult]:
    """The full verifier fleet over the standard seeded trajectories; the
    trajectory checks aggregate the worst case across runs."""
    selected = list(only) if only else list(_FLEET_CHECKS)
    for s in selected:
        if s not in _FLEET_CHECKS:
            raise InputError(f"unknown check {s!r}; expected one of {_FLEET_CHECKS}")
    if runs < 1:
        raise InputError(f"need runs >= 1, got {runs}")
    if product_max_t < 4:
        raise InputError(f"need product_max_t >= 4 for a pair 3 <= i < t <= product_max_t, "
                         f"got {product_max_t}")
    results: list[CheckResult] = []

    traj_checks = {"diameter", "recursive", "chicken-and-egg"} & set(selected)
    if traj_checks:
        problem, run = _fleet_run(runs, T, base_seed, noise_bound)
        L, mu, xstar = problem.lipschitz, problem.mu, problem.xstar
        worst: dict[str, CheckResult] = {}
        if "recursive" in traj_checks:
            traj = run.trajectory
            # the first run of the minimum slack is the worst
            worst["recursive"] = min(
                _recursive_bound_runs(traj.X - xstar, traj.zhat, traj.ghat, mu),
                key=lambda r: r.value)
        coefficients = None  # one horizon and problem: computed once per fleet
        for i in range(runs):
            traj = run.trajectory.trial(i)
            if "diameter" in traj_checks:
                r = verify_diameter_bound(traj, L, mu, xstar)
                if "diameter" not in worst or r.value > worst["diameter"].value:
                    worst["diameter"] = r
            if "chicken-and-egg" in traj_checks:
                if coefficients is None and len(traj) >= 5:
                    coefficients = chicken_and_egg_coefficients(len(traj), mu, L)
                r = verify_chicken_and_egg(traj, mu, L, xstar, beta_scale=beta_scale,
                                           coefficients=coefficients)
                if (
                    "chicken-and-egg" not in worst
                    or r.value < worst["chicken-and-egg"].value
                ):
                    worst["chicken-and-egg"] = r
        for key in ("diameter", "recursive", "chicken-and-egg"):
            if key in worst:
                res = worst[key]
                res.detail["runs"] = runs
                results.append(res)

    if "product-identity" in selected:
        results.append(product_identity_sweep(max_t=product_max_t))

    if "mgf" in selected:
        for n in (1, 50):
            est, stderr = empirical_mgf_check(
                GaussianNoise(1.0), 2.0, n, mgf_samples, RngStream(base_seed, 10_000 + n)
            )
            exact = gaussian_mgf_exact(1.0, 2.0, n)
            err = abs(est - exact)
            # the estimator averages e = exp(||z||^2/kappa^2), whose second
            # moment is the MGF at kappa/sqrt(2); where that is infinite (at
            # n = 1) so is the variance, and a sample standard error means nothing
            if math.isinf(gaussian_mgf_exact(1.0, 2.0 / math.sqrt(2.0), n)):
                stderr = math.inf
            results.append(
                CheckResult(
                    name=f"mgf-gaussian-n{n}",
                    value=est,
                    threshold=2.0,
                    passed=err <= 0.05 and est <= 2.0,
                    detail={"exact": exact, "abs_error": err, "stderr": stderr,
                            "samples": mgf_samples},
                )
            )
    return results
