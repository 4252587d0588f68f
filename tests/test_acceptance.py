"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sgdavg.averaging import NonUniformAverage
from sgdavg.cli import main
from sgdavg.core import DEFAULT_SCHEDULE, Interval
from sgdavg.data import synthetic_separable_dataset
from sgdavg.experiments import (
    lb_exact_distribution_rational,
    lb_simulate_and_match,
    literal_telescoping_product,
    run_trials,
    tail_fit,
    telescoping_product_coeff,
    verify_chicken_and_egg,
    verify_diameter_bound,
    verify_recursive_bound,
)
from sgdavg.experiments.verify import fleet_trajectories
from sgdavg.oracles import (
    BoundedUniformBall,
    GaussianNoise,
    QuadraticOracleFactory,
    RngStream,
    SvmOracleFactory,
    empirical_mgf_check,
    gaussian_mgf_exact,
    quadratic_problem,
    svm_problem,
)
from sgdavg.sgd import RunConfig


def test_criterion_1_online_averaging_equivalence():
    """50 random sequences (T = 1e5, n = 64): online nonuniform report vs
    the direct weighted sum, relative error <= 1e-10."""
    n_seq, T, n = 50, 10**5, 64
    seed = 20260810

    # the online recursion is elementwise, so all 50 sequences ride through
    # one averager as a stacked (50, 64) state: identical floats per sequence
    av = NonUniformAverage()
    gen = RngStream(seed).generator()
    for t in range(1, T + 1):
        av.observe(gen.uniform(-1.0, 1.0, (n_seq, n)), t)
    online = av.report()

    # the direct sum with the averager's own weights: gamma_t = t / (T(T+1)/2)
    gamma = av.weights(np.arange(1, T + 1)) / av.total(T)
    gen = RngStream(seed).generator()
    direct = np.zeros((n_seq, n))
    max_norm = np.zeros(n_seq)
    for t in range(1, T + 1):
        x = gen.uniform(-1.0, 1.0, (n_seq, n))
        direct += gamma[t - 1] * x
        max_norm = np.maximum(max_norm, np.sqrt(np.einsum("ij,ij->i", x, x)))

    err = np.sqrt(np.einsum("ij,ij->i", online - direct, online - direct))
    rel = err / max_norm
    assert rel.max() <= 1e-10
    print(f"\nACCEPTANCE PASS criterion 1: max relative error {rel.max():.3e} "
          f"over {n_seq} sequences (T={T}, n={n})")


def test_criterion_2_lower_bound_exactness():
    """Exact pmf at T=8; at T in {8,16,32}: every one of 4000 simulated runs
    satisfies the iterate identity to 1e-12 and the Kolmogorov gap to the
    exact pmf is <= 0.03."""
    pmf = dict(lb_exact_distribution_rational(8))
    assert pmf[Fraction(1, 8)] == Fraction(1, 2)

    gaps = {}
    for T in (8, 16, 32):
        res = lb_simulate_and_match(T, trials=4000, base_seed=777)
        assert res.max_identity_error <= 1e-12, f"T={T}"
        assert res.kolmogorov_gap <= 0.03, f"T={T}"
        gaps[T] = res.kolmogorov_gap
    print(f"\nACCEPTANCE PASS criterion 2: P[f=1/8]=1/2 exactly at T=8; "
          f"kolmogorov gaps {', '.join(f'T={k}: {v:.4f}' for k, v in gaps.items())} "
          f"(4000 trials each, identity <= 1e-12)")


def test_criterion_3_inequality_fleet():
    """20 seeded bounded-noise quadratic trajectories (T=2000, [-6,6], mu=1,
    L=6): diameter ratio <= 1, recursive slack >= -1e-9*scale at every t,
    self-bounding slack >= -1e-9*beta; product identity to 1e-12 for all
    3 <= i < t <= 200."""
    worst_ratio = 0.0
    worst_rec_norm_slack = math.inf
    worst_ce_slack_over_beta = math.inf
    runs = 0
    for problem, record in fleet_trajectories(runs=20, T=2000, base_seed=20260810):
        traj = record.trajectory
        r1 = verify_diameter_bound(traj, problem.lipschitz, problem.mu, problem.xstar)
        assert r1.passed and r1.value <= 1.0
        worst_ratio = max(worst_ratio, r1.value)
        r2 = verify_recursive_bound(traj, problem.mu, problem.xstar)
        assert r2.passed
        worst_rec_norm_slack = min(worst_rec_norm_slack,
                                   r2.detail["min_normalized_slack"])
        r3 = verify_chicken_and_egg(traj, problem.mu, problem.lipschitz, problem.xstar)
        assert r3.passed
        worst_ce_slack_over_beta = min(worst_ce_slack_over_beta,
                                       r3.value / r3.detail["beta"])
        runs += 1
    assert runs == 20

    worst_prod = 0.0
    for t in range(4, 201):
        for i in range(3, t):
            lit = literal_telescoping_product(i, t)
            err = abs(telescoping_product_coeff(i, t) - lit) / abs(lit)
            worst_prod = max(worst_prod, err)
    assert worst_prod <= 1e-12
    print(f"\nACCEPTANCE PASS criterion 3: diameter ratio <= {worst_ratio:.3f}, "
          f"recursive normalized slack >= {worst_rec_norm_slack:.2e}, "
          f"self-bounding slack/beta >= {worst_ce_slack_over_beta:.3f}, "
          f"product identity max rel err {worst_prod:.2e}")


def quad_tail_matrix(T, trials, seed):
    problem = quadratic_problem(1, feasible=Interval(-6, 6))
    factory = QuadraticOracleFactory(noise=BoundedUniformBall(1.0))
    config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.array([1.0]))
    return run_trials(problem, factory, config, ["nonuniform"], trials, seed)


def test_criterion_4_rate_shape():
    """Bounded-noise 1-D quadratic, 1000 trials: median nonuniform gap decays
    by a factor in [5, 20] from T=1e3 to T=1e4; tail-fit ratios vary by < 4x
    across delta in {0.1, 0.05, 0.02, 0.01}."""
    trials, seed = 1000, 424242
    m_small = quad_tail_matrix(10**3, trials, seed)
    m_large = quad_tail_matrix(10**4, trials, seed)
    med_small = float(np.median(m_small.final_gaps("nonuniform")))
    med_large = float(np.median(m_large.final_gaps("nonuniform")))
    decay = med_small / med_large
    assert 5.0 <= decay <= 20.0, f"decay factor {decay}"

    report = tail_fit(m_large, "nonuniform", [0.1, 0.05, 0.02, 0.01])
    ratios = [row.ratio for row in report.rows]
    spread = max(ratios) / min(ratios)
    assert spread < 4.0, f"ratio spread {spread}"
    print(f"\nACCEPTANCE PASS criterion 4: median decay factor {decay:.2f} "
          f"(in [5, 20]); tail ratio spread {spread:.2f}x < 4x "
          f"(fitted C = {report.constant:.3e})")


def test_criterion_5_scheme_ordering():
    """Synthetic separable SVM (m=2000, n=20, lambda=1/m): after 20 effective
    passes over 100 trials, mean(nonuniform) <= mean(uniform), mean(suffix)
    <= mean(uniform), and std(nonuniform) <= std(final)."""
    m, n, passes, trials = 2000, 20, 20, 100
    ds = synthetic_separable_dataset(m, n, seed=31415)
    lam = 1.0 / m
    problem = svm_problem(ds, lam)
    factory = SvmOracleFactory(ds, lam)
    config = RunConfig(T=passes * m, schedule=DEFAULT_SCHEDULE, x1=np.zeros(n),
                       eval_every=m)
    matrix = run_trials(problem, factory, config,
                        ["final", "uniform", "suffix", "nonuniform"],
                        trials, 271828)
    final = matrix.final_gaps("final")
    uniform = matrix.final_gaps("uniform")
    suffix = matrix.final_gaps("suffix")
    nonuniform = matrix.final_gaps("nonuniform")
    assert nonuniform.mean() <= uniform.mean()
    assert suffix.mean() <= uniform.mean()
    assert nonuniform.std() <= final.std()
    print(f"\nACCEPTANCE PASS criterion 5: mean objectives final={final.mean():.4f} "
          f"uniform={uniform.mean():.4f} suffix={suffix.mean():.4f} "
          f"nonuniform={nonuniform.mean():.4f}; std nonuniform "
          f"{nonuniform.std():.2e} <= std final {final.std():.2e}")


def test_criterion_6_subgaussian_mgf():
    """Empirical E[exp(||z||^2/kappa^2)] for Gaussian(1), kappa=2, at 1e6
    samples: within 0.05 of the closed form and <= 2 for n in {1, 50}."""
    measured = {}
    for n in (1, 50):
        est, _ = empirical_mgf_check(GaussianNoise(1.0), 2.0, n, 10**6,
                                     RngStream(987, n))
        exact = gaussian_mgf_exact(1.0, 2.0, n)
        assert abs(est - exact) <= 0.05, f"n={n}: {est} vs {exact}"
        assert est <= 2.0
        measured[n] = (est, exact)
    print("\nACCEPTANCE PASS criterion 6: "
          + "; ".join(f"n={n}: estimate {e:.4f} vs exact {x:.4f}"
                      for n, (e, x) in measured.items()))


def test_criterion_6_n1_with_an_error_bar():
    """Criterion 6's n = 1 check at kappa = 3, where e = exp(z^2/9) has
    finite variance (E[e^2] = E[exp(2 z^2/9)] = 3/sqrt(5) is finite for
    kappa^2 = 9 > 4), so the reported standard error states the sampling
    error: the estimate lies within 5 standard errors of the closed form
    sqrt(9/7). E[e^4] = 3 is finite too, so the estimate is asymptotically
    normal and a correct sampler fails this gate with probability about
    5.7e-7 (two-sided normal tail at 5 sigma). The standard error itself
    lies within 10% of the exact sqrt(Var(e)/N), 1.6e-4."""
    samples = 10**6
    est, stderr = empirical_mgf_check(GaussianNoise(1.0), 3.0, 1, samples, RngStream(988, 1))
    exact = gaussian_mgf_exact(1.0, 3.0, 1)
    assert exact == pytest.approx(math.sqrt(9 / 7), rel=1e-15)
    sd = math.sqrt((gaussian_mgf_exact(1.0, 3.0 / math.sqrt(2.0), 1) - exact**2) / samples)
    assert stderr == pytest.approx(sd, rel=0.1)
    assert abs(est - exact) <= 5 * stderr, (est, exact, stderr)
    print(f"\nACCEPTANCE PASS criterion 6 (n=1, kappa=3): estimate {est:.6f} vs exact "
          f"{exact:.6f}, |error| {abs(est - exact):.2e} <= 5 stderr = {5 * stderr:.2e}")


def test_criterion_7_determinism_and_provenance(tmp_path):
    """Two cmd_trials invocations with identical flags produce byte-identical
    CSV under --reproducible."""
    path = tmp_path / "out.csv"
    argv = ["trials", "--problem", "quadratic", "--dim", "1", "--noise", "ball",
            "--T", "300", "--x1", "1", "--trials", "25", "--seed", "99",
            "--csv", str(path), "--reproducible"]
    assert main(argv) == 0
    first = path.read_bytes()
    assert main(argv) == 0
    second = path.read_bytes()
    assert first == second
    assert b"# config:" in first and b"# generated:" not in first
    print(f"\nACCEPTANCE PASS criterion 7: byte-identical CSV across reruns "
          f"({len(first)} bytes)")
