import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sgdavg.core import (
    DEFAULT_SCHEDULE,
    InputError,
    Interval,
    L2Ball,
    Unconstrained,
)
from sgdavg.data import Dataset, parse_libsvm, synthetic_separable_dataset
from sgdavg.oracles import (
    BoundedUniformBall,
    LowerBoundOracle,
    NoNoise,
    QuadraticOracle,
    QuadraticOracleFactory,
    RngStream,
    SvmOracleFactory,
    quadratic_problem,
    svm_problem,
)
from sgdavg.sgd import RunConfig, run_sgd
from sgdavg.averaging import make_averager
from sgdavg.experiments import io as io_module
from sgdavg.experiments import verify as verify_module
from sgdavg.experiments.io import _MARGIN, _PANEL_H, _PANEL_W, _scale
from sgdavg.experiments import (
    TrialMatrix,
    chicken_and_egg_coefficients,
    empirical_quantile,
    export_csv,
    import_csv,
    iterate_identity_error,
    kolmogorov_gap,
    lb_exact_distribution,
    lb_exact_distribution_rational,
    lb_problem,
    lb_run_config,
    lb_simulate_and_match,
    literal_telescoping_product,
    product_identity_sweep,
    render_svg,
    run_trials,
    run_verification_fleet,
    tail_fit,
    telescoping_product_coeff,
    verify_chicken_and_egg,
    verify_diameter_bound,
    verify_recursive_bound,
)


# Rows with different feature counts, one with none, and both labels.
SPARSE_TEXT = """\
+1 1:0.5 3:1.2 7:-0.4
-1 2:0.9 4:0.3
+1
-1 1:-1.1 2:0.2 3:0.7 5:1.5 6:-0.3 8:0.8 9:0.1 10:-0.6 11:0.4
+1 6:2.0
-1 3:-0.5 9:1.1 12:0.6
+1 2:0.4 4:-0.8 5:0.9 7:0.2 8:-1.3
-1 10:0.7 11:-0.2
+1 1:0.3 12:-0.9
-1 4:1.4 5:-0.1 6:0.6 9:-0.7
"""


def quad_ball_setting(T, dim=1, eval_every=None, x1=1.0, bound=1.0):
    problem = quadratic_problem(dim, feasible=Interval(-6, 6))
    factory = QuadraticOracleFactory(noise=BoundedUniformBall(bound))
    config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.full(dim, x1),
                       eval_every=eval_every)
    return problem, factory, config


class TestEmpiricalQuantile:
    def test_nearest_rank_definition(self):
        gaps = list(range(1, 101))
        assert empirical_quantile(gaps, 0.1) == 90

    def test_delta_near_one_gives_minimum(self):
        gaps = list(range(1, 101))
        assert empirical_quantile(gaps, 0.999999) == 1

    def test_constant_sample(self):
        assert empirical_quantile([5.0, 5.0, 5.0], 0.37) == 5.0

    def test_validation(self):
        with pytest.raises(InputError):
            empirical_quantile([1.0], 0.0)
        with pytest.raises(InputError):
            empirical_quantile([], 0.5)


class TestTailFit:
    def _matrix(self, gaps_at_T, T=100):
        trials = len(gaps_at_T)
        gaps = np.asarray(gaps_at_T, dtype=float).reshape(trials, 1, 1)
        return TrialMatrix(gaps=gaps, checkpoints=[T], scheme_names=["nonuniform"],
                           meta={"T": T, "trials": trials})

    def test_all_zero_gaps(self):
        m = self._matrix([0.0] * 100)
        rep = tail_fit(m, "nonuniform", [0.1, 0.05])
        assert rep.constant == 0.0

    def test_exact_shape_recovery(self):
        T, trials, c = 50, 1000, 3.7
        deltas = [0.1, 0.05, 0.02]
        # constant blocks put the target value exactly at each delta's
        # nearest-rank position
        gaps = np.zeros(trials)
        for d in sorted(deltas, reverse=True):
            rank = math.ceil((1 - d) * trials)
            gaps[rank - 1:] = c * math.log(1 / d) / T
        m = self._matrix(gaps, T=T)
        rep = tail_fit(m, "nonuniform", deltas)
        for row in rep.rows:
            assert row.ratio == pytest.approx(c, rel=1e-12)
        assert rep.constant == pytest.approx(c, rel=1e-12)

    def test_unresolvable_delta_names_minimum(self):
        m = self._matrix([0.0] * 10)
        with pytest.raises(InputError) as err:
            tail_fit(m, "nonuniform", [0.05])
        assert "0.2" in str(err.value)

    def test_quantiles_non_increasing_in_delta(self):
        rng = np.random.default_rng(0)
        m = self._matrix(rng.exponential(size=500))
        rep = tail_fit(m, "nonuniform", [0.01, 0.1, 0.05, 0.2])
        qs = [r.quantile for r in rep.rows]  # rows sorted by ascending delta
        assert all(a >= b for a, b in zip(qs, qs[1:]))


class TestLbExactDistribution:
    def test_T8_pmf(self):
        pmf = dict(lb_exact_distribution_rational(8))
        assert pmf[Fraction(1, 8)] == Fraction(1, 2)
        assert pmf[Fraction(0)] == Fraction(1, 2)

    def test_T8_exceedance(self):
        pmf = lb_exact_distribution(8)
        p = sum(pr for v, pr in pmf if v >= 1 / 8)
        assert p == Fraction(1, 2)

    @pytest.mark.parametrize("T", [4, 8, 12, 32, 60])
    def test_probabilities_sum_to_one_exactly(self, T):
        total = sum(p for _, p in lb_exact_distribution_rational(T))
        assert total == Fraction(1)

    @pytest.mark.parametrize("T", [8, 16, 24])
    def test_support_matches_binomial_cross_check(self, T):
        # independent derivation: k = sum of m signs is 2*Binom(m,1/2) - m
        m = T // 4
        expected = {}
        for heads in range(m + 1):
            k = 2 * heads - m
            v = Fraction(1, 2) * Fraction(k, T // 2) ** 2
            expected[v] = expected.get(v, Fraction(0)) + Fraction(math.comb(m, heads), 2**m)
        assert dict(lb_exact_distribution_rational(T)) == expected
        support = {v for v, _ in lb_exact_distribution_rational(T)}
        alt = {Fraction(1, 2) * Fraction(k, T // 2) ** 2
               for k in range(-m, m + 1) if (k - m) % 2 == 0}
        assert support == alt

    def test_preconditions(self):
        for T in (10, 0, -4, 2):
            with pytest.raises(InputError):
                lb_exact_distribution(T)

    @pytest.mark.parametrize("T", range(4, 61, 4))
    def test_binomial_law_matches_enumeration(self, T):
        # the 2^(T/4) sign-pattern enumeration that the binomial law replaced
        m = T // 4
        counts = {}
        for pattern in range(1 << m):
            k = 2 * bin(pattern).count("1") - m  # sum of m signs
            counts[k] = counts.get(k, 0) + 1
        pmf = {}
        for k, c in counts.items():
            value = Fraction(1, 2) * Fraction(k, T // 2) ** 2
            pmf[value] = pmf.get(value, Fraction(0)) + Fraction(c, 1 << m)
        assert lb_exact_distribution_rational(T) == sorted(pmf.items())

    def test_long_horizon_law_is_exact(self):
        # beyond any enumeration: 2^1000 sign patterns at T = 4000
        pmf = lb_exact_distribution_rational(4000)
        assert len(pmf) == 501
        assert sum(p for _, p in pmf) == 1
        assert pmf[0] == (Fraction(0), Fraction(math.comb(1000, 500), 2**1000))
        assert pmf[-1] == (Fraction(1, 8), Fraction(2, 2**1000))


class TestLbSimulation:
    def test_small_simulation_matches(self):
        res = lb_simulate_and_match(8, trials=800, base_seed=123)
        assert res.kolmogorov_gap <= 0.05
        assert res.max_identity_error <= 1e-12

    def test_zero_noise_negative_control(self):
        # all mass at f = 0 sits Kolmogorov distance 1/2 from the exact pmf
        gap = kolmogorov_gap(np.zeros(1000), lb_exact_distribution(8))
        assert gap == pytest.approx(0.5)

    @pytest.mark.parametrize("T", [8, 32, 60])
    def test_kolmogorov_gap_matches_per_point_sum(self, T):
        # the per-point masked sum that the cumulative-sum CDF replaced
        def reference(samples, pmf):
            samples = np.asarray(samples, dtype=np.float64)
            support = np.array([v for v, _ in pmf])
            probs = np.array([float(p) for _, p in pmf])
            snapped = samples.copy()
            pos = np.clip(np.searchsorted(support, samples), 0, support.size - 1)
            left = np.clip(pos - 1, 0, support.size - 1)
            for cand in (pos, left):
                close = np.abs(support[cand] - snapped) <= 1e-9
                snapped = np.where(close, support[cand], snapped)
            points = np.union1d(support, snapped)
            emp = np.searchsorted(np.sort(snapped), points, side="right") / snapped.size
            exact = np.array([float(probs[support <= x].sum()) for x in points])
            return float(np.max(np.abs(emp - exact)))

        pmf = lb_exact_distribution(T)
        support = np.array([v for v, _ in pmf])
        rng = np.random.default_rng(T)
        for trial in range(20):
            n = int(rng.integers(1, 300))
            on = rng.choice(support, size=n)
            jitter = rng.uniform(-2e-9, 2e-9, size=n) * rng.integers(0, 2, size=n)
            off = rng.uniform(-0.1, support.max() + 0.1, size=n)
            samples = np.where(rng.random(n) < 0.7, on + jitter, off)
            assert abs(kolmogorov_gap(samples, pmf) - reference(samples, pmf)) <= 1e-15

    def test_report_equals_half_mean_of_signs(self):
        T = 16
        problem = lb_problem()
        config = lb_run_config(T)
        for seed in range(5):
            oracle = LowerBoundOracle(T, RngStream(77, seed))
            rec = run_sgd(problem, oracle, config, [make_averager("nonuniform")])
            zs = np.array([s.zhat[0] for _, s in rec.trajectory])
            window = zs[T // 2: 3 * T // 4]
            signs = np.sign(window)
            expected = 0.5 * signs.mean()
            assert rec.reported["nonuniform"][0] == pytest.approx(expected, abs=1e-12)

    def test_identity_error_requires_trajectory(self):
        from sgdavg.sgd import RunRecord

        with pytest.raises(InputError):
            iterate_identity_error(RunRecord({}, [], None))


class TestRunTrials:
    def test_single_trial_reduces_to_run_sgd(self):
        problem, factory, config = quad_ball_setting(T=50, eval_every=10)
        m = run_trials(problem, factory, config, ["final", "nonuniform"], 1, 42,
                       engine="sequential")
        rec = run_sgd(problem, factory(RngStream(42, 0)), config,
                      [make_averager("final"), make_averager("nonuniform")])
        for ci, (t, vals) in enumerate(rec.checkpoints):
            assert m.checkpoints[ci] == t
            assert m.gaps[0, ci, 0] == vals["final"] - problem.fstar
            assert m.gaps[0, ci, 1] == vals["nonuniform"] - problem.fstar

    def test_identical_seed_identical_matrix(self):
        problem, factory, config = quad_ball_setting(T=40)
        m1 = run_trials(problem, factory, config, ["nonuniform"], 5, 7)
        m2 = run_trials(problem, factory, config, ["nonuniform"], 5, 7)
        assert np.array_equal(m1.gaps, m2.gaps, equal_nan=True)

    def test_noiseless_trials_coincide(self):
        problem = quadratic_problem(1)
        factory = QuadraticOracleFactory(noise=NoNoise())
        config = RunConfig(T=30, schedule=DEFAULT_SCHEDULE, x1=np.array([1.0]))
        m = run_trials(problem, factory, config, ["nonuniform"], 8, 0)
        col = m.gaps[:, -1, 0]
        assert np.all(col == col[0])

    def test_order_and_parallelism_invariance(self):
        problem, factory, config = quad_ball_setting(T=60, eval_every=20)
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        seq = run_trials(problem, factory, config, schemes, 6, 11, engine="sequential")
        par = run_trials(problem, factory, config, schemes, 6, 11, engine="sequential",
                         workers=2)
        bat = run_trials(problem, factory, config, schemes, 6, 11, engine="batched")
        assert np.array_equal(seq.gaps, par.gaps, equal_nan=True)
        assert np.array_equal(seq.gaps, bat.gaps, equal_nan=True)

    def test_batched_gaussian_ball_matches_sequential(self):
        from sgdavg.core import L2Ball
        from sgdavg.oracles import GaussianNoise

        problem = quadratic_problem(3, feasible=L2Ball(2.0, np.zeros(3)))
        factory = QuadraticOracleFactory(noise=GaussianNoise(1.0))
        config = RunConfig(T=150, schedule=DEFAULT_SCHEDULE,
                           x1=np.array([1.0, 0.5, -0.5]), eval_every=50)
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        seq = run_trials(problem, factory, config, schemes, 6, 21, engine="sequential")
        bat = run_trials(problem, factory, config, schemes, 6, 21, engine="batched")
        assert np.nanmax(np.abs(seq.gaps - bat.gaps)) <= 1e-12

    def test_batched_svm_matches_sequential(self):
        ds = synthetic_separable_dataset(120, 8, seed=4)
        lam = 1.0 / ds.m
        problem = svm_problem(ds, lam)
        factory = SvmOracleFactory(ds, lam)
        config = RunConfig(T=240, schedule=DEFAULT_SCHEDULE, x1=np.zeros(8),
                           eval_every=120)
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        seq = run_trials(problem, factory, config, schemes, 4, 3, engine="sequential")
        bat = run_trials(problem, factory, config, schemes, 4, 3, engine="batched")
        assert np.nanmax(np.abs(seq.gaps - bat.gaps)) <= 1e-12

    @pytest.mark.parametrize("radius", [None, 0.4])
    def test_scaled_svm_matches_sequential_on_sparse_rows(self, radius):
        # rows with 0 to 9 features; T = 1600 crosses the fold at t = 1, the
        # folds where the iterate's scale gets small, and the suffix window
        ds = parse_libsvm(SPARSE_TEXT)
        lam = 1.0 / ds.m
        feasible = Unconstrained() if radius is None else L2Ball(radius, np.zeros(ds.n))
        problem = svm_problem(ds, lam, feasible=feasible)
        factory = SvmOracleFactory(ds, lam)
        config = RunConfig(T=1600, schedule=DEFAULT_SCHEDULE, x1=np.zeros(ds.n),
                           eval_every=200)
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        seq = run_trials(problem, factory, config, schemes, 3, 8, engine="sequential")
        bat = run_trials(problem, factory, config, schemes, 3, 8, engine="batched")
        assert bat.meta["engine"] == "batched"
        assert np.nanmax(np.abs(seq.gaps - bat.gaps)) <= 1e-12
        if radius is not None:
            # the projection fires: iterates land on the sphere
            rec = run_sgd(problem, factory(RngStream(8, 0)),
                          RunConfig(T=1600, schedule=DEFAULT_SCHEDULE,
                                    x1=np.zeros(ds.n), record_iterates=True),
                          [make_averager("final")])
            norms = np.array([np.linalg.norm(x) for x, _ in rec.trajectory])
            assert np.sum(np.abs(norms - radius) <= 1e-9 * radius) > 100

    def test_batched_svm_runs_wide_sparse_dataset(self):
        # m * n = 3e8: no dense m-by-n row matrix is built
        m, n = 1000, 300_000
        rng = np.random.default_rng(6)
        rows = [(np.sort(rng.choice(n, size=5, replace=False)), rng.random(5))
                for _ in range(m)]
        ds = Dataset(np.arange(0, 5 * m + 1, 5), np.concatenate([i for i, _ in rows]),
                     np.concatenate([v for _, v in rows]),
                     [1 if i % 2 else -1 for i in range(m)], n)
        lam = 1.0 / m
        problem = svm_problem(ds, lam)
        factory = SvmOracleFactory(ds, lam)
        config = RunConfig(T=60, schedule=DEFAULT_SCHEDULE, x1=np.zeros(n), eval_every=30)
        bat = run_trials(problem, factory, config, ["final", "nonuniform"], 2, 4)
        assert bat.meta["engine"] == "batched"
        seq = run_trials(problem, factory, config, ["final", "nonuniform"], 2, 4,
                         engine="sequential")
        assert np.nanmax(np.abs(seq.gaps - bat.gaps)) <= 1e-12

    @pytest.mark.parametrize("lam, c, mu_scaled, feature_scale, iteration", [
        (None, 1e12, True, 1.0, 29),       # |1 - eta*lam| > 1 grows the iterate
        (1e-300, 1e300, False, 1e10, 1),   # the hinge step overflows entries
    ])
    def test_diverging_svm_trial_names_trial_and_iteration(
        self, lam, c, mu_scaled, feature_scale, iteration
    ):
        from sgdavg.core import StepSchedule
        from sgdavg.experiments import TrialFailure

        base = synthetic_separable_dataset(50, 6, seed=2)
        ds = Dataset(base.indptr, base.indices, base.data * feature_scale, base.labels, 6)
        lam = lam or 1.0 / ds.m
        problem = svm_problem(ds, lam)
        factory = SvmOracleFactory(ds, lam)
        config = RunConfig(T=400, schedule=StepSchedule(c=c, mu_scaled=mu_scaled),
                           x1=np.zeros(6))
        messages = []
        for engine in ("sequential", "batched"):
            with pytest.raises(TrialFailure) as err, np.errstate(all="ignore"):
                run_trials(problem, factory, config, ["final", "uniform"], 3, 5,
                           engine=engine)
            messages.append(str(err.value))
        assert messages[0].startswith("trial 0 "), messages[0]
        assert f"iteration {iteration}: non-finite iterate" in messages[0]
        assert messages[1] == messages[0]

    def test_engine_and_fallback_reason_in_meta(self):
        ds = synthetic_separable_dataset(40, 3, seed=1)
        lam = 1.0 / ds.m
        config = RunConfig(T=20, schedule=DEFAULT_SCHEDULE, x1=np.zeros(3))
        factory = SvmOracleFactory(ds, lam)
        box = run_trials(svm_problem(ds, lam, feasible=Interval(-1, 1)), factory,
                         config, ["final"], 2, 0, engine="auto")
        assert box.meta["engine"] == "sequential"
        assert "interval" in box.meta["engine_reason"]
        off = L2Ball(1.0, np.array([0.1, 0.0, 0.0]))
        assert "ball off the origin" in run_trials(
            svm_problem(ds, lam, feasible=off), factory, config, ["final"], 2, 0
        ).meta["engine_reason"]
        plain = run_trials(svm_problem(ds, lam), factory, config, ["final"], 2, 0)
        assert plain.meta["engine"] == "batched" and plain.meta["engine_reason"] is None
        chosen = run_trials(svm_problem(ds, lam), factory, config, ["final"], 2, 0,
                            engine="sequential")
        assert chosen.meta["engine"] == "sequential"
        assert chosen.meta["engine_reason"] is None

    def test_svm_runs_through_process_pool(self):
        # problem/factory/config must survive pickling into worker processes
        ds = synthetic_separable_dataset(60, 4, seed=1)
        lam = 1.0 / ds.m
        problem = svm_problem(ds, lam)
        factory = SvmOracleFactory(ds, lam)
        config = RunConfig(T=60, schedule=DEFAULT_SCHEDULE, x1=np.zeros(4),
                           eval_every=30)
        one = run_trials(problem, factory, config, ["nonuniform"], 4, 13,
                         engine="sequential", workers=1)
        two = run_trials(problem, factory, config, ["nonuniform"], 4, 13,
                         engine="sequential", workers=2)
        assert np.array_equal(one.gaps, two.gaps, equal_nan=True)

    def test_batched_engine_unavailable_is_reported(self):
        # ball noise above one dimension draws per query: sequential only
        problem, factory, config = quad_ball_setting(T=20, dim=2)
        with pytest.raises(InputError, match="unavailable: ball noise"):
            run_trials(problem, factory, config, ["final"], 2, 0, engine="batched")

    def test_auto_engine_falls_back_for_recording(self):
        problem, factory, _ = quad_ball_setting(T=20)
        config = RunConfig(T=20, schedule=DEFAULT_SCHEDULE, x1=np.array([1.0]),
                           record_iterates=True)
        m = run_trials(problem, factory, config, ["final"], 2, 0, engine="auto")
        assert m.trials == 2

    @pytest.mark.parametrize("engine", ["auto", "batched"])
    def test_recording_config_runs_lockstep(self, engine):
        # a trial matrix holds no trajectory, so the recording flag is dropped
        problem, factory, _ = quad_ball_setting(T=300)
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        config = RunConfig(T=300, schedule=DEFAULT_SCHEDULE, x1=np.array([1.0]),
                           eval_every=50, record_iterates=True)
        m = run_trials(problem, factory, config, schemes, 5, 4, engine=engine)
        seq = run_trials(problem, factory, config, schemes, 5, 4, engine="sequential")
        assert m.meta["engine"] == "batched" and m.meta["engine_reason"] is None
        assert np.array_equal(m.gaps, seq.gaps, equal_nan=True)

    def test_aborted_trial_names_index_and_seed(self):
        from sgdavg.experiments import TrialFailure
        from sgdavg.oracles import GradientSample

        class BadFactory:
            def __call__(self, stream):
                class BadOracle:
                    def query(self, x, t):
                        if stream.index == 2 and t == 3:
                            return GradientSample(np.array([np.nan]))
                        return GradientSample(x.copy())

                return BadOracle()

        problem = quadratic_problem(1)
        config = RunConfig(T=5, schedule=DEFAULT_SCHEDULE, x1=np.array([1.0]))
        with pytest.raises(TrialFailure) as err:
            run_trials(problem, BadFactory(), config, ["final"], 4, 99,
                       engine="sequential")
        msg = str(err.value)
        assert "trial 2" in msg and "99" in msg


class TestTelescopingProduct:
    def test_empty_product_is_one(self):
        assert telescoping_product_coeff(7, 7) == 1.0

    def test_direct_small_case(self):
        assert telescoping_product_coeff(3, 4) == pytest.approx(0.2, rel=1e-15)
        assert literal_telescoping_product(3, 4) == pytest.approx(0.2, rel=1e-12)

    def test_long_product_matches_literal(self):
        lit = literal_telescoping_product(3, 200)
        closed = telescoping_product_coeff(3, 200)
        assert closed == pytest.approx(lit, rel=1e-12)

    def test_sweep_passes(self):
        res = product_identity_sweep(max_t=120)
        assert res.passed
        assert res.value <= 1e-12

    def test_preconditions(self):
        with pytest.raises(InputError):
            telescoping_product_coeff(2, 5)
        with pytest.raises(InputError):
            telescoping_product_coeff(5, 4)


def bounded_quad_trajectory(T, seed, x1=6.0):
    problem = quadratic_problem(1, feasible=Interval(-6, 6))
    config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.array([x1]),
                       record_iterates=True)
    oracle = QuadraticOracle(BoundedUniformBall(1.0), RngStream(seed))
    rec = run_sgd(problem, oracle, config, [make_averager("nonuniform")])
    return problem, rec.trajectory


class TestVerifiers:
    def test_diameter_on_bounded_run(self):
        problem, traj = bounded_quad_trajectory(10**4, seed=0)
        res = verify_diameter_bound(traj, problem.lipschitz, problem.mu, problem.xstar)
        assert res.passed
        assert res.value <= 0.5  # |x_t| <= 6 while the bound is 2L/mu = 12

    def test_diameter_pinned_at_optimum(self):
        problem = quadratic_problem(1)
        config = RunConfig(T=20, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1),
                           record_iterates=True)
        rec = run_sgd(problem, QuadraticOracle(NoNoise(), RngStream(0)), config,
                      [make_averager("final")])
        res = verify_diameter_bound(rec.trajectory, 6.0, 1.0, problem.xstar)
        assert res.value == 0.0

    def test_recursive_bound_zero_noise_at_optimum(self):
        problem = quadratic_problem(1, feasible=Interval(-6, 6))
        config = RunConfig(T=50, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1),
                           record_iterates=True)
        rec = run_sgd(problem, QuadraticOracle(NoNoise(), RngStream(0)), config,
                      [make_averager("final")])
        res = verify_recursive_bound(rec.trajectory, 1.0, problem.xstar)
        assert res.passed
        assert res.value == 0.0  # both sides vanish along the pinned run

    def test_recursive_bound_on_noisy_runs(self):
        for seed in range(3):
            problem, traj = bounded_quad_trajectory(500, seed=seed)
            res = verify_recursive_bound(traj, problem.mu, problem.xstar)
            assert res.passed

    def test_recursive_bound_on_adversarial_run(self):
        # default schedule with the adversarial oracle's noise: the bound is
        # distribution-free, so it must hold along this trajectory too
        T = 64
        problem = quadratic_problem(1, feasible=Interval(-6, 6))
        config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1),
                           record_iterates=True)
        oracle = LowerBoundOracle(T, RngStream(17))
        rec = run_sgd(problem, oracle, config, [make_averager("nonuniform")])
        res = verify_recursive_bound(rec.trajectory, 1.0, problem.xstar)
        assert res.passed

    def test_chicken_and_egg_pinned_at_optimum(self):
        problem = quadratic_problem(1, feasible=Interval(-6, 6))
        config = RunConfig(T=50, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1),
                           record_iterates=True)
        rec = run_sgd(problem, QuadraticOracle(NoNoise(), RngStream(0)), config,
                      [make_averager("final")])
        res = verify_chicken_and_egg(rec.trajectory, 1.0, 6.0, problem.xstar)
        assert res.detail["v_total"] == 0.0
        assert res.value == pytest.approx(res.detail["beta"])
        assert res.value > 0

    def test_chicken_and_egg_on_noisy_runs(self):
        for seed in range(3):
            problem, traj = bounded_quad_trajectory(500, seed=seed)
            res = verify_chicken_and_egg(traj, problem.mu, problem.lipschitz,
                                         problem.xstar)
            assert res.passed

    def test_chicken_and_egg_requires_bounded_noise(self):
        T = 64
        problem = quadratic_problem(1, feasible=Interval(-6, 6))
        config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1),
                           record_iterates=True)
        oracle = LowerBoundOracle(T, RngStream(0))
        rec = run_sgd(problem, oracle, config, [make_averager("final")])
        with pytest.raises(InputError):
            verify_chicken_and_egg(rec.trajectory, 1.0, 6.0, problem.xstar)

    def test_coefficients_match_literal_double_sums(self):
        # brute-force O(T^2) evaluation of the constructive weights
        T, mu, L = 50, 1.3, 6.0
        alpha, beta = chicken_and_egg_coefficients(T, mu, L)

        def a(i, t):
            return telescoping_product_coeff(i, t) / (i + 1)

        def b(i, t):
            return telescoping_product_coeff(i, t) / (i + 1) ** 2

        for i in range(3, T):
            ref = (4.0 / mu) * sum(t * t * a(i, t - 1) / i for t in range(i + 1, T + 1))
            assert alpha[i] == pytest.approx(ref, rel=1e-12)
        assert alpha[1] == alpha[2] == alpha[T] == 0.0
        ref_beta = (4.0 * (L + 1) ** 2 / mu**2) * sum(
            t * t * sum(b(i, t - 1) for i in range(3, t)) for t in range(4, T + 1)
        ) + 56.0 * L * L / mu**2
        assert beta == pytest.approx(ref_beta, rel=1e-12)

    def test_recursive_bound_matches_literal_double_sum(self):
        # the prefix-sum RHS must agree with direct evaluation at every t
        problem, traj = bounded_quad_trajectory(30, seed=7)
        mu, xstar = problem.mu, problem.xstar
        X = np.stack([x for x, _ in traj])
        Z = np.stack([s.zhat for _, s in traj])
        G = np.stack([s.ghat for _, s in traj])
        D = X - xstar
        u = np.einsum("ij,ij->i", Z, D)
        h = np.einsum("ij,ij->i", G, G)
        dist2 = np.einsum("ij,ij->i", D, D)
        res = verify_recursive_bound(traj, mu, xstar)
        worst = math.inf
        for t in range(4, 30):
            rhs = (4 / mu) * sum(
                telescoping_product_coeff(i, t) / (i + 1) * u[i - 1]
                for i in range(3, t + 1)
            ) + (4 / mu**2) * sum(
                telescoping_product_coeff(i, t) / (i + 1) ** 2 * h[i - 1]
                for i in range(3, t + 1)
            )
            worst = min(worst, rhs - dist2[t])
        assert res.value == pytest.approx(worst, rel=1e-9, abs=1e-15)

    def test_alpha_magnitude_constant(self):
        # max_i alpha_i stays within a small multiple of T/mu
        for T in (100, 500, 2000):
            alpha, _ = chicken_and_egg_coefficients(T, 1.0, 6.0)
            ratio = alpha.max() / T
            assert ratio <= 16.0

    def test_beta_zero_hook_fails(self):
        problem, traj = bounded_quad_trajectory(200, seed=1)
        res = verify_chicken_and_egg(traj, problem.mu, problem.lipschitz,
                                     problem.xstar, beta_scale=0.0)
        assert not res.passed

    def test_missing_optimum_rejected(self):
        problem, traj = bounded_quad_trajectory(50, seed=0)
        with pytest.raises(InputError):
            verify_diameter_bound(traj, 6.0, 1.0, None)

    def test_missing_decomposition_rejected(self):
        from sgdavg.oracles import GradientSample

        traj = [(np.zeros(1), GradientSample(np.zeros(1)))] * 10
        with pytest.raises(InputError):
            verify_recursive_bound(traj, 1.0, np.zeros(1))

    def test_fleet_smoke(self):
        results = run_verification_fleet(runs=2, T=200, base_seed=1,
                                         mgf_samples=2 * 10**4, product_max_t=40)
        assert all(r.passed for r in results)
        names = {r.name for r in results}
        assert {"diameter-bound", "recursive-bound", "chicken-and-egg",
                "product-identity", "mgf-gaussian-n1", "mgf-gaussian-n50"} <= names


def reference_neumaier():
    """Scalar compensated accumulator: returns (add, total) closures."""
    state = [0.0, 0.0]  # running sum, compensation

    def add(x):
        s = state[0] + x
        if abs(state[0]) >= abs(x):
            state[1] += (state[0] - s) + x
        else:
            state[1] += (x - s) + state[0]
        state[0] = s

    def total():
        return state[0] + state[1]

    return add, total


def reference_recursive_bound(X, Z, G, mu, xstar):
    """The per-step scalar loop verify_recursive_bound ran before it scanned
    runs as arrays: (min slack, min normalized slack, worst t, passed)."""
    D = X - xstar
    T = X.shape[0]
    u = np.einsum("ij,ij->i", Z, D)
    h = np.einsum("ij,ij->i", G, G)
    dist2 = np.einsum("ij,ij->i", D, D)
    add_a, tot_a = reference_neumaier()
    add_abs, tot_abs = reference_neumaier()
    add_b, tot_b = reference_neumaier()
    min_slack = min_norm_slack = math.inf
    passed, worst_t = True, None
    for i in range(3, T):
        n_i = (i - 2.0) * (i - 1.0) * i * (i + 1.0)
        term_a = n_i * u[i - 1] / (i + 1.0)
        add_a(term_a)
        add_abs(abs(term_a))
        add_b(n_i * h[i - 1] / ((i + 1.0) * (i + 1.0)))
        t = i
        if t < 4:
            continue
        den = (t - 2.0) * (t - 1.0) * t * (t + 1.0)
        rhs = 4.0 / mu * tot_a() / den + 4.0 / (mu * mu) * tot_b() / den
        lhs = dist2[t]
        scale = 4.0 / mu * tot_abs() / den + 4.0 / (mu * mu) * tot_b() / den + lhs
        slack = rhs - lhs
        if slack < min_slack:
            min_slack, worst_t = slack, t
        min_norm_slack = min(min_norm_slack, slack / scale if scale > 0 else slack)
        if slack < -1e-9 * scale:
            passed = False
    return min_slack, min_norm_slack, worst_t, passed


def reference_coefficients(T, mu, L):
    """The scalar loops chicken_and_egg_coefficients ran before its scans
    became array-wise."""
    alpha = np.zeros(T + 1)

    def den(t):
        return (t - 2.0) * (t - 1.0) * t * (t + 1.0)

    add_r, tot_r = reference_neumaier()
    for i in range(T - 1, 2, -1):
        add_r((i + 1.0) * (i + 1.0) / den(i))
        n_i = (i - 2.0) * (i - 1.0) * i * (i + 1.0)
        alpha[i] = (4.0 / mu) * n_i / (i * (i + 1.0)) * tot_r()
    add_p, tot_p = reference_neumaier()
    beta_terms = []
    for t in range(4, T + 1):
        i = t - 1
        n_i = (i - 2.0) * (i - 1.0) * i * (i + 1.0)
        add_p(n_i / ((i + 1.0) * (i + 1.0)))
        beta_terms.append(t * t * tot_p() / den(t - 1))
    beta = (4.0 * (L + 1.0) ** 2 / (mu * mu)) * math.fsum(beta_terms)
    return alpha, beta + 56.0 * L * L / (mu * mu)


class TestVerifiersMatchScalarReference:
    @pytest.mark.parametrize("T, seed, dim", [(5, 0, 1), (6, 1, 1), (300, 2, 1),
                                              (120, 3, 3), (64, 4, 2)])
    def test_recursive_bound_bitwise(self, T, seed, dim):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-6, 6, size=(T, dim))
        Z = rng.uniform(-1, 1, size=(T, dim))
        G = X - Z
        xstar = np.zeros(dim)
        from sgdavg.sgd import Trajectory

        res = verify_recursive_bound(Trajectory(X, G, Z), 0.7, xstar)
        assert (res.value, res.detail["min_normalized_slack"], res.detail["worst_t"],
                res.passed) == reference_recursive_bound(X, Z, G, 0.7, xstar)

    def test_recursive_bound_first_worst_t_on_ties(self):
        # zero noise at the optimum: every slack is 0, and the first t wins
        problem = quadratic_problem(1, feasible=Interval(-6, 6))
        config = RunConfig(T=40, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1),
                           record_iterates=True)
        rec = run_sgd(problem, QuadraticOracle(NoNoise(), RngStream(0)), config,
                      [make_averager("final")])
        res = verify_recursive_bound(rec.trajectory, 1.0, problem.xstar)
        assert res.value == 0.0 and res.detail["worst_t"] == 4

    def test_fleet_recursive_is_the_first_worst_run(self):
        runs, T, seed = 6, 400, 11
        (res,) = run_verification_fleet(runs=runs, T=T, base_seed=seed, only=["recursive"])
        per_run = [verify_recursive_bound(rec.trajectory, p.mu, p.xstar)
                   for p, rec in verify_module.fleet_trajectories(runs, T, seed)]
        worst = min(per_run, key=lambda r: r.value)
        assert res.value == worst.value and res.passed == worst.passed
        assert res.detail == {**worst.detail, "runs": runs}
        for r, (p, rec) in zip(per_run, verify_module.fleet_trajectories(runs, T, seed)):
            traj = rec.trajectory
            assert (r.value, r.detail["min_normalized_slack"], r.detail["worst_t"],
                    r.passed) == reference_recursive_bound(traj.X, traj.zhat, traj.ghat,
                                                           p.mu, p.xstar)

    @pytest.mark.parametrize("T, mu, L", [(5, 1.0, 6.0), (50, 1.3, 6.0), (2000, 1.0, 6.0)])
    def test_coefficients_bitwise(self, T, mu, L):
        alpha, beta = chicken_and_egg_coefficients(T, mu, L)
        ref_alpha, ref_beta = reference_coefficients(T, mu, L)
        assert np.array_equal(alpha, ref_alpha) and beta == ref_beta


class TestCsvRoundTrip:
    def _small_matrix(self):
        gaps = np.arange(4, dtype=float).reshape(1, 2, 2)
        return TrialMatrix(gaps=gaps, checkpoints=[10, 20],
                           scheme_names=["final", "nonuniform"],
                           meta={"T": 20, "schemes": ["final", "nonuniform"]})

    def test_row_count(self, tmp_path):
        path = tmp_path / "m.csv"
        export_csv(self._small_matrix(), path)
        lines = path.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "trial,checkpoint_iter,scheme,objective"
        assert len(data) - 1 == 4

    def test_round_trip_exact(self, tmp_path):
        problem, factory, config = quad_ball_setting(T=30, eval_every=10)
        m = run_trials(problem, factory, config,
                       ["final", "uniform", "suffix", "nonuniform"], 3, 5)
        path = tmp_path / "m.csv"
        export_csv(m, path)
        back = import_csv(path)
        assert np.array_equal(m.gaps, back.gaps, equal_nan=True)
        assert back.checkpoints == m.checkpoints
        assert back.scheme_names == m.scheme_names
        assert back.meta == m.meta

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        export_csv(self._small_matrix(), path, comments=["config: x=1"])
        text = path.read_text()
        assert text.startswith("# config: x=1\n")
        import_csv(path)  # does not choke on the comments


class TestSvg:
    def test_constant_gaps_draw_horizontal_mean(self, tmp_path):
        gaps = np.full((3, 4, 1), 2.5)
        m = TrialMatrix(gaps=gaps, checkpoints=[1, 2, 3, 4],
                        scheme_names=["nonuniform"], meta={})
        path = tmp_path / "p.svg"
        render_svg(m, path)
        text = path.read_text()
        assert "<svg" in text and "</svg>" in text
        mean_line = [ln for ln in text.splitlines() if "dasharray" in ln][0]
        pts = mean_line.split('points="')[1].split('"')[0].split()
        ys = {p.split(",")[1] for p in pts}
        assert len(ys) == 1  # constant objective renders flat

    def test_translucent_per_trial_lines(self, tmp_path):
        problem, factory, config = quad_ball_setting(T=30, eval_every=10)
        m = run_trials(problem, factory, config, ["final", "nonuniform"], 5, 5)
        path = tmp_path / "p.svg"
        render_svg(m, path, schemes=["nonuniform"])
        text = path.read_text()
        assert text.count("stroke-opacity") == 5


def reference_export_csv(matrix, path, comments=()):
    """The per-cell CSV writer the per-row templates replaced."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"# meta: {json.dumps(matrix.meta, sort_keys=True)}")
    lines.append("trial,checkpoint_iter,scheme,objective")
    for trial in range(matrix.gaps.shape[0]):
        for ci, cp in enumerate(matrix.checkpoints):
            for si, scheme in enumerate(matrix.scheme_names):
                v = matrix.gaps[trial, ci, si]
                if math.isnan(v):
                    continue
                lines.append(f"{trial},{cp},{scheme},{v:.17g}")
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def reference_render_svg(matrix, path, schemes=None):
    """The per-point SVG writer the per-row templates replaced."""
    names = list(schemes) if schemes else list(matrix.scheme_names)
    xs = np.asarray(matrix.checkpoints, dtype=np.float64)
    finite = matrix.gaps[~np.isnan(matrix.gaps)]
    y_lo = float(finite.min()) if finite.size else 0.0
    y_hi = float(finite.max()) if finite.size else 1.0
    sx = _scale(float(xs.min()), float(xs.max()), _PANEL_W)
    sy = _scale(y_lo, y_hi, _PANEL_H)

    def pixel(panel, cp_i, v):
        px = _MARGIN + panel * (_PANEL_W + _MARGIN) + sx(xs[cp_i])
        py = _MARGIN + (_PANEL_H - sy(v))
        return f"{px:.2f},{py:.2f}"

    width = _MARGIN + len(names) * (_PANEL_W + _MARGIN)
    height = 2 * _MARGIN + _PANEL_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for panel, nm in enumerate(names):
        si = matrix.scheme_index(nm)
        x0 = _MARGIN + panel * (_PANEL_W + _MARGIN)
        parts.append(
            f'<text x="{x0 + _PANEL_W / 2:.2f}" y="{_MARGIN - 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="15">{nm}</text>'
        )
        parts.append(
            f'<rect x="{x0}" y="{_MARGIN}" width="{_PANEL_W}" height="{_PANEL_H}" '
            'fill="none" stroke="#999" stroke-width="1"/>'
        )
        for label, v in ((f"{y_hi:.4g}", y_hi), (f"{y_lo:.4g}", y_lo)):
            py = _MARGIN + (_PANEL_H - sy(v))
            parts.append(
                f'<text x="{x0 - 4}" y="{py:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{label}</text>'
            )
        for trial in range(matrix.gaps.shape[0]):
            col = matrix.gaps[trial, :, si]
            pts = [
                pixel(panel, ci, col[ci])
                for ci in range(len(matrix.checkpoints))
                if not math.isnan(col[ci])
            ]
            if len(pts) >= 2:
                parts.append(
                    f'<polyline points="{" ".join(pts)}" fill="none" '
                    'stroke="#1f77b4" stroke-width="1" stroke-opacity="0.08"/>'
                )
        col = matrix.gaps[:, :, si]
        defined = ~np.isnan(col)
        mean_pts = []
        for ci in range(len(matrix.checkpoints)):
            mask = defined[:, ci]
            if mask.any():
                mean_pts.append(pixel(panel, ci, float(col[mask, ci].mean())))
        if len(mean_pts) >= 2:
            parts.append(
                f'<polyline points="{" ".join(mean_pts)}" fill="none" '
                'stroke="#222" stroke-width="2" stroke-dasharray="5 4"/>'
            )
    parts.append("</svg>")
    path.write_bytes(("\n".join(parts) + "\n").encode("utf-8"))


def _suffix_not_open_matrix():
    problem, factory, config = quad_ball_setting(T=60, eval_every=10)
    return run_trials(problem, factory, config,
                      ["final", "uniform", "suffix", "nonuniform"], 4, 5)


def _ragged_nan_matrix():
    # per-trial NaN masks: a trial with no defined cell, one with a single
    # defined point per scheme, the same mask on two trials, and masks with
    # equal counts of defined cells in different places
    rng = np.random.default_rng(11)
    gaps = rng.standard_normal((8, 5, 3)) * 10.0 ** rng.integers(-20, 20, size=(8, 5, 3))
    gaps[0] = np.nan
    gaps[1, 1:] = np.nan
    gaps[2, :2, 1] = np.nan
    gaps[3, :2, 1] = np.nan
    gaps[4, 3, :] = np.nan
    gaps[5, 2, 2] = -0.0
    gaps[6, 0, 0] = np.nan
    gaps[7, 4, 2] = np.nan
    return TrialMatrix(gaps=gaps, checkpoints=[1, 4, 9, 16, 400],
                       scheme_names=["final", "suffix", "nonuniform"],
                       meta={"note": "ragged"})


def _constant_matrix():
    return TrialMatrix(gaps=np.full((3, 4, 2), 2.5), checkpoints=[10, 20, 30, 40],
                       scheme_names=["uniform", "nonuniform"], meta={})


def _single_checkpoint_matrix():
    gaps = np.random.default_rng(2).uniform(0.0, 1.0, size=(5, 1, 2))
    return TrialMatrix(gaps=gaps, checkpoints=[100], scheme_names=["final", "uniform"],
                       meta={"T": 100})


class TestEmittersMatchPerCellReference:
    @pytest.mark.parametrize("make", [_suffix_not_open_matrix, _ragged_nan_matrix,
                                      _constant_matrix, _single_checkpoint_matrix])
    @pytest.mark.parametrize("comments", [(), ("config: x=1", "100% sure")])
    def test_csv_bytes(self, tmp_path, make, comments):
        m = make()
        export_csv(m, tmp_path / "new.csv", comments=comments)
        reference_export_csv(m, tmp_path / "ref.csv", comments=comments)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("make", [_suffix_not_open_matrix, _ragged_nan_matrix,
                                      _constant_matrix, _single_checkpoint_matrix])
    def test_svg_bytes(self, tmp_path, make):
        m = make()
        for schemes in (None, m.scheme_names[-1:], m.scheme_names[::-1][:2]):
            render_svg(m, tmp_path / "new.svg", schemes=schemes)
            reference_render_svg(m, tmp_path / "ref.svg", schemes=schemes)
            new = (tmp_path / "new.svg").read_bytes()
            assert new == (tmp_path / "ref.svg").read_bytes(), schemes

    @pytest.mark.parametrize("make", [_suffix_not_open_matrix, _ragged_nan_matrix])
    @pytest.mark.parametrize("chunk", [1, 100])
    def test_chunked_writes_match_whole_file(self, tmp_path, monkeypatch, make, chunk):
        m = make()
        monkeypatch.setattr(io_module, "_CHUNK_CHARS", chunk)
        export_csv(m, tmp_path / "new.csv", comments=["config: x=1"])
        render_svg(m, tmp_path / "new.svg")
        reference_export_csv(m, tmp_path / "ref.csv", comments=["config: x=1"])
        reference_render_svg(m, tmp_path / "ref.svg")
        for name in ("csv", "svg"):
            assert (tmp_path / f"new.{name}").read_bytes() == (tmp_path / f"ref.{name}").read_bytes()

    def test_interrupted_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        # lines already flushed when the write stops must not reach the target
        monkeypatch.setattr(io_module, "_CHUNK_CHARS", 1)
        path = tmp_path / "out.csv"
        path.write_bytes(b"old contents\n")

        def comments():
            yield "first"
            yield "second"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            export_csv(_ragged_nan_matrix(), path, comments=comments())
        assert path.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_percent_in_scheme_name_is_literal(self, tmp_path):
        m = TrialMatrix(gaps=np.ones((2, 2, 1)), checkpoints=[1, 2],
                        scheme_names=["50%d"], meta={})
        export_csv(m, tmp_path / "new.csv")
        reference_export_csv(m, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
