import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdavg.core import (
    DEFAULT_SCHEDULE,
    InputError,
    Interval,
    L2Ball,
    Unconstrained,
)
from sgdavg import core as core_module
from sgdavg import data as data_module
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
from sgdavg.experiments import batched, batched_svm
from sgdavg.experiments import io as io_module
from sgdavg.experiments import numfmt, numfmt_kernel
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
from trial_reference import per_trial_gaps


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

    def test_raw_objectives_refused(self):
        m = self._matrix([1.0] * 100)
        m.meta["fstar"] = None
        with pytest.raises(InputError, match="no tail fit without a known optimum"):
            tail_fit(m, "nonuniform", [0.1])
        # a known optimum, or a matrix that does not say (a CSV written before
        # the key existed), is fitted
        for meta in ({"T": 100, "fstar": 0.25}, {"T": 100}):
            m.meta = meta
            assert tail_fit(m, "nonuniform", [0.1]).constant > 0

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

    def test_sorted_union_is_union1d_bitwise(self):
        # duplicates within and across the inputs, signed zeros (which one
        # of an equal pair survives depends on the sort), tiny and infinite
        # values; the result's bits, not only its values, must agree
        from sgdavg.experiments.lowerbound import _sorted_union

        pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 5e-324, -5e-324, np.inf, -np.inf])
        rng = np.random.default_rng(14)
        for _ in range(2000):
            a = rng.choice(pool, size=int(rng.integers(0, 12)))
            b = rng.choice(np.concatenate([pool, rng.standard_normal(3)]),
                           size=int(rng.integers(0, 40)))
            want, got = np.union1d(a, b), _sorted_union(a, b)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

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
        m = run_trials(problem, factory, config, ["final", "nonuniform"], 1, 42)
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
        seq = per_trial_gaps(problem, factory, config, schemes, 6, 11)
        bat = run_trials(problem, factory, config, schemes, 6, 11)
        assert np.array_equal(seq, bat.gaps, equal_nan=True)

    def test_batched_gaussian_ball_matches_sequential(self):
        from sgdavg.core import L2Ball
        from sgdavg.oracles import GaussianNoise

        problem = quadratic_problem(3, feasible=L2Ball(2.0, np.zeros(3)))
        factory = QuadraticOracleFactory(noise=GaussianNoise(1.0))
        config = RunConfig(T=150, schedule=DEFAULT_SCHEDULE,
                           x1=np.array([1.0, 0.5, -0.5]), eval_every=50)
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        seq = per_trial_gaps(problem, factory, config, schemes, 6, 21)
        bat = run_trials(problem, factory, config, schemes, 6, 21)
        assert np.nanmax(np.abs(seq - bat.gaps)) <= 1e-12

    def test_batched_svm_matches_sequential(self):
        ds = synthetic_separable_dataset(120, 8, seed=4)
        lam = 1.0 / ds.m
        problem = svm_problem(ds, lam)
        factory = SvmOracleFactory(ds, lam)
        config = RunConfig(T=240, schedule=DEFAULT_SCHEDULE, x1=np.zeros(8),
                           eval_every=120)
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        seq = per_trial_gaps(problem, factory, config, schemes, 4, 3)
        bat = run_trials(problem, factory, config, schemes, 4, 3)
        assert np.nanmax(np.abs(seq - bat.gaps)) <= 1e-12

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
        seq = per_trial_gaps(problem, factory, config, schemes, 3, 8)
        bat = run_trials(problem, factory, config, schemes, 3, 8)
        assert np.nanmax(np.abs(seq - bat.gaps)) <= 1e-12
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
        seq = per_trial_gaps(problem, factory, config, ["final", "nonuniform"], 2, 4)
        assert np.nanmax(np.abs(seq - bat.gaps)) <= 1e-12

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
        for run in (per_trial_gaps, run_trials):
            with pytest.raises(TrialFailure) as err, np.errstate(all="ignore"):
                run(problem, factory, config, ["final", "uniform"], 3, 5)
            messages.append(str(err.value))
        assert messages[0].startswith("trial 0 "), messages[0]
        assert f"iteration {iteration}: non-finite iterate" in messages[0]
        assert messages[1] == messages[0]
        # the same failure with the SVM engine's sub-blocks cut to 1-3 steps
        for sub in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp, pytest.raises(TrialFailure) as err, \
                    np.errstate(all="ignore"):
                mp.setattr(batched_svm, "_svm_blocks", lambda *_: (400, sub))
                run_trials(problem, factory, config, ["final", "uniform"], 3, 5)
            assert str(err.value) == messages[0], sub

    def test_auto_engine_falls_back_for_recording(self):
        problem, factory, _ = quad_ball_setting(T=20)
        config = RunConfig(T=20, schedule=DEFAULT_SCHEDULE, x1=np.array([1.0]),
                           record_iterates=True)
        m = run_trials(problem, factory, config, ["final"], 2, 0)
        assert m.trials == 2

    def test_recording_config_runs_lockstep(self):
        # a trial matrix holds no trajectory, so the recording flag is dropped
        problem, factory, _ = quad_ball_setting(T=300)
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        config = RunConfig(T=300, schedule=DEFAULT_SCHEDULE, x1=np.array([1.0]),
                           eval_every=50, record_iterates=True)
        m = run_trials(problem, factory, config, schemes, 5, 4)
        seq = per_trial_gaps(problem, factory, config, schemes, 5, 4)
        assert np.array_equal(m.gaps, seq, equal_nan=True)

    def test_custom_factory_is_refused(self):
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
        with pytest.raises(InputError, match="unsupported oracle factory BadFactory"):
            run_trials(problem, BadFactory(), config, ["final"], 4, 99)
        # run_sgd runs it, and the per-trial loop names the failing trial and seed
        with pytest.raises(TrialFailure, match=r"trial 2 \(base seed 99,"):
            per_trial_gaps(problem, BadFactory(), config, ["final"], 4, 99)


def hinge_ties(ds, lam, feasible, T, seed, trial):
    """Steps t of a sequential SVM run whose sampled margin y_i <x_i, w_t>
    lies within 1e-9 of 1, where rounding decides whether the hinge term
    enters the step: there run_sgd and the lockstep engine, which round
    differently, may part."""
    problem = svm_problem(ds, lam, feasible=feasible)
    config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.zeros(ds.n),
                       record_iterates=True)
    rec = run_sgd(problem, SvmOracleFactory(ds, lam)(RngStream(seed, trial)), config,
                  [make_averager("final")])
    rows = RngStream(seed, trial).generator().integers(ds.m, size=T)
    X = sp.csr_matrix((ds.data, ds.indices, ds.indptr), shape=(ds.m, ds.n))
    margins = ds.labels[rows] * np.einsum("ij,ij->i", X[rows].toarray(), rec.trajectory.X)
    return np.nonzero(np.abs(margins - 1.0) <= 1e-9)[0] + 1


# Gaps of run_trials on SPARSE_TEXT (3 trials, T = 1600, eval_every 200,
# seed 8, lam = 1/m, default schedule, all four schemes), one line per trial
# and checkpoint in the order final, uniform, suffix, nonuniform, as
# float.hex, computed before the SVM engine's step tables replaced its
# per-step updates: the tables must leave every bit in place. Box and
# shifted-ball runs go through run_sgd, and are checked against it bitwise.
PINNED_SVM_GAPS = {
    "none": (
        "0x1.a6ec7544e2c27p-2 0x1.9eb41213b16b5p-2 nan 0x1.8a3e559006e56p-2",
        "0x1.9629627d97372p-2 0x1.8939df5d25d39p-2 nan 0x1.85d48ef285b5fp-2",
        "0x1.7cf2a9d9eed2ap-2 0x1.8465da77826aep-2 nan 0x1.7fb174714c76fp-2",
        "0x1.815e08295a738p-2 0x1.80f4d962e3b62p-2 nan 0x1.7cb98508ce0a5p-2",
        "0x1.830e9b7970808p-2 0x1.7e80a3d081010p-2 0x1.76e301480e6a8p-2 0x1.79a6a9e98be08p-2",
        "0x1.7b06ac0b5e7e0p-2 0x1.7cc9886789deap-2 0x1.766b92f30d460p-2 0x1.783bcf06d18e2p-2",
        "0x1.782d5794bec9fp-2 0x1.7b9b1ec6ac07dp-2 0x1.761e00bb6709ep-2 0x1.7738439b3680dp-2",
        "0x1.779166ea2538ap-2 0x1.7ae41d008ec64p-2 0x1.7635324247785p-2 0x1.770ff4c896416p-2",
        "0x1.a57c966e714fap-2 0x1.b04ae816e65c2p-2 nan 0x1.928da09651d0ap-2",
        "0x1.897f4ad8822d0p-2 0x1.91717e8857630p-2 nan 0x1.801c9243132e4p-2",
        "0x1.7b873207cdd88p-2 0x1.87c644c55d084p-2 nan 0x1.7be801c1d0b92p-2",
        "0x1.7ee4b46ad1ca8p-2 0x1.830d46845e4a0p-2 nan 0x1.79946e879f6d5p-2",
        "0x1.7b71712c613c2p-2 0x1.806dbed35f03fp-2 0x1.78421305ac976p-2 0x1.791490ac87058p-2",
        "0x1.7905f07ea6228p-2 0x1.7e130f3e4a97ap-2 0x1.76ec89bdc3762p-2 0x1.780856c9cb302p-2",
        "0x1.7c15f4cd16bdap-2 0x1.7c4e8a2b76290p-2 0x1.7695c4cd633acp-2 0x1.7773820a2b754p-2",
        "0x1.7b4f0df7a8ca7p-2 0x1.7b244408c2a58p-2 0x1.7610d269f0c5dp-2 0x1.76bae088da1d0p-2",
        "0x1.92664c7ff0c65p-2 0x1.b60c66e52b2bdp-2 nan 0x1.8e32de64b9b0ap-2",
        "0x1.81528dbad8a2ep-2 0x1.99a907958f628p-2 nan 0x1.846779f3d748bp-2",
        "0x1.7cde988c59b5ep-2 0x1.8d07d453dd8bap-2 nan 0x1.7b8a6c0e4b491p-2",
        "0x1.79408cc3ebdc1p-2 0x1.87348b3568422p-2 nan 0x1.79e279cd07e0ap-2",
        "0x1.7b906261a91a1p-2 0x1.8312d1ec0a35bp-2 0x1.7758e9542bf92p-2 0x1.77f6696b26e29p-2",
        "0x1.78e2d60247182p-2 0x1.808c1fae20482p-2 0x1.770bd6af4343ap-2 0x1.772bdefe2d66cp-2",
        "0x1.7a9a59ef978e6p-2 0x1.7ecd8153eb81dp-2 0x1.768c1c390ff5ap-2 0x1.76bf19cae7d2ep-2",
        "0x1.77e56c11901acp-2 0x1.7d70d71ddf5b8p-2 0x1.76127e3da7444p-2 0x1.764c23bf70b3ep-2",
    ),
    "ball": (
        "0x1.b66b41df9d80dp-1 0x1.c54ef0bf33060p-1 nan 0x1.bd71eb30036bdp-1",
        "0x1.b2515f0c97afap-1 0x1.bbb8646f17da8p-1 nan 0x1.b530a49ecd6b4p-1",
        "0x1.a6ff240cc0a12p-1 0x1.b6b5c41fbea74p-1 nan 0x1.b08cc6424f773p-1",
        "0x1.af55465b8ec9ap-1 0x1.b3fb59565b058p-1 nan 0x1.ae96469f2f9d8p-1",
        "0x1.ac1d2e7e0739bp-1 0x1.b1b854830fc2fp-1 0x1.a8cca903b845fp-1 0x1.ac74117e77895p-1",
        "0x1.a8c08e8d39dd5p-1 0x1.b0714b06fe495p-1 0x1.a973ec78c12bep-1 0x1.abb2809c74fabp-1",
        "0x1.af2dbf17cea2ap-1 0x1.af7ee277ea15bp-1 0x1.a999953c7b85cp-1 0x1.ab375fcda237dp-1",
        "0x1.a7454640de2a0p-1 0x1.ae8815390c518p-1 0x1.a9274779f9023p-1 0x1.aa6960d14d62bp-1",
        "0x1.bd5f68ce45926p-1 0x1.c554218a3126ep-1 nan 0x1.be7c76d968a6ep-1",
        "0x1.b276a5234d2ddp-1 0x1.bc6dd72ca0a1cp-1 nan 0x1.b5c069ecc74f1p-1",
        "0x1.aacf5a5b5e8f2p-1 0x1.b72f06d5ac4a1p-1 nan 0x1.b0c51998f33ccp-1",
        "0x1.a7ea7008df112p-1 0x1.b3e2d3b8c1443p-1 nan 0x1.adc4a81bbf026p-1",
        "0x1.a87c100e2d136p-1 0x1.b1ca4f0c1e3cep-1 0x1.a98704671eaf2p-1 0x1.ac32790fd7bedp-1",
        "0x1.aafd10dd31c4cp-1 0x1.b0a626f318234p-1 0x1.aa3e6fd1a137cp-1 0x1.abd29d81178b6p-1",
        "0x1.a74a792253c8bp-1 0x1.afa48392bbd28p-1 0x1.aa107e93983f8p-1 0x1.ab3dc52f1494bp-1",
        "0x1.a92c381db69a6p-1 0x1.ae9d8bfa0f58dp-1 0x1.a966e5b6fcca7p-1 0x1.aa5c5ae4c9c84p-1",
        "0x1.b7a40ed1c9df8p-1 0x1.c466fee028eefp-1 nan 0x1.bc7a0293c1149p-1",
        "0x1.addcca13590a2p-1 0x1.ba1673db1a443p-1 nan 0x1.b2b61fa66cdf4p-1",
        "0x1.a8e4d1b165802p-1 0x1.b4ec7da30ced4p-1 nan 0x1.ae2c3b66dc5f3p-1",
        "0x1.abc4222ebb888p-1 0x1.b26a392e47ab7p-1 nan 0x1.acd0f99c42708p-1",
        "0x1.a832ba9825932p-1 0x1.b0b1521019be2p-1 0x1.a9e79f29cc63ap-1 0x1.abbca1c989b06p-1",
        "0x1.a9ec802f7bb70p-1 0x1.af51f73cc524ap-1 0x1.a938ce768278ep-1 0x1.aac050d02dc92p-1",
        "0x1.a7bc2d50fe438p-1 0x1.ae4702a35c717p-1 0x1.a8d5e2634669fp-1 0x1.aa05aa1e95045p-1",
        "0x1.a67aefac728c0p-1 0x1.ad7b49b34dcd2p-1 0x1.a89b0791a64a4p-1 0x1.a98b2a11d3c7bp-1",
    ),
}


class TestScaledSvmTables:
    """The SVM engine's tables: blocks of sample indices and sub-blocks of
    gathered rows and step tables, which are also the log of deferred
    updates to the averaged sums."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["none", "ball", "box", "shifted ball"]),
           T=st.integers(1, 200),
           eval_every=st.integers(1, 200), trials=st.integers(1, 4),
           sizes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           seed=st.integers(0, 2**32 - 1))
    def test_tables_of_1_to_3_steps_agree(self, kind, T, eval_every, trials, sizes, seed):
        # rows with 0 to 9 features; under the default schedule the scale
        # folds at t = 1 and again near t = 14 and t = 140, and the suffix
        # window opens at T/2. Any table sizes give the default sizes' gaps
        # bitwise, and run_sgd's up to rounding, at every checkpoint up to
        # the first step whose margin ties 1. The box and the shifted ball
        # run through run_sgd: its gaps bitwise, ties and all.
        ds = parse_libsvm(SPARSE_TEXT)
        lam = 1.0 / ds.m
        feasible = {"none": Unconstrained(), "ball": L2Ball(0.4, np.zeros(ds.n)),
                    "box": Interval(-0.05, 0.05),
                    "shifted ball": L2Ball(0.4, np.full(ds.n, 0.05))}[kind]
        problem = svm_problem(ds, lam, feasible=feasible)
        factory = SvmOracleFactory(ds, lam)
        config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.zeros(ds.n),
                           eval_every=min(eval_every, T))
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        default = run_trials(problem, factory, config, schemes, trials, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batched_svm, "_svm_blocks", lambda *_: sizes)
            small = run_trials(problem, factory, config, schemes, trials, seed)
        assert np.array_equal(small.gaps, default.gaps, equal_nan=True)
        seq = per_trial_gaps(problem, factory, config, schemes, trials, seed)
        if kind in ("box", "shifted ball"):
            assert np.array_equal(small.gaps, seq, equal_nan=True)
            return
        assert np.array_equal(np.isnan(small.gaps), np.isnan(seq))
        cps = np.array(small.checkpoints)
        for i in range(trials):
            ties = hinge_ties(ds, lam, feasible, T, seed, i)
            # the checkpoint at t reports the iterates before step t
            agree = cps <= (ties[0] if ties.size else T)
            assert not (np.abs(small.gaps[i, agree] - seq[i, agree]) > 1e-12).any()

    # the one set whose s, and so every table row, is known in advance
    @pytest.mark.parametrize("kind", ["none"])
    @pytest.mark.parametrize("sub", [7, 13])
    def test_step_tables_follow_the_scalar_recurrence(self, monkeypatch, kind, sub):
        # Under the default schedule s folds at t = 1, 14 and 145, and the
        # suffix window opens at t = 101. Sub-blocks of 7 steps fold on their
        # first step (t = 1), on their last (t = 14) and inside one (t = 145);
        # those of 13 steps on their first step (t = 14) and inside one; both
        # open the window inside a sub-block. Every table row must be the
        # per-step recurrence's value, bit for bit.
        from sgdavg.averaging import suffix_window_start
        from sgdavg.core import step_size

        ds = parse_libsvm(SPARSE_TEXT)
        lam = 1.0 / ds.m
        T, trials, seed = 200, 3, 6
        problem = svm_problem(ds, lam)
        config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.zeros(ds.n), eval_every=T)

        # the recurrence: s and the sums' A of uniform, suffix and nonuniform
        start = suffix_window_start(T, 0.5)
        assert start == 101
        s, A = 1.0, [0.0, 0.0, 0.0]
        entering, observed, logged, at, etas, folds = [], [], [], [], [], []
        for t in range(1, T + 1):
            entering.append(s)
            A = [A[0] + 1.0 * s, A[1] + (0.0 if t < start else 1.0) * s, A[2] + t * s]
            observed.append(A)
            eta = step_size(DEFAULT_SCHEDULE, lam, t)
            shrink = 1.0 - eta * lam
            s = s * shrink
            if not (abs(s) >= batched_svm._MIN_SCALE and (abs(shrink) <= 1.0 or abs(s) <= 1.0)):
                folds.append(t)
                s, A = 1.0, [0.0, 0.0, 0.0]
            logged.append(A)
            at.append(s)
            etas.append(eta)
        assert folds == [1, 14, 145]
        samples = [RngStream(seed, b).generator().integers(ds.m, size=T) for b in range(trials)]

        tables = []
        fill = batched_svm._ScaledSvm._tables

        def recorded(plan, t0, steps):
            fill(plan, t0, steps)
            tables.append((t0, plan.S[:plan.steps].copy(), plan.A_obs[:, :plan.steps].copy(),
                           plan.A_log[:, 1:plan.steps + 1].copy(),
                           plan.coef[:plan.offsets[-1]].copy()))

        monkeypatch.setattr(batched_svm._ScaledSvm, "_tables", recorded)
        monkeypatch.setattr(batched_svm, "_svm_blocks", lambda *_: (T, sub))
        run_trials(problem, SvmOracleFactory(ds, lam), config,
                   ["final", "uniform", "suffix", "nonuniform"], trials, seed)
        def bits(x):
            return np.asarray(x, dtype=np.float64).view(np.int64)

        assert [t0 for t0, *_ in tables] == list(range(0, T, sub))
        for t0, S, A_obs, A_log, coef in tables:
            steps = range(t0, min(t0 + sub, T))
            assert S.shape == (len(steps), trials)
            assert np.array_equal(bits(S), bits([[entering[i]] * trials for i in steps]))
            for k in range(3):
                want = [[observed[i][k]] * trials for i in steps]
                assert np.array_equal(bits(A_obs[k]), bits(want))
                want = [[logged[i][k]] * trials for i in steps]
                assert np.array_equal(bits(A_log[k]), bits(want))
            want = [etas[i] * ds.labels[r] / at[i] * ds.data[p]
                    for i in steps for r in (samples[b][i] for b in range(trials))
                    for p in range(ds.indptr[r], ds.indptr[r + 1])]
            assert np.array_equal(bits(coef), bits(want))

    @pytest.mark.parametrize("kind", ["none", "ball"])
    def test_index_tables_take_the_dataset_dtype(self, monkeypatch, kind):
        # 3 trials on SPARSE_TEXT's 10 rows and 12 columns: the sample
        # indices lie below 10, int32 while the bound fits and int64 past
        # it; the gathered flat columns and owners are intp whatever the
        # bound. The gaps keep their bits either way, and predraw_bytes
        # counts what the engine allocates: its arrays, 16 bytes per entry
        # for the arrays the gather builds them from, and per step of a
        # sub-block the labels and the step's size, shrink, fold flag,
        # offset and each a_t.
        ds = parse_libsvm(SPARSE_TEXT)
        lam = 1.0 / ds.m
        feasible = {"none": Unconstrained(), "ball": L2Ball(0.4, np.zeros(ds.n))}[kind]
        problem = svm_problem(ds, lam, feasible=feasible)
        config = RunConfig(T=300, schedule=DEFAULT_SCHEDULE, x1=np.zeros(ds.n),
                           eval_every=50)
        plans = []

        class Recording(batched_svm._ScaledSvm):
            def __init__(self, *args):
                super().__init__(*args)
                plans.append(self)

        monkeypatch.setattr(batched_svm, "_ScaledSvm", Recording)
        trials, gaps = 3, set()
        entry = np.intp
        for limit, sample in [(2**31 - 1, np.int32), (20, np.int32), (9, np.int64)]:
            monkeypatch.setattr(data_module, "_INT32_MAX", limit)
            got = run_trials(problem, SvmOracleFactory(ds, lam), config,
                             ["final", "uniform", "suffix", "nonuniform"], trials, 8)
            plan = plans[-1]
            assert (plan.idx.dtype, plan.flat.dtype, plan.owner.dtype) == (sample, entry, entry)
            tables = (plan.idx, plan.owner, plan.flat, plan.vals, plan.coef, plan.applied,
                      plan.S, plan.A_obs, plan.A_log)
            transient = 16 * plan.owner.size + plan.sub * 8 * (trials + len(plan.averaged) + 4)
            assert got.meta["predraw_bytes"] == sum(a.nbytes for a in tables) + transient
            gaps.add(got.gaps.tobytes())
        assert len(gaps) == 1

    @pytest.mark.parametrize("kind", ["none", "ball"])
    def test_gaps_keep_their_pinned_bits(self, kind):
        ds = parse_libsvm(SPARSE_TEXT)
        lam = 1.0 / ds.m
        feasible = {"none": Unconstrained(), "ball": L2Ball(0.4, np.zeros(ds.n))}[kind]
        problem = svm_problem(ds, lam, feasible=feasible)
        config = RunConfig(T=1600, schedule=DEFAULT_SCHEDULE, x1=np.zeros(ds.n),
                           eval_every=200)
        got = run_trials(problem, SvmOracleFactory(ds, lam), config,
                         ["final", "uniform", "suffix", "nonuniform"], 3, 8)
        lines = [" ".join(float(g).hex() for g in row) for row in got.gaps.reshape(-1, 4)]
        assert lines == list(PINNED_SVM_GAPS[kind])

    @pytest.mark.parametrize("kind", ["box", "wide box", "shifted ball"])
    @pytest.mark.parametrize("data", ["sparse", "300x12"])
    def test_box_and_shifted_ball_trials_are_run_sgd_bitwise(self, kind, data):
        # the pinned gaps' setting, T = 1600 on SPARSE_TEXT, and a 300 x 12
        # set at T = 600: these sets run through run_sgd in lockstep, whose
        # trial i is run_sgd on RngStream(8, i), margin ties and all
        ds = (parse_libsvm(SPARSE_TEXT) if data == "sparse"
              else synthetic_separable_dataset(300, 12, seed=5))
        lam = 1.0 / ds.m
        feasible = {"box": Interval(-0.05, 0.05), "wide box": Interval(-6, 6),
                    "shifted ball": L2Ball(0.4, np.full(ds.n, 0.05))}[kind]
        problem = svm_problem(ds, lam, feasible=feasible)
        T = 1600 if data == "sparse" else 600
        config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.zeros(ds.n), eval_every=200)
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        got = run_trials(problem, SvmOracleFactory(ds, lam), config, schemes, 3, 8)
        want = per_trial_gaps(problem, SvmOracleFactory(ds, lam), config, schemes, 3, 8)
        assert np.array_equal(got.gaps, want, equal_nan=True)
        assert not np.isnan(got.gaps[:, -1]).any()


def sparse_dataset(m, n, per_row, seed):
    """m rows of ``per_row`` entries each, one in each of ``per_row`` equal
    bands of the n columns, with uniform values and alternating labels."""
    rng = np.random.default_rng(seed)
    band = n // per_row
    cols = rng.integers(0, band, size=(m, per_row)) + band * np.arange(per_row)
    return Dataset(np.arange(0, m * per_row + 1, per_row), cols.ravel(),
                   rng.random(m * per_row), [1 if i % 2 else -1 for i in range(m)], n)


class TestCheckpointChunks:
    """SVM checkpoints are evaluated scheme by scheme over chunks of trials
    (about 1 MB of dense reports and margins per chunk)."""

    @pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
    def test_chunks_of_1_and_3_trials_agree(self, monkeypatch, wide):
        # the wide set's rows hold 9000 > 8192 entries, past which einsum
        # rounds a lone row differently from a row among others; the suffix
        # window opens after the first checkpoint
        ds = sparse_dataset(40, 9000, 4, 1) if wide else parse_libsvm(SPARSE_TEXT)
        lam = 1.0 / ds.m
        problem, factory = svm_problem(ds, lam), SvmOracleFactory(ds, lam)
        config = RunConfig(T=200, schedule=DEFAULT_SCHEDULE, x1=np.zeros(ds.n),
                           eval_every=50)
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        want = run_trials(problem, factory, config, schemes, 5, 9)
        assert np.isnan(want.gaps[:, 0, 2]).all() and not np.isnan(want.gaps[:, -1]).any()
        for chunk in (1, 3):
            monkeypatch.setattr(batched_svm, "_rows_per_chunk", lambda row_bytes: chunk)
            got = run_trials(problem, factory, config, schemes, 5, 9)
            assert np.array_equal(got.gaps, want.gaps, equal_nan=True), chunk

    def test_objective_rows_do_not_depend_on_the_chunk(self, monkeypatch):
        ds = sparse_dataset(40, 9000, 4, 2)
        objective = svm_problem(ds, 0.1).objective
        W = np.random.default_rng(3).standard_normal((5, ds.n))
        want = objective.rows(W)
        # a lone row, as run_sgd evaluates it, sums as it does among others
        lone = np.array([objective(w) for w in W])
        assert np.array_equal(lone, want)
        for chunk in (1, 2, 3):
            got = np.concatenate([objective.rows(W[lo:lo + chunk]) for lo in range(0, 5, chunk)])
            assert np.array_equal(got, want), chunk
            # the objective's own chunks of margins: 8 * m bytes per row
            monkeypatch.setattr(core_module, "_CHUNK_BYTES", 8 * ds.m * chunk)
            assert np.array_equal(objective.rows(W), want), chunk

    def test_objective_margins_are_bounded(self):
        # 64 rows of a 20000 x 50 set: their margins take 10.24 MB at once,
        # and a chunk of 6 rows (about 1 MB of margins) 0.96 MB, which the
        # sparse product makes in two copies. The bound is 2.5 MB.
        import tracemalloc

        ds = sparse_dataset(20_000, 50, 5, 4)
        objective = svm_problem(ds, 0.1).objective
        W = np.random.default_rng(5).standard_normal((64, ds.n))
        want = objective.rows(W[:1])  # a first, untraced call allocates caches
        tracemalloc.start()
        try:
            got = objective.rows(W)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got[0] == want[0]
        assert peak < 2_500_000, peak

    def test_non_finite_objective_in_a_later_chunk(self, monkeypatch):
        # the largest uniform objective at the first checkpoint, that of
        # trial 4 at seed 5, is made infinite: every chunking names trial 4
        # and the uniform scheme, as evaluating all trials at once does
        import dataclasses

        from sgdavg.experiments import TrialFailure

        ds = parse_libsvm(SPARSE_TEXT)
        lam = 1.0 / ds.m
        problem, factory = svm_problem(ds, lam), SvmOracleFactory(ds, lam)
        config = RunConfig(T=60, schedule=DEFAULT_SCHEDULE, x1=np.zeros(ds.n),
                           eval_every=20)
        first = run_trials(problem, factory, config, ["uniform", "final"], 5, 5).gaps[:, 0, 0]
        assert int(np.argmax(first)) == 4
        real = problem.objective

        class Poisoned:
            def __call__(self, w):
                return real(w)

            def rows(self, W):
                v = real.rows(W)
                v[v >= first[4]] = np.inf
                return v

        poisoned = dataclasses.replace(problem, objective=Poisoned())
        for chunk in (None, 1, 2, 3):
            if chunk is not None:
                monkeypatch.setattr(batched_svm, "_rows_per_chunk", lambda row_bytes: chunk)
            with pytest.raises(TrialFailure) as err:
                run_trials(poisoned, factory, config, ["uniform", "final"], 5, 5)
            assert str(err.value) == (
                "trial 4 (base seed 5, stream index 4) failed: run aborted at iteration "
                "20: non-finite uniform objective at checkpoint"), chunk

    def test_checkpoint_memory_is_bounded(self, monkeypatch):
        # 32 trials on a 20000 x 5000 set: one scheme's dense reports take
        # 1.28 MB and their margins 5.12 MB. Evaluated 5 trials at a time,
        # a checkpoint allocates 1.8 MB under tracemalloc; building every
        # scheme's reports and margins for all trials at once took 15.4 MB
        # for the evaluation alone. The bound is 2.5 MB.
        import tracemalloc

        ds = sparse_dataset(20_000, 5_000, 5, 3)
        lam = 1.0 / ds.m
        problem, factory = svm_problem(ds, lam), SvmOracleFactory(ds, lam)
        config = RunConfig(T=40, schedule=DEFAULT_SCHEDULE, x1=np.zeros(ds.n),
                           eval_every=10)
        schemes = ["final", "uniform", "suffix", "nonuniform"]
        # a first, untraced run: the first call in a process allocates caches
        run_trials(problem, factory, config, schemes, 2, 1)
        peaks = []
        evaluate = batched_svm._evaluate_chunked

        def traced(*args):
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = evaluate(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return out

        monkeypatch.setattr(batched_svm, "_evaluate_chunked", traced)
        tracemalloc.start()
        try:
            run_trials(problem, factory, config, schemes, 32, 1)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4
        assert max(peaks) < 2_500_000, peaks


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


def _svm_objectives_matrix():
    # raw SVM objective values: no optimum is known, so nothing is subtracted
    ds = synthetic_separable_dataset(60, 5, seed=8)
    problem = svm_problem(ds, 1.0 / ds.m)
    config = RunConfig(T=400, schedule=DEFAULT_SCHEDULE, x1=np.zeros(5), eval_every=50)
    m = run_trials(problem, SvmOracleFactory(ds, 1.0 / ds.m), config,
                   ["final", "uniform", "suffix", "nonuniform"], 6, 9)
    assert m.meta["fstar"] is None
    return m


def _tail_study_matrix():
    # the tail study's shape: 1000 trials x 100 checkpoints x 4 schemes
    problem, factory, config = quad_ball_setting(T=10_000, eval_every=100)
    return run_trials(problem, factory, config,
                      ["final", "uniform", "suffix", "nonuniform"], 1000, 12201)


_EMITTER_MATRICES = [_suffix_not_open_matrix, _ragged_nan_matrix, _constant_matrix,
                     _single_checkpoint_matrix, _svm_objectives_matrix]


@pytest.fixture
def kernel_for_any_size(monkeypatch):
    # the kernel formats even one value, so that small matrices test it
    monkeypatch.setattr(numfmt, "_KERNEL_MIN", 1)


@pytest.mark.usefixtures("kernel_for_any_size")
class TestEmittersMatchPerCellReference:
    @pytest.mark.parametrize("make", _EMITTER_MATRICES)
    @pytest.mark.parametrize("comments", [(), ("config: x=1", "100% sure")])
    def test_csv_bytes(self, tmp_path, make, comments):
        m = make()
        export_csv(m, tmp_path / "new.csv", comments=comments)
        reference_export_csv(m, tmp_path / "ref.csv", comments=comments)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("make", _EMITTER_MATRICES)
    def test_svg_bytes(self, tmp_path, make):
        m = make()
        for schemes in (None, m.scheme_names[-1:], m.scheme_names[::-1][:2]):
            render_svg(m, tmp_path / "new.svg", schemes=schemes)
            reference_render_svg(m, tmp_path / "ref.svg", schemes=schemes)
            new = (tmp_path / "new.svg").read_bytes()
            assert new == (tmp_path / "ref.svg").read_bytes(), schemes

    def test_interrupted_write_keeps_the_old_file(self, tmp_path):
        # lines already written when the write stops must not reach the target
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

    @pytest.mark.parametrize("make", [_suffix_not_open_matrix, _ragged_nan_matrix,
                                      _svm_objectives_matrix])
    @pytest.mark.parametrize("block", [1, 7])
    def test_kernel_blocks_split_rows(self, tmp_path, monkeypatch, make, block):
        # kernel blocks of 1 and 7 cells end inside the trial rows (10 to 16 cells)
        m = make()
        monkeypatch.setattr(io_module, "_BLOCK_VALUES", block)
        export_csv(m, tmp_path / "new.csv")
        render_svg(m, tmp_path / "new.svg")
        reference_export_csv(m, tmp_path / "ref.csv")
        reference_render_svg(m, tmp_path / "ref.svg")
        for name in ("csv", "svg"):
            assert (tmp_path / f"new.{name}").read_bytes() == (tmp_path / f"ref.{name}").read_bytes()

    @pytest.mark.parametrize("block", [1013, 4096])
    def test_tail_study_matrix(self, tmp_path, monkeypatch, block):
        # 1013-cell kernel blocks end inside the 400-cell trial rows
        m = _tail_study_matrix()
        assert m.gaps.shape == (1000, 100, 4)
        monkeypatch.setattr(io_module, "_BLOCK_VALUES", block)
        export_csv(m, tmp_path / "new.csv", comments=["config: x=1"])
        render_svg(m, tmp_path / "new.svg")
        reference_export_csv(m, tmp_path / "ref.csv", comments=["config: x=1"])
        reference_render_svg(m, tmp_path / "ref.svg")
        for name in ("csv", "svg"):
            assert (tmp_path / f"new.{name}").read_bytes() == (tmp_path / f"ref.{name}").read_bytes()

    def test_percent_in_scheme_name_is_literal(self, tmp_path):
        m = TrialMatrix(gaps=np.ones((2, 2, 1)), checkpoints=[1, 2],
                        scheme_names=["50%d"], meta={})
        export_csv(m, tmp_path / "new.csv")
        reference_export_csv(m, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _python_bytes(values, fmt):
    return [(fmt % v).encode() for v in np.asarray(values, dtype=np.float64).tolist()]


def _bit_patterns(rng, size):
    return rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)


_FORMATS = ["%.17g", "%.2f"]


@pytest.mark.usefixtures("kernel_for_any_size")
class TestFormatKernel:
    """numfmt.format_floats against Python's % on float64 values."""

    @given(st.lists(st.one_of(st.floats(width=64),
                              st.integers(0, 2**64 - 1).map(
                                  lambda b: float(np.uint64(b).view(np.float64)))),
                    max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_float64(self, values):
        # NaN, +-inf, +-0, subnormals, extremes and any bit pattern
        x = np.array(values, dtype=np.float64)
        for fmt in _FORMATS:
            assert numfmt.format_floats(x, fmt) == _python_bytes(x, fmt)

    @pytest.mark.parametrize("fmt", _FORMATS)
    def test_seeded_sweep(self, fmt):
        # 1e6 values per format: random bit patterns, log-uniform values over
        # the whole range, and over the range the tail study and the SVG use
        rng = np.random.default_rng(1313)
        span = (-300, 300) if fmt == "%.17g" else (-4, 15)
        sweep = np.concatenate([
            _bit_patterns(rng, 250_000),
            10.0 ** rng.uniform(*span, size=250_000),
            10.0 ** rng.uniform(-9, 1, size=250_000),
            rng.uniform(54.0, 354.0, size=250_000),
        ])
        block = io_module._BLOCK_VALUES
        for start in range(0, sweep.size, block):
            part = sweep[start:start + block]
            assert numfmt.format_floats(part, fmt) == _python_bytes(part, fmt), start

    def test_exact_ties(self):
        # 17 digits of these doubles end in a tie: Python rounds half to even
        ties = [1234567890123456.25, 1234567890123456.75]
        got = numfmt.format_floats(np.array(ties), "%.17g")
        assert got == [b"1234567890123456.2", b"1234567890123456.8"]
        halves = np.array([0.125, 0.375, 2.5, 1.005, 2.675, 1e14 + 0.125])
        assert numfmt.format_floats(halves, "%.2f") == _python_bytes(halves, "%.2f")

    def test_neighbours_of_powers_of_ten(self):
        powers = np.array([float(f"1e{p}") for p in range(-310, 309)])
        near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                               np.nextafter(np.nextafter(powers, 0.0), 0.0)])
        for fmt in _FORMATS:
            assert numfmt.format_floats(near, fmt) == _python_bytes(near, fmt)

    def test_round_up_to_the_next_power(self):
        # doubles below a power of ten whose 17 digits round up to it
        candidates = [float(f"1e{p}") for p in range(-300, 300)]
        candidates += [np.nextafter(v, 0.0) for v in candidates]
        below = [v for v in candidates if ("%.17g" % v).startswith("1e")
                 and Fraction(v) < Fraction(10) ** int(("%.17g" % v)[2:])]
        assert len(below) > 10
        assert numfmt.format_floats(np.array(below), "%.17g") == _python_bytes(below, "%.17g")
        carries = np.array([9.995, 99.995, 999.995, 9999.995, 0.995, 0.005, 99999999999.995])
        assert numfmt.format_floats(carries, "%.2f") == _python_bytes(carries, "%.2f")

    def test_window_is_what_keeps_ties_exact(self, monkeypatch):
        # negative control: a window of 0 lets the kernel round an exact tie
        # itself, half down, where Python rounds half to even
        tie = np.array([1234567890123456.75])
        assert numfmt.format_floats(tie, "%.17g") == [b"1234567890123456.8"]
        monkeypatch.setattr(numfmt_kernel, "_WINDOW", 0.0)
        assert numfmt.format_floats(tie, "%.17g") == [b"1234567890123456.7"]

    @pytest.mark.parametrize("fmt", _FORMATS)
    def test_no_value_in_range(self, fmt):
        x = np.array([np.nan, -0.0, 0.0, -1.5, np.inf, 5e-324, 1.7976931348623157e308])
        assert numfmt.format_floats(x, fmt) == _python_bytes(x, fmt)
        assert numfmt.format_floats(np.empty(0), fmt) == []

    def test_other_formats_refused(self):
        with pytest.raises(ValueError):
            numfmt.format_floats(np.ones(2), "%.3f")


def test_small_inputs_bypass_the_kernel(monkeypatch):
    x = 10.0 ** np.random.default_rng(5).uniform(-20, 20, size=numfmt._KERNEL_MIN)
    monkeypatch.setattr(numfmt_kernel, "rounded", None)  # a kernel call would fail
    for fmt in _FORMATS:
        assert numfmt.format_floats(x[:-1], fmt) == _python_bytes(x[:-1], fmt)
        with pytest.raises(TypeError):
            numfmt.format_floats(x, fmt)
