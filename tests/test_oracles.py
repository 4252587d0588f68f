import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdavg import oracles
from sgdavg.core import InputError
from sgdavg.data import Dataset, parse_libsvm, synthetic_separable_dataset
from sgdavg.oracles import (
    BoundedUniformBall,
    GaussianNoise,
    LowerBoundOracle,
    NoNoise,
    QuadraticObjective,
    RngStream,
    SvmObjective,
    SvmOracle,
    empirical_mgf_check,
    full_svm_objective,
    gaussian_mgf_exact,
    lb_oracle_query,
    quadratic_oracle_query,
    quadratic_problem,
    svm_oracle_query,
    svm_problem,
)

def one_point_dataset():
    # the point e_1 in three dimensions, labelled +1
    return Dataset([0, 1], [0], [1.0], [+1], 3)


def two_point_dataset():
    return Dataset([0, 1, 2], [0, 0], [1.0, -1.0], [+1, -1], 1)


class TestRngStream:
    def test_same_stream_same_draws(self):
        a = RngStream(42, 7).generator().random(10)
        b = RngStream(42, 7).generator().random(10)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = RngStream(42, 0).generator().random(10)
        b = RngStream(42, 1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_array_draws_match_scalar_draws(self):
        # the batched trial engine relies on this stream equivalence
        g1, g2 = RngStream(7, 3).generator(), RngStream(7, 3).generator()
        assert np.array_equal(
            np.array([g1.uniform(-1, 1) for _ in range(50)]), g2.uniform(-1, 1, 50)
        )
        g1, g2 = RngStream(7, 4).generator(), RngStream(7, 4).generator()
        assert np.array_equal(
            np.array([g1.integers(13) for _ in range(50)]), g2.integers(13, size=50)
        )
        g1, g2 = RngStream(7, 5).generator(), RngStream(7, 5).generator()
        assert np.array_equal(
            np.concatenate([g1.standard_normal(5) for _ in range(50)]),
            g2.standard_normal((50, 5)).ravel(),
        )


class TestNoiseModels:
    def test_no_noise(self):
        assert np.array_equal(NoNoise().sample(4, RngStream(0).generator()), np.zeros(4))

    def test_ball_stays_inside(self):
        rng = RngStream(1).generator()
        noise = BoundedUniformBall(1.0)
        draws = noise.sample_batch(10**5, 3, rng)
        norms = np.linalg.norm(draws, axis=1)
        assert norms.max() <= 1.0 + 1e-12
        # mean within 4 standard errors of zero, per coordinate
        se = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * se)

    def test_ball_one_dim_is_uniform_interval(self):
        rng = RngStream(2).generator()
        draws = BoundedUniformBall(2.0).sample_batch(20000, 1, rng).ravel()
        assert draws.max() <= 2.0 and draws.min() >= -2.0
        # uniform on [-2, 2] has variance 4/3
        assert draws.var() == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_gaussian_norm_scale(self):
        rng = RngStream(3).generator()
        for n in (1, 10):
            draws = GaussianNoise(1.5).sample_batch(20000, n, rng)
            assert (draws**2).sum(axis=1).mean() == pytest.approx(2.25, rel=0.05)

    def test_validation(self):
        with pytest.raises(InputError):
            BoundedUniformBall(0.0)
        with pytest.raises(InputError):
            GaussianNoise(-1.0)


class TestSvmOracle:
    def test_zero_weights_active_hinge(self):
        w = np.zeros(3)
        s = svm_oracle_query(w, one_point_dataset(), 0.7, RngStream(0))
        assert np.array_equal(s.ghat, [-1.0, 0.0, 0.0])
        assert s.g is None and s.zhat is None

    def test_inactive_hinge_returns_regularizer(self):
        # y <w, x> = 2 >= 1, so only lam*w survives
        w = np.array([2.0, 0.0, 0.0])
        s = svm_oracle_query(w, one_point_dataset(), 0.5, RngStream(0))
        assert np.allclose(s.ghat, 0.5 * w, rtol=0, atol=0)

    def test_single_point_expectation_exact(self):
        # with one data point every draw picks it: the mean over 1e4 draws
        # is exactly the unique subgradient
        w = np.zeros(3)
        rng = RngStream(5).generator()
        acc = np.zeros(3)
        for _ in range(10**4):
            acc += svm_oracle_query(w, one_point_dataset(), 1.0, rng).ghat
        assert np.array_equal(acc / 10**4, [-1.0, 0.0, 0.0])

    def test_empty_lam_validation(self):
        with pytest.raises(InputError):
            svm_oracle_query(np.zeros(3), one_point_dataset(), 0.0, RngStream(0))

    @pytest.mark.parametrize("ds", [
        parse_libsvm("+1 2:0.5 5:-1.25 9:3\n-1 1:2 3:0.75\n+1\n-1 4:-0.5 9:1\n", n=10),
        synthetic_separable_dataset(40, 10, seed=3),
    ], ids=["text", "dense"])
    def test_step_reads_the_sampled_row_as_its_dense_form(self, ds):
        # the row's inner product and hinge update agree with the dense row
        dense = np.asarray(ds.matrix().todense())
        rng = np.random.default_rng(0)
        lam = 0.25
        for k in range(40):
            w = rng.standard_normal(10) * (0.1 if k % 2 else 3.0)
            s = svm_oracle_query(w, ds, lam, RngStream(k))
            i = int(RngStream(k).generator().integers(ds.m))
            x, y = dense[i], ds.labels[i]
            want = lam * w - (y * x if y * float(x @ w) < 1.0 else 0.0)
            assert np.allclose(s.ghat, want, rtol=1e-12, atol=1e-15)
            off_row = x == 0.0
            assert np.array_equal(s.ghat[off_row], lam * w[off_row])

    def test_hinge_test_uses_the_sampled_row_inner_product(self):
        # w is scaled so the sampled row's margin sits 1e-9 to either side of
        # 1: the hinge fires exactly when the dense inner product says so
        ds = parse_libsvm("+1 2:0.5 5:-1.25 9:3\n-1 1:2 3:0.75\n-1 4:-0.5 9:1\n", n=10)
        dense = np.asarray(ds.matrix().todense())
        rng = np.random.default_rng(1)
        lam = 0.25
        for k in range(40):
            i = int(RngStream(k).generator().integers(ds.m))
            x, y = dense[i], ds.labels[i]
            w0 = rng.standard_normal(10)
            side = 1.0 if k % 2 else -1.0
            w = w0 * ((1.0 + side * 1e-9) / (y * float(x @ w0)))
            s = svm_oracle_query(w, ds, lam, RngStream(k))
            want = lam * w - (y * x if side < 0 else 0.0)
            assert np.allclose(s.ghat, want, rtol=1e-12, atol=1e-15)

    def test_hinge_update_writes_only_the_sampled_row(self):
        # a small iterate keeps every margin below 1, so the update always
        # fires; on-row entries get lam*w - y*x, the rest keep lam*w, exactly
        ds = parse_libsvm("+1 2:0.5 5:-1.25 9:3\n-1 1:2 3:0.75\n+1\n-1 4:-0.5 9:1\n", n=10)
        rng = np.random.default_rng(2)
        lam = 0.5
        for k in range(40):
            w = rng.standard_normal(10) * 1e-3
            s = svm_oracle_query(w, ds, lam, RngStream(k))
            i = int(RngStream(k).generator().integers(ds.m))
            idx = ds.indices[ds.indptr[i]:ds.indptr[i + 1]]
            vals = ds.data[ds.indptr[i]:ds.indptr[i + 1]]
            want = lam * w
            want[idx] = lam * w[idx] - ds.labels[i] * vals
            assert np.array_equal(s.ghat, want)

    def test_iterate_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            svm_oracle_query(np.zeros(2), one_point_dataset(), 0.5, RngStream(0))

    def test_oracle_class_deterministic(self):
        ds = two_point_dataset()
        o1 = SvmOracle(ds, 0.5, RngStream(9, 1))
        o2 = SvmOracle(ds, 0.5, RngStream(9, 1))
        w = np.array([0.3])
        for t in range(1, 50):
            assert np.array_equal(o1.query(w, t).ghat, o2.query(w, t).ghat)


class TestFullSvmObjective:
    def test_zero_weights(self):
        assert full_svm_objective(np.zeros(3), one_point_dataset(), 0.123) == 1.0

    def test_regularizer_only(self):
        w = np.array([1.0, 0.0, 0.0])
        assert full_svm_objective(w, one_point_dataset(), 2.0) == pytest.approx(1.0)

    def test_two_point_hand_evaluation(self):
        w = np.array([0.5])
        assert full_svm_objective(w, two_point_dataset(), 1.0) == pytest.approx(0.625)


def reference_svm_objective(w, dataset, lam):
    """The one-vector formula the row-wise SVM objective replaced."""
    margins = dataset.labels * dataset.dot_all(w)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * lam * float(w @ w) + float(hinge.mean())


class TestRowObjectives:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 6),
        st.floats(1e-2, 1e2),
        st.data(),
    )
    def test_quadratic_rows_match_per_row_formula(self, dim, rows, mu, data):
        X = np.array(data.draw(st.lists(
            st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim),
            min_size=rows, max_size=rows)))
        obj = QuadraticObjective(mu)
        got = obj.rows(X)
        assert got.shape == (rows,)
        for x, g in zip(X, got):
            want = 0.5 * mu * np.sum(x * x)
            if dim == 1:
                assert g == want
            else:
                assert abs(g - want) <= 1e-15 * abs(want)
            # the scalar objective is the one-row case of the same formula
            assert obj(x) == g

    @pytest.mark.parametrize("ds", [
        parse_libsvm("+1 1:0.5 3:1.2 7:-0.4\n-1 2:0.9 4:0.3\n+1\n"
                     "-1 1:-1.1 2:0.2 3:0.7 5:1.5 6:-0.3\n+1 6:2.0 7:0.1\n"),
        synthetic_separable_dataset(300, 6, seed=2),
    ])
    def test_svm_rows_match_reference_formula(self, ds):
        lam = 0.3
        W = np.random.default_rng(4).standard_normal((9, ds.n))
        W[0] = 0.0
        obj = SvmObjective(ds, lam)
        got = obj.rows(W)
        assert got.shape == (9,)
        for w, g in zip(W, got):
            want = reference_svm_objective(w, ds, lam)
            assert abs(g - want) <= 1e-12 * abs(want)
            assert obj(w) == g == full_svm_objective(w, ds, lam)

    def test_svm_rows_validate_like_the_scalar_objective(self):
        with pytest.raises(InputError):
            SvmObjective(one_point_dataset(), 0.0).rows(np.zeros((2, 3)))
        with pytest.raises(InputError):
            full_svm_objective(np.zeros(3), Dataset([0], [], [], [], 3), 1.0)


class TestQuadraticOracle:
    def test_exact_gradient_no_noise(self):
        s = quadratic_oracle_query(np.array([3.0]), NoNoise(), RngStream(0))
        assert np.array_equal(s.ghat, [3.0])
        assert np.array_equal(s.zhat, [0.0])

    def test_noise_only_at_origin(self):
        s = quadratic_oracle_query(np.zeros(2), BoundedUniformBall(1.0), RngStream(1))
        assert np.array_equal(s.ghat, -s.zhat)

    def test_decomposition_identity_exact(self):
        rng = RngStream(2).generator()
        for _ in range(200):
            x = rng.standard_normal(3)
            s = quadratic_oracle_query(x, GaussianNoise(1.0), rng)
            assert np.array_equal(s.ghat + s.zhat, s.g)

    def test_ball_noise_monte_carlo(self):
        rng = RngStream(3).generator()
        zs = np.empty(10**5)
        x = np.array([1.0])
        for i in range(zs.size):
            s = quadratic_oracle_query(x, BoundedUniformBall(1.0), rng)
            zs[i] = s.zhat[0]
        assert np.abs(zs).max() <= 1.0
        assert abs(zs.mean()) <= 4 * zs.std() / math.sqrt(zs.size)

    def test_mean_zero_gaussian(self):
        rng = RngStream(4).generator()
        zs = np.empty((10**5, 2))
        x = np.array([0.5, -0.5])
        for i in range(zs.shape[0]):
            zs[i] = quadratic_oracle_query(x, GaussianNoise(1.0), rng).zhat
        se = zs.std(axis=0) / math.sqrt(zs.shape[0])
        assert np.all(np.abs(zs.mean(axis=0)) <= 4 * se)


class TestLowerBoundOracle:
    def test_silent_first_half(self):
        s = lb_oracle_query(np.array([0.5]), 3, 8, RngStream(0))
        assert s.zhat[0] == 0.0
        assert s.ghat[0] == 0.5

    def test_magnitude_at_t6_T8(self):
        s = lb_oracle_query(np.array([0.0]), 6, 8, RngStream(0))
        assert abs(s.zhat[0]) == pytest.approx(4.5)

    def test_silent_last_quarter(self):
        s = lb_oracle_query(np.array([0.0]), 7, 8, RngStream(0))
        assert s.zhat[0] == 0.0

    @pytest.mark.parametrize("T", [4, 8, 100, 1024])
    def test_noise_window_and_bound(self, T):
        rng = RngStream(1).generator()
        for t in range(1, T + 1):
            z = lb_oracle_query(np.zeros(1), t, T, rng).zhat[0]
            if t <= T // 2 or t > 3 * T // 4:
                assert z == 0.0
            else:
                assert abs(z) == pytest.approx((T + 1) / (T - t))
                assert abs(z) <= 6.0

    def test_mean_zero_in_window(self):
        rng = RngStream(2).generator()
        zs = np.array(
            [lb_oracle_query(np.zeros(1), 6, 8, rng).zhat[0] for _ in range(10**5)]
        )
        assert abs(zs.mean()) <= 4 * zs.std() / math.sqrt(zs.size)

    def test_divisibility_precondition(self):
        with pytest.raises(InputError):
            lb_oracle_query(np.zeros(1), 1, 10, RngStream(0))
        with pytest.raises(InputError):
            LowerBoundOracle(6, RngStream(0))

    def test_decomposition_identity(self):
        rng = RngStream(3).generator()
        for t in range(1, 9):
            s = lb_oracle_query(np.array([0.25]), t, 8, rng)
            assert np.array_equal(s.ghat + s.zhat, s.g)

    def test_determinism(self):
        o1 = LowerBoundOracle(8, RngStream(11, 2))
        o2 = LowerBoundOracle(8, RngStream(11, 2))
        x = np.array([0.1])
        for t in range(1, 9):
            assert np.array_equal(o1.query(x, t).ghat, o2.query(x, t).ghat)


MGF_NOISES = [(GaussianNoise(1.0), 1), (GaussianNoise(1.3), 50), (BoundedUniformBall(2.0), 1),
              (BoundedUniformBall(2.0), 3), (NoNoise(), 7)]


class TestMgfCheck:
    def test_no_noise_exactly_one(self):
        assert empirical_mgf_check(NoNoise(), 3.0, 4, 10**4, RngStream(0)) == (1.0, 0.0)

    def test_gaussian_n1_matches_closed_form(self):
        est, _ = empirical_mgf_check(GaussianNoise(1.0), 2.0, 1, 10**5, RngStream(1))
        assert gaussian_mgf_exact(1.0, 2.0, 1) == pytest.approx(math.sqrt(2.0))
        assert est == pytest.approx(math.sqrt(2.0), abs=0.05)

    def test_gaussian_n50_below_two(self):
        est, _ = empirical_mgf_check(GaussianNoise(1.0), 2.0, 50, 10**5, RngStream(2))
        exact = gaussian_mgf_exact(1.0, 2.0, 50)
        # closed form sits just above exp(1/4) and decreases toward it in n
        assert math.exp(0.25) < exact < 1.3
        assert est == pytest.approx(exact, abs=0.05)
        assert est <= 2.0

    def test_sample_count_precondition(self):
        with pytest.raises(InputError):
            empirical_mgf_check(NoNoise(), 1.0, 1, 100, RngStream(0))

    def test_divergent_closed_form(self):
        assert gaussian_mgf_exact(1.0, 1.0, 1) == math.inf

    def test_generator_argument_rejected(self):
        with pytest.raises(InputError, match="RngStream"):
            empirical_mgf_check(GaussianNoise(1.0), 2.0, 1, 10**4, np.random.default_rng(0))

    def test_standard_error(self):
        _, stderr = empirical_mgf_check(GaussianNoise(1.0), 2.0, 50, 10**5, RngStream(2))
        # e = exp(||z||^2/4) has variance E[exp(||z||^2/2)] - E[e]^2, both closed forms
        var = gaussian_mgf_exact(1.0, math.sqrt(2.0), 50) - gaussian_mgf_exact(1.0, 2.0, 50) ** 2
        assert stderr == pytest.approx(math.sqrt(var / 10**5), rel=0.05)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_has_infinite_standard_error(self):
        # kappa 0.1: about 0.8% of the draws overflow exp(z^2 / kappa^2)
        assert empirical_mgf_check(GaussianNoise(1.0), 0.1, 1, 10**4, RngStream(0)) == (
            math.inf, math.inf)

    @pytest.mark.parametrize("noise, n", MGF_NOISES)
    @pytest.mark.parametrize("sub_elements", [None, 1, 333])
    def test_sub_batches_match_whole_batches(self, monkeypatch, noise, n, sub_elements):
        # 70001 samples: two full batches of 32768 and a partial one
        want = reference_mgf_check(noise, 2.0, n, 70001, RngStream(9))
        if sub_elements is not None:
            monkeypatch.setattr(oracles, "_MGF_SUB_ELEMENTS", sub_elements)
        assert empirical_mgf_check(noise, 2.0, n, 70001, RngStream(9)) == want

    @pytest.mark.parametrize("noise, n", MGF_NOISES)
    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_any_pool_size_matches_whole_batches(self, monkeypatch, noise, n, pool):
        want = reference_mgf_check(noise, 2.0, n, 70001, RngStream(9))
        monkeypatch.setattr(oracles, "_MGF_SUB_ELEMENTS", 333)
        monkeypatch.setattr(oracles, "_mgf_pool_size", lambda batches: min(batches, pool))
        assert empirical_mgf_check(noise, 2.0, n, 70001, RngStream(9)) == want

    @pytest.mark.parametrize("pool", [2, 3])
    def test_whole_batch_noise_holds_one_batch(self, monkeypatch, pool):
        # 3-D ball noise is drawn a whole 32768 x 3 batch at a time: with the
        # default _MGF_SUB_ELEMENTS only one batch may be in flight, so a
        # larger pool must not raise the peak above the one-thread run's
        import tracemalloc

        noise = BoundedUniformBall(2.0)
        assert not noise.batch_by_rows(3)

        def peak(threads):
            monkeypatch.setattr(oracles, "_mgf_pool_size", lambda batches: min(batches, threads))
            tracemalloc.start()
            try:
                empirical_mgf_check(noise, 2.0, 3, 4 * 32768, RngStream(9))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(1)
        # a second batch in flight would add about 2.7 MB to the ~4 MB peak
        assert peak(pool) < one + 32768 * 3 * 8


def reference_mgf_check(noise, kappa, n, samples, stream):
    """One loop over the batches, each drawn whole from its own stream
    (spawn key (index, b)): the estimate and its standard error."""
    inv_k2 = 1.0 / (kappa * kappa)
    sums, sums_sq = [], []
    for b, lo in enumerate(range(0, samples, 1 << 15)):
        ss = np.random.SeedSequence(entropy=stream.seed, spawn_key=(stream.index, b))
        rng = np.random.Generator(np.random.PCG64(ss))
        z = noise.sample_batch(min(1 << 15, samples - lo), n, rng)
        e = np.exp((z * z).sum(axis=1) * inv_k2)
        sums.append(float(e.sum()))
        sums_sq.append(float((e * e).sum()))
    mean = math.fsum(sums) / samples
    mean_sq = math.fsum(sums_sq) / samples
    return mean, math.sqrt(max(0.0, mean_sq - mean * mean) / samples)


class TestProblemFactories:
    def test_quadratic_problem_metadata(self):
        from sgdavg.core import Interval

        p = quadratic_problem(1, feasible=Interval(-6, 6))
        assert p.mu == 1.0
        assert p.lipschitz == 6.0
        assert p.fstar == 0.0
        assert p.objective(np.array([2.0])) == 2.0

    def test_quadratic_requires_origin(self):
        from sgdavg.core import Interval

        with pytest.raises(InputError):
            quadratic_problem(1, feasible=Interval(1.0, 2.0))

    def test_svm_problem_metadata(self):
        ds = two_point_dataset()
        p = svm_problem(ds, 0.5)
        assert p.mu == 0.5
        assert p.lipschitz == math.inf
        assert p.optimum is None

    def test_svm_problem_ball_cap_gives_finite_lipschitz(self):
        from sgdavg.core import L2Ball

        ds = two_point_dataset()
        p = svm_problem(ds, 0.5, feasible=L2Ball(4.0, np.zeros(1)))
        # lam * (||center|| + radius) + max_i ||x_i|| = 0.5*4 + 1
        assert p.lipschitz == pytest.approx(3.0)

    def test_svm_ball_lipschitz_uses_the_largest_row_norm(self):
        from sgdavg.core import L2Ball

        ds = parse_libsvm("+1 1:3 2:4\n-1\n+1 2:-2.5 3:0.5\n-1 1:0.5\n")
        p = svm_problem(ds, 0.5, feasible=L2Ball(2.0, np.zeros(3)))
        # lam * (||center|| + radius) + max_i ||x_i|| = 0.5*2 + ||(3, 4)||
        assert p.lipschitz == pytest.approx(6.0, rel=1e-15)

    def test_svm_subgradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        ys = [int(y) for y in np.sign(rng.standard_normal(8)) if y != 0]
        ds = Dataset.from_dense(np.array([rng.standard_normal(3) for _ in ys]), ys)
        p = svm_problem(ds, 0.3)
        w = rng.standard_normal(3)
        g = p.subgradient(w)
        # hinge is differentiable almost everywhere: central differences agree
        eps = 1e-7
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            fd = (p.objective(w + e) - p.objective(w - e)) / (2 * eps)
            assert g[k] == pytest.approx(fd, abs=1e-5)
