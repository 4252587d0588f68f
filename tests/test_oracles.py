import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdavg import data as data_module
from sgdavg import oracles
from sgdavg.core import InputError
from sgdavg.data import Dataset, parse_libsvm, synthetic_separable_dataset
from sgdavg.oracles import (
    BoundedUniformBall,
    GaussianNoise,
    LowerBoundOracle,
    LowerBoundOracleFactory,
    NoNoise,
    Oracle,
    QuadraticObjective,
    QuadraticOracleFactory,
    RngStream,
    SvmObjective,
    SvmOracleFactory,
    empirical_mgf_check,
    full_svm_objective,
    gaussian_mgf_exact,
    quadratic_problem,
    svm_problem,
)

def sample(noise, count, n, rng):
    """(count, n) draws of one generator: the noise's fill of a single row."""
    out = np.empty((1, count, n))
    noise.fill((rng,), out)
    return out[0]


def scipy_matrix(ds):
    """The dataset's features as a scipy CSR matrix, the reference for its products."""
    return sp.csr_matrix((ds.data, ds.indices, ds.indptr), shape=(ds.m, ds.n))


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
        # 3-D ball noise: a batch holds consecutive single draws, and a batch
        # split in parts holds the whole batch's draws
        noise = BoundedUniformBall(1.5)
        gens = [RngStream(7, 6).generator() for _ in range(3)]
        whole = sample(noise, 50, 3, gens[0])
        assert np.array_equal(
            np.concatenate([sample(noise, 1, 3, gens[1]) for _ in range(50)]), whole)
        parts = [sample(noise, k, 3, gens[2]) for k in (1, 17, 32)]
        assert np.array_equal(np.concatenate(parts), whole)


class TestNoiseModels:
    def test_no_noise(self):
        assert np.array_equal(sample(NoNoise(), 1, 4, RngStream(0).generator()),
                              np.zeros((1, 4)))

    def test_ball_stays_inside(self):
        rng = RngStream(1).generator()
        noise = BoundedUniformBall(1.0)
        draws = sample(noise, 10**5, 3, rng)
        norms = np.linalg.norm(draws, axis=1)
        assert norms.max() <= 1.0 + 1e-12
        # mean within 4 standard errors of zero, per coordinate
        se = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * se)

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_ball_radius_law(self, n):
        # under the uniform law on the ball, (r/bound)^n is Uniform(0, 1);
        # the Kolmogorov distance of N draws lies within the DKW band
        # sqrt(log(2/a)/(2N)) with probability at least 1 - a
        draws, a = 20000, 1e-3
        z = sample(BoundedUniformBall(2.0), draws, n, RngStream(4, n).generator())
        u = np.sort((np.linalg.norm(z, axis=1) / 2.0) ** n)
        ranks = np.arange(1, draws + 1)
        distance = max(np.max(ranks / draws - u), np.max(u - (ranks - 1) / draws))
        assert distance <= math.sqrt(math.log(2 / a) / (2 * draws))

    def test_ball_one_dim_is_uniform_interval(self):
        rng = RngStream(2).generator()
        draws = sample(BoundedUniformBall(2.0), 20000, 1, rng).ravel()
        assert draws.max() <= 2.0 and draws.min() >= -2.0
        # uniform on [-2, 2] has variance 4/3
        assert draws.var() == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_gaussian_norm_scale(self):
        rng = RngStream(3).generator()
        for n in (1, 10):
            draws = sample(GaussianNoise(1.5), 20000, n, rng)
            assert (draws**2).sum(axis=1).mean() == pytest.approx(2.25, rel=0.05)

    def test_validation(self):
        with pytest.raises(InputError):
            BoundedUniformBall(0.0)
        with pytest.raises(InputError):
            GaussianNoise(-1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bound", [math.inf, math.nan, 1e308, 0.9 * np.finfo(float).max])
    def test_ball_bound_whose_double_overflows_is_refused(self, bound):
        # the one-dimensional draw is -bound + 2*bound*u
        with pytest.raises(InputError, match="noise bound"):
            BoundedUniformBall(bound)
        BoundedUniformBall(np.finfo(float).max / 2)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_gaussian_scale_is_refused(self, scale):
        with pytest.raises(InputError, match="noise scale"):
            GaussianNoise(scale)


class TestSvmOracle:
    def test_zero_weights_active_hinge(self):
        w = np.zeros(3)
        s = SvmOracleFactory(one_point_dataset(), 0.7)(RngStream(0)).query(w, 1)
        assert np.array_equal(s.ghat, [-1.0, 0.0, 0.0])
        assert s.g is None and s.zhat is None

    def test_inactive_hinge_returns_regularizer(self):
        # y <w, x> = 2 >= 1, so only lam*w survives
        w = np.array([2.0, 0.0, 0.0])
        s = SvmOracleFactory(one_point_dataset(), 0.5)(RngStream(0)).query(w, 1)
        assert np.allclose(s.ghat, 0.5 * w, rtol=0, atol=0)

    def test_single_point_expectation_exact(self):
        # with one data point every draw picks it: the mean over 1e4 draws
        # is exactly the unique subgradient
        w = np.zeros(3)
        oracle = SvmOracleFactory(one_point_dataset(), 1.0)(RngStream(5))
        acc = np.zeros(3)
        for t in range(1, 10**4 + 1):
            acc += oracle.query(w, t).ghat
        assert np.array_equal(acc / 10**4, [-1.0, 0.0, 0.0])

    def test_empty_lam_validation(self):
        with pytest.raises(InputError):
            SvmOracleFactory(one_point_dataset(), 0.0)(RngStream(0)).query(np.zeros(3), 1)

    @pytest.mark.parametrize("ds", [
        parse_libsvm("+1 2:0.5 5:-1.25 9:3\n-1 1:2 3:0.75\n+1\n-1 4:-0.5 9:1\n", n=10),
        synthetic_separable_dataset(40, 10, seed=3),
    ], ids=["text", "dense"])
    def test_step_reads_the_sampled_row_as_its_dense_form(self, ds):
        # the row's inner product and hinge update agree with the dense row
        dense = np.asarray(scipy_matrix(ds).todense())
        rng = np.random.default_rng(0)
        lam = 0.25
        for k in range(40):
            w = rng.standard_normal(10) * (0.1 if k % 2 else 3.0)
            s = SvmOracleFactory(ds, lam)(RngStream(k)).query(w, 1)
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
        dense = np.asarray(scipy_matrix(ds).todense())
        rng = np.random.default_rng(1)
        lam = 0.25
        for k in range(40):
            i = int(RngStream(k).generator().integers(ds.m))
            x, y = dense[i], ds.labels[i]
            w0 = rng.standard_normal(10)
            side = 1.0 if k % 2 else -1.0
            w = w0 * ((1.0 + side * 1e-9) / (y * float(x @ w0)))
            s = SvmOracleFactory(ds, lam)(RngStream(k)).query(w, 1)
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
            s = SvmOracleFactory(ds, lam)(RngStream(k)).query(w, 1)
            i = int(RngStream(k).generator().integers(ds.m))
            idx = ds.indices[ds.indptr[i]:ds.indptr[i + 1]]
            vals = ds.data[ds.indptr[i]:ds.indptr[i + 1]]
            want = lam * w
            want[idx] = lam * w[idx] - ds.labels[i] * vals
            assert np.array_equal(s.ghat, want)

    def test_iterate_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            SvmOracleFactory(one_point_dataset(), 0.5)(RngStream(0)).query(np.zeros(2), 1)

    def test_oracle_class_deterministic(self):
        ds = two_point_dataset()
        o1 = SvmOracleFactory(ds, 0.5)(RngStream(9, 1))
        o2 = SvmOracleFactory(ds, 0.5)(RngStream(9, 1))
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


def scipy_svm_objective_rows(W, ds, lam):
    """The SVM objective of each row of W, by the formula of
    ``_svm_objective_rows`` with its product taken by scipy's csr_matrix."""
    hinge = np.ascontiguousarray(scipy_matrix(ds).dot(W.T).T)
    hinge *= ds.labels
    np.subtract(1.0, hinge, out=hinge)
    np.maximum(0.0, hinge, out=hinge)
    return 0.5 * lam * oracles._squared_norms(W) + hinge.mean(axis=1)


class TestSvmProductBits:
    """The SVM objective and full subgradient take their products from
    Dataset's kernels: bit for bit those of scipy's csr_matrix."""

    @staticmethod
    def sets():
        # a parsed set with an empty row and a stored -0.0, and acceptance
        # criterion 5's dense set
        return [parse_libsvm("+1 2:0.5 5:-1.25 9:3\n-1 1:2 3:-0 7:0.75\n+1\n-1 4:-0.5 9:1\n"),
                synthetic_separable_dataset(2000, 20, seed=31415)]

    def check(self, ds):
        lam = 1.0 / ds.m
        W = np.random.default_rng(ds.m).standard_normal((61, ds.n))
        obj, sub, X = SvmObjective(ds, lam), svm_problem(ds, lam).subgradient, scipy_matrix(ds)
        for B in (1, 2, 8, 61):
            got = obj.rows(W[:B])
            assert got.tobytes() == scipy_svm_objective_rows(W[:B], ds, lam).tobytes()
        for w in W[:8]:
            active = (ds.labels * X.dot(w) < 1.0).astype(np.float64)
            want = lam * w + X.T.dot(-(ds.labels * active) / ds.m)
            assert sub(w).tobytes() == want.tobytes()

    @pytest.mark.parametrize("which", [0, 1], ids=["parsed", "criterion5"])
    def test_int32_indices(self, which):
        ds = self.sets()[which]
        assert ds.indices.dtype == np.int32
        self.check(ds)

    def test_int64_indices(self, monkeypatch):
        monkeypatch.setattr(data_module, "_INT32_MAX", 0)
        for ds in self.sets():
            assert ds.indices.dtype == np.int64
            self.check(ds)


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
        s = QuadraticOracleFactory(NoNoise())(RngStream(0)).query(np.array([3.0]), 1)
        assert np.array_equal(s.ghat, [3.0])
        assert np.array_equal(s.zhat, [0.0])

    def test_noise_only_at_origin(self):
        s = QuadraticOracleFactory(BoundedUniformBall(1.0))(RngStream(1)).query(np.zeros(2), 1)
        assert np.array_equal(s.ghat, -s.zhat)

    def test_decomposition_identity_exact(self):
        oracle = QuadraticOracleFactory(GaussianNoise(1.0))(RngStream(2))
        for t in range(1, 201):
            x = oracle.rng.standard_normal(3)  # x and the noise share one stream
            s = oracle.query(x, t)
            assert np.array_equal(s.ghat + s.zhat, s.g)

    def test_ball_noise_monte_carlo(self):
        oracle = QuadraticOracleFactory(BoundedUniformBall(1.0))(RngStream(3))
        zs = np.empty(10**5)
        x = np.array([1.0])
        for i in range(zs.size):
            s = oracle.query(x, i + 1)
            zs[i] = s.zhat[0]
        assert np.abs(zs).max() <= 1.0
        assert abs(zs.mean()) <= 4 * zs.std() / math.sqrt(zs.size)

    def test_mean_zero_gaussian(self):
        oracle = QuadraticOracleFactory(GaussianNoise(1.0))(RngStream(4))
        zs = np.empty((10**5, 2))
        x = np.array([0.5, -0.5])
        for i in range(zs.shape[0]):
            zs[i] = oracle.query(x, i + 1).zhat
        se = zs.std(axis=0) / math.sqrt(zs.shape[0])
        assert np.all(np.abs(zs.mean(axis=0)) <= 4 * se)


class TestLowerBoundOracle:
    def test_silent_first_half(self):
        s = LowerBoundOracle(8, RngStream(0)).query(np.array([0.5]), 3)
        assert s.zhat[0] == 0.0
        assert s.ghat[0] == 0.5

    def test_magnitude_at_t6_T8(self):
        s = LowerBoundOracle(8, RngStream(0)).query(np.array([0.0]), 6)
        assert abs(s.zhat[0]) == pytest.approx(4.5)

    def test_silent_last_quarter(self):
        s = LowerBoundOracle(8, RngStream(0)).query(np.array([0.0]), 7)
        assert s.zhat[0] == 0.0

    @pytest.mark.parametrize("T", [4, 8, 100, 1024])
    def test_noise_window_and_bound(self, T):
        oracle = LowerBoundOracle(T, RngStream(1))
        for t in range(1, T + 1):
            z = oracle.query(np.zeros(1), t).zhat[0]
            if t <= T // 2 or t > 3 * T // 4:
                assert z == 0.0
            else:
                assert abs(z) == pytest.approx((T + 1) / (T - t))
                assert abs(z) <= 6.0

    def test_mean_zero_in_window(self):
        oracle = LowerBoundOracle(8, RngStream(2))
        zs = np.array([oracle.query(np.zeros(1), 6).zhat[0] for _ in range(10**5)])
        assert abs(zs.mean()) <= 4 * zs.std() / math.sqrt(zs.size)

    def test_divisibility_precondition(self):
        with pytest.raises(InputError, match="not divisible by 4"):
            LowerBoundOracleFactory(10)
        with pytest.raises(InputError, match="not divisible by 4"):
            LowerBoundOracle(6, RngStream(0))

    def test_decomposition_identity(self):
        oracle = LowerBoundOracle(8, RngStream(3))
        for t in range(1, 9):
            s = oracle.query(np.array([0.25]), t)
            assert np.array_equal(s.ghat + s.zhat, s.g)

    def test_determinism(self):
        o1 = LowerBoundOracle(8, RngStream(11, 2))
        o2 = LowerBoundOracle(8, RngStream(11, 2))
        x = np.array([0.1])
        for t in range(1, 9):
            assert np.array_equal(o1.query(x, t).ghat, o2.query(x, t).ghat)


def draw_in_blocks(law, stream, T, dim, sizes):
    """Steps 1..T of one trial's draws, in consecutive blocks of the given
    sizes (cycled, the last block cut at T), from one generator."""
    gen, parts, t0, k = stream.generator(), [], 0, 0
    while t0 < T:
        steps = min(sizes[k % len(sizes)], T - t0)
        out = law.draw_buffer(1, steps, dim)
        law.fill((gen,), out, t0)
        parts.append(out[0])
        t0, k = t0 + steps, k + 1
    return np.concatenate(parts)


def fill_trial_major(law, seed, trials, T, dim, sizes, strided=False):
    """Steps 1..T of ``trials`` trials (trial i on RngStream(seed, i)), one
    (trials, steps, ...) block per consecutive size (cycled), as the
    lockstep engine fills them; with ``strided``, each block is a
    trial-major view of a step-major array, as a recorded run's zhat is."""
    gens = [RngStream(seed, i).generator() for i in range(trials)]
    whole = law.draw_buffer(trials, T, dim)
    t0, k = 0, 0
    while t0 < T:
        steps = min(sizes[k % len(sizes)], T - t0)
        if strided:
            step_major = np.full(whole[:, :steps].swapaxes(0, 1).shape, -7, dtype=whole.dtype)
            law.fill(gens, step_major.swapaxes(0, 1), t0)
            whole[:, t0:t0 + steps] = step_major.swapaxes(0, 1)
        else:
            law.fill(gens, whole[:, t0:t0 + steps], t0)
        t0, k = t0 + steps, k + 1
    return whole


LAWS = [
    *[(QuadraticOracleFactory(noise, mu=0.5), 20, dim)
      for noise in (NoNoise(), BoundedUniformBall(1.5), GaussianNoise(2.0)) for dim in (1, 3)],
    *[(LowerBoundOracleFactory(T), T, 1) for T in (8, 12, 100)],
    (SvmOracleFactory(parse_libsvm("+1 1:0.5\n-1 2:2\n+1\n-1 1:1 3:-1\n+1 2:0.25\n"), 0.1),
     20, 3),
]


class TestLawDraws:
    """The one draw of each law serves run_sgd (a step at a time) and the
    lockstep engine (blocks of any length): a split never changes a draw."""

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(range(len(LAWS))),
           sizes=st.lists(st.integers(1, 3), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_of_1_to_3_steps_equal_one_at_a_time(self, case, sizes, seed):
        law, T, dim = LAWS[case]
        stream = RngStream(seed, 3)
        whole = draw_in_blocks(law, stream, T, dim, [T])
        assert len(whole) == T
        assert np.array_equal(draw_in_blocks(law, stream, T, dim, [1]), whole)
        assert np.array_equal(draw_in_blocks(law, stream, T, dim, sizes), whole)

    @pytest.mark.parametrize("case", range(len(LAWS)))
    def test_a_reply_outlives_later_queries(self, case):
        # a lone trial's reply is its own: the queries after it, and the
        # noise decomposition read from it only after them, leave it as it was
        law, T, dim = LAWS[case]
        oracle = law(RngStream(43, case))
        x = np.full(dim, 0.75)
        replies = [oracle.query(x, t) for t in range(1, T + 1)]
        again = law(RngStream(43, case))
        for t, s in enumerate(replies, start=1):
            want = again.query(x, t)
            assert np.array_equal(s.ghat, want.ghat)
            if law.draws_zhat:
                assert np.array_equal(s.zhat, want.zhat)
                assert np.array_equal(s.g, s.ghat + s.zhat)

    @pytest.mark.parametrize("case", range(len(LAWS)))
    def test_every_block_split_and_the_oracle_agree(self, case):
        # blocks of exactly 1, 2 and 3 steps, and the Oracle's own queries,
        # whose zhat is step t's draw when the law draws the noise itself
        law, T, dim = LAWS[case]
        stream = RngStream(41, case)
        whole = draw_in_blocks(law, stream, T, dim, [T])
        for sizes in ([1], [2], [3], [3, 1, 2]):
            assert np.array_equal(draw_in_blocks(law, stream, T, dim, sizes), whole)
        if law.draws_zhat:
            oracle = law(stream)
            x = np.full(dim, 0.75)
            zs = np.stack([oracle.query(x, t).zhat for t in range(1, T + 1)])
            assert np.array_equal(zs, whole)

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(range(len(LAWS))), trials=st.integers(1, 4),
           sizes=st.lists(st.integers(1, 3), min_size=1, max_size=6),
           strided=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_trial_major_blocks_equal_one_shot_draws(self, case, trials, sizes, strided, seed):
        # row i of every block holds trial i's draws, whether the block is
        # contiguous (the engine's buffer) or a view of a step-major array
        # (a recorded run's zhat)
        law, T, dim = LAWS[case]
        got = fill_trial_major(law, seed, trials, T, dim, sizes, strided)
        for i in range(trials):
            assert np.array_equal(got[i], draw_in_blocks(law, RngStream(seed, i), T, dim, [T]))

    def test_one_step_of_the_window_in_rows_of_8_steps(self):
        # each trial's row of the buffer holds 8 steps and a block one step,
        # so the window's signs lie 64 bytes apart, where numpy 2.4's
        # in-place np.negative read the wrong elements
        law = LowerBoundOracleFactory(8)
        got = fill_trial_major(law, 0, 3, 8, 1, [1])
        for i in range(3):
            assert np.array_equal(got[i], draw_in_blocks(law, RngStream(0, i), 8, 1, [8]))

    @pytest.mark.parametrize("flip", [
        lambda u: u.__imul__(-1.0),
        pytest.param(lambda u: np.negative(u, out=u), marks=pytest.mark.xfail(
            strict=False, reason="numpy 2.4's in-place np.negative reads a column of a "
                                 "(3, 8) float64 array as contiguous")),
    ], ids=["multiply", "np.negative"])
    def test_in_place_sign_flip_of_a_column_64_bytes_apart(self, flip):
        # numpy alone, in the layout of the window above: one column of
        # rows of 8 float64
        buf = np.arange(1.0, 25.0).reshape(3, 8)
        u = buf[:, 4:5]
        flip(u)
        assert np.array_equal(u.ravel(), [-5.0, -13.0, -21.0])

    @pytest.mark.parametrize("bound", [1.0, 0.3, 2.5, 1e-300])
    @pytest.mark.parametrize("strided", [False, True])
    def test_one_dim_ball_is_generator_uniform(self, bound, strided):
        # -b + 2b*u over the whole block has the bits of Generator.uniform(-b, b)
        law = QuadraticOracleFactory(BoundedUniformBall(bound))
        got = fill_trial_major(law, 17, 3, 500, 1, [200], strided)
        for i in range(3):
            want = RngStream(17, i).generator().uniform(-bound, bound, size=(500, 1))
            assert np.array_equal(got[i].view(np.int64), want.view(np.int64))

    def test_lower_bound_draws_only_in_its_window(self):
        # steps 1..T/2 and 3T/4+1..T draw nothing from the stream
        law = LowerBoundOracleFactory(12)
        gen = RngStream(5).generator()

        def fill(gen, t0, steps):
            out = np.full((1, steps, 1), np.nan)
            law.fill((gen,), out, t0)
            return out[0, :, 0]

        assert not fill(gen, 0, 6).any() and not fill(gen, 9, 3).any()
        window = fill(gen, 6, 3)
        assert np.array_equal(window, fill(RngStream(5).generator(), 6, 3))
        u = RngStream(5).generator().random(3)
        assert np.array_equal(window, np.where(u < 0.5, 1.0, -1.0) * 13.0 / np.array([5, 4, 3]))

    def test_oracle_refuses_a_numpy_generator(self):
        for law in (QuadraticOracleFactory(), LowerBoundOracleFactory(8), LAWS[-1][0]):
            with pytest.raises(InputError, match="Generator"):
                Oracle(law, np.random.default_rng(0))
            with pytest.raises(InputError, match="Generator"):
                law(np.random.default_rng(0))


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
        # 3-D ball noise is drawn in sub-batches that, with the default
        # _MGF_SUB_ELEMENTS, share one budget across the threads, so a
        # larger pool adds at most one batch's buffer of e to the peak
        import tracemalloc

        noise = BoundedUniformBall(2.0)

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
        z = sample(noise, min(1 << 15, samples - lo), n, rng)
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
