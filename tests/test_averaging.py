import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdavg.averaging import (
    SCHEME_NAMES,
    FinalIterate,
    NonUniformAverage,
    SuffixAverage,
    UniformAverage,
    WindowNotStarted,
    make_averager,
)
from sgdavg.core import InputError, UsageError


def feed(av, xs):
    for t, x in enumerate(xs, start=1):
        av.observe(np.atleast_1d(np.asarray(x, dtype=float)), t)
    return av


class TestNonUniform:
    def test_first_step_identity(self):
        av = feed(NonUniformAverage(), [3.25])
        assert av.report()[0] == 3.25

    def test_constant_iterates(self):
        av = feed(NonUniformAverage(), [2.5] * 17)
        assert av.report()[0] == pytest.approx(2.5, rel=1e-14)

    def test_hand_computed(self):
        av = feed(NonUniformAverage(), [0.0, 1.0, 2.0])
        assert av.report()[0] == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_matches_direct_weighted_sum(self):
        rng = np.random.default_rng(3)
        T, n = 1000, 3
        xs = rng.standard_normal((T, n))
        av = NonUniformAverage()
        for t in range(1, T + 1):
            av.observe(xs[t - 1], t)
        gamma = av.weights(np.arange(1, T + 1)) / av.total(T)
        direct = sum(gamma[t - 1] * xs[t - 1] for t in range(1, T + 1))
        scale = float(np.abs(xs).max())
        assert np.max(np.abs(av.report() - direct)) <= 1e-10 * scale

    def test_matches_direct_weighted_sum_high_dimension(self):
        T, n = 2000, 1000
        av = NonUniformAverage()
        gamma = av.weights(np.arange(1, T + 1)) / av.total(T)
        direct = np.zeros(n)
        scale = 0.0
        gen = np.random.default_rng(8)
        for t in range(1, T + 1):
            x = gen.standard_normal(n)
            av.observe(x, t)
            direct += gamma[t - 1] * x
            scale = max(scale, float(np.linalg.norm(x)))
        assert float(np.linalg.norm(av.report() - direct)) <= 1e-10 * scale

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.floats(1e-6, 1e6))
    def test_online_average_equals_weighted_sum_property(self, T, n, seed, scale):
        xs = np.random.default_rng(seed).standard_normal((T, n)) * scale
        av = NonUniformAverage()
        for t in range(1, T + 1):
            av.observe(xs[t - 1], t)
        # sum_t t * x_t / (T(T+1)/2), each coordinate's sum exactly rounded
        direct = np.array([math.fsum(t * x for t, x in enumerate(xs[:, j], start=1))
                           for j in range(n)]) / (T * (T + 1) / 2)
        assert np.max(np.abs(av.report() - direct)) <= 1e-12 * float(np.abs(xs).max())

    def test_no_horizon_needed(self):
        NonUniformAverage()  # constructible without T


class TestUniform:
    def test_mean(self):
        av = feed(UniformAverage(), [1.0, 2.0, 3.0, 4.0])
        assert av.report()[0] == pytest.approx(2.5, rel=1e-14)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        xs = rng.standard_normal((500, 4))
        av = UniformAverage()
        for t in range(1, 501):
            av.observe(xs[t - 1], t)
        assert np.allclose(av.report(), xs.mean(axis=0), rtol=1e-12, atol=1e-14)


class TestSuffix:
    def test_last_half_of_four(self):
        av = feed(SuffixAverage(T=4, alpha=0.5), [1.0, 2.0, 3.0, 4.0])
        assert av.report()[0] == pytest.approx(3.5)

    def test_window_not_started(self):
        av = SuffixAverage(T=10, alpha=0.5)
        av.observe(np.array([1.0]), 1)
        with pytest.raises(WindowNotStarted):
            av.report()

    def test_requires_horizon(self):
        with pytest.raises(InputError):
            make_averager("suffix")

    def test_alpha_one_covers_everything(self):
        av = feed(SuffixAverage(T=3, alpha=1.0), [1.0, 2.0, 3.0])
        assert av.report()[0] == pytest.approx(2.0)

    def test_window_boundary_inclusion(self):
        # T=5, alpha=0.5 -> window of 3, covering t in {3, 4, 5}
        av = feed(SuffixAverage(T=5, alpha=0.5), [9.0, 9.0, 1.0, 2.0, 3.0])
        assert av.report()[0] == pytest.approx(2.0)


class TestFinal:
    def test_reports_last(self):
        av = feed(FinalIterate(), [1.0, 2.0, 3.0, 4.0])
        assert av.report()[0] == 4.0

    def test_empty_report_errors(self):
        with pytest.raises(UsageError):
            FinalIterate().report()


class TestProtocol:
    def test_out_of_order_rejected(self):
        av = UniformAverage()
        av.observe(np.array([1.0]), 1)
        with pytest.raises(UsageError):
            av.observe(np.array([1.0]), 3)
        with pytest.raises(UsageError):
            av.observe(np.array([1.0]), 1)

    def test_must_start_at_one(self):
        av = NonUniformAverage()
        with pytest.raises(UsageError):
            av.observe(np.array([1.0]), 2)

    def test_make_averager_names(self):
        for nm in SCHEME_NAMES:
            assert make_averager(nm, T=10).name == nm
        with pytest.raises(InputError):
            make_averager("median", T=10)

    def test_report_does_not_mutate(self):
        av = feed(UniformAverage(), [1.0, 2.0])
        r1 = av.report()
        r1 += 100.0
        assert av.report()[0] == pytest.approx(1.5)


WEIGHTED = [("uniform", 0.5), ("nonuniform", 0.5), ("suffix", 0.5), ("suffix", 1.0)]


class TestWeights:
    """Each averaged scheme's weights a_t and total(t), the form the SVM
    engine reads, against the exact sums and against its recurrence."""

    @pytest.mark.parametrize("T", [1, 7, 1000, 10**4])
    @pytest.mark.parametrize("name, alpha", WEIGHTED)
    def test_total_is_the_exact_sum_of_weights(self, name, alpha, T):
        av = make_averager(name, T=T, suffix_alpha=alpha)
        a = av.weights(np.arange(1, T + 1))
        assert a.shape == (T,)
        # every weight is an integer, so the running sums are exact as ints
        exact = list(itertools.accumulate(int(w) for w in a))
        assert all(int(w) == w >= 0 for w in a.tolist())
        assert [av.total(t) for t in range(1, T + 1)] == exact
        assert av.total(0) == 0

    @pytest.mark.parametrize("T", [1, 7, 1000, 10**4])
    @pytest.mark.parametrize("name, alpha", WEIGHTED)
    def test_weighted_sum_matches_recurrence(self, name, alpha, T):
        for seed in range(2):
            xs = np.random.default_rng([T, seed]).standard_normal(T) * 10.0 ** (3 * seed)
            av = feed(make_averager(name, T=T, suffix_alpha=alpha), xs)
            a = av.weights(np.arange(1, T + 1))
            direct = math.fsum((a * xs).tolist()) / av.total(T)
            assert abs(av.report()[0] - direct) <= 1e-12 * float(np.abs(xs).max())

    def test_suffix_weights_mark_the_window(self):
        av = SuffixAverage(T=5, alpha=0.5)
        assert av.weights(np.arange(1, 6)).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
        assert [av.total(t) for t in range(6)] == [0.0, 0.0, 0.0, 1.0, 2.0, 3.0]

    def test_final_iterate_is_not_a_weighted_sum(self):
        av = FinalIterate()
        assert not av.weighted
        assert all(make_averager(nm, T=3).weighted for nm in SCHEME_NAMES if nm != "final")
        with pytest.raises(UsageError):
            av.weights(np.arange(1, 4))
        with pytest.raises(UsageError):
            av.total(3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
def test_reports_stay_in_convex_hull(xs):
    lo, hi = min(xs), max(xs)
    avs = [FinalIterate(), UniformAverage(), NonUniformAverage(),
           SuffixAverage(T=len(xs), alpha=0.5)]
    for av in avs:
        feed(av, xs)
        r = float(av.report()[0])
        span = max(1.0, abs(lo), abs(hi))
        assert lo - 1e-9 * span <= r <= hi + 1e-9 * span
