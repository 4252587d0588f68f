import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdavg.averaging import NonUniformAverage
from sgdavg.core import (
    DEFAULT_SCHEDULE,
    LOWER_BOUND_SCHEDULE,
    InputError,
    Interval,
    L2Ball,
    Problem,
    SparseVec,
    StepSchedule,
    Unconstrained,
    norm,
    project,
    step_size,
)


class TestSparseVec:
    def test_basic(self):
        v = SparseVec([0, 2], [0.5, 1.25], 3)
        assert v.nnz == 2
        assert np.array_equal(v.to_dense(), [0.5, 0.0, 1.25])

    def test_indices_strictly_increasing(self):
        with pytest.raises(InputError):
            SparseVec([2, 2], [1.0, 2.0], 3)
        with pytest.raises(InputError):
            SparseVec([3, 1], [1.0, 2.0], 4)

    def test_index_bounds(self):
        with pytest.raises(InputError):
            SparseVec([0, 5], [1.0, 2.0], 5)
        with pytest.raises(InputError):
            SparseVec([-1], [1.0], 5)

    def test_explicit_zeros_permitted(self):
        v = SparseVec([0, 1], [0.0, 2.0], 2)
        assert v.nnz == 2


class TestProjection:
    def test_interval_clamp(self):
        assert np.array_equal(project(Interval(-6, 6), np.array([7.0])), [6.0])

    def test_ball_radial_scaling(self):
        got = project(L2Ball(1.0, np.zeros(2)), np.array([3.0, 4.0]))
        assert np.allclose(got, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_unconstrained_identity(self):
        p = np.array([1.5, -2.0])
        assert project(Unconstrained(), p) is p

    def test_feasible_point_returned_unchanged(self):
        p = np.array([1.0, -1.0])
        assert project(Interval(-6, 6), p) is p
        assert project(L2Ball(2.0, np.zeros(2)), p) is p

    @pytest.mark.parametrize(
        "fs",
        [Unconstrained(), Interval(-2.0, 3.0), L2Ball(1.5, np.array([0.5, -0.5, 0.0]))],
        ids=["unconstrained", "interval", "ball"],
    )
    def test_idempotent_exactly(self, fs):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.standard_normal(3) * 10
            once = project(fs, p)
            twice = project(fs, once)
            assert np.array_equal(once, twice)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    )
    def test_nonexpansive(self, p, q):
        p, q = np.array(p), np.array(q)
        for fs in (Unconstrained(), Interval(-2.0, 3.0), L2Ball(1.5, np.zeros(3))):
            dp = float(np.linalg.norm(project(fs, p) - project(fs, q)))
            dq = float(np.linalg.norm(p - q))
            assert dp <= dq + 1e-12 * max(1.0, dq)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6),
        st.floats(-50.0, 50.0),
        st.floats(1e-3, 50.0),
        st.floats(0.1, 10.0),
        st.integers(0, 2**32 - 1),
        st.floats(1e-3, 1e6),
    )
    def test_projection_properties_random_sets(self, dim, lo, width, radius, seed, spread):
        # idempotent exactly, and non-expansive up to rounding and the ball's
        # boundary slack, for random sets, dimensions and point scales
        rng = np.random.default_rng(seed)
        center = rng.uniform(-10.0, 10.0, dim)
        sets = (Interval(lo, lo + width), L2Ball(radius, center))
        for fs in sets:
            for _ in range(5):
                p, q = rng.standard_normal((2, dim)) * spread
                once = project(fs, p)
                assert np.array_equal(project(fs, once), once)
                assert fs.contains(once, tol=1e-12)
                dp = float(np.linalg.norm(once - project(fs, q)))
                dq = float(np.linalg.norm(p - q))
                assert dp <= dq + 1e-12 * max(1.0, dq) + 2e-12 * radius

    # a row's distance from the boundary, as a multiple of the radius (of the
    # interval's upper end): inside, within _BALL_SLACK of the boundary on
    # either side, on it, and outside
    SCALES = [0.0, 0.3, 1.0 - 2e-12, 1.0 - 5e-13, 1.0, 1.0 + 5e-13, 1.0 + 2e-12, 1.5, 40.0]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([1, 2, 3, 6, 9000]), st.integers(1, 5),
           st.sampled_from(["unconstrained", "interval", "ball", "off-centre ball"]),
           st.floats(0.1, 10.0), st.integers(0, 2**32 - 1), st.data())
    def test_stacked_rows_project_as_alone(self, dim, rows, kind, radius, seed, data):
        # rows of more than 8192 entries too, where einsum sums a lone row
        # in other pieces than a row of a stack
        rng = np.random.default_rng(seed)
        center = rng.uniform(-5.0, 5.0, dim) if kind == "off-centre ball" else np.zeros(dim)
        fs = {"unconstrained": Unconstrained(), "interval": Interval(-2.0 * radius, radius),
              "ball": L2Ball(radius, center), "off-centre ball": L2Ball(radius, center)}[kind]
        scales = data.draw(st.lists(st.sampled_from(self.SCALES), min_size=rows,
                                    max_size=rows))
        d = rng.standard_normal((rows, dim))
        d /= np.linalg.norm(d, axis=1)[:, None]
        P = center + d * (radius * np.array(scales))[:, None]
        got = fs.project(P)
        each = list(P)
        alone = [fs.project(p) for p in each]
        for b in range(rows):
            assert got[b].tobytes() == alone[b].tobytes(), b
        # the stack comes back itself exactly when every row does
        assert (got is P) == all(a is p for a, p in zip(alone, each))

    def test_interval_validation(self):
        with pytest.raises(InputError):
            Interval(2.0, 2.0)

    def test_ball_validation(self):
        with pytest.raises(InputError):
            L2Ball(0.0, np.zeros(2))

    def test_ball_dimension_mismatch(self):
        with pytest.raises(InputError):
            project(L2Ball(1.0, np.zeros(2)), np.zeros(3))


def gamma(ts, T):
    """The triangular weights gamma_t = t / (T(T+1)/2) at the steps ``ts``, as
    the t-weighted average's weights over their total."""
    av = NonUniformAverage()
    return av.weights(np.asarray(ts)) / av.total(T)


class TestGammaWeight:
    def test_single_weight(self):
        assert gamma([1], 1)[0] == 1.0

    def test_direct_substitution(self):
        assert gamma([3], 3)[0] == 0.5

    def test_sums_to_one_T100(self):
        assert math.fsum(gamma(range(1, 101), 100)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("T", [1, 2, 10, 1000])
    def test_sums_to_one_small(self, T):
        assert math.fsum(gamma(range(1, T + 1), T)) == pytest.approx(1.0, abs=1e-12)

    def test_sums_to_one_large(self):
        T = 10**6
        weights = gamma(np.arange(1, T + 1), T)
        # spot-check the vectorized form against the scalar operation
        for t in (1, 17, T // 2, T):
            assert weights[t - 1] == t / (T * (T + 1) / 2.0)
        assert float(weights.sum()) == pytest.approx(1.0, abs=1e-12)


class TestStepSchedule:
    def test_default_examples(self):
        assert step_size(DEFAULT_SCHEDULE, 1.0, 1) == 1.0
        assert step_size(DEFAULT_SCHEDULE, 2.0, 3) == 0.25

    def test_lower_bound_schedule(self):
        assert step_size(LOWER_BOUND_SCHEDULE, 123.0, 1) == 0.5

    def test_strictly_decreasing(self):
        for sched in (DEFAULT_SCHEDULE, LOWER_BOUND_SCHEDULE, StepSchedule(0.5, 0.0, False)):
            vals = [step_size(sched, 1.5, t) for t in range(1, 200)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(InputError):
            StepSchedule(c=0.0)
        with pytest.raises(InputError):
            StepSchedule(shift=-1.0)
        with pytest.raises(InputError):
            step_size(DEFAULT_SCHEDULE, 1.0, 0)
        with pytest.raises(InputError):
            step_size(DEFAULT_SCHEDULE, 0.0, 1)

    @pytest.mark.parametrize("sched, mu", [(DEFAULT_SCHEDULE, 1.0 / 3.0),
                                           (LOWER_BOUND_SCHEDULE, 123.0)])
    def test_array_of_steps_matches_the_scalar_loop(self, sched, mu):
        T = 5000
        want = np.array([step_size(sched, mu, t) for t in range(1, T + 1)])
        got = step_size(sched, mu, np.arange(1, T + 1))
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # any stretch of steps, as a sub-block of the SVM engine asks for them
        assert np.array_equal(step_size(sched, mu, np.arange(700, 905)), want[699:904])

    def test_array_with_a_step_below_one_is_refused(self):
        with pytest.raises(InputError, match="step index must be >= 1, got 0"):
            step_size(DEFAULT_SCHEDULE, 1.0, np.array([3, 0, 5]))
        with pytest.raises(InputError):
            step_size(LOWER_BOUND_SCHEDULE, 1.0, np.array([-2]))


class TestProblem:
    def test_optimum_consistency_checked(self):
        with pytest.raises(InputError):
            Problem(
                objective=lambda x: float(x @ x),
                subgradient=lambda x: 2 * x,
                feasible=Unconstrained(),
                mu=1.0,
                lipschitz=1.0,
                optimum=(np.zeros(2), 1.0),
            )

    def test_mu_positive(self):
        with pytest.raises(InputError):
            Problem(
                objective=lambda x: 0.0,
                subgradient=lambda x: x,
                feasible=Unconstrained(),
                mu=0.0,
                lipschitz=1.0,
            )

    def test_gap_uses_fstar(self):
        p = Problem(
            objective=lambda x: float(x @ x) + 1.0,
            subgradient=lambda x: 2 * x,
            feasible=Unconstrained(),
            mu=2.0,
            lipschitz=math.inf,
            optimum=(np.zeros(2), 1.0),
        )
        assert p.gap(np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_objective_rows_calls_a_plain_objective_per_row(self):
        calls = []

        def objective(x):
            calls.append(x)
            return float(x @ x) + 1.0

        p = Problem(
            objective=objective,
            subgradient=lambda x: 2 * x,
            feasible=Unconstrained(),
            mu=2.0,
            lipschitz=math.inf,
        )
        X = np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        got = p.objective_rows(X)
        assert got.dtype == np.float64
        assert np.array_equal(got, [2.0, 6.0, 1.0])
        assert len(calls) == 3

    def test_norm_helper(self):
        assert norm(SparseVec([1], [3.0], 4)) == 3.0
        assert norm(np.array([3.0, 4.0])) == 5.0
