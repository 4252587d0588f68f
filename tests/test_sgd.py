import numpy as np
import pytest

from sgdavg.averaging import make_averager
from sgdavg.core import (
    DEFAULT_SCHEDULE,
    LOWER_BOUND_SCHEDULE,
    InputError,
    Interval,
    step_size,
)
from sgdavg.oracles import (
    BoundedUniformBall,
    LowerBoundOracle,
    NoNoise,
    QuadraticOracle,
    RngStream,
    quadratic_problem,
)
from sgdavg.sgd import RunAborted, RunConfig, checkpoint_iterations, run_sgd


def quad_run(T, x1=1.0, noise=None, schedule=DEFAULT_SCHEDULE, record=False,
             schemes=("final", "uniform", "suffix", "nonuniform"), seed=0,
             feasible=None, eval_every=None):
    problem = quadratic_problem(1, feasible=feasible)
    oracle = QuadraticOracle(noise or NoNoise(), RngStream(seed))
    config = RunConfig(T=T, schedule=schedule, x1=np.array([x1]),
                       eval_every=eval_every, record_iterates=record)
    avs = [make_averager(nm, T=T) for nm in schemes]
    return problem, run_sgd(problem, oracle, config, avs)


class TestHandUnrolled:
    def test_single_exact_step(self):
        # eta_1 = 1 so x_2 = 0; averages cover x_1 only
        problem, rec = quad_run(T=1, x1=1.0)
        assert rec.reported["final"][0] == 1.0
        assert rec.reported["nonuniform"][0] == 1.0

    def test_three_steps_nonuniform_report(self):
        problem, rec = quad_run(T=3, x1=1.0, record=True)
        xs = [x[0] for x, _ in rec.trajectory]
        assert xs == [1.0, 0.0, 0.0]
        assert rec.reported["nonuniform"][0] == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert problem.gap(rec.reported["nonuniform"]) == pytest.approx(1.0 / 72.0, rel=1e-12)

    def test_second_iterate_is_zero(self):
        _, rec = quad_run(T=2, x1=1.0, record=True)
        assert rec.trajectory[1][0][0] == 0.0


class TestLowerBoundTrajectory:
    def test_iterate_identity(self):
        # x_t = (1/t) * sum_{i<t} zhat_i under the 1/(t+1) steps from x1 = 0
        T = 8
        problem = quadratic_problem(1, feasible=Interval(-6, 6))
        oracle = LowerBoundOracle(T, RngStream(3))
        config = RunConfig(T=T, schedule=LOWER_BOUND_SCHEDULE, x1=np.zeros(1),
                           record_iterates=True)
        rec = run_sgd(problem, oracle, config, [make_averager("nonuniform")])
        zs = [s.zhat[0] for _, s in rec.trajectory]
        for t in range(1, T + 1):
            expect = sum(zs[: t - 1]) / t
            assert rec.trajectory[t - 1][0][0] == pytest.approx(expect, abs=1e-12)


class TestInvariants:
    def test_feasibility_every_iterate(self):
        fs = Interval(-0.25, 0.25)
        problem, rec = quad_run(T=300, x1=0.25, noise=BoundedUniformBall(1.0),
                                record=True, feasible=fs, seed=5)
        for x, _ in rec.trajectory:
            assert fs.distance(x) <= 1e-12

    def test_bitwise_determinism(self):
        _, r1 = quad_run(T=200, noise=BoundedUniformBall(1.0), seed=9, record=True)
        _, r2 = quad_run(T=200, noise=BoundedUniformBall(1.0), seed=9, record=True)
        for nm in r1.reported:
            assert np.array_equal(r1.reported[nm], r2.reported[nm])
        assert r1.checkpoints == r2.checkpoints
        for (x1, s1), (x2, s2) in zip(r1.trajectory, r2.trajectory):
            assert np.array_equal(x1, x2)
            assert np.array_equal(s1.ghat, s2.ghat)

    def test_noiseless_objective_nonincreasing(self):
        problem, rec = quad_run(T=100, x1=0.9, record=True)
        vals = [problem.objective(x) for x, _ in rec.trajectory]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_replay_reproduces_trajectory_exactly(self):
        problem, rec = quad_run(T=120, x1=1.0, noise=BoundedUniformBall(1.0),
                                record=True, feasible=Interval(-6, 6), seed=2)
        fs = problem.feasible
        for t in range(1, 120):
            x_t, sample = rec.trajectory[t - 1]
            eta = step_size(DEFAULT_SCHEDULE, problem.mu, t)
            replay = fs.project(x_t - eta * sample.ghat)
            assert np.array_equal(replay, rec.trajectory[t][0])

    @pytest.mark.parametrize("make_oracle", [
        lambda: QuadraticOracle(BoundedUniformBall(1.0), RngStream(4), mu=0.7),
        lambda: LowerBoundOracle(16, RngStream(4)),
    ])
    def test_trajectory_items_rebuild_the_oracle_replies(self, make_oracle):
        class KeepingOracle:
            def __init__(self):
                self.inner = make_oracle()
                self.replies = []

            def query(self, x, t):
                sample = self.inner.query(x, t)
                self.replies.append((x.copy(), sample))
                return sample

        problem = quadratic_problem(1, mu=0.7, feasible=Interval(-6, 6))
        config = RunConfig(T=16, schedule=DEFAULT_SCHEDULE, x1=np.array([2.0]),
                           record_iterates=True)
        oracle = KeepingOracle()
        rec = run_sgd(problem, oracle, config, [make_averager("final")])
        assert len(rec.trajectory) == len(oracle.replies) == 16
        for (x, s), (x_ref, s_ref) in zip(rec.trajectory, oracle.replies):
            assert np.array_equal(x, x_ref)
            for field in ("ghat", "g", "zhat"):
                assert np.array_equal(getattr(s, field), getattr(s_ref, field)), field

    def test_exactly_T_queries(self):
        class CountingOracle:
            def __init__(self):
                self.inner = QuadraticOracle(NoNoise(), RngStream(0))
                self.calls = 0

            def query(self, x, t):
                self.calls += 1
                return self.inner.query(x, t)

        oracle = CountingOracle()
        problem = quadratic_problem(1)
        config = RunConfig(T=37, schedule=DEFAULT_SCHEDULE, x1=np.array([1.0]))
        run_sgd(problem, oracle, config, [make_averager("final")])
        assert oracle.calls == 37


class TestCheckpoints:
    def test_checkpoint_iterations_include_T(self):
        cfg = RunConfig(T=10, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1), eval_every=4)
        assert checkpoint_iterations(cfg) == [4, 8, 10]
        cfg = RunConfig(T=8, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1), eval_every=4)
        assert checkpoint_iterations(cfg) == [4, 8]

    def test_suffix_absent_before_window(self):
        _, rec = quad_run(T=10, eval_every=2, x1=0.5)
        by_iter = dict(rec.checkpoints)
        assert "suffix" not in by_iter[2]
        assert "suffix" in by_iter[10]
        assert "uniform" in by_iter[2]

    def test_checkpoint_values_match_reports(self):
        problem, rec = quad_run(T=50, x1=0.5, noise=BoundedUniformBall(1.0), seed=1)
        t, vals = rec.checkpoints[-1]
        assert t == 50
        for nm, v in vals.items():
            assert v == pytest.approx(problem.objective(rec.reported[nm]), rel=1e-12)


class TestErrors:
    def test_infeasible_start_rejected(self):
        problem = quadratic_problem(1, feasible=Interval(-1, 1))
        config = RunConfig(T=5, schedule=DEFAULT_SCHEDULE, x1=np.array([2.0]))
        with pytest.raises(InputError):
            run_sgd(problem, QuadraticOracle(NoNoise(), RngStream(0)), config,
                    [make_averager("final")])

    def test_empty_schemes_rejected(self):
        problem = quadratic_problem(1)
        config = RunConfig(T=5, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1))
        with pytest.raises(InputError):
            run_sgd(problem, QuadraticOracle(NoNoise(), RngStream(0)), config, [])

    def test_duplicate_scheme_names_rejected(self):
        problem = quadratic_problem(1)
        config = RunConfig(T=5, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1))
        with pytest.raises(InputError):
            run_sgd(problem, QuadraticOracle(NoNoise(), RngStream(0)), config,
                    [make_averager("final"), make_averager("final")])

    def test_nonfinite_iterate_aborts_with_iteration(self):
        class ExplodingOracle:
            def query(self, x, t):
                from sgdavg.oracles import GradientSample

                g = np.array([np.inf]) if t == 3 else x
                return GradientSample(g, g, np.zeros(1))

        problem = quadratic_problem(1)
        config = RunConfig(T=10, schedule=DEFAULT_SCHEDULE, x1=np.array([1.0]))
        with pytest.raises(RunAborted) as err:
            run_sgd(problem, ExplodingOracle(), config, [make_averager("final")])
        assert err.value.iteration == 3
        assert "iteration 3" in str(err.value)

    def test_overflowing_sum_of_finite_entries_does_not_abort(self):
        # 0.9 * 1.5e308 in both entries: every entry is finite but their sum
        # is not. Both engines run on and fail at the checkpoint of t = 3,
        # where the objective overflows.
        from sgdavg.core import StepSchedule
        from sgdavg.experiments import TrialFailure, run_trials
        from sgdavg.oracles import QuadraticOracleFactory

        problem = quadratic_problem(2)
        config = RunConfig(T=3, schedule=StepSchedule(c=0.2, shift=1, mu_scaled=True),
                           x1=np.array([1.5e308, 1.5e308]), eval_every=3)
        reason = "iteration 3: non-finite final objective at checkpoint"
        with np.errstate(over="ignore"):
            with pytest.raises(RunAborted, match=reason) as err:
                run_sgd(problem, QuadraticOracle(NoNoise(), RngStream(0)), config,
                        [make_averager("final")])
            assert err.value.iteration == 3
            with pytest.raises(TrialFailure, match=reason):
                run_trials(problem, QuadraticOracleFactory(), config, ["final"], 1, 0)

    def test_oracle_failure_aborts_with_iteration(self):
        class FailingOracle:
            def query(self, x, t):
                if t == 5:
                    raise RuntimeError("backend down")
                from sgdavg.oracles import GradientSample

                return GradientSample(x, x, np.zeros(1))

        problem = quadratic_problem(1)
        config = RunConfig(T=10, schedule=DEFAULT_SCHEDULE, x1=np.array([1.0]))
        with pytest.raises(RunAborted) as err:
            run_sgd(problem, FailingOracle(), config, [make_averager("final")])
        assert err.value.iteration == 5

    def test_config_validation(self):
        with pytest.raises(InputError):
            RunConfig(T=0, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1))
        with pytest.raises(InputError):
            RunConfig(T=5, schedule=DEFAULT_SCHEDULE, x1=np.zeros(1), eval_every=0)
