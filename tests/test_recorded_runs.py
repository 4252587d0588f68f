"""Recorded lockstep runs: the batched engine's trajectories, reports and
checkpoints against run_sgd trial by trial, the lower-bound draws, the
block-wise draws and the byte budget they count against, and the verifier
fleet built on them."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdavg import core, oracles
from sgdavg.averaging import SCHEME_NAMES, make_averager
from sgdavg.core import DEFAULT_SCHEDULE, LOWER_BOUND_SCHEDULE, InputError, Interval, L2Ball
from sgdavg.data import synthetic_separable_dataset
from sgdavg.experiments import (
    batched,
    batched_svm,
    export_csv,
    import_csv,
    fleet_trajectories,
    iterate_identity_error,
    kolmogorov_gap,
    lb_exact_distribution,
    lb_problem,
    lb_run_config,
    lb_simulate_and_match,
    literal_telescoping_product,
    product_identity_sweep,
    TrialFailure,
    run_trials,
    run_verification_fleet,
    telescoping_product_coeff,
    verify,
)
from sgdavg.oracles import (
    BoundedUniformBall,
    GaussianNoise,
    LowerBoundOracle,
    LowerBoundOracleFactory,
    NoNoise,
    QuadraticOracle,
    QuadraticOracleFactory,
    RngStream,
    SvmOracleFactory,
    quadratic_problem,
    svm_problem,
)
from sgdavg.sgd import RunConfig, Trajectory, run_sgd
from trial_reference import per_trial_gaps


def assert_same_record(got, want):
    """Bitwise equality of two RunRecords, trajectory included."""
    assert got.reported.keys() == want.reported.keys()
    for nm in want.reported:
        assert np.array_equal(got.reported[nm], want.reported[nm]), nm
    assert got.checkpoints == want.checkpoints
    for field in ("X", "zhat", "ghat"):
        a, b = getattr(got.trajectory, field), getattr(want.trajectory, field)
        assert a.shape == b.shape, field
        assert np.array_equal(a, b), field


class TestRecordedRunsMatchRunSgd:
    @settings(max_examples=30, deadline=None)
    @given(T=st.integers(5, 400), runs=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), x1=st.floats(-6.0, 6.0))
    def test_fleet_setting(self, T, runs, seed, x1):
        # 1-D ball noise on [-6, 6] under the default schedule
        fleet = list(fleet_trajectories(runs=runs, T=T, base_seed=seed, x1=x1))
        assert len(fleet) == runs
        config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.array([x1]),
                           eval_every=T, record_iterates=True)
        for i, (problem, record) in enumerate(fleet):
            oracle = QuadraticOracle(BoundedUniformBall(1.0), RngStream(seed, i))
            want = run_sgd(problem, oracle, config, [make_averager("nonuniform")])
            assert_same_record(record, want)

    @settings(max_examples=30, deadline=None)
    @given(quarter=st.integers(1, 40), trials=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), x1=st.floats(-6.0, 6.0),
           eval_every=st.integers(1, 50))
    def test_lower_bound_setting(self, quarter, trials, seed, x1, eval_every):
        T = 4 * quarter
        problem = lb_problem()
        config = RunConfig(T=T, schedule=LOWER_BOUND_SCHEDULE, x1=np.array([x1]),
                           eval_every=eval_every, record_iterates=True)
        run = batched.run_all(problem, LowerBoundOracleFactory(T), config,
                              list(SCHEME_NAMES), trials, seed, 0.5)
        assert run.trajectory.X.shape == (T, trials, 1)
        for i in range(trials):
            avs = [make_averager(nm, T=T) for nm in SCHEME_NAMES]
            want = run_sgd(problem, LowerBoundOracle(T, RngStream(seed, i)), config, avs)
            assert_same_record(run.trial(i), want)

    def test_noiseless_quadratic_records_zero_noise(self):
        problem = quadratic_problem(2, mu=0.5)
        factory = QuadraticOracleFactory(mu=0.5)
        config = RunConfig(T=30, schedule=DEFAULT_SCHEDULE, x1=np.array([1.0, -2.0]),
                           eval_every=7, record_iterates=True)
        run = batched.run_all(problem, factory, config, ["final", "uniform"], 3, 5, 0.5)
        for i in range(3):
            avs = [make_averager("final"), make_averager("uniform")]
            want = run_sgd(problem, factory(RngStream(5, i)), config, avs)
            assert_same_record(run.trial(i), want)
        assert not run.trajectory.zhat.any()

    def test_run_without_recording_holds_no_trajectory(self):
        problem = lb_problem()
        run = batched.run_all(problem, LowerBoundOracleFactory(8), lb_run_config(8, record=False),
                              ["nonuniform"], 2, 0, 0.5)
        assert run.trajectory is None
        assert run.trial(1).trajectory is None


class TestLowerBoundFactory:
    def test_run_trials_uses_the_lockstep_engine(self):
        T = 16
        config = lb_run_config(T, record=False)
        auto = run_trials(lb_problem(), LowerBoundOracleFactory(T), config,
                          list(SCHEME_NAMES), 6, 9)
        seq = per_trial_gaps(lb_problem(), LowerBoundOracleFactory(T), config,
                             list(SCHEME_NAMES), 6, 9)
        assert np.array_equal(auto.gaps, seq, equal_nan=True)

    @pytest.mark.parametrize("dim, T, factory_T, reason, per_trial_error", [
        (2, 8, 8, "one-dimensional", TrialFailure),
        (1, 10, 10, "not divisible by 4", InputError),
        (1, 12, 8, "differs", TrialFailure),
    ])
    def test_unsupported_settings_fall_back(self, dim, T, factory_T, reason,
                                            per_trial_error):
        # settings that run_trials once handed to a per-trial loop: the
        # lockstep engine refuses them, and run_trials with it
        problem = quadratic_problem(dim, feasible=Interval(-6, 6))
        config = RunConfig(T=T, schedule=LOWER_BOUND_SCHEDULE, x1=np.zeros(dim))
        if factory_T % 4:
            # the law itself refuses the horizon, for every engine alike
            with pytest.raises(InputError, match=reason):
                LowerBoundOracleFactory(factory_T)
            return
        factory = LowerBoundOracleFactory(factory_T)
        with pytest.raises(InputError, match=reason):
            batched.run_all(problem, factory, config, ["final"], 2, 0, 0.5)
        with pytest.raises(InputError, match=reason):
            run_trials(problem, factory, config, ["final"], 2, 0)
        # run_sgd still runs any oracle, and reports the oracle's own error
        with pytest.raises(per_trial_error):
            per_trial_gaps(problem, factory, config, ["final"], 2, 0)

    def test_simulation_matches_per_trial_runs(self):
        # the per-trial loop lb_simulate_and_match ran before it went lockstep
        for T, trials, seed in ((8, 40, 3), (32, 25, 777)):
            problem = lb_problem()
            config = lb_run_config(T)
            values = np.empty(trials)
            identity = 0.0
            for i in range(trials):
                rec = run_sgd(problem, LowerBoundOracle(T, RngStream(seed, i)), config,
                              [make_averager("nonuniform")])
                values[i] = problem.objective(rec.reported["nonuniform"])
                xs = np.array([x[0] for x, _ in rec.trajectory])
                zs = np.array([s.zhat[0] for _, s in rec.trajectory])
                predicted = np.concatenate(([0.0], np.cumsum(zs[:-1]))) / np.arange(1, T + 1)
                err = float(np.max(np.abs(xs - predicted)))
                assert iterate_identity_error(rec) == err
                identity = max(identity, err)
            res = lb_simulate_and_match(T, trials, seed)
            assert np.array_equal(res.objective_values, values)
            assert res.max_identity_error == identity
            assert res.kolmogorov_gap == kolmogorov_gap(values, lb_exact_distribution(T))


class TestPredrawBudget:
    def _expect_refusal(self, monkeypatch, call, nbytes):
        monkeypatch.setattr(core, "_BUDGET_BYTES", 1000)
        # a first, untraced refusal: the first call of a session allocates
        # caches that are not the engine's buffers
        with pytest.raises(MemoryError):
            call()
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError) as err:
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        msg = str(err.value)
        assert f"{nbytes} bytes" in msg and "budget of 1000 bytes" in msg
        assert peak < nbytes // 10  # refused before the buffers were allocated

    def test_recorded_quadratic_run(self, monkeypatch):
        T, trials = 50_000, 4
        problem = quadratic_problem(1, feasible=Interval(-6, 6))
        factory = QuadraticOracleFactory(BoundedUniformBall(1.0))
        config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.ones(1),
                           record_iterates=True)
        # the recorded iterates, ghat and zhat
        self._expect_refusal(monkeypatch, lambda: batched.run_all(
            problem, factory, config, ["final"], trials, 0, 0.5), 3 * T * trials * 8)

    def test_refused_when_one_step_exceeds_budget(self, monkeypatch):
        # 1000-byte budget: one step of 2 trials in 4000-D needs 64000 bytes
        # of noise, one step of 16000 SVM trials 64000 bytes of int32 indices
        T, trials, dim = 50, 2, 4000
        problem = quadratic_problem(dim, feasible=Interval(-6, 6))
        factory = QuadraticOracleFactory(GaussianNoise(1.0))
        config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.ones(dim))
        self._expect_refusal(monkeypatch, lambda: run_trials(
            problem, factory, config, ["final"], trials, 0), trials * dim * 8)
        ds = synthetic_separable_dataset(20, 3, 1)
        config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.zeros(3))
        self._expect_refusal(monkeypatch, lambda: run_trials(
            svm_problem(ds, 0.1), SvmOracleFactory(ds, 0.1), config, ["final"], 16000, 0),
            16000 * 4)

    def test_streamed_run_stays_within_budget(self, monkeypatch):
        # the whole-run tables of these runs would take 320 kB, 10 times the
        # 32 kB budget; their draws stream through one block instead
        T, trials, budget = 10_000, 4, 32_000
        ds = synthetic_separable_dataset(20, 3, 1)
        settings_ = [
            (quadratic_problem(1, feasible=Interval(-6, 6)),
             QuadraticOracleFactory(BoundedUniformBall(1.0)), np.ones(1)),
            (svm_problem(ds, 0.1), SvmOracleFactory(ds, 0.1), np.zeros(3)),
        ]
        for problem, factory, x1 in settings_:
            config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=x1, eval_every=T // 2)
            want = run_trials(problem, factory, config, ["final", "nonuniform"], trials, 3)
            monkeypatch.setattr(core, "_BUDGET_BYTES", budget)
            tracemalloc.start()
            try:
                got = run_trials(problem, factory, config, ["final", "nonuniform"], trials, 3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                monkeypatch.undo()
            assert T * trials * 8 >= 10 * budget
            assert got.meta["predraw_bytes"] <= budget
            assert peak < budget + 64_000, peak
            assert np.array_equal(got.gaps, want.gaps)


class TestBudgetInMeta:
    """run_trials reports the bytes of the batched engine's draw buffer and
    the budget they count against; the CSV carries both, and reruns repeat
    them."""

    def _check(self, tmp_path, problem, factory, config, trials, predraw):
        bat = run_trials(problem, factory, config, ["final", "uniform"], trials, 5)
        assert bat.meta["predraw_bytes"] == predraw
        assert bat.meta["budget_bytes"] == 1_600_000_000
        # the subtracted optimum: None for an SVM, whose optimum is unknown
        assert bat.meta["fstar"] == problem.fstar
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            again = run_trials(problem, factory, config, ["final", "uniform"], trials, 5)
            export_csv(again, path, comments=["config: test"])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        meta = import_csv(paths[0]).meta
        assert (meta["predraw_bytes"], meta["budget_bytes"]) == (predraw, 1_600_000_000)
        assert meta["fstar"] == problem.fstar

    def test_quadratic_noise_table(self, tmp_path, monkeypatch):
        problem = quadratic_problem(2, feasible=Interval(-6, 6))
        factory = QuadraticOracleFactory(GaussianNoise(0.5))
        config = RunConfig(T=300, schedule=DEFAULT_SCHEDULE, x1=np.ones(2), eval_every=100)
        # a whole run fits in one block: the buffer holds all 300 steps
        self._check(tmp_path, problem, factory, config, 6, 300 * 6 * 2 * 8)
        # blocks of 7 steps: the buffer holds 7 steps of 6 trials in 2-D
        monkeypatch.setattr(oracles, "_BLOCK_BYTES", 7 * 6 * 2 * 8 + 5)
        self._check(tmp_path, problem, factory, config, 6, 7 * 6 * 2 * 8)

    def test_svm_index_table(self, tmp_path, monkeypatch):
        ds = synthetic_separable_dataset(40, 3, 1)
        problem = svm_problem(ds, 0.1)
        config = RunConfig(T=250, schedule=DEFAULT_SCHEDULE, x1=np.zeros(3), eval_every=50)
        # bytes per step of 4 trials on rows of 3 entries with one averaged
        # scheme: the int32 sample indices; the sub-block tables (intp flat
        # column and owner, value and update coefficient per entry, its
        # applied flag and 16 bytes for the arrays the gather builds them
        # from; label, s and the scheme's observed and logged A per trial;
        # the step's size, shrink, fold flag, offset and a_t); and once the
        # carried s and logged A per trial
        index, rows, carry = 4 * 4, 4 * (3 * 49 + 16 + 16) + 5 * 8, 4 * 2 * 8
        # a whole run fits in one block of each table
        self._check(tmp_path, problem, SvmOracleFactory(ds, 0.1), config, 4,
                    250 * (index + rows) + carry)
        # index blocks of 9 steps, sized as 8-byte indices; the sub-block
        # tables, whose quarter block holds 72 bytes, still hold one step
        monkeypatch.setattr(batched_svm, "_INDEX_BLOCK_BYTES", 9 * 4 * 8)
        self._check(tmp_path, problem, SvmOracleFactory(ds, 0.1), config, 4,
                    9 * index + rows + carry)

    def test_svm_sub_blocks_fill_a_quarter_block(self, tmp_path, monkeypatch):
        ds = synthetic_separable_dataset(40, 3, 1)
        problem = svm_problem(ds, 0.1)
        # a horizon past the 283 steps of the index block below
        config = RunConfig(T=300, schedule=DEFAULT_SCHEDULE, x1=np.zeros(3), eval_every=50)
        # the bytes per step of test_svm_index_table
        index, rows, carry = 4 * 4, 4 * (3 * 49 + 16 + 16) + 5 * 8, 4 * 2 * 8
        # a quarter of the block bytes holds 3 steps of the sub-block tables
        # and the index block 283 steps, both sized as for 8-byte indices
        monkeypatch.setattr(batched_svm, "_INDEX_BLOCK_BYTES", 4 * 3 * rows + 3)
        self._check(tmp_path, problem, SvmOracleFactory(ds, 0.1), config, 4,
                    283 * index + 3 * rows + carry)

    def test_tail_study_noise_block_is_4_mb(self):
        # 1000 one-dimensional trials: a 4 MB block holds 500 steps
        problem = quadratic_problem(1, feasible=Interval(-6, 6))
        config = RunConfig(T=10_000, schedule=DEFAULT_SCHEDULE, x1=np.ones(1), eval_every=100)
        run = batched.run_all(problem, QuadraticOracleFactory(BoundedUniformBall(1.0)),
                              config, ["final"], 1000, 1, 0.5)
        assert run.predraw_bytes == 4_000_000

    def test_svm_index_block_stays_8_mb(self):
        # 1000 trials: the index block, sized as 8-byte indices, holds 1000
        # steps of int32 indices, and the 2 MB sub-block 11 steps of the
        # tables of test_svm_index_table
        ds = synthetic_separable_dataset(40, 3, 1)
        config = RunConfig(T=1500, schedule=DEFAULT_SCHEDULE, x1=np.zeros(3), eval_every=1500)
        got = run_trials(svm_problem(ds, 0.1), SvmOracleFactory(ds, 0.1), config,
                         ["final", "uniform"], 1000, 5)
        rows, carry = 1000 * (3 * 49 + 16 + 16) + 5 * 8, 1000 * 2 * 8
        assert 2_000_000 // rows == 11
        assert got.meta["predraw_bytes"] == 1000 * 1000 * 4 + 11 * rows + carry

    def test_noiseless_run_draws_nothing(self, tmp_path):
        config = RunConfig(T=250, schedule=DEFAULT_SCHEDULE, x1=np.ones(2), eval_every=50)
        self._check(tmp_path, quadratic_problem(2), QuadraticOracleFactory(), config, 4, 0)


@st.composite
def quadratic_settings(draw):
    """A quadratic problem the batched engine runs, with small draw blocks."""
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["none", "interval", "ball"]))
    feasible = {"none": None, "interval": Interval(-2.0, 2.0),
                "ball": L2Ball(2.5, np.zeros(dim))}[kind]  # holds x1 in [-1, 1]^4
    noises = [NoNoise(), GaussianNoise(draw(st.floats(0.1, 3.0))),
              BoundedUniformBall(draw(st.floats(0.1, 3.0)))]
    noise = draw(st.sampled_from(noises))
    mu = draw(st.sampled_from([1.0, 0.5]))
    T = draw(st.integers(1, 40))
    return dict(
        problem=quadratic_problem(dim, mu=mu, feasible=feasible),
        factory=QuadraticOracleFactory(noise, mu=mu),
        T=T, dim=dim,
        eval_every=draw(st.integers(1, T)),
        trials=draw(st.integers(1, 4)),
        block=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
        x1=draw(st.floats(-1.0, 1.0)),
    )


class TestStreamedDraws:
    """Draws made block by block, with blocks of 1-3 steps, give the results
    of run_sgd trial by trial and of one-shot draws."""

    @settings(max_examples=60, deadline=None)
    @given(quadratic_settings())
    def test_quadratic_engines_agree(self, case):
        trials, dim = case["trials"], case["dim"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "_BLOCK_BYTES", case["block"] * trials * dim * 8)
            self._check_quadratic(**case)

    def _check_quadratic(self, problem, factory, T, dim, eval_every, trials, block, seed, x1):
        config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.full(dim, x1),
                           eval_every=eval_every)
        schemes = list(SCHEME_NAMES)
        bat = run_trials(problem, factory, config, schemes, trials, seed)
        seq = per_trial_gaps(problem, factory, config, schemes, trials, seed)
        assert np.array_equal(bat.gaps, seq, equal_nan=True)
        # recorded: the noise goes block by block into the recorded zhat
        rec_config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=config.x1,
                               eval_every=config.eval_every, record_iterates=True)
        run = batched.run_all(problem, factory, rec_config, schemes, trials, seed, 0.5)
        for i in range(trials):
            avs = [make_averager(nm, T=T) for nm in schemes]
            want = run_sgd(problem, factory(RngStream(seed, i)), rec_config, avs)
            assert_same_record(run.trial(i), want)

    @settings(max_examples=30, deadline=None)
    @given(quarter=st.integers(1, 12), trials=st.integers(1, 4), block=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_lower_bound_signs(self, quarter, trials, block, seed):
        T = 4 * quarter
        config = RunConfig(T=T, schedule=LOWER_BOUND_SCHEDULE, x1=np.zeros(1),
                           eval_every=3, record_iterates=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "_BLOCK_BYTES", block * trials * 8)
            run = batched.run_all(lb_problem(), LowerBoundOracleFactory(T), config,
                                  list(SCHEME_NAMES), trials, seed, 0.5)
        for i in range(trials):
            avs = [make_averager(nm, T=T) for nm in SCHEME_NAMES]
            want = run_sgd(lb_problem(), LowerBoundOracle(T, RngStream(seed, i)), config, avs)
            assert_same_record(run.trial(i), want)

    @settings(max_examples=30, deadline=None)
    @given(T=st.integers(1, 40), trials=st.integers(1, 4), block=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_svm_indices_equal_one_shot_draws(self, T, trials, block, seed):
        ds = synthetic_separable_dataset(13, 3, 1)
        calls = []

        class Recording(SvmOracleFactory):
            def fill(self, gens, out, t0):
                super().fill(gens, out, t0)
                calls.append((t0, out.copy()))

        config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=np.zeros(3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batched_svm, "_INDEX_BLOCK_BYTES", block * trials * 8)
            got = run_trials(svm_problem(ds, 0.1), Recording(ds, 0.1), config,
                             list(SCHEME_NAMES), trials, seed)
        # one trial-major fill per block: row i holds trial i's block steps
        starts = list(range(0, T, block))
        assert [t0 for t0, _ in calls] == starts
        assert [d.shape for _, d in calls] == [(trials, min(block, T - t0)) for t0 in starts]
        drawn = np.concatenate([d for _, d in calls], axis=1)
        for i in range(trials):
            want = RngStream(seed, i).generator().integers(ds.m, size=T)
            assert np.array_equal(drawn[i], want)
        whole = run_trials(svm_problem(ds, 0.1), SvmOracleFactory(ds, 0.1), config,
                           list(SCHEME_NAMES), trials, seed)
        assert np.array_equal(got.gaps, whole.gaps, equal_nan=True)


class TestTrajectory:
    def test_items_and_trial_views(self):
        X = np.arange(12.0).reshape(3, 2, 2)
        G = -X
        Z = X / 4
        traj = Trajectory(X, G, Z)
        assert len(traj) == 3
        one = traj.trial(1)
        assert len(one) == 3 and np.array_equal(one.X, X[:, 1])
        x, s = one[2]
        assert np.array_equal(x, X[2, 1]) and np.array_equal(s.ghat, G[2, 1])
        assert np.array_equal(s.zhat, Z[2, 1]) and np.array_equal(s.g, G[2, 1] + Z[2, 1])
        assert [x[0] for x, _ in one] == list(X[:, 1, 0])

    def test_from_pairs_keeps_noise_only_when_every_sample_has_it(self):
        from sgdavg.oracles import GradientSample

        full = [(np.ones(1), GradientSample(np.ones(1), np.ones(1), np.zeros(1)))] * 3
        assert Trajectory.from_pairs(full).zhat.shape == (3, 1)
        partial = full + [(np.ones(1), GradientSample(np.ones(1)))]
        assert Trajectory.from_pairs(partial).zhat is None
        with pytest.raises(InputError):
            Trajectory.from_pairs([])


def reference_product_identity_sweep(max_t):
    """The t-major double loop that product_identity_sweep replaced."""
    worst = 0.0
    worst_pair = (3, 4)
    for t in range(4, max_t + 1):
        for i in range(3, t):
            lit = literal_telescoping_product(i, t)
            closed = telescoping_product_coeff(i, t)
            err = abs(closed - lit) / max(abs(lit), 1e-300)
            if err > worst:
                worst = err
                worst_pair = (i, t)
    return worst, list(worst_pair)


class TestVerifierFleetChecks:
    @pytest.mark.parametrize("max_t", [3, 4, 5, 17, 64, 200, 251])
    def test_product_sweep_matches_double_loop(self, max_t):
        res = product_identity_sweep(max_t=max_t)
        worst, pair = reference_product_identity_sweep(max_t)
        assert res.value == worst
        assert res.detail["worst_pair"] == pair
        assert res.detail["max_t"] == max_t

    @pytest.mark.parametrize("pairs, first", [
        (((5, 30), (10, 20)), [10, 20]),  # the smaller t wins over the smaller i
        (((10, 20), (5, 20)), [5, 20]),  # then the smaller i
    ])
    def test_product_sweep_tie_rule(self, monkeypatch, pairs, first):
        # literal products equal to the closed form except at two pairs, where
        # they are twice it: both errors are exactly 0.5
        max_t = 40

        def fake_cumprod(factors):
            i = max_t - factors.size
            t = np.arange(i + 1, max_t + 1, dtype=np.float64)
            lit = (i - 2.0) * (i - 1.0) * i * (i + 1.0) / ((t - 2.0) * (t - 1.0) * t * (t + 1.0))
            for pi, pt in pairs:
                if pi == i:
                    lit[pt - i - 1] *= 2.0
            return lit

        monkeypatch.setattr(np, "cumprod", fake_cumprod)
        res = product_identity_sweep(max_t=max_t)
        assert res.value == 0.5
        assert res.detail["worst_pair"] == first

    def test_product_sweep_default_value(self):
        res = product_identity_sweep()
        assert res.value == 1.9176599344523934e-15
        assert res.detail["worst_pair"] == [8, 198]

    def test_coefficients_computed_once_per_fleet(self, monkeypatch):
        calls = []
        original = verify.chicken_and_egg_coefficients

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(verify, "chicken_and_egg_coefficients", counting)
        results = run_verification_fleet(runs=4, T=300, base_seed=5,
                                         only=["chicken-and-egg"])
        assert calls == [(300, 1.0, 6.0)]
        # the same worst case as checking each run on its own
        expected = min(
            (verify.verify_chicken_and_egg(rec.trajectory, p.mu, p.lipschitz, p.xstar)
             for p, rec in fleet_trajectories(runs=4, T=300, base_seed=5)),
            key=lambda r: r.value)
        assert results[0].value == expected.value
        assert results[0].detail == {**expected.detail, "runs": 4}

    def test_coefficients_of_another_horizon_rejected(self):
        (problem, record), = fleet_trajectories(runs=1, T=50, base_seed=2)
        with pytest.raises(InputError, match="49 steps for a 50-step"):
            verify.verify_chicken_and_egg(
                record.trajectory, problem.mu, problem.lipschitz, problem.xstar,
                coefficients=verify.chicken_and_egg_coefficients(49, 1.0, 6.0))
