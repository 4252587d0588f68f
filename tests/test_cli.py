import ast
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sgdavg
from sgdavg.cli import main
from sgdavg.core import SparseVec
from sgdavg.data import Dataset
from sgdavg.oracles import GaussianNoise, RngStream, empirical_mgf_check

# The directory holding the `sgdavg` package under test (the checkout's `src`
# when run with PYTHONPATH=src), so child interpreters import this code and
# not another installed copy.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(sgdavg.__file__)))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_hand_unrolled_gap(self, capsys):
        code, out, _ = run_cli(
            ["run", "--problem", "quadratic", "--dim", "1", "--noise", "none",
             "--mu", "1", "--T", "3", "--x1", "1", "--schemes", "nonuniform",
             "--seed", "1"],
            capsys,
        )
        assert code == 0
        line = [ln for ln in out.splitlines() if ln.startswith("nonuniform")][0]
        assert float(line.split()[-1]) == pytest.approx(1 / 72, rel=1e-12)

    def test_help_exits_zero(self, capsys):
        assert main(["run", "--help"]) == 0

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["run", "--T", "3", "--seed", "1", "--frobnicate"]) == 2

    def test_missing_dataset_exits_one_naming_path(self, capsys):
        code, _, err = run_cli(
            ["run", "--problem", "svm", "--dataset", "/nope/missing.libsvm",
             "--T", "10", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert "/nope/missing.libsvm" in err

    def test_missing_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.delenv("SGDAVG_SEED", raising=False)
        code, _, err = run_cli(["run", "--T", "3"], capsys)
        assert code == 2
        assert "seed" in err

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SGDAVG_SEED", "1")
        code, out, _ = run_cli(
            ["run", "--T", "3", "--x1", "1", "--schemes", "nonuniform"], capsys
        )
        assert code == 0

    def test_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SGDAVG_SEED", "1")
        code, out, _ = run_cli(
            ["run", "--T", "50", "--x1", "1", "--noise", "ball",
             "--schemes", "final", "--seed", "2"],
            capsys,
        )
        monkeypatch.setenv("SGDAVG_SEED", "2")
        code2, out2, _ = run_cli(
            ["run", "--T", "50", "--x1", "1", "--noise", "ball",
             "--schemes", "final"],
            capsys,
        )
        assert out == out2

    def test_trajectory_dump(self, capsys, tmp_path):
        path = tmp_path / "traj.json"
        code, _, _ = run_cli(
            ["run", "--T", "5", "--x1", "1", "--seed", "3",
             "--dump-trajectory", str(path)],
            capsys,
        )
        assert code == 0
        rows = json.loads(path.read_text())
        assert len(rows) == 5
        assert rows[0]["t"] == 1 and rows[0]["x"] == [1.0]


class TestTrials:
    ARGS = ["trials", "--problem", "quadratic", "--dim", "1", "--noise", "ball",
            "--T", "200", "--x1", "1", "--trials", "20", "--seed", "7",
            "--reproducible"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--csv", str(p1)]) == 0
        assert main(self.ARGS + ["--csv", str(p2)]) == 0
        capsys.readouterr()
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1.replace(str(p1).encode(), b"") == b2.replace(str(p2).encode(), b"")
        # same path twice: strictly byte-identical
        assert main(self.ARGS + ["--csv", str(p1)]) == 0
        b1_again = p1.read_bytes()
        assert b1 == b1_again

    def test_timestamp_suppressed_only_when_reproducible(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        args = [a for a in self.ARGS if a != "--reproducible"]
        assert main(args + ["--csv", str(path)]) == 0
        capsys.readouterr()
        assert "# generated:" in path.read_text()
        assert main(self.ARGS + ["--csv", str(path)]) == 0
        assert "# generated:" not in path.read_text()

    def test_tail_table_printed(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--deltas", "0.2,0.1"], capsys)
        assert code == 0
        assert "fitted constant" in out

    def test_config_comment_echoed(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        assert main(self.ARGS + ["--csv", str(path)]) == 0
        assert path.read_text().startswith("# config: {")

    def test_config_comment_names_no_engine_or_workers(self, capsys, tmp_path):
        path = tmp_path / "e.csv"
        assert main(self.ARGS + ["--csv", str(path)]) == 0
        config = path.read_text().splitlines()[0]
        assert '"trials": 20' in config
        assert '"engine"' not in config and '"workers"' not in config

    @pytest.mark.parametrize("alpha", ["1.5", "0", "-1"])
    @pytest.mark.parametrize("problem", ["quadratic", "svm"])
    def test_suffix_fraction_outside_unit_interval_exits_two(self, capsys, tmp_path,
                                                             problem, alpha):
        args = ["trials", "--T", "100", "--trials", "3", "--seed", "1",
                "--suffix-alpha", alpha]
        if problem == "svm":
            path = tmp_path / "d.txt"
            path.write_text(TestSvmCommandsUseTheCsrArrays.TEXT)
            args += ["--problem", "svm", "--dataset", str(path)]
        else:
            args += ["--noise", "ball"]
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert f"suffix fraction must lie in (0, 1], got {float(alpha)}" in err

    @pytest.mark.parametrize("noise, value", [("ball", "1e308"), ("ball", "inf"),
                                              ("gaussian", "inf"), ("gaussian", "nan")])
    def test_non_finite_noise_parameter_exits_two(self, capsys, noise, value):
        # a ball bound whose double overflows would fail at the first draw
        flag = "--noise-bound" if noise == "ball" else "--noise-scale"
        code, out, err = run_cli(["trials", "--problem", "quadratic", "--noise", noise,
                                  flag, value, "--T", "10", "--trials", "2", "--seed", "1"],
                                 capsys)
        assert code == 2
        assert out == ""
        what = "noise bound" if noise == "ball" else "noise scale"
        assert err.startswith(f"error: {what} must be positive") and err.count("\n") == 1

    def test_tail_fit_of_raw_svm_objectives_exits_two(self, capsys, tmp_path):
        # no SVM optimum is known, so the entries are objective values that do
        # not go to 0: fitting them against log(1/delta)/T is refused
        path = tmp_path / "d.txt"
        path.write_text(TestSvmCommandsUseTheCsrArrays.TEXT)
        code, _, err = run_cli(["trials", "--problem", "svm", "--dataset", str(path),
                                "--T", "100", "--trials", "20", "--seed", "1",
                                "--deltas", "0.1"], capsys)
        assert code == 2
        assert err == ("error: no tail fit without a known optimum: the entries are "
                       "raw objective values, not gaps\n")

    @pytest.mark.parametrize("case", ["small delta", "raw svm", "tail scheme not run",
                                      "no trials"])
    def test_unfittable_tail_request_exits_two_before_the_run(self, capsys, tmp_path, case):
        # a delta below 2/trials, a problem with no known optimum, a tail
        # scheme the run does not report and no trials at all are refused
        # before the first step: no CSV is written
        data = tmp_path / "d.txt"
        data.write_text(TestSvmCommandsUseTheCsrArrays.TEXT)
        csv = tmp_path / "x.csv"
        argv, err_want = {
            "small delta": (["--noise", "ball", "--set", "interval", "--T", "2000",
                             "--trials", "50", "--deltas", "0.01"],
                            "delta 0.01 is unresolvable with 50 trials; minimum feasible "
                            "delta is 0.04"),
            "raw svm": (["--problem", "svm", "--dataset", str(data), "--T", "100",
                         "--trials", "20", "--deltas", "0.1"],
                        "no tail fit without a known optimum: the entries are raw "
                        "objective values, not gaps"),
            "tail scheme not run": (["--noise", "ball", "--T", "100", "--trials", "20",
                                     "--schemes", "final,uniform", "--deltas", "0.1"],
                                    "unknown scheme 'nonuniform'; have ['final', 'uniform']"),
            "no trials": (["--T", "10", "--trials", "0", "--deltas", "0.1"],
                          "need at least one trial, got 0"),
        }[case]
        code, out, err = run_cli(["trials", *argv, "--seed", "1", "--csv", str(csv)], capsys)
        assert (code, out, err) == (2, "", f"error: {err_want}\n")
        assert not csv.exists()

    def test_standardize_over_budget_exits_two(self, capsys, tmp_path):
        # two stored entries whose dense form is 2 x 2e8 float64
        path = tmp_path / "wide.txt"
        path.write_text("1 200000000:1\n-1 1:1\n")
        code, out, err = run_cli(["run", "--problem", "svm", "--dataset", str(path),
                                  "--scaling", "standardize", "--T", "3", "--seed", "1"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert err == ("error: a dense 2 x 200000000 copy of the features and its "
                       "standardized copy need 6400000000 bytes, above the batched "
                       "engine's budget of 1600000000 bytes\n")

    @pytest.mark.parametrize("command", ["run", "trials"])
    @pytest.mark.parametrize("problem, feasible", [
        ("quadratic", ["--set", "interval"]),
        ("quadratic", ["--set", "ball", "--radius", "1", "--dim", "2"]),
        ("svm", ["--set", "interval"]),
        ("svm", ["--set", "ball", "--radius", "1"]),
    ])
    def test_infeasible_start_exits_two(self, capsys, tmp_path, command, problem, feasible):
        # both engines of trials refuse the start that run refuses
        args = [command, "--x1", "10", "--T", "20", "--seed", "1", *feasible]
        if command == "trials":
            args += ["--trials", "3", "--csv", str(tmp_path / "out.csv")]
        if problem == "svm":
            path = tmp_path / "d.txt"
            path.write_text(TestSvmCommandsUseTheCsrArrays.TEXT)
            args += ["--problem", "svm", "--dataset", str(path)]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: x1 must be feasible for the problem's set\n"
        assert not (tmp_path / "out.csv").exists()

    def test_unwritable_csv_path_exits_one(self, capsys):
        code, _, err = run_cli(
            self.ARGS + ["--csv", "/nonexistent-dir/out.csv"], capsys
        )
        assert code == 1
        assert "/nonexistent-dir" in err


class TestDivergence:
    # the checkpoint objective overflows at t = 200 while the iterate is finite
    ARGS = ["--problem", "quadratic", "--dim", "1", "--noise", "ball", "--step-c",
            "1000", "--T", "600", "--eval-every", "100", "--seed", "1"]

    def test_trials_exit_one_naming_trial_and_iteration(self, capsys):
        with np.errstate(over="ignore"):
            code, _, err = run_cli(["trials", *self.ARGS, "--trials", "2"], capsys)
        assert code == 1
        assert "trial 0 " in err and "iteration 200:" in err

    def test_run_exits_one_naming_iteration(self, capsys):
        with np.errstate(over="ignore"):
            code, out, err = run_cli(["run", *self.ARGS], capsys)
        assert code == 1
        assert "iteration 200:" in err and "inf" not in out


class TestLb:
    def test_exact_table_contains_one_eighth(self, capsys):
        code, out, _ = run_cli(["lb", "--T", "8", "--exact"], capsys)
        assert code == 0
        row = [ln for ln in out.splitlines() if "1/8" in ln]
        assert row and "1/2" in row[0]

    def test_indivisible_horizon_exits_two(self, capsys):
        assert main(["lb", "--T", "10"]) == 2

    def test_simulation_within_threshold(self, capsys):
        code, out, _ = run_cli(
            ["lb", "--T", "8", "--trials", "400", "--seed", "7"], capsys
        )
        assert code == 0
        assert "kolmogorov gap" in out

    @pytest.mark.parametrize("trials", [1, 37, 4000])
    def test_dkw_band_printed_beside_the_gap(self, capsys, trials):
        code, out, _ = run_cli(["lb", "--T", "8", "--trials", str(trials), "--seed", "2",
                                "--gap-threshold", "1"], capsys)
        assert code == 0
        band = float(re.search(r"kolmogorov gap [0-9.]+, 95% DKW band ([0-9.]+),", out).group(1))
        assert band == float(f"{math.sqrt(math.log(2 / 0.05) / (2 * trials)):.6f}")
        if trials == 4000:
            assert band == 0.021473

    def test_exact_law_at_a_long_horizon(self, capsys):
        code, out, _ = run_cli(["lb", "--T", "4000", "--exact", "--delta", "0.1"], capsys)
        assert code == 0
        rows = out.splitlines()[2:-1]
        assert len(rows) == 501
        assert sum(Fraction(r.split()[1]) for r in rows) == 1
        assert out.splitlines()[-1].startswith("P[f(report) >= log(1/0.1)/(9T) = 6.39607e-05]")

    def test_exceedance_probability_printed(self, capsys):
        code, out, _ = run_cli(["lb", "--T", "8", "--delta", "0.3"], capsys)
        assert code == 0
        assert "P[f(report) >=" in out

    def test_budget_refusal_exits_two(self, capsys):
        # 3 * T * trials * 8 bytes of recording, refused before anything is allocated
        code, out, err = run_cli(["lb", "--T", "20000", "--trials", "4000", "--seed", "1"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert err == ("error: recorded trajectories need 1920000000 bytes, above the "
                       "batched engine's budget of 1600000000 bytes\n")


class TestVerify:
    def test_default_invocation_passes(self, capsys, monkeypatch):
        # full fleet at its built-in defaults: the fresh-checkout contract
        monkeypatch.delenv("SGDAVG_SEED", raising=False)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert out.count("PASS") == 6 and "FAIL" not in out

    def test_fleet_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--runs", "2", "--T", "200", "--seed", "5",
             "--mgf-samples", "20000", "--product-max-t", "40"],
            capsys,
        )
        assert code == 0
        assert out.count("PASS") == 6

    def test_beta_zero_hook_fails(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--runs", "2", "--T", "200", "--seed", "5",
             "--only", "chicken-and-egg", "--inject-beta-zero"],
            capsys,
        )
        assert code == 1
        assert "FAIL" in out

    def test_report_json(self, capsys, tmp_path):
        path = tmp_path / "verdict.json"
        code, _, _ = run_cli(
            ["verify", "--runs", "2", "--T", "200", "--seed", "5",
             "--only", "product-identity", "--product-max-t", "30",
             "--report", str(path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["passed"] is True
        assert payload["checks"][0]["name"] == "product-identity"

    def test_mgf_report_marks_infinite_variance(self, capsys, tmp_path):
        # at n = 1 the estimator averages e = exp(z^2/4), and E[e^2] =
        # E[exp(z^2/2)] is infinite, so no standard error holds there; at
        # n = 50 the variance is finite. Values and verdicts stay as drawn.
        path = tmp_path / "verdict.json"
        code, out, _ = run_cli(
            ["verify", "--seed", "5", "--only", "mgf", "--mgf-samples", "20000",
             "--report", str(path)],
            capsys,
        )
        assert code == 0 and out.count("PASS") == 2
        checks = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
        assert checks["mgf-gaussian-n1"]["detail"]["stderr"] == math.inf
        assert 0.0 < checks["mgf-gaussian-n50"]["detail"]["stderr"] < math.inf
        for n in (1, 50):
            est, _ = empirical_mgf_check(GaussianNoise(1.0), 2.0, n, 20000,
                                         RngStream(5, 10_000 + n))
            assert checks[f"mgf-gaussian-n{n}"]["value"] == est

    def test_only_product_identity_sweep(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--seed", "5", "--only", "product-identity"], capsys
        )
        assert code == 0
        assert "product-identity" in out

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_no_runs_exits_two(self, capsys, runs):
        code, out, err = run_cli(["verify", "--runs", runs, "--T", "5",
                                  "--only", "diameter"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: need runs >= 1, got {runs}\n"

    @pytest.mark.parametrize("max_t", ["2", "3"])
    def test_product_sweep_without_a_pair_exits_two(self, capsys, max_t):
        # 3 <= i < t <= max_t holds no pair: a PASS would check nothing
        code, out, err = run_cli(["verify", "--product-max-t", max_t,
                                  "--only", "product-identity"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: need product_max_t >= 4 for a pair 3 <= i < t <= "
                       f"product_max_t, got {max_t}\n")

    def test_smallest_product_sweep_checks_one_pair(self, capsys):
        code, out, _ = run_cli(["verify", "--product-max-t", "4",
                                "--only", "product-identity"], capsys)
        assert code == 0 and out.startswith("PASS product-identity")


class TestConsoleScript:
    def test_module_invocation_works(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sgdavg.cli", "lb", "--T", "8", "--exact"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert proc.returncode == 0, proc.stderr
        assert "1/8" in proc.stdout

    def test_package_invocation_works(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sgdavg", "lb", "--T", "8", "--exact"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert proc.returncode == 0, proc.stderr
        assert "1/8" in proc.stdout

    def test_scipy_loaded_only_by_dataset_runs(self, tmp_path):
        # the CLI and a quadratic trials run start without scipy; an SVM
        # trials run (standardized, checkpointed) loads only scipy's compiled
        # sparse kernels, from their file, and not the scipy.sparse package
        # with the numpy modules its import brings
        (tmp_path / "set.txt").write_text(
            "+1 1:0.5 2:1 3:-0.25\n-1 1:2 3:0.75\n+1 2:-1 3:0.5\n-1 1:-0.5 2:0.25\n")
        script = (
            "import sys\n"
            "import sgdavg.cli\n"
            "assert 'scipy' not in sys.modules, 'after import'\n"
            "code = sgdavg.cli.main(['trials', '--problem', 'quadratic', '--dim', '1',\n"
            "                        '--noise', 'ball', '--T', '50', '--trials', '3',\n"
            "                        '--seed', '1', '--csv', 'q.csv'])\n"
            "assert code == 0\n"
            "assert 'scipy' not in sys.modules, 'after a quadratic trials run'\n"
            "code = sgdavg.cli.main(['trials', '--problem', 'svm', '--dataset', 'set.txt',\n"
            "                        '--scaling', 'standardize', '--T', '40', '--trials', '3',\n"
            "                        '--eval-every', '10', '--seed', '1', '--csv', 's.csv'])\n"
            "assert code == 0\n"
            "loaded = [m for m in ('scipy.sparse', 'numpy.f2py', 'numpy.testing')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "from sgdavg import data\n"
            "assert data._sparsetools.cache_info().currsize == 1, 'kernels not loaded'\n"
            "assert data._sparsetools().__file__ == data._sparsetools_file()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert proc.returncode == 0, proc.stderr

    def test_lb_leaves_numpy_ma_unloaded(self, tmp_path):
        # kolmogorov_gap unions the support and the sample without
        # np.union1d, whose np.unique imports numpy.ma
        script = (
            "import sys\n"
            "import sgdavg.cli\n"
            "code = sgdavg.cli.main(['lb', '--T', '16', '--trials', '200', '--exact',\n"
            "                        '--delta', '0.1', '--seed', '1'])\n"
            "assert code in (0, 1), code\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert proc.returncode == 0, proc.stderr
        assert "kolmogorov gap" in proc.stdout

    def test_quadratic_commands_leave_the_svm_engine_unloaded(self, tmp_path):
        # each command loads only its own modules: the data layer only for SVM
        # runs, the scaled SVM engine only for those it serves, the CSV writer
        # only for trials, the lower-bound law only for lb, the verifiers only
        # for verify
        (tmp_path / "d.txt").write_text("+1 1:0.5 2:1\n-1 2:0.3\n+1 1:-0.2\n")
        commands = [
            (['trials', '--problem', 'quadratic', '--noise', 'ball', '--set', 'interval',
              '--T', '40', '--trials', '3', '--seed', '1', '--csv', 'q.csv'],
             ['sgdavg.experiments.batched_svm', 'sgdavg.data', 'sgdavg.experiments.verify',
              'sgdavg.experiments.lowerbound']),
            (['lb', '--T', '16', '--trials', '20', '--seed', '1'],
             ['sgdavg.experiments.batched_svm', 'sgdavg.experiments.io',
              'sgdavg.experiments.verify']),
            (['verify', '--seed', '1', '--runs', '1', '--T', '5', '--only', 'diameter'],
             ['sgdavg.experiments.batched_svm', 'sgdavg.experiments.io',
              'sgdavg.experiments.lowerbound']),
            (['trials', '--problem', 'svm', '--dataset', 'd.txt', '--T', '20', '--trials', '2',
              '--seed', '1', '--csv', 's.csv'],
             ['sgdavg.experiments.verify', 'sgdavg.experiments.lowerbound']),
            # SVM trials on the box run through run_sgd, without the scaled engine
            (['trials', '--problem', 'svm', '--dataset', 'd.txt', '--set', 'interval',
              '--T', '20', '--trials', '2', '--seed', '1', '--csv', 'b.csv'],
             ['sgdavg.experiments.batched_svm', 'sgdavg.experiments.verify',
              'sgdavg.experiments.lowerbound']),
            # and so do those on the ball about the origin
            (['trials', '--problem', 'svm', '--dataset', 'd.txt', '--set', 'ball',
              '--T', '20', '--trials', '2', '--seed', '1', '--csv', 'c.csv'],
             ['sgdavg.experiments.batched_svm', 'sgdavg.experiments.verify',
              'sgdavg.experiments.lowerbound']),
        ]
        for argv, unloaded in commands:
            script = (
                "import sys\n"
                "import sgdavg.cli\n"
                f"code = sgdavg.cli.main({argv!r})\n"
                "assert code in (0, 1), code\n"
                f"loaded = [m for m in {unloaded!r} if m in sys.modules]\n"
                "assert not loaded, loaded\n"
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC_DIR},
            )
            assert proc.returncode == 0, (argv, proc.stderr)

    @pytest.mark.parametrize("package", ["sgdavg", "sgdavg.experiments"])
    def test_public_names_resolve_to_their_defining_modules(self, package):
        # the module that defines each top-level name, read from the source
        defined = {}
        for path in Path(SRC_DIR, "sgdavg").rglob("*.py"):
            module = ".".join(path.relative_to(SRC_DIR).with_suffix("").parts)
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    defined.setdefault(node.name, []).append(module)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            defined.setdefault(target.id, []).append(module)
        pkg = importlib.import_module(package)
        assert len(pkg.__all__) == len(set(pkg.__all__)) > 0
        for name in pkg.__all__:
            [module] = defined[name]
            assert getattr(pkg, name) is getattr(importlib.import_module(module), name), name
        assert set(pkg.__all__) <= set(dir(pkg))
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(pkg, "no_such_name")

    def test_cli_import_loads_no_process_pool(self, tmp_path):
        # no command uses a process pool, and only dataset runs use scipy's
        # kernels; importing the CLI loads neither
        script = (
            "import sys\n"
            "import sgdavg.cli\n"
            "loaded = [m for m in ('concurrent.futures.process', 'multiprocessing', 'scipy')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(shutil.which("sgdavg") is None,
                        reason="sgdavg console script is not installed")
    def test_installed_console_script_works(self, tmp_path):
        proc = subprocess.run(
            ["sgdavg", "lb", "--T", "8", "--exact"],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "1/8" in proc.stdout


class TestSvmCommandsUseTheCsrArrays:
    TEXT = "".join(
        f"{'+1' if i % 3 else '-1'} {i % 7 + 1}:{0.5 + i % 5} {i % 7 + 9}:{1.5 - i % 4}\n"
        for i in range(60)
    )

    @pytest.mark.parametrize("argv", [
        ["trials", "--trials", "3", "--scaling", "sparse01"],
        ["trials", "--trials", "2", "--scaling", "auto"],
        ["run", "--scaling", "standardize", "--set", "ball", "--radius", "3"],
        ["run"],
    ])
    def test_no_per_row_objects(self, capsys, tmp_path, monkeypatch, argv):
        path = tmp_path / "d.txt"
        path.write_text(self.TEXT)

        def refuse(*args, **kwargs):
            raise AssertionError("a per-row object was built")

        monkeypatch.setattr(Dataset, "points", property(refuse))
        monkeypatch.setattr(SparseVec, "__init__", refuse)
        code, out, err = run_cli(argv + ["--problem", "svm", "--dataset", str(path),
                                          "--T", "300", "--seed", "4"], capsys)
        assert code == 0, err
