import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import sgdavg
from sgdavg.cli import main
from sgdavg.core import SparseVec
from sgdavg.data import Dataset

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

    def test_workers_env_variable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SGDAVG_WORKERS", "2")
        p1 = tmp_path / "w.csv"
        args = [a for a in self.ARGS if a != "--reproducible"]
        assert main(args + ["--reproducible", "--engine", "sequential",
                            "--csv", str(p1)]) == 0
        text = p1.read_text()
        assert '"workers": 2' in text

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

    @pytest.mark.parametrize("engine", ["batched", "sequential"])
    def test_trials_exit_one_naming_trial_and_iteration(self, capsys, engine):
        with np.errstate(over="ignore"):
            code, _, err = run_cli(["trials", *self.ARGS, "--trials", "2",
                                    "--engine", engine], capsys)
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

    def test_only_product_identity_sweep(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--seed", "5", "--only", "product-identity"], capsys
        )
        assert code == 0
        assert "product-identity" in out


class TestConsoleScript:
    def test_module_invocation_works(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sgdavg.cli", "lb", "--T", "8", "--exact"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert proc.returncode == 0, proc.stderr
        assert "1/8" in proc.stdout

    def test_scipy_loaded_only_by_dataset_runs(self, tmp_path):
        # scipy.sparse is imported by Dataset.matrix(), so the CLI and a
        # quadratic trials run start without it
        script = (
            "import sys\n"
            "import sgdavg.cli\n"
            "assert 'scipy' not in sys.modules, 'after import'\n"
            "code = sgdavg.cli.main(['trials', '--problem', 'quadratic', '--dim', '1',\n"
            "                        '--noise', 'ball', '--T', '50', '--trials', '3',\n"
            "                        '--seed', '1', '--csv', 'q.csv'])\n"
            "assert code == 0\n"
            "assert 'scipy' not in sys.modules, 'after a quadratic trials run'\n"
            "from sgdavg.data import synthetic_separable_dataset\n"
            "synthetic_separable_dataset(5, 3, 1).matrix()\n"
            "assert 'scipy' in sys.modules, 'after matrix()'\n"
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
        ["trials", "--trials", "3", "--engine", "batched", "--scaling", "sparse01"],
        ["trials", "--trials", "2", "--engine", "sequential", "--scaling", "auto"],
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
