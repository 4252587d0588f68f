"""Tests of the benchmark itself (not of sgdavg): failure counting, the
negative control, the input generator and the bare-directory refusal.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
"""

import shutil
import subprocess
import sys
import time

from run import ROOT, Checks, Runner
from workloads import VerifyLb, check_verify_output, cli, write_sparse_dataset


def _runner(tmp_path, seconds=60.0):
    (tmp_path / "logs").mkdir()
    checks = Checks()
    return Runner(tmp_path, checks, time.monotonic() + seconds), checks


def test_nonzero_exit_timeout_and_exception_count_as_failed(tmp_path):
    runner, checks = _runner(tmp_path, seconds=1.0)
    procs = runner.run([[sys.executable, "-c", "import sys; sys.exit(3)"],
                        [sys.executable, "-c", "import time; time.sleep(30)"]])
    checks.expect("raises", lambda: 1 / 0)
    assert procs[0].exit_code == 3
    assert procs[1].timed_out and procs[1].wall_s < 10
    assert (checks.attempted, checks.failed) == (3, 3)


def test_negative_control_counts_as_failed(tmp_path):
    runner, checks = _runner(tmp_path)
    (proc,) = runner.run([cli("verify", "--inject-beta-zero", "--runs", 2, "--T", 200)])
    check_verify_output(checks, proc.stdout, VerifyLb.VERIFY_LINES)
    failed = [name for name, ok, _ in checks.results if not ok]
    assert failed == ["exit 0: verify --inject-beta-zero --runs",
                      "verify_lb: verifier chicken-and-egg"]


def test_generator_is_seeded_and_well_formed(tmp_path):
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    write_sparse_dataset(a, 7, m=200, n=40, nnz=5)
    write_sparse_dataset(b, 7, m=200, n=40, nnz=5)
    write_sparse_dataset(c, 8, m=200, n=40, nnz=5)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    labels, top = set(), 0
    for line in a.read_text().splitlines():
        label, *feats = line.split()
        idx = [int(f.split(":")[0]) for f in feats]
        assert len(idx) == 5 and idx == sorted(set(idx)) and idx[0] >= 1
        labels.add(label)
        top = max(top, idx[-1])
    assert labels == {"+1", "-1"} and top == 40


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tail_verify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        assert not line.startswith("{"), "printed a result"
