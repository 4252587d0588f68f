"""bench/record.py keeps the pairs it finished when a run fails."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.fixture(autouse=True)
def no_git(monkeypatch):
    monkeypatch.setattr(record, "export_revision", lambda rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(record, "export_working_tree", lambda dest: dest.mkdir(parents=True))
    monkeypatch.setattr(record, "git", lambda *args: "0123abc\n")


def fake_runs(monkeypatch, fail_at, exc):
    """run_once returns fixed metrics until its ``fail_at``-th call, which raises."""
    calls = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: 1.0 for m in spec["end_to_end"]}

    def run_once(side, workload, seed):
        calls.append((side.name, workload, seed))
        if len(calls) == fail_at:
            raise exc
        return {"seed": seed, "metrics": dict(metrics), "provenance": {}}

    monkeypatch.setattr(record, "run_once", run_once)
    return calls


@pytest.mark.parametrize("exc", [
    subprocess.TimeoutExpired(["perfbench/run.py"], 900),
    record.NoResult("tail_verify seed 6 in parent: no result line (exit 1)"),
], ids=["timeout", "no-result-line"])
def test_failed_run_keeps_finished_pairs(monkeypatch, tmp_path, exc):
    # svm_sparse seed 1: parent, change; tail_verify seed 5: parent, change;
    # tail_verify seed 6: change, then parent fails
    calls = fake_runs(monkeypatch, 6, exc)
    out = tmp_path / "bench.json"
    code = record.main(["--parent", "HEAD", "--runs", "svm_sparse:1:1",
                        "--runs", "tail_verify:5:3", "--runs", "svm_sparse:9:2",
                        "--out", str(out), "--workdir", str(tmp_path / "work")])
    assert code == 1
    assert len(calls) == 6  # the recording stops at the failure
    report = json.loads(out.read_text())
    assert report["incomplete"]["workload"] == "tail_verify"
    assert (report["incomplete"]["seed"], report["incomplete"]["side"]) == (6, "parent")
    assert [p["seed"] for p in report["workloads"]["svm_sparse"]["pairs"]] == [1]
    tail = report["workloads"]["tail_verify"]
    assert [p["seed"] for p in tail["pairs"]] == [5]
    assert tail["metrics"]["wall_s"]["pairs"] == 1


def test_first_run_failing_writes_an_empty_report(monkeypatch, tmp_path):
    fake_runs(monkeypatch, 1, record.NoResult("no result line"))
    out = tmp_path / "bench.json"
    code = record.main(["--parent", "HEAD", "--runs", "tail_verify:5:3", "--out", str(out),
                        "--workdir", str(tmp_path / "work")])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["workloads"] == {}
    assert report["incomplete"]["side"] == "parent"


def test_complete_recording_exits_zero(monkeypatch, tmp_path):
    calls = fake_runs(monkeypatch, 0, None)
    out = tmp_path / "bench.json"
    code = record.main(["--parent", "HEAD", "--runs", "tail_verify:5:2", "--out", str(out),
                        "--workdir", str(tmp_path / "work")])
    assert code == 0 and len(calls) == 4
    report = json.loads(out.read_text())
    assert "incomplete" not in report
    assert [p["first"] for p in report["workloads"]["tail_verify"]["pairs"]] == \
        ["parent", "change"]
