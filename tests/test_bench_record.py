"""bench/record.py keeps the pairs it finished when a run or the output
check fails, and compares both sides' outputs: byte for byte, except the
`# meta:` fields it allows to differ."""

import importlib.util
import json
import subprocess
import sys
from collections import defaultdict
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
    # the output check runs no command unless a test gives it a workload
    monkeypatch.setattr(record, "load_workloads", lambda: defaultdict(NoCommands))


class NoCommands:
    def prepare(self, tmp, seed):
        tmp.mkdir(parents=True)
        return {}

    def commands(self, out, seed, facts):
        return []

    def outputs(self, out):
        return []


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


class FakeWorkload:
    """One command that prints the value in its side's `value.txt` and
    writes it to `out/a.csv` under a `# config:` line naming the side."""

    def prepare(self, tmp, seed):
        tmp.mkdir(parents=True)
        return {}

    def commands(self, out, seed, facts):
        script = ("import os, sys\n"
                  "v = open('value.txt').read()\n"
                  "with open(sys.argv[1], 'w') as fh:\n"
                  "    fh.write('# config: ' + os.getcwd() + '\\n' + v + '\\n')\n"
                  "print(v, sys.argv[1])\n")
        return [[sys.executable, "-c", script, str(out / "a.csv")]]

    def outputs(self, out):
        return [out / "a.csv"]


@pytest.mark.parametrize("parent_value, identical", [("7", True), ("8", False)])
def test_check_outputs(monkeypatch, tmp_path, parent_value, identical):
    def exporter(value):
        def export(*args):
            dest = args[-1]
            dest.mkdir(parents=True)
            (dest / "value.txt").write_text(value)
        return export

    monkeypatch.setattr(record, "export_revision", exporter(parent_value))
    monkeypatch.setattr(record, "export_working_tree", exporter("7"))
    monkeypatch.setattr(record, "load_workloads", lambda: {"tail_verify": FakeWorkload()})
    fake_runs(monkeypatch, 0, None)
    out = tmp_path / "bench.json"
    code = record.main(["--parent", "HEAD", "--runs", "tail_verify:5:1", "--runs",
                        "tail_verify:9:1", "--out", str(out), "--workdir",
                        str(tmp_path / "work")])
    verdict = json.loads(out.read_text())["check_outputs"]["tail_verify"]
    # the first seed of the workload; the `# config:` lines name different
    # sides and are left out, while the printed output path is the same
    assert verdict["seed"] == 5
    assert verdict["compared"] == ["a.csv", "command 1 exit", "command 1 stdout"]
    assert verdict["identical"] is identical
    assert verdict["differ"] == ([] if identical else ["a.csv", "command 1 stdout"])
    assert code == (0 if identical else 1)
    parent, change = (tmp_path / "work" / "outputs" / "tail_verify" / s / "a.csv"
                      for s in ("parent", "change"))
    assert parent.read_text().splitlines()[0] != change.read_text().splitlines()[0]


class MetaWorkload(FakeWorkload):
    """One command that writes its side's `value.txt` to `out/a.csv` under a
    `# config:` line naming the side, and prints only the path."""

    def commands(self, out, seed, facts):
        script = ("import os, sys\n"
                  "with open(sys.argv[1], 'w') as fh:\n"
                  "    fh.write('# config: ' + os.getcwd() + '\\n' + open('value.txt').read())\n"
                  "print(sys.argv[1])\n")
        return [[sys.executable, "-c", script, str(out / "a.csv")]]


CSV = '# meta: {{"predraw_bytes": {}, "trials": {}}}\ntrial,value\n0,{}\n1,0.5\n'


@pytest.mark.parametrize("parent_value, details, code", [
    # only the engine's table bytes differ: reported, and allowed
    (CSV.format(64, 2, 0.25), {"meta": {"predraw_bytes": [64, 32]}, "first_line": None,
                               "allowed": True}, 0),
    (CSV.format(32, 3, 0.25), {"meta": {"trials": [3, 2]}, "first_line": None,
                               "allowed": False}, 1),
    # a data row differs: its number counts neither the config nor the meta line
    (CSV.format(32, 2, 0.75), {"meta": {}, "allowed": False,
                               "first_line": {"line": 2, "parent": "0,0.75", "change": "0,0.25"}},
     1),
], ids=["predraw-bytes", "other-meta-field", "data-row"])
def test_check_outputs_reports_meta_fields_and_first_line(monkeypatch, tmp_path, parent_value,
                                                          details, code):
    def exporter(value):
        def export(*args):
            dest = args[-1]
            dest.mkdir(parents=True)
            (dest / "value.txt").write_text(value)
        return export

    monkeypatch.setattr(record, "export_revision", exporter(parent_value))
    monkeypatch.setattr(record, "export_working_tree", exporter(CSV.format(32, 2, 0.25)))
    monkeypatch.setattr(record, "load_workloads", lambda: {"svm_sparse": MetaWorkload()})
    fake_runs(monkeypatch, 0, None)
    out = tmp_path / "bench.json"
    assert record.main(["--parent", "HEAD", "--runs", "svm_sparse:5:1", "--out", str(out),
                        "--workdir", str(tmp_path / "work")]) == code
    verdict = json.loads(out.read_text())["check_outputs"]["svm_sparse"]
    assert verdict["identical"] is False and verdict["differ"] == ["a.csv"]
    assert verdict["details"] == {"a.csv": details}
    assert verdict["passed"] is (code == 0)


def test_without_config_drops_only_the_config_line():
    text = b"# config: {\"csv\": \"/a\"}\n# meta: {}\nx,y\n1,2\n"
    assert record.without_config(text) == b"# meta: {}\nx,y\n1,2\n"


def test_failed_output_check_keeps_the_pairs(monkeypatch, tmp_path):
    def fail(*args):
        raise FileExistsError("outputs/tail_verify")

    fake_runs(monkeypatch, 0, None)
    monkeypatch.setattr(record, "check_outputs", fail)
    out = tmp_path / "bench.json"
    code = record.main(["--parent", "HEAD", "--runs", "tail_verify:5:2", "--out", str(out),
                        "--workdir", str(tmp_path / "work")])
    assert code == 1
    report = json.loads(out.read_text())
    assert [p["seed"] for p in report["workloads"]["tail_verify"]["pairs"]] == [5, 6]
    assert report["check_outputs"] == {"error": "FileExistsError: outputs/tail_verify"}
