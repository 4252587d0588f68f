#!/usr/bin/env python3
"""Record a BENCH file: the benchmark's end-to-end metrics on a parent
commit and on a change, in alternating pairs of runs.

Run from the repository root, for example:

    python3 bench/record.py --parent 1ac2c17 --runs svm_sparse:6101:10 \\
        --runs tail_verify:6201:5 --out BENCH_6.json

Each side is exported into its own directory: the parent with `git archive`,
the change from the working tree (tracked and untracked files that git does
not ignore). Every run is one fresh

    python3 perfbench/run.py --workload W --seed S --seconds 60 --trace 0

inside a side's directory. `--runs W:SEED:PAIRS` runs PAIRS pairs on
workload W with seeds SEED, SEED + 1, ...; both sides of a pair use the
same seed, and which side runs first alternates from pair to pair.

The output holds, per workload and metric, each side's median, quartiles
and values, and the pairs in which the change is better (ties count for
neither side); the direction and the regression bound come from
BENCHMARK.json. It also records the provenance each run prints (cores,
Python, numpy and scipy versions, the digest of `src`) and the commit of
each side.

A run that times out or prints no result line stops the recording: the
pairs finished so far are still written to --out, with "incomplete" naming
the workload, seed and side that failed, and the script exits 1.

When every pair is finished and written, the outputs are checked: each
workload's commands (as `perfbench/workloads.py` defines them, read and not
changed) run once more on each side, with the first seed of that workload's
--runs, on the same generated inputs and into the same output path. Their
exit codes, their standard output and every output file are compared,
leaving out a file's `# config:` line. A file's `# meta:` line is compared
field by field, and every differing field is reported with both values; for
each differing file or standard output, the first differing line is
reported with its number (counted without the `# config:` and `# meta:`
lines) and its text on both sides. The verdict, or the error that stopped the check, is
added to --out under "check_outputs". The script exits 1 when the check
fails or anything differs other than the `# meta:` fields in
ALLOWED_META_FIELDS: the bytes of the engine's tables, which a change may
resize without changing any result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 60
RUN_TIMEOUT_S = 900
ALLOWED_META_FIELDS = {"predraw_bytes"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def export_revision(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def export_working_tree(dest: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


class NoResult(RuntimeError):
    """A benchmark run ended without its result line."""


def run_once(side: Path, workload: str, seed: int) -> dict:
    """One benchmark run; its metric values and provenance."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(RUN_SECONDS), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=side, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    provenance = next((json.loads(ln.split(":", 1)[1]) for ln in lines
                       if ln.startswith("# provenance:")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise NoResult(f"{workload} seed {seed} in {side}: no result line "
                       f"(exit {proc.returncode})\n{proc.stderr[-2000:]}") from None
    return {
        "seed": seed,
        "seconds": round(time.monotonic() - started, 1),
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "provenance": {k: provenance.get(k) for k in
                       ("cores", "cores_usable", "python", "numpy", "scipy", "src_sha256")},
    }


def load_workloads() -> dict:
    """The benchmark's workloads, from `perfbench/workloads.py`."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def without_config(text: bytes) -> bytes:
    """A file's bytes without its `# config:` line, which names the paths."""
    return b"".join(ln for ln in text.splitlines(keepends=True)
                    if not ln.startswith(b"# config:"))


def split_meta(text: bytes) -> tuple[dict, list[bytes]]:
    """An output file's `# meta:` fields and its other lines."""
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith(b"# meta:"):
            meta = json.loads(line[len(b"# meta:"):])
        else:
            lines.append(line)
    return meta, lines


def first_difference(parent: list[bytes], change: list[bytes]) -> dict | None:
    """The first line at which two texts differ: its 1-based number and its
    text on each side (None past a side's end)."""
    for i in range(max(len(parent), len(change))):
        p = parent[i].decode(errors="replace") if i < len(parent) else None
        c = change[i].decode(errors="replace") if i < len(change) else None
        if p != c:
            return {"line": i + 1, "parent": p, "change": c}
    return None


def difference(parent, change) -> dict:
    """How one compared output differs between the sides: for two files
    (split by split_meta), each differing `# meta:` field with both values
    and the first differing line; for two standard outputs, the first
    differing line; else both values. ``allowed`` is whether only fields in
    ALLOWED_META_FIELDS differ."""
    if isinstance(parent, bytes) and isinstance(change, bytes):
        parent, change = ({}, parent.splitlines()), ({}, change.splitlines())
    elif not (isinstance(parent, tuple) and isinstance(change, tuple)):
        def shown(v):
            return "present" if isinstance(v, (bytes, tuple)) else v
        return {"parent": shown(parent), "change": shown(change), "allowed": False}
    (meta_p, lines_p), (meta_c, lines_c) = parent, change
    meta = {k: [meta_p.get(k), meta_c.get(k)] for k in sorted(meta_p.keys() | meta_c.keys())
            if meta_p.get(k) != meta_c.get(k)}
    line = first_difference(lines_p, lines_c)
    return {"meta": meta, "first_line": line,
            "allowed": line is None and meta.keys() <= ALLOWED_META_FIELDS}


def describe(name: str, diff: dict) -> str:
    if "meta" not in diff:
        return f"{name}: {diff['parent']!r} -> {diff['change']!r}"
    parts = [f"meta {k} {p!r} -> {c!r}" for k, (p, c) in diff["meta"].items()]
    if diff["first_line"] is not None:
        line = diff["first_line"]
        parts.append(f"line {line['line']} {line['parent']!r} -> {line['change']!r}")
    return f"{name}: " + "; ".join(parts) + (" (allowed)" if diff["allowed"] else "")


def side_outputs(side: Path, workload, seed: int, facts: dict, out: Path) -> dict:
    """Run a workload's commands once on one side, writing into ``out``:
    each command's exit code and standard output, and each output file
    without its `# config:` line, split by split_meta, by name."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SGDAVG_")}
    env["PYTHONPATH"] = str(side / "src")
    out.mkdir(parents=True)
    got = {}
    for i, argv in enumerate(workload.commands(out, seed, facts), start=1):
        try:
            proc = subprocess.run(argv, cwd=side, env=env, capture_output=True,
                                  timeout=RUN_TIMEOUT_S)
            got[f"command {i} exit"], got[f"command {i} stdout"] = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            got[f"command {i} exit"] = "timed out"
    for path in workload.outputs(out):
        got[path.name] = split_meta(without_config(path.read_bytes())) if path.exists() else None
    return got


def check_outputs(sides: dict, runs, workdir: Path) -> dict:
    """Per workload, whether both sides' outputs agree (see the module docstring)."""
    workloads = load_workloads()
    seeds = {}
    for workload, seed, _ in runs:
        seeds.setdefault(workload, seed)
    verdicts = {}
    for name, seed in seeds.items():
        inputs = workdir / "outputs" / name
        facts = workloads[name].prepare(inputs, seed)
        got = {}
        for side, tree in sides.items():
            # the same output path on both sides, which the commands print
            got[side] = side_outputs(tree, workloads[name], seed, facts, inputs / "out")
            (inputs / "out").rename(inputs / side)
        names = sorted(got["parent"].keys() | got["change"].keys())
        differ = [k for k in names if got["parent"].get(k) != got["change"].get(k)]
        details = {k: difference(got["parent"].get(k), got["change"].get(k)) for k in differ}
        verdicts[name] = {"seed": seed, "compared": names, "identical": not differ,
                          "differ": differ, "details": details,
                          "passed": all(d["allowed"] for d in details.values())}
        print(f"{name} seed {seed} outputs: " + ("identical" if not differ else "differ in "
              + ", ".join(describe(k, d) for k, d in details.items())), flush=True)
    return verdicts


def write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {s: [p[s]["metrics"][name] for p in pairs] for s in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        losses = sum((c > p) if lower else (c < p)
                     for p, c in zip(sides["parent"], sides["change"]))
        entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
        for s, values in sides.items():
            entry[s] = {"median": statistics.median(values), "quartiles": quartiles(values),
                        "values": values}
        entry["change_wins"] = wins
        entry["change_losses"] = losses
        entry["pairs"] = len(pairs)
        out[name] = entry
    return out


def parse_runs(text: str) -> tuple[str, int, int]:
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--runs", type=parse_runs, action="append", required=True,
                        metavar="W:SEED:PAIRS")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the two sides are exported (default: a new temporary "
                             "directory, removed afterwards)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-record-"))
    sides = {"parent": workdir / "parent", "change": workdir / "change"}
    try:
        export_revision(args.parent, sides["parent"])
        export_working_tree(sides["change"])
        commits = {"parent": git("rev-parse", args.parent).strip(),
                   "change": "working tree on " + git("rev-parse", "HEAD").strip()}
        report = {"command": f"python3 perfbench/run.py --workload W --seed S "
                             f"--seconds {RUN_SECONDS} --trace 0",
                  "commits": commits, "workloads": {}}
        for workload, first_seed, n_pairs in args.runs:
            pairs = []
            try:
                for k in range(n_pairs):
                    seed = first_seed + k
                    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    pair = {"seed": seed, "first": order[0]}
                    for side in order:
                        pair[side] = run_once(sides[side], workload, seed)
                        print(f"{workload} seed {seed} {side}: "
                              + ", ".join(f"{m} {v:.6g}"
                                          for m, v in pair[side]["metrics"].items()),
                              flush=True)
                    pairs.append(pair)
            except (subprocess.TimeoutExpired, NoResult) as exc:
                report["incomplete"] = {"workload": workload, "seed": seed, "side": side,
                                        "error": str(exc)}
                print(f"{workload} seed {seed} {side}: {exc}", file=sys.stderr)
            if pairs:
                report["workloads"][workload] = {
                    "metrics": summarize(pairs, spec),
                    "provenance": {s: pairs[0][s]["provenance"] for s in sides},
                    "pairs": pairs,
                }
            if "incomplete" in report:
                break
        write_report(args.out, report)
        if "incomplete" not in report:
            try:
                report["check_outputs"] = check_outputs(sides, args.runs, workdir)
            except Exception as exc:  # the timed pairs are written already
                report["check_outputs"] = {"error": f"{type(exc).__name__}: {exc}"}
                print(f"output check failed: {exc}", file=sys.stderr)
            write_report(args.out, report)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    checked = report.get("check_outputs", {})
    failed = "error" in checked or any(not v["passed"] for v in checked.values())
    return 1 if "incomplete" in report or failed else 0


if __name__ == "__main__":
    sys.exit(main())
