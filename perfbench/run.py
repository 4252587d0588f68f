#!/usr/bin/env python3
"""Benchmark of the `sgdavg` command line.

Run from the repository root:

    python3 perfbench/run.py --workload tail_verify --seed 1 --seconds 60 --trace 0

Workloads are defined in `workloads.py`; `--workload all` runs each in turn.
Each workload is a closed loop with one client: every command is a fresh
single-process `python -m sgdavg.cli` run with PYTHONPATH=src, started only
after the previous one ended.

--trace 0 measures the end-to-end metrics with tracing off. It runs the
reference task, then repeats rounds of (set-up commands in every other
round, workload commands, reference task) until --seconds after the run
started, or longer to reach MIN_ROUNDS rounds while that fits in MAX_OVERRUN
times --seconds. A round's timing is the sum of its commands' wall times,
scaled by REFERENCE_S over the reference task's median repetition time on
either side of the round, and a metric is the median over the rounds.
`reference.py` is a fixed task independent of sgdavg that times itself;
the scaled timings are seconds at a fixed reference speed, because the
speed of a shared machine drifts (by up to 26% within an hour on a 2-core
virtual machine) and the reference drifts with it.
  wall_s             wall time of the workload's commands
  setup_s            wall time of the same commands shrunk to one trial and
                     the smallest horizon: the time before the first SGD step
  peak_rss_mb        median peak resident memory of a workload command
  passed_frac        output checks passed / checks attempted
and prints, without reporting it in the result line,
  trial_steps_per_s  SGD steps of all trials / (wall_s - setup_s)

--trace 1 runs the workload's commands once for the output checks, then
`layers.py` in a fresh process for the rest of --seconds, which times the
calls into each module from outside the program and reports the per-layer
metrics.

Every command's exit status and the workload's outputs are checked; a
failed check, a nonzero exit or a timeout is counted, never fatal. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
MIN_ROUNDS = 3
MAX_OVERRUN = 1.5  # on a slow machine, fewer rounds rather than more than 1.5 x --seconds
BUDGET_S = 150.0  # a run must end within 180 s; leave room for the checks
REFERENCE = [sys.executable, str(Path(__file__).with_name("reference.py"))]
REFERENCE_S = 0.02  # nominal repetition time of the reference task, see reference.py


@dataclass
class Proc:
    argv: list
    exit_code: int
    timed_out: bool
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.timed_out

    def label(self) -> str:
        return command_label(self.argv)


def command_label(argv) -> str:
    """The first words of a command, without the interpreter."""
    words = [str(a) for a in argv[1:]]
    words = words[2:] if words[:2] == ["-m", "sgdavg.cli"] else [Path(words[0]).name, *words[1:]]
    return " ".join(words[:3])


def spawn(argv, env, logs: Path, timeout: float) -> Proc:
    """Run one child to completion; wall time, peak RSS and output.

    The child is killed when `timeout` runs out. It is always reaped before
    this returns.
    """
    out_path, err_path = logs.with_suffix(".out"), logs.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = not poller.poll(max(timeout, 0.0) * 1000.0)
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:  # interrupted while waiting: end the child first
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(argv, proc.returncode, timed_out, wall, usage.ru_maxrss / 1024.0,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


class Checks:
    """Output checks of one run: each is attempted once and passes or fails."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def expect(self, name: str, fn) -> None:
        """fn() returns (ok, detail); an exception counts as a failure."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a broken output must not abort the run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(name, ok, detail)

    def exited(self, proc: Proc) -> None:
        detail = "timed out" if proc.timed_out else f"exit {proc.exit_code}"
        if not proc.ok:
            detail += f"; stderr: {proc.stderr.strip()[-300:]}"
        self.record(f"exit 0: {proc.label()}", proc.ok, detail)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


class Runner:
    """Spawns children within one run's time budget and checks their exits."""

    def __init__(self, tmp: Path, checks: Checks, deadline: float):
        self.tmp = tmp
        self.checks = checks
        self.deadline = deadline
        self.count = 0
        self.env = child_env(tmp)

    def run(self, commands) -> list[Proc]:
        procs = []
        for argv in commands:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                self.checks.record(f"exit 0: {command_label(argv)}", False,
                                   "time budget exhausted before the command started")
                continue
            self.count += 1
            proc = spawn(argv, self.env, self.tmp / "logs" / f"{self.count}", remaining)
            self.checks.exited(proc)
            procs.append(proc)
        return procs


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SGDAVG_")}
    env.update(PYTHONPATH=str(SRC), SGDAVG_WORKERS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", TMPDIR=str(tmp))
    return env


def provenance(workload: str, seed: int, facts: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest(sorted(SRC.rglob("*.py"))),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "inputs": facts,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(wl, seed, started, seconds, tmp, runner, checks, facts, metric_units) -> dict:
    """The untraced loop; returns the end-to-end metrics.

    Rounds run until --seconds after `started`, the start of the run. The
    reference task runs before the first round and after every round; the
    set-up commands run in every other round, which leaves time for more
    rounds of the workload commands. A round's timing is the sum of its
    commands' wall times, scaled by REFERENCE_S over the mean of the
    reference task's median repetition times just before and just after
    the round: seconds at the reference speed. A metric is the median over
    the rounds.

    The reference is taken per round, not pooled over the run, because a
    shared machine switches between speeds that differ by about 25% for
    tens of seconds at a time, and the reference follows the switches. On
    a 2-core virtual machine, ten seeds of each workload gave quartile
    spreads of wall_s of 0.15 to 0.16 of the median unscaled, 0.08 to 0.11
    scaled by the reference pooled over the run and 0.08 to 0.09 scaled per
    round.
    """
    setup_dir, out = tmp / "setup", tmp / "out"
    setup_dir.mkdir()
    # Warm-up: byte-compile the sources once, so that no measured command
    # pays for writing the bytecode caches.
    runner.run([[sys.executable, "-m", "compileall", "-q", str(SRC)]])
    n_commands = len(wl.commands(out, seed, facts))
    references = [reference_median(runner, checks)]
    raw = {"wall_s": [], "setup_s": []}
    scaled = {"wall_s": [], "setup_s": []}
    rss, durations = [], []
    fingerprints = []
    first = None
    while True:
        round_start = time.monotonic()
        setup = runner.run(wl.setup_commands(setup_dir, seed, facts)) if len(rss) % 2 == 0 else []
        out.mkdir()
        procs = runner.run(wl.commands(out, seed, facts))
        references.append(reference_median(runner, checks))
        around = [r for r in references[-2:] if math.isfinite(r)]
        for name, group in (("wall_s", procs), ("setup_s", setup)):
            if group:
                raw[name].append(sum(p.wall_s for p in group))
                if around:
                    scaled[name].append(raw[name][-1] * REFERENCE_S / statistics.mean(around))
        rss.append(max((p.peak_rss_mb for p in procs), default=0.0))
        print(f"# round {len(rss)}: wall_s {sum(p.wall_s for p in procs):.4f}"
              + (f", setup_s {sum(p.wall_s for p in setup):.4f}" if setup else "")
              + f" measured; reference {references[-1] * 1e3:.4f} ms after it; "
              f"peak_rss_mb {rss[-1]:.2f}", flush=True)
        if all(p.ok for p in procs):
            fingerprints.append(digest(wl.outputs(out)) + "".join(p.stdout for p in procs))
        if first is None:
            first = (out.rename(tmp / "first"), procs)
        else:
            shutil.rmtree(out)
        now = time.monotonic()
        durations.append(now - round_start)
        took = durations[-2 if len(durations) > 1 else -1]  # as the last round of its kind
        if len(rss) >= MIN_ROUNDS and now + took - started > seconds:
            break
        if now + took - started > MAX_OVERRUN * seconds or now + took > runner.deadline:
            break
    if len(fingerprints) > 1:
        checks.record(f"{wl.name}: outputs identical across {len(fingerprints)} runs",
                      len(set(fingerprints)) == 1)
    if all(p.ok for p in first[1]):
        wl.check(checks, first[0], first[1], facts)

    values = {name: statistics.median(v) for name, v in scaled.items() if v}
    values["peak_rss_mb"] = statistics.median(rss)
    values["passed_frac"] = (checks.attempted - checks.failed) / max(checks.attempted, 1)
    trial_steps_per_s = wl.steps / max(values.get("wall_s", 0.0) - values.get("setup_s", 0.0),
                                       1e-9)
    tables = wl.computed_bytes(facts)
    print(f"# {wl.name}: {len(rss)} rounds of {n_commands} command(s), "
          f"{wl.steps} SGD steps each")
    print(f"#   reference task: median {statistics.median(references) * 1e3:.6g} ms over "
          f"{len(references)} runs; timings below are scaled per round to {REFERENCE_S * 1e3:g} ms")
    for name, samples in (*scaled.items(), ("peak_rss_mb", rss)):
        if not samples:
            continue
        lo, hi = quartiles(samples)
        print(f"#   {name} = {values[name]:.6g} {metric_units[name]}: median of {len(samples)}, "
              f"quartiles {lo:.6g} .. {hi:.6g}, min {min(samples):.6g}, max {max(samples):.6g}"
              + (f"; measured median {statistics.median(raw[name]):.6g}" if name in raw else ""))
    print(f"#     computed batched tables beside peak_rss_mb: predraw "
          f"{tables['predraw'] / 1e6:.3f} MB, dense rows {tables['dense_rows'] / 1e6:.3f} MB")
    print(f"#   trial_steps_per_s = {trial_steps_per_s:.6g} 1/s")
    print(f"#   failed_frac = {checks.failed / max(checks.attempted, 1):.6g} "
          f"({checks.failed} of {checks.attempted} checks failed)")
    return values


def reference_median(runner, checks) -> float:
    """Median repetition time of one run of the reference task; NaN, and a
    failed check, if it printed none."""
    (proc,) = runner.run([REFERENCE]) or [None]
    try:
        return statistics.median(float(t) for t in json.loads(proc.stdout))
    except (AttributeError, TypeError, ValueError, statistics.StatisticsError) as exc:
        checks.record("reference task: timings", False, f"{type(exc).__name__}: {exc}")
        return math.nan


def trace(wl, seed, started, seconds, tmp, runner, checks, facts) -> dict:
    """One checked run of the commands, then the outside-in traced run in
    what is left of --seconds after `started`, the start of the run."""
    out = tmp / "out"
    out.mkdir()
    procs = runner.run(wl.commands(out, seed, facts))
    if all(p.ok for p in procs):
        wl.check(checks, out, procs, facts)
    argv = [sys.executable, str(Path(__file__).with_name("layers.py")), "--workload", wl.name,
            "--seed", str(seed), "--tmp", str(tmp / "trace"),
            "--seconds", str(max(seconds - (time.monotonic() - started), 0.0))]
    if "dataset" in facts:
        argv += ["--dataset", facts["dataset"]]
    (tmp / "trace").mkdir()
    procs = runner.run([argv])
    result = {}
    if procs and procs[0].ok:
        try:
            result = json.loads(procs[0].stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            checks.record("layers: result line", False, str(exc))
    if result:
        checks.record("layers: traced pipeline outputs", result["ok"], result["detail"])
        print(f"# {result['note']}")
        print(f"# {'span':<40} {'count':>9} {'total_s':>10} {'self_s':>10}")
        for name, (count, total, self_s) in sorted(result["spans"].items()):
            print(f"# {name:<40} {count:>9} {total:>10.4f} {self_s:>10.4f}")
        print("# per pass; walls of the traced passes "
              + ", ".join(f"{w:.4f}" for w in result["traced_wall_s"]) + " s, untraced "
              + ", ".join(f"{w:.4f}" for w in result["untraced_wall_s"]) + " s")
    values = dict(result.get("metrics", {}))
    tables = wl.computed_bytes(facts)
    values["experiments.batched.predraw_bytes"] = tables["predraw"]
    values["experiments.batched.dense_rows_bytes"] = tables["dense_rows"]
    return values


def run_workload(name, seed, seconds, traced, spec) -> None:
    wl = WORKLOADS[name]
    started = time.monotonic()
    tmp = TMP / f"{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "logs").mkdir(parents=True)
    checks = Checks()
    runner = Runner(tmp, checks, started + BUDGET_S)
    metrics = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    try:
        facts = wl.prepare(tmp, seed)
        print(f"# provenance: {json.dumps(provenance(name, seed, facts), sort_keys=True)}")
        if traced:
            values = trace(wl, seed, started, seconds, tmp, runner, checks, facts)
        else:
            values = measure(wl, seed, started, seconds, tmp, runner, checks, facts, units)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    exits = [ok for check_name, ok, _ in checks.results if check_name.startswith("exit 0:")]
    print(f"# {sum(exits)} of {len(exits)} commands exited 0")
    for check_name, ok, detail in checks.results:
        if not ok or not check_name.startswith("exit 0:"):
            print(f"# {'PASS' if ok else 'FAIL'} {check_name}: {detail}")
    missing = [m for m in units if m not in values]
    for m in missing:
        checks.record(f"metric reported: {m}", False)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": values.get(m, 0), "unit": u} for m, u in units.items()},
    }
    print(f"# {name} took {time.monotonic() - started:.1f} s")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sgdavg" / "cli.py").is_file():
        print(f"error: the sgdavg sources are missing under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":  # a fresh benchmark process per workload, see workloads.py
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))  # the output checks read results through sgdavg
    try:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
