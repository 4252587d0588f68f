#!/usr/bin/env python3
"""Outside-in trace of one workload, per layer.

Runs the workload's pipeline in this process through sgdavg's public API,
in alternating untraced and traced passes for --seconds (at least one
pair), and prints one JSON line with the per-layer metrics of one traced
pass and the tracing overhead: the median traced minus the median untraced
pass wall time. Spans are recorded only around calls made from this file:

- the public calls of `data`, `oracles` (problem build), `experiments.harness`,
  `experiments.io`, `experiments.tails`, `experiments.verify` and
  `experiments.lowerbound`;
- inside the descent loop, timing wrappers handed to `run_sgd` through its
  public extension points: the oracle's `query`, `FeasibleSet.project` and
  `Problem.objective` (via `dataclasses.replace`) and `Averager.observe`.
  These run on a sequential subset of each workload's trials, because the
  batched engine's internals are private. `Problem.objective` is also
  wrapped in the problem handed to `run_trials`, so checkpoint evaluation is
  timed on the engine the workload really uses.

Spans are aggregated per name (count, total and self seconds), not stored.

Usage: PYTHONPATH=src python3 perfbench/layers.py --workload NAME --seed N --tmp DIR \
           [--dataset FILE] [--seconds S]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from sgdavg.averaging import NonUniformAverage, make_averager
from sgdavg.core import DEFAULT_SCHEDULE, FeasibleSet, Interval, Unconstrained
from sgdavg.data import load_libsvm, scale_features
from sgdavg.experiments import (
    export_csv,
    fleet_trajectories,
    kolmogorov_gap,
    lb_exact_distribution,
    lb_exact_distribution_rational,
    lb_exceedance_probability,
    lb_problem,
    lb_run_config,
    lb_simulate_and_match,
    render_svg,
    run_trials,
    run_verification_fleet,
    tail_fit,
    verify_chicken_and_egg,
    verify_diameter_bound,
    verify_recursive_bound,
)
from sgdavg.oracles import (
    BoundedUniformBall,
    LowerBoundOracle,
    QuadraticOracle,
    QuadraticOracleFactory,
    RngStream,
    SvmOracleFactory,
    quadratic_problem,
    svm_problem,
)
from sgdavg.sgd import RunConfig, run_sgd

from workloads import (
    LB_GAP_THRESHOLD,
    SCHEMES,
    TAIL_DELTAS,
    TAIL_RATIO_SPREAD_MAX,
    QuadTail,
    SvmSparse,
    VerifyLb,
)

# Sequential subsets that carry the in-loop wrappers.
QUAD_SUBSET_TRIALS = 5
SVM_SUBSET_TRIALS = 1
FLEET_SUBSET_RUNS = 5
LB_SUBSET_TRIALS = 400


class Tracer:
    """Per-name aggregate of timed calls: count, total and self seconds.

    A disabled tracer runs every call untimed, so one pipeline serves both
    the untraced and the traced pass.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: dict[str, list] = {}
        self._open: list[float] = []  # seconds spent in children of each open span

    def wrap(self, name, fn):
        if not self.enabled:
            return fn
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open

        def timed(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                children = open_spans.pop()
                stat[0] += 1
                stat[1] += took
                stat[2] += took - children
                if open_spans:
                    open_spans[-1] += took

        return timed

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    # ---- in-loop wrappers, passed to run_sgd through its public arguments

    def problem(self, problem, project=True):
        if not self.enabled:
            return problem
        changes = {"objective": self.wrap("core.objective", problem.objective)}
        if project:
            changes["feasible"] = _TracedSet(self.wrap("core.project", problem.feasible.project))
        return dataclasses.replace(problem, **changes)

    def oracle(self, oracle):
        return _TracedOracle(self.wrap("oracles.ghat", oracle.query)) if self.enabled else oracle

    def averagers(self, averagers):
        if not self.enabled:
            return averagers
        return [_TracedAverager(a.name, self.wrap("averaging.observe", a.observe), a.report)
                for a in averagers]

    def run_sgd(self, problem, oracle, config, averagers):
        """run_sgd with the oracle and averagers wrapped; `problem` comes
        from self.problem(), made once per pipeline."""
        return self.call("sgd.run_sgd", run_sgd, problem, self.oracle(oracle), config,
                         self.averagers(averagers))


class _TracedSet(FeasibleSet):
    def __init__(self, project):
        self.project = project


@dataclasses.dataclass
class _TracedOracle:
    query: object


@dataclasses.dataclass
class _TracedAverager:
    name: str
    observe: object
    report: object


def quad_tail(tr: Tracer, seed: int, tmp: Path, dataset) -> dict:
    wl = QuadTail()
    problem, factory = tr.call("oracles.problem_build", lambda: (
        quadratic_problem(1, mu=1.0, feasible=Interval(-6.0, 6.0)),
        QuadraticOracleFactory(noise=BoundedUniformBall(1.0), mu=1.0)))
    config = RunConfig(T=wl.T, schedule=DEFAULT_SCHEDULE, x1=np.full(1, wl.X1),
                       eval_every=wl.EVAL_EVERY)
    matrix = tr.call("experiments.harness.run_trials", run_trials,
                     tr.problem(problem, project=False), factory, config, SCHEMES,
                     wl.TRIALS, seed)
    csv, svg = tmp / "quad.csv", tmp / "quad.svg"
    tr.call("experiments.io.export_csv", export_csv, matrix, csv, comments=["config: layers"])
    tr.call("experiments.io.render_svg", render_svg, matrix, svg)
    report = tr.call("experiments.tails.tail_fit", tail_fit, matrix, "nonuniform", TAIL_DELTAS)
    traced = tr.problem(problem)
    for i in range(QUAD_SUBSET_TRIALS):
        averagers = [make_averager(nm, T=wl.T) for nm in SCHEMES]
        tr.run_sgd(traced, factory(RngStream(seed, i)), config, averagers)
    ratios = [row.ratio for row in report.rows]
    spread = max(ratios) / min(ratios)
    return {
        "ok": spread < TAIL_RATIO_SPREAD_MAX,
        "detail": f"tail ratio spread {spread:.3f}x",
        "trial_steps": wl.TRIALS * wl.T,
        "subset_steps": QUAD_SUBSET_TRIALS * wl.T,
        "csv_bytes": csv.stat().st_size,
        "svg_bytes": svg.stat().st_size,
    }


def svm_sparse(tr: Tracer, seed: int, tmp: Path, dataset) -> dict:
    wl = SvmSparse()
    raw = tr.call("data.parse", load_libsvm, dataset)
    ds, _ = tr.call("data.scale", scale_features, raw, "sparse01")
    lam = 1.0 / ds.m
    problem, factory = tr.call("oracles.problem_build", lambda: (
        svm_problem(ds, lam, feasible=Unconstrained()), SvmOracleFactory(ds, lam)))
    config = RunConfig(T=wl.T, schedule=DEFAULT_SCHEDULE, x1=np.zeros(ds.n), eval_every=ds.m)
    matrix = tr.call("experiments.harness.run_trials", run_trials,
                     tr.problem(problem, project=False), factory, config, SCHEMES,
                     wl.TRIALS, seed)
    csv = tmp / "svm.csv"
    tr.call("experiments.io.export_csv", export_csv, matrix, csv, comments=["config: layers"])
    traced = tr.problem(problem)
    for i in range(SVM_SUBSET_TRIALS):
        averagers = [make_averager(nm, T=wl.T) for nm in SCHEMES]
        tr.run_sgd(traced, factory(RngStream(seed, i)), config, averagers)
    final = matrix.gaps[:, -1, :]
    return {
        "ok": bool(np.isfinite(final).all()),
        "detail": f"final objectives finite: {bool(np.isfinite(final).all())}",
        "rows": raw.m,
        "nnz": sum(x.nnz for x, _ in raw.points),
        "file_bytes": Path(dataset).stat().st_size,
        "trial_steps": wl.TRIALS * wl.T,
        "subset_steps": SVM_SUBSET_TRIALS * wl.T,
        "csv_bytes": csv.stat().st_size,
    }


def _check_trajectory(problem, record):
    traj = record.trajectory
    L, mu, xstar = problem.lipschitz, problem.mu, problem.xstar
    return [verify_diameter_bound(traj, L, mu, xstar),
            verify_recursive_bound(traj, mu, xstar),
            verify_chicken_and_egg(traj, mu, L, xstar)]


def verify_lb(tr: Tracer, seed: int, tmp: Path, dataset) -> dict:
    wl = VerifyLb()
    results = []
    fleet = fleet_trajectories(wl.RUNS, wl.T_VERIFY, seed)
    while (item := tr.call("experiments.verify.trajectories", next, fleet, None)) is not None:
        results += tr.call("experiments.verify.checks", _check_trajectory, *item)
    results += tr.call("experiments.verify.product_identity", run_verification_fleet,
                       base_seed=seed, only=["product-identity"])
    results += tr.call("experiments.verify.mgf", run_verification_fleet,
                       base_seed=seed, only=["mgf"])

    tr.call("experiments.lowerbound.exact_pmf", lb_exact_distribution_rational, wl.T_LB)
    tr.call("experiments.lowerbound.exact_pmf", lb_exceedance_probability, wl.T_LB, wl.LB_DELTA)
    match = tr.call("experiments.lowerbound.simulate", lb_simulate_and_match,
                    wl.T_LB, wl.LB_TRIALS, seed)
    pmf = tr.call("experiments.lowerbound.exact_pmf", lb_exact_distribution, wl.T_LB)
    gap = tr.call("experiments.lowerbound.kolmogorov", kolmogorov_gap,
                  match.objective_values, pmf)

    fleet_problem = tr.problem(tr.call("oracles.problem_build", quadratic_problem, 1, mu=1.0,
                                       feasible=Interval(-6.0, 6.0)))
    fleet_config = RunConfig(T=wl.T_VERIFY, schedule=DEFAULT_SCHEDULE, x1=np.array([6.0]),
                             eval_every=wl.T_VERIFY, record_iterates=True)
    for i in range(FLEET_SUBSET_RUNS):
        oracle = QuadraticOracle(BoundedUniformBall(1.0), RngStream(seed, i))
        tr.run_sgd(fleet_problem, oracle, fleet_config, [make_averager("nonuniform")])
    problem = tr.problem(tr.call("oracles.problem_build", lb_problem))
    config = lb_run_config(wl.T_LB, record=True)
    for i in range(LB_SUBSET_TRIALS):
        oracle = LowerBoundOracle(wl.T_LB, RngStream(seed, i))
        tr.run_sgd(problem, oracle, config, [NonUniformAverage()])

    failed = [r.name for r in results if not r.passed]
    return {
        "ok": not failed and gap <= LB_GAP_THRESHOLD,
        "detail": f"failed verifiers {failed}, kolmogorov gap {gap:.6f}",
        "subset_steps": FLEET_SUBSET_RUNS * wl.T_VERIFY + LB_SUBSET_TRIALS * wl.T_LB,
    }


def tail_verify(tr: Tracer, seed: int, tmp: Path, dataset) -> dict:
    quad = quad_tail(tr, seed, tmp, dataset)
    lb = verify_lb(tr, seed, tmp, dataset)
    return {**quad, "ok": quad["ok"] and lb["ok"], "detail": f"{quad['detail']}; {lb['detail']}",
            "subset_steps": quad["subset_steps"] + lb["subset_steps"]}


PIPELINES = {"svm_sparse": svm_sparse, "tail_verify": tail_verify}


def layer_metrics(spans: dict, facts: dict) -> dict:
    def count(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def per_call_us(name):
        return total(name) / count(name) * 1e6 if count(name) else 0.0

    parse_s = total("data.parse")
    subset_steps = facts.get("subset_steps", 0)
    loop_self = spans.get("sgd.run_sgd", [0, 0.0, 0.0])[2]
    return {
        "data.parse_s": parse_s,
        "data.parse_mb_per_s": facts["file_bytes"] / 1e6 / parse_s if parse_s else 0.0,
        "data.scale_s": total("data.scale"),
        "data.rows": facts.get("rows", 0),
        "data.nnz": facts.get("nnz", 0),
        "oracles.problem_build_s": total("oracles.problem_build"),
        "oracles.ghat_us": per_call_us("oracles.ghat"),
        "oracles.ghat_calls": count("oracles.ghat"),
        "core.project_us": per_call_us("core.project"),
        "core.project_calls": count("core.project"),
        "core.objective_s": total("core.objective"),
        "core.objective_calls": count("core.objective"),
        "averaging.observe_us": per_call_us("averaging.observe"),
        "averaging.observe_calls": count("averaging.observe"),
        "sgd.loop_self_us_per_step": loop_self / subset_steps * 1e6 if subset_steps else 0.0,
        "experiments.harness.run_trials_s": total("experiments.harness.run_trials"),
        "experiments.harness.trial_steps": facts.get("trial_steps", 0),
        "experiments.io.export_csv_s": total("experiments.io.export_csv"),
        "experiments.io.csv_bytes": facts.get("csv_bytes", 0),
        "experiments.io.render_svg_s": total("experiments.io.render_svg"),
        "experiments.io.svg_bytes": facts.get("svg_bytes", 0),
        "experiments.tails.tail_fit_s": total("experiments.tails.tail_fit"),
        "experiments.verify.trajectories_s": total("experiments.verify.trajectories"),
        "experiments.verify.checks_s": total("experiments.verify.checks"),
        "experiments.verify.product_identity_s": total("experiments.verify.product_identity"),
        "experiments.verify.mgf_s": total("experiments.verify.mgf"),
        "experiments.lowerbound.exact_pmf_s": total("experiments.lowerbound.exact_pmf"),
        "experiments.lowerbound.simulate_s": total("experiments.lowerbound.simulate"),
        "experiments.lowerbound.kolmogorov_s": total("experiments.lowerbound.kolmogorov"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Outside-in per-layer trace of one workload.")
    parser.add_argument("--workload", required=True, choices=list(PIPELINES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--dataset", default=None)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat (untraced, traced) pairs of passes while they fit")
    args = parser.parse_args(argv)
    pipeline = PIPELINES[args.workload]

    # Alternating pairs of passes; the traced passes share one tracer, whose
    # counts and times are reported per pass.
    traced, walls, oks = Tracer(True), {False: [], True: []}, []
    start = time.perf_counter()
    while True:
        for tracer in (Tracer(False), traced):
            t0 = time.perf_counter()
            facts = pipeline(tracer, args.seed, args.tmp, args.dataset)
            walls[tracer.enabled].append(time.perf_counter() - t0)
            oks.append(facts["ok"])
        took = walls[False][-1] + walls[True][-1]
        if time.perf_counter() + took - start > args.seconds:
            break
    passes = len(walls[True])
    spans = {name: [count // passes, total / passes, self_s / passes]
             for name, (count, total, self_s) in traced.spans.items()}
    metrics = layer_metrics(spans, facts)
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    print(json.dumps({
        "ok": all(oks),
        "detail": facts["detail"],
        "metrics": metrics,
        "spans": spans,
        "traced_wall_s": walls[True],
        "untraced_wall_s": walls[False],
        "note": "oracles.ghat, core.project, averaging.observe and sgd.loop_self describe "
                "the sequential run_sgd path on a subset of the trials: the batched "
                "engine's internals are private until in-program tracing lands",
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
