"""Command-line entry point.

Subcommands: ``run`` (single SGD run), ``trials`` (multi-trial batch with
CSV/SVG emission and a tail table), ``lb`` (exact lower-bound pmf and
simulation match), ``verify`` (the trajectory-inequality verifier fleet).

Exit codes: 0 success/PASS, 1 runtime or verification failure, 2 usage
error. All randomness flows from --seed (or SGDAVG_SEED); flags beat
environment variables beat built-in defaults.

Each handler imports the modules only its command runs: the data layer (and
with it scipy's compiled sparse kernels) for dataset problems, the harness,
CSV/SVG writers and tail fit for ``trials``, the lower-bound law for ``lb``,
the verifiers for ``verify``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .averaging import SCHEME_NAMES, make_averager
from .core import (
    DEFAULT_SCHEDULE,
    InputError,
    Interval,
    L2Ball,
    ParseError,
    StepSchedule,
    Unconstrained,
)
from .oracles import (
    BoundedUniformBall,
    GaussianNoise,
    NoNoise,
    QuadraticOracleFactory,
    RngStream,
    SvmOracleFactory,
    quadratic_problem,
    svm_problem,
)
from .sgd import RunAborted, RunConfig, TrialFailure, run_sgd

_ENV_PREFIX = "SGDAVG_"


def _env_int(name: str):
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"environment variable {_ENV_PREFIX + name} must be an integer, got {raw!r}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = _env_int("SEED")
    if env is not None:
        return env
    raise InputError("a seed is required: pass --seed or set SGDAVG_SEED")


def _divisible_by_4(text: str) -> int:
    value = int(text)
    if value % 4 != 0 or value < 4:
        raise argparse.ArgumentTypeError(f"horizon must be a positive multiple of 4, got {value}")
    return value


def _scheme_list(text: str) -> list[str]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    for nm in names:
        if nm not in SCHEME_NAMES:
            raise argparse.ArgumentTypeError(f"unknown scheme {nm!r}; expected from {SCHEME_NAMES}")
    if not names:
        raise argparse.ArgumentTypeError("at least one scheme is required")
    return names


def _delta_list(text: str) -> list[float]:
    try:
        vals = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed delta list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("at least one delta is required")
    return vals


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("problem")
    g.add_argument("--problem", choices=("quadratic", "svm"), default="quadratic")
    g.add_argument("--dim", type=int, default=1, help="dimension for the quadratic problem")
    g.add_argument("--mu", type=float, default=1.0, help="curvature of the quadratic problem")
    g.add_argument("--dataset", help="dataset path for --problem svm")
    g.add_argument("--dataset-dim", type=int, default=None,
                   help="override the inferred feature dimension (aligns train/test)")
    g.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="SVM regularization weight (default 1/m)")
    g.add_argument("--scaling", choices=("none", "auto", "sparse01", "standardize"),
                   default="none", help="feature scaling applied after loading")
    g.add_argument("--set", dest="feasible", choices=("unconstrained", "interval", "ball"),
                   default="unconstrained")
    g.add_argument("--lo", type=float, default=-6.0, help="interval lower bound")
    g.add_argument("--hi", type=float, default=6.0, help="interval upper bound")
    g.add_argument("--radius", type=float, default=1.0, help="L2 ball radius (centered at 0)")
    g = p.add_argument_group("noise (quadratic oracle)")
    g.add_argument("--noise", choices=("none", "ball", "gaussian"), default="none")
    g.add_argument("--noise-bound", type=float, default=1.0)
    g.add_argument("--noise-scale", type=float, default=1.0)
    g = p.add_argument_group("run")
    g.add_argument("--T", type=int, required=True, help="iteration horizon")
    g.add_argument("--x1", type=float, default=0.0,
                   help="start value, broadcast to every coordinate")
    g.add_argument("--schemes", type=_scheme_list, default=list(SCHEME_NAMES),
                   help="comma-separated subset of final,uniform,suffix,nonuniform")
    g.add_argument("--suffix-alpha", type=float, default=0.5)
    g.add_argument("--eval-every", type=int, default=None,
                   help="checkpoint period (default: one effective pass for svm, T for quadratic)")
    g.add_argument("--step-c", type=float, default=None, help="step numerator (default 2)")
    g.add_argument("--step-shift", type=float, default=None, help="step shift (default 1)")
    g.add_argument("--step-unscaled", action="store_true",
                   help="use c/(t+shift) instead of c/(mu*(t+shift))")
    g.add_argument("--seed", type=int, default=None, help="base seed (or SGDAVG_SEED)")


def _make_feasible(args, dim: int):
    if args.feasible == "unconstrained":
        return Unconstrained()
    if args.feasible == "interval":
        return Interval(args.lo, args.hi)
    return L2Ball(args.radius, np.zeros(dim))


def _build_setting(args):
    """Problem, oracle factory, and run config from parsed arguments."""
    if args.problem == "quadratic":
        feasible = _make_feasible(args, args.dim)
        problem = quadratic_problem(args.dim, mu=args.mu, feasible=feasible)
        if args.noise == "none":
            noise = NoNoise()
        elif args.noise == "ball":
            noise = BoundedUniformBall(args.noise_bound)
        else:
            noise = GaussianNoise(args.noise_scale)
        factory = QuadraticOracleFactory(noise=noise, mu=args.mu)
        dim = args.dim
        eval_every = args.eval_every if args.eval_every is not None else args.T
    else:
        from .data import load_libsvm, scale_features

        if not args.dataset:
            raise InputError("--problem svm requires --dataset")
        dataset = load_libsvm(args.dataset, n=args.dataset_dim)
        if args.scaling != "none":
            dataset, warnings = scale_features(dataset, args.scaling)
            for w in warnings:
                print(f"warning: {w}", file=sys.stderr)
        lam = args.lam if args.lam is not None else 1.0 / dataset.m
        problem = svm_problem(dataset, lam, feasible=_make_feasible(args, dataset.n))
        factory = SvmOracleFactory(dataset, lam)
        dim = dataset.n
        eval_every = args.eval_every if args.eval_every is not None else dataset.m

    c = args.step_c if args.step_c is not None else DEFAULT_SCHEDULE.c
    shift = args.step_shift if args.step_shift is not None else DEFAULT_SCHEDULE.shift
    schedule = StepSchedule(c=c, shift=shift, mu_scaled=not args.step_unscaled)
    x1 = np.full(dim, float(args.x1))
    config = RunConfig(T=args.T, schedule=schedule, x1=x1, eval_every=eval_every)
    return problem, factory, config


def _effective_config(args, seed: int) -> dict:
    skip = {"func", "seed"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    cfg["seed"] = seed
    return cfg


def cmd_run(args) -> int:
    seed = _resolve_seed(args)
    problem, factory, config = _build_setting(args)
    oracle = factory(RngStream(seed, 0))
    schemes = [make_averager(nm, T=config.T, suffix_alpha=args.suffix_alpha)
               for nm in args.schemes]
    if args.dump_trajectory:
        config = RunConfig(T=config.T, schedule=config.schedule, x1=config.x1,
                           eval_every=config.eval_every, record_iterates=True)
    record = run_sgd(problem, oracle, config, schemes)
    label = "gap" if problem.optimum is not None else "objective"
    for nm in args.schemes:
        print(f"{nm} {label} {problem.gap(record.reported[nm]):.17g}")
    if args.dump_trajectory:
        rows = []
        for t, (x, s) in enumerate(record.trajectory, start=1):
            row = {"t": t, "x": x.tolist(), "ghat": s.ghat.tolist()}
            if s.g is not None:
                row["g"] = s.g.tolist()
                row["zhat"] = s.zhat.tolist()
            rows.append(row)
        with open(args.dump_trajectory, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
        print(f"trajectory written to {args.dump_trajectory}")
    return 0


def cmd_trials(args) -> int:
    from .experiments.harness import run_trials
    from .experiments.io import export_csv, render_svg
    from .experiments.tails import tail_fit

    seed = _resolve_seed(args)
    problem, factory, config = _build_setting(args)
    matrix = run_trials(problem, factory, config, args.schemes, args.trials, seed,
                        suffix_alpha=args.suffix_alpha)
    if args.csv:
        comments = [f"config: {json.dumps(_effective_config(args, seed), sort_keys=True, default=str)}"]
        if not args.reproducible:
            comments.append(f"generated: {datetime.now(timezone.utc).isoformat()}")
        export_csv(matrix, args.csv, comments=comments)
        print(f"csv written to {args.csv}")
    if args.svg:
        render_svg(matrix, args.svg, schemes=args.svg_schemes or None)
        print(f"svg written to {args.svg}")
    if args.deltas:
        report = tail_fit(matrix, args.tail_scheme, args.deltas)
        print(f"tail fit for scheme {report.scheme!r} at T={report.T} over {report.trials} trials")
        print(report.format_table())
    return 0


def cmd_lb(args) -> int:
    from .experiments.lowerbound import (lb_exact_distribution_rational,
                                         lb_exceedance_probability, lb_simulate_and_match)

    seed = args.seed
    if args.exact or args.trials is None:
        print(f"exact pmf of the reported objective at T={args.T}:")
        print(f"{'value':>12}  {'probability':>12}")
        for v, p in lb_exact_distribution_rational(args.T):
            print(f"{str(v):>12}  {str(p):>12}")
    for d in args.delta or []:
        threshold, prob = lb_exceedance_probability(args.T, d)
        print(
            f"P[f(report) >= log(1/{d})/(9T) = {threshold:.6g}] = {float(prob):.6g} ({prob})"
        )
    if args.trials is not None:
        if seed is None:
            seed = _resolve_seed(args)
        result = lb_simulate_and_match(args.T, args.trials, seed)
        # the gap's sampling error: the DKW inequality (Massart's constant) puts
        # an empirical CDF of this many runs within the band with prob. >= 95%
        band = math.sqrt(math.log(2 / 0.05) / (2 * args.trials))
        print(
            f"simulated {args.trials} runs at T={args.T}: kolmogorov gap "
            f"{result.kolmogorov_gap:.6f}, 95% DKW band {band:.6f}, "
            f"max iterate-identity error {result.max_identity_error:.3e}"
        )
        if result.kolmogorov_gap > args.gap_threshold:
            print(f"FAIL gap exceeds {args.gap_threshold}", file=sys.stderr)
            return 1
    return 0


_FLEET_SEED = 20260810  # the standard verifier fleet is pinned, not entropic


def cmd_verify(args) -> int:
    from .experiments.verify import run_verification_fleet

    if args.seed is not None:
        seed = args.seed
    else:
        env = _env_int("SEED")
        seed = env if env is not None else _FLEET_SEED
    results = run_verification_fleet(
        runs=args.runs,
        T=args.T,
        base_seed=seed,
        noise_bound=args.noise_bound,
        only=args.only or None,
        beta_scale=0.0 if args.inject_beta_zero else 1.0,
        mgf_samples=args.mgf_samples,
        product_max_t=args.product_max_t,
    )
    for r in results:
        print(r.line())
    if args.report:
        payload = {
            "passed": all(r.passed for r in results),
            "checks": [
                {
                    "name": r.name,
                    "value": r.value,
                    "threshold": r.threshold,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
        print(f"report written to {args.report}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdavg",
        description="Projected SGD with iterate-averaging schemes, trial batches, and verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single SGD run; prints the final gap per scheme")
    _add_problem_args(p_run)
    p_run.add_argument("--dump-trajectory", help="write the trajectory as JSON to this path")
    p_run.set_defaults(func=cmd_run)

    p_trials = sub.add_parser("trials", help="multi-trial batch with CSV/SVG and a tail table")
    _add_problem_args(p_trials)
    p_trials.add_argument("--trials", type=int, required=True)
    p_trials.add_argument("--csv", help="output CSV path")
    p_trials.add_argument("--svg", help="output SVG path")
    p_trials.add_argument("--svg-schemes", type=_scheme_list, default=None)
    p_trials.add_argument("--deltas", type=_delta_list, default=None,
                          help="comma-separated tail probabilities for the tail table")
    p_trials.add_argument("--tail-scheme", choices=SCHEME_NAMES, default="nonuniform")
    p_trials.add_argument("--reproducible", action="store_true",
                          help="suppress the timestamp comment for byte-identical output")
    p_trials.set_defaults(func=cmd_trials)

    p_lb = sub.add_parser("lb", help="exact lower-bound distribution and simulation match")
    p_lb.add_argument("--T", type=_divisible_by_4, required=True)
    p_lb.add_argument("--exact", action="store_true", help="print the exact pmf")
    p_lb.add_argument("--trials", type=int, default=None, help="simulate and compare")
    p_lb.add_argument("--seed", type=int, default=None)
    p_lb.add_argument("--delta", type=float, action="append",
                      help="report P[f >= log(1/delta)/(9T)]; repeatable")
    p_lb.add_argument("--gap-threshold", type=float, default=0.03)
    p_lb.set_defaults(func=cmd_lb)

    p_verify = sub.add_parser("verify", help="run the trajectory-inequality verifier fleet")
    p_verify.add_argument("--runs", type=int, default=20)
    p_verify.add_argument("--T", type=int, default=2000)
    p_verify.add_argument("--seed", type=int, default=None,
                          help=f"fleet seed (default: the standard fleet, {_FLEET_SEED})")
    p_verify.add_argument("--noise-bound", type=float, default=1.0)
    p_verify.add_argument("--only", action="append",
                          choices=("diameter", "recursive", "chicken-and-egg",
                                   "product-identity", "mgf"))
    p_verify.add_argument("--mgf-samples", type=int, default=10**6)
    p_verify.add_argument("--product-max-t", type=int, default=200)
    p_verify.add_argument("--report", help="write a JSON verdict report to this path")
    p_verify.add_argument("--inject-beta-zero", action="store_true",
                          help="negative-control hook: zero out the constant term")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RunAborted, TrialFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
