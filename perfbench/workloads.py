"""The benchmark's workloads: the `sgdavg` commands each one runs, its
set-up commands, its generated inputs and the checks on its outputs.

Every command is one fresh `python -m sgdavg.cli` process. A workload's
set-up commands are its commands shrunk to one trial and the smallest
horizon the command accepts, so their wall time is the time before the
first SGD step: import, ingestion, scaling, problem build and table
allocation.

numpy is imported only where it is used: a child's peak RSS includes the
benchmark process's own peak at the time it was spawned, so that process
stays small until the measured commands have run.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

SCHEMES = ("final", "uniform", "suffix", "nonuniform")
TAIL_DELTAS = (0.1, 0.05, 0.02, 0.01)
TAIL_RATIO_SPREAD_MAX = 4.0  # acceptance criterion 4's gate
LB_GAP_THRESHOLD = 0.03  # the `lb` command's default gate


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "sgdavg.cli", *map(str, args)]


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def dkw_false_failure_rate(trials: int, gap: float) -> float:
    """Upper bound on P[Kolmogorov gap > gap] for a correct sampler
    (Dvoretzky-Kiefer-Wolfowitz with Massart's constant)."""
    return 2.0 * math.exp(-2.0 * trials * gap * gap)


class Workload:
    """One workload. Subclasses set the sizes and fill in the methods."""

    name = ""
    steps = 0  # SGD steps one run of `commands` completes, over all trials

    def prepare(self, tmp: Path, seed: int) -> dict:
        """Generate the inputs; returns facts recorded with the results."""
        return {}

    def commands(self, out: Path, seed: int, facts: dict) -> list[list[str]]:
        raise NotImplementedError

    def setup_commands(self, out: Path, seed: int, facts: dict) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, out: Path) -> list[Path]:
        """Files `commands` writes; their bytes must repeat for one seed."""
        return []

    def computed_bytes(self, facts: dict) -> dict[str, int]:
        """Sizes of the batched engine's tables for this workload, computed
        from the shapes the engine allocates (not measured)."""
        return {"predraw": 0, "dense_rows": 0}

    def check(self, checks, out: Path, procs, facts: dict) -> None:
        """Content checks on one run's outputs."""


class QuadTail(Workload):
    """The paper's headline tail study: 1-D quadratic, bounded noise, 1000
    trials at T = 1e4 with 100 checkpoints, CSV + SVG + tail table. The
    batched lockstep engine runs it; the data layer is idle."""

    name = "quad_tail"
    T = 10_000
    TRIALS = 1000
    EVAL_EVERY = 100
    X1 = 1.0
    steps = TRIALS * T

    def _args(self, seed, T, trials):
        return ["trials", "--problem", "quadratic", "--dim", 1, "--noise", "ball",
                "--set", "interval", "--T", T, "--x1", self.X1, "--trials", trials,
                "--eval-every", self.EVAL_EVERY, "--seed", seed]

    def commands(self, out, seed, facts):
        deltas = ",".join(str(d) for d in TAIL_DELTAS)
        return [cli(*self._args(seed, self.T, self.TRIALS), "--csv", out / "quad.csv",
                    "--svg", out / "quad.svg", "--deltas", deltas, "--reproducible")]

    def setup_commands(self, out, seed, facts):
        # --deltas is left out: no tail probability is resolvable with one trial
        return [cli(*self._args(seed, 1, 1), "--csv", out / "quad.csv",
                    "--svg", out / "quad.svg", "--reproducible")]

    def outputs(self, out):
        return [out / "quad.csv", out / "quad.svg"]

    def computed_bytes(self, facts):
        # one float64 noise draw per trial, step and coordinate
        return {"predraw": self.TRIALS * self.T * 1 * 8, "dense_rows": 0}

    def check(self, checks, out, procs, facts):
        import numpy as np
        from sgdavg.experiments import export_csv, import_csv

        csv = out / "quad.csv"
        matrix = functools.cache(lambda: import_csv(csv))

        def round_trip():
            comments = [ln[2:] for ln in csv.read_text(encoding="utf-8").splitlines()
                        if ln.startswith("# ") and not ln.startswith("# meta:")]
            again = out / "quad-reexport.csv"
            export_csv(matrix(), again, comments=comments)
            same = again.read_bytes() == csv.read_bytes()
            again.unlink()
            return same, "re-exported bytes differ" if not same else ""

        def gaps_finite_nonnegative():
            gaps = matrix().gaps
            defined = gaps[~np.isnan(gaps)]
            ok = bool(np.isfinite(defined).all() and (defined >= 0).all())
            return ok and defined.size > 0, f"{defined.size} defined gaps, min {defined.min():.3e}"

        def tail_spread():
            ratios = _tail_ratios(procs[0].stdout)
            if len(ratios) != len(TAIL_DELTAS):
                return False, f"expected {len(TAIL_DELTAS)} tail rows, got {len(ratios)}"
            spread = max(ratios) / min(ratios)
            return spread < TAIL_RATIO_SPREAD_MAX, f"ratio spread {spread:.3f}x"

        checks.expect("quad_tail: CSV re-imports to identical gaps", round_trip)
        checks.expect("quad_tail: defined gaps finite and >= 0", gaps_finite_nonnegative)
        checks.expect(f"quad_tail: tail-fit ratio spread < {TAIL_RATIO_SPREAD_MAX:g}x", tail_spread)


def _tail_ratios(stdout: str) -> list[float]:
    """Ratio column of the `trials --deltas` tail table."""
    rows = re.findall(r"^\s*([0-9.e-]+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$", stdout, re.M)
    return [float(r[3]) for r in rows]


class SvmSparse(Workload):
    """Sparse SVM: a generated sparse-format file, m = 1e4 rows, n = 5000
    columns, 50 nonzeros per row, two passes over 4 trials. The only
    workload that uses the data layer; each step costs O(n) where the
    useful work is O(nnz), and the batched engine densifies the rows."""

    name = "svm_sparse"
    M = 10_000
    N = 5_000
    NNZ_PER_ROW = 50
    T = 20_000
    TRIALS = 4
    steps = TRIALS * T

    def prepare(self, tmp, seed):
        path = tmp / "data" / "svm.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_sparse_dataset(path, seed, self.M, self.N, self.NNZ_PER_ROW)
        return {"dataset": str(path), "m": self.M, "n": self.N,
                "nnz": self.M * self.NNZ_PER_ROW, "bytes": path.stat().st_size}

    def _args(self, seed, facts, T, trials):
        return ["trials", "--problem", "svm", "--dataset", facts["dataset"],
                "--scaling", "sparse01", "--T", T, "--trials", trials, "--seed", seed]

    def commands(self, out, seed, facts):
        return [cli(*self._args(seed, facts, self.T, self.TRIALS),
                    "--csv", out / "svm.csv", "--reproducible")]

    def setup_commands(self, out, seed, facts):
        return [cli(*self._args(seed, facts, 1, 1), "--csv", out / "svm.csv", "--reproducible")]

    def outputs(self, out):
        return [out / "svm.csv"]

    def computed_bytes(self, facts):
        # int64 row indices per trial and step; the float64 dense row matrix
        return {"predraw": self.TRIALS * self.T * 8, "dense_rows": facts["m"] * facts["n"] * 8}

    def check(self, checks, out, procs, facts):
        import numpy as np
        from sgdavg.data import load_libsvm
        from sgdavg.experiments import import_csv

        matrix = functools.cache(lambda: import_csv(out / "svm.csv"))

        def parsed_shape():
            ds = load_libsvm(facts["dataset"])
            nnz = sum(x.nnz for x, _ in ds.points)
            got = (ds.m, ds.n, nnz)
            want = (facts["m"], facts["n"], facts["nnz"])
            name_ok = matrix().meta.get("problem") == f"svm-m{ds.m}-n{ds.n}"
            return got == want and name_ok, f"parsed m, n, nnz = {got}, generated {want}"

        def final_finite():
            final = matrix().gaps[:, -1, :]
            return bool(np.isfinite(final).all()), f"final objectives {final.mean(axis=0)}"

        def ordering():
            mean = {s: float(matrix().final_gaps(s).mean()) for s in SCHEMES}
            ok = mean["suffix"] <= mean["uniform"] and mean["nonuniform"] <= mean["uniform"]
            return ok, ", ".join(f"{s} {v:.6g}" for s, v in mean.items())

        checks.expect("svm_sparse: parsed m, n, nnz match the generator", parsed_shape)
        checks.expect("svm_sparse: every final objective finite", final_finite)
        checks.expect("svm_sparse: mean(suffix), mean(nonuniform) <= mean(uniform)", ordering)


def write_sparse_dataset(path: Path, seed: int, m: int, n: int, nnz: int) -> None:
    """Two-class rows in the `<label> <idx>:<val>` format, labelled by a
    hidden hyperplane; each row has `nnz` distinct, sorted, 1-based indices.
    Row 0 holds column n so the parser infers the full dimension."""
    import numpy as np

    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    lines = []
    for i in range(m):
        if i == 0:
            cols = np.append(np.sort(rng.choice(n - 1, size=nnz - 1, replace=False)), n - 1)
        else:
            cols = np.sort(rng.choice(n, size=nnz, replace=False))
        vals = np.round(0.05 + 0.95 * rng.random(nnz), 6)
        label = "+1" if float(vals @ w[cols]) >= 0.0 else "-1"
        feats = " ".join(f"{c + 1}:{v:.6f}" for c, v in zip(cols.tolist(), vals.tolist()))
        lines.append(f"{label} {feats}")
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


class VerifyLb(Workload):
    """The verifier fleet (20 recorded trajectories at T = 2000, the product
    sweep, the 1e6-sample MGF check), then the lower-bound law at T = 32
    against 4000 simulated runs. Sequential and recording: per-step Python
    cost and verifier arithmetic dominate."""

    name = "verify_lb"
    RUNS = 20
    T_VERIFY = 2000
    T_LB = 32
    LB_TRIALS = 4000
    LB_DELTA = 0.1
    steps = RUNS * T_VERIFY + LB_TRIALS * T_LB
    VERIFY_LINES = 6  # diameter, recursive, chicken-and-egg, product identity, two MGF checks

    def commands(self, out, seed, facts):
        return [cli("verify", "--seed", seed),
                cli("lb", "--T", self.T_LB, "--trials", self.LB_TRIALS, "--exact",
                    "--delta", self.LB_DELTA, "--seed", seed)]

    def setup_commands(self, out, seed, facts):
        # One 5-step trajectory (the shortest the verifiers accept) with the
        # diameter check only: the MGF check at its minimum sample count
        # would fail on a share of seeds.
        return [cli("verify", "--seed", seed, "--runs", 1, "--T", 5, "--only", "diameter"),
                cli("lb", "--T", 4, "--trials", 1, "--exact", "--delta", self.LB_DELTA,
                    "--seed", seed)]

    def check(self, checks, out, procs, facts):
        check_verify_output(checks, procs[0].stdout, self.VERIFY_LINES)
        lb = procs[1].stdout

        def pmf_sums_to_one():
            probs = _pmf_probabilities(lb)
            total = sum(probs, Fraction(0))
            return bool(probs) and total == 1, f"{len(probs)} support points, total {total}"

        def gap_within_gate():
            found = re.search(r"kolmogorov gap ([0-9.eE+-]+)", lb)
            if not found:
                return False, "no kolmogorov gap line"
            gap = float(found.group(1))
            rate = dkw_false_failure_rate(self.LB_TRIALS, LB_GAP_THRESHOLD)
            return gap <= LB_GAP_THRESHOLD, (
                f"gap {gap:.6f}; a correct program exceeds {LB_GAP_THRESHOLD} with "
                f"probability <= {rate:.2%} (DKW bound at {self.LB_TRIALS} trials)")

        checks.expect("verify_lb: exact pmf sums to 1", pmf_sums_to_one)
        checks.expect(f"verify_lb: lb kolmogorov gap <= {LB_GAP_THRESHOLD}", gap_within_gate)


def check_verify_output(checks, stdout: str, expected_lines: int) -> None:
    """One check per `verify` verdict line, plus one on the line count."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS ", "FAIL "))]
    checks.expect("verify_lb: verify printed every verdict line",
                  lambda: (len(lines) == expected_lines, f"{len(lines)} verdict lines"))
    for ln in lines:
        checks.expect(f"verify_lb: verifier {ln[5:].split(':')[0]}",
                      lambda ln=ln: (ln.startswith("PASS "), ln))


def _pmf_probabilities(stdout: str) -> list[Fraction]:
    """Probability column of the `lb --exact` table."""
    probs = []
    in_table = False
    for ln in stdout.splitlines():
        if ln.strip().startswith("value"):
            in_table = True
            continue
        if in_table:
            parts = ln.split()
            if len(parts) != 2:
                break
            probs.append(Fraction(parts[1]))
    return probs


class TailVerify(Workload):
    """QuadTail's commands, then VerifyLb's, as one workload: the paper's
    tail study on the batched engine, then the sequential recorded runs.
    The data layer is idle. They run as one workload so that a run holds
    more commands in longer runs: on a shared 2-core virtual machine one
    command's wall time varied by up to 30% between identical runs, and
    over ten seeds the quartile spread of wall_s of the verify_lb part, run
    as a workload of its own, reached 0.16 of its median."""

    name = "tail_verify"
    parts = (QuadTail(), VerifyLb())
    steps = sum(part.steps for part in parts)

    def commands(self, out, seed, facts):
        return [argv for part in self.parts for argv in part.commands(out, seed, facts)]

    def setup_commands(self, out, seed, facts):
        return [argv for part in self.parts for argv in part.setup_commands(out, seed, facts)]

    def outputs(self, out):
        return [path for part in self.parts for path in part.outputs(out)]

    def computed_bytes(self, facts):
        tables = [part.computed_bytes(facts) for part in self.parts]
        return {key: sum(t[key] for t in tables) for key in tables[0]}

    def check(self, checks, out, procs, facts):
        start = 0
        for part in self.parts:
            n = len(part.commands(out, 0, facts))
            part.check(checks, out, procs[start:start + n], facts)
            start += n


WORKLOADS = {w.name: w for w in (SvmSparse(), TailVerify())}
