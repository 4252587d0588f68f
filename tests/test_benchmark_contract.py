"""What the benchmark (``perfbench/``) takes from sgdavg, checked without
running it: every name it imports, ``Dataset.points`` rows that expose
``.nnz``, and the four hooks its tracer wraps, which ``run_sgd`` must call on
every step through the objects it is given."""

import ast
import dataclasses
from collections import Counter
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from sgdavg.averaging import SCHEME_NAMES, make_averager
from sgdavg.core import DEFAULT_SCHEDULE, FeasibleSet, Interval, Unconstrained
from sgdavg.data import load_libsvm, parse_libsvm, scale_features
from sgdavg.oracles import (BoundedUniformBall, QuadraticOracleFactory, RngStream,
                            SvmOracleFactory, quadratic_problem, svm_problem)
from sgdavg.sgd import RunConfig, run_sgd

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TEXT = """\
+1 1:0.5 3:1.2 7:-0.4
-1 2:0.9 4:0.3
+1
-1 1:-1.1 2:0.2 3:0.7 5:1.5 6:-0.3 8:0.8 9:0.1 10:-0.6 11:0.4
+1 6:2.0
-1 3:-0.5 9:1.1 12:0.6
"""


def perfbench_imports():
    """(file, module, name) for every name perfbench/*.py imports from
    sgdavg, at module level or inside a function; name is None for a plain
    ``import sgdavg...``."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "sgdavg":
                found.update((path.name, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                found.update((path.name, a.name, None) for a in node.names
                             if a.name.split(".")[0] == "sgdavg")
    return sorted(found, key=str)


def test_perfbench_imports_resolve():
    imports = perfbench_imports()
    assert {f for f, _, _ in imports} >= {"layers.py", "workloads.py"}
    missing = []
    for path, module, name in imports:
        try:
            mod = import_module(module)
            if name is not None and not hasattr(mod, name):
                import_module(f"{module}.{name}")  # a submodule
        except ImportError:
            missing.append(f"{path}: {module}.{name}")
    assert not missing, missing


@pytest.mark.parametrize("load", ["parse", "file", "scaled"])
def test_dataset_points_expose_nnz(tmp_path, load):
    if load == "file":
        path = tmp_path / "d.svm"
        path.write_text(TEXT, encoding="utf-8")
        ds = load_libsvm(path)
    else:
        ds = parse_libsvm(TEXT)
        if load == "scaled":
            ds, _ = scale_features(ds, "sparse01")
    rows = ds.points
    assert len(rows) == ds.m
    assert sum(x.nnz for x, _ in rows) == ds.indices.size


class _CountedSet(FeasibleSet):
    """A set that has only ``project``, as the tracer's is."""

    def __init__(self, project):
        self.project = project


@dataclasses.dataclass
class _CountedOracle:
    query: object


@dataclasses.dataclass
class _CountedAverager:
    name: str
    observe: object
    report: object


@pytest.mark.parametrize("kind", ["quadratic", "svm"])
def test_run_sgd_calls_the_traced_hooks_every_step(kind):
    T = 20
    if kind == "quadratic":
        problem = quadratic_problem(1, mu=1.0, feasible=Interval(-6.0, 6.0))
        factory = QuadraticOracleFactory(noise=BoundedUniformBall(1.0), mu=1.0)
        x1 = np.ones(1)
    else:
        ds = parse_libsvm(TEXT)
        problem = svm_problem(ds, 1.0 / ds.m, feasible=Unconstrained())
        factory = SvmOracleFactory(ds, 1.0 / ds.m)
        x1 = np.zeros(ds.n)
    calls = Counter()
    steps = {}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            if name in ("query", "observe"):
                steps.setdefault(name, []).append(args[1])
            return fn(*args)
        return call

    traced = dataclasses.replace(
        problem, objective=counted("objective", problem.objective),
        feasible=_CountedSet(counted("project", problem.feasible.project)))
    calls.clear()  # a Problem with a known optimum evaluates it when built
    oracle = _CountedOracle(counted("query", factory(RngStream(5, 0)).query))
    averagers = [make_averager(nm, T=T) for nm in SCHEME_NAMES]
    wrapped = [_CountedAverager(a.name, counted("observe", a.observe), a.report)
               for a in averagers]
    config = RunConfig(T=T, schedule=DEFAULT_SCHEDULE, x1=x1, eval_every=1)
    record = run_sgd(traced, oracle, config, wrapped)

    assert steps["query"] == list(range(1, T + 1))
    assert Counter(steps["observe"]) == {t: len(SCHEME_NAMES) for t in range(1, T + 1)}
    # one projection per step, after run_sgd's feasibility check of x1
    assert calls["project"] == T + 1
    # eval_every = 1: every step evaluates each scheme whose report is
    # defined, which is all of them but the suffix before its window opens
    suffix_window = T // 2
    assert calls["objective"] == T * (len(SCHEME_NAMES) - 1) + suffix_window
    assert len(record.checkpoints) == T
