"""Empirical tail analysis of across-trial objective gaps: nearest-rank
quantiles and the least-squares fit of quantile against log(1/delta)/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import InputError
from .harness import TrialMatrix

__all__ = ["TailRow", "TailReport", "empirical_quantile", "tail_fit"]


def empirical_quantile(values, delta: float) -> float:
    """Nearest-rank upper quantile: element ceil((1-delta)*N) of the
    ascending sort (1-based, clamped to N)."""
    if not 0.0 < delta < 1.0:
        raise InputError(f"delta must lie in (0, 1), got {delta}")
    vals = np.sort(np.asarray(values, dtype=np.float64))
    if vals.size == 0:
        raise InputError("empty sample")
    # the tiny subtraction guards float overshoot when (1-delta)*N is integral
    rank = math.ceil((1.0 - delta) * vals.size - 1e-9)
    rank = min(max(rank, 1), vals.size)
    return float(vals[rank - 1])


@dataclass(frozen=True)
class TailRow:
    delta: float
    quantile: float
    bound_shape: float  # log(1/delta) / T
    ratio: float  # quantile / bound_shape


@dataclass(eq=False)
class TailReport:
    """Per-delta quantiles against the log(1/delta)/T shape, plus the
    least-squares constant C minimizing sum (quantile - C*shape)^2."""

    rows: list[TailRow]
    constant: float
    scheme: str
    T: int
    trials: int

    def format_table(self) -> str:
        lines = [f"{'delta':>8}  {'quantile':>14}  {'log(1/d)/T':>12}  {'ratio':>12}"]
        for r in self.rows:
            lines.append(
                f"{r.delta:>8g}  {r.quantile:>14.6e}  {r.bound_shape:>12.6e}  {r.ratio:>12.4f}"
            )
        lines.append(f"fitted constant C = {self.constant:.6e}")
        return "\n".join(lines)


def _check_tail_request(scheme: str, deltas, scheme_names, trials: int,
                        gaps: bool) -> list[float]:
    """``deltas`` as floats, or InputError unless a tail fit of ``scheme``
    at each of them can be made from ``trials`` trials of ``scheme_names``
    whose entries are gaps (``gaps``; raw objectives do not go to 0). The
    command line checks this before a run, ``tail_fit`` on its matrix."""
    if not gaps:
        raise InputError(
            "no tail fit without a known optimum: the entries are raw objective "
            "values, not gaps")
    if scheme not in scheme_names:
        raise InputError(f"unknown scheme {scheme!r}; have {list(scheme_names)}")
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise InputError("at least one delta is required")
    min_delta = 2.0 / trials
    for d in deltas:
        if not 0.0 < d < 1.0:
            raise InputError(f"delta must lie in (0, 1), got {d}")
        if d < min_delta:
            raise InputError(
                f"delta {d} is unresolvable with {trials} trials; minimum feasible delta is {min_delta}"
            )
    return deltas


def tail_fit(matrix: TrialMatrix, scheme: str, deltas) -> TailReport:
    """Quantiles of the final-checkpoint gaps at each delta, fitted through
    the origin against log(1/delta)/T. Refused for raw objectives (``fstar``
    recorded as None), which do not go to 0."""
    deltas = _check_tail_request(scheme, deltas, matrix.scheme_names, matrix.trials,
                                gaps=matrix.meta.get("fstar", 0.0) is not None)
    T = int(matrix.meta.get("T", matrix.checkpoints[-1]))
    if matrix.checkpoints[-1] != T:
        raise InputError(
            f"final checkpoint is at iteration {matrix.checkpoints[-1]}, expected T={T}"
        )
    gaps = matrix.final_gaps(scheme)
    rows = []
    for d in sorted(deltas):
        q = empirical_quantile(gaps, d)
        shape = math.log(1.0 / d) / T
        rows.append(TailRow(delta=d, quantile=q, bound_shape=shape, ratio=q / shape))
    shapes = np.array([r.bound_shape for r in rows])
    quants = np.array([r.quantile for r in rows])
    denom = float(shapes @ shapes)
    constant = float(shapes @ quants) / denom if denom > 0 else 0.0
    return TailReport(rows=rows, constant=constant, scheme=scheme, T=T, trials=matrix.trials)
