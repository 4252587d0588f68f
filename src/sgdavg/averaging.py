"""Iterate-reporting schemes: final iterate, uniform mean, suffix mean, and
the online weight-proportional-to-t average.

Each averaged scheme reports sum_{i<=t} a_i x_i / total(t), given both as
its recurrence (``observe``, run by ``run_sgd``) and
as its weights a_t and their running total (``weights``, ``total``, read by
the SVM engine). The final iterate is no weighted sum (``weighted`` False).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .core import InputError, UsageError

__all__ = [
    "Averager",
    "FinalIterate",
    "UniformAverage",
    "SuffixAverage",
    "NonUniformAverage",
    "WindowNotStarted",
    "SCHEME_NAMES",
    "make_averager",
]

SCHEME_NAMES = ("final", "uniform", "suffix", "nonuniform")


class WindowNotStarted(UsageError):
    """Suffix report requested before its averaging window opened."""


class Averager(ABC):
    """Consumes iterates x_1, x_2, ... in order and maintains a running report."""

    name: str = "?"
    weighted = True

    def __init__(self):
        self._t = 0

    def observe(self, x: np.ndarray, t: int) -> None:
        if t != self._t + 1:
            raise UsageError(
                f"{self.name}: iterates must arrive in order; expected t={self._t + 1}, got t={t}"
            )
        self._t = t
        self._accept(x, t)

    @abstractmethod
    def _accept(self, x: np.ndarray, t: int) -> None: ...

    @abstractmethod
    def report(self) -> np.ndarray:
        """Current report; never mutates state."""

    def weights(self, ts: np.ndarray) -> np.ndarray:
        """a_t of the weighted sum behind the report, at the steps ``ts``."""
        raise UsageError(f"{self.name}: not a weighted sum")

    def total(self, t: int) -> float:
        """The sum of a_i over i <= t, which divides the sum into the report."""
        raise UsageError(f"{self.name}: not a weighted sum")


class FinalIterate(Averager):
    name = "final"
    weighted = False

    def __init__(self):
        super().__init__()
        self._x = None

    def _accept(self, x, t):
        self._x = x

    def report(self):
        if self._x is None:
            raise UsageError("final: no iterates observed yet")
        return np.array(self._x, dtype=np.float64)


class UniformAverage(Averager):
    """Running arithmetic mean, kept as the incremental recurrence
    z += (x - z)/t to avoid large-sum cancellation."""

    name = "uniform"

    def __init__(self):
        super().__init__()
        self._z = None

    def _accept(self, x, t):
        if t == 1:
            self._z = np.array(x, dtype=np.float64)
        else:
            self._z += (x - self._z) / t

    def report(self):
        if self._z is None:
            raise UsageError("uniform: no iterates observed yet")
        return self._z.copy()

    def weights(self, ts):
        return np.ones(ts.size)

    def total(self, t):
        return float(t)


class NonUniformAverage(Averager):
    """Weight-proportional-to-t average, computed online without knowing the
    horizon: z_1 = x_1 and z_t = rho_t x_t + (1 - rho_t) z_{t-1} with
    rho_t = 2/(t+1). After T steps this equals sum_t t*x_t / (T(T+1)/2)."""

    name = "nonuniform"

    def __init__(self):
        super().__init__()
        self._z = None

    def _accept(self, x, t):
        if t == 1:
            self._z = np.array(x, dtype=np.float64)
        else:
            rho = 2.0 / (t + 1.0)
            self._z = rho * x + (1.0 - rho) * self._z

    def report(self):
        if self._z is None:
            raise UsageError("nonuniform: no iterates observed yet")
        return self._z.copy()

    def weights(self, ts):
        return ts

    def total(self, t):
        return t * (t + 1) / 2.0


def suffix_window_start(T: int, alpha: float) -> int:
    """First iterate included in the suffix window: t > T - ceil(alpha*T).

    The tiny subtraction guards against float overshoot in alpha*T when the
    product is an exact integer.
    """
    if not 0 < alpha <= 1:
        raise InputError(f"suffix fraction must lie in (0, 1], got {alpha}")
    window = math.ceil(alpha * T - 1e-9)
    return T - window + 1


class SuffixAverage(Averager):
    """Uniform mean over the last ceil(alpha*T) iterates; needs T up front."""

    name = "suffix"

    def __init__(self, T: int, alpha: float = 0.5):
        super().__init__()
        if T < 1:
            raise InputError(f"suffix horizon must be >= 1, got {T}")
        self._start = suffix_window_start(int(T), float(alpha))
        self.T = int(T)
        self.alpha = float(alpha)
        self._count = 0
        self._z = None

    def _accept(self, x, t):
        if t < self._start:
            return
        self._count += 1
        if self._count == 1:
            self._z = np.array(x, dtype=np.float64)
        else:
            self._z += (x - self._z) / self._count

    def report(self):
        if self._count == 0:
            raise WindowNotStarted(
                f"suffix: window not started (opens at t={self._start})"
            )
        return self._z.copy()

    def weights(self, ts):
        return np.where(ts < self._start, 0.0, 1.0)

    def total(self, t):
        return float(max(0, t - self._start + 1))


def make_averager(name: str, T: int | None = None, suffix_alpha: float = 0.5) -> Averager:
    if name == "suffix":
        if T is None:
            raise InputError("suffix averaging requires the horizon T at construction")
        return SuffixAverage(T, alpha=suffix_alpha)
    kinds = {"final": FinalIterate, "uniform": UniformAverage, "nonuniform": NonUniformAverage}
    if name not in kinds:
        raise InputError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}")
    return kinds[name]()
