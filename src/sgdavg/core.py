"""Vectors, feasible sets, problem definitions, and the shared scalar formulas.

Iterates are plain float64 numpy arrays (one gradient step densifies them
anyway). ``SparseVec`` is the row type of ``Dataset.points``, a per-row view
of a dataset's CSR arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "InputError",
    "UsageError",
    "ParseError",
    "BudgetExceeded",
    "SparseVec",
    "norm",
    "FeasibleSet",
    "Unconstrained",
    "Interval",
    "L2Ball",
    "project",
    "Problem",
    "StepSchedule",
    "DEFAULT_SCHEDULE",
    "LOWER_BOUND_SCHEDULE",
    "step_size",
]


class InputError(ValueError):
    """A caller-supplied value violates an operation's preconditions."""


class UsageError(RuntimeError):
    """An object's call protocol was violated (wrong order, missing state)."""


class ParseError(InputError):
    """A dataset's text is malformed; names the line when it is known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# The bytes that a command's large buffers may take together: the lockstep
# engine's draw tables and recordings, or a dataset's dense copy.
_BUDGET_BYTES = 1_600_000_000


class BudgetExceeded(InputError, MemoryError):
    """Buffers would exceed the byte budget; raised before allocating. An
    InputError, so the command line reports it as a usage error (exit 2)."""


def _reserve(nbytes: int, what: str) -> int:
    """Refuse, before allocating, buffers over the byte budget (read at call
    time); returns ``nbytes``."""
    if nbytes > _BUDGET_BYTES:
        raise BudgetExceeded(
            f"{what} need {nbytes} bytes, above the batched engine's budget of "
            f"{_BUDGET_BYTES} bytes"
        )
    return nbytes


def _block_steps(table_bytes: int, step_bytes: int, T: int, held_step_bytes: int = 0) -> int:
    """Steps per block of a table of ``step_bytes`` per step: as many as fit
    in ``table_bytes`` and, at ``held_step_bytes`` per step for all the
    tables held with it (by default just this one), in the budget; at least
    one and at most T."""
    return max(1, min(T, table_bytes // step_bytes,
                      _BUDGET_BYTES // (held_step_bytes or step_bytes)))


class SparseVec:
    """Sparse real vector: strictly increasing indices below a fixed dimension.

    Explicit zeros are permitted but never required.
    """

    __slots__ = ("indices", "values", "n")

    def __init__(self, indices, values, n: int):
        idx = np.asarray(indices, dtype=np.int64)
        val = np.asarray(values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise InputError("indices and values must be 1-D arrays of equal length")
        if idx.size:
            if np.any(np.diff(idx) <= 0):
                raise InputError("sparse indices must be strictly increasing")
            if idx[0] < 0 or idx[-1] >= n:
                raise InputError(f"sparse index out of range for dimension {n}")
        self.indices = idx
        self.values = val
        self.n = int(n)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.n)
        out[self.indices] = self.values
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{i}:{v:g}" for i, v in zip(self.indices, self.values))
        return f"SparseVec({{{pairs}}}, n={self.n})"


def norm(v: Union[np.ndarray, SparseVec]) -> float:
    if isinstance(v, SparseVec):
        return v.norm()
    return float(np.linalg.norm(v))


class FeasibleSet:
    """A closed convex set with an exact Euclidean projection."""

    def project(self, p: np.ndarray) -> np.ndarray:
        """The projection of each row of a (..., n) array, each row on its
        own; ``p`` itself when every row is feasible."""
        raise NotImplementedError

    def distance(self, p: np.ndarray) -> float:
        q = self.project(p)
        # a feasible p projects to itself, and then nothing is allocated
        return 0.0 if q is p else float(np.linalg.norm(p - q))

    def contains(self, p: np.ndarray, tol: float = 1e-12) -> bool:
        return self.distance(p) <= tol * max(1.0, float(np.linalg.norm(p)))


@dataclass(frozen=True)
class Unconstrained(FeasibleSet):
    def project(self, p: np.ndarray) -> np.ndarray:
        return p


@dataclass(frozen=True)
class Interval(FeasibleSet):
    """The box [lo, hi] applied to every coordinate."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InputError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    def project(self, p: np.ndarray) -> np.ndarray:
        """Each entry clipped to [lo, hi]."""
        if p.min() >= self.lo and p.max() <= self.hi:
            return p
        return np.minimum(np.maximum(p, self.lo), self.hi)


# Points within this relative slack of an L2 ball boundary count as inside;
# keeps the projection exactly idempotent despite rounding.
_BALL_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class L2Ball(FeasibleSet):
    radius: float
    center: np.ndarray

    def __post_init__(self):
        if not self.radius > 0:
            raise InputError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))

    def project(self, p: np.ndarray) -> np.ndarray:
        """Each row outside the ball moved radially onto its boundary. A row
        projects to the same bits alone or among others."""
        if p.shape[-1:] != self.center.shape:
            raise InputError(
                f"dimension mismatch: point has {p.shape[-1]}, ball has {self.center.shape[0]}"
            )
        D = p - self.center
        nrm = np.sqrt(_squared_norms(D.reshape(-1, D.shape[-1]))).reshape(p.shape[:-1])
        outside = nrm > self.radius * (1.0 + _BALL_SLACK)
        if not outside.any():
            return p
        out = p.copy()
        out[outside] = self.center + D[outside] * (self.radius / nrm[outside])[:, None]
        return out


def _squared_norms(W: np.ndarray) -> np.ndarray:
    """||w||^2 of each row of a (B, n) array, summed as einsum sums the rows
    of a many-row array. einsum takes a lone row of more than 8192 entries
    through its buffered loop, whose pieces round differently, so a lone row
    goes through as two broadcast copies: a row's value does not depend on
    how many rows come with it."""
    if W.shape[0] == 1:
        pair = np.broadcast_to(W, (2, W.shape[1]))
        return np.einsum("ij,ij->i", pair, pair)[:1]
    return np.einsum("ij,ij->i", W, W)


def project(s: FeasibleSet, p: np.ndarray) -> np.ndarray:
    """Euclidean projection of p onto s; returns p itself when feasible."""
    p = np.asarray(p, dtype=np.float64)
    return s.project(p)


@dataclass(frozen=True, eq=False)
class Problem:
    """An objective with the curvature/smoothness metadata the solver needs.

    ``objective`` evaluates f; ``subgradient`` returns one deterministic
    element of the subdifferential. ``mu`` is the strong-convexity modulus,
    ``lipschitz`` a bound on subgradient norms over the feasible set
    (math.inf when no finite bound is available). ``optimum`` is the known
    minimizer and its value, when available.
    """

    objective: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]
    feasible: FeasibleSet
    mu: float
    lipschitz: float
    optimum: Optional[tuple[np.ndarray, float]] = None
    name: str = "problem"

    def __post_init__(self):
        if not self.mu > 0:
            raise InputError(f"mu must be positive, got {self.mu}")
        if not self.lipschitz >= 0:
            raise InputError(f"lipschitz must be nonnegative, got {self.lipschitz}")
        if self.optimum is not None:
            xstar, fstar = self.optimum
            xstar = np.asarray(xstar, dtype=np.float64)
            object.__setattr__(self, "optimum", (xstar, float(fstar)))
            got = float(self.objective(xstar))
            if abs(got - fstar) > 1e-12 * max(1.0, abs(fstar)):
                raise InputError(
                    f"objective({xstar}) = {got} disagrees with fstar = {fstar}"
                )

    @property
    def xstar(self) -> Optional[np.ndarray]:
        return None if self.optimum is None else self.optimum[0]

    @property
    def fstar(self) -> Optional[float]:
        return None if self.optimum is None else self.optimum[1]

    def objective_rows(self, X: np.ndarray) -> np.ndarray:
        """The objective of each row of a (B, dim) array: one call of
        ``objective.rows`` when the objective has it, else one call of
        ``objective`` per row."""
        rows = getattr(self.objective, "rows", None)
        if rows is not None:
            return np.asarray(rows(X), dtype=np.float64)
        return np.array([float(self.objective(x)) for x in X], dtype=np.float64)

    def gap(self, x: np.ndarray) -> float:
        """f(x) - f(x*), or the raw objective when the optimum is unknown."""
        val = float(self.objective(x))
        return val if self.optimum is None else val - self.optimum[1]


@dataclass(frozen=True)
class StepSchedule:
    """Decaying step sizes c/(mu*(t+shift)) when mu_scaled, else c/(t+shift)."""

    c: float = 2.0
    shift: float = 1.0
    mu_scaled: bool = True

    def __post_init__(self):
        if not self.c > 0:
            raise InputError(f"step numerator must be positive, got {self.c}")
        if not self.shift >= 0:
            raise InputError(f"step shift must be nonnegative, got {self.shift}")


DEFAULT_SCHEDULE = StepSchedule(c=2.0, shift=1.0, mu_scaled=True)
LOWER_BOUND_SCHEDULE = StepSchedule(c=1.0, shift=1.0, mu_scaled=False)


def step_size(s: StepSchedule, mu: float, t):
    """eta_t at step t >= 1; given a nonempty integer array of steps, the
    array of their step sizes, each bitwise the scalar call's."""
    first = t if type(t) is int else np.min(t)
    if first < 1:
        raise InputError(f"step index must be >= 1, got {first}")
    if s.mu_scaled:
        if not mu > 0:
            raise InputError(f"mu-scaled schedule requires mu > 0, got {mu}")
        return s.c / (mu * (t + s.shift))
    return s.c / (t + s.shift)
