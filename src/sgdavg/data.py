"""Ingestion and feature scaling for two-class datasets in the plain-text
``<label> <index>:<value> ...`` sparse format (1-based indices on disk).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, TextIO, Union

import numpy as np

from .core import InputError, SparseVec, Vector

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "ParseError",
    "Dataset",
    "parse_libsvm",
    "load_libsvm",
    "serialize_libsvm",
    "scale_features",
    "synthetic_separable_dataset",
]


class ParseError(InputError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class Dataset:
    """Labeled points (x_i, y_i) with y_i in {+1, -1} and a shared dimension n.

    Immutable after construction; share freely across threads.
    """

    def __init__(self, points: list[tuple[Vector, int]], n: int):
        if not points:
            raise InputError("dataset must contain at least one point")
        for x, y in points:
            if y not in (+1, -1):
                raise InputError(f"labels must be +1 or -1, got {y}")
            xdim = x.n if isinstance(x, SparseVec) else np.asarray(x).shape[0]
            if xdim != n:
                raise InputError(f"point dimension {xdim} != dataset dimension {n}")
        self.points = points
        self.n = int(n)
        self._labels: Optional[np.ndarray] = None
        self._matrix: Optional[sp.csr_matrix] = None

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def density(self) -> float:
        """Fraction of stored nonzero entries."""
        nnz = 0
        for x, _ in self.points:
            if isinstance(x, SparseVec):
                nnz += int(np.count_nonzero(x.values))
            else:
                nnz += int(np.count_nonzero(x))
        return nnz / (self.m * self.n)

    def labels(self) -> np.ndarray:
        if self._labels is None:
            self._labels = np.array([y for _, y in self.points], dtype=np.float64)
        return self._labels

    def matrix(self) -> sp.csr_matrix:
        """The m-by-n feature matrix in CSR form (cached). scipy is imported
        here, so runs that never build the matrix do not load it."""
        if self._matrix is None:
            import scipy.sparse as sp

            indptr = [0]
            indices: list[np.ndarray] = []
            data: list[np.ndarray] = []
            for x, _ in self.points:
                if isinstance(x, SparseVec):
                    indices.append(x.indices)
                    data.append(x.values)
                    indptr.append(indptr[-1] + x.indices.size)
                else:
                    nz = np.nonzero(x)[0]
                    indices.append(nz)
                    data.append(np.asarray(x)[nz])
                    indptr.append(indptr[-1] + nz.size)
            self._matrix = sp.csr_matrix(
                (
                    np.concatenate(data) if data else np.empty(0),
                    np.concatenate(indices) if indices else np.empty(0, dtype=np.int64),
                    np.asarray(indptr, dtype=np.int64),
                ),
                shape=(self.m, self.n),
            )
        return self._matrix

    def dot_all(self, w: np.ndarray) -> np.ndarray:
        """X @ w for every point at once."""
        return self.matrix().dot(w)


def _map_labels(tokens: dict[float, str]) -> dict[float, int]:
    """Map the observed label classes onto {+1, -1}.

    A class <= 0 maps to -1; with two positive classes the one whose token is
    lexicographically smaller maps to -1.
    """
    classes = sorted(tokens)
    if len(classes) == 1:
        c = classes[0]
        return {c: -1 if c <= 0 else +1}
    a, b = classes
    if set(classes) == {-1.0, 1.0}:
        return {-1.0: -1, 1.0: +1}
    nonpos = [c for c in classes if c <= 0]
    if len(nonpos) == 2:
        raise ParseError(
            f"cannot map two non-positive label classes {classes} onto {{+1, -1}}"
        )
    if len(nonpos) == 1:
        neg = nonpos[0]
    else:
        neg = a if tokens[a] < tokens[b] else b
    pos = b if neg == a else a
    return {neg: -1, pos: +1}


def parse_libsvm(
    source: Union[str, TextIO, Iterable[str]], n: Optional[int] = None
) -> Dataset:
    """Parse sparse ``<label> <idx>:<val> ...`` lines into a Dataset.

    ``#`` starts a comment, blank lines are skipped, on-disk indices are
    1-based and strictly increasing per line. ``n`` overrides the inferred
    dimension (max index + 1), e.g. to align train/test sets.
    """
    if isinstance(source, str):
        lines: Iterable[str] = io.StringIO(source)
    else:
        lines = source

    rows: list[tuple[float, np.ndarray, np.ndarray]] = []
    tokens: dict[float, str] = {}
    max_index = -1
    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        label_token = parts[0]
        try:
            label_value = float(label_token)
        except ValueError:
            raise ParseError(f"malformed label {label_token!r}", lineno) from None
        if label_value not in tokens:
            if len(tokens) == 2:
                raise ParseError(
                    f"more than two distinct labels (saw {label_token!r})", lineno
                )
            tokens[label_value] = label_token
        idxs: list[int] = []
        vals: list[float] = []
        prev = 0
        for tok in parts[1:]:
            try:
                stridx, strval = tok.split(":", 1)
                idx = int(stridx)
                val = float(strval)
            except ValueError:
                raise ParseError(f"malformed feature token {tok!r}", lineno) from None
            if idx <= prev:
                raise ParseError(
                    f"indices must be strictly increasing 1-based, got {idx} after {prev}",
                    lineno,
                )
            prev = idx
            idxs.append(idx - 1)
            vals.append(val)
        if idxs:
            max_index = max(max_index, idxs[-1])
        rows.append((label_value, np.asarray(idxs, dtype=np.int64), np.asarray(vals)))

    if not rows:
        raise ParseError("no data lines found")
    inferred = max_index + 1
    if n is None:
        n = inferred
    elif n < inferred:
        raise InputError(f"requested dimension {n} is below observed maximum {inferred}")
    mapping = _map_labels(tokens)
    points: list[tuple[Vector, int]] = [
        (SparseVec(idx, val, n), mapping[label]) for label, idx, val in rows
    ]
    return Dataset(points, n)


def load_libsvm(path: Union[str, Path], n: Optional[int] = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, n=n)


def serialize_libsvm(dataset: Dataset) -> str:
    """Render a dataset back to text; parse(serialize(d)) reproduces d."""
    out = []
    for x, y in dataset.points:
        if isinstance(x, SparseVec):
            pairs = zip(x.indices, x.values)
        else:
            nz = np.nonzero(x)[0]
            pairs = zip(nz, np.asarray(x)[nz])
        feats = " ".join(f"{int(i) + 1}:{v:.17g}" for i, v in pairs)
        out.append(f"{y:+d} {feats}".rstrip())
    return "\n".join(out) + "\n"


def synthetic_separable_dataset(
    m: int, n: int, seed: int, margin: float = 0.5
) -> Dataset:
    """Gaussian points labeled by a random unit normal, shifted so every
    point clears the separating hyperplane by at least ``margin``."""
    if m < 1 or n < 1:
        raise InputError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    w = rng.standard_normal(n)
    w /= np.linalg.norm(w)
    xs = rng.standard_normal((m, n))
    raw = xs @ w
    ys = np.where(raw >= 0.0, 1, -1)
    xs += (margin * ys)[:, None] * w[None, :]
    points: list[tuple[Vector, int]] = [
        (xs[i].copy(), int(ys[i])) for i in range(m)
    ]
    return Dataset(points, n)


def scale_features(
    dataset: Dataset, mode: str = "auto"
) -> tuple[Dataset, list[str]]:
    """Rescale feature columns; returns the new dataset plus warnings.

    ``sparse01`` affinely maps each column's stored nonzero values onto
    [0, 1] (a single distinct nonzero maps to 1), preserving sparsity.
    ``standardize`` shifts/scales every column to zero mean and unit
    variance, producing dense points; zero-variance columns are centered
    only and flagged. ``auto`` picks sparse01 when density < 0.5.
    """
    if mode not in ("auto", "sparse01", "standardize"):
        raise InputError(f"unknown scaling mode {mode!r}")
    if mode == "auto":
        mode = "sparse01" if dataset.density < 0.5 else "standardize"

    warnings: list[str] = []
    if mode == "sparse01":
        csr = dataset.matrix()
        cols, data = csr.indices, csr.data.copy()
        nz = data != 0.0  # explicit stored zeros stay 0 and set no range
        nz_cols, nz_vals = cols[nz], data[nz]
        lo = np.full(dataset.n, np.inf)
        hi = np.full(dataset.n, -np.inf)
        np.minimum.at(lo, nz_cols, nz_vals)
        np.maximum.at(hi, nz_cols, nz_vals)
        lo, hi = lo[nz_cols], hi[nz_cols]
        span = hi > lo
        scaled = np.ones_like(nz_vals)
        scaled[span] = (nz_vals[span] - lo[span]) / (hi[span] - lo[span])
        data[nz] = scaled
        ptr = csr.indptr
        points: list[tuple[Vector, int]] = [
            (SparseVec(cols[ptr[i]:ptr[i + 1]], data[ptr[i]:ptr[i + 1]], dataset.n), y)
            for i, (_, y) in enumerate(dataset.points)
        ]
        return Dataset(points, dataset.n), warnings

    dense = np.asarray(dataset.matrix().todense(), dtype=np.float64)
    mean = dense.mean(axis=0)
    var = dense.var(axis=0)
    std = np.sqrt(var)
    degenerate = std <= 1e-15 * np.maximum(1.0, np.abs(mean))
    for j in np.nonzero(degenerate)[0]:
        warnings.append(f"column {int(j)} has zero variance; centered only")
    safe_std = np.where(degenerate, 1.0, std)
    dense = (dense - mean) / safe_std
    points = [(dense[i].copy(), y) for i, (_, y) in enumerate(dataset.points)]
    return Dataset(points, dataset.n), warnings
