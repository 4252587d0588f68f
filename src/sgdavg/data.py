"""Ingestion and feature scaling for two-class datasets in the plain-text
``<label> <index>:<value> ...`` sparse format (1-based indices on disk).

Memory: the data layer works through the stored entries in chunks of
``_CHUNK_TOKENS``, so besides the CSR arrays it holds one chunk's
temporaries. The parser converts each chunk's tokens, keeps the converted
indices (int32 when they fit, see ``Dataset``) and values (12 bytes per
entry) and joins them at the end, one array at a time, so it peaks at
about 1.5 times the CSR bytes, plus its per-row lists and one chunk.
``Dataset`` validates row-aligned chunks.
``scale_features`` in sparse01 mode copies the values and maps them in two
chunked passes, the column ranges and then the map in place, so it holds
the input, the scaled values and one chunk. ``standardize`` densifies the
m-by-n matrix and is refused with ``BudgetExceeded`` before allocating when
the dense matrix and its standardized copy exceed the byte budget.
"""

from __future__ import annotations

import importlib.util
import io
import os
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path
from typing import Iterable, Optional, TextIO, Union
from warnings import catch_warnings, simplefilter

import numpy as np

from .core import InputError, ParseError, SparseVec, _reserve

__all__ = [
    "ParseError",
    "Dataset",
    "parse_libsvm",
    "load_libsvm",
    "serialize_libsvm",
    "scale_features",
    "synthetic_separable_dataset",
]


class Dataset:
    """Labeled points (x_i, y_i) with y_i in {+1, -1} and a shared dimension n,
    stored once in CSR form: row i's column indices are
    ``indices[indptr[i]:indptr[i+1]]`` (strictly increasing, below n) and its
    values the same slice of ``data``; ``labels`` holds the y_i as floats.

    ``indptr`` and ``indices`` are int32 while m, n and the number of stored
    entries are all below 2**31, and int64 otherwise: the index dtype scipy
    picks. The products (``dot_all``, ``dot_rows``, ``dot_t``, ``toarray``)
    run scipy's compiled CSR kernels on these arrays as they are, which needs
    ``indptr`` and ``indices`` of one dtype; a stored entry takes 12 bytes
    (16 with int64 indices). Arrays that do not have that dtype are
    converted after validation, so no value can wrap.

    The arrays are validated once here and are read-only views afterwards;
    share freely across threads.
    """

    def __init__(self, indptr, indices, data, labels, n: int):
        indptr, indices = map(np.asarray, (indptr, indices))
        if any(a.size and not np.issubdtype(a.dtype, np.integer) for a in (indptr, indices)):
            raise InputError("indptr and indices must hold integers")
        # validated as given when int32 or int64, else as int64, and stored
        # in the index dtype once every value is known to fit it
        indptr, indices = (a if a.dtype in (np.int32, np.int64) else a.astype(np.int64)
                           for a in (indptr, indices))
        data, labels = _frozen(data, np.float64), _frozen(labels, np.float64)
        n = int(n)
        if labels.ndim != 1 or labels.size == 0:
            raise InputError("dataset must contain at least one point")
        bad = (labels != 1.0) & (labels != -1.0)
        if bad.any():
            raise InputError(f"labels must be +1 or -1, got {labels[bad][0]:g}")
        if indptr.shape != (labels.size + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise InputError(f"indptr must rise from 0 in {labels.size + 1} entries")
        if indices.ndim != 1 or indices.shape != data.shape or indices.size != indptr[-1]:
            raise InputError(f"indices and data must be 1-D with indptr[-1] = {indptr[-1]} entries")
        top = -1
        for r0, r1 in _row_chunks(indptr):
            a, b = indptr[r0], indptr[r1]
            chunk = indices[a:b]
            # -1 before each row's first entry also checks the lower bound
            if np.any(chunk <= _previous_in_row(chunk, indptr[r0:r1 + 1] - a, -1)):
                raise InputError(
                    "column indices must be nonnegative and strictly increasing per row")
            if chunk.size:
                top = max(top, int(chunk.max()))
        if top >= n:
            raise InputError(f"column index {top} out of range for dimension {n}")
        dtype = _index_dtype(labels.size, n, int(indptr[-1]))
        self.indptr, self.indices = _frozen(indptr, dtype), _frozen(indices, dtype)
        self.data, self.labels = data, labels
        self.n = n

    @classmethod
    def from_dense(cls, X, labels) -> "Dataset":
        """The dataset of the rows of a dense (m, n) array; zeros are not stored."""
        X = np.asarray(X, dtype=np.float64)
        stored = X != 0.0
        return cls(np.cumsum([0, *stored.sum(axis=1)]), np.nonzero(stored)[1], X[stored],
                   labels, X.shape[1])

    @property
    def m(self) -> int:
        return int(self.labels.size)

    @property
    def density(self) -> float:
        """Fraction of stored nonzero entries."""
        return int(np.count_nonzero(self.data)) / (self.m * self.n)

    @property
    def points(self) -> tuple[tuple[SparseVec, int], ...]:
        """A read-only per-row view, (x_i, y_i) pairs built from the CSR
        arrays on each read: O(m) Python objects, for inspection only."""
        ptr = self.indptr.tolist()
        return tuple(
            (SparseVec(self.indices[a:b], self.data[a:b], self.n), int(y))
            for a, b, y in zip(ptr, ptr[1:], self.labels.tolist())
        )

    def row_entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The CSR positions of the entries of the points ``rows`` (an int
        array), point after point, and each point's entry count."""
        lo = self.indptr[rows]
        lens = self.indptr[rows + 1] - lo
        return np.arange(int(lens.sum())) + (lo - lens.cumsum() + lens).repeat(lens), lens

    # The products below call the kernels as scipy's csr_matrix does: on a
    # zeroed output, csr_matvec for one vector and csr_matvecs for more, so
    # every value has the bits of the scipy product.

    def dot_all(self, w: np.ndarray) -> np.ndarray:
        """X @ w for every point at once: (m,) for a vector w of length n."""
        out = np.zeros(self.m)
        _sparsetools().csr_matvec(self.m, self.n, self.indptr, self.indices, self.data,
                                  _operand(w, (self.n,)), out)
        return out

    def dot_rows(self, W: np.ndarray) -> np.ndarray:
        """X @ w for each row w of a (B, n) array, as a (B, m) array in C
        order: row b holds every point's product with W[b]."""
        W = _operand(W, (None, self.n))
        if W.shape[0] == 1:
            return self.dot_all(W[0])[None, :]
        out = np.zeros((self.m, W.shape[0]))
        _sparsetools().csr_matvecs(self.m, self.n, W.shape[0], self.indptr, self.indices,
                                   self.data, np.ascontiguousarray(W.T).ravel(), out.ravel())
        return np.ascontiguousarray(out.T)

    def dot_t(self, v: np.ndarray) -> np.ndarray:
        """X.T @ v: (n,) for a vector v of length m, each column's products
        added in row order."""
        out = np.zeros(self.n)
        _sparsetools().csc_matvec(self.n, self.m, self.indptr, self.indices, self.data,
                                  _operand(v, (self.m,)), out)
        return out

    def toarray(self) -> np.ndarray:
        """The dense (m, n) features; a stored -0.0 reads +0.0, as in scipy."""
        out = np.zeros((self.m, self.n))
        _sparsetools().csr_todense(self.m, self.n, self.indptr, self.indices, self.data, out)
        return out


def _operand(a, shape: tuple) -> np.ndarray:
    """``a`` as a float64 array, refused unless its shape matches ``shape``
    (None matches any length): the kernels read an operand by the sizes
    they are given, without checking it."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != len(shape) or any(k not in (None, got) for k, got in zip(shape, a.shape)):
        raise InputError(f"expected an operand of shape {shape}, got {a.shape}")
    return a


@cache
def _sparsetools():
    """scipy's compiled sparse kernels, ``scipy.sparse._sparsetools`` (the
    code behind ``csr_matrix.dot`` and ``toarray``), loaded once from the
    installed scipy's file. This skips the ``scipy.sparse`` package, whose
    import takes about 0.1 s and 22 MB and loads some 325 modules.

    The kernels are called by their positional interface, which is private
    to scipy: ``TestKernels`` in ``tests/test_data.py`` checks it, bit for
    bit against the public products, on scipy 1.17. Run those tests before
    relying on another scipy release."""
    name = "scipy.sparse._sparsetools"
    loader = ExtensionFileLoader(name, _sparsetools_file())
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module


def _sparsetools_file() -> str:
    """The path of the installed ``scipy/sparse/_sparsetools`` extension;
    finding scipy's spec imports nothing. ImportError, naming the paths
    tried, when scipy or the file is missing."""
    spec = importlib.util.find_spec("scipy")
    roots = (spec.submodule_search_locations or []) if spec is not None else []
    if not roots:
        raise ImportError("scipy is not installed; the SVM products need its sparse kernels")
    tried = [os.path.join(root, "sparse", "_sparsetools" + suffix)
             for root in roots for suffix in EXTENSION_SUFFIXES]
    for path in tried:
        if os.path.isfile(path):
            return path
    raise ImportError(f"scipy's sparse kernels are not at any of {tried}")


def _frozen(a, dtype) -> np.ndarray:
    """A read-only view of ``a`` as ``dtype`` (the caller's array stays writable)."""
    view = np.asarray(a, dtype=dtype).view()
    view.flags.writeable = False
    return view


def _row_chunks(indptr: np.ndarray):
    """Row ranges [r0, r1) that cover every row in order, each holding at most
    _CHUNK_TOKENS entries, or one row that alone holds more."""
    m, chunk = indptr.size - 1, _CHUNK_TOKENS
    r0 = 0
    while r0 < m:
        # the sum as a Python int: an int32 one would wrap near 2**31
        end = int(indptr[r0]) + chunk
        r1 = max(r0 + 1, int(np.searchsorted(indptr, end, side="right")) - 1)
        yield r0, r1
        r0 = r1


_INT32_MAX = 2**31 - 1


def _index_dtype(*bounds: int) -> np.dtype:
    """The index dtype scipy picks for a CSR matrix whose shape and number of
    entries are ``bounds``: int32 when they all fit in it, else int64.
    ``Dataset`` gives ``indptr`` and ``indices`` this one dtype, as scipy's
    kernels need."""
    return np.dtype(np.int32 if max(bounds) <= _INT32_MAX else np.int64)


def _previous_in_row(indices: np.ndarray, indptr: np.ndarray, fill: int) -> np.ndarray:
    """indices shifted by one within each row segment, ``fill`` at each row's
    first entry: the value every index must exceed."""
    prev = np.roll(indices, 1)
    starts = indptr[:-1]
    prev[starts[starts < indices.size]] = fill
    return prev


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


# Feature tokens per conversion call: bounds the parser's temporary token
# list, whatever the file size (a chunk ends at the end of a line). Dataset
# validation and sparse01 scaling work through the stored entries in chunks
# of the same size, so their temporaries stay O(chunk) too.
_CHUNK_TOKENS = 65536
_TOKEN_DTYPE = np.dtype([("i", np.int64), ("v", np.float64)])


def _convert(tokens: list[str]) -> np.ndarray:
    """``idx:val`` tokens as (int64, float64) records, by numpy's number
    parser (ASCII digits, no ``_`` separators, int64 indices). numpy releases
    that read a float index (``2.5``, ``1e3``) by truncation only warn: an error here."""
    if not tokens:
        return np.empty(0, dtype=_TOKEN_DTYPE)
    with catch_warnings():
        simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(tokens, delimiter=":", comments=None, dtype=_TOKEN_DTYPE,
                              ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None


def _convert_rows(
    tokens: list[str], lens: list[int], linenos: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """0-based indices and values of whole rows' feature tokens (row r has
    lens[r] tokens, on line linenos[r]), or the ParseError a token-by-token
    reading would meet first."""
    try:
        pairs, malformed = _convert(tokens), None
    except ValueError:
        # bisect for the first token numpy rejects
        malformed, bad = 0, len(tokens)  # tokens[:malformed] converts, tokens[:bad] not
        while bad - malformed > 1:
            mid = (malformed + bad) // 2
            try:
                _convert(tokens[:mid])
                malformed = mid
            except ValueError:
                bad = mid
        pairs = _convert(tokens[:malformed])
    idx = pairs["i"]
    indptr = np.cumsum([0] + lens)
    prev = _previous_in_row(idx, indptr, 0)
    wrong = np.flatnonzero(idx <= prev)
    if wrong.size or malformed is not None:
        k = int(wrong[0]) if wrong.size else malformed
        line = linenos[int(np.searchsorted(indptr, k, side="right")) - 1]
        if wrong.size:
            raise ParseError(
                f"indices must be strictly increasing 1-based, got {idx[k]} after {prev[k]}",
                line,
            )
        raise ParseError(f"malformed feature token {tokens[k]!r}", line)
    # copied out, so that the records of the chunk can be freed now; the
    # indices as int32 when they fit, which Dataset then stores as they are
    idx -= 1
    return idx.astype(_index_dtype(idx.max(initial=0) + 1)), pairs["v"].copy()


def parse_libsvm(
    source: Union[str, TextIO, Iterable[str]], n: Optional[int] = None
) -> Dataset:
    """Parse sparse ``<label> <idx>:<val> ...`` lines into a Dataset.

    ``#`` starts a comment, blank lines are skipped, on-disk indices are
    1-based and strictly increasing per line. Labels are read by Python's
    ``float``; feature tokens by numpy's parser, which takes ASCII digits
    only, no ``_`` separators, and indices that fit in int64. ``n``
    overrides the inferred dimension (max index + 1), e.g. to align
    train/test sets.
    """
    lines: Iterable[str] = io.StringIO(source) if isinstance(source, str) else source

    # per row: its label, its number of feature tokens and its line number
    labels, lens, linenos = [], [], []
    tokens: dict[float, str] = {}
    pending: list[str] = []  # the feature tokens of rows done, done + 1, ...
    done = 0
    indices, values = [], []  # converted chunks

    def convert_pending() -> None:
        nonlocal done
        idx, val = _convert_rows(pending, lens[done:], linenos[done:])
        indices.append(idx)
        values.append(val)
        pending.clear()
        done = len(lens)

    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        label_token = parts[0]
        try:
            label_value = float(label_token)
        except ValueError:
            convert_pending()  # an earlier line's error comes first
            raise ParseError(f"malformed label {label_token!r}", lineno) from None
        if label_value not in tokens:
            if len(tokens) == 2:
                convert_pending()
                raise ParseError(
                    f"more than two distinct labels (saw {label_token!r})", lineno
                )
            tokens[label_value] = label_token
        labels.append(label_value)
        pending.extend(parts[1:])
        lens.append(len(parts) - 1)
        linenos.append(lineno)
        if len(pending) >= _CHUNK_TOKENS:
            convert_pending()
    convert_pending()

    if not labels:
        raise ParseError("no data lines found")
    # each list of chunks is dropped once joined: at most one of them is
    # held beside the joined arrays
    idx = np.concatenate(indices)
    indices.clear()
    val = np.concatenate(values)
    values.clear()
    inferred = int(idx.max()) + 1 if idx.size else 0
    if n is None:
        n = inferred
    elif n < inferred:
        raise InputError(f"requested dimension {n} is below observed maximum {inferred}")
    mapping = _map_labels(tokens)
    return Dataset(np.cumsum([0] + lens), idx, val, [mapping[label] for label in labels], n)


def load_libsvm(path: Union[str, Path], n: Optional[int] = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, n=n)


def serialize_libsvm(dataset: Dataset) -> str:
    """Render a dataset back to text; parse(serialize(d)) reproduces d."""
    feats = [f"{i}:{v:.17g}" for i, v in zip((dataset.indices + 1).tolist(),
                                              dataset.data.tolist())]
    ptr = dataset.indptr.tolist()
    out = [f"{int(y):+d} {' '.join(feats[a:b])}".rstrip()
           for a, b, y in zip(ptr, ptr[1:], dataset.labels.tolist())]
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
    return Dataset.from_dense(xs, ys)


def scale_features(
    dataset: Dataset, mode: str = "auto"
) -> tuple[Dataset, list[str]]:
    """Rescale feature columns; returns the new dataset plus warnings.

    ``sparse01`` affinely maps each column's stored nonzero values onto
    [0, 1] (a single distinct nonzero maps to 1), preserving sparsity.
    ``standardize`` shifts/scales every column to zero mean and unit
    variance, storing every nonzero result; zero-variance columns are centered
    only and flagged. ``auto`` picks sparse01 when density < 0.5.
    """
    if mode not in ("auto", "sparse01", "standardize"):
        raise InputError(f"unknown scaling mode {mode!r}")
    if mode == "auto":
        mode = "sparse01" if dataset.density < 0.5 else "standardize"

    if mode == "sparse01":
        # two passes over the stored entries, one chunk at a time: the column
        # ranges, then the map applied in place to a copy of the values.
        # Explicit stored zeros stay 0 and set no range.
        cols, data = dataset.indices, dataset.data.copy()

        def nonzeros():
            """Per chunk: its values (a view of ``data``), the mask of its
            nonzeros, and their columns and values."""
            for a in range(0, data.size, _CHUNK_TOKENS):
                vals = data[a:a + _CHUNK_TOKENS]
                nz = vals != 0.0
                yield vals, nz, cols[a:a + _CHUNK_TOKENS][nz], vals[nz]

        lo, hi = np.full(dataset.n, np.inf), np.full(dataset.n, -np.inf)
        for _, _, nz_cols, nz_vals in nonzeros():
            np.minimum.at(lo, nz_cols, nz_vals)
            np.maximum.at(hi, nz_cols, nz_vals)
        span, width = hi > lo, hi - lo
        for vals, nz, nz_cols, nz_vals in nonzeros():
            ranged = span[nz_cols]
            at = nz_cols[ranged]
            scaled = np.ones_like(nz_vals)
            scaled[ranged] = (nz_vals[ranged] - lo[at]) / width[at]
            vals[nz] = scaled
        return Dataset(dataset.indptr, cols, data, dataset.labels, dataset.n), []

    # the dense features and the standardized copy are held together
    _reserve(2 * dataset.m * dataset.n * 8,
             f"a dense {dataset.m} x {dataset.n} copy of the features and its standardized copy")
    dense = dataset.toarray()
    mean = dense.mean(axis=0)
    std = np.sqrt(dense.var(axis=0))
    degenerate = std <= 1e-15 * np.maximum(1.0, np.abs(mean))
    warnings = [f"column {int(j)} has zero variance; centered only"
                for j in np.nonzero(degenerate)[0]]
    safe_std = np.where(degenerate, 1.0, std)
    return Dataset.from_dense((dense - mean) / safe_std, dataset.labels), warnings
