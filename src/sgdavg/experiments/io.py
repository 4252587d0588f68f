"""CSV and SVG emission for trial matrices.

CSV schema: header ``trial,checkpoint_iter,scheme,objective``, one row per
defined cell, 17-significant-digit floats, UTF-8, LF line endings, '.'
decimal separator. Lines starting with '#' are comments; the matrix metadata
rides along in a ``# meta:`` comment so a round trip is exact.

The numbers are the bytes of Python's ``'%.17g' % v`` (CSV values) and
``'%.2f' % v`` (SVG coordinates), produced a block of values at a time by
``numfmt.format_floats`` and filled into per-cell templates.

Both writers write each line straight to a temporary file, which replaces
the target only when complete; no file is held in memory whole, and no
pending lines are kept beside the file's own write buffer.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from itertools import compress
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from ..core import InputError
from .harness import TrialMatrix
from .numfmt import format_floats

__all__ = ["CSV_HEADER", "export_csv", "import_csv", "render_svg"]

CSV_HEADER = "trial,checkpoint_iter,scheme,objective"

_BLOCK_VALUES = 4096  # cells per call of the formatting kernel


def _formatted_rows(values: np.ndarray, defined: np.ndarray, fmt: str) -> Iterator[list[bytes]]:
    """Per row of the 2-D ``values``, the bytes ``fmt % v`` of its entries
    where ``defined`` holds; ``format_floats`` takes _BLOCK_VALUES cells
    per call, whatever the row length."""
    flat, keep = values.reshape(-1), defined.reshape(-1)
    row_ends = np.cumsum(defined.sum(axis=1)).tolist()
    strs: list[bytes] = []
    first = row = 0  # strs[0] is defined value number `first`
    for start in range(0, flat.size, _BLOCK_VALUES):
        block = slice(start, start + _BLOCK_VALUES)
        strs += format_floats(flat[block][keep[block]], fmt)
        pos = 0
        while row < len(row_ends) and row_ends[row] - first <= len(strs):
            end = row_ends[row] - first
            yield strs[pos:end]
            pos, row = end, row + 1
        del strs[:pos]
        first += pos


@contextmanager
def _line_writer(path: Union[str, Path]) -> Iterator[Callable[[bytes], None]]:
    """An ``add(line)`` callable writing each line of bytes, LF-terminated,
    to a temporary file beside ``path``, which replaces ``path`` once every
    line is written: a write that stops partway leaves the old file whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write = fh.write

            def add(line: bytes) -> None:
                write(line)
                write(b"\n")

            yield add
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def export_csv(
    matrix: TrialMatrix,
    path: Union[str, Path],
    comments: Sequence[str] = (),
) -> None:
    """Write one row per defined cell, preceded by comment lines."""
    if matrix.gaps.size == 0:
        raise InputError("refusing to export an empty matrix")
    # one "%s"-template per trial row, in [checkpoint][scheme] cell order;
    # rows with undefined cells use the template of their mask's cells
    cells = [
        f"{cp},{scheme.replace('%', '%%')},%s".encode()
        for cp in matrix.checkpoints
        for scheme in matrix.scheme_names
    ]
    flat = matrix.gaps.reshape(matrix.gaps.shape[0], -1)
    defined = ~np.isnan(flat)
    by_mask: dict[bytes, list[bytes]] = {}
    with _line_writer(path) as add:
        for c in comments:
            add(f"# {c}".encode())
        add(f"# meta: {json.dumps(matrix.meta, sort_keys=True)}".encode())
        add(CSV_HEADER.encode())
        rows = _formatted_rows(flat, defined, "%.17g")
        for trial, (mask, values) in enumerate(zip(defined, rows)):
            if not values:
                continue
            if mask.all():
                row_cells = cells
            else:
                row_cells = by_mask.get(mask.tobytes())
                if row_cells is None:
                    row_cells = by_mask[mask.tobytes()] = [
                        c for c, keep in zip(cells, mask) if keep
                    ]
            head = b"%d," % trial
            add((head + (b"\n" + head).join(row_cells)) % tuple(values))


def import_csv(path: Union[str, Path]) -> TrialMatrix:
    """Rebuild a TrialMatrix from an exported CSV."""
    meta: dict = {}
    rows: list[tuple[int, int, str, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("meta:"):
                    meta = json.loads(body[len("meta:"):])
                continue
            if not header_seen:
                if line != CSV_HEADER:
                    raise InputError(f"line {lineno}: unexpected header {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise InputError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            rows.append((int(parts[0]), int(parts[1]), parts[2], float(parts[3])))
    if not rows:
        raise InputError("no data rows found")

    checkpoints = sorted({cp for _, cp, _, _ in rows})
    if meta.get("schemes"):
        schemes = list(meta["schemes"])
    else:
        schemes = list(dict.fromkeys(s for _, _, s, _ in rows))
    trials = max(t for t, _, _, _ in rows) + 1
    gaps = np.full((trials, len(checkpoints), len(schemes)), np.nan)
    cp_index = {cp: i for i, cp in enumerate(checkpoints)}
    s_index = {s: i for i, s in enumerate(schemes)}
    for trial, cp, scheme, v in rows:
        if scheme not in s_index:
            raise InputError(f"scheme {scheme!r} not listed in metadata")
        gaps[trial, cp_index[cp], s_index[scheme]] = v
    matrix = TrialMatrix(gaps=gaps, checkpoints=checkpoints, scheme_names=schemes, meta=meta)
    matrix.validate()
    return matrix


_PANEL_W = 360
_PANEL_H = 300
_MARGIN = 54


def _scale(lo: float, hi: float, size: float):
    """Affine data->pixel map; degenerate ranges land mid-axis."""
    if hi > lo:
        span = hi - lo
        return lambda v: (v - lo) / span * size
    return lambda v: size / 2.0


def render_svg(
    matrix: TrialMatrix,
    path: Union[str, Path],
    schemes: Optional[Sequence[str]] = None,
) -> None:
    """One panel per scheme: a translucent polyline per trial plus an opaque
    dotted mean curve, objective gap against checkpoint iteration."""
    if matrix.gaps.size == 0:
        raise InputError("refusing to render an empty matrix")
    names = list(schemes) if schemes else list(matrix.scheme_names)
    for nm in names:
        matrix.scheme_index(nm)

    xs = np.asarray(matrix.checkpoints, dtype=np.float64)
    defined_all = ~np.isnan(matrix.gaps)
    # every defined gap is finite, and nanmin/nanmax skip the undefined ones
    any_defined = bool(defined_all.any())
    y_lo = float(np.nanmin(matrix.gaps)) if any_defined else 0.0
    y_hi = float(np.nanmax(matrix.gaps)) if any_defined else 1.0
    sx = _scale(float(xs.min()), float(xs.max()), _PANEL_W)
    sy = _scale(y_lo, y_hi, _PANEL_H)

    def py(v):
        return _MARGIN + (_PANEL_H - sy(v))

    width = _MARGIN + len(names) * (_PANEL_W + _MARGIN)
    height = 2 * _MARGIN + _PANEL_H
    with _line_writer(path) as add:
        add(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'.encode())
        add(b'<rect width="100%" height="100%" fill="white"/>')
        for panel, nm in enumerate(names):
            si = matrix.scheme_index(nm)
            x0 = _MARGIN + panel * (_PANEL_W + _MARGIN)
            add(
                f'<text x="{x0 + _PANEL_W / 2:.2f}" y="{_MARGIN - 16}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="15">{nm}</text>'.encode()
            )
            add(
                f'<rect x="{x0}" y="{_MARGIN}" width="{_PANEL_W}" height="{_PANEL_H}" '
                'fill="none" stroke="#999" stroke-width="1"/>'.encode()
            )
            for label, v in ((f"{y_hi:.4g}", y_hi), (f"{y_lo:.4g}", y_lo)):
                add(
                    f'<text x="{x0 - 4}" y="{py(v):.2f}" text-anchor="end" '
                    f'font-family="sans-serif" font-size="10">{label}</text>'.encode()
                )
            # "x,%s" per checkpoint; a trial's polyline fills the points it defines
            px = np.broadcast_to(x0 + sx(xs), xs.shape)
            points = [p + b",%s" for p in format_floats(px, "%.2f")]
            by_mask: dict[bytes, bytes] = {}
            col = matrix.gaps[:, :, si]
            defined = defined_all[:, :, si]
            py_col = np.broadcast_to(py(col), col.shape)
            for mask, values in zip(defined, _formatted_rows(py_col, defined, "%.2f")):
                if len(values) < 2:
                    continue
                template = by_mask.get(mask.tobytes())
                if template is None:
                    template = by_mask[mask.tobytes()] = b" ".join(
                        p for p, keep in zip(points, mask) if keep
                    )
                add(
                    b'<polyline points="' + template % tuple(values) + b'" fill="none" '
                    b'stroke="#1f77b4" stroke-width="1" stroke-opacity="0.08"/>'
                )
            # where every trial defines a checkpoint, the mean over a contiguous
            # row of the transpose sums the masked copy's values in their order
            has_mean = defined.any(axis=0)
            mean = np.ascontiguousarray(col.T).mean(axis=1)
            for ci in np.flatnonzero(has_mean & ~defined.all(axis=0)):
                mean[ci] = col[defined[:, ci], ci].mean()
            means = np.broadcast_to(py(mean[has_mean]), (np.count_nonzero(has_mean),))
            if len(means) >= 2:
                mean_pts = b" ".join(
                    p % v for p, v in zip(compress(points, has_mean), format_floats(means, "%.2f"))
                )
                add(
                    b'<polyline points="' + mean_pts + b'" fill="none" '
                    b'stroke="#222" stroke-width="2" stroke-dasharray="5 4"/>'
                )
        add(b"</svg>")
