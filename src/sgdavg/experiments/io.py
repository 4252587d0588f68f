"""CSV and SVG emission for trial matrices.

CSV schema: header ``trial,checkpoint_iter,scheme,objective``, one row per
defined cell, 17-significant-digit floats, UTF-8, LF line endings, '.'
decimal separator. Lines starting with '#' are comments; the matrix metadata
rides along in a ``# meta:`` comment so a round trip is exact.

Both writers emit their lines in chunks of about ``_CHUNK_CHARS``
characters, so a file is never held in memory whole, into a temporary file
that replaces the target only when complete.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from ..core import InputError
from .harness import TrialMatrix

__all__ = ["CSV_HEADER", "export_csv", "import_csv", "render_svg"]

CSV_HEADER = "trial,checkpoint_iter,scheme,objective"

_CHUNK_CHARS = 1 << 20


@contextmanager
def _line_writer(path: Union[str, Path]) -> Iterator[Callable[[str], None]]:
    """An ``add(line)`` callable writing LF-terminated UTF-8 lines in chunks
    of about _CHUNK_CHARS characters to a temporary file beside ``path``,
    which replaces ``path`` once every line is written: a write that stops
    partway leaves the old file whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    pending: list[str] = []
    size = 0
    try:
        with open(tmp, "wb") as fh:

            def flush() -> None:
                nonlocal size
                if pending:
                    fh.write(("\n".join(pending) + "\n").encode("utf-8"))
                    pending.clear()
                    size = 0

            def add(line: str) -> None:
                nonlocal size
                pending.append(line)
                size += len(line)
                if size >= _CHUNK_CHARS:
                    flush()

            yield add
            flush()
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
    # one "%"-template per trial row, in [checkpoint][scheme] cell order;
    # rows with undefined cells use the template of their mask's cells
    cells = [
        f"{cp},{scheme.replace('%', '%%')},%.17g"
        for cp in matrix.checkpoints
        for scheme in matrix.scheme_names
    ]
    flat = matrix.gaps.reshape(matrix.gaps.shape[0], -1)
    defined = ~np.isnan(flat)
    by_mask: dict[bytes, list[str]] = {}
    with _line_writer(path) as add:
        for c in comments:
            add(f"# {c}")
        add(f"# meta: {json.dumps(matrix.meta, sort_keys=True)}")
        add(CSV_HEADER)
        for trial, (row, mask) in enumerate(zip(flat, defined)):
            if mask.all():
                row_cells = cells
            else:
                row_cells = by_mask.get(mask.tobytes())
                if row_cells is None:
                    row_cells = by_mask[mask.tobytes()] = [
                        c for c, keep in zip(cells, mask) if keep
                    ]
                if not row_cells:
                    continue
                row = row[mask]
            head = f"{trial},"
            add((head + f"\n{head}".join(row_cells)) % tuple(row.tolist()))


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
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">')
        add('<rect width="100%" height="100%" fill="white"/>')
        for panel, nm in enumerate(names):
            si = matrix.scheme_index(nm)
            x0 = _MARGIN + panel * (_PANEL_W + _MARGIN)
            add(
                f'<text x="{x0 + _PANEL_W / 2:.2f}" y="{_MARGIN - 16}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="15">{nm}</text>'
            )
            add(
                f'<rect x="{x0}" y="{_MARGIN}" width="{_PANEL_W}" height="{_PANEL_H}" '
                'fill="none" stroke="#999" stroke-width="1"/>'
            )
            for label, v in ((f"{y_hi:.4g}", y_hi), (f"{y_lo:.4g}", y_lo)):
                add(
                    f'<text x="{x0 - 4}" y="{py(v):.2f}" text-anchor="end" '
                    f'font-family="sans-serif" font-size="10">{label}</text>'
                )
            # "x,%.2f" per checkpoint; a trial's polyline fills the points it defines
            points = [f"{x0 + sx(x):.2f},%.2f" for x in xs]
            by_mask: dict[bytes, str] = {}
            col = matrix.gaps[:, :, si]
            defined = defined_all[:, :, si]
            py_col = np.broadcast_to(py(col), col.shape)
            for py_row, mask in zip(py_col, defined):
                if mask.sum() < 2:
                    continue
                template = by_mask.get(mask.tobytes())
                if template is None:
                    template = by_mask[mask.tobytes()] = " ".join(
                        p for p, keep in zip(points, mask) if keep
                    )
                add(
                    f'<polyline points="{template % tuple(py_row[mask].tolist())}" fill="none" '
                    'stroke="#1f77b4" stroke-width="1" stroke-opacity="0.08"/>'
                )
            mean_pts = []
            for ci in range(len(matrix.checkpoints)):
                mask = defined[:, ci]
                if mask.any():
                    mean_pts.append(points[ci] % py(float(col[mask, ci].mean())))
            if len(mean_pts) >= 2:
                add(
                    f'<polyline points="{" ".join(mean_pts)}" fill="none" '
                    'stroke="#222" stroke-width="2" stroke-dasharray="5 4"/>'
                )
        add("</svg>")
