"""The vectorized kernel behind ``numfmt.format_floats``.

``rounded`` forms each value's product with a power of ten exactly in
float64 (the double nearest the power, its remainder, and Dekker's
two-product) and rounds it to the printed digits where its error bound
decides them; ``printed`` gathers those digits into each value's layout.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction

import numpy as np

# Per value, the kernel's character table holds 18 digit columns (a leading
# zero, then the 17 digits of D) and the literal characters (see printed).
_LITERALS = b".e+-0123456789\0"
_NUL = 18 + len(_LITERALS) - 1  # the padding column
_WIDEST = 23  # the longest layout: "d.dddddddddddddddde-279"
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter for float64
# The kernel's rounding of y = x * 10**n is undecided within _WINDOW of a
# half: see _scaled.
_WINDOW = 64 * sys.float_info.epsilon


@functools.cache
def _power_of_ten(n: int) -> tuple[float, float]:
    """10**n as hi + lo: hi the double nearest 10**n, lo the double nearest
    10**n - hi."""
    exact = Fraction(10) ** n
    hi = float(exact)
    return hi, float(exact - Fraction(hi))


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo with each part at most 26 significant bits (Veltkamp)."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _scaled(x: np.ndarray, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y = x * 10**power as floor(p) + r: p the rounded product of x with
    the double nearest 10**power, and r a double within 64 eps (less than
    _WINDOW) of y - floor(p).

    With hi + lo = 10**power from _power_of_ten, y = p + e + x * delta,
    where e = x * hi - p is exact by Dekker's two-product and delta =
    10**power - hi. |e| <= 8 and |x * delta| < 17 while y < 1.5e17, so
    rounding lo, its product with x, and the two additions of
    r = (p - floor(p)) + e + x * lo err by at most
    2 * 17 * eps / 2 + 2 * 32 * eps / 2 < 64 eps."""
    first, last = (int(power.min()), int(power.max())) if power.size else (0, 0)
    table = [_power_of_ten(i) for i in range(first, last + 1)]
    where = (power - first).astype(np.intp)
    hi, lo = (np.take(np.array(part), where) for part in zip(*table))
    p = x * hi
    x_hi, x_lo = _split(x)
    hi_hi, hi_lo = _split(hi)
    e = ((x_hi * hi_hi - p) + x_hi * hi_lo + x_lo * hi_hi) + x_lo * hi_lo
    whole = np.floor(p)
    return whole, ((p - whole) + e) + x * lo


@functools.cache
def _group_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each 3-digit group 0-999: its characters, one row per position;
    the places up to its last nonzero digit, less one; and its significant
    digits."""
    text = [f"{i:03d}" for i in range(1000)]
    chars = np.frombuffer("".join(text).encode(), dtype=np.uint8).reshape(1000, 3).T.copy()
    last = np.array([len(t.rstrip("0")) - 1 for t in text], dtype=np.float64)
    significant = np.array([len(t.lstrip("0")) for t in text], dtype=np.float64)
    return chars, last, significant


@functools.cache
def _layout(fmt: str, code: int) -> tuple[np.ndarray, int]:
    """The rows of src (see printed) that one output layout reads, padded
    with the NUL row to _WIDEST, and the layout's length. For "%.2f",
    ``code`` is the count of integer digits. For "%.17g" it packs the
    decimal exponent k and the significant digits nd as ``k * 32 + nd``,
    laid out as %g does: trailing zeros stripped, fixed notation for
    -4 <= k < 17, and an exponent of at least two digits."""
    if fmt == "%.2f":
        chars = [*range(15 - code, 15), ".", 15, 16]
    else:
        k, nd = code >> 5, code & 31
        if 0 <= k < 17:
            chars = [*range(k + 1)] + ([".", *range(k + 1, nd)] if nd > k + 1 else [])
        elif -4 <= k < 0:
            chars = ["0", "."] + ["0"] * (-k - 1) + [*range(nd)]
        else:
            chars = [0] + ([".", *range(1, nd)] if nd > 1 else []) + list(f"e{k:+03d}")
    # digit j of D is column j + 1, _LITERALS[i] column 18 + i
    columns = [c + 1 if isinstance(c, int) else 18 + _LITERALS.index(c.encode()) for c in chars]
    rows = [c % 3 * 6 + c // 3 if c < 18 else c for c in columns]
    padded = np.array(rows + [_NUL] * (_WIDEST - len(rows)), dtype=np.float64)
    padded.flags.writeable = False
    return padded, len(rows)


def rounded(
    x: np.ndarray, general: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The digits each value prints, where the kernel can tell them.

    For "%.17g" (``general``), a value x prints the 17 digits of D, the
    integer nearest x * 10**(16 - k) with k = floor(log10 x); for "%.2f",
    those of D nearest x * 100. ``_scaled`` gives y = x * 10**n within
    _WINDOW; where y's fraction lies at least _WINDOW from 1/2, D is
    floor(y) + (fraction > 1/2). Returns ``ok``, the mask of such values,
    and for them k (for "%.17g"; a round-up to 10**17 carries into it) and
    D as q * 10**9 + rem. The values outside ``ok`` are near-ties, +-0,
    negative, non-finite, subnormal or extreme (|log10 x| >= 280, or
    x >= 1e14 for "%.2f").

    Every test is arithmetic (floor, signbit): no comparison loop runs, as
    each numpy loop a process runs for the first time maps more of numpy's
    machine code into memory, which a short command keeps to its end.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.log(x) / np.log(10.0)  # log10 x, not finite outside (0, inf)
    ok = np.isfinite(lx) & ~np.signbit(lx + 280.0) & np.signbit(lx - (280.0 if general else 14.0))
    xs = np.where(ok, x, 1.0)
    if general:
        k = np.floor(np.where(ok, lx, 0.0))  # off by one at most
        whole, r = _scaled(xs, 16 - k)
        # k moves up by one where y >= 1e17, down where y < 1e16; near
        # either bound, whole - bound is exact and r decides the sign
        shift = (~np.signbit(whole - 1e17 + r)).astype(np.float64) - np.signbit(whole - 1e16 + r)
        off = np.flatnonzero(shift)
        if off.size:
            k[off] += shift[off]
            whole[off], r[off] = _scaled(xs[off], 16 - k[off])
    else:
        k = np.zeros(x.size)
        whole, r = _scaled(xs, np.full(x.size, 2.0))
    below = np.floor(r)
    frac = r - below
    ok &= ~np.signbit(np.abs(frac - 0.5) - _WINDOW)
    # D = whole + below + (frac > 1/2); q * 1e9 has at most 48 significant
    # bits, so whole - q * 1e9 is exact
    q = np.floor(whole / 1e9)
    rem = (whole - q * 1e9) + (below + np.ceil(frac - 0.5))
    carry = np.floor(rem / 1e9)
    q += carry
    rem -= carry * 1e9
    if general:
        # 10**16 <= D <= 10**17; D = 10**17 is a round-up to 1000...,
        # exponent k + 1
        ok &= ~np.signbit(q - 1e7) & ~np.signbit((1e8 - q) * 1e9 - rem)
        top = np.floor(q / 1e8)
        q -= 9e7 * top
        k += top
    return ok, k[ok], q[ok], rem[ok]


def printed(fmt: str, k: np.ndarray, q: np.ndarray, rem: np.ndarray) -> list[bytes]:
    """``fmt % x`` of the values whose exponent is k and whose digits are
    those of D = q * 10**9 + rem, from ``rounded``."""
    n = q.size
    # D's 17 digits and a leading zero as six 3-digit groups; the groups
    # before g0 are zero in every value
    q_max = q.max(initial=0.0)
    bound = (q_max + 1) * 1e9 if q_max else rem.max(initial=0.0)
    g0 = 0 if fmt == "%.17g" else 6 - (len(str(int(bound))) + 2) // 3
    split = max(3 - g0, 0)  # rows of q, then of rem
    groups = np.empty((6 - g0, n))
    groups[:split] = q
    groups[split:] = rem
    groups /= np.array([1e6, 1e3, 1.0, 1e6, 1e3, 1.0][g0:])[:, None]
    np.floor(groups, out=groups)
    groups[1:split] -= 1000 * groups[:max(split - 1, 0)]
    groups[split + 1:] -= 1000 * groups[split:-1]
    chars, last_place, significant = _group_tables()
    index = groups.astype(np.intp)
    nonzero = np.minimum(groups, 1.0)
    rows = np.arange(6.0 - g0)[:, None]
    if fmt == "%.17g":  # significant digits: up to the last nonzero one
        last = np.max(nonzero * rows, axis=0)
        value = np.take(index, (last * n + np.arange(float(n))).astype(np.intp))
        code = k * 32 + 3 * last + np.take(last_place, value)
    else:  # integer digits: from the first nonzero one, at least one
        first = np.max(nonzero * (6 - g0 - rows), axis=0)  # 0 when D is 0
        row = np.minimum(6 - g0 - first, 5 - g0)
        value = np.take(index, (row * n + np.arange(float(n))).astype(np.intp))
        code = np.maximum(3 * first + np.take(significant, value) - 5, 1.0)

    # the character table: row (c % 3) * 6 + c // 3 of src holds column
    # c < 18 of each value, row c holds literal column c >= 18
    src = np.empty((_NUL + 1, n), dtype=np.uint8)
    src[:18].reshape(3, 6, n)[:, g0:] = np.take(chars, index, axis=1)
    src[18:] = np.frombuffer(_LITERALS, dtype=np.uint8)[:, None]
    # one row of flat indices into src per layout present, NUL-padded
    base = code.min(initial=0.0)
    present = np.flatnonzero(np.bincount((code - base).astype(np.intp)))
    layouts = [_layout(fmt, int(c + base)) for c in present.tolist()]
    width = max((size for _, size in layouts), default=1)
    table = np.array([row for row, _ in layouts]).reshape(-1, _WIDEST)[:, :width]
    table = (n * table).astype(np.intp)
    slot = np.zeros(present[-1] + 1 if present.size else 1, dtype=np.intp)
    slot[present] = np.arange(present.size)
    flat = np.take(table, slot[(code - base).astype(np.intp)], axis=0)
    flat += np.arange(n)[:, None]
    return np.take(src, flat).view(f"S{width}").ravel().tolist()
