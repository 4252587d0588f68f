"""Byte-exact formatting of float64 values as Python's ``'%.17g' % v``
and ``'%.2f' % v``.

``format_floats`` hands inputs of _KERNEL_MIN values or more to the
vectorized kernel in ``numfmt_kernel``; smaller inputs, and the values
whose rounding the kernel cannot decide (near-ties), +-0, negative,
non-finite, subnormal and extreme values, go through Python's ``%``.

The kernel is imported on first use: a command that formats only a few
values, or none, does not compile it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_floats"]

# Below this many values the kernel's fixed cost per call, about 0.15 ms
# of numpy calls, exceeds what it saves over Python's % (about 1 us a value).
_KERNEL_MIN = 256


def format_floats(values: np.ndarray, fmt: str) -> list[bytes]:
    """``[(fmt % v).encode() for v in values]``, byte for byte, for a
    float64 array and fmt "%.17g" or "%.2f"."""
    if fmt not in ("%.17g", "%.2f"):
        raise ValueError(f"unsupported format {fmt!r}")
    x = np.asarray(values, dtype=np.float64).ravel()
    bfmt = fmt.encode()
    if x.size < _KERNEL_MIN:
        return [bfmt % v for v in x.tolist()]
    from .numfmt_kernel import printed, rounded

    ok, k, q, rem = rounded(x, fmt == "%.17g")
    strs = printed(fmt, k, q, rem)
    if len(strs) == x.size:
        return strs
    out: list[bytes] = []
    taken = 0
    for i, v in zip(np.flatnonzero(~ok).tolist(), x[~ok].tolist()):
        gap = i - len(out)  # kernel strings before position i
        out += strs[taken:taken + gap]
        taken += gap
        out.append(bfmt % v)
    return out + strs[taken:]
