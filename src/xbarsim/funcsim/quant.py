"""Uniform per-tensor quantization for the functional simulator."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Above this width qmax = 2^(b-1) - 1 is no longer a float64 integer.
MAX_BITS = 54


class QuantizedMatrix(NamedTuple):
    """Integer tensor in the symmetric range [-(2^(b-1) - 1), 2^(b-1) - 1].

    real ~= values * scale, so real zero is integer zero.
    """

    values: np.ndarray
    scale: float


def quantize(x: np.ndarray, bits: int) -> QuantizedMatrix:
    """Signed per-tensor uniform quantization; scale from the max magnitude.

    Raises ValueError on a NaN or infinite value, which has no integer,
    and on ``bits`` above ``MAX_BITS``, where qmax is not a float64
    integer and values round past it.
    """
    if bits < 2:
        raise ValueError("signed quantization needs bits >= 2")
    if bits > MAX_BITS:
        raise ValueError(f"quantization needs bits <= {MAX_BITS}, got {bits}")
    x = np.asarray(x, dtype=np.float64)
    qmax = 2 ** (bits - 1) - 1
    amax = float(np.max(np.abs(x))) if x.size else 0.0
    if not math.isfinite(amax):
        raise ValueError("cannot quantize NaN or infinite values")
    # 1.0 also where a subnormal amax underflows amax / qmax to 0
    scale = amax / qmax if amax / qmax > 0.0 else 1.0
    values = np.clip(np.rint(x / scale), -qmax, qmax).astype(np.int64)
    return QuantizedMatrix(values, scale)
