"""Uniform per-tensor quantization for the functional simulator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizedMatrix:
    """Integer tensor with a linear dequantization rule.

    real ~= values * scale, so real zero is integer zero. Signed tensors
    use the symmetric range [-(2^(b-1) - 1), 2^(b-1) - 1]; unsigned ones
    use [0, 2^b - 1].
    """

    values: np.ndarray
    scale: float
    bits: int
    signed: bool

    def __post_init__(self) -> None:
        lo, hi = self.range
        v = self.values
        if v.size and (int(v.min()) < lo or int(v.max()) > hi):
            raise ValueError(f"values outside [{lo}, {hi}] for {self.bits}-bit tensor")

    @property
    def range(self) -> tuple[int, int]:
        if self.signed:
            m = 2 ** (self.bits - 1) - 1
            return -m, m
        return 0, 2**self.bits - 1


def quantize(x: np.ndarray, bits: int, signed: bool = True) -> QuantizedMatrix:
    """Per-tensor uniform quantization; scale from the max magnitude."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    if signed:
        qmax = 2 ** (bits - 1) - 1
        amax = float(np.max(np.abs(x))) if x.size else 0.0
    else:
        if x.size and float(x.min()) < 0.0:
            raise ValueError("unsigned quantization needs non-negative input")
        qmax = 2**bits - 1
        amax = float(x.max()) if x.size else 0.0
    scale = amax / qmax if amax > 0.0 else 1.0
    values = np.clip(np.rint(x / scale), -qmax if signed else 0, qmax).astype(np.int64)
    return QuantizedMatrix(values, scale, bits, signed)


def dequantize(q: QuantizedMatrix) -> np.ndarray:
    return q.values.astype(np.float64) * q.scale
