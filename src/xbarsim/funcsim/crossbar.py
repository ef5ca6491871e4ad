"""Bit-serial crossbar matrix products with device noise and ADC.

Weight handling: a signed integer matrix is split into positive and
negative parts (differential column pairs), each part bit-sliced into
bits_per_cell groups, and every (row tile, column tile, slice, sign)
chunk is programmed onto one crossbar. Cell value v maps to

    G(v) = G_min + v * (G_max - G_min) / (2^bits_per_cell - 1)

with multiplicative write noise applied at programming time and
multiplicative read noise at every read, both clipped to the physical
[G_min, G_max] window.

Inputs are fed one bit-plane at a time. Column currents are digitized
by a flash ADC whose full scale is the worst-case accumulation
xbar_size * G_max (fixed, input independent), the G_min offset is
removed digitally using the plane's popcount, and the per-plane codes
are combined by shift-and-add. The decoded per-read count is rounded
to an integer before accumulation, mirroring the digital shift-add
datapath; with noise off and half an ADC step below half a count
(adc_bits >= log2(xbar_size) + bits_per_cell for the shipped devices)
the product is bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..mapping import DeviceParams, TileConfig


@dataclass(frozen=True)
class NoiseModel:
    """Read/write variation magnitudes plus ADC precision and seeding.

    ``multiplicative`` selects G * (1 + eps) perturbations; the
    additive alternative draws eps relative to the conductance window.
    One seed fixes the whole simulation stream; parallel inferences
    should spawn child generators from it.
    """

    read_var: float = 0.0
    write_var: float = 0.0
    adc_bits: int = 6
    rng_seed: int = 0
    multiplicative: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.read_var < 1.0 and 0.0 <= self.write_var < 1.0):
            raise ValueError("variations must be in [0, 1)")
        if self.adc_bits < 1:
            raise ValueError("adc_bits must be >= 1")

    @classmethod
    def for_device(cls, dev: DeviceParams, adc_bits: int = 6, rng_seed: int = 0,
                   multiplicative: bool = True) -> "NoiseModel":
        return cls(dev.read_var, dev.write_var, adc_bits, rng_seed, multiplicative)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.rng_seed)


@dataclass(frozen=True)
class CrossbarState:
    """One programmed array: conductances in siemens, clipped to range."""

    conductances: np.ndarray
    device: DeviceParams
    programmed_with_noise: bool

    def read_currents(
        self,
        bit_rows: np.ndarray,
        noise: NoiseModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Column currents for a batch of binary input rows.

        Each input row is one physical read; read noise is drawn
        independently per read and per cell.
        """
        bits = np.asarray(bit_rows, dtype=np.float64)
        if bits.ndim == 1:
            bits = bits[None, :]
        if bits.shape[1] != self.conductances.shape[0]:
            raise ValueError(
                f"input width {bits.shape[1]} != crossbar rows "
                f"{self.conductances.shape[0]}"
            )
        g = self.conductances
        if noise is None or noise.read_var == 0.0:
            return bits @ g
        if rng is None:
            rng = noise.rng()
        eps = rng.normal(0.0, noise.read_var, size=(bits.shape[0],) + g.shape)
        if noise.multiplicative:
            g_read = g[None, :, :] * (1.0 + eps)
        else:
            g_read = g[None, :, :] + eps * (self.device.g_max - self.device.g_min)
        g_read = np.clip(g_read, self.device.g_min, self.device.g_max)
        return np.einsum("nr,nrc->nc", bits, g_read)


def ideal_conductances(cell_values: np.ndarray, dev: DeviceParams) -> np.ndarray:
    levels = 2**dev.bits_per_cell - 1
    v = np.asarray(cell_values, dtype=np.float64)
    if v.size and (v.min() < 0 or v.max() > levels):
        raise ValueError(f"cell values outside [0, {levels}]")
    return dev.g_min + v * (dev.g_max - dev.g_min) / levels


def program_crossbar(
    cell_values: np.ndarray,
    dev: DeviceParams,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
    xbar_size: int = 64,
) -> CrossbarState:
    """Program one tile of cell values (each in [0, 2^bits_per_cell - 1])."""
    cell_values = np.asarray(cell_values)
    if cell_values.ndim != 2:
        raise ValueError("cell_values must be 2-D")
    if cell_values.shape[0] > xbar_size or cell_values.shape[1] > xbar_size:
        raise ValueError(
            f"tile {cell_values.shape} exceeds crossbar size {xbar_size}"
        )
    g = ideal_conductances(cell_values, dev)
    noisy = False
    if noise is not None and noise.write_var > 0.0:
        if rng is None:
            rng = noise.rng()
        eps = rng.normal(0.0, noise.write_var, size=g.shape)
        if noise.multiplicative:
            g = g * (1.0 + eps)
        else:
            g = g + eps * (dev.g_max - dev.g_min)
        g = np.clip(g, dev.g_min, dev.g_max)
        noisy = True
    return CrossbarState(g, dev, noisy)


@dataclass(frozen=True)
class ProgrammedMatrix:
    """A full signed integer matrix spread over crossbar tiles.

    tiles[(row_block, col_block, slice, sign)] with sign 0 = positive
    part, 1 = negative part.
    """

    shape: tuple[int, int]
    xbar_size: int
    n_slices: int
    bits_per_cell: int
    device: DeviceParams
    tiles: dict

    @property
    def n_crossbars(self) -> int:
        return len(self.tiles)


def _bit_slices(magnitude: np.ndarray, bits_per_cell: int, n_slices: int) -> list[np.ndarray]:
    """Little-endian base-2^bits_per_cell digits of a non-negative matrix."""
    out = []
    rest = magnitude.astype(np.int64)
    mask = (1 << bits_per_cell) - 1
    for _ in range(n_slices):
        out.append(rest & mask)
        rest >>= bits_per_cell
    if np.any(rest):
        raise ValueError("weight magnitudes exceed the sliced range")
    return out


def program_matrix(
    w_int: np.ndarray,
    dev: DeviceParams,
    tiles: TileConfig,
    weight_bits: int,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> ProgrammedMatrix:
    """Tile, slice and differentially program a signed weight matrix.

    Every tile draws its write noise from one stream, ``rng`` or else a
    fresh ``noise.rng()``, so no two tiles repeat each other's noise.
    """
    w_int = np.asarray(w_int, dtype=np.int64)
    if w_int.ndim != 2:
        raise ValueError("weight matrix must be 2-D")
    if noise is not None and rng is None:
        rng = noise.rng()
    in_dim, out_dim = w_int.shape
    x = tiles.xbar_size
    n_slices = math.ceil(weight_bits / dev.bits_per_cell)
    parts = (np.maximum(w_int, 0), np.maximum(-w_int, 0))

    programmed: dict = {}
    for rb in range(math.ceil(in_dim / x)):
        rows = slice(rb * x, min((rb + 1) * x, in_dim))
        for cb in range(math.ceil(out_dim / x)):
            cols = slice(cb * x, min((cb + 1) * x, out_dim))
            for sign, part in enumerate(parts):
                chunk = part[rows, cols]
                for k, cells in enumerate(_bit_slices(chunk, dev.bits_per_cell, n_slices)):
                    programmed[(rb, cb, k, sign)] = program_crossbar(
                        cells, dev, noise, rng, x
                    )
    return ProgrammedMatrix(
        (in_dim, out_dim), x, n_slices, dev.bits_per_cell, dev, programmed
    )


def _adc_decode(
    currents: np.ndarray,
    popcount: np.ndarray,
    dev: DeviceParams,
    xbar_size: int,
    adc_bits: int,
) -> np.ndarray:
    """Digitize currents and recover integer dot-product counts."""
    full_scale = xbar_size * dev.g_max
    n_levels = 2**adc_bits - 1
    codes = np.clip(np.rint(currents / full_scale * n_levels), 0, n_levels)
    i_hat = codes * full_scale / n_levels
    delta_g = (dev.g_max - dev.g_min) / (2**dev.bits_per_cell - 1)
    counts = (i_hat - dev.g_min * popcount[:, None]) / delta_g
    return np.rint(counts)


def mvm_bitserial(
    pm: ProgrammedMatrix,
    x_int: np.ndarray,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Integer matrix product via per-bit-plane analog reads.

    ``x_int`` is (n, in_dim) signed; negative inputs run as a second
    pass on their magnitudes with the result subtracted.
    """
    x_int = np.asarray(x_int, dtype=np.int64)
    if x_int.ndim == 1:
        x_int = x_int[None, :]
    in_dim, out_dim = pm.shape
    if x_int.shape[1] != in_dim:
        raise ValueError(f"input width {x_int.shape[1]} != matrix rows {in_dim}")
    if noise is not None and rng is None:
        rng = noise.rng()
    adc_bits = noise.adc_bits if noise is not None else 16
    xsz = pm.xbar_size
    n = x_int.shape[0]
    acc = np.zeros((n, out_dim), dtype=np.float64)

    for in_sign, xs in ((1, np.maximum(x_int, 0)), (-1, np.maximum(-x_int, 0))):
        if not xs.any():
            continue
        n_planes = int(xs.max()).bit_length()
        for plane in range(n_planes):
            bits = ((xs >> plane) & 1).astype(np.float64)
            for rb in range(math.ceil(in_dim / xsz)):
                slab = bits[:, rb * xsz: min((rb + 1) * xsz, in_dim)]
                if not slab.any():
                    continue
                popcount = slab.sum(axis=1)
                for cb in range(math.ceil(out_dim / xsz)):
                    cols = slice(cb * xsz, min((cb + 1) * xsz, out_dim))
                    for k in range(pm.n_slices):
                        slice_weight = 1 << (k * pm.bits_per_cell)
                        for w_sign, sgn in ((0, 1), (1, -1)):
                            xbar = pm.tiles[(rb, cb, k, w_sign)]
                            currents = xbar.read_currents(slab, noise, rng)
                            counts = _adc_decode(
                                currents, popcount, pm.device, xsz, adc_bits
                            )
                            acc[:, cols] += (
                                in_sign * sgn * (1 << plane) * slice_weight
                            ) * counts
    return np.rint(acc).astype(np.int64)
