"""Bit-serial crossbar matrix products with device noise and ADC.

Weight handling: a signed integer matrix is split into positive and
negative parts (differential column pairs), each part bit-sliced into
bits_per_cell groups, and every (row tile, column tile, slice, sign)
chunk is programmed onto one crossbar. Cell value v maps to

    G(v) = G_min + v * (G_max - G_min) / (2^bits_per_cell - 1)

with multiplicative write noise applied at programming time and
multiplicative read noise at every read, both clipped to the physical
[G_min, G_max] window.

Storage: the crossbars that share a row tile are kept side by side as
one ``CrossbarState`` "stripe" of shape (rows, n_slices * 2 * out_dim),
its columns ordered (slice, weight sign, column). A column current only
sums over its own column, so one read of a stripe is the reads of all
its crossbars at once; one crossbar is the stripe's columns of one
(slice, sign, column tile). ``program_matrix`` is the only way to
program crossbars: it tiles a whole signed matrix and programs one
stripe at a time from its cell digits, sliced by one broadcast
shift-and-mask in the narrowest unsigned dtype that holds every sliced
bit. A noise-free matrix stores only its integer weights (below); the
stripes it reads are derived from them when a read asks for them.

Inputs are fed one bit-plane at a time. ``mvm_bitserial`` stacks every
bit-plane of both input signs as one batch of reads, ordered (sign,
plane, input row), from one broadcast shift-and-mask of the input
magnitudes (``_bit_planes``), and keeps one signed weight per plane:
with n input rows, read i is input row i % n of plane i // n, and a
read derives its row and plane weight from i only when it is made. The
reads accumulate in one of two ways. The noise-free identity reads
(below) are read a whole bit-plane at a time: a row tile with one reads
its weight stripe over every plane, the reads of other popcounts cleared
to zero rows, in blocks of whole planes, or of rows of one plane where a
plane alone passes the budget of ``CHUNK_ELEMENTS`` currents. A block's
partials, times their signed plane weights, reach their input rows by
one stacked product and one slice add. A tile counts its reads' set
rows (their popcounts) only where a read can leave the identity: a tile
whose every popcount, 0 to its row count, is an identity row reads its
whole planes uncounted, if it has a set bit at all (every 16-row
QK^T tile at 6 SRAM ADC bits, every tile at 7 SRAM or 8 FeFET bits);
any other tile sums each read's bits in the narrowest unsigned dtype
that holds its row count. Every other read is sparse: the reads with no
set bit in a row tile are dropped (they give exactly zero), each stripe
is read once per chunk of at most ``CHUNK_ELEMENTS`` currents, and a
chunk's shift-added counts, times their signed plane weights, reach
their input rows by one fancy-indexed add per bit-plane in the chunk:
within a plane every read has its own input row, so no add collides,
and the work per read is out_dim whatever the number of input rows.
Every term is an integer, and the float64 accumulator and every float64
shift-add are exact in any order while their sums stay below 2^53 in
magnitude; ``mvm_bitserial`` raises on inputs wide enough for a product
to pass that. Read noise is drawn only for the (read, row) pairs whose
bit is set, in chunks of the same element budget: a row at 0 carries no
current whatever its noise, so the output distribution is that of
drawing every cell.

A noisy read works in float32 window units. Each cell is
u = (g - G_min) / (G_max - G_min), its noise gain g * sigma / (G_max -
G_min) for multiplicative noise and sigma for additive noise, and a
chunk of set-row cells is clip(u + gain * z, 0, 1), whose edges 0 and 1
are exact in float32. One float32 product with a 0/1 selection matrix
sums each read's set rows in the chunk; a chunk holds at most
min(CHUNK_ELEMENTS / columns, isqrt(CHUNK_ELEMENTS)) pairs, so that
matrix stays within the element budget on narrow stripes too. The read
returns float64 siemens, (G_max - G_min) * sums + G_min * popcount, so a
one-hot read of a clipped cell gives exactly G_min or G_max (the
shipped devices' window width plus G_min is G_max in float64).

Noisy writes, like noisy reads, draw from the caller's generator and
raise without one, so successive draws continue one stream instead of
repeating it; noise-free programming and reads need none.

Noise draws. Every write and read noise value is a float32 standard
normal from ``_standard_normal``, scaled by its variation: a vectorized
Box-Muller fill in float32. n values take h = ceil(n / 2) 64-bit words
from ``Generator.integers``, one word per pair (not ``bit_generator.
random_raw``, whose words hold only 32 random bits for MT19937). A
word's top 32 bits k give the radius sqrt(-2 ln((k + 1) 2^-32)) and its
low 32 bits j the angle 2 pi j 2^-32; the first h values are r cos, the
rest r sin. So every |z| is at most sqrt(64 ln 2) = 6.66, reached at
k = 0; a normal lies beyond that with probability about 3e-11. float32
rounding moves a draw by about 1e-7 of its value (median) and by at
most about 3e-5 (at radii near 0, where (k + 1) 2^-32 rounds near 1),
far below any noise variation. The draws are N(0, 1) in distribution,
but not numpy's stream.

Column currents are digitized by a flash ADC whose full scale is the
worst-case accumulation xbar_size * G_max (fixed, input independent),
the G_min offset is removed digitally using the plane's popcount, and
the per-plane codes are combined by shift-and-add. The ADC resolution
is ``NoiseModel.adc_bits``, which defaults to ``TileConfig.adc_bits``;
``SimContext`` sets it from its tiles. The decoded per-read count is
rounded to an integer before accumulation, mirroring the digital
shift-add datapath; with noise off and half an ADC step below half a
count (adc_bits >= log2(xbar_size) + bits_per_cell for the shipped
devices) the product is bit-exact.

Noise-free reads decode from level sums. Without write or read noise a
column's count depends on two integers only: the read's popcount p and
the column's level sum k, the summed cell levels of its set rows. So
``program_matrix`` keeps a noise-free matrix only as its integer
weights, and derives from them, on first use, float32 "level stripes"
(``level_stripes``) of one column per (slice, sign, column) with cells
digit + M, M = ``stride`` = rows * (2^bits_per_cell - 1) + 1 being one
more than the largest level sum, for rows = min(xbar_size, in_dim). A
read of p set rows gives k + p * M, the flat index of (p, k) in the
decode table of counts T[p, k]. The read sums non-negative integers
below rows * (M + 2^bits_per_cell), which float32 holds exactly in any
order below 2^24: up to 4094 SRAM and 2363 FeFET rows. Beyond that,
and under write noise, the matrix keeps no weights and stores its
conductances as written; its reads, like every noisy read, decode their
float currents with ``_adc_decode``. The conductances of a matrix with
weights, ``ideal_conductances`` of its cell digits, are built and
cached, in (slice, sign, column) order, only when a noisy read or a
caller asks for ``stripes``.

Identity reads. ``identity_rows`` marks each popcount p whose row of T
is the identity over every level sum a read of p cells can reach, 0 to
p * (2^bits_per_cell - 1). On 64-row tiles that is p < 32 for SRAM at
6 ADC bits, every p for SRAM at 7 bits and FeFET at 8, and no p > 0 for
FeFET below 8 bits. A noise-free read of such a popcount counts every
column's own level sum, so its shift-added counts are the summed
weights of its set rows: ``mvm_bitserial`` reads it from the row tile's
"weight stripe" (``weight_stripes``), the weights as cells, and that
read is its partial, with no cast, lookup or shift-add. A tile's
weight-stripe reads cover all its bit-planes, so they also read the
zero rows that stand for its other reads. A weight stripe
is float32 while rows * max|w| < 2^24, so that every partial sum of a
read is an exact float32 integer in any order, and float64 otherwise.
Every other noise-free read goes through its level stripe and T, and
the level stripes are built only for a matrix that has such a read.
``mvm_bitserial`` reads each chunk once through its stripe and maps
every level-stripe index to its count with one ``take``. T is built
once per (device, xbar_size, adc_bits, rows) by ``_adc_decode`` itself,
applied to the ideal current p * G_min + k * dG, and keeps its float64
counts. As for a noisy read's counts, one stacked float64 product with
the slice weights shift-adds them: the counts are integers and the
weights powers of two, so every product and partial sum is an integer.
The table is the one noise-free decode, a code
value on a rint half-point included (SRAM at 6 bits, (p, k) = (32, 32),
is exactly 31.5): a noise-free count depends on p and k alone, as a
flash ADC's code depends on the current alone, whichever cells hold the
levels and in whatever order a float read would sum them. Off the
half-points a float read of the conductances gives the same count,
since it differs from the ideal current by a few roundings per cell,
far below an ADC step. T holds one float64 per (p, k) for stripes of
min(xbar_size, in_dim) rows, so its extent follows the rows actually
read: 33.8 KB for SRAM and 100.4 KB for FeFET on 64-row tiles, and
about 134 MB for either at the level-stripe bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..mapping import (DIFFERENTIAL_ARRAYS, MAX_ADC_BITS, DeviceParams, TileConfig,
                       slice_factor)

# Element budget of one read chunk or noise chunk (256 KiB of float64):
# bounded temporaries keep freed memory from piling up in the heap.
CHUNK_ELEMENTS = 1 << 15


# Box-Muller in float32: see "Noise draws" above.
_RADIUS_UNIT = np.float32(2.0**-32)
_ANGLE_UNIT = np.float32(2.0 * np.pi * 2.0**-32)


def _standard_normal(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float32 array ``out`` with N(0, 1) draws; return it.

    The Box-Muller fill of the module docstring's "Noise draws" (one sine
    is dropped when n is odd). The radii are built in ``out`` itself; the
    temporaries are the h words and their halves.
    """
    if out.dtype != np.float32 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float32 array")
    flat = out.reshape(-1)
    n = flat.size
    h = (n + 1) // 2
    words = rng.integers(0, 2**64, size=h, dtype=np.uint64)
    radius = flat[:h]
    # each half goes through uint32: numpy converts uint64 to float32 far slower
    radius[...] = (words >> 32).astype(np.uint32)
    radius += 1
    radius *= _RADIUS_UNIT
    np.log(radius, out=radius)
    radius *= -2
    np.sqrt(radius, out=radius)
    angle = words.astype(np.uint32).astype(np.float32)
    angle *= _ANGLE_UNIT
    np.multiply(radius[:n - h], np.sin(angle[:n - h]), out=flat[h:])
    radius *= np.cos(angle, out=angle)
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Read/write variation magnitudes plus ADC precision.

    ``multiplicative`` selects G * (1 + eps) perturbations; the
    additive alternative draws eps relative to the conductance window.
    The model holds no randomness: noisy writes and reads draw from the
    ``rng`` their caller passes (``SimContext`` owns one per inference,
    derived from its ``seed``). eps is the variation times a float32
    standard normal from ``_standard_normal`` (see the module docstring's
    "Noise draws"). Noisy reads add it to each cell in float32 window
    units and clip to [0, 1], the edges of the [G_min, G_max] window.
    """

    read_var: float = 0.0
    write_var: float = 0.0
    adc_bits: int = TileConfig.adc_bits
    multiplicative: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.read_var < 1.0 and 0.0 <= self.write_var < 1.0):
            raise ValueError("variations must be in [0, 1)")
        if self.adc_bits < 1:
            raise ValueError("adc_bits must be >= 1")
        if self.adc_bits > MAX_ADC_BITS:
            raise ValueError(f"adc_bits must be <= {MAX_ADC_BITS}, got {self.adc_bits}")


@dataclass(frozen=True, eq=False)
class CrossbarState:
    """Programmed conductances in siemens, clipped to range.

    One crossbar, or a stripe of crossbars sharing their rows. A level
    stripe holds integer cell levels as float32 instead, offset so that
    a noise-free read of p set rows gives each column's flat decode-table
    index, and a weight stripe the signed weights themselves, so that a
    noise-free read gives their sums (see ``ProgrammedMatrix``).
    Equality and hashing are by identity.
    """

    conductances: np.ndarray
    device: DeviceParams

    def read_currents(
        self,
        bit_rows: np.ndarray,
        noise: NoiseModel = NoiseModel(),
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Column currents for a batch of binary input rows.

        Each input row is one physical read, made in the dtype of the
        stored cells; read noise is drawn independently per read and per
        cell, for the cells of set rows only, from ``rng``, which noisy
        reads require. A noisy read sums float32 window units and returns
        float64 siemens (see the module docstring). Bool rows are binary
        by type; rows of any other dtype are checked to be 0 or 1 before
        the cast to the cell dtype.
        """
        g = self.conductances
        bits = np.asarray(bit_rows)
        if bits.ndim == 1:
            bits = bits[None, :]
        if bits.shape[1] != g.shape[0]:
            raise ValueError(
                f"input width {bits.shape[1]} != crossbar rows {g.shape[0]}"
            )
        if bits.dtype != np.bool_ and np.any((bits != 0) & (bits != 1)):
            raise ValueError("input rows must be binary")
        bits = bits.astype(g.dtype, copy=False)
        if noise.read_var == 0.0:
            return bits @ g
        if rng is None:
            raise ValueError("noisy reads need an explicit rng stream")
        dev = self.device
        span = dev.g_max - dev.g_min
        popcount = np.count_nonzero(bits, axis=1)
        active = np.flatnonzero(popcount)
        rows = np.nonzero(bits)[1]
        # the read of each (read, set row) pair, numbered over the active reads
        read = np.repeat(np.arange(active.size), popcount[active])
        # each cell in window units, u = (g - G_min) / span, and its noise gain
        window = np.empty(g.shape, dtype=np.float32)
        np.subtract(g, dev.g_min, out=window)
        window /= span
        if noise.multiplicative:
            gain = np.multiply(g, noise.read_var / span, out=np.empty_like(window))
        else:
            gain = np.full((g.shape[0], 1), noise.read_var, dtype=np.float32)
        sums = np.zeros((active.size, g.shape[1]))
        # a chunk of k pairs spans at most k reads, so its selection matrix
        # holds at most k^2 <= CHUNK_ELEMENTS entries
        step = max(1, min(CHUNK_ELEMENTS // max(1, g.shape[1]), math.isqrt(CHUNK_ELEMENTS)))
        chunk = np.empty((min(step, rows.size), g.shape[1]), dtype=np.float32)
        for a in range(0, rows.size, step):
            c, r = rows[a:a + step], read[a:a + step]
            cells = _standard_normal(rng, chunk[:c.size])
            cells *= gain[c]
            cells += window[c]
            np.clip(cells, 0.0, 1.0, out=cells)
            select = r == np.arange(r[0], r[-1] + 1)[:, None]
            sums[r[0]:r[-1] + 1] += select.astype(np.float32) @ cells
        out = np.zeros((bits.shape[0], g.shape[1]))
        out[active] = sums
        out *= span
        out += dev.g_min * popcount[:, None]
        return out


def ideal_conductances(cell_values: np.ndarray, dev: DeviceParams) -> np.ndarray:
    levels = 2**dev.bits_per_cell - 1
    v = np.asarray(cell_values, dtype=np.float64)
    if v.size and (v.min() < 0 or v.max() > levels):
        raise ValueError(f"cell values outside [0, {levels}]")
    return dev.g_min + v * (dev.g_max - dev.g_min) / levels


@dataclass(frozen=True, eq=False)
class ProgrammedMatrix:
    """A full signed integer matrix spread over crossbar tiles.

    ``stripes[row_block]`` holds the crossbars of one row tile side by
    side, columns ordered (slice, sign, column) with sign 0 = positive
    part, 1 = negative part. A matrix written without noise whose
    tallest stripe reads below 2^24 keeps only its integer ``weights``
    (a read-only copy); the stripes it reads are derived from them on
    first use and cached: ``weight_stripes``, ``level_stripes`` and
    ``stripes``. Any other matrix keeps its conductances as written
    (``written_stripes``) and has none of the three. Equality and hashing
    are by identity.
    """

    shape: tuple[int, int]
    xbar_size: int
    n_slices: int
    device: DeviceParams
    weights: np.ndarray | None = None
    written_stripes: tuple[CrossbarState, ...] | None = None

    def __post_init__(self) -> None:
        if (self.weights is None) == (self.written_stripes is None):
            raise ValueError("give exactly one of weights and written_stripes")

    @property
    def row_blocks(self) -> int:
        return math.ceil(self.shape[0] / self.xbar_size)

    @property
    def col_blocks(self) -> int:
        return math.ceil(self.shape[1] / self.xbar_size)

    @property
    def rows(self) -> int:
        """Rows of the tallest stripe."""
        return _stripe_rows(self.shape[0], self.xbar_size)

    @property
    def columns(self) -> int:
        """Columns of every stripe: (slice, sign, column)."""
        return self.n_slices * DIFFERENTIAL_ARRAYS * self.shape[1]

    @property
    def stride(self) -> int:
        return _level_stride(self.rows, self.device)

    @property
    def n_crossbars(self) -> int:
        return self.row_blocks * self.col_blocks * self.n_slices * DIFFERENTIAL_ARRAYS

    def _row_tiles(self) -> list[np.ndarray]:
        return [self.weights[r0:r0 + self.xbar_size]
                for r0 in range(0, self.shape[0], self.xbar_size)]

    @functools.cached_property
    def stripes(self) -> tuple[CrossbarState, ...]:
        if self.written_stripes is not None:
            return self.written_stripes
        return tuple(CrossbarState(_ideal_stripe(block, self.n_slices, self.device), self.device)
                     for block in self._row_tiles())

    @functools.cached_property
    def level_stripes(self) -> tuple[CrossbarState, ...] | None:
        """The cells of each row tile as float32 integer levels, digit + ``stride``.

        Columns ordered (slice, sign, column). None for a matrix without
        weights.
        """
        if self.weights is None:
            return None
        bpc = self.device.bits_per_cell
        stripes = []
        for block in self._row_tiles():
            levels = _cell_digits(block, self.n_slices, bpc).astype(np.float32)
            levels += self.stride
            stripes.append(CrossbarState(levels, self.device))
        return tuple(stripes)

    @functools.cached_property
    def weight_stripes(self) -> tuple[CrossbarState, ...] | None:
        """The weights of each row tile as cells, for the identity reads.

        float32 while rows * max|w| < 2^24, float64 otherwise. None for a
        matrix without weights.
        """
        if self.weights is None:
            return None
        top = max(int(self.weights.max(initial=0)), -int(self.weights.min(initial=0)))
        dtype = np.float32 if self.rows * top < 1 << 24 else np.float64
        return tuple(CrossbarState(block.astype(dtype), self.device)
                     for block in self._row_tiles())


def _stripe_rows(in_dim: int, xbar_size: int) -> int:
    """Rows of the tallest stripe of a matrix with ``in_dim`` rows."""
    return min(xbar_size, in_dim)


def _level_stride(rows: int, dev: DeviceParams) -> int:
    """Row length of the decode table: one more than the largest level sum."""
    return rows * ((1 << dev.bits_per_cell) - 1) + 1


def _cell_digits(block: np.ndarray, n_slices: int, bits_per_cell: int) -> np.ndarray:
    """Cell digits of a signed matrix, columns ordered (slice, sign, column).

    One broadcast shift-and-mask in the narrowest unsigned dtype that
    holds n_slices * bits_per_cell bits.
    """
    dtype = np.min_scalar_type((1 << (n_slices * bits_per_cell)) - 1)
    parts = np.stack((np.maximum(block, 0), np.maximum(-block, 0)), axis=1).astype(dtype)
    shifts = np.arange(0, n_slices * bits_per_cell, bits_per_cell, dtype=dtype)
    digits = parts[:, None] >> shifts[:, None, None]
    digits &= (1 << bits_per_cell) - 1
    return digits.reshape(block.shape[0], -1)


def _ideal_stripe(block: np.ndarray, n_slices: int, dev: DeviceParams) -> np.ndarray:
    """Ideal float64 conductances of a signed matrix, columns ordered (slice, sign, column)."""
    level_g = ideal_conductances(np.arange(1 << dev.bits_per_cell), dev)
    return level_g[_cell_digits(block, n_slices, dev.bits_per_cell)]


def _exact_int64(values, name: str) -> np.ndarray:
    """``values`` as int64, raising ValueError on any value the cast would
    change: a non-integral or non-finite one, or one outside int64. Signed
    integers, bools and narrower unsigned ones cast unchecked; floats and
    uint64 are checked, and any other dtype raises."""
    a = np.asarray(values)
    if np.can_cast(a.dtype, np.int64):
        return a.astype(np.int64, copy=False)
    if a.dtype.kind in "fu":  # float, or uint64
        with np.errstate(invalid="ignore"):
            cast = a.astype(np.int64)
        if np.all(cast == a):
            return cast
    raise ValueError(f"{name} must hold integers within int64")


def program_matrix(
    w_int: np.ndarray,
    dev: DeviceParams,
    tiles: TileConfig,
    weight_bits: int,
    noise: NoiseModel = NoiseModel(),
    rng: np.random.Generator | None = None,
) -> ProgrammedMatrix:
    """Tile, slice and differentially program a signed weight matrix.

    Every stripe draws its write noise from ``rng`` in turn, so no two
    crossbars repeat each other's noise; write noise needs ``rng``.
    """
    w_int = _exact_int64(w_int, "weight matrix")
    if w_int.ndim != 2:
        raise ValueError("weight matrix must be 2-D")
    bpc = dev.bits_per_cell
    n_slices = slice_factor(weight_bits, dev)
    if w_int.size and int(np.abs(w_int).max()) >> (n_slices * bpc):
        raise ValueError("weight magnitudes exceed the sliced range")
    if noise.write_var > 0.0 and rng is None:
        raise ValueError("noisy writes need an explicit rng stream")

    in_dim, x = w_int.shape[0], tiles.xbar_size
    rows = _stripe_rows(in_dim, x)
    # A level stripe stores digit + stride, stride being the row length of
    # _decode_table, so a read of p set rows whose digits sum to k gives
    # k + p * stride, the flat table index of (p, k). The largest read is
    # rows * (2^bpc - 1 + stride) = rows * (stride + 2^bpc) - rows, and
    # every partial sum is a non-negative integer no larger; float32 holds
    # every integer up to 2^24, so below the bound a read is exact in any
    # summation order.
    if noise.write_var == 0.0 and rows * (_level_stride(rows, dev) + (1 << bpc)) < 1 << 24:
        weights = w_int.copy()
        weights.setflags(write=False)
        return ProgrammedMatrix(w_int.shape, x, n_slices, dev, weights=weights)
    stripes = []
    for r0 in range(0, in_dim, x):
        g = _ideal_stripe(w_int[r0:r0 + x], n_slices, dev)
        if noise.write_var > 0.0:
            eps = _standard_normal(rng, np.empty(g.shape, dtype=np.float32))
            eps *= noise.write_var
            if noise.multiplicative:
                eps += 1.0
                g *= eps
            else:
                eps *= dev.g_max - dev.g_min
                g += eps
            np.clip(g, dev.g_min, dev.g_max, out=g)
        stripes.append(CrossbarState(g, dev))
    return ProgrammedMatrix(w_int.shape, x, n_slices, dev, written_stripes=tuple(stripes))


def _adc_decode(
    currents: np.ndarray,
    popcount: np.ndarray,
    dev: DeviceParams,
    xbar_size: int,
    adc_bits: int,
) -> np.ndarray:
    """Digitize currents and recover integer dot-product counts.

    Works in place: ``currents`` is overwritten with the counts.
    """
    full_scale = xbar_size * dev.g_max
    n_levels = 2**adc_bits - 1
    c = currents
    c /= full_scale
    c *= n_levels
    np.rint(c, out=c)
    np.minimum(c, n_levels, out=c)
    np.maximum(c, 0, out=c)
    c *= full_scale  # the ADC's reconstructed current
    c /= n_levels
    c -= dev.g_min * popcount[:, None]
    c /= (dev.g_max - dev.g_min) / (2**dev.bits_per_cell - 1)
    return np.rint(c, out=c)


@functools.lru_cache(maxsize=16)
def _decode_table(dev: DeviceParams, xbar_size: int, adc_bits: int, rows: int) -> np.ndarray:
    """Noise-free counts of a read of up to ``rows`` cells, by (popcount, level sum).

    Entry (p, k) is ``_adc_decode`` of the ideal current p * G_min + k * dG,
    rint half-points included, in the float64 that ``_adc_decode``
    returns. The table is read-only and holds 8 * (rows + 1) * (rows *
    (2^bits_per_cell - 1) + 1) bytes: 33.8 KB for SRAM and 100.4 KB for
    FeFET at 64 rows, about 134 MB at the level-stripe bound of
    ``program_matrix``.
    """
    levels = 2**dev.bits_per_cell - 1
    popcount = np.arange(rows + 1, dtype=np.float64)
    delta_g = (dev.g_max - dev.g_min) / levels
    currents = dev.g_min * popcount[:, None] + np.arange(rows * levels + 1) * delta_g
    counts = _adc_decode(currents, popcount, dev, xbar_size, adc_bits)
    counts.setflags(write=False)
    return counts


@functools.lru_cache(maxsize=16)
def identity_rows(dev: DeviceParams, xbar_size: int, adc_bits: int, rows: int) -> np.ndarray:
    """Whether a noise-free read of p set rows counts its own level sum, by p.

    Entry p is true where row p of ``_decode_table`` maps every level sum
    a read of p cells can reach, 0 to p * (2^bits_per_cell - 1), to
    itself. Read-only, one bool per popcount 0 to ``rows``.
    """
    counts = _decode_table(dev, xbar_size, adc_bits, rows)
    k = np.arange(counts.shape[1])
    reach = k <= ((1 << dev.bits_per_cell) - 1) * np.arange(rows + 1)[:, None]
    identity = ((counts == k) | ~reach).all(axis=1)
    identity.setflags(write=False)
    return identity


@functools.lru_cache(maxsize=None)
def _slice_weights(n_slices: int, bits_per_cell: int) -> np.ndarray:
    """Shift-and-add weight of each stripe column group, ordered (slice, sign); read-only."""
    weights = np.array([sgn * float(1 << (k * bits_per_cell))
                        for k in range(n_slices) for sgn in (1, -1)])
    weights.setflags(write=False)
    return weights


def _bit_planes(x_int: np.ndarray, tops: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Every bit-plane of both input signs as one read batch, ordered (sign, plane, row).

    ``tops`` are the largest magnitudes of the positive and of the
    negative inputs, below 2^53. Returns the (reads, in_dim) bool bits
    and one signed weight per plane: read i is input row i % n of plane
    i // n, n = len(x_int). Both signs' planes come from one broadcast
    shift-and-mask of |x_int| in the narrowest unsigned dtype that holds
    the larger top, each masked by its inputs' sign. An all-zero input
    has no reads.
    """
    n, in_dim = x_int.shape
    p_pos, p_neg = (top.bit_length() for top in tops)
    dtype = np.min_scalar_type(max(tops))
    plane_bit = (1 << np.arange(max(p_pos, p_neg))).astype(dtype)
    planes = (np.abs(x_int).astype(dtype) & plane_bit[:, None, None]) != 0
    plane_weight = np.concatenate((2.0 ** np.arange(p_pos), -(2.0 ** np.arange(p_neg))))
    bits = np.empty((p_pos + p_neg, n, in_dim), dtype=np.bool_)
    np.logical_and(planes[:p_pos], x_int > 0, out=bits[:p_pos])
    np.logical_and(planes[:p_neg], x_int < 0, out=bits[p_pos:])
    return bits.reshape(-1, in_dim), plane_weight


def mvm_bitserial(
    pm: ProgrammedMatrix,
    x_int: np.ndarray,
    noise: NoiseModel = NoiseModel(),
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Integer matrix product via per-bit-plane analog reads.

    ``x_int`` is (n, in_dim) signed; negative inputs run as a second
    set of bit-planes on their magnitudes with the result subtracted.
    Read noise needs ``rng``. The bit-planes come from ``_bit_planes``,
    ordered (sign, plane, row) with one signed weight per plane: read i
    is input row i % n, weighted by the weight of plane i // n, and
    both are derived only for the reads that are made.

    A noise-free read of a matrix with weights whose popcount is an
    ``identity_rows`` entry reads its row tile's weight stripe, and that
    read is its shift-added partial. A tile with such a read of set rows
    reads its weight stripe over whole bit-planes, its other reads
    cleared to zero rows, and adds each block of planes times their
    plane weights by one stacked product. A tile whose every popcount,
    0 to its row count, is an identity row takes no popcount; any other
    takes them all. Every other noise-free read of such a matrix maps
    its level stripe's read to counts through one ``_decode_table``
    lookup (see the module docstring). Noisy reads, and every read of a
    matrix without weights, decode the float currents of
    ``pm.stripes``. These reads are sparse: a read with no set row is
    dropped, and each chunk is added with one fancy-indexed add per
    bit-plane. Raises ValueError on inputs wide enough for a product to
    pass 2^53, where float64 stops being exact.
    """
    x_int = _exact_int64(x_int, "inputs")
    if x_int.ndim == 1:
        x_int = x_int[None, :]
    in_dim, out_dim = pm.shape
    if x_int.shape[1] != in_dim:
        raise ValueError(f"input width {x_int.shape[1]} != matrix rows {in_dim}")
    if noise.read_var > 0.0 and rng is None:
        raise ValueError("noisy reads need an explicit rng stream")
    n = x_int.shape[0]
    acc = np.zeros((n, out_dim), dtype=np.float64)
    # the largest positive input and negative-input magnitude, with no int64
    # negation (-(-2^63) wraps)
    tops = (int(x_int.max(initial=0)), -int(x_int.min(initial=0)))
    if not out_dim or not any(tops):
        return acc.astype(np.int64)
    xsz, dev = pm.xbar_size, pm.device
    slice_weight = _slice_weights(pm.n_slices, dev.bits_per_cell)
    # A read decodes to a count of at most its level sum plus half an ADC
    # step in magnitude (+1 for rounding). An output sums, per row tile,
    # counts times sum|slice_weight| per read and 2^P - 1 per input sign
    # over its planes, P the sign's bit length: while that stays below
    # 2^53 every float64 sum of these integer terms is exact in any order.
    levels = (1 << dev.bits_per_cell) - 1
    half_step = xsz * dev.g_max * levels / (2 * (2**noise.adc_bits - 1) * (dev.g_max - dev.g_min))
    count = pm.rows * levels + half_step + 1
    plane_weights = sum((1 << top.bit_length()) - 1 for top in tops)
    if plane_weights * np.abs(slice_weight).sum() * count * pm.row_blocks >= 2**53:
        raise ValueError(f"inputs of up to {max(tops).bit_length()} bits can sum past 2^53, "
                         "where float64 no longer holds every integer")
    bits, plane_weight = _bit_planes(x_int, tops)

    def decode_currents(currents: np.ndarray, chunk: np.ndarray) -> np.ndarray:
        return _adc_decode(currents, chunk.sum(axis=1, dtype=np.intp), dev, xsz, noise.adc_bits)

    def decode_levels(index: np.ndarray, chunk: np.ndarray) -> np.ndarray:
        # the read gives each column's flat table index
        return _decode_table(dev, xsz, noise.adc_bits, pm.rows).take(index.astype(np.intp))

    def read_sparse(slab: np.ndarray, active: np.ndarray, stripe: CrossbarState,
                    decode) -> None:
        step = max(1, CHUNK_ELEMENTS // stripe.conductances.shape[1])
        for a in range(0, active.size, step):
            reads = active[a:a + step]
            chunk = slab[reads]
            partial = decode(stripe.read_currents(chunk, noise, rng), chunk)
            # rebinding frees the counts before the next chunk is read; counts
            # kept alive through the next chunk make the heap trim and fault
            # its pages in again on every chunk
            partial = slice_weight @ partial.reshape(-1, slice_weight.size, out_dim)
            # acc[row] += plane weight * partial for each read. Reads ascend
            # in (sign, plane, row) order, plane q holding reads q*n to
            # q*n + n - 1, so cut at the plane starts each piece has distinct
            # rows and takes one fancy-indexed add (integer terms, exact)
            row, plane = reads % n, reads // n
            cuts = [0, *np.flatnonzero(plane[1:] != plane[:-1]) + 1, reads.size]
            for s, e in zip(cuts[:-1], cuts[1:]):
                partial[s:e] *= plane_weight[plane[s]]
                acc[row[s:e]] += partial[s:e]

    def read_planes(grid: np.ndarray, stripe: CrossbarState) -> None:
        # an identity read of the weights is its shift-added partial. A block
        # is kq whole planes, or kr rows of one plane when a plane alone is
        # over the element budget; its partials reach acc[r:r + kr] by one
        # stacked product with their plane weights (integer terms, exact)
        step = max(1, CHUNK_ELEMENTS // out_dim)
        kq, kr = max(1, step // n), min(n, step)
        grid = grid.reshape(plane_weight.size, n, -1)
        for q in range(0, len(grid), kq):
            for r in range(0, n, kr):
                block = grid[q:q + kq, r:r + kr]
                partial = stripe.read_currents(block.reshape(-1, grid.shape[2]))
                acc[r:r + kr] += (plane_weight[q:q + kq] @ partial.reshape(len(block), -1)
                                  ).reshape(-1, out_dim)

    lossless = None
    if pm.weights is not None and noise.read_var == 0.0:
        lossless = identity_rows(dev, xsz, noise.adc_bits, pm.rows)
        # the first popcount that is not an identity row, if any: a tile of
        # fewer rows reads only identity rows, so it needs no popcount
        lossy = lossless.size if lossless.all() else int(lossless.argmin())

    for rb in range(pm.row_blocks):
        slab = bits[:, rb * xsz:(rb + 1) * xsz]
        if lossless is None:
            read_sparse(slab, np.flatnonzero(slab.any(axis=1)), pm.stripes[rb], decode_currents)
            continue
        if slab.shape[1] < lossy:
            if slab.any():
                read_planes(slab, pm.weight_stripes[rb])
            continue
        popcount = slab.sum(axis=1, dtype=np.min_scalar_type(slab.shape[1]))
        identity = lossless[popcount]  # true for every all-zero read
        if popcount[identity].any():
            # every plane is read whole from the weights, its other reads
            # cleared to zero rows
            read_planes(slab if identity.all() else slab & identity[:, None],
                        pm.weight_stripes[rb])
        if not identity.all():
            read_sparse(slab, np.flatnonzero(~identity), pm.level_stripes[rb], decode_levels)
    return np.rint(acc).astype(np.int64)
