"""Layer-to-crossbar mapping over the tile / PE / crossbar hierarchy.

A layer with weight matrix in_dim x out_dim needs

    n_xbar_logical = ceil(in_dim / xbar_size) * ceil(out_dim / xbar_size)

arrays of unit cell precision. Multi-bit weights are bit-sliced across
ceil(weight_bits / bits_per_cell) physical column groups, so the
physical count is logical * slice_factor. Softmax runs on a digital
unit and has no layer here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .workload import LayerKind, LayerSpec


class DeviceKind(Enum):
    FEFET = "FeFET"
    SRAM = "SRAM"


@dataclass(frozen=True)
class DeviceParams:
    """Per-crossbar device constants.

    Energies are per full-array access (pJ), delays in us, area in mm2.
    ``read_var`` / ``write_var`` are relative conductance std-devs used
    by the functional simulator; SRAM arrays carry zeros.
    """

    kind: DeviceKind
    bits_per_cell: int
    e_read_xbar_pj: float
    e_write_xbar_pj: float
    d_read_xbar_us: float
    d_write_xbar_us: float
    a_xbar_mm2: float
    read_var: float = 0.0
    write_var: float = 0.0
    r_on_ohm: float = 100e3
    r_off_ohm: float = 10e6

    def __post_init__(self) -> None:
        if self.bits_per_cell < 1:
            raise ValueError("bits_per_cell must be >= 1")
        for attr in ("e_read_xbar_pj", "e_write_xbar_pj", "d_read_xbar_us",
                     "d_write_xbar_us", "a_xbar_mm2", "r_on_ohm", "r_off_ohm"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        for attr in ("read_var", "write_var"):
            if not 0.0 <= getattr(self, attr) < 1.0:
                raise ValueError(f"{attr} must be in [0, 1)")
        if self.r_on_ohm >= self.r_off_ohm:
            raise ValueError("r_on must be below r_off")

    @property
    def g_min(self) -> float:
        return 1.0 / self.r_off_ohm

    @property
    def g_max(self) -> float:
        return 1.0 / self.r_on_ohm


@dataclass(frozen=True)
class TileConfig:
    xbar_size: int = 64
    n_xbar_per_pe: int = 8
    n_pe_per_tile: int = 8
    adc_bits: int = 6

    def __post_init__(self) -> None:
        if min(self.xbar_size, self.n_xbar_per_pe, self.n_pe_per_tile, self.adc_bits) < 1:
            raise ValueError("tile parameters must be >= 1")

    @property
    def xbars_per_tile(self) -> int:
        return self.n_xbar_per_pe * self.n_pe_per_tile


@dataclass(frozen=True)
class MappingResult:
    n_xbar_logical: int
    slice_factor: int
    n_xbar_physical: int
    n_tiles: int


DeviceAssignment = Mapping[LayerKind, DeviceParams]

# Arrays per mapped crossbar in the functional simulator: a signed weight
# is held as a positive and a negative column array. The cost model
# counts single-ended (one array per crossbar, see crossbars_for_layer),
# so the shipped energy and area numbers charge no negative arrays.
DIFFERENTIAL_ARRAYS = 2


def slice_factor(weight_bits: int, dev: DeviceParams) -> int:
    return math.ceil(weight_bits / dev.bits_per_cell)


def crossbars_for_layer(
    layer: LayerSpec,
    tiles: TileConfig,
    dev: DeviceParams,
    weight_bits: int,
) -> MappingResult:
    """Crossbar demand for one layer instance (one head, for matmuls).

    Counts are single-ended: signed weights are not charged a second,
    negative column array. The functional simulator programs
    ``DIFFERENTIAL_ARRAYS`` times this count.
    """
    x = tiles.xbar_size
    logical = math.ceil(layer.in_dim / x) * math.ceil(layer.out_dim / x)
    sf = slice_factor(weight_bits, dev)
    physical = logical * sf
    n_tiles = math.ceil(physical / tiles.xbars_per_tile)
    return MappingResult(logical, sf, physical, n_tiles)


def device_for(kind: LayerKind, dev: DeviceParams | DeviceAssignment) -> DeviceParams:
    if isinstance(dev, DeviceParams):
        return dev
    try:
        return dev[kind]
    except KeyError as exc:
        raise ValueError(f"device assignment misses layer kind {kind}") from exc


def hybrid_assignment(
    fc_device: DeviceParams, matmul_device: DeviceParams
) -> dict[LayerKind, DeviceParams]:
    """Dynamic matmul arrays on one device, static weights on another.

    The usual pairing is noise-sensitive matmuls on SRAM with
    everything else on denser FeFET.
    """
    table = {kind: fc_device for kind in LayerKind}
    table[LayerKind.MATMUL_QKT] = matmul_device
    table[LayerKind.MATMUL_SV] = matmul_device
    return table

