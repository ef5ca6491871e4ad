"""Analytic energy / delay / area model for crossbar-mapped encoders.

Per-layer costs (N = physical crossbars incl. per-head copies,
C = input_bits / input_split_bits serialization cycles):

    E_read  = t_L * N * E_RX * C          [pJ]
    E_write = N * E_WX                    [pJ]   (dynamic matmul arrays only)
    D_read  = t_L * D_RX * N_X_PE * C     [us]   (PE factor switchable)
    D_write = D_WX * N_X_PE               [us]
    A       = N * A_X                     [mm2]  (optionally tile-padded)

Digital softmax unit (per encoder, one unit per head, heads parallel):

    E_S = N_H * t_L^2 * (E_sel + E_exp + E_div)   [pJ]
    D_S =       t_L^2 * (D_sel + D_exp + D_div)   [ns]

Model aggregation over N_enc encoders with r of them reusing attention:

    X_model = N_enc * (X_mlp + X_proj) + (N_enc - r) * X_attn
              + r * X_tb + X_stem                       for X in {E, D, A}

The attention block covers Q/K/V reads, the K^T and V array writes,
both matmul reads and the softmax. Reads within an encoder execute
sequentially (one stage at a time); the copies of a per-head layer run
in parallel, so head count scales energy and area but not delay. The
transformation block of a reusing encoder is charged either as a
regular d x d crossbar FC or as explicit per-encoder constants
(``CostOptions.tb_on_crossbars``); its delay can be hidden by
computing the TB while earlier encoders execute, which the constants
mode expresses as zero delay. Encoder elementwise work (layer norm,
activation, residual adds) runs on the tile digital vector units and
is charged to the feed-forward block via per-encoder constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .mapping import (
    DeviceAssignment,
    DeviceParams,
    MappingResult,
    TileConfig,
    crossbars_for_layer,
    device_for,
)
from .workload import (
    WEIGHT_KINDS,
    WRITE_KINDS,
    LayerSpec,
    ModelConfig,
    attention_layers,
    encoder_macs,
    ffn_layers,
    stem_layers,
    stem_macs,
    tb_layer,
)


@dataclass(frozen=True)
class SoftmaxUnitParams:
    """Per-elementary-operation cost of the digital softmax unit.

    The unit's silicon area is negligible against the crossbar arrays
    and is not modelled. Shipped values are CALIBRATED: the source
    design was characterized by CMOS synthesis that is not reproduced
    here.
    """

    e_select_pj: float
    e_exponent_pj: float
    e_div_pj: float
    d_select_ns: float
    d_exponent_ns: float
    d_div_ns: float

    def __post_init__(self) -> None:
        # Zero is tolerated so degenerate unit configurations stay expressible.
        for attr in ("e_select_pj", "e_exponent_pj", "e_div_pj",
                     "d_select_ns", "d_exponent_ns", "d_div_ns"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")

    @property
    def e_total_pj(self) -> float:
        return self.e_select_pj + self.e_exponent_pj + self.e_div_pj

    @property
    def d_total_ns(self) -> float:
        return self.d_select_ns + self.d_exponent_ns + self.d_div_ns


@dataclass(frozen=True)
class CostOptions:
    """Aggregation conventions, all defaulting to the plain equations.

    pad_to_tiles       round each layer's area up to whole tiles
    read_delay_pe_factor  keep the N_X_PE multiplier in the read-delay
                       equation (switchable because it dominates
                       absolute delay)
    tb_on_crossbars    charge the transformation block as a mapped FC;
                       when False the tb_* constants are used instead
    vec_*              per-encoder digital vector-unit (layernorm,
                       activation, residual) cost, charged to the MLP
                       block
    """

    pad_to_tiles: bool = False
    read_delay_pe_factor: bool = True
    tb_on_crossbars: bool = True
    tb_energy_uj: float = 0.0
    tb_delay_us: float = 0.0
    tb_area_mm2: float = 0.0
    vec_energy_uj: float = 0.0
    vec_delay_us: float = 0.0


@dataclass(frozen=True)
class LayerCost:
    e_read_uj: float
    e_write_uj: float
    d_read_us: float
    d_write_us: float
    area_mm2: float
    weight_area_mm2: float = 0.0

    @property
    def e_total_uj(self) -> float:
        return self.e_read_uj + self.e_write_uj

    @property
    def d_total_us(self) -> float:
        return self.d_read_us + self.d_write_us


@dataclass(frozen=True)
class BlockCost:
    """Energy/delay/area of one encoder block (uJ / us / mm2).

    ``weight_area_mm2`` is the share of area holding static weights,
    the part that encoder-level weight sharing can divide.
    """

    e_uj: float = 0.0
    d_us: float = 0.0
    a_mm2: float = 0.0
    weight_area_mm2: float = 0.0

    def __add__(self, other: "BlockCost") -> "BlockCost":
        return BlockCost(
            self.e_uj + other.e_uj,
            self.d_us + other.d_us,
            self.a_mm2 + other.a_mm2,
            self.weight_area_mm2 + other.weight_area_mm2,
        )

    def scaled(self, k: float) -> "BlockCost":
        return BlockCost(
            self.e_uj * k, self.d_us * k, self.a_mm2 * k, self.weight_area_mm2 * k
        )


BLOCK_NAMES = ("attn", "tb", "proj", "mlp", "stem")


@dataclass(frozen=True)
class ModelCost:
    e_vit_mj: float
    d_vit_ms: float
    a_vit_mm2: float
    edap: float
    tops_per_w: float
    tops_per_mm2: float
    macs: int
    n_encoders: int
    n_reuse: int
    blocks: Mapping[str, BlockCost] = field(default_factory=dict)


def layer_cost(
    layer: LayerSpec,
    mapping: MappingResult,
    dev: DeviceParams,
    tiles: TileConfig,
    input_cycles: int,
    *,
    pad_to_tiles: bool = False,
    read_delay_pe_factor: bool = True,
) -> LayerCost:
    """Rows of the per-layer cost table for one (possibly multi-head) layer."""
    if input_cycles < 1:
        raise ValueError("input_cycles must be >= 1")
    n_phys = mapping.n_xbar_physical * layer.copies
    pe_factor = tiles.n_xbar_per_pe if read_delay_pe_factor else 1

    e_read_uj = layer.t_l * n_phys * dev.e_read_xbar_pj * input_cycles / 1e6
    d_read_us = layer.t_l * dev.d_read_xbar_us * pe_factor * input_cycles
    if layer.kind in WRITE_KINDS:
        e_write_uj = n_phys * dev.e_write_xbar_pj / 1e6
        d_write_us = dev.d_write_xbar_us * pe_factor
    else:
        e_write_uj = 0.0
        d_write_us = 0.0

    if pad_to_tiles:
        area_xbars = math.ceil(n_phys / tiles.xbars_per_tile) * tiles.xbars_per_tile
    else:
        area_xbars = n_phys
    area_mm2 = area_xbars * dev.a_xbar_mm2
    weight_area = area_mm2 if layer.kind in WEIGHT_KINDS else 0.0
    return LayerCost(e_read_uj, e_write_uj, d_read_us, d_write_us, area_mm2, weight_area)


def softmax_cost(cfg: ModelConfig, sp: SoftmaxUnitParams) -> tuple[float, float]:
    """(energy_uJ, delay_us) of one encoder's softmax over all heads.

    Heads own independent units, so energy carries the head factor
    while delay does not.
    """
    t_sq = cfg.t * cfg.t
    e_uj = cfg.n_heads * t_sq * sp.e_total_pj / 1e6
    d_us = t_sq * sp.d_total_ns / 1e3
    return e_uj, d_us


@dataclass(frozen=True)
class BlockTable:
    """One configuration's blocks, each costed once.

    ``blocks`` holds one encoder's attn, tb, proj and mlp blocks and the
    model's stem; ``macs`` counts a full encoder, a reusing encoder and
    the stem. Model cost is linear in the block counts, so every model
    cost is an ``assemble`` of tables. ``inputs`` records the (cfg, dev,
    tiles, sp, opts) it was costed from.
    """

    blocks: Mapping[str, BlockCost]
    macs: tuple[int, int, int]
    inputs: tuple = field(default=(), compare=False, repr=False)


def block_table(
    cfg: ModelConfig,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    sp: SoftmaxUnitParams,
    opts: CostOptions = CostOptions(),
) -> BlockTable:
    """Per-encoder blocks and the stem, summed layer by layer.

    attn: Q/K/V reads, K^T and V writes, both matmul reads, softmax.
    tb: the mapped d x d FC, or the ``tb_*`` constants.
    proj: the output projection.
    mlp: both MLP FCs plus the digital vector-unit constants.
    stem: patch embedding and classifier when ``include_stem`` is set.
    """

    def block(layers: Sequence[LayerSpec], extra: BlockCost = BlockCost()) -> BlockCost:
        total = BlockCost()
        for layer in layers:
            ldev = device_for(layer.kind, dev)
            lc = layer_cost(
                layer,
                crossbars_for_layer(layer, tiles, ldev, cfg.weight_bits),
                ldev,
                tiles,
                cfg.input_cycles,
                pad_to_tiles=opts.pad_to_tiles,
                read_delay_pe_factor=opts.read_delay_pe_factor,
            )
            total = total + BlockCost(
                lc.e_total_uj, lc.d_total_us, lc.area_mm2, lc.weight_area_mm2
            )
        return total + extra

    proj, mlp1, mlp2 = ffn_layers(cfg)
    if opts.tb_on_crossbars:
        tb = block([tb_layer(cfg)])
    else:
        tb = BlockCost(opts.tb_energy_uj, opts.tb_delay_us, opts.tb_area_mm2, opts.tb_area_mm2)
    blocks = {
        "attn": block(attention_layers(cfg), BlockCost(*softmax_cost(cfg, sp))),
        "tb": tb,
        "proj": block([proj]),
        "mlp": block([mlp1, mlp2], BlockCost(opts.vec_energy_uj, opts.vec_delay_us)),
        "stem": block(stem_layers(cfg) if cfg.include_stem else ()),
    }
    macs = (encoder_macs(cfg), encoder_macs(cfg, reuses=True), stem_macs(cfg))
    return BlockTable(blocks, macs, (cfg, dev, tiles, sp, opts))


def assemble(
    groups: Sequence[tuple[BlockTable, int, int]],
    overhead: tuple[float, float, float] = (0.0, 0.0, 0.0),
    ws: int = 1,
) -> ModelCost:
    """Whole-model cost from block tables scaled by their encoder counts.

    Each group is (table, full encoders, reusing encoders): attn counts
    the full ones, tb the reusing ones, proj and mlp both. The first
    table's stem is charged once. ``overhead`` adds a constant
    (energy_mJ, delay_ms, area_mm2); ``ws`` encoders share one weight
    set, dividing the weight area of the encoder blocks.
    """
    blocks = {name: BlockCost() for name in BLOCK_NAMES}
    for table, n_full, n_reuse in groups:
        counts = {"attn": n_full, "tb": n_reuse, "proj": n_full + n_reuse,
                  "mlp": n_full + n_reuse}
        for name, count in counts.items():
            blocks[name] = blocks[name] + table.blocks[name].scaled(count)
    blocks["stem"] = groups[0][0].blocks["stem"]
    if ws > 1:
        for name in ("attn", "tb", "proj", "mlp"):
            b = blocks[name]
            shared_w = b.weight_area_mm2 / ws
            blocks[name] = BlockCost(
                b.e_uj, b.d_us, b.a_mm2 - b.weight_area_mm2 + shared_w, shared_w
            )

    e_o, d_o, a_o = overhead
    e_mj = sum(b.e_uj for b in blocks.values()) / 1e3 + e_o
    d_ms = sum(b.d_us for b in blocks.values()) / 1e3 + d_o
    a_mm2 = sum(b.a_mm2 for b in blocks.values()) + a_o
    macs = groups[0][0].macs[2] + sum(
        n_full * table.macs[0] + n_reuse * table.macs[1] for table, n_full, n_reuse in groups
    )
    return ModelCost(
        e_vit_mj=e_mj,
        d_vit_ms=d_ms,
        a_vit_mm2=a_mm2,
        edap=e_mj * d_ms * a_mm2,
        tops_per_w=macs / (e_mj * 1e9) if e_mj > 0 else math.inf,
        tops_per_mm2=macs / (d_ms * 1e9 * a_mm2) if d_ms > 0 and a_mm2 > 0 else math.inf,
        macs=macs,
        n_encoders=sum(n_full + n_reuse for _, n_full, n_reuse in groups),
        n_reuse=sum(n_reuse for _, _, n_reuse in groups),
        blocks=blocks,
    )


def table_for(
    cfg: ModelConfig,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    sp: SoftmaxUnitParams,
    opts: CostOptions,
    table: BlockTable | None,
) -> BlockTable:
    """``table`` if the caller built it from exactly these inputs, else a
    new ``block_table``; a table of other inputs would cost silently wrong."""
    if table is None:
        return block_table(cfg, dev, tiles, sp, opts)
    if table.inputs != (cfg, dev, tiles, sp, opts):
        raise ValueError("the block table was built from other inputs")
    return table


def model_cost(
    cfg: ModelConfig,
    n_reuse: int,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    sp: SoftmaxUnitParams,
    opts: CostOptions = CostOptions(),
) -> ModelCost:
    """Whole-model cost for an isotropic stack with ``n_reuse`` reusers.

    Where a reusing encoder sits does not matter for cost, only how
    many there are, so a count is sufficient here.
    """
    if not 0 <= n_reuse <= cfg.n_encoders:
        raise ValueError(f"n_reuse={n_reuse} out of [0, {cfg.n_encoders}]")
    table = block_table(cfg, dev, tiles, sp, opts)
    return assemble([(table, cfg.n_encoders - n_reuse, n_reuse)])


def breakdown(mc: ModelCost) -> dict[str, dict[str, float]]:
    """Per-block shares of energy, delay, area and EDAP.

    The E/D/A shares each sum to 1. A block's EDAP weight is the
    product of its own three totals, normalized across blocks; blocks
    missing any dimension (e.g. zero-delay TBs) weigh zero.
    """
    shares: dict[str, dict[str, float]] = {"e": {}, "d": {}, "a": {}, "edap": {}}
    totals = {
        "e": sum(b.e_uj for b in mc.blocks.values()),
        "d": sum(b.d_us for b in mc.blocks.values()),
        "a": sum(b.a_mm2 for b in mc.blocks.values()),
    }
    edap_weights = {
        name: b.e_uj * b.d_us * b.a_mm2 for name, b in mc.blocks.items()
    }
    edap_total = sum(edap_weights.values())
    for name, b in mc.blocks.items():
        shares["e"][name] = b.e_uj / totals["e"] if totals["e"] else 0.0
        shares["d"][name] = b.d_us / totals["d"] if totals["d"] else 0.0
        shares["a"][name] = b.a_mm2 / totals["a"] if totals["a"] else 0.0
        shares["edap"][name] = edap_weights[name] / edap_total if edap_total else 0.0
    return shares


def apply_weight_sharing(
    cfg: ModelConfig,
    ws: int,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    sp: SoftmaxUnitParams,
    opts: CostOptions = CostOptions(),
    *,
    table: BlockTable | None = None,
) -> ModelCost:
    """ws encoders share one weight set: weight area shrinks, E/D do not.

    Dynamic K^T / V arrays stay per-encoder (they buffer activations),
    and the stem is already unshared. Energy and delay are returned
    bit-identical to the unshared model. ``table`` is this
    configuration's ``block_table``, when the caller has built it
    (``table_for``).
    """
    if ws < 1:
        raise ValueError("ws must be >= 1")
    if cfg.n_encoders % ws != 0:
        raise ValueError(f"ws={ws} does not divide n_encoders={cfg.n_encoders}")
    return assemble([(table_for(cfg, dev, tiles, sp, opts, table), cfg.n_encoders, 0)],
                    ws=ws)


def apply_token_pruning(
    cfg: ModelConfig,
    p: float,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    sp: SoftmaxUnitParams,
    opts: CostOptions = CostOptions(),
    predictor_overhead: tuple[float, float, float] = (0.0, 0.0, 0.0),
    prune_from_encoder: int = 0,
    *,
    table: BlockTable | None = None,
) -> ModelCost:
    """Drop a fraction p of tokens from ``prune_from_encoder`` onward.

    The standalone predictor networks that pick the tokens are charged
    as a constant (energy_mJ, delay_ms, area_mm2) overhead; shipped
    configs carry a CALIBRATED default. The stem always sees the full
    token count (pruning happens after embedding). ``table`` is the
    unpruned configuration's ``block_table``, when the caller has built
    it (``table_for``); only the reduced-token table is built then.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"pruning ratio must be in [0, 1), got {p}")
    if not 0 <= prune_from_encoder < cfg.n_encoders:
        raise ValueError("prune_from_encoder out of range")
    t_pruned = max(1, round(cfg.t * (1.0 - p)))
    full = table_for(cfg, dev, tiles, sp, opts, table)
    pruned = (full if t_pruned == cfg.t
              else block_table(replace(cfg, t=t_pruned), dev, tiles, sp, opts))
    groups = [(full, prune_from_encoder, 0),
              (pruned, cfg.n_encoders - prune_from_encoder, 0)]
    return assemble(groups, predictor_overhead)
