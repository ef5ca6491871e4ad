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
    EncoderSpec,
    LayerKind,
    LayerSpec,
    ModelConfig,
    attention_layers,
    encoder_macs,
    ffn_layers,
    mac_count,
    stem_layers,
    stem_macs,
    tb_layer,
    with_tokens,
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
    if layer.kind is LayerKind.SOFTMAX:
        raise ValueError("softmax is costed by softmax_cost, not layer_cost")
    if input_cycles < 1:
        raise ValueError("input_cycles must be >= 1")
    n_phys = mapping.n_xbar_physical * layer.copies
    pe_factor = tiles.n_xbar_per_pe if read_delay_pe_factor else 1

    e_read_uj = layer.t_l * n_phys * dev.e_read_xbar_pj * input_cycles / 1e6
    d_read_us = layer.t_l * dev.d_read_xbar_us * pe_factor * input_cycles
    if layer.requires_write:
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


def _mapped_layer_cost(
    layer: LayerSpec,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    cfg: ModelConfig,
    opts: CostOptions,
) -> LayerCost:
    ldev = device_for(layer.kind, dev)
    mapping = crossbars_for_layer(layer, tiles, ldev, cfg.weight_bits)
    return layer_cost(
        layer,
        mapping,
        ldev,
        tiles,
        cfg.input_cycles,
        pad_to_tiles=opts.pad_to_tiles,
        read_delay_pe_factor=opts.read_delay_pe_factor,
    )


def _sum_layers(
    layers: Sequence[LayerSpec],
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    cfg: ModelConfig,
    opts: CostOptions,
) -> BlockCost:
    total = BlockCost()
    for layer in layers:
        lc = _mapped_layer_cost(layer, dev, tiles, cfg, opts)
        total = total + BlockCost(
            lc.e_total_uj, lc.d_total_us, lc.area_mm2, lc.weight_area_mm2
        )
    return total


def attention_block_cost(
    cfg: ModelConfig,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    sp: SoftmaxUnitParams,
    opts: CostOptions = CostOptions(),
) -> BlockCost:
    """Q/K/V reads, K^T and V writes, both matmul reads, softmax."""
    crossbar_layers = [l for l in attention_layers(cfg) if l.kind is not LayerKind.SOFTMAX]
    block = _sum_layers(crossbar_layers, dev, tiles, cfg, opts)
    e_s, d_s = softmax_cost(cfg, sp)
    return block + BlockCost(e_s, d_s, 0.0, 0.0)


def proj_block_cost(cfg, dev, tiles, opts=CostOptions()) -> BlockCost:
    proj, _, _ = ffn_layers(cfg)
    return _sum_layers([proj], dev, tiles, cfg, opts)


def mlp_block_cost(cfg, dev, tiles, opts=CostOptions()) -> BlockCost:
    """Both MLP FCs plus the encoder's digital vector-unit constants."""
    _, mlp1, mlp2 = ffn_layers(cfg)
    block = _sum_layers([mlp1, mlp2], dev, tiles, cfg, opts)
    return block + BlockCost(opts.vec_energy_uj, opts.vec_delay_us, 0.0, 0.0)


def tb_block_cost(cfg, dev, tiles, opts=CostOptions()) -> BlockCost:
    if opts.tb_on_crossbars:
        return _sum_layers([tb_layer(cfg)], dev, tiles, cfg, opts)
    return BlockCost(
        opts.tb_energy_uj, opts.tb_delay_us, opts.tb_area_mm2, opts.tb_area_mm2
    )


def stem_block_cost(cfg, dev, tiles, opts=CostOptions()) -> BlockCost:
    if not cfg.include_stem:
        return BlockCost()
    return _sum_layers(stem_layers(cfg), dev, tiles, cfg, opts)


def _assemble(
    cfg: ModelConfig,
    n_reuse: int,
    blocks: Mapping[str, BlockCost],
    macs: int,
) -> ModelCost:
    e_uj = sum(b.e_uj for b in blocks.values())
    d_us = sum(b.d_us for b in blocks.values())
    a_mm2 = sum(b.a_mm2 for b in blocks.values())
    e_mj = e_uj / 1e3
    d_ms = d_us / 1e3
    edap = e_mj * d_ms * a_mm2
    tops_per_w = macs / (e_mj * 1e9) if e_mj > 0 else math.inf
    tops_per_mm2 = macs / (d_ms * 1e9 * a_mm2) if d_ms > 0 and a_mm2 > 0 else math.inf
    return ModelCost(
        e_vit_mj=e_mj,
        d_vit_ms=d_ms,
        a_vit_mm2=a_mm2,
        edap=edap,
        tops_per_w=tops_per_w,
        tops_per_mm2=tops_per_mm2,
        macs=macs,
        n_encoders=cfg.n_encoders,
        n_reuse=n_reuse,
        blocks=dict(blocks),
    )


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
    many there are, so a count is sufficient here; use
    ``model_cost_for`` to cost a built encoder list.
    """
    if not 0 <= n_reuse <= cfg.n_encoders:
        raise ValueError(f"n_reuse={n_reuse} out of [0, {cfg.n_encoders}]")
    n = cfg.n_encoders
    blocks = {
        "attn": attention_block_cost(cfg, dev, tiles, sp, opts).scaled(n - n_reuse),
        "tb": tb_block_cost(cfg, dev, tiles, opts).scaled(n_reuse),
        "proj": proj_block_cost(cfg, dev, tiles, opts).scaled(n),
        "mlp": mlp_block_cost(cfg, dev, tiles, opts).scaled(n),
        "stem": stem_block_cost(cfg, dev, tiles, opts),
    }
    return _assemble(cfg, n_reuse, blocks, mac_count(cfg, n_reuse=n_reuse))


def model_cost_for(
    model: Sequence[EncoderSpec],
    cfg: ModelConfig,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    sp: SoftmaxUnitParams,
    opts: CostOptions = CostOptions(),
    n_reuse: int | None = None,
) -> ModelCost:
    """Cost of a built encoder stack; rejects an inconsistent n_reuse."""
    if len(model) != cfg.n_encoders:
        raise ValueError(f"model has {len(model)} encoders, config says {cfg.n_encoders}")
    actual = sum(1 for enc in model if enc.reuses_attention)
    if n_reuse is not None and n_reuse != actual:
        raise ValueError(f"n_reuse={n_reuse} but model contains {actual} reusing encoders")
    return model_cost(cfg, actual, dev, tiles, sp, opts)


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
    n_reuse: int = 0,
) -> ModelCost:
    """ws encoders share one weight set: weight area shrinks, E/D do not.

    Dynamic K^T / V arrays stay per-encoder (they buffer activations),
    and the stem is already unshared. Energy and delay are returned
    bit-identical to the unshared model.
    """
    if ws < 1:
        raise ValueError("ws must be >= 1")
    if cfg.n_encoders % ws != 0:
        raise ValueError(f"ws={ws} does not divide n_encoders={cfg.n_encoders}")
    base = model_cost(cfg, n_reuse, dev, tiles, sp, opts)
    if ws == 1:
        return base
    blocks = dict(base.blocks)
    for name in ("attn", "tb", "proj", "mlp"):
        b = blocks[name]
        shared_w = b.weight_area_mm2 / ws
        blocks[name] = BlockCost(
            b.e_uj, b.d_us, b.a_mm2 - b.weight_area_mm2 + shared_w, shared_w
        )
    return _assemble(cfg, n_reuse, blocks, base.macs)


def apply_token_pruning(
    cfg: ModelConfig,
    p: float,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    sp: SoftmaxUnitParams,
    opts: CostOptions = CostOptions(),
    predictor_overhead: tuple[float, float, float] = (0.0, 0.0, 0.0),
    prune_from_encoder: int = 0,
) -> ModelCost:
    """Drop a fraction p of tokens from ``prune_from_encoder`` onward.

    The standalone predictor networks that pick the tokens are charged
    as a constant (energy_mJ, delay_ms, area_mm2) overhead; shipped
    configs carry a CALIBRATED default. The stem always sees the full
    token count (pruning happens after embedding).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"pruning ratio must be in [0, 1), got {p}")
    if not 0 <= prune_from_encoder < cfg.n_encoders:
        raise ValueError("prune_from_encoder out of range")
    t_pruned = max(1, round(cfg.t * (1.0 - p)))
    e_o, d_o, a_o = predictor_overhead

    if t_pruned == cfg.t and (e_o, d_o, a_o) == (0.0, 0.0, 0.0):
        return model_cost(cfg, 0, dev, tiles, sp, opts)

    cfg_pruned = with_tokens(cfg, t_pruned)
    groups = [(cfg, prune_from_encoder), (cfg_pruned, cfg.n_encoders - prune_from_encoder)]
    blocks = {name: BlockCost() for name in BLOCK_NAMES}
    macs = 0
    for group_cfg, count in groups:
        if count == 0:
            continue
        blocks["attn"] = blocks["attn"] + attention_block_cost(
            group_cfg, dev, tiles, sp, opts
        ).scaled(count)
        blocks["proj"] = blocks["proj"] + proj_block_cost(group_cfg, dev, tiles, opts).scaled(count)
        blocks["mlp"] = blocks["mlp"] + mlp_block_cost(group_cfg, dev, tiles, opts).scaled(count)
        macs += encoder_macs(group_cfg) * count
    blocks["stem"] = stem_block_cost(cfg, dev, tiles, opts)
    macs += stem_macs(cfg)

    pruned = _assemble(cfg, 0, blocks, macs)
    e_mj = pruned.e_vit_mj + e_o
    d_ms = pruned.d_vit_ms + d_o
    a_mm2 = pruned.a_vit_mm2 + a_o
    edap = e_mj * d_ms * a_mm2
    return replace(
        pruned,
        e_vit_mj=e_mj,
        d_vit_ms=d_ms,
        a_vit_mm2=a_mm2,
        edap=edap,
        tops_per_w=macs / (e_mj * 1e9),
        tops_per_mm2=macs / (d_ms * 1e9 * a_mm2),
    )
