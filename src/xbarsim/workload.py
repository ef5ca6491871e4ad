"""Transformer encoder workloads as explicit per-layer dimension lists.

A workload is a ``ModelConfig``: a stack of identically shaped
encoders, each described by the layers that touch crossbars
(fully-connected projections, the two dynamic matmuls); the digital
softmax between the matmuls is costed on its own. A reuse set names
the encoders that take a previous encoder's attention; they replace
the whole attention group with a single d x d transformation FC.

Dimension conventions:
    d        embedding width
    t        tokens per input
    d_h      per-head width (d / n_heads)
    t_L      rows of activation pushed through a layer per inference
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class LayerKind(Enum):
    FC_Q = "fc_q"
    FC_K = "fc_k"
    FC_V = "fc_v"
    MATMUL_QKT = "matmul_qkt"
    MATMUL_SV = "matmul_sv"
    FC_PROJ = "fc_proj"
    FC_MLP1 = "fc_mlp1"
    FC_MLP2 = "fc_mlp2"
    TB_FC = "tb_fc"
    PATCH_EMBED = "patch_embed"
    CLASSIFIER = "classifier"


# Dynamic matmul arrays are rewritten with fresh K^T / V values every
# inference; everything else holds static weights.
WRITE_KINDS = frozenset({LayerKind.MATMUL_QKT, LayerKind.MATMUL_SV})

# Layers whose contents are model weights (sharable between encoders),
# as opposed to per-inference activation buffers.
WEIGHT_KINDS = frozenset(
    {
        LayerKind.FC_Q,
        LayerKind.FC_K,
        LayerKind.FC_V,
        LayerKind.FC_PROJ,
        LayerKind.FC_MLP1,
        LayerKind.FC_MLP2,
        LayerKind.TB_FC,
        LayerKind.PATCH_EMBED,
        LayerKind.CLASSIFIER,
    }
)


@dataclass(frozen=True)
class ModelConfig:
    """Shape of one transformer workload.

    ``input_split_bits`` is the activation slice width fed to the array
    per cycle; read costs in the cost model scale with
    ``input_bits // input_split_bits`` cycles. The shipped calibrated
    presets set it equal to ``input_bits`` because their per-crossbar
    read constants already describe one full input presentation.
    """

    name: str
    d: int
    t: int
    mlp_ratio: float
    n_encoders: int
    n_heads: int
    weight_bits: int = 8
    input_bits: int = 8
    input_split_bits: int = 1
    include_stem: bool = True
    stem_in_dim: int = 768  # 16x16 patch * 3 channels
    n_classes: int = 1000

    def __post_init__(self) -> None:
        for attr in ("d", "t", "n_heads", "weight_bits",
                     "input_bits", "input_split_bits"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be >= 1, got {getattr(self, attr)}")
        if self.n_encoders < 0:  # an empty stack is a valid counting edge case
            raise ValueError("n_encoders must be >= 0")
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if self.input_bits % self.input_split_bits != 0:
            raise ValueError(
                f"input_split_bits={self.input_split_bits} does not divide "
                f"input_bits={self.input_bits}"
            )
        if self.mlp_ratio <= 0:
            raise ValueError("mlp_ratio must be positive")
        if abs(self.d * self.mlp_ratio - round(self.d * self.mlp_ratio)) > 1e-9:
            raise ValueError("d * mlp_ratio must be an integer")

    @property
    def head_dim(self) -> int:
        return self.d // self.n_heads

    @property
    def mlp_dim(self) -> int:
        return int(round(self.d * self.mlp_ratio))

    @property
    def input_cycles(self) -> int:
        return self.input_bits // self.input_split_bits


@dataclass(frozen=True)
class LayerSpec:
    """One mappable layer of an encoder.

    ``copies`` counts parallel physical instances: the per-head matmuls
    exist once per attention head. Costs that sum over crossbars
    multiply by ``copies``; delays do not (heads run in parallel).
    """

    kind: LayerKind
    in_dim: int
    out_dim: int
    t_l: int
    copies: int = 1

    def __post_init__(self) -> None:
        if min(self.in_dim, self.out_dim, self.t_l, self.copies) < 1:
            raise ValueError("layer dimensions must be >= 1")

    @property
    def macs(self) -> int:
        """Multiply-accumulates per inference."""
        return self.t_l * self.in_dim * self.out_dim * self.copies


def attention_layers(cfg: ModelConfig) -> tuple[LayerSpec, ...]:
    """Q/K/V projections, per-head QK^T and per-head SV.

    The QK^T array stores K^T (head_dim x t per head) and the SV array
    stores V (t x head_dim per head); both are rewritten per inference.
    """
    d, t, h = cfg.d, cfg.t, cfg.n_heads
    d_h = cfg.head_dim
    return (
        LayerSpec(LayerKind.FC_Q, d, d, t),
        LayerSpec(LayerKind.FC_K, d, d, t),
        LayerSpec(LayerKind.FC_V, d, d, t),
        LayerSpec(LayerKind.MATMUL_QKT, d_h, t, t, copies=h),
        LayerSpec(LayerKind.MATMUL_SV, t, d_h, t, copies=h),
    )


def tb_layer(cfg: ModelConfig) -> LayerSpec:
    return LayerSpec(LayerKind.TB_FC, cfg.d, cfg.d, cfg.t)


def ffn_layers(cfg: ModelConfig) -> tuple[LayerSpec, ...]:
    d, t = cfg.d, cfg.t
    return (
        LayerSpec(LayerKind.FC_PROJ, d, d, t),
        LayerSpec(LayerKind.FC_MLP1, d, cfg.mlp_dim, t),
        LayerSpec(LayerKind.FC_MLP2, cfg.mlp_dim, d, t),
    )


def stem_layers(cfg: ModelConfig) -> tuple[LayerSpec, ...]:
    """Patch embedding and classifier head; classifier sees one token."""
    return (
        LayerSpec(LayerKind.PATCH_EMBED, cfg.stem_in_dim, cfg.d, cfg.t),
        LayerSpec(LayerKind.CLASSIFIER, cfg.d, cfg.n_classes, 1),
    )


def encoder_macs(cfg: ModelConfig, reuses: bool = False) -> int:
    """MACs of one encoder; a reusing one swaps attention for its TB."""
    attention = (tb_layer(cfg),) if reuses else attention_layers(cfg)
    return sum(layer.macs for layer in attention + ffn_layers(cfg))


def stem_macs(cfg: ModelConfig) -> int:
    if not cfg.include_stem:
        return 0
    return sum(layer.macs for layer in stem_layers(cfg))


def mac_count(cfg: ModelConfig, n_reuse: int = 0) -> int:
    """Multiply-accumulates per inference with ``n_reuse`` reusing encoders;
    softmax contributes none. One MAC counts as one operation (not two
    FLOPs). All encoders share one shape, so the count fixes the total."""
    if not 0 <= n_reuse <= cfg.n_encoders:
        raise ValueError(f"n_reuse={n_reuse} out of range")
    full = encoder_macs(cfg, reuses=False)
    reusing = encoder_macs(cfg, reuses=True)
    return (cfg.n_encoders - n_reuse) * full + n_reuse * reusing + stem_macs(cfg)
