"""Functional forward pass of an encoder stack, exact or crossbar-backed.

Every matrix product can either run as plain float math (exact mode)
or through the quantize -> program -> bit-serial read -> ADC pipeline
with per-layer device assignment, its integer result rescaled by the
two quantization scales. Elementwise work (layer norm, softmax, GELU,
residual adds) always runs in float, mirroring the digital units of
the platform.

Encoders are pre-norm: x += Proj(Attn(LN(x))); x += MLP(LN(x)).
A reusing encoder replaces Attn(LN(x)) with TB(a_src), where a_src is
the source encoder's concatenated attention output and TB is
layer-norm -> d x d FC -> GELU. Layer norm has no affine parameters.
Attention scales scores by 1/sqrt(d) (the embedding width, as the
platform defines it). Weights are keyed by ``LayerKind`` and shaped by
the cost model's layer specs, so both engines describe one encoder.

Every crossbar matmul call programs its matrix before reading it. Each
static weight is used once per forward call, so it is programmed once
per call; the K^T and V matmul arrays are programmed at every attention
evaluation, which is where FeFET write variations bite.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
from typing import Iterable

import numpy as np

from ..mapping import DeviceAssignment, DeviceParams, TileConfig, device_for
from ..patterns import explicit_pattern, source_array
from ..workload import (
    WEIGHT_KINDS,
    LayerKind,
    ModelConfig,
    attention_layers,
    ffn_layers,
    tb_layer,
)
from .crossbar import NoiseModel, mvm_bitserial, program_matrix
from .quant import quantize


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax; finite for arbitrarily large inputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of an empty array")
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU, 0.5·x·(1 + erf(x/√2)), with the standard library's erf."""
    x = np.asarray(x, dtype=np.float64)
    z = x / math.sqrt(2.0)
    erf = np.fromiter(map(math.erf, z.ravel().tolist()), np.float64, count=z.size)
    return 0.5 * x * (1.0 + erf.reshape(z.shape))


def layer_norm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


# One encoder's bias-free weight matrices, keyed by the layer they feed.
EncoderWeights = dict[LayerKind, np.ndarray]


def toy_config(
    n_encoders: int = 8, d: int = 64, t: int = 32, n_heads: int = 4
) -> ModelConfig:
    """The shipped toy workload: small enough for dense oracles."""
    return ModelConfig(
        name="toy", d=d, t=t, mlp_ratio=2, n_encoders=n_encoders,
        n_heads=n_heads, include_stem=False,
    )


# Share of each toy weight carried over from the previous encoder.
DEPTH_MIXING = 0.8


def make_toy_weights(cfg: ModelConfig, seed: int = 0) -> list[EncoderWeights]:
    """Random weights for every encoder, TB weights included.

    Every weight layer of the cost model's encoder (Q, K, V, PROJ, MLP1,
    MLP2, TB, in that draw order) gets an (in_dim, out_dim) matrix from
    its ``LayerSpec``, starting from the usual 1/sqrt(in_dim) init.
    Parameters evolve smoothly with depth (variance-preserving mixing
    with weight ``DEPTH_MIXING``), mimicking the gradual specialization
    of trained stacks: adjacent encoders compute strongly correlated
    attention, distant ones drift apart.
    """
    rng = np.random.default_rng(seed)
    layers = [layer for layer in attention_layers(cfg) + ffn_layers(cfg) + (tb_layer(cfg),)
              if layer.kind in WEIGHT_KINDS]
    fresh = math.sqrt(1.0 - DEPTH_MIXING**2)
    weights: list[EncoderWeights] = []
    for i in range(cfg.n_encoders):
        current = {}
        for layer in layers:
            draw = rng.normal(0.0, 1.0 / math.sqrt(layer.in_dim),
                              size=(layer.in_dim, layer.out_dim))
            current[layer.kind] = (draw if i == 0 else
                                   DEPTH_MIXING * weights[-1][layer.kind] + fresh * draw)
        weights.append(current)
    return weights


@dataclass
class SimStats:
    attention_evals: int = 0
    crossbar_matmuls: int = 0
    matmul_programmings: int = 0


@dataclass
class SimContext:
    """Per-inference simulation state.

    ``assignment`` is one device for every layer or maps each layer kind
    to its device; None runs the whole model in exact float math.
    ``tiles`` gives the crossbar size and the ADC resolution
    (``tiles.adc_bits``). Noise magnitudes come from each layer's own
    device (so hybrid stacks get FeFET variations on FC layers and none
    on SRAM matmuls); ``device_noise=False`` keeps ADC quantization but
    silences device variations everywhere. ``rng``, the only source of
    device noise, is ``default_rng(seed)``, so identical contexts replay
    identically; parallel inferences should use distinct seeds.
    """

    assignment: DeviceParams | DeviceAssignment | None = None
    tiles: TileConfig = TileConfig()
    _: KW_ONLY
    device_noise: bool = True
    multiplicative: bool = True
    weight_bits: int = 8
    input_bits: int = 8
    seed: int = 0
    rng: np.random.Generator = field(init=False)
    stats: SimStats = field(init=False, default_factory=SimStats)

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)

    def _layer_noise(self, dev: DeviceParams) -> NoiseModel:
        return NoiseModel(
            read_var=dev.read_var if self.device_noise else 0.0,
            write_var=dev.write_var if self.device_noise else 0.0,
            adc_bits=self.tiles.adc_bits,
            multiplicative=self.multiplicative,
        )

    def matmul(self, x: np.ndarray, w: np.ndarray, kind: LayerKind) -> np.ndarray:
        """x @ w, either exact or through a freshly programmed crossbar."""
        if self.assignment is None:
            return x @ w
        dev = device_for(kind, self.assignment)
        noise = self._layer_noise(dev)
        qw = quantize(w, self.weight_bits)
        pm = program_matrix(qw.values, dev, self.tiles, self.weight_bits, noise, self.rng)
        self.stats.matmul_programmings += 1
        qx = quantize(x, self.input_bits)
        out_int = mvm_bitserial(pm, qx.values, noise, self.rng)
        self.stats.crossbar_matmuls += 1
        return out_int.astype(np.float64) * (qx.scale * qw.scale)


@dataclass
class ForwardResult:
    output: np.ndarray
    attention_outputs: list[np.ndarray]
    stats: SimStats


def attention_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    n_heads: int,
    scale: float,
    ctx: SimContext | None = None,
) -> np.ndarray:
    """Multi-head attention over full t x d Q, K, V; returns the concat.

    In crossbar mode the per-head K^T and V matrices are freshly
    programmed (write noise included) before their reads.
    """
    ctx = ctx or SimContext()
    t, d = q.shape
    if k.shape != (t, d) or v.shape != (t, d):
        raise ValueError("Q, K, V must share the same t x d shape")
    if d % n_heads != 0:
        raise ValueError(f"d={d} not divisible by n_heads={n_heads}")
    d_h = d // n_heads
    heads = []
    for h in range(n_heads):
        cols = slice(h * d_h, (h + 1) * d_h)
        qh, kh, vh = q[:, cols], k[:, cols], v[:, cols]
        scores = ctx.matmul(qh, kh.T, LayerKind.MATMUL_QKT) * scale
        probs = stable_softmax(scores, axis=-1)
        heads.append(ctx.matmul(probs, vh, LayerKind.MATMUL_SV))
    return np.concatenate(heads, axis=1)


def tb_forward(attn: np.ndarray, weights: EncoderWeights,
               ctx: SimContext | None = None) -> np.ndarray:
    """Transformation block: layer norm -> d x d FC -> GELU."""
    ctx = ctx or SimContext()
    return gelu(ctx.matmul(layer_norm(attn), weights[LayerKind.TB_FC], LayerKind.TB_FC))


def model_forward(
    cfg: ModelConfig,
    weights: "list[EncoderWeights]",
    x: np.ndarray,
    ctx: SimContext | None = None,
    reuse: Iterable[int] = (),
) -> ForwardResult:
    """Run the ``cfg`` stack, capturing per-encoder attention outputs.

    Encoders in ``reuse`` take the attention of the nearest preceding
    encoder outside it, through their transformation block.
    """
    reuse_set = explicit_pattern(cfg.n_encoders, reuse).reuse_set
    sources = dict(zip(reuse_set, source_array(np.array([reuse_set], np.intp))[0].tolist()))
    ctx = ctx or SimContext()
    if len(weights) != cfg.n_encoders:
        raise ValueError("one EncoderWeights per encoder required")
    x = np.asarray(x, dtype=np.float64)
    scale = 1.0 / math.sqrt(cfg.d)

    attn_outputs: list[np.ndarray] = []
    for i, w in enumerate(weights):
        if i in sources:
            a = tb_forward(attn_outputs[sources[i]], w, ctx)
        else:
            h = layer_norm(x)
            q, k, v = (ctx.matmul(h, w[kind], kind)
                       for kind in (LayerKind.FC_Q, LayerKind.FC_K, LayerKind.FC_V))
            a = attention_forward(q, k, v, cfg.n_heads, scale, ctx)
            ctx.stats.attention_evals += 1
        attn_outputs.append(a)
        x = x + ctx.matmul(a, w[LayerKind.FC_PROJ], LayerKind.FC_PROJ)
        hidden = gelu(ctx.matmul(layer_norm(x), w[LayerKind.FC_MLP1], LayerKind.FC_MLP1))
        x = x + ctx.matmul(hidden, w[LayerKind.FC_MLP2], LayerKind.FC_MLP2)
    return ForwardResult(x, attn_outputs, ctx.stats)
