"""Toy-scale functional simulation of crossbar-mapped encoder inference."""

from .quant import QuantizedMatrix, quantize
from .crossbar import (
    CrossbarState,
    NoiseModel,
    ProgrammedMatrix,
    ideal_conductances,
    mvm_bitserial,
    program_matrix,
)
from .forward import (
    EncoderWeights,
    ForwardResult,
    SimContext,
    attention_forward,
    gelu,
    layer_norm,
    make_toy_weights,
    model_forward,
    stable_softmax,
    tb_forward,
    toy_config,
)
from .tensorio import load_tensor, save_tensor
