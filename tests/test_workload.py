import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import encoder_layers, reuse_sources
from xbarsim.funcsim.forward import make_toy_weights, model_forward, toy_config
from xbarsim.workload import (
    WEIGHT_KINDS,
    WRITE_KINDS,
    LayerKind,
    LayerSpec,
    ModelConfig,
    attention_layers,
    encoder_macs,
    mac_count,
    stem_macs,
)

STANDARD_ORDER = [
    LayerKind.FC_Q,
    LayerKind.FC_K,
    LayerKind.FC_V,
    LayerKind.MATMUL_QKT,
    LayerKind.MATMUL_SV,
    LayerKind.FC_PROJ,
    LayerKind.FC_MLP1,
    LayerKind.FC_MLP2,
]


def brute_force_macs(cfg: ModelConfig, reuse_set=frozenset()) -> int:
    """Independent MAC oracle: enumerate every matmul from first principles."""
    d, t, h = cfg.d, cfg.t, cfg.n_heads
    d_h = d // h
    total = 0
    for i in range(cfg.n_encoders):
        if i in reuse_set:
            total += t * d * d  # transformation FC
        else:
            total += 3 * (t * d * d)  # Q, K, V
            total += h * (t * d_h * t)  # QK^T per head
            total += h * (t * t * d_h)  # SV per head
        total += t * d * d  # projection
        total += t * d * cfg.mlp_dim + t * cfg.mlp_dim * d  # MLP
    if cfg.include_stem:
        total += t * cfg.stem_in_dim * d + 1 * d * cfg.n_classes
    return total


class TestBuildEncoder:
    """The layer lists of a full and of a reusing encoder."""

    def test_deit_standard_layers(self, deit):
        layers = encoder_layers(deit)
        assert [l.kind for l in layers] == STANDARD_ORDER
        qkt = layers[3]
        assert (qkt.in_dim, qkt.out_dim, qkt.t_l) == (64, 197, 197)
        assert qkt.copies == 6
        sv = layers[4]
        assert (sv.in_dim, sv.out_dim) == (197, 64)
        assert sv.copies == 6
        mlp1, mlp2 = layers[6], layers[7]
        assert (mlp1.in_dim, mlp1.out_dim) == (384, 1536)
        assert (mlp2.in_dim, mlp2.out_dim) == (1536, 384)

    def test_deit_reusing_layers(self, deit):
        layers = encoder_layers(deit, reuses=True)
        kinds = [l.kind for l in layers]
        assert kinds == [
            LayerKind.TB_FC,
            LayerKind.FC_PROJ,
            LayerKind.FC_MLP1,
            LayerKind.FC_MLP2,
        ]
        tb = layers[0]
        assert (tb.in_dim, tb.out_dim) == (384, 384)

    def test_single_head_degenerate(self):
        cfg = ModelConfig("one-head", d=128, t=16, mlp_ratio=2, n_encoders=2, n_heads=1)
        qkt = [l for l in attention_layers(cfg) if l.kind is LayerKind.MATMUL_QKT][0]
        assert qkt.in_dim == cfg.d
        assert qkt.copies == 1

    def test_layer_count_invariant(self, deit):
        assert len(encoder_layers(deit)) == 8
        assert len(encoder_layers(deit, reuses=True)) == 4

    def test_only_the_matmuls_are_written(self, deit):
        written = {l.kind for l in encoder_layers(deit) if l.kind in WRITE_KINDS}
        assert written == {LayerKind.MATMUL_QKT, LayerKind.MATMUL_SV}
        assert not {l.kind for l in encoder_layers(deit, reuses=True)} & WRITE_KINDS
        assert not WEIGHT_KINDS & WRITE_KINDS


class TestBuildModel:
    """A reuse set and the attention source of each of its encoders."""

    def _forward(self, reuse):
        cfg = toy_config(n_encoders=4, d=16, t=4, n_heads=2)
        weights = make_toy_weights(cfg, seed=0)
        x = np.random.default_rng(0).standard_normal((cfg.t, cfg.d))
        return model_forward(cfg, weights, x, reuse=reuse)

    def test_reuse_sources_skip_pattern(self):
        assert reuse_sources({1, 3}) == {1: 0, 3: 2}
        result = self._forward({1, 3})
        assert result.stats.attention_evals == 2

    def test_continuous_shares_single_source(self):
        assert reuse_sources({1, 2}) == {1: 0, 2: 0}

    def test_empty_pattern_all_standard(self):
        result = self._forward(())
        assert result.stats.attention_evals == 4
        assert len(result.attention_outputs) == 4

    def test_encoder_zero_rejected(self):
        with pytest.raises(ValueError, match="encoder 0"):
            self._forward({0, 2})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            self._forward({1, 4})

    def test_pure_function(self):
        a, b = self._forward({1, 3}), self._forward({1, 3})
        assert np.array_equal(a.output, b.output)
        assert all(np.array_equal(p, q)
                   for p, q in zip(a.attention_outputs, b.attention_outputs))


class TestMacCount:
    def test_deit_with_stem_matches_oracle(self, deit_stem):
        expected = brute_force_macs(deit_stem)
        assert mac_count(deit_stem) == expected
        # ~4.6e9 MACs for the standard small ViT shape
        assert expected == 4_599_177_216

    def test_reuse_reduces_by_attention_macs(self, deit):
        base = mac_count(deit)
        one = mac_count(deit, 1)
        attention_macs = encoder_macs(deit, reuses=False) - encoder_macs(deit, reuses=True)
        assert base - one == attention_macs

    def test_matches_oracle_under_reuse(self, deit):
        assert mac_count(deit, 3) == brute_force_macs(deit, {1, 3, 5})

    def test_strictly_decreasing_in_reuse(self, deit):
        counts = [mac_count(deit, n_reuse=r) for r in range(deit.n_encoders + 1)]
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_rejects_a_reuse_count_out_of_range(self, deit):
        for n_reuse in (-1, deit.n_encoders + 1):
            with pytest.raises(ValueError, match=f"n_reuse={n_reuse} out of range"):
                mac_count(deit, n_reuse)

    def test_stem_off_by_config(self, deit):
        assert stem_macs(deit) == 0

    def test_empty_model_counts_zero(self):
        cfg = ModelConfig("empty", d=64, t=8, mlp_ratio=2, n_encoders=0, n_heads=2,
                          include_stem=False)
        assert mac_count(cfg) == 0
        x = np.ones((cfg.t, cfg.d))
        result = model_forward(cfg, [], x)
        assert np.array_equal(result.output, x) and result.attention_outputs == []


@given(
    head_dim=st.integers(8, 64),
    heads=st.integers(1, 8),
    t=st.integers(2, 256),
    n_enc=st.integers(1, 16),
    mlp_ratio=st.integers(1, 4),
)
@settings(max_examples=50, deadline=None)
def test_mac_count_oracle_property(head_dim, heads, t, n_enc, mlp_ratio):
    cfg = ModelConfig(
        "prop", d=head_dim * heads, t=t, mlp_ratio=mlp_ratio,
        n_encoders=n_enc, n_heads=heads, include_stem=False,
    )
    assert mac_count(cfg) == brute_force_macs(cfg)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig("bad", d=100, t=8, mlp_ratio=2, n_encoders=1, n_heads=3)
    with pytest.raises(ValueError, match="input_split_bits"):
        ModelConfig("bad", d=64, t=8, mlp_ratio=2, n_encoders=1, n_heads=2,
                    input_bits=8, input_split_bits=3)
    with pytest.raises(ValueError):
        ModelConfig("bad", d=64, t=0, mlp_ratio=2, n_encoders=1, n_heads=2)
    with pytest.raises(ValueError, match="mlp_ratio must be positive"):
        ModelConfig("bad", d=64, t=8, mlp_ratio=0, n_encoders=1, n_heads=2)
    with pytest.raises(ValueError, match=r"d \* mlp_ratio must be an integer"):
        ModelConfig("bad", d=64, t=8, mlp_ratio=1.01, n_encoders=1, n_heads=2)
    with pytest.raises(ValueError, match="n_encoders must be >= 0"):
        ModelConfig("bad", d=64, t=8, mlp_ratio=2, n_encoders=-1, n_heads=2)


@pytest.mark.parametrize("dims", [(0, 8, 8, 1), (8, 0, 8, 1), (8, 8, 0, 1), (8, 8, 8, 0)])
def test_layer_spec_rejects_a_zero_dimension(dims):
    with pytest.raises(ValueError, match="layer dimensions must be >= 1"):
        LayerSpec(LayerKind.FC_Q, *dims)

