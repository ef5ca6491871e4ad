"""Functional forward-pass tests against a flat dense reference."""

import math
from dataclasses import replace

import numpy as np
import pytest

from xbarsim.funcsim.forward import (
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
from xbarsim.mapping import TileConfig, hybrid_assignment
from xbarsim.similarity import cka_score
from xbarsim.workload import (
    WEIGHT_KINDS,
    LayerKind,
    attention_layers,
    ffn_layers,
    tb_layer,
)


def dense_reference(sources, weights, x, n_heads, scale):
    """Independent flat implementation of the same encoder arithmetic.

    ``sources`` maps each reusing encoder to the encoder whose attention
    output it transforms.
    """
    x = np.array(x, dtype=np.float64)
    t, d = x.shape
    d_h = d // n_heads
    attn_outputs = []
    for i, w in enumerate(weights):
        if i in sources:
            src = attn_outputs[sources[i]]
            mu = src.mean(-1, keepdims=True)
            sd = np.sqrt(src.var(-1, keepdims=True) + 1e-6)
            z = (src - mu) / sd @ w[LayerKind.TB_FC]
            a = 0.5 * z * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
        else:
            mu = x.mean(-1, keepdims=True)
            sd = np.sqrt(x.var(-1, keepdims=True) + 1e-6)
            h = (x - mu) / sd
            q, k, v = (h @ w[LayerKind.FC_Q], h @ w[LayerKind.FC_K],
                       h @ w[LayerKind.FC_V])
            parts = []
            for head in range(n_heads):
                sl = slice(head * d_h, (head + 1) * d_h)
                scores = q[:, sl] @ k[:, sl].T * scale
                scores = scores - scores.max(-1, keepdims=True)
                e = np.exp(scores)
                probs = e / e.sum(-1, keepdims=True)
                parts.append(probs @ v[:, sl])
            a = np.concatenate(parts, axis=1)
        attn_outputs.append(a)
        x = x + a @ w[LayerKind.FC_PROJ]
        mu = x.mean(-1, keepdims=True)
        sd = np.sqrt(x.var(-1, keepdims=True) + 1e-6)
        z = (x - mu) / sd @ w[LayerKind.FC_MLP1]
        hidden = 0.5 * z * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
        x = x + hidden @ w[LayerKind.FC_MLP2]
    return x, attn_outputs


class TestStableSoftmax:
    def test_constant_vector_uniform(self):
        out = stable_softmax(np.full(7, 3.25))
        assert np.allclose(out, 1.0 / 7.0, atol=1e-15)

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 5, size=(16, 33))
        naive = np.exp(x) / np.exp(x).sum(-1, keepdims=True)
        ours = stable_softmax(x)
        assert np.max(np.abs(ours - naive) / np.abs(naive)) < 1e-12

    def test_huge_inputs_stay_finite(self):
        out = stable_softmax(np.array([1e4, 0.0, -1e4]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12
        assert out[0] == pytest.approx(1.0)

    def test_probability_vector(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = stable_softmax(rng.normal(0, 100, size=50))
            assert np.all(out >= 0)
            assert abs(out.sum() - 1.0) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stable_softmax(np.array([]))


class TestElementwise:
    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.normal(3, 7, size=(32, 64))
        out = layer_norm(x)
        assert np.allclose(out.mean(-1), 0.0, atol=1e-10)
        assert np.allclose(out.var(-1), 1.0, atol=1e-4)

    def test_gelu_reference_points(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_gelu_is_the_stdlib_erf_formula_bit_for_bit(self):
        x = np.random.default_rng(3).normal(0.0, 3.0, size=(64, 48))
        x[0, :6] = [0.0, -0.0, 5e-324, -1e-300, -40.0, 40.0]
        expected = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))
                             for v in x.ravel().tolist()]).reshape(x.shape)
        assert np.array_equal(gelu(x).view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("shape", [(), (0,), (0, 3), (4, 5)], ids=str)
    def test_gelu_keeps_the_input_shape(self, shape):
        x = np.arange(math.prod(shape), dtype=np.float64).reshape(shape) - 2.5
        out = gelu(x)
        assert np.shape(out) == shape
        assert np.array_equal(np.ravel(out), gelu(x.ravel()))

    def test_gelu_is_within_a_few_ulp_of_scipy_erf(self):
        """math.erf and scipy's erf may round apart in their last bits;
        GELU then moves by at most 4 x 0.5·|x|·2^-52."""
        from scipy.special import erf

        x = np.random.default_rng(5).normal(0.0, 3.0, size=400_000)
        reference = 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))
        assert np.all(np.abs(gelu(x) - reference) <= 4 * 0.5 * np.abs(x) * 2.0**-52)


class TestTbForward:
    def test_shape_preserved(self):
        cfg = toy_config(n_encoders=2)
        w = make_toy_weights(cfg, seed=0)[1]
        x = np.random.default_rng(3).standard_normal((cfg.t, cfg.d))
        assert tb_forward(x, w).shape == x.shape

    def test_identity_affine_is_gelu_of_layernorm(self):
        cfg = toy_config(n_encoders=1)
        w = make_toy_weights(cfg, seed=0)[0]
        w[LayerKind.TB_FC] = np.eye(cfg.d)
        x = np.random.default_rng(4).standard_normal((cfg.t, cfg.d))
        expected = gelu(layer_norm(x))
        assert np.allclose(tb_forward(x, w), expected, atol=1e-12)


class TestToyWeights:
    def test_one_matrix_per_weight_layer_shaped_by_its_spec(self):
        cfg = replace(toy_config(n_encoders=3), mlp_ratio=3)
        specs = attention_layers(cfg) + ffn_layers(cfg) + (tb_layer(cfg),)
        shapes = {s.kind: (s.in_dim, s.out_dim) for s in specs if s.kind in WEIGHT_KINDS}
        assert len(shapes) == 7
        weights = make_toy_weights(cfg, seed=0)
        assert len(weights) == cfg.n_encoders
        for w in weights:
            assert {kind: m.shape for kind, m in w.items()} == shapes
        assert weights[0][LayerKind.FC_MLP1].shape == (cfg.d, 3 * cfg.d)


class TestAttentionForward:
    def test_uniform_scores_average_values(self):
        t, d, heads = 8, 16, 2
        rng = np.random.default_rng(5)
        v = rng.standard_normal((t, d))
        q = np.zeros((t, d))
        k = rng.standard_normal((t, d))
        out = attention_forward(q, k, v, heads, scale=1.0)
        for head in range(heads):
            sl = slice(head * 8, (head + 1) * 8)
            assert np.allclose(out[:, sl], v[:, sl].mean(0), atol=1e-12)

    def test_shapes_for_various_heads(self):
        rng = np.random.default_rng(6)
        for heads in (1, 2, 4, 8):
            q, k, v = rng.standard_normal((3, 16, 32))
            out = attention_forward(q, k, v, heads, 0.5)
            assert out.shape == (16, 32)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            attention_forward(np.zeros((4, 8)), np.zeros((5, 8)), np.zeros((4, 8)), 2, 1.0)
        with pytest.raises(ValueError):
            attention_forward(np.zeros((4, 9)), np.zeros((4, 9)), np.zeros((4, 9)), 2, 1.0)


class TestModelForward:
    def test_exact_mode_matches_dense_reference(self):
        cfg = toy_config()
        weights = make_toy_weights(cfg, seed=0)
        x = np.random.default_rng(7).standard_normal((cfg.t, cfg.d))
        result = model_forward(cfg, weights, x, SimContext())
        ref_out, ref_attn = dense_reference(
            {}, weights, x, cfg.n_heads, 1.0 / math.sqrt(cfg.d)
        )
        assert np.allclose(result.output, ref_out, atol=1e-10)
        for a, b in zip(result.attention_outputs, ref_attn):
            assert np.allclose(a, b, atol=1e-10)

    def test_reuse_model_matches_dense_reference(self):
        cfg = toy_config(n_encoders=6)
        weights = make_toy_weights(cfg, seed=1)
        x = np.random.default_rng(8).standard_normal((cfg.t, cfg.d))
        result = model_forward(cfg, weights, x, SimContext(), reuse={2, 4})
        ref_out, _ = dense_reference({2: 1, 4: 3}, weights, x, cfg.n_heads,
                                     1.0 / math.sqrt(cfg.d))
        assert np.allclose(result.output, ref_out, atol=1e-10)

    def test_attention_counted_once_per_non_reuser(self):
        cfg = toy_config(n_encoders=4)
        weights = make_toy_weights(cfg, seed=0)
        x = np.random.default_rng(9).standard_normal((cfg.t, cfg.d))
        result = model_forward(cfg, weights, x, SimContext(), reuse={1, 3})
        assert result.stats.attention_evals == 2
        assert len(result.attention_outputs) == 4

    def test_weight_count_checked(self):
        cfg = toy_config(n_encoders=4)
        weights = make_toy_weights(cfg, seed=0)[:-1]
        with pytest.raises(ValueError):
            model_forward(cfg, weights, np.zeros((cfg.t, cfg.d)))


class TestCrossbarForward:
    def _ctx(self, fefet, sram, tiles, seed=0, device_noise=True):
        assignment = hybrid_assignment(fefet, sram)
        return SimContext(assignment, tiles, seed=seed, device_noise=device_noise)

    def test_deterministic_per_seed(self, fefet, sram, tiles):
        cfg = toy_config(n_encoders=3)
        weights = make_toy_weights(cfg, seed=0)
        x = np.random.default_rng(10).standard_normal((cfg.t, cfg.d))
        r1 = model_forward(cfg, weights, x, self._ctx(fefet, sram, tiles, seed=5))
        r2 = model_forward(cfg, weights, x, self._ctx(fefet, sram, tiles, seed=5))
        assert np.array_equal(r1.output, r2.output)
        r3 = model_forward(cfg, weights, x, self._ctx(fefet, sram, tiles, seed=6))
        assert not np.array_equal(r1.output, r3.output)

    def test_tracks_exact_output(self, fefet, sram, tiles):
        cfg = toy_config(n_encoders=4)
        weights = make_toy_weights(cfg, seed=2)
        x = np.random.default_rng(11).standard_normal((cfg.t, cfg.d))
        exact = model_forward(cfg, weights, x, SimContext()).output
        noisy = model_forward(cfg, weights, x,
                              self._ctx(fefet, sram, tiles, seed=1)).output
        corr = np.corrcoef(exact.ravel(), noisy.ravel())[0, 1]
        assert np.all(np.isfinite(noisy))
        assert corr > 0.5

    def test_settings_after_tiles_are_keyword_only(self, fefet, tiles):
        with pytest.raises(TypeError):
            SimContext(fefet, tiles, 6)
        # derived state, and the ADC resolution, which only ``tiles`` sets
        for rejected in ("rng", "stats", "adc_bits"):
            with pytest.raises(TypeError):
                SimContext(fefet, tiles, **{rejected: None})

    def test_adc_bits_come_from_tiles(self, fefet):
        rng = np.random.default_rng(15)
        x, w = rng.standard_normal((8, 64)), rng.standard_normal((64, 16))

        def product(adc_bits):
            ctx = SimContext(fefet, TileConfig(adc_bits=adc_bits), device_noise=False)
            return ctx.matmul(x, w, LayerKind.FC_Q)

        coarse, fine = product(4), product(12)
        assert not np.array_equal(coarse, fine)
        assert np.abs(fine - x @ w).max() < np.abs(coarse - x @ w).max()

    def test_tiles_default_to_the_tile_config_defaults(self, fefet):
        rng = np.random.default_rng(16)
        x, w = rng.standard_normal((8, 64)), rng.standard_normal((64, 16))
        default = SimContext(fefet, device_noise=False).matmul(x, w, LayerKind.FC_Q)
        explicit = SimContext(fefet, TileConfig(), device_noise=False)
        assert np.array_equal(default, explicit.matmul(x, w, LayerKind.FC_Q))

    def test_per_device_noise_assignment(self, fefet, sram, tiles):
        ctx = self._ctx(fefet, sram, tiles)
        fefet_noise = ctx._layer_noise(fefet)
        sram_noise = ctx._layer_noise(sram)
        assert fefet_noise.read_var == fefet.read_var > 0
        assert fefet_noise.write_var == fefet.write_var > 0
        assert sram_noise.read_var == 0.0 and sram_noise.write_var == 0.0

    def test_all_sram_stack_is_noise_independent(self, sram, tiles):
        # With zero device variation, only ADC quantization acts, so the
        # noise switch cannot change the result.
        cfg = toy_config(n_encoders=2)
        weights = make_toy_weights(cfg, seed=3)
        x = np.random.default_rng(12).standard_normal((cfg.t, cfg.d))
        assignment = hybrid_assignment(sram, sram)
        on = SimContext(assignment, tiles, seed=0, device_noise=True)
        off = SimContext(assignment, tiles, seed=0, device_noise=False)
        assert np.array_equal(
            model_forward(cfg, weights, x, on).output,
            model_forward(cfg, weights, x, off).output,
        )

    def test_reused_context_programs_the_weights_it_is_given(self, sram, tiles):
        # A second forward on a used context must not read arrays programmed
        # for the first call's weights.
        cfg = toy_config(n_encoders=2)
        x = np.random.default_rng(14).standard_normal((cfg.t, cfg.d))
        first, second = make_toy_weights(cfg, seed=0), make_toy_weights(cfg, seed=7)

        def fresh():
            return SimContext(sram, replace(tiles, adc_bits=10), device_noise=False)

        used = fresh()
        model_forward(cfg, first, x, used)
        again = model_forward(cfg, second, x, used).output
        assert again.tobytes() == model_forward(cfg, second, x, fresh()).output.tobytes()

    def test_matmul_rewrites_per_attention(self, fefet, sram, tiles):
        cfg = toy_config(n_encoders=2)
        weights = make_toy_weights(cfg, seed=0)
        x = np.random.default_rng(13).standard_normal((cfg.t, cfg.d))
        ctx = self._ctx(fefet, sram, tiles)
        result = model_forward(cfg, weights, x, ctx)
        # the 6 static layers of each encoder are programmed once;
        # every attention re-programs 2 * n_heads dynamic matmuls
        dynamic = 2 * cfg.n_heads * result.stats.attention_evals
        static = 6 * cfg.n_encoders
        assert ctx.stats.matmul_programmings == dynamic + static


class TestToyModelCkaTrend:
    def test_adjacent_encoders_more_similar_than_distant(self):
        cfg = toy_config()
        weights = make_toy_weights(cfg, seed=0)
        x = np.random.default_rng(1).standard_normal((cfg.t, cfg.d))
        acts = model_forward(cfg, weights, x, SimContext()).attention_outputs
        n = len(acts)
        adjacent = np.mean([cka_score(acts[i], acts[i + 1]) for i in range(n - 1)])
        distant = np.mean(
            [cka_score(acts[i], acts[j]) for i in range(n) for j in range(n) if j - i >= 4]
        )
        assert adjacent > distant

    def test_self_similarity_one_on_toy_outputs(self):
        cfg = toy_config(n_encoders=2)
        weights = make_toy_weights(cfg, seed=0)
        x = np.random.default_rng(2).standard_normal((cfg.t, cfg.d))
        acts = model_forward(cfg, weights, x, SimContext()).attention_outputs
        for a in acts:
            assert abs(cka_score(a, a) - 1.0) < 1e-9
