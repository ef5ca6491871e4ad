"""Cost-model tests against independent, spelled-out arithmetic oracles."""

import dataclasses
import math
import random

import pytest

from xbarsim.cost import (
    CostOptions,
    SoftmaxUnitParams,
    apply_token_pruning,
    apply_weight_sharing,
    block_table,
    breakdown,
    layer_cost,
    model_cost,
    softmax_cost,
)
from xbarsim.mapping import crossbars_for_layer
from xbarsim.workload import LayerKind, ModelConfig, attention_layers

REL = 1e-12


def close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


def get_layer(cfg, kind):
    for layer in encoder_layers(cfg):
        if layer.kind is kind:
            return layer
    raise KeyError(kind)


class TestLayerCost:
    def test_matmul_write_terms(self, deit, fefet, tiles):
        sv = get_layer(deit, LayerKind.MATMUL_SV)
        mapped = crossbars_for_layer(sv, tiles, fefet, deit.weight_bits)
        lc = layer_cost(sv, mapped, fefet, tiles, input_cycles=1)
        n_phys = mapped.n_xbar_physical * sv.copies
        assert close(lc.e_write_uj, n_phys * 118.0 / 1e6)
        assert close(lc.d_write_us, 3.3 * 8)  # 26.4 us with the PE factor

    def test_rejects_zero_input_cycles(self, deit, fefet, tiles):
        q = get_layer(deit, LayerKind.FC_Q)
        mapped = crossbars_for_layer(q, tiles, fefet, 8)
        with pytest.raises(ValueError, match="input_cycles must be >= 1"):
            layer_cost(q, mapped, fefet, tiles, input_cycles=0)

    def test_static_layer_no_write_cost(self, deit, fefet, tiles):
        q = get_layer(deit, LayerKind.FC_Q)
        mapped = crossbars_for_layer(q, tiles, fefet, 8)
        lc = layer_cost(q, mapped, fefet, tiles, input_cycles=1)
        assert lc.e_write_uj == 0.0
        assert lc.d_write_us == 0.0

    def test_q_layer_read_energy_with_cycles(self, deit, fefet, tiles):
        # logical 36 * slice 4 = 144 arrays, t=197, 8 serialized input cycles
        q = get_layer(deit, LayerKind.FC_Q)
        mapped = crossbars_for_layer(q, tiles, fefet, 8)
        lc = layer_cost(q, mapped, fefet, tiles, input_cycles=8)
        assert close(lc.e_read_uj, 197 * 144 * 25.0 * 8 / 1e6)

    def test_read_delay_pe_factor_flag(self, deit, fefet, tiles):
        q = get_layer(deit, LayerKind.FC_Q)
        mapped = crossbars_for_layer(q, tiles, fefet, 8)
        with_pe = layer_cost(q, mapped, fefet, tiles, 1)
        without = layer_cost(q, mapped, fefet, tiles, 1, read_delay_pe_factor=False)
        assert close(with_pe.d_read_us, 197 * 0.02 * 8)
        assert close(without.d_read_us, 197 * 0.02)

    def test_head_copies_scale_energy_not_delay(self, deit, fefet, tiles):
        qkt = get_layer(deit, LayerKind.MATMUL_QKT)
        mapped = crossbars_for_layer(qkt, tiles, fefet, 8)
        lc = layer_cost(qkt, mapped, fefet, tiles, 1)
        single = dataclasses.replace(qkt, copies=1)
        lc1 = layer_cost(single, mapped, fefet, tiles, 1)
        assert close(lc.e_read_uj, 6 * lc1.e_read_uj)
        assert close(lc.d_read_us, lc1.d_read_us)

    def test_tile_padding_area(self, deit, fefet, tiles):
        q = get_layer(deit, LayerKind.FC_Q)
        mapped = crossbars_for_layer(q, tiles, fefet, 8)
        raw = layer_cost(q, mapped, fefet, tiles, 1)
        padded = layer_cost(q, mapped, fefet, tiles, 1, pad_to_tiles=True)
        assert close(raw.area_mm2, 144 * 0.03)
        assert close(padded.area_mm2, 192 * 0.03)  # 144 -> 3 whole tiles


class TestSoftmaxCost:
    def test_head_factor_on_energy_only(self):
        sp = SoftmaxUnitParams(1, 1, 1, 1, 1, 1)
        one = ModelConfig("h1", d=64, t=31, mlp_ratio=2, n_encoders=1, n_heads=1)
        two = ModelConfig("h2", d=64, t=31, mlp_ratio=2, n_encoders=1, n_heads=2)
        e1, d1 = softmax_cost(one, sp)
        e2, d2 = softmax_cost(two, sp)
        assert close(e2, 2 * e1)
        assert d2 == d1

    def test_delay_oracle(self):
        sp = SoftmaxUnitParams(1, 1, 1, 1.0, 1.0, 1.0)
        cfg = ModelConfig("t197", d=384, t=197, mlp_ratio=4, n_encoders=1, n_heads=6)
        _, d_us = softmax_cost(cfg, sp)
        assert close(d_us, 38809 * 3.0 / 1e3)  # ~116.4 us

    def test_zero_energy_components(self):
        sp = SoftmaxUnitParams(0, 0, 0, 1, 1, 1)
        cfg = ModelConfig("z", d=64, t=16, mlp_ratio=2, n_encoders=1, n_heads=2)
        e_uj, _ = softmax_cost(cfg, sp)
        assert e_uj == 0.0


from oracles import encoder_layers, oracle_model_cost, random_setup


class TestModelCostOracle:
    def test_twenty_random_configurations(self):
        rng = random.Random(20240817)
        for _ in range(20):
            cfg, dev, tiles, sp, opts = random_setup(rng)
            r = rng.randint(0, cfg.n_encoders)
            mc = model_cost(cfg, r, dev, tiles, sp, opts)
            e, d, a = oracle_model_cost(cfg, dev, tiles, sp, opts, r)
            assert close(mc.e_vit_mj, e)
            assert close(mc.d_vit_ms, d)
            assert close(mc.a_vit_mm2, a)

    def test_edap_identity_exact(self, deit, fefet, tiles, softmax_params, cost_opts):
        for r in range(deit.n_encoders + 1):
            mc = model_cost(deit, r, fefet, tiles, softmax_params, cost_opts)
            assert mc.edap == mc.e_vit_mj * mc.d_vit_ms * mc.a_vit_mm2

    def test_all_reuse_zero_attention_with_free_tb(self, deit, fefet, tiles, softmax_params):
        opts = CostOptions(tb_on_crossbars=False)  # zero-cost TB constants
        mc = model_cost(deit, deit.n_encoders, fefet, tiles, softmax_params, opts)
        attn = mc.blocks["attn"]
        assert attn.e_uj == 0.0 and attn.d_us == 0.0 and attn.a_mm2 == 0.0

    def test_linearity_in_n_reuse(self, deit, fefet, tiles, softmax_params, cost_opts):
        table = block_table(deit, fefet, tiles, softmax_params, cost_opts)
        attn, tb = table.blocks["attn"], table.blocks["tb"]
        costs = [
            model_cost(deit, r, fefet, tiles, softmax_params, cost_opts)
            for r in range(deit.n_encoders)
        ]
        for a, b in zip(costs, costs[1:]):
            assert close(a.e_vit_mj - b.e_vit_mj, (attn.e_uj - tb.e_uj) / 1e3, rel=1e-9)
            assert close(a.d_vit_ms - b.d_vit_ms, (attn.d_us - tb.d_us) / 1e3, rel=1e-9)
            assert close(a.a_vit_mm2 - b.a_vit_mm2, attn.a_mm2 - tb.a_mm2, rel=1e-9)

    def test_pattern_position_does_not_matter(self, deit, fefet, tiles, softmax_params, cost_opts):
        # Walk the stack encoder by encoder and sum the rows of the layers
        # each one holds: wherever the three reusers sit, the per-layer sums
        # equal the count-based model cost.
        opts = dataclasses.replace(cost_opts, tb_on_crossbars=True)
        ref = model_cost(deit, 3, fefet, tiles, softmax_params, opts)
        for pattern in [{1, 2, 3}, {3, 6, 9}, {9, 10, 11}]:
            e_uj, d_us, a_mm2 = 0.0, 0.0, 0.0
            for i in range(deit.n_encoders):
                if i not in pattern:
                    e, d = softmax_cost(deit, softmax_params)
                    e_uj, d_us = e_uj + e, d_us + d
                for layer in encoder_layers(deit, reuses=i in pattern):
                    mapped = crossbars_for_layer(layer, tiles, fefet, deit.weight_bits)
                    lc = layer_cost(layer, mapped, fefet, tiles, deit.input_cycles,
                                    pad_to_tiles=opts.pad_to_tiles,
                                    read_delay_pe_factor=opts.read_delay_pe_factor)
                    e_uj += lc.e_total_uj
                    d_us += lc.d_total_us
                    a_mm2 += lc.area_mm2
                e_uj += opts.vec_energy_uj
                d_us += opts.vec_delay_us
            assert close(e_uj / 1e3, ref.e_vit_mj)
            assert close(d_us / 1e3, ref.d_vit_ms)
            assert close(a_mm2, ref.a_vit_mm2)

    def test_rejects_a_reuse_count_above_the_stack(self, deit, fefet, tiles, softmax_params,
                                                   cost_opts):
        n = deit.n_encoders
        with pytest.raises(ValueError, match=rf"n_reuse={n + 1} out of \[0, {n}\]"):
            model_cost(deit, n + 1, fefet, tiles, softmax_params, cost_opts)

    def test_positive_costs(self, deit, fefet, tiles, softmax_params, cost_opts):
        mc = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
        assert mc.e_vit_mj > 0 and mc.d_vit_ms > 0 and mc.a_vit_mm2 > 0

    def test_energy_homogeneity(self, deit, fefet, tiles, softmax_params, cost_opts):
        c = 3.7
        dev2 = dataclasses.replace(
            fefet,
            e_read_xbar_pj=fefet.e_read_xbar_pj * c,
            e_write_xbar_pj=fefet.e_write_xbar_pj * c,
        )
        sp2 = SoftmaxUnitParams(
            softmax_params.e_select_pj * c,
            softmax_params.e_exponent_pj * c,
            softmax_params.e_div_pj * c,
            softmax_params.d_select_ns,
            softmax_params.d_exponent_ns,
            softmax_params.d_div_ns,
        )
        opts2 = dataclasses.replace(cost_opts, vec_energy_uj=cost_opts.vec_energy_uj * c)
        base = model_cost(deit, 2, fefet, tiles, softmax_params, cost_opts)
        scaled = model_cost(deit, 2, dev2, tiles, sp2, opts2)
        assert close(scaled.e_vit_mj, base.e_vit_mj * c)
        assert scaled.d_vit_ms == base.d_vit_ms
        assert scaled.a_vit_mm2 == base.a_vit_mm2

    def test_delay_homogeneity(self, deit, fefet, tiles, softmax_params, cost_opts):
        c = 2.25
        dev2 = dataclasses.replace(
            fefet,
            d_read_xbar_us=fefet.d_read_xbar_us * c,
            d_write_xbar_us=fefet.d_write_xbar_us * c,
        )
        sp2 = SoftmaxUnitParams(
            softmax_params.e_select_pj,
            softmax_params.e_exponent_pj,
            softmax_params.e_div_pj,
            softmax_params.d_select_ns * c,
            softmax_params.d_exponent_ns * c,
            softmax_params.d_div_ns * c,
        )
        opts2 = dataclasses.replace(cost_opts, vec_delay_us=cost_opts.vec_delay_us * c)
        base = model_cost(deit, 1, fefet, tiles, softmax_params, cost_opts)
        scaled = model_cost(deit, 1, dev2, tiles, sp2, opts2)
        assert close(scaled.d_vit_ms, base.d_vit_ms * c)
        assert scaled.e_vit_mj == base.e_vit_mj

    def test_area_homogeneity(self, deit, fefet, tiles, softmax_params, cost_opts):
        c = 1.5
        dev2 = dataclasses.replace(fefet, a_xbar_mm2=fefet.a_xbar_mm2 * c)
        base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
        scaled = model_cost(deit, 0, dev2, tiles, softmax_params, cost_opts)
        assert close(scaled.a_vit_mm2, base.a_vit_mm2 * c)


class TestBreakdown:
    def test_shares_sum_to_one(self, deit, fefet, tiles, softmax_params, cost_opts):
        mc = model_cost(deit, 3, fefet, tiles, softmax_params, cost_opts)
        shares = breakdown(mc)
        for metric in ("e", "d", "a", "edap"):
            assert close(sum(shares[metric].values()), 1.0, rel=1e-9)

    def test_attention_dominates_delay(self, deit, fefet, tiles, softmax_params, cost_opts):
        shares = breakdown(model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts))
        assert 0.70 <= shares["d"]["attn"] <= 0.90

    def test_all_reuse_attention_share_zero(self, deit, fefet, tiles, softmax_params):
        opts = CostOptions(tb_on_crossbars=False)
        shares = breakdown(
            model_cost(deit, deit.n_encoders, fefet, tiles, softmax_params, opts)
        )
        assert shares["d"]["attn"] == 0.0
        assert shares["edap"]["attn"] == 0.0

    def test_tb_share_below_one_percent(self, deit, fefet, tiles, softmax_params, cost_opts):
        shares = breakdown(model_cost(deit, 3, fefet, tiles, softmax_params, cost_opts))
        assert shares["edap"]["tb"] < 0.01


class TestWeightSharing:
    def test_area_only_reduction(self, deit_table, deit, fefet, tiles, softmax_params,
                                 cost_opts):
        base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
        shared = apply_weight_sharing(deit_table, 2)
        assert shared.e_vit_mj == base.e_vit_mj  # bitwise
        assert shared.d_vit_ms == base.d_vit_ms  # bitwise
        assert shared.a_vit_mm2 < base.a_vit_mm2
        assert shared.tops_per_w == base.tops_per_w

    def test_identity_at_ws_one(self, deit_table, deit, fefet, tiles, softmax_params,
                                cost_opts):
        base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
        assert apply_weight_sharing(deit_table, 1) == base

    def test_ws3_divides_weight_area(self, deit_table, deit, fefet, tiles, softmax_params,
                                     cost_opts):
        base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
        shared = apply_weight_sharing(deit_table, 3)
        weight_area = sum(b.weight_area_mm2 for b in base.blocks.values())
        stem_w = base.blocks["stem"].weight_area_mm2
        expected = base.a_vit_mm2 - (weight_area - stem_w) + (weight_area - stem_w) / 3
        assert close(shared.a_vit_mm2, expected)

    def test_edap_reduction_roughly_2x(self, deit_table, deit, fefet, tiles, softmax_params,
                                       cost_opts):
        base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
        shared = apply_weight_sharing(deit_table, 2)
        assert 1.5 <= base.edap / shared.edap <= 2.1

    def test_invalid_ws(self, deit_table):
        with pytest.raises(ValueError):
            apply_weight_sharing(deit_table, 0)
        with pytest.raises(ValueError):
            apply_weight_sharing(deit_table, 5)


class TestTokenPruning:
    def test_p_zero_is_identity(self, deit_table, deit, fefet, tiles, softmax_params,
                                cost_opts):
        base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
        pruned = apply_token_pruning(deit_table, 0.0)
        assert pruned == base

    def test_calibrated_overhead_lands_near_published_factor(
        self, deit_table, deit, fefet, tiles, softmax_params, cost_opts
    ):
        from xbarsim.config import load_pruning_overhead

        base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
        pruned = apply_token_pruning(deit_table, 0.3, load_pruning_overhead())
        assert 1.15 <= base.edap / pruned.edap <= 1.45  # published claim ~1.3x

    def test_quadratic_token_dependence_of_qkt(self, fefet, tiles, softmax_params):
        cfg = ModelConfig("tp", d=64, t=64, mlp_ratio=2, n_encoders=2, n_heads=2,
                          include_stem=False)
        def qkt_macs(c):
            return sum(
                l.macs for l in attention_layers(c) if l.kind is LayerKind.MATMUL_QKT
            )
        half = dataclasses.replace(cfg, t=32)
        assert qkt_macs(half) * 4 == qkt_macs(cfg)

    def test_pruned_delay_reflects_token_cut(self, deit_table, deit, fefet, tiles,
                                             softmax_params, cost_opts):
        base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
        pruned = apply_token_pruning(deit_table, 0.3)
        assert pruned.d_vit_ms < base.d_vit_ms
        assert pruned.e_vit_mj < base.e_vit_mj

    def test_prune_from_middle(self, deit_table, deit, fefet, tiles, softmax_params,
                               cost_opts):
        all_enc = apply_token_pruning(deit_table, 0.3)
        from_six = apply_token_pruning(deit_table, 0.3, prune_from_encoder=6)
        base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
        assert all_enc.d_vit_ms < from_six.d_vit_ms < base.d_vit_ms

    def test_invalid_ratio(self, deit_table):
        with pytest.raises(ValueError):
            apply_token_pruning(deit_table, 1.0)
        with pytest.raises(ValueError):
            apply_token_pruning(deit_table, -0.1)

    def test_invalid_start(self, deit_table):
        with pytest.raises(ValueError, match="prune_from_encoder out of range"):
            apply_token_pruning(deit_table, 0.3, prune_from_encoder=deit_table.cfg.n_encoders)


class TestHybridCost:
    def test_hybrid_changes_matmul_blocks_only(self, deit, fefet, sram, tiles,
                                               softmax_params, cost_opts):
        from xbarsim.mapping import hybrid_assignment

        table = hybrid_assignment(fefet, sram)
        uniform = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
        hybrid = model_cost(deit, 0, table, tiles, softmax_params, cost_opts)
        assert hybrid.blocks["proj"] == uniform.blocks["proj"]
        assert hybrid.blocks["mlp"] == uniform.blocks["mlp"]
        assert hybrid.blocks["attn"] != uniform.blocks["attn"]
