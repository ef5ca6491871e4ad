import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import encoder_layers
from xbarsim.mapping import (
    DeviceParams,
    TileConfig,
    crossbars_for_layer,
    device_for,
    hybrid_assignment,
    slice_factor,
)
from xbarsim.workload import LayerKind, LayerSpec


def brute_force_tiling(in_dim: int, out_dim: int, xbar: int) -> int:
    """Count xbar x xbar blocks covering the weight grid by iteration."""
    return len(range(0, in_dim, xbar)) * len(range(0, out_dim, xbar))


def fc_layer(in_dim, out_dim, t_l=8):
    return LayerSpec(LayerKind.FC_PROJ, in_dim, out_dim, t_l)


class TestCrossbarsForLayer:
    def test_d_by_d_layer(self, fefet, tiles):
        mapped = crossbars_for_layer(fc_layer(384, 384), tiles, fefet, 8)
        assert mapped.n_xbar_logical == 36

    def test_exact_fit(self, fefet, tiles):
        assert crossbars_for_layer(fc_layer(64, 64), tiles, fefet, 8).n_xbar_logical == 1

    def test_bit_slicing(self, fefet, tiles):
        mapped = crossbars_for_layer(fc_layer(384, 384), tiles, fefet, 8)
        assert mapped.slice_factor == 4  # 8-bit weights on 2-bit cells
        assert mapped.n_xbar_physical == 144

    def test_one_by_one_layer(self, fefet, tiles):
        assert crossbars_for_layer(fc_layer(1, 1), tiles, fefet, 8).n_xbar_logical == 1

    def test_tile_count(self, fefet, tiles):
        mapped = crossbars_for_layer(fc_layer(384, 384), tiles, fefet, 8)
        assert mapped.n_tiles == 3  # ceil(144 / 64)

    def test_matches_brute_force_sample(self, fefet):
        for in_dim, out_dim, xbar in [(1, 1, 64), (65, 64, 64), (197, 384, 64),
                                      (4096, 4096, 64), (100, 300, 128)]:
            tiles = TileConfig(xbar_size=xbar)
            mapped = crossbars_for_layer(fc_layer(in_dim, out_dim), tiles, fefet, 8)
            assert mapped.n_xbar_logical == brute_force_tiling(in_dim, out_dim, xbar)


@given(
    in_dim=st.integers(1, 4096),
    out_dim=st.integers(1, 4096),
    xbar=st.sampled_from([16, 32, 64, 128, 256]),
)
@settings(max_examples=200, deadline=None)
def test_eq5_equals_brute_force(in_dim, out_dim, xbar, fefet):
    tiles = TileConfig(xbar_size=xbar)
    mapped = crossbars_for_layer(fc_layer(in_dim, out_dim), tiles, fefet, 8)
    assert mapped.n_xbar_logical == brute_force_tiling(in_dim, out_dim, xbar)


@given(
    in_dim=st.integers(1, 2048),
    out_dim=st.integers(1, 2048),
    delta=st.integers(1, 512),
    xbar=st.sampled_from([32, 64, 128]),
)
@settings(max_examples=100, deadline=None)
def test_monotonicity(in_dim, out_dim, delta, xbar, fefet):
    tiles = TileConfig(xbar_size=xbar)
    base = crossbars_for_layer(fc_layer(in_dim, out_dim), tiles, fefet, 8)
    wider = crossbars_for_layer(fc_layer(in_dim + delta, out_dim), tiles, fefet, 8)
    taller = crossbars_for_layer(fc_layer(in_dim, out_dim + delta), tiles, fefet, 8)
    bigger_xbar = crossbars_for_layer(
        fc_layer(in_dim, out_dim), TileConfig(xbar_size=xbar * 2), fefet, 8
    )
    assert wider.n_xbar_logical >= base.n_xbar_logical
    assert taller.n_xbar_logical >= base.n_xbar_logical
    assert bigger_xbar.n_xbar_logical <= base.n_xbar_logical


class TestModelTotals:
    def _total(self, layers, tiles, dev, field="n_xbar_logical"):
        return sum(
            getattr(crossbars_for_layer(l, tiles, dev, 8), field) * l.copies
            for l in layers
        )

    def _model_total(self, cfg, reuse, tiles, dev):
        """Physical crossbars over every encoder of the stack."""
        return sum(
            self._total(encoder_layers(cfg, i in reuse), tiles, dev, "n_xbar_physical")
            for i in range(cfg.n_encoders)
        )

    def test_deit_encoder_logical_breakdown(self, deit, fefet, tiles):
        # Q,K,V,Proj: 4*36; MLP pair: 144+144; per-head matmuls: 6*4 + 6*4
        assert self._total(encoder_layers(deit), tiles, fefet) == 480

    def test_deit_reusing_encoder_logical(self, deit, fefet, tiles):
        layers = encoder_layers(deit, reuses=True)
        assert self._total(layers, tiles, fefet) == 360  # 36 TB + 36 proj + 288 MLP

    def test_model_total_physical(self, deit, fefet, tiles):
        total = self._model_total(deit, set(), tiles, fefet)
        assert total == 480 * 4 * deit.n_encoders  # slice factor 4

    def test_reuse_lowers_total(self, deit, fefet, tiles):
        base = self._model_total(deit, set(), tiles, fefet)
        reused = self._model_total(deit, {1, 3}, tiles, fefet)
        assert reused == base - 2 * (480 - 360) * 4


class TestHybridAssignment:
    def test_total_coverage(self, fefet, sram):
        table = hybrid_assignment(fefet, sram)
        for kind in LayerKind:
            assert kind in table

    def test_slice_factor_changes_only_for_matmuls(self, deit, fefet, sram, tiles):
        table = hybrid_assignment(fefet, sram)
        for layer in encoder_layers(deit):
            uniform = crossbars_for_layer(layer, tiles, fefet, 8)
            hybrid = crossbars_for_layer(layer, tiles, table[layer.kind], 8)
            if layer.kind in (LayerKind.MATMUL_QKT, LayerKind.MATMUL_SV):
                assert hybrid.slice_factor == 8  # 1-bit SRAM cells
                assert hybrid.slice_factor != uniform.slice_factor
            else:
                assert hybrid.slice_factor == uniform.slice_factor


def test_slice_factor_rounding(fefet, sram):
    assert slice_factor(8, fefet) == 4
    assert slice_factor(7, fefet) == 4
    assert slice_factor(8, sram) == 8


def test_device_param_validation():
    with pytest.raises(ValueError):
        DeviceParams(0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        DeviceParams(2, 1, 1, 1, 1, 1, read_var=1.5)
    with pytest.raises(ValueError):
        DeviceParams(2, 1, 1, 1, 1, 1, r_on_ohm=1e7, r_off_ohm=1e5)


def test_device_for_rejects_an_assignment_without_the_kind(fefet):
    with pytest.raises(ValueError, match="device assignment misses layer kind"):
        device_for(LayerKind.TB_FC, {LayerKind.FC_Q: fefet})


def test_sram_preset_is_variation_free(sram):
    assert sram.read_var == 0.0
    assert sram.write_var == 0.0

