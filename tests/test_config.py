import pytest

from xbarsim.config import (
    ScenarioConfig,
    available_devices,
    available_models,
    load_cost_options,
    load_device_params,
    load_model_config,
    load_pruning_overhead,
    load_tile_config,
)
from xbarsim.mapping import DeviceKind


def test_preset_inventory():
    assert available_models() == ["DeiT-S", "LV-ViT-S", "BERT-Base"]
    assert available_devices() == ["FeFET", "SRAM"]


def test_deit_preset_shape():
    cfg = load_model_config("DeiT-S")
    assert (cfg.d, cfg.t, cfg.n_encoders, cfg.n_heads) == (384, 197, 12, 6)
    assert cfg.mlp_ratio == 4
    assert cfg.input_cycles == 1  # read constants folded, see presets/models.ini
    assert not cfg.include_stem


def test_lvvit_and_bert_presets():
    lv = load_model_config("LV-ViT-S")
    assert (lv.n_encoders, lv.mlp_ratio) == (16, 3)
    bert = load_model_config("BERT-Base")
    assert (bert.d, bert.n_heads, bert.t) == (768, 12, 128)


def test_fefet_preset_constants():
    dev = load_device_params("FeFET")
    assert dev.kind is DeviceKind.FEFET
    assert dev.bits_per_cell == 2
    assert (dev.e_read_xbar_pj, dev.e_write_xbar_pj) == (25.0, 118.0)
    assert (dev.d_read_xbar_us, dev.d_write_xbar_us) == (0.02, 3.3)
    assert dev.a_xbar_mm2 == 0.03
    assert (dev.read_var, dev.write_var) == (0.10, 0.20)
    assert (dev.r_on_ohm, dev.r_off_ohm) == (100e3, 10e6)


def test_sram_preset_constants():
    dev = load_device_params("SRAM")
    assert dev.bits_per_cell == 1
    assert (dev.e_read_xbar_pj, dev.e_write_xbar_pj) == (29.0, 13.0)
    assert (dev.d_read_xbar_us, dev.d_write_xbar_us) == (0.018, 0.018)
    assert dev.a_xbar_mm2 == 0.07


def test_tiles_preset():
    tiles = load_tile_config()
    assert (tiles.xbar_size, tiles.n_xbar_per_pe, tiles.n_pe_per_tile) == (64, 8, 8)
    assert tiles.adc_bits == 6


def test_cost_option_presets():
    opts = load_cost_options()
    assert opts.pad_to_tiles
    assert opts.read_delay_pe_factor
    assert not opts.tb_on_crossbars
    assert opts.vec_delay_us > 0


def test_pruning_overhead_loaded():
    e, d, a = load_pruning_overhead()
    assert e > 0 and d > 0 and a >= 0


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        load_model_config("ViT-Huge")
    with pytest.raises(ValueError, match="unknown device"):
        load_device_params("ReRAM")


def test_overrides():
    cfg = load_model_config("DeiT-S", {"t": "198", "include_stem": "true"})
    assert cfg.t == 198 and cfg.include_stem
    dev = load_device_params("FeFET", {"e_read_xbar_pj": "50"})
    assert dev.e_read_xbar_pj == 50.0


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        load_model_config("DeiT-S", {"banana": "1"})


def test_scenario_config_file(tmp_path):
    user = tmp_path / "scenario.ini"
    user.write_text(
        "[model]\npreset = LV-ViT-S\nt = 196\n"
        "[device]\npreset = SRAM\n"
        "[tiles]\nxbar_size = 128\n"
        "[softmax_unit]\nd_div_ns = 9.0\n"
        "[cost]\npad_to_tiles = false\n"
        "[noise]\nseed = 99\n"
    )
    sc = ScenarioConfig(str(user))
    assert sc.model().t == 196
    assert sc.model().n_encoders == 16
    assert sc.device().kind is DeviceKind.SRAM
    assert sc.tiles().xbar_size == 128
    assert sc.softmax().d_div_ns == 9.0
    assert not sc.cost_options().pad_to_tiles
    assert sc.noise()["seed"] == 99


def test_scenario_without_file_uses_presets():
    sc = ScenarioConfig(None)
    assert sc.model("DeiT-S").d == 384
    assert sc.tiles().xbar_size == 64
    with pytest.raises(ValueError):
        sc.model()  # no preset named anywhere
    with pytest.raises(ValueError, match="no device named"):
        sc.device()


def test_missing_config_file():
    with pytest.raises(ValueError, match="cannot read config file /nonexistent/path.ini"):
        ScenarioConfig("/nonexistent/path.ini")


def test_custom_model_without_preset(tmp_path):
    user = tmp_path / "custom.ini"
    user.write_text(
        "[model]\nname = tiny\nd = 128\nt = 64\nmlp_ratio = 2\n"
        "n_encoders = 6\nn_heads = 4\ninclude_stem = false\n"
    )
    cfg = ScenarioConfig(str(user)).model()
    assert cfg.name == "tiny" and cfg.d == 128 and cfg.n_encoders == 6


def test_unknown_section_rejected(tmp_path):
    user = tmp_path / "typo.ini"
    user.write_text("[tile]\nxbar_size = 128\n")
    with pytest.raises(ValueError, match=r"unknown section \[tile\]"):
        ScenarioConfig(str(user))


def test_unknown_token_pruning_key_rejected(tmp_path):
    user = tmp_path / "pruning.ini"
    user.write_text("[token_pruning]\npredictor_energy_mJ = 0.5\n")
    with pytest.raises(ValueError, match="unknown key 'predictor_energy_mJ'"):
        ScenarioConfig(str(user)).pruning_overhead()


def test_token_pruning_override(tmp_path):
    user = tmp_path / "pruning.ini"
    user.write_text("[token_pruning]\npredictor_delay_ms = 1.5\n")
    e, d, a = ScenarioConfig(str(user)).pruning_overhead()
    assert (e, d, a) == (load_pruning_overhead()[0], 1.5, load_pruning_overhead()[2])


def test_int_fields_reject_fractions():
    with pytest.raises(ValueError, match="not an integer"):
        load_model_config("DeiT-S", {"n_encoders": "2.7"})
    assert load_model_config("DeiT-S", {"t": "2e2"}).t == 200
    assert load_model_config("DeiT-S", {"t": "100e3"}).t == 100_000
