import json
import os

import pytest

from xbarsim.cli import main
from xbarsim.report import Scenario, report_meta


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_simulate_writes_reports(tmp_path, capsys):
    rc = main([
        "simulate", "--model", "DeiT-S", "--device", "FeFET",
        "--target-delay", "9", "--target-delay", "4",
        "--name", "clirun", "--out", str(tmp_path),
    ])
    assert rc == 0
    csv = read(tmp_path / "clirun.csv")
    assert csv.splitlines()[0].startswith("scenario,model,device,n_reuse")
    assert len(csv.splitlines()) == 4  # header + baseline + 2 targets
    doc = json.loads(read(tmp_path / "clirun.json"))
    assert doc["rows"][0]["edap_reduction"] == 1.0
    assert "accuracy" in doc["meta"]["accuracy_note"]


def test_optimize_prints_selection(tmp_path, capsys):
    rc = main([
        "optimize", "--model", "DeiT-S", "--device", "FeFET",
        "--target-delay", "7", "--out", str(tmp_path), "--name", "opt",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "optimal n_reuse = 5" in out
    doc = json.loads(read(tmp_path / "opt_patterns.json"))
    assert doc["n_reuse"] == 5
    assert doc["best"] in doc["candidates"]


def test_optimize_infeasible_exit_code(tmp_path, capsys):
    rc = main([
        "optimize", "--model", "DeiT-S", "--device", "FeFET",
        "--target-delay", "0.5", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "infeasible" in capsys.readouterr().out


def test_funcsim_exact_with_reuse(tmp_path, capsys):
    rc = main([
        "funcsim", "--encoders", "4", "--dim", "32", "--tokens", "16",
        "--heads", "2", "--reuse", "1,3", "--device", "exact",
        "--seed", "3", "--out", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads(read(tmp_path / "funcsim_summary.json"))
    assert summary["attention_evals"] == 2
    assert os.path.exists(tmp_path / "attn_03.xbt")
    assert os.path.exists(tmp_path / "output.xbt")


def test_funcsim_crossbar_device(tmp_path):
    rc = main([
        "funcsim", "--encoders", "2", "--dim", "32", "--tokens", "8",
        "--heads", "2", "--device", "SRAM", "--out", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads(read(tmp_path / "funcsim_summary.json"))
    assert summary["crossbar_matmuls"] > 0


def test_compare_table(tmp_path, capsys):
    rc = main([
        "compare", "--model", "DeiT-S", "--device", "FeFET",
        "--target-delay", "7", "--name", "cmp", "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "ws=2" in out and "prune p=0.30" in out
    csv = read(tmp_path / "cmp.csv")
    assert "reuse@7.0ms" in csv


def test_compare_target_met_without_reuse(tmp_path, capsys):
    # the 10.87 ms baseline already meets an 11 ms target
    rc = main([
        "compare", "--model", "DeiT-S", "--device", "FeFET",
        "--target-delay", "11", "--name", "cmp", "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = json.loads(read(tmp_path / "cmp.json"))["rows"]
    assert rows[-1]["pattern"] == "reuse@11.0ms none"
    assert rows[-1]["n_reuse"] == 0
    assert rows[-1]["edap_reduction"] == 1.0


def test_optimize_rejects_explicit_patterns(tmp_path):
    with pytest.raises(ValueError, match="simulate-only"):
        main([
            "optimize", "--model", "DeiT-S", "--device", "FeFET",
            "--target-delay", "7", "--patterns", "explicit:2,5,8",
            "--out", str(tmp_path),
        ])


@pytest.mark.parametrize("command", ["simulate", "optimize", "compare", "funcsim"])
def test_hybrid_rejects_device_section(command, tmp_path):
    user = tmp_path / "hybrid.ini"
    user.write_text("[device]\ne_read_xbar_pj = 300\n")
    argv = [command, "--device", "hybrid", "--config", str(user),
            "--out", str(tmp_path / "out")]
    if command == "funcsim":
        argv += ["--encoders", "1", "--dim", "16", "--tokens", "4", "--heads", "2"]
    else:
        argv += ["--target-delay", "7"]
    with pytest.raises(ValueError, match=r"\[device\]"):
        main(argv)


def test_meta_states_resolved_cost_options(tmp_path):
    user = tmp_path / "cost.ini"
    user.write_text("[cost]\ntb_on_crossbars = true\npad_to_tiles = false\n")
    rc = main([
        "simulate", "--model", "DeiT-S", "--device", "FeFET", "--config", str(user),
        "--name", "conv", "--out", str(tmp_path),
    ])
    assert rc == 0
    meta = json.loads(read(tmp_path / "conv.json"))["meta"]
    assert "not rounded to whole tiles" in meta["area_convention"]
    assert "mapped d x d crossbar FCs" in meta["tb_convention"]
    assert "digital constants" not in meta["tb_convention"]
    direct = report_meta(Scenario("conv", "DeiT-S", "FeFET", config_path=str(user)))
    assert direct["area_convention"] == meta["area_convention"]
    assert direct["tb_convention"] == meta["tb_convention"]


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_meta_states_resolved_model_conventions(command, tmp_path):
    user = tmp_path / "model.ini"
    user.write_text("[model]\ninclude_stem = true\ninput_split_bits = 1\n")
    rc = main([
        command, "--model", "DeiT-S", "--device", "FeFET", "--config", str(user),
        "--target-delay", "9", "--name", "conv", "--out", str(tmp_path),
    ])
    assert rc == 0
    meta = json.loads(read(tmp_path / "conv.json"))["meta"]
    assert "stem excluded" not in meta["area_convention"]
    assert "stem (patch embedding and classifier) included" in meta["area_convention"]
    serialization = meta["serialization_convention"]
    assert "input_split_bits equals input_bits" not in serialization
    assert "one 1-bit input slice" in serialization and "= 8 cycles" in serialization


def _funcsim_fefet_output(out, config=None):
    argv = ["funcsim", "--encoders", "1", "--dim", "16", "--tokens", "8", "--heads", "2",
            "--device", "FeFET", "--seed", "0", "--out", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    assert main(argv) == 0
    return (out / "output.xbt").read_bytes()


def test_funcsim_reads_noise_section(tmp_path):
    default = _funcsim_fefet_output(tmp_path / "default")

    def with_noise(name, keys):
        path = tmp_path / f"{name}.ini"
        path.write_text("[noise]\n" + keys)
        return _funcsim_fefet_output(tmp_path / name, path)

    assert with_noise("additive", "multiplicative = false\n") != default
    assert with_noise("seed5", "seed = 5\n") != default
    assert with_noise("seed0", "seed = 0\n") == default
