import json
import os
import re
import subprocess
import sys

import pytest

from xbarsim.cli import build_parser, main
from xbarsim.report import Scenario, report_meta, resolve


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


def test_optimize_target_met_without_reuse(tmp_path, capsys):
    """A target the baseline meets ranks no pattern and writes none."""
    assert main(["optimize", "--target-delay", "11", "--out", str(tmp_path),
                 "--name", "opt"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("optimal n_reuse = 0 (baseline ")
    assert out[1].startswith("wrote: ")
    doc = json.loads(read(tmp_path / "opt_patterns.json"))
    assert (doc["n_reuse"], doc["best"], doc["candidates"]) == (0, None, {})


def test_optimize_infeasible_exit_code(tmp_path, capsys):
    rc = main([
        "optimize", "--model", "DeiT-S", "--device", "FeFET",
        "--target-delay", "0.5", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "infeasible" in capsys.readouterr().out


def test_optimize_rejects_a_second_target(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "optimize", "--model", "DeiT-S", "--device", "FeFET",
            "--target-delay", "7", "--target-delay", "4", "--out", str(tmp_path),
        ])
    assert exc.value.code == 2
    assert "--target-delay may be given only once" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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


def usage_error(argv, capsys):
    """stderr of a ``main`` call that must end in a one-line usage error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"xbarsim {argv[0]}: error: ") and err.count("\n") == 1
    return err


def test_optimize_rejects_explicit_patterns(tmp_path, capsys):
    err = usage_error([
        "optimize", "--model", "DeiT-S", "--device", "FeFET",
        "--target-delay", "7", "--patterns", "explicit:2,5,8",
        "--out", str(tmp_path),
    ], capsys)
    assert re.search("simulate-only", err)
    assert err.endswith("pattern ranking takes one of all, strided, continuous, pyramid\n")


FUNCSIM_TOY = ["--dim", "16", "--tokens", "4", "--device", "FeFET"]


EXACT_TOY = ["--encoders", "1", "--dim", "16", "--tokens", "4", "--heads", "2",
             "--device", "exact"]


@pytest.mark.parametrize("argv,match", [
    (["funcsim", "--encoders", "2", "--reuse", "0", *FUNCSIM_TOY], "out of range"),
    (["funcsim", "--encoders", "1", "--heads", "3", *FUNCSIM_TOY], "not divisible"),
    (["funcsim", "--encoders", "1", "--adc-bits", "0", *FUNCSIM_TOY], "must be >= 1"),
    (["funcsim", *EXACT_TOY, "--adc-bits", "0"], "must be >= 1"),
    (["funcsim", "--encoders", "1", "--adc-bits", "54", *FUNCSIM_TOY],
     "adc_bits must be <= 53, got 54"),
    (["funcsim", *EXACT_TOY, "--config", "BAD_TILES_INI"], "bogus_key"),
    (["funcsim", *EXACT_TOY, "--config", "DEVICE_INI"], r"takes no \[device\]"),
    (["simulate", "--config", "MISSING_INI", "--target-delay", "7"],
     "cannot read config file .*missing.ini"),
    (["simulate", "--target-delay", "-1"], "must be positive"),
    (["simulate", "--target-delay", "7", "--target-delay", "nan"],
     "must be positive and finite, got nan"),
    (["compare", "--target-delay", "inf"], "must be positive and finite, got inf"),
    (["optimize", "--target-delay", "nan"], "must be positive and finite, got nan"),
    (["simulate", "--patterns", "explicit:3,5", "--target-delay", "7"],
     "takes no --target-delay"),
    (["simulate", "--format", ",", "--target-delay", "7"], "no report format"),
    (["funcsim", "--encoders", "0", *FUNCSIM_TOY], "--encoders must be >= 1, got 0"),
    *(([command, "--config", "EMPTY_MODEL_INI", "--target-delay", "5"],
       "model DeiT-S has n_encoders = 0") for command in ("simulate", "optimize", "compare")),
    (["simulate", "--scorer", "external:MISSING_JSON", "--target-delay", "7"],
     "cannot read score file .*missing.json: No such file"),
    (["simulate", "--scorer", "external:LIST_JSON", "--target-delay", "7"],
     "score file .*list.json is not a JSON object"),
    (["simulate", "--scorer", "external:NAN_JSON", "--target-delay", "7"],
     "score file .*nan.json is not a JSON object .* to finite numbers"),
    (["simulate", "--patterns", "bogus"], "unknown pattern family 'bogus'"),
    (["simulate", "--patterns", "explicit:1,x"], "takes integer encoder indices"),
    (["simulate", "--patterns", "explicit:1,3", "--scorer", "bogus"],
     "unknown scorer 'bogus'"),
    (["optimize", "--target-delay", "7", "--scorer", "bogus"], "unknown scorer 'bogus'"),
    (["funcsim", "--reuse", "1,x", *FUNCSIM_TOY],
     "--reuse '1,x': i,j,k takes integer encoder indices"),
    (["funcsim", "--reuse", "1,1", *FUNCSIM_TOY], r"duplicate indices in reuse set \(1, 1\)"),
    (["simulate", "--patterns", "explicit:2,2"], r"duplicate indices in reuse set \(2, 2\)"),
    # every section of a file is checked, also one the command does not read
    (["funcsim", "--encoders", "1", *FUNCSIM_TOY, "--config", "NO_MODEL_INI"],
     "unknown model preset 'NoSuchModel'"),
    (["funcsim", "--encoders", "1", *FUNCSIM_TOY, "--config", "DIGITAL_INI"],
     r"unknown key 'bogus' in \[digital\]"),
    (["simulate", "--target-delay", "7", "--config", "NOISE_INI"],
     r"unknown key 'bogus_key' in \[noise\]"),
], ids=["funcsim-reuse-0", "funcsim-heads-3", "funcsim-adc-bits-0",
        "funcsim-exact-adc-bits-0", "funcsim-adc-bits-54",
        "funcsim-exact-bad-tiles-key", "funcsim-exact-device-section", "simulate-missing-config",
        "simulate-target-delay", "simulate-nan-target", "compare-inf-target",
        "optimize-nan-target", "simulate-explicit-with-target",
        "simulate-empty-format", "funcsim-empty-model", "simulate-empty-model",
        "optimize-empty-model", "compare-empty-model", "simulate-missing-scores",
        "simulate-list-scores", "simulate-nan-scores", "simulate-unknown-family",
        "simulate-explicit-not-integers", "simulate-explicit-unknown-scorer",
        "optimize-unknown-scorer", "funcsim-reuse-not-integers", "funcsim-reuse-duplicate",
        "simulate-explicit-duplicate", "funcsim-unknown-model-preset",
        "funcsim-unknown-digital-key", "simulate-unknown-noise-key"])
def test_bad_input_is_a_usage_error(argv, match, tmp_path, capsys):
    files = {"BAD_TILES_INI": tmp_path / "bad.ini", "DEVICE_INI": tmp_path / "device.ini",
             "MISSING_INI": tmp_path / "missing.ini",
             "EMPTY_MODEL_INI": tmp_path / "empty.ini",
             "NO_MODEL_INI": tmp_path / "no_model.ini", "DIGITAL_INI": tmp_path / "digital.ini",
             "NOISE_INI": tmp_path / "noise.ini",
             "external:MISSING_JSON": f"external:{tmp_path / 'missing.json'}",
             "external:LIST_JSON": f"external:{tmp_path / 'list.json'}",
             "external:NAN_JSON": f"external:{tmp_path / 'nan.json'}"}
    files["BAD_TILES_INI"].write_text("[tiles]\nbogus_key = 1\n")
    files["DEVICE_INI"].write_text("[device]\nread_var = 0.05\n")
    files["EMPTY_MODEL_INI"].write_text("[model]\nn_encoders = 0\n")
    files["NO_MODEL_INI"].write_text("[model]\npreset = NoSuchModel\n")
    files["DIGITAL_INI"].write_text("[digital]\nbogus = 1\n")
    files["NOISE_INI"].write_text("[noise]\nbogus_key = 1\n")
    (tmp_path / "list.json").write_text("[1, 2]\n")
    (tmp_path / "nan.json").write_text('{"1,2": 0.5, "5,7,9": NaN}\n')
    argv = [str(files.get(a, a)) for a in argv]
    out = tmp_path / "out"
    assert re.search(match, usage_error([*argv, "--out", str(out)], capsys))
    assert not out.exists()


# config text -> the error it must give: a non-finite value, or a negative
# cost constant, would be costed into NaN, infinite or impossible rows
BAD_VALUES = {
    "device-nan": ("[device]\ne_read_xbar_pj = nan\n",
                   r"e_read_xbar_pj in \[device\]: not a finite number: 'nan'"),
    "digital-inf": ("[digital]\nvec_delay_us = inf\n",
                    r"vec_delay_us in \[digital\]: not a finite number: 'inf'"),
    "model-inf": ("[model]\nmlp_ratio = inf\n",
                  r"mlp_ratio in \[model\]: not a finite number: 'inf'"),
    "digital-negative": ("[digital]\nvec_delay_us = -500\n",
                         "vec_delay_us must be non-negative"),
    "cost-negative": ("[cost]\ntb_area_mm2 = -1\n", "tb_area_mm2 must be non-negative"),
    "cost-not-boolean": ("[cost]\npad_to_tiles = maybe\n",
                         r"pad_to_tiles in \[cost\]: not a boolean: 'maybe'"),
    "pruning-negative": ("[token_pruning]\npredictor_delay_ms = -5\n",
                         r"\[token_pruning\] predictor_delay_ms must be non-negative"),
}


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_non_finite_or_negative_config_value_is_a_usage_error(case, command, tmp_path,
                                                              capsys):
    text, match = BAD_VALUES[case]
    user = tmp_path / "bad.ini"
    user.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--config", str(user), "--target-delay", "7", "--out", str(out)]
    assert re.search(match, usage_error(argv, capsys))
    assert not out.exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before --out and --format were checked")


@pytest.mark.parametrize("command", ["simulate", "optimize", "compare", "funcsim"])
def test_empty_out_is_a_usage_error(command, tmp_path, monkeypatch, capsys):
    """An empty --out, or one naming a file, and an unknown --format are
    rejected before any forward pass or reuse search runs, and nothing
    is created."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("xbarsim.cli.model_forward", _must_not_run)
    monkeypatch.setattr("xbarsim.cli.optimize", _must_not_run)
    for costing in ("block_table", "delay_ladder", "optimize"):
        monkeypatch.setattr(f"xbarsim.report.{costing}", _must_not_run)
    argv = [command]
    if command == "funcsim":
        argv += ["--encoders", "2", "--device", "FeFET"]
    else:
        argv += ["--target-delay", "0.5"]  # infeasible: optimize never reaches its output directory
    assert "--out must name a directory" in usage_error([*argv, "--out", ""], capsys)
    assert os.listdir(tmp_path) == []
    (tmp_path / "taken").write_text("")
    err = usage_error([*argv, "--out", "taken"], capsys)
    assert "--out 'taken' exists and is not a directory" in err
    assert os.listdir(tmp_path) == ["taken"]
    if command in ("simulate", "compare"):
        err = usage_error([*argv, "--format", "csv,xml", "--out", "fresh"], capsys)
        assert "unknown report format 'xml'" in err
        assert os.listdir(tmp_path) == ["taken"]


# Runs in a fresh interpreter, so only the CLI's own imports are loaded.
ALL_COMMAND_IMPORTS = """
import json, sys
from xbarsim.cli import main
out = sys.argv[1]
toy = ["--encoders", "2", "--reuse", "1", "--dim", "16", "--tokens", "4", "--heads", "2"]
codes = [main([*argv, "--out", out]) for argv in (
    ["simulate", "--target-delay", "7"],
    ["compare", "--target-delay", "7"],
    ["optimize", "--target-delay", "7"],
    *(["funcsim", *toy, "--device", device] for device in ("exact", "SRAM", "FeFET", "hybrid")),
)]
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_no_command_imports_scipy(tmp_path):
    """The runtime needs numpy only: no command, the functional forward
    pass (GELU included) on every device among them, loads scipy."""
    import xbarsim

    src = os.path.dirname(os.path.dirname(xbarsim.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", ALL_COMMAND_IMPORTS, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 7
    assert result["scipy"] == []
    assert os.path.exists(tmp_path / "funcsim_summary.json")


def test_optimize_takes_no_format(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--target-delay", "7", "--format", "xml",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format xml" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["simulate", "optimize", "compare", "funcsim"])
def test_hybrid_rejects_device_section(command, tmp_path, capsys):
    user = tmp_path / "hybrid.ini"
    user.write_text("[device]\ne_read_xbar_pj = 300\n")
    argv = [command, "--device", "hybrid", "--config", str(user),
            "--out", str(tmp_path / "out")]
    if command == "funcsim":
        argv += ["--encoders", "1", "--dim", "16", "--tokens", "4", "--heads", "2"]
    else:
        argv += ["--target-delay", "7"]
    assert re.search(r"\[device\]", usage_error(argv, capsys))


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
    scenario = Scenario("conv", "DeiT-S", "FeFET", config_path=str(user))
    direct = report_meta(resolve(scenario))
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


def test_strided_target_without_a_pattern_is_an_infeasible_row(tmp_path, capsys):
    rc = main([
        "simulate", "--model", "DeiT-S", "--device", "FeFET", "--patterns", "strided",
        "--target-delay", "8", "--target-delay", "5", "--target-delay", "1.5",
        "--name", "strided", "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "target 5.0 ms: infeasible, no strided pattern fits" in out
    assert "target 1.5 ms: infeasible even at maximal reuse" in out
    assert out.count("maximal reuse") == 1
    rows = json.loads(read(tmp_path / "strided.json"))["rows"]
    assert [(r["pattern"], r["feasible"]) for r in rows[2:]] == [
        ("no-strided-pattern", False), ("infeasible", False)]
    assert rows[2]["target_delay_ms"] == 5.0 and rows[2]["n_reuse"] is None
    assert read(tmp_path / "strided.csv").splitlines()[3] == \
        "strided,DeiT-S,FeFET,,no-strided-pattern,,,,,,,"


def test_optimize_strided_target_without_a_pattern(tmp_path, capsys):
    rc = main([
        "optimize", "--model", "DeiT-S", "--device", "FeFET", "--patterns", "strided",
        "--target-delay", "5", "--out", str(tmp_path),
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "needs n_reuse = 8, and no strided pattern" in out
    assert not os.path.exists(tmp_path / "optimize_patterns.json")


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    runs = [
        ["simulate", "--model", "DeiT-S", "--device", "FeFET",
         "--target-delay", "9", "--target-delay", "7"],
        ["simulate", "--model", "BERT-Base", "--device", "SRAM",
         "--target-delay", "4", "--target-delay", "1"],
    ]
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / f"cached{i}")]) == 0
        fresh = build_parser.__wrapped__().parse_args(
            argv + ["--out", str(tmp_path / f"fresh{i}")])
        assert fresh.func(fresh) == 0
    for i in range(len(runs)):
        for name in ("scenario.csv", "scenario_breakdown.csv", "scenario.json"):
            cached = read(tmp_path / f"cached{i}" / name)
            assert cached == read(tmp_path / f"fresh{i}" / name)
        # header, baseline and exactly this call's two targets
        assert len(read(tmp_path / f"cached{i}" / "scenario.csv").splitlines()) == 4


TOY = ["--encoders", "1", "--dim", "16", "--tokens", "4", "--heads", "2"]


def _preset_file(tmp_path, model="BERT-Base", device="SRAM"):
    user = tmp_path / "presets.ini"
    user.write_text(f"[model]\npreset = {model}\n[device]\npreset = {device}\n")
    return str(user)


CONFLICTS = [(command, section) for command in ("simulate", "optimize", "compare")
             for section in ("model", "device")] + [("funcsim", "device")]


@pytest.mark.parametrize("command,section", CONFLICTS, ids=["-".join(c) for c in CONFLICTS])
def test_a_file_preset_that_conflicts_is_a_usage_error(command, section, tmp_path, capsys):
    """A command-line preset and a different file ``preset`` are rejected,
    not silently resolved to the file's while the report names the other."""
    flag, file_preset = {"model": ("DeiT-S", "BERT-Base"), "device": ("FeFET", "SRAM")}[section]
    argv = [command, f"--{section}", flag, "--config", _preset_file(tmp_path),
            "--out", str(tmp_path / "o")]
    argv += TOY if command == "funcsim" else ["--target-delay", "4"]
    assert f"--{section} {flag} conflicts with [{section}] preset = {file_preset}" in \
        usage_error(argv, capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_reports_name_the_file_preset_they_ran(command, tmp_path, capsys):
    user = _preset_file(tmp_path)
    assert main([command, "--config", user, "--target-delay", "4", "--name", "p",
                 "--out", str(tmp_path)]) == 0
    rows = read(tmp_path / "p.csv").splitlines()[1:]
    assert {tuple(row.split(",")[1:3]) for row in rows} == {("BERT-Base", "SRAM")}
    doc = json.loads(read(tmp_path / "p.json"))
    assert {(r["model"], r["device"]) for r in doc["rows"]} == {("BERT-Base", "SRAM")}
    assert (doc["meta"]["scenario"]["model"], doc["meta"]["scenario"]["device"]) == \
        ("BERT-Base", "SRAM")
    # the same presets named on the command line agree with the file
    assert main([command, "--model", "BERT-Base", "--device", "SRAM", "--config", user,
                 "--target-delay", "4", "--name", "q", "--out", str(tmp_path)]) == 0
    assert read(tmp_path / "q.csv").replace("q,", "p,") == read(tmp_path / "p.csv")


def test_optimize_runs_the_file_preset(tmp_path, capsys):
    assert main(["optimize", "--config", _preset_file(tmp_path), "--target-delay", "4",
                 "--out", str(tmp_path)]) == 0
    baseline = resolve(Scenario("b", "BERT-Base", "SRAM")).ladder[0].d_vit_ms
    assert f"(baseline {baseline:.2f} ms" in capsys.readouterr().out


def test_funcsim_summary_names_the_file_preset(tmp_path):
    assert main(["funcsim", *TOY, "--config", _preset_file(tmp_path),
                 "--out", str(tmp_path)]) == 0
    assert json.loads(read(tmp_path / "funcsim_summary.json"))["device"] == "SRAM"
