"""Tests for the benchmark harness itself.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _first(workload: str, seed: int, n: int) -> list[tuple[str, ...]]:
    return [op.argv for op in itertools.islice(wl.generate(workload, seed), n)]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _first(workload, 5, 40) == _first(workload, 5, 40)
    assert _first(workload, 5, 40) != _first(workload, 6, 40)


def test_seeded_op_list_is_stable():
    assert _first("cost_sweep", 0, 3) == [
        ("simulate", "--model", "DeiT-S", "--device", "FeFET",
         "--target-delay", "9", "--target-delay", "7", "--target-delay", "6",
         "--target-delay", "4", "--seed", "1826701615", "--name", "sweep"),
        ("simulate", "--model", "DeiT-S", "--device", "FeFET",
         "--target-delay", "4.631", "--target-delay", "2.506", "--target-delay", "2.279",
         "--target-delay", "1.891", "--seed", "1081530687", "--name", "sweep"),
        ("compare", "--model", "DeiT-S", "--device", "FeFET",
         "--target-delay", "1.894", "--target-delay", "10.197", "--target-delay", "8.423",
         "--target-delay", "6.818", "--seed", "846428920", "--name", "sweep"),
    ]
    toy = ("--dim", "64", "--tokens", "32", "--heads", "4")
    assert _first("funcsim_fefet", 0, 2) == [
        ("funcsim", "--device", "FeFET", "--encoders", "1", *toy, "--seed", "1016164991"),
        ("funcsim", "--device", "FeFET", "--encoders", "1", *toy, "--seed", "1099128569"),
    ]
    assert _first("funcsim_sram_reuse", 0, 2) == [
        ("funcsim", "--device", "SRAM", "--encoders", "8", "--reuse", "2,4,6", *toy,
         "--seed", "1798679648"),
        ("funcsim", "--device", "SRAM", "--encoders", "8", "--reuse", "2,4,6", *toy,
         "--seed", "561807780"),
    ]


def test_cost_sweep_cycles_over_every_model_and_device():
    ops = list(itertools.islice(wl.generate("cost_sweep", 3), 19))
    pairs = {(op.command, op.model, op.device) for op in ops[1:]}
    assert len(pairs) == 18
    assert ops[0].targets == wl.CALIBRATED_TARGETS


def _bindings() -> dict:
    """Identity of every attribute of every xbarsim module and traced class."""
    import importlib

    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "xbarsim" or name.startswith("xbarsim."):
            snap.update({(name, k): id(v) for k, v in vars(mod).items()})
    for t in tr.TARGETS:
        if t.cls:
            owner = getattr(importlib.import_module(t.module), t.cls)
            snap[(t.module, t.cls, t.attr)] = id(owner.__dict__[t.attr])
    return snap


def _runner(tmp_path):
    return run.Runner(run.load_cli(), tmp_path)


def test_tracer_patches_every_binding_site_and_restores_them(tmp_path):
    runner = _runner(tmp_path)
    import xbarsim
    from xbarsim import cli, cost, report

    argv = next(wl.generate("cost_sweep", 0)).argv
    runner.untimed(argv, runner.out_dir)  # lazy imports happen before the snapshot
    original = cost.model_cost
    before = _bindings()
    tracer = tr.Tracer()
    with tracer.installed():
        for mod in (cost, sys.modules["xbarsim.optimize"], report, cli, xbarsim):
            assert mod.model_cost is not original
        runner.timed(argv, tracer=tracer)
    assert _bindings() == before
    assert cost.model_cost is original
    assert tracer.calls["cost.model_cost"] > 0
    assert tracer.calls["cli"] == 1


def test_traced_funcsim_matches_untraced_and_simstats(tmp_path):
    runner = _runner(tmp_path)
    argv = ("funcsim", "--device", "SRAM", "--encoders", "2", "--reuse", "1",
            "--dim", "64", "--tokens", "8", "--heads", "2", "--seed", "4")
    _, _, error = runner.timed(argv)
    assert not error
    untraced = wl.output_digest(runner.out_dir)
    tracer = tr.Tracer()
    with tracer.installed():
        runner.timed(argv, tracer=tracer)
    assert wl.output_digest(runner.out_dir) == untraced
    assert tr.simstats_mismatches(tracer) == []
    assert tracer.calls["forward.matmul.TB_FC"] == 1
    metrics = tr.layer_metrics(tracer, 1, 0.0)
    assert set(metrics) == set(tr.PER_LAYER_UNITS)
    assert metrics["crossbar.read_currents.noise_draws"] == 0
    assert 0 < metrics["crossbar.read_currents.active_bit_ratio"] < 1


def test_cost_checks_reject_a_corrupted_report(tmp_path):
    runner = _runner(tmp_path)
    op = next(wl.generate("cost_sweep", 0))
    runner.untimed(op.argv, runner.out_dir)
    wl.CostChecker(wl.load_golden()["cost_sweep"]).check(op, 0, runner.out_dir)
    path = Path(runner.out_dir) / "sweep.json"
    doc = json.loads(path.read_text())
    doc["rows"][1]["n_reuse"] = 2  # the 9 ms target needs 3
    path.write_text(json.dumps(doc))
    with pytest.raises(wl.CheckFailed):
        wl.CostChecker().check(op, 0, runner.out_dir)
    with pytest.raises(wl.CheckFailed):
        wl.CostChecker(wl.load_golden()["cost_sweep"]).check(op, 1, runner.out_dir)


def test_funcsim_check_rejects_an_exact_output(tmp_path):
    runner = _runner(tmp_path)
    op = next(wl.generate("funcsim_sram_reuse", 0))
    exact = list(op.argv)
    exact[exact.index("--device") + 1] = "exact"
    runner.untimed(exact, runner.out_dir)
    with pytest.raises(wl.CheckFailed):
        wl.check_funcsim(op, runner.out_dir, runner.exact_dir, runner.untimed)


def test_host_speed_samples_more_after_a_long_gap():
    import time

    import hostspeed

    host = hostspeed.HostSpeed("numpy_small")
    host.sample()
    assert len(host.seconds) == hostspeed.MAX_REPEATS
    host.sample()
    assert len(host.seconds) == hostspeed.MAX_REPEATS + 2
    assert host.factor_at(time.monotonic()) > 0


def test_host_speed_factor_follows_nearby_samples():
    from hostspeed import HostSpeed

    host = HostSpeed("python")
    host.at = [float(t) for t in range(40)]
    host.seconds = [0.01] * 20 + [0.02] * 20  # the host halves its speed at t=20
    assert host.factor_at(5.0) == pytest.approx(host.nominal_s / 0.01)
    assert host.factor_at(35.0) == pytest.approx(host.nominal_s / 0.02)


def test_self_time_excludes_children():
    tracer = tr.Tracer()
    tracer.open("outer")
    tracer.open("inner")
    inner = tracer.close()
    outer = tracer.close()
    assert tracer.self_s["outer"] == pytest.approx(outer - inner)
    assert tracer.total_s["inner"] == inner


def test_benchmark_json_lists_every_per_layer_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tr.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
