"""The block table behind every model cost: model_cost, the reuse-count
search, weight sharing and token pruning all assemble it, and one
delay ladder per scenario serves every target."""

import dataclasses
import importlib
import math

import pytest

from xbarsim import cost, report
from xbarsim.cli import main
from xbarsim.config import ScenarioConfig
from xbarsim.cost import BLOCK_NAMES, block_table, model_cost
from xbarsim.report import resolve_device
from xbarsim.workload import mac_count

opt = importlib.import_module("xbarsim.optimize")  # the package re-exports optimize()

GRID = [(m, d) for m in ("DeiT-S", "LV-ViT-S", "BERT-Base")
        for d in ("FeFET", "SRAM", "hybrid")]


def _inputs(model, device):
    sc = ScenarioConfig()
    return (sc.model(model), resolve_device(device, sc), sc.tiles(), sc.softmax(),
            sc.cost_options())


@pytest.mark.parametrize("model,device", GRID)
def test_search_meets_each_model_delay_exactly(model, device):
    cfg, dev, tiles, sp, opts = _inputs(model, device)
    for r in range(cfg.n_encoders):
        delay = model_cost(cfg, r, dev, tiles, sp, opts).d_vit_ms
        res = opt.find_optimal_n_reuse(cfg, dev, tiles, sp, delay, opts)
        assert res.optimal_n_reuse == r
        assert res.achieved_delay_ms == delay


@pytest.mark.parametrize("model,device", GRID)
def test_ladder_search_equals_a_brute_force_scan(model, device):
    inputs = report.resolve(report.Scenario("ladder", model, device))
    cfg, dev, tiles, sp, opts = _inputs(model, device)
    costs = [model_cost(cfg, r, dev, tiles, sp, opts) for r in range(cfg.n_encoders)]
    # every ladder delay and its neighbours; the one below the smallest
    # delay is infeasible
    targets = {math.nextafter(c.d_vit_ms, direction)
               for c in costs for direction in (-math.inf, math.inf)}
    targets |= {c.d_vit_ms for c in costs}
    for target in sorted(targets):
        met = [r for r, c in enumerate(costs) if c.d_vit_ms <= target]
        for found in (inputs.optimize(target, lambda p: 0.0, report.pattern_families("all")),
                      opt.find_optimal_n_reuse(cfg, dev, tiles, sp, target, opts)):
            if not met:
                assert not found.feasible
                assert found.optimal_n_reuse is None and found.cost is None
                continue
            assert found.feasible and found.optimal_n_reuse == met[0]
            for field in dataclasses.fields(found.cost):
                assert (getattr(found.cost, field.name)
                        == getattr(costs[met[0]], field.name)), field.name
            assert found.baseline_delay_ms == costs[0].d_vit_ms


@pytest.mark.parametrize("model,device", GRID)
def test_model_cost_is_the_table_scaled_by_block_counts(model, device):
    cfg, dev, tiles, sp, opts = _inputs(model, device)
    table = block_table(cfg, dev, tiles, sp, opts)
    n = cfg.n_encoders
    for r in range(n):
        mc = model_cost(cfg, r, dev, tiles, sp, opts)
        counts = (n - r, r, n, n, 1)
        assert mc.blocks == {name: table.blocks[name].scaled(k)
                             for name, k in zip(BLOCK_NAMES, counts)}
        blocks = mc.blocks.values()
        assert math.isclose(sum(b.e_uj for b in blocks) / 1e3, mc.e_vit_mj, rel_tol=1e-12)
        assert math.isclose(sum(b.d_us for b in blocks) / 1e3, mc.d_vit_ms, rel_tol=1e-12)
        assert math.isclose(sum(b.a_mm2 for b in blocks), mc.a_vit_mm2, rel_tol=1e-12)


@pytest.mark.parametrize("include_stem", [False, True])
@pytest.mark.parametrize("model,device", GRID)
def test_table_macs_equal_the_mac_count(model, device, include_stem):
    cfg, dev, tiles, sp, opts = _inputs(model, device)
    cfg = dataclasses.replace(cfg, include_stem=include_stem)
    for r in range(cfg.n_encoders + 1):
        assert model_cost(cfg, r, dev, tiles, sp, opts).macs == mac_count(cfg, n_reuse=r)


def test_transforms_take_only_a_table_of_their_own_inputs():
    cfg, dev, tiles, sp, opts = _inputs("DeiT-S", "FeFET")
    table = block_table(cfg, dev, tiles, sp, opts)
    for transform, arg in ((cost.apply_weight_sharing, 2), (cost.apply_token_pruning, 0.3)):
        assert (transform(cfg, arg, dev, tiles, sp, opts, table=table)
                == transform(cfg, arg, dev, tiles, sp, opts))
        padded = dataclasses.replace(opts, pad_to_tiles=not opts.pad_to_tiles)
        others = [block_table(dataclasses.replace(cfg, t=cfg.t - 1), dev, tiles, sp, opts),
                  block_table(cfg, _inputs("DeiT-S", "SRAM")[1], tiles, sp, opts),
                  block_table(cfg, dev, tiles, sp, padded)]
        for other in others:
            with pytest.raises(ValueError, match="built from other inputs"):
                transform(cfg, arg, dev, tiles, sp, opts, table=other)


def test_search_builds_one_table(monkeypatch):
    cfg, dev, tiles, sp, opts = _inputs("DeiT-S", "FeFET")
    calls = {"table": 0, "layers": 0}
    real_table, real_mapping = cost.block_table, cost.crossbars_for_layer

    def counted_table(*args, **kwargs):
        calls["table"] += 1
        return real_table(*args, **kwargs)

    def counted_mapping(*args, **kwargs):
        calls["layers"] += 1
        return real_mapping(*args, **kwargs)

    monkeypatch.setattr(cost, "crossbars_for_layer", counted_mapping)
    real_table(cfg, dev, tiles, sp, opts)
    layers_per_table, calls["layers"] = calls["layers"], 0

    monkeypatch.setattr(opt, "block_table", counted_table)
    res = opt.find_optimal_n_reuse(cfg, dev, tiles, sp, 1e-3, opts)  # visits every r
    assert not res.feasible
    assert calls == {"table": 1, "layers": layers_per_table}


def _tables_per_run(monkeypatch, tmp_path, command: str) -> list[list[str]]:
    """The block tables ``command`` builds for DeiT-S on FeFET, run with 1
    and with 4 delay targets: the model name of each table, per run."""
    calls = []
    real_table = cost.block_table

    def counted_table(*args, **kwargs):
        calls.append(args[0].name)
        return real_table(*args, **kwargs)

    for module in (cost, opt, report):
        monkeypatch.setattr(module, "block_table", counted_table)
    runs = []
    for targets in (["7"], ["9", "7", "6", "4"]):
        argv = [command, "--model", "DeiT-S", "--device", "FeFET", "--out", str(tmp_path)]
        for target in targets:
            argv += ["--target-delay", target]
        calls.clear()
        assert main(argv) == 0
        runs.append(list(calls))
    return runs


def test_simulate_costs_each_target_from_its_search(monkeypatch, tmp_path):
    # one table for the model_cost baseline and one for the scenario's delay
    # ladder, which every target searches; no count depends on the targets
    assert _tables_per_run(monkeypatch, tmp_path, "simulate") == [["DeiT-S"] * 2] * 2


def test_compare_costs_each_target_from_one_ladder(monkeypatch, tmp_path):
    # simulate's two tables, plus the reduced-token table of the one default
    # pruning ratio; weight sharing assembles the scenario's table
    assert _tables_per_run(monkeypatch, tmp_path, "compare") == [["DeiT-S"] * 3] * 2
