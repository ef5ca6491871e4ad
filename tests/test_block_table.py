"""The block table behind every model cost: model_cost, the reuse-count
search, weight sharing and token pruning all assemble it, and one
delay ladder per scenario serves every target."""

import dataclasses
import importlib
import math
import sys

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
    ladder = opt.delay_ladder(block_table(cfg, dev, tiles, sp, opts))
    for r in range(cfg.n_encoders):
        delay = model_cost(cfg, r, dev, tiles, sp, opts).d_vit_ms
        res = opt.find_optimal_n_reuse(ladder, delay)
        assert res.optimal_n_reuse == r
        assert res.cost.d_vit_ms == delay


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
    ladder = opt.delay_ladder(block_table(cfg, dev, tiles, sp, opts))
    assert inputs.ladder[0].d_vit_ms == ladder[0].d_vit_ms == costs[0].d_vit_ms
    for target in sorted(targets):
        met = [r for r, c in enumerate(costs) if c.d_vit_ms <= target]
        for found in (opt.optimize(inputs.ladder, target, lambda p: 0.0),
                      opt.find_optimal_n_reuse(ladder, target)):
            if not met:
                assert not found.feasible
                assert found.optimal_n_reuse is None and found.cost is None
                continue
            assert found.feasible and found.optimal_n_reuse == met[0]
            for field in dataclasses.fields(found.cost):
                assert (getattr(found.cost, field.name)
                        == getattr(costs[met[0]], field.name)), field.name


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


def test_token_pruning_builds_its_reduced_table_from_the_tables_inputs():
    cfg, dev, tiles, sp, opts = _inputs("DeiT-S", "SRAM")
    opts = dataclasses.replace(opts, pad_to_tiles=not opts.pad_to_tiles)
    table = block_table(cfg, dev, tiles, sp, opts)
    assert (table.cfg, table.dev, table.tiles, table.sp, table.opts) == (cfg, dev, tiles, sp, opts)
    reduced = block_table(dataclasses.replace(cfg, t=round(cfg.t / 2)), dev, tiles, sp, opts)
    assert (cost.apply_token_pruning(table, 0.5, prune_from_encoder=4)
            == cost.assemble([(table, 4, 0), (reduced, cfg.n_encoders - 4, 0)]))


def _tables_per_run(monkeypatch, tmp_path, command: str) -> list[list[str]]:
    """The block tables ``command`` builds for DeiT-S on FeFET, run with 1
    and with 4 delay targets: the model name of each table, per run."""
    calls = []
    real_table = cost.block_table

    def counted_table(*args, **kwargs):
        calls.append(args[0].name)
        return real_table(*args, **kwargs)

    for module in (cost, report):
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


def _recorded_calls(monkeypatch, fn) -> list[tuple]:
    """The positional arguments of every call of ``fn`` through any
    binding of it in an xbarsim module, each replaced by a recorder."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "xbarsim":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, recorded)
    return calls


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_each_target_runs_the_public_search_on_one_ladder(command, monkeypatch, tmp_path):
    searches = _recorded_calls(monkeypatch, opt.find_optimal_n_reuse)
    rankings = _recorded_calls(monkeypatch, opt.optimize)
    argv = [command, "--model", "DeiT-S", "--device", "FeFET", "--out", str(tmp_path)]
    for target in ("9", "7", "6", "4"):
        argv += ["--target-delay", target]
    assert main(argv) == 0
    assert len(searches) == len(rankings) == 4
    assert [args[1] for args in searches] == [9.0, 7.0, 6.0, 4.0]
    assert len({id(args[0]) for args in searches + rankings}) == 1
