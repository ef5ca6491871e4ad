"""The block table behind every model cost: model_cost, the reuse-count
search, weight sharing and token pruning all assemble it."""

import importlib
import math

import pytest

from xbarsim import cost
from xbarsim.config import ScenarioConfig
from xbarsim.cost import BLOCK_NAMES, block_table, model_cost
from xbarsim.report import resolve_device

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
