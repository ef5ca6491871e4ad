"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    all_explicit_patterns,
    oracle_layer_rows,
    oracle_model_cost,
    oracle_softmax_rows,
    oracle_tile,
    random_setup,
)
from xbarsim.cost import (
    apply_token_pruning,
    apply_weight_sharing,
    block_table,
    breakdown,
    layer_cost,
    model_cost,
    softmax_cost,
)
from xbarsim.funcsim.crossbar import (
    NoiseModel,
    ideal_conductances,
    mvm_bitserial,
    program_matrix,
)
from xbarsim.funcsim.forward import (
    SimContext,
    make_toy_weights,
    model_forward,
    stable_softmax,
    toy_config,
)
from xbarsim.mapping import TileConfig, crossbars_for_layer
from xbarsim.optimize import delay_ladder, find_optimal_n_reuse
from xbarsim.patterns import enumerate_patterns, validate_pattern
from xbarsim.report import Scenario, emit, report_meta, resolve, run_scenario
from xbarsim.similarity import cka_score
from xbarsim.workload import LayerKind, LayerSpec, attention_layers


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_mapping_oracle(fefet):
    """crossbars_for_layer vs brute-force tiling, 1000 random triples, < 1 s."""
    rng = random.Random(1)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        in_dim = rng.randint(1, 4096)
        out_dim = rng.randint(1, 4096)
        xbar = rng.choice([16, 32, 64, 128, 256])
        layer = LayerSpec(LayerKind.FC_PROJ, in_dim, out_dim, 4)
        mapped = crossbars_for_layer(layer, TileConfig(xbar_size=xbar), fefet, 8)
        brute = len(range(0, in_dim, xbar)) * len(range(0, out_dim, xbar))
        if mapped.n_xbar_logical != brute:
            mismatches += 1
    elapsed = time.perf_counter() - start
    verdict(
        "1 mapping-oracle",
        mismatches == 0 and elapsed < 1.0,
        f"1000 random triples, {mismatches} mismatches, {elapsed:.3f} s",
    )


def test_criterion_02_cost_table_fidelity():
    """Rows 1-10 vs an independent hand-evaluated oracle, 20 random configs."""
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(20):
        cfg, dev, tiles, sp, opts = random_setup(rng)
        r = rng.randint(0, cfg.n_encoders)
        mc = model_cost(cfg, r, dev, tiles, sp, opts)
        e, d, a = oracle_model_cost(cfg, dev, tiles, sp, opts, r)
        for got, want in ((mc.e_vit_mj, e), (mc.d_vit_ms, d), (mc.a_vit_mm2, a)):
            worst = max(worst, abs(got / want - 1.0))

        # per-layer rows on the Q projection and the SV matmul
        layers = attention_layers(cfg)
        for layer in (layers[0], layers[4]):
            mapped = crossbars_for_layer(layer, tiles, dev, cfg.weight_bits)
            lc = layer_cost(
                layer, mapped, dev, tiles, cfg.input_cycles,
                pad_to_tiles=opts.pad_to_tiles,
                read_delay_pe_factor=opts.read_delay_pe_factor,
            )
            e_r, e_w, d_r, d_w = oracle_layer_rows(
                layer.t_l, mapped.n_xbar_physical * layer.copies, dev, tiles,
                cfg.input_cycles, layer.kind is LayerKind.MATMUL_SV,
                opts.read_delay_pe_factor,
            )
            for got, want in ((lc.e_read_uj, e_r), (lc.e_write_uj, e_w),
                              (lc.d_read_us, d_r), (lc.d_write_us, d_w)):
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)

        e_s, d_s = softmax_cost(cfg, sp)
        oe, od = oracle_softmax_rows(cfg.t, cfg.n_heads, sp)
        assert math.isclose(e_s, oe, rel_tol=1e-12)
        assert math.isclose(d_s, od, rel_tol=1e-12)
    verdict(
        "2 cost-table-fidelity",
        worst < 1e-12,
        f"20 random configs, worst relative deviation {worst:.2e}",
    )


def test_criterion_03_delay_structure(deit, fefet, tiles, softmax_params, cost_opts):
    """Calibrated DeiT-S baseline 10.92 ms +-5%; reuse counts and delays."""
    start = time.perf_counter()
    base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
    ladder = delay_ladder(block_table(deit, fefet, tiles, softmax_params, cost_opts))
    results = {target: find_optimal_n_reuse(ladder, target) for target in (9.0, 7.0, 6.0, 4.0)}
    elapsed = time.perf_counter() - start

    ok = abs(base.d_vit_ms / 10.92 - 1.0) <= 0.05
    expected = {9.0: (3, 8.46), 7.0: (5, 6.82), 6.0: (7, 5.18), 4.0: (9, 3.54)}
    details = [f"baseline {base.d_vit_ms:.3f} ms (ref 10.92)"]
    for target, (want_r, want_d) in expected.items():
        res = results[target]
        ok_here = (
            res.feasible
            and res.optimal_n_reuse == want_r
            and abs(res.cost.d_vit_ms / want_d - 1.0) <= 0.05
        )
        ok = ok and ok_here
        details.append(
            f"{target}ms->r={res.optimal_n_reuse}@{res.cost.d_vit_ms:.3f}"
            f" (ref {want_r}@{want_d})"
        )
    ok = ok and elapsed < 1.0
    verdict("3 delay-structure", ok, "; ".join(details) + f"; {elapsed:.3f} s")


def test_criterion_04_edap_consistency(deit, lvvit, fefet, tiles, softmax_params, cost_opts):
    """EDAP == E*D*A bit-for-bit on every row; baselines within 2% of print."""
    scenario = Scenario("acc_deit", "DeiT-S", "FeFET", (9.0, 7.0, 6.0, 4.0))
    rows = run_scenario(resolve(scenario))
    rows += run_scenario(resolve(
        Scenario("acc_lv", "LV-ViT-S", "FeFET", (12.0, 10.0, 9.0, 8.0, 6.0))))
    exact = all(
        r.edap == r.energy_mj * r.delay_ms * r.area_mm2 for r in rows if r.feasible
    )
    deit_base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
    lv_base = model_cost(lvvit, 0, fefet, tiles, softmax_params, cost_opts)
    d_ok = abs(deit_base.edap / 1115.23 - 1.0) <= 0.02
    l_ok = abs(lv_base.edap / 2030.1 - 1.0) <= 0.02
    verdict(
        "4 edap-consistency",
        exact and d_ok and l_ok,
        f"identity exact on {len(rows)} rows; baselines "
        f"{deit_base.edap:.2f} (ref 1115.23), {lv_base.edap:.2f} (ref 2030.1)",
    )


def test_criterion_05_edap_reduction_ratios(deit, lvvit, fefet, tiles, softmax_params, cost_opts):
    """Published reduction factors reproduced within +-10%."""
    setups = [
        (deit, (9.0, 7.0, 6.0, 4.0), (1.6, 2.3, 3.5, 6.3)),
        (lvvit, (12.0, 10.0, 9.0, 8.0, 6.0), (1.64, 2.19, 2.57, 3.8, 5.57)),
    ]
    ok = True
    details = []
    for cfg, targets, published in setups:
        base = model_cost(cfg, 0, fefet, tiles, softmax_params, cost_opts)
        ladder = delay_ladder(block_table(cfg, fefet, tiles, softmax_params, cost_opts))
        for target, ref in zip(targets, published):
            res = find_optimal_n_reuse(ladder, target)
            mc = model_cost(cfg, res.optimal_n_reuse, fefet, tiles, softmax_params, cost_opts)
            ratio = base.edap / mc.edap
            ok = ok and abs(ratio / ref - 1.0) <= 0.10
            details.append(f"{cfg.name}@{target}: {ratio:.2f}x (ref {ref})")
    verdict("5 edap-reductions", ok, "; ".join(details))


def test_criterion_06_throughput_metrics(deit, fefet, tiles, softmax_params, cost_opts):
    """TOPS/mm2 = 0.00054 +-5% and TOPS/W = 34.45 +-10% for DeiT-S."""
    mc = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
    mm2_ok = abs(mc.tops_per_mm2 / 0.00054 - 1.0) <= 0.05
    w_ok = abs(mc.tops_per_w / 34.45 - 1.0) <= 0.10
    verdict(
        "6 throughput-metrics",
        mm2_ok and w_ok,
        f"TOPS/mm2 {mc.tops_per_mm2:.6f} (ref 0.00054), "
        f"TOPS/W {mc.tops_per_w:.2f} (ref 34.45)",
    )


def test_criterion_07_breakdown_sanity(deit, fefet, tiles, softmax_params, cost_opts):
    """Attention delay share in [0.70, 0.90], EDAP share in [0.65, 0.85];
    TB EDAP share < 1% at n_reuse=3."""
    base_shares = breakdown(model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts))
    reuse_shares = breakdown(model_cost(deit, 3, fefet, tiles, softmax_params, cost_opts))
    d_share = base_shares["d"]["attn"]
    edap_share = base_shares["edap"]["attn"]
    tb_share = reuse_shares["edap"]["tb"]
    ok = 0.70 <= d_share <= 0.90 and 0.65 <= edap_share <= 0.85 and tb_share < 0.01
    verdict(
        "7 breakdown-sanity",
        ok,
        f"attn delay share {d_share:.3f}, attn EDAP share {edap_share:.3f}, "
        f"TB EDAP share {tb_share:.4f}",
    )


def test_criterion_08_pattern_enumeration():
    """Uniform family < 462 for (12, 5); members validate; brute subset < 10 s."""
    start = time.perf_counter()
    family = enumerate_patterns(12, 5)
    for p in family:
        validate_pattern(p)
    count_ok = len(family) < 462

    subset_ok = True
    for n in range(3, 13):
        for k in range(1, min(n - 1, 6) + 1):
            explicit = {p.reuse_set for p in all_explicit_patterns(n, k)}
            uniform = {p.reuse_set for p in enumerate_patterns(n, k)}
            subset_ok = subset_ok and uniform <= explicit
    elapsed = time.perf_counter() - start
    verdict(
        "8 pattern-enumeration",
        count_ok and subset_ok and elapsed < 10.0,
        f"|uniform(12,5)| = {len(family)} (< 462), brute-force subset check "
        f"n<=12 k<=6 in {elapsed:.2f} s",
    )


def test_criterion_09_functional_simulator(fefet, tiles):
    """(a) bit-exact lossless mode; (b) noise statistics; (c) softmax;
    (d) instrumented reuse counter."""
    # (a) 100 random 64x64 8-bit tiles, noise off, high ADC
    rng = np.random.default_rng(0)
    lossless = NoiseModel(0.0, 0.0, adc_bits=16)
    exact_ok = True
    for _ in range(100):
        w = rng.integers(-127, 128, size=(64, 64))
        x = rng.integers(-127, 128, size=(4, 64))
        pm = program_matrix(w, fefet, tiles, 8)
        if not np.array_equal(mvm_bitserial(pm, x, lossless), x @ w):
            exact_ok = False
            break

    # (b) empirical read/write noise std within 5% of 10% / 20%
    noise = NoiseModel(read_var=0.1, write_var=0.2, adc_bits=6)
    nrng = np.random.default_rng(42)
    mid = np.ones((64, 64), dtype=int)
    ideal = ideal_conductances(mid, fefet)
    writes = np.concatenate(
        [(oracle_tile(program_matrix(mid, fefet, tiles, 2, noise, nrng), 0, 0, 0, 0).conductances
          / ideal - 1.0).ravel()
         for _ in range(25)]
    )
    xb = oracle_tile(program_matrix(mid, fefet, tiles, 2), 0, 0, 0, 0)
    eye = np.eye(64)
    reads = np.concatenate(
        [(xb.read_currents(eye, noise, nrng) / xb.conductances - 1.0).ravel()
         for _ in range(25)]
    )
    write_std = writes.std(ddof=1)
    read_std = reads.std(ddof=1)
    noise_ok = (
        writes.size >= 100_000
        and reads.size >= 100_000
        and abs(write_std / 0.20 - 1.0) <= 0.05
        and abs(read_std / 0.10 - 1.0) <= 0.05
    )

    # (c) stable softmax: sums to 1 within 1e-9; matches naive within 1e-12
    srng = np.random.default_rng(1)
    soft_ok = True
    for _ in range(50):
        x = srng.normal(0, 5, size=srng.integers(2, 64))
        out = stable_softmax(x)
        naive = np.exp(x) / np.exp(x).sum()
        soft_ok = soft_ok and abs(out.sum() - 1.0) <= 1e-9
        soft_ok = soft_ok and np.max(np.abs(out - naive) / naive) <= 1e-12
    big = stable_softmax(np.array([1e4, 0.0]))
    soft_ok = soft_ok and np.all(np.isfinite(big))

    # (d) reuse {1, 3} on 4 encoders computes attention exactly twice
    cfg = toy_config(n_encoders=4)
    weights = make_toy_weights(cfg, seed=0)
    x0 = np.random.default_rng(2).standard_normal((cfg.t, cfg.d))
    result = model_forward(cfg, weights, x0, SimContext(), reuse={1, 3})
    count_ok = result.stats.attention_evals == 2

    verdict(
        "9 functional-simulator",
        exact_ok and noise_ok and soft_ok and count_ok,
        f"bit-exact on 100 tiles: {exact_ok}; write std {write_std:.4f} "
        f"(ref 0.20), read std {read_std:.4f} (ref 0.10); softmax ok: "
        f"{soft_ok}; attention evals {result.stats.attention_evals} (ref 2)",
    )


def test_criterion_10_cka(deit):
    """Identity, symmetry, and the adjacent-vs-distant trend on the toy model."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((48, 24))
    y = rng.standard_normal((48, 24))
    ident_ok = abs(cka_score(x, x) - 1.0) <= 1e-9
    sym_ok = abs(cka_score(x, y) - cka_score(y, x)) <= 1e-12

    cfg = toy_config()
    weights = make_toy_weights(cfg, seed=0)
    x0 = np.random.default_rng(1).standard_normal((cfg.t, cfg.d))
    acts = model_forward(cfg, weights, x0, SimContext()).attention_outputs
    n = len(acts)
    adjacent = float(np.mean([cka_score(acts[i], acts[i + 1]) for i in range(n - 1)]))
    distant = float(np.mean(
        [cka_score(acts[i], acts[j]) for i in range(n) for j in range(n) if j - i >= 4]
    ))
    verdict(
        "10 cka",
        ident_ok and sym_ok and adjacent > distant,
        f"cka(X,X)-1 within 1e-9: {ident_ok}; symmetric: {sym_ok}; "
        f"toy-model adjacent {adjacent:.3f} > distant {distant:.3f}",
    )


def test_criterion_11_baseline_transforms(deit_table, deit, fefet, tiles, softmax_params,
                                          cost_opts):
    """ws=2 is area-only (E, D bitwise equal); token pruning p=0 is identity."""
    base = model_cost(deit, 0, fefet, tiles, softmax_params, cost_opts)
    shared = apply_weight_sharing(deit_table, 2)
    ws_ok = (
        shared.e_vit_mj == base.e_vit_mj
        and shared.d_vit_ms == base.d_vit_ms
        and shared.a_vit_mm2 < base.a_vit_mm2
    )
    pruned = apply_token_pruning(deit_table, 0.0)
    prune_ok = pruned == base
    verdict(
        "11 baseline-transforms",
        ws_ok and prune_ok,
        f"ws=2 area {shared.a_vit_mm2:.2f} < {base.a_vit_mm2:.2f} with E/D "
        f"bitwise equal: {ws_ok}; p=0 identity: {prune_ok}",
    )


def test_criterion_12_determinism(tmp_path):
    """Identical scenario + seed produce byte-identical CSV and JSON."""
    scenario = Scenario(
        "det", "DeiT-S", "FeFET", (9.0, 6.0), patterns="all", scorer="cka", seed=123
    )

    def run(sub):
        inputs = resolve(scenario)
        rows = run_scenario(inputs)
        paths = emit(rows, str(tmp_path / sub), "det", ("csv", "json"),
                     meta=report_meta(inputs))
        return [Path(p).read_bytes() for p in sorted(paths)]

    files_ok = run("first") == run("second")

    # the functional simulator replays byte-identically per seed as well
    from xbarsim.config import load_device_params, load_tile_config
    from xbarsim.mapping import hybrid_assignment

    cfg = toy_config(n_encoders=3)
    weights = make_toy_weights(cfg, seed=9)
    x0 = np.random.default_rng(9).standard_normal((cfg.t, cfg.d))
    assignment = hybrid_assignment(load_device_params("FeFET"), load_device_params("SRAM"))
    tile_cfg = load_tile_config()

    def sim():
        ctx = SimContext(assignment, tile_cfg, seed=9)
        return model_forward(cfg, weights, x0, ctx).output.tobytes()

    sim_ok = sim() == sim()
    verdict(
        "12 determinism",
        files_ok and sim_ok,
        f"report files byte-identical: {files_ok}; "
        f"functional sim byte-identical: {sim_ok}",
    )
