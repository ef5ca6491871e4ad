"""Command line entry points.

    xbarsim simulate  --model DeiT-S --device FeFET --target-delay 9 ...
    xbarsim optimize  --model DeiT-S --device FeFET --target-delay 7
    xbarsim funcsim   --encoders 8 --dim 64 --tokens 32 --device FeFET
    xbarsim compare   --model DeiT-S --device FeFET --target-delay 7

simulate sweeps delay targets and writes the report files; optimize
prints the reuse search and ranked patterns for one target; funcsim
runs the toy functional model and dumps activations; compare puts
weight sharing, token pruning and attention reuse side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from .cost import model_cost  # noqa: F401  bench/test_bench.py traces this binding
from .funcsim import SimContext, make_toy_weights, model_forward, save_tensor
from .report import (
    Scenario,
    emit,
    make_scorer,
    pattern_families,
    report_meta,
    resolve,
    resolve_device,
    run_compare,
    run_scenario,
)
from .similarity import cka_matrix
from .workload import ModelConfig, build_model


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="DeiT-S", help="model preset name")
    p.add_argument("--device", default="FeFET",
                   help="device preset name, or 'hybrid' (FeFET FCs + SRAM matmuls)")
    p.add_argument("--config", default=None, help="INI file overriding the presets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--format", default="csv,json",
                   help="comma list of report formats (csv, json)")


def _scenario(args) -> Scenario:
    return Scenario(args.name, args.model, args.device, tuple(args.target_delay or ()),
                    args.patterns, args.scorer, args.seed, args.config)


def _report(args, rows, meta: dict, feasible_only: bool = False) -> int:
    """Print every row, then write the report files."""
    for row in rows:
        if not row.feasible:
            print(f"target {row.target_delay_ms} ms: infeasible even at maximal reuse")
        else:
            print(
                f"{row.pattern:>24}  n_reuse={row.n_reuse}  "
                f"D={row.delay_ms:.2f} ms  E={row.energy_mj:.4f} mJ  "
                f"A={row.area_mm2:.1f} mm2  EDAP={row.edap:.2f} "
                f"({row.edap_reduction:.2f}x)"
            )
    formats = tuple(f.strip() for f in args.format.split(",") if f.strip())
    if feasible_only:
        rows = [row for row in rows if row.feasible]
    paths = emit(rows, args.out, args.name, formats, meta)
    print("wrote: " + ", ".join(paths))
    return 0


def cmd_simulate(args) -> int:
    scenario = _scenario(args)
    inputs = resolve(scenario)
    return _report(args, run_scenario(scenario, inputs), report_meta(scenario, inputs))


def cmd_optimize(args) -> int:
    scenario = _scenario(args)
    families = pattern_families(scenario.patterns)
    inputs = resolve(scenario)
    result = inputs.optimize(args.target_delay[0], make_scorer(scenario, inputs.cfg),
                             families)
    if not result.feasible:
        print(f"target {result.target_delay_ms} ms infeasible "
              f"(baseline {result.baseline_delay_ms:.2f} ms)")
        return 1
    print(f"optimal n_reuse = {result.optimal_n_reuse} "
          f"(baseline {result.baseline_delay_ms:.2f} ms -> "
          f"{result.achieved_delay_ms:.2f} ms)")
    ranked = sorted(result.candidates, key=lambda c: (c[1], c[0].reuse_set))
    for pattern, score in ranked[:10]:
        marker = " <- selected" if pattern == result.best else ""
        print(f"  {pattern.kind.value:<12} {pattern.label():<20} score={score:.4f}{marker}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.name}_patterns.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "n_reuse": result.optimal_n_reuse,
                    "achieved_delay_ms": result.achieved_delay_ms,
                    "best": result.best.label() if result.best else None,
                    "candidates": {p.label(): s for p, s in ranked},
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        print(f"wrote: {path}")
    return 0


def cmd_funcsim(args) -> int:
    cfg = ModelConfig(
        name="toy", d=args.dim, t=args.tokens, mlp_ratio=2, n_encoders=args.encoders,
        n_heads=args.heads, include_stem=False,
    )
    reuse = tuple(int(i) for i in args.reuse.split(",") if i) if args.reuse else ()
    model = build_model(cfg, reuse)
    weights = make_toy_weights(cfg, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    x = rng.standard_normal((cfg.t, cfg.d))

    if args.device == "exact":
        ctx = SimContext.exact()
    else:
        sc = cfgmod.ScenarioConfig(args.config)
        tiles, noise = sc.tiles(), sc.noise()
        ctx = SimContext.crossbar(
            resolve_device(args.device, sc),
            tiles,
            adc_bits=args.adc_bits if args.adc_bits else tiles.adc_bits,
            seed=noise.get("seed", args.seed),
            device_noise=not args.no_noise,
            multiplicative=noise["multiplicative"],
            weight_bits=cfg.weight_bits,
            input_bits=cfg.input_bits,
        )

    result = model_forward(model, weights, x, ctx)
    cka = cka_matrix(result.attention_outputs)
    os.makedirs(args.out, exist_ok=True)
    save_tensor(os.path.join(args.out, "output.xbt"), result.output)
    for i, a in enumerate(result.attention_outputs):
        save_tensor(os.path.join(args.out, f"attn_{i:02d}.xbt"), a)
    summary = {
        "device": args.device,
        "seed": args.seed,
        "attention_evals": result.stats.attention_evals,
        "crossbar_matmuls": result.stats.crossbar_matmuls,
        "output_mean": float(result.output.mean()),
        "output_std": float(result.output.std()),
        "cka_adjacent_mean": float(np.mean(np.diag(cka, 1))) if cfg.n_encoders > 1 else 1.0,
        "cka": [[round(float(v), 6) for v in row] for row in cka],
    }
    with open(os.path.join(args.out, "funcsim_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"attention evaluated {result.stats.attention_evals}x "
          f"over {cfg.n_encoders} encoders; outputs in {args.out}")
    return 0


def cmd_compare(args) -> int:
    scenario = _scenario(args)
    inputs = resolve(scenario)
    rows = run_compare(scenario, args.ws or [2], args.prune_ratio or [0.3], inputs)
    return _report(args, rows, report_meta(inputs=inputs), feasible_only=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xbarsim",
        description="crossbar cost model and attention-reuse optimizer "
                    "for transformer encoders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="cost sweep over delay targets")
    _common_flags(p)
    p.add_argument("--target-delay", type=float, action="append", metavar="MS")
    p.add_argument("--patterns", default="all",
                   help="strided|continuous|pyramid|all|explicit:i,j,k")
    p.add_argument("--scorer", default="cka", help="cka | external:<path>")
    p.add_argument("--name", default="scenario")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="reuse search plus pattern ranking")
    _common_flags(p)
    p.add_argument("--target-delay", type=float, action="append", required=True,
                   metavar="MS")
    p.add_argument("--patterns", default="all")
    p.add_argument("--scorer", default="cka")
    p.add_argument("--name", default="optimize")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("funcsim", help="toy functional simulation")
    p.add_argument("--encoders", type=int, default=8)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--tokens", type=int, default=32)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--reuse", default="", help="comma list of reusing encoder indices")
    p.add_argument("--device", default="exact",
                   choices=["exact", "FeFET", "SRAM", "hybrid"])
    p.add_argument("--no-noise", action="store_true")
    p.add_argument("--adc-bits", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_funcsim)

    p = sub.add_parser("compare", help="reuse vs weight sharing vs token pruning")
    _common_flags(p)
    p.add_argument("--target-delay", type=float, action="append", metavar="MS")
    p.add_argument("--ws", type=int, action="append", default=None,
                   help="weight-sharing group size (repeatable)")
    p.add_argument("--prune-ratio", type=float, action="append", default=None,
                   metavar="P")
    p.add_argument("--name", default="compare")
    p.set_defaults(func=cmd_compare, patterns="all", scorer="cka")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
