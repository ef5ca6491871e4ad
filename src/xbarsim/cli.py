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
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from .cost import model_cost  # noqa: F401  bench/test_bench.py traces this binding
from .funcsim import SimContext, make_toy_weights, model_forward, save_tensor, toy_config
from .optimize import optimize
from .patterns import label
from .report import (
    Scenario,
    check_formats,
    check_out,
    emit,
    index_list,
    json_text,
    make_scorer,
    out_dir,
    pattern_families,
    report_meta,
    resolve,
    resolve_device,
    run_compare,
    run_scenario,
    write_text,
)
from .similarity import cka_matrix


def _format_list(spec: str) -> tuple[str, ...]:
    return tuple(f.strip() for f in spec.split(",") if f.strip())


def _common_flags(p: argparse.ArgumentParser, report: bool = True) -> None:
    p.add_argument("--model", default=None,
                   help="model preset name (default: the --config file's, else DeiT-S)")
    p.add_argument("--device", default=None,
                   help="device preset name, or 'hybrid' (FeFET FCs + SRAM matmuls); "
                        "default: the --config file's, else FeFET")
    p.add_argument("--config", default=None, help="INI file overriding the presets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out", help="output directory")
    if report:
        p.add_argument("--format", default="csv,json", type=_format_list,
                       help="comma list of report formats (csv, json)")


class _AppendOnce(argparse.Action):
    """``append`` that makes a second use a usage error instead of a list."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, [values])


def _scenario(args) -> Scenario:
    return Scenario(args.name, args.model, args.device, tuple(args.target_delay or ()),
                    args.patterns, args.scorer, args.seed, args.config)


def _report(args, rows, meta: dict, feasible_only: bool = False) -> int:
    """Print every row, then write the report files."""
    for row in rows:
        if row.pattern == "infeasible":
            print(f"target {row.target_delay_ms} ms: infeasible even at maximal reuse")
        elif not row.feasible:
            print(f"target {row.target_delay_ms} ms: infeasible, "
                  f"{row.pattern.replace('-', ' ')} fits the reuse count it needs")
        else:
            print(
                f"{row.pattern:>24}  n_reuse={row.n_reuse}  "
                f"D={row.delay_ms:.2f} ms  E={row.energy_mj:.4f} mJ  "
                f"A={row.area_mm2:.1f} mm2  EDAP={row.edap:.2f} "
                f"({row.edap_reduction:.2f}x)"
            )
    if feasible_only:
        rows = [row for row in rows if row.feasible]
    paths = emit(rows, args.out, args.name, args.format, meta=meta)
    print("wrote: " + ", ".join(paths))
    return 0


def cmd_simulate(args) -> int:
    inputs = resolve(_scenario(args))
    return _report(args, run_scenario(inputs), report_meta(inputs))


def cmd_optimize(args) -> int:
    families = pattern_families(args.patterns)  # before the scenario rejects explicit:i,j,k
    inputs = resolve(_scenario(args))
    scenario, cfg, baseline_ms = inputs.scenario, inputs.table.cfg, inputs.ladder[0].d_vit_ms
    result = optimize(inputs.ladder, args.target_delay[0], make_scorer(inputs), families)
    if not result.feasible:
        if result.optimal_n_reuse is None:
            print(f"target {result.target_delay_ms} ms infeasible "
                  f"(baseline {baseline_ms:.2f} ms)")
        else:
            print(f"target {result.target_delay_ms} ms infeasible: it needs "
                  f"n_reuse = {result.optimal_n_reuse}, and no {scenario.patterns} "
                  f"pattern of that count fits {cfg.n_encoders} encoders")
        return 1
    print(f"optimal n_reuse = {result.optimal_n_reuse} "
          f"(baseline {baseline_ms:.2f} ms -> {result.cost.d_vit_ms:.2f} ms)")
    candidates = {}  # none when the target is met with no reuse
    if result.candidates is not None:
        # rows are sorted by reuse set, so a stable sort breaks score ties by it
        for k in np.argsort(result.scores, kind="stable")[:10].tolist():
            pattern = result.candidates[k]
            marker = " <- selected" if pattern == result.best else ""
            print(f"  {pattern.kind.value:<12} {pattern.label():<20} "
                  f"score={result.scores[k]:.4f}{marker}")
        candidates = {label(row): s for row, s in
                      zip(result.candidates.sets.tolist(), result.scores.tolist())}
    path = os.path.join(out_dir(args.out), f"{args.name}_patterns.json")
    write_text(path, json_text({
        "n_reuse": result.optimal_n_reuse,
        "achieved_delay_ms": result.cost.d_vit_ms,
        "best": result.best.label() if result.best else None,
        "candidates": candidates,
    }))
    print(f"wrote: {path}")
    return 0


def cmd_funcsim(args) -> int:
    if args.encoders < 1:
        raise ValueError(f"--encoders must be >= 1, got {args.encoders}")
    cfg = toy_config(args.encoders, args.dim, args.tokens, args.heads)
    reuse = index_list(args.reuse, f"--reuse {args.reuse!r}: i,j,k")
    weights = make_toy_weights(cfg, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    x = rng.standard_normal((cfg.t, cfg.d))

    # every section of the file is checked here, for every device, exact included
    sc = cfgmod.ScenarioConfig(args.config)
    device = sc.preset_name("device", args.device, "exact")
    if device == "exact" and sc.has_section("device"):
        raise ValueError("--device exact runs on no crossbar and takes no [device] section")
    tiles, noise = sc.tiles(), sc.noise()
    if args.adc_bits is not None:
        tiles = replace(tiles, adc_bits=args.adc_bits)
    ctx = SimContext(
        None if device == "exact" else resolve_device(device, sc),
        tiles,
        seed=noise.get("seed", args.seed),
        device_noise=not args.no_noise,
        multiplicative=noise["multiplicative"],
        weight_bits=cfg.weight_bits,
        input_bits=cfg.input_bits,
    )

    result = model_forward(cfg, weights, x, ctx, reuse)
    cka = cka_matrix(result.attention_outputs)
    out = out_dir(args.out)
    save_tensor(os.path.join(out, "output.xbt"), result.output)
    for i, a in enumerate(result.attention_outputs):
        save_tensor(os.path.join(out, f"attn_{i:02d}.xbt"), a)
    summary = {
        "device": device,
        "seed": args.seed,
        "attention_evals": result.stats.attention_evals,
        "crossbar_matmuls": result.stats.crossbar_matmuls,
        "output_mean": float(result.output.mean()),
        "output_std": float(result.output.std()),
        "cka_adjacent_mean": float(np.mean(np.diag(cka, 1))) if cfg.n_encoders > 1 else 1.0,
        "cka": [[round(float(v), 6) for v in row] for row in cka],
    }
    write_text(os.path.join(out, "funcsim_summary.json"), json_text(summary))
    print(f"attention evaluated {result.stats.attention_evals}x "
          f"over {cfg.n_encoders} encoders; outputs in {args.out}")
    return 0


def cmd_compare(args) -> int:
    inputs = resolve(_scenario(args))
    rows = run_compare(inputs, args.ws or [2], args.prune_ratio or [0.3])
    return _report(args, rows, report_meta(inputs), feasible_only=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
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
    _common_flags(p, report=False)
    p.add_argument("--target-delay", type=float, action=_AppendOnce, required=True,
                   metavar="MS", help="the one delay target to search")
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
    p.add_argument("--device", default=None, choices=["exact", "FeFET", "SRAM", "hybrid"],
                   help="default: the --config file's [device] preset, else exact")
    p.add_argument("--no-noise", action="store_true")
    p.add_argument("--adc-bits", type=int, default=None,
                   help="ADC resolution (default: [tiles] adc_bits)")
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
    """Run one command; an input the command rejects is a usage error (exit 2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_out(args.out)  # before any work: a forward or search can take seconds
        if "format" in args:
            check_formats(args.format)
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"xbarsim {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
