"""Scenario orchestration and CSV/JSON report emission.

A scenario evaluates one model on one device. ``resolve`` turns it into
cost-model inputs, the presets under its config file, for every
command. ``run_scenario`` gives a baseline row plus one row per delay
target, each target resolved to its minimal reuse count and a concrete
reuse pattern picked by the configured scorer; ``run_compare`` puts
weight sharing and token pruning beside the same reuse rows. Rows
carry the headline metrics and EDAP reduction against baseline;
per-block breakdown shares are emitted alongside (separate CSV, and
inline in the JSON document).

Emission is deterministic: fixed column order, fixed float formatting,
no timestamps, so identical scenarios and seeds produce byte-identical
files. The JSON meta block states the conventions of the cost options
used (accuracy is intentionally absent: it is not computable here).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import NamedTuple

from . import config as cfgmod
from .cost import (
    CostOptions,
    ModelCost,
    SoftmaxUnitParams,
    apply_token_pruning,
    apply_weight_sharing,
    breakdown,
    model_cost,
)
from .mapping import DeviceAssignment, DeviceParams, TileConfig, hybrid_assignment
from .optimize import (
    OptimizationResult,
    Scorer,
    load_external_scorer,
    make_cka_scorer,
    optimize,
    synthetic_attention_outputs,
)
from .patterns import PatternKind, explicit_pattern
from .workload import ModelConfig

CSV_HEADER = (
    "scenario,model,device,n_reuse,pattern,energy_mJ,delay_ms,area_mm2,"
    "edap,tops_per_w,tops_per_mm2,edap_reduction"
)

BREAKDOWN_HEADER = "scenario,pattern,block,e_share,d_share,a_share,edap_share"


@dataclass(frozen=True)
class Scenario:
    name: str
    model: str
    device: str  # preset name, or "hybrid" for FeFET weights + SRAM matmuls
    target_delays_ms: tuple[float, ...] = ()
    patterns: str = "all"  # strided | continuous | pyramid | all | explicit:i,j,k
    scorer: str = "cka"  # cka | external:<path>
    seed: int = 0
    config_path: str | None = None

    def __post_init__(self) -> None:
        if any(t <= 0 for t in self.target_delays_ms):
            raise ValueError("target delays must be positive")


@dataclass(frozen=True)
class ReportRow:
    scenario: str
    model: str
    device: str
    n_reuse: int | None
    pattern: str
    energy_mj: float | None
    delay_ms: float | None
    area_mm2: float | None
    edap: float | None
    tops_per_w: float | None
    tops_per_mm2: float | None
    edap_reduction: float | None
    target_delay_ms: float | None = None
    feasible: bool = True
    breakdown: dict | None = None


_FAMILIES = {
    "all": (PatternKind.STRIDED, PatternKind.CONTINUOUS, PatternKind.PYRAMID),
    "strided": (PatternKind.STRIDED,),
    "continuous": (PatternKind.CONTINUOUS,),
    "pyramid": (PatternKind.PYRAMID,),
}


def pattern_families(spec: str) -> tuple[PatternKind, ...]:
    if spec.startswith("explicit:"):
        raise ValueError(
            "--patterns explicit:i,j,k fixes one pattern and is simulate-only; "
            f"pattern ranking takes one of {', '.join(_FAMILIES)}"
        )
    if spec not in _FAMILIES:
        raise ValueError(f"unknown pattern family {spec!r}")
    return _FAMILIES[spec]


def make_scorer(scenario: Scenario, cfg: ModelConfig) -> Scorer:
    if scenario.scorer == "cka":
        acts = synthetic_attention_outputs(cfg.n_encoders, seed=scenario.seed)
        return make_cka_scorer(acts)
    if scenario.scorer.startswith("external:"):
        return load_external_scorer(scenario.scorer.split(":", 1)[1])
    raise ValueError(f"unknown scorer {scenario.scorer!r}")


def resolve_device(name: str, sc: cfgmod.ScenarioConfig):
    """A device preset under the user's [device] keys, or for "hybrid"
    the FeFET and SRAM presets paired by ``hybrid_assignment``."""
    if name != "hybrid":
        return sc.device(name)
    if sc.has_section("device"):
        raise ValueError(
            "--device hybrid pairs the FeFET and SRAM presets and takes no "
            "[device] section"
        )
    return hybrid_assignment(sc.device("FeFET"), sc.device("SRAM"))


class Inputs(NamedTuple):
    """A scenario's resolved cost-model inputs."""

    cfg: ModelConfig
    dev: DeviceParams | DeviceAssignment
    tiles: TileConfig
    sp: SoftmaxUnitParams
    opts: CostOptions
    pruning_overhead: tuple[float, float, float]

    def cost(self, n_reuse: int) -> ModelCost:
        return model_cost(self.cfg, n_reuse, self.dev, self.tiles, self.sp, self.opts)

    def optimize(self, target: float, scorer: Scorer, families) -> OptimizationResult:
        return optimize(self.cfg, self.dev, self.tiles, self.sp, target, scorer,
                        self.opts, families)


def resolve(scenario: Scenario) -> Inputs:
    """The presets under the scenario's config file, resolved once."""
    sc = cfgmod.ScenarioConfig(scenario.config_path)
    return Inputs(sc.model(scenario.model), resolve_device(scenario.device, sc),
                  sc.tiles(), sc.softmax(), sc.cost_options(), sc.pruning_overhead())


def _row(
    scenario: Scenario,
    mc: ModelCost | None,
    pattern: str,
    base_edap: float,
    target: float | None = None,
    detail: bool = True,
) -> ReportRow:
    """The row for ``mc``, or for an infeasible target when ``mc`` is None.

    Only ``detail`` rows record their target and block breakdown; the
    compare table's rows carry neither.
    """
    if mc is None:
        return ReportRow(scenario.name, scenario.model, scenario.device, None, pattern,
                         *[None] * 7, target_delay_ms=target, feasible=False)
    return ReportRow(
        scenario=scenario.name,
        model=scenario.model,
        device=scenario.device,
        n_reuse=mc.n_reuse,
        pattern=pattern,
        energy_mj=mc.e_vit_mj,
        delay_ms=mc.d_vit_ms,
        area_mm2=mc.a_vit_mm2,
        edap=mc.edap,
        tops_per_w=mc.tops_per_w,
        tops_per_mm2=mc.tops_per_mm2,
        edap_reduction=base_edap / mc.edap,
        target_delay_ms=target if detail else None,
        breakdown=breakdown(mc) if detail else None,
    )


def _target_row(
    scenario: Scenario,
    inputs: Inputs,
    target: float,
    scorer: Scorer,
    base_edap: float,
    detail: bool = True,
) -> ReportRow:
    """One delay target: infeasible, met at zero reuse, or the best pattern."""
    found = inputs.optimize(target, scorer, pattern_families(scenario.patterns))
    if not found.feasible:
        return _row(scenario, None, "infeasible", base_edap, target)
    label = found.best.label() if found.best is not None else "none"
    if not detail:
        label = f"reuse@{target}ms {label}"
    return _row(scenario, inputs.cost(found.optimal_n_reuse), label, base_edap,
                target, detail)


def run_scenario(scenario: Scenario, inputs: Inputs | None = None) -> list[ReportRow]:
    """Baseline row plus one row per delay target, in input order."""
    inputs = resolve(scenario) if inputs is None else inputs
    base = inputs.cost(0)
    rows = [_row(scenario, base, "none", base.edap)]
    if scenario.patterns.startswith("explicit:"):
        indices = (int(i) for i in scenario.patterns.split(":", 1)[1].split(",") if i)
        pat = explicit_pattern(inputs.cfg.n_encoders, indices)
        rows.append(_row(scenario, inputs.cost(pat.n_reuse), pat.label(), base.edap))
        return rows
    scorer = make_scorer(scenario, inputs.cfg)
    rows += [_target_row(scenario, inputs, t, scorer, base.edap)
             for t in scenario.target_delays_ms]
    return rows


def run_compare(
    scenario: Scenario,
    ws_groups: "list[int]",
    prune_ratios: "list[float]",
    inputs: Inputs | None = None,
) -> list[ReportRow]:
    """Baseline, weight sharing, token pruning and attention reuse per target.

    An infeasible reuse target gives an infeasible row, which the
    compare report leaves out.
    """
    inputs = resolve(scenario) if inputs is None else inputs
    cfg, dev, tiles, sp, opts, overhead = inputs
    base = inputs.cost(0)
    entries = [("baseline", base)]
    entries += [(f"ws={ws}", apply_weight_sharing(cfg, ws, dev, tiles, sp, opts))
                for ws in ws_groups]
    entries += [(f"prune p={p:.2f}",
                 apply_token_pruning(cfg, p, dev, tiles, sp, opts, overhead))
                for p in prune_ratios]
    rows = [_row(scenario, mc, label, base.edap, detail=False) for label, mc in entries]
    scorer = make_scorer(scenario, cfg)
    rows += [_target_row(scenario, inputs, t, scorer, base.edap, detail=False)
             for t in scenario.target_delays_ms]
    return rows


def report_meta(scenario: Scenario | None = None, inputs: Inputs | None = None) -> dict:
    """Report-header facts, stated from the model and cost options the
    report used.

    ``inputs`` defaults to the scenario resolved under its config file;
    with neither, the calibrated presets' conventions are stated.
    """
    if inputs is None and scenario is not None:
        inputs = resolve(scenario)
    opts = inputs.opts if inputs is not None else cfgmod.ScenarioConfig().cost_options()
    cfg = inputs.cfg if inputs is not None else None
    area = ("rounded up to whole tiles (pad_to_tiles)" if opts.pad_to_tiles
            else "not rounded to whole tiles (pad_to_tiles off)")
    if cfg is not None and cfg.include_stem:
        stem = "stem (patch embedding and classifier) included as mapped layers"
    else:
        stem = "stem excluded in the calibrated model presets"
    if cfg is not None and cfg.input_cycles > 1:
        serialization = (
            f"device read constants cover one {cfg.input_split_bits}-bit input "
            f"slice; reads repeat over input_bits / input_split_bits = "
            f"{cfg.input_cycles} cycles"
        )
    else:
        serialization = (
            "device read constants cover one full input presentation; "
            "input_split_bits equals input_bits in the calibrated presets"
        )
    tb = ("mapped d x d crossbar FCs (tb_on_crossbars)" if opts.tb_on_crossbars
          else "calibrated digital constants (zero by default), not as mapped crossbar FCs")
    meta = {
        "accuracy_note": (
            "accuracy columns are intentionally absent: classification "
            "accuracy is not computable by this cost model"
        ),
        "area_convention": f"per-layer areas {area}, {stem}",
        "serialization_convention": serialization,
        "tb_convention": f"transformation blocks charged as {tb}",
        "units": {
            "energy_mJ": "millijoule",
            "delay_ms": "millisecond",
            "area_mm2": "square millimetre",
            "edap": "mJ*ms*mm2",
        },
    }
    if scenario is not None:
        meta["scenario"] = {
            "name": scenario.name,
            "model": scenario.model,
            "device": scenario.device,
            "target_delays_ms": list(scenario.target_delays_ms),
            "patterns": scenario.patterns,
            "scorer": scenario.scorer,
            "seed": scenario.seed,
        }
    return meta


def _fmt(value: float | int | None, decimals: int) -> str:
    if value is None:
        return ""
    return f"{value:.{decimals}f}"


def format_csv(rows: "list[ReportRow]") -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.scenario,
                    r.model,
                    r.device,
                    "" if r.n_reuse is None else str(r.n_reuse),
                    r.pattern,
                    _fmt(r.energy_mj, 4),
                    _fmt(r.delay_ms, 2),
                    _fmt(r.area_mm2, 2),
                    _fmt(r.edap, 2),
                    _fmt(r.tops_per_w, 2),
                    _fmt(r.tops_per_mm2, 6),
                    _fmt(r.edap_reduction, 2),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def format_breakdown_csv(rows: "list[ReportRow]") -> str:
    lines = [BREAKDOWN_HEADER]
    for r in rows:
        if not r.breakdown:
            continue
        for block in sorted(r.breakdown["e"]):
            lines.append(
                ",".join(
                    [
                        r.scenario,
                        r.pattern,
                        block,
                        _fmt(r.breakdown["e"][block], 4),
                        _fmt(r.breakdown["d"][block], 4),
                        _fmt(r.breakdown["a"][block], 4),
                        _fmt(r.breakdown["edap"][block], 4),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


# ReportRow field -> JSON key, where the two differ
_JSON_KEYS = {"energy_mj": "energy_mJ"}
_FIELDS = {key: name for name, key in _JSON_KEYS.items()}


def rows_to_json(rows: "list[ReportRow]", meta: dict | None = None) -> str:
    doc = {
        "meta": meta or report_meta(),
        "rows": [{_JSON_KEYS.get(k, k): v for k, v in vars(r).items()} for r in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def rows_from_json(text: str) -> "list[ReportRow]":
    return [ReportRow(**{_FIELDS.get(k, k): v for k, v in r.items()})
            for r in json.loads(text)["rows"]]


def emit(
    rows: "list[ReportRow]",
    out_dir: str,
    basename: str,
    formats: "tuple[str, ...]" = ("csv", "json"),
    meta: dict | None = None,
) -> list[str]:
    """Write the report files; returns the paths written.

    The XBARSIM_OUT_DIR environment variable overrides ``out_dir``.
    """
    out_dir = os.environ.get("XBARSIM_OUT_DIR", out_dir)
    os.makedirs(out_dir, exist_ok=True)
    files = {
        "csv": ((".csv", format_csv), ("_breakdown.csv", format_breakdown_csv)),
        "json": ((".json", lambda rows: rows_to_json(rows, meta)),),
    }
    written = []
    for fmt in formats:
        if fmt not in files:
            raise ValueError(f"unknown report format {fmt!r}")
        for suffix, render in files[fmt]:
            path = os.path.join(out_dir, basename + suffix)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(render(rows))
            written.append(path)
    return written
