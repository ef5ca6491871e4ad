"""Scenario orchestration, and the layout of every file the CLI writes.

A scenario evaluates one model on one device. ``resolve`` turns it into
cost-model inputs, the presets under its config file, for every
command, and costs the scenario once: one block table, and from it the
delay ladder, the model cost at every reuse count. ``run_scenario``
gives a baseline row plus one row per delay target, each target
resolved on that ladder to its minimal reuse count and a concrete
reuse pattern picked by the configured scorer; ``run_compare`` puts
weight sharing, assembled from the same table, and token pruning
beside the same reuse rows. Rows
carry the headline metrics and EDAP reduction against baseline;
per-block breakdown shares are emitted alongside (separate CSV, and
inline in the JSON document).

Emission is deterministic: fixed column order, fixed float formatting,
no timestamps, so identical scenarios and seeds produce byte-identical
files. The JSON meta block states the conventions of the model and
cost options the rows were costed from, the block table of ``resolve``
(accuracy is intentionally absent: it is not computable here).
Every file a command writes is encoded by ``json_text`` (JSON) and
written by ``write_text`` under ``out_dir``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import config as cfgmod
from .cost import (
    BlockTable,
    ModelCost,
    apply_token_pruning,
    apply_weight_sharing,
    block_table,
    breakdown,
    model_cost,
)
from .mapping import hybrid_assignment
from .optimize import (
    Scorer,
    check_target,
    delay_ladder,
    load_external_scorer,
    make_cka_scorer,
    optimize,
    synthetic_attention_outputs,
)
from .patterns import UNIFORM_FAMILIES, PatternKind, explicit_pattern

# (CSV header, ReportRow field, decimals or None for text,
#  unit stated in the JSON meta block or None)
CSV_COLUMNS = (
    ("scenario", "scenario", None, None),
    ("model", "model", None, None),
    ("device", "device", None, None),
    ("n_reuse", "n_reuse", None, None),
    ("pattern", "pattern", None, None),
    ("energy_mJ", "energy_mj", 4, "millijoule"),
    ("delay_ms", "delay_ms", 2, "millisecond"),
    ("area_mm2", "area_mm2", 2, "square millimetre"),
    ("edap", "edap", 2, "mJ*ms*mm2"),
    ("tops_per_w", "tops_per_w", 2, None),
    ("tops_per_mm2", "tops_per_mm2", 6, None),
    ("edap_reduction", "edap_reduction", 2, None),
)
CSV_HEADER = ",".join(header for header, *_ in CSV_COLUMNS)

# the share kinds of ``cost.breakdown``, one breakdown column each
SHARES = ("e", "d", "a", "edap")
BREAKDOWN_HEADER = "scenario,pattern,block," + ",".join(f"{s}_share" for s in SHARES)


@dataclass(frozen=True)
class Scenario:
    """``model`` and ``device`` name presets; None takes the config file's
    ``preset``, else DeiT-S and FeFET (see ``resolve``)."""

    name: str
    model: str | None
    device: str | None  # preset name, or "hybrid" for FeFET weights + SRAM matmuls
    target_delays_ms: tuple[float, ...] = ()
    patterns: str = "all"  # strided | continuous | pyramid | all | explicit:i,j,k
    scorer: str = "cka"  # cka | external:<path>
    seed: int = 0
    config_path: str | None = None

    def __post_init__(self) -> None:
        """Every spec is checked here, before any costing or search."""
        for target in self.target_delays_ms:
            check_target(target)
        if self.patterns.startswith("explicit:"):
            explicit_indices(self.patterns)
        else:
            pattern_families(self.patterns)
        if self.scorer != "cka" and not self.scorer.startswith("external:"):
            raise ValueError(f"unknown scorer {self.scorer!r}")


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
    "all": UNIFORM_FAMILIES,
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


def index_list(text: str, usage: str) -> tuple[int, ...]:
    """The comma-separated encoder indices of ``text``; the error for a
    non-integer one starts with ``usage``."""
    try:
        return tuple(int(i) for i in text.split(",") if i)
    except ValueError:
        raise ValueError(f"{usage} takes integer encoder indices") from None


def explicit_indices(spec: str) -> tuple[int, ...]:
    """The encoder indices of an ``explicit:i,j,k`` pattern spec."""
    return index_list(spec.split(":", 1)[1], f"--patterns {spec!r}: explicit:i,j,k")


def make_scorer(inputs: Inputs) -> Scorer:
    """The scorer the scenario of ``inputs`` names, over its model's encoders."""
    scenario = inputs.scenario
    if scenario.scorer == "cka":
        acts = synthetic_attention_outputs(inputs.table.cfg.n_encoders, seed=scenario.seed)
        return make_cka_scorer(acts)
    return load_external_scorer(scenario.scorer.split(":", 1)[1])


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
    """A scenario costed once: the scenario with the preset names it ran,
    the block table of its resolved inputs, the delay ladder of that
    table, and the token-pruning overhead."""

    scenario: Scenario
    table: BlockTable
    ladder: tuple[ModelCost, ...]
    pruning_overhead: tuple[float, float, float]

    def baseline(self) -> ModelCost:
        """The cost without reuse, equal to ``ladder[0]``. It is costed by
        ``model_cost``, the call bench/test_bench.py traces in a simulate op."""
        t = self.table
        return model_cost(t.cfg, 0, t.dev, t.tiles, t.sp, t.opts)


def resolve(scenario: Scenario) -> Inputs:
    """The presets under the scenario's config file, resolved once, and
    the block table and delay ladder every target of it reads.

    Each preset name is the scenario's, else the file's ``preset``, else
    DeiT-S and FeFET; the returned scenario names the ones in force."""
    sc = cfgmod.ScenarioConfig(scenario.config_path)
    scenario = replace(scenario, model=sc.preset_name("model", scenario.model, "DeiT-S"),
                       device=sc.preset_name("device", scenario.device, "FeFET"))
    cfg = sc.model(scenario.model)
    if cfg.n_encoders < 1:
        raise ValueError(f"model {cfg.name} has n_encoders = {cfg.n_encoders}; "
                         "a scenario needs at least one encoder")
    table = block_table(cfg, resolve_device(scenario.device, sc), sc.tiles(),
                        sc.softmax(), sc.cost_options())
    return Inputs(scenario, table, delay_ladder(table), sc.pruning_overhead())


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
    inputs: Inputs,
    target: float,
    scorer: Scorer,
    base_edap: float,
    detail: bool = True,
) -> ReportRow:
    """One delay target: infeasible, met at zero reuse, or the best pattern.

    A target whose reuse count no pattern of the chosen family has is
    infeasible under the pattern ``no-<family>-pattern``.
    """
    scenario = inputs.scenario
    found = optimize(inputs.ladder, target, scorer, pattern_families(scenario.patterns))
    if not found.feasible:
        reason = ("infeasible" if found.optimal_n_reuse is None
                  else f"no-{scenario.patterns}-pattern")
        return _row(scenario, None, reason, base_edap, target)
    label = found.best.label() if found.best is not None else "none"
    if not detail:
        label = f"reuse@{target}ms {label}"
    return _row(scenario, found.cost, label, base_edap, target, detail)


def run_scenario(inputs: Inputs) -> list[ReportRow]:
    """Baseline row plus one row per delay target of ``inputs.scenario``,
    in input order; rows name the presets ``inputs`` was costed from."""
    scenario = inputs.scenario
    base = inputs.baseline()
    rows = [_row(scenario, base, "none", base.edap)]
    if scenario.patterns.startswith("explicit:"):
        if scenario.target_delays_ms:
            raise ValueError("--patterns explicit:i,j,k fixes the reuse set and "
                             "takes no --target-delay")
        pat = explicit_pattern(inputs.table.cfg.n_encoders,
                               explicit_indices(scenario.patterns))
        rows.append(_row(scenario, inputs.ladder[pat.n_reuse], pat.label(), base.edap))
        return rows
    scorer = make_scorer(inputs)
    rows += [_target_row(inputs, t, scorer, base.edap)
             for t in scenario.target_delays_ms]
    return rows


def run_compare(
    inputs: Inputs,
    ws_groups: "list[int]",
    prune_ratios: "list[float]",
) -> list[ReportRow]:
    """Baseline, weight sharing, token pruning and attention reuse per target.

    An infeasible reuse target gives an infeasible row, which the
    compare report leaves out.
    """
    scenario, table = inputs.scenario, inputs.table
    base = inputs.baseline()
    entries = [("baseline", base)]
    entries += [(f"ws={ws}", apply_weight_sharing(table, ws)) for ws in ws_groups]
    entries += [(f"prune p={p:.2f}", apply_token_pruning(table, p, inputs.pruning_overhead))
                for p in prune_ratios]
    rows = [_row(scenario, mc, label, base.edap, detail=False) for label, mc in entries]
    scorer = make_scorer(inputs)
    rows += [_target_row(inputs, t, scorer, base.edap, detail=False)
             for t in scenario.target_delays_ms]
    return rows


def report_meta(inputs: Inputs) -> dict:
    """Report-header facts: the scenario of ``inputs``, and the
    conventions of its model and cost options, the ones the report was
    costed from."""
    cfg, opts = inputs.table.cfg, inputs.table.opts
    area = ("rounded up to whole tiles (pad_to_tiles)" if opts.pad_to_tiles
            else "not rounded to whole tiles (pad_to_tiles off)")
    if cfg.include_stem:
        stem = "stem (patch embedding and classifier) included as mapped layers"
    else:
        stem = "stem excluded in the calibrated model presets"
    if cfg.input_cycles > 1:
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
    return {
        "accuracy_note": (
            "accuracy columns are intentionally absent: classification "
            "accuracy is not computable by this cost model"
        ),
        "area_convention": f"per-layer areas {area}, {stem}",
        "serialization_convention": serialization,
        "tb_convention": f"transformation blocks charged as {tb}",
        "scenario": {k: v for k, v in vars(inputs.scenario).items() if k != "config_path"},
        "units": {header: unit for header, *_, unit in CSV_COLUMNS if unit},
    }


def _cell(value, decimals: int | None) -> str:
    if value is None:
        return ""
    return str(value) if decimals is None else f"{value:.{decimals}f}"


def format_csv(rows: "list[ReportRow]") -> str:
    lines = [CSV_HEADER]
    lines += [",".join(_cell(getattr(r, field), decimals)
                       for _, field, decimals, _ in CSV_COLUMNS) for r in rows]
    return "\n".join(lines) + "\n"


def format_breakdown_csv(rows: "list[ReportRow]") -> str:
    lines = [BREAKDOWN_HEADER]
    lines += [",".join([r.scenario, r.pattern, block,
                        *(_cell(r.breakdown[share][block], 4) for share in SHARES)])
              for r in rows if r.breakdown for block in sorted(r.breakdown["e"])]
    return "\n".join(lines) + "\n"


# ReportRow field -> JSON key: the CSV header, where the two differ
_JSON_KEYS = {field: header for header, field, *_ in CSV_COLUMNS if header != field}


def json_text(doc) -> str:
    """The one JSON encoding of every file the CLI writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_text(path: str, text: str) -> str:
    """Write ``text`` as UTF-8 with LF line ends; returns ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def check_out(path: str) -> str:
    """``path`` if it can name an output directory, which is not created."""
    if not path:
        raise ValueError("--out must name a directory")
    if os.path.exists(path) and not os.path.isdir(path):
        raise ValueError(f"--out {path!r} exists and is not a directory")
    return path


def out_dir(path: str) -> str:
    """The directory ``--out`` names, created if missing."""
    os.makedirs(check_out(path), exist_ok=True)
    return path


def rows_to_json(rows: "list[ReportRow]", meta: dict) -> str:
    return json_text({
        "meta": meta,
        "rows": [{_JSON_KEYS.get(k, k): v for k, v in vars(r).items()} for r in rows],
    })


FORMATS = ("csv", "json")  # the report formats ``emit`` writes


def check_formats(formats: "tuple[str, ...]") -> None:
    """Reject ``formats`` unless it names at least one report format, each once."""
    for i, fmt in enumerate(formats):
        if fmt not in FORMATS:
            raise ValueError(f"unknown report format {fmt!r}")
        if fmt in formats[:i]:
            raise ValueError(f"report format {fmt!r} given twice")
    if not formats:
        raise ValueError("no report format given")


def emit(
    rows: "list[ReportRow]",
    directory: str,
    basename: str,
    formats: "tuple[str, ...]" = ("csv", "json"),
    *,
    meta: dict,
) -> list[str]:
    """Write the report files under ``out_dir(directory)``, the JSON with
    ``meta`` as its header; returns the paths written. Every format is
    checked before anything is written."""
    files = {
        "csv": ((".csv", format_csv), ("_breakdown.csv", format_breakdown_csv)),
        "json": ((".json", lambda rows: rows_to_json(rows, meta)),),
    }
    check_formats(formats)
    directory = out_dir(directory)
    return [write_text(os.path.join(directory, basename + suffix), render(rows))
            for fmt in formats for suffix, render in files[fmt]]
