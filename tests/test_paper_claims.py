"""The paper-claims ledger: every abstract number the cost model produces.

Each row runs the shipped presets through ``report.resolve`` and reads
its delay ladder at the reuse count that the row's delay target needs.
It states the repo's value at that count (4 decimals) beside the
paper's, and the relative distance between them that it allows. The
tolerances were chosen once, when the ledger was written, and are not
loosened to let a change pass.

A TOPS/mm² gain depends on which MACs it counts. ``executed`` is the
shipped ``tops_per_mm2`` column: a reusing encoder skips its attention
MACs, so the reused model does fewer. ``baseline`` holds the unreused
model's MACs fixed, so the same inference is done faster on less area;
the paper's gains are within 1% of it, and the executed gains 9-11%
under them.

BERT-Base's 1.6x EDAP reduction has no delay target in the abstract and
falls between two reuse counts on both devices, so its rows hold the
values at both counts and check that the paper's number lies between.

The abstract's accuracy claims (about 1% accuracy drop on DeiT-S and
LV-ViT-S, 2% higher non-ideal CoLA accuracy on BERT-Base, higher
accuracy than token pruning and weight sharing) are out of reach of the
cost model: they are judged on simulated activations and against the
baselines' fidelity (ROADMAP items 4 and 5), and listed under the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from xbarsim.cost import ModelCost
from xbarsim.optimize import find_optimal_n_reuse
from xbarsim.report import Scenario, resolve

# how close the ledger's computed value must be to its stated repo value
ROUNDING = 5e-5


@dataclass(frozen=True)
class Claim:
    claim: str  # "EDAP reduction" or "TOPS/mm2 gain"
    model: str
    device: str
    target_ms: float | None  # None: the abstract gives no delay target
    reuse: tuple[int, ...]  # one count, or the two that bracket the paper's value
    macs: str | None  # MAC convention of a TOPS/mm2 gain: "executed" or "baseline"
    repo: tuple[float, ...]  # the repo's value at each reuse count
    paper: float
    tolerance: float | None  # largest |repo / paper - 1|; None for a bracket


LEDGER = (
    Claim("EDAP reduction", "DeiT-S", "FeFET", 7.0, (5,), None, (2.2397,), 2.3, 0.03),
    Claim("TOPS/mm2 gain", "DeiT-S", "FeFET", 7.0, (5,), "executed", (1.6959,), 1.86, 0.12),
    Claim("TOPS/mm2 gain", "DeiT-S", "FeFET", 7.0, (5,), "baseline", (1.8776,), 1.86, 0.02),
    Claim("EDAP reduction", "LV-ViT-S", "FeFET", 10.0, (6,), None, (2.1395,), 2.19, 0.03),
    Claim("TOPS/mm2 gain", "LV-ViT-S", "FeFET", 10.0, (6,), "executed", (1.5983,), 1.79, 0.12),
    Claim("TOPS/mm2 gain", "LV-ViT-S", "FeFET", 10.0, (6,), "baseline", (1.7817,), 1.79, 0.02),
    Claim("EDAP reduction", "BERT-Base", "FeFET", None, (3, 4), None, (1.4695, 1.6991), 1.6,
          None),
    Claim("EDAP reduction", "BERT-Base", "hybrid", None, (3, 4), None, (1.4924, 1.7344), 1.6,
          None),
)

OUT_OF_REACH = (
    "~1% accuracy drop, DeiT-S and LV-ViT-S: ROADMAP item 4",
    "2% higher non-ideal CoLA accuracy, BERT-Base: ROADMAP item 4",
    "higher accuracy than token pruning and weight sharing: ROADMAP item 5",
)


@cache
def _ladder(model: str, device: str) -> tuple[ModelCost, ...]:
    return resolve(Scenario("ledger", model, device)).ladder


def _value(row: Claim, r: int) -> float:
    ladder = _ladder(row.model, row.device)
    base, mc = ladder[0], ladder[r]
    if row.macs is None:
        return base.edap / mc.edap
    macs = {"executed": mc.macs, "baseline": base.macs}[row.macs]
    return macs / (mc.d_vit_ms * 1e9 * mc.a_vit_mm2) / base.tops_per_mm2


def _check(row: Claim) -> tuple[tuple[float, ...], list[str]]:
    """The row's computed values and every way they miss its statement."""
    values = tuple(_value(row, r) for r in row.reuse)
    faults = []
    if row.target_ms is not None:
        found = find_optimal_n_reuse(_ladder(row.model, row.device), row.target_ms)
        if found.optimal_n_reuse != row.reuse[0]:
            faults.append(f"target needs r = {found.optimal_n_reuse}")
    if any(abs(v - stated) > ROUNDING for v, stated in zip(values, row.repo)):
        faults.append("repo value moved")
    if row.tolerance is None:
        if not min(row.repo) < row.paper < max(row.repo):
            faults.append("paper value not bracketed")
    elif abs(row.repo[0] / row.paper - 1.0) > row.tolerance:
        faults.append("beyond tolerance")
    return values, faults


def _table(checked) -> str:
    lines = ["| Scenario | Reuse | Claim | MACs | Repo | Computed | Paper | Allowed | Result |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for row, (values, faults) in checked:
        target = f", {row.target_ms:g} ms" if row.target_ms is not None else ""
        allowed = "between" if row.tolerance is None else f"±{row.tolerance:.0%}"
        lines.append(
            f"| {row.model}, {row.device}{target} "
            f"| r = {' / '.join(map(str, row.reuse))} | {row.claim} | {row.macs or '-'} "
            f"| {' / '.join(f'{v:.4f}x' for v in row.repo)} "
            f"| {' / '.join(f'{v:.4f}x' for v in values)} | {row.paper}x | {allowed} "
            f"| {'; '.join(faults) or 'ok'} |"
        )
    lines += ["", "Out of reach of the cost model:"] + [f"- {claim}" for claim in OUT_OF_REACH]
    return "\n".join(lines)


def test_every_abstract_number_holds_its_ledger_row():
    checked = [(row, _check(row)) for row in LEDGER]
    assert not any(faults for _, (_, faults) in checked), "\n" + _table(checked)


def test_the_ledger_covers_every_cost_claim_of_the_abstract():
    claims = {(row.claim, row.model, row.paper) for row in LEDGER}
    assert claims == {
        ("EDAP reduction", "DeiT-S", 2.3), ("TOPS/mm2 gain", "DeiT-S", 1.86),
        ("EDAP reduction", "LV-ViT-S", 2.19), ("TOPS/mm2 gain", "LV-ViT-S", 1.79),
        ("EDAP reduction", "BERT-Base", 1.6),
    }
