"""Delay-targeted reuse search and pattern ranking.

The search reads a delay ladder, the model cost at every reuse count
assembled from one block table, upward from zero and stops at the
first count whose modelled delay meets the target; because the stack
is isotropic the count fully determines cost. One ladder serves every
target of a configuration. Which encoders to pick
is then a quality question: candidates come from the uniform pattern
families and are ranked by a pluggable scorer (lower is better).

The reference ranking signal in the source method is partial-training
loss, which needs a GPU and the full dataset; at desk scale we ship a
CKA proxy instead. It penalizes a pattern by how dissimilar each
reused attention output is from the attention it replaces, computed
on user-supplied or synthetic per-encoder attention activations.
External per-pattern scores from a JSON file are also accepted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .cost import (
    BlockTable,
    CostOptions,
    ModelCost,
    SoftmaxUnitParams,
    assemble,
    block_table,
)
from .cost import model_cost  # noqa: F401  bench/test_bench.py traces this binding
from .mapping import DeviceAssignment, DeviceParams, TileConfig
from .patterns import (
    PatternKind,
    ReusePattern,
    enumerate_patterns,
    reuse_sources,
    select_best,
)
from .similarity import centered, cka_score
from .workload import ModelConfig

Scorer = Callable[[ReusePattern], float]


@dataclass(frozen=True)
class OptimizationResult:
    """``cost`` is the whole-model cost at ``optimal_n_reuse``."""

    target_delay_ms: float
    feasible: bool
    optimal_n_reuse: int | None
    cost: ModelCost | None
    baseline_delay_ms: float
    candidates: tuple[tuple[ReusePattern, float], ...] = ()
    best: ReusePattern | None = None

    @property
    def achieved_delay_ms(self) -> float | None:
        return None if self.cost is None else self.cost.d_vit_ms


def check_target(target_delay_ms: float) -> None:
    """A delay target must be a positive, finite number of milliseconds."""
    if not (math.isfinite(target_delay_ms) and target_delay_ms > 0):
        raise ValueError(f"target delay must be positive and finite, got {target_delay_ms}")


def delay_ladder(table: BlockTable, n_encoders: int) -> tuple[ModelCost, ...]:
    """The model cost at every reuse count r = 0 .. n_encoders - 1.

    Entry r is ``model_cost(cfg, r, ...)`` bit for bit, assembled from
    the configuration's one block table. The count stops at
    n_encoders - 1: every reuser needs some preceding encoder to draw from.
    """
    if n_encoders < 1:
        raise ValueError(f"a delay search needs at least one encoder, got {n_encoders}")
    return tuple(assemble([(table, n_encoders - r, r)]) for r in range(n_encoders))


def search_ladder(ladder: Sequence[ModelCost], target_delay_ms: float) -> OptimizationResult:
    """Smallest reuse count on ``delay_ladder`` whose delay meets the target.

    An unreachable target yields an explicit infeasible result, never a
    clamped one.
    """
    check_target(target_delay_ms)
    baseline = ladder[0].d_vit_ms
    for r, cost in enumerate(ladder):
        if cost.d_vit_ms <= target_delay_ms:
            return OptimizationResult(target_delay_ms, True, r, cost, baseline)
    return OptimizationResult(target_delay_ms, False, None, None, baseline)


def rank_patterns(
    found: OptimizationResult,
    n_encoders: int,
    scorer: Scorer,
    families: Iterable[PatternKind],
) -> OptimizationResult:
    """``found`` with the patterns of its reuse count scored and the best picked.

    When no pattern of the chosen families has the reuse count the delay
    needs, the result is infeasible but keeps that count: a larger count
    fits no better, since a pattern's span grows with its count.
    """
    if not found.feasible or found.optimal_n_reuse == 0:
        return found
    patterns = enumerate_patterns(n_encoders, found.optimal_n_reuse, families)
    if not patterns:
        return replace(found, feasible=False)
    scored = tuple((p, float(scorer(p))) for p in patterns)
    return replace(found, candidates=scored,
                   best=select_best(patterns, dict(scored).__getitem__))


def find_optimal_n_reuse(
    cfg: ModelConfig,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    sp: SoftmaxUnitParams,
    target_delay_ms: float,
    opts: CostOptions = CostOptions(),
) -> OptimizationResult:
    """Smallest reuse count whose delay meets the target.

    ``search_ladder`` over the ``delay_ladder`` of one block table, so
    the cost is ``model_cost(cfg, r, ...)`` bit for bit. A caller with
    several targets builds the ladder once and searches it per target.
    """
    table = block_table(cfg, dev, tiles, sp, opts)
    return search_ladder(delay_ladder(table, cfg.n_encoders), target_delay_ms)


def optimize(
    cfg: ModelConfig,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    sp: SoftmaxUnitParams,
    target_delay_ms: float,
    scorer: Scorer,
    opts: CostOptions = CostOptions(),
    families: Sequence[PatternKind] = (
        PatternKind.STRIDED,
        PatternKind.CONTINUOUS,
        PatternKind.PYRAMID,
    ),
) -> OptimizationResult:
    """Reuse-count search followed by pattern enumeration and ranking:
    ``rank_patterns`` of ``find_optimal_n_reuse``."""
    found = find_optimal_n_reuse(cfg, dev, tiles, sp, target_delay_ms, opts)
    return rank_patterns(found, cfg.n_encoders, scorer, families)


def make_cka_scorer(attention_outputs: Sequence[np.ndarray]) -> Scorer:
    """Score = sum over reusers of (1 - CKA(source attn, replaced attn)).

    ``attention_outputs[i]`` is encoder i's t x d attention output from
    a forward pass of the unmodified model. Reusing encoder i drops its
    own attention in favour of a transform of encoder source(i)'s, so
    the penalty is their dissimilarity; low totals mean the pattern
    discards little information. Each output is centered once, so a
    pair's first lookup computes only its cross term.
    """
    outputs = [centered(a) for a in attention_outputs]
    pair_cache: dict[tuple[int, int], float] = {}

    def score(pattern: ReusePattern) -> float:
        if pattern.reuse_set and pattern.reuse_set[-1] >= len(outputs):
            raise ValueError(
                f"pattern needs {pattern.reuse_set[-1] + 1} encoder activations, "
                f"have {len(outputs)}"
            )
        total = 0.0
        for i, src in reuse_sources(pattern.reuse_set).items():
            key = (src, i)
            if key not in pair_cache:
                pair_cache[key] = cka_score(outputs[src], outputs[i])
            total += 1.0 - pair_cache[key]
        return total

    return score


def load_external_scorer(path: str) -> Scorer:
    """Scores from a JSON file mapping "i,j,k" reuse sets to floats."""
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    scores = {
        tuple(sorted(int(i) for i in key.split(","))): float(value)
        for key, value in table.items()
    }

    def score(pattern: ReusePattern) -> float:
        try:
            return scores[pattern.reuse_set]
        except KeyError:
            raise ValueError(
                f"external score table has no entry for pattern {pattern.label()}"
            ) from None

    return score


def synthetic_attention_outputs(n_encoders: int, seed: int = 0) -> list[np.ndarray]:
    """Synthetic per-encoder attention outputs with realistic structure.

    Consecutive encoders evolve by variance-preserving mixing with
    fresh noise, and the innovation rate decays with depth: nearby
    encoders correlate strongly, distant ones weakly, and deep pairs
    correlate more than shallow ones. That reproduces the trends the
    CKA proxy needs (prefer later starts; larger strides sit deeper).
    """
    rng = np.random.default_rng(seed)
    shape = (32, 64)  # (tokens, width), as in the toy model
    outputs = [rng.standard_normal(shape)]
    for i in range(1, n_encoders):
        alpha = 0.6 * 0.82**i  # innovation rate, decaying with depth
        fresh = rng.standard_normal(shape)
        mixed = np.sqrt(1.0 - alpha**2) * outputs[-1] + alpha * fresh
        outputs.append(mixed)
    return outputs
