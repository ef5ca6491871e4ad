"""Delay-targeted reuse search and pattern ranking.

The search sweeps the reuse count upward from zero and stops at the
first count whose modelled delay meets the target; because the stack
is isotropic the count fully determines cost. Which encoders to pick
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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cost import CostOptions, SoftmaxUnitParams, assemble, block_table
from .cost import model_cost  # noqa: F401  bench/test_bench.py traces this binding
from .mapping import DeviceAssignment, DeviceParams, TileConfig
from .patterns import (
    PatternKind,
    ReusePattern,
    enumerate_patterns,
    reuse_sources,
    select_best,
)
from .similarity import cka_score
from .workload import ModelConfig

Scorer = Callable[[ReusePattern], float]


@dataclass(frozen=True)
class OptimizationResult:
    target_delay_ms: float
    feasible: bool
    optimal_n_reuse: int | None
    achieved_delay_ms: float | None
    baseline_delay_ms: float
    candidates: tuple[tuple[ReusePattern, float], ...] = ()
    best: ReusePattern | None = None


def find_optimal_n_reuse(
    cfg: ModelConfig,
    dev: DeviceParams | DeviceAssignment,
    tiles: TileConfig,
    sp: SoftmaxUnitParams,
    target_delay_ms: float,
    opts: CostOptions = CostOptions(),
) -> OptimizationResult:
    """Smallest reuse count whose delay meets the target.

    Every count's delay is assembled from one block table, so it equals
    ``model_cost(cfg, r, ...).d_vit_ms`` bit for bit. The count is
    capped at n_encoders - 1 (every reuser needs some preceding encoder
    to draw from). An unreachable target yields an explicit infeasible
    result, never a clamped one.
    """
    if target_delay_ms <= 0:
        raise ValueError("target delay must be positive")
    table = block_table(cfg, dev, tiles, sp, opts)
    n = cfg.n_encoders
    baseline = assemble([(table, n, 0)]).d_vit_ms
    for r in range(n):
        delay = assemble([(table, n - r, r)]).d_vit_ms
        if delay <= target_delay_ms:
            return OptimizationResult(target_delay_ms, True, r, delay, baseline)
    return OptimizationResult(target_delay_ms, False, None, None, baseline)


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
    """Reuse-count search followed by pattern enumeration and ranking."""
    found = find_optimal_n_reuse(cfg, dev, tiles, sp, target_delay_ms, opts)
    if not found.feasible or found.optimal_n_reuse == 0:
        return found
    patterns = enumerate_patterns(cfg.n_encoders, found.optimal_n_reuse, families)
    scored = tuple((p, float(scorer(p))) for p in patterns)
    best = select_best(patterns, dict(scored).__getitem__)
    return OptimizationResult(
        found.target_delay_ms,
        True,
        found.optimal_n_reuse,
        found.achieved_delay_ms,
        found.baseline_delay_ms,
        scored,
        best,
    )


def make_cka_scorer(attention_outputs: Sequence[np.ndarray]) -> Scorer:
    """Score = sum over reusers of (1 - CKA(source attn, replaced attn)).

    ``attention_outputs[i]`` is encoder i's t x d attention output from
    a forward pass of the unmodified model. Reusing encoder i drops its
    own attention in favour of a transform of encoder source(i)'s, so
    the penalty is their dissimilarity; low totals mean the pattern
    discards little information.
    """
    outputs = [np.asarray(a) for a in attention_outputs]
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


def synthetic_attention_outputs(
    n_encoders: int,
    t: int = 32,
    d: int = 64,
    seed: int = 0,
    base_innovation: float = 0.6,
    innovation_decay: float = 0.82,
) -> list[np.ndarray]:
    """Synthetic per-encoder attention outputs with realistic structure.

    Consecutive encoders evolve by variance-preserving mixing with
    fresh noise, and the innovation rate decays with depth: nearby
    encoders correlate strongly, distant ones weakly, and deep pairs
    correlate more than shallow ones. That reproduces the trends the
    CKA proxy needs (prefer later starts; larger strides sit deeper).
    """
    rng = np.random.default_rng(seed)
    outputs = [rng.standard_normal((t, d))]
    for i in range(1, n_encoders):
        alpha = base_innovation * innovation_decay**i
        fresh = rng.standard_normal((t, d))
        mixed = np.sqrt(1.0 - alpha**2) * outputs[-1] + alpha * fresh
        outputs.append(mixed)
    return outputs
