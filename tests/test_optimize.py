import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from oracles import oracle_cka_scorer
from xbarsim.optimize import (
    delay_ladder,
    find_optimal_n_reuse,
    load_external_scorer,
    make_cka_scorer,
    optimize,
    synthetic_attention_outputs,
)
from xbarsim.cost import block_table, model_cost
from xbarsim.patterns import (
    PatternKind,
    enumerate_patterns,
    explicit_pattern,
    gen_continuous,
    gen_strided,
    select_best,
)
from xbarsim.patterns import reuse_sources
from xbarsim.similarity import Centered, cka_score

# The package re-exports the function optimize(), which hides the module.
optimize_mod = importlib.import_module("xbarsim.optimize")


class TestFindOptimalNReuse:
    def test_calibrated_deit_targets(self, deit_ladder):
        for target, expected in [(9.0, 3), (7.0, 5), (6.0, 7), (4.0, 9)]:
            res = find_optimal_n_reuse(deit_ladder, target)
            assert res.feasible
            assert res.optimal_n_reuse == expected
            assert res.cost.d_vit_ms <= target

    def test_achieved_delays_near_published(self, deit_ladder):
        published = {9.0: 8.46, 7.0: 6.82, 6.0: 5.18, 4.0: 3.54}
        for target, ref in published.items():
            res = find_optimal_n_reuse(deit_ladder, target)
            assert abs(res.cost.d_vit_ms / ref - 1.0) <= 0.05

    def test_loose_target_needs_no_reuse(self, deit_ladder):
        res = find_optimal_n_reuse(deit_ladder, 11.0)
        assert res.optimal_n_reuse == 0
        assert res.cost.d_vit_ms == deit_ladder[0].d_vit_ms

    def test_infeasible_target_flagged_not_clamped(self, deit_ladder):
        res = find_optimal_n_reuse(deit_ladder, 1.0)
        assert not res.feasible
        assert res.optimal_n_reuse is None
        assert res.cost is None

    def test_minimality_over_target_grid(self, deit, fefet, tiles, softmax_params,
                                         cost_opts, deit_ladder):
        delays = [
            model_cost(deit, r, fefet, tiles, softmax_params, cost_opts).d_vit_ms
            for r in range(deit.n_encoders)
        ]
        for target in np.arange(3.0, 11.5, 0.25):
            res = find_optimal_n_reuse(deit_ladder, float(target))
            if not res.feasible:
                assert min(delays) > target
                continue
            r = res.optimal_n_reuse
            assert delays[r] <= target
            if r > 0:
                assert delays[r - 1] > target

    def test_invalid_target(self, deit_ladder):
        with pytest.raises(ValueError):
            find_optimal_n_reuse(deit_ladder, 0.0)

    def test_empty_stack_has_no_search(self, deit, fefet, tiles, softmax_params, cost_opts):
        empty = dataclasses.replace(deit, n_encoders=0)
        with pytest.raises(ValueError, match="at least one encoder, got 0"):
            delay_ladder(block_table(empty, fefet, tiles, softmax_params, cost_opts))

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target(self, deit_ladder, target):
        # nan compares false against every delay, and inf is met at zero reuse;
        # either would reach the report as a JSON NaN or Infinity
        with pytest.raises(ValueError, match="positive and finite"):
            find_optimal_n_reuse(deit_ladder, target)
        with pytest.raises(ValueError, match="positive and finite"):
            optimize(deit_ladder, target, lambda p: 0.0)


class TestCkaScorer:
    def test_prefers_later_start_at_fixed_family(self):
        acts = synthetic_attention_outputs(12, seed=3)
        scorer = make_cka_scorer(acts)
        early = gen_strided(12, 3, sl=2, start=1)
        late = gen_strided(12, 3, sl=2, start=5)
        assert scorer(late) < scorer(early)

    def test_prefers_larger_stride_at_same_start(self):
        acts = synthetic_attention_outputs(12, seed=3)
        scorer = make_cka_scorer(acts)
        tight = gen_strided(12, 3, sl=2, start=1)
        wide = gen_strided(12, 3, sl=3, start=1)
        assert scorer(wide) < scorer(tight)

    def test_strided_beats_continuous(self):
        acts = synthetic_attention_outputs(12, seed=3)
        scorer = make_cka_scorer(acts)
        strided = gen_strided(12, 4, sl=2, start=4)
        continuous = gen_continuous(12, 4, start=4)
        assert scorer(strided) < scorer(continuous)

    def test_score_uses_nearest_source(self):
        acts = synthetic_attention_outputs(6, seed=0)
        scorer = make_cka_scorer(acts)
        p = explicit_pattern(6, (2, 3))
        expected = (1 - cka_score(acts[1], acts[2])) + (1 - cka_score(acts[1], acts[3]))
        assert abs(scorer(p) - expected) < 1e-12

    def test_too_few_activations(self):
        scorer = make_cka_scorer(synthetic_attention_outputs(4, seed=0))
        with pytest.raises(ValueError):
            scorer(explicit_pattern(8, (6,)))


class TestCkaScorerMatchesPerPairOracle:
    """Centering once per encoder leaves every score unchanged bit for bit."""

    @staticmethod
    def _all_patterns(n):
        return [p for k in range(1, n) for p in enumerate_patterns(n, k)]

    @pytest.mark.parametrize("n", [12, 16])
    def test_scores_equal_oracle(self, n):
        acts = synthetic_attention_outputs(n)
        scorer, oracle = make_cka_scorer(acts), oracle_cka_scorer(acts)
        for p in self._all_patterns(n):
            assert scorer(p) == oracle(p), p.label()

    def test_each_encoder_centered_once(self, monkeypatch):
        acts = synthetic_attention_outputs(12)
        seen = []
        center = optimize_mod.centered

        def counting(a):
            seen.append(a)
            return center(a)

        monkeypatch.setattr(optimize_mod, "centered", counting)
        scorer = make_cka_scorer(acts)
        for p in self._all_patterns(12):
            scorer(p)
        assert len(seen) == len(acts)
        assert all(s is a for s, a in zip(seen, acts))

    def test_cka_score_called_once_per_distinct_pair(self, monkeypatch):
        acts = synthetic_attention_outputs(12)
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return cka_score(a, b)

        monkeypatch.setattr(optimize_mod, "cka_score", counting)
        scorer = make_cka_scorer(acts)
        pairs = set()
        for p in self._all_patterns(12):
            scorer(p)
            pairs.update((src, i) for i, src in reuse_sources(p.reuse_set).items())
        assert len(calls) == len(pairs)
        assert all(isinstance(x, Centered) for call in calls for x in call)


class TestExternalScorer:
    def test_round_trip(self, tmp_path):
        table = {"1,3": 0.5, "2,4": 0.25}
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(table))
        scorer = load_external_scorer(str(path))
        assert scorer(explicit_pattern(6, (2, 4))) == 0.25
        assert scorer(explicit_pattern(6, (1, 3))) == 0.5

    def test_missing_pattern(self, tmp_path):
        path = tmp_path / "scores.json"
        path.write_text(json.dumps({"1,3": 0.5}))
        scorer = load_external_scorer(str(path))
        with pytest.raises(ValueError, match="no entry"):
            scorer(explicit_pattern(6, (2, 5)))


class TestOptimize:
    def test_full_pipeline(self, deit, deit_ladder):
        scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=0))
        res = optimize(deit_ladder, 7.0, scorer)
        assert res.feasible and res.optimal_n_reuse == 5
        assert res.best is not None
        assert len(res.best.reuse_set) == 5
        scores = dict((p.reuse_set, s) for p, s in res.candidates)
        assert min(scores.values()) == scores[res.best.reuse_set]

    def test_zero_reuse_has_no_candidates(self, deit, deit_ladder):
        scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=0))
        res = optimize(deit_ladder, 11.0, scorer)
        assert res.optimal_n_reuse == 0
        assert res.candidates == () and res.best is None

    def test_deterministic(self, deit, deit_ladder):
        def run():
            scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=7))
            return optimize(deit_ladder, 6.0, scorer)

        a, b = run(), run()
        assert a.best == b.best
        assert [(p.reuse_set, s) for p, s in a.candidates] == [
            (p.reuse_set, s) for p, s in b.candidates
        ]

    def test_family_restriction(self, deit, deit_ladder):
        scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=0))
        res = optimize(deit_ladder, 9.0, scorer, families=(PatternKind.CONTINUOUS,))
        assert all(p.kind is PatternKind.CONTINUOUS for p, _ in res.candidates)

    def test_family_without_a_pattern_of_the_count(self, deit, deit_ladder):
        # 5 ms needs 8 reusers of 12; the shortest strided set of 8 spans 15
        assert enumerate_patterns(deit.n_encoders, 8, (PatternKind.STRIDED,)) == []
        scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=0))
        res = optimize(deit_ladder, 5.0, scorer, families=(PatternKind.STRIDED,))
        found = find_optimal_n_reuse(deit_ladder, 5.0)
        assert not res.feasible
        assert res.optimal_n_reuse == found.optimal_n_reuse == 8
        assert res.candidates == () and res.best is None


def test_synthetic_activations_distance_decay():
    acts = synthetic_attention_outputs(10, seed=11)
    adjacent = np.mean([cka_score(acts[i], acts[i + 1]) for i in range(9)])
    distant = np.mean([cka_score(acts[i], acts[i + 5]) for i in range(5)])
    assert adjacent > distant


def test_optimize_scores_each_pattern_once(deit, deit_ladder):
    scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=0))
    calls = []

    def counting(pattern):
        calls.append(pattern)
        return scorer(pattern)

    res = optimize(deit_ladder, 7.0, counting)
    assert len(calls) == len(res.candidates) > 1
    assert res.best == select_best([p for p, _ in res.candidates], scorer)
