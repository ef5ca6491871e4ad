import dataclasses
import importlib
import itertools
import json
import math

import numpy as np
import pytest

from oracles import (
    ALL_FAMILIES,
    gen_continuous,
    gen_strided,
    oracle_cka_scorer,
    select_best,
)
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
)
from xbarsim.similarity import cka_matrix, cka_score

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
    """A penalty table filled once gives every score of the per-pair
    oracle bit for bit."""

    @staticmethod
    def _all_patterns(n):
        return [p for k in range(1, n) for p in enumerate_patterns(n, k)]

    @pytest.mark.parametrize("n", [12, 16])
    def test_scores_equal_oracle(self, n):
        acts = synthetic_attention_outputs(n)
        scorer, oracle = make_cka_scorer(acts), oracle_cka_scorer(acts)
        for p in self._all_patterns(n):
            assert scorer(p) == oracle(p), p.label()

    def test_one_cka_matrix_call_at_construction_and_none_per_batch(self, monkeypatch):
        acts = synthetic_attention_outputs(12)
        calls = []

        def counting(activations):
            calls.append(activations)
            return cka_matrix(activations)

        monkeypatch.setattr(optimize_mod, "cka_matrix", counting)
        scorer = make_cka_scorer(acts)
        assert len(calls) == 1 and calls[0] is acts
        for p in self._all_patterns(12):
            scorer(p)
        scorer.batch(enumerate_patterns(12, 5).sets)
        assert len(calls) == 1


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

    def test_batch_looks_up_each_row(self, tmp_path):
        path = tmp_path / "scores.json"
        path.write_text(json.dumps({"1,3": 0.5, "2,4": 0.25}))
        scorer = load_external_scorer(str(path))
        assert scorer.batch(np.array([[1, 3], [2, 4]])).tolist() == [0.5, 0.25]
        with pytest.raises(ValueError, match="no entry for pattern 2[+]5"):
            scorer.batch(np.array([[1, 3], [2, 5]]))


class TestOptimize:
    def test_full_pipeline(self, deit, deit_ladder):
        scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=0))
        res = optimize(deit_ladder, 7.0, scorer)
        assert res.feasible and res.optimal_n_reuse == 5
        assert res.best is not None
        assert len(res.best.reuse_set) == 5
        scores = dict((p.reuse_set, s) for p, s in zip(res.candidates, res.scores))
        assert min(scores.values()) == scores[res.best.reuse_set]

    def test_zero_reuse_has_no_candidates(self, deit, deit_ladder):
        scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=0))
        res = optimize(deit_ladder, 11.0, scorer)
        assert res.optimal_n_reuse == 0
        assert res.candidates is None and res.scores is None and res.best is None

    def test_deterministic(self, deit, deit_ladder):
        def run():
            scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=7))
            return optimize(deit_ladder, 6.0, scorer)

        a, b = run(), run()
        assert a.best == b.best
        assert [(p.reuse_set, s) for p, s in zip(a.candidates, a.scores)] == [
            (p.reuse_set, s) for p, s in zip(b.candidates, b.scores)
        ]

    def test_family_restriction(self, deit, deit_ladder):
        scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=0))
        res = optimize(deit_ladder, 9.0, scorer, families=(PatternKind.CONTINUOUS,))
        assert all(p.kind is PatternKind.CONTINUOUS for p in res.candidates)

    def test_family_without_a_pattern_of_the_count(self, deit, deit_ladder):
        # 5 ms needs 8 reusers of 12; the shortest strided set of 8 spans 15
        assert len(enumerate_patterns(deit.n_encoders, 8, (PatternKind.STRIDED,))) == 0
        scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=0))
        res = optimize(deit_ladder, 5.0, scorer, families=(PatternKind.STRIDED,))
        found = find_optimal_n_reuse(deit_ladder, 5.0)
        assert not res.feasible
        assert res.optimal_n_reuse == found.optimal_n_reuse == 8
        assert res.candidates is None and res.best is None


@pytest.mark.parametrize("n, seed", [(1, 0), (12, 0), (16, 5), (24, 7)])
def test_synthetic_activations_equal_per_encoder_draws(n, seed):
    """One draw of every encoder's noise gives the values of one draw per
    encoder, which every pinned report digest was recorded with."""
    rng = np.random.default_rng(seed)
    expected = [rng.standard_normal((32, 64))]
    for i in range(1, n):
        alpha = 0.6 * 0.82**i
        expected.append(np.sqrt(1.0 - alpha**2) * expected[-1]
                        + alpha * rng.standard_normal((32, 64)))
    got = synthetic_attention_outputs(n, seed=seed)
    assert len(got) == n and all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_synthetic_activations_distance_decay():
    acts = synthetic_attention_outputs(10, seed=11)
    adjacent = np.mean([cka_score(acts[i], acts[i + 1]) for i in range(9)])
    distant = np.mean([cka_score(acts[i], acts[i + 5]) for i in range(5)])
    assert adjacent > distant


FAMILY_SUBSETS = [c for k in (1, 2, 3) for c in itertools.combinations(ALL_FAMILIES, k)]


@pytest.mark.parametrize("seed", range(4))
def test_batched_scores_equal_per_pattern_scores(seed):
    """The one-pass batch form gives every candidate the score of the
    per-pattern scorer and of the sequential per-pair oracle, bit for bit,
    and ``np.argmin`` over the sorted rows picks ``select_best``'s pattern."""
    for n in range(2, 17):
        acts = synthetic_attention_outputs(n, seed=seed)
        scorer, oracle = make_cka_scorer(acts), oracle_cka_scorer(acts)
        for k in range(1, n):
            for families in FAMILY_SUBSETS:
                found = enumerate_patterns(n, k, families)
                if not len(found):
                    continue
                batch = make_cka_scorer(acts).batch(found.sets)
                patterns = list(found)
                scores = {p.reuse_set: scorer(p) for p in patterns}
                assert batch.tolist() == list(scores.values()) == \
                    [oracle(p) for p in patterns], (n, k, families)
                assert found[int(np.argmin(batch))] == \
                    select_best(patterns, lambda p: scores[p.reuse_set])


def test_batch_needs_an_activation_per_encoder():
    scorer = make_cka_scorer(synthetic_attention_outputs(4, seed=0))
    with pytest.raises(ValueError, match="needs 7 encoder activations, have 4"):
        scorer.batch(np.array([[2, 3], [5, 6]]))


@pytest.mark.parametrize("target", [9.0, 7.0, 6.0, 4.0])
def test_plain_callable_scores_equal_the_batch_path(deit, deit_ladder, target):
    """A scorer without a batch form is called once per pattern; both paths
    give the same candidates, scores and pick bit for bit."""
    scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=3))
    batched = optimize(deit_ladder, target, scorer)
    plain = optimize(deit_ladder, target, lambda p: scorer(p))
    assert np.array_equal(batched.candidates.sets, plain.candidates.sets)
    assert batched.scores.tolist() == plain.scores.tolist()
    assert batched.best == plain.best


def test_optimize_scores_each_pattern_once(deit, deit_ladder):
    scorer = make_cka_scorer(synthetic_attention_outputs(deit.n_encoders, seed=0))
    calls = []

    def counting(pattern):
        calls.append(pattern)
        return scorer(pattern)

    res = optimize(deit_ladder, 7.0, counting)
    assert len(calls) == len(res.candidates) > 1
    assert res.best == select_best(list(res.candidates), scorer)
