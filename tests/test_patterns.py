import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xbarsim.patterns as patterns_mod
from oracles import (
    ALL_FAMILIES,
    gen_continuous,
    gen_pyramid,
    gen_strided,
    all_explicit_patterns,
    oracle_enumerate_patterns,
    reuse_sources,
    select_best,
)
from xbarsim.patterns import (
    PatternKind,
    ReusePattern,
    enumerate_patterns,
    explicit_pattern,
    label,
    source_array,
    validate_pattern,
)

S, C, P = PatternKind.STRIDED, PatternKind.CONTINUOUS, PatternKind.PYRAMID


def enumerated(n, k, kind):
    """{reuse set: (sl, n_cont)} of the patterns ``enumerate_patterns``
    keeps for one family."""
    return {p.reuse_set: (p.sl, p.n_cont) for p in enumerate_patterns(n, k, (kind,))}


class TestGenerators:
    """The reference layouts of the test oracle's generators, each one
    also kept by ``enumerate_patterns`` with its parameters."""

    def test_strided_reference_layout(self):
        p = gen_strided(9, 4, sl=2, start=1)
        assert p.reuse_set == (1, 3, 5, 7)
        assert enumerated(9, 4, S)[(1, 3, 5, 7)] == (2, None)

    def test_strided_shifted_start(self):
        assert gen_strided(9, 4, sl=2, start=2).reuse_set == (2, 4, 6, 8)
        assert enumerated(9, 4, S)[(2, 4, 6, 8)] == (2, None)

    def test_strided_does_not_fit(self):
        assert gen_strided(9, 4, sl=4, start=1) is None
        assert gen_strided(9, 4, sl=1, start=1) is None  # stride must be >= 2
        assert {sl for sl, _ in enumerated(9, 4, S).values()} == {2}

    def test_continuous_reference_layout(self):
        assert gen_continuous(9, 4, start=1).reuse_set == (1, 2, 3, 4)
        assert (1, 2, 3, 4) in enumerated(9, 4, C)

    def test_continuous_last_window(self):
        assert gen_continuous(9, 4, start=5).reuse_set == (5, 6, 7, 8)
        assert gen_continuous(9, 4, start=6) is None
        assert max(enumerated(9, 4, C)) == (5, 6, 7, 8)

    def test_pyramid_reference_layout(self):
        p = gen_pyramid(9, 4, sl=2, n_cont=2, start=1)
        assert p.reuse_set == (1, 3, 4, 6)
        assert enumerated(9, 4, P)[(1, 3, 4, 6)] == (2, 2)

    def test_pyramid_degenerates_to_continuous(self):
        p = gen_pyramid(12, 4, sl=2, n_cont=4, start=1)
        assert p.reuse_set == gen_continuous(12, 4, start=1).reuse_set
        assert enumerated(12, 4, P)[(1, 2, 3, 4)] == (2, 4)

    def test_pyramid_degenerates_to_strided(self):
        p = gen_pyramid(12, 4, sl=2, n_cont=0, start=1)
        assert p.reuse_set == gen_strided(12, 4, sl=2, start=1).reuse_set
        assert enumerated(12, 4, P)[(1, 3, 5, 7)] == (2, 0)

    def test_zero_start_rejected(self):
        assert gen_strided(9, 3, sl=2, start=0) is None
        assert gen_continuous(9, 3, start=0) is None
        assert all(0 not in s for s in enumerated(9, 3, S) | enumerated(9, 3, C))


class TestValidation:
    def test_encoder_zero_never_reuses(self):
        with pytest.raises(ValueError):
            explicit_pattern(8, (0, 2))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            explicit_pattern(8, (3, 8))

    def test_family_structure_enforced(self):
        with pytest.raises(ValueError):
            ReusePattern(PatternKind.STRIDED, 9, (1, 3, 6), sl=2, start=1)
        with pytest.raises(ValueError):
            ReusePattern(PatternKind.CONTINUOUS, 9, (1, 3), start=1)

    @pytest.mark.parametrize(
        "kind, reuse_set, params",
        [
            (PatternKind.STRIDED, (3, 5, 7), dict(sl=2, start=1)),
            (PatternKind.PYRAMID, (3, 5, 7), dict(sl=2, n_cont=0, start=9)),
            (PatternKind.CONTINUOUS, (3, 4), dict(start=4)),
        ],
    )
    def test_start_must_be_first_index(self, kind, reuse_set, params):
        with pytest.raises(ValueError, match="start"):
            ReusePattern(kind, 12, reuse_set, **params)
        ReusePattern(kind, 12, reuse_set, **{**params, "start": reuse_set[0]})

    def test_n_cont_within_reuse_count(self):
        # (3, 4, 5) is consecutive, so only the range check can reject it.
        with pytest.raises(ValueError, match="n_cont"):
            ReusePattern(PatternKind.PYRAMID, 12, (3, 4, 5), sl=2, n_cont=10)
        with pytest.raises(ValueError, match="n_cont"):
            ReusePattern(PatternKind.PYRAMID, 12, (3, 5, 7), sl=2, n_cont=-1)
        ReusePattern(PatternKind.PYRAMID, 12, (3, 4, 5), sl=2, n_cont=3)

    def test_generated_patterns_all_validate(self):
        for p in enumerate_patterns(12, 5):
            validate_pattern(p)


class TestEnumeration:
    def test_uniform_family_far_below_explicit(self):
        patterns = enumerate_patterns(12, 5)
        assert len(patterns) < math.comb(11, 5)  # 462 explicit possibilities
        assert len(patterns) < 100

    def test_subset_of_explicit_brute_force(self):
        # Any 2-element set is itself strided, so strictness needs k >= 3.
        for n, k in [(6, 3), (9, 4), (12, 5), (12, 6)]:
            explicit = {p.reuse_set for p in all_explicit_patterns(n, k)}
            uniform = {p.reuse_set for p in enumerate_patterns(n, k)}
            assert uniform <= explicit
            assert len(uniform) < len(explicit)
        assert {p.reuse_set for p in enumerate_patterns(6, 2)} <= {
            p.reuse_set for p in all_explicit_patterns(6, 2)
        }

    def test_deduplicated(self):
        patterns = enumerate_patterns(9, 4)
        sets = [p.reuse_set for p in patterns]
        assert len(sets) == len(set(sets))

    def test_max_reuse_only_continuous_survives(self):
        patterns = enumerate_patterns(9, 8)
        assert len(patterns) == 1
        assert patterns[0].reuse_set == tuple(range(1, 9))

    def test_family_filter(self):
        only_strided = enumerate_patterns(12, 4, families=[PatternKind.STRIDED])
        assert all(p.kind is PatternKind.STRIDED for p in only_strided)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            enumerate_patterns(8, 0)
        with pytest.raises(ValueError):
            enumerate_patterns(8, 8)


_SUBSETS = {
    "all": ALL_FAMILIES,
    "S": (PatternKind.STRIDED,),
    "C": (PatternKind.CONTINUOUS,),
    "P": (PatternKind.PYRAMID,),
    "S+P": (PatternKind.STRIDED, PatternKind.PYRAMID),
    "C+P": (PatternKind.CONTINUOUS, PatternKind.PYRAMID),
}


class TestEnumerationMatchesBruteForce:
    """Same list under ==: order, and each set's kind/sl/n_cont/start."""

    @pytest.mark.parametrize("subset", _SUBSETS)
    def test_every_small_stack(self, subset):
        families = _SUBSETS[subset]
        for n in range(2, 17):
            for k in range(1, n):
                assert list(enumerate_patterns(n, k, families)) == \
                    oracle_enumerate_patterns(n, k, families), (n, k)

    @pytest.mark.parametrize("k", [1, 5, 12, 23])
    def test_deep_stack(self, k):
        assert list(enumerate_patterns(24, k)) == oracle_enumerate_patterns(24, k)

    @pytest.mark.parametrize("n, k", [(12, 1), (12, 5), (16, 8), (24, 12)])
    def test_constructs_each_returned_pattern_once(self, monkeypatch, n, k):
        """Enumeration builds no pattern; reading a row back builds one."""
        constructed = []
        validate = patterns_mod.validate_pattern

        def counting(p):
            constructed.append(p)
            validate(p)

        monkeypatch.setattr(patterns_mod, "validate_pattern", counting)
        result = enumerate_patterns(n, k)
        assert constructed == []
        rows = list(result)
        assert len(constructed) == len(rows) == len(result)


@pytest.mark.parametrize("subset", _SUBSETS)
def test_array_rows_are_the_sorted_reuse_sets(subset):
    """One (patterns x k) integer array per count, rows strictly
    increasing lexicographically, each row the set its pattern names."""
    for n in range(2, 17):
        for k in range(1, n):
            found = enumerate_patterns(n, k, _SUBSETS[subset])
            assert found.sets.shape == (len(found), k)
            assert found.sets.dtype.kind == "i"
            rows = [tuple(row) for row in found.sets.tolist()]
            assert rows == sorted(set(rows))
            assert rows == [p.reuse_set for p in found]


def test_source_array_matches_reuse_sources():
    for n in range(2, 17):
        for k in range(1, n):
            found = enumerate_patterns(n, k)
            sources = source_array(found.sets).tolist()
            for p, src in zip(found, sources):
                assert src == list(reuse_sources(p.reuse_set).values()), p.reuse_set


@given(n=st.integers(3, 12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_enumeration_cardinality_property(n, data):
    k = data.draw(st.integers(1, n - 1))
    patterns = enumerate_patterns(n, k)
    assert len(patterns) <= math.comb(n - 1, k)
    for p in patterns:
        assert len(p.reuse_set) == k
        assert 0 not in p.reuse_set
        assert p.reuse_set[-1] < n


class TestLabel:
    def test_empty_set_is_none(self):
        assert label(()) == "none"
        assert explicit_pattern(8, ()).label() == "none"

    def test_numpy_row_and_tuple_agree(self):
        assert label(np.array([2, 5, 8])) == label((2, 5, 8)) == "2+5+8"

    def test_pattern_label_is_the_label_of_its_set(self):
        found = enumerate_patterns(12, 5)
        for row, p in zip(found.sets, found):
            assert p.label() == label(p.reuse_set) == label(row)


class TestSources:
    def test_skip_pattern(self):
        assert reuse_sources({1, 3}) == {1: 0, 3: 2}

    def test_continuous_run_shares_source(self):
        assert reuse_sources({1, 2, 3}) == {1: 0, 2: 0, 3: 0}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reuse_sources({0})


class TestSelectBest:
    def test_single_candidate(self):
        p = explicit_pattern(8, (2, 4))
        assert select_best([p], lambda _: 1.0) is p

    def test_constant_scorer_lexicographic_tie_break(self):
        candidates = [
            explicit_pattern(8, (2, 5)),
            explicit_pattern(8, (1, 6)),
            explicit_pattern(8, (1, 4)),
        ]
        best = select_best(candidates, lambda _: 0.0)
        assert best.reuse_set == (1, 4)

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            select_best([], lambda _: 0.0)

    def test_argmin(self):
        candidates = list(enumerate_patterns(9, 3))
        scores = {p.reuse_set: i for i, p in enumerate(reversed(candidates))}
        best = select_best(candidates, lambda p: scores[p.reuse_set])
        assert best is candidates[-1]
