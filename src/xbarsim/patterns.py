"""Uniform attention-reuse pattern families.

A pattern names the encoder indices that reuse a previous encoder's
attention. Index 0 can never reuse (nothing precedes it). Three
uniform families keep the search space far below the C(n-1, k)
explicit possibilities:

    strided      reusing encoders separated by a fixed stride sl >= 2
    continuous   a single run of consecutive reusing encoders
    pyramid      strided prefix, n_cont consecutive in the middle,
                 strided suffix (prefix takes the extra element when
                 the strided count is odd)

The exact pyramid layout is a convention of this package; it
degenerates to strided at n_cont=0 and to continuous at n_cont=k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence


class PatternKind(Enum):
    STRIDED = "strided"
    CONTINUOUS = "continuous"
    PYRAMID = "pyramid"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class ReusePattern:
    kind: PatternKind
    n_encoders: int
    reuse_set: tuple[int, ...]
    sl: int | None = None
    n_cont: int | None = None
    start: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "reuse_set", tuple(sorted(self.reuse_set)))
        validate_pattern(self)

    @property
    def n_reuse(self) -> int:
        return len(self.reuse_set)

    def label(self) -> str:
        if not self.reuse_set:
            return "none"
        return "+".join(str(i) for i in self.reuse_set)


def validate_pattern(p: ReusePattern) -> None:
    """Structural validity: range, no encoder 0, family parameters and layout."""
    s = p.reuse_set
    if len(set(s)) != len(s):
        raise ValueError(f"duplicate indices in reuse set {s}")
    if s and (s[0] < 1 or s[-1] >= p.n_encoders):
        raise ValueError(
            f"reuse set {s} out of range for n_encoders={p.n_encoders} "
            "(encoder 0 can never reuse)"
        )
    if p.start is not None and (not s or p.start != s[0]):
        raise ValueError(f"start {p.start} is not the first index of reuse set {s}")
    if p.n_cont is not None and not 0 <= p.n_cont <= len(s):
        raise ValueError(f"n_cont {p.n_cont} outside [0, {len(s)}] for reuse set {s}")
    diffs = [b - a for a, b in zip(s, s[1:])]
    if p.kind is PatternKind.STRIDED:
        if p.sl is None or p.sl < 2:
            raise ValueError("strided pattern needs sl >= 2")
        if any(d != p.sl for d in diffs):
            raise ValueError(f"strided pattern {s} has non-uniform stride")
    elif p.kind is PatternKind.CONTINUOUS:
        if any(d != 1 for d in diffs):
            raise ValueError(f"continuous pattern {s} is not consecutive")
    elif p.kind is PatternKind.PYRAMID:
        if p.sl is None or p.sl < 2 or p.n_cont is None:
            raise ValueError("pyramid pattern needs sl >= 2 and n_cont")
        expected = _pyramid_steps(len(s), p.n_cont, p.sl)
        if diffs != expected:
            raise ValueError(f"pyramid pattern {s} does not match its parameters")


def reuse_sources(reuse_set: Iterable[int]) -> dict[int, int]:
    """Map each reusing index to the nearest preceding non-reuser."""
    members = frozenset(reuse_set)
    sources: dict[int, int] = {}
    for i in sorted(members):
        src = i - 1
        while src in members:
            src -= 1
        if src < 0:
            raise ValueError("encoder 0 cannot reuse attention")
        sources[i] = src
    return sources


def _pyramid_steps(n_reuse: int, n_cont: int, sl: int) -> list[int]:
    """Step sizes between consecutive reusing indices.

    Positions [prefix, prefix + n_cont) form the continuous run; a step
    is 1 only when both endpoints lie inside the run.
    """
    n_strided = n_reuse - n_cont
    prefix = (n_strided + 1) // 2
    run = range(prefix, prefix + n_cont)
    steps = []
    for i in range(1, n_reuse):
        steps.append(1 if (i - 1) in run and i in run else sl)
    return steps


def _materialize(start: int, steps: Sequence[int], n_encoders: int) -> tuple[int, ...] | None:
    indices = [start]
    for step in steps:
        indices.append(indices[-1] + step)
    if indices[-1] >= n_encoders:
        return None
    return tuple(indices)


def gen_strided(n_encoders: int, n_reuse: int, sl: int, start: int) -> ReusePattern | None:
    """{start, start+sl, ...}; None when it does not fit."""
    if n_reuse < 1 or sl < 2 or start < 1:
        return None
    indices = _materialize(start, [sl] * (n_reuse - 1), n_encoders)
    if indices is None:
        return None
    return ReusePattern(PatternKind.STRIDED, n_encoders, indices, sl=sl, start=start)


def gen_continuous(n_encoders: int, n_reuse: int, start: int) -> ReusePattern | None:
    if n_reuse < 1 or start < 1:
        return None
    indices = _materialize(start, [1] * (n_reuse - 1), n_encoders)
    if indices is None:
        return None
    return ReusePattern(PatternKind.CONTINUOUS, n_encoders, indices, start=start)


def gen_pyramid(
    n_encoders: int, n_reuse: int, sl: int, n_cont: int, start: int
) -> ReusePattern | None:
    if n_reuse < 1 or sl < 2 or start < 1 or not 0 <= n_cont <= n_reuse:
        return None
    indices = _materialize(start, _pyramid_steps(n_reuse, n_cont, sl), n_encoders)
    if indices is None:
        return None
    return ReusePattern(
        PatternKind.PYRAMID, n_encoders, indices, sl=sl, n_cont=n_cont, start=start
    )


def explicit_pattern(n_encoders: int, indices: Iterable[int]) -> ReusePattern:
    return ReusePattern(PatternKind.EXPLICIT, n_encoders, tuple(indices))


def enumerate_patterns(
    n_encoders: int,
    n_reuse: int,
    families: Iterable[PatternKind] = (
        PatternKind.STRIDED,
        PatternKind.CONTINUOUS,
        PatternKind.PYRAMID,
    ),
) -> list[ReusePattern]:
    """All distinct uniform patterns of the requested size.

    Deduplicated on the reuse set (the same set can arise from several
    parameterizations); the kept representative is the first generated
    in family order strided < continuous < pyramid, parameters
    ascending (sl, then n_cont, then start). Output is sorted by reuse
    set for determinism.

    Each (family, sl, n_cont) fixes a step list, hence the offsets of
    its indices from the start. A set is its smallest index plus its
    offsets, so two parameterizations give the same set exactly when
    they share the offsets and the start. The offsets are therefore
    tried once, by their first parameterization, over every start that
    fits; a repeat would only give sets already kept, and distinct
    offsets never collide, so each kept set is constructed once.
    """
    if not 1 <= n_reuse < n_encoders:
        raise ValueError(f"need 1 <= n_reuse < n_encoders, got {n_reuse}/{n_encoders}")
    wanted = set(families)
    tried: set[tuple[int, ...]] = set()
    kept: list[ReusePattern] = []

    def keep(kind: PatternKind, steps: list[int], **params: int | None) -> None:
        offsets = tuple(itertools.accumulate(steps, initial=0))
        if offsets in tried:
            return
        tried.add(offsets)
        for start in range(1, n_encoders - offsets[-1]):
            reuse_set = tuple(start + o for o in offsets)
            kept.append(ReusePattern(kind, n_encoders, reuse_set, start=start, **params))

    # A step list spans n_ones + sl * (n_reuse - 1 - n_ones) encoders; it
    # fits from start 1 only while that span is at most n_encoders - 2.
    room = n_encoders - 2
    if PatternKind.STRIDED in wanted:
        for sl in range(2, n_encoders):
            if sl * (n_reuse - 1) > room:
                break
            keep(PatternKind.STRIDED, [sl] * (n_reuse - 1), sl=sl)
    if PatternKind.CONTINUOUS in wanted:
        keep(PatternKind.CONTINUOUS, [1] * (n_reuse - 1))
    if PatternKind.PYRAMID in wanted:
        for sl in range(2, n_encoders):
            for n_cont in range(0, n_reuse + 1):
                n_ones = max(n_cont - 1, 0)
                if n_ones + sl * (n_reuse - 1 - n_ones) <= room:
                    steps = _pyramid_steps(n_reuse, n_cont, sl)
                    keep(PatternKind.PYRAMID, steps, sl=sl, n_cont=n_cont)

    kept.sort(key=lambda p: p.reuse_set)
    return kept


def all_explicit_patterns(n_encoders: int, n_reuse: int) -> list[ReusePattern]:
    """Brute-force C(n_encoders-1, n_reuse) patterns, for verification."""
    return [
        explicit_pattern(n_encoders, combo)
        for combo in itertools.combinations(range(1, n_encoders), n_reuse)
    ]


def select_best(
    candidates: Sequence[ReusePattern],
    scorer: Callable[[ReusePattern], float],
) -> ReusePattern:
    """Argmin of the scorer; ties break to the smallest reuse set."""
    if not candidates:
        raise ValueError("no candidate patterns to select from")
    return min(candidates, key=lambda p: (scorer(p), p.reuse_set))
