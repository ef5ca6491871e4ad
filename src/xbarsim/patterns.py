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

Each family is one formula for the offsets of its indices from the
first (``_offsets``): strided is a pyramid at n_cont=0, continuous one
with steps of 1. The exact pyramid layout is a convention of this
package. ``enumerate_patterns`` returns the candidates of one reuse
count as one sorted integer array, a ``PatternSet``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np


class PatternKind(Enum):
    STRIDED = "strided"
    CONTINUOUS = "continuous"
    PYRAMID = "pyramid"
    EXPLICIT = "explicit"


# the uniform families, in the order ``enumerate_patterns`` keeps them
UNIFORM_FAMILIES = (PatternKind.STRIDED, PatternKind.CONTINUOUS, PatternKind.PYRAMID)


@dataclass(frozen=True)
class ReusePattern:
    kind: PatternKind
    n_encoders: int
    reuse_set: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reuse_set", tuple(sorted(self.reuse_set)))
        validate_pattern(self)

    @property
    def n_reuse(self) -> int:
        return len(self.reuse_set)

    def label(self) -> str:
        return label(self.reuse_set)


def label(reuse_set: Iterable[int]) -> str:
    """The name of a reuse set: its indices joined by ``+``, or ``none``."""
    return "+".join(map(str, reuse_set)) or "none"


def validate_pattern(p: ReusePattern) -> None:
    """Structural validity: range, no encoder 0, and a family's layout.

    A family pattern's parameters are read off its set: steps of sl
    (1 when continuous, else the widest step and at least 2), and for a
    pyramid a run of n_cont = unit steps + 1 consecutive indices when it
    has any unit step; the set must be the ``_offsets`` of those.
    """
    s = p.reuse_set
    if len(set(s)) != len(s):
        raise ValueError(f"duplicate indices in reuse set {s}")
    if s and (s[0] < 1 or s[-1] >= p.n_encoders):
        raise ValueError(
            f"reuse set {s} out of range for n_encoders={p.n_encoders} "
            "(encoder 0 can never reuse)"
        )
    if p.kind is PatternKind.EXPLICIT:
        return
    steps = [b - a for a, b in zip(s, s[1:])]
    sl = 1 if p.kind is PatternKind.CONTINUOUS else max([2, *steps])
    units = steps.count(1)
    n_cont = units + 1 if p.kind is PatternKind.PYRAMID and units else 0
    if [i - s[0] for i in s] != _offsets(len(s), sl, n_cont).tolist():
        raise ValueError(f"{p.kind.value} pattern {s} does not match its family's layout")


def source_array(sets: np.ndarray) -> np.ndarray:
    """The sources of a (patterns x k) array of sorted reuse sets: a reuser
    draws from the nearest preceding non-reuser, the first index of its
    run of consecutive indices minus 1."""
    pos = np.arange(sets.shape[1])
    run_start = np.maximum.accumulate(np.where(np.diff(sets, prepend=-1) != 1, pos, 0), axis=1)
    return sets - (pos - run_start) - 1


def _offsets(n_reuse: int, sl, n_cont) -> np.ndarray:
    """Offsets of a pyramid's indices from its first, for scalar or
    column-vector ``sl`` and ``n_cont``.

    Steps are sl, except that positions [prefix, prefix + n_cont) form
    the continuous run and a step is 1 when both its ends lie inside it;
    so the first j steps hold clip(j - prefix, 0, n_cont - 1) ones.
    """
    j = np.arange(n_reuse)
    prefix = (n_reuse - n_cont + 1) // 2
    ones = np.minimum(np.maximum(j - prefix, 0), np.maximum(n_cont - 1, 0))
    return ones + sl * (j - ones)


@dataclass(frozen=True, eq=False)
class PatternSet:
    """The distinct uniform patterns of one (n_encoders, n_reuse) as arrays.

    Row k is the reuse set ``sets[k]``, rows in lexicographic order, and
    ``family[k]`` (an index into ``UNIFORM_FAMILIES``) is the family of
    its representative. Indexing builds a row's ``ReusePattern``.
    """

    n_encoders: int
    sets: np.ndarray
    family: np.ndarray

    def __len__(self) -> int:
        return len(self.sets)

    def __getitem__(self, k: int) -> ReusePattern:
        return ReusePattern(UNIFORM_FAMILIES[self.family[k]], self.n_encoders,
                            tuple(self.sets[k].tolist()))


def explicit_pattern(n_encoders: int, indices: Iterable[int]) -> ReusePattern:
    return ReusePattern(PatternKind.EXPLICIT, n_encoders, tuple(indices))


def enumerate_patterns(
    n_encoders: int,
    n_reuse: int,
    families: Iterable[PatternKind] = UNIFORM_FAMILIES,
) -> PatternSet:
    """All distinct uniform patterns of the requested size.

    Deduplicated on the reuse set (the same set can arise from several
    parameterizations); the kept representative is the first generated
    in family order strided < continuous < pyramid, parameters
    ascending (sl, then n_cont, then start). Every parameterization's
    offsets are broadcast over the starts that fit, in that order, and a
    stable lexicographic sort of the rows puts equal sets side by side,
    the first generated first.
    """
    if not 1 <= n_reuse < n_encoders:
        raise ValueError(f"need 1 <= n_reuse < n_encoders, got {n_reuse}/{n_encoders}")
    # (family, sl, n_cont) of every parameterization, in enumeration order:
    # strided is a pyramid with n_cont 0, continuous one with steps of 1
    strides = np.arange(2, n_encoders)
    n_pyramid = len(strides) * (n_reuse + 1)
    family = np.repeat([0, 1, 2], [len(strides), 1, n_pyramid])
    sl = np.concatenate([strides, [1], np.repeat(strides, n_reuse + 1)])
    n_cont = np.concatenate([0 * strides, [0], np.arange(n_pyramid) % (n_reuse + 1)])
    families = set(families)
    pick = np.array([kind in families for kind in UNIFORM_FAMILIES])[family]
    family, sl, n_cont = family[pick], sl[pick], n_cont[pick]
    offsets = _offsets(n_reuse, sl[:, None], n_cont[:, None])

    # starts 1 .. n_encoders - 1 - span of each parameterization
    n_starts = np.maximum(n_encoders - 1 - offsets[:, -1], 0)
    gen = np.repeat(np.arange(len(sl)), n_starts)
    starts = np.arange(1, len(gen) + 1) - np.repeat(np.cumsum(n_starts) - n_starts, n_starts)
    sets = offsets[gen] + starts[:, None]
    order = np.lexsort(sets.T[::-1])
    sets, gen = sets[order], gen[order]
    first = (np.diff(sets, axis=0, prepend=-1) != 0).any(axis=1)  # unlike the row above
    return PatternSet(n_encoders, sets[first], family[gen[first]])

