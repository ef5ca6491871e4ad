"""Linear centered kernel alignment between activation matrices.

cka(X, Y) = ||Yc^T Xc||_F^2 / (||Xc^T Xc||_F * ||Yc^T Yc||_F)

with Xc, Yc column-centered (features centered over samples). The
feature-space form avoids the t x t Gram matrices and is exact for
the linear kernel. Scores live in [0, 1]; 1 for identical inputs,
invariant to orthogonal transforms and isotropic scaling.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)


class Centered(NamedTuple):
    """One activation, column-centered, with its self-norm ||Xc^T Xc||_F."""

    xc: np.ndarray
    self_norm: float


def centered(a: np.ndarray) -> Centered:
    """Center a (samples x features) activation and take its self-norm.

    ``cka_score`` needs both for each operand; computing them once per
    activation lets every pair that shares it compute only the cross term.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("cka_score expects 2-D activation matrices")
    ac = a - a.mean(axis=0, keepdims=True)
    return Centered(ac, np.linalg.norm(ac.T @ ac, "fro"))


def cka_score(a: np.ndarray | Centered, b: np.ndarray | Centered) -> float:
    """Linear CKA between two (samples x features) activation matrices.

    Either operand may be a raw array or its ``centered`` record; the
    score is the same bit for bit. Degenerate inputs with no variance
    score 0 (with a logged diagnostic) rather than raising: a constant
    activation carries no alignable structure.
    """
    a = a if isinstance(a, Centered) else centered(a)
    b = b if isinstance(b, Centered) else centered(b)
    if a.xc.shape[0] != b.xc.shape[0]:
        raise ValueError(f"sample counts differ: {a.xc.shape[0]} vs {b.xc.shape[0]}")
    if a.self_norm == 0.0 or b.self_norm == 0.0:
        logger.warning("cka_score: zero-variance input, returning 0")
        return 0.0
    cross = np.linalg.norm(b.xc.T @ a.xc, "fro") ** 2
    return float(cross / (a.self_norm * b.self_norm))


def cka_matrix(activations: "list[np.ndarray]") -> np.ndarray:
    """Pairwise CKA over a list of activation matrices."""
    records = [centered(a) for a in activations]
    n = len(records)
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = cka_score(records[i], records[j])
    return out
