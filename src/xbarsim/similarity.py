"""Linear centered kernel alignment between activation matrices.

cka(X, Y) = <Kx, Ky>_F / (||Kx||_F * ||Ky||_F),   K = Xc Xc^T

with Xc column-centered (features centered over samples) and K its
t x t Gram matrix over the t samples; <Kx, Ky>_F = ||Yc^T Xc||_F^2, so
this sample-space form is the feature-space one. Each activation is
centered and multiplied by its transpose once (t^2 d multiply-adds);
after that a pair costs t^2 multiply-adds, the elementwise product of
two flattened Grams summed along the row, where the feature-space cross
term costs t d_x d_y. For 12 activations of 32 x 64, all 66 pairs take
0.85M multiply-adds, against 10.2M in feature space. Scores live in
[0, 1]; 1 for identical inputs, invariant to orthogonal transforms and
isotropic scaling.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)


def _gram(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("CKA expects 2-D (samples x features) activation matrices")
    ac = a - a.mean(axis=0, keepdims=True)
    return ac @ ac.T


def cka_matrix(activations: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise linear CKA over a list of (samples x features) activations.

    Entry (i, j) is ``cka_score(activations[i], activations[j])``; the
    diagonal is 1. Degenerate inputs with no variance score 0 against
    every other (with one logged diagnostic) rather than raising: a
    constant activation carries no alignable structure.
    """
    grams = [_gram(a) for a in activations]
    counts = sorted({len(k) for k in grams})
    if len(counts) > 1:
        raise ValueError(f"sample counts differ: {counts}")
    n = len(grams)
    out = np.eye(n)
    if n < 2:
        return out
    t = counts[0]
    flat = np.stack(grams).reshape(n, t * t)
    # One power of two per Gram, from its largest (diagonal) entry, keeps
    # K * K finite and normal for inputs scaled by up to about 1e+-150, and
    # changes no bit of a score.
    flat = np.ldexp(flat, -np.frexp(flat[:, :: t + 1].max(axis=1, initial=0.0))[1][:, None])
    norms = np.sqrt((flat * flat).sum(axis=1))
    if not norms.all():
        logger.warning("cka_matrix: zero-variance input, scoring it 0")
    cross = np.zeros((n, n))
    for i in range(n - 1):
        cross[i, i + 1:] = (flat[i] * flat[i + 1:]).sum(axis=1)
    den = np.outer(norms, norms)
    np.divide(cross, den, out=cross, where=den > 0)
    return out + cross + cross.T


def cka_score(a: np.ndarray, b: np.ndarray) -> float:
    """Linear CKA between two (samples x features) activation matrices:
    the off-diagonal entry of their ``cka_matrix``, bit for bit."""
    return float(cka_matrix([a, b])[0, 1])
