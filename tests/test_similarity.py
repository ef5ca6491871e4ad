import logging

import numpy as np
import pytest

from oracles import oracle_cka_score, oracle_cka_score_feature_space
from xbarsim.similarity import cka_matrix, cka_score


def test_self_similarity_is_one():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 20))
    assert abs(cka_score(x, x) - 1.0) < 1e-9


def test_symmetry():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 16))
    y = rng.standard_normal((40, 16))
    assert abs(cka_score(x, y) - cka_score(y, x)) < 1e-12


def test_bounds_on_random_inputs():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal((30, 12))
        y = rng.standard_normal((30, 12))
        s = cka_score(x, y)
        assert 0.0 <= s <= 1.0 + 1e-12


def test_unrelated_random_matrices_score_low():
    # Monte-Carlo oracle: independent Gaussian activations should align weakly.
    rng = np.random.default_rng(3)
    scores = [
        cka_score(rng.standard_normal((256, 24)), rng.standard_normal((256, 24)))
        for _ in range(10)
    ]
    assert np.mean(scores) < 0.2


def test_orthogonal_invariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 24))
    y = rng.standard_normal((60, 24))
    q, _ = np.linalg.qr(rng.standard_normal((24, 24)))
    assert abs(cka_score(x @ q, y) - cka_score(x, y)) < 1e-9


def test_isotropic_scaling_invariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 24))
    y = rng.standard_normal((60, 24))
    assert abs(cka_score(3.7 * x, y) - cka_score(x, y)) < 1e-9
    assert abs(cka_score(x, 0.002 * y) - cka_score(x, y)) < 1e-9
    # far past where an unscaled Gram's squares overflow or underflow
    for scale in (1e100, 1e-100):
        assert abs(cka_score(scale * x, y) - cka_score(x, y)) < 1e-9
        m = cka_matrix([scale * x, y, x / scale])
        assert np.allclose(m, cka_matrix([x, y, x]), rtol=0, atol=1e-9)


def test_zero_variance_input_scores_zero(caplog):
    x = np.ones((10, 4))
    y = np.random.default_rng(6).standard_normal((10, 4))
    with caplog.at_level(logging.WARNING):
        assert cka_score(x, y) == 0.0
        assert cka_score(y, x) == 0.0
    assert any("zero-variance" in r.message for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        m = cka_matrix([y, x, 2.0 * y + 1.0, y[::-1]])
    assert sum("zero-variance" in r.message for r in caplog.records) == 1
    assert np.all(m[1, [0, 2, 3]] == 0.0) and np.all(m[[0, 2, 3], 1] == 0.0)
    assert np.all(np.diag(m) == 1.0)
    assert m[0, 2] > 0.999 and m[0, 3] > 0.0


def test_shape_checks():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="sample counts differ"):
        cka_score(rng.standard_normal((10, 4)), rng.standard_normal((12, 4)))
    with pytest.raises(ValueError, match="2-D"):
        cka_score(rng.standard_normal(10), rng.standard_normal(10))
    with pytest.raises(ValueError, match="sample counts differ"):
        cka_matrix([rng.standard_normal((10, 4))] * 2 + [rng.standard_normal((12, 4))])
    with pytest.raises(ValueError, match="2-D"):
        cka_matrix([rng.standard_normal((10, 4)), rng.standard_normal((10, 4, 1))])
    with pytest.raises(ValueError, match="2-D"):
        cka_matrix([rng.standard_normal(10)])


def test_cka_matrix_diagonal_and_symmetry():
    rng = np.random.default_rng(8)
    for n in (0, 1, 4):
        acts = [rng.standard_normal((20, 8)) for _ in range(n)]
        m = cka_matrix(acts)
        if n < 2:
            assert m.tobytes() == np.eye(n).tobytes()
        assert np.all(np.diag(m) == 1.0)
        assert np.array_equal(m, m.T)


# (samples, feature widths): fewer, as many and more samples than
# features, and operands of different widths
SHAPES = [(8, (3, 3, 3)), (50, (7, 7, 7, 7)), (24, (12,) * 6), (32, (64,) * 5),
          (64, (64, 64, 64)), (197, (64, 64, 64)), (20, (4, 20, 33, 7))]


def test_cka_matrix_is_byte_identical_to_pairwise_oracle():
    rng = np.random.default_rng(10)
    for t, widths in SHAPES:
        acts = [rng.standard_normal((t, d)) * 10.0 ** rng.uniform(-3, 3) for d in widths]
        n = len(acts)
        expected = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                expected[i, j] = expected[j, i] = oracle_cka_score(acts[i], acts[j])
        assert cka_matrix(acts).tobytes() == expected.tobytes(), (t, widths)
        assert cka_score(acts[0], acts[1]) == expected[0, 1]


@pytest.mark.parametrize("t, widths", SHAPES)
def test_sample_space_form_agrees_with_feature_space_form(t, widths):
    rng = np.random.default_rng(20 + t)
    base = rng.standard_normal((t, max(widths)))
    acts = [base[:, :d] + 0.5 * rng.standard_normal((t, d)) for d in widths]
    m = cka_matrix(acts)
    for i in range(len(acts)):
        for j in range(i + 1, len(acts)):
            assert abs(m[i, j] - oracle_cka_score_feature_space(acts[i], acts[j])) <= 1e-12
