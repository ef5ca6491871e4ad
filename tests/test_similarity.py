import logging

import numpy as np
import pytest

from oracles import oracle_cka_score
from xbarsim.similarity import Centered, centered, cka_matrix, cka_score


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


def test_zero_variance_input_scores_zero(caplog):
    x = np.ones((10, 4))
    y = np.random.default_rng(6).standard_normal((10, 4))
    with caplog.at_level(logging.WARNING):
        assert cka_score(x, y) == 0.0
    assert any("zero-variance" in r.message for r in caplog.records)


def test_shape_checks():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        cka_score(rng.standard_normal((10, 4)), rng.standard_normal((12, 4)))
    with pytest.raises(ValueError):
        cka_score(rng.standard_normal(10), rng.standard_normal(10))


def test_cka_matrix_diagonal_and_symmetry():
    rng = np.random.default_rng(8)
    acts = [rng.standard_normal((20, 8)) for _ in range(4)]
    m = cka_matrix(acts)
    assert np.allclose(np.diag(m), 1.0)
    assert np.allclose(m, m.T)


def test_centered_records_score_like_raw_arrays():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((32, 16))
    y = rng.standard_normal((32, 16)) + 0.5 * x
    raw = cka_score(x, y)
    assert raw == oracle_cka_score(x, y)
    assert cka_score(centered(x), centered(y)) == raw
    assert cka_score(centered(x), y) == raw
    assert cka_score(x, centered(y)) == raw


def test_centered_record_holds_centered_columns_and_self_norm():
    x = np.arange(12.0).reshape(4, 3) ** 2
    rec = centered(x)
    assert isinstance(rec, Centered)
    assert np.allclose(rec.xc.mean(axis=0), 0.0)
    assert rec.self_norm == np.linalg.norm(rec.xc.T @ rec.xc, "fro")


def test_zero_variance_record_scores_zero(caplog):
    y = np.random.default_rng(6).standard_normal((10, 4))
    with caplog.at_level(logging.WARNING):
        assert cka_score(centered(y), centered(np.ones((10, 4)))) == 0.0
    assert any("zero-variance" in r.message for r in caplog.records)


def test_shape_checks_apply_to_records():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="sample counts differ"):
        cka_score(centered(rng.standard_normal((10, 4))), rng.standard_normal((12, 4)))
    with pytest.raises(ValueError, match="2-D"):
        cka_score(centered(rng.standard_normal((10, 4))), rng.standard_normal(10))


def test_cka_matrix_is_byte_identical_to_pairwise_oracle():
    rng = np.random.default_rng(10)
    acts = [rng.standard_normal((24, 12)) for _ in range(6)]
    expected = np.eye(6)
    for i in range(6):
        for j in range(i + 1, 6):
            expected[i, j] = expected[j, i] = oracle_cka_score(acts[i], acts[j])
    assert cka_matrix(acts).tobytes() == expected.tobytes()
