import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xbarsim.funcsim.quant import quantize


def test_roundtrip_within_one_step():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 3, size=(32, 32))
    q = quantize(x, bits=8)
    assert np.max(np.abs(q.values * q.scale - x)) <= q.scale / 2 + 1e-12


def test_signed_range():
    x = np.array([[-5.0, 0.0, 5.0]])
    q = quantize(x, bits=8)
    assert q.values.min() == -127 and q.values.max() == 127
    assert q.values[0, 1] == 0  # real zero is integer zero


def test_fewer_than_two_bits_rejected():
    # one signed bit leaves no non-zero level
    for bits in (0, 1):
        with pytest.raises(ValueError, match="bits >= 2"):
            quantize(np.array([1.0]), bits=bits)
    assert quantize(np.array([-3.0, 3.0]), bits=2).values.tolist() == [-1, 1]


def test_zero_input():
    q = quantize(np.zeros((4, 4)), bits=8)
    assert np.all(q.values == 0)
    assert np.all(q.values * q.scale == 0.0)


def test_subnormal_input_gets_a_finite_scale():
    # 5e-324 / 7 underflows to 0.0; dividing by that scale would give inf
    q = quantize(np.array([[5e-324, -5e-324]]), bits=4)
    assert q.scale == 1.0
    assert q.values.tolist() == [[0, 0]]


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=16),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    ),
    st.sampled_from([4, 6, 8]),
)
@example(np.array([[5e-324]]), 4)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(x, bits):
    q = quantize(x, bits=bits)
    assert np.max(np.abs(q.values * q.scale - x)) <= q.scale / 2 + 1e-9
    assert np.abs(q.values).max() <= 2 ** (bits - 1) - 1


@pytest.mark.parametrize("x, bits, match", [
    ([[np.nan, 1.0]], 8, "NaN or infinite"),
    ([[np.inf, 1.0]], 8, "NaN or infinite"),
    ([[1.0, -np.inf]], 8, "NaN or infinite"),
    ([[3.0]], 55, "bits <= 54"),
    ([[3.0]], 63, "bits <= 54"),
    ([[3.0]], 64, "bits <= 54"),
])
def test_unrepresentable_inputs_rejected(x, bits, match):
    # NaN and inf have no integer, and past 54 bits values round beyond qmax
    with pytest.raises(ValueError, match=match):
        quantize(np.array(x), bits=bits)
    # at 54 bits qmax = 2^53 - 1 is still a float64 integer
    qmax = 2**53 - 1
    assert quantize(np.array([[3.0, -3.0]]), bits=54).values.tolist() == [[qmax, -qmax]]
