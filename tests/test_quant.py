import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xbarsim.funcsim.quant import QuantizedMatrix, dequantize, quantize


def test_roundtrip_within_one_step():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 3, size=(32, 32))
    q = quantize(x, bits=8)
    assert np.max(np.abs(dequantize(q) - x)) <= q.scale / 2 + 1e-12


def test_signed_range():
    x = np.array([[-5.0, 0.0, 5.0]])
    q = quantize(x, bits=8)
    assert q.values.min() == -127 and q.values.max() == 127
    assert q.values[0, 1] == 0  # real zero is integer zero


def test_unsigned_range():
    x = np.array([[0.0, 1.0]])
    q = quantize(x, bits=8, signed=False)
    assert q.values.min() == 0 and q.values.max() == 255


def test_unsigned_rejects_negative():
    with pytest.raises(ValueError):
        quantize(np.array([-1.0]), bits=8, signed=False)


def test_zero_input():
    q = quantize(np.zeros((4, 4)), bits=8)
    assert np.all(q.values == 0)
    assert np.all(dequantize(q) == 0.0)


def test_out_of_range_values_rejected():
    with pytest.raises(ValueError):
        QuantizedMatrix(np.array([300]), 1.0, 8, signed=True)


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=16),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    ),
    st.sampled_from([4, 6, 8]),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(x, bits):
    q = quantize(x, bits=bits)
    assert np.max(np.abs(dequantize(q) - x)) <= q.scale / 2 + 1e-9
    lo, hi = q.range
    assert q.values.min() >= lo and q.values.max() <= hi
