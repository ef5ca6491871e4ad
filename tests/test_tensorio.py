import struct

import numpy as np
import pytest

from xbarsim.funcsim.tensorio import load_tensor, save_tensor


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32, np.int64, np.uint8])
def test_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(0)
    if np.issubdtype(dtype, np.floating):
        arr = rng.standard_normal((5, 7)).astype(dtype)
    else:
        arr = rng.integers(0, 120, size=(5, 7)).astype(dtype)
    path = tmp_path / "t.xbt"
    save_tensor(str(path), arr, scale=0.125)
    back, scale = load_tensor(str(path))
    assert back.dtype == arr.dtype
    assert scale == 0.125
    assert np.array_equal(back, arr)


def test_three_dimensional(tmp_path):
    arr = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
    path = tmp_path / "t3.xbt"
    save_tensor(str(path), arr)
    back, _ = load_tensor(str(path))
    assert np.array_equal(back, arr)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.xbt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="container"):
        load_tensor(str(path))


def test_unknown_dtype_code(tmp_path):
    path = tmp_path / "code9.xbt"
    path.write_bytes(b"XBT1" + struct.pack("<BBd", 9, 1, 1.0) + struct.pack("<I", 0))
    with pytest.raises(ValueError, match="unknown dtype code 9"):
        load_tensor(str(path))


def test_unsupported_dtype(tmp_path):
    with pytest.raises(ValueError, match="unsupported"):
        save_tensor(str(tmp_path / "x.xbt"), np.zeros(3, dtype=np.complex128))
