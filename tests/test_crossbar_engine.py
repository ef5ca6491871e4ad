"""The stripe engine against the per-tile oracles in ``oracles.py``.

Noise-free products must equal the crossbar-by-crossbar oracle bit for
bit: every per-read count is an integer and every sum of counts is an
exact integer in float64, so the read batching cannot change a result.
Noise-free counts come from the (popcount, level sum) decode table,
the ADC count of the ideal current at every entry, rint half-points
included, which off the half-points must agree with ``_adc_decode`` of
a float read in any summation order. A read whose popcount is below
``first_lossy_popcount`` reads the integer weights instead, so a
product's reads must split exactly by popcount. With read noise on,
drawing only the cells of set rows must leave the current distribution
that of the dense per-cell sampler. Device noise comes from the
Box-Muller sampler ``_standard_normal``, checked here against the
normal distribution and the oracle's ziggurat draws.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import ks_2samp, kstest, kurtosis

from oracles import (
    oracle_bit_planes,
    oracle_cell_digits,
    oracle_count,
    oracle_identity_rows,
    oracle_mvm_bitserial,
    oracle_read_currents,
    oracle_tile,
)
from xbarsim.funcsim import SimContext, crossbar, forward
from xbarsim.funcsim.crossbar import (
    CHUNK_ELEMENTS,
    CrossbarState,
    NoiseModel,
    ProgrammedMatrix,
    _adc_decode,
    _bit_planes,
    _cell_digits,
    _decode_table,
    _standard_normal,
    first_lossy_popcount,
    ideal_conductances,
    mvm_bitserial,
    program_matrix,
)
from xbarsim.mapping import TileConfig
from xbarsim.workload import LayerKind


def _inputs(kind, rng, n, in_dim):
    if kind == "random":
        return rng.integers(-127, 128, size=(n, in_dim))
    if kind == "all_negative":
        return -rng.integers(1, 128, size=(n, in_dim))
    # only planes 0 and 5 carry bits; planes 1-4 and 6 are empty
    return rng.choice([0, 1, 32, 33, -1, -33], size=(n, in_dim))


@pytest.mark.parametrize("adc_bits", [4, 6, 8, 16])
@pytest.mark.parametrize("device", ["fefet", "sram"])
@pytest.mark.parametrize("kind", ["random", "all_negative", "empty_planes"])
def test_noise_free_product_equals_the_per_tile_oracle(kind, device, adc_bits,
                                                       tiles, request):
    dev = request.getfixturevalue(device)
    rng = np.random.default_rng(adc_bits)
    w = rng.integers(-127, 128, size=(100, 150))
    x = _inputs(kind, rng, 6, 100)
    noise = NoiseModel(0.0, 0.0, adc_bits=adc_bits)
    pm = program_matrix(w, dev, tiles, 8)
    out = mvm_bitserial(pm, x, noise)
    assert np.array_equal(out, oracle_mvm_bitserial(pm, x, noise))
    if adc_bits == 16:
        assert np.array_equal(out, x @ w)


@pytest.mark.parametrize("out_dim", [3, 40])
@pytest.mark.parametrize("device", ["fefet", "sram"])
def test_a_product_over_many_input_rows_is_exact(device, out_dim, tiles, request):
    # 600 input rows: at 3 columns a read chunk spans several bit-planes,
    # whose reads share input rows; at 40 a plane spans several chunks
    dev = request.getfixturevalue(device)
    rng = np.random.default_rng(out_dim)
    w = rng.integers(-127, 128, size=(70, out_dim))
    x = rng.integers(-127, 128, size=(600, 70))
    noise = NoiseModel(adc_bits=16)
    pm = program_matrix(w, dev, tiles, 8)
    assert (CHUNK_ELEMENTS // pm.columns > 600) == (out_dim == 3)  # reads per chunk
    assert np.array_equal(mvm_bitserial(pm, x, noise), x @ w)


@pytest.mark.parametrize("shape", [(100, 150), (64, 64), (1, 1), (129, 65)])
@pytest.mark.parametrize("device", ["fefet", "sram"])
def test_crossbar_count_follows_the_shape(shape, device, tiles, request):
    dev = request.getfixturevalue(device)
    pm = program_matrix(np.ones(shape, dtype=int), dev, tiles, 8)
    x = tiles.xbar_size
    slices = math.ceil(8 / dev.bits_per_cell)
    assert pm.n_crossbars == math.ceil(shape[0] / x) * math.ceil(shape[1] / x) * slices * 2


def test_tile_is_the_crossbar_of_one_digit_plane(fefet, tiles):
    rng = np.random.default_rng(0)
    w = rng.integers(-127, 128, size=(100, 150))
    pm = program_matrix(w, fefet, tiles, 8)
    for rb, cb, k, sign in [(0, 0, 0, 0), (1, 2, 3, 1), (1, 1, 2, 0), (0, 2, 1, 1)]:
        part = np.maximum(w if sign == 0 else -w, 0)
        rows = slice(rb * 64, (rb + 1) * 64)
        cols = slice(cb * 64, (cb + 1) * 64)
        digits = (part[rows, cols] >> (2 * k)) & 3
        assert np.array_equal(oracle_tile(pm, rb, cb, k, sign).conductances,
                              ideal_conductances(digits, fefet))
    with pytest.raises(IndexError):
        oracle_tile(pm, 0, 3, 0, 0)


@pytest.mark.parametrize("multiplicative", [True, False])
def test_active_only_reads_match_the_dense_sampler(fefet, tiles, multiplicative):
    # Levels 0 and 3 sit on G_min and G_max, so 30% noise is clipped often.
    cells = np.random.default_rng(1).choice([0, 3], size=(64, 12))
    xb = oracle_tile(program_matrix(cells, fefet, tiles, 2), 0, 0, 0, 0)
    bits = np.zeros(64)
    bits[::3] = 1
    batch = np.tile(bits, (3000, 1))
    noise = NoiseModel(read_var=0.3, adc_bits=6, multiplicative=multiplicative)
    fast = xb.read_currents(batch, noise, np.random.default_rng(2))
    dense = oracle_read_currents(xb, batch, noise, np.random.default_rng(3))
    assert np.all(np.abs(fast.mean(axis=0) / dense.mean(axis=0) - 1.0) <= 0.02)
    assert np.all(np.abs(fast.std(axis=0, ddof=1) / dense.std(axis=0, ddof=1) - 1.0)
                  <= 0.05)
    assert ks_2samp(fast.sum(axis=1), dense.sum(axis=1)).pvalue > 0.01
    # one-hot reads expose single cells: about half of them sit on a clip edge
    single = xb.read_currents(np.eye(64), noise, np.random.default_rng(4))
    assert np.mean((single == fefet.g_min) | (single == fefet.g_max)) > 0.4


def _advance_by_words(rng, fills):
    """Advance ``rng`` as ``_standard_normal`` does: ceil(n / 2) words per fill of n."""
    for n in fills:
        rng.integers(0, 2**64, size=(n + 1) // 2, dtype=np.uint64)
    return rng


def test_read_noise_is_drawn_for_set_rows_only(fefet, monkeypatch):
    # Each fill takes ceil(n / 2) words, so the stream position depends on
    # where the chunks split: the fills are recorded, and a twin advanced
    # by their words must end where the read did.
    fills = []
    sample = crossbar._standard_normal

    def recording(rng, out):
        fills.append(out.shape)
        return sample(rng, out)

    monkeypatch.setattr(crossbar, "_standard_normal", recording)
    bits = (np.random.default_rng(4).random((1500, 64)) < 0.2).astype(np.uint8)
    noise = NoiseModel(read_var=0.1, adc_bits=6)
    for columns in (16, 33):  # even and odd chunk fills
        fills.clear()
        xb = CrossbarState(ideal_conductances(np.ones((64, columns)), fefet), fefet)
        used = np.random.default_rng(5)
        xb.read_currents(bits, noise, used)
        assert len(fills) > 2  # several chunks
        assert all(width == columns for _, width in fills)
        assert sum(rows for rows, _ in fills) == bits.sum()
        twin = _advance_by_words(np.random.default_rng(5), [r * w for r, w in fills])
        assert used.bit_generator.state == twin.bit_generator.state
        # reads with no set row read zero and leave the others' draws as they were
        gaps = bits.copy()
        gaps[::7] = 0
        again = xb.read_currents(gaps, noise, np.random.default_rng(5))
        assert not again[::7].any()
        kept = np.ones(len(bits), dtype=bool)
        kept[::7] = False
        assert np.array_equal(again[kept],
                              xb.read_currents(bits[kept], noise, np.random.default_rng(5)))


def _box_muller(rng, n):
    """The sampler's definition, written out: n draws from ceil(n / 2) words."""
    words = rng.integers(0, 2**64, size=(n + 1) // 2, dtype=np.uint64)
    k = (words >> np.uint64(32)).astype(np.float32)
    j = (words & np.uint64(2**32 - 1)).astype(np.float32)
    radius = np.sqrt(np.float32(-2.0) * np.log((k + np.float32(1.0)) * np.float32(2.0**-32)))
    angle = j * np.float32(2.0 * np.pi * 2.0**-32)
    return np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))[:n]


def _check_normal(z):
    # each bound is 4 to 6 standard errors at 2M draws
    assert abs(z.mean()) < 0.004
    assert abs(z.std() - 1.0) < 0.003
    assert kstest(z, "norm").pvalue > 0.01


def test_standard_normal_matches_the_normal_distribution():
    z = _standard_normal(np.random.default_rng(11), np.empty(1 << 21, dtype=np.float32))
    z = z.astype(np.float64)
    h = z.size // 2
    _check_normal(z)
    assert abs(kurtosis(z)) < 0.02  # excess kurtosis
    # the cosine and sine halves share radii but are independent normals
    assert kstest(z[:h], "norm").pvalue > 0.01
    assert kstest(z[h:], "norm").pvalue > 0.01
    assert abs(np.corrcoef(z[:h], z[h:])[0, 1]) < 0.004
    assert abs(np.corrcoef(z[:h] ** 2, z[h:] ** 2)[0, 1]) < 0.004


# MT19937's raw words hold 32 random bits each; ``integers`` joins two per word
@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_standard_normal_is_normal_through_other_bit_generators(bit_generator):
    rng = np.random.Generator(bit_generator(11))
    _check_normal(_standard_normal(rng, np.empty(1 << 21, dtype=np.float32)).astype(np.float64))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 1001, CHUNK_ELEMENTS + 1])
def test_standard_normal_fills_odd_and_even_sizes(n):
    used, twin = np.random.default_rng(n), np.random.default_rng(n)
    out = np.empty(n, dtype=np.float32)
    assert _standard_normal(used, out) is out
    assert np.array_equal(out, _box_muller(twin, n))
    assert used.bit_generator.state == twin.bit_generator.state


def test_standard_normal_fills_a_row_slice_in_place():
    buf = np.full((6, 7), np.nan, dtype=np.float32)
    view = buf[:4]
    assert _standard_normal(np.random.default_rng(3), view) is view
    assert np.array_equal(buf[:4].ravel(), _box_muller(np.random.default_rng(3), 28))
    assert np.isnan(buf[4:]).all()
    with pytest.raises(ValueError, match="C-contiguous"):
        _standard_normal(np.random.default_rng(3), buf[:, :3])
    with pytest.raises(ValueError, match="float32"):
        _standard_normal(np.random.default_rng(3), np.empty(4))


def test_standard_normal_replays_byte_for_byte():
    def fill(rng):
        return _standard_normal(rng, np.empty((33, 17), dtype=np.float32))

    first = fill(np.random.default_rng(8))
    assert first.tobytes() == fill(np.random.default_rng(8)).tobytes()
    rng = np.random.default_rng(8)
    fill(rng)
    assert not np.array_equal(fill(rng), first)


class _ExtremeWords:
    """A stand-in generator whose 64-bit words alternate 0 and 2^64 - 1."""

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**64, np.uint64)
        words = np.zeros(size, dtype=np.uint64)
        words[1::2] = np.iinfo(np.uint64).max
        return words


def test_standard_normal_is_bounded_by_the_smallest_word():
    # word 0: radius sqrt(-2 ln 2^-32) at angle 0; word 2^64 - 1: radius 0
    z = _standard_normal(_ExtremeWords(), np.empty(4, dtype=np.float32))
    assert np.all(np.isfinite(z))
    assert 6.66 < np.abs(z).max() <= 6.661  # sqrt(64 ln 2) = 6.6604


@pytest.mark.parametrize("multiplicative", [True, False])
def test_write_noise_is_one_fill_per_stripe(fefet, tiles, multiplicative):
    w = np.random.default_rng(9).integers(-127, 128, size=(100, 20))
    noise = NoiseModel(write_var=0.2, adc_bits=6, multiplicative=multiplicative)
    used, twin = np.random.default_rng(10), np.random.default_rng(10)
    pm = program_matrix(w, fefet, tiles, 8, noise, used)
    ideal = program_matrix(w, fefet, tiles, 8)
    window = fefet.g_max - fefet.g_min
    for stripe, exact in zip(pm.stripes, ideal.stripes):
        g = exact.conductances
        eps = 0.2 * _standard_normal(twin, np.empty(g.shape, dtype=np.float32))
        written = g * (1.0 + eps) if multiplicative else g + eps * window
        assert np.array_equal(stripe.conductances,
                              np.clip(written, fefet.g_min, fefet.g_max))
    assert used.bit_generator.state == twin.bit_generator.state
    words = _advance_by_words(np.random.default_rng(10),
                              [s.conductances.size for s in pm.stripes])
    assert used.bit_generator.state == words.bit_generator.state


def test_noisy_reads_require_a_generator(fefet, tiles):
    noise = NoiseModel(read_var=0.1, write_var=0.0, adc_bits=6)
    pm = program_matrix(np.ones((8, 8), dtype=int), fefet, tiles, 8)
    xb = oracle_tile(pm, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="rng"):
        xb.read_currents(np.ones((2, 8)), noise)
    with pytest.raises(ValueError, match="rng"):
        mvm_bitserial(pm, np.ones((2, 8), dtype=int), noise)
    quiet = NoiseModel(read_var=0.0, write_var=0.2, adc_bits=16)
    assert np.array_equal(xb.read_currents(np.ones(8), quiet), np.ones((1, 8)) @ xb.conductances)
    assert np.array_equal(mvm_bitserial(pm, np.ones((2, 8), dtype=int), quiet),
                          np.full((2, 8), 8))


def test_an_all_zero_input_reads_nothing(fefet, tiles, monkeypatch):
    pm = program_matrix(np.ones((8, 8), dtype=int), fefet, tiles, 8)

    def no_read(*args, **kwargs):
        raise AssertionError("an all-zero input was read")

    monkeypatch.setattr(CrossbarState, "read_currents", no_read)
    noise = NoiseModel(read_var=0.1, write_var=0.0, adc_bits=6)
    out = mvm_bitserial(pm, np.zeros((3, 8), dtype=int), noise, np.random.default_rng(0))
    assert out.dtype == np.int64 and out.shape == (3, 8) and not out.any()


@pytest.mark.parametrize("device", ["sram", "fefet"])
@pytest.mark.parametrize("noisy", [False, True])
def test_a_matrix_with_no_output_columns_gives_an_empty_product(device, noisy, tiles,
                                                                request):
    dev = request.getfixturevalue(device)
    noise = NoiseModel(read_var=0.1, write_var=0.2, adc_bits=6) if noisy else NoiseModel()
    rng = np.random.default_rng(0)
    pm = program_matrix(np.ones((4, 0), dtype=int), dev, tiles, 8, noise, rng)
    x = np.arange(12).reshape(3, 4)
    out = mvm_bitserial(pm, x, noise, rng)
    assert out.dtype == np.int64 and out.shape == (3, 0)
    currents = pm.stripes[0].read_currents(np.ones((2, 4)), noise, rng)
    assert currents.shape == (2, 0)


def test_inputs_that_can_sum_past_float64_integers_raise(sram, tiles):
    # w = [[1]] on SRAM at 6 ADC bits: a one-row read decodes to at most its
    # level sum 1, plus half an ADC step (64 * G_max / dG / 126 = 0.51),
    # plus 1, and a slice pair weighs 2. Inputs of one sign and up to 50
    # bits stay below 2^53 (5.03 * (2^50 - 1)); 51 bits do not. float64
    # rounds 2^53 + 1 to 2^53, and -2^63 has no int64 negation.
    pm = program_matrix(np.array([[1]]), sram, tiles, 1)
    noise = NoiseModel(adc_bits=6)
    for x in (2**50 - 1, -(2**50 - 1)):
        assert mvm_bitserial(pm, np.array([[x]]), noise).tolist() == [[x]]
    for x in (2**50, -2**50, 2**53 + 1, -2**63):
        with pytest.raises(ValueError, match="2\\^53"):
            mvm_bitserial(pm, np.array([[x]]), noise)
    # both signs at 50 bits double the bound
    with pytest.raises(ValueError, match="2\\^53"):
        mvm_bitserial(pm, np.array([[2**50 - 1], [-(2**50 - 1)]]), noise)


CHANGED_BY_AN_INT64_CAST = [
    [[1.7]], [[1.9]], [[np.nan]], [[-np.inf]], [[2.0**63]], [[2**70]], [["1"]],
    np.array([[2**64 - 1]], dtype=np.uint64),
]


@pytest.mark.parametrize("bad", CHANGED_BY_AN_INT64_CAST,
                         ids=["1.7", "1.9", "nan", "-inf", "2^63", "2^70", "str", "uint64-max"])
def test_values_an_int64_cast_would_change_raise(bad, sram, tiles):
    """Weights and inputs are taken as given or refused, never truncated or
    wrapped; integral floats and unsigned values within int64 pass."""
    with pytest.raises(ValueError, match="weight matrix must hold integers within int64"):
        program_matrix(bad, sram, tiles, 8)
    pm = program_matrix(np.array([[1.0]]), sram, tiles, 8)
    assert mvm_bitserial(pm, np.array([[3.0]])).tolist() == [[3]]
    assert mvm_bitserial(pm, np.array([[3]], dtype=np.uint64)).tolist() == [[3]]
    with pytest.raises(ValueError, match="inputs must hold integers within int64"):
        mvm_bitserial(pm, bad)


def test_read_rows_must_be_binary(fefet, tiles):
    xb = program_matrix(np.ones((8, 8), dtype=int), fefet, tiles, 8).stripes[0]
    with pytest.raises(ValueError, match="binary"):
        xb.read_currents(np.full((1, 8), 2.0))


# 1 + 2^-30 rounds to 1.0 in a level stripe's float32 cells
@pytest.mark.parametrize("bad", [np.uint8(2), 0.5, 1.0 + 2.0**-30])
def test_a_non_binary_read_raises_on_the_values_as_given(bad, sram, tiles):
    pm = program_matrix(np.ones((8, 8), dtype=int), sram, tiles, 8)
    bits = np.zeros((2, 8), dtype=np.asarray(bad).dtype)
    bits[1, 3] = bad
    for state in (pm.stripes[0], pm.level_stripes[0]):
        with pytest.raises(ValueError, match="binary"):
            state.read_currents(bits)


def test_a_bool_read_equals_its_float_copy(fefet, tiles):
    rng = np.random.default_rng(12)
    pm = program_matrix(rng.integers(-127, 128, size=(64, 16)), fefet, tiles, 8)
    bits = rng.random((5, 64)) < 0.5
    for state in (pm.stripes[0], pm.level_stripes[0]):
        assert np.array_equal(state.read_currents(bits),
                              state.read_currents(bits.astype(np.float64)))
    noise = NoiseModel(read_var=0.1, adc_bits=6)
    stripe = pm.stripes[0]
    assert np.array_equal(stripe.read_currents(bits, noise, np.random.default_rng(0)),
                          stripe.read_currents(bits.astype(np.float64), noise,
                                               np.random.default_rng(0)))


def _record_reads(monkeypatch):
    """Every ``CrossbarState.read_currents`` call as (state, 2-D bit rows)."""
    calls = []
    read = CrossbarState.read_currents

    def recording(self, bits, noise=NoiseModel(), rng=None):
        calls.append((self, np.array(bits, ndmin=2)))
        return read(self, bits, noise, rng)

    monkeypatch.setattr(CrossbarState, "read_currents", recording)
    return calls


def test_one_read_per_stripe_and_chunk(fefet, tiles, monkeypatch):
    calls = _record_reads(monkeypatch)
    rng = np.random.default_rng(6)
    w = rng.integers(-127, 128, size=(150, 200))
    x = rng.integers(-127, 128, size=(32, 150))
    noise = NoiseModel(read_var=0.1, write_var=0.2, adc_bits=6)
    r = np.random.default_rng(0)
    pm = program_matrix(w, fefet, tiles, 8, noise, r)
    mvm_bitserial(pm, x, noise, r)
    stripe_cols = pm.n_slices * 2 * 200
    reads = x.shape[0] * 2 * 8  # eight planes per input sign at most
    read_chunks = math.ceil(reads / max(1, CHUNK_ELEMENTS // stripe_cols))
    row_blocks = math.ceil(150 / tiles.xbar_size)
    assert 0 < len(calls) <= row_blocks * read_chunks
    assert all(len(bits) * stripe_cols <= CHUNK_ELEMENTS for _, bits in calls)


def _stripe_of(pm, state):
    """(stripe kind, row tile) of a weight or level stripe ``pm`` has built."""
    (found,) = [(kind, rb) for kind in ("weight_stripes", "level_stripes") if kind in vars(pm)
                for rb, stripe in enumerate(getattr(pm, kind)) if stripe is state]
    return found


def _reads_by_stripe(pm, calls):
    """The recorded reads as {(stripe kind, row tile): popcounts in read order}.

    A weight stripe reads whole bit-planes, with zero rows in place of the
    reads it does not count; those are left out.
    """
    found = {}
    for state, bits in calls:
        kind = _stripe_of(pm, state)
        p = bits.sum(axis=1)
        found.setdefault(kind, []).extend(p[p > 0] if kind[0] == "weight_stripes" else p)
    return found


def _assert_each_set_bit_is_read_once(pm, calls, x, threshold):
    """Check every row tile's recorded reads of ``x`` against the two schedules.

    A tile with a set bit in a read below ``threshold`` reads its weight
    stripe over every bit-plane, in (sign, plane, row) order, with the
    reads at or above it cleared: in blocks of kq = step // n whole
    planes, or of kr = step rows of one plane when n > step =
    CHUNK_ELEMENTS // out_dim.
    Its level stripe reads the other reads, set rows only, in order and in
    chunks within ``CHUNK_ELEMENTS``. So each (plane, row) with a set bit
    is read once, from one stripe.
    """
    bits = oracle_bit_planes(x)[0]
    n, out_dim = len(x), pm.shape[1]
    planes, step = len(bits) // n, CHUNK_ELEMENTS // out_dim
    if n <= step:
        kq = step // n
        blocks = [n * min(kq, planes - q) for q in range(0, planes, kq)]
    else:
        blocks = [min(step, n - r) for _ in range(planes) for r in range(0, n, step)]
    for rb in range(pm.row_blocks):
        slab = bits[:, rb * pm.xbar_size:(rb + 1) * pm.xbar_size]
        p = slab.sum(axis=1)
        counted = p < threshold
        by_kind = {kind: [b for state, b in calls if _stripe_of(pm, state) == (kind, rb)]
                   for kind in ("weight_stripes", "level_stripes")}
        weight_reads, level_reads = by_kind["weight_stripes"], by_kind["level_stripes"]
        if (p[counted] > 0).any():
            assert [len(b) for b in weight_reads] == blocks
            assert np.array_equal(np.concatenate(weight_reads), slab & counted[:, None])
        else:
            assert not weight_reads
        if counted.all():
            assert not level_reads
        else:
            assert np.array_equal(np.concatenate(level_reads), slab[~counted])
            assert all(len(b) * pm.columns <= CHUNK_ELEMENTS for b in level_reads)
        assert all(len(b) * out_dim <= CHUNK_ELEMENTS for b in weight_reads)


def test_noise_free_reads_one_level_stripe_per_stripe_and_chunk(sram, tiles, monkeypatch):
    # at 6 ADC bits a 64-row SRAM read of p < 32 set rows counts its level
    # sum: it reads the weight stripe, and only the others the level stripe
    calls = _record_reads(monkeypatch)
    rng = np.random.default_rng(6)
    w = rng.integers(-127, 128, size=(150, 200))
    # one sign per input row, so a bit-plane sets about half of its rows
    x = rng.integers(1, 128, size=(32, 150)) * rng.choice([-1, 1], size=(32, 1))
    noise = NoiseModel(adc_bits=6)
    pm = program_matrix(w, sram, tiles, 8, noise)
    mvm_bitserial(pm, x, noise)
    threshold = first_lossy_popcount(sram, tiles.xbar_size, 6, pm.rows)
    # a level stripe stores one column per (slice, sign, column)
    level_cols = pm.level_stripes[0].conductances.shape[1]
    assert level_cols == pm.columns == pm.n_slices * 2 * 200
    for state, bits in calls:
        cols = state.conductances.shape[1]
        assert cols in (200, level_cols) and len(bits) * cols <= CHUNK_ELEMENTS
    found = _reads_by_stripe(pm, calls)
    bits = oracle_bit_planes(x)[0]
    for rb in range(pm.row_blocks):
        p = bits[:, rb * 64:(rb + 1) * 64].sum(axis=1)
        p = p[p > 0]
        assert found.get(("weight_stripes", rb), []) == list(p[p < threshold])
        assert found.get(("level_stripes", rb), []) == list(p[p >= threshold])
    # the 22-row tile never reaches p = 32; the others read both stripes
    assert set(found) == {("weight_stripes", 0), ("weight_stripes", 1),
                          ("weight_stripes", 2), ("level_stripes", 0), ("level_stripes", 1)}
    # 14 bit-planes of 32 reads: a weight stripe is read in blocks of 5
    # whole planes (163 reads fit a chunk), a level stripe once per chunk
    _assert_each_set_bit_is_read_once(pm, calls, x, threshold)
    assert len(bits) == 14 * 32
    for key, popcounts in found.items():
        chunks = 3 if key[0] == "weight_stripes" else \
            math.ceil(len(popcounts) / (CHUNK_ELEMENTS // level_cols))
        assert sum(_stripe_of(pm, state) == key for state, _ in calls) == chunks


def test_level_stripes_hold_the_digits_of_noise_free_writes_only(fefet, tiles):
    rng = np.random.default_rng(0)
    w = rng.integers(-127, 128, size=(100, 150))
    pm = program_matrix(w, fefet, tiles, 8)
    stride = tiles.xbar_size * (2**fefet.bits_per_cell - 1) + 1  # a decode-table row
    assert len(pm.level_stripes) == len(pm.stripes)
    for levels, stripe in zip(pm.level_stripes, pm.stripes):
        assert levels.conductances.dtype == np.float32
        assert np.array_equal(ideal_conductances(levels.conductances - stride, fefet),
                              stripe.conductances)
    noisy = NoiseModel(write_var=0.2, adc_bits=6)
    assert program_matrix(w, fefet, tiles, 8, noisy, rng).level_stripes is None


def test_a_programmed_matrix_holds_one_kind_of_stripe(fefet, tiles):
    pm = program_matrix(np.ones((4, 4), dtype=int), fefet, tiles, 8)
    for weights, written in ((None, None), (pm.weights, pm.stripes)):
        with pytest.raises(ValueError, match="exactly one"):
            dataclasses.replace(pm, weights=weights, written_stripes=written)


@pytest.mark.parametrize("noisy", [False, True])
def test_states_and_matrices_compare_and_hash_by_identity(noisy, fefet, tiles):
    noise = NoiseModel(write_var=0.2 if noisy else 0.0)
    w = np.ones((4, 4), dtype=int)
    rng = np.random.default_rng(0)
    pm, twin = (program_matrix(w, fefet, tiles, 8, noise, rng) for _ in range(2))
    states = pm.stripes[0], CrossbarState(pm.stripes[0].conductances, fefet)
    for a, b in (states, (pm, twin)):
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b}) == 2


def _product_without_conductances(w, x, dev, tiles, weight_bits, noise, monkeypatch):
    """Program ``w`` and multiply ``x`` noise-free, failing if a conductance stripe is built.

    Returns the matrix and each (state, bit rows shape) read.
    """

    def no_conductances(*args):
        raise AssertionError("a conductance stripe was built")

    monkeypatch.setattr(crossbar, "ideal_conductances", no_conductances)
    pm = program_matrix(w, dev, tiles, weight_bits, noise)
    calls = _record_reads(monkeypatch)
    out = mvm_bitserial(pm, x, noise)
    assert "stripes" not in vars(pm)
    monkeypatch.undo()
    assert np.array_equal(out, oracle_mvm_bitserial(pm, x, noise))
    return pm, calls


@pytest.mark.parametrize("device", ["sram", "fefet"])
def test_a_tie_free_noise_free_product_builds_no_conductance_stripe(device, tiles, request,
                                                                    monkeypatch):
    # the only 6-bit tie at 64 rows needs 32 set rows all at the top
    # level in one column, which these random weights never give
    dev = request.getfixturevalue(device)
    rng = np.random.default_rng(21)
    w = rng.integers(-127, 128, size=(100, 150))
    x = rng.integers(-127, 128, size=(16, 100))
    _product_without_conductances(w, x, dev, tiles, 8, NoiseModel(adc_bits=6), monkeypatch)


def _signed(values, sign):
    """``values`` with every entry made positive, negative or zero, or left as drawn."""
    return {"mixed": values, "positive": np.abs(values), "negative": -np.abs(values),
            "zero": np.zeros_like(values)}[sign]


SIGNS = st.sampled_from(["mixed", "positive", "negative", "zero"])
SIXTEEN_BIT = st.integers(-(2**16 - 1), 2**16 - 1)


@settings(max_examples=80, deadline=None)
@given(w=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                    elements=SIXTEEN_BIT),
       sign=SIGNS, bits_per_cell=st.sampled_from([1, 2]), extra_bits=st.integers(0, 3))
def test_cell_digits_equal_the_slice_by_slice_reference(w, sign, bits_per_cell, extra_bits):
    w = _signed(w, sign)
    bits = min(16, int(np.abs(w).max()).bit_length() + extra_bits) or 1
    n_slices = math.ceil(bits / bits_per_cell)
    digits = _cell_digits(w, n_slices, bits_per_cell)
    assert np.array_equal(digits, oracle_cell_digits(w, n_slices, bits_per_cell))
    # the narrowest unsigned dtype that holds every sliced bit
    assert digits.dtype == next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                                if np.iinfo(t).bits >= n_slices * bits_per_cell)


@settings(max_examples=80, deadline=None)
@given(x=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                    elements=SIXTEEN_BIT),
       sign=SIGNS)
def test_bit_planes_equal_the_plane_by_plane_reference(x, sign):
    x = _signed(x, sign)
    tops = (int(x.max(initial=0)), -int(x.min(initial=0)))
    bits, plane_weight = _bit_planes(x, tops)
    expected_bits, expected_rows, expected_weights = oracle_bit_planes(x)
    assert bits.dtype == expected_bits.dtype and bits.shape == expected_bits.shape
    assert np.array_equal(bits, expected_bits)
    # read i is input row i % n of plane i // n
    reads = np.arange(len(bits))
    assert np.array_equal(reads % len(x), expected_rows)
    assert plane_weight.dtype == expected_weights.dtype
    assert np.array_equal(plane_weight[reads // len(x)], expected_weights)


@pytest.mark.parametrize("xbar_size", [64, 8])
def test_a_noise_free_read_gives_the_flat_decode_table_index(fefet, xbar_size):
    rng = np.random.default_rng(xbar_size)
    w = rng.integers(-127, 128, size=(100, 20))
    noise = NoiseModel(adc_bits=6)
    pm = program_matrix(w, fefet, TileConfig(xbar_size=xbar_size), 8, noise)
    levels = 2**fefet.bits_per_cell - 1
    stride = xbar_size * levels + 1
    assert _decode_table(fefet, xbar_size, 6, xbar_size).shape[1] == stride
    # cell digits from the weights, columns ordered (slice, sign, column)
    parts = np.stack((np.maximum(w, 0), np.maximum(-w, 0)), axis=1)
    digits = np.stack([(parts >> (k * fefet.bits_per_cell)) & levels
                       for k in range(pm.n_slices)], axis=1).reshape(100, -1)
    assert len(pm.level_stripes) == math.ceil(100 / xbar_size)
    for rb, level in enumerate(pm.level_stripes):
        block = digits[rb * xbar_size:(rb + 1) * xbar_size]
        bits = rng.integers(0, 2, size=(50, block.shape[0]))
        k, p = bits @ block, bits.sum(axis=1, keepdims=True)
        assert np.array_equal(level.read_currents(bits), k + p * stride)


def test_a_read_beyond_float32_integers_keeps_no_level_stripe(fefet, monkeypatch):
    # 2400 rows: the largest read, 2400 * (3 + stride) with stride 7201, is
    # over 2^24, and the decode table would hold 2401 * 7201 float64s
    def no_table(*args):
        raise AssertionError("decode table built")

    monkeypatch.setattr(crossbar, "_decode_table", no_table)
    rng = np.random.default_rng(11)
    w = rng.integers(-127, 128, size=(2400, 3))
    x = rng.integers(-127, 128, size=(2, 2400))
    noise = NoiseModel(adc_bits=14)
    pm = program_matrix(w, fefet, TileConfig(xbar_size=4096, adc_bits=14), 8, noise)
    assert pm.level_stripes is None
    assert np.array_equal(mvm_bitserial(pm, x, noise), x @ w)


# 32 set rows over top-level cells: SRAM (p, k) = (32, 32) and FeFET
# (32, 96) both sit on the 6-bit ADC's code value 31.5.
TIES = {"sram": ((32, 32), 1), "fefet": ((32, 96), 2)}


@pytest.mark.parametrize("device", ["sram", "fefet"])
def test_a_tie_is_decoded_from_the_table(device, tiles, request, monkeypatch):
    dev = request.getfixturevalue(device)
    (p, k), weight_bits = TIES[device]
    assert _exact_ties(dev, tiles.xbar_size, 6, (p + 1, k + 1))[p, k]
    assert _decode_table(dev, tiles.xbar_size, 6, tiles.xbar_size)[p, k] == \
        oracle_count(dev, tiles.xbar_size, 6, p, k)
    w = np.full((tiles.xbar_size, 4), 2**dev.bits_per_cell - 1)
    x = np.zeros((3, tiles.xbar_size), dtype=int)
    x[0, :p] = 1
    x[1, 10:10 + p] = 1
    x[2, :p - 1] = 1  # one bit short of the tie
    pm, calls = _product_without_conductances(w, x, dev, tiles, weight_bits,
                                              NoiseModel(adc_bits=6), monkeypatch)
    # a tie is never below the threshold; SRAM's p - 1 = 31 is, FeFET's is not
    threshold = first_lossy_popcount(dev, tiles.xbar_size, 6, tiles.xbar_size)
    below = p - 1 < threshold
    assert p >= threshold and below == (device == "sram")
    expected = {("level_stripes", 0): [p, p] if below else [p, p, p - 1]}
    if below:
        expected["weight_stripes", 0] = [p - 1]
    assert _reads_by_stripe(pm, calls) == expected
    assert len(calls) == len(expected)
    _assert_each_set_bit_is_read_once(pm, calls, x, threshold)


def test_a_tie_count_does_not_depend_on_which_cells_hold_the_levels(fefet, tiles):
    # 13 set rows whose FeFET levels sum to 19 put a 4-bit ADC on its code
    # value 1.5 exactly; the count is oracle_count(13, 19) for every one of
    # 300 arrangements of those levels over the set rows
    p, k, columns = 13, 19, 300
    assert _exact_ties(fefet, tiles.xbar_size, 4, (p + 1, k + 1))[p, k]
    rng = np.random.default_rng(25)
    # k of the 3p unit slots, shuffled per column, grouped per cell
    slots = rng.random((columns, 3 * p)).argsort(axis=1) < k
    w = rng.integers(0, 4, size=(tiles.xbar_size, columns))
    w[:p] = slots.reshape(columns, p, 3).sum(axis=2).T
    assert np.array_equal(w[:p].sum(axis=0), np.full(columns, k))
    assert len({tuple(col) for col in w[:p].T}) > 200
    x = np.zeros((1, tiles.xbar_size), dtype=int)
    x[0, :p] = 1
    noise = NoiseModel(adc_bits=4)
    out = mvm_bitserial(program_matrix(w, fefet, tiles, 2, noise), x, noise)
    # the negative column of each pair holds level 0 on every set row
    count = oracle_count(fefet, tiles.xbar_size, 4, p, np.array([k, 0]))
    assert np.array_equal(out, np.full((1, columns), count[0] - count[1]))


def test_a_matmul_that_hits_a_tie_makes_one_product_call(sram, tiles, monkeypatch):
    calls = _record_reads(monkeypatch)
    products = []
    product = crossbar.mvm_bitserial

    def counting(*args, **kwargs):
        products.append(args[0])
        return product(*args, **kwargs)

    monkeypatch.setattr(crossbar, "mvm_bitserial", counting)
    monkeypatch.setattr(forward, "mvm_bitserial", counting)
    x = np.zeros((2, 64))
    x[:, :32] = 1.0  # quantized to 127: every plane sets the first 32 rows
    ctx = SimContext(sram, tiles)
    out = ctx.matmul(x, np.ones((64, 8)), LayerKind.FC_Q)
    assert len(products) == 1 and ctx.stats.crossbar_matmuls == 1
    pm = products[0]
    assert calls and all(state is pm.level_stripes[0] for state, _ in calls)
    qx = np.rint(x * 127).astype(int)
    expected = oracle_mvm_bitserial(pm, qx, NoiseModel(adc_bits=tiles.adc_bits))
    assert np.array_equal(out, expected * ((1 / 127) * (1 / 127)))


def _exact_ties(dev, xbar_size, adc_bits, shape):
    """(p, k) whose exact code value (p G_min + k dG) / full_scale * n_levels
    is a half-integer, in integer arithmetic on the device's resistances."""
    r_on, r_off = int(dev.r_on_ohm), int(dev.r_off_ohm)
    assert (r_on, r_off) == (dev.r_on_ohm, dev.r_off_ohm)
    levels = 2**dev.bits_per_cell - 1
    p, k = np.indices(shape, dtype=np.int64)
    # code value = (p r_on levels + k (r_off - r_on)) n_levels / (xbar_size r_off levels)
    num = (p * r_on * levels + k * (r_off - r_on)) * (2**adc_bits - 1)
    den = xbar_size * r_off * levels
    return (2 * num) % (2 * den) == den


@pytest.mark.parametrize("adc_bits", [4, 6, 8, 16])
@pytest.mark.parametrize("device", ["fefet", "sram"])
def test_every_safe_table_entry_holds_in_every_summation_order(device, adc_bits, tiles,
                                                               request):
    dev = request.getfixturevalue(device)
    xsz = tiles.xbar_size
    levels = 2**dev.bits_per_cell - 1
    table = _decode_table(dev, xsz, adc_bits, xsz)
    assert table.shape == (xsz + 1, xsz * levels + 1) and table.dtype == np.float64
    # every entry, ties included, is the count of the ideal current
    assert np.array_equal(table, oracle_count(dev, xsz, adc_bits, *np.indices(table.shape)))
    ties = _exact_ties(dev, xsz, adc_bits, table.shape)
    level_g = ideal_conductances(np.arange(levels + 1), dev)
    rng = np.random.default_rng(adc_bits)
    for p in range(1, xsz + 1):
        k = np.arange(p * levels + 1)
        # a random multiset of p levels summing to k: k of the p * levels
        # unit slots, shuffled, grouped per cell
        slots = rng.random((k.size, p * levels)).argsort(axis=1) < k[:, None]
        cell_levels = slots.reshape(k.size, p, levels).sum(axis=2)
        assert np.array_equal(cell_levels.sum(axis=1), k)
        g = level_g[cell_levels]
        # BLAS: the p cells sit at random rows of a crossbar of set and unset rows
        rows = rng.permutation(xsz)[:p]
        stripe = ideal_conductances(rng.integers(0, levels + 1, size=(xsz, k.size)), dev)
        stripe[rows] = g.T
        bits = np.zeros(xsz)
        bits[rows] = 1
        sums = (
            np.cumsum(g, axis=1)[:, -1],
            np.cumsum(g[:, ::-1], axis=1)[:, -1],
            np.cumsum(rng.permuted(g, axis=1), axis=1)[:, -1],
            CrossbarState(stripe, dev).read_currents(bits)[0],
        )
        safe = ~ties[p, k]
        for currents in sums:
            counts = _adc_decode(currents[None, :].copy(), np.array([p]), dev, xsz, adc_bits)
            assert np.array_equal(counts[0, safe], table[p, k[safe]])


@pytest.mark.parametrize("device", ["sram", "fefet"])
def test_a_narrow_window_decodes_exact_counts(device, tiles, request):
    # r_off a part in 1e9 above r_on: G_max / dG is about 1e9, and the ADC
    # steps decode to counts in the tens of millions, past float32's integers
    dev = request.getfixturevalue(device)
    dev = dataclasses.replace(dev, r_off_ohm=dev.r_on_ohm * (1 + 1e-9))
    xsz = tiles.xbar_size
    table = _decode_table(dev, xsz, 6, xsz)
    assert table.dtype == np.float64 and np.abs(table).max() >= 2**23
    assert np.array_equal(table, oracle_count(dev, xsz, 6, *np.indices(table.shape)))
    rng = np.random.default_rng(22)
    w = rng.integers(-127, 128, size=(100, 20))
    x = rng.integers(-127, 128, size=(6, 100))
    noise = NoiseModel(adc_bits=6)
    pm = program_matrix(w, dev, tiles, 8, noise)
    assert np.array_equal(mvm_bitserial(pm, x, noise), oracle_mvm_bitserial(pm, x, noise))


# stripe heights from 16 to 80 rows, the preset 64 among them
@pytest.mark.parametrize("rows", [16, 32, 38, 39, 64, 79, 80])
@pytest.mark.parametrize("device", ["sram", "fefet"])
def test_level_stripes_hold_one_column_per_slice_sign_and_column(device, rows, request):
    dev = request.getfixturevalue(device)
    rng = np.random.default_rng(rows)
    w = rng.integers(-127, 128, size=(2 * rows + 5, 3))
    x = rng.integers(-127, 128, size=(4, 2 * rows + 5))
    pm = program_matrix(w, dev, TileConfig(xbar_size=rows), 8)
    assert pm.rows == rows and len(pm.level_stripes) == 3
    for rb, level in enumerate(pm.level_stripes):
        block = w[rb * rows:(rb + 1) * rows]
        expected = _cell_digits(block, pm.n_slices, dev.bits_per_cell) + pm.stride
        assert level.conductances.shape == (len(block), pm.columns)
        assert level.conductances.dtype == np.float32
        assert np.array_equal(level.conductances, expected)
    for adc_bits in (4, 6):
        noise = NoiseModel(adc_bits=adc_bits)
        assert np.array_equal(mvm_bitserial(pm, x, noise), oracle_mvm_bitserial(pm, x, noise))


def test_a_level_shift_add_beyond_float32_integers_stays_exact(sram, tiles, monkeypatch):
    # 24 one-bit slices at 6 ADC bits: counts of up to 65 times weights up
    # to 2^23 sum past 2^24, where float32 drops odd integers; every read
    # sets 32 or more of the 64 rows, at or above the first lossy popcount
    rng = np.random.default_rng(19)
    w = rng.integers(-(2**24 - 1), 2**24, size=(64, 6))
    x = rng.integers(64, 128, size=(5, 64))
    x[:, :32] = 127
    x *= rng.choice([-1, 1], size=(5, 1))
    noise = NoiseModel(adc_bits=6)
    pm = program_matrix(w, sram, tiles, 24, noise)
    assert pm.n_slices == 24
    calls = _record_reads(monkeypatch)
    out = mvm_bitserial(pm, x, noise)
    assert calls and set(_reads_by_stripe(pm, calls)) == {("level_stripes", 0)}
    monkeypatch.undo()
    assert np.array_equal(out, oracle_mvm_bitserial(pm, x, noise))


@pytest.mark.parametrize("device, xbar_size", [("sram", 64), ("fefet", 16)])
def test_a_noisy_read_of_weights_equals_reading_their_conductances(device, xbar_size, request):
    dev = request.getfixturevalue(device)
    rng = np.random.default_rng(16)
    w = rng.integers(-127, 128, size=(100, 30))
    x = rng.integers(-127, 128, size=(12, 100))
    pm = program_matrix(w, dev, TileConfig(xbar_size=xbar_size), 8)
    written = ProgrammedMatrix(pm.shape, xbar_size, pm.n_slices, dev, written_stripes=tuple(
        CrossbarState(ideal_conductances(
            oracle_cell_digits(w[r0:r0 + xbar_size], pm.n_slices, dev.bits_per_cell), dev), dev)
        for r0 in range(0, 100, xbar_size)))
    noise = NoiseModel(read_var=0.1, adc_bits=6)
    out = mvm_bitserial(pm, x, noise, np.random.default_rng(17))
    assert out.tobytes() == mvm_bitserial(written, x, noise, np.random.default_rng(17)).tobytes()


def test_a_chunk_with_a_tie_is_read_through_its_level_stripe(sram, tiles, monkeypatch):
    # one-bit weights of 1 over 1024 columns: a level-stripe chunk holds 16
    # reads of its 2048 columns, a weight-stripe chunk 32 rows of the one
    # bit-plane of 200 input rows, over its 1024 columns.
    # Input row 100 sets 32 rows, the 6-bit tie (p, k) = (32, 32); the
    # others set 1 to 64 rows but never 32
    w = np.ones((64, 1024), dtype=int)
    rng = np.random.default_rng(18)
    set_rows = rng.choice(np.r_[1:32, 33:65], size=200)
    set_rows[100] = 32
    x = (np.arange(64) < set_rows[:, None]).astype(int)
    noise = NoiseModel(adc_bits=6)
    pm = program_matrix(w, sram, tiles, 1, noise)
    assert CHUNK_ELEMENTS // pm.level_stripes[0].conductances.shape[1] == 16
    calls = _record_reads(monkeypatch)
    out = mvm_bitserial(pm, x, noise)
    # reads of p < 32 set rows read the weight stripe; the tie and every
    # p > 32 read the level stripe
    lossless = set_rows < 32
    assert _reads_by_stripe(pm, calls) == {("weight_stripes", 0): list(set_rows[lossless]),
                                           ("level_stripes", 0): list(set_rows[~lossless])}
    assert len(calls) == math.ceil(200 / 32) + math.ceil((~lossless).sum() / 16)
    assert all(len(bits) * state.conductances.shape[1] <= CHUNK_ELEMENTS for state, bits in calls)
    _assert_each_set_bit_is_read_once(pm, calls, x, first_lossy_popcount(sram, 64, 6, 64))
    assert "stripes" not in vars(pm)
    monkeypatch.undo()
    assert np.array_equal(out, oracle_mvm_bitserial(pm, x, noise))


@pytest.mark.parametrize("adc_bits", range(1, 15))
@pytest.mark.parametrize("device", ["sram", "fefet"])
def test_identity_rows_are_exactly_those_below_the_first_lossy_popcount(device, adc_bits,
                                                                         request):
    # stripes of 1 to 64 rows on the shipped 64-row crossbar, and a full
    # 128-row one
    dev = request.getfixturevalue(device)
    for xbar_size, rows in [*((64, rows) for rows in range(1, 65)), (128, 128)]:
        threshold = first_lossy_popcount(dev, xbar_size, adc_bits, rows)
        assert isinstance(threshold, int) and 1 <= threshold <= rows + 1
        identity = oracle_identity_rows(dev, xbar_size, adc_bits, rows)
        assert np.array_equal(identity, np.arange(rows + 1) < threshold), rows


@pytest.mark.parametrize("rows", [16, 32, 64])
@pytest.mark.parametrize("adc_bits", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("device", ["sram", "fefet"])
def test_identity_rows_equal_the_count_by_count_reference(device, adc_bits, rows, request):
    # full crossbars of 16 to 64 rows: the identity rows are those below
    # the first lossy popcount, which a read of no set row never reaches
    dev = request.getfixturevalue(device)
    threshold = first_lossy_popcount(dev, rows, adc_bits, rows)
    assert threshold >= 1
    assert np.array_equal(np.arange(rows + 1) < threshold,
                          oracle_identity_rows(dev, rows, adc_bits, rows))
    if (device, adc_bits, rows) == ("sram", 6, 64):
        assert threshold == 32
    if device == "fefet" and adc_bits < 8 and rows == 64:
        assert threshold == 1  # an ADC step of about 3 counts


@pytest.mark.parametrize("device, adc_bits", [("sram", 6), ("fefet", 8)])
@pytest.mark.parametrize("lower", ["one", "true_minus_one"])
def test_any_lower_threshold_leaves_the_product_unchanged(device, adc_bits, lower, request,
                                                          monkeypatch):
    # T decodes every read correctly, so routing more reads through it
    # changes no count
    dev = request.getfixturevalue(device)
    rng = np.random.default_rng(adc_bits)
    w = rng.integers(-127, 128, size=(150, 40))
    x = rng.integers(-127, 128, size=(24, 150))
    x[rng.random(x.shape) < 0.4] = 0
    x[0] = 127  # seven planes that set every row
    noise = NoiseModel(adc_bits=adc_bits)
    tiles = TileConfig(adc_bits=adc_bits)
    expected = mvm_bitserial(program_matrix(w, dev, tiles, 8, noise), x, noise)
    true = first_lossy_popcount(dev, 64, adc_bits, 64)
    threshold = 1 if lower == "one" else true - 1
    assert 1 <= threshold < true
    monkeypatch.setattr(crossbar, "first_lossy_popcount", lambda *args: threshold)
    pm = program_matrix(w, dev, tiles, 8, noise)
    calls = _record_reads(monkeypatch)
    assert mvm_bitserial(pm, x, noise).tobytes() == expected.tobytes()
    assert ("level_stripes", 0) in _reads_by_stripe(pm, calls)
    _assert_each_set_bit_is_read_once(pm, calls, x, threshold)


def test_identity_rows_above_the_first_lossy_popcount_are_read_through_the_table(
        fefet, monkeypatch):
    # on a 42-row FeFET crossbar at 7 ADC bits popcounts 17 to 21 are lossy
    # and 22 to 42 identity rows again; those reads take T, which decodes
    # them exactly
    tiles = TileConfig(xbar_size=42, adc_bits=7)
    identity = oracle_identity_rows(fefet, 42, 7, 42)
    assert first_lossy_popcount(fefet, 42, 7, 42) == 17
    assert not identity[17:22].any() and identity[22:].all()
    rng = np.random.default_rng(29)
    w = rng.integers(-127, 128, size=(42, 12))
    x = (np.arange(42) < rng.choice([10, 16, 17, 21, 22, 30, 42], size=(9, 1))).astype(int)
    noise = NoiseModel(adc_bits=7)
    pm = program_matrix(w, fefet, tiles, 8, noise)
    calls = _record_reads(monkeypatch)
    out = mvm_bitserial(pm, x, noise)
    found = _reads_by_stripe(pm, calls)
    assert set(found["weight_stripes", 0]) <= {10, 16}
    assert set(found["level_stripes", 0]) <= {17, 21, 22, 30, 42}
    assert max(found["level_stripes", 0]) >= 22
    _assert_each_set_bit_is_read_once(pm, calls, x, 17)
    monkeypatch.undo()
    assert np.array_equal(out, oracle_mvm_bitserial(pm, x, noise))
    exact = identity[x.sum(axis=1)]  # an input row of one bit-plane is one read
    assert exact.any() and np.array_equal(out[exact], (x @ w)[exact])


def test_a_product_whose_reads_straddle_the_last_identity_row_equals_the_oracle(
        sram, tiles, monkeypatch):
    # SRAM, 6 ADC bits, 64 rows: a read of 31 set rows reads the weights,
    # one of 32 the level stripe; every plane of every input row sets 30
    # to 33 rows
    rng = np.random.default_rng(23)
    w = rng.integers(-127, 128, size=(64, 40))
    set_rows = rng.choice([30, 31, 32, 33], size=(4, 12))  # (plane, input row)
    planes = rng.random((4, 12, 64)).argsort(axis=2) < set_rows[..., None]
    x = np.einsum("q,qnr->nr", 2 ** np.arange(4), planes) * rng.choice([-1, 1], size=(12, 1))
    noise = NoiseModel(adc_bits=6)
    pm = program_matrix(w, sram, tiles, 8, noise)
    calls = _record_reads(monkeypatch)
    out = mvm_bitserial(pm, x, noise)
    found = _reads_by_stripe(pm, calls)
    assert set(found) == {("weight_stripes", 0), ("level_stripes", 0)}
    assert set(found["weight_stripes", 0]) == {30, 31}
    assert set(found["level_stripes", 0]) == {32, 33}
    _assert_each_set_bit_is_read_once(pm, calls, x, first_lossy_popcount(sram, 64, 6, 64))
    monkeypatch.undo()
    assert np.array_equal(out, oracle_mvm_bitserial(pm, x, noise))


# (device, rows of the second row tile, its reads by stripe). At 6 ADC
# bits on 64-row tiles the first lossy popcount is 32 for SRAM and 1 for FeFET.
SHORT_TILES = [
    ("sram", 31, {("weight_stripes", 1): [31, 16]}),
    ("sram", 32, {("weight_stripes", 1): [16], ("level_stripes", 1): [32]}),
    ("fefet", 31, {("level_stripes", 1): [31, 16]}),
]


@pytest.mark.parametrize("device, tile_rows, expected", SHORT_TILES)
def test_a_short_tile_reads_its_weights_only_below_the_first_lossy_popcount(
        device, tile_rows, expected, tiles, request, monkeypatch):
    # one bit-plane over the second tile: input row 0 sets all of its rows,
    # input row 1 the first 16; the first tile has no set bit and no read
    dev = request.getfixturevalue(device)
    rng = np.random.default_rng(27)
    w = rng.integers(-127, 128, size=(64 + tile_rows, 20))
    x = np.zeros((2, 64 + tile_rows), dtype=int)
    x[0, 64:] = 1
    x[1, 64:80] = 1
    noise = NoiseModel(adc_bits=6)
    pm = program_matrix(w, dev, tiles, 8, noise)
    assert pm.rows == 64
    calls = _record_reads(monkeypatch)
    out = mvm_bitserial(pm, x, noise)
    assert _reads_by_stripe(pm, calls) == expected
    monkeypatch.undo()
    assert np.array_equal(out, oracle_mvm_bitserial(pm, x, noise))


def _no_table(*args):
    raise AssertionError("decode table built")


@pytest.mark.parametrize("device, adc_bits", [("sram", 7), ("fefet", 8)])
def test_an_all_identity_product_reads_no_table(device, adc_bits, tiles, request,
                                                monkeypatch):
    # no popcount is lossy (read once here, before the patch)
    dev = request.getfixturevalue(device)
    assert first_lossy_popcount(dev, tiles.xbar_size, adc_bits, tiles.xbar_size) == \
        tiles.xbar_size + 1
    monkeypatch.setattr(crossbar, "_decode_table", _no_table)
    rng = np.random.default_rng(adc_bits)
    w = rng.integers(-127, 128, size=(100, 72))
    x = rng.integers(-127, 128, size=(16, 100))
    noise = NoiseModel(adc_bits=adc_bits)
    pm = program_matrix(w, dev, tiles, 8, noise)
    assert np.array_equal(mvm_bitserial(pm, x, noise), x @ w)
    assert "level_stripes" not in vars(pm) and "stripes" not in vars(pm)


def test_a_fefet_product_at_six_adc_bits_reads_no_weight_stripe(fefet, tiles, monkeypatch):
    rng = np.random.default_rng(24)
    w = rng.integers(-127, 128, size=(100, 30))
    x = rng.integers(-127, 128, size=(8, 100))
    noise = NoiseModel(adc_bits=6)
    pm = program_matrix(w, fefet, tiles, 8, noise)
    calls = _record_reads(monkeypatch)
    out = mvm_bitserial(pm, x, noise)
    assert "weight_stripes" not in vars(pm)
    assert calls and set(_reads_by_stripe(pm, calls)) == {("level_stripes", 0),
                                                          ("level_stripes", 1)}
    monkeypatch.undo()
    assert np.array_equal(out, oracle_mvm_bitserial(pm, x, noise))


def test_wide_weights_read_a_float64_weight_stripe_exactly(sram, tiles):
    # 64 rows of 24-bit weights sum past 2^24, where float32 drops odd
    # integers; at 7 ADC bits every SRAM read reads the weight stripe
    assert first_lossy_popcount(sram, tiles.xbar_size, 7, tiles.xbar_size) == tiles.xbar_size + 1
    rng = np.random.default_rng(26)
    w = rng.integers(-(2**24 - 1), 2**24, size=(64, 6))
    x = rng.integers(-127, 128, size=(5, 64))
    x[0] = 1  # one read of all 64 rows
    noise = NoiseModel(adc_bits=7)
    pm = program_matrix(w, sram, tiles, 24, noise)
    assert np.array_equal(mvm_bitserial(pm, x, noise), x @ w)
    assert pm.weight_stripes[0].conductances.dtype == np.float64
    assert np.abs(x[:1] @ w).max() >= 2**24
    # 64 rows of |w| <= 128 stay below 2^24: float32
    narrow = program_matrix(w >> 17, sram, tiles, 8, noise)
    assert narrow.weight_stripes[0].conductances.dtype == np.float32
    assert np.array_equal(mvm_bitserial(narrow, x, noise), x @ (w >> 17))


def test_a_shift_add_beyond_float32_integers_stays_exact(sram):
    # 511 set rows of 65535: each read sums to 511 * 65535, odd and over
    # 2^24, which float32 cannot hold. At 10 ADC bits no popcount of a
    # 512-row SRAM tile is lossy, so all three bit-planes are read
    # from the float64 weight stripe
    tiles = TileConfig(xbar_size=512, adc_bits=10)
    w = np.full((512, 2), 2**16 - 1)
    x = np.zeros((2, 512), dtype=int)
    x[0, :511] = 1
    x[1, 1:] = -3
    noise = NoiseModel(adc_bits=10)
    pm = program_matrix(w, sram, tiles, 16, noise)
    assert first_lossy_popcount(sram, 512, 10, 512) == 513
    assert np.array_equal(mvm_bitserial(pm, x, noise), x @ w)
    assert pm.weight_stripes[0].conductances.dtype == np.float64
    assert "level_stripes" not in vars(pm)


# (device, ADC bits, input rows, output columns). 100 columns take
# CHUNK_ELEMENTS // 100 = 327 reads a chunk, under the 600 reads of one
# bit-plane; 3 columns take 10922, 10 whole planes of 1000 reads. At 16 ADC
# bits every read is an identity read; at 6 SRAM bits a plane that sets
# 32 or more of a tile's rows is read through its level stripe.
PLANE_CHUNKS = [("sram", 16, 600, 100), ("fefet", 16, 600, 100), ("sram", 16, 1000, 3),
                ("fefet", 16, 1000, 3), ("sram", 6, 600, 100), ("sram", 6, 1000, 3)]


@pytest.mark.parametrize("device, adc_bits, n, out_dim", PLANE_CHUNKS)
def test_identity_reads_are_chunked_within_and_across_bit_planes(device, adc_bits, n, out_dim,
                                                                  request, monkeypatch):
    dev = request.getfixturevalue(device)
    rng = np.random.default_rng(n + out_dim)
    w = rng.integers(-127, 128, size=(100, out_dim))
    # one sign per input row, so a bit-plane sets about half of its rows
    x = rng.integers(1, 128, size=(n, 100)) * rng.choice([-1, 1], size=(n, 1))
    noise = NoiseModel(adc_bits=adc_bits)
    pm = program_matrix(w, dev, TileConfig(adc_bits=adc_bits), 8, noise)
    calls = _record_reads(monkeypatch)
    out = mvm_bitserial(pm, x, noise)
    monkeypatch.undo()
    threshold = first_lossy_popcount(dev, 64, adc_bits, 64)
    planes = len(oracle_bit_planes(x)[0]) // n
    step = CHUNK_ELEMENTS // out_dim
    assert planes == 14 and (n > step if out_dim == 100 else 1 < step // n < planes)
    _assert_each_set_bit_is_read_once(pm, calls, x, threshold)
    found = _reads_by_stripe(pm, calls)
    assert {kind for kind, _ in found} == (
        {"weight_stripes"} if adc_bits == 16 else {"weight_stripes", "level_stripes"})
    if adc_bits == 16:
        assert threshold == 65 and "level_stripes" not in vars(pm)
        assert np.array_equal(out, x @ w)
    else:
        assert np.array_equal(out, oracle_mvm_bitserial(pm, x, noise))


@settings(max_examples=40, deadline=None)
@given(device=st.sampled_from(["sram", "fefet"]), xbar_size=st.sampled_from([8, 16, 32, 64]),
       adc_bits=st.integers(4, 8), data=st.data())
def test_products_at_any_tile_size_and_adc_width_equal_the_per_tile_oracle(
        device, xbar_size, adc_bits, data, sram, fefet):
    dev = {"sram": sram, "fefet": fefet}[device]
    in_dim = data.draw(st.integers(1, 2 * xbar_size), label="in_dim")
    eight_bit = st.integers(-127, 127)
    w = data.draw(hnp.arrays(np.int64, (in_dim, data.draw(st.integers(1, 5))),
                             elements=eight_bit), label="w")
    x = data.draw(hnp.arrays(np.int64, (data.draw(st.integers(1, 4)), in_dim),
                             elements=eight_bit), label="x")
    noise = NoiseModel(adc_bits=adc_bits)
    pm = program_matrix(w, dev, TileConfig(xbar_size=xbar_size, adc_bits=adc_bits), 8, noise)
    assert np.array_equal(mvm_bitserial(pm, x, noise), oracle_mvm_bitserial(pm, x, noise))


@pytest.mark.parametrize("device", ["fefet", "sram"])
def test_noise_free_product_keeps_temporaries_small(device, tiles, request):
    dev = request.getfixturevalue(device)
    rng = np.random.default_rng(7)
    w = rng.integers(-127, 128, size=(128, 128))
    x = rng.integers(-127, 128, size=(32, 128))
    noise = NoiseModel(adc_bits=6)
    pm = program_matrix(w, dev, tiles, 8, noise)
    # the table and the threshold are built inside the traced call
    _decode_table.cache_clear()
    first_lossy_popcount.cache_clear()
    tracemalloc.start()
    try:
        mvm_bitserial(pm, x, noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# Temporaries of programming a 128 x 128 matrix, in bytes per cell of one
# stripe: noise-free digits take one uint8 each (an int64 broadcast would
# take 8), and a noisy write holds its float32 noise and the sampler's
# 64-bit words and their halves.
PROGRAMMING_BYTES_PER_CELL = {False: 4, True: 24}


@pytest.mark.parametrize("device", ["fefet", "sram"])
@pytest.mark.parametrize("noisy", [False, True])
def test_programming_keeps_temporaries_small(device, noisy, tiles, request):
    dev = request.getfixturevalue(device)
    w = np.random.default_rng(7).integers(-127, 128, size=(128, 128))
    noise = NoiseModel(write_var=0.2 if noisy else 0.0, adc_bits=6)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        pm = program_matrix(w, dev, tiles, 8, noise, rng)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < PROGRAMMING_BYTES_PER_CELL[noisy] * tiles.xbar_size * pm.columns


def test_noisy_product_keeps_temporaries_small(fefet, tiles):
    rng = np.random.default_rng(7)
    w = rng.integers(-127, 128, size=(128, 128))
    x = rng.integers(-127, 128, size=(32, 128))
    noise = NoiseModel(read_var=0.1, write_var=0.2, adc_bits=6)
    r = np.random.default_rng(0)
    pm = program_matrix(w, fefet, tiles, 8, noise, r)
    tracemalloc.start()
    try:
        mvm_bitserial(pm, x, noise, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_noisy_read_of_a_narrow_stripe_keeps_temporaries_small(fefet, tiles):
    # 16 columns allow 2048 (read, set row) pairs per chunk; with one set
    # row per read, an uncapped selection matrix would be 2048 x 2048
    rng = np.random.default_rng(13)
    stripe = program_matrix(rng.integers(-127, 128, size=(16, 2)), fefet, tiles, 8).stripes[0]
    assert stripe.conductances.shape == (16, 16)
    bits = np.eye(16, dtype=np.bool_)[rng.integers(0, 16, size=4096)]
    noise = NoiseModel(read_var=0.1, adc_bits=6)
    tracemalloc.start()
    try:
        stripe.read_currents(bits, noise, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
