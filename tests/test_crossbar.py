"""Crossbar programming, noise statistics and bit-serial matmul tests.

Expected values come from a plain integer-matmul oracle (numpy `@` on
the integer operands) and from the configured noise parameters.
"""

import numpy as np
import pytest

from oracles import oracle_tile
from xbarsim.funcsim.crossbar import (
    NoiseModel,
    ideal_conductances,
    mvm_bitserial,
    program_matrix,
)

NO_NOISE_HI_ADC = NoiseModel(read_var=0.0, write_var=0.0, adc_bits=16)


def one_crossbar(cells, dev, tiles, noise=NoiseModel(), rng=None):
    """The crossbar holding ``cells``: the positive part of a one-slice matrix."""
    return oracle_tile(program_matrix(cells, dev, tiles, dev.bits_per_cell, noise, rng),
                       0, 0, 0, 0)


class TestProgramming:
    def test_sram_programs_exactly(self, sram, tiles):
        values = np.array([[0, 1], [1, 0]])
        stripe = program_matrix(values, sram, tiles, 1, NoiseModel(0.0, 0.0, 6)).stripes[0]
        # columns (sign, column): the positive part, then the empty negative part
        cells = np.hstack([values, np.zeros_like(values)])
        assert np.array_equal(stripe.conductances, ideal_conductances(cells, sram))

    def test_zero_weights_give_min_conductance(self, fefet, tiles):
        stripe = program_matrix(np.zeros((8, 8), dtype=int), fefet, tiles, 8).stripes[0]
        assert np.all(stripe.conductances == fefet.g_min)

    def test_conductances_stay_in_physical_window(self, fefet, tiles):
        noise = NoiseModel(read_var=0.0, write_var=0.5, adc_bits=6)
        values = np.full((64, 64), 3)  # top level, noise would overshoot
        stripe = program_matrix(values, fefet, tiles, 2, noise,
                                np.random.default_rng(0)).stripes[0]
        assert stripe.conductances.max() <= fefet.g_max
        assert stripe.conductances.min() >= fefet.g_min

    # FeFET 8-bit weights: 4 slices of 2-bit cells hold magnitudes below 2^8
    @pytest.mark.parametrize("w,match", [(np.ones(8, dtype=int), "must be 2-D"),
                                         (np.full((2, 2), 256), "exceed the sliced range")],
                             ids=["1-D", "too-large"])
    def test_weight_matrix_validated(self, w, match, fefet, tiles):
        with pytest.raises(ValueError, match=match):
            program_matrix(w, fefet, tiles, 8)

    @pytest.mark.parametrize("kwargs,match", [({"read_var": 1.0}, r"must be in \[0, 1\)"),
                                              ({"adc_bits": 0}, "adc_bits must be >= 1"),
                                              ({"adc_bits": 54}, "adc_bits must be <= 53")],
                             ids=["read-var-1", "adc-bits-0", "adc-bits-54"])
    def test_noise_model_validated(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            NoiseModel(**kwargs)

    def test_cell_values_validated(self, fefet):
        with pytest.raises(ValueError):
            ideal_conductances(np.array([[4]]), fefet)  # 2-bit cells hold 0..3

    def test_write_noise_std_matches_configuration(self, fefet, tiles):
        # ~1e5 mid-range cells; sample std must sit within 5% of 20%
        noise = NoiseModel(read_var=0.1, write_var=0.2, adc_bits=6)
        rng = np.random.default_rng(42)
        values = np.ones((64, 64), dtype=int)
        ideal = ideal_conductances(values, fefet)
        rel = []
        for _ in range(25):
            xb = one_crossbar(values, fefet, tiles, noise, rng)
            rel.append((xb.conductances / ideal - 1.0).ravel())
        rel = np.concatenate(rel)
        assert rel.size >= 100_000
        assert abs(rel.std(ddof=1) / 0.2 - 1.0) <= 0.05

    def test_read_noise_std_matches_configuration(self, fefet, tiles):
        noise = NoiseModel(read_var=0.1, write_var=0.0, adc_bits=6)
        rng = np.random.default_rng(7)
        xb = one_crossbar(np.ones((64, 64), dtype=int), fefet, tiles)
        eye = np.eye(64)
        rel = []
        for _ in range(25):
            currents = xb.read_currents(eye, noise, rng)
            rel.append((currents / xb.conductances - 1.0).ravel())
        rel = np.concatenate(rel)
        assert rel.size >= 100_000
        assert abs(rel.std(ddof=1) / 0.1 - 1.0) <= 0.05

    def test_additive_noise_mode(self, fefet, tiles):
        noise = NoiseModel(read_var=0.0, write_var=0.1, adc_bits=6, multiplicative=False)
        values = np.ones((16, 16), dtype=int)
        xb = one_crossbar(values, fefet, tiles, noise, np.random.default_rng(0))
        assert not np.array_equal(xb.conductances, ideal_conductances(values, fefet))
        assert xb.conductances.min() >= fefet.g_min


class TestMvmExactness:
    def test_exact_at_high_adc(self, fefet, tiles):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.integers(-127, 128, size=(64, 64))
            x = rng.integers(-127, 128, size=(16, 64))
            pm = program_matrix(w, fefet, tiles, 8)
            assert np.array_equal(mvm_bitserial(pm, x, NO_NOISE_HI_ADC), x @ w)

    def test_exact_at_threshold_adc(self, fefet, tiles):
        # log2(xbar_size) + bits_per_cell = 8 is the lossless boundary
        noise = NoiseModel(0.0, 0.0, adc_bits=8)
        rng = np.random.default_rng(1)
        for _ in range(5):
            w = rng.integers(-127, 128, size=(64, 64))
            x = rng.integers(-127, 128, size=(8, 64))
            pm = program_matrix(w, fefet, tiles, 8)
            assert np.array_equal(mvm_bitserial(pm, x, noise), x @ w)

    def test_exact_on_rectangular_multi_tile(self, fefet, tiles):
        rng = np.random.default_rng(2)
        w = rng.integers(-127, 128, size=(100, 150))
        x = rng.integers(-127, 128, size=(5, 100))
        pm = program_matrix(w, fefet, tiles, 8)
        assert np.array_equal(mvm_bitserial(pm, x, NO_NOISE_HI_ADC), x @ w)

    def test_exact_for_sram_single_bit_cells(self, sram, tiles):
        rng = np.random.default_rng(3)
        w = rng.integers(-127, 128, size=(64, 64))
        x = rng.integers(0, 256, size=(4, 64))
        pm = program_matrix(w, sram, tiles, 8)
        assert np.array_equal(mvm_bitserial(pm, x, NO_NOISE_HI_ADC), x @ w)

    def test_identity_tile_reconstructs_input(self, fefet, tiles):
        w = np.eye(64, dtype=np.int64)
        x = np.random.default_rng(4).integers(-127, 128, size=(7, 64))
        pm = program_matrix(w, fefet, tiles, 8)
        assert np.array_equal(mvm_bitserial(pm, x, NO_NOISE_HI_ADC), x)

    def test_default_noise_model_is_the_engine_default(self, fefet, tiles):
        # one ADC default: a product without a noise model decodes like NoiseModel()
        rng = np.random.default_rng(6)
        w = rng.integers(-127, 128, size=(64, 64))
        x = rng.integers(-127, 128, size=(8, 64))
        pm = program_matrix(w, fefet, tiles, 8)
        assert np.array_equal(mvm_bitserial(pm, x), mvm_bitserial(pm, x, NoiseModel()))

    def test_vector_input(self, fefet, tiles):
        rng = np.random.default_rng(5)
        w = rng.integers(-127, 128, size=(32, 32))
        x = rng.integers(-127, 128, size=32)
        pm = program_matrix(w, fefet, tiles, 8)
        assert np.array_equal(mvm_bitserial(pm, x, NO_NOISE_HI_ADC), (x @ w)[None, :])


def adc_error_bound(dev, xbar_size, adc_bits, n_slices, bits_per_cell, max_magnitude):
    """Worst-case |simulated - exact| for one tile column, noise off.

    Each read commits at most half an ADC step (in count units) plus
    half a count from integer rounding, scaled by its plane and slice
    weights, twice for the differential pair and twice for the input
    sign passes; final rounding adds another half count.
    """
    delta_g = (dev.g_max - dev.g_min) / (2**bits_per_cell - 1)
    half_step = xbar_size * dev.g_max / (2 * (2**adc_bits - 1))
    per_read = half_step / delta_g + 0.5
    plane_weight = sum(2**b for b in range(int(max_magnitude).bit_length()))
    slice_weight = sum(2 ** (k * bits_per_cell) for k in range(n_slices))
    return plane_weight * slice_weight * 2 * 2 * per_read + 0.5


class TestAdcQuantization:
    def test_low_adc_error_within_analytic_bound(self, fefet, tiles):
        noise = NoiseModel(0.0, 0.0, adc_bits=6)
        bound = adc_error_bound(fefet, 64, 6, n_slices=4, bits_per_cell=2,
                                max_magnitude=127)
        rng = np.random.default_rng(6)
        worst = 0
        for _ in range(10):
            w = rng.integers(-127, 128, size=(64, 64))
            x = rng.integers(-127, 128, size=(8, 64))
            pm = program_matrix(w, fefet, tiles, 8)
            err = np.abs(mvm_bitserial(pm, x, noise) - x @ w).max()
            worst = max(worst, int(err))
        assert worst <= bound
        assert worst > 0  # 6 bits genuinely quantizes

    def test_more_adc_bits_reduce_error(self, fefet, tiles):
        rng = np.random.default_rng(7)
        w = rng.integers(-127, 128, size=(64, 64))
        x = rng.integers(-127, 128, size=(8, 64))
        pm = program_matrix(w, fefet, tiles, 8)
        exact = x @ w
        errs = []
        for adc in (4, 6, 8):
            out = mvm_bitserial(pm, x, NoiseModel(0.0, 0.0, adc))
            errs.append(np.abs(out - exact).max())
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] == 0


class TestDeterminism:
    def test_same_seed_same_result(self, fefet, tiles):
        noise = NoiseModel(read_var=0.1, write_var=0.2, adc_bits=6)
        rng = np.random.default_rng(8)
        w = rng.integers(-127, 128, size=(64, 64))
        x = rng.integers(-127, 128, size=(4, 64))

        def run():
            r = np.random.default_rng(11)
            pm = program_matrix(w, fefet, tiles, 8, noise, r)
            return mvm_bitserial(pm, x, noise, r)

        assert np.array_equal(run(), run())

    def test_different_seeds_differ(self, fefet, tiles):
        rng = np.random.default_rng(9)
        w = rng.integers(-127, 128, size=(64, 64))
        x = rng.integers(-127, 128, size=(4, 64))
        outs = []
        noise = NoiseModel(read_var=0.1, write_var=0.2, adc_bits=6)
        for seed in (1, 2):
            r = np.random.default_rng(seed)
            pm = program_matrix(w, fefet, tiles, 8, noise, r)
            outs.append(mvm_bitserial(pm, x, noise, r))
        assert not np.array_equal(outs[0], outs[1])

    def test_tiles_draw_distinct_write_noise_from_one_generator(self, fefet, tiles):
        noise = NoiseModel(read_var=0.0, write_var=0.2, adc_bits=6)
        w = np.full((2 * tiles.xbar_size, 64), 5)
        pm = program_matrix(w, fefet, tiles, 8, noise, np.random.default_rng(0))
        first = oracle_tile(pm, 0, 0, 0, 0).conductances
        assert not np.array_equal(first, oracle_tile(pm, 1, 0, 0, 0).conductances)
        replay = program_matrix(w, fefet, tiles, 8, noise, np.random.default_rng(0))
        assert np.array_equal(first, oracle_tile(replay, 0, 0, 0, 0).conductances)

    def test_noisy_writes_require_a_generator(self, fefet, tiles):
        noise = NoiseModel(read_var=0.0, write_var=0.2, adc_bits=6)
        with pytest.raises(ValueError, match="rng"):
            program_matrix(np.full((64, 64), 5), fefet, tiles, 8, noise)


def test_dimension_mismatch(fefet, tiles):
    pm = program_matrix(np.zeros((32, 32), dtype=int), fefet, tiles, 8)
    with pytest.raises(ValueError, match="width"):
        mvm_bitserial(pm, np.zeros((2, 33), dtype=int), NO_NOISE_HI_ADC)


def test_read_currents_validates_width(fefet, tiles):
    xb = one_crossbar(np.ones((8, 8), dtype=int), fefet, tiles)
    with pytest.raises(ValueError):
        xb.read_currents(np.ones((1, 9)))
