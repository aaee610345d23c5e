"""Derivative transform: gains, round trips, energy accounting, exports."""

import dataclasses

import numpy as np
import pytest

import reference
from wavets import DataError
from wavets.wavelet import dwt_multi, make_filterbank
from wavets.wdt import (
    DerivativePyramid,
    derivative_gain,
    energy_report,
    level_gains,
    wdt_forward,
    wdt_inverse,
    write_coefficients_csv,
    write_scalogram_csv,
)


@pytest.fixture
def fb():
    return make_filterbank("db1")


class TestDerivativeGain:
    def test_order_zero_is_identity(self):
        assert derivative_gain(0, 3) == 1.0

    def test_first_order(self):
        assert derivative_gain(1, 1) == -2.0

    def test_second_order(self):
        assert derivative_gain(2, 3) == 64.0

    def test_level_mapping_finest_gets_largest(self):
        # Level 1 (finest band) maps to scale K, so K=3 n=1 gives -8,-4,-2.
        assert level_gains(3, 1) == [-8.0, -4.0, -2.0]

    def test_largest_float64_power_is_the_limit(self):
        # 2^1023 is the largest power of two a float64 holds; one more
        # doubling is a DataError, not an OverflowError.
        assert derivative_gain(1, 1023) == -(2.0**1023)
        with pytest.raises(DataError, match="order\\*levels must be at most 1023"):
            derivative_gain(1024, 1)
        with pytest.raises(DataError):
            level_gains(1, 2000)


class TestWdtForward:
    def test_single_level_hand_values(self, fb):
        pyr = wdt_forward([1.0, 2.0, 3.0, 4.0], fb, 1, 1)
        np.testing.assert_allclose(pyr.bands[0], [2.12132034, 4.94974747], atol=1e-8)
        np.testing.assert_allclose(pyr.bands[1], [1.41421356, 1.41421356], atol=1e-8)

    def test_two_level_hand_values(self, fb):
        pyr = wdt_forward([1.0, 2.0, 3.0, 4.0], fb, 2, 1)
        np.testing.assert_allclose(pyr.bands[0], [5.0], atol=1e-8)
        np.testing.assert_allclose(pyr.bands[2], [4.0], atol=1e-8)
        np.testing.assert_allclose(pyr.bands[1], [2.82842712, 2.82842712], atol=1e-8)
        assert pyr.gains == [-4.0, -2.0]

    def test_levels_length_and_gains_are_derived(self, fb):
        pyr = wdt_forward(np.arange(16.0), fb, 3, 2)
        assert [f.name for f in dataclasses.fields(DerivativePyramid)] == ["order", "bands"]
        assert (pyr.levels, pyr.length, pyr.gains) == (3, 16, level_gains(3, 2))
        # Changing the order changes the gains read back; nothing is stored.
        pyr.order = 1
        assert pyr.gains == [-8.0, -4.0, -2.0]

    def test_order_zero_bit_identical_to_dwt(self, fb, rng):
        x = rng.normal(size=32)
        plain = dwt_multi(x, fb, 3)
        scaled = wdt_forward(x, fb, 3, 0)
        for got, want in zip(scaled.bands, plain, strict=True):
            assert np.array_equal(got, want)

    def test_gain_application_is_exact(self, fb, rng):
        # Gains are powers of two: scaled band == gain * plain band with
        # zero floating-point error.
        x = rng.normal(size=64)
        plain = dwt_multi(x, fb, 4)
        scaled = wdt_forward(x, fb, 4, 3)
        for lv in range(1, 5):
            g = derivative_gain(3, 4 - lv + 1)
            assert np.array_equal(scaled.bands[lv], g * plain[lv])

    def test_negative_order_rejected(self, fb):
        with pytest.raises(DataError):
            wdt_forward(np.zeros(8), fb, 1, -1)

    def test_against_basis_matrix_oracle(self, fb, rng):
        x = rng.normal(size=16)
        k, n = 3, 2
        pyr = wdt_forward(x, fb, k, n)
        ref_approx, ref_details = reference.haar_coeffs(x, k)
        np.testing.assert_allclose(pyr.bands[0], ref_approx, atol=1e-12)
        for lv in range(1, k + 1):
            want = ((-1.0) ** n * 2.0 ** (n * (k - lv + 1))) * ref_details[lv - 1]
            np.testing.assert_allclose(pyr.bands[lv], want, atol=1e-10)


class TestWdtInverse:
    def test_round_trip_hand_case(self, fb):
        pyr = wdt_forward([1.0, 2.0, 3.0, 4.0], fb, 2, 1)
        np.testing.assert_allclose(
            wdt_inverse(pyr, fb), [1.0, 2.0, 3.0, 4.0], atol=1e-12
        )

    def test_order_zero_reduces_to_idwt(self, fb, rng):
        x = rng.normal(size=16)
        pyr = wdt_forward(x, fb, 2, 0)
        assert np.max(np.abs(wdt_inverse(pyr, fb) - x)) < 1e-12

    def test_zero_pyramid_maps_to_zero(self, fb):
        pyr = wdt_forward(np.zeros(16), fb, 2, 2)
        np.testing.assert_array_equal(wdt_inverse(pyr, fb), np.zeros(16))

    def test_round_trip_sweep_all_orders(self, fb, rng):
        for k in range(1, 6):
            for n in range(5):
                x = rng.normal(size=64)
                pyr = wdt_forward(x, fb, k, n)
                assert np.max(np.abs(wdt_inverse(pyr, fb) - x)) < 1e-9


class TestEnergyReport:
    def test_hand_values(self, fb):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        pyr = wdt_forward(x, fb, 2, 1)
        rep = energy_report(x, pyr)
        assert rep.signal_energy == pytest.approx(30.0, abs=1e-12)
        assert rep.coeff_energy_unscaled == pytest.approx(30.0, abs=1e-12)
        assert rep.coeff_energy_scaled == pytest.approx(57.0, abs=1e-12)

    def test_zero_signal(self, fb):
        x = np.zeros(8)
        rep = energy_report(x, wdt_forward(x, fb, 2, 1))
        assert rep.signal_energy == 0.0
        assert rep.coeff_energy_unscaled == 0.0
        assert rep.coeff_energy_scaled == 0.0

    def test_unscaled_equals_signal_energy(self, fb, rng):
        for n in range(5):
            x = rng.normal(size=128)
            rep = energy_report(x, wdt_forward(x, fb, 3, n))
            rel = abs(rep.coeff_energy_unscaled - rep.signal_energy) / rep.signal_energy
            assert rel < 1e-12

    def test_per_band_layout(self, fb):
        x = np.arange(8.0)
        rep = energy_report(x, wdt_forward(x, fb, 2, 1))
        assert [b.band for b in rep.per_band] == ["LL2", "LH2", "LH1"]
        assert rep.per_band[0].gain == 1.0

    def test_one_band_pyramid_rejected(self, fb, tmp_path):
        # LL_K alone is no pyramid: every consumer of the band walk refuses it.
        pyr = DerivativePyramid(order=1, bands=[np.arange(4.0)])
        with pytest.raises(DataError, match="at least one detail band, got 1"):
            energy_report(np.arange(4.0), pyr)
        for write in (write_coefficients_csv, write_scalogram_csv):
            with pytest.raises(DataError, match="at least one detail band"):
                write(pyr, str(tmp_path / "out.csv"))
            assert not (tmp_path / "out.csv").exists()

    def test_length_mismatch_rejected(self, fb):
        pyr = wdt_forward(np.arange(8.0), fb, 2, 1)
        with pytest.raises(DataError):
            energy_report(np.arange(16.0), pyr)


def written_grid(pyr, tmp_path):
    """The cells write_scalogram_csv writes, as a (K+1) x T array."""
    path = tmp_path / "grid.csv"
    write_scalogram_csv(pyr, str(path))
    rows = [line.split(",")[1:] for line in path.read_text().splitlines()[1:]]
    return np.array(rows, dtype=np.float64)


class TestScalogram:
    def test_constant_signal(self, fb, tmp_path):
        pyr = wdt_forward(np.full(8, 2.0), fb, 2, 1)
        grid = written_grid(pyr, tmp_path)
        assert grid.shape == (3, 8)
        np.testing.assert_array_equal(grid[0], np.ones(8))
        np.testing.assert_array_equal(grid[1:], np.zeros((2, 8)))

    def test_zero_pyramid(self, fb, tmp_path):
        grid = written_grid(wdt_forward(np.zeros(8), fb, 2, 1), tmp_path)
        np.testing.assert_array_equal(grid, np.zeros((3, 8)))

    def test_normalized_hand_value(self, fb, tmp_path):
        grid = written_grid(wdt_forward([1.0, 2.0, 3.0, 4.0], fb, 1, 0), tmp_path)
        want_detail = 0.70710678 / 4.94974747
        np.testing.assert_allclose(grid[1], np.full(4, want_detail), atol=1e-8)
        assert grid.max() == 1.0

    def test_step_repetition_lengths(self, fb, rng, tmp_path):
        pyr = wdt_forward(rng.normal(size=32), fb, 3, 1)
        grid = written_grid(pyr, tmp_path)
        assert grid.shape == (4, 32)
        # Coarsest rows are piecewise constant over their dyadic blocks.
        for j in range(4):
            assert len(set(grid[0, j * 8 : (j + 1) * 8])) == 1


def amplification(x, fb, levels, order):
    """max|WDT detail| / max|DWT detail| per level, finest first."""
    plain = dwt_multi(x, fb, levels)[1:]
    scaled = wdt_forward(x, fb, levels, order).bands[1:]
    return [np.max(np.abs(s)) / np.max(np.abs(p)) for s, p in zip(scaled, plain)]


class TestChangeAmplification:
    def test_ratios_exact(self, fb, rng):
        x = rng.normal(size=32)
        assert amplification(x, fb, 2, 1) == [4.0, 2.0]

    def test_order_zero_all_ones(self, fb, rng):
        x = rng.normal(size=32)
        assert amplification(x, fb, 3, 0) == [1.0, 1.0, 1.0]

    def test_constant_signal_undefined(self, fb):
        # Every detail band of a constant signal is zero before and after
        # its gain, so no level has a ratio.
        x = np.full(16, 3.0)
        for band in dwt_multi(x, fb, 2)[1:] + wdt_forward(x, fb, 2, 1).bands[1:]:
            assert not np.any(band)

    def test_step_signal_finest_band(self, fb):
        # Step at an odd index so one block per level straddles the jump;
        # the finest-band Haar detail there is 1/sqrt(2) and WDT scales it
        # by 2^(n*K). An even-aligned step would vanish from every detail.
        x = np.concatenate([np.zeros(7), np.ones(9)])
        n, k = 2, 3
        pyr = wdt_forward(x, fb, k, n)
        finest_peak = np.max(np.abs(pyr.bands[1]))
        assert finest_peak == pytest.approx(2.0 ** (n * k) / np.sqrt(2.0), rel=1e-12)
        assert amplification(x, fb, k, n)[0] == 2.0 ** (n * k)


class TestCsvExports:
    def test_coefficient_rows(self, fb, tmp_path):
        pyr = wdt_forward([1.0, 2.0, 3.0, 4.0], fb, 2, 1)
        out = tmp_path / "coeffs.csv"
        write_coefficients_csv(pyr, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "band,index,value,gain"
        assert len(lines) == 5
        fields = [ln.split(",") for ln in lines[1:]]
        assert [f[0] for f in fields] == ["LL2", "LH2", "LH1", "LH1"]
        assert float(fields[0][2]) == pytest.approx(5.0)
        assert float(fields[1][2]) == pytest.approx(4.0)
        assert float(fields[1][3]) == -2.0

    def test_values_round_trip_exactly(self, fb, tmp_path, rng):
        pyr = wdt_forward(rng.normal(size=16), fb, 2, 2)
        out = tmp_path / "coeffs.csv"
        write_coefficients_csv(pyr, str(out))
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        ll = [float(r[2]) for r in rows if r[0] == "LL2"]
        assert np.array_equal(np.array(ll), pyr.bands[0])

    def test_scalogram_grid_shape(self, fb, tmp_path):
        pyr = wdt_forward(np.arange(16.0), fb, 2, 1)
        out = tmp_path / "grid.csv"
        write_scalogram_csv(pyr, str(out))
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "LL2"
        assert lines[-1].split(",")[0] == "LH1"
        assert len(lines[1].split(",")) == 17
