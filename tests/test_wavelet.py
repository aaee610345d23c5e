"""Single- and multi-level Haar transform against hand values and a
closed-form basis-matrix oracle."""

import numpy as np
import pytest

import reference
from helpers import same_bits
from wavets import DataError
from wavets.wavelet import (
    dwt_level,
    dwt_multi,
    idwt_level,
    idwt_multi,
    make_filterbank,
)


@pytest.fixture
def fb():
    return make_filterbank("db1")


class TestMakeFilterbank:
    def test_db1_lowpass_values(self, fb):
        np.testing.assert_allclose(fb.dec_lo, [0.70710678, 0.70710678], atol=1e-8)

    def test_db1_orthonormality(self, fb):
        assert np.dot(fb.dec_lo, fb.dec_lo) == pytest.approx(1.0, abs=1e-15)
        assert np.dot(fb.dec_lo, fb.dec_hi) == pytest.approx(0.0, abs=1e-15)

    def test_aliases_share_coefficients(self, fb):
        for name in ("bior1.1", "rbio1.1"):
            other = make_filterbank(name)
            assert np.array_equal(other.dec_lo, fb.dec_lo)
            assert np.array_equal(other.dec_hi, fb.dec_hi)
            assert other.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(DataError):
            make_filterbank("db4")


class TestDwtLevel:
    def test_constant_signal(self, fb):
        approx, detail = dwt_level([1.0, 1.0, 1.0, 1.0], fb)
        np.testing.assert_allclose(approx, [1.41421356, 1.41421356], atol=1e-8)
        np.testing.assert_allclose(detail, [0.0, 0.0], atol=1e-15)

    def test_ramp_hand_values(self, fb):
        approx, detail = dwt_level([1.0, 2.0, 3.0, 4.0], fb)
        np.testing.assert_allclose(approx, [2.12132034, 4.94974747], atol=1e-8)
        np.testing.assert_allclose(detail, [-0.70710678, -0.70710678], atol=1e-8)

    def test_unit_impulse(self, fb):
        approx, detail = dwt_level([1.0, 0.0, 0.0, 0.0], fb)
        np.testing.assert_allclose(approx, [0.70710678, 0.0], atol=1e-8)
        np.testing.assert_allclose(detail, [0.70710678, 0.0], atol=1e-8)
        energy = np.sum(approx**2) + np.sum(detail**2)
        assert energy == pytest.approx(1.0, abs=1e-12)

    def test_odd_length_rejected(self, fb):
        with pytest.raises(DataError):
            dwt_level([1.0, 2.0, 3.0], fb)

    def test_last_axis_batching(self, fb, rng):
        block = rng.normal(size=(3, 2, 8))
        approx, detail = dwt_level(block, fb)
        assert approx.shape == (3, 2, 4)
        for i in range(3):
            for c in range(2):
                a1, d1 = dwt_level(block[i, c], fb)
                np.testing.assert_array_equal(approx[i, c], a1)
                np.testing.assert_array_equal(detail[i, c], d1)


class TestIdwtLevel:
    def test_constant_case(self, fb):
        out = idwt_level([1.41421356, 1.41421356], [0.0, 0.0], fb)
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 1.0], atol=1e-8)

    def test_ramp_round_trip(self, fb):
        out = idwt_level(
            [2.12132034, 4.94974747], [-0.70710678, -0.70710678], fb
        )
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0, 4.0], atol=1e-8)

    def test_single_synthesis_step(self, fb):
        out = idwt_level([1.0], [0.0], fb)
        np.testing.assert_allclose(out, [0.70710678, 0.70710678], atol=1e-8)

    def test_length_mismatch_rejected(self, fb):
        with pytest.raises(DataError):
            idwt_level([1.0, 2.0], [1.0], fb)

    def test_round_trip_tight(self, fb, rng):
        x = rng.normal(size=64)
        approx, detail = dwt_level(x, fb)
        assert np.max(np.abs(idwt_level(approx, detail, fb) - x)) < 1e-12


class TestDwtMulti:
    def test_two_level_hand_values(self, fb):
        bands = dwt_multi([1.0, 2.0, 3.0, 4.0], fb, 2)
        assert len(bands) == 3
        np.testing.assert_allclose(bands[0], [5.0], atol=1e-8)
        np.testing.assert_allclose(bands[2], [-2.0], atol=1e-8)
        np.testing.assert_allclose(bands[1], [-0.70710678, -0.70710678], atol=1e-8)

    def test_constant_concentrates_in_approx(self, fb):
        c = 3.7
        approx, *details = dwt_multi(np.full(8, c), fb, 3)
        np.testing.assert_allclose(approx, [c * 2**1.5], atol=1e-12)
        for det in details:
            np.testing.assert_allclose(det, 0.0, atol=1e-12)

    def test_divisibility_error_names_level(self, fb):
        with pytest.raises(DataError, match="level 2"):
            dwt_multi(np.zeros(6), fb, 2)

    def test_invalid_level_count(self, fb):
        with pytest.raises(DataError):
            dwt_multi(np.zeros(8), fb, 0)

    def test_matches_basis_matrix_oracle(self, fb, rng):
        # Independent O(T^2) oracle: explicit orthonormal Haar rows.
        for t, k in [(8, 1), (8, 3), (16, 2), (16, 4)]:
            x = rng.normal(size=t)
            approx, *details = dwt_multi(x, fb, k)
            ref_approx, ref_details = reference.haar_coeffs(x, k)
            np.testing.assert_allclose(approx, ref_approx, atol=1e-12)
            for got, want in zip(details, ref_details):
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_linearity(self, fb, rng):
        x = rng.normal(size=32)
        y = rng.normal(size=32)
        a, b = 2.5, -1.25
        combo = dwt_multi(a * x + b * y, fb, 3)
        px = dwt_multi(x, fb, 3)
        py = dwt_multi(y, fb, 3)
        for got, bx, by in zip(combo, px, py):
            np.testing.assert_allclose(got, a * bx + b * by, atol=1e-12)

    def test_parseval(self, fb, rng):
        for _ in range(20):
            x = rng.normal(size=64)
            coeff = sum(np.sum(band**2) for band in dwt_multi(x, fb, 4))
            assert abs(coeff - np.sum(x**2)) / np.sum(x**2) < 1e-12


class TestIdwtMulti:
    def test_round_trip_hand_case(self, fb):
        pyr = dwt_multi([1.0, 2.0, 3.0, 4.0], fb, 2)
        np.testing.assert_allclose(
            idwt_multi(pyr, fb), [1.0, 2.0, 3.0, 4.0], atol=1e-12
        )

    def test_zero_pyramid(self, fb):
        bands = [np.zeros(2), np.zeros(4), np.zeros(2)]
        np.testing.assert_array_equal(idwt_multi(bands, fb), np.zeros(8))

    def test_approx_only_synthesis(self, fb):
        bands = [np.array([5.0]), np.zeros(2), np.zeros(1)]
        np.testing.assert_allclose(idwt_multi(bands, fb), [2.5, 2.5, 2.5, 2.5], atol=1e-12)

    def test_inconsistent_pyramid_rejected(self, fb):
        with pytest.raises(DataError, match="shape mismatch"):
            idwt_multi([np.zeros(2), np.zeros(4), np.zeros(3)], fb)

    def test_pyramid_without_details_rejected(self, fb):
        for bands in ([], [np.zeros(8)]):
            with pytest.raises(DataError, match="at least one detail band"):
                idwt_multi(bands, fb)

    def test_synthesis_matches_matrix_oracle(self, fb, rng):
        t, k = 16, 3
        approx = rng.normal(size=t // 2**k)
        details = [rng.normal(size=t // 2**lv) for lv in range(1, k + 1)]
        want = reference.haar_synthesis(approx, details, t)
        np.testing.assert_allclose(idwt_multi([approx] + details, fb), want, atol=1e-12)

    def test_reconstruction_sweep(self, fb, rng):
        for t in (8, 32, 256, 1024):
            for k in range(1, 6):
                if t % 2**k:
                    continue
                x = rng.normal(size=t)
                err = np.max(np.abs(idwt_multi(dwt_multi(x, fb, k), fb) - x))
                assert err < 1e-9


class TestLevelBits:
    # The one-multiply levels against the textbook two-tap sums
    # (reference.haar_level), bit for bit: 1-D, (B, C, T) channel rows,
    # (B, N, T) branch rows, and transform_long's 160000-sample series.
    SHAPES = [(64,), (3, 7, 336), (3, 2, 432), (160000,)]

    @staticmethod
    def mixed(rng, shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dwt_level(self, fb, rng, shape):
        x = self.mixed(rng, shape)
        for got, want in zip(dwt_level(x, fb), reference.haar_level(x, fb)):
            assert same_bits(got, want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_idwt_level(self, fb, rng, shape):
        half = shape[:-1] + (shape[-1] // 2,)
        approx, detail = self.mixed(rng, half), self.mixed(rng, half)
        want = reference.haar_level_inverse(approx, detail, fb)
        assert same_bits(idwt_level(approx, detail, fb), want)

    def test_transposed_views(self, fb, rng):
        # Non-contiguous inputs: time runs along the slowest axis in memory.
        x = self.mixed(rng, (32, 7, 5)).transpose(2, 1, 0)
        for got, want in zip(dwt_level(x, fb), reference.haar_level(x, fb)):
            assert same_bits(got, want)
        approx = self.mixed(rng, (16, 7, 5)).transpose(2, 1, 0)
        detail = self.mixed(rng, (16, 7, 5)).transpose(2, 1, 0)
        want = reference.haar_level_inverse(approx, detail, fb)
        assert same_bits(idwt_level(approx, detail, fb), want)


class TestScalarAndEmptyInput:
    def test_scalar_rejected(self, fb):
        # A 0-d array has no time axis to split or interleave.
        with pytest.raises(DataError, match="no time axis"):
            dwt_level(3.0, fb)
        with pytest.raises(DataError, match="no time axis"):
            dwt_multi(np.float64(3.0), fb, 1)
        with pytest.raises(DataError, match="no time axis"):
            idwt_level(1.0, 2.0, fb)

    def test_empty_signal_too_short(self, fb):
        with pytest.raises(DataError, match="too short: level 1 of 1"):
            dwt_multi(np.zeros(0), fb, 1)

    def test_short_signal_names_level(self, fb):
        with pytest.raises(DataError, match="too short: level 3 of 3"):
            dwt_multi(np.zeros(4), fb, 3)
