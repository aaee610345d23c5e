"""Row-GEMM learned maps against per-slice references.

affine_apply, the weight gradients and the projection's input gradient
flatten windows x channels into rows and run one 2-D product. These tests
check them slice by slice on the array layouts the model really passes:
non-contiguous rfft real/imag views, the transposed projection gradient,
and the B=1 / C=1 edge shapes.
"""

import numpy as np
import pytest

from reference import (
    affine_apply_slices,
    affine_grads_slices,
    affine_input_grad_slices,
)
from wavets import DataError
from wavets.model import (
    ModelConfig,
    _affine_grads,
    _affine_input_grad,
    affine_apply,
    forward_batch,
    init_params,
    param_blocks,
)
from wavets.train import gradient_batch

SHAPES = [(3, 2), (1, 2), (3, 1), (1, 1)]
LOOKBACK, TOTAL = 16, 24
REL_TOL = 1e-12


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def random_affine(gen, m_in, m_out) -> tuple[np.ndarray, np.ndarray]:
    return gen.normal(size=(m_in, m_out)), gen.normal(size=m_out)


def spectrum_parts(gen, batch, channels):
    # Same construction as the dft branch: (B, L, C) -> (B, C, L) view -> rfft.
    normed_t = gen.normal(size=(batch, LOOKBACK, channels)).transpose(0, 2, 1)
    spectrum = np.fft.rfft(normed_t, axis=-1)
    return spectrum.real, spectrum.imag


def transposed_gradient(gen, batch, channels, width):
    # Same layout as the projection gradient: (B, L+tau, C) transposed.
    return gen.normal(size=(batch, width, channels)).transpose(0, 2, 1)


@pytest.mark.parametrize("batch,channels", SHAPES)
class TestRowGemmMaps:
    def test_apply_on_spectrum_views(self, rng, batch, channels):
        for part in spectrum_parts(rng, batch, channels):
            assert not part.flags.c_contiguous
            weight, bias = random_affine(rng, part.shape[-1], 13)
            want = affine_apply_slices(part, weight, bias)
            assert rel_err(affine_apply(part, weight, bias), want) <= REL_TOL

    def test_apply_on_transposed_stack(self, rng, batch, channels):
        x = transposed_gradient(rng, batch, channels, TOTAL)
        weight, bias = random_affine(rng, TOTAL, 7)
        want = affine_apply_slices(x, weight, bias)
        assert rel_err(affine_apply(x, weight, bias), want) <= REL_TOL

    def test_weight_grads_on_spectrum_views(self, rng, batch, channels):
        for part in spectrum_parts(rng, batch, channels):
            gout = rng.normal(size=part.shape[:-1] + (13,))
            got_weight, got_bias = _affine_grads(part, gout)
            dweight, dbias = affine_grads_slices(part, gout)
            assert rel_err(got_weight, dweight) <= REL_TOL
            assert rel_err(got_bias, dbias) <= REL_TOL

    def test_weight_grads_with_transposed_gradient(self, rng, batch, channels):
        inp = rng.normal(size=(batch, channels, 2 * TOTAL))
        gout = transposed_gradient(rng, batch, channels, TOTAL)
        got_weight, got_bias = _affine_grads(inp, gout)
        dweight, dbias = affine_grads_slices(inp, gout)
        assert rel_err(got_weight, dweight) <= REL_TOL
        assert rel_err(got_bias, dbias) <= REL_TOL

    def test_input_grad_with_transposed_gradient(self, rng, batch, channels):
        gout = transposed_gradient(rng, batch, channels, TOTAL)
        weight, _ = random_affine(rng, 2 * TOTAL, TOTAL)
        want = affine_input_grad_slices(weight, gout)
        assert rel_err(_affine_input_grad(weight, gout), want) <= REL_TOL

    def test_projection_grads_in_gradient_batch(self, rng, batch, channels):
        cfg = ModelConfig(
            lookback=LOOKBACK, horizon=TOTAL - LOOKBACK, channels=channels,
            branches=2, levels=2, seed=3,
        )
        params = init_params(cfg, cfg.seed)
        spans = rng.normal(size=(batch, TOTAL, channels))
        grads, _ = gradient_batch(params, spans, cfg)
        out, cache = forward_batch(spans[:, :LOOKBACK], params, cfg, want_cache=True)
        # Row b*C + c is window b's channel c, as in the (B*C, 1) std.
        residual = (out - spans).transpose(0, 2, 1).reshape(-1, TOTAL)
        dproj = (2.0 / residual.size) * residual * cache["std"]
        dweight, dbias = affine_grads_slices(cache["zcat"].reshape(len(dproj), -1), dproj)
        _, proj_weight, proj_bias = param_blocks(grads, cfg)[-1]
        assert rel_err(proj_weight, dweight) <= REL_TOL
        assert rel_err(proj_bias, dbias) <= REL_TOL


class TestRowGemmShapeChecks:
    def test_divisible_mismatch_rejected_by_apply(self):
        # 4 x 3 = 12 entries reshape cleanly into rows of 2; the width
        # check must still reject the last axis 3 against 2 weight rows.
        with pytest.raises(DataError, match="does not match"):
            affine_apply(np.ones((4, 3)), np.ones((2, 5)), np.zeros(5))

    def test_divisible_mismatch_rejected_by_input_grad(self):
        with pytest.raises(DataError, match="does not match"):
            _affine_input_grad(np.ones((5, 2)), np.ones((4, 3)))

    def test_one_dimensional_input_keeps_shape(self):
        out = affine_apply(np.array([1.0, 2.0]), np.eye(2, 3), np.zeros(3))
        np.testing.assert_array_equal(out, [1.0, 2.0, 0.0])
