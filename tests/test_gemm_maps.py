"""The branch path's row-GEMM learned maps against per-slice references.

_normalized_map and _normalized_map_adjoint run on (R, L) channel rows,
one per channel of each window, so every learned map is rows @ weight
then += bias, its weight gradient inp.T @ gout, its bias gradient
gout.sum(axis=0), and the projection's input gradient dproj @ weight.T.
These tests check those products slice by slice on the layouts the maps
meet: the non-contiguous rfft real/imag views of the dft bands, the
(B, L, C) windows transposed into channel rows and back, an output
gradient held column-major, and the B=1 / C=1 edge shapes.
tests/test_branch_axis.py checks the whole path against the per-branch
oracle at the same shapes.
"""

import numpy as np
import pytest

from reference import (
    affine_apply_slices,
    affine_grads_slices,
    affine_input_grad_slices,
    blocks_by_name,
)
from wavets.model import (
    ModelConfig,
    _irfft_adjoint,
    _normalize_rows,
    _normalized_map,
    _normalized_map_adjoint,
    band_maps,
    bias_scales,
    forward_batch,
    init_params,
    param_blocks,
)
from wavets.train import gradient_batch
from wavets.wavelet import dwt_multi, make_filterbank

SHAPES = [(3, 2), (1, 2), (3, 1), (1, 1)]
LOOKBACK, TOTAL = 16, 24
REL_TOL = 1e-12


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def two_branch_config(kind: str, channels: int) -> ModelConfig:
    return ModelConfig(
        lookback=LOOKBACK, horizon=TOTAL - LOOKBACK, channels=channels,
        branches=2, levels=2, transform_kind=kind, seed=3,
    )


def params_with_biases(cfg: ModelConfig, gen: np.random.Generator) -> np.ndarray:
    # Nonzero biases, so a dropped or misplaced bias term shows.
    params = init_params(cfg, cfg.seed)
    for _, _, bias in param_blocks(params, cfg):
        bias[...] = gen.normal(size=bias.shape)
    return params


def mapped_rows(gen, kind, batch, channels):
    """(config, params, channel rows, output, cache) of one _normalized_map
    call on the normalized rows of random (B, L, C) windows."""
    cfg = two_branch_config(kind, channels)
    params = params_with_biases(cfg, gen)
    rows, _, _ = _normalize_rows(gen.normal(size=(batch, LOOKBACK, channels)), cfg)
    out, cache = _normalized_map(rows, params, cfg)
    return cfg, params, rows, out, cache


def column_major_gradient(gen, rows: int) -> np.ndarray:
    # An (R, L+tau) output gradient stored as the transpose of (L+tau, R).
    return gen.normal(size=(TOTAL, rows)).T


@pytest.mark.parametrize("batch,channels", SHAPES)
class TestRowGemmMaps:
    def test_apply_on_spectrum_views(self, rng, batch, channels):
        cfg, params, rows, out, cache = mapped_rows(rng, "dft", batch, channels)
        parts = cache["bands_in"]
        for part in parts:
            assert not part.flags.c_contiguous
        real, imag = (
            affine_apply_slices(part, weight, bias)
            for (weight, bias), part in zip(band_maps(params, cfg), parts)
        )
        spectrum = (real + 1j * imag).reshape(len(rows), cfg.branches, -1)
        zcat = np.fft.irfft(spectrum, n=TOTAL, axis=-1).reshape(len(rows), -1)
        _, proj_weight, proj_bias = param_blocks(params, cfg)[-1]
        assert rel_err(out, affine_apply_slices(zcat, proj_weight, proj_bias)) <= REL_TOL

    def test_apply_on_transposed_stack(self, rng, batch, channels):
        # forward_batch transposes (B, L, C) windows into channel rows and
        # its output back; each (window, channel) slice run alone through
        # a one-channel model must give the same series.
        cfg = two_branch_config("wdt", channels)
        params = params_with_biases(cfg, rng)
        xs = rng.normal(size=(batch, LOOKBACK, channels))
        out = forward_batch(xs, params, cfg)
        one = two_branch_config("wdt", 1)
        want = np.empty_like(out)
        for b in range(batch):
            for c in range(channels):
                want[b, :, c] = forward_batch(xs[b : b + 1, :, c : c + 1], params, one)[0, :, 0]
        assert rel_err(out, want) <= REL_TOL

    def test_weight_grads_on_spectrum_views(self, rng, batch, channels):
        cfg, params, rows, _, cache = mapped_rows(rng, "dft", batch, channels)
        dproj = rng.normal(size=(len(rows), TOTAL))
        grads = _normalized_map_adjoint(dproj, cache, params, cfg)
        _, proj_weight, _ = param_blocks(params, cfg)[-1]
        dz = affine_input_grad_slices(proj_weight, dproj).reshape(len(rows), cfg.branches, TOTAL)
        for (_, weight, bias), part, gout in zip(
            param_blocks(grads, cfg), cache["bands_in"], _irfft_adjoint(dz, TOTAL)
        ):
            assert not part.flags.c_contiguous
            dweight, dbias = affine_grads_slices(part, gout.reshape(len(rows), -1))
            assert rel_err(weight, dweight) <= REL_TOL
            assert rel_err(bias, dbias) <= REL_TOL

    def test_weight_grads_with_transposed_gradient(self, rng, batch, channels):
        cfg, params, rows, _, cache = mapped_rows(rng, "wdt", batch, channels)
        dproj = column_major_gradient(rng, len(rows))
        grads = _normalized_map_adjoint(dproj, cache, params, cfg)
        dweight, dbias = affine_grads_slices(cache["zcat"], dproj)
        proj_weight, proj_bias = blocks_by_name(grads, cfg)["projection"]
        assert rel_err(proj_weight, dweight) <= REL_TOL
        assert rel_err(proj_bias, dbias) <= REL_TOL

    def test_input_grad_with_transposed_gradient(self, rng, batch, channels):
        # The projection's input gradient reaches the parameters only
        # through the band gradients, so each band's block is checked
        # against dz built slice by slice, then analysed.
        cfg, params, rows, _, cache = mapped_rows(rng, "wdt", batch, channels)
        dproj = column_major_gradient(rng, len(rows))
        grads = _normalized_map_adjoint(dproj, cache, params, cfg)
        _, proj_weight, _ = param_blocks(params, cfg)[-1]
        dz = affine_input_grad_slices(proj_weight, dproj).reshape(len(rows), cfg.branches, TOTAL)
        band_grads = dwt_multi(dz, make_filterbank("db1"), cfg.levels)
        for (name, weight, bias), inp, gout, scale in zip(
            param_blocks(grads, cfg), cache["bands_in"], band_grads, bias_scales(cfg)
        ):
            dweight, dbias = affine_grads_slices(inp, gout.reshape(len(rows), -1))
            assert rel_err(weight, dweight) <= REL_TOL, name
            assert rel_err(bias, dbias * scale) <= REL_TOL, name

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
        dweight, dbias = affine_grads_slices(cache["zcat"], dproj)
        _, proj_weight, proj_bias = param_blocks(grads, cfg)[-1]
        assert rel_err(proj_weight, dweight) <= REL_TOL
        assert rel_err(proj_bias, dbias) <= REL_TOL
