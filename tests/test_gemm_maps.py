"""The band-domain factors against dense references.

The model short of adding the mean back is one product, xb @ V, on the
(R, L+1) channel rows [x - mean, std] of _centre_rows, one per channel of
each window. On the normalized rows x' = (x - mean) / std it is
x' @ A.T @ V + c: A analyses the rows, q_k carries the projection back
through the synthesis, one (L+tau, N*m_out) matrix per band,
V_k = W_k @ q_k.T and c = p + sum_k q_k @ b_k. _band_rows gives xb, each
analysed band followed by the std column (std times the normalized bands
each followed by a one), and _band_operator gives V, which carries c_k
as the row after V_k and p in its last row, and the q_k. _pull_back
takes V's gradient G = xb.T @ dproj, which holds s = std.T @ dproj in
the std rows, to the band gradients G_k @ q_k and s @ q_k, q_k's
gradient G_k.T @ W_k + outer(s, b_k), and the projection gradient as the
synthesis of the q_k gradients. On normalized rows that is the gradient
for the output gradient std * dproj.

reference.band_domain_operator and reference.band_domain_gradients
build each of these on the normalized rows, from dense basis matrices
(the Haar rows and the real DFT and inverse-real-FFT bases), one branch
at a time, and sum G slice by slice. These tests check the package's
factors against them
on the layouts the maps meet: the non-contiguous rfft real/imag views of
the dft bands, the (B, L, C) windows transposed into channel rows and
back, an output gradient held column-major, and the B=1 / C=1 edge
shapes. tests/test_branch_axis.py checks the whole path against the
per-branch oracle at the same shapes.
"""

import numpy as np
import pytest

from helpers import params_with_biases, rel_err
from reference import (
    affine_apply_slices,
    band_domain_gradients,
    band_domain_operator,
    blocks_by_name,
    normalized_rows,
)
from wavets.model import (
    ModelConfig,
    _analyse,
    _band_operator,
    _band_rows,
    _centre_rows,
    _pull_back,
    compile_operator,
    forward_batch,
    init_params,
    param_blocks,
    param_layout,
)
from wavets.train import gradient_batch

SHAPES = [(3, 2), (1, 2), (3, 1), (1, 1)]
KINDS = ("wdt", "dft")
LOOKBACK, TOTAL = 16, 24
REL_TOL = 1e-12


def two_branch_config(kind: str, channels: int) -> ModelConfig:
    return ModelConfig(
        lookback=LOOKBACK, horizon=TOTAL - LOOKBACK, channels=channels,
        branches=2, levels=2, transform_kind=kind, seed=3,
    )


def band_factors(gen, kind, batch, channels):
    """(config, params, normalized rows, std, xb, V, q_k): _band_rows of
    the centred rows of random (B, L, C) windows and _band_operator of
    seeded parameters; the references read the rows divided by their
    std."""
    cfg = two_branch_config(kind, channels)
    params = params_with_biases(cfg, gen)
    xs = gen.normal(size=(batch, LOOKBACK, channels))
    xb = _band_rows(_centre_rows(xs, cfg)[0], cfg)
    operator, qs = _band_operator(params, cfg)
    rows, _, std = normalized_rows(xs, cfg)
    return cfg, params, rows, std, xb, operator, qs


def column_major_gradient(gen, rows: int) -> np.ndarray:
    # An (R, L+tau) output gradient stored as the transpose of (L+tau, R).
    return gen.normal(size=(TOTAL, rows)).T


def with_ones_columns(xb: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Analysed normalized rows with a ones column after each band's
    columns: the package's xb divided by the std."""
    bands = np.split(xb, np.cumsum([m_in for _, _, (m_in, _) in param_layout(cfg)[:-2]]), axis=1)
    ones = np.ones((len(xb), 1))
    return np.hstack([x for band in bands for x in (band, ones)])


def assert_forward_matches(cfg, params, rows, std, xb, operator) -> None:
    """xb, then xb @ V, against std times the dense operator's normalized
    bands and their map xb' @ V + c, slice by slice."""
    op = band_domain_operator(params, cfg)
    xb_ref = affine_apply_slices(rows, op["analysis"].T, np.zeros(len(op["analysis"])))
    assert rel_err(xb, std * with_ones_columns(xb_ref, cfg)) <= REL_TOL
    want = std * affine_apply_slices(xb_ref, op["operator"], op["offset"])
    assert rel_err(xb @ operator, want) <= REL_TOL


def assert_grads_match(cfg, params, rows, std, xb, qs, dproj, blocks: slice) -> None:
    """The pull-back of xb.T @ dproj, blocks[...], against the dense
    gradients on the normalized rows for std * dproj."""
    grads = _pull_back(xb.T @ dproj, qs, params, cfg)
    want = blocks_by_name(band_domain_gradients(params, rows, std * dproj, cfg), cfg)
    for name, block in param_blocks(grads, cfg)[blocks]:
        assert rel_err(block[:-1], want[name][0]) <= REL_TOL, name
        assert rel_err(block[-1], want[name][1]) <= REL_TOL, name


BANDS, PROJECTION = slice(None, -1), slice(-1, None)


@pytest.mark.parametrize("batch,channels", SHAPES)
class TestRowGemmMaps:
    def test_apply_on_spectrum_views(self, rng, batch, channels):
        cfg, params, rows, std, xb, operator, _ = band_factors(rng, "dft", batch, channels)
        for part in _analyse(rows, cfg):
            assert not part.flags.c_contiguous
        assert_forward_matches(cfg, params, rows, std, xb, operator)

    def test_apply_on_wavelet_bands(self, rng, batch, channels):
        cfg, params, rows, std, xb, operator, _ = band_factors(rng, "wdt", batch, channels)
        assert_forward_matches(cfg, params, rows, std, xb, operator)

    @pytest.mark.parametrize("kind", KINDS)
    def test_projection_carried_back_through_the_synthesis(self, rng, kind, batch, channels):
        # q_k's column block n is branch n's q[k][n].T.
        cfg, params, _, _, _, _, qs = band_factors(rng, kind, batch, channels)
        op = band_domain_operator(params, cfg)
        assert len(qs) == len(op["q"])
        for got, per_branch in zip(qs, op["q"]):
            assert rel_err(got, np.hstack([q.T for q in per_branch])) <= REL_TOL

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
        cfg, params, rows, std, xb, _, qs = band_factors(rng, "dft", batch, channels)
        dproj = rng.normal(size=(len(rows), TOTAL))
        assert_grads_match(cfg, params, rows, std, xb, qs, dproj, BANDS)

    def test_weight_grads_with_transposed_gradient(self, rng, batch, channels):
        cfg, params, rows, std, xb, _, qs = band_factors(rng, "wdt", batch, channels)
        dproj = column_major_gradient(rng, len(rows))
        assert_grads_match(cfg, params, rows, std, xb, qs, dproj, BANDS)

    def test_input_grad_with_transposed_gradient(self, rng, batch, channels):
        # q_k is the input the band maps meet the projection through; its
        # gradient reaches the parameters only through the synthesis into
        # the projection's weight gradient, checked here.
        cfg, params, rows, std, xb, _, qs = band_factors(rng, "wdt", batch, channels)
        dproj = column_major_gradient(rng, len(rows))
        assert_grads_match(cfg, params, rows, std, xb, qs, dproj, PROJECTION)

    def test_projection_grads_on_spectrum_views(self, rng, batch, channels):
        cfg, params, rows, std, xb, _, qs = band_factors(rng, "dft", batch, channels)
        dproj = column_major_gradient(rng, len(rows))
        assert_grads_match(cfg, params, rows, std, xb, qs, dproj, PROJECTION)

    def test_projection_grads_in_gradient_batch(self, rng, batch, channels):
        cfg = ModelConfig(
            lookback=LOOKBACK, horizon=TOTAL - LOOKBACK, channels=channels,
            branches=2, levels=2, seed=3,
        )
        params = init_params(cfg, cfg.seed)
        spans = rng.normal(size=(batch, TOTAL, channels))
        grads, _ = gradient_batch(params, spans, cfg)
        rows, _, std = normalized_rows(spans[:, :LOOKBACK], cfg)
        out = forward_batch(spans[:, :LOOKBACK], params, cfg)
        # Row b*C + c is window b's channel c, as in the (B*C, 1) std.
        residual = (out - spans).transpose(0, 2, 1).reshape(-1, TOTAL)
        dproj = (2.0 / residual.size) * residual * std
        want = blocks_by_name(band_domain_gradients(params, rows, dproj, cfg), cfg)
        _, projection = param_blocks(grads, cfg)[-1]
        assert rel_err(projection[:-1], want["projection"][0]) <= REL_TOL
        assert rel_err(projection[-1], want["projection"][1]) <= REL_TOL


@pytest.mark.parametrize("kind", KINDS)
def test_compiled_operator_is_the_band_domain_operator(rng, kind):
    # The unit std row gives c; identity row i gives row i of the
    # analysis matrix's transpose times V.
    cfg = two_branch_config(kind, 2)
    params = params_with_biases(cfg, rng)
    operator = compile_operator(params, cfg)
    op = band_domain_operator(params, cfg)
    assert rel_err(operator[-1], op["offset"]) <= REL_TOL
    assert rel_err(operator[:-1], op["analysis"].T @ op["operator"]) <= REL_TOL
