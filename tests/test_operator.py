"""The compiled linear operator against forward_batch.

Short of adding the mean back, the model is linear in the time-major
centred columns [x - mean; std] of model._centre_rows, so
model.compile_operator gives one (L+1, L+tau) array: an (L, L+tau)
weight with the bias, the map of the unit std, as its last row.
Evaluated with one GEMM it must reproduce forward_batch to 1e-10
relative. Both centre through _centre_rows, so their statistics agree
bit for bit, but the GEMM sums the branch path's products in another
order. At a mean of 1e6 both must stay within 10 ulps of a longdouble
reference, which a mean summed sequentially down the time axis misses.
The band-domain map V.T @ _band_rows(cols) takes the zero column to
zero and a scaled column to the scaled map, in any column and
parameters. A compile of the columns from any start must give the full
compile's columns bit for bit. Three branches with the mixed orders
[1, 0, 2] and standard-normal biases make a bias or branch mix-up show.
cli.forecast_predictions and train.evaluate_loss apply the operator; the
chunked forward_batch loops in tests/reference.py are their oracles.
"""

import numpy as np
import pytest

import wavets.model
import wavets.train
from helpers import params_with_biases, rel_err, same_bits
from reference import evaluate_loss_chunked, forecast_predictions_chunked
from wavets.cli import forecast_predictions
from wavets.data import SeriesFrame, windows
from wavets.model import (
    ModelConfig,
    apply_operator,
    chunk_windows,
    compile_operator,
    forward_batch,
)
from wavets.train import evaluate_loss

KINDS = ("wdt", "dwt", "dft")
REL_TOL = 1e-10
CHUNK = wavets.model.OPERATOR_CHUNK
ONE_BRANCH = {"branches": 1, "branch_orders": None}


def config_for(kind: str, **overrides) -> ModelConfig:
    base = dict(
        lookback=336, horizon=96, channels=7, branches=3, levels=3,
        transform_kind=kind, seed=5, branch_orders=[1, 0, 2],
    )
    base.update(overrides)
    return ModelConfig(**base)


def seeded(shape, seed: int = 12) -> np.ndarray:
    # Offset and scaled, so the denormalization is not the identity.
    return 3.0 * np.random.default_rng(seed).standard_normal(shape) + 1.5


def band_map(cols: np.ndarray, params: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    # The model short of adding the mean back, on any time-major (L+1, R)
    # columns; returns (L+tau, R).
    return wavets.model._band_operator(params, cfg)[0].T @ wavets.model._band_rows(cols, cfg)


@pytest.mark.parametrize("batch", [8, 1])
@pytest.mark.parametrize("kind", KINDS)
def test_operator_matches_forward_batch_etth1_shape(kind, batch):
    cfg = config_for(kind)
    params = params_with_biases(cfg, np.random.default_rng(11))
    operator = compile_operator(params, cfg)
    assert operator.shape == (337, 432)
    xs = seeded((batch, cfg.lookback, cfg.channels))
    got = apply_operator(xs, operator, cfg)
    assert rel_err(got, forward_batch(xs, params, cfg)) <= REL_TOL


@pytest.mark.parametrize("kind", KINDS)
def test_operator_is_the_normalized_map_on_any_row(kind):
    # Centred columns sum to zero, so forward_batch alone cannot tell the
    # weight from the weight plus a constant row; columns of nonzero mean,
    # each with any std, through the map short of the mean can.
    cfg = config_for(kind, lookback=16, horizon=8, channels=1, levels=2)
    params = params_with_biases(cfg, np.random.default_rng(11))
    operator = compile_operator(params, cfg)
    cols = seeded((5, cfg.lookback + 1)).T
    assert rel_err(operator.T @ cols, band_map(cols, params, cfg)) <= REL_TOL


@pytest.mark.parametrize("overrides", [{}, ONE_BRANCH], ids=["n3", "n1"])
@pytest.mark.parametrize("kind", KINDS)
def test_normalized_map_is_linear_in_its_rows(kind, overrides):
    # The std row carries the biases, so the zero column maps to exactly
    # zero and a scaled column, std included, to the scaled output.
    cfg = config_for(kind, lookback=16, horizon=8, channels=1, levels=2, **overrides)
    params = params_with_biases(cfg, np.random.default_rng(11))
    zero = band_map(np.zeros((cfg.lookback + 1, 1)), params, cfg)
    assert np.array_equal(zero, np.zeros((cfg.lookback + cfg.horizon, 1)))
    cols = seeded((5, cfg.lookback + 1)).T
    want = band_map(cols, params, cfg)
    for scale in (-3.7, 0.3, 1e3):
        got = band_map(scale * cols, params, cfg)
        assert rel_err(got, scale * want) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_operator_centres_before_its_gemm_at_a_large_mean(kind):
    # Unit-scale windows around 1e6: the GEMM must read the centred rows.
    # Both paths round when they add the mean back, so they may differ by
    # an ulp of 1e6 (1.2e-10) or two; folding the mean into the operator
    # instead, x @ W - mean * colsum(W), leaves 15 to 28 ulps here.
    cfg = config_for(kind)
    params = params_with_biases(cfg, np.random.default_rng(11))
    xs = 1e6 + seeded((16, cfg.lookback, cfg.channels)) / 3.0
    got = apply_operator(xs, compile_operator(params, cfg), cfg)
    assert np.max(np.abs(got - forward_batch(xs, params, cfg))) <= 4 * np.spacing(1e6)


def longdouble_forecast(xs: np.ndarray, operator: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """An (L+1, m) operator applied to (B, L, C) windows with the mean,
    the std and the product all taken in np.longdouble; (B, m, C)."""
    x = xs.astype(np.longdouble)
    mean = x.mean(axis=1, keepdims=True)
    centred = x - mean
    std = np.sqrt(np.mean(centred * centred, axis=1, keepdims=True)) + cfg.std_epsilon
    op = operator.astype(np.longdouble)
    return np.einsum("blc,lm->bmc", centred, op[:-1]) + std * op[-1][:, None] + mean


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 here",
)
@pytest.mark.parametrize("kind", ["wdt", "dft"])
def test_forecast_at_a_large_mean_within_ulps_of_a_longdouble_reference(kind):
    # Unit-scale windows around 1e6: an error in the window mean reaches
    # every output, so the mean must be summed about as accurately as a
    # pairwise sum along the window. A pairwise sum along each window
    # read 3.7 to 4.4 ulps of 1e6 here and the blocked column sum 4.5 to
    # 5.6; a plain sequential sum down the time axis reads 22.6 to 26.9.
    cfg = config_for(kind)
    params = params_with_biases(cfg, np.random.default_rng(11))
    xs = 1e6 + seeded((64, cfg.lookback, cfg.channels)) / 3.0
    want = longdouble_forecast(xs, compile_operator(params, cfg), cfg)
    horizon = compile_operator(params, cfg, cfg.lookback)
    ulp = np.spacing(1e6)
    apply_ulps = np.max(np.abs(apply_operator(xs, horizon, cfg) - want[:, cfg.lookback :])) / ulp
    forward_ulps = np.max(np.abs(forward_batch(xs, params, cfg) - want)) / ulp
    assert apply_ulps <= 10 and forward_ulps <= 10, (float(apply_ulps), float(forward_ulps))


# The ETTh1 shape with three mixed-order branches and with one, and a dft
# span of odd length L+tau; each at start 0, at an odd start and at L.
@pytest.mark.parametrize(
    "kind, overrides, starts",
    [(kind, {}, (0, 7, 336)) for kind in KINDS]
    + [(kind, ONE_BRANCH, (0, 7, 336)) for kind in KINDS]
    + [("dft", {"lookback": 32, "horizon": 15, "levels": 2}, (0, 5, 32))],
    ids=[*KINDS, *(f"{kind}-n1" for kind in KINDS), "dft-odd-span"],
)
def test_column_range_compile_is_the_full_compile_bit_for_bit(kind, overrides, starts):
    # Only the columns start: are carried through the branch path, and
    # each one is the full compile's column with the same bits.
    cfg = config_for(kind, **overrides)
    params = params_with_biases(cfg, np.random.default_rng(11))
    full = compile_operator(params, cfg)
    assert full.shape == (cfg.lookback + 1, cfg.lookback + cfg.horizon)
    for start in starts:
        assert same_bits(compile_operator(params, cfg, start), full[:, start:])


def small_config(kind: str, channels: int = 3) -> ModelConfig:
    return config_for(kind, lookback=32, horizon=16, channels=channels, levels=2)


# Both paths normalize in place on their copy of the lookback. At C=1 the
# channel-row transpose of a contiguous stack is itself contiguous, so
# only a real copy keeps the in-place steps off the caller's windows.
WRITABLE_CASES = [(4, 1), (1, 3), (1, 1), (4, 3)]


def assert_leaves_writable_input_unchanged(batch, channels, run):
    cfg = small_config("wdt", channels)
    params = params_with_biases(cfg, np.random.default_rng(11))
    xs = seeded((batch, cfg.lookback, channels))
    before = xs.copy()
    got = run(xs, params, cfg)
    assert np.array_equal(xs, before)
    assert rel_err(got, forward_batch(before, params, cfg)) <= REL_TOL


@pytest.mark.parametrize("batch, channels", WRITABLE_CASES)
def test_apply_operator_leaves_writable_input_unchanged(batch, channels):
    def run(xs, params, cfg):
        return apply_operator(xs, compile_operator(params, cfg), cfg)

    assert_leaves_writable_input_unchanged(batch, channels, run)


@pytest.mark.parametrize("batch, channels", WRITABLE_CASES)
def test_forward_batch_leaves_writable_input_unchanged(batch, channels):
    assert_leaves_writable_input_unchanged(batch, channels, forward_batch)


@pytest.mark.parametrize("channels", [1, 3])
def test_apply_operator_reads_read_only_window_views(channels):
    cfg = small_config("dft", channels)
    params = params_with_biases(cfg, np.random.default_rng(11))
    operator = compile_operator(params, cfg)
    frame = SeriesFrame(seeded((60, channels)), [f"c{i}" for i in range(channels)])
    values = frame.values.copy()
    lookbacks = windows(frame, cfg.lookback, cfg.horizon)[:, : cfg.lookback]
    assert not lookbacks.flags.writeable
    got = apply_operator(lookbacks, operator, cfg)
    assert np.array_equal(frame.values, values)
    assert rel_err(got, forward_batch(lookbacks, params, cfg)) <= REL_TOL


@pytest.mark.parametrize("kind", KINDS)
def test_forecast_predictions_matches_chunked_forward(kind, monkeypatch):
    cfg = small_config(kind)
    params = params_with_biases(cfg, np.random.default_rng(11))
    # 23 windows in chunks of 5: the last chunk is partial.
    monkeypatch.setattr(wavets.model, "OPERATOR_CHUNK", 5)
    spans = seeded((23, cfg.lookback + cfg.horizon, cfg.channels))
    xs, ys, preds = forecast_predictions(params, spans, cfg)
    ref_xs, ref_ys, ref_preds = forecast_predictions_chunked(params, spans, cfg, chunk=5)
    assert np.array_equal(xs, ref_xs) and np.array_equal(ys, ref_ys)
    assert preds.shape == ref_preds.shape == (23, cfg.horizon, cfg.channels)
    assert rel_err(preds, ref_preds) <= REL_TOL


@pytest.mark.parametrize(
    "count", [CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1], ids=["below", "multiple", "one-past"]
)
@pytest.mark.parametrize("kind", KINDS)
def test_forecast_predictions_fills_one_contiguous_array(kind, count):
    # Every row of the preallocated array must be written, whether the
    # last chunk is partial, full, or one window long.
    cfg = small_config(kind)
    params = params_with_biases(cfg, np.random.default_rng(11))
    spans = seeded((count, cfg.lookback + cfg.horizon, cfg.channels))
    _, _, want = forecast_predictions_chunked(params, spans, cfg)
    _, _, preds = forecast_predictions(params, spans, cfg)
    assert preds.shape == (count, cfg.horizon, cfg.channels)
    assert preds.dtype == np.float64 and preds.flags.c_contiguous
    assert rel_err(preds, want) <= REL_TOL


def test_chunks_hold_the_row_budget(monkeypatch):
    # Up to seven channels a chunk is OPERATOR_CHUNK windows, as before the
    # budget; a wider frame takes ROW_BUDGET // C windows, one at least.
    widths = [1, 7, 8, 21, 321, 1792, 1793]
    assert [chunk_windows(c) for c in widths] == [CHUNK, CHUNK, 224, 85, 5, 1, 1]
    assert wavets.model.ROW_BUDGET == 7 * CHUNK
    monkeypatch.setattr(wavets.model, "OPERATOR_CHUNK", 5)
    assert [chunk_windows(c) for c in widths] == [5, 5, 5, 5, 5, 1, 1]


@pytest.mark.parametrize("kind", KINDS)
def test_evaluate_loss_matches_chunked_forward(kind, monkeypatch):
    cfg = small_config(kind)
    params = params_with_biases(cfg, np.random.default_rng(11))
    monkeypatch.setattr(wavets.model, "OPERATOR_CHUNK", 5)
    spans = seeded((23, cfg.lookback + cfg.horizon, cfg.channels))
    want = evaluate_loss_chunked(params, spans, cfg, chunk=5)
    assert evaluate_loss(params, spans, cfg) == pytest.approx(want, rel=REL_TOL)


def test_fixed_parameter_paths_do_not_run_forward_batch(monkeypatch):
    cfg = small_config("wdt")
    params = params_with_biases(cfg, np.random.default_rng(11))
    spans = seeded((4, cfg.lookback + cfg.horizon, cfg.channels))

    def refuse(*args, **kwargs):
        raise AssertionError("forward_batch called on a fixed-parameter path")

    monkeypatch.setattr(wavets.model, "forward_batch", refuse)
    monkeypatch.setattr(wavets.train, "forward_batch", refuse)
    forecast_predictions(params, spans, cfg)
    evaluate_loss(params, spans, cfg)
