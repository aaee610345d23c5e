"""The compiled affine operator against forward_batch.

Between the instance normalization and the denormalization the model is
affine, so model.compile_operator gives one (L, L+tau) weight and bias.
Evaluated with one GEMM it must reproduce forward_batch to 1e-10
relative. Both normalize through model._normalize_rows, so their
statistics agree bit for bit, but the GEMM sums the branch path's
products in another order. Three branches with the mixed orders
[1, 0, 2] and standard-normal biases make a bias or branch mix-up show.
cli.forecast_predictions and train.evaluate_loss apply the operator; the
chunked forward_batch loops in tests/reference.py are their oracles.
"""

import numpy as np
import pytest

import wavets.model
import wavets.train
from reference import evaluate_loss_chunked, forecast_predictions_chunked
from wavets.cli import forecast_predictions
from wavets.data import SeriesFrame, windows
from wavets.model import (
    ModelConfig,
    apply_operator,
    compile_operator,
    forward_batch,
    init_params,
    param_blocks,
)
from wavets.train import evaluate_loss

KINDS = ("wdt", "dwt", "dft")
REL_TOL = 1e-10
CHUNK = wavets.model.OPERATOR_CHUNK


def config_for(kind: str, **overrides) -> ModelConfig:
    base = dict(
        lookback=336, horizon=96, channels=7, branches=3, levels=3,
        transform_kind=kind, seed=5, branch_orders=[1, 0, 2],
    )
    base.update(overrides)
    return ModelConfig(**base)


def params_with_biases(cfg: ModelConfig, seed: int = 11) -> np.ndarray:
    params = init_params(cfg, cfg.seed)
    gen = np.random.default_rng(seed)
    for _, _, bias in param_blocks(params, cfg):
        bias[...] = gen.standard_normal(bias.shape)
    return params


def seeded(shape, seed: int = 12) -> np.ndarray:
    # Offset and scaled, so the denormalization is not the identity.
    return 3.0 * np.random.default_rng(seed).standard_normal(shape) + 1.5


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("batch", [8, 1])
@pytest.mark.parametrize("kind", KINDS)
def test_operator_matches_forward_batch_etth1_shape(kind, batch):
    cfg = config_for(kind)
    params = params_with_biases(cfg)
    weight, bias = compile_operator(params, cfg)
    assert weight.shape == (336, 432) and bias.shape == (432,)
    xs = seeded((batch, cfg.lookback, cfg.channels))
    got = apply_operator(xs, weight, bias, cfg)
    assert rel_err(got, forward_batch(xs, params, cfg)) <= REL_TOL


@pytest.mark.parametrize("kind", KINDS)
def test_operator_is_the_normalized_map_on_any_row(kind):
    # Normalized rows sum to zero, so forward_batch alone cannot tell the
    # weight from the weight plus a constant row; rows of nonzero mean
    # through the map between the normalizations can.
    cfg = config_for(kind, lookback=16, horizon=8, channels=1, levels=2)
    params = params_with_biases(cfg)
    weight, bias = compile_operator(params, cfg)
    rows = seeded((5, cfg.lookback))
    want, _ = wavets.model._normalized_map(rows, params, cfg)
    assert rel_err(rows @ weight + bias, want) <= REL_TOL


def small_config(kind: str, channels: int = 3) -> ModelConfig:
    return config_for(kind, lookback=32, horizon=16, channels=channels, levels=2)


# Both paths normalize in place on their copy of the lookback. At C=1 the
# channel-row transpose of a contiguous stack is itself contiguous, so
# only a real copy keeps the in-place steps off the caller's windows.
WRITABLE_CASES = [(4, 1), (1, 3), (1, 1), (4, 3)]


def assert_leaves_writable_input_unchanged(batch, channels, run):
    cfg = small_config("wdt", channels)
    params = params_with_biases(cfg)
    xs = seeded((batch, cfg.lookback, channels))
    before = xs.copy()
    got = run(xs, params, cfg)
    assert np.array_equal(xs, before)
    assert rel_err(got, forward_batch(before, params, cfg)) <= REL_TOL


@pytest.mark.parametrize("batch, channels", WRITABLE_CASES)
def test_apply_operator_leaves_writable_input_unchanged(batch, channels):
    def run(xs, params, cfg):
        return apply_operator(xs, *compile_operator(params, cfg), cfg)

    assert_leaves_writable_input_unchanged(batch, channels, run)


@pytest.mark.parametrize("batch, channels", WRITABLE_CASES)
def test_forward_batch_leaves_writable_input_unchanged(batch, channels):
    assert_leaves_writable_input_unchanged(batch, channels, forward_batch)


@pytest.mark.parametrize("channels", [1, 3])
def test_apply_operator_reads_read_only_window_views(channels):
    cfg = small_config("dft", channels)
    params = params_with_biases(cfg)
    weight, bias = compile_operator(params, cfg)
    frame = SeriesFrame(seeded((60, channels)), [f"c{i}" for i in range(channels)])
    values = frame.values.copy()
    lookbacks = windows(frame, cfg.lookback, cfg.horizon)[:, : cfg.lookback]
    assert not lookbacks.flags.writeable
    got = apply_operator(lookbacks, weight, bias, cfg)
    assert np.array_equal(frame.values, values)
    assert rel_err(got, forward_batch(lookbacks, params, cfg)) <= REL_TOL


@pytest.mark.parametrize("kind", KINDS)
def test_forecast_predictions_matches_chunked_forward(kind, monkeypatch):
    cfg = small_config(kind)
    params = params_with_biases(cfg)
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
    params = params_with_biases(cfg)
    spans = seeded((count, cfg.lookback + cfg.horizon, cfg.channels))
    _, _, want = forecast_predictions_chunked(params, spans, cfg)
    _, _, preds = forecast_predictions(params, spans, cfg)
    assert preds.shape == (count, cfg.horizon, cfg.channels)
    assert preds.dtype == np.float64 and preds.flags.c_contiguous
    assert rel_err(preds, want) <= REL_TOL


@pytest.mark.parametrize("kind", KINDS)
def test_evaluate_loss_matches_chunked_forward(kind, monkeypatch):
    cfg = small_config(kind)
    params = params_with_biases(cfg)
    monkeypatch.setattr(wavets.model, "OPERATOR_CHUNK", 5)
    spans = seeded((23, cfg.lookback + cfg.horizon, cfg.channels))
    want = evaluate_loss_chunked(params, spans, cfg, chunk=5)
    assert evaluate_loss(params, spans, cfg) == pytest.approx(want, rel=REL_TOL)


def test_fixed_parameter_paths_do_not_run_forward_batch(monkeypatch):
    cfg = small_config("wdt")
    params = params_with_biases(cfg)
    spans = seeded((4, cfg.lookback + cfg.horizon, cfg.channels))

    def refuse(*args, **kwargs):
        raise AssertionError("forward_batch called on a fixed-parameter path")

    monkeypatch.setattr(wavets.model, "forward_batch", refuse)
    monkeypatch.setattr(wavets.train, "forward_batch", refuse)
    forecast_predictions(params, spans, cfg)
    evaluate_loss(params, spans, cfg)
