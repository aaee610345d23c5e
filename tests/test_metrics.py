"""Metric hand values, degenerate cases, brute-force oracles, and the
chunked scoring of a split."""

import numpy as np
import pytest

import wavets.model
from helpers import params_with_biases, traced_peak
from reference import long_suite_loop, short_suite_loop
from wavets import ConfigError, DataError
from wavets.cli import forecast_predictions, split_report
from wavets.config import MetricsSection, ModelConfig, RunConfig, TrainConfig
from wavets.metrics import (
    MetricsReport,
    aggregate_report,
    format_value,
    key_value_text,
    naive_seasonal,
    owa,
)
from wavets.model import evaluate_loss

CHUNK = wavets.model.OPERATOR_CHUNK


def long_report(truth, pred):
    # A (H, C) truth and forecast scored as a one-window set.
    truth, pred = np.asarray(truth)[None], np.asarray(pred)[None]
    return aggregate_report(truth, truth, pred, mode="long")


def series_report(truth, pred, period=1):
    # One series as a (1, H, 1) set in short mode, its truth as the lookback.
    truth = np.asarray(truth, dtype=np.float64).reshape(1, -1, 1)
    pred = np.asarray(pred, dtype=np.float64).reshape(1, -1, 1)
    return aggregate_report(truth, truth, pred, mode="short", period=period)


class TestMseMae:
    def test_zero_on_equal(self, rng):
        x = rng.normal(size=(5, 2))
        rep = long_report(x, x)
        assert rep.mse == 0.0
        assert rep.mae == 0.0

    def test_hand_values(self):
        rep = long_report([[1.0], [3.0]], [[2.0], [5.0]])
        assert rep.mse == pytest.approx(2.5, abs=1e-12)
        assert rep.mae == pytest.approx(1.5, abs=1e-12)

    def test_homogeneity(self, rng):
        truth = rng.normal(size=(8, 3))
        pred = truth + rng.normal(size=(8, 3))
        doubled = truth + 2 * (pred - truth)
        rep, rep2 = long_report(truth, pred), long_report(truth, doubled)
        assert rep2.mse == pytest.approx(4 * rep.mse, rel=1e-12)
        assert rep2.mae == pytest.approx(2 * rep.mae, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            aggregate_report(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), np.zeros((1, 3, 2)))

    def test_against_loop_oracle(self, rng):
        truth = rng.normal(size=(7, 4))
        pred = rng.normal(size=(7, 4))
        acc_sq = 0.0
        acc_abs = 0.0
        for i in range(7):
            for c in range(4):
                acc_sq += (truth[i, c] - pred[i, c]) ** 2
                acc_abs += abs(truth[i, c] - pred[i, c])
        rep = long_report(truth, pred)
        assert abs(rep.mse - acc_sq / 28) < 1e-12
        assert abs(rep.mae - acc_abs / 28) < 1e-12


class TestSmape:
    def test_zero_on_equal_nonzero(self):
        assert series_report([1.0, 2.0], [1.0, 2.0]).smape == 0.0

    def test_hand_value(self):
        assert series_report([2.0], [1.0]).smape == pytest.approx(200.0 / 3.0, abs=1e-9)

    def test_zero_over_zero_convention(self):
        assert series_report([0.0], [0.0]).smape == 0.0

    def test_bounded(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        assert 0.0 <= series_report(x, y).smape <= 200.0


class TestMase:
    def test_hand_value(self):
        val = series_report([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]).mase
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_zero_on_equal(self):
        assert series_report([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).mase == 0.0

    def test_constant_truth_undefined(self):
        assert series_report([2.0, 2.0, 2.0], [1.0, 1.0, 1.0]).mase is None

    def test_period_bounds(self):
        # A period must be at least 1 and fit in the lookback; one that
        # fits but spans the whole horizon leaves MASE undefined.
        for period in (0, 3):
            with pytest.raises(ConfigError):
                series_report([1.0, 2.0], [1.0, 2.0], period)
        assert series_report([1.0, 2.0], [1.0, 2.0], 2).mase is None

    def test_seasonal_denominator(self):
        # m=2 on [1,2,3,4]: denominator mean(|3-1|,|4-2|) = 2.
        truth = np.array([1.0, 2.0, 3.0, 4.0])
        pred = truth + 1.0
        assert series_report(truth, pred, 2).mase == pytest.approx(0.5, abs=1e-12)


class TestOwa:
    def test_equal_is_one(self):
        assert owa((10.0, 2.0), (10.0, 2.0)) == 1.0

    def test_half_is_half(self):
        assert owa((5.0, 1.0), (10.0, 2.0)) == 0.5

    def test_mixed(self):
        assert owa((10.0, 1.0), (10.0, 2.0)) == pytest.approx(0.75)

    def test_zero_reference_rejected(self):
        with pytest.raises(DataError):
            owa((1.0, 1.0), (0.0, 1.0))


class TestNaiveForecasters:
    def test_seasonal_copy(self):
        window = np.array([[1.0], [2.0], [1.0], [2.0]])
        np.testing.assert_array_equal(naive_seasonal(window, 2, 2), [[1.0], [2.0]])

    def test_seasonal_wraps_past_period(self):
        window = np.array([[1.0], [2.0], [3.0]])
        out = naive_seasonal(window, 5, 3)
        np.testing.assert_array_equal(out[:, 0], [1.0, 2.0, 3.0, 1.0, 2.0])

    def test_period_one_is_repeat_last(self):
        window = np.array([[1.0, -4.0], [2.0, 5.0], [7.0, 0.5]])
        np.testing.assert_array_equal(
            naive_seasonal(window, 3, 1), [[7.0, 0.5], [7.0, 0.5], [7.0, 0.5]]
        )

    def test_period_too_large(self):
        with pytest.raises(ConfigError):
            naive_seasonal(np.zeros((4, 1)), 2, 5)


def short_case(w, lookback, h, c, seed=3):
    gen = np.random.default_rng(seed)
    windows_x = gen.normal(size=(w, lookback, c))
    truths = gen.normal(size=(w, h, c))
    preds = truths + 0.3 * gen.normal(size=(w, h, c))
    return windows_x, truths, preds


class TestShortSuite:
    """aggregate_report(mode="short") against the per-series loop in
    tests/reference.py, bit for bit."""

    def check(self, windows_x, truths, preds, period):
        rep = aggregate_report(windows_x, truths, preds, mode="short", period=period)
        assert (rep.smape, rep.mase, rep.owa) == short_suite_loop(
            windows_x, truths, preds, period
        )
        assert (rep.mse, rep.mae) == long_suite_loop(truths, preds)
        assert rep.period == period
        return rep

    @pytest.mark.parametrize(
        "w, lookback, h, c, period",
        [
            (23, 32, 16, 3, 4),
            (300, 336, 96, 7, 24),
            (9, 20, 12, 5, 1),
            (1, 16, 8, 4, 3),
            (6, 16, 8, 1, 2),
            (1, 8, 5, 1, 1),
        ],
    )
    def test_matches_loop(self, w, lookback, h, c, period):
        rep = self.check(*short_case(w, lookback, h, c), period)
        assert rep.mase is not None and rep.owa is not None

    def test_constant_truth_series_skipped_in_mase(self):
        windows_x, truths, preds = short_case(7, 24, 12, 3)
        truths[2, :, 1] = 2.5
        # An exact forecast of zero makes 0/0 SMAPE terms.
        truths[4, :5, 0] = 0.0
        preds[4, :5, 0] = 0.0
        rep = self.check(windows_x, truths, preds, 4)
        assert rep.mase is not None

    def test_every_truth_constant_leaves_mase_undefined(self):
        windows_x, truths, preds = short_case(4, 16, 8, 2)
        truths[...] = 1.0
        rep = self.check(windows_x, truths, preds, 2)
        assert rep.mase is None and rep.owa is None and rep.smape > 0

    @pytest.mark.parametrize("period", [8, 12])
    def test_horizon_within_period_leaves_mase_undefined(self, period):
        rep = self.check(*short_case(5, 16, 8, 3), period)
        assert rep.mase is None and rep.owa is None

    def test_period_past_lookback_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_report(*short_case(3, 8, 4, 2), mode="short", period=9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="'long' or 'short', got 'medium'"):
            aggregate_report(*short_case(3, 8, 4, 2), mode="medium")


@pytest.mark.parametrize("w", [1, 23, CHUNK, CHUNK + 44])
def test_long_mode_matches_loop(w):
    # Below, at and past one chunk: the chunk cuts move no bit.
    windows_x, truths, preds = short_case(w, 16, 24, 3)
    rep = aggregate_report(windows_x, truths, preds, mode="long")
    assert (rep.mse, rep.mae) == long_suite_loop(truths, preds)
    assert rep.period is None and rep.smape is None


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_long_mode_matches_mse_and_mae_on_window_layouts(layout):
    # Truths as the strided sliding-window view eval scores, predictions in
    # forecast_predictions' C-contiguous layout or a transposed one. Each
    # series is summed on its own, so the whole-array means agree only to
    # rounding.
    gen = np.random.default_rng(9)
    spans = np.lib.stride_tricks.sliding_window_view(
        gen.standard_normal((300, 7)), 48, axis=0
    ).transpose(0, 2, 1)
    windows_x, truths = spans[:, :32], spans[:, 32:]
    preds = np.ascontiguousarray(truths + 0.3 * gen.standard_normal(truths.shape))
    if layout == "transposed":
        preds = np.ascontiguousarray(preds.transpose(0, 2, 1)).transpose(0, 2, 1)
    assert not truths.flags.c_contiguous
    assert preds.flags.c_contiguous == (layout == "contiguous")
    rep = aggregate_report(windows_x, truths, preds, mode="long")
    assert (rep.mse, rep.mae) == long_suite_loop(truths, preds)
    residual = truths - preds
    assert rep.mse == pytest.approx(np.mean(residual**2), rel=1e-15, abs=0)
    assert rep.mae == pytest.approx(np.mean(np.abs(residual)), rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# cli.split_report: each forecast chunk scored as it is made


def run_for(kind: str, mode: str, channels: int = 3) -> RunConfig:
    model = ModelConfig(
        lookback=32, horizon=16, channels=channels, branches=2, levels=2,
        transform_kind=kind, seed=5,
    )
    return RunConfig(
        model=model, train=TrainConfig(), metrics=MetricsSection(mode=mode, period=4)
    )


def split_spans(run: RunConfig, count: int) -> np.ndarray:
    # count (W, L+tau, C) sliding windows of one seeded series.
    cfg = run.model
    span = cfg.lookback + cfg.horizon
    series = np.random.default_rng(4).standard_normal((count + span - 1, cfg.channels))
    return np.lib.stride_tricks.sliding_window_view(series, span, axis=0).transpose(0, 2, 1)


@pytest.mark.parametrize("mode", ["long", "short"])
@pytest.mark.parametrize("kind", ["wdt", "dft"])
def test_split_report_scores_as_aggregate_report(kind, mode):
    # Past one chunk, so the split is scored in two.
    run = run_for(kind, mode)
    params = params_with_biases(run.model, np.random.default_rng(11))
    spans = split_spans(run, CHUNK + 44)
    want = aggregate_report(
        *forecast_predictions(params, spans, run.model), mode=mode, period=run.metrics.period
    )
    assert split_report(params, spans, run) == want


# Bytes the traced peak may grow by beyond the score rows, for the small
# Python objects of a longer chunk loop.
PEAK_SLACK = 16 * 1024


@pytest.mark.parametrize("mode, rows", [("long", 2), ("short", 6)])
def test_split_report_memory_grows_only_by_its_score_rows(mode, rows):
    # At 4W windows the only arrays larger than at W are the score rows,
    # (rows, W, C) float64, so the traced peak may grow by 3W*C*8 bytes per
    # row. A forecast set or residual of the split's size would add
    # 3W*tau*C*8 bytes per array, and a chunk's forecasts kept alive while
    # the next chunk's are made would add tau*W*C*8 bytes.
    run = run_for("dft", mode)
    params = params_with_biases(run.model, np.random.default_rng(11))
    spans = split_spans(run, 4 * CHUNK)

    def report_peak(part, run):
        split_report(params, part, run)
        return traced_peak(lambda: split_report(params, part, run))

    peak = report_peak(spans[:CHUNK], run)
    growth = report_peak(spans, run) - peak
    assert growth <= rows * 3 * CHUNK * run.model.channels * 8 + PEAK_SLACK
    if mode == "short":
        # Beyond long mode's peak, a short-mode chunk holds its four more
        # score rows and 4.25 arrays of the chunk's forecast size: the
        # stacked truth, model and reference series (three), the residual
        # magnitudes of both forecasts (two, against long mode's one) and
        # their boolean mask (a quarter). A temporary formed out of place,
        # as a (2, B, C, tau) |truth - forecasts| or SMAPE quotient, would
        # add two more.
        chunk_bytes = CHUNK * run.model.horizon * run.model.channels * 8
        extra = peak - report_peak(spans[:CHUNK], run_for("dft", "long"))
        assert extra <= 4 * CHUNK * run.model.channels * 8 + 5 * chunk_bytes + PEAK_SLACK


@pytest.mark.parametrize("mode, rows", [("long", 2), ("short", 6)])
def test_fixed_parameter_memory_does_not_grow_with_the_channels(mode, rows):
    # A chunk holds at most ROW_BUDGET (window, channel) series, so from
    # C=64 to C=256 over 64 windows evaluate_loss's traced peak may grow by
    # PEAK_SLACK and split_report's by its score rows, (rows, W, C) float64,
    # besides. Chunks of a fixed window count would grow each chunk array
    # fourfold, by megabytes here.
    windows = 64

    def peaks(channels):
        run = run_for("wdt", mode, channels)
        params = params_with_biases(run.model, np.random.default_rng(11))
        spans = split_spans(run, windows)
        calls = (
            lambda: evaluate_loss(params, spans, run.model),
            lambda: split_report(params, spans, run),
        )
        for call in calls:
            call()
        return [traced_peak(call) for call in calls]

    (loss, report), (wide_loss, wide_report) = peaks(64), peaks(256)
    assert wide_loss - loss <= PEAK_SLACK
    assert wide_report - report <= rows * windows * (256 - 64) * 8 + PEAK_SLACK


class TestMetricsReport:
    def test_long_term_text(self):
        rep = MetricsReport(mse=0.25, mae=0.5, horizon=96, channels=7)
        text = rep.to_text()
        assert "mse=0.25" in text
        assert "smape" not in text

    def test_short_term_text_with_undefined_mase(self):
        rep = MetricsReport(
            mse=1.0, mae=1.0, horizon=4, channels=1,
            smape=3.2, mase=None, owa=None, period=2,
        )
        text = rep.to_text()
        assert "mase=undefined" in text
        assert "period=2" in text

    def test_scores_in_file_order(self):
        long = MetricsReport(mse=0.25, mae=0.5, horizon=96, channels=7)
        assert long.scores() == [("mse", 0.25), ("mae", 0.5)]
        short = MetricsReport(
            mse=1.0, mae=2.0, horizon=4, channels=1,
            smape=3.2, mase=None, owa=None, period=2,
        )
        assert [name for name, _ in short.scores()] == ["mse", "mae", "smape", "mase", "owa"]
        assert short.to_text() == (
            "mse=1.0\nmae=2.0\nhorizon=4\nchannels=1\nperiod=2\n"
            "smape=3.2\nmase=undefined\nowa=undefined\n"
        )

    def test_key_value_cells(self):
        # None is a word, a float its repr (every digit), anything else str.
        items = [("a", None), ("b", 0.1 + 0.2), ("c", 3), ("d", "patience")]
        assert key_value_text(items) == "a=undefined\nb=0.30000000000000004\nc=3\nd=patience\n"
        assert format_value(float("inf")) == "inf"
