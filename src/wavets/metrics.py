"""Forecast metrics, naive reference forecasters and the run report.

score_chunks is the only scorer. It takes a forecast set chunk by chunk,
as cli.split_report forecasts a split and as aggregate_report slices a
whole set, and reduces each chunk's (window, channel) series along their
horizon into per-series rows: the sums of absolute and squared error,
and in short mode each forecast's SMAPE and MASE. Every metric is a mean
over one row, so a split's scoring holds those (W, C) rows and one
chunk's arrays, never an array of the set's size, and no bit depends on
where the chunks are cut.

MSE and MAE average over every horizon step and channel. SMAPE and MASE
follow the displayed short-term formulas for each (window, channel)
series: SMAPE counts 0/0 terms as 0, and the MASE denominator is the
in-window seasonal difference (1/(H-m)) * sum_{j=m+1..H} |x_j - x_{j-m}|,
so a series with constant truth has no defined MASE.

MetricsReport.scores names a suite's metrics in file order; format_value
is the one cell rule and key_value_text the one key=value writer, for
every metric file, the training summary and the ablation table alike.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ConfigError, DataError


def owa(model: tuple[float, float], ref: tuple[float, float]) -> float:
    """0.5 * (smape/smape_ref + mase/mase_ref)."""
    model_smape, model_mase = model
    ref_smape, ref_mase = ref
    if ref_smape <= 0 or ref_mase <= 0:
        raise DataError(
            f"reference metrics must be positive, got ({ref_smape}, {ref_mase})"
        )
    return float(0.5 * (model_smape / ref_smape + model_mase / ref_mase))


def naive_seasonal(window: np.ndarray, horizon: int, period: int) -> np.ndarray:
    """Copy the last observed seasonal cycle of the time axis, axis 0,
    forward; m=1 repeats the last row."""
    window = np.asarray(window, dtype=np.float64)
    length = window.shape[0]
    if period < 1 or period > length:
        raise ConfigError(
            f"seasonal period {period} exceeds window length {length}"
        )
    return window[length - period + np.arange(horizon) % period]


def _mean_defined(values: np.ndarray) -> float | None:
    # Mean over the entries that are not NaN; None when there are none.
    defined = values[~np.isnan(values)]
    return float(defined.mean()) if defined.size else None


def format_value(value: object) -> str:
    """A report cell: undefined for None, a float's repr, else str."""
    if value is None:
        return "undefined"
    return repr(value) if isinstance(value, float) else str(value)


def key_value_text(items) -> str:
    """One key=value line per (key, value) item, in format_value cells."""
    return "".join(f"{key}={format_value(value)}\n" for key, value in items)


@dataclass
class MetricsReport:
    """Flat metric bundle; short-term fields stay None in long-term mode."""

    mse: float
    mae: float
    horizon: int
    channels: int
    smape: float | None = None
    mase: float | None = None
    owa: float | None = None
    period: int | None = None

    def scores(self) -> list[tuple[str, float | None]]:
        """(name, value) of every metric of the suite, in file order: mse
        and mae, then smape, mase and owa when the short suite set period."""
        names = ["mse", "mae"]
        if self.period is not None:
            names += ["smape", "mase", "owa"]
        return [(name, getattr(self, name)) for name in names]

    def to_text(self) -> str:
        """key=value lines: mse and mae, the shape, then the period and the
        short-term metrics when set; None is written as undefined."""
        scores = self.scores()
        shape = [("horizon", self.horizon), ("channels", self.channels)]
        if self.period is not None:
            shape.append(("period", self.period))
        return key_value_text(scores[:2] + shape + scores[2:])


def aggregate_report(
    windows_x: np.ndarray,
    truths: np.ndarray,
    preds: np.ndarray,
    mode: str = "long",
    period: int = 1,
) -> MetricsReport:
    """Metrics over a whole forecast set.

    windows_x is (W, L, C), truths/preds are (W, H, C). The arrays are
    sliced model.OPERATOR_CHUNK windows at a time and scored by
    score_chunks, as cli.split_report scores a split, so no array of the
    set's size is built.
    """
    windows_x = np.asarray(windows_x, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    if truths.shape != preds.shape:
        raise DataError(f"shape mismatch: truth {truths.shape} vs pred {preds.shape}")
    step = model.OPERATOR_CHUNK
    chunks = (
        (windows_x[lo : lo + step], truths[lo : lo + step], preds[lo : lo + step])
        for lo in range(0, len(truths), step)
    )
    return score_chunks(chunks, truths.shape, mode, period)


def score_chunks(
    chunks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
    shape: tuple[int, int, int],
    mode: str = "long",
    period: int = 1,
) -> MetricsReport:
    """Metrics of a (W, H, C) forecast set given as consecutive float64
    (windows_x, truths, preds) chunks, in window order.

    _score_chunk reduces each chunk's series into their rows of one
    (k, W, C) score array, and every metric is a mean over one row, so no
    bit depends on where the chunks are cut. MSE and MAE average over
    every entry. In short mode, SMAPE and MASE are averaged over the
    series, skipping undefined MASE terms; OWA compares those means
    against the seasonal-naive reference built from each window's tail.
    """
    if mode not in ("long", "short"):
        raise ConfigError(f"metric mode must be 'long' or 'short', got {mode!r}")
    count, h, c = shape
    scores = np.empty((2 if mode == "long" else 6, count, c))
    lo = 0
    for windows_x, truths, preds in chunks:
        _score_chunk(windows_x, truths, preds, period, scores[:, lo : lo + len(truths)])
        lo += len(truths)
        # Let go of this chunk's forecasts before the next chunk's are made.
        del windows_x, truths, preds
    abs_sums, sq_sums = scores[:2]
    report = MetricsReport(
        mse=float(sq_sums.mean() / h),
        mae=float(abs_sums.mean() / h),
        horizon=h,
        channels=c,
    )
    if mode == "long":
        return report
    (report.smape, report.mase), (ref_smape, ref_mase) = [
        (float(smape_set.mean()), _mean_defined(mase_set))
        for smape_set, mase_set in zip(scores[2:4], scores[4:6])
    ]
    report.period = period
    if (
        report.mase is not None
        and ref_mase is not None
        and ref_smape > 0
        and ref_mase > 0
    ):
        report.owa = owa((report.smape, report.mase), (ref_smape, ref_mase))
    return report


def _score_chunk(
    windows_x: np.ndarray,
    truths: np.ndarray,
    preds: np.ndarray,
    period: int,
    out: np.ndarray,
) -> None:
    """Write the scores of a chunk's (B, H, C) forecasts into out, (k, B, C):
    per (window, channel) series, the sums of |r| and of r^2 over its
    residual r; with k = 6 (short mode), then the SMAPE of the model and of
    the reference and their MASE, NaN where the seasonal-difference
    denominator is zero or the horizon holds no full period.

    Every series is laid out contiguous along its horizon, so each
    reduces exactly as it would alone.
    """
    b, h, c = truths.shape
    short = len(out) == 6
    if short:
        # Time first, so one index builds every window's reference.
        refs = naive_seasonal(windows_x.swapaxes(0, 1), h, period).swapaxes(0, 1)
        series = np.empty((3, b, c, h))
        for dst, src in zip(series, (truths, preds, refs)):
            np.copyto(dst, src.swapaxes(1, 2))
        truth, forecasts = series[0], series[1:]
        num = np.abs(truth - forecasts)
    else:
        num = np.empty((1, b, c, h))
        np.subtract(truths.swapaxes(1, 2), preds.swapaxes(1, 2), out=num[0])
        np.abs(num, out=num)
    abs_sums = num.sum(axis=-1)
    out[0] = abs_sums[0]
    if short:
        # SMAPE, 0/0 terms counted as 0.
        den = np.abs(truth) + np.abs(forecasts)
        quotient = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        out[2:4] = 200.0 * quotient.mean(axis=-1)
        out[4:6] = np.nan
        if h > period:
            denom = np.abs(truth[..., period:] - truth[..., :-period]).mean(axis=-1)
            # abs_sums / h is num.mean(axis=-1) to the bit.
            np.divide(abs_sums / h, denom, out=out[4:6], where=denom != 0)
    # |r|^2 is r^2 exactly, so the magnitudes are squared in place last.
    np.square(num[0], out=num[0]).sum(axis=-1, out=out[1])
