"""Forecast evaluation metrics and naive reference forecasters.

aggregate_report scores a whole forecast set; it is the only scorer.
MSE and MAE average over every horizon step and channel. SMAPE and MASE
follow the displayed short-term formulas for each (window, channel)
series: SMAPE counts 0/0 terms as 0, and the MASE denominator is the
in-window seasonal difference (1/(H-m)) * sum_{j=m+1..H} |x_j - x_{j-m}|,
so a series with constant truth has no defined MASE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def to_text(self) -> str:
        """key=value lines, one metric per line; None serialized as a word."""
        rows = [
            f"mse={self.mse!r}",
            f"mae={self.mae!r}",
            f"horizon={self.horizon}",
            f"channels={self.channels}",
        ]
        if self.period is not None:
            rows.append(f"period={self.period}")
            for key in ("smape", "mase", "owa"):
                val = getattr(self, key)
                rows.append(f"{key}={'undefined' if val is None else repr(val)}")
        return "\n".join(rows) + "\n"


def aggregate_report(
    windows_x: np.ndarray,
    truths: np.ndarray,
    preds: np.ndarray,
    mode: str = "long",
    period: int = 1,
) -> "MetricsReport":
    """Metrics over a whole forecast set.

    windows_x is (W, L, C), truths/preds are (W, H, C). MSE/MAE average
    over every entry. In short mode, SMAPE and MASE are computed per
    (window, channel) series and averaged, skipping undefined MASE terms;
    OWA compares the aggregates against the seasonal-naive reference
    built from each window's tail. Every series of both forecasts is
    scored at once.
    """
    truths = np.asarray(truths, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    if truths.shape != preds.shape:
        raise DataError(f"shape mismatch: truth {truths.shape} vs pred {preds.shape}")
    _, h, c = truths.shape
    # One array for MSE and MAE: the residual's magnitude, taken in place,
    # then squared in place once MAE has read it (|r|^2 is r^2 exactly).
    residual = truths - preds
    mae_value = float(np.mean(np.abs(residual, out=residual)))
    report = MetricsReport(
        mse=float(np.mean(np.square(residual, out=residual))),
        mae=mae_value,
        horizon=h,
        channels=c,
    )
    if mode == "long":
        return report
    if mode != "short":
        raise ConfigError(f"metric mode must be 'long' or 'short', got {mode!r}")
    windows_x = np.asarray(windows_x, dtype=np.float64)
    # Time first, so one index builds every window's reference.
    refs = naive_seasonal(windows_x.swapaxes(0, 1), h, period).swapaxes(0, 1)
    # (3, W, C, H): truth, model, reference, contiguous along the horizon
    # so each series reduces exactly as it would alone.
    series = np.ascontiguousarray(np.stack([truths, preds, refs]).swapaxes(-1, -2))
    truth, forecasts = series[0], series[1:]
    # SMAPE of every series, 0/0 terms counted as 0.
    num = np.abs(truth - forecasts)
    den = np.abs(truth) + np.abs(forecasts)
    smapes = 200.0 * np.divide(num, den, out=np.zeros_like(num), where=den > 0).mean(axis=-1)
    # MASE of every series, NaN where the seasonal-difference denominator is
    # zero or the horizon holds no full period.
    mases = np.full(smapes.shape, np.nan)
    if h > period:
        denom = np.abs(truth[..., period:] - truth[..., :-period]).mean(axis=-1)
        np.divide(num.mean(axis=-1), denom, out=mases, where=denom != 0)
    (report.smape, report.mase), (ref_smape, ref_mase) = [
        (float(smape_set.mean()), _mean_defined(mase_set))
        for smape_set, mase_set in zip(smapes, mases)
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
