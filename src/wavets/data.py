"""CSV ingestion, chronological splitting, standardization, windowing.

Frames are treated as immutable after load; windows are a read-only
strided view into the frame's value matrix rather than copies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class SeriesFrame:
    """A T x C multivariate series and its channel names."""

    values: np.ndarray
    channel_names: list[str]

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def _timestamps_strictly_increasing(stamps: list[str]) -> bool:
    # Enforceable only when every stamp parses as an ISO datetime; raw
    # strings in unknown formats are accepted but not order-checked.
    try:
        parsed = [datetime.fromisoformat(s) for s in stamps]
    except ValueError:
        return True
    return all(a < b for a, b in zip(parsed, parsed[1:]))


def load_csv(path: str) -> SeriesFrame:
    """Parse a comma-separated file with a header row into a SeriesFrame.

    A first column named `date` holds timestamps, which must be strictly
    increasing and are then dropped; every other column is a channel and
    must parse as a finite real. Errors name the offending row and column
    (1-based line numbers counting the header as line 1). A leading UTF-8
    byte order mark is dropped, so it never joins the first header name.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, expected a header row") from None
            has_date = bool(header) and header[0].strip().lower() == "date"
            names = [h.strip() for h in (header[1:] if has_date else header)]
            if not names:
                raise DataError(f"{path}: header declares no value columns")
            stamps: list[str] = []
            rows: list[list[float]] = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path} line {line_no}: {len(row)} fields, "
                        f"header has {len(header)}"
                    )
                if has_date:
                    stamps.append(row[0].strip())
                    cells = row[1:]
                else:
                    cells = row
                parsed = []
                for col, cell in zip(names, cells):
                    try:
                        val = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path} line {line_no}, column {col}: "
                            f"cannot parse {cell!r} as a real number"
                        ) from None
                    if not math.isfinite(val):
                        raise DataError(
                            f"{path} line {line_no}, column {col}: "
                            f"non-finite value {cell!r}"
                        )
                    parsed.append(val)
                rows.append(parsed)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        increasing = _timestamps_strictly_increasing(stamps)
    except TypeError:
        raise DataError(f"{path}: timestamps mix naive and offset-aware times") from None
    if not increasing:
        raise DataError(f"{path}: timestamps are not strictly increasing")
    return SeriesFrame(values=np.array(rows, dtype=np.float64), channel_names=names)


def _slice_frame(frame: SeriesFrame, start: int, stop: int) -> SeriesFrame:
    return SeriesFrame(values=frame.values[start:stop], channel_names=frame.channel_names)


def chronological_split(
    frame: SeriesFrame, ratios: tuple[float, float, float]
) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame]:
    """Contiguous prefix/middle/suffix split with floor-based sizing.

    Sizes are floor(T*train), floor(T*val), and the remainder; together
    the three parts partition the frame exactly.
    """
    if len(ratios) != 3 or not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ConfigError(f"split ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
    t = frame.length
    n_train = int(t * ratios[0])
    n_val = int(t * ratios[1])
    return (
        _slice_frame(frame, 0, n_train),
        _slice_frame(frame, n_train, n_train + n_val),
        _slice_frame(frame, n_train + n_val, t),
    )


# Hourly ETT convention: 12/4/4 months of 30 days at 24 samples per day;
# rows beyond the last border are unused.
ETT_HOURLY_BORDERS = (8640, 11520, 14400)


def chronological_split_borders(
    frame: SeriesFrame, borders: tuple[int, int, int]
) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame]:
    """Split at fixed row borders (train_end, val_end, test_end)."""
    train_end, val_end, test_end = borders
    if not 0 < train_end < val_end < test_end:
        raise ConfigError(f"borders must be increasing and positive, got {borders}")
    if frame.length < test_end:
        raise DataError(
            f"frame has {frame.length} rows, borders need at least {test_end}"
        )
    return (
        _slice_frame(frame, 0, train_end),
        _slice_frame(frame, train_end, val_end),
        _slice_frame(frame, val_end, test_end),
    )


@dataclass
class StandardizeStats:
    """Per-channel affine parameters fitted on the training split."""

    mean: np.ndarray
    std: np.ndarray


def standardize_fit(train_frame: SeriesFrame) -> StandardizeStats:
    """Per-channel mean and population std; zero std becomes 1e-8."""
    mean = train_frame.values.mean(axis=0)
    std = train_frame.values.std(axis=0)
    std = np.where(std == 0.0, 1e-8, std)
    return StandardizeStats(mean=mean, std=std)


def standardize_apply(frame: SeriesFrame, stats: StandardizeStats) -> SeriesFrame:
    if stats.mean.shape[0] != frame.channels:
        raise DataError(
            f"stats fitted for {stats.mean.shape[0]} channels, "
            f"frame has {frame.channels}"
        )
    return SeriesFrame(
        values=(frame.values - stats.mean) / stats.std, channel_names=frame.channel_names
    )


def windows(
    frame: SeriesFrame, lookback: int, horizon: int, stride: int = 1
) -> np.ndarray:
    """Every window span at origins 0, stride, 2*stride, ... as one read-only
    (W, L+tau, C) view of the frame: span i is rows [i*stride,
    i*stride+L+tau), its lookback spans[i, :L] and its target spans[i, L:].

    Count is floor((T - L - tau)/stride) + 1. Windows never cross frame
    boundaries, so splitting before windowing guarantees no leakage.
    """
    if lookback < 1 or horizon < 1 or stride < 1:
        raise ConfigError(
            f"lookback, horizon, stride must be positive, got "
            f"({lookback}, {horizon}, {stride})"
        )
    t = frame.length
    if t < lookback + horizon:
        raise DataError(
            f"frame has {t} rows, too short for lookback {lookback} "
            f"+ horizon {horizon}"
        )
    spans = np.lib.stride_tricks.sliding_window_view(
        frame.values, lookback + horizon, axis=0
    )
    # (origins, C, L+tau) -> (W, L+tau, C)
    return spans[::stride].transpose(0, 2, 1)
