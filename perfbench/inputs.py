"""Seeded input generation: the program under test only ever sees these files.

The multivariate frame has ETTh1's shape and date format (hourly rows from
2016-07-01 00:00:00, seven load/temperature columns). Every channel is a
level plus daily and weekly sinusoids with seeded amplitudes and phases,
plus seeded Gaussian noise, so the series is forecastable and every
operation on it is well conditioned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

ETT_COLUMNS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")
DAY = 24
WEEK = 7 * DAY


@dataclass(frozen=True)
class Shape:
    """Model and data sizes for one benchmark run.

    `train_windows` windows taken every `train_every`-th stride-1 window
    make the fixed training budget (one epoch); every `val_every`-th
    validation window scores it.
    """

    lookback: int = 336
    horizon: int = 96
    channels: int = 7
    branches: int = 2
    levels: int = 3
    batch: int = 64
    learning_rate: float = 5e-4
    rows: int = 17420
    split: dict = field(default_factory=lambda: {"kind": "ett_hourly"})
    # Rows per split, so window counts can be checked independently.
    split_rows: tuple[int, int, int] = (8640, 2880, 2880)
    train_windows: int = 512
    train_every: int = 16
    val_every: int = 8
    long_samples: int = 160_000

    def windows_in(self, rows: int) -> int:
        return rows - self.lookback - self.horizon + 1


# The ETTh1 run shape of configs/etth1.json.
FULL = Shape()

# A few-second shape for the benchmark's own tests.
TINY = Shape(
    lookback=16,
    horizon=8,
    channels=3,
    branches=2,
    levels=2,
    batch=8,
    learning_rate=1e-2,
    rows=400,
    split={"kind": "ratio", "ratios": [0.6, 0.2, 0.2]},
    split_rows=(240, 80, 80),
    train_windows=32,
    train_every=4,
    val_every=2,
    long_samples=4096,
)


def seasonal_values(rng: np.random.Generator, rows: int, channels: int) -> np.ndarray:
    """(rows, channels) of level + daily + weekly sinusoids + noise."""
    t = np.arange(rows, dtype=np.float64)[:, None]
    level = rng.uniform(-5.0, 15.0, channels)
    daily = rng.uniform(1.0, 4.0, channels)
    weekly = rng.uniform(0.5, 2.0, channels)
    phase_d = rng.uniform(0.0, 2.0 * np.pi, channels)
    phase_w = rng.uniform(0.0, 2.0 * np.pi, channels)
    noise = rng.normal(0.0, 0.4, (rows, channels))
    return (
        level
        + daily * np.sin(2.0 * np.pi * t / DAY + phase_d)
        + weekly * np.sin(2.0 * np.pi * t / WEEK + phase_w)
        + noise
    )


def write_ett_csv(path: Path, values: np.ndarray) -> None:
    """ETTh1 layout: a `date` column, then one column per channel."""
    start = datetime(2016, 7, 1)
    names = ETT_COLUMNS[: values.shape[1]]
    lines = ["date," + ",".join(names)]
    for i, row in enumerate(values):
        stamp = (start + timedelta(hours=i)).strftime("%Y-%m-%d %H:%M:%S")
        lines.append(stamp + "," + ",".join(f"{v:.3f}" for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_series_csv(path: Path, series: np.ndarray) -> None:
    """One `value` column, no dates."""
    path.write_text(
        "value\n" + "\n".join(f"{v:.6f}" for v in series) + "\n", encoding="utf-8"
    )


def write_run_config(
    path: Path, csv_name: str, shape: Shape, kind: str, seed: int
) -> None:
    """A `wavets train`/`eval` run config pointing at the generated CSV."""
    doc = {
        "model": {
            "lookback": shape.lookback,
            "horizon": shape.horizon,
            "channels": shape.channels,
            "branches": shape.branches,
            "levels": shape.levels,
            "transform_kind": kind,
            "std_epsilon": 1e-5,
            "seed": seed,
        },
        "train": {
            "learning_rate": shape.learning_rate,
            "batch_size": shape.batch,
            "max_epochs": 1,
            "patience": 3,
            "seed": seed,
        },
        "data": {"csv": csv_name, "split": shape.split, "stride": 1, "standardize": True},
        "metrics": {"mode": "long"},
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def write_frame_inputs(work: Path, shape: Shape, kind: str, seed: int) -> Path:
    """Write the ETTh1-shaped CSV and its run config; return the config path."""
    rng = np.random.default_rng(seed)
    write_ett_csv(work / "etth1.csv", seasonal_values(rng, shape.rows, shape.channels))
    config = work / "run.json"
    write_run_config(config, "etth1.csv", shape, kind, seed)
    return config


def write_long_series(work: Path, shape: Shape, seed: int) -> Path:
    """Write the long single-channel CSV; return its path."""
    rng = np.random.default_rng(seed)
    path = work / "long.csv"
    write_series_csv(path, seasonal_values(rng, shape.long_samples, 1)[:, 0])
    return path
