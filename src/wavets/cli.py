"""Command-line interface.

Subcommands:

* ``transform``   decompose one channel of a CSV and export coefficients
* ``scalogram``   like ``transform`` but also writes the time-scale grid
* ``train``       fit a forecaster from a JSON run config
* ``eval``        score a saved checkpoint on a chosen split
* ``ablate``      train all three transform variants and tabulate test metrics
* ``gradcheck``   compare analytic gradients against finite differences

Exit codes: 0 success, 1 gradcheck tolerance failure, 2 invalid
configuration, 3 unusable data, 4 numerical failure (a non-finite training
loss, forecast or metric).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (
    ETT_HOURLY_BORDERS,
    SeriesFrame,
    chronological_split,
    chronological_split_borders,
    load_csv,
    standardize_apply,
    standardize_fit,
    window_tensors,
    windows,
)
from .errors import ConfigError, DataError, NumericalError
from .metrics import MetricsReport, aggregate_report
from .model import (
    ModelConfig,
    ModelParams,
    forward_batch,
    init_params,
    load_checkpoint,
    read_field,
    save_checkpoint,
)
from .train import TrainConfig, gradient_check, train
from .wavelet import SUPPORTED_WAVELETS, make_filterbank
from .wdt import wdt_forward, write_coefficients_csv, write_scalogram_csv

GRADCHECK_TOLERANCE = 1e-5
GRADCHECK_MAX_DIM = 16
SPLIT_KINDS = ("ratio", "ett_hourly")


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class DataSection:
    """Where the series lives and how it is split into train/val/test."""

    csv: str
    split_kind: str = "ratio"
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    stride: int = 1
    standardize: bool = True

    def problems(self) -> list[str]:
        out = []
        if not self.csv:
            out.append("data.csv path must be non-empty")
        if self.split_kind not in SPLIT_KINDS:
            out.append(
                f"data.split.kind must be one of {SPLIT_KINDS}, "
                f"got {self.split_kind!r}"
            )
        if self.split_kind == "ratio":
            if len(self.ratios) != 3:
                out.append("data.split.ratios must have three entries")
            elif any(r <= 0.0 for r in self.ratios):
                out.append("data.split.ratios must all be positive")
            elif abs(sum(self.ratios) - 1.0) > 1e-9:
                out.append("data.split.ratios must sum to 1")
        if self.stride < 1:
            out.append(f"data.stride must be >= 1, got {self.stride}")
        return out

    def to_dict(self) -> dict:
        doc = {
            "csv": self.csv,
            "split": {"kind": self.split_kind},
            "stride": self.stride,
            "standardize": self.standardize,
        }
        if self.split_kind == "ratio":
            doc["split"]["ratios"] = list(self.ratios)
        return doc

    @classmethod
    def from_dict(cls, doc: dict, base: Path) -> "DataSection":
        if not isinstance(doc, dict):
            raise ConfigError("data section must be an object")
        known = {"csv", "split", "stride", "standardize"}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigError(f"unknown data keys: {', '.join(unknown)}")
        csv = read_field(doc, "csv", str, "data", "")
        split = doc.get("split", {"kind": "ratio"})
        if isinstance(split, str):
            split = {"kind": split}
        if not isinstance(split, dict):
            raise ConfigError("data.split must be an object or a kind name")
        bad = sorted(set(split) - {"kind", "ratios"})
        if bad:
            raise ConfigError(f"unknown data.split keys: {', '.join(bad)}")
        ratios = read_field(split, "ratios", float, "data.split", cls.ratios, many=True)
        return cls(
            csv=_resolve_path(base, csv) if csv else "",
            split_kind=read_field(split, "kind", str, "data.split", "ratio"),
            ratios=tuple(ratios),
            stride=read_field(doc, "stride", int, "data", 1),
            standardize=read_field(doc, "standardize", bool, "data", True),
        )


@dataclass
class MetricsSection:
    mode: str = "long"
    period: int = 1

    def problems(self) -> list[str]:
        out = []
        if self.mode not in ("long", "short"):
            out.append(f"metrics.mode must be 'long' or 'short', got {self.mode!r}")
        if self.period < 1:
            out.append(f"metrics.period must be >= 1, got {self.period}")
        return out

    def to_dict(self) -> dict:
        return {"mode": self.mode, "period": self.period}

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsSection":
        if not isinstance(doc, dict):
            raise ConfigError("metrics section must be an object")
        unknown = sorted(set(doc) - {"mode", "period"})
        if unknown:
            raise ConfigError(f"unknown metrics keys: {', '.join(unknown)}")
        return cls(
            mode=read_field(doc, "mode", str, "metrics", "long"),
            period=read_field(doc, "period", int, "metrics", 1),
        )


@dataclass
class RunConfig:
    """Everything one training or evaluation run needs."""

    model: ModelConfig
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataSection | None = None
    metrics: MetricsSection = field(default_factory=MetricsSection)
    out: str | None = None

    def ensure_valid(self, need_data: bool) -> None:
        problems = list(self.model.problems()) + list(self.train.problems())
        if self.data is not None:
            problems += self.data.problems()
        elif need_data:
            problems.append("config is missing the data section")
        problems += self.metrics.problems()
        if problems:
            raise ConfigError("; ".join(problems))

    def to_dict(self) -> dict:
        doc = {"model": self.model.to_dict(), "train": self.train.to_dict()}
        if self.data is not None:
            doc["data"] = self.data.to_dict()
        doc["metrics"] = self.metrics.to_dict()
        return doc


def _resolve_path(base: Path, value: str) -> str:
    path = Path(value)
    if path.is_absolute():
        return str(path)
    return str((base / path).resolve())


def load_run_config(path: str, seed: int | None = None) -> RunConfig:
    """Parse a JSON run config; relative paths resolve against its directory.

    ``seed``, when given, overrides both the model and training seeds so a
    single flag reruns the whole pipeline under a different draw.
    """
    cfg_path = Path(path)
    try:
        text = cfg_path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = sorted(set(doc) - {"model", "train", "data", "metrics", "out"})
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(unknown)}")
    if "model" not in doc:
        raise ConfigError("config is missing the model section")
    for name in ("model", "train", "data", "metrics"):
        if name in doc and not isinstance(doc[name], dict):
            raise ConfigError(f"config section {name} must be a JSON object")
    base = cfg_path.resolve().parent
    model = ModelConfig.from_dict(doc["model"])
    train_cfg = TrainConfig.from_dict(doc.get("train", {}))
    data = DataSection.from_dict(doc["data"], base) if "data" in doc else None
    metrics = MetricsSection.from_dict(doc.get("metrics", {}))
    out = _resolve_path(base, str(doc["out"])) if doc.get("out") else None
    if seed is not None:
        model = replace(model, seed=int(seed))
        train_cfg = replace(train_cfg, seed=int(seed))
    return RunConfig(
        model=model, train=train_cfg, data=data, metrics=metrics, out=out
    )


# ---------------------------------------------------------------------------
# shared pipeline steps


def load_splits(run: RunConfig) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame]:
    """Load the CSV, check the channel count, split, and standardize.

    Standardization statistics come from the training split only and are
    applied to all three, so later splits never influence the scaling.
    """
    frame = load_csv(run.data.csv)
    if frame.channels != run.model.channels:
        raise ConfigError(
            f"model.channels is {run.model.channels} but {run.data.csv} "
            f"has {frame.channels} channels"
        )
    if run.data.split_kind == "ett_hourly":
        parts = chronological_split_borders(frame, ETT_HOURLY_BORDERS)
    else:
        parts = chronological_split(frame, run.data.ratios)
    if run.data.standardize:
        stats = standardize_fit(parts[0])
        parts = tuple(standardize_apply(p, stats) for p in parts)
    return parts


def split_window_pairs(frame: SeriesFrame, run: RunConfig) -> list:
    return windows(
        frame,
        lookback=run.model.lookback,
        horizon=run.model.horizon,
        stride=run.data.stride,
    )


def forecast_predictions(
    params: ModelParams,
    pairs: list,
    config: ModelConfig,
    chunk: int = 256,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the model over windows and keep only the forecast tail.

    Returns (inputs, targets, predictions) shaped (W, L, C) / (W, H, C) /
    (W, H, C).  Chunked so memory stays flat on large window sets.
    """
    xs, ys = window_tensors(pairs)
    preds = np.concatenate(
        [
            forward_batch(xs[i : i + chunk], params, config)[
                :, config.lookback :, :
            ]
            for i in range(0, xs.shape[0], chunk)
        ]
    )
    return xs, ys, preds


def split_report(
    params: ModelParams,
    pairs: list,
    run: RunConfig,
) -> MetricsReport:
    """Metrics of the forecasts over pairs; a non-finite forecast or metric
    raises NumericalError instead of reaching a metric file."""
    if not pairs:
        raise DataError("split produced no forecasting windows")
    xs, ys, preds = forecast_predictions(params, pairs, run.model)
    if not np.all(np.isfinite(preds)):
        raise NumericalError("the model produced a non-finite forecast")
    report = aggregate_report(
        xs, ys, preds, mode=run.metrics.mode, period=run.metrics.period
    )
    for name in ("mse", "mae", "smape", "mase", "owa"):
        value = getattr(report, name)
        if value is not None and not math.isfinite(value):
            raise NumericalError(f"forecast {name} is non-finite ({value})")
    return report


# ---------------------------------------------------------------------------
# output helpers


def _ensure_out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _effective_out(args: argparse.Namespace, run: RunConfig) -> Path:
    # --out wins over the config's out entry.
    target = args.out or run.out
    if not target:
        raise ConfigError(
            "no output directory: pass --out or set 'out' in the config"
        )
    return _ensure_out_dir(str(target))


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _summary_text(items: list[tuple[str, object]]) -> str:
    lines = []
    for key, value in items:
        if isinstance(value, float):
            lines.append(f"{key}={value!r}")
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# transform / scalogram


def _parse_channel(frame: SeriesFrame, requested: str) -> int:
    if requested in frame.channel_names:
        return frame.channel_names.index(requested)
    try:
        idx = int(requested)
    except ValueError:
        raise ConfigError(
            f"unknown channel {requested!r}; available: "
            + ", ".join(frame.channel_names)
        )
    if not 0 <= idx < frame.channels:
        raise ConfigError(
            f"channel index {idx} out of range for {frame.channels} channels"
        )
    return idx


def cmd_transform(args: argparse.Namespace) -> int:
    if args.levels < 1:
        raise ConfigError(f"--levels must be >= 1, got {args.levels}")
    if args.order < 0:
        raise ConfigError(f"--order must be >= 0, got {args.order}")
    if args.wavelet not in SUPPORTED_WAVELETS:
        raise ConfigError(
            f"--wavelet must be one of {SUPPORTED_WAVELETS}, got {args.wavelet!r}"
        )
    frame = load_csv(args.csv)
    idx = _parse_channel(frame, args.channel)
    series = frame.values[:, idx]
    block = 2 ** args.levels
    usable = (series.shape[0] // block) * block
    if usable == 0:
        raise ConfigError(
            f"series has {series.shape[0]} samples; need at least {block} "
            f"for {args.levels} levels"
        )
    if usable != series.shape[0]:
        print(
            f"truncating {series.shape[0]} samples to {usable} "
            f"(multiple of {block})"
        )
    fb = make_filterbank(args.wavelet)
    pyramid = wdt_forward(series[:usable], fb, levels=args.levels, order=args.order)
    out = _ensure_out_dir(args.out)
    coeff_path = out / "coefficients.csv"
    write_coefficients_csv(pyramid, str(coeff_path))
    print(f"wrote {coeff_path}")
    if args.command == "scalogram" or getattr(args, "scalogram", False):
        grid_path = out / "scalogram.csv"
        write_scalogram_csv(pyramid, str(grid_path))
        print(f"wrote {grid_path}")
    return 0


# ---------------------------------------------------------------------------
# train


def run_training(
    run: RunConfig,
    out: Path,
    quiet: bool = False,
) -> tuple[ModelParams, dict]:
    """Train one model per the run config and write all artifacts to ``out``.

    Returns the best parameters and the summary key/value mapping.  Output
    files carry no wall-clock timings, so reruns with identical inputs are
    byte-identical; timings go to stdout only.
    """
    started = time.perf_counter()
    train_frame, val_frame, test_frame = load_splits(run)
    train_pairs = split_window_pairs(train_frame, run)
    val_pairs = split_window_pairs(val_frame, run)
    if not train_pairs:
        raise DataError("training split produced no windows")
    if not val_pairs:
        raise DataError("validation split produced no windows")

    params, history = train(run.model, train_pairs, val_pairs, run.train)
    if not quiet:
        for rec in history.epochs:
            print(
                f"epoch {rec.epoch:3d}  train {rec.train_loss:.6f}  "
                f"val {rec.val_loss:.6f}  ({rec.seconds:.2f}s)"
            )
        print(f"stopped: {history.stopped_reason} (best epoch {history.best_epoch})")

    save_checkpoint(params, run.model, str(out / "checkpoint.json"))
    _write_json(out / "effective_config.json", run.to_dict())
    _write_json(
        out / "run_meta.json",
        {"version": 1, "config": run.to_dict(), "history": history.to_doc()},
    )

    train_report = split_report(params, train_pairs, run)
    val_report = split_report(params, val_pairs, run)
    (out / "metrics_train.txt").write_text(train_report.to_text())
    (out / "metrics_val.txt").write_text(val_report.to_text())

    summary_items = [
        ("best_epoch", history.best_epoch),
        ("best_val_loss", history.best_val_loss),
        ("epochs_run", len(history.epochs)),
        ("stopped_reason", history.stopped_reason),
        ("train_forecast_mse", train_report.mse),
        ("train_forecast_mae", train_report.mae),
        ("val_forecast_mse", val_report.mse),
        ("val_forecast_mae", val_report.mae),
    ]
    (out / "summary.txt").write_text(_summary_text(summary_items))
    if not quiet:
        print(f"training wall time {time.perf_counter() - started:.1f}s")
        print(f"artifacts in {out}")
    return params, dict(summary_items)


def cmd_train(args: argparse.Namespace) -> int:
    run = load_run_config(args.config, seed=args.seed)
    run.ensure_valid(need_data=True)
    out = _effective_out(args, run)
    run_training(run, out)
    return 0


# ---------------------------------------------------------------------------
# eval


def _check_config_matches_checkpoint(
    run_model: ModelConfig, ckpt_model: ModelConfig
) -> None:
    fields = (
        "lookback",
        "horizon",
        "channels",
        "branches",
        "levels",
        "transform_kind",
    )
    for name in fields:
        a = getattr(run_model, name)
        b = getattr(ckpt_model, name)
        if a != b:
            raise ConfigError(
                f"config {name} is {a} but checkpoint was trained with {b}"
            )


def cmd_eval(args: argparse.Namespace) -> int:
    params, ckpt_model = load_checkpoint(args.checkpoint)
    config_path = args.config
    if config_path is None:
        sibling = Path(args.checkpoint).resolve().parent / "effective_config.json"
        if not sibling.exists():
            raise ConfigError(
                "no --config given and no effective_config.json next to "
                "the checkpoint"
            )
        config_path = str(sibling)
    run = load_run_config(config_path)
    run.ensure_valid(need_data=True)
    _check_config_matches_checkpoint(run.model, ckpt_model)
    # The checkpoint's model config is authoritative for the forward pass.
    run.model = ckpt_model
    if args.metrics is not None:
        run.metrics.mode = args.metrics
    if args.period is not None:
        run.metrics.period = int(args.period)
    run.ensure_valid(need_data=True)

    frames = dict(zip(("train", "val", "test"), load_splits(run)))
    pairs = split_window_pairs(frames[args.split], run)
    report = split_report(params, pairs, run)
    text = report.to_text()
    print(f"split={args.split}")
    print(text, end="")
    if args.out:
        out = _ensure_out_dir(args.out)
        (out / "metrics.txt").write_text(f"split={args.split}\n" + text)
        _write_json(out / "effective_config.json", run.to_dict())
        print(f"wrote {out / 'metrics.txt'}")
    return 0


# ---------------------------------------------------------------------------
# ablate


def cmd_ablate(args: argparse.Namespace) -> int:
    run = load_run_config(args.config, seed=args.seed)
    run.ensure_valid(need_data=True)
    out = _effective_out(args, run)
    _write_json(out / "effective_config.json", run.to_dict())

    rows = []
    for kind in ("wdt", "dwt", "dft"):
        variant = RunConfig(
            model=replace(run.model, transform_kind=kind),
            train=run.train,
            data=run.data,
            metrics=run.metrics,
        )
        variant.ensure_valid(need_data=True)
        kind_out = _ensure_out_dir(str(out / kind))
        print(f"== training variant: {kind}")
        params, _ = run_training(variant, kind_out, quiet=args.quiet)
        _, _, test_frame = load_splits(variant)
        test_pairs = split_window_pairs(test_frame, variant)
        report = split_report(params, test_pairs, variant)
        rows.append((kind, report))

    header = ["kind", "mse", "mae"]
    if run.metrics.mode == "short":
        header += ["smape", "mase", "owa"]
    lines = [",".join(header)]
    for kind, report in rows:
        cells = [kind, repr(report.mse), repr(report.mae)]
        if run.metrics.mode == "short":
            for value in (report.smape, report.mase, report.owa):
                cells.append("undefined" if value is None else repr(value))
        lines.append(",".join(cells))
    table = "\n".join(lines) + "\n"
    (out / "ablation.csv").write_text(table)
    print("test-split metrics by transform:")
    print(table, end="")
    # The gains cancel around each linear band map (model.bias_scales).
    print("wdt and dwt differ only in how the detail biases are scaled (1/g in wdt)")
    print(f"wrote {out / 'ablation.csv'}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args: argparse.Namespace) -> int:
    run = load_run_config(args.config, seed=args.seed)
    run.ensure_valid(need_data=False)
    model = run.model
    dims = {
        "lookback": model.lookback,
        "horizon": model.horizon,
        "channels": model.channels,
        "branches": model.branches,
        "levels": model.levels,
    }
    oversized = {k: v for k, v in dims.items() if v > GRADCHECK_MAX_DIM}
    if oversized:
        listing = ", ".join(f"{k}={v}" for k, v in sorted(oversized.items()))
        raise ConfigError(
            f"gradcheck needs a tiny model (every dimension <= "
            f"{GRADCHECK_MAX_DIM}); too large: {listing}"
        )

    params = init_params(model, seed=model.seed)
    # Batch draws come from a stream offset from the init seed so the two
    # sets of random numbers are unrelated.
    rng = np.random.Generator(np.random.PCG64(model.seed + 1))
    batch = [
        (
            rng.standard_normal((model.lookback, model.channels)),
            rng.standard_normal((model.horizon, model.channels)),
        )
        for _ in range(3)
    ]
    worst = gradient_check(
        params, batch, model, corrupt_block=args.corrupt_block
    )

    lines = []
    overall = 0.0
    for name in sorted(worst):
        err = worst[name]
        overall = max(overall, err)
        status = "pass" if err < GRADCHECK_TOLERANCE else "FAIL"
        lines.append(f"{name} {err:.3e} {status}")
    ok = overall < GRADCHECK_TOLERANCE
    lines.append(
        f"overall max {overall:.3e} tolerance {GRADCHECK_TOLERANCE:.0e} "
        + ("pass" if ok else "FAIL")
    )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        out = _ensure_out_dir(args.out)
        (out / "gradcheck.txt").write_text(text)
        _write_json(out / "effective_config.json", run.to_dict())
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavets",
        description="Wavelet-derivative time series forecasting toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, brief in (
        ("transform", "decompose one channel and export coefficients"),
        ("scalogram", "decompose one channel and export coefficients plus grid"),
    ):
        p = sub.add_parser(name, help=brief)
        p.add_argument("--csv", required=True, help="input series CSV")
        p.add_argument(
            "--channel",
            default="0",
            help="channel name or zero-based index (default 0)",
        )
        p.add_argument("--levels", type=int, default=3, help="decomposition depth")
        p.add_argument("--order", type=int, default=1, help="derivative order")
        p.add_argument(
            "--wavelet",
            default="db1",
            help="wavelet name: db1, bior1.1, or rbio1.1",
        )
        p.add_argument("--out", required=True, help="output directory")
        if name == "transform":
            p.add_argument(
                "--scalogram",
                action="store_true",
                help="also write the time-scale grid",
            )
        p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="train a forecaster from a run config")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--seed", type=int, default=None, help="override both seeds")
    p.add_argument(
        "--out",
        default=None,
        help="output directory (overrides the config's out entry)",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on one split")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON")
    p.add_argument(
        "--config",
        default=None,
        help="run config (default: effective_config.json next to checkpoint)",
    )
    p.add_argument(
        "--split",
        choices=("train", "val", "test"),
        default="test",
        help="which split to score (default test)",
    )
    p.add_argument(
        "--metrics",
        choices=("long", "short"),
        default=None,
        help="override the metric suite from the config",
    )
    p.add_argument(
        "--period",
        type=int,
        default=None,
        help="seasonal period for the short-horizon suite",
    )
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "ablate", help="train wdt, dwt, and dft variants and compare"
    )
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--seed", type=int, default=None, help="override both seeds")
    p.add_argument(
        "--out",
        default=None,
        help="output directory (overrides the config's out entry)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-epoch progress"
    )
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser(
        "gradcheck", help="finite-difference audit of the analytic gradients"
    )
    p.add_argument("--config", required=True, help="JSON run config (tiny model)")
    p.add_argument("--seed", type=int, default=None, help="override both seeds")
    p.add_argument(
        "--corrupt-block",
        default=None,
        help="perturb this block's gradient first (self-test hook)",
    )
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
