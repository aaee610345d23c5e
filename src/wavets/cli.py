"""Command-line interface.

Subcommands:

* ``transform``   decompose one channel of a CSV and export coefficients
* ``scalogram``   like ``transform`` but also writes the time-scale grid
* ``train``       fit a forecaster from a JSON run config
* ``eval``        score a saved checkpoint on a chosen split
* ``ablate``      train all three transform variants and tabulate test metrics
* ``gradcheck``   compare analytic gradients against finite differences

Exit codes: 0 success, 1 gradcheck tolerance failure, 2 invalid
configuration, an unwritable output or no memory left, 3 unusable data,
4 numerical failure (a non-finite training loss, forecast or metric).
A command that exits 2, 3 or 4 removes each directory it created that is
still empty. Each command prints its report in one call, after its last
file is written, so a run that exits 2, 3 or 4 leaves stdout empty.
ablate prints one block per variant once its files are written, which a
later variant's failure leaves printed, and its table last.

Every report file takes its metric names and cells from metrics.py
(MetricsReport.scores, key_value_text); this module names no metric.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import TRANSFORM_KINDS, ModelConfig, RunConfig, load_run_config, power_of_two_text
from .data import SeriesFrame, chronological_split, load_csv, standardize, windows, write_json
from .errors import ConfigError, DataError, NumericalError
from .metrics import MetricsReport, aggregate_report, format_value, key_value_text
from .model import (
    check_windows,
    init_params,
    load_checkpoint,
    operator_chunks,
    save_checkpoint,
)
from .train import gradient_check, train
from .wavelet import SUPPORTED_WAVELETS, make_filterbank
from .wdt import gain_bound_problem, wdt_forward, write_coefficients_csv, write_scalogram_csv

GRADCHECK_TOLERANCE = 1e-5
GRADCHECK_MAX_DIM = 16


# ---------------------------------------------------------------------------
# shared pipeline steps


def load_splits(run: RunConfig) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame]:
    """Load the CSV, check the channel count, cut it at the rows
    run.data.split.borders gives and, when run.data.standardize is on,
    z-score all three parts with the training part's statistics."""
    frame = load_csv(run.data.csv)
    if frame.channels != run.model.channels:
        raise ConfigError(
            f"model.channels is {run.model.channels} but {run.data.csv} "
            f"has {frame.channels} channels"
        )
    parts = chronological_split(frame, run.data.split.borders(frame.length))
    return standardize(parts) if run.data.standardize else parts


def split_window_pairs(frame: SeriesFrame, run: RunConfig) -> np.ndarray:
    """The split's (W, L+tau, C) window spans, a read-only view of it."""
    return windows(
        frame,
        lookback=run.model.lookback,
        horizon=run.model.horizon,
        stride=run.data.stride,
    )


def forecast_predictions(
    params: np.ndarray,
    spans: np.ndarray,
    config: ModelConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forecast the tail of every window span with the compiled operator.

    Returns (inputs, targets, predictions) shaped (W, L, C) / (W, H, C) /
    (W, H, C); inputs and targets are views of the spans, and the
    predictions one C-contiguous array that every chunk is written into.
    Only the operator's horizon columns are compiled and applied
    (model.operator_chunks).
    """
    spans = check_windows(spans, config, config.lookback + config.horizon)
    preds = np.empty((len(spans), config.horizon, config.channels))
    lo = 0
    for part, out in operator_chunks(params, spans, config, config.lookback):
        preds[lo : lo + len(part)] = out
        lo += len(part)
    return spans[:, : config.lookback], spans[:, config.lookback :], preds


def split_report(
    params: np.ndarray,
    spans: np.ndarray,
    run: RunConfig,
) -> MetricsReport:
    """Metrics of the forecasts over window spans; a non-finite forecast or
    metric raises NumericalError instead of reaching a metric file."""
    xs, ys, preds = forecast_predictions(params, spans, run.model)
    if not np.all(np.isfinite(preds)):
        raise NumericalError("the model produced a non-finite forecast")
    report = aggregate_report(
        xs, ys, preds, mode=run.metrics.mode, period=run.metrics.period
    )
    for name, value in report.scores():
        if value is not None and not math.isfinite(value):
            raise NumericalError(f"forecast {name} is non-finite ({value})")
    return report


# ---------------------------------------------------------------------------
# output helpers


def _claim_out(
    args: argparse.Namespace, run: RunConfig | None = None, subdirs: tuple[str, ...] = ()
) -> Path | None:
    """Create --out, else the run config's out entry, and its subdirs.

    Every command calls it once its inputs pass their checks, data CSVs
    included (train, eval and ablate read and window their splits first),
    and before it writes or prints anything, so a rejected input leaves no
    directory and prints no report. Each directory it creates, parents
    included, is appended to args.created, outermost first, so that main
    can remove the ones still empty when the command fails later. Without
    a run (eval, gradcheck) --out is optional and flag-only. An explicit
    empty --out names no directory, so it is rejected, not read as absent.
    """
    if args.out == "":
        raise ConfigError("--out is empty; pass an output directory")
    target = args.out or (run.out if run is not None else None)
    if not target:
        if run is None:
            return None
        raise ConfigError("no output directory: pass --out or set 'out' in the config")
    out = Path(target)
    for path in [out] + [out / name for name in subdirs]:
        try:
            # Recorded before mkdir, so that one failing partway is undone too.
            missing = [level for level in (path, *path.parents) if not level.exists()]
            args.created += reversed(missing)
            path.mkdir(parents=True, exist_ok=True)
        # A file at or above the path, or a path the OS cannot encode, is a bad --out.
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return out


def _load_run(args: argparse.Namespace, need_data: bool) -> RunConfig:
    """The --config run under --seed, checked."""
    run = load_run_config(args.config)
    if args.seed is not None:
        # One flag reruns the whole pipeline under a different draw.
        run.model.seed = run.train.seed = args.seed
    run.ensure_valid(need_data=need_data)
    return run


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
    if problem := gain_bound_problem(args.order, args.levels):
        raise ConfigError(problem)
    if args.wavelet not in SUPPORTED_WAVELETS:
        raise ConfigError(
            f"--wavelet must be one of {SUPPORTED_WAVELETS}, got {args.wavelet!r}"
        )
    frame = load_csv(args.csv)
    idx = _parse_channel(frame, args.channel)
    series = frame.values[:, idx]
    # Shifts, not 2**levels: a huge levels gives 0 without building the power.
    usable = series.shape[0] >> args.levels << args.levels
    if usable == 0:
        raise ConfigError(
            f"series has {series.shape[0]} samples; need at least "
            f"{power_of_two_text(args.levels)} for {args.levels} levels"
        )
    out = _claim_out(args)
    lines = []
    if usable != series.shape[0]:
        lines.append(
            f"truncating {series.shape[0]} samples to {usable} "
            f"(multiple of {2**args.levels})"
        )
    fb = make_filterbank(args.wavelet)
    pyramid = wdt_forward(series[:usable], fb, levels=args.levels, order=args.order)
    coeff_path = out / "coefficients.csv"
    write_coefficients_csv(pyramid, str(coeff_path))
    lines.append(f"wrote {coeff_path}")
    if args.scalogram:
        grid_path = out / "scalogram.csv"
        write_scalogram_csv(pyramid, str(grid_path))
        lines.append(f"wrote {grid_path}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# train


def run_training(
    run: RunConfig,
    spans: tuple[np.ndarray, np.ndarray],
    out: Path,
) -> tuple[np.ndarray, str]:
    """Train one model on the (train, val) window spans of
    ``load_splits(run)``'s splits and write all artifacts to ``out``.

    Returns the best parameters and the report to print: one line per
    epoch, then the stop reason, the wall time and ``out``. Output files
    carry no wall-clock timings, so reruns with identical inputs are
    byte-identical; timings go to the report only.
    """
    started = time.perf_counter()
    params, history = train(run.model, *spans, run.train)
    save_checkpoint(params, run.model, str(out / "checkpoint.bin"))
    write_json(out / "effective_config.json", run.to_dict())
    write_json(
        out / "run_meta.json",
        {"version": 1, "config": run.to_dict(), "history": history.to_doc()},
    )

    reports = {
        split: split_report(params, part, run) for split, part in zip(("train", "val"), spans)
    }
    summary = [
        ("best_epoch", history.best_epoch),
        ("best_val_loss", history.best_val_loss),
        ("epochs_run", len(history.epochs)),
        ("stopped_reason", history.stopped_reason),
    ]
    for split, report in reports.items():
        (out / f"metrics_{split}.txt").write_text(report.to_text())
        summary += [(f"{split}_forecast_{name}", value) for name, value in report.scores()[:2]]
    (out / "summary.txt").write_text(key_value_text(summary))
    lines = [
        f"epoch {rec.epoch:3d}  train {rec.train_loss:.6f}  "
        f"val {rec.val_loss:.6f}  ({rec.seconds:.2f}s)"
        for rec in history.epochs
    ] + [
        f"stopped: {history.stopped_reason} (best epoch {history.best_epoch})",
        f"training wall time {time.perf_counter() - started:.1f}s",
        f"artifacts in {out}",
    ]
    return params, "\n".join(lines) + "\n"


def cmd_train(args: argparse.Namespace) -> int:
    run = _load_run(args, need_data=True)
    train_frame, val_frame, _ = load_splits(run)
    spans = (split_window_pairs(train_frame, run), split_window_pairs(val_frame, run))
    _, report = run_training(run, spans, _claim_out(args, run))
    print(report, end="")
    return 0


# ---------------------------------------------------------------------------
# eval


def _check_config_matches_checkpoint(
    run_model: ModelConfig, ckpt_model: ModelConfig
) -> None:
    ckpt_shape = {**ckpt_model.sizes(), "transform_kind": ckpt_model.transform_kind}
    for name, b in ckpt_shape.items():
        a = getattr(run_model, name)
        if a != b:
            raise ConfigError(
                f"config {name} is {a} but checkpoint was trained with {b}"
            )


def cmd_eval(args: argparse.Namespace) -> int:
    params, ckpt_model = load_checkpoint(args.checkpoint)
    config_path = args.config
    if config_path is None:
        config_path = str(Path(args.checkpoint).resolve().parent / "effective_config.json")
    run = load_run_config(config_path)
    if args.metrics is not None:
        run.metrics.mode = args.metrics
    if args.period is not None:
        run.metrics.period = args.period
    run.ensure_valid(need_data=True)
    _check_config_matches_checkpoint(run.model, ckpt_model)
    # The checkpoint's model config is authoritative for the forward pass.
    run.model = ckpt_model
    frames = dict(zip(("train", "val", "test"), load_splits(run)))
    spans = split_window_pairs(frames[args.split], run)
    out = _claim_out(args)

    text = key_value_text([("split", args.split)]) + split_report(params, spans, run).to_text()
    if out is not None:
        (out / "metrics.txt").write_text(text)
        write_json(out / "effective_config.json", run.to_dict())
        text += f"wrote {out / 'metrics.txt'}\n"
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# ablate


def cmd_ablate(args: argparse.Namespace) -> int:
    run = _load_run(args, need_data=True)
    variants = {
        kind: replace(run, model=replace(run.model, transform_kind=kind))
        for kind in TRANSFORM_KINDS
    }
    for variant in variants.values():
        variant.ensure_valid(need_data=True)
    # The variants differ only in transform_kind, which the splits and
    # their windows do not depend on, so both are made once for all three.
    train_spans, val_spans, test_spans = (
        split_window_pairs(frame, run) for frame in load_splits(run)
    )
    out = _claim_out(args, run, subdirs=tuple(variants))
    write_json(out / "effective_config.json", run.to_dict())

    rows = []
    for kind, variant in variants.items():
        params, report = run_training(variant, (train_spans, val_spans), out / kind)
        print(f"== training variant: {kind}\n" + ("" if args.quiet else report), end="")
        scores = split_report(params, test_spans, variant).scores()
        del params  # so that the next variant trains without them
        if not rows:
            rows.append(["kind"] + [name for name, _ in scores])
        rows.append([kind] + [format_value(value) for _, value in scores])
    table = "".join(",".join(row) + "\n" for row in rows)
    (out / "ablation.csv").write_text(table)
    # The gains cancel around each linear band map (model.bias_scales).
    print(
        f"test-split metrics by transform:\n{table}"
        "wdt and dwt differ only in how the detail biases are scaled (1/g in wdt)\n"
        f"wrote {out / 'ablation.csv'}"
    )
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args: argparse.Namespace) -> int:
    run = _load_run(args, need_data=False)
    model = run.model
    oversized = {k: v for k, v in model.sizes().items() if v > GRADCHECK_MAX_DIM}
    if oversized:
        listing = ", ".join(f"{k}={v}" for k, v in sorted(oversized.items()))
        raise ConfigError(
            f"gradcheck needs a tiny model (every dimension <= "
            f"{GRADCHECK_MAX_DIM}); too large: {listing}"
        )
    out = _claim_out(args)

    params = init_params(model, seed=model.seed)
    # Batch draws come from a stream offset from the init seed so the two
    # sets of random numbers are unrelated.
    rng = np.random.Generator(np.random.PCG64(model.seed + 1))
    spans = rng.standard_normal((3, model.lookback + model.horizon, model.channels))
    worst = gradient_check(params, spans, model)

    lines = [
        f"{name} {err:.3e} {'pass' if err < GRADCHECK_TOLERANCE else 'FAIL'}"
        for name, err in sorted(worst.items())
    ]
    # np.max, unlike max, keeps a NaN error, which fails.
    overall = float(np.max(list(worst.values())))
    ok = overall < GRADCHECK_TOLERANCE
    lines.append(
        f"overall max {overall:.3e} tolerance {GRADCHECK_TOLERANCE:.0e} "
        + ("pass" if ok else "FAIL")
    )
    text = "\n".join(lines) + "\n"
    if out is not None:
        (out / "gradcheck.txt").write_text(text)
        write_json(out / "effective_config.json", run.to_dict())
    print(text, end="")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser / entry point


# --out's help by how _claim_out treats it: required by the parser,
# falling back on the run config's out entry, or optional and flag-only.
_OUT_HELP = {
    "required": "output directory",
    "config": "output directory (overrides the config's out entry)",
    "optional": "optional output directory",
}


def _add_out(p: argparse.ArgumentParser, rule: str) -> None:
    p.add_argument("--out", required=rule == "required", help=_OUT_HELP[rule])


def _add_run_parser(sub, name: str, brief: str, config_help: str = "JSON run config"):
    """A subcommand that reads its run through _load_run."""
    p = sub.add_parser(name, help=brief, allow_abbrev=False)
    p.add_argument("--config", required=True, help=config_help)
    p.add_argument("--seed", type=int, default=None, help="override both seeds")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavets",
        description="Wavelet-derivative time series forecasting toolkit.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, brief in (
        ("transform", "decompose one channel and export coefficients"),
        ("scalogram", "decompose one channel and export coefficients plus grid"),
    ):
        p = sub.add_parser(name, help=brief, allow_abbrev=False)
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
        _add_out(p, "required")
        if name == "transform":
            p.add_argument(
                "--scalogram",
                action="store_true",
                help="also write the time-scale grid",
            )
        p.set_defaults(func=cmd_transform, scalogram=name == "scalogram")

    p = _add_run_parser(sub, "train", "train a forecaster from a run config")
    _add_out(p, "config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on one split", allow_abbrev=False)
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
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
    _add_out(p, "optional")
    p.set_defaults(func=cmd_eval)

    p = _add_run_parser(sub, "ablate", "train wdt, dwt, and dft variants and compare")
    _add_out(p, "config")
    p.add_argument(
        "--quiet", action="store_true", help="leave out each variant's epoch lines"
    )
    p.set_defaults(func=cmd_ablate)

    p = _add_run_parser(
        sub,
        "gradcheck",
        "finite-difference audit of the analytic gradients",
        config_help="JSON run config (tiny model)",
    )
    _add_out(p, "optional")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.created = []
    try:
        # Every output is checked for finiteness and a failure exits 4 with
        # one message, so numpy's overflow warnings would only repeat it.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        code, message = 2, f"config error: {exc}"
    except DataError as exc:
        code, message = 3, f"data error: {exc}"
    except NumericalError as exc:
        code, message = 4, f"numerical error: {exc}"
    # Every read turns its OSError into ConfigError or DataError, so one that
    # gets here is a failed artifact write, which exits like a bad --out.
    except OSError as exc:
        code, message = 2, f"config error: cannot write output: {exc}"
    # Past the memory the process may use (NumPy's _ArrayMemoryError is a
    # MemoryError): the config asks for more than this run can hold.
    except MemoryError as exc:
        code, message = 2, f"config error: out of memory: {str(exc) or 'allocation failed'}"
    print(message, file=sys.stderr)
    # rmdir removes only an empty directory: one holding an artifact stays,
    # and one the file system cannot encode (a ValueError) was never made.
    for path in reversed(args.created):
        with contextlib.suppress(OSError, ValueError):
            path.rmdir()
    return code


if __name__ == "__main__":
    sys.exit(main())
