"""The three closed-loop workloads: one caller that waits for each call.

Each workload writes its inputs from the seed in `generate` and computes
check references in `prepare` (both untimed). The run then repeats a
cycle of `setup` (ingest, timed as set-up) and `op` (the timed
operation) for its seconds. `op` returns a record of plain numbers and
the outputs `check` inspects; `corrupt` damages those outputs for the
negative control.

Checks hold for any correct implementation, not only for today's floats:
sums may be reordered, so only values that a reorder cannot change are
compared bit for bit.
"""

from __future__ import annotations

import math
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from inputs import Shape


def _mb(*paths: Path) -> float:
    return sum(p.stat().st_size for p in paths) / 1e6


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class TrainWdt:
    """`wavets train` on the wdt model: the public training loop for a fixed
    budget of one epoch, then `save_checkpoint`."""

    name = "train_wdt"
    # Report name -> (record key, unit).
    named = {
        "train_windows_per_s": ("rate", "windows/s"),
        "val_loss": ("val_loss", "loss"),
        "checkpoint_save_s": ("io_s", "s"),
        "checkpoint_mb": ("mb", "MB"),
    }

    def __init__(self, shape: Shape, seed: int, work: Path) -> None:
        self.shape = shape
        self.seed = seed
        self.work = work
        self.checkpoint = work / "checkpoint.json"

    def generate(self, m) -> None:
        self.config = inputs.write_frame_inputs(self.work, self.shape, "wdt", self.seed)

    def setup(self, m) -> dict:
        run = m.cli.load_run_config(str(self.config))
        train_frame, val_frame, _ = m.cli.load_splits(run)
        train_pairs = m.cli.split_window_pairs(train_frame, run)
        val_pairs = m.cli.split_window_pairs(val_frame, run)
        s = self.shape
        return {
            "run": run,
            "counts": (len(train_pairs), len(val_pairs)),
            "train": train_pairs[:: s.train_every][: s.train_windows],
            "val": val_pairs[:: s.val_every],
        }

    def prepare(self, m) -> None:
        state = self.setup(m)
        run = state["run"]
        init = m.model.init_params(run.model, run.model.seed)
        self.init_loss = m.train.evaluate_loss(init, state["val"], run.model)

    def op(self, m, state: dict) -> tuple[dict, dict]:
        run = state["run"]
        t0 = perf_counter()
        params, history = m.train.train(run.model, state["train"], state["val"], run.train)
        t1 = perf_counter()
        m.model.save_checkpoint(params, run.model, str(self.checkpoint))
        t2 = perf_counter()
        record = {
            "items": len(state["train"]) * len(history.epochs),
            "busy_s": t1 - t0,
            "io_s": t2 - t1,
            "mb": _mb(self.checkpoint),
            "val_loss": history.best_val_loss,
        }
        outputs = {
            "train_losses": [e.train_loss for e in history.epochs],
            "val_loss": history.best_val_loss,
        }
        return record, outputs

    def check(self, state: dict, out: dict) -> list[str]:
        s = self.shape
        problems = []
        want = (s.windows_in(s.split_rows[0]), s.windows_in(s.split_rows[1]))
        if state["counts"] != want:
            problems.append(f"train/val windows {state['counts']}, expected {want}")
        # The epoch loss is the mean of the batch losses: finite iff all are.
        if not out["train_losses"] or not all(map(math.isfinite, out["train_losses"])):
            problems.append(f"non-finite training loss {out['train_losses']}")
        if not out["val_loss"] < self.init_loss:
            problems.append(f"val_loss {out['val_loss']} not below init loss {self.init_loss}")
        return problems

    def corrupt(self, out: dict) -> None:
        out["val_loss"] = float("nan")


class EvalDft:
    """`wavets eval` on the dft model: `load_checkpoint`, then forecasts and
    metrics over the whole test split."""

    name = "eval_dft"
    named = {
        "eval_windows_per_s": ("rate", "windows/s"),
        "checkpoint_load_s": ("io_s", "s"),
        "checkpoint_mb": ("mb", "MB"),
    }

    def __init__(self, shape: Shape, seed: int, work: Path) -> None:
        self.shape = shape
        self.seed = seed
        self.work = work
        self.checkpoint = work / "checkpoint.json"

    def generate(self, m) -> None:
        self.config = inputs.write_frame_inputs(self.work, self.shape, "dft", self.seed)
        # The seeded checkpoint, written by the program's own writer.
        run = m.cli.load_run_config(str(self.config))
        self.params = m.model.init_params(run.model, run.model.seed)
        m.model.save_checkpoint(self.params, run.model, str(self.checkpoint))

    def setup(self, m) -> dict:
        run = m.cli.load_run_config(str(self.config))
        _, _, test_frame = m.cli.load_splits(run)
        pairs = m.cli.split_window_pairs(test_frame, run)
        return {"run": run, "pairs": pairs, "test_values": test_frame.values}

    def prepare(self, m) -> None:
        s = self.shape
        state = self.setup(m)
        # Predictions from the parameters as they were before the save.
        _, _, self.reference = m.cli.forecast_predictions(
            self.params, state["pairs"], state["run"].model
        )
        # Targets cut straight from the standardized test rows.
        spans = np.lib.stride_tricks.sliding_window_view(
            state["test_values"], s.lookback + s.horizon, axis=0
        )
        self.truth = spans.transpose(0, 2, 1)[:, s.lookback :, :]

    def op(self, m, state: dict) -> tuple[dict, dict]:
        t0 = perf_counter()
        params, config = m.model.load_checkpoint(str(self.checkpoint))
        t1 = perf_counter()
        xs, ys, preds = m.cli.forecast_predictions(params, state["pairs"], config)
        report = m.metrics.aggregate_report(xs, ys, preds, mode="long")
        t2 = perf_counter()
        record = {
            "items": len(state["pairs"]),
            "busy_s": t2 - t1,
            "io_s": t1 - t0,
            "mb": _mb(self.checkpoint),
        }
        return record, {"ys": ys, "preds": preds, "mse": report.mse, "mae": report.mae}

    def check(self, state: dict, out: dict) -> list[str]:
        s = self.shape
        problems = []
        want = s.windows_in(s.split_rows[2])
        if len(state["pairs"]) != want:
            problems.append(f"{len(state['pairs'])} test windows, expected {want}")
        truth, preds = self.truth, out["preds"]
        if not np.array_equal(out["ys"], truth):
            problems.append("forecast targets differ from the test rows")
        if not np.array_equal(preds, self.reference):
            problems.append("predictions after reload differ from those before the save")
        if not (math.isfinite(out["mse"]) and math.isfinite(out["mae"])):
            problems.append(f"non-finite metrics mse={out['mse']} mae={out['mae']}")
        mse = float(np.mean((truth - preds) ** 2))
        mae = float(np.mean(np.abs(truth - preds)))
        if not (_close(out["mse"], mse, 1e-12) and _close(out["mae"], mae, 1e-12)):
            problems.append(
                f"mse/mae {out['mse']}/{out['mae']} disagree with NumPy {mse}/{mae}"
            )
        return problems

    def corrupt(self, out: dict) -> None:
        out["preds"] = out["preds"].copy()
        out["preds"][0, 0, 0] += 1e-3


class TransformLong:
    """`wavets transform`/`scalogram` on one long series: analysis, synthesis,
    energy report and both CSV exports, for every derivative order."""

    name = "transform_long"
    # `wavets transform` defaults to three levels; orders 0..2 are the plain
    # DWT and the orders of the model's two branches.
    levels = 3
    orders = (0, 1, 2)
    named = {
        "transform_samples_per_s": ("rate", "samples/s"),
        "export_s": ("io_s", "s"),
        "export_mb": ("mb", "MB"),
    }

    def __init__(self, shape: Shape, seed: int, work: Path) -> None:
        self.shape = shape
        self.seed = seed
        self.work = work

    def generate(self, m) -> None:
        self.csv = inputs.write_long_series(self.work, self.shape, self.seed)

    def setup(self, m) -> dict:
        frame = m.data.load_csv(str(self.csv))
        series = frame.values[:, 0]
        block = 2**self.levels
        usable = (series.shape[0] // block) * block
        return {"series": series[:usable], "fb": m.wavelet.make_filterbank("db1")}

    def prepare(self, m) -> None:
        pass

    def _paths(self, order: int) -> tuple[Path, Path]:
        return (
            self.work / f"coefficients_{order}.csv",
            self.work / f"scalogram_{order}.csv",
        )

    def op(self, m, state: dict) -> tuple[dict, dict]:
        series, fb = state["series"], state["fb"]
        recs, energies = [], []
        io_s = 0.0
        t0 = perf_counter()
        for order in self.orders:
            pyramid = m.wdt.wdt_forward(series, fb, self.levels, order)
            recs.append(m.wdt.wdt_inverse(pyramid, fb))
            energy = m.wdt.energy_report(series, pyramid)
            energies.append((energy.signal_energy, energy.coeff_energy_unscaled))
            coeffs, grid = self._paths(order)
            w0 = perf_counter()
            m.wdt.write_coefficients_csv(pyramid, str(coeffs))
            m.wdt.write_scalogram_csv(pyramid, str(grid))
            io_s += perf_counter() - w0
        busy = perf_counter() - t0
        paths = [p for order in self.orders for p in self._paths(order)]
        record = {
            "items": series.shape[0] * len(self.orders),
            "busy_s": busy,
            "io_s": io_s,
            "mb": _mb(*paths),
        }
        return record, {"recs": recs, "energies": energies}

    def check(self, state: dict, out: dict) -> list[str]:
        series = state["series"]
        n = series.shape[0]
        problems = []
        for order, rec, (signal, coeffs) in zip(self.orders, out["recs"], out["energies"]):
            err = float(np.max(np.abs(rec - series)))
            if not err <= 1e-9:
                problems.append(f"order {order}: round trip error {err}")
            if not _close(coeffs, signal, 1e-9):
                problems.append(f"order {order}: energy {coeffs} vs signal {signal}")
            coeff_path, grid_path = self._paths(order)
            rows = coeff_path.read_bytes().count(b"\n")
            if rows != n + 1:
                problems.append(f"order {order}: {rows} coefficient rows, expected {n + 1}")
            with grid_path.open("rb") as fh:
                fields = fh.readline().count(b",") + 1
                rows = 1 + sum(1 for _ in fh)
            if rows != self.levels + 2 or fields != n + 1:
                problems.append(
                    f"order {order}: scalogram {rows} rows x {fields} fields, "
                    f"expected {self.levels + 2} x {n + 1}"
                )
        return problems

    def corrupt(self, out: dict) -> None:
        out["recs"][0] = out["recs"][0] + 1e-6


WORKLOADS = {w.name: w for w in (TrainWdt, EvalDft, TransformLong)}
