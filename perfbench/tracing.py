"""Spans around calls into the program's public functions, taken from outside.

Tracing replaces a function at the module attribute its callers look up
(for example `wavets.train.forward_batch`, the name `gradient_batch`
calls) with a wrapper that records a span: name, start, end, parent span
and the benchmark phase it ran in. Spans stay in memory until the run
ends. A span's self time is its duration minus the time its direct
children cover, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

# (module, attribute, span name). A function imported into several modules
# is wrapped at every site the program or the benchmark calls it through.
SITES = (
    ("data", "load_csv", "data.load_csv"),
    ("cli", "load_csv", "data.load_csv"),
    ("data", "windows", "data.windows"),
    ("cli", "windows", "data.windows"),
    ("data", "window_tensors", "data.window_tensors"),
    ("cli", "window_tensors", "data.window_tensors"),
    ("wavelet", "dwt_level", "wavelet.dwt_level"),
    ("wavelet", "idwt_level", "wavelet.idwt_level"),
    ("wdt", "wdt_forward", "wdt.wdt_forward"),
    ("model", "wdt_forward", "wdt.wdt_forward"),
    ("cli", "wdt_forward", "wdt.wdt_forward"),
    ("wdt", "wdt_inverse", "wdt.wdt_inverse"),
    ("model", "wdt_inverse", "wdt.wdt_inverse"),
    ("wdt", "write_coefficients_csv", "wdt.write_coefficients_csv"),
    ("cli", "write_coefficients_csv", "wdt.write_coefficients_csv"),
    ("wdt", "write_scalogram_csv", "wdt.write_scalogram_csv"),
    ("cli", "write_scalogram_csv", "wdt.write_scalogram_csv"),
    ("model", "forward_batch", "model.forward_batch"),
    ("train", "forward_batch", "model.forward_batch"),
    ("cli", "forward_batch", "model.forward_batch"),
    ("model.Affine", "apply", "model.affine_apply"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("cli", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("cli", "load_checkpoint", "model.load_checkpoint"),
    ("train", "gradient_batch", "train.gradient_batch"),
    ("train", "adam_step", "train.adam_step"),
    ("train", "evaluate_loss", "train.evaluate_loss"),
    ("metrics", "aggregate_report", "metrics.aggregate_report"),
    ("cli", "aggregate_report", "metrics.aggregate_report"),
)

# Reported per-layer metric -> (span name, "s" for self seconds or "calls").
LAYER_METRICS = {
    "data.load_csv_s": ("data.load_csv", "s"),
    "data.windows_s": ("data.windows", "s"),
    "data.window_tensors_s": ("data.window_tensors", "s"),
    "wavelet.dwt_level_s": ("wavelet.dwt_level", "s"),
    "wavelet.dwt_level_calls": ("wavelet.dwt_level", "calls"),
    "wavelet.idwt_level_s": ("wavelet.idwt_level", "s"),
    "wavelet.idwt_level_calls": ("wavelet.idwt_level", "calls"),
    "wdt.wdt_forward_s": ("wdt.wdt_forward", "s"),
    "wdt.wdt_inverse_s": ("wdt.wdt_inverse", "s"),
    "wdt.write_coefficients_csv_s": ("wdt.write_coefficients_csv", "s"),
    "wdt.write_scalogram_csv_s": ("wdt.write_scalogram_csv", "s"),
    "model.forward_batch_s": ("model.forward_batch", "s"),
    "model.affine_apply_s": ("model.affine_apply", "s"),
    "model.affine_apply_calls": ("model.affine_apply", "calls"),
    "model.save_checkpoint_s": ("model.save_checkpoint", "s"),
    "model.load_checkpoint_s": ("model.load_checkpoint", "s"),
    "train.gradient_batch_s": ("train.gradient_batch", "s"),
    "train.adam_step_s": ("train.adam_step", "s"),
    "train.steps": ("train.adam_step", "calls"),
    "train.evaluate_loss_s": ("train.evaluate_loss", "s"),
    "metrics.aggregate_report_s": ("metrics.aggregate_report", "s"),
}


class Tracer:
    """Records spans while installed; `phase` tags each span it records."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, phase]
        self.spans: list[list] = []
        self.phase: tuple[str, int] = ("setup", 0)
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.phase])
            open_spans.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    def install(self, modules, sites=SITES) -> None:
        """Wrap every site in `sites` that exists in this import of the program.

        A site a later version of the program no longer has is skipped, and
        its metric then reads 0.
        """
        for module_name, attr, span in sites:
            owner = modules
            for part in module_name.split("."):
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> dict[tuple[str, int], dict[str, list[float]]]:
        """Per phase, per span name: [self seconds, calls]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, int], dict[str, list[float]]] = {}
        for (name, start, end, _, phase), covered in zip(self.spans, child):
            entry = out.setdefault(phase, {}).setdefault(name, [0.0, 0])
            entry[0] += end - start - covered
            entry[1] += 1
        return out


LAYER_UNITS = {
    metric: "s" if field == "s" else "count" for metric, (_, field) in LAYER_METRICS.items()
}


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Each layer metric as median-per-set-up plus median-per-operation.

    Set-up phases (import and ingest) and operation phases (the timed
    closed-loop calls) of traced cycles 0..cycles-1 are summarised
    separately, each as the median over its phases, so the value does not
    depend on how many cycles fit in the run.
    """
    per_phase = tracer.self_times()
    out = {}
    for metric, (span, field) in LAYER_METRICS.items():
        col = 0 if field == "s" else 1
        total = 0.0
        for kind in ("setup", "op"):
            values = [
                per_phase.get((kind, k), {}).get(span, [0.0, 0])[col] for k in range(cycles)
            ]
            total += statistics.median(values) if values else 0.0
        out[metric] = total if field == "s" else int(round(total))
    return out
