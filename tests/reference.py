"""Independent reference implementations used as test oracles.

Everything here is written from closed forms, not by calling the package,
so agreement is meaningful. The Haar analysis operator is materialized as
an explicit orthonormal basis matrix: the coefficient at detail level l,
position j is the inner product of the signal with a row that is
+2^(-l/2) on the first half of the block [j*2^l, (j+1)*2^l) and -2^(-l/2)
on the second half; the approximation row at depth K is the constant
2^(-K/2) on its block of length 2^K.

The short-horizon suite's loop is written from the displayed formulas
too: one series at a time, each with its own seasonal-naive reference.

The per-branch forecaster and the chunked forward loops at the end are
the exceptions. The chunked loops run model.forward_batch on each chunk
of windows: the uncompiled model that cli.forecast_predictions and
train.evaluate_loss, which apply the compiled operator, are compared
with. The per-branch forecaster calls the package's transforms to run
the model as the paper states it, one branch at a time with the
derivative gains applied and divided back out, so the single-branch-axis
model can be compared with it bit for bit. It reads the band blocks by
name through model.param_blocks and takes branch n's map as columns
[n*m_out, (n+1)*m_out) of each. It writes its own maps and their
weight and bias gradients on channel rows. Its subject is the branch
axis, so it reuses the package's instance normalization,
model._normalize_rows, which tests/test_model.py checks by hand, and
the package's irfft adjoint, model._irfft_adjoint, which the gradient
checks cover separately.

The CSV loader at the end is the one exception of another kind: it is
the package's own per-cell loader as it stood before the one-pass parse,
copied verbatim, so data.load_csv can be checked against it outcome for
outcome: the same values bit for bit, or the same error message. The
timestamp check it calls is the package's own, which the one-pass parse
left as it was.
"""

import csv
import math

import numpy as np

from wavets.data import SeriesFrame, _timestamps_strictly_increasing
from wavets.errors import DataError
from wavets.model import _irfft_adjoint, _normalize_rows, forward_batch, param_blocks
from wavets.wavelet import dwt_multi, make_filterbank
from wavets.wdt import DerivativePyramid, level_gains, wdt_forward, wdt_inverse


def haar_detail_rows(t: int, level: int) -> np.ndarray:
    """All detail-band basis rows for one level, shape (t/2^level, t)."""
    block = 2**level
    count = t // block
    rows = np.zeros((count, t))
    amp = 2.0 ** (-level / 2.0)
    for j in range(count):
        rows[j, j * block : j * block + block // 2] = amp
        rows[j, j * block + block // 2 : (j + 1) * block] = -amp
    return rows


def haar_approx_rows(t: int, levels: int) -> np.ndarray:
    """Approximation basis rows at depth K, shape (t/2^K, t)."""
    block = 2**levels
    count = t // block
    rows = np.zeros((count, t))
    for j in range(count):
        rows[j, j * block : (j + 1) * block] = 2.0 ** (-levels / 2.0)
    return rows


def haar_coeffs(signal: np.ndarray, levels: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Multi-level Haar coefficients via the basis matrix: (approx, details).

    details[0] is the finest band, matching the package's pyramid layout.
    """
    signal = np.asarray(signal, dtype=np.float64)
    t = signal.shape[-1]
    approx = haar_approx_rows(t, levels) @ signal
    details = [haar_detail_rows(t, lv) @ signal for lv in range(1, levels + 1)]
    return approx, details


def haar_synthesis(
    approx: np.ndarray, details: list[np.ndarray], t: int
) -> np.ndarray:
    """Rebuild the signal as the transpose action of the same basis rows."""
    levels = len(details)
    out = haar_approx_rows(t, levels).T @ approx
    for lv, det in enumerate(details, start=1):
        out = out + haar_detail_rows(t, lv).T @ det
    return out


def affine_apply_slices(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ weight + bias, one (window, channel) slice at a time.

    Each output entry is the explicit sum over input positions, so the
    reference shares no reshape or batched product with the package.
    """
    x = np.asarray(x, dtype=np.float64)
    m_in, m_out = weight.shape
    out = np.empty(x.shape[:-1] + (m_out,))
    for idx in np.ndindex(x.shape[:-1]):
        vec = x[idx]
        for j in range(m_out):
            out[idx + (j,)] = sum(vec[k] * weight[k, j] for k in range(m_in)) + bias[j]
    return out


def affine_grads_slices(
    inp: np.ndarray, gout: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(weight, bias) gradients of sum(gout * (inp @ W + b)): one outer
    product and one bias term per (window, channel) slice, summed."""
    inp = np.asarray(inp, dtype=np.float64)
    gout = np.asarray(gout, dtype=np.float64)
    dweight = np.zeros((inp.shape[-1], gout.shape[-1]))
    dbias = np.zeros(gout.shape[-1])
    for idx in np.ndindex(inp.shape[:-1]):
        dweight += np.outer(inp[idx], gout[idx])
        dbias += gout[idx]
    return dweight, dbias


def affine_input_grad_slices(weight: np.ndarray, gout: np.ndarray) -> np.ndarray:
    """Gradient of sum(gout * (x @ W + b)) in x, one slice at a time:
    d x[k] = sum_j W[k, j] * gout[j]."""
    gout = np.asarray(gout, dtype=np.float64)
    m_in, m_out = weight.shape
    out = np.empty(gout.shape[:-1] + (m_in,))
    for idx in np.ndindex(gout.shape[:-1]):
        vec = gout[idx]
        for k in range(m_in):
            out[idx + (k,)] = sum(weight[k, j] * vec[j] for j in range(m_out))
    return out


def blocks_by_name(params: np.ndarray, config) -> dict:
    """{name: (weight view, bias view)} of a parameter-shaped vector."""
    return {name: (w, b) for name, w, b in param_blocks(params, config)}


def branch_maps(blocks: dict, config, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Branch n's (0-based) (weight, bias) views, one per band in the order
    its bands are read: columns [n*m_out, (n+1)*m_out) of the band's block."""
    if config.transform_kind == "dft":
        names = ["fru_real", "fru_imag"]
    else:
        names = ["fru_ll"] + [f"fru_lh[level{lv}]" for lv in range(1, config.levels + 1)]
    maps = []
    for name in names:
        weight, bias = blocks[name]
        m_out = weight.shape[1] // config.branches
        cols = slice(n * m_out, (n + 1) * m_out)
        maps.append((weight[:, cols], bias[cols]))
    return maps


def per_branch_forward(xs, params: np.ndarray, config):
    """The forecaster one branch at a time; returns (output, cache).

    Every step runs on the (B*C, L) channel rows of model._normalize_rows.
    wdt/dwt branch n: wdt_forward of order n, the branch's per-band maps
    on the gain-scaled bands, wdt_inverse at length L+tau. dft branch n:
    rfft, real and imaginary maps, irfft at L+tau. The branch outputs are
    concatenated along time and projected, then denormalized; the cache
    holds the (B*C, 1) std of model._normalize_rows.
    """
    blocks = blocks_by_name(params, config)
    rows, mean, std = _normalize_rows(xs, config)
    total = config.lookback + config.horizon
    fb = make_filterbank("db1")
    zs, branches = [], []
    for n, order in enumerate(config.effective_orders()):
        maps = branch_maps(blocks, config, n)
        if config.transform_kind == "dft":
            spectrum = np.fft.rfft(rows, axis=-1)
            bands = [spectrum.real, spectrum.imag]
            re_out, im_out = (b @ w + c for (w, c), b in zip(maps, bands))
            z = np.fft.irfft(re_out + 1j * im_out, n=total, axis=-1)
        else:
            bands = wdt_forward(rows, fb, config.levels, order).bands
            out = [b @ w + c for (w, c), b in zip(maps, bands)]
            z = wdt_inverse(DerivativePyramid(order=order, bands=out), fb)
        zs.append(z)
        branches.append((order, bands))
    zcat = np.concatenate(zs, axis=-1)
    proj_weight, proj_bias = blocks["projection"]
    out = (zcat @ proj_weight + proj_bias) * std + mean
    out = out.reshape(-1, config.channels, total).transpose(0, 2, 1)
    return out, {"std": std, "zcat": zcat, "branches": branches}


def per_branch_gradients(params: np.ndarray, spans, config):
    """Batch-mean joint-loss gradients of per_branch_forward over window
    spans, one branch at a time; returns (gradient vector, loss).

    Each map x @ W + b on channel rows has the weight gradient x.T @ g
    and the bias gradient g.sum(axis=0) for an output gradient g. The
    adjoint of a wdt branch's synthesis is the analysis cascade with each
    detail band divided by its gain, matching the gain-scaled band the
    branch's map read.
    """
    out, cache = per_branch_forward(spans[:, : config.lookback], params, config)
    residual = out.transpose(0, 2, 1) - spans.transpose(0, 2, 1)
    total = config.lookback + config.horizon
    dproj = (2.0 / residual.size) * residual.reshape(-1, total) * cache["std"]
    grads = np.zeros_like(params)
    blocks = blocks_by_name(grads, config)

    def store(weight_bias, inp, gout):
        weight, bias = weight_bias
        weight[...], bias[...] = inp.T @ gout, gout.sum(axis=0)

    store(blocks["projection"], cache["zcat"], dproj)
    dzcat = dproj @ blocks_by_name(params, config)["projection"][0].T
    fb = make_filterbank("db1")
    for n, (order, bands) in enumerate(cache["branches"]):
        dz = dzcat[:, n * total : (n + 1) * total]
        maps = branch_maps(blocks, config, n)
        if config.transform_kind == "dft":
            for wb, inp, g in zip(maps, bands, _irfft_adjoint(dz, total)):
                store(wb, inp, g)
        else:
            gains = [1.0] + level_gains(config.levels, order)
            for wb, inp, g, gain in zip(maps, bands, dwt_multi(dz, fb, config.levels), gains):
                store(wb, inp, g / gain)
    return grads, float(np.mean(residual**2))


def forecast_predictions_chunked(params: np.ndarray, spans, config, chunk: int = 256):
    """(inputs, targets, predictions) of window spans, forward_batch on
    each chunk of windows and the forecast tail kept."""
    xs, ys = spans[:, : config.lookback], spans[:, config.lookback :]
    preds = np.concatenate(
        [
            forward_batch(xs[i : i + chunk], params, config)[:, config.lookback :, :]
            for i in range(0, xs.shape[0], chunk)
        ]
    )
    return xs, ys, preds


def evaluate_loss_chunked(params: np.ndarray, spans, config, chunk: int = 256) -> float:
    """Window-mean joint loss of window spans, forward_batch on each chunk."""
    total_sq = 0.0
    for start in range(0, len(spans), chunk):
        part = spans[start : start + chunk]
        out = forward_batch(part[:, : config.lookback], params, config)
        total_sq += float(np.sum((out - part) ** 2))
    return total_sq / spans.size


def series_smape(truth: np.ndarray, pred: np.ndarray) -> float:
    """SMAPE of one series; 0/0 terms count as 0."""
    num = np.abs(truth - pred)
    den = np.abs(truth) + np.abs(pred)
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return float(200.0 * terms.mean())


def series_mase(truth: np.ndarray, pred: np.ndarray, period: int):
    """MASE of one series over its in-window seasonal difference; None when
    that difference is all zero."""
    denom = float(np.mean(np.abs(truth[period:] - truth[:-period])))
    if denom == 0.0:
        return None
    return float(np.mean(np.abs(truth - pred)) / denom)


def short_suite_loop(windows_x, truths, preds, period: int):
    """(smape, mase, owa) of a (W, H, C) forecast set, one (window, channel)
    series at a time; mase and owa are None when undefined.

    The seasonal-naive reference is built window by window from each
    lookback's last cycle, and the OWA reference is its own suite."""
    w, h, c = truths.shape
    length = windows_x.shape[1]
    idx = [length - period + (i % period) for i in range(h)]
    refs = np.stack([x[idx] for x in windows_x])

    def mean_metrics(pred_set):
        smapes, mases = [], []
        for i in range(w):
            for ch in range(c):
                smapes.append(series_smape(truths[i, :, ch], pred_set[i, :, ch]))
                if h > period:
                    m_val = series_mase(truths[i, :, ch], pred_set[i, :, ch], period)
                    if m_val is not None:
                        mases.append(m_val)
        return float(np.mean(smapes)), float(np.mean(mases)) if mases else None

    model_smape, model_mase = mean_metrics(preds)
    ref_smape, ref_mase = mean_metrics(refs)
    if model_mase is None or ref_mase is None or ref_smape <= 0 or ref_mase <= 0:
        return model_smape, model_mase, None
    return model_smape, model_mase, float(
        0.5 * (model_smape / ref_smape + model_mase / ref_mase)
    )


# ---------------------------------------------------------------------------
# the per-cell CSV loader


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
