"""Multi-branch linear forecaster built on the derivative transform.

Pipeline per window: instance-normalize; for each branch n apply the
order-n derivative transform channel-wise, stretch every coefficient band
from length L/2^l to (L+tau)/2^l with a learned affine map, invert the
transform at length L+tau; concatenate the branch outputs along time and
project back to length L+tau; finally denormalize. Branch weights are
shared across channels, distinct per branch and per band.

transform_kind selects the branch transform: "wdt" (orders 1..N), "dwt"
(orders forced to 0, a plain wavelet ablation), or "dft" (real FFT with
separate affine maps on the real and imaginary parts).

The derivative gains are signed powers of two, so multiplying a detail
band by g, mapping it and dividing by g again is exact and leaves only
the bias scaled by 1/g (bias_scales). Every branch therefore reads the
same coefficients: forward_batch analyses the batch once, applies each
band's N branch maps as one map, and synthesises once over a branch
axis. That map is the band's parameter block as stored: band_maps hands
out its weight as a view and scales only its bias.

This module owns the branch path in both directions, on 2-D channel
rows: _normalized_map takes (R, L) normalized rows, one per channel of
each window, and returns (R, L+tau). Each learned map is one GEMM,
rows @ weight, then += bias. Everything is affine in the parameters, so
gradients are exact closed forms, and _normalized_map_adjoint mirrors
the forward's single branch axis on (R, L+tau) output gradients: the
projection's input gradient dproj @ weight.T, one adjoint synthesis over
all branches, and per map the weight gradient inp.T @ gout (the sum over
rows is the GEMM's inner dimension) and the bias gradient
gout.sum(axis=0), written whole into the block, a band's bias gradient
scaled like its bias. The adjoint of the orthonormal inverse wavelet
cascade is the forward analysis cascade (_analyse); the adjoint of the
inverse real FFT is a forward real FFT with half-spectrum bin weighting
(interior bins carry factor 2/M, the DC bin 1/M, and for even M the
Nyquist bin 1/M with a dead imaginary part).

Everything between the instance normalization and the denormalization is
affine in the input too, so for fixed parameters the model is one
(L, L+tau) matrix and bias on normalized rows. compile_operator builds it
by pushing the zero row and the identity rows through the same branch
path as forward_batch, and apply_operator evaluates it with one GEMM.
Both share one instance normalization, _normalize_rows: it copies the
lookback once into contiguous (B*C, L) channel rows and centres and
scales them in place. forward_batch hands those rows to _normalized_map
as they are, and each caller denormalizes its own fresh output in place.
forward_batch is the training path and the operator's reference; the
two differ only in the order their products are summed. operator_chunks
is the one loop behind every fixed-parameter forecast: it compiles once
and applies the operator OPERATOR_CHUNK windows at a time, and
cli.forecast_predictions writes each chunk into one preallocated array.
check_windows is the one shape check of window arrays.

The parameters are one float64 vector. param_layout, derived from the
config alone, names its blocks in checkpoint order (one per band, then
the projection), and param_blocks gives each block's weight and bias as
views into the vector, so the optimizer, the gradient norm and the
gradient checker work on the whole vector at once.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .config import TRANSFORM_KINDS, ModelConfig  # noqa: F401 (TRANSFORM_KINDS re-exported)
from .errors import ConfigError, DataError
from .wavelet import dwt_multi, idwt_multi, make_filterbank
from .wdt import level_gains

CHECKPOINT_VERSION = 3

# Windows per GEMM on the fixed-parameter paths (operator_chunks).
OPERATOR_CHUNK = 256

# The filter bank of every wavelet kind's analysis and synthesis.
_HAAR = make_filterbank("db1")


def _irfft_adjoint(dz: np.ndarray, n_time: int) -> tuple[np.ndarray, np.ndarray]:
    # Gradient of sum(dz * irfft(re + i*im, n)) w.r.t. (re, im).
    spec = np.fft.rfft(dz, axis=-1)
    grad_re = (2.0 / n_time) * spec.real
    grad_im = (2.0 / n_time) * spec.imag
    grad_re[..., 0] *= 0.5
    grad_im[..., 0] = 0.0
    if n_time % 2 == 0:
        grad_re[..., -1] *= 0.5
        grad_im[..., -1] = 0.0
    return grad_re, grad_im


def param_layout(config: ModelConfig) -> list[tuple[str, int, tuple[int, int]]]:
    """(name, offset, weight shape) of every learned block of the parameter
    vector, in checkpoint order; a block is its row-major weight followed
    by its bias.

    One block per band, in the order _analyse returns the bands: fru_ll
    then fru_lh[level l] for l = 1..K, or fru_real then fru_imag. A band's
    (m_in, N*m_out) weight holds branch n's map in columns
    [n*m_out, (n+1)*m_out), and its bias is N*m_out long, so the forward
    applies the block as it is stored. The projection comes last.
    """
    n, lookback, k = config.branches, config.lookback, config.levels
    total = lookback + config.horizon
    if config.transform_kind == "dft":
        # Half-spectrum lengths of the lookback and of the whole span.
        spec = (lookback // 2 + 1, n * (total // 2 + 1))
        bands = [(f"fru_{p}", spec) for p in ("real", "imag")]
    else:
        # A level-l band is 2^l times shorter than its signal; LL_K is at level K.
        bands = [("fru_ll", (lookback >> k, n * (total >> k)))] + [
            (f"fru_lh[level{lv}]", (lookback >> lv, n * (total >> lv))) for lv in range(1, k + 1)
        ]
    layout, offset = [], 0
    for name, (m_in, m_out) in bands + [("projection", (n * total, total))]:
        layout.append((name, offset, (m_in, m_out)))
        offset += (m_in + 1) * m_out
    return layout


def param_count(config: ModelConfig) -> int:
    return sum((m_in + 1) * m_out for _, _, (m_in, m_out) in param_layout(config))


def param_blocks(
    params: np.ndarray, config: ModelConfig
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(name, weight view, bias view) of every block of a parameter-shaped
    vector (the parameters, a gradient or an Adam moment), in param_layout
    order; writing to a view writes the vector."""
    if params.shape != (param_count(config),):
        raise ConfigError(
            f"parameter vector of shape {params.shape} does not match the "
            f"{config.transform_kind} config, which expects ({param_count(config)},)"
        )
    out = []
    for name, offset, (m_in, m_out) in param_layout(config):
        stop = offset + m_in * m_out
        weight = params[offset:stop].reshape(m_in, m_out)
        out.append((name, weight, params[stop : stop + m_out]))
    return out


def bias_scales(config: ModelConfig) -> list[np.ndarray]:
    """Per band, the factor on each entry of its (N*m_out) bias inside the
    band's map: branch n's factor repeated over its m_out entries.

    The derivative transform multiplies detail level l by the gain g_n(l)
    before branch n's map and divides the map's output by g_n(l) again.
    A signed power of two scales exactly, so the weights never see g and
    the pair equals, bit for bit, the plain map with its bias times
    1/g_n(l). Approximation bands, dwt (order 0) and dft have factor 1.
    """
    bands = param_layout(config)[:-1]
    scales = np.ones((len(bands), config.branches))
    if config.transform_kind != "dft":
        gains = [level_gains(config.levels, order) for order in config.effective_orders()]
        scales[1:] = 1.0 / np.array(gains).T
    return [
        np.repeat(scale, width // config.branches)
        for scale, (_, _, (_, width)) in zip(scales, bands)
    ]


def band_maps(
    params: np.ndarray, config: ModelConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each band's N branch maps as one map on the band they all read: its
    (m_in, N*m_out) weight, a view into params, and its bias times
    bias_scales."""
    return [
        (weight, bias * scale)
        for (_, weight, bias), scale in zip(param_blocks(params, config), bias_scales(config))
    ]


def _analyse(rows: np.ndarray, config: ModelConfig) -> list[np.ndarray]:
    """The bands of (..., T) rows: the approximation then detail levels
    1..K of the Haar cascade, or the real then the imaginary half-spectrum.

    The Haar cascade is orthonormal, so for the wavelet kinds this is also
    the adjoint of the synthesis."""
    if config.transform_kind == "dft":
        spectrum = np.fft.rfft(rows, axis=-1)
        return [spectrum.real, spectrum.imag]
    return dwt_multi(rows, _HAAR, config.levels)


def _normalized_map(
    rows: np.ndarray, params: np.ndarray, config: ModelConfig
) -> tuple[np.ndarray, dict]:
    """The model between the normalization and the denormalization: the
    branch path and the projection on (R, L) normalized channel rows,
    giving (R, L+tau) and the intermediates _normalized_map_adjoint needs."""
    total = config.lookback + config.horizon
    bands_in = _analyse(rows, config)
    bands_out = []
    for (weight, bias), band in zip(band_maps(params, config), bands_in):
        out = band @ weight
        out += bias
        # (R, N*m_out) -> (R, N, m_out): synthesis runs over the branch axis.
        bands_out.append(out.reshape(len(rows), config.branches, -1))
    if config.transform_kind == "dft":
        # In place: one complex array of all branches' spectra, not two.
        spectrum = bands_out[1] * 1j
        spectrum += bands_out[0]
        z = np.fft.irfft(spectrum, n=total, axis=-1)
    else:
        z = idwt_multi(bands_out, _HAAR)
    # Branch n's output occupies columns [n*total, (n+1)*total).
    zcat = z.reshape(len(rows), -1)
    _, proj_weight, proj_bias = param_blocks(params, config)[-1]
    proj = zcat @ proj_weight
    proj += proj_bias
    return proj, {"zcat": zcat, "bands_in": bands_in}


def _normalized_map_adjoint(
    dproj: np.ndarray, cache: dict, params: np.ndarray, config: ModelConfig
) -> np.ndarray:
    """Adjoint of _normalized_map in its parameters: the gradient vector of
    sum(dproj * output) for the forward that filled cache, where dproj has
    the output's (R, L+tau) shape. Each band's block takes its map's
    gradients whole, the bias gradient times bias_scales."""
    total = config.lookback + config.horizon
    _, proj_weight, _ = param_blocks(params, config)[-1]
    dz = (dproj @ proj_weight.T).reshape(len(dproj), config.branches, total)
    if config.transform_kind == "dft":
        band_grads = _irfft_adjoint(dz, total)
    else:
        band_grads = _analyse(dz, config)
    grads = np.empty_like(params)
    blocks = param_blocks(grads, config)
    for inp, gout, (_, weight, bias), scale in zip(
        cache["bands_in"], band_grads, blocks, bias_scales(config)
    ):
        gout = gout.reshape(len(inp), -1)
        weight[...] = inp.T @ gout
        bias[...] = gout.sum(axis=0)
        bias *= scale
    _, weight, bias = blocks[-1]
    weight[...] = cache["zcat"].T @ dproj
    bias[...] = dproj.sum(axis=0)
    return grads


def check_windows(xs, config: ModelConfig, length: int) -> np.ndarray:
    """xs as a float64 (W >= 1, length, C) array of windows, without a copy
    when it already is one; DataError otherwise. Lookback batches have
    length L, window spans L+tau."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or len(xs) == 0 or xs.shape[1:] != (length, config.channels):
        raise DataError(
            f"windows of shape {xs.shape} do not match (W >= 1, {length}, "
            f"{config.channels})"
        )
    return xs


def _normalize_rows(
    xs: np.ndarray, config: ModelConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The instance normalization of a (B, L, C) lookback stack: its
    normalized (B*C, L) channel rows, and each row's mean and std
    (epsilon added) as (B*C, 1).

    The lookback is copied once into contiguous rows, so the statistics
    reduce along the contiguous axis and the centring and scaling work in
    place on that copy."""
    xs = check_windows(xs, config, config.lookback)
    # A real copy: at C=1 the transpose is already contiguous, and the
    # in-place steps must never write into the caller's windows.
    rows = xs.transpose(0, 2, 1).copy().reshape(-1, config.lookback)
    mean = rows.mean(axis=1, keepdims=True)
    rows -= mean
    # np.std's own steps on the centred rows: its bits, without centring twice.
    std = np.sqrt(np.square(rows).mean(axis=1, keepdims=True))
    std += config.std_epsilon
    rows /= std
    return rows, mean, std


def forward_batch(
    xs: np.ndarray,
    params: np.ndarray,
    config: ModelConfig,
    want_cache: bool = False,
):
    """Model on a (B, L, C) stack; returns (B, L+tau, C) and optionally the
    intermediates the analytic gradients need.

    This is the training path and the reference that compile_operator is
    tested against. The output is a transposed view of the model's
    (B*C, L+tau) channel rows, and the cache's std is the (B*C, 1) one of
    _normalize_rows."""
    rows, mean, std = _normalize_rows(xs, config)
    proj, cache = _normalized_map(rows, params, config)
    # The projection's fresh output, denormalized in place.
    proj *= std
    proj += mean
    out = proj.reshape(-1, config.channels, proj.shape[-1]).transpose(0, 2, 1)
    if not want_cache:
        return out
    return out, {"std": std, **cache}


def compile_operator(
    params: np.ndarray, config: ModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The model as one affine operator on normalized rows: (weight
    (L, L+tau), bias (L+tau,)) such that a normalized lookback row x maps
    to x @ weight + bias, before denormalization.

    Every step between the normalization and the denormalization is
    linear or affine, so the zero row gives the bias and identity row i,
    minus the bias, gives row i of the weight. The L+1 rows run through
    the same branch path as forward_batch, as one stack of channel rows.
    """
    rows = np.vstack([np.zeros(config.lookback), np.eye(config.lookback)])
    out, _ = _normalized_map(rows, params, config)
    bias = out[0]
    return out[1:] - bias, bias


def apply_operator(
    xs: np.ndarray, weight: np.ndarray, bias: np.ndarray, config: ModelConfig
) -> np.ndarray:
    """A compiled operator, or a column slice of it, on a (B, L, C) stack:
    normalize (_normalize_rows), one GEMM over the channel rows,
    denormalize the GEMM's output in place; returns (B, m, C) for m
    columns."""
    rows, mean, std = _normalize_rows(xs, config)
    out = rows @ weight
    out += bias
    out *= std
    out += mean
    return out.reshape(-1, config.channels, out.shape[-1]).transpose(0, 2, 1)


def operator_chunks(
    params: np.ndarray, spans: np.ndarray, config: ModelConfig, start: int = 0
):
    """Compile the operator once and apply its columns start: to checked
    (W, L+tau, C) window spans, OPERATOR_CHUNK windows at a time so memory
    stays flat; yields (span chunk, its forecast columns)."""
    weight, bias = compile_operator(params, config)
    weight, bias = weight[:, start:], bias[start:]
    for lo in range(0, len(spans), OPERATOR_CHUNK):
        part = spans[lo : lo + OPERATOR_CHUNK]
        yield part, apply_operator(part[:, : config.lookback], weight, bias, config)


def validate_params(params: np.ndarray, config: ModelConfig) -> None:
    """Reject an invalid config, a vector of the wrong type or length, and
    non-finite entries, naming the block that holds them."""
    config.ensure_valid()
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64):
        raise ConfigError(
            f"parameters must be a float64 vector, got {type(params).__name__} "
            f"of {getattr(params, 'dtype', 'no dtype')}"
        )
    for name, weight, bias in param_blocks(params, config):
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise ConfigError(f"{name} contains non-finite entries")


def init_params(config: ModelConfig, seed: int) -> np.ndarray:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero biases.

    Draw order is fixed (branch by branch, that branch's columns of the
    approx band then of detail levels 1..K, or of real then imag;
    projection last) so a seed fully determines every weight byte.
    """
    config.ensure_valid()
    rng = np.random.Generator(np.random.PCG64(seed))
    params = np.zeros(param_count(config))
    weights = [weight for _, weight, _ in param_blocks(params, config)]
    # Each band's weight as N column views, one per branch.
    columns = [np.split(weight, config.branches, axis=1) for weight in weights[:-1]]
    draws = [band[n] for n in range(config.branches) for band in columns]
    for weight in draws + weights[-1:]:
        bound = 1.0 / np.sqrt(weight.shape[0])
        weight[...] = rng.uniform(-bound, bound, size=weight.shape)
    validate_params(params, config)
    return params


def save_checkpoint(params: np.ndarray, config: ModelConfig, path: str) -> None:
    """Versioned JSON checkpoint: the model config and the parameter vector
    as base64 of its little-endian float64 bytes, so every bit round-trips.

    The config fixes the vector's layout (param_layout), so none is stored.
    """
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "params": base64.b64encode(params.astype("<f8", copy=False).tobytes()).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path: str) -> tuple[np.ndarray, ModelConfig]:
    try:
        fh = open(path, "r", encoding="utf-8")
    # ValueError: a path holding a NUL byte, which no file can have.
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot open checkpoint {path}: {exc}") from exc
    with fh:
        try:
            doc = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
        # ValueError also covers bytes that are not UTF-8 and an integer past
        # Python's digit limit, and RecursionError nesting deeper than the
        # decoder can follow.
        except (ValueError, RecursionError) as exc:
            raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(
            f"checkpoint {path} must hold a JSON object, got {type(doc).__name__}"
        )
    if doc.get("version") != CHECKPOINT_VERSION:
        raise DataError(
            f"checkpoint {path} has version {doc.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    # A stored config that does not parse or check is a defect of the file,
    # so it exits like every other one, not like a bad run config; it is
    # checked before param_count reads its sizes.
    try:
        config = ModelConfig.from_dict(doc.get("config"))
        config.ensure_valid()
    except ConfigError as exc:
        raise DataError(f"checkpoint {path} config fails validation: {exc}") from exc
    encoded = doc.get("params")
    if not isinstance(encoded, str):
        raise DataError(
            f"checkpoint {path} params must be a base64 string, got {type(encoded).__name__}"
        )
    try:
        raw = base64.b64decode(encoded, validate=True)
    except ValueError as exc:
        raise DataError(f"checkpoint {path} params are not valid base64: {exc}") from exc
    count = param_count(config)
    if len(raw) != 8 * count:
        raise DataError(
            f"checkpoint {path} holds {len(raw) / 8:.12g} parameter values, "
            f"but its {config.transform_kind} config expects {count}"
        )
    # A native, owned, writable copy of the little-endian values.
    params = np.frombuffer(raw, "<f8").astype(np.float64)
    try:
        validate_params(params, config)
    except ConfigError as exc:
        raise DataError(f"checkpoint {path} fails validation: {exc}") from exc
    return params, config
