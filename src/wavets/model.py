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
band's N branch maps as one map (band_maps), and synthesises once over a
branch axis. Everything is affine in the parameters, which keeps
gradients closed-form (see train module).

Everything between the instance normalization and the denormalization is
affine in the input too, so for fixed parameters the model is one
(L, L+tau) matrix and bias on normalized rows. compile_operator builds it
by pushing the zero row and the identity rows through the same branch
path as forward_batch, and apply_operator evaluates it with one GEMM;
forward_batch is the training path and the operator's reference.

The parameters are one float64 vector. param_layout, derived from the
config alone, names its blocks in checkpoint order, and param_blocks
gives each block's weight and bias as views into the vector, so the
optimizer, the gradient norm and the gradient checker work on the whole
vector at once.
"""

from __future__ import annotations

import json
from itertools import zip_longest

import numpy as np

from .config import TRANSFORM_KINDS, ModelConfig  # noqa: F401 (TRANSFORM_KINDS re-exported)
from .errors import ConfigError, DataError
from .wavelet import WaveletPyramid, dwt_multi, idwt_multi, make_filterbank
from .wdt import level_gains

CHECKPOINT_VERSION = 1


def channel_rows(x: np.ndarray, width: int) -> np.ndarray:
    """View a (..., width) stack as a (rows, width) matrix.

    Every channel of every window becomes one row, so each learned map,
    its weight gradient and its input gradient cost one 2-D GEMM. The
    width is checked before the reshape, which would otherwise accept any
    size divisible by it.
    """
    if x.shape[-1] != width:
        raise DataError(
            f"affine map of width {width} does not match an array whose "
            f"last axis is {x.shape[-1]}"
        )
    return x.reshape(-1, width)


def affine_apply(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """One learned map x @ weight + bias on a (..., m_in) stack; weight is
    (m_in, m_out)."""
    m_in, m_out = weight.shape
    out = channel_rows(x, m_in) @ weight
    out += bias
    return out.reshape(x.shape[:-1] + (m_out,))


def param_layout(config: ModelConfig) -> list[tuple[str, int, tuple[int, int]]]:
    """(name, offset, weight shape) of every learned block of the parameter
    vector, in checkpoint order; a block is its row-major weight followed
    by its bias.

    Wavelet kinds have fru_ll per branch, then fru_lh per branch and detail
    level; the dft kind has fru_real then fru_imag per branch. The
    projection comes last.
    """
    branches = range(1, config.branches + 1)
    total = config.lookback + config.horizon
    if config.transform_kind == "dft":
        spec = config.spectrum_sizes()
        bands = [(f"fru_{p}[branch{n}]", spec) for p in ("real", "imag") for n in branches]
    else:
        sizes = config.band_sizes()
        bands = [(f"fru_ll[branch{n}]", sizes[0]) for n in branches] + [
            (f"fru_lh[branch{n}][level{lv}]", sizes[lv])
            for n in branches
            for lv in range(1, config.levels + 1)
        ]
    layout, offset = [], 0
    for name, (m_in, m_out) in bands + [("projection", (config.branches * total, total))]:
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


def _per_band(items: list, config: ModelConfig) -> list[list]:
    """Per band, the N items of branches 1..N, from per-block items in
    param_layout order: the approximation band then detail levels 1..K, or
    the real then the imaginary half-spectrum. The projection is left out."""
    n, k = config.branches, config.levels
    if config.transform_kind == "dft":
        return [items[:n], items[n : 2 * n]]
    return [items[:n]] + [items[n + lv : n + n * k : k] for lv in range(k)]


def _normalize_batch(xs: np.ndarray, std_epsilon: float):
    # xs is (B, L, C); stats are per window per channel.
    mean = xs.mean(axis=1, keepdims=True)
    std = xs.std(axis=1, keepdims=True) + std_epsilon
    return (xs - mean) / std, mean, std


def bias_scales(config: ModelConfig) -> list[np.ndarray]:
    """Per band, the factor on each branch's bias inside the band's map.

    The derivative transform multiplies detail level l by the gain g_n(l)
    before branch n's map and divides the map's output by g_n(l) again.
    A signed power of two scales exactly, so the weights never see g and
    the pair equals, bit for bit, the plain map with its bias times
    1/g_n(l). Approximation bands, dwt (order 0) and dft have factor 1.
    """
    ones = np.ones(config.branches)
    if config.transform_kind == "dft":
        return [ones, ones]
    gains = np.array(
        [level_gains(config.levels, order) for order in config.effective_orders()]
    )
    return [ones] + list(1.0 / gains.T)


def band_maps(
    params: np.ndarray, config: ModelConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each band's N branch maps as one (weight, bias) map on the band they
    all read: weights side by side (m_in, N*m_out), biases end to end, each
    scaled by its bias_scales factor."""
    blocks = [(weight, bias) for _, weight, bias in param_blocks(params, config)]
    return [
        (
            np.concatenate([weight for weight, _ in maps], axis=1),
            (np.stack([bias for _, bias in maps]) * scale[:, None]).ravel(),
        )
        for maps, scale in zip(_per_band(blocks, config), bias_scales(config))
    ]


def branch_grads(
    band_grads: list[tuple[np.ndarray, np.ndarray]],
    grads: np.ndarray,
    config: ModelConfig,
) -> None:
    """Write band_maps gradients into the per-branch blocks of grads.

    A branch's weight gradient is its column block; its bias gradient is
    its slice of the band's bias gradient times the same bias_scales
    factor. The projection block is left as it was.
    """
    blocks = [(weight, bias) for _, weight, bias in param_blocks(grads, config)]
    for (dweight, dbias), maps, scale in zip(
        band_grads, _per_band(blocks, config), bias_scales(config)
    ):
        m_out = dweight.shape[1] // config.branches
        for n, (weight, bias) in enumerate(maps):
            cols = slice(n * m_out, (n + 1) * m_out)
            weight[...] = dweight[:, cols]
            bias[...] = dbias[cols] * scale[n]


def _normalized_map(
    normed_t: np.ndarray, params: np.ndarray, config: ModelConfig
) -> tuple[np.ndarray, dict]:
    """The model between the normalization and the denormalization: the
    branch path and the projection on (B, C, L) normalized rows, giving
    (B, C, L+tau) and the intermediates the analytic gradients need."""
    total = config.lookback + config.horizon
    if config.transform_kind == "dft":
        spectrum = np.fft.rfft(normed_t, axis=-1)
        bands_in = [spectrum.real, spectrum.imag]
    else:
        pyr = dwt_multi(normed_t, make_filterbank("db1"), config.levels)
        bands_in = [pyr.approx] + pyr.details
    # (B, C, N*m_out) -> (B, C, N, m_out): synthesis runs over the branch axis.
    bands_out = [
        affine_apply(band, weight, bias).reshape(band.shape[:-1] + (config.branches, -1))
        for (weight, bias), band in zip(band_maps(params, config), bands_in)
    ]
    if config.transform_kind == "dft":
        # In place: one complex array of all branches' spectra, not two.
        spectrum = bands_out[1] * 1j
        spectrum += bands_out[0]
        z = np.fft.irfft(spectrum, n=total, axis=-1)
    else:
        z = idwt_multi(
            WaveletPyramid(
                levels=config.levels,
                approx=bands_out[0],
                details=bands_out[1:],
                original_length=total,
            ),
            make_filterbank("db1"),
        )
    # Branch n's output occupies columns [n*total, (n+1)*total).
    zcat = z.reshape(z.shape[:-2] + (-1,))
    _, proj_weight, proj_bias = param_blocks(params, config)[-1]
    return affine_apply(zcat, proj_weight, proj_bias), {"zcat": zcat, "bands_in": bands_in}


def _check_batch(xs, config: ModelConfig) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or len(xs) == 0 or xs.shape[1:] != (config.lookback, config.channels):
        raise DataError(
            f"batch shape {xs.shape} does not match (B >= 1, {config.lookback}, "
            f"{config.channels})"
        )
    return xs


def forward_batch(
    xs: np.ndarray,
    params: np.ndarray,
    config: ModelConfig,
    want_cache: bool = False,
):
    """Model on a (B, L, C) stack; returns (B, L+tau, C) and optionally the
    intermediates the analytic gradients need.

    This is the training path and the reference that compile_operator is
    tested against."""
    xs = _check_batch(xs, config)
    normed, mean, std = _normalize_batch(xs, config.std_epsilon)
    proj, cache = _normalized_map(normed.transpose(0, 2, 1), params, config)
    out = proj.transpose(0, 2, 1) * std + mean
    if not want_cache:
        return out
    return out, {"mean": mean, "std": std, **cache}


def compile_operator(
    params: np.ndarray, config: ModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The model as one affine operator on normalized rows: (weight
    (L, L+tau), bias (L+tau,)) such that a normalized lookback row x maps
    to x @ weight + bias, before denormalization.

    Every step between the normalization and the denormalization is
    linear or affine, so the zero row gives the bias and identity row i,
    minus the bias, gives row i of the weight. All L+1 rows run through
    the same branch path as forward_batch, as one batch of one channel.
    """
    rows = np.vstack([np.zeros(config.lookback), np.eye(config.lookback)])
    out, _ = _normalized_map(rows[:, None, :], params, config)
    bias = out[0, 0]
    return out[1:, 0] - bias, bias


def apply_operator(
    xs: np.ndarray, weight: np.ndarray, bias: np.ndarray, config: ModelConfig
) -> np.ndarray:
    """A compiled operator, or a column slice of it, on a (B, L, C) stack:
    normalize, one GEMM over the channel rows, denormalize; returns
    (B, m, C) for m columns."""
    xs = _check_batch(xs, config)
    normed, mean, std = _normalize_batch(xs, config.std_epsilon)
    out = affine_apply(normed.transpose(0, 2, 1), weight, bias)
    return out.transpose(0, 2, 1) * std + mean


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

    Draw order is fixed (branches in order, approx band then detail levels
    1..K, or real then imag; projection last) so a seed fully determines
    every weight byte.
    """
    config.ensure_valid()
    rng = np.random.Generator(np.random.PCG64(seed))
    params = np.zeros(param_count(config))
    weights = [weight for _, weight, _ in param_blocks(params, config)]
    draws = [band[n] for n in range(config.branches) for band in _per_band(weights, config)]
    for weight in draws + weights[-1:]:
        bound = 1.0 / np.sqrt(weight.shape[0])
        weight[...] = rng.uniform(-bound, bound, size=weight.shape)
    validate_params(params, config)
    return params


def save_checkpoint(params: np.ndarray, config: ModelConfig, path: str) -> None:
    """Versioned JSON checkpoint; floats round-trip to identical bits.

    Blocks are stored per kind: fru_ll[branch] and fru_lh[branch][level]
    for the wavelet kinds, fru_real[branch] and fru_imag[branch] for dft,
    and the projection; the other kind's lists are empty.
    """
    docs = [
        {"weight": weight.tolist(), "bias": bias.tolist()}
        for _, weight, bias in param_blocks(params, config)
    ]
    bands = _per_band(docs, config)
    dft = config.transform_kind == "dft"
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "fru_ll": [] if dft else bands[0],
        "fru_lh": [] if dft else [list(levels) for levels in zip(*bands[1:])],
        "fru_real": bands[0] if dft else [],
        "fru_imag": bands[1] if dft else [],
        "projection": docs[-1],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path: str) -> tuple[np.ndarray, ModelConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open checkpoint {path}: {exc}") from exc
    # ValueError also covers bytes that are not UTF-8 and an integer past
    # Python's digit limit.
    except ValueError as exc:
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
    try:
        config = ModelConfig.from_dict(doc["config"])
        # Every stored block in param_layout order, either kind's lists.
        docs = (
            doc["fru_ll"]
            + [block for levels in doc["fru_lh"] for block in levels]
            + doc["fru_real"]
            + doc["fru_imag"]
            + [doc["projection"]]
        )
        blocks = [
            (np.array(d["weight"], dtype=np.float64), np.array(d["bias"], dtype=np.float64))
            for d in docs
        ]
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        # A stored config that does not parse is a defect of the file, so it
        # exits like every other one, not like a bad run config.
        raise DataError(f"checkpoint {path} is malformed: {exc}") from exc
    try:
        config.ensure_valid()
        layout = param_layout(config)
        have = [(weight.shape, bias.shape) for weight, bias in blocks]
        want = [(shape, shape[1:]) for _, _, shape in layout]
        for i, (got, expected) in enumerate(zip_longest(have, want)):
            if got != expected:
                name = layout[i][0] if i < len(layout) else f"extra block {i + 1}"
                raise ConfigError(
                    f"{name} weight/bias shapes {got or 'missing'} do not match "
                    f"the {config.transform_kind} config, which expects "
                    f"{expected or 'none'}"
                )
        params = np.concatenate([part.ravel() for block in blocks for part in block])
        validate_params(params, config)
    except ConfigError as exc:
        raise DataError(f"checkpoint {path} fails validation: {exc}") from exc
    return params, config
