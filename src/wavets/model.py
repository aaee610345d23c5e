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
same coefficients: each band's N branch maps are one map, the band's
parameter block [W; b] as stored, and _scaled_band_maps copies it with
only its bias row scaled.

Instance normalization (RevIN) divides a row by its std, maps it and
multiplies the output back, so std * ((x - mean) / std @ W + b) =
[x - mean, std] @ [W; b]: the std is one more input column, the one every
bias meets, and nothing divides by it. _centre_rows, the one instance
normalization, writes the (B*C, L+1) channel rows [x - mean, std]; short
of adding the mean back, the model is linear in them.

This module owns the branch path in both directions, on 2-D channel
rows: _normalized_map takes those (R, L+1) rows, one per channel of each
window, and returns (R, L+tau). The band maps, the synthesis and the
projection are all linear, so _normalized_map carries the projection
back through the synthesis (_synthesis_adjoint) and applies the band
maps and the projection as one band-domain operator to the analysed
rows, and _normalized_map_adjoint runs the same factoring back from
(R, L+tau) output gradients. No row is synthesised: a step costs two
(L, L+tau) products per channel row plus a fixed cost in the size of the
parameters, so at the ETTh1 shape it beats synthesising every row from
about 40 windows of 7 channels up and loses below. The adjoint of the
orthonormal Haar synthesis is the analysis cascade (_analyse); the
adjoint of the inverse real FFT is a forward real FFT with half-spectrum
bin weighting (_irfft_adjoint: interior bins carry factor 2/M, the DC
bin 1/M, and for even M the Nyquist bin 1/M with a dead imaginary part).

So for fixed parameters the model is one (L+1, m) array [weight; bias]
on those rows, and compile_operator builds it as the map of the identity
rows through the same branch path as forward_batch, carrying only the m
output columns from a given start, so a forecast compiles just the
horizon. forward_batch hands _centre_rows' array to _normalized_map and
apply_operator multiplies it by the operator in one GEMM; both add the
mean to their fresh output in place. forward_batch is the training path
and the operator's reference; the two differ only in rounding, since
they sum their products in other orders.
operator_chunks is the one loop behind every fixed-parameter forecast: it
compiles once and applies the operator OPERATOR_CHUNK windows at a time,
and cli.forecast_predictions writes each chunk into one preallocated
array. check_windows is the one shape check of window arrays.

The parameters are one float64 vector. param_layout, derived from the
config alone, names its blocks in checkpoint order (one per band, then
the projection), and param_blocks gives each block as one (m_in+1, m_out)
view [weight; bias] into the vector, so the optimizer, the gradient norm
and the gradient checker work on the whole vector at once.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, DataError
from .wavelet import dwt_multi, idwt_multi, make_filterbank
from .wdt import level_gains

CHECKPOINT_VERSION = 3

# Windows per GEMM on the fixed-parameter paths (operator_chunks).
OPERATOR_CHUNK = 256

# compile_operator carries its columns from a multiple of this: BLAS
# kernels tile a product's columns in blocks of up to 16 counted from its
# first column, and a column's bits depend on the block that holds it.
_COLUMN_TILE = 16

# The filter bank of every wavelet kind's analysis and synthesis.
_HAAR = make_filterbank("db1")


def _irfft_adjoint(dz: np.ndarray, n_time: int) -> tuple[np.ndarray, np.ndarray]:
    # Gradient of sum(dz * irfft(re + i*im, n)) w.r.t. (re, im).
    spec = np.fft.rfft(dz, axis=-1)
    # Fresh contiguous arrays, not the spectrum's views weighted in place:
    # the GEMMs that read them would copy strided views again, which made
    # a dft training step slower.
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


def param_blocks(params: np.ndarray, config: ModelConfig) -> list[tuple[str, np.ndarray]]:
    """(name, block) of every block of a parameter-shaped vector (the
    parameters, a gradient or an Adam moment), in param_layout order: the
    block is the stored (m_in+1, m_out) view [weight; bias], its weight
    block[:-1] and its bias block[-1]; writing to a view writes the vector."""
    if params.shape != (param_count(config),):
        raise ConfigError(
            f"parameter vector of shape {params.shape} does not match the "
            f"{config.transform_kind} config, which expects ({param_count(config)},)"
        )
    return [
        (name, params[offset : offset + (m_in + 1) * m_out].reshape(m_in + 1, m_out))
        for name, offset, (m_in, m_out) in param_layout(config)
    ]


def bias_scales(config: ModelConfig) -> np.ndarray:
    """The (bands, N) factors on the biases inside the band maps: row k,
    column n scales branch n's m_out entries of band k's (N*m_out) bias.

    The derivative transform multiplies detail level l by the gain g_n(l)
    before branch n's map and divides the map's output by g_n(l) again.
    A signed power of two scales exactly, so the weights never see g and
    the pair equals, bit for bit, the plain map with its bias times
    1/g_n(l). Approximation bands, dwt (order 0) and dft have factor 1.
    """
    scales = np.ones((len(param_layout(config)) - 1, config.branches))
    if config.transform_kind != "dft":
        gains = [level_gains(config.levels, order) for order in config.effective_orders()]
        scales[1:] = 1.0 / np.array(gains).T
    return scales


def _scaled_band_maps(params: np.ndarray, config: ModelConfig) -> list[np.ndarray]:
    """Each band's N branch maps as one (m_in+1, N*m_out) map on the band
    they all read, so that a band row x of a centred row with std s maps
    to [x, s] @ it: a copy of the
    band's block with its bias row times bias_scales. The copy keeps the
    scaling out of params; no other forward step scales a bias."""
    maps = [block.copy() for _, block in param_blocks(params, config)[:-1]]
    for scaled, scale in zip(maps, bias_scales(config)):
        scaled[-1].reshape(config.branches, -1)[...] *= scale[:, None]
    return maps


def _analyse(rows: np.ndarray, config: ModelConfig) -> list[np.ndarray]:
    """The bands of (..., T) rows: the approximation then detail levels
    1..K of the Haar cascade, or the real then the imaginary half-spectrum.

    The Haar cascade is orthonormal, so for the wavelet kinds this is also
    the adjoint of the synthesis."""
    if config.transform_kind == "dft":
        spectrum = np.fft.rfft(rows, axis=-1)
        return [spectrum.real, spectrum.imag]
    return dwt_multi(rows, _HAAR, config.levels)


def _synthesise(bands: list[np.ndarray], config: ModelConfig) -> np.ndarray:
    """The inverse of _analyse at length L+tau: the Haar synthesis
    cascade, or the inverse real FFT of real + i*imag."""
    if config.transform_kind == "dft":
        # In place: one complex array, not two.
        spectrum = bands[1] * 1j
        spectrum += bands[0]
        return np.fft.irfft(spectrum, n=config.lookback + config.horizon, axis=-1)
    return idwt_multi(bands, _HAAR)


def _synthesis_adjoint(z: np.ndarray, config: ModelConfig) -> list[np.ndarray]:
    """The adjoint of _synthesise on (..., L+tau) rows, band by band: the
    analysis cascade (the Haar synthesis is orthonormal), or the weighted
    forward real FFT of _irfft_adjoint."""
    if config.transform_kind == "dft":
        return list(_irfft_adjoint(z, config.lookback + config.horizon))
    return _analyse(z, config)


def _normalized_map(
    centred: np.ndarray, params: np.ndarray, config: ModelConfig, start: int = 0
) -> tuple[np.ndarray, dict]:
    """The model short of adding the mean back: the branch path and the
    projection on the (R, L+1) rows [x - mean, std] of _centre_rows,
    giving the output columns start: of (R, L+tau), and the intermediates
    _normalized_map_adjoint needs (whose output is every column).

    The synthesis and the projection are linear, so the projection is
    carried back through the synthesis: q_k, the synthesis adjoint of the
    projection weight's columns, is band k's (L+tau, N*m_out) projection.
    Band k then reaches the output through V_k = W_k @ q_k.T and its
    scaled bias through c_k = b_k @ q_k.T, so the whole map is one GEMM,
    xb @ V, on the analysed first L columns, each band followed by the std
    column (xb), and V, each band's [V_k; c_k] stacked with the projection
    bias added to its last row: the band-domain operator. Only the
    projection columns start: are carried back, so the q_k, V and the
    GEMM all shrink with the columns left out."""
    total = config.lookback + config.horizon
    _, projection = param_blocks(params, config)[-1]
    # Output column j's projection weights as N branch series of length L+tau.
    columns = projection[:-1].T[start:].reshape(-1, config.branches, total)
    qs = [q.reshape(len(columns), -1) for q in _synthesis_adjoint(columns, config)]
    std = centred[:, -1:]
    xb = np.concatenate(
        [x for band in _analyse(centred[:, :-1], config) for x in (band, std)], axis=1
    )
    operator = np.empty((xb.shape[1], len(columns)))
    lo = 0
    for scaled, q in zip(_scaled_band_maps(params, config), qs):
        np.matmul(scaled, q.T, out=operator[lo : lo + len(scaled)])
        lo += len(scaled)
    operator[-1] += projection[-1, start:]
    return xb @ operator, {"xb": xb, "q": qs}


def _normalized_map_adjoint(
    dproj: np.ndarray, cache: dict, params: np.ndarray, config: ModelConfig
) -> np.ndarray:
    """Adjoint of _normalized_map in its parameters: the gradient vector of
    sum(dproj * output) for the forward that filled cache, where dproj has
    the output's (R, L+tau) shape.

    The band-domain operator's gradient is G = xb.T @ dproj; band k's rows
    of it are [G_k; s], s = std.T @ dproj coming from the std column.
    They give band k's block whole, [G_k; s] @ q_k, the bias row then
    scaled like its bias, and q_k's gradient [G_k; s].T times the band's
    _scaled_band_maps map. The projection's weight gradient is the
    synthesis of the q_k gradients, its bias gradient s, the last row of G.
    cache is emptied as it is read, so the forward's intermediates are
    freed before that synthesis."""
    total = config.lookback + config.horizon
    gv = cache.pop("xb").T @ dproj
    qs = cache.pop("q")
    grads = np.empty_like(params)
    *bands, (_, projection) = param_blocks(grads, config)
    dqs, lo = [], 0
    for (_, block), scaled, scale in zip(
        bands, _scaled_band_maps(params, config), bias_scales(config)
    ):
        g = gv[lo : lo + len(block)]
        lo += len(block)
        # The block's weight then bias: [G_k; s] @ q_k in one product.
        np.matmul(g, qs.pop(0), out=block)
        block[-1].reshape(config.branches, -1)[...] *= scale[:, None]
        dqs.append((g.T @ scaled).reshape(total, config.branches, -1))
    # The projection weight's rows are the synthesised columns of dq.
    projection[:-1] = _synthesise(dqs, config).reshape(total, -1).T
    projection[-1] = gv[-1]
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


def _centre_rows(xs: np.ndarray, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The instance normalization of a (B, L, C) lookback stack, short of
    its division: a (B*C, L+1) array of the centred channel rows, each
    followed by its std (epsilon added), and each row's mean as (B*C, 1).

    The lookback is copied once into the rows, so the statistics reduce
    along the contiguous axis and the centring works in place on that
    copy. Nothing divides by the std column: _normalized_map and the
    compiled operator take the rows [x - mean, std] whole."""
    xs = check_windows(xs, config, config.lookback)
    batch, lookback, channels = xs.shape
    centred = np.empty((batch * channels, lookback + 1))
    rows, std = centred[:, :lookback], centred[:, lookback:]
    # A real copy, so the in-place steps never write into the caller's windows.
    np.copyto(centred.reshape(batch, channels, -1)[..., :lookback], xs.transpose(0, 2, 1))
    mean = rows.mean(axis=1, keepdims=True)
    # The centring and the squaring run over the whole contiguous array,
    # which takes about half the time of the rows' strided view; the std
    # column is zeroed first and overwritten after.
    std[...] = 0.0
    centred -= mean
    # np.std's own steps on the centred rows: its bits, without centring twice.
    np.sqrt(np.square(centred)[:, :lookback].mean(axis=1, keepdims=True), out=std)
    std += config.std_epsilon
    return centred, mean


def forward_batch(
    xs: np.ndarray,
    params: np.ndarray,
    config: ModelConfig,
    want_cache: bool = False,
):
    """Model on a (B, L, C) stack; returns (B, L+tau, C) and optionally the
    intermediates the analytic gradients need.

    This is the training path and the reference that compile_operator is
    tested against: _normalized_map of the centred rows, with the mean
    added back in place. The output is a transposed view of the model's
    (B*C, L+tau) channel rows.

    The step maps the analysed rows, not the rows through compile_operator
    with an operator-domain adjoint: that runs a second Haar cascade over
    the (L+tau, L) operator every step (24 -> 51 idwt_level calls per
    train_wdt operation), and read 12% fewer train_wdt windows/s."""
    centred, mean = _centre_rows(xs, config)
    proj, cache = _normalized_map(centred, params, config)
    proj += mean
    out = proj.reshape(-1, config.channels, proj.shape[-1]).transpose(0, 2, 1)
    if not want_cache:
        return out
    return out, cache


def compile_operator(params: np.ndarray, config: ModelConfig, start: int = 0) -> np.ndarray:
    """The model's output columns start: as one linear operator on the
    centred rows: the (L+1, m) array [weight; bias], m = L+tau-start, such
    that a row [x - mean, std] of _centre_rows maps to its output less the
    mean, (x - mean) @ weight + std * bias.

    _normalized_map is linear in those rows, so the operator is its map of
    the identity: row i < L gives row i of the weight, and the last row,
    the unit std, the bias. Only the columns from the multiple of
    _COLUMN_TILE at or below start are carried through it, so each GEMM
    tiles them as it tiles every column and they keep the full compile's
    bits.
    """
    first = start - start % _COLUMN_TILE
    operator, _ = _normalized_map(np.eye(config.lookback + 1), params, config, first)
    return operator[:, start - first :]


def apply_operator(xs: np.ndarray, operator: np.ndarray, config: ModelConfig) -> np.ndarray:
    """A compiled (L+1, m) operator on a (B, L, C) stack: centre
    (_centre_rows), one GEMM of [x - mean, std] by [weight; bias] over the
    channel rows, add the mean back in place; returns (B, m, C)."""
    centred, mean = _centre_rows(xs, config)
    out = centred @ operator
    out += mean
    return out.reshape(-1, config.channels, out.shape[-1]).transpose(0, 2, 1)


def operator_chunks(
    params: np.ndarray, spans: np.ndarray, config: ModelConfig, start: int = 0
):
    """Compile the operator's columns start: once and apply them to checked
    (W, L+tau, C) window spans, OPERATOR_CHUNK windows at a time so memory
    stays flat; yields (span chunk, its forecast columns)."""
    operator = compile_operator(params, config, start)
    for lo in range(0, len(spans), OPERATOR_CHUNK):
        part = spans[lo : lo + OPERATOR_CHUNK]
        yield part, apply_operator(part[:, : config.lookback], operator, config)


def validate_params(params: np.ndarray, config: ModelConfig) -> None:
    """Reject an invalid config, a vector of the wrong type or length, and
    non-finite entries, naming the block that holds them."""
    config.ensure_valid()
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64):
        raise ConfigError(
            f"parameters must be a float64 vector, got {type(params).__name__} "
            f"of {getattr(params, 'dtype', 'no dtype')}"
        )
    for name, block in param_blocks(params, config):
        if not np.all(np.isfinite(block)):
            raise ConfigError(f"{name} contains non-finite entries")


def init_params(config: ModelConfig, seed: int) -> np.ndarray:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero biases.

    Draw order is fixed (branch by branch, that branch's columns of the
    approx band then of detail levels 1..K, or of real then imag;
    projection last) so a seed fully determines every weight byte.
    """
    config.ensure_valid()
    rng = np.random.Generator(np.random.PCG64(seed))
    try:
        params = np.zeros(param_count(config))
    # A model too large for any memory (MemoryError) or address space
    # (ValueError) is a config error, not a crash.
    except (MemoryError, ValueError) as exc:
        raise ConfigError(
            f"the {config.transform_kind} model has {param_count(config)} parameters: {exc}"
        ) from exc
    weights = [block[:-1] for _, block in param_blocks(params, config)]
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
