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

Instance normalization (RevIN) divides a window's channel by its std,
maps it and multiplies the output back, so
std * ((x - mean) / std @ W + b) = [x - mean, std] @ [W; b]: the std is
one more input, the one every bias meets, and nothing divides by it.
_centre_rows, the one instance normalization, writes them time-major:
one (L+1, B*C) array whose column b*C + c is window b's channel c,
[x - mean; std]. The lookback is copied in as L contiguous slabs of B*C
values, and the mean and the std reduce down the columns, every column
at once. The mean is summed in blocks (_column_sum): a plain sum down
the time axis would lose about five times the accuracy of a pairwise
sum along each window at a mean of 1e6. Short of adding the mean back,
the model is linear in these columns, and no path copies them back
into rows.

This module owns the branch path in both directions, on those columns.
The band maps, the synthesis and the projection are all linear, so short
of adding the mean back the model is one product. Written on channel
rows it is xb @ V; the code forms its transpose, V.T @ xb.T.
_band_rows analyses the columns into xb.T, (L + bands, R), and
_band_operator carries the projection back through the synthesis
(_synthesis_adjoint) to the band maps, the band-domain operator V.
_pull_back takes a gradient of V to the parameters. No row is
synthesised: a step costs two (L, L+tau) products per channel row plus
a fixed cost in the size of the parameters, so at the ETTh1 shape it
beats synthesising every row from about 40 windows of 7 channels up and
loses below. The adjoint of the orthonormal Haar synthesis is the
analysis cascade (_analyse); the adjoint of the inverse real FFT is a
forward real FFT with half-spectrum bin weighting (_irfft_adjoint:
interior bins carry factor 2/M, the DC bin 1/M, and for even M the
Nyquist bin 1/M with a dead imaginary part).

Each caller forms the product itself. forward_batch and apply_operator
keep the time-major columns on the right, so each output is (m, B*C),
an (m, B, C) array that they return as a (B, m, C) view: forward_batch
takes V.T @ xb.T of _centre_rows' array. compile_operator takes xb @ V
of the identity, which gives the model as one (L+1, m) array
[weight; bias] of the m output columns from a given start, so a
forecast compiles just the horizon. apply_operator multiplies the
centred columns by its transpose in one GEMM, operator.T @ centred. On
a 2-vCPU Xeon with one BLAS thread, that orientation of a 256-window
chunk at the ETTh1 horizon took 1.87 ms against 2.23 ms for the channel
rows times the operator under OpenBLAS's SkylakeX kernel, and 3.66 ms
against 3.89 ms under its Haswell kernel (medians of 300 interleaved
calls). forward_batch is the operator's reference; the two differ only
in rounding.
operator_chunks is the one loop behind every fixed-parameter forecast: it
compiles once and applies the operator OPERATOR_CHUNK windows at a time.
cli.split_report scores each chunk as it comes (metrics.score_chunks),
and cli.forecast_predictions writes each chunk into one preallocated
array. check_windows is the one shape check of window arrays.

gradient_batch, the training step, and evaluate_loss, the validation
loss, form the joint loss's residual in place in the (L+tau, B, C)
array of a fresh output, so every function that reads that layout lives
here. gradient_batch takes V's gradient as xb.T @ dproj.T, with dproj
that (L+tau, B*C) residual scaled.

The parameters are one float64 vector. param_layout, derived from the
config alone, names its blocks in checkpoint order (one per band, then
the projection), and param_blocks gives each block as one (m_in+1, m_out)
view [weight; bias] into the vector, so the optimizer, the gradient norm
and the gradient checker work on the whole vector at once.
A checkpoint is one JSON header line, then the vector's bytes; it is
read by data.read_bytes and its header checked by data.json_object.
"""

from __future__ import annotations

import json

import numpy as np

from .config import ModelConfig
from .data import decode_text, json_object, read_bytes
from .errors import ConfigError, DataError
from .wavelet import dwt_multi, idwt_multi, make_filterbank
from .wdt import level_gains

CHECKPOINT_VERSION = 4

# Windows per GEMM on the fixed-parameter paths (operator_chunks), and so
# per scored chunk (metrics.score_chunks).
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


def _band_rows(centred: np.ndarray, config: ModelConfig) -> np.ndarray:
    """xb transposed: the analysed first L rows of the time-major (L+1, R)
    array [x - mean; std] of _centre_rows, each band followed by the std
    row, (L + bands, R). Every map of the model reads its rows through
    this.

    _analyse runs along the last axis of the (R, L) transposed view, so
    its bands come out column-major and their transposes are contiguous."""
    bands = _analyse(centred[:-1].T, config)
    return np.concatenate([x for band in bands for x in (band.T, centred[-1:])], axis=0)


def _band_operator(
    params: np.ndarray, config: ModelConfig, start: int = 0
) -> tuple[np.ndarray, list[np.ndarray]]:
    """V, the band-domain operator of the output columns start:, such that
    V.T @ _band_rows(centred) is the model short of adding the mean back,
    and the q_k it was built from.

    q_k, the synthesis adjoint of the projection weight's columns, is band
    k's (L+tau-start, N*m_out) projection. V stacks each band's [V_k; c_k],
    its map V_k = W_k @ q_k.T and its scaled bias c_k = b_k @ q_k.T, with
    the projection bias added to its last row; the q_k and V shrink with
    the columns left out."""
    total = config.lookback + config.horizon
    *bands, (_, projection) = param_blocks(params, config)
    # Output column j's projection weights as N branch series of length L+tau.
    columns = projection[:-1].T[start:].reshape(-1, config.branches, total)
    qs = [q.reshape(len(columns), -1) for q in _synthesis_adjoint(columns, config)]
    operator = np.empty((sum(len(block) for _, block in bands), len(columns)))
    lo = 0
    for scaled, q in zip(_scaled_band_maps(params, config), qs):
        np.matmul(scaled, q.T, out=operator[lo : lo + len(scaled)])
        lo += len(scaled)
    operator[-1] += projection[-1, start:]
    return operator, qs


def _pull_back(
    gv: np.ndarray, qs: list[np.ndarray], params: np.ndarray, config: ModelConfig
) -> np.ndarray:
    """The gradient vector of <gv, V> in the parameters, for a gradient gv
    of the V that _band_operator built from params with every column, and
    qs its q_k.

    Band k's rows of gv, [G_k; s] with s the std row, give its block
    whole, [G_k; s] @ q_k, the bias row then scaled like its bias, and
    q_k's gradient [G_k; s].T times the band's _scaled_band_maps map. The
    projection's weight gradient is the synthesis of the q_k gradients,
    its bias gradient gv's last row. Each q_k is popped from qs once its
    band is pulled back, so none is alive during that synthesis and the
    caller's list is left empty."""
    total = config.lookback + config.horizon
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


def _column_sum(rows: np.ndarray) -> np.ndarray:
    """The column sums of (n, R) rows, summed in blocks: each run of 8
    rows, then each run of 7 of those partial sums, then the rest, with
    the rows left over at either step added last. Every step adds whole
    contiguous rows, and a column's sum passes through about 8 + 7 + n/56
    additions, not n as a sequential sum's does: at a mean of 1e6 a
    forecast stays within about an ulp of the accuracy a pairwise sum
    along each window gives, where a sequential sum down the time axis
    loses five times as much (tests/test_operator.py)."""
    partial, leftovers = rows, []
    for size in (8, 7):
        head = len(partial) - len(partial) % size
        leftovers.append(partial[head:])
        partial = partial[:head].reshape(-1, size, partial.shape[1]).sum(axis=1)
    total = partial.sum(axis=0)
    for rest in leftovers:
        total += rest.sum(axis=0)
    return total


def _centre_rows(xs: np.ndarray, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The instance normalization of a (B, L, C) lookback stack, short of
    its division: a time-major (L+1, B*C) array whose column b*C + c is
    window b's channel c centred, followed by its std (epsilon added), and
    each column's mean as (B*C,).

    The lookback is copied once into the first L rows, L contiguous slabs
    of B*C values, so the statistics reduce down the columns, every column
    at once, and the centring works in place on that copy. The mean is _column_sum's blocked sum; the sum
    of squares needs no squared temporary. Nothing divides by the std
    row: _band_rows and the compiled operator take the columns
    [x - mean; std] whole."""
    xs = check_windows(xs, config, config.lookback)
    batch, lookback, channels = xs.shape
    centred = np.empty((lookback + 1, batch * channels))
    rows, std = centred[:-1], centred[-1]
    # A real copy, so the in-place steps never write into the caller's windows.
    np.copyto(rows.reshape(lookback, batch, channels), xs.transpose(1, 0, 2))
    mean = _column_sum(rows)
    mean /= lookback
    rows -= mean
    np.einsum("ij,ij->j", rows, rows, out=std)
    std /= lookback
    np.sqrt(std, out=std)
    std += config.std_epsilon
    return centred, mean


def _window_view(out: np.ndarray, config: ModelConfig) -> np.ndarray:
    """The (m, B*C) output columns as a (B, m, C) view of their (m, B, C)
    array: the model's output, window by window."""
    return out.reshape(len(out), -1, config.channels).transpose(1, 0, 2)


def forward_batch(xs: np.ndarray, params: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Model on a (B, L, C) stack; returns (B, L+tau, C), a transposed view
    of the model's (L+tau, B*C) output columns: V.T @ xb.T of the centred
    columns, the mean added back in place. It is the reference that
    compile_operator is tested against."""
    centred, mean = _centre_rows(xs, config)
    operator, _ = _band_operator(params, config)
    proj = operator.T @ _band_rows(centred, config)
    proj += mean
    return _window_view(proj, config)


def gradient_batch(
    params: np.ndarray,
    spans: np.ndarray,
    config: ModelConfig,
) -> tuple[np.ndarray, float]:
    """Exact batch-mean gradients of the joint loss over (B, L+tau, C) window
    spans; returns (gradient vector, loss).

    forward_batch's product V.T @ xb.T on the lookbacks; the residual
    against the span is formed in place in the fresh (L+tau, B, C) output
    and, scaled in place, is dproj: adding the mean back adds nothing to
    the gradient. _pull_back takes V's gradient xb.T @ dproj.T to the
    parameters. Each array is freed once last read (the centred columns
    and V after the product, xb after V's gradient, each q_k in
    _pull_back), so none is alive during the pull-back's synthesis.

    The step pulls back from the analysed rows, not from the operator
    domain, _pull_back(_band_rows(I) @ (centred @ dproj.T)) with
    compile_operator's forward: that runs a second Haar cascade over the
    (L+tau, L) operator every step (24 -> 51 idwt_level calls per
    train_wdt operation), and read 12% fewer train_wdt windows/s."""
    total = config.lookback + config.horizon
    spans = check_windows(spans, config, total)
    centred, mean = _centre_rows(spans[:, : config.lookback], config)
    operator, qs = _band_operator(params, config)
    xbt = _band_rows(centred, config)
    dproj = operator.T @ xbt
    del centred, operator
    dproj += mean
    residual = dproj.reshape(total, -1, config.channels)
    residual -= spans.transpose(1, 0, 2)
    loss = float(np.mean(np.square(residual)))
    dproj *= 2.0 / residual.size
    gv = xbt @ dproj.T
    del xbt
    return _pull_back(gv, qs, params, config), loss


def compile_operator(params: np.ndarray, config: ModelConfig, start: int = 0) -> np.ndarray:
    """The model's output columns start: as one linear operator on the
    centred columns: the (L+1, m) array [weight; bias], m = L+tau-start,
    such that a column [x - mean; std] of _centre_rows maps to its output
    less the mean, weight.T @ (x - mean) + std * bias.

    V.T @ xb.T is linear in those columns, so the operator is its map of
    the identity: column i < L gives row i of the weight, and the last
    column, the unit std, the bias. Only the columns from the multiple of
    _COLUMN_TILE at or below start are carried through it, so each GEMM
    tiles them as it tiles every column and they keep the full compile's
    bits.
    """
    first = start - start % _COLUMN_TILE
    operator, _ = _band_operator(params, config, first)
    return (_band_rows(np.eye(config.lookback + 1), config).T @ operator)[:, start - first :]


def apply_operator(xs: np.ndarray, operator: np.ndarray, config: ModelConfig) -> np.ndarray:
    """A compiled (L+1, m) operator on a (B, L, C) stack: centre
    (_centre_rows), one GEMM of [weight; bias].T by the centred columns
    [x - mean; std], add the mean back in place; returns (B, m, C), a
    transposed view of the (m, B, C) result."""
    centred, mean = _centre_rows(xs, config)
    out = operator.T @ centred
    out += mean
    return _window_view(out, config)


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


def evaluate_loss(params: np.ndarray, spans: np.ndarray, config: ModelConfig) -> float:
    """Window-mean joint loss over (W, L+tau, C) window spans, with the
    squared error summed chunk by chunk (operator_chunks).

    Each chunk's error is formed and summed in the (L+tau, B, C) array
    that apply_operator returns a view of: the spans are subtracted from
    the fresh output in place, and the difference is squared in place.
    """
    spans = check_windows(spans, config, config.lookback + config.horizon)
    total_sq = 0.0
    for part, out in operator_chunks(params, spans, config):
        residual = out.transpose(1, 0, 2)
        residual -= part.transpose(1, 0, 2)
        np.square(residual, out=residual)
        total_sq += float(np.sum(residual))
    return total_sq / spans.size


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
    """Versioned checkpoint: one line of JSON holding the version and the
    model config, then the parameter vector's little-endian float64 bytes
    and nothing after them, so every bit round-trips.

    The config fixes the vector's layout (param_layout), so none is stored.
    """
    header = json.dumps({"version": CHECKPOINT_VERSION, "config": config.to_dict()})
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(params, dtype="<f8").data)


def load_checkpoint(path: str) -> tuple[np.ndarray, ModelConfig]:
    raw = read_bytes(path, "checkpoint ", DataError)
    # json.dumps escapes every newline, so the first one ends the header.
    end = raw.find(b"\n")
    not_current = f"checkpoint {path} is not a version-{CHECKPOINT_VERSION} checkpoint"
    if end < 0:
        raise DataError(f"{not_current}: no newline ends its first line")
    text = decode_text(raw[:end], f"checkpoint {path}", DataError)
    header = json_object(text, f"{not_current}: its first line", DataError)
    if header.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"{not_current}: its first line gives version {header.get('version')!r}")
    # A stored config that does not parse or check is a defect of the file,
    # so it exits like every other one, not like a bad run config; it is
    # checked before param_count reads its sizes.
    try:
        config = ModelConfig.from_dict(header.get("config"))
        config.ensure_valid()
    except ConfigError as exc:
        raise DataError(f"checkpoint {path} config fails validation: {exc}") from exc
    body = memoryview(raw)[end + 1 :]
    count = param_count(config)
    if len(body) != 8 * count:
        raise DataError(
            f"checkpoint {path} holds {len(body) / 8:.12g} parameter values, "
            f"but its {config.transform_kind} config expects {count}"
        )
    # A native, owned, writable copy of the little-endian values.
    params = np.frombuffer(body, "<f8").astype(np.float64)
    try:
        validate_params(params, config)
    except ConfigError as exc:
        raise DataError(f"checkpoint {path} fails validation: {exc}") from exc
    return params, config
