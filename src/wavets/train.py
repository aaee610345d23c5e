"""Joint backcast+forecast objective, closed-form gradients, Adam, and the
training loop with validation-based early stopping.

The model output is affine in every learned block, so gradients are exact
closed forms: the loss gradient flows back through the denormalization
scale, the projection, and each branch's inverse transform. Every channel
of every window is one row (``model.channel_rows``), so each block's
weight gradient is one row-GEMM, input rows transposed times output-
gradient rows, and the projection's input gradient is one more. The
backward pass mirrors the forward's single branch axis: one adjoint
synthesis over all branches, one weight gradient per band, written into
the per-branch blocks of one gradient vector with each bias gradient
scaled like its bias (model.branch_grads). The adjoint of the
orthonormal inverse wavelet cascade is the forward analysis cascade;
the adjoint of the inverse real-FFT step is a forward real-FFT with
half-spectrum bin weighting (interior bins carry factor 2/M, the DC bin
1/M, and for even M the Nyquist bin 1/M with a dead imaginary part).

Data arrive as window spans: a (W, L+tau, C) array whose span i is the
lookback spans[i, :L] followed by its target, so the joint-loss target of
a span is the span itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .errors import ConfigError, DataError, NumericalError
from .model import (
    ModelConfig,
    apply_operator,
    branch_grads,
    channel_rows,
    compile_operator,
    forward_batch,
    param_blocks,
    param_layout,
    validate_params,
)
from .wavelet import dwt_multi, make_filterbank


def check_spans(spans, config: ModelConfig) -> np.ndarray:
    """spans as a float64 (W >= 1, L+tau, C) array, without a copy when it
    already is one; DataError otherwise."""
    spans = np.asarray(spans, dtype=np.float64)
    want = (config.lookback + config.horizon, config.channels)
    if spans.ndim != 3 or len(spans) == 0 or spans.shape[1:] != want:
        raise DataError(
            f"window spans of shape {spans.shape} do not match "
            f"(W >= 1, {want[0]}, {want[1]})"
        )
    return spans


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


def _affine_grads(inp: np.ndarray, gout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (weight, bias) gradients for inp (..., m), gout (..., m'): the sum over
    # windows and channels is the inner dimension of one row-GEMM,
    # inp_rows.T @ gout_rows.
    gout_rows = channel_rows(gout, gout.shape[-1])
    return channel_rows(inp, inp.shape[-1]).T @ gout_rows, gout_rows.sum(axis=0)


def _affine_input_grad(weight: np.ndarray, gout: np.ndarray) -> np.ndarray:
    # Adjoint of model.affine_apply in its input: gout (..., m') -> (..., m).
    m_in, m_out = weight.shape
    rows = channel_rows(gout, m_out) @ weight.T
    return rows.reshape(gout.shape[:-1] + (m_in,))


def gradient_batch(
    params: np.ndarray,
    spans: np.ndarray,
    config: ModelConfig,
) -> tuple[np.ndarray, float]:
    """Exact batch-mean gradients of the joint loss over (B, L+tau, C) window
    spans; returns (gradient vector, loss)."""
    spans = check_spans(spans, config)
    out, cache = forward_batch(spans[:, : config.lookback], params, config, want_cache=True)
    residual = out - spans
    loss = float(np.mean(residual**2))
    total = config.lookback + config.horizon

    dout = (2.0 / residual.size) * residual
    # Denormalization multiplies by the per-window std; mean adds nothing.
    # The (B, L+tau, C) -> (B*C, L+tau) row copy is made once, for both
    # the projection's weight gradient and its input gradient.
    dproj = channel_rows((dout * cache["std"]).transpose(0, 2, 1), total)

    # The adjoint synthesis runs once over the branch axis: (B, C, N, L+tau).
    _, proj_weight, _ = param_blocks(params, config)[-1]
    dz = _affine_input_grad(proj_weight, dproj).reshape(
        cache["zcat"].shape[:-1] + (config.branches, total)
    )
    if config.transform_kind == "dft":
        band_grads = _irfft_adjoint(dz, total)
    else:
        pyr = dwt_multi(dz, make_filterbank("db1"), config.levels)
        band_grads = [pyr.approx] + pyr.details
    grads = np.empty_like(params)
    branch_grads(
        [
            _affine_grads(inp, gout.reshape(gout.shape[:-2] + (-1,)))
            for inp, gout in zip(cache["bands_in"], band_grads)
        ],
        grads,
        config,
    )
    _, dweight, dbias = param_blocks(grads, config)[-1]
    dweight[...], dbias[...] = _affine_grads(cache["zcat"], dproj)
    return grads, loss


def global_grad_norm(grads: np.ndarray) -> float:
    return float(np.sqrt(grads @ grads))


def clip_gradients(grads: np.ndarray, max_norm: float) -> None:
    """Scale grads in place so the global norm is at most max_norm."""
    norm = global_grad_norm(grads)
    if norm > max_norm:
        grads *= max_norm / norm


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update of params and the moment vectors m and
    v, in place; t is the 1-based step index.

    Each element sees the textbook operation order, b1 * m + (1 - b1) * g
    and so on, so the update is the same to the bit however the vectors
    are blocked.
    """
    if t < 1:
        raise ConfigError(f"step index must be >= 1, got {t}")
    b1, b2 = config.adam_beta1, config.adam_beta2
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads**2
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    params -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    stopped_reason: str = ""

    def to_doc(self) -> dict:
        """Reproducible summary: wall times are deliberately excluded so the
        document is byte-identical across reruns of the same seed."""
        return {
            "epochs": [
                {"epoch": e.epoch, "train_loss": e.train_loss, "val_loss": e.val_loss}
                for e in self.epochs
            ],
            "best_epoch": self.best_epoch,
            "best_val_loss": self.best_val_loss,
            "stopped_reason": self.stopped_reason,
        }


def evaluate_loss(
    params: np.ndarray,
    spans: np.ndarray,
    config: ModelConfig,
    chunk: int = 256,
) -> float:
    """Window-mean joint loss over (W, L+tau, C) window spans, evaluated in
    chunks with the compiled operator (model.compile_operator)."""
    spans = check_spans(spans, config)
    weight, bias = compile_operator(params, config)
    total_sq = 0.0
    for start in range(0, len(spans), chunk):
        part = spans[start : start + chunk]
        out = apply_operator(part[:, : config.lookback], weight, bias, config)
        total_sq += float(np.sum((out - part) ** 2))
    return total_sq / spans.size


def train(
    model_config: ModelConfig,
    train_spans: np.ndarray,
    val_spans: np.ndarray,
    train_config: TrainConfig,
    init: np.ndarray | None = None,
) -> tuple[np.ndarray, TrainHistory]:
    """Seeded mini-batch training with early stopping on validation loss.

    Batches are reshuffled every epoch from a dedicated generator; the
    last partial batch is kept, never dropped. Parameters from the best
    validation epoch are returned; init, when given, is copied, never
    updated. A non-finite loss aborts with NumericalError so the caller
    can report it cleanly.
    """
    model_config.ensure_valid()
    train_config.ensure_valid()
    train_spans = check_spans(train_spans, model_config)
    val_spans = check_spans(val_spans, model_config)

    from .model import init_params  # local import to keep module load light

    params = init.copy() if init is not None else init_params(model_config, model_config.seed)
    validate_params(params, model_config)

    rng = np.random.Generator(np.random.PCG64(train_config.seed))
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    history = TrainHistory()
    best_params = params.copy()
    bad_epochs = 0
    step = 0

    for epoch in range(1, train_config.max_epochs + 1):
        started = time.monotonic()
        order = rng.permutation(len(train_spans))
        sq_sum = 0.0
        sq_count = 0
        for lo in range(0, len(order), train_config.batch_size):
            idx = order[lo : lo + train_config.batch_size]
            grads, batch_loss = gradient_batch(params, train_spans[idx], model_config)
            if not np.isfinite(batch_loss):
                raise NumericalError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch starting {lo}"
                )
            if train_config.grad_clip is not None:
                clip_gradients(grads, train_config.grad_clip)
            step += 1
            adam_step(params, grads, adam_m, adam_v, step, train_config)
            n_out = len(idx) * (model_config.lookback + model_config.horizon)
            sq_sum += batch_loss * n_out * model_config.channels
            sq_count += n_out * model_config.channels
        train_loss = sq_sum / sq_count
        val_loss = evaluate_loss(params, val_spans, model_config)
        if not np.isfinite(val_loss):
            raise NumericalError(f"non-finite validation loss at epoch {epoch}")
        history.epochs.append(
            EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                val_loss=val_loss,
                seconds=time.monotonic() - started,
            )
        )
        if val_loss < history.best_val_loss:
            history.best_val_loss = val_loss
            history.best_epoch = epoch
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= train_config.patience:
                history.stopped_reason = "early_stop"
                break
    if not history.stopped_reason:
        history.stopped_reason = "max_epochs"
    return best_params, history


def gradient_check(
    params: np.ndarray,
    spans: np.ndarray,
    config: ModelConfig,
    h: float = 1e-3,
    corrupt_block: str | None = None,
) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients,
    reported per parameter block.

    Every entry of the parameter vector is probed, block by block.
    corrupt_block deliberately perturbs one block's analytic weight
    gradient (negative control for the CLI's failure path).

    The joint loss is quadratic in any one entry, so a central difference
    has no truncation error and the step h only sets the rounding noise,
    about 1e-16 * loss / h. At h = 1e-6 that noise alone read 5e-4
    relative on correct gradients near 1e-7; h = 1e-3 shrinks it a
    thousandfold.
    """
    spans = check_spans(spans, config)
    grads, _ = gradient_batch(params, spans, config)
    layout = param_layout(config)
    if corrupt_block is not None:
        names = [name for name, _, _ in layout]
        if corrupt_block not in names:
            raise ConfigError(
                f"corrupt_block {corrupt_block!r} is not a parameter block; "
                f"known blocks: {', '.join(names)}"
            )
        for name, weight, _ in param_blocks(grads, config):
            if name == corrupt_block:
                weight += 1e-3

    def loss_at(p: np.ndarray) -> float:
        out = forward_batch(spans[:, : config.lookback], p, config)
        return float(np.mean((out - spans) ** 2))

    probe = params.copy()
    report: dict[str, float] = {}
    for name, offset, (m_in, m_out) in layout:
        worst = 0.0
        for i in range(offset, offset + (m_in + 1) * m_out):
            keep = probe[i]
            probe[i] = keep + h
            up = loss_at(probe)
            probe[i] = keep - h
            down = loss_at(probe)
            probe[i] = keep
            fd = (up - down) / (2.0 * h)
            denom = max(abs(grads[i]), abs(fd), 1e-8)
            worst = max(worst, abs(grads[i] - fd) / denom)
        report[name] = worst
    return report
