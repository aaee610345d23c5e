"""Adam, gradient clipping, the training loop with validation-based early
stopping, and the finite-difference gradient checker.

The model module owns the joint loss and its exact gradient
(model.gradient_batch) and the validation loss (model.evaluate_loss),
beside the forward map and its adjoint; this module calls them through
its own names, so a caller can reach them as train.gradient_batch and
train.evaluate_loss too. The tests and CI replace train.gradient_batch
to hand gradient_check a wrong gradient, its negative control. Data
arrive as (W, L+tau, C) window spans: span i is the lookback
spans[i, :L] followed by its target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .errors import ConfigError, NumericalError
from .model import (
    ModelConfig,
    check_windows,
    evaluate_loss,
    forward_batch,
    gradient_batch,
    init_params,
    param_blocks,
    validate_params,
)

# Elements per block of adam_step: a block of each of the four vectors and
# the two work buffers take 6 * 128 KiB, inside a per-core L2 cache of
# 1 MiB or more.
ADAM_BLOCK = 16384

# gradient_check's central-difference step. The joint loss is quadratic in
# any one entry, so a central difference has no truncation error and the
# step only sets the rounding noise, about 1e-16 * loss / step. At 1e-6
# that noise alone read 5e-4 relative on correct gradients near 1e-7;
# 1e-3 shrinks it a thousandfold.
GRADCHECK_STEP = 1e-3


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

    The vectors are walked in ADAM_BLOCK-element blocks, and the update of
    a block runs in place through two block-sized work buffers, so no
    full-length temporary is built and each block is read while it is in
    cache. Each element sees the textbook operations in the textbook
    order: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2, then
    p -= lr * (m/c1) / (sqrt(v/c2) + eps) with c1 = 1 - b1**t and
    c2 = 1 - b2**t, so the update is the same to the bit as the
    whole-vector expressions.
    """
    if t < 1:
        raise ConfigError(f"step index must be >= 1, got {t}")
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    lr, eps = config.learning_rate, config.adam_epsilon
    work_a = np.empty(min(ADAM_BLOCK, params.size))
    work_b = np.empty_like(work_a)
    for lo in range(0, params.size, ADAM_BLOCK):
        p, g = params[lo : lo + ADAM_BLOCK], grads[lo : lo + ADAM_BLOCK]
        m_blk, v_blk = m[lo : lo + ADAM_BLOCK], v[lo : lo + ADAM_BLOCK]
        a, b = work_a[: len(p)], work_b[: len(p)]
        m_blk *= b1
        np.multiply(g, 1.0 - b1, out=a)
        m_blk += a
        v_blk *= b2
        np.square(g, out=a)
        a *= 1.0 - b2
        v_blk += a
        # a = lr * m_hat, b = sqrt(v_hat) + eps.
        np.divide(m_blk, c1, out=a)
        a *= lr
        np.divide(v_blk, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p -= a


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
    span = model_config.lookback + model_config.horizon
    train_spans = check_windows(train_spans, model_config, span)
    val_spans = check_windows(val_spans, model_config, span)
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
            n_out = len(idx) * span
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
) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients,
    reported per parameter block.

    Every entry of the parameter vector is probed with a step of
    GRADCHECK_STEP.
    """
    spans = check_windows(spans, config, config.lookback + config.horizon)
    grads, _ = gradient_batch(params, spans, config)

    def loss_at(p: np.ndarray) -> float:
        out = forward_batch(spans[:, : config.lookback], p, config)
        return float(np.mean((out - spans) ** 2))

    h = GRADCHECK_STEP
    probe = params.copy()
    errors = np.empty_like(params)
    for i, grad in enumerate(grads):
        keep = probe[i]
        probe[i] = keep + h
        up = loss_at(probe)
        probe[i] = keep - h
        down = loss_at(probe)
        probe[i] = keep
        fd = (up - down) / (2.0 * h)
        errors[i] = abs(grad - fd) / max(abs(grad), abs(fd), 1e-8)
    return {name: float(np.max(block)) for name, block in param_blocks(errors, config)}
