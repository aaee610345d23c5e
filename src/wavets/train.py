"""Joint backcast+forecast objective, its gradient, Adam, and the training
loop with validation-based early stopping.

The model module owns the branch path in both directions, the forward
map and its adjoint; this module owns the loss, the optimizer and the
loop. The loss gradient runs back through the denormalization, which
multiplies each channel row by its std, and model._normalized_map_adjoint
takes it from there to the gradient vector.

Data arrive as window spans: a (W, L+tau, C) array whose span i is the
lookback spans[i, :L] followed by its target, so the joint-loss target of
a span is the span itself. model.check_windows checks them, and the
validation loss runs the compiled operator through model.operator_chunks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .errors import ConfigError, NumericalError
from .model import (
    ModelConfig,
    _normalized_map_adjoint,
    check_windows,
    forward_batch,
    init_params,
    operator_chunks,
    param_blocks,
    param_layout,
    validate_params,
)


def gradient_batch(
    params: np.ndarray,
    spans: np.ndarray,
    config: ModelConfig,
) -> tuple[np.ndarray, float]:
    """Exact batch-mean gradients of the joint loss over (B, L+tau, C) window
    spans; returns (gradient vector, loss)."""
    total = config.lookback + config.horizon
    spans = check_windows(spans, config, total)
    out, cache = forward_batch(spans[:, : config.lookback], params, config, want_cache=True)
    # In the (B, C, L+tau) layout the model computed, so its rows are
    # dproj's channel rows.
    residual = out.transpose(0, 2, 1) - spans.transpose(0, 2, 1)
    loss = float(np.mean(residual**2))
    # Denormalization multiplies each channel row by its std; mean adds nothing.
    dproj = (2.0 / residual.size) * residual.reshape(-1, total) * cache["std"]
    return _normalized_map_adjoint(dproj, cache, params, config), loss


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


def evaluate_loss(params: np.ndarray, spans: np.ndarray, config: ModelConfig) -> float:
    """Window-mean joint loss over (W, L+tau, C) window spans, with the
    squared error summed chunk by chunk (model.operator_chunks)."""
    spans = check_windows(spans, config, config.lookback + config.horizon)
    total_sq = 0.0
    for part, out in operator_chunks(params, spans, config):
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


def check_corrupt_block(name: str | None, config: ModelConfig) -> None:
    """Reject a gradient_check corrupt_block that names no parameter block."""
    names = [block for block, _, _ in param_layout(config)]
    if name is not None and name not in names:
        raise ConfigError(
            f"corrupt_block {name!r} is not a parameter block; "
            f"known blocks: {', '.join(names)}"
        )


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
    spans = check_windows(spans, config, config.lookback + config.horizon)
    grads, _ = gradient_batch(params, spans, config)
    layout = param_layout(config)
    if corrupt_block is not None:
        check_corrupt_block(corrupt_block, config)
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
