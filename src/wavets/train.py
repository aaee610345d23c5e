"""Joint backcast+forecast objective, closed-form gradients, Adam, and the
training loop with validation-based early stopping.

The model output is affine in every learned block, so gradients are exact
closed forms: the loss gradient flows back through the denormalization
scale, the projection, and each branch's inverse transform. Every channel
of every window is one row (``model.channel_rows``), so each block's
weight gradient is one row-GEMM, input rows transposed times output-
gradient rows, and the projection's input gradient is one more. The
adjoint of the inverse wavelet step is the forward analysis cascade with
each detail band divided by its gain; the adjoint of the inverse
real-FFT step is a forward real-FFT with half-spectrum bin weighting
(interior bins carry factor 2/M, the DC bin 1/M, and for even M the
Nyquist bin 1/M with a dead imaginary part).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .model import (
    Affine,
    ModelConfig,
    ModelParams,
    channel_rows,
    copy_params,
    forward_batch,
    validate_params,
    zeros_like_params,
)
from .wavelet import dwt_multi, make_filterbank
from .wdt import level_gains


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    grad_clip: float | None = None
    seed: int = 0

    def problems(self) -> list[str]:
        out = []
        # Positive bounds are written as "finite and > 0" so that NaN, which
        # fails every comparison, and inf fail them instead of passing.
        if not _finite_positive(self.learning_rate):
            out.append(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            out.append(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            out.append(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            out.append(f"patience must be >= 1, got {self.patience}")
        for name in ("adam_beta1", "adam_beta2"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                out.append(f"{name} must be in (0, 1), got {val}")
        if not _finite_positive(self.adam_epsilon):
            out.append(
                f"adam_epsilon must be finite and > 0, got {self.adam_epsilon}"
            )
        if self.grad_clip is not None and not _finite_positive(self.grad_clip):
            out.append(
                f"grad_clip must be finite and > 0 when set, got {self.grad_clip}"
            )
        return out

    def ensure_valid(self) -> None:
        probs = self.problems()
        if probs:
            raise ConfigError("; ".join(probs))

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "max_epochs": self.max_epochs,
            "patience": self.patience,
            "adam_beta1": self.adam_beta1,
            "adam_beta2": self.adam_beta2,
            "adam_epsilon": self.adam_epsilon,
            "grad_clip": self.grad_clip,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        try:
            out = cls()
            for key in out.to_dict():
                if key in doc and doc[key] is not None:
                    cast = int if key in ("batch_size", "max_epochs", "patience", "seed") else float
                    setattr(out, key, cast(doc[key]))
            if doc.get("grad_clip") is None:
                out.grad_clip = None
            return out
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad train config: {exc}") from exc


def joint_loss(zhat: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of the full output against lookback + target:
    (1/(C*(L+tau))) * ||zhat - [x ++ y]||_F^2."""
    zhat = np.asarray(zhat, dtype=np.float64)
    target = np.concatenate(
        [np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)]
    )
    if zhat.shape != target.shape:
        raise DataError(
            f"output shape {zhat.shape} does not match lookback+target "
            f"{target.shape}"
        )
    return float(np.mean((zhat - target) ** 2))


def _pair_xy(item) -> tuple[np.ndarray, np.ndarray]:
    # Accept both WindowPair objects and plain (x, y) tuples.
    if hasattr(item, "x"):
        return item.x, item.y
    return item[0], item[1]


def _batch_tensors(
    batch: list, config: ModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    if not batch:
        raise DataError("empty batch")
    pairs = [_pair_xy(b) for b in batch]
    xs = np.stack([np.asarray(x, dtype=np.float64) for x, _ in pairs])
    ys = np.stack([np.asarray(y, dtype=np.float64) for _, y in pairs])
    if xs.shape[1:] != (config.lookback, config.channels) or ys.shape[1:] != (
        config.horizon,
        config.channels,
    ):
        raise DataError(
            f"batch windows {xs.shape[1:]} / targets {ys.shape[1:]} do not "
            f"match config ({config.lookback}|{config.horizon}, {config.channels})"
        )
    return xs, ys


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


def _affine_grads(inp: np.ndarray, gout: np.ndarray) -> Affine:
    # inp (..., m), gout (..., m'): the sum over windows and channels is the
    # inner dimension of one row-GEMM, inp_rows.T @ gout_rows.
    gout_rows = channel_rows(gout, gout.shape[-1])
    return Affine(
        weight=channel_rows(inp, inp.shape[-1]).T @ gout_rows,
        bias=gout_rows.sum(axis=0),
    )


def _affine_input_grad(aff: Affine, gout: np.ndarray) -> np.ndarray:
    # Adjoint of aff.apply in its input: gout (..., m') -> (..., m).
    m_in, m_out = aff.weight.shape
    rows = channel_rows(gout, m_out) @ aff.weight.T
    return rows.reshape(gout.shape[:-1] + (m_in,))


def gradient_batch(
    params: ModelParams,
    xs: np.ndarray,
    ys: np.ndarray,
    config: ModelConfig,
) -> tuple[ModelParams, float]:
    """Exact batch-mean gradients of the joint loss; returns (grads, loss)."""
    out, cache = forward_batch(xs, params, config, want_cache=True)
    target = np.concatenate([xs, ys], axis=1)
    residual = out - target
    loss = float(np.mean(residual**2))
    total = config.lookback + config.horizon

    dout = (2.0 / residual.size) * residual
    # Denormalization multiplies by the per-window std; mean adds nothing.
    # The (B, L+tau, C) -> (B*C, L+tau) row copy is made once, for both
    # the projection's weight gradient and its input gradient.
    dproj = channel_rows((dout * cache["std"]).transpose(0, 2, 1), total)

    grads = zeros_like_params(params)
    grads.projection = _affine_grads(cache["zcat"], dproj)
    dzcat = _affine_input_grad(params.projection, dproj).reshape(
        cache["zcat"].shape
    )

    fb = make_filterbank("db1")
    for n in range(config.branches):
        dz = dzcat[..., n * total : (n + 1) * total]
        bc = cache["branches"][n]
        if config.transform_kind in ("wdt", "dwt"):
            # Adjoint of gain-undoing + orthonormal synthesis: forward
            # analysis, then divide each detail band by its gain.
            pyr = dwt_multi(dz, fb, config.levels)
            gains = level_gains(config.levels, bc["order"])
            grads.fru_ll[n] = _affine_grads(bc["approx_in"], pyr.approx)
            for lv in range(1, config.levels + 1):
                grads.fru_lh[n][lv - 1] = _affine_grads(
                    bc["details_in"][lv - 1], pyr.details[lv - 1] / gains[lv - 1]
                )
        else:
            grad_re, grad_im = _irfft_adjoint(dz, total)
            grads.fru_real[n] = _affine_grads(bc["re_in"], grad_re)
            grads.fru_imag[n] = _affine_grads(bc["im_in"], grad_im)
    return grads, loss


def gradients(
    params: ModelParams, batch: list, config: ModelConfig
) -> ModelParams:
    """Spec-facing wrapper: batch of (window, target) pairs -> gradient set."""
    xs, ys = _batch_tensors(batch, config)
    grads, _ = gradient_batch(params, xs, ys, config)
    return grads


def global_grad_norm(grads: ModelParams) -> float:
    total = 0.0
    for _, aff in grads.named_blocks():
        total += float(np.sum(aff.weight**2)) + float(np.sum(aff.bias**2))
    return float(np.sqrt(total))


def clip_gradients(grads: ModelParams, max_norm: float) -> ModelParams:
    """Scale every block so the global norm is at most max_norm."""
    norm = global_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    for _, aff in grads.named_blocks():
        aff.weight *= scale
        aff.bias *= scale
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter block."""

    m: ModelParams
    v: ModelParams

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(m=zeros_like_params(params), v=zeros_like_params(params))


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    t: int,
    config: TrainConfig,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update; t is the 1-based step index."""
    if t < 1:
        raise ConfigError(f"step index must be >= 1, got {t}")
    b1, b2 = config.adam_beta1, config.adam_beta2
    eps = config.adam_epsilon
    lr = config.learning_rate
    new_params = copy_params(params)
    new_m = copy_params(state.m)
    new_v = copy_params(state.v)
    walk = zip(
        new_params.named_blocks(),
        grads.named_blocks(),
        new_m.named_blocks(),
        new_v.named_blocks(),
    )
    for (_, p), (_, g), (_, m), (_, v) in walk:
        for attr in ("weight", "bias"):
            pa = getattr(p, attr)
            ga = getattr(g, attr)
            ma = getattr(m, attr)
            va = getattr(v, attr)
            ma[...] = b1 * ma + (1.0 - b1) * ga
            va[...] = b2 * va + (1.0 - b2) * ga**2
            m_hat = ma / (1.0 - b1**t)
            v_hat = va / (1.0 - b2**t)
            pa[...] = pa - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, AdamState(m=new_m, v=new_v)


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
    params: ModelParams,
    pairs: list,
    config: ModelConfig,
    chunk: int = 256,
) -> float:
    """Window-mean joint loss over a dataset, evaluated in chunks."""
    if not pairs:
        raise DataError("cannot evaluate on an empty window list")
    total_sq = 0.0
    count = 0
    for start in range(0, len(pairs), chunk):
        part = pairs[start : start + chunk]
        xs, ys = _batch_tensors(part, config)
        out = forward_batch(xs, params, config)
        target = np.concatenate([xs, ys], axis=1)
        total_sq += float(np.sum((out - target) ** 2))
        count += out.size
    return total_sq / count


def train(
    model_config: ModelConfig,
    train_pairs: list,
    val_pairs: list,
    train_config: TrainConfig,
    init: ModelParams | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """Seeded mini-batch training with early stopping on validation loss.

    Batches are reshuffled every epoch from a dedicated generator; the
    last partial batch is kept, never dropped. Parameters from the best
    validation epoch are returned. A non-finite loss aborts with
    NumericalError so the caller can report it cleanly.
    """
    model_config.ensure_valid()
    train_config.ensure_valid()
    if not train_pairs:
        raise DataError("training set has no windows")
    if not val_pairs:
        raise DataError("validation set has no windows")

    from .model import init_params  # local import to keep module load light

    params = init if init is not None else init_params(model_config, model_config.seed)
    validate_params(params, model_config)
    xs_all, ys_all = _batch_tensors(train_pairs, model_config)

    rng = np.random.Generator(np.random.PCG64(train_config.seed))
    state = AdamState.zeros(params)
    history = TrainHistory()
    best_params = copy_params(params)
    bad_epochs = 0
    step = 0

    for epoch in range(1, train_config.max_epochs + 1):
        started = time.monotonic()
        order = rng.permutation(len(train_pairs))
        sq_sum = 0.0
        sq_count = 0
        for lo in range(0, len(order), train_config.batch_size):
            idx = order[lo : lo + train_config.batch_size]
            grads, batch_loss = gradient_batch(
                params, xs_all[idx], ys_all[idx], model_config
            )
            if not np.isfinite(batch_loss):
                raise NumericalError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch starting {lo}"
                )
            if train_config.grad_clip is not None:
                grads = clip_gradients(grads, train_config.grad_clip)
            step += 1
            params, state = adam_step(params, grads, state, step, train_config)
            n_out = len(idx) * (model_config.lookback + model_config.horizon)
            sq_sum += batch_loss * n_out * model_config.channels
            sq_count += n_out * model_config.channels
        train_loss = sq_sum / sq_count
        val_loss = evaluate_loss(params, val_pairs, model_config)
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
            best_params = copy_params(params)
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
    params: ModelParams,
    batch: list,
    config: ModelConfig,
    h: float = 1e-6,
    corrupt_block: str | None = None,
) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients,
    reported per parameter block.

    Every entry of every block is probed. corrupt_block deliberately
    perturbs one block's analytic gradient (negative control for the
    CLI's failure path).
    """
    xs, ys = _batch_tensors(batch, config)
    grads, _ = gradient_batch(params, xs, ys, config)
    if corrupt_block is not None:
        names = [name for name, _ in grads.named_blocks()]
        if corrupt_block not in names:
            raise ConfigError(
                f"corrupt_block {corrupt_block!r} is not a parameter block; "
                f"known blocks: {', '.join(names)}"
            )
        for name, aff in grads.named_blocks():
            if name == corrupt_block:
                aff.weight += 1e-3

    def loss_at(p: ModelParams) -> float:
        out = forward_batch(xs, p, config)
        target = np.concatenate([xs, ys], axis=1)
        return float(np.mean((out - target) ** 2))

    probe = copy_params(params)
    probe_blocks = dict(probe.named_blocks())
    report: dict[str, float] = {}
    for name, gblock in grads.named_blocks():
        pblock = probe_blocks[name]
        worst = 0.0
        for attr in ("weight", "bias"):
            arr = getattr(pblock, attr)
            ganalytic = getattr(gblock, attr)
            flat = arr.reshape(-1)
            gflat = ganalytic.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = loss_at(probe)
                flat[i] = keep - h
                down = loss_at(probe)
                flat[i] = keep
                fd = (up - down) / (2.0 * h)
                denom = max(abs(gflat[i]), abs(fd), 1e-8)
                worst = max(worst, abs(gflat[i] - fd) / denom)
        report[name] = worst
    return report
