"""Multi-branch linear forecaster built on the derivative transform.

Pipeline per window: instance-normalize, then for each branch n apply the
order-n derivative transform channel-wise, stretch every coefficient band
from length L/2^l to (L+tau)/2^l with a learned affine map, invert the
transform at length L+tau, concatenate the branch outputs along time, and
project back to length L+tau; finally denormalize. Branch weights are
shared across channels, distinct per branch and per band.

transform_kind selects the branch transform: "wdt" (orders 1..N), "dwt"
(orders forced to 0, a plain wavelet ablation), or "dft" (real FFT with
separate affine maps on the real and imaginary parts).

Everything is affine in the parameters, which keeps gradients closed-form
(see train module).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .wavelet import FilterBank, WaveletPyramid, dwt_multi, make_filterbank
from .wdt import DerivativePyramid, level_gains, wdt_forward, wdt_inverse

CHECKPOINT_VERSION = 1

TRANSFORM_KINDS = ("wdt", "dwt", "dft")


@dataclass
class ModelConfig:
    lookback: int
    horizon: int
    channels: int
    branches: int
    levels: int
    transform_kind: str = "wdt"
    std_epsilon: float = 1e-5
    seed: int = 0
    branch_orders: list[int] | None = None

    def problems(self) -> list[str]:
        """All validation failures at once; empty list means valid."""
        out = []
        for name in ("lookback", "horizon", "channels", "branches", "levels"):
            if getattr(self, name) < 1:
                out.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.transform_kind not in TRANSFORM_KINDS:
            out.append(
                f"transform_kind must be one of {TRANSFORM_KINDS}, "
                f"got {self.transform_kind!r}"
            )
        if self.transform_kind in ("wdt", "dwt") and self.levels >= 1:
            block = 2**self.levels
            for label, length in (
                ("lookback", self.lookback),
                ("lookback+horizon", self.lookback + self.horizon),
            ):
                if length % block != 0:
                    out.append(
                        f"{label} = {length} must be divisible by "
                        f"2^levels = {block}"
                    )
        # Written so NaN and inf fail too; zero would divide a constant
        # window by a zero std.
        if not (math.isfinite(self.std_epsilon) and self.std_epsilon > 0):
            out.append(
                f"std_epsilon must be finite and > 0, got {self.std_epsilon}"
            )
        if self.branch_orders is not None:
            if len(self.branch_orders) != self.branches:
                out.append(
                    f"branch_orders has {len(self.branch_orders)} entries "
                    f"for {self.branches} branches"
                )
            elif any(o < 0 for o in self.branch_orders):
                out.append(f"branch_orders must be >= 0, got {self.branch_orders}")
        return out

    def ensure_valid(self) -> None:
        probs = self.problems()
        if probs:
            raise ConfigError("; ".join(probs))

    def effective_orders(self) -> list[int]:
        """Derivative order per branch: 1..N by default, all 0 for dwt."""
        if self.transform_kind == "dwt":
            return [0] * self.branches
        if self.branch_orders is not None:
            return list(self.branch_orders)
        return list(range(1, self.branches + 1))

    def band_sizes(self) -> list[tuple[int, int]]:
        """(input, output) length per band, approx first then levels 1..K."""
        sizes = [
            (
                self.lookback // 2**self.levels,
                (self.lookback + self.horizon) // 2**self.levels,
            )
        ]
        for lv in range(1, self.levels + 1):
            sizes.append(
                (self.lookback // 2**lv, (self.lookback + self.horizon) // 2**lv)
            )
        return sizes

    def spectrum_sizes(self) -> tuple[int, int]:
        """(input, output) half-spectrum lengths for the dft kind."""
        return (
            self.lookback // 2 + 1,
            (self.lookback + self.horizon) // 2 + 1,
        )

    def to_dict(self) -> dict:
        return {
            "lookback": self.lookback,
            "horizon": self.horizon,
            "channels": self.channels,
            "branches": self.branches,
            "levels": self.levels,
            "transform_kind": self.transform_kind,
            "std_epsilon": self.std_epsilon,
            "seed": self.seed,
            "branch_orders": self.branch_orders,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        try:
            return cls(
                lookback=int(doc["lookback"]),
                horizon=int(doc["horizon"]),
                channels=int(doc["channels"]),
                branches=int(doc["branches"]),
                levels=int(doc["levels"]),
                transform_kind=str(doc.get("transform_kind", "wdt")),
                std_epsilon=float(doc.get("std_epsilon", 1e-5)),
                seed=int(doc.get("seed", 0)),
                branch_orders=(
                    None
                    if doc.get("branch_orders") is None
                    else [int(o) for o in doc["branch_orders"]]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad model config: {exc}") from exc


@dataclass
class InstanceStats:
    """Per-channel window mean and (population std + epsilon)."""

    mean: np.ndarray
    std: np.ndarray


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


@dataclass
class Affine:
    """One learned map x @ weight + bias; weight is (m_in, m_out)."""

    weight: np.ndarray
    bias: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        m_in, m_out = self.weight.shape
        out = channel_rows(x, m_in) @ self.weight
        out += self.bias
        return out.reshape(x.shape[:-1] + (m_out,))


def fru_apply(coeff: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Band refinement: affine stretch of a coefficient vector."""
    return Affine(weight=np.asarray(weight), bias=np.asarray(bias)).apply(
        np.asarray(coeff, dtype=np.float64)
    )


@dataclass
class ModelParams:
    """All learned weights, laid out exactly as the checkpoint stores them.

    Wavelet kinds fill fru_ll/fru_lh (per branch; fru_lh[n][l-1] refines
    detail level l) and leave fru_real/fru_imag empty; the dft kind does
    the opposite.
    """

    fru_ll: list[Affine] = field(default_factory=list)
    fru_lh: list[list[Affine]] = field(default_factory=list)
    fru_real: list[Affine] = field(default_factory=list)
    fru_imag: list[Affine] = field(default_factory=list)
    projection: Affine | None = None

    def named_blocks(self) -> list[tuple[str, Affine]]:
        """Deterministic (name, block) walk used by the optimizer and
        gradient checker; every learned block appears exactly once."""
        out = []
        for n, aff in enumerate(self.fru_ll, start=1):
            out.append((f"fru_ll[branch{n}]", aff))
        for n, levels in enumerate(self.fru_lh, start=1):
            for lv, aff in enumerate(levels, start=1):
                out.append((f"fru_lh[branch{n}][level{lv}]", aff))
        for n, aff in enumerate(self.fru_real, start=1):
            out.append((f"fru_real[branch{n}]", aff))
        for n, aff in enumerate(self.fru_imag, start=1):
            out.append((f"fru_imag[branch{n}]", aff))
        if self.projection is not None:
            out.append(("projection", self.projection))
        return out


def instance_normalize(
    window: np.ndarray, std_epsilon: float
) -> tuple[np.ndarray, InstanceStats]:
    """Per-channel standardization of one L x C window."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2 or window.shape[0] < 2:
        raise DataError(f"window must be L x C with L >= 2, got {window.shape}")
    mean = window.mean(axis=0)
    std = window.std(axis=0) + std_epsilon
    return (window - mean) / std, InstanceStats(mean=mean, std=std)


def instance_denormalize(output: np.ndarray, stats: InstanceStats) -> np.ndarray:
    """Undo instance_normalize on a (possibly longer) output block."""
    return np.asarray(output, dtype=np.float64) * stats.std + stats.mean


def _normalize_batch(xs: np.ndarray, std_epsilon: float):
    # xs is (B, L, C); stats are per window per channel.
    mean = xs.mean(axis=1, keepdims=True)
    std = xs.std(axis=1, keepdims=True) + std_epsilon
    return (xs - mean) / std, mean, std


def _wavelet_branch_forward(
    normed_t: np.ndarray,
    order: int,
    fru_ll: Affine,
    fru_lh: list[Affine],
    config: ModelConfig,
    fb: FilterBank,
):
    """One branch on (B, C, L) input; returns (z, bands) with z (B, C, L+tau)."""
    pyr = wdt_forward(normed_t, fb, config.levels, order)
    approx_in = pyr.base.approx
    details_in = pyr.base.details
    refined_approx = fru_ll.apply(approx_in)
    refined_details = [
        fru_lh[lv - 1].apply(details_in[lv - 1])
        for lv in range(1, config.levels + 1)
    ]
    out_pyr = DerivativePyramid(
        order=order,
        base=WaveletPyramid(
            levels=config.levels,
            approx=refined_approx,
            details=refined_details,
            original_length=config.lookback + config.horizon,
        ),
        gains=level_gains(config.levels, order),
    )
    z = wdt_inverse(out_pyr, fb)
    return z, {"approx_in": approx_in, "details_in": details_in, "order": order}


def _dft_branch_forward(
    normed_t: np.ndarray,
    fru_real: Affine,
    fru_imag: Affine,
    config: ModelConfig,
):
    """One spectral branch: rfft, refine real/imag parts, irfft at L+tau."""
    spectrum = np.fft.rfft(normed_t, axis=-1)
    re_in = spectrum.real
    im_in = spectrum.imag
    re_out = fru_real.apply(re_in)
    im_out = fru_imag.apply(im_in)
    z = np.fft.irfft(
        re_out + 1j * im_out, n=config.lookback + config.horizon, axis=-1
    )
    return z, {"re_in": re_in, "im_in": im_in}


def forward_batch(
    xs: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    want_cache: bool = False,
):
    """Model on a (B, L, C) stack; returns (B, L+tau, C) and optionally the
    intermediates the analytic gradients need."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[1] != config.lookback or xs.shape[2] != config.channels:
        raise DataError(
            f"batch shape {xs.shape} does not match (B, {config.lookback}, "
            f"{config.channels})"
        )
    normed, mean, std = _normalize_batch(xs, config.std_epsilon)
    normed_t = normed.transpose(0, 2, 1)
    fb = make_filterbank("db1")
    orders = config.effective_orders()
    zs = []
    branch_caches = []
    if config.transform_kind in ("wdt", "dwt"):
        for n in range(config.branches):
            z, bc = _wavelet_branch_forward(
                normed_t, orders[n], params.fru_ll[n], params.fru_lh[n], config, fb
            )
            zs.append(z)
            branch_caches.append(bc)
    else:
        for n in range(config.branches):
            z, bc = _dft_branch_forward(
                normed_t, params.fru_real[n], params.fru_imag[n], config
            )
            zs.append(z)
            branch_caches.append(bc)
    zcat = np.concatenate(zs, axis=-1)
    proj = params.projection.apply(zcat)
    out = proj.transpose(0, 2, 1) * std + mean
    if not want_cache:
        return out
    cache = {
        "mean": mean,
        "std": std,
        "zcat": zcat,
        "branches": branch_caches,
    }
    return out, cache


def forward(window: np.ndarray, params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Model on a single L x C window; returns the (L+tau) x C output."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise DataError(f"window must be L x C, got shape {window.shape}")
    return forward_batch(window[None], params, config)[0]


def validate_params(params: ModelParams, config: ModelConfig) -> None:
    """Reject any parameter/config dimension mismatch up front."""
    config.ensure_valid()
    total = config.lookback + config.horizon
    if params.projection is None:
        raise ConfigError("params missing projection block")
    want_proj = (config.branches * total, total)
    if params.projection.weight.shape != want_proj:
        raise ConfigError(
            f"projection weight shape {params.projection.weight.shape}, "
            f"expected {want_proj}"
        )
    if config.transform_kind in ("wdt", "dwt"):
        if len(params.fru_ll) != config.branches or len(params.fru_lh) != config.branches:
            raise ConfigError(
                f"wavelet params must have {config.branches} branches, got "
                f"{len(params.fru_ll)} fru_ll / {len(params.fru_lh)} fru_lh"
            )
        if params.fru_real or params.fru_imag:
            raise ConfigError("wavelet model must not carry spectral blocks")
        sizes = config.band_sizes()
        for n in range(config.branches):
            if params.fru_ll[n].weight.shape != sizes[0]:
                raise ConfigError(
                    f"fru_ll branch {n + 1} weight shape "
                    f"{params.fru_ll[n].weight.shape}, expected {sizes[0]}"
                )
            if len(params.fru_lh[n]) != config.levels:
                raise ConfigError(
                    f"fru_lh branch {n + 1} has {len(params.fru_lh[n])} levels, "
                    f"expected {config.levels}"
                )
            for lv in range(1, config.levels + 1):
                if params.fru_lh[n][lv - 1].weight.shape != sizes[lv]:
                    raise ConfigError(
                        f"fru_lh branch {n + 1} level {lv} weight shape "
                        f"{params.fru_lh[n][lv - 1].weight.shape}, "
                        f"expected {sizes[lv]}"
                    )
    else:
        if len(params.fru_real) != config.branches or len(params.fru_imag) != config.branches:
            raise ConfigError(
                f"dft params must have {config.branches} branches, got "
                f"{len(params.fru_real)} fru_real / {len(params.fru_imag)} fru_imag"
            )
        if params.fru_ll or params.fru_lh:
            raise ConfigError("dft model must not carry wavelet blocks")
        want = config.spectrum_sizes()
        for n in range(config.branches):
            for label, aff in (
                ("fru_real", params.fru_real[n]),
                ("fru_imag", params.fru_imag[n]),
            ):
                if aff.weight.shape != want:
                    raise ConfigError(
                        f"{label} branch {n + 1} weight shape {aff.weight.shape}, "
                        f"expected {want}"
                    )
    for name, aff in params.named_blocks():
        if aff.bias.shape != (aff.weight.shape[1],):
            raise ConfigError(
                f"{name} bias shape {aff.bias.shape} does not match weight "
                f"columns {aff.weight.shape[1]}"
            )
        if not (np.all(np.isfinite(aff.weight)) and np.all(np.isfinite(aff.bias))):
            raise ConfigError(f"{name} contains non-finite entries")


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero biases.

    Draw order is fixed (branches in order, approx band then detail levels
    1..K, or real then imag; projection last) so a seed fully determines
    every weight byte.
    """
    config.ensure_valid()
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(m_in: int, m_out: int) -> Affine:
        bound = 1.0 / np.sqrt(m_in)
        return Affine(
            weight=rng.uniform(-bound, bound, size=(m_in, m_out)),
            bias=np.zeros(m_out),
        )

    params = ModelParams()
    total = config.lookback + config.horizon
    if config.transform_kind in ("wdt", "dwt"):
        sizes = config.band_sizes()
        for _ in range(config.branches):
            params.fru_ll.append(draw(*sizes[0]))
            params.fru_lh.append([draw(*sizes[lv]) for lv in range(1, config.levels + 1)])
    else:
        m_in, m_out = config.spectrum_sizes()
        for _ in range(config.branches):
            params.fru_real.append(draw(m_in, m_out))
            params.fru_imag.append(draw(m_in, m_out))
    params.projection = draw(config.branches * total, total)
    validate_params(params, config)
    return params


def zeros_like_params(params: ModelParams) -> ModelParams:
    """Same block structure, all entries zero; used for gradient buffers."""

    def zlike(aff: Affine) -> Affine:
        return Affine(
            weight=np.zeros_like(aff.weight), bias=np.zeros_like(aff.bias)
        )

    return ModelParams(
        fru_ll=[zlike(a) for a in params.fru_ll],
        fru_lh=[[zlike(a) for a in levels] for levels in params.fru_lh],
        fru_real=[zlike(a) for a in params.fru_real],
        fru_imag=[zlike(a) for a in params.fru_imag],
        projection=None if params.projection is None else zlike(params.projection),
    )


def copy_params(params: ModelParams) -> ModelParams:
    def cp(aff: Affine) -> Affine:
        return Affine(weight=aff.weight.copy(), bias=aff.bias.copy())

    return ModelParams(
        fru_ll=[cp(a) for a in params.fru_ll],
        fru_lh=[[cp(a) for a in levels] for levels in params.fru_lh],
        fru_real=[cp(a) for a in params.fru_real],
        fru_imag=[cp(a) for a in params.fru_imag],
        projection=None if params.projection is None else cp(params.projection),
    )


def _affine_to_doc(aff: Affine) -> dict:
    return {"weight": aff.weight.tolist(), "bias": aff.bias.tolist()}


def _affine_from_doc(doc: dict) -> Affine:
    return Affine(
        weight=np.array(doc["weight"], dtype=np.float64),
        bias=np.array(doc["bias"], dtype=np.float64),
    )


def save_checkpoint(params: ModelParams, config: ModelConfig, path: str) -> None:
    """Versioned JSON checkpoint; floats round-trip to identical bits."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "fru_ll": [_affine_to_doc(a) for a in params.fru_ll],
        "fru_lh": [[_affine_to_doc(a) for a in levels] for levels in params.fru_lh],
        "fru_real": [_affine_to_doc(a) for a in params.fru_real],
        "fru_imag": [_affine_to_doc(a) for a in params.fru_imag],
        "projection": _affine_to_doc(params.projection),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path: str) -> tuple[ModelParams, ModelConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if doc.get("version") != CHECKPOINT_VERSION:
        raise DataError(
            f"checkpoint {path} has version {doc.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    try:
        config = ModelConfig.from_dict(doc["config"])
        params = ModelParams(
            fru_ll=[_affine_from_doc(a) for a in doc["fru_ll"]],
            fru_lh=[[_affine_from_doc(a) for a in lvls] for lvls in doc["fru_lh"]],
            fru_real=[_affine_from_doc(a) for a in doc["fru_real"]],
            fru_imag=[_affine_from_doc(a) for a in doc["fru_imag"]],
            projection=_affine_from_doc(doc["projection"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path} is malformed: {exc}") from exc
    try:
        validate_params(params, config)
    except ConfigError as exc:
        raise DataError(f"checkpoint {path} fails validation: {exc}") from exc
    return params, config
