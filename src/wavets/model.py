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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .errors import ConfigError, DataError
from .wavelet import WaveletPyramid, dwt_multi, idwt_multi, make_filterbank
from .wdt import level_gains

CHECKPOINT_VERSION = 1

TRANSFORM_KINDS = ("wdt", "dwt", "dft")


_REQUIRED = object()


def _strict_value(value, kind: type, name: str):
    if kind is str:
        return str(value)
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if kind is int:
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def read_field(
    doc: dict, key: str, kind: type, section: str, default=_REQUIRED, many=False
):
    """Read one config entry as kind (int, float, bool or str), or with
    many=True as a list of them; every config section reads through here.

    Integers are JSON integers or floats without a fraction (32.0, never
    32.7). Floats also take numeric strings such as "nan", which the
    bounds checks then name. No bool counts as a number, and a bool field
    takes only true or false. A missing or null entry gives the default.
    """
    name = f"{section}.{key}"
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{name} is required")
        return default
    if not many:
        return _strict_value(value, kind, name)
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return [_strict_value(v, kind, f"{name}[{i}]") for i, v in enumerate(value)]


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
        if not isinstance(doc, dict):
            raise ConfigError("model config must be a JSON object")
        sizes = ("lookback", "horizon", "channels", "branches", "levels")
        return cls(
            **{key: read_field(doc, key, int, "model") for key in sizes},
            transform_kind=read_field(doc, "transform_kind", str, "model", "wdt"),
            std_epsilon=read_field(doc, "std_epsilon", float, "model", 1e-5),
            seed=read_field(doc, "seed", int, "model", 0),
            branch_orders=read_field(doc, "branch_orders", int, "model", None, many=True),
        )


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


def _normalize_batch(xs: np.ndarray, std_epsilon: float):
    # xs is (B, L, C); stats are per window per channel.
    mean = xs.mean(axis=1, keepdims=True)
    std = xs.std(axis=1, keepdims=True) + std_epsilon
    return (xs - mean) / std, mean, std


def _branch_maps(params: ModelParams, config: ModelConfig) -> list[list[Affine]]:
    """Per band, the N branch maps that read it: the approximation band,
    then detail levels 1..K, or the real then the imaginary half-spectrum."""
    if config.transform_kind == "dft":
        return [params.fru_real, params.fru_imag]
    return [params.fru_ll] + [list(maps) for maps in zip(*params.fru_lh)]


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


def band_maps(params: ModelParams, config: ModelConfig) -> list[Affine]:
    """Each band's N branch maps as one map on the band they all read:
    weights side by side (m_in, N*m_out), biases end to end, each scaled
    by its bias_scales factor."""
    return [
        Affine(
            weight=np.concatenate([aff.weight for aff in maps], axis=1),
            bias=(np.stack([aff.bias for aff in maps]) * scale[:, None]).ravel(),
        )
        for maps, scale in zip(_branch_maps(params, config), bias_scales(config))
    ]


def branch_grads(band_grads: list[Affine], config: ModelConfig) -> ModelParams:
    """Split band_maps gradients back into the per-branch blocks.

    A branch's weight gradient is its column block; its bias gradient is
    its slice of the band's bias gradient times the same bias_scales
    factor. The projection is left unset.
    """
    per_band = [
        [
            Affine(weight=w, bias=b)
            for w, b in zip(
                np.split(grad.weight, config.branches, axis=1),
                grad.bias.reshape(config.branches, -1) * scale[:, None],
            )
        ]
        for grad, scale in zip(band_grads, bias_scales(config))
    ]
    if config.transform_kind == "dft":
        return ModelParams(fru_real=per_band[0], fru_imag=per_band[1])
    return ModelParams(
        fru_ll=per_band[0], fru_lh=[list(maps) for maps in zip(*per_band[1:])]
    )


def forward_batch(
    xs: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    want_cache: bool = False,
):
    """Model on a (B, L, C) stack; returns (B, L+tau, C) and optionally the
    intermediates the analytic gradients need."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or len(xs) == 0 or xs.shape[1:] != (config.lookback, config.channels):
        raise DataError(
            f"batch shape {xs.shape} does not match (B >= 1, {config.lookback}, "
            f"{config.channels})"
        )
    normed, mean, std = _normalize_batch(xs, config.std_epsilon)
    normed_t = normed.transpose(0, 2, 1)
    total = config.lookback + config.horizon
    if config.transform_kind == "dft":
        spectrum = np.fft.rfft(normed_t, axis=-1)
        bands_in = [spectrum.real, spectrum.imag]
    else:
        pyr = dwt_multi(normed_t, make_filterbank("db1"), config.levels)
        bands_in = [pyr.approx] + pyr.details
    # (B, C, N*m_out) -> (B, C, N, m_out): synthesis runs over the branch axis.
    bands_out = [
        aff.apply(band).reshape(band.shape[:-1] + (config.branches, -1))
        for aff, band in zip(band_maps(params, config), bands_in)
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
    proj = params.projection.apply(zcat)
    out = proj.transpose(0, 2, 1) * std + mean
    if not want_cache:
        return out
    cache = {"mean": mean, "std": std, "zcat": zcat, "bands_in": bands_in}
    return out, cache


def forward(window: np.ndarray, params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Model on a single L x C window; returns the (L+tau) x C output."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise DataError(f"window must be L x C, got shape {window.shape}")
    return forward_batch(window[None], params, config)[0]


def _block_layout(config: ModelConfig) -> list[tuple[str, tuple[int, int]]]:
    """(name, weight shape) of every learned block, in named_blocks order."""
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
    return bands + [("projection", (config.branches * total, total))]


def validate_params(params: ModelParams, config: ModelConfig) -> None:
    """Reject any parameter/config dimension mismatch up front."""
    config.ensure_valid()
    have = [(name, aff.weight.shape) for name, aff in params.named_blocks()]
    for got, want in zip_longest(have, _block_layout(config)):
        if got != want:
            raise ConfigError(
                f"parameter block {got or 'missing'} does not match the "
                f"{config.transform_kind} config, which expects {want or 'none'}"
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
