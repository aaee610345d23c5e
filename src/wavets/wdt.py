"""Multi-order wavelet derivative transform and its exact inverse.

The derivative transform of order n is a plain multi-level DWT whose
detail band at cascade level l (l = 1 finest) is multiplied by the gain

    g_l = (-1)^n * 2^(n * (K - l + 1))

so the finest band receives the largest gain 2^(n*K). The approximation
band passes through unscaled. Gains are signed powers of two, so applying
and removing them is exact in binary floating point and the inverse
restores the input to within DWT round-trip error. A DerivativePyramid is
the order and the scaled band list; its gains are derived from the two.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .wavelet import FilterBank, dwt_multi, idwt_multi


# The largest power of two a float64 holds is 2^1023, so a gain 2^(n*k)
# needs n*k <= MAX_GAIN_EXPONENT.
MAX_GAIN_EXPONENT = sys.float_info.max_exp - 1

# Rows of the coefficient file, or cells of a scalogram line, formatted
# per write by the CSV exports.
EXPORT_SLICE = 4096


def gain_bound_problem(order: int, levels: int) -> str | None:
    """Why an order-n transform at K levels has no float64 gains, or None
    when its largest gain 2^(n*K) is a float64. The config, the command
    line and derivative_gain each raise this message as their own error."""
    if order * levels <= MAX_GAIN_EXPONENT:
        return None
    return (
        f"derivative order {order} at levels = {levels} needs the gain "
        f"2^(order*levels); order*levels must be at most {MAX_GAIN_EXPONENT}"
    )


def derivative_gain(order: int, scale: int) -> float:
    """Gain applied at scale index k for derivative order n: (-1)^n * 2^(n*k)."""
    if problem := gain_bound_problem(order, scale):
        raise DataError(problem)
    sign = -1.0 if order % 2 else 1.0
    return sign * float(2.0 ** (order * scale))


def level_gains(levels: int, order: int) -> list[float]:
    """Per-cascade-level gains g_1..g_K; level 1 (finest) maps to scale K."""
    return [derivative_gain(order, levels - lv + 1) for lv in range(1, levels + 1)]


@dataclass
class DerivativePyramid:
    """The bands [LL_K, LH_1, ..., LH_K] of an order-n transform, with each
    detail band LH_l already times its gain g_l.

    levels, length (each LL_K coefficient covers 2^K samples) and gains are
    derived from the bands and the order, so they cannot disagree with them.
    """

    order: int
    bands: list[np.ndarray]

    @property
    def levels(self) -> int:
        return len(self.bands) - 1

    @property
    def length(self) -> int:
        return np.shape(self.bands[0])[-1] << self.levels

    @property
    def gains(self) -> list[float]:
        return level_gains(self.levels, self.order)


def wdt_forward(
    signal: np.ndarray, fb: FilterBank, levels: int, order: int
) -> DerivativePyramid:
    """Decompose and rescale: DWT then multiply each detail band by its gain.

    Order 0 leaves every band untouched, so the result is bit-identical
    to dwt_multi output.
    """
    if order < 0:
        raise DataError(f"derivative order must be >= 0, got {order}")
    bands = dwt_multi(signal, fb, levels)
    for lv, g in enumerate(level_gains(levels, order), start=1):
        if g != 1.0:
            bands[lv] = bands[lv] * g
    return DerivativePyramid(order=order, bands=bands)


def wdt_inverse(pyramid: DerivativePyramid, fb: FilterBank) -> np.ndarray:
    """Undo the gains, then invert the DWT cascade; exact signal recovery."""
    bands = pyramid.bands
    plain = [det if g == 1.0 else det / g for det, g in zip(bands[1:], pyramid.gains)]
    return idwt_multi(bands[:1] + plain, fb)


@dataclass
class BandEnergy:
    """Energy of one band, before and after gain scaling."""

    band: str
    gain: float
    energy_scaled: float
    energy_unscaled: float


@dataclass
class EnergyReport:
    signal_energy: float
    coeff_energy_unscaled: float
    coeff_energy_scaled: float
    per_band: list[BandEnergy] = field(default_factory=list)


def _band_walk(pyramid: DerivativePyramid) -> list[tuple[str, np.ndarray, float]]:
    """(label, coefficients, gain) per band, in export order: LL_K first,
    with gain 1.0, then LH_K down to LH_1.

    Detail level l must hold length >> l coefficients, so a pyramid with a
    missing or mis-sized band raises DataError naming it.
    """
    k = pyramid.levels
    if k < 1:
        raise DataError(f"a pyramid needs LL_K and at least one detail band, got {k + 1}")
    bands, t, gains = pyramid.bands, pyramid.length, pyramid.gains
    for lv in range(1, k + 1):
        got = np.shape(bands[lv])[-1]
        if got != t >> lv:
            raise DataError(
                f"band LH{lv} has length {got}, but LL{k} of length "
                f"{np.shape(bands[0])[-1]} needs {t >> lv}"
            )
    return [(f"LL{k}", bands[0], 1.0)] + [
        (f"LH{lv}", bands[lv], gains[lv - 1]) for lv in range(k, 0, -1)
    ]


def energy_report(signal: np.ndarray, pyramid: DerivativePyramid) -> EnergyReport:
    """Compare signal energy with coefficient energy, per band and in total.

    The unscaled total (gains divided out) equals the signal energy for
    the orthonormal bank; the scaled total is reported for inspection
    but is not an invariant, since gains deliberately change energy.
    """
    signal = np.asarray(signal, dtype=np.float64)
    walk = _band_walk(pyramid)
    if signal.shape[-1] != pyramid.length:
        raise DataError(
            f"signal length {signal.shape[-1]} does not match pyramid "
            f"length {pyramid.length}"
        )
    # Dividing by the approximation's gain 1.0 is exact.
    bands = [
        BandEnergy(
            band=label,
            gain=g,
            energy_scaled=float(np.sum(coeffs**2)),
            energy_unscaled=float(np.sum((coeffs / g) ** 2)),
        )
        for label, coeffs, g in walk
    ]
    return EnergyReport(
        signal_energy=float(np.sum(signal**2)),
        coeff_energy_unscaled=sum(b.energy_unscaled for b in bands),
        coeff_energy_scaled=sum(b.energy_scaled for b in bands),
        per_band=bands,
    )


def _bands_in_export_order(
    pyramid: DerivativePyramid,
) -> list[tuple[str, np.ndarray, float]]:
    """_band_walk of a pyramid of one series with finite coefficients,
    each band as a float64 array.

    The exports lay time along one axis, so a pyramid of a (..., T) batch
    is refused rather than written with its windows run together, and a
    non-finite coefficient raises NumericalError before any file opens.
    """
    out = [
        (label, np.asarray(coeffs, dtype=np.float64), gain)
        for label, coeffs, gain in _band_walk(pyramid)
    ]
    for label, coeffs, _ in out:
        if coeffs.ndim != 1:
            raise DataError(
                f"exports need a pyramid of one series; band {label} has "
                f"shape {coeffs.shape}"
            )
        # A NaN is the band's min and max, and an infinity one of them, so
        # no mask of the band's size is made.
        if coeffs.size and not np.isfinite([coeffs.min(), coeffs.max()]).all():
            raise NumericalError(f"band {label} has non-finite coefficients")
    return out


def write_coefficients_csv(pyramid: DerivativePyramid, path: str) -> None:
    """Write one row per coefficient: band,index,value,gain.

    Values use repr precision so they round-trip to the same float64.
    The file is written EXPORT_SLICE rows at a time, so the writer's
    memory does not grow with the series; a pyramid whose bands are not
    1-D raises DataError.
    """
    bands = _bands_in_export_order(pyramid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("band,index,value,gain\n")
        for label, coeffs, gain in bands:
            tail = f",{gain!r}\n"
            for lo in range(0, len(coeffs), EXPORT_SLICE):
                values = coeffs[lo : lo + EXPORT_SLICE].tolist()
                fh.write("".join([f"{label},{i},{v!r}{tail}" for i, v in enumerate(values, lo)]))


def write_scalogram_csv(pyramid: DerivativePyramid, path: str) -> None:
    """Write the (K+1) x T scalogram grid, one labeled row per band.

    Rows run LL_K, LH_K, ..., LH_1. Each cell is a coefficient's |value|
    divided by the largest |value| in the whole pyramid, repeated over the
    T / len(band) samples the coefficient covers; an all-zero pyramid
    keeps its zeros. Each distinct value is formatted once and repeated.
    The header and every row are written about EXPORT_SLICE cells at a
    time, each slice's |value| / peak formed as it is written, so the
    writer's memory does not grow with the series (a coefficient covering
    more than EXPORT_SLICE samples is written whole); a pyramid whose
    bands are not 1-D raises DataError.
    """
    bands = _bands_in_export_order(pyramid)
    # max |c| is max(max c, -min c): negation is exact, and no |c| array
    # of the band's size is made.
    peak = max(max(coeffs.max(), -coeffs.min()) for _, coeffs, _ in bands)
    t = pyramid.length
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("band")
        for lo in range(0, t, EXPORT_SLICE):
            fh.write("".join([f",{i}" for i in range(lo, min(lo + EXPORT_SLICE, t))]))
        fh.write("\n")
        for label, coeffs, _ in bands:
            rep = t // len(coeffs)
            step = max(1, EXPORT_SLICE // rep)
            fh.write(label)
            for lo in range(0, len(coeffs), step):
                amp = np.abs(coeffs[lo : lo + step])
                if peak > 0:
                    amp /= peak
                fh.write("".join([f",{v!r}" * rep for v in amp.tolist()]))
            fh.write("\n")
