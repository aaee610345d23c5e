"""Multi-order wavelet derivative transform and its exact inverse.

The derivative transform of order n is a plain multi-level DWT whose
detail band at cascade level l (l = 1 finest) is multiplied by the gain

    g_l = (-1)^n * 2^(n * (K - l + 1))

so the finest band receives the largest gain 2^(n*K). The approximation
band passes through unscaled. Gains are signed powers of two, so applying
and removing them is exact in binary floating point and the inverse
restores the input to within DWT round-trip error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .wavelet import FilterBank, WaveletPyramid, dwt_multi, idwt_multi


def derivative_gain(order: int, scale: int) -> float:
    """Gain applied at scale index k for derivative order n: (-1)^n * 2^(n*k)."""
    sign = -1.0 if order % 2 else 1.0
    return sign * float(2.0 ** (order * scale))


def level_gains(levels: int, order: int) -> list[float]:
    """Per-cascade-level gains g_1..g_K; level 1 (finest) maps to scale K."""
    return [derivative_gain(order, levels - lv + 1) for lv in range(1, levels + 1)]


@dataclass
class DerivativePyramid:
    """WaveletPyramid with gain-rescaled details plus the gains applied.

    gains[l-1] is the factor already multiplied into base.details[l-1];
    storing them makes exported coefficient files self-describing and
    lets the inverse undo scaling without re-deriving anything.
    """

    order: int
    base: WaveletPyramid
    gains: list[float] = field(default_factory=list)

    def validate(self) -> None:
        self.base.validate()
        if len(self.gains) != self.base.levels:
            raise DataError(
                f"pyramid stores {len(self.gains)} gains for K={self.base.levels}"
            )
        expected = level_gains(self.base.levels, self.order)
        for got, want in zip(self.gains, expected):
            if got != want:
                raise DataError(
                    f"stored gains {self.gains} do not match order {self.order}"
                )


def wdt_forward(
    signal: np.ndarray, fb: FilterBank, levels: int, order: int
) -> DerivativePyramid:
    """Decompose and rescale: DWT then multiply each detail band by its gain.

    Order 0 leaves every band untouched, so the result is bit-identical
    to dwt_multi output.
    """
    if order < 0:
        raise DataError(f"derivative order must be >= 0, got {order}")
    base = dwt_multi(signal, fb, levels)
    gains = level_gains(levels, order)
    for idx, g in enumerate(gains):
        if g != 1.0:
            base.details[idx] = base.details[idx] * g
    return DerivativePyramid(order=order, base=base, gains=gains)


def wdt_inverse(pyramid: DerivativePyramid, fb: FilterBank) -> np.ndarray:
    """Undo the gains, then invert the DWT cascade; exact signal recovery."""
    pyramid.validate()
    details = [
        det if g == 1.0 else det / g
        for det, g in zip(pyramid.base.details, pyramid.gains)
    ]
    plain = WaveletPyramid(
        levels=pyramid.base.levels,
        approx=pyramid.base.approx,
        details=details,
        original_length=pyramid.base.original_length,
    )
    return idwt_multi(plain, fb)


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


def energy_report(signal: np.ndarray, pyramid: DerivativePyramid) -> EnergyReport:
    """Compare signal energy with coefficient energy, per band and in total.

    The unscaled total (gains divided out) equals the signal energy for
    the orthonormal bank; the scaled total is reported for inspection
    but is not an invariant, since gains deliberately change energy.
    """
    signal = np.asarray(signal, dtype=np.float64)
    pyramid.validate()
    if signal.shape[-1] != pyramid.base.original_length:
        raise DataError(
            f"signal length {signal.shape[-1]} does not match pyramid "
            f"original length {pyramid.base.original_length}"
        )
    k = pyramid.base.levels
    bands = [
        BandEnergy(
            band=f"LL{k}",
            gain=1.0,
            energy_scaled=float(np.sum(pyramid.base.approx**2)),
            energy_unscaled=float(np.sum(pyramid.base.approx**2)),
        )
    ]
    for lv in range(k, 0, -1):
        det = pyramid.base.details[lv - 1]
        g = pyramid.gains[lv - 1]
        scaled = float(np.sum(det**2))
        bands.append(
            BandEnergy(
                band=f"LH{lv}",
                gain=g,
                energy_scaled=scaled,
                energy_unscaled=float(np.sum((det / g) ** 2)),
            )
        )
    return EnergyReport(
        signal_energy=float(np.sum(signal**2)),
        coeff_energy_unscaled=sum(b.energy_unscaled for b in bands),
        coeff_energy_scaled=sum(b.energy_scaled for b in bands),
        per_band=bands,
    )


def _bands_in_export_order(
    pyramid: DerivativePyramid,
) -> list[tuple[str, np.ndarray, float]]:
    """(label, coefficients, gain) per band of a valid pyramid of one series,
    in export order: LL_K first, then LH_K down to LH_1.

    The exports lay time along one axis, so a pyramid of a (..., T) batch
    is refused rather than written with its windows run together, and a
    non-finite coefficient raises NumericalError before any file opens.
    """
    pyramid.validate()
    k = pyramid.base.levels
    out = [(f"LL{k}", pyramid.base.approx, 1.0)]
    for lv in range(k, 0, -1):
        out.append((f"LH{lv}", pyramid.base.details[lv - 1], pyramid.gains[lv - 1]))
    for label, coeffs, _ in out:
        if np.ndim(coeffs) != 1:
            raise DataError(
                f"exports need a pyramid of one series; band {label} has "
                f"shape {np.shape(coeffs)}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise NumericalError(f"band {label} has non-finite coefficients")
    return out


def _normalized_bands(pyramid: DerivativePyramid) -> list[tuple[str, np.ndarray, int]]:
    """(label, |coefficients| / global peak, repeat count) per band.

    Row l of the scalogram is the band's normalized amplitudes, each
    repeated over the T / len(band) samples it covers. An all-zero
    pyramid keeps its zeros.
    """
    bands = _bands_in_export_order(pyramid)
    t = pyramid.base.original_length
    amps = [np.abs(np.asarray(coeffs, dtype=np.float64)) for _, coeffs, _ in bands]
    peak = np.max([amp.max() for amp in amps])
    if peak > 0:
        amps = [amp / peak for amp in amps]
    return [(label, amp, t // amp.shape[0]) for (label, _, _), amp in zip(bands, amps)]


def scalogram(pyramid: DerivativePyramid) -> np.ndarray:
    """(K+1) x T grid of normalized coefficient amplitudes.

    Row order LL_K, LH_K, ..., LH_1; each band is step-repeated up to the
    original length and |value| is divided by the global maximum over the
    whole pyramid. An all-zero pyramid yields an all-zero grid. Raises
    DataError for a pyramid whose bands are not 1-D.
    """
    return np.stack([np.repeat(amp, rep) for _, amp, rep in _normalized_bands(pyramid)])


def change_amplification(
    signal: np.ndarray, fb: FilterBank, levels: int, order: int
) -> list[float | None]:
    """Per-level ratio max|WDT detail| / max|DWT detail|, finest level first.

    Equals 2^(n*(K-l+1)) exactly wherever the plain detail band is nonzero;
    an all-zero band has no defined ratio and reports None.
    """
    plain = dwt_multi(signal, fb, levels)
    scaled = wdt_forward(signal, fb, levels, order)
    ratios: list[float | None] = []
    for lv in range(1, levels + 1):
        denom = float(np.max(np.abs(plain.details[lv - 1])))
        if denom == 0.0:
            ratios.append(None)
        else:
            num = float(np.max(np.abs(scaled.base.details[lv - 1])))
            ratios.append(num / denom)
    return ratios


def write_coefficients_csv(pyramid: DerivativePyramid, path: str) -> None:
    """Write one row per coefficient: band,index,value,gain.

    Values use repr precision so they round-trip to the same float64.
    The file is written one band at a time; a pyramid whose bands are not
    1-D raises DataError.
    """
    bands = _bands_in_export_order(pyramid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("band,index,value,gain\n")
        for label, coeffs, gain in bands:
            values = np.asarray(coeffs, dtype=np.float64).tolist()
            tail = f",{gain!r}\n"
            fh.write("".join([f"{label},{i},{v!r}{tail}" for i, v in enumerate(values)]))


def write_scalogram_csv(pyramid: DerivativePyramid, path: str) -> None:
    """Write the normalized scalogram grid, one labeled row per band.

    The cells equal `scalogram(pyramid)`, but each band's distinct values
    are formatted once and repeated, and the file is written one band at
    a time.
    """
    bands = _normalized_bands(pyramid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("band," + ",".join(map(str, range(pyramid.base.original_length))) + "\n")
        for label, amp, rep in bands:
            fh.write(label + "".join([f",{v!r}" * rep for v in amp.tolist()]) + "\n")
