"""Orthonormal single- and multi-level discrete wavelet analysis/synthesis.

Only two-tap filter banks are supported (db1 and its biorthogonal twins
bior1.1/rbio1.1, which share the same coefficients). Two taps mean no
boundary extension is ever needed and every level exactly halves the
time dimension, which keeps the cascade perfectly invertible.

All transforms act along the last axis, so arrays shaped (..., T) work
unchanged; the trailing dimension is "time" throughout. A K-level pyramid
is the plain band list [LL_K, LH_1, ..., LH_K]: its level count and the
signal length follow from the list, so nothing else is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

_SQRT2 = np.sqrt(2.0)

# The three supported families collapse to the same two-tap orthonormal
# pair; the high-pass sign convention is fixed to detail = (even - odd)/sqrt(2).
_HAAR_DEC_LO = (1.0 / _SQRT2, 1.0 / _SQRT2)
_HAAR_DEC_HI = (1.0 / _SQRT2, -1.0 / _SQRT2)

SUPPORTED_WAVELETS = ("db1", "bior1.1", "rbio1.1")


@dataclass(frozen=True)
class FilterBank:
    """Analysis/synthesis filter quadruple for one wavelet family."""

    name: str
    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray


def make_filterbank(name: str) -> FilterBank:
    """Return the standard two-tap bank for a supported wavelet family.

    Raises DataError for any family outside {db1, bior1.1, rbio1.1}:
    longer banks would break the strict halving of the time dimension
    that the rest of the pipeline relies on.
    """
    if name not in SUPPORTED_WAVELETS:
        raise DataError(
            f"unknown wavelet {name!r}: supported families are "
            f"{', '.join(SUPPORTED_WAVELETS)} (longer filter banks break "
            "dyadic length bookkeeping)"
        )
    return FilterBank(
        name=name,
        dec_lo=np.array(_HAAR_DEC_LO),
        dec_hi=np.array(_HAAR_DEC_HI),
        rec_lo=np.array(_HAAR_DEC_LO),
        rec_hi=np.array(_HAAR_DEC_HI),
    )


def _time_length(signal: np.ndarray) -> int:
    """The length of the last (time) axis; DataError for a 0-d array,
    which has none."""
    if signal.ndim == 0:
        raise DataError("a scalar has no time axis: expected an array shaped (..., T)")
    return signal.shape[-1]


def dwt_level(signal: np.ndarray, fb: FilterBank) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level: split (..., T) into approx and detail of length T/2.

    approx_j = sum_i dec_lo[i] * signal[2j+i], detail_j likewise with dec_hi.
    Every supported bank is Haar, dec_lo = (c, c) and dec_hi = (c, -c), so
    each sample is multiplied by the one tap c once, and the level is the
    sum and the difference of the even and odd products. Negation is
    exact, so these are c*even + c*odd and c*even + (-c)*odd to the bit,
    with no fused multiply-add. Besides its two outputs the level holds
    one half-length temporary.
    """
    signal = np.asarray(signal, dtype=np.float64)
    n = _time_length(signal)
    if n < 2 or n % 2 != 0:
        raise DataError(f"signal length {n} must be even and >= 2")
    c = fb.dec_lo[0]
    even = c * signal[..., 0::2]
    odd = c * signal[..., 1::2]
    approx = even + odd
    # The detail overwrites the even products, which approx has read.
    return approx, np.subtract(even, odd, out=even)


def idwt_level(
    approx: np.ndarray, detail: np.ndarray, fb: FilterBank, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact inverse of dwt_level; interleaves back to length 2*len(approx).

    out[2j] = rec_lo[0]*a_j + rec_hi[0]*d_j and out[2j+1] likewise with the
    second taps. With the Haar tap c that is c*a + c*d and c*a - c*d: c*a
    goes straight into the even slots and c*d into one half-length
    temporary, the odd slots take their difference, and then the even
    slots add c*d in place. The result is written into out when given,
    else into a new array laid out in memory like approx, so a level
    along a strided time axis writes whole runs, not single values.
    """
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if approx.shape != detail.shape:
        raise DataError(
            f"approx/detail shape mismatch: {approx.shape} vs {detail.shape}"
        )
    n = _time_length(approx)
    c = fb.rec_lo[0]
    if out is None:
        out = np.empty_like(approx, shape=approx.shape[:-1] + (2 * n,))
    even, odd = out[..., 0::2], out[..., 1::2]
    np.multiply(approx, c, out=even)
    scaled_detail = c * detail
    np.subtract(even, scaled_detail, out=odd)
    even += scaled_detail
    return out


def dwt_multi(signal: np.ndarray, fb: FilterBank, levels: int) -> list[np.ndarray]:
    """K-level cascade: repeatedly split the running approximation.

    Returns the bands [LL_K, LH_1, ..., LH_K]: the approximation, then the
    details from the finest (length T/2) to the coarsest (length T/2^K).
    Requires the signal length divisible by 2^levels so every level
    halves exactly; the error names the first level that cannot split.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if levels < 1:
        raise DataError(f"level count must be >= 1, got {levels}")
    n = _time_length(signal)
    approx, details = signal, []
    for lv in range(1, levels + 1):
        run = approx.shape[-1]
        if run < 2:
            raise DataError(
                f"signal length {n} is too short: level {lv} of {levels} "
                f"would split a length {run} < 2"
            )
        if run % 2 != 0:
            raise DataError(
                f"length {n} not divisible by 2^{levels}: "
                f"level {lv} would split an odd length {run}"
            )
        approx, detail = dwt_level(approx, fb)
        details.append(detail)
    return [approx] + details


def idwt_multi(
    bands: list[np.ndarray], fb: FilterBank, out: np.ndarray | None = None
) -> np.ndarray:
    """Reconstruct the signal from dwt_multi's bands (exact inverse); the
    last level writes into out when given.

    idwt_level's shape check is the length check: a band of the wrong
    length raises DataError at the level that meets it.
    """
    if len(bands) < 2:
        raise DataError(f"a pyramid needs LL_K and at least one detail band, got {len(bands)}")
    signal, details = bands[0], bands[:0:-1]
    for detail in details[:-1]:
        signal = idwt_level(signal, detail, fb)
    return idwt_level(signal, details[-1], fb, out)
