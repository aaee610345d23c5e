"""Independent reference implementations used as test oracles.

Everything here is written from closed forms, not by calling the package,
so agreement is meaningful. The Haar analysis operator is materialized as
an explicit orthonormal basis matrix: the coefficient at detail level l,
position j is the inner product of the signal with a row that is
+2^(-l/2) on the first half of the block [j*2^l, (j+1)*2^l) and -2^(-l/2)
on the second half; the approximation row at depth K is the constant
2^(-K/2) on its block of length 2^K.
"""

import numpy as np


def haar_detail_rows(t: int, level: int) -> np.ndarray:
    """All detail-band basis rows for one level, shape (t/2^level, t)."""
    block = 2**level
    count = t // block
    rows = np.zeros((count, t))
    amp = 2.0 ** (-level / 2.0)
    for j in range(count):
        rows[j, j * block : j * block + block // 2] = amp
        rows[j, j * block + block // 2 : (j + 1) * block] = -amp
    return rows


def haar_approx_rows(t: int, levels: int) -> np.ndarray:
    """Approximation basis rows at depth K, shape (t/2^K, t)."""
    block = 2**levels
    count = t // block
    rows = np.zeros((count, t))
    for j in range(count):
        rows[j, j * block : (j + 1) * block] = 2.0 ** (-levels / 2.0)
    return rows


def haar_coeffs(signal: np.ndarray, levels: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Multi-level Haar coefficients via the basis matrix: (approx, details).

    details[0] is the finest band, matching the package's pyramid layout.
    """
    signal = np.asarray(signal, dtype=np.float64)
    t = signal.shape[-1]
    approx = haar_approx_rows(t, levels) @ signal
    details = [haar_detail_rows(t, lv) @ signal for lv in range(1, levels + 1)]
    return approx, details


def haar_synthesis(
    approx: np.ndarray, details: list[np.ndarray], t: int
) -> np.ndarray:
    """Rebuild the signal as the transpose action of the same basis rows."""
    levels = len(details)
    out = haar_approx_rows(t, levels).T @ approx
    for lv, det in enumerate(details, start=1):
        out = out + haar_detail_rows(t, lv).T @ det
    return out


def affine_apply_slices(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ weight + bias, one (window, channel) slice at a time.

    Each output entry is the explicit sum over input positions, so the
    reference shares no reshape or batched product with the package.
    """
    x = np.asarray(x, dtype=np.float64)
    m_in, m_out = weight.shape
    out = np.empty(x.shape[:-1] + (m_out,))
    for idx in np.ndindex(x.shape[:-1]):
        vec = x[idx]
        for j in range(m_out):
            out[idx + (j,)] = sum(vec[k] * weight[k, j] for k in range(m_in)) + bias[j]
    return out


def affine_grads_slices(
    inp: np.ndarray, gout: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(weight, bias) gradients of sum(gout * (inp @ W + b)): one outer
    product and one bias term per (window, channel) slice, summed."""
    inp = np.asarray(inp, dtype=np.float64)
    gout = np.asarray(gout, dtype=np.float64)
    dweight = np.zeros((inp.shape[-1], gout.shape[-1]))
    dbias = np.zeros(gout.shape[-1])
    for idx in np.ndindex(inp.shape[:-1]):
        dweight += np.outer(inp[idx], gout[idx])
        dbias += gout[idx]
    return dweight, dbias


def affine_input_grad_slices(weight: np.ndarray, gout: np.ndarray) -> np.ndarray:
    """Gradient of sum(gout * (x @ W + b)) in x, one slice at a time:
    d x[k] = sum_j W[k, j] * gout[j]."""
    gout = np.asarray(gout, dtype=np.float64)
    m_in, m_out = weight.shape
    out = np.empty(gout.shape[:-1] + (m_in,))
    for idx in np.ndindex(gout.shape[:-1]):
        vec = gout[idx]
        for k in range(m_in):
            out[idx + (k,)] = sum(weight[k, j] * vec[j] for j in range(m_out))
    return out
