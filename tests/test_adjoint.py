"""The branch path's adjoint against its forward map at the ETTh1 shape.

model._normalized_map is affine in each parameter block while the others
stay fixed, so for a direction v_b confined to block b

    <d, map(p + v_b) - map(p)> = <adjoint(d), v_b>

holds up to rounding, whatever the step size. Gradcheck and the
per-branch oracle run at L <= 16; this pins the adjoint at L = 336,
tau = 96, C = 7, N = 2, K = 3 for every kind, and at L = 335 for dft, so
the odd-length irfft branch runs too, on the 2-D channel rows the map
takes. The rows have a nonzero mean and every bias is random, so no term
vanishes by symmetry.
"""

import numpy as np
import pytest

from wavets.model import (
    ModelConfig,
    _normalized_map,
    _normalized_map_adjoint,
    init_params,
    param_blocks,
    param_layout,
)

REL_TOL = 1e-10
CASES = [("wdt", 336), ("dwt", 336), ("dft", 336), ("dft", 335)]


@pytest.mark.parametrize("kind, lookback", CASES)
def test_adjoint_matches_the_map_block_by_block(kind, lookback):
    cfg = ModelConfig(
        lookback=lookback, horizon=96, channels=7, branches=2, levels=3,
        transform_kind=kind, seed=5,
    )
    gen = np.random.default_rng(7)
    params = init_params(cfg, cfg.seed)
    for _, _, bias in param_blocks(params, cfg):
        bias[...] = gen.normal(size=bias.shape)
    # Three windows' channel rows.
    rows = gen.normal(size=(3 * cfg.channels, lookback)) + 2.5
    out, cache = _normalized_map(rows, params, cfg)
    d = gen.normal(size=out.shape)
    grads = _normalized_map_adjoint(d, cache, params, cfg)
    assert grads.shape == params.shape

    for name, offset, (m_in, m_out) in param_layout(cfg):
        block = slice(offset, offset + (m_in + 1) * m_out)
        step = np.zeros_like(params)
        step[block] = gen.normal(size=(m_in + 1) * m_out)
        moved, _ = _normalized_map(rows, params + step, cfg)
        want = float(np.sum(d * (moved - out)))
        got = float(grads[block] @ step[block])
        assert abs(got - want) <= REL_TOL * abs(want), (name, got, want)
