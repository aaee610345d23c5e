"""The branch path's adjoint against its forward map at the ETTh1 shape.

model._normalized_map is affine in each parameter block while the others
stay fixed, so for a direction v_b confined to block b

    <d, map(p + v_b) - map(p)> = <adjoint(d), v_b>

holds up to rounding, whatever the step size. Gradcheck runs at
L <= 16, and the per-branch oracle at B = 2 with three branches; this
pins the adjoint at L = 336, tau = 96, C = 7, N = 2, K = 3 for every
kind, and at L = 335 for dft, so the odd-length irfft branch runs too,
on the (R, L+1) channel rows [x - mean, std] the map takes. The rows
have a nonzero mean, the std column varies and every bias is random, so
no term vanishes by symmetry.
"""

import numpy as np
import pytest

from wavets.model import (
    ModelConfig,
    _normalized_map,
    _normalized_map_adjoint,
    init_params,
    param_blocks,
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
    for _, block in param_blocks(params, cfg):
        block[-1] = gen.normal(size=block.shape[1])
    # Three windows' channel rows, each followed by a std.
    count = 3 * cfg.channels
    rows = np.hstack([gen.normal(size=(count, lookback)) + 2.5, gen.uniform(0.5, 2.0, (count, 1))])
    out, cache = _normalized_map(rows, params, cfg)
    d = gen.normal(size=out.shape)
    grads = _normalized_map_adjoint(d, cache, params, cfg)
    assert grads.shape == params.shape

    for i, (name, grad) in enumerate(param_blocks(grads, cfg)):
        step = np.zeros_like(params)
        block = param_blocks(step, cfg)[i][1]
        block[...] = gen.normal(size=block.shape)
        moved, _ = _normalized_map(rows, params + step, cfg)
        want = float(np.sum(d * (moved - out)))
        got = float(grad.ravel() @ block.ravel())
        assert abs(got - want) <= REL_TOL * abs(want), (name, got, want)
