"""The pull-back against the band-domain operator at the ETTh1 shape.

model._band_operator builds V from the parameters, and V is affine in
each parameter block while the others stay fixed, so for a direction v_b
confined to block b

    <dV, V(p + v_b) - V(p)> = <_pull_back(dV), v_b>

holds up to rounding, whatever the step size. The gradient dV of V is
reached in the two ways the model meets V:

- from data rows: xb = _band_rows(rows) and the map xb @ V, so a
  gradient d of the map's output gives dV = xb.T @ d, the training step's
  route;
- from the compiled operator: compile_operator is _band_rows(I) @ V on
  the identity rows I, so a gradient dop of the operator gives
  dV = _band_rows(I).T @ dop, the operator-domain route.

Either way the left side is <d, product(p + v_b) - product(p)> of the
product that route forms. Gradcheck runs at L <= 16, and the per-branch
oracle at B = 2 with three branches; this pins the pull-back at L = 336,
tau = 96, C = 7, K = 3 for every kind with two branches, at L = 335 for
dft, so the odd-length irfft branch runs too, and with one branch. The
rows [x - mean, std] have a nonzero mean, the std column varies and
every bias is random, so no term vanishes by symmetry.
"""

import numpy as np
import pytest

from helpers import params_with_biases
from wavets.model import (
    ModelConfig,
    _band_operator,
    _band_rows,
    _pull_back,
    compile_operator,
    param_blocks,
)

REL_TOL = 1e-10
CASES = [
    ("wdt", 336, 2), ("dwt", 336, 2), ("dft", 336, 2), ("dft", 335, 2),
    ("wdt", 336, 1), ("dft", 335, 1),
]
IDS = [f"{kind}-{lookback}" + ("-n1" if n == 1 else "") for kind, lookback, n in CASES]


def etth1_case(kind: str, lookback: int, branches: int):
    cfg = ModelConfig(
        lookback=lookback, horizon=96, channels=7, branches=branches, levels=3,
        transform_kind=kind, seed=5,
    )
    gen = np.random.default_rng(7)
    return cfg, gen, params_with_biases(cfg, gen)


def assert_pull_back_matches(cfg, params, product, d, dv, gen) -> None:
    """<_pull_back(dv), v_b> against <d, product(p + v_b) - product(p)>
    for a random v_b in each block b, where dv is V's gradient for the
    gradient d of product's output."""
    _, qs = _band_operator(params, cfg)
    grads = _pull_back(dv, qs, params, cfg)
    assert grads.shape == params.shape
    assert qs == []
    base = product(params)
    for i, (name, grad) in enumerate(param_blocks(grads, cfg)):
        step = np.zeros_like(params)
        block = param_blocks(step, cfg)[i][1]
        block[...] = gen.normal(size=block.shape)
        want = float(np.sum(d * (product(params + step) - base)))
        got = float(grad.ravel() @ block.ravel())
        assert abs(got - want) <= REL_TOL * abs(want), (name, got, want)


@pytest.mark.parametrize("kind, lookback, branches", CASES, ids=IDS)
def test_adjoint_matches_the_map_block_by_block(kind, lookback, branches):
    cfg, gen, params = etth1_case(kind, lookback, branches)
    # Three windows' channel rows, each followed by a std.
    count = 3 * cfg.channels
    rows = np.hstack([gen.normal(size=(count, lookback)) + 2.5, gen.uniform(0.5, 2.0, (count, 1))])
    xb = _band_rows(rows, cfg)
    d = gen.normal(size=(count, cfg.lookback + cfg.horizon))
    assert_pull_back_matches(
        cfg, params, lambda p: xb @ _band_operator(p, cfg)[0], d, xb.T @ d, gen
    )


@pytest.mark.parametrize("kind, lookback, branches", CASES, ids=IDS)
def test_adjoint_matches_the_compiled_operator_block_by_block(kind, lookback, branches):
    cfg, gen, params = etth1_case(kind, lookback, branches)
    dop = gen.normal(size=(cfg.lookback + 1, cfg.lookback + cfg.horizon))
    dv = _band_rows(np.eye(cfg.lookback + 1), cfg).T @ dop
    assert_pull_back_matches(cfg, params, lambda p: compile_operator(p, cfg), dop, dv, gen)
