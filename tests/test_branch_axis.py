"""One branch axis against the per-branch forecaster, and the gain finding.

forward_batch and gradient_batch analyse once per batch, carry the
projection back through the synthesis and run the branch path as one
band-domain operator. reference.per_branch_forward keeps the per-branch
algorithm, derivative gains applied and divided back out, synthesis then
projection. The two sum their products in different orders, so they
must agree to 1e-12 relative (of the block's largest entry), for every
kind. Three branches with a mixed order list and nonzero biases make a
branch-order or bias-scale mix-up in the reshapes visible. Each case
runs at (B, C) = (3, 2) and at the edge shapes (1, 2), (3, 1) and
(1, 1), where the channel rows are one window's or one channel's; one
more runs at the ETTh1 depth (L = 336, tau = 96, K = 3, C = 7, B = 2),
so the bound holds over sums of 336 terms.

The gain finding stays exact: wdt is dwt with its detail biases scaled
by the inverse gains, bit for bit.
"""

import numpy as np
import pytest

from helpers import params_with_biases
from reference import blocks_by_name, branch_maps, per_branch_forward, per_branch_gradients
from wavets.model import ModelConfig, forward_batch, init_params, param_blocks
from wavets.train import gradient_batch, gradient_check
from wavets.wdt import level_gains

KINDS = ("wdt", "dwt", "dft")
ORDERS = [1, 0, 2]
# (kind, B, C): each kind at (3, 2), under its plain kind id, then at the
# edge shapes (1, 2), (3, 1) and (1, 1).
CASES = [
    pytest.param(kind, b, c, id=kind if (b, c) == (3, 2) else f"{kind}-{b}-{c}")
    for kind in KINDS
    for b, c in [(3, 2), (1, 2), (3, 1), (1, 1)]
]
REL_TOL = 1e-12
# The ETTh1 depth, three branches of the mixed order list.
DEEP = dict(lookback=336, horizon=96, levels=3, channels=7)


def three_branch_config(kind: str, **overrides) -> ModelConfig:
    base = dict(
        lookback=16, horizon=8, channels=2, branches=3, levels=2,
        transform_kind=kind, seed=4, branch_orders=ORDERS,
    )
    base.update(overrides)
    return ModelConfig(**base)


def assert_agrees(got: np.ndarray, want: np.ndarray, label: str) -> None:
    assert got.shape == want.shape, label
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= REL_TOL, f"{label}: {err}"


def assert_forward_agrees(cfg: ModelConfig, gen: np.random.Generator, batch: int) -> None:
    params = params_with_biases(cfg, gen)
    xs = gen.normal(size=(batch, cfg.lookback, cfg.channels))
    want, _ = per_branch_forward(xs, params, cfg)
    assert_agrees(forward_batch(xs, params, cfg), want, "forward")


def assert_gradients_agree(cfg: ModelConfig, gen: np.random.Generator, batch: int) -> None:
    params = params_with_biases(cfg, gen)
    # Drawn as lookbacks then targets, the spans of the windows.
    xs = gen.normal(size=(batch, cfg.lookback, cfg.channels))
    ys = gen.normal(size=(batch, cfg.horizon, cfg.channels))
    spans = np.concatenate([xs, ys], axis=1)
    grads, loss = gradient_batch(params, spans, cfg)
    want, want_loss = per_branch_gradients(params, spans, cfg)
    assert loss == pytest.approx(want_loss, rel=REL_TOL)
    for name, block in param_blocks(grads, cfg):
        ref_weight, ref_bias = blocks_by_name(want, cfg)[name]
        assert_agrees(block[:-1], ref_weight, f"{name} weight")
        assert_agrees(block[-1], ref_bias, f"{name} bias")


@pytest.mark.parametrize("kind, batch, channels", CASES)
class TestAgainstPerBranchOracle:
    def test_forward(self, rng, kind, batch, channels):
        assert_forward_agrees(three_branch_config(kind, channels=channels), rng, batch)

    def test_gradients(self, rng, kind, batch, channels):
        assert_gradients_agree(three_branch_config(kind, channels=channels), rng, batch)

    def test_gradient_check_three_branches(self, rng, kind, batch, channels):
        cfg = three_branch_config(kind, lookback=8, horizon=4, channels=channels)
        params = params_with_biases(cfg, rng)
        spans = rng.normal(size=(batch, cfg.lookback + cfg.horizon, channels))
        report = gradient_check(params, spans, cfg)
        bands = 2 if kind == "dft" else cfg.levels + 1
        assert len(report) == bands + 1
        for name, err in report.items():
            assert err < 1e-5, f"{name}: {err}"


@pytest.mark.parametrize("kind", KINDS)
def test_forward_at_the_etth1_depth(rng, kind):
    assert_forward_agrees(three_branch_config(kind, **DEEP), rng, 2)


@pytest.mark.parametrize("kind", KINDS)
def test_gradients_at_the_etth1_depth(rng, kind):
    assert_gradients_agree(three_branch_config(kind, **DEEP), rng, 2)


def test_wdt_is_dwt_with_detail_biases_scaled_by_inverse_gain(rng):
    # Orders 1..2, equal seeds, zero biases: the gain before each detail
    # map and its inverse after cancel exactly, so outputs and weight
    # gradients match bit for bit; only the detail-band bias gradients
    # differ, by exactly 1/g.
    base = dict(lookback=16, horizon=8, channels=2, branches=2, levels=3, seed=5)
    cfg_wdt = ModelConfig(transform_kind="wdt", **base)
    cfg_dwt = ModelConfig(transform_kind="dwt", **base)
    assert cfg_wdt.effective_orders() == [1, 2]
    p_wdt = init_params(cfg_wdt, cfg_wdt.seed)
    p_dwt = init_params(cfg_dwt, cfg_dwt.seed)
    spans = rng.normal(size=(4, 24, 2))
    xs = spans[:, :16]

    assert np.array_equal(forward_batch(xs, p_wdt, cfg_wdt), forward_batch(xs, p_dwt, cfg_dwt))
    g_wdt, _ = gradient_batch(p_wdt, spans, cfg_wdt)
    g_dwt, _ = gradient_batch(p_dwt, spans, cfg_dwt)
    blocks_wdt = blocks_by_name(g_wdt, cfg_wdt)
    blocks_dwt = blocks_by_name(g_dwt, cfg_dwt)
    for name, (a, _) in blocks_wdt.items():
        assert np.array_equal(a, blocks_dwt[name][0]), name
    for n, order in enumerate(cfg_wdt.effective_orders()):
        # Branch n's bias gradients: the approx band's, then each level's.
        ll_wdt, *lh_wdt = [bias for _, bias in branch_maps(blocks_wdt, cfg_wdt, n)]
        ll_dwt, *lh_dwt = [bias for _, bias in branch_maps(blocks_dwt, cfg_dwt, n)]
        assert np.array_equal(ll_wdt, ll_dwt)
        for lv, gain in enumerate(level_gains(cfg_wdt.levels, order)):
            a, b = lh_wdt[lv], lh_dwt[lv]
            assert abs(gain) > 1 and np.all(b != 0)
            assert np.array_equal(a, b * (1.0 / gain)), (n, lv + 1)
    assert np.array_equal(blocks_wdt["projection"][1], blocks_dwt["projection"][1])
