"""One branch axis against the per-branch forecaster, and the gain finding.

forward_batch and gradient_batch analyse once per batch, run each band's
N branch maps as one map and synthesise once over a branch axis.
reference.per_branch_forward keeps the per-branch algorithm, derivative
gains applied and divided back out. The two must agree bit for bit on the
wavelet kinds and to 1e-12 relative on dft, whose irfft runs over a
different batch shape. Three branches with a mixed order list and nonzero
biases make a branch-order or bias-scale mix-up in the reshapes visible.
"""

import numpy as np
import pytest

from reference import blocks_by_name, branch_maps, per_branch_forward, per_branch_gradients
from wavets.model import ModelConfig, forward_batch, init_params, param_blocks
from wavets.train import gradient_batch, gradient_check
from wavets.wdt import level_gains

KINDS = ("wdt", "dwt", "dft")
ORDERS = [1, 0, 2]
DFT_REL_TOL = 1e-12


def three_branch_config(kind: str, **overrides) -> ModelConfig:
    base = dict(
        lookback=16, horizon=8, channels=2, branches=3, levels=2,
        transform_kind=kind, seed=4, branch_orders=ORDERS,
    )
    base.update(overrides)
    return ModelConfig(**base)


def params_with_biases(cfg: ModelConfig, gen: np.random.Generator):
    params = init_params(cfg, cfg.seed)
    for _, _, bias in param_blocks(params, cfg):
        bias[...] = gen.normal(size=bias.shape)
    return params


def assert_agrees(got: np.ndarray, want: np.ndarray, kind: str, label: str) -> None:
    assert got.shape == want.shape, label
    if kind == "dft":
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= DFT_REL_TOL, f"{label}: {err}"
    else:
        assert np.array_equal(got, want), label


@pytest.mark.parametrize("kind", KINDS)
class TestAgainstPerBranchOracle:
    def test_forward(self, rng, kind):
        cfg = three_branch_config(kind)
        params = params_with_biases(cfg, rng)
        xs = rng.normal(size=(3, cfg.lookback, cfg.channels))
        want, _ = per_branch_forward(xs, params, cfg)
        assert_agrees(forward_batch(xs, params, cfg), want, kind, "forward")

    def test_gradients(self, rng, kind):
        cfg = three_branch_config(kind)
        params = params_with_biases(cfg, rng)
        # Drawn as lookbacks then targets, the spans of three windows.
        xs = rng.normal(size=(3, cfg.lookback, cfg.channels))
        ys = rng.normal(size=(3, cfg.horizon, cfg.channels))
        spans = np.concatenate([xs, ys], axis=1)
        grads, loss = gradient_batch(params, spans, cfg)
        want, want_loss = per_branch_gradients(params, spans, cfg)
        assert loss == pytest.approx(want_loss, rel=DFT_REL_TOL)
        for name, weight, bias in param_blocks(grads, cfg):
            ref_weight, ref_bias = blocks_by_name(want, cfg)[name]
            assert_agrees(weight, ref_weight, kind, f"{name} weight")
            assert_agrees(bias, ref_bias, kind, f"{name} bias")

    def test_gradient_check_three_branches(self, rng, kind):
        cfg = three_branch_config(kind, lookback=8, horizon=4)
        params = params_with_biases(cfg, rng)
        spans = rng.normal(size=(2, cfg.lookback + cfg.horizon, cfg.channels))
        report = gradient_check(params, spans, cfg)
        bands = 2 if kind == "dft" else cfg.levels + 1
        assert len(report) == bands + 1
        for name, err in report.items():
            assert err < 1e-5, f"{name}: {err}"


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
