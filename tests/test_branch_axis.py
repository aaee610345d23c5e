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

from reference import per_branch_forward, per_branch_gradients
from wavets.model import ModelConfig, forward_batch, init_params
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
    for _, aff in params.named_blocks():
        aff.bias[...] = gen.normal(size=aff.bias.shape)
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
        xs = rng.normal(size=(3, cfg.lookback, cfg.channels))
        ys = rng.normal(size=(3, cfg.horizon, cfg.channels))
        grads, loss = gradient_batch(params, xs, ys, cfg)
        want, want_loss = per_branch_gradients(params, xs, ys, cfg)
        assert loss == pytest.approx(want_loss, rel=DFT_REL_TOL)
        got_blocks = grads.named_blocks()
        want_blocks = want.named_blocks()
        assert [n for n, _ in got_blocks] == [n for n, _ in want_blocks]
        for (name, got), (_, ref) in zip(got_blocks, want_blocks):
            assert_agrees(got.weight, ref.weight, kind, f"{name} weight")
            assert_agrees(got.bias, ref.bias, kind, f"{name} bias")

    def test_gradient_check_three_branches(self, rng, kind):
        cfg = three_branch_config(kind, lookback=8, horizon=4)
        params = params_with_biases(cfg, rng)
        batch = [
            (
                rng.normal(size=(cfg.lookback, cfg.channels)),
                rng.normal(size=(cfg.horizon, cfg.channels)),
            )
            for _ in range(2)
        ]
        # The joint loss is quadratic in any one entry, so a central
        # difference has no truncation error and the step only sets the
        # rounding noise, about 1e-16 * loss / h. Unit-scale biases put
        # some projection gradients near 6e-8, where h = 1e-6 noise
        # alone is 1e-3 relative; h = 1e-3 keeps it below 1e-5.
        report = gradient_check(params, batch, cfg, h=1e-3)
        bands = 2 if kind == "dft" else cfg.levels + 1
        assert len(report) == cfg.branches * bands + 1
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
    xs = rng.normal(size=(4, 16, 2))
    ys = rng.normal(size=(4, 8, 2))

    assert np.array_equal(forward_batch(xs, p_wdt, cfg_wdt), forward_batch(xs, p_dwt, cfg_dwt))
    g_wdt, _ = gradient_batch(p_wdt, xs, ys, cfg_wdt)
    g_dwt, _ = gradient_batch(p_dwt, xs, ys, cfg_dwt)
    for (name, a), (_, b) in zip(g_wdt.named_blocks(), g_dwt.named_blocks()):
        assert np.array_equal(a.weight, b.weight), name
    for n, order in enumerate(cfg_wdt.effective_orders()):
        assert np.array_equal(g_wdt.fru_ll[n].bias, g_dwt.fru_ll[n].bias)
        for lv, gain in enumerate(level_gains(cfg_wdt.levels, order)):
            a = g_wdt.fru_lh[n][lv].bias
            b = g_dwt.fru_lh[n][lv].bias
            assert abs(gain) > 1 and np.all(b != 0)
            assert np.array_equal(a, b * (1.0 / gain)), (n, lv)
    assert np.array_equal(g_wdt.projection.bias, g_dwt.projection.bias)
