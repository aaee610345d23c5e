"""Loss, analytic gradients vs central differences, Adam, training loop."""

import numpy as np
import pytest

from wavets import ConfigError, DataError, NumericalError
from wavets.model import ModelConfig, init_params, zeros_like_params
from wavets.train import (
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    evaluate_loss,
    global_grad_norm,
    gradient_batch,
    gradient_check,
    joint_loss,
    train,
)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        lookback=8, horizon=4, channels=2, branches=2, levels=2,
        transform_kind="wdt", std_epsilon=1e-5, seed=7,
    )
    base.update(overrides)
    return ModelConfig(**base)


def seeded_batch(cfg, count, seed=404):
    gen = np.random.default_rng(seed)
    return [
        (
            gen.normal(size=(cfg.lookback, cfg.channels)),
            gen.normal(size=(cfg.horizon, cfg.channels)),
        )
        for _ in range(count)
    ]


def gradients(params, batch, cfg):
    """gradient_batch on a list of (window, target) pairs."""
    xs = np.stack([x for x, _ in batch])
    ys = np.stack([y for _, y in batch])
    return gradient_batch(params, xs, ys, cfg)[0]


class TestJointLoss:
    def test_zero_at_exact_fit(self, rng):
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(2, 2))
        zhat = np.concatenate([x, y])
        assert joint_loss(zhat, x, y) == 0.0

    def test_hand_case_single_channel(self):
        val = joint_loss(np.zeros((2, 1)), np.array([[1.0]]), np.array([[1.0]]))
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_hand_case_two_channels(self):
        val = joint_loss(
            np.zeros((2, 2)),
            np.array([[1.0, 0.0]]),
            np.array([[0.0, 1.0]]),
        )
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            joint_loss(np.zeros((3, 1)), np.zeros((1, 1)), np.zeros((1, 1)))

    def test_channel_permutation_invariant(self, rng):
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(2, 3))
        zhat = rng.normal(size=(6, 3))
        perm = [2, 0, 1]
        assert joint_loss(zhat, x, y) == pytest.approx(
            joint_loss(zhat[:, perm], x[:, perm], y[:, perm]), rel=1e-15
        )


class TestGradients:
    def test_zero_residual_gives_zero_gradients(self):
        # Constant windows with matching constant targets are fit exactly
        # by zero parameters, so the quadratic sits at its minimum.
        cfg = tiny_config()
        params = zeros_like_params(init_params(cfg, 1))
        x = np.full((8, 2), 3.0)
        y = np.full((4, 2), 3.0)
        grads = gradients(params, [(x, y)], cfg)
        for name, blk in grads.named_blocks():
            np.testing.assert_array_equal(blk.weight, 0.0, err_msg=name)
            np.testing.assert_array_equal(blk.bias, 0.0, err_msg=name)

    def test_linearity_in_forecast_residual(self):
        # The gradient is affine in the targets: scaling the forecast
        # residual (inputs fixed) scales its gradient contribution the
        # same way. Double and triple it, compare the deltas.
        cfg = tiny_config()
        params = init_params(cfg, 15)
        batch = seeded_batch(cfg, 3)
        from wavets.model import forward

        outs = [forward(x, params, cfg) for x, _ in batch]
        fore = [out[cfg.lookback :] for out in outs]

        def with_residual_scale(s):
            return [
                (x, f + s * (y - f)) for (x, y), f in zip(batch, fore)
            ]

        g1 = gradients(params, with_residual_scale(1.0), cfg)
        g2 = gradients(params, with_residual_scale(2.0), cfg)
        g3 = gradients(params, with_residual_scale(3.0), cfg)
        for (name, b1), (_, b2), (_, b3) in zip(
            g1.named_blocks(), g2.named_blocks(), g3.named_blocks()
        ):
            np.testing.assert_allclose(
                b3.weight - b1.weight,
                2.0 * (b2.weight - b1.weight),
                atol=1e-12,
                err_msg=name,
            )

    def test_empty_batch_rejected(self):
        cfg = tiny_config()
        with pytest.raises(DataError):
            gradient_batch(
                init_params(cfg, 1), np.zeros((0, 8, 2)), np.zeros((0, 4, 2)), cfg
            )

    def test_batch_mean_is_mean_of_singles(self):
        cfg = tiny_config()
        params = init_params(cfg, 5)
        batch = seeded_batch(cfg, 4)
        full = gradients(params, batch, cfg)
        singles = [gradients(params, [b], cfg) for b in batch]
        for idx, (name, blk) in enumerate(full.named_blocks()):
            stack = np.stack(
                [list(s.named_blocks())[idx][1].weight for s in singles]
            )
            np.testing.assert_allclose(blk.weight, stack.mean(axis=0), atol=1e-12)


class TestGradientCheckFiniteDifferences:
    def test_wavelet_kind_all_blocks(self):
        cfg = tiny_config()
        params = init_params(cfg, 123)
        report = gradient_check(params, seeded_batch(cfg, 3), cfg)
        assert len(report) == 2 + 4 + 1
        for name, err in report.items():
            assert err < 1e-5, f"{name}: {err}"

    def test_dft_kind_all_blocks(self):
        cfg = tiny_config(transform_kind="dft", lookback=10, horizon=3)
        params = init_params(cfg, 321)
        report = gradient_check(params, seeded_batch(cfg, 3), cfg)
        assert len(report) == 2 + 2 + 1
        for name, err in report.items():
            assert err < 1e-5, f"{name}: {err}"

    def test_dft_even_total_length(self):
        # Even L+tau exercises the Nyquist-bin special case.
        cfg = tiny_config(transform_kind="dft", lookback=10, horizon=4)
        params = init_params(cfg, 77)
        report = gradient_check(params, seeded_batch(cfg, 2), cfg)
        for name, err in report.items():
            assert err < 1e-5, f"{name}: {err}"

    def test_high_order_branches(self):
        cfg = tiny_config(branch_orders=[3, 4])
        params = init_params(cfg, 55)
        report = gradient_check(params, seeded_batch(cfg, 2), cfg)
        for name, err in report.items():
            assert err < 1e-5, f"{name}: {err}"

    def test_corrupt_hook_detected(self):
        cfg = tiny_config()
        params = init_params(cfg, 123)
        report = gradient_check(
            params, seeded_batch(cfg, 2), cfg, corrupt_block="projection"
        )
        assert report["projection"] > 1e-5

    def test_corrupt_unknown_block_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            gradient_check(
                init_params(cfg, 1), seeded_batch(cfg, 1), cfg, corrupt_block="nope"
            )


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        cfg = tiny_config()
        params = init_params(cfg, 9)
        grads = zeros_like_params(params)
        state = AdamState.zeros(params)
        new_params, _ = adam_step(params, grads, state, 1, TrainConfig())
        for (_, a), (_, b) in zip(params.named_blocks(), new_params.named_blocks()):
            np.testing.assert_array_equal(a.weight, b.weight)

    def test_first_step_magnitude(self):
        cfg = tiny_config()
        params = init_params(cfg, 9)
        grads = zeros_like_params(params)
        for _, blk in grads.named_blocks():
            blk.weight[...] = 0.5
        tc = TrainConfig(learning_rate=1e-3)
        state = AdamState.zeros(params)
        new_params, _ = adam_step(params, grads, state, 1, tc)
        delta = params.projection.weight - new_params.projection.weight
        # First bias-corrected step is lr * g / (|g| + eps) ~= lr.
        np.testing.assert_allclose(delta, 1e-3, rtol=1e-6)

    def test_deterministic(self):
        cfg = tiny_config()
        params = init_params(cfg, 9)
        grads = gradients(params, seeded_batch(cfg, 2), cfg)
        state = AdamState.zeros(params)
        out1, st1 = adam_step(params, grads, state, 1, TrainConfig())
        out2, st2 = adam_step(params, grads, state, 1, TrainConfig())
        assert np.array_equal(out1.projection.weight, out2.projection.weight)
        assert np.array_equal(st1.v.projection.weight, st2.v.projection.weight)

    def test_state_not_mutated(self):
        cfg = tiny_config()
        params = init_params(cfg, 9)
        grads = gradients(params, seeded_batch(cfg, 2), cfg)
        state = AdamState.zeros(params)
        adam_step(params, grads, state, 1, TrainConfig())
        assert not state.m.projection.weight.any()

    def test_bad_step_index(self):
        cfg = tiny_config()
        params = init_params(cfg, 9)
        with pytest.raises(ConfigError):
            adam_step(params, zeros_like_params(params), AdamState.zeros(params), 0, TrainConfig())


class TestGradientClip:
    def test_norm_reduced_to_cap(self):
        cfg = tiny_config()
        params = init_params(cfg, 9)
        grads = gradients(params, seeded_batch(cfg, 2), cfg)
        norm = global_grad_norm(grads)
        clipped = clip_gradients(grads, norm / 2)
        assert global_grad_norm(clipped) == pytest.approx(norm / 2, rel=1e-12)

    def test_below_cap_unchanged(self):
        cfg = tiny_config()
        params = init_params(cfg, 9)
        grads = gradients(params, seeded_batch(cfg, 2), cfg)
        before = grads.projection.weight.copy()
        clip_gradients(grads, global_grad_norm(grads) * 10)
        np.testing.assert_array_equal(grads.projection.weight, before)


class TestTrainConfigValidation:
    def test_defaults_valid(self):
        assert TrainConfig().problems() == []

    def test_collects_everything(self):
        tc = TrainConfig(learning_rate=-1, batch_size=0, patience=0, adam_beta1=2.0)
        assert len(tc.problems()) == 4


def constant_series_pairs(cfg, count, value=2.0):
    x = np.full((cfg.lookback, cfg.channels), value)
    y = np.full((cfg.horizon, cfg.channels), value)
    return [(x.copy(), y.copy()) for _ in range(count)]


class TestTrainLoop:
    def test_constant_task_immediately_tiny_loss(self):
        # A constant series is fit exactly by any parameters: the window
        # normalizes to zero, so only the denormalization mean survives.
        cfg = tiny_config()
        pairs = constant_series_pairs(cfg, 8)
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=5, patience=3, seed=1)
        _, history = train(cfg, pairs, pairs, tc)
        assert history.best_val_loss < 1e-6
        assert all(e.val_loss < 1e-6 for e in history.epochs)

    def test_early_stop_on_worsening_validation(self):
        # Train targets pull the forecast away from the validation
        # targets, so validation strictly worsens from epoch 1.
        cfg = tiny_config()
        gen = np.random.default_rng(5)
        xs = [gen.normal(size=(cfg.lookback, cfg.channels)) for _ in range(8)]
        train_pairs = [(x, np.full((cfg.horizon, cfg.channels), 5.0)) for x in xs]
        val_pairs = [(x, np.full((cfg.horizon, cfg.channels), -5.0)) for x in xs]
        tc = TrainConfig(
            learning_rate=1e-2, batch_size=8, max_epochs=10, patience=1, seed=2
        )
        params0 = zeros_like_params(init_params(cfg, 0))
        _, history = train(cfg, train_pairs, val_pairs, tc, init=params0)
        assert history.stopped_reason == "early_stop"
        assert history.best_epoch == 1
        assert len(history.epochs) == 2
        assert history.epochs[1].val_loss > history.epochs[0].val_loss

    def test_same_seed_identical_history(self):
        cfg = tiny_config()
        batch = seeded_batch(cfg, 12)
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=3, patience=3, seed=9)
        _, h1 = train(cfg, batch[:8], batch[8:], tc)
        _, h2 = train(cfg, batch[:8], batch[8:], tc)
        assert h1.to_doc() == h2.to_doc()

    def test_same_seed_identical_params(self):
        cfg = tiny_config()
        batch = seeded_batch(cfg, 12)
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=3, patience=3, seed=9)
        p1, _ = train(cfg, batch[:8], batch[8:], tc)
        p2, _ = train(cfg, batch[:8], batch[8:], tc)
        for (_, a), (_, b) in zip(p1.named_blocks(), p2.named_blocks()):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)

    def test_partial_last_batch_kept(self):
        # 10 windows, batch 4: the 2-window remainder still trains; the
        # recorded train loss averages over all 10 windows.
        cfg = tiny_config()
        batch = seeded_batch(cfg, 12)
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=1, patience=1, seed=3)
        _, history = train(cfg, batch[:10], batch[10:], tc)
        assert len(history.epochs) == 1
        assert np.isfinite(history.epochs[0].train_loss)

    def test_best_epoch_invariant(self):
        cfg = tiny_config()
        batch = seeded_batch(cfg, 12)
        tc = TrainConfig(learning_rate=5e-3, batch_size=4, max_epochs=6, patience=6, seed=4)
        _, history = train(cfg, batch[:8], batch[8:], tc)
        vals = [e.val_loss for e in history.epochs]
        assert history.best_val_loss == min(vals)
        assert history.epochs[history.best_epoch - 1].val_loss == min(vals)

    def test_empty_validation_rejected(self):
        cfg = tiny_config()
        with pytest.raises(DataError):
            train(cfg, seeded_batch(cfg, 4), [], TrainConfig())

    def test_incompatible_window_shape_rejected(self):
        cfg = tiny_config()
        bad = [(np.zeros((7, 2)), np.zeros((4, 2)))]
        with pytest.raises(DataError):
            train(cfg, bad, bad, TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_numerical_error(self):
        cfg = tiny_config()
        params = init_params(cfg, 1)
        params.projection.weight[0, 0] = 1e200
        pairs = seeded_batch(cfg, 6)
        # Huge weight; squaring the residual overflows to inf.
        with pytest.raises(NumericalError):
            train(cfg, pairs, pairs, TrainConfig(max_epochs=2, batch_size=2), init=params)

    def test_evaluate_loss_matches_joint_loss(self):
        cfg = tiny_config()
        params = init_params(cfg, 6)
        pairs = seeded_batch(cfg, 5)
        from wavets.model import forward

        total = 0.0
        for x, y in pairs:
            total += joint_loss(forward(x, params, cfg), x, y)
        assert evaluate_loss(params, pairs, cfg) == pytest.approx(
            total / len(pairs), rel=1e-12
        )
