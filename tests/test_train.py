"""Loss, analytic gradients vs central differences, Adam, training loop."""

import numpy as np
import pytest

import reference
from helpers import tiny_config
import wavets.model
from wavets import ConfigError, DataError, NumericalError
from wavets.model import (
    forward_batch,
    init_params,
    param_blocks,
    param_count,
)
from wavets.train import (
    ADAM_BLOCK,
    TrainConfig,
    adam_step,
    clip_gradients,
    evaluate_loss,
    global_grad_norm,
    gradient_batch,
    gradient_check,
    train,
)


def seeded_spans(cfg, count, seed=404):
    gen = np.random.default_rng(seed)
    return gen.normal(size=(count, cfg.lookback + cfg.horizon, cfg.channels))


def gradients(params, spans, cfg):
    return gradient_batch(params, spans, cfg)[0]


def zero_params(cfg):
    return np.zeros(param_count(cfg))


def projection_weight(params, cfg):
    return param_blocks(params, cfg)[-1][1][:-1]


class TestJointLoss:
    # The joint loss is the mean squared error of the whole output against
    # the whole span, lookback and target. Zero parameters forecast each
    # channel's lookback mean on every row, which makes hand cases.
    def zero_params_loss(self, spans, lookback):
        cfg = tiny_config(
            lookback=lookback, horizon=spans.shape[1] - lookback,
            channels=spans.shape[2], levels=1,
        )
        return gradient_batch(zero_params(cfg), spans, cfg)[1]

    def test_zero_at_exact_fit(self):
        spans = np.full((1, 6, 2), 3.0)
        assert self.zero_params_loss(spans, 4) == 0.0

    def test_hand_case_single_channel(self):
        # Lookback [1, 3] has mean 2: errors -1, 1, 0, 0.
        spans = np.array([[[1.0], [3.0], [2.0], [2.0]]])
        assert self.zero_params_loss(spans, 2) == pytest.approx(0.5, abs=1e-15)

    def test_hand_case_two_channels(self):
        # Channel 0 is fit exactly; channel 1 misses its target by 2 twice.
        spans = np.array([[[1.0, 5.0], [1.0, 5.0], [1.0, 7.0], [1.0, 7.0]]])
        assert self.zero_params_loss(spans, 2) == pytest.approx(1.0, abs=1e-15)

    def test_shape_mismatch(self):
        cfg = tiny_config()
        params = init_params(cfg, 1)
        for shape in ((1, 11, 2), (1, 12, 3), (12, 2)):
            with pytest.raises(DataError):
                gradient_batch(params, np.zeros(shape), cfg)

    def test_channel_permutation_invariant(self, rng):
        cfg = tiny_config(channels=3)
        params = init_params(cfg, 4)
        spans = rng.normal(size=(2, 12, 3))
        perm = [2, 0, 1]
        _, loss = gradient_batch(params, spans, cfg)
        _, permuted = gradient_batch(params, spans[:, :, perm], cfg)
        assert loss == pytest.approx(permuted, rel=1e-12)


class TestGradients:
    def test_zero_residual_gives_zero_gradients(self):
        # Constant windows with matching constant targets are fit exactly
        # by zero parameters, so the quadratic sits at its minimum.
        cfg = tiny_config()
        grads = gradients(zero_params(cfg), np.full((1, 12, 2), 3.0), cfg)
        for name, block in param_blocks(grads, cfg):
            np.testing.assert_array_equal(block, 0.0, err_msg=name)

    def test_linearity_in_forecast_residual(self):
        # The gradient is affine in the targets: scaling the forecast
        # residual (inputs fixed) scales its gradient contribution the
        # same way. Double and triple it, compare the deltas.
        cfg = tiny_config()
        params = init_params(cfg, 15)
        spans = seeded_spans(cfg, 3)
        fore = forward_batch(spans[:, : cfg.lookback], params, cfg)[:, cfg.lookback :]

        def with_residual_scale(s):
            scaled = spans.copy()
            scaled[:, cfg.lookback :] = fore + s * (spans[:, cfg.lookback :] - fore)
            return scaled

        g1 = gradients(params, with_residual_scale(1.0), cfg)
        g2 = gradients(params, with_residual_scale(2.0), cfg)
        g3 = gradients(params, with_residual_scale(3.0), cfg)
        for (name, b1), (_, b2), (_, b3) in zip(
            param_blocks(g1, cfg), param_blocks(g2, cfg), param_blocks(g3, cfg)
        ):
            np.testing.assert_allclose(b3 - b1, 2.0 * (b2 - b1), atol=1e-12, err_msg=name)

    def test_empty_batch_rejected(self):
        cfg = tiny_config()
        with pytest.raises(DataError):
            gradient_batch(init_params(cfg, 1), np.zeros((0, 12, 2)), cfg)

    def test_batch_mean_is_mean_of_singles(self):
        cfg = tiny_config()
        params = init_params(cfg, 5)
        spans = seeded_spans(cfg, 4)
        full = gradients(params, spans, cfg)
        singles = np.stack([gradients(params, spans[i : i + 1], cfg) for i in range(4)])
        np.testing.assert_allclose(full, singles.mean(axis=0), atol=1e-12)


class TestGradientCheckFiniteDifferences:
    def test_wavelet_kind_all_blocks(self):
        cfg = tiny_config()
        params = init_params(cfg, 123)
        report = gradient_check(params, seeded_spans(cfg, 3), cfg)
        assert list(report) == ["fru_ll", "fru_lh[level1]", "fru_lh[level2]", "projection"]
        for name, err in report.items():
            assert err < 1e-5, f"{name}: {err}"

    def test_dft_kind_all_blocks(self):
        cfg = tiny_config(transform_kind="dft", lookback=10, horizon=3)
        params = init_params(cfg, 321)
        report = gradient_check(params, seeded_spans(cfg, 3), cfg)
        assert list(report) == ["fru_real", "fru_imag", "projection"]
        for name, err in report.items():
            assert err < 1e-5, f"{name}: {err}"

    def test_dft_even_total_length(self):
        # Even L+tau exercises the Nyquist-bin special case.
        cfg = tiny_config(transform_kind="dft", lookback=10, horizon=4)
        params = init_params(cfg, 77)
        report = gradient_check(params, seeded_spans(cfg, 2), cfg)
        for name, err in report.items():
            assert err < 1e-5, f"{name}: {err}"

    def test_high_order_branches(self):
        cfg = tiny_config(branch_orders=[3, 4])
        params = init_params(cfg, 55)
        report = gradient_check(params, seeded_spans(cfg, 2), cfg)
        for name, err in report.items():
            assert err < 1e-5, f"{name}: {err}"

    def test_default_step_small_gradients_with_unit_biases(self):
        # Standard-normal biases put some correct projection gradients near
        # 1e-7, where the rounding noise of a 1e-6 step alone read 5e-4
        # relative; the default step keeps every block under 1e-5.
        cfg = tiny_config(transform_kind="dwt", branches=3, seed=2)
        params = init_params(cfg, cfg.seed)
        gen = np.random.default_rng(8)
        for _, block in param_blocks(params, cfg):
            block[-1] = gen.standard_normal(block.shape[1])
        spans = gen.standard_normal((2, cfg.lookback + cfg.horizon, cfg.channels))
        report = gradient_check(params, spans, cfg)
        # One block per band (approx, two detail levels), then the projection.
        assert len(report) == 3 + 1
        for name, err in report.items():
            assert err < 1e-5, f"{name}: {err}"

    def test_corrupt_hook_detected(self):
        cfg = tiny_config()
        params = init_params(cfg, 123)
        report = gradient_check(
            params, seeded_spans(cfg, 2), cfg, corrupt_block="projection"
        )
        assert report["projection"] > 1e-5

    def test_corrupt_unknown_block_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            gradient_check(
                init_params(cfg, 1), seeded_spans(cfg, 1), cfg, corrupt_block="nope"
            )


def fresh_adam(params):
    return params.copy(), np.zeros_like(params), np.zeros_like(params)


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        cfg = tiny_config()
        params, m, v = fresh_adam(init_params(cfg, 9))
        adam_step(params, np.zeros_like(params), m, v, 1, TrainConfig())
        np.testing.assert_array_equal(params, init_params(cfg, 9))

    def test_first_step_magnitude(self):
        cfg = tiny_config()
        start = init_params(cfg, 9)
        params, m, v = fresh_adam(start)
        tc = TrainConfig(learning_rate=1e-3)
        adam_step(params, np.full_like(params, 0.5), m, v, 1, tc)
        delta = projection_weight(start, cfg) - projection_weight(params, cfg)
        # First bias-corrected step is lr * g / (|g| + eps) ~= lr.
        np.testing.assert_allclose(delta, 1e-3, rtol=1e-6)

    def test_deterministic(self):
        cfg = tiny_config()
        start = init_params(cfg, 9)
        grads = gradients(start, seeded_spans(cfg, 2), cfg)
        runs = []
        for _ in range(2):
            params, m, v = fresh_adam(start)
            adam_step(params, grads, m, v, 1, TrainConfig())
            runs.append((params, v))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_state_updated_in_place(self):
        # Two steps in place equal the textbook update applied element by
        # element, bit for bit, moments included.
        cfg = tiny_config()
        tc = TrainConfig(learning_rate=1e-2)
        start = init_params(cfg, 9)
        params, m, v = fresh_adam(start)
        want_p, want_m, want_v = fresh_adam(start)
        for t, seed in ((1, 1), (2, 2)):
            grads = gradients(params, seeded_spans(cfg, 2, seed), cfg)
            adam_step(params, grads, m, v, t, tc)
            want_p, want_m, want_v = reference.adam_step(want_p, grads, want_m, want_v, t, tc)
            assert np.array_equal(m, want_m)
            assert np.array_equal(v, want_v)
            assert np.array_equal(params, want_p)
        assert not np.array_equal(params, start)

    @pytest.mark.parametrize(
        "size", [1, ADAM_BLOCK - 1, ADAM_BLOCK, ADAM_BLOCK + 1, 474336]
    )
    def test_blocks_match_textbook_bits(self, size):
        # The blocked in-place update against the whole-vector expressions,
        # as uint64 bit patterns, at lengths around one block and at the
        # ETTh1 parameter count (474336, which ends in a partial block).
        # Gradients span 16 decades, with zeros and +-1e-8, +-1e8 mixed in.
        gen = np.random.default_rng(size)
        tc = TrainConfig(learning_rate=5e-4)
        params, m, v = fresh_adam(gen.normal(size=size))
        want_p, want_m, want_v = fresh_adam(params)
        specials = np.array([0.0, 1e-8, -1e-8, 1e8, -1e8])
        for t in range(1, 7):
            grads = gen.normal(size=size) * 10.0 ** gen.integers(-8, 9, size=size)
            grads[gen.random(size) < 0.1] = 0.0
            picks = gen.integers(0, size, size=min(size, 64))
            grads[picks] = gen.choice(specials, size=len(picks))
            adam_step(params, grads, m, v, t, tc)
            want_p, want_m, want_v = reference.adam_step(want_p, grads, want_m, want_v, t, tc)
            for got, want in ((params, want_p), (m, want_m), (v, want_v)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bad_step_index(self):
        cfg = tiny_config()
        params, m, v = fresh_adam(init_params(cfg, 9))
        with pytest.raises(ConfigError):
            adam_step(params, np.zeros_like(params), m, v, 0, TrainConfig())


class TestGradientClip:
    def test_norm_reduced_to_cap(self):
        cfg = tiny_config()
        params = init_params(cfg, 9)
        grads = gradients(params, seeded_spans(cfg, 2), cfg)
        norm = global_grad_norm(grads)
        assert norm == pytest.approx(
            np.sqrt(sum(np.sum(block**2) for _, block in param_blocks(grads, cfg))),
            rel=1e-12,
        )
        clip_gradients(grads, norm / 2)
        assert global_grad_norm(grads) == pytest.approx(norm / 2, rel=1e-12)

    def test_below_cap_unchanged(self):
        cfg = tiny_config()
        params = init_params(cfg, 9)
        grads = gradients(params, seeded_spans(cfg, 2), cfg)
        before = grads.copy()
        clip_gradients(grads, global_grad_norm(grads) * 10)
        np.testing.assert_array_equal(grads, before)


class TestTrainConfigValidation:
    def test_defaults_valid(self):
        assert TrainConfig().problems() == []

    def test_collects_everything(self):
        tc = TrainConfig(learning_rate=-1, batch_size=0, patience=0, adam_beta1=2.0)
        assert len(tc.problems()) == 4


def constant_series_spans(cfg, count, value=2.0):
    return np.full((count, cfg.lookback + cfg.horizon, cfg.channels), value)


class TestTrainLoop:
    def test_constant_task_immediately_tiny_loss(self):
        # A constant series is fit exactly by any parameters: the window
        # normalizes to zero, so only the denormalization mean survives.
        cfg = tiny_config()
        spans = constant_series_spans(cfg, 8)
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=5, patience=3, seed=1)
        _, history = train(cfg, spans, spans, tc)
        assert history.best_val_loss < 1e-6
        assert all(e.val_loss < 1e-6 for e in history.epochs)

    def test_early_stop_on_worsening_validation(self):
        # Train targets pull the forecast away from the validation
        # targets, so validation strictly worsens from epoch 1.
        cfg = tiny_config()
        gen = np.random.default_rng(5)
        xs = np.stack([gen.normal(size=(cfg.lookback, cfg.channels)) for _ in range(8)])
        train_spans = np.concatenate([xs, np.full((8, cfg.horizon, cfg.channels), 5.0)], axis=1)
        val_spans = np.concatenate([xs, np.full((8, cfg.horizon, cfg.channels), -5.0)], axis=1)
        tc = TrainConfig(
            learning_rate=1e-2, batch_size=8, max_epochs=10, patience=1, seed=2
        )
        params0 = zero_params(cfg)
        _, history = train(cfg, train_spans, val_spans, tc, init=params0)
        assert history.stopped_reason == "early_stop"
        assert history.best_epoch == 1
        assert len(history.epochs) == 2
        assert history.epochs[1].val_loss > history.epochs[0].val_loss
        # init is copied, never updated in place.
        assert not params0.any()

    def test_same_seed_identical_history(self):
        cfg = tiny_config()
        spans = seeded_spans(cfg, 12)
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=3, patience=3, seed=9)
        _, h1 = train(cfg, spans[:8], spans[8:], tc)
        _, h2 = train(cfg, spans[:8], spans[8:], tc)
        assert h1.to_doc() == h2.to_doc()

    def test_same_seed_identical_params(self):
        cfg = tiny_config()
        spans = seeded_spans(cfg, 12)
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=3, patience=3, seed=9)
        p1, _ = train(cfg, spans[:8], spans[8:], tc)
        p2, _ = train(cfg, spans[:8], spans[8:], tc)
        assert np.array_equal(p1, p2)

    def test_best_params_are_a_snapshot(self):
        # Validation worsens after epoch 1, so the returned parameters are
        # the epoch-1 snapshot, unchanged by the later updates.
        cfg = tiny_config()
        gen = np.random.default_rng(5)
        xs = gen.normal(size=(8, cfg.lookback, cfg.channels))
        train_spans = np.concatenate([xs, np.full((8, cfg.horizon, cfg.channels), 5.0)], axis=1)
        val_spans = np.concatenate([xs, np.full((8, cfg.horizon, cfg.channels), -5.0)], axis=1)
        one = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=1, patience=1, seed=2)
        three = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=3, patience=3, seed=2)
        first, _ = train(cfg, train_spans, val_spans, one, init=zero_params(cfg))
        best, history = train(cfg, train_spans, val_spans, three, init=zero_params(cfg))
        assert history.best_epoch == 1 and len(history.epochs) == 3
        assert np.array_equal(best, first)

    def test_partial_last_batch_kept(self):
        # 10 windows, batch 4: the 2-window remainder still trains; the
        # recorded train loss averages over all 10 windows.
        cfg = tiny_config()
        spans = seeded_spans(cfg, 12)
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=1, patience=1, seed=3)
        _, history = train(cfg, spans[:10], spans[10:], tc)
        assert len(history.epochs) == 1
        assert np.isfinite(history.epochs[0].train_loss)

    def test_best_epoch_invariant(self):
        cfg = tiny_config()
        spans = seeded_spans(cfg, 12)
        tc = TrainConfig(learning_rate=5e-3, batch_size=4, max_epochs=6, patience=6, seed=4)
        _, history = train(cfg, spans[:8], spans[8:], tc)
        vals = [e.val_loss for e in history.epochs]
        assert history.best_val_loss == min(vals)
        assert history.epochs[history.best_epoch - 1].val_loss == min(vals)

    def test_empty_validation_rejected(self):
        cfg = tiny_config()
        with pytest.raises(DataError):
            train(cfg, seeded_spans(cfg, 4), [], TrainConfig())

    def test_incompatible_window_shape_rejected(self):
        cfg = tiny_config()
        bad = np.zeros((1, 11, 2))
        with pytest.raises(DataError):
            train(cfg, bad, bad, TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_numerical_error(self):
        cfg = tiny_config()
        params = init_params(cfg, 1)
        projection_weight(params, cfg)[0, 0] = 1e200
        spans = seeded_spans(cfg, 6)
        # Huge weight; squaring the residual overflows to inf.
        with pytest.raises(NumericalError):
            train(cfg, spans, spans, TrainConfig(max_epochs=2, batch_size=2), init=params)

    def test_evaluate_loss_matches_joint_loss(self, monkeypatch):
        # Window mean of each span's joint loss, one window at a time.
        cfg = tiny_config()
        params = init_params(cfg, 6)
        spans = seeded_spans(cfg, 5)
        per_window = [gradient_batch(params, spans[i : i + 1], cfg)[1] for i in range(5)]
        assert evaluate_loss(params, spans, cfg) == pytest.approx(
            np.mean(per_window), rel=1e-12
        )
        monkeypatch.setattr(wavets.model, "OPERATOR_CHUNK", 2)
        assert evaluate_loss(params, spans, cfg) == pytest.approx(
            np.mean(per_window), rel=1e-12
        )
