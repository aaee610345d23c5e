"""Forecaster forward path: normalization, branch sandwich, projection,
checkpoint round-trips."""

import numpy as np
import pytest

from wavets import ConfigError, DataError
from wavets.model import (
    Affine,
    ModelConfig,
    ModelParams,
    copy_params,
    forward,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    validate_params,
    zeros_like_params,
)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        lookback=8, horizon=4, channels=2, branches=2, levels=2,
        transform_kind="wdt", std_epsilon=1e-5, seed=7,
    )
    base.update(overrides)
    return ModelConfig(**base)


def identity_block_params(config: ModelConfig) -> ModelParams:
    """FRUs embed each band into its padded slot; projection passes the
    first branch straight through."""
    params = ModelParams()
    sizes = config.band_sizes()
    for _ in range(config.branches):
        m, m2 = sizes[0]
        params.fru_ll.append(Affine(weight=np.eye(m, m2), bias=np.zeros(m2)))
        lh = []
        for lv in range(1, config.levels + 1):
            m, m2 = sizes[lv]
            lh.append(Affine(weight=np.eye(m, m2), bias=np.zeros(m2)))
        params.fru_lh.append(lh)
    total = config.lookback + config.horizon
    proj = np.zeros((config.branches * total, total))
    proj[:total, :total] = np.eye(total)
    params.projection = Affine(weight=proj, bias=np.zeros(total))
    return params


# Instance normalization and denormalization are checked through
# forward_batch. With identity band maps and one branch, the cached branch
# output zcat holds the normalized window in its first L columns; with all
# maps zero, the output is the denormalized projection bias. An epsilon of
# 1e-20 vanishes against a unit std, so hand cases stay exact.
EXACT_EPS = 1e-20


def normalization_config(lookback, horizon, channels, std_epsilon=EXACT_EPS):
    return tiny_config(
        lookback=lookback, horizon=horizon, channels=channels, branches=1,
        levels=1, std_epsilon=std_epsilon,
    )


def normalized_windows(xs: np.ndarray, std_epsilon: float = EXACT_EPS):
    """(normalized (B, L, C), mean, std) as forward_batch computes them."""
    cfg = normalization_config(xs.shape[1], 2, xs.shape[2], std_epsilon)
    _, cache = forward_batch(xs, identity_block_params(cfg), cfg, want_cache=True)
    normed = cache["zcat"][:, :, : cfg.lookback].transpose(0, 2, 1)
    return normed, cache["mean"], cache["std"]


def denormalized(xs: np.ndarray, horizon: int, proj_bias: np.ndarray) -> np.ndarray:
    """forward_batch output when every map is zero except the projection
    bias, so the normalized output is that bias on every channel."""
    cfg = normalization_config(xs.shape[1], horizon, xs.shape[2])
    params = zeros_like_params(init_params(cfg, 1))
    params.projection.bias[...] = proj_bias
    return forward_batch(xs, params, cfg)


class TestInstanceNormalize:
    def test_hand_case(self):
        normed, mean, std = normalized_windows(np.array([[[1.0], [3.0]]]))
        # zcat went through a Haar analysis and synthesis: a few ulp.
        np.testing.assert_allclose(normed[0, :, 0], [-1.0, 1.0], atol=1e-15)
        assert mean[0, 0, 0] == 2.0
        assert std[0, 0, 0] == 1.0

    def test_constant_channel_guarded(self):
        normed, _, std = normalized_windows(np.full((1, 4, 1), 5.0), 1e-5)
        np.testing.assert_array_equal(normed, np.zeros((1, 4, 1)))
        assert std[0, 0, 0] == 1e-5

    def test_channels_independent(self):
        window = np.array([[[1.0, 10.0], [3.0, 10.0]]])
        normed, mean, _ = normalized_windows(window)
        np.testing.assert_array_equal(normed[0, :, 1], [0.0, 0.0])
        assert mean[0, 0, 1] == 10.0

    def test_round_trip(self, rng):
        # Identity maps pass the normalized window through, so the
        # backcast rows are normalize-then-denormalize of the input.
        xs = rng.normal(size=(2, 16, 3))
        cfg = normalization_config(16, 4, 3)
        out = forward_batch(xs, identity_block_params(cfg), cfg)
        assert np.max(np.abs(out[:, :16] - xs)) < 1e-12


class TestInstanceDenormalize:
    def test_zeros_map_to_mean(self):
        xs = np.array([[[1.0], [3.0]]])
        out = denormalized(xs, 4, 0.0)
        np.testing.assert_array_equal(out, np.full((1, 6, 1), 2.0))

    def test_hand_case(self):
        # Window mean 2, std 1: normalized outputs -1, 1, 0 map to 1, 3, 2.
        out = denormalized(np.array([[[1.0], [3.0]]]), 2, [-1.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(out[0, :, 0], [1.0, 3.0, 2.0, 2.0])

    def test_longer_output_than_window(self):
        # Denorm applies to backcast + forecast rows alike. Channel means
        # 1 and -1, stds 2 and 3; a normalized output of one everywhere.
        xs = np.array([[[-1.0, -4.0], [3.0, 2.0]]])
        out = denormalized(xs, 4, 1.0)
        np.testing.assert_array_equal(out[0, :, 0], np.full(6, 3.0))
        np.testing.assert_array_equal(out[0, :, 1], np.full(6, 2.0))


class TestFruApply:
    # The band maps run as Affine.apply on (B, C, m) stacks of bands.
    def test_zero_map(self):
        aff = Affine(weight=np.zeros((2, 3)), bias=np.zeros(3))
        out = aff.apply(np.array([[[1.0, 2.0]], [[3.0, 4.0]]]))
        np.testing.assert_array_equal(out, np.zeros((2, 1, 3)))

    def test_identity_block_selection(self):
        aff = Affine(weight=np.eye(2, 3), bias=np.zeros(3))
        out = aff.apply(np.array([[[1.0, 2.0], [5.0, 6.0]]]))
        np.testing.assert_array_equal(out, [[[1.0, 2.0, 0.0], [5.0, 6.0, 0.0]]])

    def test_hand_product(self):
        weight = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        aff = Affine(weight=weight, bias=np.array([0.0, 0.0, 1.0]))
        out = aff.apply(np.array([[[1.0, 1.0]], [[2.0, 0.0]]]))
        np.testing.assert_array_equal(out, [[[1.0, 1.0, 1.0]], [[1.0, 1.0, 1.0]]])

    def test_dimension_mismatch(self):
        aff = Affine(weight=np.eye(2, 3), bias=np.zeros(3))
        with pytest.raises(DataError):
            aff.apply(np.ones((2, 1, 3)))


class TestConfigValidation:
    def test_divisibility_enforced(self):
        cfg = tiny_config(lookback=10)
        probs = cfg.problems()
        assert any("divisible" in p for p in probs)
        with pytest.raises(ConfigError):
            cfg.ensure_valid()

    def test_all_problems_reported_together(self):
        cfg = tiny_config(lookback=-1, branches=0, transform_kind="bogus")
        probs = cfg.problems()
        assert len(probs) >= 3

    def test_dft_skips_divisibility(self):
        cfg = tiny_config(lookback=10, horizon=3, transform_kind="dft")
        assert cfg.problems() == []

    def test_effective_orders_default(self):
        assert tiny_config(branches=3).effective_orders() == [1, 2, 3]

    def test_effective_orders_dwt(self):
        assert tiny_config(transform_kind="dwt").effective_orders() == [0, 0]

    def test_branch_orders_override(self):
        cfg = tiny_config(branch_orders=[0, 0])
        assert cfg.effective_orders() == [0, 0]

    def test_branch_orders_length_checked(self):
        cfg = tiny_config(branch_orders=[1])
        assert any("branch_orders" in p for p in cfg.problems())


class TestInitParams:
    def test_same_seed_identical(self):
        cfg = tiny_config()
        a = init_params(cfg, 11)
        b = init_params(cfg, 11)
        for (name_a, blk_a), (_, blk_b) in zip(a.named_blocks(), b.named_blocks()):
            assert np.array_equal(blk_a.weight, blk_b.weight), name_a
            assert np.array_equal(blk_a.bias, blk_b.bias)

    def test_different_seeds_differ(self):
        cfg = tiny_config()
        a = init_params(cfg, 11)
        b = init_params(cfg, 12)
        assert not np.array_equal(a.projection.weight, b.projection.weight)

    def test_fan_in_bound(self):
        cfg = tiny_config()
        params = init_params(cfg, 3)
        for _, blk in params.named_blocks():
            bound = 1.0 / np.sqrt(blk.weight.shape[0])
            assert np.all(np.abs(blk.weight) <= bound)
            np.testing.assert_array_equal(blk.bias, 0.0)

    def test_dft_structure(self):
        cfg = tiny_config(transform_kind="dft")
        params = init_params(cfg, 5)
        assert len(params.fru_real) == 2 and len(params.fru_imag) == 2
        assert params.fru_ll == [] and params.fru_lh == []
        assert params.fru_real[0].weight.shape == (8 // 2 + 1, 12 // 2 + 1)


class TestForward:
    def test_zero_params_outputs_window_mean(self, rng):
        cfg = tiny_config()
        params = zeros_like_params(init_params(cfg, 1))
        window = rng.normal(size=(8, 2)) + np.array([3.0, -2.0])
        out = forward(window, params, cfg)
        want = np.tile(window.mean(axis=0), (12, 1))
        assert np.max(np.abs(out - want)) < 1e-12

    def test_identity_passthrough_backcast(self, rng):
        cfg = tiny_config(branches=1)
        params = identity_block_params(cfg)
        window = rng.normal(size=(8, 2))
        out = forward(window, params, cfg)
        # Padded bands only touch rows past L, so the backcast rows
        # reproduce the window; the tail denormalizes the zero rows.
        assert np.max(np.abs(out[:8] - window)) < 1e-9
        want_tail = np.tile(window.mean(axis=0), (4, 1))
        assert np.max(np.abs(out[8:] - want_tail)) < 1e-9

    def test_identity_passthrough_any_order(self, rng):
        # Gains cancel exactly through the sandwich.
        cfg = tiny_config(branches=1, branch_orders=[4])
        params = identity_block_params(cfg)
        window = rng.normal(size=(8, 2))
        out = forward(window, params, cfg)
        assert np.max(np.abs(out[:8] - window)) < 1e-9

    def test_channel_permutation_equivariance(self, rng):
        cfg = tiny_config(channels=3)
        params = init_params(cfg, 9)
        window = rng.normal(size=(8, 3))
        perm = [2, 0, 1]
        out_permuted_input = forward(window[:, perm], params, cfg)
        np.testing.assert_allclose(
            out_permuted_input, forward(window, params, cfg)[:, perm], atol=1e-12
        )

    def test_deterministic(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, 2)
        window = rng.normal(size=(8, 2))
        assert np.array_equal(forward(window, params, cfg), forward(window, params, cfg))

    def test_dwt_equals_wdt_with_zero_orders(self, rng):
        cfg_dwt = tiny_config(transform_kind="dwt")
        cfg_wdt0 = tiny_config(transform_kind="wdt", branch_orders=[0, 0])
        params = init_params(cfg_dwt, 21)
        window = rng.normal(size=(8, 2))
        out_a = forward(window, params, cfg_dwt)
        out_b = forward(window, params, cfg_wdt0)
        assert np.max(np.abs(out_a - out_b)) < 1e-12

    def test_dft_forward_shapes(self, rng):
        cfg = tiny_config(transform_kind="dft", lookback=10, horizon=3)
        params = init_params(cfg, 4)
        out = forward(rng.normal(size=(10, 2)), params, cfg)
        assert out.shape == (13, 2)
        assert np.all(np.isfinite(out))

    def test_batch_matches_single(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, 8)
        xs = rng.normal(size=(5, 8, 2))
        batch_out = forward_batch(xs, params, cfg)
        for i in range(5):
            np.testing.assert_allclose(
                batch_out[i], forward(xs[i], params, cfg), atol=1e-12
            )

    def test_wrong_window_shape_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, 1)
        with pytest.raises(DataError):
            forward(np.zeros((9, 2)), params, cfg)


class TestValidateParams:
    def test_accepts_fresh_params(self):
        cfg = tiny_config()
        validate_params(init_params(cfg, 1), cfg)

    def test_rejects_wrong_projection_shape(self):
        cfg = tiny_config()
        params = init_params(cfg, 1)
        params.projection = Affine(weight=np.zeros((3, 3)), bias=np.zeros(3))
        with pytest.raises(ConfigError):
            validate_params(params, cfg)

    def test_rejects_missing_branch(self):
        cfg = tiny_config()
        params = init_params(cfg, 1)
        params.fru_ll.pop()
        with pytest.raises(ConfigError):
            validate_params(params, cfg)

    def test_rejects_nonfinite(self):
        cfg = tiny_config()
        params = init_params(cfg, 1)
        params.fru_ll[0].weight[0, 0] = np.nan
        with pytest.raises(ConfigError):
            validate_params(params, cfg)

    def test_rejects_mixed_kind_blocks(self):
        cfg = tiny_config()
        params = init_params(cfg, 1)
        params.fru_real.append(Affine(weight=np.zeros((5, 7)), bias=np.zeros(7)))
        with pytest.raises(ConfigError):
            validate_params(params, cfg)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, 33)
        path = str(tmp_path / "model.json")
        save_checkpoint(params, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        for (name, a), (_, b) in zip(params.named_blocks(), loaded.named_blocks()):
            assert np.array_equal(a.weight, b.weight), name
            assert np.array_equal(a.bias, b.bias), name

    def test_save_is_deterministic(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, 33)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(params, cfg, str(p1))
        save_checkpoint(params, cfg, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_dft_round_trip(self, tmp_path):
        cfg = tiny_config(transform_kind="dft")
        params = init_params(cfg, 5)
        path = str(tmp_path / "model.json")
        save_checkpoint(params, cfg, path)
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded.fru_imag[1].weight, params.fru_imag[1].weight)

    def test_wrong_version_rejected(self, tmp_path):
        cfg = tiny_config()
        path = str(tmp_path / "model.json")
        save_checkpoint(init_params(cfg, 1), cfg, path)
        doc = (tmp_path / "model.json").read_text().replace(
            '"version": 1', '"version": 99', 1
        )
        (tmp_path / "model.json").write_text(doc)
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(DataError):
            load_checkpoint(str(path))


class TestParamHelpers:
    def test_copy_is_deep(self):
        cfg = tiny_config()
        params = init_params(cfg, 2)
        clone = copy_params(params)
        clone.projection.weight[0, 0] += 1.0
        assert params.projection.weight[0, 0] != clone.projection.weight[0, 0]

    def test_zeros_like_structure(self):
        cfg = tiny_config()
        params = init_params(cfg, 2)
        zeros = zeros_like_params(params)
        names = [n for n, _ in params.named_blocks()]
        assert [n for n, _ in zeros.named_blocks()] == names
        for _, blk in zeros.named_blocks():
            assert not blk.weight.any()

    def test_named_blocks_cover_everything_once(self):
        cfg = tiny_config(branches=3, levels=2)
        params = init_params(cfg, 2)
        names = [n for n, _ in params.named_blocks()]
        assert len(names) == len(set(names))
        # 3 approx + 3*2 detail + projection
        assert len(names) == 3 + 6 + 1
